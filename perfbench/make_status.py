"""Record the status of every suite check on the suite workloads' models.

Run from the root of a checkout of the commit the table should describe:

    python3 perfbench/make_status.py

The benchmark compares every later run against this table: a check that
passed or ran here and now fails or skips counts against ``fail_share`` and
makes the run incorrect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ltp import run_suite  # noqa: E402

from workloads import STATUS_TABLE, SUITE_P, SUITE_SEED, SUITE_SPECS  # noqa: E402


def main() -> None:
    specs = {}
    for workload_specs in SUITE_SPECS.values():
        for spec in workload_specs:
            report = run_suite(spec, SUITE_P, seed=SUITE_SEED)
            specs[spec] = {check.name: check.status for check in report.checks}
    table = {"suite_seed": SUITE_SEED, "p": list(SUITE_P), "specs": specs}
    STATUS_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

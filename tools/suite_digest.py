"""Print one ``seed spec sha256`` line per benchmark suite report.

Each line hashes ``run_suite(spec, SUITE_P, seed=seed).to_json()`` for every
spec of the benchmark's suite workloads, both read from
``perfbench/workloads.py``.  A change meant to keep the suite's behaviour is
checked by diffing the output of two checkouts:

    python tools/suite_digest.py > before.txt     # on the parent
    python tools/suite_digest.py > after.txt      # on the change
    diff before.txt after.txt

With ``--checks`` it prints one ``seed spec check status observed`` line per
check instead, so the same diff names every check whose status or observed
value moved (a skipped check reads ``-``):

    python tools/suite_digest.py --checks $(seq 0 29) > before.txt

Seeds are the other arguments, 0 and 1 when none is given.  BLAS runs on one
thread, and the package is imported from this checkout's ``src``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ltp.suite import run_suite  # noqa: E402
from workloads import SUITE_P, SUITE_SPECS  # noqa: E402


def main(argv: list[str]) -> int:
    checks = "--checks" in argv
    seeds = [int(arg) for arg in argv if arg != "--checks"] or [0, 1]
    for seed in seeds:
        for specs in SUITE_SPECS.values():
            for spec in specs:
                report = run_suite(spec, SUITE_P, seed=seed)
                if checks:
                    for check in report.checks:
                        observed = "-" if check.observed is None else repr(check.observed)
                        print(f"{seed} {spec} {check.name} {check.status} {observed}")
                    sys.stdout.flush()
                    continue
                digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
                print(f"{seed} {spec} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

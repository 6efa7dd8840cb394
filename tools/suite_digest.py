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
value moved.  A skipped check reads the first word of its note in place of
a value, ``needs`` (the model lacks a hypothesis) or ``unbuilt`` (ltp has
not built what the check reads), so a skip whose kind moves shows as well:

    python tools/suite_digest.py --checks $(seq 0 29) > before.txt

Each ``--spec SPEC`` (repeatable) replaces the benchmark's lists, so that a
model outside them can be diffed the same way:

    python tools/suite_digest.py --checks --spec affine:0.1:1:0.1:1 0 1

Seeds are the other arguments, 0 and 1 when none is given.  BLAS runs on one
thread, and the package is imported from this checkout's ``src``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ltp.suite import run_suite  # noqa: E402
from workloads import SUITE_P, SUITE_SPECS  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Print one digest per suite report, or one line per check.")
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 1])
    parser.add_argument("--checks", action="store_true",
                        help="one line per check instead of one digest per report")
    parser.add_argument("--spec", action="append", metavar="SPEC",
                        help="a model to run in place of the benchmark's (repeatable)")
    args = parser.parse_intermixed_args(argv)
    specs = args.spec or [spec for specs in SUITE_SPECS.values() for spec in specs]
    for seed in args.seeds:
        for spec in specs:
            report = run_suite(spec, SUITE_P, seed=seed)
            if args.checks:
                for check in report.checks:
                    if check.observed is None:  # needs or unbuilt
                        observed = check.notes.split(maxsplit=1)[0].rstrip(":")
                    else:
                        observed = repr(check.observed)
                    print(f"{seed} {spec} {check.name} {check.status} {observed}")
                sys.stdout.flush()
                continue
            digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
            print(f"{seed} {spec} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

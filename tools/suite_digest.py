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
model outside them can be diffed the same way, and ``--p`` replaces the
benchmark's exponents 2 and 1.5:

    python tools/suite_digest.py --checks --spec affine:0.1:1:0.1:1 --p 1,3 0 1

With ``--statuses`` it prints a status matrix: one row per seed and spec,
one letter per task ("." pass, "s" skipped, "F" fail) in the order of its
``tasks`` line, and each failing task after the letters, tagged with its
defect from ``KNOWN_DEFECTS`` ("untracked" when none is known).  The two
matrices under ``tests/`` regenerate with the command in their headers:

    python tools/suite_digest.py --statuses $(seq 0 29) > tests/statuses_benchmark.txt

Seeds are the other arguments, 0 and 1 when none is given.  Run as a script,
BLAS runs on one thread; the package is imported from this checkout's
``src``.
"""

import os

if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ltp.cli import _parse_p_list  # noqa: E402
from ltp.suite import run_suite  # noqa: E402
from workloads import SUITE_P, SUITE_SPECS  # noqa: E402

STATUS_LETTERS = {"pass": ".", "skipped": "s", "fail": "F"}
# The defect behind each known failure, by (family, check): its tag and what it is
KNOWN_DEFECTS = {("affine", "reflect-norm-identity"): (
    "affine-resampling", "the affine transports' resampling error exceeds "
                         "reflect-norm-identity's tolerance 1e-2 (ROADMAP, Known defects)")}


def status_row(seed: int, spec: str, report) -> str:
    """``seed spec letters`` and each failing task tagged with its defect."""
    family = spec.split(":", 1)[0]
    row = [str(seed), spec, "".join(STATUS_LETTERS[check.status] for check in report.checks)]
    for check in report.checks:
        if check.status == "fail":
            defect, _ = KNOWN_DEFECTS.get((family, check.name.split("@")[0]), ("untracked", ""))
            row.append(f"{check.name}:{defect}")
    return " ".join(row)


def status_header(argv: list[str], p_values, tasks: list[str]) -> list[str]:
    """The matrix's comment lines, its ``p`` line and its ``tasks`` line."""
    return ["# Suite statuses: one row per seed and spec, one letter per task of the tasks line",
            "# ('.' pass, 's' skipped, 'F' fail), then each failing task tagged with its defect:",
            *(f"#   {tag}: {what}" for tag, what in KNOWN_DEFECTS.values()),
            "# regenerate: python tools/suite_digest.py " + " ".join(argv) + " > this file",
            "p " + ",".join(f"{p:g}" for p in p_values),
            "tasks " + " ".join(tasks)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Print one digest per suite report, one line per check, "
                    "or one status row per report.")
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 1])
    parser.add_argument("--checks", action="store_true",
                        help="one line per check instead of one digest per report")
    parser.add_argument("--statuses", action="store_true",
                        help="a status matrix: one row of status letters per report")
    parser.add_argument("--spec", action="append", metavar="SPEC",
                        help="a model to run in place of the benchmark's (repeatable)")
    parser.add_argument("--p", type=_parse_p_list, default=list(SUITE_P), metavar="P,P",
                        help="exponents in place of the benchmark's 2,1.5")
    args = parser.parse_intermixed_args(argv)
    specs = args.spec or [spec for specs in SUITE_SPECS.values() for spec in specs]
    for seed in args.seeds:
        for spec in specs:
            report = run_suite(spec, args.p, seed=seed)
            if args.statuses:
                if seed == args.seeds[0] and spec == specs[0]:
                    tasks = [check.name for check in report.checks]
                    print("\n".join(status_header(argv, args.p, tasks)))
                print(status_row(seed, spec, report), flush=True)
                continue
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

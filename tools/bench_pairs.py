"""Run interleaved benchmark pairs of two checkouts and compare their
end-to-end metrics.

    python tools/bench_pairs.py PARENT CHANGE --workload suite-finite \\
        [--pairs 10 --seconds 30 --first-seed 1]

PARENT and CHANGE are two checkouts of the repository, such as two git
worktrees.  Pair i runs the benchmark command of ``BENCHMARK.json`` (``python3
perfbench/run.py``) in each checkout with ``--workload W --seed S --seconds T
--trace 0``, both sides at the seed ``first-seed + i``; the side that runs
first alternates from pair to pair, so that a slow phase of the host falls on
both.  Each run's result is the JSON object on the last line of its standard
output.

For each end-to-end metric of ``BENCHMARK.json`` it prints both medians, the
parent's quartiles, the number of pairs in which the change did better in
the metric's ``better`` direction (a tie counts for neither side) and a
verdict, the first of these that holds, with the metric's ``bound`` taken
relative to the parent's median:

* gain: the change is better in at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
* regression: the change's median is worse than the parent's by more than
  the bound;
* unresolved: the parent's interquartile range is wider than the bound,
  and not every run of the change reads better than every run of the
  parent;
* unchanged: otherwise.

Any run that failed, or reported ``correct: false`` or a failed operation,
is flagged on a line of its own.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The last stdout line of one benchmark run in ``checkout``, or a
    record that says why there is none."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                      "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return {"correct": False, "error": f"exit {proc.returncode}: {tail}"}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """The report's lines for ``pairs`` of (parent, change) run records and
    the metrics of ``BENCHMARK.json``'s ``end_to_end`` list."""
    lines = []
    for i, pair in enumerate(pairs):
        for side, record in zip(SIDES, pair):
            if "error" in record:
                lines.append(f"FLAG pair {i} {side}: {record['error']}")
            elif not record.get("correct") or record.get("failed", 0):
                lines.append(f"FLAG pair {i} {side}: correct {record.get('correct')}, "
                             f"{record.get('failed', 0)} of {record.get('attempted', 0)} "
                             "operations failed")
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        both = [tuple(record["metrics"][name]["value"] for record in pair) for pair in pairs
                if all(name in record.get("metrics", {}) for record in pair)]
        if not both:
            lines.append(f"{name}: no pair measured it")
            continue
        parent, change = zip(*both)
        q1, q3 = _quartiles(list(parent))
        old, new = statistics.median(parent), statistics.median(change)
        won = sum(sign * (b - a) > 0 for a, b in both)
        lost = sum(sign * (b - a) < 0 for a, b in both)
        bound = metric["bound"] * abs(old)
        if won >= 0.9 * len(both) and sign * (new - old) > q3 - q1:
            verdict = "gain"
        elif sign * (new - old) < -bound:
            verdict = "regression"
        elif q3 - q1 > bound and min(sign * b for b in change) <= max(sign * a for a in parent):
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        lines.append(f"{name} ({metric['better']} is better): parent median "
                     f"{old:.6g} (quartiles {q1:.6g} .. {q3:.6g}), change median {new:.6g}; "
                     f"change better in {won}, worse in {lost} of {len(both)} pairs: {verdict}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = (args.parent, args.change)
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        pair = [{}, {}]
        for side in order:
            pair[side] = run_once(benchmark["command"], checkouts[side], args.workload, seed,
                                  args.seconds)
            print(f"pair {i} seed {seed} {SIDES[side]}: {json.dumps(pair[side])}", flush=True)
        pairs.append(tuple(pair))
    print("\n".join(summarize(benchmark["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

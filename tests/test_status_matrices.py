"""The suite's status matrices: the status of every task of ``run_suite``
over a grid of seeds, models and exponents, committed under ``tests/``.

``statuses_benchmark.txt`` holds the nine benchmark models at seeds 0-29 and
p = 2 and 1.5; ``statuses_small.txt`` holds 47 small specs over every family
of the grammar at seeds 0-2 and p = 1, 1.5, 2 and 3.  Each is one row per
seed and spec, one letter per task, and each failing task tagged with its
defect, written by ``tools/suite_digest.py --statuses`` with the command in
the file's header.  A recomputed row that differs fails the test, which
names every task whose status or tag moved.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from ltp import suite
from ltp.suite import REGISTRY, run_suite

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE / "statuses_benchmark.txt"
SMALL = HERE / "statuses_small.txt"


@pytest.fixture(scope="module")
def tool():
    path = HERE.parent / "tools" / "suite_digest.py"
    spec = importlib.util.spec_from_file_location("suite_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path: Path):
    """The matrix's exponents, tasks, regenerate command and rows."""
    p = tasks = command = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        head, _, rest = line.partition(" ")
        if line.startswith("# regenerate: "):
            command = line.removeprefix("# regenerate: ").replace(
                "> this file", f"> tests/{path.name}")
        elif head == "p":
            p = [float(tok) for tok in rest.split(",")]
        elif head == "tasks":
            tasks = rest.split()
        elif head != "#":
            rows.append(line)
    return p, tasks, command, rows


def _moved(tool, path: Path, rows=None) -> list[str]:
    """``seed spec task: before -> now`` for each task whose status moved,
    and ``seed spec tags: ...`` for each row whose failure tags moved."""
    p, tasks, _, committed = _read(path)
    moved = []
    for line in committed if rows is None else rows:
        seed, spec, letters, *tags = line.split()
        report = run_suite(spec, p, seed=int(seed))
        assert [check.name for check in report.checks] == tasks, spec
        _, _, now, *now_tags = tool.status_row(int(seed), spec, report).split()
        moved += [f"{seed} {spec} {task}: {before} -> {after}"
                  for task, before, after in zip(tasks, letters, now) if before != after]
        if tags != now_tags:
            moved.append(f"{seed} {spec} tags: {tags} -> {now_tags}")
    return moved


def _check(tool, path: Path) -> None:
    moved = _moved(tool, path)
    command = _read(path)[2]
    assert not moved, ("statuses moved from the matrix:\n  " + "\n  ".join(moved)
                       + f"\nname each move in CHANGES.md; a meant move regenerates with\n"
                         f"  {command}")


def test_small_specs_keep_their_statuses(tool):
    _check(tool, SMALL)


@pytest.mark.slow
def test_benchmark_models_keep_their_statuses_at_seeds_0_to_29(tool):
    _check(tool, BENCHMARK)


def test_each_matrix_covers_its_grid_and_tags_its_known_failures():
    # the failures are the affine resampling defect (ROADMAP, Known defects)
    for path, seeds, n_specs, failures in (
            (BENCHMARK, 30, 9, {"8 affine:0.125:1:0.125:1 reflect-norm-identity@p=2",
                                "11 affine:0.125:1:0.125:1 reflect-norm-identity@p=2"}),
            (SMALL, 3, 47, {"0 affine:0.25:1:0.25:1 reflect-norm-identity@p=1",
                            "1 affine:0.25:1:0.25:1 reflect-norm-identity@p=1",
                            "2 affine:0.25:1:0.25:1 reflect-norm-identity@p=1",
                            "2 affine:0.25:1:0.25:1 reflect-norm-identity@p=1.5",
                            "0 affine:0.1:0.5:0.2:1 reflect-norm-identity@p=1",
                            "1 affine:0.1:0.5:0.2:1 reflect-norm-identity@p=1",
                            "2 affine:0.1:0.5:0.2:1 reflect-norm-identity@p=1"})):
        _, tasks, command, rows = _read(path)
        assert command.startswith("python tools/suite_digest.py --statuses "), path.name
        cells = [row.split() for row in rows]
        assert len({(seed, spec) for seed, spec, *_ in cells}) == len(rows) == seeds * n_specs
        assert {seed for seed, *_ in cells} == {str(seed) for seed in range(seeds)}
        tagged, failing = set(), set()
        for seed, spec, letters, *tags in cells:
            assert len(letters) == len(tasks) and set(letters) <= set(".sF"), (seed, spec)
            failing.update(f"{seed} {spec} {task}"
                           for task, letter in zip(tasks, letters) if letter == "F")
            for tag in tags:
                task, _, defect = tag.rpartition(":")
                assert defect == "affine-resampling", tag
                tagged.add(f"{seed} {spec} {task}")
        assert failing == tagged == failures, path.name


def test_a_planted_status_change_is_named(tool, monkeypatch):
    planted = [check if check.name != "l1-linf-split" else
               dataclasses.replace(check, runner=lambda ctx: 1.0) for check in REGISTRY]
    monkeypatch.setattr(suite, "REGISTRY", planted)
    rows = [row for row in _read(SMALL)[3] if row.split()[:2] in (["0", "cyclic:4"], ["1", "z:3"])]
    assert len(rows) == 2
    assert _moved(tool, SMALL, rows) == [
        "0 cyclic:4 l1-linf-split: . -> F",
        "0 cyclic:4 tags: [] -> ['l1-linf-split:untracked']",
        "1 z:3 l1-linf-split: . -> F",
        "1 z:3 tags: [] -> ['l1-linf-split:untracked']",
    ]

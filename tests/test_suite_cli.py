"""The theorem suite, report emission, determinism, and the CLI."""

import json
import os

import numpy as np
import pytest

import ltp
from ltp.cli import main, parse_function_source
from ltp.report import CheckResult, SuiteReport, emit_report
from ltp.suite import REGISTRY, coverage_gaps, registry_self_test, run_suite
from ltp.tempered import IterConfig, tempered_norm


def test_registry_covers_every_anchor():
    registry_self_test()
    assert coverage_gaps() == []


def test_registry_names_unique():
    names = [c.name for c in REGISTRY]
    assert len(names) == len(set(names))


def test_suite_cyclic16_all_pass():
    report = run_suite("cyclic:16@counting", [2.0], seed=7)
    assert report.summary["fail"] == 0
    assert report.summary["pass"] > 20
    names = {c.name for c in report.checks}
    assert "spectral-svd-agreement" in names
    assert "restricted-isometry" in names


# Boyd calls of one run_suite pass at p = 1.5, seed 0: every check that reads
# only the upper end of a bracket takes it without the iteration.  When a
# check changes the norms it asks for, recount with this test's counter
# (print ``boyd_calls``) and state the old and new counts with that change.
BOYD_CALLS_AT_P15 = {"circle:64": 52, "affine:0.125:1:0.125:1": 8}


def test_suite_boyd_call_counts_are_pinned(boyd_calls):
    for spec, expected in BOYD_CALLS_AT_P15.items():
        del boyd_calls[:]
        run_suite(spec, [1.5], seed=0)
        assert len(boyd_calls) == expected, spec


def test_suite_probability_side_skips_discrete_checks():
    report = run_suite("cyclic:16@probability", [2.0], seed=7)
    assert report.summary["fail"] == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["discrete-lower-bound@p=2"].status == "skipped"
    assert "counting" in by_name["discrete-lower-bound@p=2"].notes
    assert by_name["compact-upper-bound@p=2"].status == "pass"


def test_suite_affine_skips_spectral_with_reason():
    report = run_suite("affine:0.25:2:0.25:4", [2.0], seed=7)
    assert report.summary["fail"] == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["dirac-scaling@p=2"].status == "pass"
    assert by_name["conv-theorem"].status == "skipped"
    assert "not a declared product" in by_name["conv-theorem"].notes


def test_suite_z64_p1_identity():
    report = run_suite("z:64@counting", [1.0], seed=3)
    assert report.summary["fail"] == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["l1-identity"].status == "pass"
    assert by_name["quasi-identity-blowup@p=1"].status == "skipped"


def test_suite_real_line_quasi_identity():
    report = run_suite("r:0.05:4@counting", [2.0], seed=1)
    by_name = {c.name: c for c in report.checks}
    assert by_name["quasi-identity-blowup@p=2"].status == "pass"
    assert report.summary["fail"] == 0


def test_tolerance_override_can_fail_a_check():
    report = run_suite("affine:0.25:2:0.25:4", [2.0], seed=7,
                       tol_overrides={"reflect-norm-identity": 1e-12})
    by_name = {c.name: c for c in report.checks}
    assert by_name["reflect-norm-identity@p=2"].status == "fail"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

SCHEMA_KEYS = ["version", "spec", "seed", "checks", "summary"]
CHECK_KEYS = ["name", "paper_ref", "status", "observed", "expected",
              "tolerance", "runtime_ms", "notes"]


def test_empty_report_schema():
    report = SuiteReport(version="0.1.0", spec="cyclic:2", seed=0, checks=[])
    data = json.loads(report.to_json())
    assert list(data.keys()) == SCHEMA_KEYS
    assert data["summary"] == {"pass": 0, "fail": 0, "skipped": 0}


def test_report_schema_and_roundtrip(tmp_path):
    report = run_suite("cyclic:16@counting", [2.0], seed=7)
    path = tmp_path / "report.json"
    emit_report(report, str(path), "json")
    data = json.loads(path.read_text())
    assert list(data.keys()) == SCHEMA_KEYS
    for check in data["checks"]:
        assert list(check.keys()) == CHECK_KEYS
        assert check["status"] in ("pass", "fail", "skipped")
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for check in data["checks"]:
        counts[check["status"]] += 1
    assert counts == data["summary"]


def test_report_csv_and_markdown(tmp_path):
    report = run_suite("cyclic:8@counting", [2.0], seed=1)
    csv_path = tmp_path / "report.csv"
    emit_report(report, str(csv_path), "csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "name,paper_ref,status,observed,expected,tolerance,runtime_ms,notes"
    assert len(lines) == 1 + len(report.checks)
    md_path = tmp_path / "report.md"
    emit_report(report, str(md_path), "markdown")
    assert "| name | status |" in md_path.read_text()


def test_report_determinism_same_inputs():
    a = run_suite("cyclic:16@counting", [2.0, 1.5], seed=7).to_json()
    b = run_suite("cyclic:16@counting", [2.0, 1.5], seed=7).to_json()
    assert a == b
    c = run_suite("cyclic:16@counting", [2.0, 1.5], seed=8).to_json()
    assert a != c


def test_report_determinism_across_thread_counts():
    previous = os.environ.get("LTP_THREADS")
    try:
        os.environ["LTP_THREADS"] = "1"
        a = run_suite("cyclic:16@counting", [2.0], seed=7).to_json()
        os.environ["LTP_THREADS"] = "8"
        b = run_suite("cyclic:16@counting", [2.0], seed=7).to_json()
    finally:
        if previous is None:
            os.environ.pop("LTP_THREADS", None)
        else:
            os.environ["LTP_THREADS"] = previous
    assert a == b


def test_timings_flag_populates_runtime():
    timed = run_suite("cyclic:8@counting", [2.0], seed=0, timings=True)
    assert any(c.runtime_ms > 0 for c in timed.checks)
    untimed = run_suite("cyclic:8@counting", [2.0], seed=0)
    assert all(c.runtime_ms == 0 for c in untimed.checks)


def test_check_result_interval_semantics():
    inside = CheckResult.build("x", "ref", observed=0.95, expected=[0.9, 1.0],
                               tolerance=0.0)
    assert inside.passed
    outside = CheckResult.build("x", "ref", observed=0.85, expected=[0.9, 1.0],
                                tolerance=0.0)
    assert not outside.passed


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_norm_inline(capsys):
    rc = main(["norm", "--group", "cyclic:4@counting", "--f", "1,1,0,0", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower=2.0" in out and "upper=2.0" in out


def test_cli_norm_box_on_lattice(capsys):
    rc = main(["norm", "--group", "z:64@counting", "--f", "box:1", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    lower = float(out.split("lower=")[1].splitlines()[0])
    assert abs(lower - 3.0) < 1e-6


def test_cli_norm_zero(capsys):
    rc = main(["norm", "--group", "cyclic:4@counting", "--f", "0,0,0,0", "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower=0.0" in out


def test_cli_parse_errors_exit_2(capsys):
    assert main(["norm", "--group", "bogus:4", "--f", "dirac", "--p", "2"]) == 2
    assert main(["norm", "--group", "cyclic:4", "--f", "1,burp", "--p", "2"]) == 2
    assert main(["norm", "--group", "cyclic:4", "--f", "1,2", "--p", "2"]) == 2
    capsys.readouterr()


def test_cli_norm_honours_small_restart_counts(capsys):
    model = ltp.build_group("dihedral:6")
    f = ltp.random_function(model, 3)
    lowers = []
    for restarts in (1, 2, 3):
        rc = main(["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "1.5",
                   "--restarts", str(restarts)])
        assert rc == 0
        lowers.append(float(capsys.readouterr().out.split("lower=")[1].splitlines()[0]))
        cfg = IterConfig(restarts=restarts)
        assert lowers[-1] == tempered_norm(f, 1.5, cfg=cfg).lower
    assert lowers[0] != lowers[2]  # one restart is not silently run as three
    for restarts in ("0", "-2"):
        assert main(["norm", "--group", "dihedral:6", "--f", "random:3", "--p", "1.5",
                     "--restarts", restarts]) == 2
        assert "restarts must be at least 1" in capsys.readouterr().err


def test_cli_resource_errors_exit_3(capsys):
    assert main(["norm", "--group", "z:600000", "--f", "dirac", "--p", "2"]) == 3
    capsys.readouterr()


def test_cli_suite_writes_report(tmp_path, capsys):
    out = tmp_path / "suite.json"
    rc = main(["suite", "--group", "cyclic:8@counting", "--p", "2",
               "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["spec"] == "cyclic:8@counting"
    assert data["summary"]["fail"] == 0


def test_cli_suite_stdout_json(capsys):
    rc = main(["suite", "--group", "cyclic:4@counting", "--p", "2", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert data["seed"] == 0


def test_cli_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("group=cyclic:4@counting\nf=1,1,0,0\np=2\n")
    rc = main(["norm", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lower=2.0" in out


def test_cli_flags_win_over_the_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    out = tmp_path / "r.json"
    config.write_text(f"group=cyclic:8@counting\np=2\nseed=7\nout={out}\n")
    assert main(["suite", "--config", str(config)]) == 0
    assert json.loads(out.read_text())["seed"] == 7
    assert main(["suite", "--config", str(config), "--seed", "0"]) == 0
    assert json.loads(out.read_text())["seed"] == 0
    config.write_text("group=dihedral:6\nf=random:3\np=1.5\nrestarts=3\n")
    capsys.readouterr()
    f = ltp.random_function(ltp.build_group("dihedral:6"), 3)
    for argv, restarts in ((["--restarts", "8"], 8), ([], 3)):
        assert main(["norm", "--config", str(config)] + argv) == 0
        lower = float(capsys.readouterr().out.split("lower=")[1].splitlines()[0])
        assert lower == tempered_norm(f, 1.5, cfg=IterConfig(restarts=restarts)).lower
    # config values are checked like the flags they stand for
    config.write_text("group=cyclic:4@counting\nformat=xml\n")
    with pytest.raises(SystemExit) as exited:
        main(["suite", "--config", str(config)])
    assert exited.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    rc = main(["suite", "--group", "cyclic:4@counting", "--p", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot write report") and err.count("\n") == 1
    assert not out.exists()


def test_cli_spelled_tolerance_override(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(["suite", "--group", "cyclic:8@counting", "--p", "2",
               "--out", str(out), "--tol-holder-pairing", "0.5"])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out.read_text())
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["holder-pairing@p=2"]["tolerance"] == 0.5


def test_cli_spectral(capsys):
    rc = main(["spectral", "--group", "cyclic:4@counting", "--f", "1,1,0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fhat" in out
    assert "difference" in out


def test_cli_folner(capsys):
    rc = main(["folner", "--group", "z:64@counting", "--c-radius", "1",
               "--epsilon", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "box radius L = 5" in out


def test_function_source_csv(tmp_path):
    G = ltp.build_group("cyclic:4@counting")
    path = tmp_path / "f.csv"
    path.write_text("1\n2\n3\n4\n")
    f = parse_function_source(G, str(path))
    assert np.allclose(f.values, [1, 2, 3, 4])
    f2 = parse_function_source(G, "csv:" + str(path))
    assert np.allclose(f2.values, f.values)


def test_function_source_generators():
    G = ltp.build_group("z:8@counting")
    assert parse_function_source(G, "dirac").values[G.identity] == 1.0
    assert parse_function_source(G, "box:2").values.real.sum() == 5.0
    assert parse_function_source(G, "gauss:1.0").values[G.identity] == 1.0
    r1 = parse_function_source(G, "random:5")
    r2 = parse_function_source(G, "random:5")
    assert np.array_equal(r1.values, r2.values)

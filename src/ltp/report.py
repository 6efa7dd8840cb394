"""Check outcomes and machine-readable suite reports.

The JSON schema is fixed: {version, spec, seed, checks:[{name, paper_ref,
status, observed, expected, tolerance, runtime_ms, notes}], summary:{pass,
fail, skipped}}.  A check's keys, like the CSV columns, are the fields of
:class:`CheckResult` in their order, and the report's are those of
:class:`SuiteReport` followed by ``summary``.  Emission is byte-deterministic
for fixed inputs; wall-clock timings are therefore opt-in (runtime_ms is 0
unless timings were requested).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, astuple, dataclass, field, fields

from .errors import DomainError

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class CheckResult:
    """One named check: observed vs expected vs tolerance.

    ``expected`` may be a scalar (pass iff |observed - expected| <= tolerance)
    or a two-element interval [lo, hi] (pass iff observed lies inside, with
    the tolerance widening both ends).  :meth:`build` stores both as Python
    floats, an interval as a list of two.
    """

    name: str
    paper_ref: str
    status: str
    observed: object
    expected: object
    tolerance: float
    runtime_ms: float = 0.0
    notes: str = ""

    @classmethod
    def build(cls, name: str, paper_ref: str, *, observed, expected,
              tolerance: float, notes: str = "", runtime_ms: float = 0.0) -> "CheckResult":
        status = PASS if cls.evaluate(observed, expected, tolerance) else FAIL
        if isinstance(expected, (list, tuple)):
            expected = [float(end) for end in expected]
        else:
            expected = float(expected)
        return cls(name, paper_ref, status, float(observed), expected,
                   float(tolerance), float(runtime_ms), notes)

    @classmethod
    def skip(cls, name: str, paper_ref: str, reason: str) -> "CheckResult":
        return cls(name, paper_ref, SKIPPED, None, None, 0.0, 0.0, reason)

    @staticmethod
    def evaluate(observed, expected, tolerance: float) -> bool:
        if isinstance(expected, (list, tuple)):
            lo, hi = expected
            return (lo - tolerance) <= observed <= (hi + tolerance)
        return abs(observed - expected) <= tolerance

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    """Aggregated run of the theorem suite over one model."""

    version: str
    spec: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {PASS: 0, FAIL: 0, SKIPPED: 0}
        for check in self.checks:
            counts[check.status] += 1
        return {"pass": counts[PASS], "fail": counts[FAIL], "skipped": counts[SKIPPED]}

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "summary": self.summary}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(column.name for column in fields(CheckResult))
        for check in self.checks:
            writer.writerow(_flat(value) for value in astuple(check))
        return buffer.getvalue()

    def to_markdown(self) -> str:
        lines = [f"# Suite report: {self.spec}",
                 "",
                 f"version {self.version}, seed {self.seed}",
                 "",
                 "| name | status | observed | expected | tolerance | notes |",
                 "| --- | --- | --- | --- | --- | --- |"]
        for check in self.checks:
            lines.append("| {} | {} | {} | {} | {} | {} |".format(
                check.name, check.status, _flat(check.observed),
                _flat(check.expected), _flat(check.tolerance),
                check.notes.replace("|", "/")))
        s = self.summary
        lines += ["", f"pass {s['pass']}, fail {s['fail']}, skipped {s['skipped']}", ""]
        return "\n".join(lines)


def _flat(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(_flat(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


FORMATS = ("json", "csv", "markdown")


def check_writable(path: str) -> None:
    """Raise the error of :func:`emit_report` when ``path`` cannot be
    written, without creating or changing anything: its directory must
    exist and be writable, and so must the file if it exists."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory!r}"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise IOError(f"cannot write report to {path!r}: {reason}")


def render_report(report: SuiteReport, fmt: str = "json") -> str:
    """The report's text in the requested format, as written to a file."""
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "csv":
        return report.to_csv()
    return report.to_markdown()


def emit_report(report: SuiteReport, path: str, fmt: str = "json") -> None:
    """Write the report to ``path`` in the requested format."""
    text = render_report(report, fmt)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write report to {path!r}: {exc}") from exc

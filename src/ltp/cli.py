"""Batch command line: build a model from a spec string, run the theorem
suite or individual computations, and emit machine-readable reports.

Exit codes: 0 success (and, for `suite`, no failed checks), 1 failed checks,
2 parse/usage errors, 3 resource-cap errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .errors import LtpError, ResourceError, SpecParseError
from .groups import build_group
from .report import FORMATS, check_writable, emit_report, render_report
from .space import Exponent, GFunction, box_function, dirac, gauss_function, random_function
from .spectral import build_dual, fourier, restricted_isometry_terms
from .suite import run_suite
from .folner import find_folner
from .tempered import IterConfig, tempered_norm

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _load_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise SpecParseError(f"config line without '=': {line!r}")
                key, _, value = line.partition("=")
                pairs.append((key.strip(), value.strip()))
    except OSError as exc:
        raise SpecParseError(f"cannot read config {path!r}: {exc}") from exc
    return pairs


def parse_function_source(model, source: str) -> GFunction:
    """Inline values, a CSV path (csv:PATH or *.csv), or a named generator:
    dirac | box:R | gauss:S | random:SEED."""
    source = source.strip()
    if source == "dirac":
        return dirac(model)
    if source.startswith("box:"):
        return box_function(model, float(source[4:]))
    if source.startswith("gauss:"):
        return gauss_function(model, float(source[6:]))
    if source.startswith("random:"):
        return random_function(model, int(source[7:]))
    if source.startswith("csv:") or source.endswith(".csv"):
        path = source[4:] if source.startswith("csv:") else source
        try:
            with open(path, "r", encoding="utf-8") as handle:
                tokens = [tok for line in handle for tok in line.replace(",", " ").split()]
        except OSError as exc:
            raise SpecParseError(f"cannot read function file {path!r}: {exc}") from exc
        return GFunction(model, np.array([complex(tok) for tok in tokens]))
    try:
        values = np.array([complex(tok) for tok in source.split(",")])
    except ValueError as exc:
        raise SpecParseError(f"cannot parse function values {source!r}") from exc
    return GFunction(model, values)


def _parse_p_list(text: str) -> list[float]:
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        what = "has an empty entry" if any(tokens) else "names no exponent"
        raise SpecParseError(f"exponent list {text!r} {what}")
    try:
        p_values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise SpecParseError(f"cannot parse exponent list {text!r}") from exc
    if len(set(p_values)) < len(p_values):
        raise SpecParseError(f"exponent list {text!r} names an exponent twice")
    for p in p_values:
        Exponent.of(p)  # refuse a bad exponent before any output
    return p_values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltp",
        description="Tempered convolution norms and theorem suites on group models.")
    parser.add_argument("--version", action="version", version=f"ltp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="run the full theorem suite on a model")
    suite.add_argument("--group", help="group spec, e.g. cyclic:16@counting")
    suite.add_argument("--p", default="2", help="comma-separated exponents (default 2)")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--out", default="", help="write the report to this path")
    suite.add_argument("--format", default="json", choices=FORMATS)
    suite.add_argument("--timings", action="store_true",
                       help="include wall-clock runtime_ms (breaks byte-determinism)")
    suite.add_argument("--config", default="", help="key=value file mirroring the flags")
    suite.add_argument("--tol", action="append", default=[], metavar="NAME=TOL",
                       help="per-check tolerance override, repeatable")
    suite.set_defaults(run=_cmd_suite)

    norm = sub.add_parser("norm", help="certified tempered norm of one function")
    norm.add_argument("--group", help="group spec")
    norm.add_argument("--f", dest="source", help="inline values, csv:PATH, or generator")
    norm.add_argument("--p", default="2")
    norm.add_argument("--method", default="auto")
    norm.add_argument("--restarts", type=int, default=8)
    norm.add_argument("--seed", type=int, default=0)
    norm.add_argument("--config", default="")
    norm.set_defaults(run=_cmd_norm)

    spectral = sub.add_parser("spectral", help="transform a function and test the "
                                               "restricted isometry identity")
    spectral.add_argument("--group", help="abelian group spec")
    spectral.add_argument("--f", dest="source", help="function source")
    spectral.add_argument("--config", default="")
    spectral.set_defaults(run=_cmd_spectral)

    folner = sub.add_parser("folner", help="certify an almost-invariant box")
    folner.add_argument("--group", help="lattice spec, e.g. z2:16")
    folner.add_argument("--c-radius", type=int, default=1)
    folner.add_argument("--epsilon", type=float, default=0.1)
    folner.add_argument("--config", default="")
    folner.set_defaults(run=_cmd_folner)
    return parser


def _config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The config file's values for the options of the parsed command, as
    flags: each key is a flag's name.  Keys of other commands' flags are
    ignored; a key that is no command's flag is an error."""
    mapping = {"group": "group", "p": "p", "seed": "seed", "out": "out",
               "format": "format", "f": "source", "method": "method",
               "restarts": "restarts", "epsilon": "epsilon",
               "c-radius": "c_radius", "timings": "timings", "tol": "tol"}
    flags = []
    for key, value in _load_config(path):
        if key not in mapping:
            raise SpecParseError(f"unknown config key {key!r}")
        if not hasattr(args, mapping[key]):
            continue
        if key != "timings":
            flags.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append("--timings")
    return flags


def _cmd_suite(args) -> int:
    overrides = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise SpecParseError(f"tolerance override needs NAME=TOL, got {item!r}")
        overrides[name] = float(value)
    if args.out:
        try:
            check_writable(args.out)  # fail before the suite runs, not after
        except OSError as exc:  # an unwritable path is a usage error
            raise SpecParseError(str(exc)) from exc
    report = run_suite(args.group, _parse_p_list(args.p), seed=args.seed,
                       tol_overrides=overrides, timings=args.timings)
    if args.out:
        try:
            emit_report(report, args.out, args.format)
        except OSError as exc:  # an unwritable path is a usage error
            raise SpecParseError(str(exc)) from exc
    else:
        print(render_report(report, args.format), end="")
    summary = report.summary
    print(f"# pass={summary['pass']} fail={summary['fail']} skipped={summary['skipped']}",
          file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_norm(args) -> int:
    model = build_group(args.group)
    f = parse_function_source(model, args.source)
    p_values = _parse_p_list(args.p)
    cfg = IterConfig(restarts=args.restarts, seed=args.seed)
    # every estimate before any output: an exponent that fails prints nothing
    estimates = [tempered_norm(f, p, cfg=cfg, method=args.method) for p in p_values]
    for p, est in zip(p_values, estimates):
        print(f"p={p:g}\n  method={est.method}")
        for name in ("lower", "upper", "iterations", "converged", "matvecs", "restart_spread"):
            print(f"  {name}={getattr(est, name)!r}")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    model = build_group(args.group)
    f = parse_function_source(model, args.source)
    dual = build_dual(model)
    fhat = fourier(dual, f)
    print("fhat:")
    for k, value in enumerate(fhat.values):
        print(f"  {k}: {value.real:+.12g}{value.imag:+.12g}j")
    norm_f, sup_f, sup_fhat, norm_fhat = restricted_isometry_terms(dual, f)
    lhs, rhs = norm_f + sup_f, sup_fhat + norm_fhat
    print(f"||f||_2^T + ||f||_inf   = {lhs!r}")
    print(f"||fhat||_inf + ||fhat||_2^T = {rhs!r}")
    print(f"difference = {abs(lhs - rhs):.3e}")
    return EXIT_OK


def _cmd_folner(args) -> int:
    model = build_group(args.group)
    cert = find_folner(model, args.c_radius, args.epsilon)
    print(f"box radius L = {cert.box_radius}")
    print(f"|K| = {len(cert.k_indices)}")
    print(f"worst ratio = {cert.worst_ratio!r} > 1 - eps = {1 - cert.epsilon!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if args.config:
            # the config file's flags go in ahead of the command line's, which
            # win as the later ones, and are parsed and checked like them
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config, args) + argv[at:])
        if getattr(args, "group", None) in (None, ""):
            raise SpecParseError("missing --group (flag or config file)")
        if args.command in ("norm", "spectral") and not getattr(args, "source", None):
            raise SpecParseError("missing --f function source")
        return args.run(args)
    except (SpecParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LtpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``ltp`` modules from outside the
package: every module-level name (in any ``ltp.*`` module) bound to a wrapped
function is rebound to the wrapper, so copies imported by name, such as
``suite.tempered_norm`` or ``spectral.convolve``, are traced too.  Methods are
wrapped on their class.  ``uninstall`` restores every original binding.

Each span records its name, start, end and parent span.  Spans stay in
memory until :meth:`Tracer.write` is called at the end of the run.  A span's
self time is its duration minus the time its direct child spans cover; the
benchmark runs single-threaded (``LTP_THREADS=1``), so child spans nest
strictly inside their parent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# The package re-exports functions under the names of some of its modules
# (``ltp.convolve`` is the function), so the modules are looked up by path.
ltp_convolve = importlib.import_module("ltp.convolve")
ltp_folner = importlib.import_module("ltp.folner")
ltp_groups = importlib.import_module("ltp.groups")
ltp_space = importlib.import_module("ltp.space")
ltp_spectral = importlib.import_module("ltp.spectral")
ltp_suite = importlib.import_module("ltp.suite")
ltp_tempered = importlib.import_module("ltp.tempered")

# Returned ``method`` -> route label; the p = 2 transform route is split by
# model kind (character table on finite models, symbol on lattices).
_ROUTE_BY_METHOD = {
    ltp_tempered.METHOD_EXACT_L1: "exact_l1",
    ltp_tempered.METHOD_EXACT_SVD: "exact_svd",
    ltp_tempered.METHOD_BOYD: "boyd",
    ltp_tempered.METHOD_WL1_BOUND: "wl1_bound",
}
ROUTES = ("exact_l1", "spectral_finite", "symbol", "exact_svd", "boyd")


def route_of(estimate, model) -> str:
    """Route label of a tempered-norm estimate on ``model``."""
    if estimate.method == ltp_tempered.METHOD_SPECTRAL:
        return "spectral_finite" if model.kind == ltp_groups.KIND_FINITE else "symbol"
    return _ROUTE_BY_METHOD.get(estimate.method, "other")


def _function_key(f) -> str:
    digest = hashlib.blake2b(f.values.tobytes(), digest_size=16).hexdigest()
    return f"{f.group.name}:{f.values.dtype}:{digest}"


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._seen_f: set[str] = set()
        self._seen_fp: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self, name: str | None = None) -> None:
        end = time.perf_counter()
        span_id, opened_as, start, child = self._stack.pop()
        name = name or opened_as
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end))
        self.self_s[name] += duration - child
        self.calls[name] += 1

    def write(self, path) -> None:
        """Write the spans as JSON lines (id, parent, name, start, end)."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in sorted(self.spans):
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(name + ".error")
                raise
            self.close(after(result, state, *args, **kwargs) if after else None)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind_function(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ltp" or mod_name.startswith("ltp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _rebind_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    # -- per-layer hooks ----------------------------------------------------

    def _tempered_before(self, f, p, *args, **kwargs):
        key = _function_key(f)
        pkey = f"{key}@{ltp_space.Exponent.of(p).p!r}"
        self.counts["tempered.calls"] += 1
        self.counts["tempered.repeat_f"] += key in self._seen_f
        self.counts["tempered.repeat_fp"] += pkey in self._seen_fp
        self._seen_f.add(key)
        self._seen_fp.add(pkey)
        return f.group

    def _tempered_after(self, estimate, model, *args, **kwargs) -> str:
        route = route_of(estimate, model)
        if route == "boyd":
            self.counts["tempered.boyd_iters"] += estimate.iterations
            self.counts["tempered.boyd_unconverged"] += not estimate.converged
        return f"tempered.{route}"

    def _division_before(self, model):
        if "division_table" not in model._cache:
            self.counts["groups.division_table_builds"] += 1

    def _dual_before(self, model):
        if model._cache.get("dual") is None:
            self.counts["spectral.dual_builds"] += 1

    def _matrix_before(self, op):
        return op._matrix is None

    def _matrix_after(self, matrix, building, op) -> str:
        if building:
            n = matrix.shape[0]
            self.counts["convolve.operator_builds"] += 1
            self.counts["convolve.operator_bytes"] += n * n * matrix.dtype.itemsize
        return "convolve.operator"

    def install(self) -> None:
        """Wrap the layer boundaries of every ``ltp`` module."""
        spans = [
            (ltp_groups.build_group, "groups.build", None, None),
            (ltp_groups.validate_group, "groups.validate", None, None),
            (ltp_space.translate, "space.translate", None, None),
            (ltp_space.reflect, "space.reflect", None, None),
            (ltp_space.modular_reflect, "space.reflect", None, None),
            (ltp_convolve.convolve, "convolve", None, None),
            (ltp_tempered.tempered_norm, "tempered.norm",
             self._tempered_before, self._tempered_after),
            (ltp_spectral.build_dual, "spectral.dual", self._dual_before, None),
            (ltp_spectral.fourier, "spectral.fourier", None, None),
            (ltp_spectral.inverse_fourier, "spectral.fourier", None, None),
            (ltp_folner.find_folner, "folner.find", None, None),
            (ltp_folner.averaging_inequality_check, "folner.averaging", None, None),
            (ltp_suite.run_suite, "suite.run", None, None),
        ]
        for fn, name, before, after in spans:
            self._rebind_function(fn, self._span_wrapper(name, fn, before, after))
        self._rebind_function(ltp_space.lp_norm,
                              self._count_wrapper("space.norm_calls", ltp_space.lp_norm))
        model_cls = ltp_groups.GroupModel
        self._rebind_method(model_cls, "division_table", self._span_wrapper(
            "groups.division_table", model_cls.division_table, self._division_before))
        op_cls = ltp_convolve.ConvOperator
        self._rebind_method(op_cls, "matrix", self._span_wrapper(
            "convolve.operator", op_cls.matrix, self._matrix_before, self._matrix_after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed by metric name."""
        s, calls, counts = self.self_s, self.calls, self.counts
        tempered_calls = counts["tempered.calls"]
        boyd_calls = calls["tempered.boyd"]
        metrics = {
            "groups.build_s": s["groups.build"],
            "groups.validate_s": s["groups.validate"],
            "groups.validate_calls": calls["groups.validate"],
            "groups.division_table_builds": counts["groups.division_table_builds"],
            "groups.division_table_s": s["groups.division_table"],
            "space.translate_s": s["space.translate"],
            "space.reflect_s": s["space.reflect"],
            "space.norm_calls": counts["space.norm_calls"],
            "convolve.calls": calls["convolve"],
            "convolve.s": s["convolve"],
            "convolve.operator_builds": counts["convolve.operator_builds"],
            "convolve.operator_s": s["convolve.operator"],
            "convolve.operator_bytes": counts["convolve.operator_bytes"],
        }
        for route in ROUTES:
            metrics[f"tempered.{route}.calls"] = calls[f"tempered.{route}"]
            metrics[f"tempered.{route}_s"] = s[f"tempered.{route}"]
        metrics.update({
            "tempered.boyd_iters": counts["tempered.boyd_iters"],
            "tempered.boyd_unconverged_share":
                counts["tempered.boyd_unconverged"] / boyd_calls if boyd_calls else 0.0,
            "tempered.repeat_f_share":
                counts["tempered.repeat_f"] / tempered_calls if tempered_calls else 0.0,
            "tempered.repeat_fp_share":
                counts["tempered.repeat_fp"] / tempered_calls if tempered_calls else 0.0,
            "spectral.dual_builds": counts["spectral.dual_builds"],
            "spectral.dual_s": s["spectral.dual"],
            "spectral.fourier_calls": calls["spectral.fourier"],
            "spectral.fourier_s": s["spectral.fourier"],
            "folner.find_calls": calls["folner.find"],
            "folner.find_s": s["folner.find"],
            "folner.averaging_s": s["folner.averaging"],
            "suite.run_s": s["suite.run"],
        })
        return metrics

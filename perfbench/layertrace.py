"""Layer tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function and public
method of the lanemorse modules, plus the SciPy kernels exactly where the
package binds them (`solve_ivp` in `radial`, the two tridiagonal drivers in
`spectral`). Each function is wrapped once, by identity, and the wrapper is
installed in every `lanemorse*` namespace that binds the original, so a call
through a re-export and a call through the defining module land in the same
span. Names that do not exist at the traced commit are simply not wrapped and
report zero calls.

A span is named `<layer>.<function>`; the layer is the defining module
(`cli`, `radial`, `profile`, `spectral`, `limits`) or `ivp` / `lapack` for the
SciPy kernels. A call made while the innermost open span already has the same
name (recursion, or `RadialSolution.eval` calling `Trajectory.eval`) opens no
new span. Self time is a span's duration minus that of its child spans.
Python warnings are counted against the layer of the innermost open span and
still shown: the tracer switches the warnings filter to "always" so that every
occurrence, not only the first per source line, is both counted and printed.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

WARNING_LAYERS = ("cli", "radial", "profile", "spectral", "limits", "ivp", "lapack")

# (namespace, attribute, span name) of the third-party kernels
KERNELS = (
    ("lanemorse.radial", "solve_ivp", "ivp.solve_ivp"),
    ("lanemorse.spectral", "eigvalsh_tridiagonal", "lapack.stebz"),
    ("lanemorse.spectral", "eigh_tridiagonal", "lapack.stein"),
)


def _size(x) -> int:
    return int(np.size(x))


def _matrix_key(args) -> bytes:
    # count_negative scans diag - shift * mass against the off-diagonal
    prob, shift = args["prob"], args.get("shift", 0.0)
    mass = prob.mass() if hasattr(prob, "mass") else None
    diag = prob.diagonal() - shift * (mass if mass is not None else 1.0)
    h = hashlib.blake2b(diag.tobytes(), digest_size=16)
    h.update(prob.offdiagonal().tobytes())
    return h.digest()


# span name -> probe(bound arguments, result) -> ({field: amount}, distinct key)
PROBES = {
    "radial.solve_nodal": lambda a, out: ({"rk_steps": len(out.grid)}, None),
    "ivp.solve_ivp": lambda a, out: ({"nfev": int(out.nfev)}, None),
    "radial.eval": lambda a, out: ({"points": _size(a["r"])}, None),
    "profile.fp_values": lambda a, out: ({"points": _size(a["r"])}, None),
    "spectral.build_problem": lambda a, out: (
        {"rows": int(a["M"])}, (float(a["inner"]), int(a["M"]))),
    "spectral.count_negative": lambda a, out: (
        {"rows": int(a["prob"].M)}, _matrix_key(a)),
    "lapack.stebz": lambda a, out: ({"rows": _size(a["d"])}, None),
    "lapack.stein": lambda a, out: ({"rows": _size(a["d"])}, None),
}

# per-layer metric -> (span, field, unit); values are per timed request
PER_REQUEST = {
    "cli.run.self_s": ("cli.run", "self_s", "s/req"),
    "radial.solve_nodal.s": ("radial.solve_nodal", "self_s", "s/req"),
    "radial.integrate_ivp.calls": ("radial.integrate_ivp", "calls", "count/req"),
    "radial.integrate_ivp.s": ("radial.integrate_ivp", "self_s", "s/req"),
    "radial.rk_steps": ("radial.solve_nodal", "rk_steps", "count/req"),
    "ivp.solve_ivp.nfev": ("ivp.solve_ivp", "nfev", "count/req"),
    "ivp.solve_ivp.s": ("ivp.solve_ivp", "self_s", "s/req"),
    "radial.residual_sup.s": ("radial.residual_sup", "self_s", "s/req"),
    "radial.eval.calls": ("radial.eval", "calls", "count/req"),
    "radial.eval.points": ("radial.eval", "points", "count/req"),
    "radial.eval.s": ("radial.eval", "self_s", "s/req"),
    "profile.fp_values.calls": ("profile.fp_values", "calls", "count/req"),
    "profile.fp_values.points": ("profile.fp_values", "points", "count/req"),
    "profile.fp_values.s": ("profile.fp_values", "self_s", "s/req"),
    "profile.analyze_fp.s": ("profile.analyze_fp", "self_s", "s/req"),
    "profile.scales.calls": ("profile.scales", "calls", "count/req"),
    "spectral.morse_index.self_s": ("spectral.morse_index", "self_s", "s/req"),
    "spectral.build_problem.calls": ("spectral.build_problem", "calls", "count/req"),
    "spectral.build_problem.rows": ("spectral.build_problem", "rows", "count/req"),
    "spectral.weighted_radial_eigs.calls":
        ("spectral.weighted_radial_eigs", "calls", "count/req"),
    "spectral.weighted_radial_eigs.s":
        ("spectral.weighted_radial_eigs", "self_s", "s/req"),
    "spectral.count_negative.calls": ("spectral.count_negative", "calls", "count/req"),
    "spectral.count_negative.rows": ("spectral.count_negative", "rows", "count/req"),
    "spectral.count_negative.s": ("spectral.count_negative", "self_s", "s/req"),
    "lapack.stebz.calls": ("lapack.stebz", "calls", "count/req"),
    "lapack.stebz.rows": ("lapack.stebz", "rows", "count/req"),
    "lapack.stebz.s": ("lapack.stebz", "self_s", "s/req"),
    "lapack.stein.calls": ("lapack.stein", "calls", "count/req"),
    "lapack.stein.rows": ("lapack.stein", "rows", "count/req"),
    "lapack.stein.s": ("lapack.stein", "self_s", "s/req"),
}
# distinct keys / keyed calls, summed over requests (keys reset per request)
DISTINCT = {
    "spectral.build_problem.distinct_ratio": "spectral.build_problem",
    "spectral.count_negative.distinct_ratio": "spectral.count_negative",
}


class Tracer:
    """Spans and per-span counters for the requests run between begin/end."""

    def __init__(self):
        self.stack: list[list] = []     # open spans: [name, start, child_s, id]
        self.spans: list[tuple] = []    # (request, id, parent, name, start, end)
        self.stats = defaultdict(lambda: defaultdict(float))
        self.keys = defaultdict(set)
        self.warnings = defaultdict(int)
        self.request: int | None = None
        self.top_level_s = 0.0
        self.probe_s = 0.0
        self.wrapper_calls = 0
        self.span_cost_s = 0.0
        self._next_id = 0
        self._paused = False
        self._bindings: list[tuple[object, str, object]] = []
        self._catch = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the loaded lanemorse modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lanemorse" or n.startswith("lanemorse."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("lanemorse"):
                    self._bind(mod, attr, obj, wrappers, _span_name(obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._bind(obj, meth, fn, wrappers, _span_name(fn))
        for mod_name, attr, span in KERNELS:
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is not None:
                self._bind(mod, attr, fn, wrappers, span)
        self._catch = warnings.catch_warnings()
        self._catch.__enter__()
        warnings.simplefilter("always")
        shown = warnings.showwarning

        def count_and_show(message, category, filename, lineno, file=None, line=None):
            layer = self.stack[-1][0].split(".")[0] if self.stack else "none"
            if self.request is not None:
                self.warnings[layer] += 1
            shown(message, category, filename, lineno, file, line)

        warnings.showwarning = count_and_show
        self._calibrate()

    def uninstall(self) -> None:
        """Put every original binding and the warnings state back."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        if self._catch is not None:
            self._catch.__exit__(None, None, None)
            self._catch = None

    def _bind(self, owner, attr, fn, wrappers, span) -> None:
        if id(fn) not in wrappers:
            wrappers[id(fn)] = self._wrap(fn, span)
        self._bindings.append((owner, attr, fn))
        setattr(owner, attr, wrappers[id(fn)])

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        try:
            sig = inspect.signature(fn) if probe is not None else None
        except (TypeError, ValueError):
            sig = probe = None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.wrapper_calls += 1
            if (self.request is None or self._paused
                    or (self.stack and self.stack[-1][0] == name)):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            span = [name, clock(), 0.0, span_id]
            self.stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self._close(span, end)
            if probe is not None:
                self._probe(name, probe, sig, args, kwargs, out)
            return out

        return wrapper

    def _close(self, span, end: float) -> None:
        name, start, child_s, span_id = span
        dur = end - start
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        else:
            self.top_level_s += dur
        self.spans.append((self.request, span_id,
                           parent[3] if parent is not None else None,
                           name, start, end))

    def _probe(self, name, probe, sig, args, kwargs, out) -> None:
        t0 = time.perf_counter()
        self._paused = True
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            fields, key = probe(bound.arguments, out)
        except Exception:  # a renamed argument must not fail the request
            self.stats[name]["probe_errors"] += 1
            return
        finally:
            self._paused = False
            self.probe_s += time.perf_counter() - t0
        st = self.stats[name]
        for field, amount in fields.items():
            st[field] += amount
        if key is not None:
            st["keyed_calls"] += 1
            self.keys[name].add(key)

    def _calibrate(self, n: int = 20000) -> None:
        """Cost of one span (wrapper minus bare call), for overhead_ratio."""

        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibration")
        self.request = -1
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        self.request = None
        self.span_cost_s = max((t1 - t0) - (t2 - t1), 0.0) / n
        self.stats.pop("trace.calibration", None)
        self.spans.clear()
        self.top_level_s = 0.0
        self.wrapper_calls = 0

    # -- requests -----------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request

    def end(self) -> None:
        for name, keys in self.keys.items():
            self.stats[name]["distinct"] += len(keys)
        self.keys.clear()
        self.request = None

    # -- results ------------------------------------------------------------

    def metrics(self, requests: int, request_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and times are per traced request."""
        n = max(requests, 1)
        out = {}
        for metric, (span, field, unit) in PER_REQUEST.items():
            out[metric] = (self.stats.get(span, {}).get(field, 0.0) / n, unit)
        for metric, span in DISTINCT.items():
            st = self.stats.get(span, {})
            keyed = st.get("keyed_calls", 0.0)
            out[metric] = (st.get("distinct", 0.0) / keyed if keyed else 0.0, "ratio")
        for layer in WARNING_LAYERS:
            out[f"{layer}.warnings"] = (self.warnings.get(layer, 0) / n, "count/req")
        overhead = self.wrapper_calls * self.span_cost_s + self.probe_s
        out["trace.overhead_ratio"] = (overhead / request_s if request_s else 0.0,
                                       "ratio")
        out["trace.coverage_ratio"] = (self.top_level_s / request_s if request_s
                                       else 0.0, "ratio")
        return out

    def probe_errors(self) -> dict[str, int]:
        return {name: int(st["probe_errors"]) for name, st in self.stats.items()
                if st.get("probe_errors")}


def _span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__name__}"

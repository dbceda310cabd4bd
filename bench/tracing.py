"""Span tracing around calls into each bivlmp module, for the traced run.

``install`` wraps the public functions and generator methods listed in
TARGETS.  Each wrapped call records a span (id, parent id, name, start, end)
and updates per-name aggregates: calls, elements (summed input sizes),
seconds and self seconds (seconds minus the time of child spans).  Counts of
work done inside a call (quadrature evaluations, root-finder passes, limit
evaluations, CSV rows) are recorded alongside.

Callers bind many names at import (``from .numerics import integrate_unit``),
so a wrapper must replace the name in every module namespace where it is
looked up, not only in the module that defines it; ``install`` does that.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = {
    "numerics": ("integrate_upper", "integrate_unit", "solve_decreasing_batch", "limit_at_zero",
                 "invert_monotone"),
    "core": ("gbar_log", "marginal_survival", "marginal_density", "marginal_quantile", "core_copula",
             "singular_mass"),
    "generators": ("time_distortion", "residual_distortion", "residual_distortion_inverse",
                   "residual_distortion_log_inverse", "residual_distortion_prime"),
    "model": ("fbar", "fbar_log", "fbar_marginal", "fbar_residual", "residual_marginal",
              "generalized_weak_residual", "copula_t", "copula_t_diag_log", "mean_excess"),
    "sampler": ("sample_model", "sample_mixing_shortcut"),
    "dependence": ("kendall_function", "kendall_tau", "empirical_kendall", "j_integral_quadrature",
                   "tail_lower", "tail_upper", "tail_numeric"),
    "pricing": ("joint_annuity", "independent_annuity", "residual_joint_annuity",
                "residual_independent_annuity", "life_expectancy", "reference_comparison"),
    "config": ("load_model",),
}
GENERATOR_METHODS = ("h", "h_inverse", "h_prime", "h_log", "h_log_prime", "h_inverse_from_log",
                     "h_from_log", "neg_log_h_inverse")
# work done inside a call: the argument that is called once per unit of work
CALLBACK_COUNTS = {"numerics.solve_decreasing_batch": (0, "passes"), "numerics.limit_at_zero": (0, "evals")}
# work reported in the result
RESULT_COUNTS = {"numerics.integrate_upper": "evals", "numerics.integrate_unit": "evals"}


class Tracer:
    """Spans kept in memory (up to span_cap) plus aggregates over all spans."""

    def __init__(self, span_cap: int = 100_000):
        self.enabled = True
        self.span_cap = span_cap
        self.reset()

    def reset(self):
        self._stack = []  # open frames: [id, name, child_s]
        self._open = defaultdict(int)  # name or layer -> open spans
        self.stats = defaultdict(lambda: [0, 0, 0.0, 0.0])  # key -> calls, elements, s, self_s
        self.counts = defaultdict(int)
        self.spans = []
        self._next_id = 0

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def call(self, name: str, layer: str, elements: int, scalar: bool, fn, args, kwargs, name_of=None):
        """Run fn in a span; name_of, when given, names the span from fn's result."""
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        outer_name = self._open[name] == 0
        outer_layer = self._open[layer] == 0
        self._open[name] += 1
        self._open[layer] += 1
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            self._open[layer] -= 1
            if name_of is not None and result is not None:
                name = name_of(result)
            dur = end - start
            if parent is not None:
                parent[2] += dur
            if len(self.spans) < self.span_cap:
                self.spans.append((span_id, parent[0] if parent else -1, name, start, end))
            keys = [name]
            if parent is not None:
                keys.append(f"{name}@{parent[1]}")
            for key in keys:
                st = self.stats[key]
                st[0] += 1
                st[1] += elements
                st[3] += dur - frame[2]
                if outer_name:
                    st[2] += dur
            if outer_layer:
                st = self.stats[f"layer:{layer}"]
                st[0] += 1
                st[1] += elements
                st[2] += dur
                self.counts[f"{layer}.{'scalar' if scalar else 'array'}_calls"] += 1

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counts": dict(self.counts)}

    def merge(self, snap: dict):
        """Add aggregates recorded by another process (a traced CLI run)."""
        for key, vals in snap["stats"].items():
            st = self.stats[key]
            for j, v in enumerate(vals):
                st[j] += v
        for key, v in snap["counts"].items():
            self.counts[key] += v


def _numeric_size(a):
    """(size, is_scalar) of a numeric argument, or None for anything else."""
    if isinstance(a, np.ndarray):
        return a.size, a.ndim == 0
    if isinstance(a, (float, int, np.floating, np.integer)) and not isinstance(a, bool):
        return 1, True
    if isinstance(a, (list, tuple)) and a and isinstance(a[0], (float, int, np.floating)):
        return len(a), False
    return None


def _elements(args, kwargs):
    size, scalar = 0, True
    for a in list(args) + list(kwargs.values()):
        got = _numeric_size(a)
        if got is not None:
            size = max(size, got[0])
            scalar = scalar and got[1]
    return size, scalar


KENDALL_ROUTES = {"closed_form": "dependence.kendall_function.closed",
                  "quadrature": "dependence.kendall_function.quadrature"}


def _kendall_route(curve) -> str:
    """Span name of a kendall_function call from the route its curve came from
    (source='auto' takes the closed route when it can, else quadrature)."""
    return KENDALL_ROUTES[curve.source]


def _make_wrapper(tracer: Tracer, name: str, layer: str, fn):
    callback = CALLBACK_COUNTS.get(name)
    result_count = RESULT_COUNTS.get(name)
    name_of = _kendall_route if name == "dependence.kendall_function" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if callback is not None:
            index, what = callback
            inner = args[index]
            keys = (f"{name}.{what}", f"{name}.{what}@{tracer.parent_name()}")

            def counted(*a, **k):
                for key in keys:
                    tracer.counts[key] += 1
                return inner(*a, **k)

            args = args[:index] + (counted,) + args[index + 1:]
        size, scalar = _elements(args, kwargs)
        out = tracer.call(name, layer, size, scalar, fn, args, kwargs, name_of)
        if result_count is not None:
            tracer.counts[f"{name}.{result_count}"] += out.evaluations
        return out

    return wrapper


def _to_csv_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not tracer.enabled:
            return fn(self, *args, **kwargs)
        tracer.counts["sampler.to_csv.rows"] += self.n
        return tracer.call("sampler.to_csv", "sampler", self.n, False, fn, (self,) + args, kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded bivlmp module that binds it."""
    import bivlmp.cli  # noqa: F401  (load every module, so every binding is replaced)
    from bivlmp import generators, sampler

    modules = [m for key, m in sys.modules.items() if key == "bivlmp" or key.startswith("bivlmp.")]
    for layer, names in TARGETS.items():
        home = sys.modules[f"bivlmp.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            wrapped = _make_wrapper(tracer, f"{layer}.{fname}", layer, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
    for cls in _generator_classes(generators):
        for meth in GENERATOR_METHODS:
            if meth in vars(cls):
                setattr(cls, meth, _make_wrapper(tracer, f"generators.{meth}", "generators", vars(cls)[meth]))
    sampler.SampleBatch.to_csv = _to_csv_wrapper(tracer, sampler.SampleBatch.to_csv)


def _generator_classes(generators):
    return [c for c in vars(generators).values()
            if isinstance(c, type) and issubclass(c, generators.Generator)]


def _stat(snap, key, j):
    st = snap["stats"].get(key)
    return st[j] if st else 0


def per_layer(snap: dict, cli_times: dict) -> dict:
    """Per-layer metric values (name -> value) from one round's aggregates and CLI timings."""
    stat = functools.partial(_stat, snap)
    counts = snap["counts"]
    out = {}

    def trio(metric, key, what=None):
        out[f"{metric}.calls"] = stat(key, 0)
        if what:
            out[f"{metric}.{what}"] = counts.get(f"{key}.{what}", 0)
        out[f"{metric}.s"] = stat(key, 2)

    trio("numerics.integrate_upper", "numerics.integrate_upper", "evals")
    trio("numerics.integrate_unit", "numerics.integrate_unit", "evals")
    trio("numerics.solve_decreasing_batch", "numerics.solve_decreasing_batch", "passes")
    trio("numerics.limit_at_zero", "numerics.limit_at_zero", "evals")

    out["sampler.sample_model.s"] = stat("sampler.sample_model", 2)
    out["sampler.sample_model.self_s"] = stat("sampler.sample_model", 3)
    out["sampler.min_inversion.s"] = stat("generators.neg_log_h_inverse@sampler.sample_model", 2)
    out["sampler.gap_inversion.s"] = stat("numerics.solve_decreasing_batch@sampler.sample_model", 2)
    out["sampler.gap_passes"] = counts.get("numerics.solve_decreasing_batch.passes@sampler.sample_model", 0)
    out["sampler.sample_mixing_shortcut.s"] = stat("sampler.sample_mixing_shortcut", 2)
    out["sampler.to_csv.rows"] = counts.get("sampler.to_csv.rows", 0)
    out["sampler.to_csv.s"] = stat("sampler.to_csv", 2)

    out["generators.scalar_calls"] = counts.get("generators.scalar_calls", 0)
    out["generators.array_calls"] = counts.get("generators.array_calls", 0)
    out["generators.elements"] = stat("layer:generators", 1)
    out["generators.s"] = stat("layer:generators", 2)
    for fname in ("h_from_log", "h_log", "h_log_prime", "neg_log_h_inverse", "residual_distortion_log_inverse"):
        out[f"generators.{fname}.s"] = stat(f"generators.{fname}", 2)

    out["core.gbar_log.calls"] = stat("core.gbar_log", 0)
    out["core.gbar_log.elements"] = stat("core.gbar_log", 1)
    out["core.gbar_log.s"] = stat("core.gbar_log", 2)
    marginals = [f"core.marginal_{k}" for k in ("survival", "density", "quantile")]
    out["core.marginal.calls"] = sum(stat(k, 0) for k in marginals)
    out["core.marginal.elements"] = sum(stat(k, 1) for k in marginals)
    out["core.marginal.s"] = sum(stat(k, 2) for k in marginals)
    out["core.core_copula.calls"] = stat("core.core_copula", 0)
    out["core.core_copula.s"] = stat("core.core_copula", 2)

    for fname in ("fbar", "fbar_residual", "generalized_weak_residual", "mean_excess"):
        out[f"model.{fname}.s"] = stat(f"model.{fname}", 2)
    for fname in ("residual_marginal", "copula_t"):
        out[f"model.{fname}.calls"] = stat(f"model.{fname}", 0)
        out[f"model.{fname}.s"] = stat(f"model.{fname}", 2)

    out["dependence.kendall_function.closed.s"] = stat("dependence.kendall_function.closed", 2)
    out["dependence.kendall_function.quadrature.s"] = stat("dependence.kendall_function.quadrature", 2)
    out["dependence.j_integral_quadrature.calls"] = stat("dependence.j_integral_quadrature", 0)
    out["dependence.kendall_tau.calls"] = stat("dependence.kendall_tau", 0)
    out["dependence.kendall_tau.s"] = stat("dependence.kendall_tau", 2)
    out["dependence.empirical_kendall.s"] = stat("dependence.empirical_kendall", 2)
    out["dependence.tail_numeric.calls"] = stat("dependence.tail_numeric", 0)
    out["dependence.tail_numeric.s"] = stat("dependence.tail_numeric", 2)
    out["dependence.tail_lemma.s"] = stat("dependence.tail_lower", 2) + stat("dependence.tail_upper", 2)

    for fname in ("joint_annuity", "independent_annuity", "residual_joint_annuity",
                  "residual_independent_annuity", "life_expectancy", "reference_comparison"):
        out[f"pricing.{fname}.s"] = stat(f"pricing.{fname}", 2)

    out["config.load_model.calls"] = stat("config.load_model", 0)
    out["config.load_model.s"] = stat("config.load_model", 2)
    for key in CLI_METRICS:
        out[key] = cli_times.get(key, 0.0)
    return out


CLI_METRICS = ("cli.import_s", "cli.import.scipy_s") + tuple(
    f"cli.{c}.s" for c in ("validate", "eval", "tau", "kendall", "price", "paper", "sample"))
# every per-layer metric with its unit
UNITS = {name: ("s" if name.endswith(("_s", ".s")) else "count")
         for name in per_layer({"stats": {}, "counts": {}}, {})}

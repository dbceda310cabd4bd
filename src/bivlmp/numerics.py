"""Shared numerical kernels.

Double-exponential quadrature on [0, inf) and (0, 1), one-sided limit
estimation by Aitken extrapolation, and the package's one root finder, which
inverts nonincreasing functions on [0, inf) elementwise with scipy's
``bracket_root`` and ``find_root`` (Chandrupatla's method).  Everything here is
a pure function of its inputs.

SciPy is imported only inside the two functions that call it,
``solve_decreasing_batch`` and ``invert_monotone``, so importing the package
(and every command that never inverts numerically) does not load it.

The package's array conventions live here too: every public array function
returns ``scalar_or_array(out)``, checks a probability argument with
``in_unit`` and sets a copula's boundary values with ``copula_edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_INVERT_TOL = 1e-8
LIMIT_BUDGET = 40
QUAD_LEVELS = 8  # quadrature steps 1, 1/2, ..., 2^-QUAD_LEVELS
QUAD_T = 6.0  # nodes at t in [-QUAD_T, QUAD_T]: u down to 1e-275, z from 1e-138 to 1e138 over rate
SOLVE_BLOCK = 8192  # elements per solver call: scipy keeps ~20 work arrays per element


def scalar_or_array(out):
    """The return convention: a 0-d result as a Python float, anything else as a float array."""
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def in_unit(x, what: str, slack: float = 0.0, open_at_0: bool = False) -> np.ndarray:
    """x as a float array, or DomainError unless all of it lies in [-slack, 1 + slack].

    With open_at_0 the interval is (0, 1 + slack].  NaN fails the check.
    """
    x = np.asarray(x, dtype=float)
    above = x > 0.0 if open_at_0 else x >= -slack
    if not np.all(above & (x <= 1.0 + slack)):
        raise DomainError(f"{what} must lie in {'(0' if open_at_0 else '[0'}, 1]")
    return x


def copula_edges(u, v, out):
    """out with a copula's exact boundary values: C(u, 0) = C(0, v) = 0, C(u, 1) = u, C(1, v) = v."""
    out = np.where((u <= 0) | (v <= 0), 0.0, out)
    return scalar_or_array(np.where(u >= 1, v, np.where(v >= 1, u, out)))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    sequence_tail: list = field(default_factory=list)
    converged: bool = False


def _de_levels(unit: bool):
    """Nodes (a column) and weights of the double-exponential rule at t in [-QUAD_T, QUAD_T], per level.

    Level k holds only the nodes new at step 2^-k, with the step folded into
    their weights.  Unit-interval nodes that round to 1 are dropped.
    """
    levels = []
    for k in range(QUAD_LEVELS + 1):
        step = 2.0**-k
        t = np.arange(-QUAD_T, QUAD_T + step / 2, step)
        t = t[1::2] if k else t  # after level 0, only the nodes new at this step
        a = np.pi * np.sinh(t)
        if unit:
            x = 1.0 / (1.0 + np.exp(-a))
            w = np.pi * np.cosh(t) * x / (1.0 + np.exp(a))  # du/dt = pi cosh t u (1 - u)
            x, w = x[x < 1.0], w[x < 1.0]
        else:
            x = np.exp(a / 2)
            w = 0.5 * np.pi * np.cosh(t) * x
        levels.append((x[:, None], step * w[:, None]))
    return levels


_HALF_LINE, _UNIT = _de_levels(unit=False), _de_levels(unit=True)


def _de_integrate(f, levels, scale: float, tol: float, what: str) -> QuadratureResult:
    """Sum f over the nodes times scale, level by level, until two successive sums agree to tol in every column."""
    if not tol > 0:
        raise DomainError("tol must be positive")
    total = prev = None
    evaluations = 0
    for x, w in levels:
        fx = np.broadcast_arrays(x, np.asarray(f(x * scale), dtype=float))[1]
        if np.isnan(fx).any():
            raise DomainError(f"{what}: integrand returned NaN")
        evaluations += fx.size
        with np.errstate(invalid="ignore", over="ignore"):
            part = (w * scale * fx).sum(axis=0)
        prev, total = total, part if total is None else 0.5 * total + part
        value = scalar_or_array(total.squeeze())
        if not np.all(np.isfinite(total)):
            raise ConvergenceError(f"{what} is not finite", estimate=value)
        if prev is not None and np.all(np.abs(total - prev) <= tol * np.abs(total)):
            return QuadratureResult(value, float(np.max(np.abs(total - prev))), evaluations)
    raise ConvergenceError(f"{what}: levels still differ by {np.max(np.abs(total - prev)):.3e}", estimate=value)


def integrate_upper(f, tol: float = DEFAULT_QUAD_TOL, rate: float = 1.0) -> QuadratureResult:
    """Integrate f over [0, inf) at the nodes z = exp(pi/2 sinh t) / rate.

    ``rate`` is the decay scale of f: f has fallen by about 1/e at z = 1/rate.
    f gets a column of nodes; returning m columns integrates m functions at
    once, and the value is then an array of m integrals.
    """
    if not rate > 0:
        raise DomainError("rate must be positive")
    return _de_integrate(f, _HALF_LINE, 1.0 / rate, tol, "semi-infinite integral")


def integrate_unit(f, tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integrate f over (0, 1) at the nodes u = 1/(1 + e^{-pi sinh t}), as integrate_upper does over [0, inf)."""
    return _de_integrate(f, _UNIT, 1.0, tol, "unit-interval integral")


def invert_monotone(f, target: float, lo: float, hi: float, tol: float = DEFAULT_INVERT_TOL) -> float:
    """Solve f(x) = target for a scalar monotone f on [lo, hi], to |f(x) - target| <= tol."""
    from scipy.optimize import elementwise

    fv = np.vectorize(f, otypes=[float])
    res = elementwise.find_root(lambda x: fv(x) - target, (lo, hi), tolerances={"fatol": tol})
    if res.status == -1:
        raise DomainError(f"target {target!r} is not bracketed by f on [{lo!r}, {hi!r}]")
    if res.status != 0:
        raise ConvergenceError("monotone inversion did not converge", estimate=float(res.x))
    return float(res.x)


def limit_at_zero(g, u0: float = 0.25, tol: float = 1e-6, budget: int = LIMIT_BUDGET) -> LimitEstimate:
    """Estimate lim_{u->0+} g(u) along u_k = u0 * 2^-k with Aitken acceleration.

    Returns converged=False when the accelerated sequence is still drifting at
    the smallest evaluated u.
    """
    raw = []
    acc = []
    for k in range(budget):
        u = u0 * 2.0 ** (-k)
        if u == 0.0:
            break
        v = g(u)
        if math.isnan(v) or math.isinf(v):
            raise DomainError(
                f"g({u!r}) is not finite; evaluate the underlying survival in the log domain"
            )
        raw.append(v)
        if len(raw) >= 3:
            a0, a1, a2 = raw[-3], raw[-2], raw[-1]
            denom = a2 - 2.0 * a1 + a0
            if denom != 0.0:
                acc.append(a2 - (a2 - a1) ** 2 / denom)
            else:
                acc.append(a2)
            if len(acc) >= 3:
                d1 = abs(acc[-1] - acc[-2])
                d2 = abs(acc[-2] - acc[-3])
                if d1 <= tol and d1 <= d2 + tol:
                    return LimitEstimate(value=acc[-1], sequence_tail=acc[-6:], converged=True)
    if acc:
        return LimitEstimate(value=acc[-1], sequence_tail=acc[-6:], converged=False)
    value = raw[-1] if raw else float("nan")
    return LimitEstimate(value=value, sequence_tail=raw[-6:], converged=False)


def solve_decreasing_batch(fn, targets, start: float = 1.0, args=()) -> np.ndarray:
    """Solve fn(d, *args) = targets elementwise for fn nonincreasing in d on [0, inf).

    The bracket [0, start] grows to the right until it holds the root, then
    Chandrupatla's method refines it to double precision.  ``fn`` is handed
    only the elements still being refined, so per-element constants must come
    through ``args`` (arrays broadcastable with ``targets``), never a closure.
    Elements are solved SOLVE_BLOCK at a time.
    """
    from scipy.optimize import elementwise

    targets = np.asarray(targets, dtype=float)

    def residual(d, target, *rest):
        return fn(d, *rest) - target

    flat = [np.broadcast_to(a, targets.shape).ravel() for a in (targets,) + tuple(args)]
    out = np.empty(targets.size)
    for k in range(0, targets.size, SOLVE_BLOCK):
        block = tuple(a[k:k + SOLVE_BLOCK] for a in flat)
        bracket = elementwise.bracket_root(residual, 0.0, start, xmin=0.0, args=block)
        res = elementwise.find_root(residual, bracket.bracket, args=block)
        failed = (bracket.status != 0) | (res.status != 0)
        if np.any(failed):
            raise ConvergenceError(f"root finder failed on {np.count_nonzero(failed)} elements", estimate=res.x)
        out[k:k + SOLVE_BLOCK] = res.x
    return out.reshape(targets.shape)

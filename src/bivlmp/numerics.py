"""Shared numerical kernels.

Double-exponential quadrature on [0, inf) and (0, 1), one-sided limit
estimation by Aitken extrapolation, and the package's one root finder, which
inverts nonincreasing functions on [0, inf) elementwise by Chandrupatla's
method with a secant first step, in numpy, until the bracket is down to a few
ulps or the residual to the rounding level of its target.  Everything here is
a pure function of its inputs.
The quadrature hands its integrand the nodes of levels 0-4 in one call,
then one level per call, weights each call's values in one product, and
sums and tests the levels one at a time, each a row slice of that product.
A level costs one reduction of its slice.  A one-column integral, as most
integrals of the package are, then tests the level in Python floats: the
running sum, the finiteness test and the stop test are the same double
operations a 1-element array makes, in the same order, so no bit moves,
and a level makes no other numpy call.  A NaN node value makes its level's
sum NaN, since the weights are positive and finite, so only a level whose
sum is not finite is scanned for NaN.

The package's argument conventions live here too: every public array
function returns ``scalar_or_array(out)``, converts an array argument with
``_real_array`` (a probability argument through ``in_unit``, a log of one
through ``in_log_unit``, a lifetime through ``core._nonnegative``) and sets
a copula's boundary values with ``copula_edges``; every constructor admits
each number it is given with ``_admit`` (a count or a seed with
``_admit_count``), and each parameter object with exactly its keys through
``_fields``.  A public function checks and converts each argument once, then
does all its work under one ``np.errstate``: the private ``_``-kernels it
calls, quadrature integrands and root-finder residuals included, take the
checked float arrays, never check again a value the same call produced, and
run under that state.  Each value has one range, checked once at the door: a
probability lies in exactly [0, 1] and its log in [-inf, 0], NaN in neither.
A kernel that takes a log it or another kernel produced does not clamp it
again; only where ln h^-1 is formed, whose rounding can pass 0 by an ulp, is
it clamped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_INVERT_TOL = 1e-8
LIMIT_BUDGET = 40
QUAD_LEVELS = 8  # quadrature steps 1, 1/2, ..., 2^-QUAD_LEVELS
FIRST_CHUNK = 5  # levels 0-4 share one integrand call: nearly every integral sums them all
QUAD_T = 6.0  # nodes at t in [-QUAD_T, QUAD_T]: u down to 1e-275, z from 1e-138 to 1e138 over rate
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_MAXITER = 2046  # log2(largest / smallest normal double): bisection's worst case


@dataclass(frozen=True)
class Interval:
    """The finite numbers in (lo, hi), or (lo, hi] when closed, less the point hole."""

    lo: float
    hi: float = math.inf
    closed: bool = False
    hole: float | None = None

    def __contains__(self, v):
        # isfinite first: NaN and +-inf are never inside, whatever the bounds
        return math.isfinite(v) and self.lo < v and (v < self.hi or self.closed and v == self.hi) and v != self.hole

    def __str__(self):
        text = f"({self.lo:.17g}, {self.hi:.17g}{']' if self.closed else ')'}"
        return text if self.hole is None else f"{text} less {self.hole:.17g}"


POSITIVE = Interval(0.0)
_FINITE = Interval(-math.inf)
_REALS = (float, int, np.float64)  # bool is a type of its own, so it is not among them


def _is_real(value) -> bool:
    """The admission test for a number: a real (a numpy one too), not a bool, a str or an array."""
    # the exact type first: nearly every number is a float or an int, and the ABC check costs a microsecond
    return type(value) in _REALS or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _admit(owner: str, name: str, value, domain: Interval) -> float:
    """value as a Python float: a real number, not a bool, finite and inside domain.

    The package's one rule for a number a caller passes; owner names the
    family, law or parameter set in the ValidationError.
    """
    try:
        v = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int past the largest double
        v = math.nan
    if v not in domain:
        raise ValidationError(f"{owner}: {name} must lie in {domain}, not {value!r}")
    return v


def _admit_count(owner: str, name: str, value) -> int:
    """value as a Python int: an integer (a numpy one too), not a bool, and not negative.

    The counterpart of _admit for a count or a seed.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"{owner}: {name} must be an integer >= 0, not {value!r}")
    return int(value)


def _fields(doc, required: tuple, where: str, optional: tuple = ()) -> list:
    """The values of required in doc, which must be an object with those fields and none outside optional."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown field(s) in {where}: {', '.join(sorted(map(str, unknown)))}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValidationError(f"{where} missing field(s): {', '.join(missing)}")
    return [doc[k] for k in required]


def scalar_or_array(out):
    """The return convention: a 0-d result as a Python float, anything else as a float array."""
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def _array_of(x, kinds: str, what: str, noun: str) -> np.ndarray:
    """np.asarray(x), or ValidationError that what must be noun unless its dtype kind is one of kinds."""
    try:
        x = np.asarray(x)
        typed = x.dtype.kind in kinds
    except ValueError:  # a ragged nested list
        typed = False
    if not typed:
        raise ValidationError(f"{what} must be {noun}")
    return x


def _real_array(x, what: str) -> np.ndarray:
    """x as a float array, or ValidationError naming what unless it is real numbers.

    The one conversion rule for an array argument: the converted array must be
    of ints, unsigned ints or floats.  A Python or numpy int or float converts
    to one of those; a bool, a str, a complex, an int past the largest double,
    any other object and a ragged list do not.
    """
    x = _array_of(x, "iuf", what, "a real number or an array of them, within the range of a double")
    return x.astype(float, copy=False)


def _sequence(x, what: str) -> tuple:
    """x as a tuple, or ValidationError naming what when it is one value (a number, a 0-d array, a str)."""
    try:
        if isinstance(x, str):  # iterable, but as its characters
            raise TypeError
        return tuple(x)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, not {x!r}") from None


def in_unit(x, what: str, open_at_0: bool = False) -> np.ndarray:
    """x as a float array (by _real_array), or DomainError unless all of it lies in [0, 1], (0, 1] with open_at_0.

    NaN fails the check.
    """
    x = _real_array(x, what)
    low = x.min(initial=np.inf)  # two reductions; NaN propagates through both and fails
    if not ((low > 0.0 if open_at_0 else low >= 0.0) and x.max(initial=-np.inf) <= 1.0):
        raise DomainError(f"{what} must lie in {'(0' if open_at_0 else '[0'}, 1]")
    return x


def in_log_unit(x, what: str) -> np.ndarray:
    """x as a float array (by _real_array), or DomainError unless all of it lies in [-inf, 0], the logs of [0, 1].

    NaN fails the check.
    """
    x = _real_array(x, what)
    if not x.max(initial=-np.inf) <= 0.0:  # one reduction; NaN propagates through it and fails
        raise DomainError(f"{what} must lie in [-inf, 0]")
    return x


def copula_edges(u, v, out):
    """out with a copula's exact boundary values: C(u, 0) = C(0, v) = 0, C(u, 1) = u, C(1, v) = v."""
    out = np.where((u <= 0) | (v <= 0), 0.0, out)
    return scalar_or_array(np.where(u >= 1, v, np.where(v >= 1, u, out)))


@dataclass(frozen=True)
class QuadratureResult:
    """An integral, the change of its last level, and evaluations: every node x column handed to f.

    The first call takes levels 0 to FIRST_CHUNK - 1 at once, so evaluations
    counts the nodes of levels past the stop in that call too.
    """

    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    sequence_tail: list = field(default_factory=list)
    converged: bool = False


def _de_levels(unit: bool):
    """Evaluation chunks of the double-exponential rule at t in [-QUAD_T, QUAD_T].

    Level k holds only the nodes new at step 2^-k, with the step folded into
    their weights.  Unit-interval nodes that round to 1 are dropped.  A chunk
    is (nodes as a column, their weights as a column, [(start, stop) of each
    level]): the first chunk holds levels 0 to FIRST_CHUNK - 1 end to end, and
    each later level is a chunk of its own.
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
        levels.append((x, step * w))
    chunks = []
    for group in (levels[:FIRST_CHUNK], *([level] for level in levels[FIRST_CHUNK:])):
        x, w = (np.concatenate(a)[:, None] for a in zip(*group))
        stops = np.cumsum([a.size for a, _ in group]).tolist()
        chunks.append((x, w, list(zip([0, *stops], stops))))
    return chunks


_HALF_LINE, _UNIT = _de_levels(unit=False), _de_levels(unit=True)


def _de_integrate(f, chunks, scale: float, tol: float, what: str) -> QuadratureResult:
    """Sum f over the nodes times scale, level by level, until two successive sums agree to tol in every column.

    f is called once per chunk, and its values are weighted in one product;
    a level's sum is one reduction of its row slice of that product, which
    numpy sums column by column, pairwise, as it would the level's own
    product.  One column (one integral) keeps its running sum and stop test
    in Python floats, the same double operations as on a 1-element array.
    The weights are positive and finite, so a NaN value makes its level's
    sum NaN: only a level whose sum is not finite is scanned for NaN, which
    then raises at the first level that holds it.  The levels past the stop
    are computed but never checked or summed.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    total = prev = None
    evaluations = 0
    for x, w, bounds in chunks:
        fx = np.asarray(f(x * scale), dtype=float)
        if fx.shape == x.shape[:1]:  # would broadcast to one column per node
            raise DomainError(f"{what}: integrand returned one flat value per node, not a column")
        if fx.ndim < 2 or fx.shape[0] != x.shape[0]:  # a constant, or one value per column
            fx = np.broadcast_arrays(x, fx)[1]
        evaluations += fx.size
        with np.errstate(invalid="ignore", over="ignore"):  # Fortran order: each column sums on its own, pairwise
            prod = np.multiply(w * scale, fx, order="F")
            one = prod.shape[1:] == (1,)
            if one:  # its contiguous column: the same pairwise sums, one level at a time
                prod = prod[:, 0]
            for start, stop in bounds:
                part = np.add.reduce(prod[start:stop], axis=0)  # ndarray.sum's reduction, without its wrapper
                if one:
                    part = float(part)
                prev, total = total, part if total is None else 0.5 * total + part
                if not (math.isfinite(total) if one else np.isfinite(total).all()):
                    if np.isnan(fx[start:stop]).any():
                        raise DomainError(f"{what}: integrand returned NaN")
                    raise ConvergenceError(f"{what} is not finite", estimate=scalar_or_array(np.squeeze(total)))
                if prev is not None:
                    change = abs(total - prev)
                    if change <= tol * abs(total) if one else (change <= tol * abs(total)).all():
                        return QuadratureResult(total if one else scalar_or_array(total.squeeze()),
                                                change if one else float(change.max()), evaluations)
    raise ConvergenceError(f"{what}: levels still differ by {np.max(np.abs(total - prev)):.3e}",
                           estimate=scalar_or_array(np.squeeze(total)))


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
    fv = np.vectorize(lambda x: f(x) - target, otypes=[float])
    x1, x2 = np.array([lo], dtype=float), np.array([hi], dtype=float)
    f1, f2 = fv(x1), fv(x2)
    if not np.sign(f1) * np.sign(f2) <= 0:
        raise DomainError(f"target {target!r} is not bracketed by f on [{lo!r}, {hi!r}]")
    with np.errstate(divide="ignore", invalid="ignore"):  # the steps divide by differences that may be 0
        x = _chandrupatla(fv, x1, f1, x2, f2, tol, ())
    if np.isnan(x[0]):
        raise ConvergenceError("monotone inversion did not converge")
    return float(x[0])


def limit_at_zero(g, u0: float = 0.25, tol: float = 1e-6, budget: int = LIMIT_BUDGET) -> LimitEstimate:
    """Estimate lim_{u->0+} g(u) along u_k = u0 * 2^-k with Aitken acceleration.

    g is called once, on the array of u_k > 0 for k < budget, and returns
    their values.  The walk takes them in order and stops once an accelerated
    step is <= tol and <= the step before plus tol, ignoring the values past
    that point; a non-finite value it reaches raises DomainError.  Returns
    converged=False when the accelerated sequence is still drifting at the
    smallest evaluated u.
    """
    u = u0 * 2.0 ** -np.arange(budget)
    u = u[u > 0.0]
    raw, acc = [], []
    for uk, v in zip(u.tolist(), np.asarray(g(u), dtype=float).tolist()):
        if not math.isfinite(v):
            raise DomainError(
                f"g({uk!r}) is not finite; evaluate the underlying survival in the log domain"
            )
        raw.append(v)
        if len(raw) >= 3:
            a0, a1, a2 = raw[-3], raw[-2], raw[-1]
            denom = a2 - 2.0 * a1 + a0
            acc.append(a2 - (a2 - a1) ** 2 / denom if denom != 0.0 else a2)
            if len(acc) >= 3:
                d1 = abs(acc[-1] - acc[-2])
                d2 = abs(acc[-2] - acc[-3])
                if d1 <= tol and d1 <= d2 + tol:
                    return LimitEstimate(value=acc[-1], sequence_tail=acc[-6:], converged=True)
    if acc:
        return LimitEstimate(value=acc[-1], sequence_tail=acc[-6:], converged=False)
    value = raw[-1] if raw else float("nan")
    return LimitEstimate(value=value, sequence_tail=raw[-6:], converged=False)


def _chandrupatla(residual, x1, f1, x2, f2, fatol, args) -> np.ndarray:
    """Roots of residual(x, *args) in the brackets [x1, x2] (f1, f2 of opposite signs), NaN where it fails.

    Chandrupatla's method, its first step a secant step (_chandrupatla_step).
    An element stops once |x2 - x1| < 4 eps |xmin| + 4 tiny, as in scipy, or
    once |residual(xmin)| <= fatol (a scalar, or one bound per element), and
    leaves the active set; residual sees only the active elements and their
    slices of args.  A NaN residual fails its element.
    """
    out = np.full(x1.size, np.nan)
    x3, f3 = x1, f1  # no third point yet: the first step is a secant step (_chandrupatla_step)
    fatol, pos = np.broadcast_to(fatol, x1.shape), np.arange(x1.size)  # pos: each element's place in out
    for k in range(_MAXITER):
        small = np.abs(f1) < np.abs(f2)
        xmin = np.where(small, x1, x2)
        tol = 4.0 * _EPS * np.abs(xmin) + 4.0 * _TINY
        live = ~np.isnan(f1)
        done = live & ((np.abs(np.where(small, f1, f2)) <= fatol) | (np.abs(x2 - x1) < tol))
        out[pos[done]] = xmin[done]
        keep = live ^ done
        if not keep.all():
            if not keep.any():
                return out
            keep = np.flatnonzero(keep)
            x1, f1, x2, f2, x3, f3, tol, fatol, pos = (a[keep] for a in (x1, f1, x2, f2, x3, f3, tol, fatol, pos))
            args = [a[keep] for a in args]  # apart from the bracket: fewer old and new copies held at once
        x = _chandrupatla_step(x1, f1, x2, f2, x3, f3, tol, first=not k)
        f = np.asarray(residual(x, *args), dtype=float)
        same = (f < 0) == (f1 < 0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
    return out


def _chandrupatla_step(x1, f1, x2, f2, x3, f3, tol, first):
    """Chandrupatla's next point in the bracket [x1, x2], x1 the newest point and x3 the last one dropped.

    Inverse quadratic interpolation through the three points where it is
    safe, bisection where it is not, kept tol/2 inside the bracket.  The first
    step, with no third point yet, is the secant (regula falsi) point of the
    bracket where both end values are finite and bisects where one is not, so
    an infinite end never stalls an element.  A function of its own, so that
    its temporaries are freed before the residual runs.
    """
    if first:
        t = np.where(np.isfinite(f1) & np.isfinite(f2), f1 / (f1 - f2), 0.5)
    else:
        d12, d32 = f1 - f2, f3 - f2
        xi, phi = (x1 - x2) / (x3 - x2), d12 / d32
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        t = np.where(iqi, f1 / d32 * (f3 / d12 + (x3 - x1) / (x2 - x1) * f2 / (f3 - f1)), 0.5)
    half = 0.5 * tol / np.abs(x2 - x1)
    return x1 + np.minimum(np.maximum(t, half), 1.0 - half) * (x2 - x1)


@np.errstate(all="ignore")
def solve_decreasing_batch(fn, targets, start: float = 1.0, args=()) -> np.ndarray:
    """Solve fn(d, *args) = targets elementwise for fn nonincreasing in d on [0, inf).

    The bracket [0, start] grows x4 to the right until it holds the root, then
    Chandrupatla's method, from a secant step, refines it to double precision;
    a root at 0 comes back as exactly 0.  An element stops once its bracket is
    down to 4 eps relative or once |fn - target| <= max(2 eps |target|, tiny),
    the rounding level of fn near the root as long as fn sums no terms larger
    than the target: a caller whose fn would subtract per-element constants
    adds them to the target instead.  ``fn`` is handed only the elements still
    being refined, so per-element constants must come through ``args`` (arrays
    broadcastable with ``targets``), never a closure.  A NaN, a target above
    fn(0) or one past the largest double raises ConvergenceError.  The solve,
    fn's passes included, runs under one ``np.errstate(all="ignore")``.
    """
    targets = np.asarray(targets, dtype=float)

    def residual(d, target, *rest):
        return fn(d, *rest) - target

    flat = tuple(np.broadcast_to(a, targets.shape).ravel() for a in (targets, *args))
    lo, hi = np.zeros(targets.size), np.full(targets.size, float(start))
    f_lo, f_hi = residual(lo, *flat), residual(hi, *flat)
    grow = np.flatnonzero((f_lo >= 0) & (f_hi > 0))
    while grow.size:
        lo[grow], f_lo[grow] = hi[grow], f_hi[grow]
        grow = grow[hi[grow] <= np.finfo(float).max / 4.0]  # the rest stay unbracketed
        hi[grow] *= 4.0
        f_hi[grow] = residual(hi[grow], *(a[grow] for a in flat))
        grow = grow[f_hi[grow] > 0]
    ok = (f_lo >= 0) & (f_hi <= 0)
    out = np.full(targets.size, np.nan)
    ok = slice(None) if ok.all() else ok  # views, not copies, when every element is bracketed
    fatol = np.maximum(2.0 * _EPS * np.abs(flat[0][ok]), _TINY)
    out[ok] = _chandrupatla(residual, lo[ok], f_lo[ok], hi[ok], f_hi[ok], fatol, tuple(a[ok] for a in flat))
    failed = np.count_nonzero(np.isnan(out))
    if failed:
        raise ConvergenceError(f"root finder failed on {failed} elements", estimate=out.reshape(targets.shape))
    return out.reshape(targets.shape)

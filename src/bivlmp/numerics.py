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

Every public numeric function of the package is an ``entry``: its
docstring states the argument and return conventions that each call keeps.
Every constructor admits each number it is given with ``_admit`` (a count or
a seed with ``_admit_count``), and each parameter object with exactly its
keys through ``_fields``.
The primitives here that take a callable (the quadratures, ``limit_at_zero``
and ``solve_decreasing_batch``) open no error state: they run under their
caller's entry, as the callable does.  Only ``invert_monotone``, which no
entry calls, opens its own.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_INVERT_TOL = 1e-8
QUAD_LEVELS = 8  # quadrature steps 1, 1/2, ..., 2^-QUAD_LEVELS
FIRST_CHUNK = 5  # levels 0-4 share one integrand call: nearly every integral sums them all
QUAD_T = 6.0  # nodes at t in [-QUAD_T, QUAD_T]: u down to 1e-275, z from 1e-138 to 1e138 over rate
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_EXACT = 2**53  # every int up to this in magnitude is a double
_MAXITER = 2046  # log2(largest / smallest normal double): bisection's worst case


class Record:
    """A frozen record: its fields are its ``__slots__``, in order, each set once by its ``__init__``.

    Equality and hash take the fields as one tuple, the repr reads as a
    dataclass's does, and a field can be neither assigned nor deleted.  Copy
    and pickle restore the fields without running ``__init__`` again.  The
    package's records are written on it, not with ``dataclasses``, whose
    decorator generates and compiles their methods at every start.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._values()

    def __init_subclass__(cls):
        # the __set__ of each field's slot, bound here once: _fill calls these, past the refusing __setattr__
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def _fill(self, *values):
        """Set the fields to values, in the order of __slots__: the last step of each __init__."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setstate__(self, values):
        self._fill(*values)


class Interval(Record):
    """The finite numbers in (lo, hi), or (lo, hi] when closed, less the point hole."""

    __slots__ = ("lo", "hi", "closed", "hole")

    def __init__(self, lo: float, hi: float = math.inf, closed: bool = False, hole: float | None = None):
        self._fill(lo, hi, closed, hole)

    def __contains__(self, v):
        # isfinite first: NaN and +-inf are never inside, whatever the bounds
        return math.isfinite(v) and self.lo < v and (v < self.hi or self.closed and v == self.hi) and v != self.hole

    def __str__(self):
        text = f"({self.lo:.17g}, {self.hi:.17g}{']' if self.closed else ')'}"
        return text if self.hole is None else f"{text} less {self.hole:.17g}"


POSITIVE = Interval(0.0)
_FINITE = Interval(-math.inf)
_REALS = frozenset((float, int, np.float64))  # bool is a type of its own, so it is not among them


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
    if isinstance(out, float):  # a Python float or a numpy float64: no array to build
        return float(out)
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
    any other object and a ragged list do not.  A Python float, or an int that
    a double holds exactly, comes back as a numpy float64, the 0-d value whose
    arithmetic skips the array machinery.
    """
    if type(x) is float or type(x) is int and -_EXACT <= x <= _EXACT:  # a number the double holds exactly
        return np.float64(x)
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


def _least(x: np.ndarray):
    """min(x): +inf when x is empty and NaN when it holds one; a 0-d x is read without a reduction."""
    return x.item() if x.ndim == 0 else x.min(initial=np.inf)


def _most(x: np.ndarray):
    """max(x): -inf when x is empty and NaN when it holds one; a 0-d x is read without a reduction."""
    return x.item() if x.ndim == 0 else x.max(initial=-np.inf)


# an array kind -> (its least value, whether that value is excluded, its most value, its refusal); the refusal
# may name the value as {what}, and a bound of None is not read
_RANGES = {
    "lifetime": (0.0, False, None, "lifetime arguments must be nonnegative"),
    "probability": (0.0, False, 1.0, "{what} must lie in [0, 1]"),
    "probability open at 0": (0.0, True, 1.0, "{what} must lie in (0, 1]"),
    "log probability": (None, False, 0.0, "{what} must lie in [-inf, 0]"),  # the logs of [0, 1]
    "ln v": (-math.inf, True, 0.0, "ln v must lie in (-inf, 0]"),
}


def _in_range(x, what: str, row: tuple) -> np.ndarray:
    """x as a float array (by _real_array), or DomainError with row's refusal unless all of it lies in row's range.

    row is a row of _RANGES.  Each bound read costs one reduction; NaN propagates through it and fails.
    """
    least, excluded, most, refusal = row
    x = _real_array(x, what)
    if not ((least is None or (_least(x) > least if excluded else _least(x) >= least))
            and (most is None or _most(x) <= most)):
        raise DomainError(refusal.format(what=what))
    return x


def _s_grid(s_grid) -> tuple:
    """s_grid as a tuple of Python floats, or DomainError for an entry that is not a real number or is NaN.

    An int past the largest double is refused too; +-inf pass, as empirical_kendall takes them.
    A single number is not a grid (ValidationError).
    """
    s_grid = _sequence(s_grid, "s_grid")
    for s in s_grid:
        if not _is_real(s):
            raise DomainError(f"s must be a real number, not {s!r}")
        if not (abs(s) <= sys.float_info.max or abs(s) == math.inf):  # NaN fails both
            raise DomainError("s must not be NaN, nor an int past the largest double")
    return tuple(map(float, s_grid))


def _s_unit(s_grid, what: str) -> np.ndarray:
    """s_grid as a float array in (0, 1] (by _in_range), or the refusal of _s_grid, which comes first.

    _s_grid checks each entry of a grid of any type but float and int (np.array reads a bool as a float).
    """
    s_grid = _sequence(s_grid, "s_grid")
    s_grid = s_grid if _REALS.issuperset(map(type, s_grid)) else _s_grid(s_grid)
    try:
        return _in_range(np.array(s_grid, dtype=float), what, _RANGES["probability open at 0"])
    except (OverflowError, DomainError):  # an int past the largest double, or a value outside (0, 1]
        _s_grid(s_grid)  # a NaN or an int past the largest double is named first
        raise


def copula_edges(u, v, out) -> np.ndarray:
    """out with a copula's exact boundary values: C(u, 0) = C(0, v) = 0, C(u, 1) = u, C(1, v) = v."""
    out = np.where((u <= 0) | (v <= 0), 0.0, out)
    return np.where(u >= 1, v, np.where(v >= 1, u, out))


def _check_age(t) -> float:
    """The one age check: a real number (ValidationError) that is 0 <= t <= the largest double (DomainError)."""
    if not _is_real(t):
        raise ValidationError(f"t must be a real number, not {t!r}")
    if not 0 <= t <= sys.float_info.max:  # NaN fails, and so does an int past the largest double
        raise DomainError("t must be a finite nonnegative number")
    return float(t)


def _margin(i, what: str, first) -> int:
    """i as the int 1 or 2: the number 1 or 2 (not a bool, not an array), or DomainError."""
    if _is_real(i) and (i == 1 or i == 2):
        return int(i)
    raise DomainError("margin index must be 1 or 2")


def _one_of(x, names: tuple, refusal: str) -> str:
    """x, a str among names, or DomainError with refusal, which may name x as {x!r}."""
    if isinstance(x, str) and x in names:
        return x
    raise DomainError(refusal.format(x=x))


def _model_age(t, what: str, m) -> float:
    """t as a float, once m.tau(t) has checked it; the body forms lambda t again, unchecked."""
    m.tau(t)
    return float(t)


_NUMERIC = (float, np.ndarray, np.generic)  # the results an entry returns through scalar_or_array
# kind -> its admission, of (the value, the name its errors give it, the call's first argument); the kinds of
# _RANGES are admitted by _in_range
_ADMISSIONS = {
    "s grid": lambda s, what, first: _s_unit(s, what),  # a sequence of reals, as a float array in (0, 1]
    "age": lambda t, what, first: _check_age(t),  # a float in [0, the largest double]
    "model age": _model_age,  # a float whose lambda t, the first argument's m.tau(t), is finite
    "model ages": lambda ts, what, m: tuple(_model_age(t, what, m) for t in _sequence(ts, what)),  # a tuple of floats
    "margin": _margin,  # the int 1 or 2
    "horizon": lambda x, what, first: None if x is None else _admit("pricing", what, x, _FINITE),  # None or a float
    # the J route of a Kendall function, a key of dependence._J_ROUTES
    "Kendall source": lambda x, what, first: _one_of(x, ("closed_form", "quadrature"), "unknown source {x!r}"),
    "tail side": lambda x, what, first: _one_of(x, ("lower", "upper"), "which must be 'lower' or 'upper'"),
}


def entry(**admissions):
    """Decorate a public numeric function: each argument admitted once, the body run under one error state.

    The package's one convention for a public call.  Each keyword names a
    parameter of the body and its kind in ``_RANGES`` or ``_ADMISSIONS``, or
    (its kind, the name its errors give it).  A call runs the admissions in
    the order of the keywords, on each argument the caller passed, and hands
    the body what they admit: a float array (a Python number as a numpy
    float64), an age as a float, a margin index as the int 1 or 2.  Each
    value has one range, checked once here and never in a kernel: a
    probability lies in exactly [0, 1] and its log in [-inf, 0], NaN in
    neither.  The body runs
    under one ``np.errstate(all="ignore")``; a numeric result (a float or a
    numpy one) returns through ``scalar_or_array``, anything else as it is.

    The body is the kernel, ``fn.kernel``.  Kernels, quadrature integrands and
    root-finder residuals call kernels, never an entry: they run under their
    caller's error state and never check again a value the call produced.  A
    log that a kernel produced is not clamped again; only where ln h^-1 is
    formed, whose rounding can pass 0 by an ulp, is it clamped.  The plan is
    built once, here, from the body's code object: a call admits each
    argument where the caller put it, by position or by keyword, and passes
    it on there.  A left-out parameter reaches the body as its own default,
    unadmitted, so each default is already what its admission returns (None
    as a horizon, a source's name, the s grid as a float array), and a
    missing argument raises Python's own TypeError.
    """

    def decorate(kernel):
        code = kernel.__code__
        names = code.co_varnames[:code.co_argcount]
        specs = {name: spec if isinstance(spec, tuple) else (spec, name) for name, spec in admissions.items()}
        # a kind of _RANGES binds its row here, so that a call reads no table
        plan = [(names.index(name), name, _ADMISSIONS[kind] if kind not in _RANGES else
                 lambda x, what, first, row=_RANGES[kind]: _in_range(x, what, row), what)
                for name, (kind, what) in specs.items()]

        @functools.wraps(kernel)
        def call(*args, **kwargs):
            if args or names[0] in kwargs:  # else the body's call raises the TypeError of the missing first argument
                first = args[0] if args else kwargs[names[0]]
                args = list(args)
                for i, name, admit, what in plan:
                    if i < len(args):
                        args[i] = admit(args[i], what, first)
                    elif name in kwargs:
                        kwargs[name] = admit(kwargs[name], what, first)
            with np.errstate(all="ignore"):
                out = kernel(*args, **kwargs)
            return scalar_or_array(out) if isinstance(out, _NUMERIC) else out

        call.kernel = kernel
        return call

    return decorate


class QuadratureResult(Record):
    """An integral, the change of its last level, and evaluations: every node x column handed to f.

    The first call takes levels 0 to FIRST_CHUNK - 1 at once, so evaluations
    counts the nodes of levels past the stop in that call too.
    """

    __slots__ = ("value", "abs_error_estimate", "evaluations")

    def __init__(self, value: float, abs_error_estimate: float, evaluations: int):
        self._fill(value, abs_error_estimate, evaluations)


class LimitEstimate(Record):
    __slots__ = ("value", "sequence_tail", "converged")

    def __init__(self, value: float, sequence_tail: list, converged: bool):
        self._fill(value, sequence_tail, converged)


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
    are computed but never checked or summed.  Under the caller's error state.
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
        # Fortran order: each column sums on its own, pairwise
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
    # its own error state, not an entry's: no entry calls it, and the steps divide by differences that may be 0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _chandrupatla(fv, x1, f1, x2, f2, np.array([tol], dtype=float), ())
    if np.isnan(x[0]):
        raise ConvergenceError("monotone inversion did not converge")
    return float(x[0])


def limit_at_zero(g, u0: float, tol: float, budget: int) -> LimitEstimate:
    """Estimate lim_{u->0+} g(u) along u_k = u0 * 2^-k with Aitken acceleration.

    g is called once, on the array of u_k > 0 for k < budget, and returns
    their values.  The walk takes them in order and stops once an accelerated
    step is <= tol and <= the step before plus tol, ignoring the values past
    that point; a non-finite value it reaches raises DomainError.  Returns
    converged=False when the accelerated sequence is still drifting at the
    smallest evaluated u.  Fewer than three u_k > 0, the fewest that one
    accelerated value needs, raise DomainError.
    """
    u = u0 * 2.0 ** -np.arange(budget)
    u = u[u > 0.0]
    if u.size < 3:
        raise DomainError(f"limit_at_zero needs at least 3 points u_k > 0, not {u.size}")
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
    return LimitEstimate(value=acc[-1], sequence_tail=acc[-6:], converged=False)


def _chandrupatla(residual, x1, f1, x2, f2, fatol, args) -> np.ndarray:
    """Roots of residual(x, *args) in the brackets [x1, x2] (f1, f2 of opposite signs), NaN where it fails.

    Chandrupatla's method, its first step a secant step (_chandrupatla_step).
    An element stops once |x2 - x1| < 4 eps |xmin| + 4 tiny, as in scipy, or
    once |residual(xmin)| <= fatol (an array of one bound per element), and
    leaves the active set; residual sees only the active elements and their
    slices of args.  A NaN residual fails its element.
    """
    out, pos = np.full(x1.size, np.nan), np.arange(x1.size)  # pos: each element's place in out
    x3, f3 = x1, f1  # no third point yet: the first step is a secant step (_chandrupatla_step)
    for k in range(_MAXITER):
        a1, a2 = np.abs(f1), np.abs(f2)
        small, live = a1 < a2, f1 == f1  # live: False on NaN only
        xmin = np.where(small, x1, x2)
        tol = 4.0 * _EPS * np.abs(xmin) + 4.0 * _TINY
        done = live & ((np.where(small, a1, a2) <= fatol) | (np.abs(x2 - x1) < tol))
        del a1, a2  # not held through the residual's pass, whose temporaries set the peak
        keep = live ^ done  # a mask while every element is alive: no index array through the residual's pass
        if not 0 < np.count_nonzero(keep) == keep.size:  # an element stopped or failed, or none is left (no elements)
            out[pos[done]] = xmin[done]
            keep = np.flatnonzero(keep)
            if not keep.size:
                return out
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
    dx = x2 - x1
    if first:
        t = np.where(np.isfinite(f1) & np.isfinite(f2), f1 / (f1 - f2), 0.5)
    else:
        d12, d32 = f1 - f2, f3 - f2
        xi, phi = (x1 - x2) / (x3 - x2), d12 / d32
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        t = np.where(iqi, f1 / d32 * (f3 / d12 + (x3 - x1) / dx * f2 / (f3 - f1)), 0.5)
    half = 0.5 * tol / np.abs(dx)
    return x1 + np.minimum(np.maximum(t, half), 1.0 - half) * dx


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
    broadcastable with ``targets``), never a closure.  1-D float targets, and
    args of their shape, pass uncopied: the solve never writes to them, nor
    may fn.  A start not positive and finite raises DomainError; a NaN, a
    target above fn(0) or one past the largest double raises ConvergenceError.
    The solve, fn's passes included, runs under the caller's error state.
    """
    if not 0 < start < math.inf:  # a bracket [0, start] that never grows, grows the wrong way or never closes
        raise DomainError("start must be positive and finite")
    targets = np.asarray(targets, dtype=float)

    def residual(d, target, *rest):
        return fn(d, *rest) - target

    flat = tuple(a if type(a) is np.ndarray and a.shape == targets.shape == (a.size,)
                 else np.broadcast_to(a, targets.shape).ravel() for a in (targets, *args))
    lo, hi = np.zeros(targets.size), np.full(targets.size, float(start))
    f_lo, f_hi = residual(lo, *flat), residual(hi, *flat)
    grow = np.flatnonzero((f_lo >= 0) & (f_hi > 0))
    while grow.size:
        lo[grow], f_lo[grow] = hi[grow], f_hi[grow]
        grow = grow[hi[grow] <= np.finfo(float).max / 4.0]  # the rest stay unbracketed
        hi[grow] *= 4.0
        f_hi[grow] = residual(hi[grow], *(a[grow] for a in flat))
        grow = grow[f_hi[grow] > 0]
    f_lo[~((f_lo >= 0) & (f_hi <= 0))] = np.nan  # not bracketed: the element fails at the refinement's first pass
    out = _chandrupatla(residual, lo, f_lo, hi, f_hi, np.maximum(2.0 * _EPS * np.abs(flat[0]), _TINY), flat)
    if failed := np.count_nonzero(np.isnan(out)):
        raise ConvergenceError(f"root finder failed on {failed} elements", estimate=out.reshape(targets.shape))
    return out.reshape(targets.shape)

"""Distortion generators.

A generator is a strictly increasing bijection h of [0,1].  It induces the
pseudo-product a (x) b = h(h^-1(a) h^-1(b)) and the time distortions

    d_t(x) = h(e^-t h^-1(x)) / h(e^-t)      (residual-vector distortion)
    h_t(x) = h(e^-t x) / h(e^-t)            (distortion of the undistorted core)

Every family states two functions of a log argument, ln h(e^lw) and
ln h^-1(e^lw) for lw <= 0, and everything else derives from them.  An age t
enters only as the shift lw - t: no formula forms e^-t x, which underflows
(and drags h(e^-t x) and h(e^-t) to 0 with it) long before their ratio does.

The catalog below covers the closed-form families plus the generators built
from a moment generating function (mixing construction).  Every family states
all three of its formulas, so every generator serves every route.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import (POSITIVE, _FINITE, Interval, _admit, _fields, _is_real, _real_array, copula_edges, in_unit,
                       scalar_or_array, solve_decreasing_batch)

_SLACK = 1e-12  # rounding allowed outside [0, 1] in a generator's argument
_DEEP = -700.0  # below this log, e^lw is too close to underflow for a closed form in e^lw
_UNIT = Interval(0.0, 1.0, closed=True)


def _in_unit(x, what="argument"):
    return in_unit(x, what, _SLACK)


def _unit_edges(x, out):
    """out with the exact values 0 at x <= 0 and 1 at x >= 1."""
    return scalar_or_array(np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, out)))


def _log_arg(x):
    """ln x for x in [0, 1] (0 gives -inf), clamped to <= 0; under the caller's error state."""
    return np.minimum(np.log(x), 0.0)


def _log1mexp(x):
    """ln(1 - e^x) for x <= 0, without cancellation at either end."""
    return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _log_argument(lw, what: str):
    """The one check of a log argument: a float array (by _real_array), DomainError where NaN, clamped to <= 0."""
    lw = np.minimum(_real_array(lw, what), 0.0)
    if np.isnan(lw.min(initial=0.0)):  # one reduction; NaN propagates through it
        raise DomainError(f"{what} must not be NaN")
    return lw


class Generator:
    """Base class.

    A family defines ``_h_log_from_log(lw) = ln h(e^lw)`` and
    ``_h_log_inv_from_log(lw) = ln h^-1(e^lw)`` for lw <= 0, each finite
    wherever its value is, and ``_h_elasticity(lx) = x h'(x) / h(x)`` at
    x = e^lx where h has a derivative.  The public methods derive from these.
    """

    family = "base"
    # the index b of h(x) ~ c x^b as x -> 0 and of 1 - h(x) ~ c (1 - x)^b as x -> 1: inf where h
    # vanishes faster than every power, NaN where no lemma is known (the tails take the numeric limit)
    zero_exponent = math.nan
    one_exponent = math.nan
    # the age past which the residual copula C_t equals its limit to double precision
    _copula_age_cap = math.inf
    # the config document make_generator or generator_from_mixing built this from; None when built by hand
    config = None

    # the log-domain formulas of a family ------------------------------------
    def _h_log_from_log(self, lw):
        raise NotImplementedError

    def _h_log_inv_from_log(self, lw):
        raise NotImplementedError

    def _h_elasticity(self, lx):
        """x h'(x) / h(x) at x = e^lx, from lx so that neither x nor h(x) has to be representable."""
        raise NotImplementedError

    def _residual_log_inverse(self, t, lu):
        """ln h_t^-1(e^lu) = t + ln h^-1(w) with ln w = lu + ln h(e^-t), for lu <= 0."""
        return t + self._h_log_inv_from_log(lu + self._h_log_from_log(-t))

    def _residual_log(self, t, lw):
        """ln h_t(e^lw) = ln h(e^{lw - t}) - ln h(e^-t); families with a closed form override this."""
        return self._h_log_from_log(lw - t) - self._h_log_from_log(-t)

    # public, endpoint-safe surface ------------------------------------------
    def h(self, x):
        x = _in_unit(x)
        with np.errstate(all="ignore"):
            return _unit_edges(x, np.exp(self._h_log_from_log(_log_arg(x))))

    def h_inverse(self, u):
        u = _in_unit(u)
        with np.errstate(all="ignore"):
            return _unit_edges(u, np.exp(self._h_log_inv_from_log(_log_arg(u))))

    def h_elasticity_from_log(self, lx):
        """x h'(x) / h(x) at x = e^lx, lx <= 0: the slope of ln h against ln x."""
        with np.errstate(all="ignore"):
            return scalar_or_array(self._h_elasticity(_log_argument(lx, "lx")))

    def h_from_log(self, lw):
        """h(e^lw), with lw clamped to <= 0."""
        with np.errstate(all="ignore"):
            return scalar_or_array(np.exp(self._h_log_from_log(_log_argument(lw, "lw"))))

    def h_log_from_log(self, lw):
        """ln h(e^lw), with lw clamped to <= 0; finite where h(e^lw) underflows."""
        with np.errstate(all="ignore"):
            return scalar_or_array(self._h_log_from_log(_log_argument(lw, "lw")))

    def neg_log_h_inverse(self, u):
        """-ln h^-1(u), finite where h^-1(u) underflows."""
        u = _in_unit(u)
        with np.errstate(all="ignore"):
            return scalar_or_array(-self._h_log_inv_from_log(_log_arg(u)))

    def describe(self):
        """A copy of the config document, or only the family of a generator built by hand."""
        return copy.deepcopy(self.config) if self.config is not None else {"family": self.family}

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class IdentityGenerator(Generator):
    family = "identity"
    zero_exponent = one_exponent = 1.0

    def _h_log_from_log(self, lw):
        return lw

    def _h_log_inv_from_log(self, lw):
        return lw

    def _h_elasticity(self, lx):
        return np.ones_like(lx)


class StretchedExpGenerator(Generator):
    """h(x) = exp(-(rate * (-ln x))^shape).

    Comes from the Weibull survival H(z) = exp(-(rate*z)^shape); the
    positive-stable mixing law lands here too (rate=ratio, shape=a).
    """

    family = "weibull"

    def __init__(self, rate, shape):
        self.rate = _admit(self.family, "rate", rate, POSITIVE)
        self.shape = _admit(self.family, "shape", shape, POSITIVE)
        self.zero_exponent = self.rate if abs(self.shape - 1.0) < 1e-14 else math.nan  # h(x) = x^rate at shape 1
        self.one_exponent = self.shape

    # np.power, not **: a scalar's ** can round apart from the array loop
    def _h_log_from_log(self, lw):
        return -np.power(self.rate * -lw, self.shape)

    def _h_log_inv_from_log(self, lw):
        return -np.power(-lw, 1.0 / self.shape) / self.rate

    def _h_elasticity(self, lx):
        return self.shape * self.rate * np.power(self.rate * -lx, self.shape - 1.0)


class GompertzGenerator(Generator):
    """h(x) = exp(-xi (x^-mu - 1)), from the Gompertz survival function."""

    family = "gompertz"
    zero_exponent = math.inf
    one_exponent = 1.0

    def __init__(self, xi, mu):
        self.xi = _admit(self.family, "xi", xi, POSITIVE)
        self.mu = _admit(self.family, "mu", mu, POSITIVE)
        # C_t depends on t only through xi e^{mu t}, and what is left of that dependence is
        # O(ln(u)^2 / (xi e^{mu t})): below rounding past xi e^{mu t} = e^230, long before the
        # scale overflows at e^709.  So the copula and K_t stop aging there.
        self._copula_age_cap = max(230.0 - math.log(self.xi), 0.0) / self.mu

    def _h_log_from_log(self, lw):
        # -xi (e^{-mu lw} - 1): finite long after h(e^lw) underflows
        return -self.xi * np.expm1(-self.mu * lw)

    def _h_log_inv_from_log(self, lw):
        return -np.log1p(-lw / self.xi) / self.mu

    def _h_elasticity(self, lx):
        return self.xi * self.mu * np.exp(-self.mu * lx)

    def _residual_log_inverse(self, t, lu):
        # h_t is Gompertz again, with xi e^{mu t}; exact where h_t^-1(u) rounds to 1
        return -np.log1p(-math.exp(-self.mu * t) * lu / self.xi) / self.mu

    def _residual_log(self, t, lw):
        # -xi e^{mu t} expm1(-mu lw), not the difference of two terms of size xi e^{mu t};
        # exactly 0 at lw = 0 also where e^{mu t} overflows
        return np.where(lw == 0.0, 0.0, -self.xi * np.exp(self.mu * t) * np.expm1(-self.mu * lw))


class Mo15Generator(GompertzGenerator):
    """h(x) = exp(-xi (1/x - 1)); the Marshall-Olkin 2015 bivariate-Gompertz distortion."""

    family = "mo15"

    def __init__(self, xi):
        super().__init__(xi, 1.0)


class LogPowerGenerator(Generator):
    """h(x) = (1 - coef * ln x)^-expo.

    Pareto survival gives coef=a, expo=1/mu; the gamma mixing law gives
    coef=ratio, expo=a.
    """

    family = "pareto"
    one_exponent = 1.0  # none at 0: h falls like a power of -ln x there, slower than every power of x

    def __init__(self, coef, expo):
        self.coef = _admit(self.family, "coef", coef, POSITIVE)
        self.expo = _admit(self.family, "expo", expo, POSITIVE)

    def _h_log_from_log(self, lw):
        return -self.expo * np.log1p(-self.coef * lw)

    def _h_log_inv_from_log(self, lw):
        # (1 - u^(-1/expo)) / coef: h^-1 underflows long before its log does
        return -np.expm1(-lw / self.expo) / self.coef

    def _h_elasticity(self, lx):
        return self.expo * self.coef / (1.0 - self.coef * lx)


class LogisticGenerator(Generator):
    """h(x) = (theta x^-a + 1 - theta)^-1."""

    family = "logistic"
    one_exponent = 1.0

    def __init__(self, a, theta):
        self.a = _admit(self.family, "a", a, POSITIVE)
        self.theta = _admit(self.family, "theta", theta, POSITIVE)
        self.zero_exponent = self.a

    def _h_log_from_log(self, lw):
        # h = x^a / (theta + (1 - theta) x^a)
        return self.a * lw - np.log(self.theta + (1.0 - self.theta) * np.exp(self.a * lw))

    def _h_log_inv_from_log(self, lw):
        # h^-1(u)^a = theta u / (1 + (theta - 1) u)
        return (math.log(self.theta) + lw - np.log1p((self.theta - 1.0) * np.exp(lw))) / self.a

    def _h_elasticity(self, lx):
        return self.a * self.theta / (self.theta + (1.0 - self.theta) * np.exp(self.a * lx))


class LogSeriesGenerator(Generator):
    """h(x) = ln(theta x^a + 1) / ln(theta + 1), theta in (-1, 0) or theta > 0."""

    family = "log_series"
    one_exponent = 1.0

    def __init__(self, a, theta):
        self.a = _admit(self.family, "a", a, POSITIVE)
        self.theta = _admit(self.family, "theta", theta, Interval(-1.0, hole=0.0))
        self.zero_exponent = self.a

    def _h_log_from_log(self, lw):
        # deep in the tail, ln(1 + theta y) = theta y to double precision
        lt = math.log1p(self.theta)
        ly = self.a * lw
        exact = np.log(np.log1p(self.theta * np.exp(ly)) / lt)
        return np.where(ly > _DEEP, exact, ly + math.log(self.theta / lt))

    def _h_log_inv_from_log(self, lw):
        lt = math.log1p(self.theta)
        exact = np.log(np.expm1(np.exp(lw) * lt) / self.theta)
        return np.where(lw > _DEEP, exact, lw + math.log(lt / self.theta)) / self.a

    def _h_elasticity(self, lx):
        y = self.theta * np.exp(self.a * lx)  # y / log1p(y) -> 1 as y -> 0
        return self.a / (1.0 + y) * np.where(y == 0.0, 1.0, y / np.log1p(y))


class ArctanGenerator(Generator):
    """h(x) = (4/pi) arctan(x^a)."""

    family = "arctan"
    one_exponent = 1.0

    def __init__(self, a):
        self.a = _admit(self.family, "a", a, POSITIVE)
        self.zero_exponent = self.a

    def _h_log_from_log(self, lw):
        ly = self.a * lw
        exact = np.log((4.0 / math.pi) * np.arctan(np.exp(ly)))
        return np.where(ly > _DEEP, exact, ly + math.log(4.0 / math.pi))

    def _h_log_inv_from_log(self, lw):
        exact = np.log(np.tan((math.pi / 4.0) * np.exp(lw)))
        return np.where(lw > _DEEP, exact, lw + math.log(math.pi / 4.0)) / self.a

    def _h_elasticity(self, lx):
        y = np.exp(self.a * lx)  # y / arctan(y) -> 1 as y -> 0
        return self.a / (1.0 + y * y) * np.where(y == 0.0, 1.0, y / np.arctan(y))


class SibuyaMixingGenerator(Generator):
    """h(x) = 1 - (1 - x^r)^a, r = ratio; the Sibuya mixing law gives it for a in (0, 1]."""

    family = "mixing"
    _NEAR_0 = -40.0  # below this ln x^r, h = a x^r and h^-1(u) = (u/a)^(1/r) to double precision

    def __init__(self, a, ratio):
        self.a = _admit(self.family, "a", a, POSITIVE)
        self.ratio = _admit(self.family, "ratio", ratio, POSITIVE)
        self.zero_exponent = self.ratio  # h(x) ~ a x^ratio at 0
        self.one_exponent = self.a  # 1 - h(x) ~ (ratio (1 - x))^a at 1

    # ln(1 - e^x) at each step keeps the digits of h near 1 and near 0
    def _h_log_from_log(self, lw):
        ly = self.ratio * lw
        return np.where(ly > self._NEAR_0, _log1mexp(self.a * _log1mexp(ly)), math.log(self.a) + ly)

    def _h_log_inv_from_log(self, lw):
        return np.where(lw > self._NEAR_0, _log1mexp(_log1mexp(lw) / self.a), lw - math.log(self.a)) / self.ratio

    def _h_elasticity(self, lx):
        ly = self.ratio * lx
        log_one_m = _log1mexp(ly)  # ln(1 - x^ratio)
        exact = self.a * self.ratio * np.exp(ly + (self.a - 1.0) * log_one_m) / -np.expm1(self.a * log_one_m)
        return np.where(ly > self._NEAR_0, exact, self.ratio)


def _lowest_order(coeffs) -> int:
    """The index of the first coefficient whose magnitude passes 1e-12."""
    return int(np.nonzero(np.abs(coeffs) > 1e-12)[0][0])


class PolynomialGenerator(Generator):
    """h(x) = sum c_k x^k with nonnegative coefficients summing to 1."""

    family = "polynomial"

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 1:
            coeffs = coeffs.tolist()
        if not isinstance(coeffs, (list, tuple)) or len(coeffs) < 2:
            raise ValidationError(f"polynomial generator needs a list of at least two coefficients, not {coeffs!r}")
        c = np.array([_admit(self.family, f"coeffs[{k}]", v, _FINITE) for k, v in enumerate(coeffs)])
        if not abs(c.sum() - 1.0) <= 1e-12:
            raise ValidationError("polynomial generator coefficients must sum to 1 (h(1)=1)")
        if not abs(c[0]) <= 1e-12:
            raise ValidationError("polynomial generator needs zero constant term (h(0)=0)")
        self.coeffs = c
        grid = np.linspace(0.0, 1.0, 512)
        vals = np.polyval(c[::-1], grid)
        if not np.all(np.diff(vals) > 0):
            raise ValidationError("polynomial generator is not strictly increasing on [0, 1]")
        # the exponents are the orders of the first coefficients of h(x) in x and of h(1 - e) - 1 in e
        k0 = _lowest_order(c)
        at_one = np.polynomial.Polynomial(c)(np.polynomial.Polynomial([1.0, -1.0])) - 1.0
        self.zero_exponent = float(k0)
        self.one_exponent = float(_lowest_order(at_one.coef))
        # h(x) = x^k0 p(x) with p(0) = c_k0 > 0, and x h'(x) = x^k0 q(x)
        self._k0 = k0
        self._p = c[k0:][::-1]
        self._q = (np.arange(k0, c.size) * c[k0:])[::-1]

    def _h_log_from_log(self, lw):
        return self._k0 * lw + np.log(np.polyval(self._p, np.exp(lw)))

    def _h_log_inv_from_log(self, lw):
        """-z for the z >= 0 with ln h(e^-z) = lw; -inf where lw = -inf.

        No closed inverse.  ln h(e^-z) decreases on [0, inf), and solving it in
        logs for z = -ln x keeps the digits near x = 1 and where h(x) nears the
        smallest double.
        """
        lw = np.asarray(lw, dtype=float)
        out = np.where(lw == -np.inf, -np.inf, np.nan)
        finite = np.isfinite(lw)
        out[finite] = -solve_decreasing_batch(lambda z: self._h_log_from_log(-z), lw[finite])
        return out

    def _h_elasticity(self, lx):
        x = np.exp(lx)
        return np.polyval(self._q, x) / np.polyval(self._p, x)

    def _h_pp(self, x):
        d2 = np.polyder(np.poly1d(self.coeffs[::-1]), 2)
        return np.polyval(d2.coeffs, x)

    def _h_ppp(self, x):
        d3 = np.polyder(np.poly1d(self.coeffs[::-1]), 3)
        return np.polyval(d3.coeffs, x)


class SineGenerator(Generator):
    """h(x) = sin(theta x) / sin(theta), theta in (0, pi/2)."""

    family = "sine"
    zero_exponent = one_exponent = 1.0

    def __init__(self, theta):
        self.theta = _admit(self.family, "theta", theta, Interval(0.0, math.pi / 2.0))

    def _h_log_from_log(self, lw):
        s = math.sin(self.theta)
        return np.where(lw > _DEEP, np.log(np.sin(self.theta * np.exp(lw)) / s), lw + math.log(self.theta / s))

    def _h_log_inv_from_log(self, lw):
        s = math.sin(self.theta)
        return np.where(lw > _DEEP, np.log(np.arcsin(s * np.exp(lw)) / self.theta), lw + math.log(s / self.theta))

    def _h_elasticity(self, lx):
        y = self.theta * np.exp(lx)  # y / tan(y) -> 1 as y -> 0
        return np.where(y == 0.0, 1.0, y / np.tan(y))

    def _h_pp(self, x):
        return -self.theta**2 * np.sin(self.theta * x) / math.sin(self.theta)

    def _h_ppp(self, x):
        return -self.theta**3 * np.cos(self.theta * x) / math.sin(self.theta)


class PowerScaledGenerator(Generator):
    """h_beta(x) = h(x^beta); same pseudo-product as h for every beta > 0."""

    family = "power_scaled"

    def __init__(self, base: Generator, beta: float):
        self.base = base
        self.beta = _admit(self.family, "beta", beta, POSITIVE)
        # h(x^beta) ~ c x^(beta b) at 0, and 1 - x^beta ~ beta (1 - x) at 1 keeps the index there
        self.zero_exponent = self.beta * base.zero_exponent
        self.one_exponent = base.one_exponent
        self._copula_age_cap = base._copula_age_cap / self.beta  # h_beta at age t is h at age beta t

    def _h_log_from_log(self, lw):
        return self.base._h_log_from_log(self.beta * lw)

    def _h_log_inv_from_log(self, lw):
        return self.base._h_log_inv_from_log(lw) / self.beta

    def _h_elasticity(self, lx):
        return self.beta * self.base._h_elasticity(self.beta * lx)

    # h_beta at age t is h at age beta t, of x^beta: the base's own age-t forms, closed ones included
    def _residual_log(self, t, lw):
        return self.base._residual_log(self.beta * t, self.beta * lw)

    def _residual_log_inverse(self, t, lu):
        return self.base._residual_log_inverse(self.beta * t, lu) / self.beta


# ---------------------------------------------------------------------------
# the config families and the mixing construction
# ---------------------------------------------------------------------------


def _entry(table: dict, key, what: str):
    if not isinstance(key, str) or key not in table:
        raise ValidationError(f"unknown {what} {key!r}")
    return table[key]


def _pareto(a, mu):
    """Pareto survival (1 + a z)^(-1/mu) as a generator; a mu whose inverse overflows fails as expo."""
    return LogPowerGenerator(_admit("pareto", "a", a, POSITIVE), 1.0 / _admit("pareto", "mu", mu, POSITIVE))


# family -> (its parameters in the builder's order, the builder)
FAMILIES = {
    "identity": ((), IdentityGenerator),
    "weibull": (("a", "alpha"), StretchedExpGenerator),
    "gompertz": (("xi", "mu"), GompertzGenerator),
    "pareto": (("a", "mu"), _pareto),
    "logistic": (("a", "theta"), LogisticGenerator),
    "log_series": (("a", "theta"), LogSeriesGenerator),
    "arctan": (("a",), ArctanGenerator),
    "mo15": (("xi",), Mo15Generator),
    "polynomial": (("coeffs",), PolynomialGenerator),
    "sine": (("theta",), SineGenerator),
}

# kind -> (its parameter, the parameter's domain, the generator from (parameter, ratio))
MIXING_LAWS = {
    "gamma": ("a", POSITIVE, lambda a, ratio: LogPowerGenerator(ratio, a)),
    "positive_stable": ("a", _UNIT, lambda a, ratio: StretchedExpGenerator(ratio, a)),
    "sibuya": ("a", _UNIT, SibuyaMixingGenerator),
    "log_series": ("theta", Interval(-1.0, 0.0), lambda theta, ratio: LogSeriesGenerator(ratio, theta)),
}


@dataclass(frozen=True)
class MixingLaw:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        name, domain, _ = _entry(MIXING_LAWS, self.kind, "mixing law")
        (value,) = _fields(self.params, (name,), f"{self.kind} mixing params")
        object.__setattr__(self, "params", {name: _admit(f"{self.kind} mixing", name, value, domain)})


def generator_from_mixing(law: MixingLaw, ratio: float) -> Generator:
    """Generator h(z) = M_Z(ratio * ln z) for a positive mixing factor Z; law and ratio are its config."""
    ratio = _admit("mixing", "ratio", ratio, POSITIVE)
    name, _, build = MIXING_LAWS[law.kind]
    g = build(law.params[name], ratio)
    g.config = {"family": "mixing", "law": {"kind": law.kind, "params": dict(law.params)}, "ratio": ratio}
    return g


def make_generator(family: str, /, **params) -> Generator:
    """The generator a config document names, which keeps the document as its config."""
    if isinstance(family, str) and family == "mixing":
        law, ratio = _fields(params, ("law", "ratio"), "mixing generator")
        if not isinstance(law, MixingLaw):
            (kind,) = _fields(law, ("kind",), "mixing law", ("params",))
            law = MixingLaw(kind, law.get("params", {}))
        return generator_from_mixing(law, ratio)
    names, build = _entry(FAMILIES, family, "generator family")
    g = build(*_fields(params, names, f"{family} params"))
    # the builder admitted every value, so each converts: a float, or the list of coeffs
    g.config = {"family": family, "params": {k: np.asarray(v, dtype=float).tolist() for k, v in params.items()}}
    return g


def power_scaled(g: Generator, beta: float) -> Generator:
    return PowerScaledGenerator(g, beta)


# ---------------------------------------------------------------------------
# time distortions and pseudo-product
# ---------------------------------------------------------------------------


def _check_age(t) -> float:
    """The one age check: a real number (ValidationError) that is 0 <= t <= the largest double (DomainError)."""
    if not _is_real(t):
        raise ValidationError(f"t must be a real number, not {t!r}")
    if not 0 <= t <= sys.float_info.max:  # NaN fails, and so does an int past the largest double
        raise DomainError("t must be a finite nonnegative number")
    return float(t)


def _residual_log_inverse_from_log(g: Generator, t: float, lu):
    """ln h_t^-1(e^lu) for lu <= 0: exactly 0 at lu = 0 and never above it; under the caller's error state."""
    return np.where(lu == 0.0, 0.0, np.minimum(g._residual_log_inverse(t, lu), 0.0))


def time_distortion(g: Generator, t: float, x):
    """d_t(x) = h(e^-t h^-1(x)) / h(e^-t) = h_t(h^-1(x))."""
    x = _in_unit(x, "x")
    t = _check_age(t)
    with np.errstate(all="ignore"):
        return _time_distortion(g, t, x)


def _time_distortion(g: Generator, t: float, x):
    """d_t(x) for a float array x in [0, 1], unchecked, under the caller's error state."""
    return _unit_edges(x, np.exp(g._residual_log(t, np.minimum(g._h_log_inv_from_log(_log_arg(x)), 0.0))))


def residual_distortion(g: Generator, t: float, x):
    """h_t(x) = h(e^-t x) / h(e^-t)."""
    x = _in_unit(x, "x")
    t = _check_age(t)
    with np.errstate(all="ignore"):
        out = np.exp(g._residual_log(t, _log_arg(x)))
    return _unit_edges(x, out)


def residual_distortion_inverse(g: Generator, t: float, u):
    """h_t^-1(u) = e^t h^-1(u h(e^-t))."""
    u = _in_unit(u, "u")
    t = _check_age(t)
    with np.errstate(all="ignore"):
        return _unit_edges(u, np.exp(_residual_log_inverse_from_log(g, t, _log_arg(u))))


def residual_distortion_log_inverse(g: Generator, t: float, u):
    """ln h_t^-1(u) for u in (0, 1], accurate where h_t^-1(u) is within rounding of 1."""
    u = in_unit(u, "u", _SLACK, open_at_0=True)
    t = _check_age(t)
    with np.errstate(all="ignore"):
        return scalar_or_array(_residual_log_inverse_from_log(g, t, _log_arg(u)))


def residual_distortion_log(g: Generator, t: float, lw):
    """ln h_t(e^lw) for lw <= 0, finite where h(e^-t) underflows."""
    t = _check_age(t)
    with np.errstate(all="ignore"):
        return scalar_or_array(g._residual_log(t, _log_argument(lw, "lw")))


def residual_distortion_prime(g: Generator, t: float, x):
    """h_t'(x) = h_t(x) el(ln x - t) / x for x in (0, 1], el the elasticity x h'(x) / h(x)."""
    x = in_unit(x, "x", _SLACK, open_at_0=True)
    t = _check_age(t)
    with np.errstate(all="ignore"):
        lx = _log_arg(x)
        return scalar_or_array(np.exp(g._residual_log(t, lx) - lx) * g._h_elasticity(lx - t))


def pseudo_product(g: Generator, a, b):
    """a (x)_h b = h(h^-1(a) h^-1(b)), added as logs."""
    a = _in_unit(a, "pseudo-product argument")
    b = _in_unit(b, "pseudo-product argument")
    with np.errstate(all="ignore"):
        out = np.exp(g._h_log_from_log(g._h_log_inv_from_log(_log_arg(a)) + g._h_log_inv_from_log(_log_arg(b))))
    return copula_edges(a, b, out)


# ---------------------------------------------------------------------------
# aging and multiplicativity classification
# ---------------------------------------------------------------------------

T_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)  # no 0: d_0 is the identity and carries no sign information
X_GRID = tuple(np.linspace(0.05, 0.95, 19))
_SIGN_TOL = 1e-12
_STRICT_FRACTION = 0.95


@dataclass(frozen=True)
class AgingProfile:
    nbu_nwu: str  # "NBU" | "NWU" | "memoryless" | "neither"
    ifr_dfr: str  # "IFR" | "DFR" | "memoryless" | "neither"
    margins: np.ndarray  # ln d_t(x) - ln x over T_GRID x X_GRID

    @property
    def multiplicativity(self) -> str:
        """'sub' | 'super' | 'neither', from the margin ln h(e^-t y) - ln h(e^-t) - ln h(y), y = h^-1(x)."""
        return {"NBU": "sub", "NWU": "super"}.get(self.nbu_nwu, "neither")


def _classify(neg: np.ndarray, pos: np.ndarray, labels=("NBU", "NWU")):
    n = neg.size
    if not neg.any() and not pos.any():
        return "memoryless"
    if neg.sum() >= _STRICT_FRACTION * n and not pos.any():
        return labels[0]
    if pos.sum() >= _STRICT_FRACTION * n and not neg.any():
        return labels[1]
    return "neither"


def aging_profile(g: Generator) -> AgingProfile:
    """Classify the aging class induced by d_t: NBU <=> d_t(x) <= x; IFR <=> d_t(x) nonincreasing in t."""
    xs = np.asarray(X_GRID)
    with np.errstate(all="ignore"):
        lv = np.minimum(g._h_log_inv_from_log(_log_arg(xs)), 0.0)
        log_d = np.array([g._residual_log(t, lv) for t in T_GRID])  # ln d_t(x) = ln h_t(h^-1(x))
    margins = log_d - np.log(xs)[None, :]
    nbu = _classify(margins < -_SIGN_TOL, margins > _SIGN_TOL, ("NBU", "NWU"))
    diffs = np.diff(log_d, axis=0)  # log d_{t_{k+1}} - log d_{t_k}; IFR means nonpositive
    ifr = _classify(diffs < -_SIGN_TOL, diffs > _SIGN_TOL, ("IFR", "DFR"))
    return AgingProfile(nbu_nwu=nbu, ifr_dfr=ifr, margins=margins)


def multiplicativity_check(g: Generator) -> dict:
    """Sub/super-multiplicativity read off the aging margin, plus the sufficient condition.

    d_t(x) <= x is h(e^-t y) <= h(e^-t) h(y) with y = h^-1(x), so NBU is sub and
    NWU super; a memoryless generator is neither.  The sufficient condition (sign
    of h'', h''' and, for super, h(x) >= x^2) needs second/third-derivative capability.
    """
    empirical = aging_profile(g).multiplicativity
    met = False
    if empirical != "neither" and hasattr(g, "_h_pp"):
        grid = np.linspace(0.01, 0.99, 101)
        hpp = np.asarray(g._h_pp(grid))
        hppp = np.asarray(g._h_ppp(grid))
        if empirical == "sub":
            met = bool(np.all(hpp <= _SIGN_TOL) and np.all(hppp <= _SIGN_TOL))
        else:
            hv = np.asarray(g.h(grid))
            met = bool(
                np.all(hpp >= -_SIGN_TOL)
                and np.all(hppp >= -_SIGN_TOL)
                and np.all(hv >= grid**2 - _SIGN_TOL)
            )
    return {"empirical": empirical, "sufficient_condition_met": met}

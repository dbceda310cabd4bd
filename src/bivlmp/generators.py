"""Distortion generators.

A generator is a strictly increasing bijection h of [0,1].  It induces the
pseudo-product a (x) b = h(h^-1(a) h^-1(b)) and the time distortions

    d_t(x) = h(e^-t h^-1(x)) / h(e^-t)      (residual-vector distortion)
    h_t(x) = h(e^-t x) / h(e^-t)            (distortion of the undistorted core)

Every family states two functions of a log argument, ln h(e^lw) and
ln h^-1(e^lw) for lw <= 0, and everything else derives from them.  An age t
enters only as the shift lw - t: no formula forms e^-t x, which underflows
(and drags h(e^-t x) and h(e^-t) to 0 with it) long before their ratio does.

The catalog below covers the closed-form families plus generators built from a
moment generating function (mixing construction) or from an arbitrary
univariate survival function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError, ValidationError
from .numerics import copula_edges, in_unit, scalar_or_array, solve_decreasing_batch

_SLACK = 1e-12  # rounding allowed outside [0, 1] in a generator's argument
_DEEP = -700.0  # below this log, e^lw is too close to underflow for a closed form in e^lw


def _in_unit(x, what="argument"):
    return in_unit(x, what, _SLACK)


def _unit_edges(x, out):
    """out with the exact values 0 at x <= 0 and 1 at x >= 1."""
    return scalar_or_array(np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, out)))


def _log_arg(x):
    """ln x for x in [0, 1] (0 gives -inf), clamped to <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.minimum(np.log(x), 0.0)


def _log1mexp(x):
    """ln(1 - e^x) for x <= 0, without cancellation at either end."""
    return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _quiet(fn, *args):
    """fn(*args) with floating-point warnings off, under the return convention."""
    with np.errstate(all="ignore"):
        return scalar_or_array(fn(*args))


def _solved_log_inverse(fn, lw, targets):
    """-z for the z >= 0 with fn(z) = target, fn nonincreasing; -inf where lw = -inf.

    The inverse of a family without a closed one: ln h^-1(e^lw) = -z.
    """
    lw = np.asarray(lw, dtype=float)
    out = np.where(lw == -np.inf, -np.inf, np.nan)
    finite = np.isfinite(lw)
    out[finite] = -solve_decreasing_batch(fn, np.broadcast_to(targets, lw.shape)[finite])
    return out


class Generator:
    """Base class.

    A family defines ``_h_log_from_log(lw) = ln h(e^lw)`` and
    ``_h_log_inv_from_log(lw) = ln h^-1(e^lw)`` for lw <= 0, each finite
    wherever its value is, and ``_h_elasticity(lx) = x h'(x) / h(x)`` at
    x = e^lx where h has a derivative.  The public methods derive from these.
    """

    family = "base"
    has_closed_inverse = True
    has_prime = True
    has_second_third = False
    # asymptotics: ("power", scale, exponent) | ("exponential", scale, exponent) | ("other",)
    zero_behavior = ("other",)
    one_behavior = ("other",)
    # the age past which the residual copula C_t equals its limit to double precision
    _copula_age_cap = math.inf

    def __init__(self):
        self.params: dict = {}

    # the log-domain formulas of a family ------------------------------------
    def _h_log_from_log(self, lw):
        raise NotImplementedError

    def _h_log_inv_from_log(self, lw):
        raise NotImplementedError

    def _h_elasticity(self, lx):
        """x h'(x) / h(x) at x = e^lx, from lx so that neither x nor h(x) has to be representable."""
        raise CapabilityError(f"{self.family}: derivative capability missing")

    def _residual_log_inverse(self, t, lu):
        """ln h_t^-1(e^lu) = t + ln h^-1(w) with ln w = lu + ln h(e^-t), for lu <= 0."""
        return t + self._h_log_inv_from_log(lu + self._h_log_from_log(-t))

    def _residual_log(self, t, lw):
        """ln h_t(e^lw) = ln h(e^{lw - t}) - ln h(e^-t); families with a closed form override this."""
        return self._h_log_from_log(lw - t) - self._h_log_from_log(-t)

    # public, endpoint-safe surface ------------------------------------------
    def h(self, x):
        x = _in_unit(x)
        return _unit_edges(x, _quiet(lambda lx: np.exp(self._h_log_from_log(lx)), _log_arg(x)))

    def h_inverse(self, u):
        u = _in_unit(u)
        return _unit_edges(u, _quiet(lambda lu: np.exp(self._h_log_inv_from_log(lu)), _log_arg(u)))

    def h_prime(self, x):
        """h'(x) for x in (0, 1]."""
        return residual_distortion_prime(self, 0.0, x)

    def h_log(self, x):
        return _quiet(self._h_log_from_log, _log_arg(x))

    def h_log_prime(self, x):
        return _quiet(lambda v: self._h_elasticity(_log_arg(v)) / v, np.asarray(x, dtype=float))

    def h_elasticity_from_log(self, lx):
        """x h'(x) / h(x) at x = e^lx, lx <= 0: the slope of ln h against ln x."""
        return _quiet(self._h_elasticity, np.minimum(np.asarray(lx, dtype=float), 0.0))

    def h_inverse_from_log(self, lw):
        out = _quiet(lambda v: np.exp(self._h_log_inv_from_log(v)), np.minimum(lw, 0.0))
        return scalar_or_array(np.clip(out, 0.0, 1.0))

    def h_from_log(self, lw):
        """h(e^lw), with lw clamped to <= 0."""
        return _quiet(lambda v: np.exp(self._h_log_from_log(v)), np.minimum(lw, 0.0))

    def h_log_from_log(self, lw):
        """ln h(e^lw), with lw clamped to <= 0; finite where h(e^lw) underflows."""
        return _quiet(self._h_log_from_log, np.minimum(lw, 0.0))

    def neg_log_h_inverse(self, u):
        """-ln h^-1(u), finite where h^-1(u) underflows."""
        return _quiet(lambda lu: -self._h_log_inv_from_log(lu), _log_arg(_in_unit(u)))

    def describe(self):
        return {"family": self.family, "params": dict(self.params)}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


class IdentityGenerator(Generator):
    family = "identity"
    zero_behavior = ("power", 1.0, 1.0)
    one_behavior = ("power", 1.0, 1.0)

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
    _keys = ("a", "alpha")

    def __init__(self, rate, shape):
        super().__init__()
        if rate <= 0 or shape <= 0:
            raise ValidationError("stretched-exponential generator needs rate > 0 and shape > 0")
        self.rate = float(rate)
        self.shape = float(shape)
        self.params = {self._keys[0]: self.rate, self._keys[1]: self.shape}
        self.zero_behavior = ("power", 1.0, rate) if abs(shape - 1.0) < 1e-14 else ("other",)
        self.one_behavior = ("power", rate**shape, shape)

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

    def __init__(self, xi, mu):
        super().__init__()
        if xi <= 0 or mu <= 0:
            raise ValidationError("gompertz generator needs xi > 0 and mu > 0")
        self.xi = float(xi)
        self.mu = float(mu)
        self.params = {"xi": self.xi, "mu": self.mu}
        self.zero_behavior = ("exponential", self.xi, self.mu)
        self.one_behavior = ("power", self.xi * self.mu, 1.0)
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
        self.params = {"xi": self.xi}


class LogPowerGenerator(Generator):
    """h(x) = (1 - coef * ln x)^-expo.

    Pareto survival gives coef=a, expo=1/mu; the gamma mixing law gives
    coef=ratio, expo=a.
    """

    family = "pareto"
    _keys = ("a", "mu")

    def __init__(self, coef, expo):
        super().__init__()
        if coef <= 0 or expo <= 0:
            raise ValidationError("log-power generator needs positive parameters")
        self.coef = float(coef)
        self.expo = float(expo)
        self.params = {self._keys[0]: coef, self._keys[1]: expo}
        self.one_behavior = ("power", self.coef * self.expo, 1.0)

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

    def __init__(self, a, theta):
        super().__init__()
        if a <= 0 or theta <= 0:
            raise ValidationError("logistic generator needs a > 0 and theta > 0")
        self.a = float(a)
        self.theta = float(theta)
        self.params = {"a": self.a, "theta": self.theta}
        self.zero_behavior = ("power", 1.0 / self.theta, self.a)
        self.one_behavior = ("power", self.a * self.theta, 1.0)

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

    def __init__(self, a, theta):
        super().__init__()
        if a <= 0:
            raise ValidationError("log-series generator needs a > 0")
        if theta <= -1.0 or theta == 0.0:
            raise ValidationError("log-series generator needs theta in (-1, 0) or theta > 0")
        self.a = float(a)
        self.theta = float(theta)
        self.params = {"a": self.a, "theta": self.theta}
        self.zero_behavior = ("power", self.theta / math.log1p(self.theta), self.a)
        self.one_behavior = ("power", self.a * self.theta / ((1.0 + self.theta) * math.log1p(self.theta)), 1.0)

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

    def __init__(self, a):
        super().__init__()
        if a <= 0:
            raise ValidationError("arctan generator needs a > 0")
        self.a = float(a)
        self.params = {"a": self.a}
        self.zero_behavior = ("power", 4.0 / math.pi, self.a)
        self.one_behavior = ("power", 2.0 * self.a / math.pi, 1.0)

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
    """h(x) = 1 - (1 - x^r)^a from the Sibuya mixing law."""

    family = "mixing"
    _NEAR_0 = -40.0  # below this ln x^r, h = a x^r and h^-1(u) = (u/a)^(1/r) to double precision

    def __init__(self, a, ratio):
        super().__init__()
        if not (0.0 < a <= 1.0):
            raise ValidationError("sibuya mixing needs a in (0, 1]")
        if ratio <= 0:
            raise ValidationError("mixing ratio must be positive")
        self.a = float(a)
        self.ratio = float(ratio)
        self.params = {"a": self.a, "ratio": self.ratio}
        self.zero_behavior = ("power", self.a, self.ratio)
        self.one_behavior = ("power", self.ratio**self.a, self.a)

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


class PolynomialGenerator(Generator):
    """h(x) = sum c_k x^k with nonnegative coefficients summing to 1."""

    family = "polynomial"
    has_closed_inverse = False
    has_second_third = True

    def __init__(self, coeffs):
        super().__init__()
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValidationError("polynomial generator needs at least two coefficients")
        if abs(c.sum() - 1.0) > 1e-12:
            raise ValidationError("polynomial generator coefficients must sum to 1 (h(1)=1)")
        if abs(c[0]) > 1e-12:
            raise ValidationError("polynomial generator needs zero constant term (h(0)=0)")
        self.coeffs = c
        self.params = {"coeffs": [float(v) for v in c]}
        grid = np.linspace(0.0, 1.0, 512)
        vals = np.polyval(c[::-1], grid)
        if np.any(np.diff(vals) <= 0):
            raise ValidationError("polynomial generator is not strictly increasing on [0, 1]")
        k0 = int(np.nonzero(np.abs(c) > 1e-12)[0][0])
        self.zero_behavior = ("power", float(c[k0]), float(k0))
        self.one_behavior = ("power", float(np.polyval(np.polyder(np.poly1d(c[::-1])).coeffs, 1.0)), 1.0)
        # h(x) = x^k0 p(x) with p(0) = c_k0 > 0, and x h'(x) = x^k0 q(x)
        self._k0 = k0
        self._p = c[k0:][::-1]
        self._q = (np.arange(k0, c.size) * c[k0:])[::-1]

    def _h_log_from_log(self, lw):
        return self._k0 * lw + np.log(np.polyval(self._p, np.exp(lw)))

    def _h_log_inv_from_log(self, lw):
        # ln h(e^-z) decreases on [0, inf); solving for z = -ln x keeps digits near x = 1
        return _solved_log_inverse(lambda z: self._h_log_from_log(-z), lw, lw)

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
    has_second_third = True

    def __init__(self, theta):
        super().__init__()
        if not (0.0 < theta < math.pi / 2.0):
            raise ValidationError("sine generator needs theta in (0, pi/2)")
        self.theta = float(theta)
        self.params = {"theta": self.theta}
        self.zero_behavior = ("power", self.theta / math.sin(self.theta), 1.0)
        self.one_behavior = ("power", self.theta * math.cos(self.theta) / math.sin(self.theta), 1.0)

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


class SurvivalGenerator(Generator):
    """h(x) = survival(-ln x) for a user-supplied survival function."""

    family = "from_survival"
    has_closed_inverse = False

    def __init__(self, survival, density=None, z_max: float = 1e4):
        super().__init__()
        if abs(survival(0.0) - 1.0) > 1e-9:
            raise ValidationError("survival function must satisfy survival(0) = 1")
        grid = np.geomspace(1e-6, z_max, 64)
        vals = np.array([survival(z) for z in grid])
        if np.any(np.diff(vals) > 1e-12):
            raise ValidationError("survival function is not decreasing on the test grid")
        self.survival = np.vectorize(survival, otypes=[float])
        self.density = density
        self.has_prime = density is not None
        self.params = {"kind": "from_survival"}

    def _h_log_from_log(self, lw):
        return np.log(self.survival(-lw))

    def _h_log_inv_from_log(self, lw):
        # survival(z) = u, solved where the user's function lives: on u itself
        return _solved_log_inverse(self.survival, lw, np.exp(lw))

    def _h_elasticity(self, lx):
        # x h'(x) / h(x) = density(z) / survival(z) at z = -ln x
        if self.density is None:
            return super()._h_elasticity(lx)
        return np.vectorize(self.density, otypes=[float])(-lx) / self.survival(-lx)


class PowerScaledGenerator(Generator):
    """h_beta(x) = h(x^beta); same pseudo-product as h for every beta > 0."""

    family = "power_scaled"

    def __init__(self, base: Generator, beta: float):
        super().__init__()
        if beta <= 0:
            raise ValidationError("beta must be positive")
        self.base = base
        self.beta = float(beta)
        self.has_closed_inverse = base.has_closed_inverse
        self.has_prime = base.has_prime
        self.params = {"beta": self.beta, "base": base.family}
        zb = base.zero_behavior
        if zb[0] != "other":
            self.zero_behavior = (zb[0], zb[1], zb[2] * self.beta)
        self._copula_age_cap = base._copula_age_cap / self.beta  # h_beta at age t is h at age beta t

    def _h_log_from_log(self, lw):
        return self.base._h_log_from_log(self.beta * lw)

    def _h_log_inv_from_log(self, lw):
        return self.base._h_log_inv_from_log(lw) / self.beta

    def _h_elasticity(self, lx):
        return self.beta * self.base._h_elasticity(self.beta * lx)


# ---------------------------------------------------------------------------
# mixing construction
# ---------------------------------------------------------------------------

# kind -> (parameter, its admissible range, the message when it is outside)
_MIXING_RANGES = {
    "gamma": ("a", lambda a: a > 0.0, "gamma mixing needs a > 0"),
    "positive_stable": ("a", lambda a: 0.0 < a <= 1.0, "positive-stable mixing needs a in (0, 1]"),
    "sibuya": ("a", lambda a: 0.0 < a <= 1.0, "sibuya mixing needs a in (0, 1]"),
    "log_series": ("theta", lambda th: -1.0 < th < 0.0, "log-series mixing needs theta in (-1, 0)"),
}


@dataclass(frozen=True)
class MixingLaw:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _MIXING_RANGES:
            raise ValidationError(f"unknown mixing law {self.kind!r}")
        name, admissible, message = _MIXING_RANGES[self.kind]
        if not admissible(self.params.get(name, 0.0)):
            raise ValidationError(message)


def generator_from_mixing(law: MixingLaw, ratio: float) -> Generator:
    """Generator h(z) = M_Z(ratio * ln z) for a positive mixing factor Z."""
    if ratio <= 0:
        raise ValidationError("mixing ratio must be positive")
    if law.kind == "gamma":
        g = LogPowerGenerator(coef=ratio, expo=law.params["a"])
    elif law.kind == "positive_stable":
        g = StretchedExpGenerator(rate=ratio, shape=law.params["a"])
    elif law.kind == "sibuya":
        g = SibuyaMixingGenerator(a=law.params["a"], ratio=ratio)
    else:
        g = LogSeriesGenerator(a=ratio, theta=law.params["theta"])
    g.family = "mixing"
    g.params = {"law": {"kind": law.kind, "params": dict(law.params)}, "ratio": float(ratio)}
    return g


def generator_from_survival(survival, density=None) -> Generator:
    return SurvivalGenerator(survival, density=density)


_FAMILIES = {
    "identity": lambda params: IdentityGenerator(),
    "weibull": lambda params: StretchedExpGenerator(rate=params["a"], shape=params["alpha"]),
    "gompertz": lambda params: GompertzGenerator(xi=params["xi"], mu=params["mu"]),
    "pareto": lambda params: LogPowerGenerator(coef=params["a"], expo=1.0 / params["mu"]),
    "logistic": lambda params: LogisticGenerator(a=params["a"], theta=params["theta"]),
    "log_series": lambda params: LogSeriesGenerator(a=params["a"], theta=params["theta"]),
    "arctan": lambda params: ArctanGenerator(a=params["a"]),
    "mo15": lambda params: Mo15Generator(xi=params["xi"]),
    "polynomial": lambda params: PolynomialGenerator(coeffs=params["coeffs"]),
    "sine": lambda params: SineGenerator(theta=params["theta"]),
}


def make_generator(family: str, **params) -> Generator:
    if family == "mixing":
        law = params["law"]
        if isinstance(law, dict):
            law = MixingLaw(kind=law["kind"], params=dict(law["params"]))
        return generator_from_mixing(law, params["ratio"])
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValidationError(f"unknown generator family {family!r}") from None
    g = builder(params)
    if family == "pareto":  # the user-facing parameters, not (coef, expo) = (a, 1/mu)
        g.params = {"a": float(params["a"]), "mu": float(params["mu"])}
    return g


def power_scaled(g: Generator, beta: float) -> Generator:
    return PowerScaledGenerator(g, beta)


# ---------------------------------------------------------------------------
# time distortions and pseudo-product
# ---------------------------------------------------------------------------


def _check_age(t) -> float:
    """The one age check: t >= 0, which NaN fails."""
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    return float(t)


def _residual_log_inverse_from_log(g: Generator, t: float, lu):
    """ln h_t^-1(e^lu) for lu <= 0: exactly 0 at lu = 0 and never above it."""
    with np.errstate(all="ignore"):
        return np.where(lu == 0.0, 0.0, np.minimum(g._residual_log_inverse(t, lu), 0.0))


def time_distortion(g: Generator, t: float, x):
    """d_t(x) = h(e^-t h^-1(x)) / h(e^-t) = h_t(h^-1(x))."""
    x = _in_unit(x, "x")
    t = _check_age(t)
    with np.errstate(all="ignore"):
        out = np.exp(g._residual_log(t, np.minimum(g._h_log_inv_from_log(_log_arg(x)), 0.0)))
    return _unit_edges(x, out)


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
    return _unit_edges(u, np.exp(_residual_log_inverse_from_log(g, _check_age(t), _log_arg(u))))


def residual_distortion_log_inverse(g: Generator, t: float, u):
    """ln h_t^-1(u) for u in (0, 1], accurate where h_t^-1(u) is within rounding of 1."""
    u = in_unit(u, "u", _SLACK, open_at_0=True)
    return scalar_or_array(_residual_log_inverse_from_log(g, _check_age(t), _log_arg(u)))


def residual_distortion_log(g: Generator, t: float, lw):
    """ln h_t(e^lw) for lw <= 0, finite where h(e^-t) underflows."""
    t = _check_age(t)
    with np.errstate(all="ignore"):
        return scalar_or_array(g._residual_log(t, np.minimum(lw, 0.0)))


def residual_distortion_prime(g: Generator, t: float, x):
    """h_t'(x) = h_t(x) el(ln x - t) / x for x in (0, 1], el the elasticity x h'(x) / h(x)."""
    lx = _log_arg(in_unit(x, "x", _SLACK, open_at_0=True))
    t = _check_age(t)
    with np.errstate(all="ignore"):
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

DEFAULT_T_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_X_GRID = tuple(np.linspace(0.05, 0.95, 19))
_SIGN_TOL = 1e-12
_STRICT_FRACTION = 0.95


@dataclass(frozen=True)
class AgingProfile:
    nbu_nwu: str  # "NBU" | "NWU" | "memoryless" | "neither"
    ifr_dfr: str  # "IFR" | "DFR" | "memoryless" | "neither"
    t_grid: tuple
    x_grid: tuple
    margins: np.ndarray  # log d_t(x) - log x over the grid


def _classify(neg: np.ndarray, pos: np.ndarray, labels=("NBU", "NWU")):
    n = neg.size
    if not neg.any() and not pos.any():
        return "memoryless"
    if neg.sum() >= _STRICT_FRACTION * n and not pos.any():
        return labels[0]
    if pos.sum() >= _STRICT_FRACTION * n and not neg.any():
        return labels[1]
    return "neither"


def aging_profile(g: Generator, t_grid=DEFAULT_T_GRID, x_grid=DEFAULT_X_GRID) -> AgingProfile:
    """Classify the aging class induced by d_t.

    NBU <=> d_t(x) <= x; IFR <=> d_t(x) nonincreasing in t.  The t grid
    excludes 0 because d_0 is the identity and carries no sign information.
    """
    t_grid = tuple(sorted(float(t) for t in t_grid if t > 0.0))
    x_grid = tuple(float(x) for x in x_grid)
    xs = np.asarray(x_grid)
    lv = -np.asarray(g.neg_log_h_inverse(xs))
    log_d = np.array([residual_distortion_log(g, t, lv) for t in t_grid])  # ln d_t(x) = ln h_t(h^-1(x))
    margins = log_d - np.log(xs)[None, :]
    nbu = _classify(margins < -_SIGN_TOL, margins > _SIGN_TOL, ("NBU", "NWU"))
    diffs = np.diff(log_d, axis=0)  # log d_{t_{k+1}} - log d_{t_k}; IFR means nonpositive
    ifr = _classify(diffs < -_SIGN_TOL, diffs > _SIGN_TOL, ("IFR", "DFR"))
    return AgingProfile(nbu_nwu=nbu, ifr_dfr=ifr, t_grid=t_grid, x_grid=x_grid, margins=margins)


def multiplicativity_check(g: Generator, n_grid: int = 25) -> dict:
    """Empirical sub/super-multiplicativity verdict plus the sufficient condition.

    The sufficient condition (sign of h'', h''' and, for super, h(x) >= x^2)
    needs second/third-derivative capability.
    """
    xs = np.linspace(0.02, 0.98, n_grid)
    X, Y = np.meshgrid(xs, xs)
    diff = np.asarray(g.h(X * Y)) - np.asarray(g.h(X)) * np.asarray(g.h(Y))
    neg = diff < -_SIGN_TOL
    pos = diff > _SIGN_TOL
    if neg.any() and not pos.any():
        empirical = "sub"
    elif pos.any() and not neg.any():
        empirical = "super"
    else:
        empirical = "neither"
    met = False
    if empirical != "neither" and g.has_second_third:
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

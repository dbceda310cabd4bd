"""Distortion generators.

A generator is a strictly increasing bijection h of [0,1].  It induces the
pseudo-product a (x) b = h(h^-1(a) h^-1(b)) and the time distortions

    d_t(x) = h(e^-t h^-1(x)) / h(e^-t)      (residual-vector distortion)
    h_t(x) = h(e^-t x) / h(e^-t)            (distortion of the undistorted core)

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

_EPS = 1e-300
_SLACK = 1e-12  # rounding allowed outside [0, 1] in a generator's argument


def _as_interior(x):
    """Clip to the open interval so family formulas never see exact 0/1."""
    return np.clip(np.asarray(x, dtype=float), _EPS, 1.0 - 1e-16)


def _in_unit(x, what="argument"):
    return in_unit(x, what, _SLACK)


def _unit_edges(x, out):
    """out with the exact values 0 at x <= 0 and 1 at x >= 1."""
    return scalar_or_array(np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, out)))


def _log1mexp(x):
    """ln(1 - e^x) for x <= 0, without cancellation at either end."""
    return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _quiet(fn, *args):
    """fn(*args) with floating-point warnings off, under the return convention."""
    with np.errstate(all="ignore"):
        return scalar_or_array(fn(*args))


class Generator:
    """Base class; subclasses provide the interior formulas."""

    family = "base"
    has_closed_inverse = True
    has_prime = True
    has_second_third = False
    # asymptotics: ("power", scale, exponent) | ("exponential", scale, exponent) | ("other",)
    zero_behavior = ("other",)
    one_behavior = ("other",)

    def __init__(self):
        self.params: dict = {}

    # interior-only formulas -------------------------------------------------
    def _h(self, x):
        raise NotImplementedError

    def _h_inv(self, u):
        raise NotImplementedError

    def _h_elasticity(self, lx):
        """x h'(x) / h(x) at x = e^lx, from lx so that neither x nor h(x) has to be representable."""
        raise CapabilityError(f"{self.family}: derivative not available")

    def _h_prime(self, x):
        return self._h(x) * self._h_elasticity(np.log(x)) / x

    def _h_log(self, x):
        return np.log(self._h(x))

    def _h_inv_from_log(self, lw):
        return np.exp(self._h_log_inv_from_log(lw))

    def _h_from_log(self, lw):
        """h(e^lw) for lw <= 0; families override it where e^lw underflowing loses real mass."""
        return self.h(np.exp(lw))

    def _h_log_from_log(self, lw):
        return np.log(self._h_from_log(lw))

    def _h_log_inv_from_log(self, lw):
        """ln h^-1(e^lw); families override it where h^-1 underflows."""
        return np.log(self._h_inv(np.exp(lw)))

    def _residual_log_inverse(self, t, u):
        """ln h_t^-1(u) = t + ln h^-1(w) with ln w = ln u + ln h(e^-t), for u in (0, 1]."""
        return t + self._h_log_inv_from_log(np.log(u) + self.h_log_from_log(-t))

    def _residual_log(self, t, lw):
        """ln h_t(e^lw) = ln h(e^{lw - t}) - ln h(e^-t); families with a closed form override this."""
        return self.h_log_from_log(lw - t) - self.h_log_from_log(-t)

    def _h_pp(self, x):
        raise CapabilityError(f"{self.family}: second derivative not available")

    def _h_ppp(self, x):
        raise CapabilityError(f"{self.family}: third derivative not available")

    # public, endpoint-safe surface ------------------------------------------
    def h(self, x):
        x = _in_unit(x)
        return _unit_edges(x, _quiet(self._h, _as_interior(x)))

    def h_inverse(self, u):
        u = _in_unit(u)
        return _unit_edges(u, _quiet(self._h_inv, _as_interior(u)))

    def h_prime(self, x):
        self._need_prime()
        return _quiet(self._h_prime, _as_interior(_in_unit(x)))

    def h_log(self, x):
        return _quiet(self._h_log, _as_interior(x))

    def h_log_prime(self, x):
        self._need_prime()
        return _quiet(lambda v: self._h_elasticity(np.log(v)) / v, _as_interior(x))

    def h_elasticity_from_log(self, lx):
        """x h'(x) / h(x) at x = e^lx, lx <= 0: the slope of ln h against ln x."""
        self._need_prime()
        return _quiet(self._h_elasticity, np.minimum(np.asarray(lx, dtype=float), 0.0))

    def h_inverse_from_log(self, lw):
        out = _quiet(self._h_inv_from_log, np.asarray(lw, dtype=float))
        return scalar_or_array(np.clip(out, 0.0, 1.0))

    def h_from_log(self, lw):
        """h(e^lw), with lw clamped to <= 0."""
        return scalar_or_array(self._h_from_log(np.minimum(lw, 0.0)))

    def h_log_from_log(self, lw):
        """ln h(e^lw), with lw clamped to <= 0; families with a log form keep it finite where h underflows."""
        return scalar_or_array(self._h_log_from_log(np.minimum(lw, 0.0)))

    def _need_prime(self):
        if not self.has_prime:
            raise CapabilityError(f"{self.family}: derivative capability missing")

    def neg_log_h_inverse(self, u):
        """-ln h^-1(u), stable when h^-1(u) underflows double precision.

        Falls back on the zero-behavior expansion (h(x) ~ c x^e or
        h(x) ~ exp(-c (x^-e - 1)) as x -> 0) for arguments whose inverse
        cannot be represented; generators without a tagged expansion saturate
        at the representable floor.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(self.h_inverse(u))
        out = -np.log(np.maximum(v, 1e-300))
        bad = v < 1e-280
        if np.any(bad):
            ub = np.maximum(u[bad] if u.ndim else u, 1e-300)
            zb = self.zero_behavior
            if zb[0] == "power":
                repl = (math.log(zb[1]) - np.log(ub)) / zb[2]
            elif zb[0] == "exponential":
                repl = np.log1p(-np.log(ub) / zb[1]) / zb[2]
            else:
                repl = None
            if repl is not None:
                if out.ndim:
                    out[bad] = repl
                else:
                    out = repl
        return scalar_or_array(out)

    def describe(self):
        return {"family": self.family, "params": dict(self.params)}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({args})"


class IdentityGenerator(Generator):
    family = "identity"
    has_second_third = True
    zero_behavior = ("power", 1.0, 1.0)
    one_behavior = ("power", 1.0, 1.0)

    def _h(self, x):
        return x

    def _h_inv(self, u):
        return u

    def _h_elasticity(self, lx):
        return np.ones_like(lx)

    def _h_log(self, x):
        return np.log(x)

    def _h_pp(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def _h_ppp(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


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
        if abs(shape - 1.0) < 1e-14:
            self.zero_behavior = ("power", 1.0, rate)
        else:
            self.zero_behavior = ("other",)
        self.one_behavior = ("power", rate**shape, shape)

    def _h(self, x):
        return np.exp(-((self.rate * (-np.log(x))) ** self.shape))

    def _h_log(self, x):
        return -((self.rate * (-np.log(x))) ** self.shape)

    def _h_inv(self, u):
        return np.exp(-((-np.log(u)) ** (1.0 / self.shape)) / self.rate)

    def _h_log_inv_from_log(self, lw):
        return -((-lw) ** (1.0 / self.shape)) / self.rate

    def _h_elasticity(self, lx):
        # np.power, not **: a scalar's ** can round apart from the array loop
        return self.shape * self.rate * np.power(self.rate * -lx, self.shape - 1.0)

    def _h_from_log(self, lw):
        # depends on ln x only; avoids the e^lw underflow for shape < 1
        return np.exp(self._h_log_from_log(lw))

    def _h_log_from_log(self, lw):
        # exact, where log(h) would add rounding to the residual ratio and the quadratures over it
        return -((self.rate * (-lw)) ** self.shape)


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

    def _h(self, x):
        return np.exp(-self.xi * (x ** (-self.mu) - 1.0))

    def _h_log(self, x):
        return -self.xi * (x ** (-self.mu) - 1.0)

    def _h_inv(self, u):
        return (1.0 - np.log(u) / self.xi) ** (-1.0 / self.mu)

    def _h_inv_from_log(self, lw):
        return (1.0 - lw / self.xi) ** (-1.0 / self.mu)

    def _h_elasticity(self, lx):
        return self.xi * self.mu * np.exp(-self.mu * lx)

    def _h_log_from_log(self, lw):
        # ln h(e^lw) = -xi (e^{-mu lw} - 1): finite long after h(e^lw) underflows
        return -self.xi * np.expm1(-self.mu * lw)

    def _residual_log_inverse(self, t, u):
        # h_t is Gompertz again, with xi e^{mu t}; exact where h_t^-1(u) rounds to 1
        return -np.log1p(-math.exp(-self.mu * t) * np.log(u) / self.xi) / self.mu

    def _residual_log(self, t, lw):
        # -xi e^{mu t} expm1(-mu lw), not the difference of two terms of size xi e^{mu t}
        return -self.xi * np.exp(self.mu * t) * np.expm1(-self.mu * lw)


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
        self.zero_behavior = ("other",)
        self.one_behavior = ("power", self.coef * self.expo, 1.0)

    def _h(self, x):
        return (1.0 - self.coef * np.log(x)) ** (-self.expo)

    def _h_log(self, x):
        return -self.expo * np.log1p(-self.coef * np.log(x))

    def _h_inv(self, u):
        return np.exp((1.0 - u ** (-1.0 / self.expo)) / self.coef)

    def _h_log_inv_from_log(self, lw):
        return -np.expm1(-lw / self.expo) / self.coef

    def _h_elasticity(self, lx):
        return self.expo * self.coef / (1.0 - self.coef * lx)

    def neg_log_h_inverse(self, u):
        # closed form: -ln h^-1(u) = (u^(-1/expo) - 1) / coef, no underflow
        return scalar_or_array(np.expm1(-np.log(np.maximum(_in_unit(u), 1e-300)) / self.expo) / self.coef)

    def _h_from_log(self, lw):
        # h depends on ln x only, so evaluate from the log argument exactly
        return (1.0 - self.coef * lw) ** (-self.expo)

    def _h_log_from_log(self, lw):
        # exact, like the stretched exponential's
        return -self.expo * np.log1p(-self.coef * lw)


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

    def _h(self, x):
        return 1.0 / (self.theta * x ** (-self.a) + 1.0 - self.theta)

    def _h_inv(self, u):
        return (self.theta / (1.0 / u - 1.0 + self.theta)) ** (1.0 / self.a)

    def _h_elasticity(self, lx):
        return self.a * self.theta / (self.theta + (1.0 - self.theta) * np.exp(self.a * lx))

    def _h_from_log(self, lw):
        xa = np.exp(self.a * lw)
        return xa / (self.theta + (1.0 - self.theta) * xa)


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
        self.one_behavior = (
            "power",
            self.a * self.theta / ((1.0 + self.theta) * math.log1p(self.theta)),
            1.0,
        )

    def _h(self, x):
        return np.log1p(self.theta * x**self.a) / math.log1p(self.theta)

    def _h_inv(self, u):
        return (np.expm1(u * math.log1p(self.theta)) / self.theta) ** (1.0 / self.a)

    def _h_log_inv_from_log(self, lw):
        return np.log(np.expm1(np.exp(lw) * math.log1p(self.theta)) / self.theta) / self.a

    def _h_elasticity(self, lx):
        y = self.theta * np.exp(self.a * lx)  # y / log1p(y) -> 1 as y -> 0
        return self.a / (1.0 + y) * np.where(y == 0.0, 1.0, y / np.log1p(y))

    def _h_from_log(self, lw):
        return np.log1p(self.theta * np.exp(self.a * lw)) / math.log1p(self.theta)


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

    def _h(self, x):
        return (4.0 / math.pi) * np.arctan(x**self.a)

    def _h_inv(self, u):
        return np.tan(math.pi * u / 4.0) ** (1.0 / self.a)

    def _h_elasticity(self, lx):
        y = np.exp(self.a * lx)  # y / arctan(y) -> 1 as y -> 0
        return self.a / (1.0 + y * y) * np.where(y == 0.0, 1.0, y / np.arctan(y))

    def _h_from_log(self, lw):
        return (4.0 / math.pi) * np.arctan(np.exp(self.a * lw))


class SibuyaMixingGenerator(Generator):
    """h(x) = 1 - (1 - x^r)^a from the Sibuya mixing law."""

    family = "mixing"

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

    def _h(self, x):
        return -np.expm1(self.a * np.log(-np.expm1(self.ratio * np.log(x))))

    def _h_inv(self, u):
        return np.exp(np.log(-np.expm1(np.log1p(-u) / self.a)) / self.ratio)

    def _h_elasticity(self, lx):
        log_one_m = _log1mexp(self.ratio * lx)  # ln(1 - x^ratio)
        return (self.a * self.ratio * np.exp(self.ratio * lx + (self.a - 1.0) * log_one_m)
                / -np.expm1(self.a * log_one_m))

    def _h_log_inv_from_log(self, lw):
        # ln(1 - e^x) at both steps keeps the digits of w near 1 and near 0
        return _log1mexp(_log1mexp(lw) / self.a) / self.ratio

    def _h_from_log(self, lw):
        # x^ratio = e^{ratio lw} stays representable far past where e^lw underflows
        with np.errstate(divide="ignore"):  # lw = 0 gives log1p(-1) = -inf, h = 1 exactly
            return -np.expm1(self.a * np.log1p(-np.exp(self.ratio * lw)))


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

    def _h(self, x):
        return np.polyval(self.coeffs[::-1], x)

    def _h_inv(self, u):
        # h(e^-z) decreases on [0, inf); solving for z = -ln x keeps digits near x = 1
        return np.exp(-solve_decreasing_batch(lambda z: self._h(np.exp(-z)), u))

    def _h_elasticity(self, lx):
        x = _as_interior(np.exp(lx))
        d = np.polyder(np.poly1d(self.coeffs[::-1]))
        return x * np.polyval(d.coeffs, x) / np.polyval(self.coeffs[::-1], x)

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

    def _h(self, x):
        return np.sin(self.theta * x) / math.sin(self.theta)

    def _h_inv(self, u):
        return np.arcsin(u * math.sin(self.theta)) / self.theta

    def _h_elasticity(self, lx):
        x = _as_interior(np.exp(lx))
        return self.theta * x / np.tan(self.theta * x)

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
        self.survival = survival
        self.density = density
        self.has_prime = density is not None
        self.params = {"kind": "from_survival"}

    def _h(self, x):
        z = -np.log(x)
        return np.vectorize(self.survival, otypes=[float])(z)

    def _h_inv(self, u):
        return np.exp(-solve_decreasing_batch(np.vectorize(self.survival, otypes=[float]), u))

    def _h_elasticity(self, lx):
        # x h'(x) / h(x) = density(z) / survival(z) at z = -ln x
        return np.vectorize(self.density, otypes=[float])(-lx) / np.vectorize(self.survival, otypes=[float])(-lx)


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
        if zb[0] == "power":
            self.zero_behavior = ("power", zb[1], zb[2] * self.beta)
        elif zb[0] == "exponential":
            self.zero_behavior = ("exponential", zb[1], zb[2] * self.beta)

    def _h(self, x):
        return self.base._h(x**self.beta)

    def _h_log(self, x):
        return self.base._h_log(x**self.beta)

    def _h_inv(self, u):
        return self.base._h_inv(u) ** (1.0 / self.beta)

    def _h_elasticity(self, lx):
        return self.beta * self.base._h_elasticity(self.beta * lx)

    def _h_from_log(self, lw):
        return self.base._h_from_log(self.beta * lw)

    def _h_log_from_log(self, lw):
        return self.base._h_log_from_log(self.beta * lw)


# ---------------------------------------------------------------------------
# mixing construction
# ---------------------------------------------------------------------------

MIXING_KINDS = ("gamma", "positive_stable", "sibuya", "log_series")


@dataclass(frozen=True)
class MixingLaw:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MIXING_KINDS:
            raise ValidationError(f"unknown mixing law {self.kind!r}")
        p = self.params
        if self.kind == "gamma":
            if p.get("a", 0.0) <= 0:
                raise ValidationError("gamma mixing needs a > 0")
        elif self.kind == "positive_stable":
            if not (0.0 < p.get("a", 0.0) <= 1.0):
                raise ValidationError("positive-stable mixing needs a in (0, 1]")
        elif self.kind == "sibuya":
            if not (0.0 < p.get("a", 0.0) <= 1.0):
                raise ValidationError("sibuya mixing needs a in (0, 1]")
        elif self.kind == "log_series":
            th = p.get("theta", 0.0)
            if not (-1.0 < th < 0.0):
                raise ValidationError("log-series mixing needs theta in (-1, 0)")

    def mgf(self, u):
        """M_Z(u) for u <= 0."""
        p = self.params
        u = np.asarray(u, dtype=float)
        if self.kind == "gamma":
            return (1.0 - u) ** (-p["a"])
        if self.kind == "positive_stable":
            return np.exp(-np.abs(u) ** p["a"])
        if self.kind == "sibuya":
            return 1.0 - (-np.expm1(u)) ** p["a"]
        theta = p["theta"]
        return np.log1p(theta * np.exp(u)) / math.log1p(theta)


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
    if family == "pareto":
        # keep user-facing parametrization
        g.family = "pareto"
        g.params = {"a": float(params["a"]), "mu": float(params["mu"])}
    return g


def power_scaled(g: Generator, beta: float) -> Generator:
    return PowerScaledGenerator(g, beta)


# ---------------------------------------------------------------------------
# time distortions and pseudo-product
# ---------------------------------------------------------------------------


def _check_t(t):
    if not t >= 0:
        raise DomainError("t must be nonnegative")
    et = math.exp(-t)
    if et == 0.0:
        raise DomainError("exp(-t) underflows; evaluate in the log domain (t too large)")
    return et


def _h_ratio(g: Generator, et: float, x):
    """h(et x) / h(et) as the exp of a log difference, so neither factor underflows."""
    with np.errstate(all="ignore"):
        return np.exp(g.h_log(et * np.asarray(x)) - g.h_log(et))


def time_distortion(g: Generator, t: float, x):
    """d_t(x) = h(e^-t h^-1(x)) / h(e^-t)."""
    x = _in_unit(x, "x")
    if t == 0.0:
        return scalar_or_array(np.clip(x, 0.0, 1.0))
    et = _check_t(t)
    return _unit_edges(x, _h_ratio(g, et, g.h_inverse(x)))


def residual_distortion(g: Generator, t: float, x):
    """h_t(x) = h(e^-t x) / h(e^-t)."""
    x = _in_unit(x, "x")
    if t == 0.0:
        return g.h(x)
    return _unit_edges(x, _h_ratio(g, _check_t(t), x))


def residual_distortion_inverse(g: Generator, t: float, u):
    """h_t^-1(u) = e^t h^-1(u h(e^-t)), via the log domain for robustness."""
    u = _in_unit(u, "u")
    if t == 0.0:
        return g.h_inverse(u)
    et = _check_t(t)
    with np.errstate(all="ignore"):
        lw = np.log(np.clip(u, _EPS, 1.0)) + g.h_log(et)
        out = np.minimum(np.asarray(g.h_inverse_from_log(lw)) / et, 1.0)
    return _unit_edges(u, out)


def residual_distortion_log_inverse(g: Generator, t: float, u):
    """ln h_t^-1(u) for u in (0, 1], accurate where h_t^-1(u) is within rounding of 1."""
    u = np.minimum(in_unit(u, "u", _SLACK, open_at_0=True), 1.0)
    _check_t(t)
    with np.errstate(all="ignore"):
        return scalar_or_array(np.where(u == 1.0, 0.0, np.minimum(g._residual_log_inverse(t, u), 0.0)))


def residual_distortion_log(g: Generator, t: float, lw):
    """ln h_t(e^lw) for lw <= 0, finite where h(e^-t) underflows."""
    with np.errstate(all="ignore"):
        return scalar_or_array(g._residual_log(t, np.minimum(lw, 0.0)))


def residual_distortion_prime(g: Generator, t: float, x):
    """h_t'(x) = e^-t h'(e^-t x) / h(e^-t), in ratio form to survive underflow."""
    if t == 0.0:
        return g.h_prime(x)
    et = _check_t(t)
    x = _as_interior(x)
    with np.errstate(all="ignore"):
        return scalar_or_array(_h_ratio(g, et, x) * et * g.h_log_prime(et * x))


def pseudo_product(g: Generator, a, b):
    """a (x)_h b = h(h^-1(a) h^-1(b))."""
    a = _in_unit(a, "pseudo-product argument")
    b = _in_unit(b, "pseudo-product argument")
    return copula_edges(a, b, g.h(np.asarray(g.h_inverse(a)) * np.asarray(g.h_inverse(b))))


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
    v = np.asarray(g.h_inverse(xs))
    # log d_t(x) = log h(e^-t v) - log h(e^-t): immune to underflow at large t
    log_d = np.array(
        [np.asarray(g.h_log(math.exp(-t) * v)) - float(g.h_log(math.exp(-t))) for t in t_grid]
    )
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

"""The distorted model layer: Fbar = h(Gbar).

A model pairs a distortion generator h with a core parameter set.  The joint
survival function Fbar(x, y) = h(Gbar(x, y)) satisfies the generalized weak
lack-of-memory equation

    Fbar(x+t, y+t) / Fbar(t, t) = d_tau(Fbar(x, y)),   tau = lambda * t,

where d_tau is the time distortion induced by h.  Because the core diagonal is
Gbar(t, t) = e^{-lambda t}, every t-level operation below feeds the generator
machinery the rescaled time tau = lambda * t, as the shift -tau of a log
argument: e^{-tau} is never formed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CoreParams, _core_copula_log, _marginal_log, gbar_log, singular_mass
from .errors import ConvergenceError, DomainError, ValidationError
from .generators import Generator, Mo15Generator, _residual_log_inverse_from_log, make_generator, time_distortion
from .numerics import (DEFAULT_QUAD_TOL, POSITIVE, Record, _admit, _check_age, copula_edges, entry, integrate_unit,
                       integrate_upper)


class Model(Record):
    __slots__ = ("generator", "core", "label")

    def __init__(self, generator: Generator, core: CoreParams, label: str = ""):
        if isinstance(generator, Mo15Generator) and generator.xi < 1.0:
            raise ValidationError("mo15 generator requires xi >= 1 in a model")
        self._fill(generator, core, label)

    @property
    def lam(self) -> float:
        return self.core.lam

    def tau(self, t: float) -> float:
        """The rescaled age lambda t, which must be finite."""
        t = _check_age(t)
        tau = self.core.lam * t
        if tau == math.inf:
            raise DomainError(f"lambda t = {self.core.lam!r} * {t!r} overflows")
        return tau

    def _copula_age(self, t: float) -> float:
        """lambda t of an age t that tau admitted, unchecked, capped where C_t, and so K_t, reaches its limit."""
        return min(self.core.lam * t, self.generator._copula_age_cap)

    def describe(self):
        return {
            "label": self.label,
            "generator": self.generator.describe(),
            "core": self.core.describe(),
        }


@entry(x="lifetime", y="lifetime")
def fbar_log(m: Model, x, y):
    """log Fbar(x, y) = ln h(Gbar(x, y)) from log Gbar, finite where Fbar underflows."""
    return m.generator._h_log_from_log(gbar_log.kernel(m.core, x, y))


@entry(x="lifetime", y="lifetime")
def fbar(m: Model, x, y):
    """Fbar(x, y) = h(Gbar(x, y)), evaluated from log Gbar to keep heavy tails."""
    return np.exp(m.generator._h_log_from_log(gbar_log.kernel(m.core, x, y)))


@entry(z="lifetime", i="margin")
def fbar_marginal(m: Model, i: int, z):
    """Marginal survival of the model: h(Gbar_i(z))."""
    return np.exp(m.generator._h_log_from_log(_marginal_log(m.core, i, z)))


@entry(t="model age", x="lifetime", y="lifetime")
def fbar_residual(m: Model, t: float, x, y):
    """Fbar_t(x, y) = Fbar(x+t, y+t) / Fbar(t, t) = h_tau(Gbar(x, y))."""
    return np.exp(m.generator._residual_log(m.lam * t, gbar_log.kernel(m.core, x, y)))


@entry(t="model age", x="lifetime", i="margin")
def residual_marginal(m: Model, i: int, t: float, x):
    """Margin of Fbar_t: h_tau(Gbar_i(x))."""
    return np.exp(m.generator._residual_log(m.lam * t, _marginal_log(m.core, i, x)))


@entry(t="model age", x="lifetime", y="lifetime")
def generalized_weak_residual(m: Model, t: float, x, y):
    """Fbar(x+t, y+t)/Fbar(t, t) - d_tau(Fbar(x, y)); identically zero for h(Gbar) models.

    The ratio is the exp of a difference of ln Fbar, so it stays exact where both factors underflow.
    """
    g, tau = m.generator, m.lam * t
    den = g._h_log_from_log(-tau)  # ln Fbar(t, t): ln Gbar(t, t) is -lambda t exactly
    if den == -math.inf:
        raise DomainError("ln Fbar(t, t) is below the most negative double at this age")
    lhs = np.exp(g._h_log_from_log(gbar_log.kernel(m.core, x + t, y + t)) - den)
    return lhs - time_distortion.kernel(g, tau, np.exp(g._h_log_from_log(gbar_log.kernel(m.core, x, y))))


def _copula_t_log(m: Model, tau: float, la, lb):
    """ln C_t = ln h_tau(C(h_tau^-1(u), h_tau^-1(v))) from la, lb = ln h_tau^-1(u), ln h_tau^-1(v).

    Every step from logs; unchecked, under the caller's error state.
    """
    return m.generator._residual_log(tau, _core_copula_log(m.core, la, lb))


@entry(t="model age", u="probability", v="probability")
def copula_t(m: Model, t: float, u, v):
    """Survival copula of the residual vector at age t.

    C_t(u, v) = h_tau(C_Gbar(h_tau^-1(u), h_tau^-1(v))); u or v = 0 gives ln 0, and copula_edges sets those points.
    """
    g, tau = m.generator, m._copula_age(t)
    la = _residual_log_inverse_from_log(g, tau, np.log(u))
    lb = _residual_log_inverse_from_log(g, tau, np.log(v))
    return copula_edges(u, v, np.exp(_copula_t_log(m, tau, la, lb)))


@entry(t="model age", log_u=("log probability", "ln u"))
def copula_t_diag_log(m: Model, t: float, log_u):
    """log C_t(u, u) from log u; used by tail probes far below the smallest double.

    DomainError where ln h_tau^-1(u) overflows at a finite log u, whose C_t(u, u) is not 0.
    """
    tau = m._copula_age(t)
    la = _residual_log_inverse_from_log(m.generator, tau, log_u)
    if np.any(np.isfinite(log_u) & ~np.isfinite(la)):
        raise DomainError("ln h_t^-1(u) overflows at this log u")
    return _copula_t_log(m, tau, la, la)


@entry(x="lifetime", t="model age")
def singular_line_survival(m: Model, t: float, x):
    """S_t(x) = P(X = Y) h_tau(e^{-lambda x}): residual mass beyond x on the diagonal."""
    p0 = singular_mass(m.core)
    if p0 == 0.0:
        return np.zeros_like(x)
    return p0 * np.exp(m.generator._residual_log(m.lam * t, -m.lam * x))


def _decay_rate(m: Model, tau: float) -> float:
    """1/z for the z where Fbar_t(z, z) = 1/e, tau = lambda t: the scale every half-line quadrature at age t runs on."""
    lv = _residual_log_inverse_from_log(m.generator, tau, -1.0)  # ln h_tau^-1(1/e)
    rate = m.lam / -np.float64(lv)
    if not 0.0 < rate < math.inf:
        raise DomainError("the residual lifetime scale underflows at this age")
    return float(rate)


def _heavy_tailed(m: Model, surv) -> bool:
    """Whether the survival curve surv looks too heavy tailed to integrate over [0, inf).

    True when the local decay exponent d ln surv / d ln z at z ~ hundreds of
    mean lifetimes is <= ~1, which a light tail still slow there passes too;
    so survival_integral asks it only once the quadrature has failed.
    """
    z1, z2 = 150.0 / m.lam, 600.0 / m.lam
    s_big, s_big2 = surv(np.array([z1, z2]))
    if s_big > 0.0 and s_big2 > 0.0:
        return -(math.log(s_big2) - math.log(s_big)) / math.log(z2 / z1) <= 1.05
    return False


def _survival_integral(m: Model, t: float, surv, tol: float, what: str, horizon) -> float:
    """Integral of surv over [0, horizon - t), or over [0, inf) on the decay scale of m at the age t.

    To tol; a half-line integral that does not converge reads +inf when the
    tail of surv is heavy.  Any other failure raises ConvergenceError under the
    name what, with the quadrature's estimate.  Under the caller's error state.
    """
    try:
        if horizon is None:
            return integrate_upper(surv, tol=tol, rate=_decay_rate(m, m.lam * t)).value
        span = horizon - t
        if span <= 0:
            raise DomainError(f"horizon must exceed the age t = {t!r}")
        return integrate_unit(lambda u: span * surv(span * u), tol=tol).value
    except ConvergenceError as exc:
        if horizon is None and _heavy_tailed(m, surv):
            return math.inf
        raise ConvergenceError(f"{what} did not converge (heavy-tailed survival?)", estimate=exc.estimate) from exc


@entry(t="model age", i="margin")
def mean_excess(m: Model, i: int, t: float) -> float:
    """Mean residual life of margin i at age t: integral of d_tau(Fbar_i(z)) dz, +inf if heavy tailed."""
    return _survival_integral(m, t, lambda z: residual_marginal.kernel(m, i, t, z), DEFAULT_QUAD_TOL,
                              "mean excess integral", None)


# ---------------------------------------------------------------------------
# bridge to the bivariate-Gompertz parametrization
# ---------------------------------------------------------------------------


class Mo15Params(Record):
    """Six-parameter bivariate Gompertz: rates lam, lam1, lam2 and shapes xi, xi1, xi2."""

    __slots__ = ("lam", "lam1", "lam2", "xi", "xi1", "xi2")

    def __init__(self, lam: float, lam1: float, lam2: float, xi: float, xi1: float, xi2: float):
        self._fill(*[_admit("mo15 bridge", name, value, POSITIVE)
                     for name, value in zip(self.__slots__, (lam, lam1, lam2, xi, xi1, xi2))])
        if not self.lam >= max(self.lam1, self.lam2) - 1e-12:
            raise ValidationError("constraint lam >= max(lam1, lam2) violated")
        if not self.lam * (self.xi - 1.0) >= max(self.lam1 * (self.xi1 - 1.0), self.lam2 * (self.xi2 - 1.0)) - 1e-12:
            raise ValidationError("constraint lam (xi - 1) >= max(lam_i (xi_i - 1)) violated")
        if not self.lam1 * self.xi1 + self.lam2 * self.xi2 >= self.lam * self.xi - 1e-12:
            raise ValidationError("constraint lam1 xi1 + lam2 xi2 >= lam xi violated")


def mo15_bridge(q: Mo15Params) -> Model:
    """Express the bivariate Gompertz family as h(Gbar).

    Generator h(x) = exp(-xi (1/x - 1)); core alpha = 1, gamma_i = lam_i,
    alpha_i = 1 - xi_i / xi.  Requires xi >= max(xi1, xi2) strictly so the
    weights stay in (0, 1).
    """
    a1 = 1.0 - q.xi1 / q.xi
    a2 = 1.0 - q.xi2 / q.xi
    if not (0.0 < a1 < 1.0 and 0.0 < a2 < 1.0):
        raise ValidationError(
            f"bridge weights 1 - xi_i/xi = ({a1:.6g}, {a2:.6g}) must lie in (0, 1); need xi_i < xi"
        )
    core = CoreParams(lam=q.lam, alpha=1.0, gamma1=q.lam1, gamma2=q.lam2, alpha1=a1, alpha2=a2)
    return Model(generator=make_generator("mo15", xi=q.xi), core=core, label="mo15")

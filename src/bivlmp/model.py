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
from dataclasses import dataclass

import numpy as np

from . import core as core_mod
from . import generators as gen_mod
from .core import CoreParams, _gbar_log, singular_mass
from .errors import ConvergenceError, DomainError, ValidationError
from .generators import Generator, Mo15Generator, make_generator
from .numerics import (DEFAULT_QUAD_TOL, POSITIVE, _admit, _real_array, copula_edges, in_unit, integrate_upper,
                       scalar_or_array)


@dataclass(frozen=True)
class Model:
    generator: Generator
    core: CoreParams
    label: str = ""

    def __post_init__(self):
        if isinstance(self.generator, Mo15Generator) and self.generator.xi < 1.0:
            raise ValidationError("mo15 generator requires xi >= 1 in a model")

    @property
    def lam(self) -> float:
        return self.core.lam

    def tau(self, t: float) -> float:
        """The rescaled age lambda t, which must be finite."""
        t = gen_mod._check_age(t)
        tau = self.core.lam * t
        if tau == math.inf:
            raise DomainError(f"lambda t = {self.core.lam!r} * {t!r} overflows")
        return tau

    def describe(self):
        return {
            "label": self.label,
            "generator": self.generator.describe(),
            "core": self.core.describe(),
        }


def _lifetimes(x, y):
    """The one check of a pair of lifetime arguments: both as float arrays >= 0."""
    return core_mod._nonnegative(x, "x"), core_mod._nonnegative(y, "y")


def _h_log(g: Generator, lw):
    """ln h(e^lw) with lw clamped to <= 0, as Generator.h_log_from_log, under the caller's error state."""
    return g._h_log_from_log(np.minimum(lw, 0.0))


def fbar_log(m: Model, x, y):
    """log Fbar(x, y) = ln h(Gbar(x, y)) from log Gbar, finite where Fbar underflows."""
    x, y = _lifetimes(x, y)
    with np.errstate(all="ignore"):
        return scalar_or_array(_h_log(m.generator, _gbar_log(m.core, x, y)))


def fbar(m: Model, x, y):
    """Fbar(x, y) = h(Gbar(x, y)), evaluated from log Gbar to keep heavy tails."""
    x, y = _lifetimes(x, y)
    with np.errstate(all="ignore"):
        return scalar_or_array(np.exp(_h_log(m.generator, _gbar_log(m.core, x, y))))


def fbar_marginal(m: Model, i: int, z):
    """Marginal survival of the model: h(Gbar_i(z))."""
    z = core_mod._nonnegative(z, "z")
    with np.errstate(all="ignore"):
        return scalar_or_array(_fbar_marginal(m, i, z))


def _fbar_marginal(m: Model, i: int, z):
    """h(Gbar_i(z)) for a float array z >= 0."""
    return np.exp(_h_log(m.generator, core_mod._marginal_log(m.core, i, z)))


def _residual_from_log(g: Generator, tau: float, lw):
    """h_tau(e^lw) = h(e^{lw - tau}) / h(e^-tau), as the exp of its log; under the caller's error state."""
    return scalar_or_array(np.exp(g._residual_log(tau, np.minimum(lw, 0.0))))


def fbar_residual(m: Model, t: float, x, y):
    """Fbar_t(x, y) = Fbar(x+t, y+t) / Fbar(t, t) = h_tau(Gbar(x, y))."""
    tau = m.tau(t)
    x, y = _lifetimes(x, y)
    with np.errstate(all="ignore"):
        return _residual_from_log(m.generator, tau, _gbar_log(m.core, x, y))


def residual_marginal(m: Model, i: int, t: float, x):
    """Margin of Fbar_t: h_tau(Gbar_i(x))."""
    tau = m.tau(t)
    x = core_mod._nonnegative(x, "x")
    with np.errstate(all="ignore"):
        return _residual_marginal(m, i, tau, x)


def _residual_marginal(m: Model, i: int, tau: float, x):
    """h_tau(Gbar_i(x)) for a float array x >= 0."""
    return _residual_from_log(m.generator, tau, core_mod._marginal_log(m.core, i, x))


def generalized_weak_residual(m: Model, t: float, x, y):
    """Fbar(x+t, y+t)/Fbar(t, t) - d_tau(Fbar(x, y)); identically zero for h(Gbar) models.

    The ratio is the exp of a difference of ln Fbar, so it stays exact where both factors underflow.
    """
    g = m.generator
    tau = m.tau(t)
    x, y = _lifetimes(x, y)
    with np.errstate(all="ignore"):
        den = g._h_log_from_log(-tau)  # ln Fbar(t, t): ln Gbar(t, t) is -lambda t exactly
        if den == -math.inf:
            raise DomainError("ln Fbar(t, t) is below the most negative double at this age")
        lhs = np.exp(_h_log(g, _gbar_log(m.core, x + t, y + t)) - den)
        rhs = gen_mod._time_distortion(g, tau, np.exp(_h_log(g, _gbar_log(m.core, x, y))))
        return scalar_or_array(lhs - rhs)


def _copula_t_log(m: Model, tau: float, la, lb):
    """ln C_t = ln h_tau(C(h_tau^-1(u), h_tau^-1(v))) from la, lb = ln h_tau^-1(u), ln h_tau^-1(v).

    Every step from logs; unchecked, under the caller's error state.
    """
    return m.generator._residual_log(tau, np.minimum(core_mod._core_copula_log(m.core, la, lb), 0.0))


def copula_t(m: Model, t: float, u, v):
    """Survival copula of the residual vector at age t.

    C_t(u, v) = h_tau(C_Gbar(h_tau^-1(u), h_tau^-1(v))).
    """
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)
    u = in_unit(u, "u")
    v = in_unit(v, "v")
    with np.errstate(all="ignore"):  # u or v = 0 gives ln 0; copula_edges sets those points
        la = gen_mod._residual_log_inverse_from_log(g, tau, np.log(u))
        lb = gen_mod._residual_log_inverse_from_log(g, tau, np.log(v))
        return copula_edges(u, v, np.exp(_copula_t_log(m, tau, la, lb)))


def copula_t_diag_log(m: Model, t: float, log_u):
    """log C_t(u, u) from log u; used by tail probes far below the smallest double.

    DomainError where ln h_tau^-1(u) overflows at a finite log u, whose C_t(u, u) is not 0.
    """
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)
    lu = _real_array(log_u, "ln u")
    if not lu.max(initial=-math.inf) <= 0.0:  # NaN fails it too
        raise DomainError("ln u must lie in [-inf, 0]")
    with np.errstate(all="ignore"):
        la = gen_mod._residual_log_inverse_from_log(g, tau, lu)
        if np.any(np.isfinite(lu) & ~np.isfinite(la)):
            raise DomainError("ln h_t^-1(u) overflows at this log u")
        return scalar_or_array(_copula_t_log(m, tau, la, la))


def singular_line_survival(m: Model, t: float, x):
    """S_t(x) = P(X = Y) h_tau(e^{-lambda x}): residual mass beyond x on the diagonal."""
    x = core_mod._nonnegative(x, "x")
    tau = m.tau(t)  # the age check, on both branches
    p0 = singular_mass(m.core)
    if p0 == 0.0:
        return scalar_or_array(np.zeros_like(x))
    with np.errstate(all="ignore"):
        return scalar_or_array(p0 * _residual_from_log(m.generator, tau, -m.lam * x))


def _decay_rate(m: Model, tau: float) -> float:
    """1/z for the z where Fbar_t(z, z) = 1/e, tau = lambda t: the scale every half-line quadrature at age t runs on."""
    lv = gen_mod._residual_log_inverse_from_log(m.generator, tau, -1.0)  # ln h_tau^-1(1/e)
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


def _survival_integral(m: Model, tau: float, surv, tol: float) -> float:
    """Integral of surv over [0, inf) on the decay scale of m at tau = lambda t, +inf if it fails on a heavy tail.

    A quadrature that does not converge on a tail the probe finds light raises its ConvergenceError.
    """
    try:
        return integrate_upper(surv, tol=tol, rate=_decay_rate(m, tau)).value
    except ConvergenceError:
        if _heavy_tailed(m, surv):
            return math.inf
        raise


def mean_excess(m: Model, i: int, t: float) -> float:
    """Mean residual life of margin i at age t: integral of d_tau(Fbar_i(z)) dz, +inf if heavy tailed."""
    tau = m.tau(t)
    with np.errstate(all="ignore"):
        return _survival_integral(m, tau, lambda z: _residual_marginal(m, i, tau, z), DEFAULT_QUAD_TOL)


# ---------------------------------------------------------------------------
# bridge to the bivariate-Gompertz parametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mo15Params:
    """Six-parameter bivariate Gompertz: rates lam, lam1, lam2 and shapes xi, xi1, xi2."""

    lam: float
    lam1: float
    lam2: float
    xi: float
    xi1: float
    xi2: float

    def __post_init__(self):
        for name in ("lam", "lam1", "lam2", "xi", "xi1", "xi2"):
            object.__setattr__(self, name, _admit("mo15 bridge", name, getattr(self, name), POSITIVE))
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

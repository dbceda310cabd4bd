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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core as core_mod
from . import generators as gen_mod
from .core import CoreParams, gbar_log, singular_mass
from .errors import ConvergenceError, DomainError, ValidationError
from .generators import POSITIVE, Generator, Mo15Generator, make_generator
from .numerics import DEFAULT_QUAD_TOL, copula_edges, in_unit, integrate_upper, scalar_or_array


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
        return self.core.lam * gen_mod._check_age(t)

    def describe(self):
        return {
            "label": self.label,
            "generator": self.generator.describe(),
            "core": self.core.describe(),
        }


def fbar_log(m: Model, x, y):
    """log Fbar(x, y) = ln h(Gbar(x, y)) from log Gbar, finite where Fbar underflows."""
    return m.generator.h_log_from_log(gbar_log(m.core, x, y))


def fbar(m: Model, x, y):
    """Fbar(x, y) = h(Gbar(x, y)), evaluated from log Gbar to keep heavy tails."""
    return m.generator.h_from_log(gbar_log(m.core, x, y))


def fbar_marginal(m: Model, i: int, z):
    """Marginal survival of the model: h(Gbar_i(z))."""
    return m.generator.h_from_log(core_mod._marginal_log(m.core, i, core_mod._nonnegative(z)))


def _residual_from_log(g: Generator, tau: float, lw):
    """h_tau(e^lw) = h(e^{lw - tau}) / h(e^-tau), as the exp of its log."""
    return scalar_or_array(np.exp(gen_mod.residual_distortion_log(g, tau, lw)))


def fbar_residual(m: Model, t: float, x, y):
    """Fbar_t(x, y) = Fbar(x+t, y+t) / Fbar(t, t) = h_tau(Gbar(x, y))."""
    return _residual_from_log(m.generator, m.tau(t), gbar_log(m.core, x, y))


def residual_marginal(m: Model, i: int, t: float, x):
    """Margin of Fbar_t: h_tau(Gbar_i(x))."""
    return _residual_from_log(m.generator, m.tau(t), core_mod._marginal_log(m.core, i, core_mod._nonnegative(x)))


def generalized_weak_residual(m: Model, t: float, x, y):
    """Fbar(x+t, y+t)/Fbar(t, t) - d_tau(Fbar(x, y)); identically zero for h(Gbar) models.

    The ratio is the exp of a difference of fbar_log, so it stays exact where both factors underflow.
    """
    tau = m.tau(t)
    den = fbar_log(m, t, t)
    if den == -math.inf:
        raise DomainError("ln Fbar(t, t) is below the most negative double at this age")
    lhs = np.exp(fbar_log(m, np.asarray(x, dtype=float) + t, np.asarray(y, dtype=float) + t) - den)
    return scalar_or_array(lhs - gen_mod.time_distortion(m.generator, tau, fbar(m, x, y)))


def _copula_t_log(m: Model, tau: float, lu, lv):
    """ln C_t(e^lu, e^lv) = ln h_tau(C(h_tau^-1(u), h_tau^-1(v))), every step from logs."""
    g = m.generator
    tau = min(tau, g._copula_age_cap)
    la = gen_mod._residual_log_inverse_from_log(g, tau, lu)
    lb = gen_mod._residual_log_inverse_from_log(g, tau, lv)
    return gen_mod.residual_distortion_log(g, tau, core_mod._core_copula_log(m.core, la, lb))


def copula_t(m: Model, t: float, u, v):
    """Survival copula of the residual vector at age t.

    C_t(u, v) = h_tau(C_Gbar(h_tau^-1(u), h_tau^-1(v))).
    """
    tau = m.tau(t)
    u = in_unit(u, "u")
    v = in_unit(v, "v")
    with np.errstate(all="ignore"):  # u or v = 0 gives ln 0; copula_edges sets those points
        return copula_edges(u, v, np.exp(_copula_t_log(m, tau, np.log(u), np.log(v))))


def copula_t_diag_log(m: Model, t: float, log_u):
    """log C_t(u, u) from log u; used by tail probes far below the smallest double.

    DomainError where ln h_tau^-1(u) overflows at a finite log u, whose C_t(u, u) is not 0.
    """
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)
    lu = np.asarray(log_u, dtype=float)
    if not lu.max(initial=-math.inf) <= 0.0:  # NaN fails it too
        raise DomainError("ln u must lie in [-inf, 0]")
    la = gen_mod._residual_log_inverse_from_log(g, tau, lu)
    if np.any(np.isfinite(lu) & ~np.isfinite(la)):
        raise DomainError("ln h_t^-1(u) overflows at this log u")
    return gen_mod.residual_distortion_log(g, tau, core_mod._core_copula_log(m.core, la, la))


def singular_line_survival(m: Model, t: float, x):
    """S_t(x) = P(X = Y) h_tau(e^{-lambda x}): residual mass beyond x on the diagonal."""
    x = core_mod._nonnegative(x)
    tau = m.tau(t)  # the age check, on both branches
    p0 = singular_mass(m.core)
    if p0 == 0.0:
        return scalar_or_array(np.zeros_like(x))
    return scalar_or_array(p0 * _residual_from_log(m.generator, tau, -m.lam * x))


def decay_rate(m: Model, t: float) -> float:
    """1/z for the z where Fbar_t(z, z) = 1/e: the scale every half-line quadrature at age t runs on."""
    lv = gen_mod.residual_distortion_log_inverse(m.generator, m.tau(t), math.exp(-1.0))
    with np.errstate(divide="ignore", over="ignore"):
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


def survival_integral(m: Model, t: float, surv, tol: float) -> float:
    """Integral of surv over [0, inf) on the decay scale of m at age t, +inf if it fails on a heavy tail.

    A quadrature that does not converge on a tail the probe finds light raises its ConvergenceError.
    """
    try:
        return integrate_upper(surv, tol=tol, rate=decay_rate(m, t)).value
    except ConvergenceError:
        if _heavy_tailed(m, surv):
            return math.inf
        raise


def mean_excess(m: Model, i: int, t: float) -> float:
    """Mean residual life of margin i at age t: integral of d_tau(Fbar_i(z)) dz, +inf if heavy tailed."""
    return survival_integral(m, t, functools.partial(residual_marginal, m, i, t), DEFAULT_QUAD_TOL)


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
        # each check is written so that NaN fails it
        for name in ("lam", "lam1", "lam2", "xi", "xi1", "xi2"):
            if getattr(self, name) not in POSITIVE:
                raise ValidationError(f"{name} must lie in {POSITIVE}, not {getattr(self, name)!r}")
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

"""Time-dependent dependence analysis.

Kendall functions of the residual copula C_t, Kendall's tau, the empirical
Kendall estimator, and tail-dependence coefficients.  For s in (0, 1) and
v = h_t^-1(s) the Kendall function of C_t is

    K_t(s) = s - h_t'(v) v [2 ln v + (1/lambda)(J_1(v) + J_2(v))]

where J_i(v) is the integral of the squared marginal hazard of the core up to
the v-quantile.  J_i has the closed form

    J_i(v) = (gamma_i / alpha^2) (alpha_i v^alpha - alpha ln v - alpha_i)

on the whole parametric core family; the quadrature route recomputes it by
integrating (g_i / Gbar_i)^2 numerically and serves as the independent check.
Both routes work from ln v throughout (v^alpha - 1 as expm1, the quadrature's
upper limit from expm1(-alpha ln v)): at large ages v rounds to within ~1e-9
of 1, and ln v of the rounded v loses ~7 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import generators as gen_mod
from .core import CoreParams, _marg, marginal_hazard, marginal_quantile_log
from .errors import DomainError
from .model import Model, copula_t, copula_t_diag_log
from .numerics import in_unit, integrate_unit, limit_at_zero, scalar_or_array

DEFAULT_S_GRID = tuple(np.linspace(0.05, 0.95, 19))
TAU_TOL = 1e-9  # relative accuracy of Kendall's tau
TAIL_TOL = 1e-4  # absolute accuracy of a numeric tail limit


@dataclass(frozen=True)
class KendallCurve:
    t: float
    grid: tuple  # of (s, K) pairs
    source: str  # closed_form | quadrature | empirical

    def k_values(self):
        return np.array([k for _, k in self.grid])


@dataclass(frozen=True)
class TailReport:
    t: float
    which: str  # lower | upper
    value: float
    method: str  # lemma_power | lemma_exponential | numeric
    classification: dict = field(default_factory=dict)
    converged: bool = True


# ---------------------------------------------------------------------------
# J integrals and Kendall functions
# ---------------------------------------------------------------------------


def _log_v(lv) -> np.ndarray:
    """lv = ln v as a float array, or DomainError unless all of it lies in (-inf, 0]."""
    lv = np.asarray(lv, dtype=float)
    # a min and a max, cheaper than a mask on this path of every K_t evaluation; NaN fails both
    if not (-math.inf < lv.min(initial=0.0) and lv.max(initial=0.0) <= 0.0):
        raise DomainError("ln v must lie in (-inf, 0]")
    return lv


def j_integral_closed(p: CoreParams, i: int, lv):
    """J_i(v) from lv = ln v (any shape): (gamma_i / alpha^2)(alpha_i expm1(alpha lv) - alpha lv)."""
    lv = _log_v(lv)
    gamma, aw = _marg(p, i)
    return scalar_or_array((gamma / p.alpha**2) * (aw * np.expm1(p.alpha * lv) - p.alpha * lv))


def j_integral_quadrature(p: CoreParams, i: int, lv):
    """J_i(v) by one quadrature up to the v-quantiles, from lv = ln v (any shape) to keep its digits near v = 1."""
    lv = _log_v(lv)
    z_max = np.ravel(marginal_quantile_log(p, i, lv))

    def hazard_sq(u):
        haz = marginal_hazard(p, i, z_max * u)
        return z_max * haz * haz

    return scalar_or_array(np.reshape(integrate_unit(hazard_sq).value, lv.shape))


# the J_i route of each Kendall source, taking (core, i, ln v).  The lambdas look the functions up
# at call time, so a wrapper installed over the module's name (bench/tracing.py) sees every call.
_J_ROUTES = {
    "closed_form": lambda p, i, lv: j_integral_closed(p, i, lv),
    "quadrature": lambda p, i, lv: j_integral_quadrature(p, i, lv),
}


def _kendall_values(m: Model, t: float, s, source: str):
    """Evaluate K_t pointwise by the J_i route source; s may be scalar or array."""
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)  # K_t is a function of C_t alone
    s = in_unit(s, "s", open_at_0=True)
    lv = gen_mod._residual_log_inverse_from_log(g, tau, np.log(s))
    j_route = _J_ROUTES[source]
    bracket = 2.0 * lv + (j_route(m.core, 1, lv) + j_route(m.core, 2, lv)) / m.lam
    # h_t'(v) v = s x h'(x)/h(x) at ln x = ln v - tau
    with np.errstate(invalid="ignore"):
        k = s * (1.0 - g.h_elasticity_from_log(lv - tau) * bracket)
    return scalar_or_array(np.where(s >= 1.0, 1.0, k))


def kendall_function(m: Model, t: float, s_grid=DEFAULT_S_GRID, source: str = "closed_form") -> KendallCurve:
    """Kendall curve of C_t on s_grid.

    source: 'closed_form' takes the closed J_i; 'quadrature' integrates J_i
    numerically (the independent pipeline).  Both need the generator's derivative.
    """
    if source not in _J_ROUTES:
        raise DomainError(f"unknown source {source!r}")
    s_grid = tuple(float(s) for s in s_grid)
    k = _kendall_values(m, t, s_grid, source)
    return KendallCurve(t=float(t), grid=tuple(zip(s_grid, np.atleast_1d(k))), source=source)


def kendall_tau(m: Model, t: float) -> float:
    """tau = 3 - 4 integral_0^1 K_t(s) ds."""
    return 3.0 - 4.0 * integrate_unit(lambda s: _kendall_values(m, t, s, "closed_form"), tol=TAU_TOL).value


# ---------------------------------------------------------------------------
# empirical Kendall function
# ---------------------------------------------------------------------------


def _concordance_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each i, the number of j with X_j > X_i and Y_j > Y_i.

    In descending x, ties broken by ascending y, that is the number of earlier
    points with a higher y rank.  Level by level, each point in the right half
    of a block pair counts them in the left half by searchsorted on the ranks
    sorted within blocks (keys block * n + rank).
    """
    n = x.size
    order = np.lexsort((y, -x))
    rank = np.unique(y, return_inverse=True)[1][order]
    pos = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    size = 1
    while size < n:
        block = pos // size
        keys = np.sort(block * n + rank)
        right = block % 2 == 1
        left = block[right] - 1
        counts[right] += (left + 1) * size - np.searchsorted(keys, left * n + rank[right], side="right")
        size *= 2
    out = np.empty(n, dtype=np.int64)
    out[order] = counts
    return out


def empirical_kendall(batch, s_grid=DEFAULT_S_GRID) -> KendallCurve:
    """Empirical Kendall function of the survival copula from a sample batch.

    W_i = (1/(n-1)) #{j : X_j > X_i and Y_j > Y_i}; Khat(s) = frac(W_i <= s).
    """
    x = np.asarray(batch.x, dtype=float)
    y = np.asarray(batch.y, dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("need at least two sample points")
    w = _concordance_counts(x, y) / (n - 1.0)
    s_grid = tuple(float(s) for s in s_grid)
    ks = [float(np.mean(w <= s)) for s in s_grid]
    return KendallCurve(t=0.0, grid=tuple(zip(s_grid, ks)), source="empirical")


# ---------------------------------------------------------------------------
# tail dependence
# ---------------------------------------------------------------------------


def core_lambda_l(p: CoreParams) -> float:
    """Lower tail coefficient of the core copula.

    Positive only on the gamma1=gamma2, lambda=gamma/alpha subfamily, where it
    equals ((1-a2)/(1+a1-a2))^{1/alpha} with (a1, a2) ordered so a1 >= a2.
    Otherwise the marginal quantile slopes differ and the limit is zero.
    """
    if not p.is_mu:
        return 0.0
    a1, a2 = max(p.alpha1, p.alpha2), min(p.alpha1, p.alpha2)
    return ((1.0 - a2) / (1.0 + a1 - a2)) ** (1.0 / p.alpha)


def core_lambda_u(p: CoreParams) -> float:
    """Upper tail coefficient of the core copula.

    (gamma1(1-a1) + gamma2(1-a2) - alpha lambda) / max(gamma1(1-a1), gamma2(1-a2));
    reduces to (1-a1-a2)/(1-a2) with a1 >= a2 on the MU subfamily.
    """
    b1 = p.gamma1 * (1.0 - p.alpha1)
    b2 = p.gamma2 * (1.0 - p.alpha2)
    val = (b1 + b2 - p.alpha * p.lam) / max(b1, b2)
    return min(max(val, 0.0), 1.0)


def tail_lower(m: Model, t: float) -> TailReport:
    """lambda_L of C_t from the generator's exponent beta at 0, h(x) ~ a x^beta.

    lambda_L(C_t) = lambda_L(C_core)^beta for every t.  beta = inf (h vanishes
    faster than every power) is the exponential lemma: 0 whenever the core
    coefficient is below 1, which is what ** inf gives.  A generator with no
    exponent (NaN) takes the numeric limit.
    """
    m.tau(t)  # the age check
    beta = m.generator.zero_exponent
    if math.isnan(beta):
        return tail_numeric(m, t, "lower")
    base = core_lambda_l(m.core)
    return TailReport(
        t=float(t), which="lower", value=base**beta,
        method="lemma_exponential" if beta == math.inf else "lemma_power",
        classification={"beta": beta, "core_value": base},
    )


def tail_upper(m: Model, t: float) -> TailReport:
    """lambda_U of C_t from the generator's exponent beta at 1, 1 - h(x) ~ a (1-x)^beta.

    The coefficient is the core value for t > 0 and 2 - (2 - core)^beta at
    t = 0.  A generator with no exponent (NaN) takes the numeric limit.
    """
    m.tau(t)  # the age check
    beta = m.generator.one_exponent
    if math.isnan(beta):
        return tail_numeric(m, t, "upper")
    base = core_lambda_u(m.core)
    return TailReport(
        t=float(t), which="upper", value=base if t > 0 else 2.0 - (2.0 - base) ** beta,
        method="lemma_power", classification={"beta": beta, "core_value": base},
    )


def tail_numeric(m: Model, t: float, which: str) -> TailReport:
    """Numeric tail limits via Aitken-accelerated sequences, each evaluated in one array call.

    Lower: lim C_t(u,u)/u as u -> 0 (log domain, so u may pass 1e-12).
    Upper: lim (C_t(u,u) - (2u - 1)) / (1-u) as u -> 1, in eps = 1-u.
    """
    if which == "lower":
        def g(u):
            lu = np.log(u)
            return np.exp(copula_t_diag_log(m, t, lu) - lu)

        est = limit_at_zero(g, u0=2.0**-6, tol=TAIL_TOL, budget=36)
    elif which == "upper":
        def g(eps):
            u = 1.0 - eps
            return (copula_t(m, t, u, u) - (2.0 * u - 1.0)) / eps

        est = limit_at_zero(g, u0=2.0**-6, tol=TAIL_TOL, budget=30)
    else:
        raise DomainError("which must be 'lower' or 'upper'")
    value = min(max(est.value, 0.0), 1.0)
    return TailReport(
        t=float(t), which=which, value=value, method="numeric",
        classification={"sequence_tail": [float(v) for v in est.sequence_tail]},
        converged=est.converged,
    )

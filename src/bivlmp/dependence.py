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
from .core import CoreParams, marginal_hazard, marginal_quantile_log
from .errors import CapabilityError, DomainError
from .model import Model, copula_t, copula_t_diag_log
from .numerics import in_unit, integrate_unit, limit_at_zero, scalar_or_array

DEFAULT_S_GRID = tuple(np.linspace(0.05, 0.95, 19))


@dataclass(frozen=True)
class KendallCurve:
    t: float
    grid: tuple  # of (s, K) pairs
    source: str  # closed_form | quadrature | empirical

    def s_values(self):
        return np.array([s for s, _ in self.grid])

    def k_values(self):
        return np.array([k for _, k in self.grid])


@dataclass(frozen=True)
class TailReport:
    t: float
    which: str  # lower | upper
    value: float
    method: str  # lemma_power | lemma_exponential | closed_form_core | numeric
    classification: dict = field(default_factory=dict)
    converged: bool = True

    @property
    def lambda_l(self):
        return self.value if self.which == "lower" else None

    @property
    def lambda_u(self):
        return self.value if self.which == "upper" else None


# ---------------------------------------------------------------------------
# J integrals and Kendall functions
# ---------------------------------------------------------------------------


def j_integral_closed(p: CoreParams, i: int, v) -> float:
    return scalar_or_array(_j_closed_from_log(p, i, np.log(in_unit(v, "v", open_at_0=True))))


def _j_closed_from_log(p: CoreParams, i: int, lv):
    """J_i(v) from lv = ln v: (gamma_i / alpha^2)(alpha_i expm1(alpha lv) - alpha lv)."""
    gamma, aw = (p.gamma1, p.alpha1) if i == 1 else (p.gamma2, p.alpha2)
    return (gamma / p.alpha**2) * (aw * np.expm1(p.alpha * lv) - p.alpha * lv)


def j_integral_quadrature(p: CoreParams, i: int, lv, tol: float = 1e-10):
    """J_i(v) by one quadrature up to the v-quantiles, from lv = ln v (any shape) to keep its digits near v = 1."""
    lv = np.asarray(lv, dtype=float)
    if not np.all((lv > -math.inf) & (lv <= 0.0)):
        raise DomainError("ln v must lie in (-inf, 0]")
    z_max = np.ravel(marginal_quantile_log(p, i, lv))

    def hazard_sq(u):
        haz = marginal_hazard(p, i, z_max * u)
        return z_max * haz * haz

    return scalar_or_array(np.reshape(integrate_unit(hazard_sq, tol=tol).value, lv.shape))


def j_integral(m: Model, i: int, v, method: str = "closed") -> float:
    """J_i(v) for the core of m; method 'closed' or 'quadrature'."""
    if method == "closed":
        return j_integral_closed(m.core, i, v)
    if method == "quadrature":
        return j_integral_quadrature(m.core, i, np.log(in_unit(v, "v", open_at_0=True)))
    raise DomainError(f"unknown method {method!r}")


def _kendall_values(m: Model, t: float, s, j_method: str):
    """Evaluate K_t pointwise; s may be scalar or array."""
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)  # K_t is a function of C_t alone
    s = in_unit(s, "s", open_at_0=True)
    lv = gen_mod.residual_distortion_log_inverse(g, tau, s)
    j_route = _j_closed_from_log if j_method == "closed" else j_integral_quadrature
    bracket = 2.0 * lv + (j_route(m.core, 1, lv) + j_route(m.core, 2, lv)) / m.lam
    # h_t'(v) v = s x h'(x)/h(x) at ln x = ln v - tau
    with np.errstate(invalid="ignore"):
        k = s * (1.0 - g.h_elasticity_from_log(lv - tau) * bracket)
    return scalar_or_array(np.where(s >= 1.0, 1.0, k))


def kendall_closed_form(m: Model, t: float, s):
    """K_t via the fully closed route (closed J_i, closed inverse and derivative)."""
    g = m.generator
    if not (g.has_closed_inverse and g.has_prime):
        raise CapabilityError(f"{g.family}: closed-form Kendall needs a closed inverse and a derivative")
    return _kendall_values(m, t, s, j_method="closed")


def kendall_function(m: Model, t: float, s_grid=DEFAULT_S_GRID, source: str = "auto") -> KendallCurve:
    """Kendall curve of C_t on s_grid.

    source: 'auto' prefers the closed J_i route; 'quadrature' forces numerical
    J_i integration (the independent pipeline).
    """
    s_grid = tuple(float(s) for s in s_grid)
    if source == "auto":
        g = m.generator
        source = "closed_form" if g.has_closed_inverse and g.has_prime else "quadrature"
    if source == "closed_form":
        k = kendall_closed_form(m, t, s_grid)
    elif source == "quadrature":
        k = _kendall_values(m, t, s_grid, j_method="quadrature")
    else:
        raise DomainError(f"unknown source {source!r}")
    return KendallCurve(t=float(t), grid=tuple(zip(s_grid, np.atleast_1d(k))), source=source)


def kendall_tau(m: Model, t: float, tol: float = 1e-9) -> float:
    """tau = 3 - 4 integral_0^1 K_t(s) ds."""
    return 3.0 - 4.0 * integrate_unit(lambda s: _kendall_values(m, t, s, j_method="closed"), tol=tol).value


# ---------------------------------------------------------------------------
# empirical Kendall function
# ---------------------------------------------------------------------------


class _Fenwick:
    def __init__(self, n):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i):
        i += 1
        while i <= self.n:
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, i):
        # count of inserted ranks <= i
        s = 0
        i += 1
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return int(s)


def _concordance_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each i, the number of j with X_j > X_i and Y_j > Y_i."""
    n = x.size
    order = np.lexsort((y, -x))  # descending x, ties broken by y
    y_rank = np.searchsorted(np.sort(np.unique(y)), y)
    n_ranks = int(y_rank.max()) + 1
    bit = _Fenwick(n_ranks)
    counts = np.zeros(n, dtype=np.int64)
    inserted = 0
    i = 0
    while i < n:
        j = i
        while j < n and x[order[j]] == x[order[i]]:
            j += 1
        # query the whole tie group before inserting any of it
        for k in range(i, j):
            idx = order[k]
            counts[idx] = inserted - bit.prefix(int(y_rank[idx]))
        for k in range(i, j):
            bit.add(int(y_rank[order[k]]))
        inserted += j - i
        i = j
    return counts


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
    """lambda_L of C_t, classified by the generator's behavior at 0.

    Power behavior h(x) ~ a x^beta gives lambda_L(C_t) = lambda_L(C_core)^beta
    for every t; exponential behavior drives the coefficient to 0 whenever the
    core coefficient is below 1.  Unclassified generators fall back to the
    numeric limit.
    """
    m.tau(t)  # the age check
    base = core_lambda_l(m.core)
    zb = m.generator.zero_behavior
    if zb[0] == "power":
        return TailReport(
            t=float(t), which="lower", value=base ** zb[2], method="lemma_power",
            classification={"scale": zb[1], "beta": zb[2], "core_value": base},
        )
    if zb[0] == "exponential":
        value = 1.0 if base >= 1.0 else 0.0
        return TailReport(
            t=float(t), which="lower", value=value, method="lemma_exponential",
            classification={"scale": zb[1], "beta": zb[2], "core_value": base},
        )
    return tail_numeric(m, t, "lower")


def tail_upper(m: Model, t: float) -> TailReport:
    """lambda_U of C_t from the generator's behavior at 1.

    Power behavior 1 - h(x) ~ a (1-x)^beta leaves the coefficient at the core
    value for t > 0 but shifts it to 2 - (2 - core)^beta at t = 0.
    """
    m.tau(t)  # the age check
    base = core_lambda_u(m.core)
    ob = m.generator.one_behavior
    if ob[0] == "power":
        if t > 0:
            value = base
        else:
            value = 2.0 - (2.0 - base) ** ob[2]
        return TailReport(
            t=float(t), which="upper", value=value, method="lemma_power",
            classification={"scale": ob[1], "beta": ob[2], "core_value": base},
        )
    return tail_numeric(m, t, "upper")


def tail_numeric(m: Model, t: float, which: str, tol: float = 1e-4) -> TailReport:
    """Numeric tail limits via Aitken-accelerated sequences.

    Lower: lim C_t(u,u)/u as u -> 0 (log domain, so u may pass 1e-12).
    Upper: lim (C_t(u,u) - (2u - 1)) / (1-u) as u -> 1, in eps = 1-u.
    """
    if which == "lower":
        def g(u):
            return math.exp(copula_t_diag_log(m, t, math.log(u)) - math.log(u))

        est = limit_at_zero(g, u0=2.0**-6, tol=tol, budget=36)
    elif which == "upper":
        def g(eps):
            u = 1.0 - eps
            c = float(copula_t(m, t, u, u))
            return (c - (2.0 * u - 1.0)) / eps

        est = limit_at_zero(g, u0=2.0**-6, tol=tol, budget=30)
    else:
        raise DomainError("which must be 'lower' or 'upper'")
    value = min(max(est.value, 0.0), 1.0)
    return TailReport(
        t=float(t), which=which, value=value, method="numeric",
        classification={"sequence_tail": [float(v) for v in est.sequence_tail]},
        converged=est.converged,
    )

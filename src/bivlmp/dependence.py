"""Time-dependent dependence analysis.

Kendall functions of the residual copula C_t, Kendall's tau, the empirical
Kendall estimator, and tail-dependence coefficients.  For s in (0, 1) and
v = h_t^-1(s) the Kendall function of C_t is

    K_t(s) = s - h_t'(v) v [2 ln v + (1/lambda)(J_1(v) + J_2(v))]

where J_i(v) is the integral of the squared marginal hazard of the core up to
the v-quantile.  J_i has the closed form

    J_i(v) = (gamma_i / alpha^2) (alpha_i v^alpha - alpha ln v - alpha_i)

on the whole parametric core family; the quadrature route recomputes
J_1 + J_2 as one numerical integral over u in (0, 1) of
z_1 haz_1(z_1 u)^2 + z_2 haz_2(z_2 u)^2, with z_i the v-quantile of margin i
and haz_i = g_i / Gbar_i, and serves as the independent check.
Both routes work from ln v throughout (v^alpha - 1 as expm1, the quadrature's
upper limit from expm1(-alpha ln v)): at large ages v rounds to within ~1e-9
of 1, and ln v of the rounded v loses ~7 digits.
"""

from __future__ import annotations

import math

import numpy as np

from . import generators as gen_mod
from .core import CoreParams, _log_a, _marg, marginal_hazard
from .errors import DomainError
from .model import Model, copula_t_diag_log
from .numerics import _RANGES, Record, _in_range, _s_grid, entry, integrate_unit, limit_at_zero

DEFAULT_S_GRID = np.linspace(0.05, 0.95, 19)  # as the s grid admission returns it: a float array, read-only
DEFAULT_S_GRID.flags.writeable = False
# ln C_t(u, u), bound when the module loads: the tail limits call the kernel of the entry, not the entry
_diag_log = copula_t_diag_log.kernel
TAU_TOL = 1e-9  # relative accuracy of Kendall's tau
TAIL_TOL = 1e-4  # absolute accuracy of a numeric tail limit
TAIL_START = 2.0**-6  # the first point u_0 of a numeric tail limit's sequence


class KendallCurve(Record):
    __slots__ = ("t", "grid", "source")

    def __init__(self, t: float, grid: tuple, source: str):
        # grid: (s, K) pairs; source: closed_form | quadrature | empirical
        self._fill(t, grid, source)

    def k_values(self):
        return np.array([k for _, k in self.grid])


class TailReport(Record):
    __slots__ = ("t", "which", "value", "method", "classification", "converged")

    def __init__(self, t: float, which: str, value: float, method: str, classification: dict, converged: bool = True):
        # which: lower | upper; method: lemma_power | lemma_exponential | numeric
        self._fill(t, which, value, method, classification, converged)


# ---------------------------------------------------------------------------
# J integrals and Kendall functions
# ---------------------------------------------------------------------------


@entry(lv=("ln v", "ln v"), i="margin")
def j_integral_closed(p: CoreParams, i: int, lv):
    """J_i(v) from lv = ln v (any shape): (gamma_i / alpha^2)(alpha_i expm1(alpha lv) - alpha lv)."""
    gamma, aw = _marg(p, i)
    return (gamma / p.alpha**2) * (aw * np.expm1(p.alpha * lv) - p.alpha * lv)


def _hazard_sq(p: CoreParams, i: int, lv: np.ndarray):
    """The J_i integrand on (0, 1), z_i haz_i(z_i u)^2 with z_i the v-quantiles of margin i, a column per ln v."""
    z_max = np.ravel(_log_a(p, i, lv) / _marg(p, i)[0])

    def hazard_sq(u):
        haz = marginal_hazard.kernel(p, i, z_max * u)
        return z_max * haz * haz

    return hazard_sq


@entry(lv=("ln v", "ln v"), i="margin")
def j_integral_quadrature(p: CoreParams, i: int, lv):
    """J_i(v) by one quadrature up to the v-quantiles, from lv = ln v (any shape) to keep its digits near v = 1."""
    return np.reshape(integrate_unit(_hazard_sq(p, i, lv)).value, lv.shape)


def _j_sum_quadrature(p: CoreParams, lv):
    """J_1(v) + J_2(v) by one quadrature of the summed integrand."""
    j1, j2 = _hazard_sq(p, 1, lv), _hazard_sq(p, 2, lv)
    return np.reshape(integrate_unit(lambda u: j1(u) + j2(u)).value, lv.shape)


# J_1 + J_2 by the route of each Kendall source, taking (core, ln v), ln v a float array in (-inf, 0]
_J_ROUTES = {
    "closed_form": lambda p, lv: j_integral_closed.kernel(p, 1, lv) + j_integral_closed.kernel(p, 2, lv),
    "quadrature": _j_sum_quadrature,
}


def _kendall_values(m: Model, tau: float, s, source: str):
    """K_t(s) by the J_i route source, for a float array s in (0, 1] at tau = lambda t capped as C_t is."""
    g = m.generator
    lv = _in_range(gen_mod._residual_log_inverse_from_log(g, tau, np.log(s)), "ln v", _RANGES["ln v"])  # its one check
    bracket = 2.0 * lv + _J_ROUTES[source](m.core, lv) / m.lam
    # h_t'(v) v = s x h'(x)/h(x) at ln x = ln v - tau
    k = s * (1.0 - g._h_elasticity(lv - tau) * bracket)
    return np.where(s >= 1.0, 1.0, k)


@entry(s_grid=("s grid", "s"), t="model age", source="Kendall source")
def kendall_function(m: Model, t: float, s_grid=DEFAULT_S_GRID, source: str = "closed_form") -> KendallCurve:
    """Kendall curve of C_t on s_grid.

    source: 'closed_form' takes the closed J_i; 'quadrature' integrates J_i
    numerically (the independent pipeline).  Every generator states its
    elasticity, so both routes serve every model.
    """
    k = _kendall_values(m, m._copula_age(t), s_grid, source)  # K_t is a function of C_t alone
    return KendallCurve(t=t, grid=tuple(zip(s_grid.tolist(), k)), source=source)


@entry(t="model age")
def kendall_tau(m: Model, t: float) -> float:
    """tau = 3 - 4 integral_0^1 K_t(s) ds."""
    tau = m._copula_age(t)
    return 3.0 - 4.0 * integrate_unit(lambda s: _kendall_values(m, tau, s, "closed_form"), tol=TAU_TOL).value


# ---------------------------------------------------------------------------
# empirical Kendall function
# ---------------------------------------------------------------------------


DENSE_BLOCK = 16  # points per block whose pairs _concordance_counts compares directly, a power of two
# a merge key packs a position and a y rank, each below n, in bit_length(n - 1) bits apiece:
# at most 62 bits, inside an int64, for n below this
MAX_POINTS = 2**31


def _dense_rank(v: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each value among the distinct values of v (0 for the smallest), and the largest rank."""
    idx = np.argsort(v)
    v_sorted = v[idx]
    steps = np.zeros(v.size, dtype=np.int64)
    steps[1:] = v_sorted[1:] != v_sorted[:-1]
    np.cumsum(steps, out=steps)
    rank = np.empty_like(steps)
    rank[idx] = steps
    return rank, int(steps[-1])


def _concordance_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each i, the number of j with X_j > X_i and Y_j > Y_i; DomainError unless all of x and y is finite.

    In descending x, ties broken by ascending y rank, that is the number of
    earlier points with a higher y rank.  Within each block of DENSE_BLOCK
    points the pairs are compared directly, one shift at a time.  Then level
    by level each point in the right half of a block pair counts those in the
    left half, from one sort of int64 keys (block pair, y rank, offset in the
    pair): a left point sorts before a right point of equal rank, so the left
    points sorted before a right point are those with a rank <= its own.
    """
    n = x.size
    if n >= MAX_POINTS:
        raise DomainError(f"the concordance count takes fewer than 2**31 points, not {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("sample points must be finite")
    x_rank, x_top = _dense_rank(x)
    rank, y_top = _dense_rank(y)
    rank_bits = y_top.bit_length()
    key = x_top - x_rank  # descending x, then ascending y rank
    key <<= rank_bits
    key |= rank
    order = np.argsort(key)
    del x_rank, key
    rank = rank[order]
    counts = np.zeros(n, dtype=np.int64)
    offset = (np.arange(n) & (DENSE_BLOCK - 1)).astype(np.uint8)
    for d in range(1, min(DENSE_BLOCK, n)):
        above = rank[:-d] > rank[d:]
        above &= offset[d:] >= d  # both in one block
        counts[d:] += above
    pos = np.arange(n, dtype=np.int64)
    size, bits = DENSE_BLOCK, DENSE_BLOCK.bit_length()  # a pair of blocks holds 2 size = 2**bits points
    while size < n:
        mask = (1 << bits) - 1
        key = pos >> bits  # the pair
        key <<= rank_bits
        key |= rank
        key <<= bits
        key |= pos & mask  # the offset in the pair, the right half from size on
        key.sort()
        # every pair but the last is full, so the pair of sorted index j is j >> bits;
        # and the k-th right point, at j, has j - k left points before it
        j = np.flatnonzero((key & size) != 0)  # a bool mask: flatnonzero of the int64 costs 7x more
        start = j & ~mask
        at = key[j]
        at &= mask
        at += start  # the position of the right point
        start += 2 * size
        start >>= 1  # (pair + 1) size: the left points of the pairs up to its own,
        start -= j
        start += np.arange(j.size)  # less the j - k before it, leaving those of its pair with a higher rank
        counts[at] += start
        size <<= 1
        bits += 1
    out = np.empty(n, dtype=np.int64)
    out[order] = counts
    return out


def empirical_kendall(batch, s_grid=DEFAULT_S_GRID) -> KendallCurve:
    """Empirical Kendall function of the survival copula from a sample batch.

    W_i = (1/(n-1)) #{j : X_j > X_i and Y_j > Y_i}; Khat(s) = frac(W_i <= s),
    0 below s = 0 and 1 above s = 1.  DomainError for a NaN s or a point that
    is not finite.
    """
    x = np.asarray(batch.x, dtype=float)
    y = np.asarray(batch.y, dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("need at least two sample points")
    s_grid = _s_grid(s_grid)
    w = np.sort(_concordance_counts(x, y)) / (n - 1.0)
    # count / n, as the mean of w <= s is
    ks = (np.searchsorted(w, s_grid, side="right") / n).tolist()
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


@entry(t="model age")
def tail_lower(m: Model, t: float) -> TailReport:
    """lambda_L of C_t from the generator's exponent beta at 0, h(x) ~ a x^beta.

    lambda_L(C_t) = lambda_L(C_core)^beta for every t.  beta = inf (h vanishes
    faster than every power) is the exponential lemma: 0 whenever the core
    coefficient is below 1, which is what ** inf gives.  A generator with no
    exponent (NaN) takes the numeric limit.
    """
    beta = m.generator.zero_exponent
    if math.isnan(beta):
        return tail_numeric.kernel(m, t, "lower")
    base = core_lambda_l(m.core)
    return TailReport(
        t=t, which="lower", value=base**beta,
        method="lemma_exponential" if beta == math.inf else "lemma_power",
        classification={"beta": beta, "core_value": base},
    )


@entry(t="model age")
def tail_upper(m: Model, t: float) -> TailReport:
    """lambda_U of C_t from the generator's exponent beta at 1, 1 - h(x) ~ a (1-x)^beta.

    The coefficient is the core value for t > 0 and 2 - (2 - core)^beta at
    t = 0.  A generator with no exponent (NaN) takes the numeric limit.
    """
    beta = m.generator.one_exponent
    if math.isnan(beta):
        return tail_numeric.kernel(m, t, "upper")
    base = core_lambda_u(m.core)
    return TailReport(
        t=t, which="upper", value=base if t > 0 else 2.0 - (2.0 - base) ** beta,
        method="lemma_power", classification={"beta": beta, "core_value": base},
    )


@entry(t="model age", which="tail side")
def tail_numeric(m: Model, t: float, which: str) -> TailReport:
    """Numeric tail limits via Aitken-accelerated sequences, each evaluated in one array call.

    Lower: lim C_t(u,u)/u as u -> 0 (log domain, so u may pass 1e-12).
    Upper: lim (C_t(u,u) - (2u - 1)) / (1-u) as u -> 1, in eps = 1-u.
    """
    if which == "lower":
        def g(u):
            lu = np.log(u)
            return np.exp(_diag_log(m, t, lu) - lu)

        est = limit_at_zero(g, u0=TAIL_START, tol=TAIL_TOL, budget=36)
    else:
        def g(eps):
            u = 1.0 - eps
            return (np.exp(_diag_log(m, t, np.log(u))) - (2.0 * u - 1.0)) / eps

        est = limit_at_zero(g, u0=TAIL_START, tol=TAIL_TOL, budget=30)
    value = min(max(est.value, 0.0), 1.0)
    return TailReport(
        t=t, which=which, value=value, method="numeric",
        classification={"sequence_tail": [float(v) for v in est.sequence_tail]},
        converged=est.converged,
    )

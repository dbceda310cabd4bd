"""Closed forms the tests check the program against."""

import math

import numpy as np

from bivlmp import core, dependence, generators, model, numerics, pricing
from bivlmp.errors import ConvergenceError, DomainError
from bivlmp.numerics import QUAD_LEVELS, QUAD_T, QuadratureResult, _real_array, copula_edges, in_unit, scalar_or_array


def mixing_mgf(law, u):
    """M_Z(u) = E[e^{uZ}], u <= 0, of a MixingLaw's factor Z."""
    p = law.params
    u = np.asarray(u, dtype=float)
    if law.kind == "gamma":
        return (1.0 - u) ** (-p["a"])
    if law.kind == "positive_stable":
        return np.exp(-np.abs(u) ** p["a"])
    if law.kind == "sibuya":
        return 1.0 - (-np.expm1(u)) ** p["a"]
    theta = p["theta"]
    return np.log1p(theta * np.exp(u)) / math.log1p(theta)


def gbar_eval(p, x, y):
    """Gbar(x, y), the exp of core.gbar_log."""
    return scalar_or_array(np.exp(core.gbar_log(p, x, y)))


def empirical_survival(b, x, y):
    """The share of the pairs of a SampleBatch with X > x and Y > y."""
    return float(np.mean((b.x > x) & (b.y > y)))


def empirical_atom_survival(b, x):
    """The share of the pairs of a SampleBatch on the diagonal past x."""
    return float(np.mean(b.atom & (b.x > x)))


def de_levels(unit):
    """Nodes (a column) and weights of the double-exponential rule at t in [-QUAD_T, QUAD_T], per level.

    Level k holds only the nodes new at step 2^-k, with the step folded into
    their weights.  Unit-interval nodes that round to 1 are dropped.
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
        levels.append((x[:, None], step * w[:, None]))
    return levels


def de_integrate(f, levels, scale, tol, what):
    """numerics._de_integrate with one integrand call per level of de_levels.

    Sums f over the nodes times scale, level by level, until two successive
    sums agree to tol in every column.  evaluations counts the nodes x
    columns of the levels summed.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    total = prev = None
    evaluations = 0
    for x, w in levels:
        fx = np.broadcast_arrays(x, np.asarray(f(x * scale), dtype=float))[1]
        if np.isnan(fx).any():
            raise DomainError(f"{what}: integrand returned NaN")
        evaluations += fx.size
        with np.errstate(invalid="ignore", over="ignore"):  # Fortran order: each column sums on its own, pairwise
            part = np.multiply(w * scale, fx, order="F").sum(axis=0)
        prev, total = total, part if total is None else 0.5 * total + part
        value = scalar_or_array(total.squeeze())
        if not np.all(np.isfinite(total)):
            raise ConvergenceError(f"{what} is not finite", estimate=value)
        if prev is not None and np.all(np.abs(total - prev) <= tol * np.abs(total)):
            return QuadratureResult(value, float(np.max(np.abs(total - prev))), evaluations)
    raise ConvergenceError(f"{what}: levels still differ by {np.max(np.abs(total - prev)):.3e}", estimate=value)


def solve_decreasing_batch(fn, targets, start=1.0, args=()):
    """numerics.solve_decreasing_batch by scipy's elementwise bracket_root and find_root (Chandrupatla)."""
    from scipy.optimize import elementwise

    targets = np.asarray(targets, dtype=float)

    def residual(d, target, *rest):
        return fn(d, *rest) - target

    flat = tuple(np.broadcast_to(a, targets.shape).ravel() for a in (targets, *args))
    bracket = elementwise.bracket_root(residual, 0.0, start, xmin=0.0, args=flat)
    res = elementwise.find_root(residual, bracket.bracket, args=flat)
    if np.any((bracket.status != 0) | (res.status != 0)):
        raise AssertionError("the scipy oracle failed to solve")
    return res.x.reshape(targets.shape)


def limit_at_zero_scalar(g, u0, tol, budget):
    """numerics.limit_at_zero as a scalar sequence: one g(u) per step, stopping at the first converged step.

    Returns (value, sequence_tail, converged), or raises what g raises, or
    DomainError for a non-finite g(u).
    """
    raw, acc = [], []
    for k in range(budget):
        u = u0 * 2.0 ** (-k)
        if u == 0.0:
            break
        v = g(u)
        if math.isnan(v) or math.isinf(v):
            raise DomainError(f"g({u!r}) is not finite")
        raw.append(v)
        if len(raw) >= 3:
            a0, a1, a2 = raw[-3], raw[-2], raw[-1]
            denom = a2 - 2.0 * a1 + a0
            acc.append(a2 - (a2 - a1) ** 2 / denom if denom != 0.0 else a2)
            if len(acc) >= 3:
                d1 = abs(acc[-1] - acc[-2])
                d2 = abs(acc[-2] - acc[-3])
                if d1 <= tol and d1 <= d2 + tol:
                    return acc[-1], acc[-6:], True
    if acc:
        return acc[-1], acc[-6:], False
    return (raw[-1] if raw else math.nan), raw[-6:], False


def tail_numeric_scalar(m, t, which, tol=1e-4):
    """dependence.tail_numeric's limit, unclipped, from one scalar copula call per point of the sequence."""
    if which == "lower":
        def g(u):
            return math.exp(model.copula_t_diag_log(m, t, math.log(u)) - math.log(u))

        return limit_at_zero_scalar(g, 2.0**-6, tol, 36)

    def g(eps):
        u = 1.0 - eps
        return (float(model.copula_t(m, t, u, u)) - (2.0 * u - 1.0)) / eps

    return limit_at_zero_scalar(g, 2.0**-6, tol, 30)


def concordance_counts_by_search(x, y):
    """dependence._concordance_counts by the block-pair merge with one searchsorted per level.

    In descending x, ties broken by ascending y, the count of a point is the
    number of earlier points with a higher y rank.  Level by level, each point
    in the right half of a block pair counts them in the left half by
    searchsorted on the ranks sorted within blocks (keys block * n + rank).
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


# The surface functions of bivlmp.model composed of the public helpers, each
# checking its arguments and opening its own error state: model.py's forms
# before its public functions checked each argument once and ran their
# kernels under one error state.


def gbar_log(p, x, y):
    """core.gbar_log as one expression, without the in-place steps (NaN at x = y = inf)."""
    x = core._nonnegative(x, "x")
    y = core._nonnegative(y, "y")
    d = x - y
    gamma = np.where(d >= 0, p.gamma1, p.gamma2)
    aw = np.where(d >= 0, p.alpha1, p.alpha2)
    z = np.abs(d)
    inner = gamma * z + np.log1p(aw * np.expm1(-gamma * z))
    return scalar_or_array(-p.lam * np.minimum(x, y) - inner / p.alpha)


def fbar_log(m, x, y):
    return m.generator.h_log_from_log(gbar_log(m.core, x, y))


def fbar(m, x, y):
    return m.generator.h_from_log(gbar_log(m.core, x, y))


def fbar_residual(m, t, x, y):
    return scalar_or_array(np.exp(generators.residual_distortion_log(m.generator, m.tau(t), gbar_log(m.core, x, y))))


def generalized_weak_residual(m, t, x, y):
    tau = m.tau(t)
    den = fbar_log(m, t, t)
    if den == -math.inf:
        raise DomainError("ln Fbar(t, t) is below the most negative double at this age")
    lhs = np.exp(fbar_log(m, _real_array(x, "x") + t, _real_array(y, "y") + t) - den)
    return scalar_or_array(lhs - generators.time_distortion(m.generator, tau, fbar(m, x, y)))


def _residual_log_inverse(g, tau, lu):
    with np.errstate(all="ignore"):
        return generators._residual_log_inverse_from_log(g, tau, lu)


def _core_copula_log(p, lu, lv):
    """core._core_copula_log with the public gbar_log on the quantiles of a core off the mu subfamily."""
    with np.errstate(all="ignore"):
        la, lb = core._log_a(p, 1, lu), core._log_a(p, 2, lv)
        if p.is_mu:
            lc = -np.where(la >= lb, la + np.log1p(p.alpha1 * np.expm1(lb - la)),
                           lb + np.log1p(p.alpha2 * np.expm1(la - lb))) / p.alpha
        else:
            lc = gbar_log(p, la / p.gamma1, lb / p.gamma2)
    return np.fmin(lc, np.minimum(lu, lv))


def _copula_t_log(m, tau, lu, lv):
    g = m.generator
    tau = min(tau, g._copula_age_cap)
    la, lb = _residual_log_inverse(g, tau, lu), _residual_log_inverse(g, tau, lv)
    return generators.residual_distortion_log(g, tau, _core_copula_log(m.core, la, lb))


def copula_t(m, t, u, v):
    tau = m.tau(t)
    u, v = in_unit(u, "u"), in_unit(v, "v")
    with np.errstate(all="ignore"):
        return copula_edges(u, v, np.exp(_copula_t_log(m, tau, np.log(u), np.log(v))))


def copula_t_diag_log(m, t, log_u):
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)
    lu = _real_array(log_u, "ln u")
    if not lu.max(initial=-math.inf) <= 0.0:
        raise DomainError("ln u must lie in [-inf, 0]")
    la = _residual_log_inverse(g, tau, lu)
    if np.any(np.isfinite(lu) & ~np.isfinite(la)):
        raise DomainError("ln h_t^-1(u) overflows at this log u")
    return generators.residual_distortion_log(g, tau, _core_copula_log(m.core, la, la))


# The integrands and solver residuals composed of the public helpers, each
# checking its arguments and opening its own error state: the forms before
# they called the kernels under their public caller's one error state.


def side_constants(m, i):
    """(gamma_i, alpha_i) of side i: the margin constants sampler._ln_q_t_unscaled takes for that side."""
    return core._marg(m.core, i)


def ln_q_t_unscaled(m, d, tau, gamma, aw):
    """sampler._ln_q_t_unscaled through the core's ln Gbar_i of each draw's side and the public log methods."""
    g, p = m.generator, m.core
    side1 = (gamma == p.gamma1) & (aw == p.alpha1)
    lx = np.where(side1, core._marginal_log(p, 1, d), core._marginal_log(p, 2, d)) - tau
    c = aw / (1.0 - aw) * np.exp(-gamma * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (g.h_log_from_log(lx) + np.log(g.h_elasticity_from_log(lx))
                + np.log(np.maximum(1.0 - gamma / (p.alpha * p.lam) + c, 0.0)) - np.log1p(c))


def age_constants(g, tau):
    """sampler._age_constants through the generator's public log methods."""
    return g.h_log_from_log(-tau), np.log(g.h_elasticity_from_log(-tau))


def _hazard_sq(p, i, lv):
    z_max = np.ravel(core.marginal_quantile_log(p, i, lv))

    def hazard_sq(u):
        haz = core.marginal_hazard(p, i, z_max * u)
        return z_max * haz * haz

    return hazard_sq


def kendall_values(m, t, s, source):
    """K_t(s) by the J_i route source, each step a checked public helper."""
    g = m.generator
    tau = min(m.tau(t), g._copula_age_cap)
    s = in_unit(s, "s", open_at_0=True)
    with np.errstate(all="ignore"):
        lv = generators._residual_log_inverse_from_log(g, tau, np.log(s))
    if source == "closed_form":
        j = dependence.j_integral_closed(m.core, 1, lv) + dependence.j_integral_closed(m.core, 2, lv)
    else:
        j1, j2 = _hazard_sq(m.core, 1, lv), _hazard_sq(m.core, 2, lv)
        j = np.reshape(numerics.integrate_unit(lambda u: j1(u) + j2(u)).value, lv.shape)
    bracket = 2.0 * lv + j / m.lam
    with np.errstate(invalid="ignore"):
        k = s * (1.0 - g.h_elasticity_from_log(lv - tau) * bracket)
    return scalar_or_array(np.where(s >= 1.0, 1.0, k))


def kendall_tau(m, t):
    return 3.0 - 4.0 * numerics.integrate_unit(lambda s: kendall_values(m, t, s, "closed_form"),
                                               tol=dependence.TAU_TOL).value


def decay_rate(m, t):
    lv = generators.residual_distortion_log_inverse(m.generator, m.tau(t), math.exp(-1.0))
    with np.errstate(divide="ignore", over="ignore"):
        rate = m.lam / -np.float64(lv)
    if not 0.0 < rate < math.inf:
        raise DomainError("the residual lifetime scale underflows at this age")
    return float(rate)


def survival_integral(m, t, surv, tol):
    try:
        return numerics.integrate_upper(surv, tol=tol, rate=decay_rate(m, t)).value
    except ConvergenceError:
        if model._heavy_tailed(m, surv):
            return math.inf
        raise


def _integrate(surv, m, t, horizon):
    if horizon is None:
        return survival_integral(m, t, surv, pricing.PRICING_TOL)
    span = horizon - t
    return numerics.integrate_unit(lambda u: span * surv(span * u), tol=pricing.PRICING_TOL).value


def joint_annuity(m, t, horizon=None):
    m.tau(t)
    return _integrate(lambda z: m.generator.h_from_log(-m.lam * (z + t)), m, t, horizon)


def residual_joint_annuity(m, t):
    tau = m.tau(t)

    def surv(z):
        return np.exp(generators.residual_distortion_log(m.generator, tau, -m.lam * z))

    return _integrate(surv, m, t, None)


def independent_annuity(m, t, horizon=None):
    m.tau(t)
    return _integrate(lambda z: model.fbar_marginal(m, 1, z + t) * model.fbar_marginal(m, 2, z + t), m, t, horizon)


def residual_independent_annuity(m, t):
    return _integrate(lambda z: model.residual_marginal(m, 1, t, z) * model.residual_marginal(m, 2, t, z), m, t,
                      None)


def life_expectancy(m, i, horizon=None):
    return _integrate(lambda z: model.fbar_marginal(m, i, z), m, 0.0, horizon)


def mean_excess(m, i, t):
    return survival_integral(m, t, lambda z: model.residual_marginal(m, i, t, z), numerics.DEFAULT_QUAD_TOL)

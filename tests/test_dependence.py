import math
import tracemalloc

import numpy as np
import pytest

from bivlmp.core import mu_core
from bivlmp import generators as gen_mod
from bivlmp.errors import DomainError
from bivlmp.dependence import (
    KendallCurve,
    _concordance_counts,
    _j_sum_quadrature,
    core_lambda_l,
    core_lambda_u,
    empirical_kendall,
    j_integral_closed,
    j_integral_quadrature,
    kendall_function,
    kendall_tau,
    tail_lower,
    tail_numeric,
    tail_upper,
)
from bivlmp.generators import (
    MixingLaw,
    generator_from_mixing,
    make_generator,
    power_scaled,
)
from bivlmp.model import Model, Mo15Params, copula_t, mo15_bridge
from bivlmp.sampler import sample_model

import oracles

MU = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
CONFIG_NAMES = ("identity_mu", "mixing_gamma", "mixing_stable", "mixing_sibuya", "mixing_logseries", "mo15",
                "fig1_left", "fig1_right", "weibull_mu", "pareto_mu")
S_GRID = np.linspace(0.05, 0.95, 19)


# -- J integrals ------------------------------------------------------------


def test_j_integral_known_value_both_routes():
    # (gamma/alpha^2)(alpha1 v^alpha - alpha ln v - alpha1) at v = 0.5
    closed = j_integral_closed(MU, 1, math.log(0.5))
    quad = j_integral_quadrature(MU, 1, math.log(0.5))
    assert closed == pytest.approx(0.0543147, abs=5e-7)
    assert quad == pytest.approx(closed, abs=1e-9)


def test_j_integral_routes_agree_on_grid():
    for p in (MU, mu_core(alpha=2.0, gamma=0.3, alpha1=0.6, alpha2=0.3)):
        for v in (0.05, 0.3, 0.9):
            for i in (1, 2):
                assert j_integral_quadrature(p, i, math.log(v)) == pytest.approx(
                    j_integral_closed(p, i, math.log(v)), abs=1e-9
                )


@pytest.mark.parametrize("lam_t", (0.0, 0.5, 2.0, 10.0))
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_summed_j_quadrature_is_the_sum_of_the_two(models, name, lam_t):
    # the quadrature K_t route integrates J_1 + J_2 in one call, at the ln v of a 49-point K_t grid
    m = models[name]
    tau = min(m.tau(lam_t / m.lam), m.generator._copula_age_cap)
    with np.errstate(all="ignore"):  # the kernel runs under its caller's error state
        lv = gen_mod._residual_log_inverse_from_log(m.generator, tau, np.log(np.linspace(0.02, 0.98, 49)))
        summed = _j_sum_quadrature(m.core, lv)
    two = j_integral_quadrature(m.core, 1, lv) + j_integral_quadrature(m.core, 2, lv)
    np.testing.assert_allclose(summed, two, rtol=1e-14, atol=0.0)


def test_an_ln_v_that_overflows_raises_domain_error():
    # at Weibull shape 0.005, ln h^-1(1e-300) = -(ln 1e300)^200 overflows to -inf: K_t has no value there,
    # and the one check of ln v, as the K_t kernel forms it, says so on both routes and in tau
    m = Model(make_generator("weibull", a=1.0, alpha=0.005), MU)
    for source in ("closed_form", "quadrature"):
        with pytest.raises(DomainError, match="ln v"):
            kendall_function(m, 0.0, (0.5, 1e-300), source=source)
    with pytest.raises(DomainError, match="ln v"):
        kendall_tau(m, 0.0)


# -- Kendall functions ------------------------------------------------------


def test_kendall_dual_pipeline_sample(models):
    # the two routes differ only in how J_i is integrated, so they agree to rounding
    s = np.linspace(0.02, 0.98, 49)
    for name in CONFIG_NAMES:
        m = models[name]
        for t in (0.0, 5.0, 2.0 / m.lam):
            closed = kendall_function(m, t, s, source="closed_form")
            quad = kendall_function(m, t, s, source="quadrature")
            assert np.max(np.abs(closed.k_values() - quad.k_values())) <= 1e-12, (name, t)
            assert closed.source == "closed_form" and quad.source == "quadrature"


def test_kendall_identity_time_invariant(models):
    # a linear distortion leaves the copula, hence K, unchanged in t
    m = models["identity_mu"]
    k0 = kendall_function(m, 0.0, S_GRID).k_values()
    k9 = kendall_function(m, 17.0, S_GRID).k_values()
    assert np.allclose(k0, k9, atol=1e-9)


def test_kendall_bounds(models):
    for name in ("identity_mu", "mo15", "fig1_left", "fig1_right"):
        k = kendall_function(models[name], 3.0, S_GRID).k_values()
        assert np.all(k >= S_GRID - 1e-12)
        assert np.all(k <= 1.0 + 1e-12)


def test_kendall_tau_frozen_values(models):
    assert kendall_tau(models["identity_mu"], 0.0) == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert kendall_tau(models["mo15"], 0.0) == pytest.approx(0.2, abs=1e-8)
    assert kendall_tau(models["fig1_left"], 0.0) == pytest.approx(0.0698777300, abs=1e-6)
    assert kendall_tau(models["fig1_right"], 0.0) == pytest.approx(-0.1107102475, abs=1e-6)


def test_fig1_tau_narrative(models):
    # left set: positive dependence increasing with age; right set: negative
    left = [kendall_tau(models["fig1_left"], t) for t in (0.0, 10.0, 20.0)]
    right = [kendall_tau(models["fig1_right"], t) for t in (0.0, 10.0)]
    assert all(v > 0 for v in left)
    assert left[0] < left[1] < left[2]
    assert all(v < 0 for v in right)


def test_kendall_gompertz_accurate_at_large_age():
    # zero singular mass (lam1 xi1 + lam2 xi2 = lam xi) and lam t = 20, where
    # v = h_tau^-1(s) lies within ~1e-9 of 1: K_t must come from ln v, not v
    mp = pytest.importorskip("mpmath")
    q = Mo15Params(lam=2.0, lam1=1.5, lam2=1.5, xi=3.0, xi1=1.5, xi2=2.5)
    m = mo15_bridge(q)
    t = 10.0
    routes = {
        "closed_form": (kendall_function(m, t, S_GRID).k_values(), 1e-12),
        "quadrature": (kendall_function(m, t, S_GRID, source="quadrature").k_values(), 1e-9),
    }

    with mp.workdps(50):
        p, xi = m.core, mp.mpf(q.xi)
        tau = mp.mpf(p.lam) * t
        et = mp.exp(-tau)

        def h(x):
            return mp.exp(-xi * (1 / x - 1))

        def ref(s):
            s = mp.mpf(s)
            v = 1 / (1 - mp.log(s * h(et)) / xi) / et
            j_sum = sum(
                mp.mpf(g) * (mp.mpf(a) * v - mp.log(v) - mp.mpf(a))
                for g, a in ((p.gamma1, p.alpha1), (p.gamma2, p.alpha2))
            )
            # h_tau'(v) v = e^-tau v h'(e^-tau v) / h(e^-tau), h'(x) = h(x) xi / x^2
            hv = h(et * v) * xi / (et * v) / h(et)
            return float(s - hv * (2 * mp.log(v) + j_sum / mp.mpf(p.lam)))

        expect = np.array([ref(s) for s in S_GRID])
    for route, (k, tol) in routes.items():
        assert np.max(np.abs(k - expect)) <= tol, route


@pytest.mark.parametrize("lam_t", (0.0, 10.0, 20.0, 30.0, 100.0, 1000.0))
def test_power_scaled_gompertz_is_gompertz_at_every_age(lam_t):
    # h(x^2) for the Gompertz h(x) = exp(-xi (x^-1 - 1)) is the Gompertz with mu = 2.  The wrapper's
    # age-t forms are its base's at age 2t; the generic ln h(e^{lw - t}) - ln h(e^-t) would cancel
    # at old ages, where both terms are of size xi e^{2 t}
    scaled = Model(generator=power_scaled(make_generator("gompertz", xi=1.5, mu=1.0), 2.0), core=MU)
    plain = Model(generator=make_generator("gompertz", xi=1.5, mu=2.0), core=MU)
    t = lam_t / MU.lam
    u = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    grid = (u[:, None], u[None, :])
    assert np.array_equal(copula_t(scaled, t, *grid), copula_t(plain, t, *grid))
    assert kendall_tau(scaled, t) == kendall_tau(plain, t)
    for source in ("closed_form", "quadrature"):
        assert np.array_equal(kendall_function(scaled, t, S_GRID, source).k_values(),
                              kendall_function(plain, t, S_GRID, source).k_values()), source


def test_closed_form_eligibility_follows_capabilities(models):
    # power_scaled carries no family of its own: its derivative alone makes the
    # closed route eligible
    m = Model(generator=power_scaled(make_generator("identity"), 2.0), core=models["identity_mu"].core)
    for t in (0.0, 5.0):
        closed = kendall_function(m, t, S_GRID)
        quad = kendall_function(m, t, S_GRID, source="quadrature")
        assert closed.source == "closed_form"
        assert np.max(np.abs(closed.k_values() - quad.k_values())) <= 1e-12


def test_numeric_inverse_takes_both_kendall_routes(models):
    # a numeric inverse is no obstacle: the default is the closed route, and it agrees with quadrature
    for coeffs in ([0.0, 0.25, 0.5, 0.25], [0.0, 1.5, 0.0, -0.5]):
        m = Model(generator=make_generator("polynomial", coeffs=coeffs), core=models["identity_mu"].core)
        for t in (0.0, 5.0):
            closed = kendall_function(m, t, S_GRID)
            quad = kendall_function(m, t, S_GRID, source="quadrature")
            assert closed.source == "closed_form"
            assert np.max(np.abs(closed.k_values() - quad.k_values())) <= 1e-12


# -- empirical Kendall ------------------------------------------------------


def _brute_counts(x, y):
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        out[i] = np.sum((x > x[i]) & (y > y[i]))
    return out


def test_concordance_counts_match_brute_force():
    rng = np.random.default_rng(11)
    samples = [(rng.integers(0, 12, n).astype(float), rng.integers(0, 12, n).astype(float)) for n in (300, 1, 2)]
    samples += [(rng.random(257), rng.random(257)), (np.full(40, 3.0), np.full(40, 3.0))]  # the last all tied
    for x, y in samples:
        assert np.array_equal(_concordance_counts(x, y), _brute_counts(x, y)), x.size


# sizes around the dense blocks and the merge levels
ORACLE_SIZES = (1, 2, 31, 32, 33, 63, 64, 65, 1023, 1025, 4097)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_concordance_counts_match_the_search_kernel(n):
    rng = np.random.default_rng(n)
    samples = [(rng.random(n), rng.random(n)), (np.full(n, 2.0), np.full(n, 2.0)),  # the second all tied
               (rng.integers(0, 7, n).astype(float), rng.integers(0, 5, n).astype(float))]  # ties on both axes
    for x, y in samples:
        assert np.array_equal(_concordance_counts(x, y), oracles.concordance_counts_by_search(x, y))


def test_empirical_kendall_matches_the_search_kernel(models):
    batch = sample_model(models["identity_mu"], 30_000, seed=202)
    assert np.any(batch.atom)  # ties x == y
    n = batch.n
    counts = oracles.concordance_counts_by_search(batch.x, batch.y)
    assert np.array_equal(_concordance_counts(batch.x, batch.y), counts)
    w = counts / (n - 1.0)
    # the default grid, shares that some W_i equals exactly, and the ends
    grid = [*S_GRID, *(np.unique(counts)[::97] / (n - 1.0)), -math.inf, -1.0, 0.0, 1.0, 2.0, math.inf]
    want = KendallCurve(t=0.0, grid=tuple((float(s), float(np.mean(w <= s))) for s in grid), source="empirical")
    assert empirical_kendall(batch, grid) == want


def test_concordance_counts_peak_memory(models):
    batch = sample_model(models["identity_mu"], 200_000, seed=5)
    tracemalloc.start()
    try:
        _concordance_counts(batch.x, batch.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * batch.n


def test_empirical_kendall_tracks_closed_form(models):
    m = models["identity_mu"]
    batch = sample_model(m, 30_000, seed=202)
    emp = empirical_kendall(batch, S_GRID)
    closed = kendall_function(m, 0.0, S_GRID)
    assert np.max(np.abs(emp.k_values() - closed.k_values())) < 0.01
    assert emp.source == "empirical"


# -- tail dependence --------------------------------------------------------


def test_core_tail_closed_forms():
    assert core_lambda_l(MU) == pytest.approx(0.8 / 1.1, abs=1e-12)
    assert core_lambda_u(MU) == pytest.approx(0.625, abs=1e-12)
    swapped = mu_core(alpha=1.0, gamma=0.1, alpha1=0.2, alpha2=0.3)
    assert core_lambda_l(swapped) == pytest.approx(core_lambda_l(MU), abs=1e-12)


FLAT_AT_1 = [0.0, 0.0, 3.0, -2.0]  # h'(1) = 0: 1 - h(x) = 3 (1 - x)^2 - 2 (1 - x)^3
# model -> (its generator on MU, or None for the built-in, and the lemma's lambda_L and lambda_U at t = 0);
# on MU the core has lambda_L = 0.8 / 1.1 and lambda_U = 0.625, so 2 - lambda_U = 1.375
TAIL_LEMMA_CASES = {
    "identity_mu": (None, 0.8 / 1.1, 0.625),
    "polynomial_flat_at_1": (make_generator("polynomial", coeffs=FLAT_AT_1), (0.8 / 1.1) ** 2, 2.0 - 1.375**2),
    "power_scaled_sibuya": (power_scaled(generator_from_mixing(MixingLaw("sibuya", {"a": 0.5}), 1.0), 2.0),
                            (0.8 / 1.1) ** 2, 2.0 - 1.375**0.5),
    "power_scaled_polynomial": (power_scaled(make_generator("polynomial", coeffs=FLAT_AT_1), 0.5),
                                0.8 / 1.1, 2.0 - 1.375**2),
}


@pytest.mark.parametrize("name", sorted(TAIL_LEMMA_CASES))
def test_tails_lemma_vs_numeric(models, name):
    g, lower, upper = TAIL_LEMMA_CASES[name]
    m = models[name] if g is None else Model(generator=g, core=MU)
    for lemma, expect in ((tail_lower(m, 0.0), lower), (tail_upper(m, 0.0), upper)):
        assert lemma.method == "lemma_power", lemma.which
        assert lemma.value == pytest.approx(expect, abs=1e-12), lemma.which
        numeric = tail_numeric(m, 0.0, lemma.which)
        assert numeric.converged and abs(numeric.value - lemma.value) < 5e-3, lemma.which


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_tail_numeric_matches_the_scalar_sequence_oracle(models, name):
    m = models[name]
    for lam_t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1000.0):
        t = lam_t / m.lam
        for which in ("lower", "upper"):
            try:
                value, tail, converged = oracles.tail_numeric_scalar(m, t, which)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    tail_numeric(m, t, which)
                continue
            rep = tail_numeric(m, t, which)
            assert abs(rep.value - min(max(value, 0.0), 1.0)) <= 1e-12, (lam_t, which)
            assert rep.converged == converged, (lam_t, which)
            assert len(rep.classification["sequence_tail"]) == len(tail), (lam_t, which)


def test_kendall_tau_pinned(models):
    # 30-digit mpmath integrals of the closed K_t over (0, 1)
    for name, lam_t, expect in (("pareto_mu", 2.0, 0.88041544590071118), ("mixing_gamma", 2.0, 0.90435354875805561),
                                ("pareto_mu", 0.0, 0.80121754589226864)):
        m = models[name]
        assert kendall_tau(m, lam_t / m.lam) == pytest.approx(expect, abs=1e-10), (name, lam_t)


EXTREME_S = (1e-300, 1e-100, 1e-30, 1e-15, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)


@pytest.mark.parametrize(
    "name,lam_t,s",
    [
        (name, lam_t, s)
        for name in CONFIG_NAMES
        for lam_t in (0.0, 2.0)
        for s in EXTREME_S
        # fig1_left's negative core singular mass puts its K_t above 1 near s = 1
        # (notes/decisions.md)
        if not (name == "fig1_left" and s > 0.5)
    ],
)
def test_kendall_finite_at_extreme_s(models, name, lam_t, s):
    # the quadrature of tau evaluates K_t at nodes down to ~1e-275 and within 1e-16 of 1
    m = models[name]
    k = kendall_function(m, lam_t / m.lam, (s,)).k_values()[0]
    assert math.isfinite(k) and s <= k <= 1.0


def test_mo15_kendall_free_of_age(models):
    # the MU core with alpha = 1 makes C_t of mo15 the same at every age; h_t'(v) v
    # comes from ln v - tau, so nothing overflows until e^-tau itself underflows
    m = models["mo15"]
    k0 = kendall_function(m, 0.0, S_GRID).k_values()
    for lam_t in (40.0, 400.0, 700.0):
        t = lam_t / m.lam
        assert np.allclose(kendall_function(m, t, S_GRID).k_values(), k0, rtol=0.0, atol=1e-12), lam_t
        assert kendall_tau(m, t) == pytest.approx(0.2, abs=1e-12), lam_t


def test_numeric_lower_tail_raises_where_the_inverse_overflows():
    # Pareto with mu = 30: ln h^-1(u) = -(u^-1/30 - 1) overflows by u = 2^-41, the limit's last point,
    # where C_t(u, u) is not 0; the upper tail never goes below u = 1 - 2^-6 and converges
    m = Model(generator=make_generator("pareto", a=1.0, mu=30.0), core=MU)
    for call in (lambda: tail_numeric(m, 0.0, "lower"), lambda: tail_lower(m, 2.0)):
        with pytest.raises(DomainError, match="overflows"):
            call()
    assert tail_numeric(m, 0.0, "upper").converged


def test_a_float_grid_outside_the_unit_interval_is_refused(models):
    with pytest.raises(DomainError, match=r"^s must lie in \(0, 1\]$"):
        kendall_function(models["mixing_gamma"], 1.0, [0.5, 1.5])


class _NoUpperExponent(gen_mod.IdentityGenerator):
    """The identity generator, stating no exponent at 1, as no built-in family does."""

    one_exponent = math.nan


def test_a_generator_with_no_upper_exponent_takes_the_numeric_limit():
    m, lemma = Model(_NoUpperExponent(), MU), Model(gen_mod.IdentityGenerator(), MU)
    for t in (0.0, 5.0):
        report = tail_upper(m, t)
        assert report == tail_numeric(m, t, "upper") and report.method == "numeric" and report.converged
        assert report.value == pytest.approx(tail_upper(lemma, t).value, abs=1e-3)

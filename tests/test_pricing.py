import math

import numpy as np
import pytest

from bivlmp import model as model_module
from bivlmp.core import mu_core
from bivlmp.errors import ConvergenceError
from bivlmp.generators import make_generator
from bivlmp.model import Model, fbar, mean_excess
from bivlmp.pricing import (
    REFERENCE_HORIZON,
    REFERENCE_PREMIUMS,
    independent_annuity,
    joint_annuity,
    life_expectancy,
    premium_table,
    reference_comparison,
    residual_independent_annuity,
    residual_joint_annuity,
    table_text,
)
from bivlmp.sampler import sample_model


def test_joint_annuity_identity_closed_form(models):
    # identity generator: Fbar(z, z) = e^{-lam z}, so a(t) = e^{-lam t}/lam
    m = models["identity_mu"]
    assert joint_annuity(m, 0.0) == pytest.approx(1.0 / m.lam, rel=1e-9)
    assert joint_annuity(m, 7.0) == pytest.approx(math.exp(-m.lam * 7.0) / m.lam, rel=1e-9)


def test_deferred_vs_residual_relation(models):
    # a_deferred(t) = Fbar(t, t) * a_residual(t)
    for name in ("identity_mu", "mixing_gamma", "fig1_left"):
        m = models[name]
        t = 1.0 / m.lam
        lhs = joint_annuity(m, t)
        rhs = fbar(m, t, t) * residual_joint_annuity(m, t)
        assert lhs == pytest.approx(rhs, rel=1e-7), name
    # heavy-tailed diagonal survival evaluates exactly in the log domain
    m = models["mixing_gamma"]
    assert joint_annuity(m, 10.0) == pytest.approx(100.0 / 1.1, rel=1e-8)


def test_divergent_integrals_read_infinite(models):
    # h(Gbar_i(z)) ~ 1/(lambda z) on pareto_mu: every integral of a margin or of the diagonal diverges alike
    m = models["pareto_mu"]
    assert life_expectancy(m, 1) == math.inf
    assert joint_annuity(m, 0.0) == math.inf
    assert residual_joint_annuity(m, 5.0) == math.inf
    assert mean_excess(m, 1, 0.0) == math.inf
    # the product of the two margins decays like z^-2 and stays finite
    assert independent_annuity(m, 0.0) == pytest.approx(11.233045102486045, rel=1e-10)


def test_slow_light_tail_stays_finite(models):
    # Fbar(z, z) = exp(-(lam z)^0.2): its log-slope over 150/lam..600/lam is about 0.6, yet the mean is Gamma(6)/lam
    m = Model(make_generator("weibull", a=1.0, alpha=0.2), mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2))
    assert joint_annuity(m, 0.0) == pytest.approx(math.gamma(6.0) / m.lam, rel=1e-8)
    for i in (1, 2):
        assert life_expectancy(m, i) == pytest.approx(math.gamma(6.0) / m.lam, rel=2e-3)
        # at age 0 the mean excess is the same integral
        assert mean_excess(m, i, 0.0) == pytest.approx(life_expectancy(m, i), rel=1e-8)
    assert math.isfinite(residual_joint_annuity(m, 5.0))
    # the stable mixing's residual margins are slow the same way at lambda t = 3000;
    # each margin outlives the pair
    s = models["mixing_stable"]
    t = 3000.0 / s.lam
    joint = residual_joint_annuity(s, t)
    for i in (1, 2):
        assert joint <= mean_excess(s, i, t) < math.inf


def test_residual_joint_annuity_constant_for_identity(models):
    # memoryless diagonal: the conditional annuity does not depend on age
    m = models["identity_mu"]
    vals = [residual_joint_annuity(m, t) for t in (0.0, 5.0, 25.0)]
    assert np.allclose(vals, 1.0 / m.lam, rtol=1e-9)


def test_independent_annuity_identity(models):
    # product of the two marginals, integrated in closed form by quadrature only
    m = models["identity_mu"]
    a = independent_annuity(m, 0.0)
    b = residual_independent_annuity(m, 0.0)
    assert a == pytest.approx(b, rel=1e-9)
    # positive quadrant dependence of this model: joint > independent
    assert joint_annuity(m, 0.0) > a


def test_life_expectancy_closed_antiderivative(models):
    # integral of (alpha1 + (1 - alpha1) e^{gamma z})^-1 equals -ln(1-alpha1)/(alpha1 gamma)
    m = models["identity_mu"]
    expect = -math.log(0.7) / (0.3 * 0.1)
    assert life_expectancy(m, 1) == pytest.approx(expect, rel=1e-8)
    expect2 = -math.log(0.8) / (0.2 * 0.1)
    assert life_expectancy(m, 2) == pytest.approx(expect2, rel=1e-8)


def test_life_expectancy_horizon_truncates(models):
    m = models["fig1_left"]
    full = life_expectancy(m, 1)
    trunc = life_expectancy(m, 1, horizon=REFERENCE_HORIZON)
    assert trunc < full


def test_joint_annuity_monte_carlo_cross_check(models):
    # a(0) = E[min(X, Y)] when the payout runs while both survive
    m = models["fig1_right"]
    n = 40_000
    batch = sample_model(m, n, seed=77)
    mins = np.minimum(batch.x, batch.y)
    se = float(np.std(mins)) / math.sqrt(n)
    assert abs(joint_annuity(m, 0.0) - float(np.mean(mins))) < 4 * se


def test_premium_table_structure(models):
    quotes = premium_table(models["fig1_left"], [0.0, 10.0], horizon=REFERENCE_HORIZON)
    assert [q.t for q in quotes] == [0.0, 10.0]
    assert quotes[0].premium_joint > quotes[1].premium_joint
    assert all(q.model_label == "fig1_left" for q in quotes)
    assert "joint" in table_text(quotes)


def test_reference_comparison_all_within_tolerance(models):
    rows = reference_comparison({"left": models["fig1_left"], "right": models["fig1_right"]})
    assert len(rows) == 12
    bad = [r for r in rows if not r["ok"]]
    assert not bad, bad


def test_reference_orderings(models):
    for t in REFERENCE_PREMIUMS["left"]["ts"]:
        ml, mr = models["fig1_left"], models["fig1_right"]
        assert joint_annuity(ml, t, horizon=REFERENCE_HORIZON) > independent_annuity(
            ml, t, horizon=REFERENCE_HORIZON
        )
        assert joint_annuity(mr, t, horizon=REFERENCE_HORIZON) < independent_annuity(
            mr, t, horizon=REFERENCE_HORIZON
        )


def test_mo15_residual_annuities_at_large_age(models):
    # at lam t = 6, h(e^-tau) = exp(-2 (e^6 - 1)) underflows.  Given both alive,
    # Fbar_t(z, z) = exp(-c (e^z - 1)) with c = xi e^6, and the product of the
    # residual margins has the same form with c = 2 xi_1 e^6; both integrate to
    # e^c E_1(c).
    mp = pytest.importorskip("mpmath")
    m = models["mo15"]
    with mp.workdps(40):
        joint, independent = (float(mp.exp(c) * mp.e1(c)) for c in (2 * mp.exp(6), mp.mpf("2.4") * mp.exp(6)))
    assert residual_joint_annuity(m, 6.0) == pytest.approx(joint, rel=1e-10)
    assert residual_independent_annuity(m, 6.0) == pytest.approx(independent, rel=1e-10)


def _exp_e1(c):
    """e^c E_1(c) for c >= 2e4: the asymptotic series sum_k (-1)^k k! / c^(k+1) is exact to rounding by k = 8."""
    return sum((-1) ** k * math.factorial(k) / c ** (k + 1) for k in range(8))


@pytest.mark.parametrize("lam_t", [10.0, 20.0])
def test_mo15_residual_quantities_far_out(models, lam_t):
    # Fbar_t(z, z) = exp(-c (e^{lam z} - 1)) with c = xi e^{lam t}; the product of
    # the residual margins and margin 1 alone have the same form with c = 2 xi_1 e^{lam t}
    # and c = xi_1 e^{lam t} (xi_i = xi (1 - alpha_i), gamma_i = lam = 1).  Each integrates
    # to e^c E_1(c) / lam, down to 1e-9 at lam t = 20, where h(e^-tau) underflows.
    m = models["mo15"]
    t = lam_t / m.lam
    xi, xi1 = m.generator.xi, m.generator.xi * (1.0 - m.core.alpha1)
    assert residual_joint_annuity(m, t) == pytest.approx(_exp_e1(xi * math.exp(lam_t)) / m.lam, rel=1e-9)
    assert residual_independent_annuity(m, t) == pytest.approx(_exp_e1(2 * xi1 * math.exp(lam_t)) / m.lam, rel=1e-9)
    assert mean_excess(m, 1, t) == pytest.approx(_exp_e1(xi1 * math.exp(lam_t)) / m.lam, rel=1e-9)


@pytest.mark.parametrize(
    "name,lam_t,expect",
    [
        # 30-digit mpmath integrals of h(Gbar_1(z)) h(Gbar_2(z)) from t to infinity
        ("mixing_gamma", 0.0, 35.487349634607993),
        ("fig1_left", 20.0, 3.6582162969356709e-11),
        ("fig1_right", 20.0, 7.3671709615319757e-9),
    ],
)
def test_independent_annuity_pinned(models, name, lam_t, expect):
    m = models[name]
    assert independent_annuity(m, lam_t / m.lam) == pytest.approx(expect, rel=1e-10)


def test_a_half_line_integral_that_fails_on_a_light_tail_raises(models, monkeypatch):
    # mo15's survival underflows at both probe points, so the failure is no heavy tail: it is raised, with its
    # estimate, under the name of the integral
    def failing(f, tol, rate):
        raise ConvergenceError("quadrature did not converge", estimate=1.25)

    monkeypatch.setattr(model_module, "integrate_upper", failing)
    message = r"^joint annuity integral did not converge \(heavy-tailed survival\?\)$"
    with pytest.raises(ConvergenceError, match=message) as info:
        joint_annuity(models["mo15"], 0.0)
    assert info.value.estimate == 1.25
    # the same failure from the model's own integral, named as the annuity's is
    message = r"^mean excess integral did not converge \(heavy-tailed survival\?\)$"
    with pytest.raises(ConvergenceError, match=message) as info:
        mean_excess(models["mo15"], 1, 0.0)
    assert info.value.estimate == 1.25


def test_a_horizon_integral_that_fails_raises_without_asking_the_tail(models, monkeypatch):
    # pareto_mu's tail is heavy, so a consulted probe would turn the failure into +inf; over [0, horizon) it is
    # raised, with its estimate, under the name of the integral
    def failing(f, tol, rate=None):
        raise ConvergenceError("quadrature did not converge", estimate=2.5)

    probes = []
    heavy_tailed = model_module._heavy_tailed
    monkeypatch.setattr(model_module, "_heavy_tailed", lambda m, surv: probes.append(m) or heavy_tailed(m, surv))
    monkeypatch.setattr(model_module, "integrate_unit", failing)
    m = models["pareto_mu"]
    message = r"^life expectancy integral did not converge \(heavy-tailed survival\?\)$"
    with pytest.raises(ConvergenceError, match=message) as info:
        life_expectancy(m, 1, 100.0)
    assert info.value.estimate == 2.5
    assert probes == []
    # the count sees a probe: the same failure over [0, inf) asks it once, and reads the heavy tail as +inf
    monkeypatch.setattr(model_module, "integrate_upper", failing)
    assert life_expectancy(m, 1) == math.inf
    assert probes == [m]

import math

import numpy as np
import pytest

from bivlmp.core import core_copula, mu_core, singular_mass
from bivlmp.errors import DomainError, ValidationError
from bivlmp.generators import make_generator
from bivlmp.model import (
    Mo15Params,
    Model,
    copula_t,
    copula_t_diag_log,
    fbar,
    fbar_log,
    fbar_marginal,
    fbar_residual,
    generalized_weak_residual,
    mean_excess,
    mo15_bridge,
    residual_marginal,
    singular_line_survival,
)
from oracles import gbar_eval

MU = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)


def test_fbar_is_generator_of_core(models):
    m = models["mixing_gamma"]
    x, y = 7.0, 3.0
    assert fbar(m, x, y) == pytest.approx(m.generator.h(gbar_eval(m.core, x, y)), rel=1e-13)


def test_identity_model_reduces_to_core(models):
    m = models["identity_mu"]
    xs = np.linspace(0.0, 25.0, 7)
    assert np.allclose(fbar(m, xs, xs[::-1]), gbar_eval(m.core, xs, xs[::-1]), rtol=1e-14)


def test_residual_definition(models):
    for name in ("identity_mu", "mixing_sibuya", "mo15", "fig1_left"):
        m = models[name]
        t = 4.0 / m.lam / 10.0
        x = np.linspace(0.0, 2.0 / m.lam, 6)
        lhs = fbar_residual(m, t, x, x[::-1])
        rhs = np.asarray(fbar(m, x + t, x[::-1] + t)) / fbar(m, t, t)
        assert np.allclose(lhs, rhs, rtol=1e-10), name


def test_residual_semigroup(models):
    m = models["mixing_logseries"]
    t, s = 3.0, 5.0
    x = np.linspace(0.0, 20.0, 6)
    once = fbar_residual(m, t + s, x, x[::-1])
    # conditioning on survival to t then to s more equals conditioning to t+s
    num = fbar_residual(m, t, x + s, x[::-1] + s)
    den = fbar_residual(m, t, s, s)
    assert np.allclose(once, num / den, rtol=1e-10)


def test_generalized_weak_residual_zero(models):
    for name, m in models.items():
        x = np.linspace(0.0, 3.0 / m.lam, 8)
        X, Y = np.meshgrid(x, x)
        worst = 0.0
        for t in (0.0, 0.5 / m.lam, 2.0 / m.lam):
            res = generalized_weak_residual(m, t, X, Y)
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst < 1e-10, name


def test_residual_marginal_consistency(models):
    m = models["mixing_stable"]
    t = 6.0
    x = np.linspace(0.0, 20.0, 6)
    assert np.allclose(residual_marginal(m, 1, t, x), fbar_residual(m, t, x, 0.0), rtol=1e-12)
    assert np.allclose(residual_marginal(m, 2, t, x), fbar_residual(m, t, 0.0, x), rtol=1e-12)
    assert np.allclose(residual_marginal(m, 1, 0.0, x), fbar_marginal(m, 1, x), rtol=1e-12)


def test_copula_t_margins(models):
    u = np.linspace(0.0, 1.0, 11)
    for name in ("identity_mu", "mixing_gamma", "fig1_right"):
        m = models[name]
        for t in (0.0, 10.0):
            assert np.allclose(copula_t(m, t, u, 1.0), u, atol=1e-9), (name, t)
            assert np.allclose(copula_t(m, t, 1.0, u), u, atol=1e-9), (name, t)
            assert np.allclose(copula_t(m, t, u, 0.0), 0.0, atol=1e-12), (name, t)


def test_copula_t_rejects_out_of_range(models):
    with pytest.raises(DomainError):
        copula_t(models["identity_mu"], 0.0, 1.5, 0.5)


@pytest.mark.parametrize("name, lu, lu_ok", [("mixing_gamma", -2000.0, -1000.0), ("pareto_mu", -800.0, -700.0)])
def test_copula_t_diag_log_refuses_an_overflowed_inverse(models, name, lu, lu_ok):
    # ln h_t^-1(u) overflows past ln u ~ -1415 (gamma mixing) and ~ -710 (pareto_mu);
    # C_t(u, u) is not 0 there, so -inf would be a silently wrong value
    m = models[name]
    with pytest.raises(DomainError):
        copula_t_diag_log(m, 0.0, lu)
    assert math.isfinite(copula_t_diag_log(m, 0.0, lu_ok))
    assert copula_t_diag_log(m, 0.0, -math.inf) == -math.inf


def test_singular_line_survival_known_value(models):
    m = models["identity_mu"]
    assert singular_mass(m.core) == pytest.approx(0.5, abs=1e-14)
    x = math.log(2.0) / m.lam
    assert singular_line_survival(m, 0.0, x) == pytest.approx(0.25, rel=1e-12)


def test_singular_line_survival_on_arrays(models):
    x = np.array([[0.0, 1.0], [2.0, 30.0]])
    m = models["identity_mu"]
    got = singular_line_survival(m, 1.0, x)
    assert got.shape == x.shape
    assert np.array_equal(got, [[singular_line_survival(m, 1.0, float(v)) for v in row] for row in x])
    with pytest.raises(DomainError):
        singular_line_survival(m, 1.0, np.array([1.0, -1.0]))
    # no mass on the diagonal: zeros of the shape of x
    m0 = mo15_bridge(Mo15Params(lam=2.0, lam1=1.5, lam2=1.5, xi=3.0, xi1=1.5, xi2=2.5))
    assert singular_mass(m0.core) == 0.0
    zeros = singular_line_survival(m0, 1.0, x)
    assert isinstance(zeros, np.ndarray) and zeros.shape == x.shape and not zeros.any()
    assert type(singular_line_survival(m0, 1.0, 2.0)) is float
    with pytest.raises(DomainError):
        singular_line_survival(m0, math.nan, 2.0)


def test_mean_excess_finite_and_infinite(models):
    e = mean_excess(models["identity_mu"], 1, 0.0)
    assert e == pytest.approx(-math.log(0.7) / (0.1 * 0.3), rel=1e-8)
    assert mean_excess(models["pareto_mu"], 1, 0.0) == math.inf
    assert mean_excess(models["pareto_mu"], 1, 20.0) == math.inf


def test_tau_rescales_time(models):
    m = models["mixing_gamma"]
    assert m.tau(10.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        m.tau(-1.0)


# -- bivariate Gompertz bridge ----------------------------------------------


Q = Mo15Params(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=1.2, xi2=1.2)


def mo15_survival(q: Mo15Params, x, y):
    """The piecewise closed form of the bivariate Gompertz survival function.

    For x >= y:
        exp(-xi (e^{lam y} - 1) - e^{lam y} xi1 (e^{lam1 (x-y)} - 1)),
    symmetric (with xi2, lam2) for x < y.  Serves as the independent oracle for
    the h(Gbar) composition produced by the bridge.
    """
    mn = np.minimum(x, y)
    xi_side = np.where(x >= y, q.xi1, q.xi2)
    lam_side = np.where(x >= y, q.lam1, q.lam2)
    e = np.exp(q.lam * mn)
    return np.exp(-q.xi * (e - 1.0) - e * xi_side * np.expm1(lam_side * np.abs(x - y)))


def test_mo15_bridge_matches_piecewise_closed_form():
    m = mo15_bridge(Q)
    xs = np.linspace(0.0, 4.0, 17)
    X, Y = np.meshgrid(xs, xs)
    assert np.allclose(fbar(m, X, Y), mo15_survival(Q, X, Y), atol=1e-13)


def test_mo15_residual_at_large_age():
    # at lam t = 6, h(e^-tau) = exp(-2 (e^6 - 1)) underflows; the residual
    # survival is the ratio of the closed form at 40 digits
    mp = pytest.importorskip("mpmath")
    m = mo15_bridge(Q)
    with mp.workdps(40):
        def surv(x, y):
            x, y = mp.mpf(x), mp.mpf(y)
            e = mp.exp(min(x, y))
            return mp.exp(-2 * (e - 1) - e * mp.mpf("1.2") * mp.expm1(abs(x - y)))

        expect = float(surv(6.5, 6.3) / surv(6, 6))
        margin = float(surv(6.5, 6) / surv(6, 6))
    assert fbar_residual(m, 6.0, 0.5, 0.3) == pytest.approx(expect, rel=1e-11)
    assert residual_marginal(m, 1, 6.0, 0.5) == pytest.approx(margin, rel=1e-11)
    assert residual_marginal(m, 2, 6.0, 0.5) == pytest.approx(margin, rel=1e-11)


def test_mo15_constraints_enforced():
    with pytest.raises(ValidationError):
        Mo15Params(lam=0.5, lam1=1.0, lam2=0.4, xi=2.0, xi1=1.0, xi2=1.0)
    with pytest.raises(ValidationError):
        Mo15Params(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=0.5, xi2=0.5)
    with pytest.raises(ValidationError):
        mo15_bridge(Mo15Params(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=2.0, xi2=1.5))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("name", ["lam", "lam1", "lam2", "xi", "xi1", "xi2"])
def test_mo15_params_reject_non_finite(name, value):
    # every comparison is false for NaN, so each check is written to fail it
    with pytest.raises(ValidationError):
        Mo15Params(**{**{field: getattr(Q, field) for field in Mo15Params.__slots__}, name: value})


def test_mo15_generator_needs_xi_at_least_one():
    with pytest.raises(ValidationError):
        Model(generator=make_generator("mo15", xi=0.5), core=MU)


# -- ages enter as -tau: values that forming e^-tau x got wrong --------------


def test_mo15_copula_keeps_its_t0_value_at_large_age(models):
    m = models["mo15"]
    assert copula_t(m, 0.0, 0.3, 0.4) == pytest.approx(0.16286505699569437, rel=1e-15)
    for t in (40.0, 300.0, 1000.0):
        assert copula_t(m, t, 0.3, 0.4) == pytest.approx(0.16286505699569437, rel=1e-13), t


def test_pareto_copula_below_the_inverse_underflow():
    # h(x) = 1/(1 - ln x), h^-1(u) = exp(1 - 1/u) = e^-999 at u = 1e-3; the MU core closed form at 40 digits
    mp = pytest.importorskip("mpmath")
    m = Model(generator=make_generator("pareto", a=1.0, mu=1.0), core=MU)
    with mp.workdps(40):
        a = mp.exp(1 - 1 / mp.mpf("1e-3"))
        b = mp.exp(1 - 1 / mp.mpf("0.5"))
        big_a, big_b = (1 / a - mp.mpf("0.3")) / mp.mpf("0.7"), (1 / b - mp.mpf("0.2")) / mp.mpf("0.8")
        c = 1 / (mp.mpf("0.2") * big_a + mp.mpf("0.3") * big_b + mp.mpf("0.5") * max(big_a, big_b))
        expect = float(1 / (1 - mp.log(c)))
    assert copula_t(m, 0.0, 1e-3, 0.5) == pytest.approx(expect, rel=1e-13)
    assert copula_t(m, 0.0, 1e-3, 0.5) == pytest.approx(1e-3, rel=1e-3)


def test_residual_functions_at_ages_past_exp_underflow(models):
    mo, ident = models["mo15"], models["identity_mu"]
    assert generalized_weak_residual(mo, 40.0, 0.5, 0.3) == pytest.approx(0.0, abs=1e-15)
    # the identity generator is memoryless: every age-t function keeps its t = 0 value
    assert fbar_residual(ident, 8000.0, 0.5, 0.3) == pytest.approx(0.9569138737702609, rel=1e-12)
    assert fbar_log(mo, 6.0, 6.0) == pytest.approx(-2.0 * math.expm1(6.0), rel=1e-15)
    assert fbar_log(ident, 8000.0, 8000.0) == pytest.approx(-800.0, rel=1e-15)
    t = 800.0 / ident.lam
    assert copula_t(ident, t, 0.3, 0.4) == pytest.approx(core_copula(ident.core, 0.3, 0.4), rel=1e-12)
    assert singular_line_survival(ident, t, 2.0) == pytest.approx(0.5 * math.exp(-0.2), rel=1e-12)
    assert generalized_weak_residual(ident, t, 0.5, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_mo15_past_the_overflow_of_its_age_scale(models):
    # xi e^{lambda t} overflows past lambda t = 709.1: the residual survival is still exact, while
    # the quantities that need the scale itself raise a named error
    m = models["mo15"]
    assert fbar_residual(m, 800.0, 0.0, 0.0) == 1.0
    assert fbar_residual(m, 800.0, 0.5, 0.3) == 0.0
    with pytest.raises(DomainError):
        mean_excess(m, 1, 800.0)
    with pytest.raises(DomainError):
        generalized_weak_residual(m, 800.0, 0.5, 0.3)

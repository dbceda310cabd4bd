import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bivlmp.config import builtin_model
from bivlmp.core import (
    CoreParams,
    _marginal_log,
    core_copula,
    gbar_log,
    marginal_density,
    marginal_quantile,
    marginal_quantile_log,
    marginal_survival,
    mu_core,
    singular_mass,
    singular_mass_raw,
    weak_lmp_residual,
)
from bivlmp.errors import DomainError, ValidationError
from oracles import gbar_eval

MU = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
NON_MU = CoreParams(lam=0.12, alpha=1.0, gamma1=0.1, gamma2=0.08, alpha1=0.3, alpha2=0.25)


# -- validation -------------------------------------------------------------


def test_mu_core_is_valid_and_flagged():
    assert all(margin >= -MU.slack for margin in MU.margins.values())
    assert MU.is_mu


def test_lambda_below_lower_bound_rejected():
    with pytest.raises(ValidationError, match="lower bound"):
        CoreParams(lam=0.05, alpha=1.0, gamma1=0.1, gamma2=0.1, alpha1=0.3, alpha2=0.2)


def test_lambda_above_upper_bound_rejected():
    with pytest.raises(ValidationError, match="upper bound"):
        CoreParams(lam=0.5, alpha=1.0, gamma1=0.1, gamma2=0.1, alpha1=0.3, alpha2=0.2)


def test_validation_report_margins_present():
    assert {"lower_bound", "upper_bound", "singular_mass"} <= set(MU.margins)


# -- survival surface and marginals ----------------------------------------


def test_diagonal_is_exponential():
    ts = np.linspace(0.0, 30.0, 7)
    assert np.allclose(gbar_eval(MU, ts, ts), np.exp(-MU.lam * ts), rtol=1e-13)


def test_marginal_closed_form():
    # Gbar_1(z) = (alpha1 + (1 - alpha1) e^{gamma z})^{-1/alpha}
    z = 8.873
    expect = 1.0 / (0.3 + 0.7 * math.exp(0.1 * z))
    assert marginal_survival(MU, 1, z) == pytest.approx(expect, rel=1e-12)
    assert marginal_survival(MU, 1, z) == pytest.approx(0.5, abs=2e-5)
    assert gbar_eval(MU, z, 0.0) == pytest.approx(expect, rel=1e-12)


def test_marginal_quantile_round_trip():
    us = np.linspace(0.05, 0.95, 19)
    for i in (1, 2):
        zs = marginal_quantile(MU, i, us)
        assert np.allclose(marginal_survival(MU, i, zs), us, atol=1e-10)
    assert marginal_quantile(MU, 1, 0.5) == pytest.approx(10.0 * math.log(1.7 / 0.7), rel=1e-10)


def test_marginal_quantile_log_keeps_digits_at_both_ends():
    # alpha = 1, gamma = 0.1, alpha1 = 0.3: z = 10 ln(1 + expm1(-lu) / 0.7)
    assert marginal_quantile_log(MU, 1, -1e-12) == pytest.approx(1e-11 / 0.7, rel=1e-9)
    lu = np.array([-699.0, -701.0, -1e4])
    assert np.allclose(marginal_quantile_log(MU, 1, lu), 10.0 * (-lu - math.log(0.7)), rtol=1e-14)
    us = np.linspace(0.05, 0.95, 19)
    assert np.allclose(marginal_quantile_log(NON_MU, 2, np.log(us)), marginal_quantile(NON_MU, 2, us), rtol=1e-13)
    with pytest.raises(DomainError):
        marginal_quantile_log(MU, 1, 1e-3)


def test_marginal_density_matches_finite_differences():
    z = np.linspace(0.5, 20.0, 9)
    eps = 1e-6
    for i in (1, 2):
        fd = (marginal_survival(NON_MU, i, z - eps) - marginal_survival(NON_MU, i, z + eps)) / (2 * eps)
        assert np.allclose(marginal_density(NON_MU, i, z), fd, rtol=1e-6)


def test_marginal_density_past_the_overflow_of_the_exponential():
    # e^{gamma z} overflows past gamma z = 709.8; the density is hazard x survival, not inf x 0 = NaN
    mpmath = pytest.importorskip("mpmath")
    p = builtin_model("mixing_gamma").core
    for i, (gamma, aw) in ((1, (p.gamma1, p.alpha1)), (2, (p.gamma2, p.alpha2))):
        for z in (720.0 / gamma, 2000.0, 3684.8):
            with mpmath.workdps(50):
                g, a, al = mpmath.mpf(gamma), mpmath.mpf(aw), mpmath.mpf(p.alpha)
                e = mpmath.exp(g * z)
                exact = g * (1 - a) / al * e * (a + (1 - a) * e) ** (-1 / al - 1)
            assert marginal_density(p, i, z) == pytest.approx(float(exact), rel=1e-13)
        assert marginal_density(p, i, 1e4) == 0.0  # below the smallest double
        assert marginal_density(p, i, np.inf) == 0.0


# -- singular component -----------------------------------------------------


def test_singular_mass_mu_closed_form():
    assert singular_mass(MU) == pytest.approx(1.0 - 0.3 - 0.2, abs=1e-14)


def test_singular_mass_formula_non_mu():
    p = NON_MU
    expect = ((1 - p.alpha1) * p.gamma1 + (1 - p.alpha2) * p.gamma2) / (p.alpha * p.lam) - 1.0
    assert singular_mass_raw(p) == pytest.approx(expect, abs=1e-15)


def test_singular_mass_clamps_within_slack():
    p = CoreParams(
        lam=0.100001, alpha=1.0, gamma1=0.1, gamma2=0.1, alpha1=0.3, alpha2=0.7, slack=1e-4
    )
    with pytest.warns(RuntimeWarning):
        assert singular_mass(p) == 0.0


# -- copula -----------------------------------------------------------------


def test_copula_known_value():
    p = mu_core(alpha=1.0, gamma=0.1, alpha1=0.25, alpha2=0.25)
    assert core_copula(p, 0.5, 0.5) == pytest.approx(3.0 / 7.0, abs=1e-6)


def core_copula_generic(p, u, v):
    """The composition route Gbar(Gbar1^-1(u), Gbar2^-1(v)); oracle for the closed form."""
    x = marginal_quantile(p, 1, np.clip(u, 1e-300, 1.0))
    y = marginal_quantile(p, 2, np.clip(v, 1e-300, 1.0))
    return float(np.exp(gbar_log(p, x, y)))


def test_copula_closed_matches_generic():
    rng = np.random.default_rng(7)
    u, v = rng.uniform(0.02, 0.98, 50), rng.uniform(0.02, 0.98, 50)
    for p in (MU, NON_MU):
        closed = np.array([core_copula(p, a, b) for a, b in zip(u, v)])
        generic = np.array([core_copula_generic(p, a, b) for a, b in zip(u, v)])
        assert np.allclose(closed, generic, atol=1e-9)


def test_copula_margins():
    u = np.linspace(0.0, 1.0, 11)
    assert np.allclose(core_copula(MU, u, 1.0), u, atol=1e-12)
    assert np.allclose(core_copula(MU, 1.0, u), u, atol=1e-12)
    assert np.allclose(core_copula(MU, u, 0.0), 0.0, atol=1e-12)


# -- functional equation ----------------------------------------------------


def test_weak_lmp_residual_zero_on_grid():
    x = np.linspace(0.0, 30.0, 12)
    X, Y = np.meshgrid(x, x)
    for t in (0.0, 1.0, 7.0, 20.0):
        res = weak_lmp_residual(MU, X, Y, t)
        assert np.max(np.abs(res)) < 1e-12


core_params_strategy = st.tuples(
    st.floats(0.02, 2.0),   # gamma1
    st.floats(0.02, 2.0),   # gamma2
    st.floats(0.05, 0.95),  # alpha1
    st.floats(0.05, 0.95),  # alpha2
    st.floats(0.3, 3.0),    # alpha
    st.floats(0.0, 1.0),    # position of lambda within the admissible window
)
# _make_core rejects draws whose admissible window is empty: about 3 in 4 of
# them, which trips hypothesis's filter_too_much health check on some seeds
CORE_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


def _make_core(raw):
    g1, g2, a1, a2, alpha, frac = raw
    lo = max(g1, g2) / alpha
    hi = (g1 * (1 - a1) + g2 * (1 - a2)) / alpha
    assume(hi > lo * (1 + 1e-9))
    lam = lo + frac * (hi - lo)
    return CoreParams(lam=lam, alpha=alpha, gamma1=g1, gamma2=g2, alpha1=a1, alpha2=a2, slack=1e-7)


@given(raw=core_params_strategy, t=st.floats(0.0, 10.0))
@settings(max_examples=60, **CORE_SETTINGS)
def test_weak_lmp_residual_property(raw, t):
    p = _make_core(raw)
    x = np.array([0.0, 0.4, 1.7, 6.0]) / p.lam
    X, Y = np.meshgrid(x, x)
    res = weak_lmp_residual(p, X, Y, t / p.lam)
    assert np.max(np.abs(res)) < 1e-10


@given(raw=core_params_strategy)
@settings(max_examples=40, **CORE_SETTINGS)
def test_core_two_increasing_property(raw):
    p = _make_core(raw)
    rng = np.random.default_rng(3)
    scale = 3.0 / p.lam
    a = rng.uniform(0.0, scale, (200, 2))
    b = a + rng.uniform(0.0, scale, (200, 2))
    mass = (
        gbar_eval(p, a[:, 0], a[:, 1])
        - gbar_eval(p, b[:, 0], a[:, 1])
        - gbar_eval(p, a[:, 0], b[:, 1])
        + gbar_eval(p, b[:, 0], b[:, 1])
    )
    assert np.min(mass) > -1e-9


@st.composite
def cores_at_the_weight_edge(draw):
    """Admissible cores with one weight up to 1 - 2^-53, the other small enough for the lambda window to hold."""
    a_big = draw(st.one_of(st.just(1.0 - 2.0**-53), st.floats(0.0, 1.0 - 2.0**-53, exclude_min=True)))
    g_big = draw(st.floats(1e-3, 1e2))
    g_other = g_big * draw(st.floats(max(a_big, 1e-2), 1e2))  # at least a_big g_big: room for the other weight
    # the window g_big (1 - a_big) + g_other (1 - a_other) >= max(g_big, g_other) bounds the other weight
    room = (g_big * (1.0 - a_big) - max(g_big - g_other, 0.0)) / g_other
    a_other = room * draw(st.floats(0.0, 1.0, exclude_min=True))
    assume(0.0 < a_other < 1.0)
    alpha = draw(st.floats(0.1, 10.0))
    lower, upper = max(g_big, g_other) / alpha, (g_big * (1.0 - a_big) + g_other * (1.0 - a_other)) / alpha
    lam = lower + draw(st.floats(0.0, 1.0)) * max(upper - lower, 0.0)
    g1, g2, a1, a2 = (g_big, g_other, a_big, a_other) if draw(st.booleans()) else (g_other, g_big, a_other, a_big)
    return CoreParams(lam=lam, alpha=alpha, gamma1=g1, gamma2=g2, alpha1=a1, alpha2=a2)


LIFETIMES = st.lists(st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-300, 1e300)), min_size=1, max_size=8)


@given(p=cores_at_the_weight_edge(), x=LIFETIMES, y=LIFETIMES)
@settings(max_examples=100, derandomize=True, **CORE_SETTINGS)
def test_log_survivals_are_never_above_0(p, x, y):
    # the kernels that take ln Gbar and ln Gbar_i (h's log formulas, the age shifts) rest on this: none clamps it
    X, Y = np.meshgrid(np.array(x), np.array(y))
    with np.errstate(all="ignore"):
        logs = [gbar_log.kernel(p, X, Y), gbar_log.kernel(p, Y, X), _marginal_log(p, 1, X), _marginal_log(p, 2, X)]
    for k, log in enumerate(logs):
        assert np.all(log <= 0.0), k  # NaN fails it too

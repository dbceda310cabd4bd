"""Properties of the age-t functions over lambda t in [0, 1000] on every distribution config.

weibull_mu solves the functional equation but is not a distribution
(notes/decisions.md), so it has no copula to check here.  fig1_left holds the
paper's rounded parameters; its core is not 2-increasing within about 3e-4
of (1, 1), so its checks leave that corner out (notes/decisions.md).
power_scaled_gompertz is gompertz(xi=1.5, mu=2) written as a power-scaled
gompertz(xi=1.5, mu=1) on a MU core: it checks that the wrapper carries its
base's age-t forms, which no built-in does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivlmp.config import builtin_models
from bivlmp.core import mu_core
from bivlmp.dependence import kendall_tau
from bivlmp.errors import DomainError
from bivlmp.generators import make_generator, power_scaled
from bivlmp.model import Model, copula_t, fbar_log, fbar_residual, generalized_weak_residual, residual_marginal

MODELS = builtin_models()
MODELS["power_scaled_gompertz"] = Model(
    generator=power_scaled(make_generator("gompertz", xi=1.5, mu=1.0), 2.0),
    core=mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2),
)
DISTRIBUTIONS = sorted(name for name in MODELS if name != "weibull_mu")
SWEEP = settings(max_examples=50, deadline=None)
AGES = st.floats(0.0, 1000.0)  # lambda t
UNIT = st.floats(0.0, 1.0)


def _near_fig1_left_corner(name, *coords):
    return name == "fig1_left" and min(coords) > 1.0 - 1e-3


@pytest.mark.parametrize("name", DISTRIBUTIONS)
@SWEEP
@given(lt=AGES, u=UNIT, v=UNIT)
def test_copula_within_frechet_bounds(name, lt, u, v):
    m = MODELS[name]
    c = copula_t(m, lt / m.lam, u, v)
    assert c <= min(u, v) * (1.0 + 1e-12)
    if not _near_fig1_left_corner(name, u, v):
        assert c >= max(u + v - 1.0, 0.0) - 1e-12


@pytest.mark.parametrize("name", DISTRIBUTIONS)
@SWEEP
@given(lt=AGES, us=st.lists(UNIT, min_size=2, max_size=2), vs=st.lists(UNIT, min_size=2, max_size=2))
def test_copula_rectangles_have_nonnegative_mass(name, lt, us, vs):
    m = MODELS[name]
    (u1, u2), (v1, v2) = sorted(us), sorted(vs)
    if _near_fig1_left_corner(name, u2, v2):
        return
    c = copula_t(m, lt / m.lam, np.array([u1, u1, u2, u2]), np.array([v1, v2, v1, v2]))
    assert c[3] - c[2] - c[1] + c[0] >= -1e-12


@pytest.mark.parametrize("name", DISTRIBUTIONS)
@SWEEP
@given(lt=AGES, x=st.floats(0.0, 100.0), y=st.floats(0.0, 100.0))
def test_residual_survival_is_a_probability(name, lt, x, y):
    m = MODELS[name]
    t = lt / m.lam
    for s in (fbar_residual(m, t, x / m.lam, y / m.lam), residual_marginal(m, 1, t, x / m.lam),
              residual_marginal(m, 2, t, y / m.lam)):
        assert 0.0 <= s <= 1.0


@pytest.mark.parametrize("name", DISTRIBUTIONS)
@SWEEP
@given(lt=AGES, x=st.floats(0.05, 5.0), y=st.floats(0.05, 5.0))
def test_functional_equation_residual(name, lt, x, y):
    m = MODELS[name]
    t = lt / m.lam
    if fbar_log(m, t, t) == -math.inf:
        # ln Fbar(t, t) is not a double: mo15's -xi expm1(lambda t) past lambda t = 709.1, and
        # power_scaled_gompertz's -1.5 expm1(2 lambda t) past lambda t = 354.7
        assert name in ("mo15", "power_scaled_gompertz")
        with pytest.raises(DomainError):
            generalized_weak_residual(m, t, x / m.lam, y / m.lam)
        return
    assert abs(generalized_weak_residual(m, t, x / m.lam, y / m.lam)) <= 1e-10


MO15 = MODELS["mo15"]
TAU_0 = kendall_tau(MO15, 0.0)


@SWEEP
@given(lt=AGES, u=UNIT, v=UNIT)
def test_mo15_copula_is_age_invariant(lt, u, v):
    # the bivariate Gompertz residual vector keeps its copula at every age
    c0 = copula_t(MO15, 0.0, u, v)
    assert copula_t(MO15, lt / MO15.lam, u, v) == pytest.approx(c0, rel=1e-11, abs=1e-300)


@SWEEP
@given(lt=AGES)
def test_mo15_kendall_tau_is_age_invariant(lt):
    assert kendall_tau(MO15, lt / MO15.lam) == pytest.approx(TAU_0, rel=1e-12)

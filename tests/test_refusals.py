"""Refusals: each inadmissible input raises its named error, with a message that says why.

Every row is a branch that the rest of the suite does not reach; the NaN
refusals of the array functions live in tests/test_contract.py.
"""

import math

import numpy as np
import pytest

from bivlmp import core, dependence, model, numerics, pricing, sampler
from bivlmp.config import builtin_models
from bivlmp.core import CoreParams, mu_core
from bivlmp.errors import DomainError, ValidationError
from bivlmp.generators import MixingLaw, generator_from_survival, make_generator

MODELS = builtin_models()
M = MODELS["identity_mu"]
P = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
MU = dict(alpha=1.0, gamma1=0.1, gamma2=0.1, alpha1=0.3, alpha2=0.2)  # P without its lam
GAMMA = MixingLaw("gamma", {"a": 2.0})


# (name, error, a fragment of its message, the call)
REFUSALS = [
    ("CoreParams.lam_nan", ValidationError, "finite", lambda: CoreParams(lam=math.nan, **MU)),
    ("CoreParams.lam_negative", ValidationError, "positive", lambda: CoreParams(lam=-1.0, **MU)),
    ("CoreParams.alpha1_one", ValidationError, "open interval",
     lambda: CoreParams(lam=0.1, **{**MU, "alpha1": 1.0})),
    ("CoreParams.slack_negative", ValidationError, "slack", lambda: CoreParams(lam=0.1, **MU, slack=-1.0)),
    ("CoreParams.singular_mass_negative", ValidationError, "negative beyond slack",
     lambda: CoreParams(lam=0.5, **MU)),
    ("CoreParams.singular_mass_above_one", ValidationError, "exceeds 1", lambda: CoreParams(lam=0.05, **MU)),
    ("polynomial.one_coefficient", ValidationError, "two coefficients",
     lambda: make_generator("polynomial", coeffs=[1.0])),
    ("polynomial.constant_term", ValidationError, "zero constant term",
     lambda: make_generator("polynomial", coeffs=[0.5, 0.5])),
    ("polynomial.not_increasing", ValidationError, "not strictly increasing",
     lambda: make_generator("polynomial", coeffs=[0.0, 3.0, -2.0])),
    ("generator_from_survival.not_one_at_zero", ValidationError, "survival\\(0\\) = 1",
     lambda: generator_from_survival(lambda z: 0.5 * math.exp(-z))),
    ("generator_from_survival.increasing", ValidationError, "not decreasing",
     lambda: generator_from_survival(lambda z: 1.0 + z)),
    ("SampleBatch.atom_off_diagonal", ValidationError, "x == y",
     lambda: sampler.SampleBatch(x=np.array([1.0]), y=np.array([2.0]), atom=np.array([True]), seed=0)),
    ("core.marginal_survival.margin", DomainError, "margin index", lambda: core.marginal_survival(P, 3, 1.0)),
    ("core.marginal_survival.margin_0", DomainError, "margin index", lambda: core.marginal_survival(P, 0, 1.0)),
    ("core.marginal_density.margin_0", DomainError, "margin index", lambda: core.marginal_density(P, 0, 1.0)),
    ("core.marginal_density.margin_3", DomainError, "margin index", lambda: core.marginal_density(P, 3, 1.0)),
    ("core.marginal_hazard.margin_0", DomainError, "margin index", lambda: core.marginal_hazard(P, 0, 1.0)),
    ("core.marginal_hazard.margin_3", DomainError, "margin index", lambda: core.marginal_hazard(P, 3, 1.0)),
    ("core.marginal_quantile.margin_0", DomainError, "margin index", lambda: core.marginal_quantile(P, 0, 0.5)),
    ("core.marginal_quantile.margin_3", DomainError, "margin index", lambda: core.marginal_quantile(P, 3, 0.5)),
    ("core.marginal_quantile_log.margin_0", DomainError, "margin index",
     lambda: core.marginal_quantile_log(P, 0, -0.5)),
    ("core.marginal_quantile_log.margin_3", DomainError, "margin index",
     lambda: core.marginal_quantile_log(P, 3, -0.5)),
    ("model.fbar_marginal.margin_0", DomainError, "margin index", lambda: model.fbar_marginal(M, 0, 1.0)),
    ("model.fbar_marginal.margin_3", DomainError, "margin index", lambda: model.fbar_marginal(M, 3, 1.0)),
    ("model.residual_marginal.margin_0", DomainError, "margin index",
     lambda: model.residual_marginal(M, 0, 1.0, 1.0)),
    ("model.residual_marginal.margin_3", DomainError, "margin index",
     lambda: model.residual_marginal(M, 3, 1.0, 1.0)),
    ("model.mean_excess.margin", DomainError, "margin index", lambda: model.mean_excess(M, 3, 0.0)),
    ("model.mean_excess.margin_0", DomainError, "margin index", lambda: model.mean_excess(M, 0, 0.0)),
    ("pricing.life_expectancy.margin", DomainError, "margin index", lambda: pricing.life_expectancy(M, 3)),
    ("pricing.life_expectancy.margin_0", DomainError, "margin index", lambda: pricing.life_expectancy(M, 0)),
    ("dependence.j_integral_closed.margin", DomainError, "margin index",
     lambda: dependence.j_integral_closed(P, 3, -0.5)),
    ("dependence.j_integral_closed.margin_0", DomainError, "margin index",
     lambda: dependence.j_integral_closed(P, 0, -0.5)),
    ("dependence.j_integral_quadrature.margin_0", DomainError, "margin index",
     lambda: dependence.j_integral_quadrature(P, 0, -0.5)),
    ("dependence.j_integral_quadrature.margin_3", DomainError, "margin index",
     lambda: dependence.j_integral_quadrature(P, 3, -0.5)),
    ("dependence.kendall_function.source", DomainError, "unknown source",
     lambda: dependence.kendall_function(M, 0.0, source="bogus")),
    ("dependence.tail_numeric.which", DomainError, "lower' or 'upper",
     lambda: dependence.tail_numeric(M, 0.0, "middle")),
    ("dependence.empirical_kendall.one_point", DomainError, "at least two",
     lambda: dependence.empirical_kendall(
         sampler.SampleBatch(x=np.array([1.0]), y=np.array([2.0]), atom=np.array([False]), seed=0))),
    ("pricing.joint_annuity.horizon_zero", DomainError, "horizon must exceed the age t = 0",
     lambda: pricing.joint_annuity(M, 0.0, horizon=0.0)),
    ("pricing.joint_annuity.horizon_before_t", DomainError, "horizon must exceed the age t = 10",
     lambda: pricing.joint_annuity(M, 10.0, horizon=5.0)),
    ("sampler.sample_model.n_zero", DomainError, "at least 1", lambda: sampler.sample_model(M, 0, 1)),
    ("sampler.sample_mixing_shortcut.n_zero", DomainError, "at least 1",
     lambda: sampler.sample_mixing_shortcut(GAMMA, P, 0.1, 0, 1)),
    ("sampler.sample_mixing_shortcut.non_mu_core", DomainError, "gamma1 = gamma2",
     lambda: sampler.sample_mixing_shortcut(GAMMA, MODELS["fig1_left"].core, 0.1, 10, 1)),
    ("numerics.invert_monotone.not_bracketed", DomainError, "not bracketed",
     lambda: numerics.invert_monotone(lambda x: math.exp(-x), 2.0, 0.0, 1.0)),
]


@pytest.mark.parametrize("name,error,message,call", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusal_raises_its_named_error(name, error, message, call):
    with pytest.raises(error, match=message):
        call()

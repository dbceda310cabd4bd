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
from bivlmp.generators import MixingLaw, make_generator

MODELS = builtin_models()
M = MODELS["identity_mu"]
P = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
MU = dict(alpha=1.0, gamma1=0.1, gamma2=0.1, alpha1=0.3, alpha2=0.2)  # P without its lam
GAMMA = MixingLaw("gamma", {"a": 2.0})
GAMMA_MODEL = MODELS["mixing_gamma"]
FAST = model.Model(generator=M.generator, core=mu_core(alpha=1.0, gamma=4.0, alpha1=0.3, alpha2=0.2))  # lambda 4


# (name, error, a fragment of its message, the call)
REFUSALS = [
    # the refusal names the field lam as a config does, lambda
    ("CoreParams.lam_nan", ValidationError, "^core: lambda must lie in", lambda: CoreParams(lam=math.nan, **MU)),
    ("CoreParams.lam_negative", ValidationError, "^core: lambda must lie in", lambda: CoreParams(lam=-1.0, **MU)),
    ("CoreParams.alpha1_one", ValidationError, r"alpha1 must lie in \(0, 1\)",
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
    ("SampleBatch.atom_off_diagonal", ValidationError, "x == y",
     lambda: sampler.SampleBatch(x=np.array([1.0]), y=np.array([2.0]), atom=np.array([True]), seed=0)),
    ("SampleBatch.atom_nan", ValidationError, "x == y",  # NaN != NaN: a NaN atom row is off the diagonal
     lambda: sampler.SampleBatch(x=np.array([1.0, math.nan]), y=np.array([2.0, math.nan]),
                                 atom=np.array([False, True]), seed=0)),
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
    ("dependence.empirical_kendall.x_nan", DomainError, "finite", lambda: dependence.empirical_kendall(
        sampler.SampleBatch(x=np.array([1.0, math.nan, 2.0]), y=np.ones(3), atom=np.zeros(3, bool), seed=0))),
    ("dependence.empirical_kendall.y_inf", DomainError, "finite", lambda: dependence.empirical_kendall(
        sampler.SampleBatch(x=np.ones(3), y=np.array([1.0, math.inf, 2.0]), atom=np.zeros(3, bool), seed=0))),
    ("dependence.empirical_kendall.s_nan", DomainError, "s must not be NaN", lambda: dependence.empirical_kendall(
        sampler.SampleBatch(x=np.ones(3), y=np.ones(3), atom=np.zeros(3, bool), seed=0), (0.5, math.nan))),
    # a broadcast view: 2**31 points that take no memory
    ("dependence._concordance_counts.too_many_points", DomainError, r"fewer than 2\*\*31",
     lambda: dependence._concordance_counts(np.broadcast_to(0.0, (2**31,)), np.broadcast_to(0.0, (2**31,)))),
    ("core.mu_core.string_alpha", ValidationError, "alpha must lie in",
     lambda: mu_core(alpha="1", gamma=0.1, alpha1=0.3, alpha2=0.2)),
    ("core.mu_core.string_gamma", ValidationError, "gamma must lie in",
     lambda: mu_core(alpha=1.0, gamma="0.1", alpha1=0.3, alpha2=0.2)),
    ("sampler.sample_model.string_n", ValidationError, "n must be an integer", lambda: sampler.sample_model(M, "5", 1)),
    ("sampler.sample_model.float_n", ValidationError, "n must be an integer", lambda: sampler.sample_model(M, 5.5, 1)),
    ("sampler.sample_model.bool_n", ValidationError, "n must be an integer", lambda: sampler.sample_model(M, True, 1)),
    ("sampler.sample_model.string_seed", ValidationError, "seed must be an integer",
     lambda: sampler.sample_model(M, 5, "x")),
    ("sampler.sample_model.negative_seed", ValidationError, "seed must be an integer",
     lambda: sampler.sample_model(M, 5, -1)),
    ("pricing.joint_annuity.string_horizon", ValidationError, "horizon must lie in",
     lambda: pricing.joint_annuity(M, 0.0, horizon="10")),
    ("pricing.joint_annuity.horizon_zero", DomainError, "horizon must exceed the age t = 0",
     lambda: pricing.joint_annuity(M, 0.0, horizon=0.0)),
    ("pricing.joint_annuity.horizon_before_t", DomainError, "horizon must exceed the age t = 10",
     lambda: pricing.joint_annuity(M, 10.0, horizon=5.0)),
    ("sampler.sample_model.n_zero", DomainError, "at least 1", lambda: sampler.sample_model(M, 0, 1)),
    ("sampler.sample_mixing_shortcut.n_zero", DomainError, "at least 1",
     lambda: sampler.sample_mixing_shortcut(GAMMA, P, 0.1, 0, 1)),
    ("sampler.sample_mixing_shortcut.non_mu_core", DomainError, "gamma1 = gamma2",
     lambda: sampler.sample_mixing_shortcut(GAMMA, MODELS["fig1_left"].core, 0.1, 10, 1)),
    ("model.fbar_residual.lambda_t_overflows", DomainError, "lambda t",
     lambda: model.fbar_residual(FAST, 1e308, 1, 1)),
    ("model.copula_t.lambda_t_overflows", DomainError, "lambda t", lambda: model.copula_t(FAST, 1e308, 0.5, 0.5)),
    ("dependence.kendall_tau.lambda_t_overflows", DomainError, "lambda t",
     lambda: dependence.kendall_tau(FAST, 1e308)),
    ("polynomial.string_coefficient", ValidationError, "coeffs\\[0\\] must lie in",
     lambda: make_generator("polynomial", coeffs=["a", 1])),
    ("Mo15Params.string", ValidationError, "xi must lie in", lambda: model.Mo15Params(1, 1, 1, "2", 1, 1)),
    ("sampler.sample_mixing_shortcut.string_ratio", ValidationError, "ratio must lie in",
     lambda: sampler.sample_mixing_shortcut(GAMMA, P, "0.1", 10, 1)),
    ("MixingLaw.params_list", ValidationError, "must be a JSON object", lambda: MixingLaw("gamma", [1])),
    ("make_generator.mixing_law_number", ValidationError, "mixing law must be a JSON object",
     lambda: make_generator("mixing", law=5, ratio=0.1)),
    ("numerics.invert_monotone.not_bracketed", DomainError, "not bracketed",
     lambda: numerics.invert_monotone(lambda x: math.exp(-x), 2.0, 0.0, 1.0)),
    ("SampleBatch.lengths_differ", ValidationError, "1-D and of one length",
     lambda: sampler.SampleBatch(x=np.ones(3), y=np.ones(2), atom=np.zeros(3, bool), seed=0)),
    ("SampleBatch.two_dimensional", ValidationError, "1-D and of one length",
     lambda: sampler.SampleBatch(x=np.ones((2, 2)), y=np.ones((2, 2)), atom=np.zeros((2, 2), bool), seed=0)),
    ("dependence.kendall_function.string_s", DomainError, "s must be a real number, not 'a'",
     lambda: dependence.kendall_function(M, 0.0, ["a"])),
    ("dependence.empirical_kendall.string_s", DomainError, "s must be a real number, not 'a'",
     lambda: dependence.empirical_kendall(
         sampler.SampleBatch(x=np.arange(3.0), y=np.ones(3), atom=np.zeros(3, bool), seed=0), ["a"])),
    ("model.copula_t.array_t", ValidationError, "t must be a real number",
     lambda: model.copula_t(GAMMA_MODEL, np.array([0.0, 1.0]), 0.5, 0.5)),
    ("dependence.kendall_tau.array_t", ValidationError, "t must be a real number",
     lambda: dependence.kendall_tau(GAMMA_MODEL, np.array([0.0, 1.0]))),
    ("model.fbar_residual.list_t", ValidationError, "t must be a real number",
     lambda: model.fbar_residual(GAMMA_MODEL, [0.0, 1.0], 0.5, 0.5)),
    ("dependence.kendall_tau.string_t", ValidationError, "t must be a real number",
     lambda: dependence.kendall_tau(GAMMA_MODEL, "1")),
    ("dependence.kendall_tau.bool_t", ValidationError, "t must be a real number",
     lambda: dependence.kendall_tau(GAMMA_MODEL, True)),
    ("dependence.kendall_tau.int_t_past_the_largest_double", DomainError, "finite nonnegative",
     lambda: dependence.kendall_tau(GAMMA_MODEL, 10**400)),
    ("pricing.premium_table.string_t", ValidationError, "t must be a real number, not 'a'",
     lambda: pricing.premium_table(GAMMA_MODEL, [0, "a"])),
    ("model.fbar.string_x", ValidationError, "x must be a real number or an array of them",
     lambda: model.fbar(GAMMA_MODEL, "1", 1.0)),
    ("model.fbar.int_x_past_the_largest_double", ValidationError, "x must be a real number or an array of them",
     lambda: model.fbar(GAMMA_MODEL, 10**400, 1.0)),
    ("model.copula_t.complex_u", ValidationError, "u must be a real number or an array of them",
     lambda: model.copula_t(GAMMA_MODEL, 0, np.array([0.5 + 1j]), 0.5)),
    ("model.copula_t.string_u", ValidationError, "u must be a real number or an array of them",
     lambda: model.copula_t(GAMMA_MODEL, 0.0, "a", 0.5)),
    ("model.copula_t.ragged_u", ValidationError, "u must be a real number or an array of them",
     lambda: model.copula_t(GAMMA_MODEL, 0.0, [[0.5], [0.5, 0.6]], 0.5)),
    ("model.copula_t_diag_log.string_log_u", ValidationError, "ln u must be a real number or an array of them",
     lambda: model.copula_t_diag_log(GAMMA_MODEL, 1.0, "a")),
    ("model.generalized_weak_residual.string_x", ValidationError, "x must be a real number or an array of them",
     lambda: model.generalized_weak_residual(GAMMA_MODEL, 0.0, "a", 1.0)),
    ("core.marginal_quantile_log.string_log_u", ValidationError, "ln u must be a real number or an array of them",
     lambda: core.marginal_quantile_log(P, 1, "a")),
    ("dependence.j_integral_closed.string_log_v", ValidationError, "ln v must be a real number or an array of them",
     lambda: dependence.j_integral_closed(P, 1, "a")),
    ("dependence.kendall_function.int_s_past_the_largest_double", DomainError, "int past the largest double",
     lambda: dependence.kendall_function(GAMMA_MODEL, 0.0, [10**400])),
    ("dependence.kendall_function.scalar_s", ValidationError, "s_grid must be a sequence, not 0.5",
     lambda: dependence.kendall_function(GAMMA_MODEL, 0.0, 0.5)),
    ("dependence.empirical_kendall.scalar_s", ValidationError, "s_grid must be a sequence, not 0.5",
     lambda: dependence.empirical_kendall(
         sampler.SampleBatch(x=np.arange(3.0), y=np.ones(3), atom=np.zeros(3, bool), seed=0), 0.5)),
    ("pricing.premium_table.scalar_ts", ValidationError, "ts must be a sequence, not 5.0",
     lambda: pricing.premium_table(GAMMA_MODEL, 5.0)),
    # a str iterates as its characters, which the caller never passed
    ("dependence.kendall_function.string_grid", ValidationError, "s_grid must be a sequence, not '0.5'",
     lambda: dependence.kendall_function(GAMMA_MODEL, 0.0, "0.5")),
    ("dependence.empirical_kendall.string_grid", ValidationError, "s_grid must be a sequence, not '0.5'",
     lambda: dependence.empirical_kendall(
         sampler.SampleBatch(x=np.arange(3.0), y=np.ones(3), atom=np.zeros(3, bool), seed=0), "0.5")),
    ("pricing.premium_table.string_grid", ValidationError, "ts must be a sequence, not '1'",
     lambda: pricing.premium_table(GAMMA_MODEL, "1")),
    # one flat value per node would broadcast against the column of nodes into a square
    ("numerics.integrate_unit.flat_values", DomainError, "one flat value per node",
     lambda: numerics.integrate_unit(lambda u: np.ravel(u) ** 2, tol=1e-3)),
    ("numerics.integrate_upper.flat_values", DomainError, "one flat value per node",
     lambda: numerics.integrate_upper(lambda z: np.exp(-np.ravel(z)))),
    ("SampleBatch.string_x", ValidationError, "x must be a real number or an array of them",
     lambda: sampler.SampleBatch(x=["a", "b"], y=[1.0, 2.0], atom=[False, False], seed=0)),
    ("SampleBatch.int_atom", ValidationError, "atom must be a bool or an array of bools",
     lambda: sampler.SampleBatch(x=np.ones(2), y=np.ones(2), atom=np.array([0, 1]), seed=0)),
]


@pytest.mark.parametrize("name,error,message,call", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusal_raises_its_named_error(name, error, message, call):
    with pytest.raises(error, match=message):
        call()

"""The array contract of the public numeric functions.

Every array function returns a Python float for a scalar input and a float64
array of the input's shape otherwise, each entry equal to the scalar result.
Copulas take their exact boundary values.  A NaN argument to a function that
checks its domain raises DomainError, and so does an age below 0 or an
argument outside the domain.
A probability argument must lie in exactly [0, 1]: a value a rounding error
outside raises DomainError too.  The generator methods that take a log
argument (h_from_log, h_log_from_log, h_elasticity_from_log) and the log
argument of residual_distortion_log are checked once, against [-inf, 0]: NaN
and a log above 0 raise DomainError.  The quadratures and the root finder
call the unchecked kernels instead.
"""

import math

import numpy as np
import pytest

from bivlmp import core, dependence, generators, model, pricing
from bivlmp.config import builtin_models
from bivlmp.core import mu_core
from bivlmp.errors import DomainError
from bivlmp.generators import (
    MixingLaw,
    generator_from_mixing,
    make_generator,
    power_scaled,
)

MODELS = builtin_models()
M = MODELS["mixing_gamma"]
P = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)

GENERATORS = {
    "identity": make_generator("identity"),
    "weibull": make_generator("weibull", a=1.0, alpha=0.5),
    "gompertz": make_generator("gompertz", xi=2.0, mu=1.5),
    "mo15": make_generator("mo15", xi=2.0),
    "pareto": make_generator("pareto", a=1.0, mu=1.0),
    "logistic": make_generator("logistic", a=1.0, theta=0.5),
    "log_series": make_generator("log_series", a=1.0, theta=10.0),
    "arctan": make_generator("arctan", a=2.0),
    "polynomial": make_generator("polynomial", coeffs=[0.0, 1.5, 0.0, -0.5]),
    "sine": make_generator("sine", theta=1.0),
    "mixing_gamma": generator_from_mixing(MixingLaw("gamma", {"a": 2.0}), 0.1),
    "mixing_stable": generator_from_mixing(MixingLaw("positive_stable", {"a": 0.5}), 0.1),
    "mixing_sibuya": generator_from_mixing(MixingLaw("sibuya", {"a": 0.5}), 0.1),
    "mixing_log_series": generator_from_mixing(MixingLaw("log_series", {"theta": -0.5}), 0.1),
    "power_scaled": power_scaled(make_generator("gompertz", xi=1.5, mu=1.0), 2.0),
}
INF, NAN = math.inf, math.nan
# (zero_exponent, one_exponent) of each generator: inf where h vanishes faster than every power at 0,
# NaN where its tails take the numeric limit
EXPONENTS = {
    "identity": (1.0, 1.0),
    "weibull": (NAN, 0.5),  # shape 0.5: no power at 0
    "gompertz": (INF, 1.0),
    "mo15": (INF, 1.0),
    "pareto": (NAN, 1.0),  # a power of -ln x at 0
    "logistic": (1.0, 1.0),
    "log_series": (1.0, 1.0),
    "arctan": (2.0, 1.0),
    "polynomial": (1.0, 2.0),  # h'(1) = 0
    "sine": (1.0, 1.0),
    "mixing_gamma": (NAN, 1.0),
    "mixing_stable": (NAN, 0.5),
    "mixing_sibuya": (0.1, 0.5),
    "mixing_log_series": (0.1, 1.0),
    "power_scaled": (INF, 1.0),
}


FAMILY_CLASSES = [c for c in vars(generators).values()
                  if isinstance(c, type) and issubclass(c, generators.Generator) and c is not generators.Generator]


@pytest.mark.parametrize("cls", FAMILY_CLASSES, ids=[c.__name__ for c in FAMILY_CLASSES])
def test_every_generator_states_its_three_formulas(cls):
    # the base class only raises NotImplementedError, so every route serves every generator
    for name in ("_h_log_from_log", "_h_log_inv_from_log", "_h_elasticity"):
        owner = next(k for k in cls.__mro__ if name in vars(k))
        assert owner is not generators.Generator, (cls.__name__, name)


def test_generator_exponents():
    assert EXPONENTS.keys() == GENERATORS.keys()
    for family, (zero, one) in EXPONENTS.items():
        g = GENERATORS[family]
        got = (g.zero_exponent, g.one_exponent)
        assert np.array_equal(got, (zero, one), equal_nan=True), (family, got)


# each public generator method with a point of its domain
METHODS = {
    "h": 0.3, "h_inverse": 0.3, "h_from_log": -0.7, "h_log_from_log": -0.7,
    "neg_log_h_inverse": 0.3, "h_elasticity_from_log": -0.7,
}
G = GENERATORS["log_series"]

# (name, function of one argument, a point of its domain)
ARRAY_FUNCTIONS = [
    ("core.gbar_log", lambda x: core.gbar_log(P, x, 2.0), 3.0),
    ("core.marginal_survival", lambda x: core.marginal_survival(P, 1, x), 3.0),
    ("core.marginal_density", lambda x: core.marginal_density(P, 2, x), 3.0),
    ("core.marginal_hazard", lambda x: core.marginal_hazard(P, 2, x), 3.0),
    ("core.marginal_quantile", lambda x: core.marginal_quantile(P, 1, x), 0.4),
    ("core.marginal_quantile_log", lambda x: core.marginal_quantile_log(P, 2, x), -0.4),
    ("core.core_copula", lambda x: core.core_copula(P, x, 0.6), 0.4),
    ("core.weak_lmp_residual", lambda x: core.weak_lmp_residual(P, x, 1.0, 2.0), 3.0),
    ("model.fbar", lambda x: model.fbar(M, x, 2.0), 3.0),
    ("model.fbar_log", lambda x: model.fbar_log(M, 2.0, x), 3.0),
    ("model.fbar_marginal", lambda x: model.fbar_marginal(M, 1, x), 3.0),
    ("model.fbar_residual", lambda x: model.fbar_residual(M, 5.0, x, 2.0), 3.0),
    ("model.residual_marginal", lambda x: model.residual_marginal(M, 2, 5.0, x), 3.0),
    ("model.singular_line_survival", lambda x: model.singular_line_survival(M, 5.0, x), 3.0),
    ("model.generalized_weak_residual", lambda x: model.generalized_weak_residual(M, 5.0, x, 2.0), 3.0),
    ("model.copula_t", lambda x: model.copula_t(M, 5.0, 0.6, x), 0.4),
    ("model.copula_t_diag_log", lambda x: model.copula_t_diag_log(M, 5.0, x), -0.9),
    ("generators.time_distortion", lambda x: generators.time_distortion(G, 0.5, x), 0.4),
    ("generators.residual_distortion", lambda x: generators.residual_distortion(G, 0.5, x), 0.4),
    ("generators.residual_distortion_inverse", lambda x: generators.residual_distortion_inverse(G, 0.5, x), 0.4),
    ("generators.residual_distortion_log_inverse",
     lambda x: generators.residual_distortion_log_inverse(G, 0.5, x), 0.4),
    ("generators.residual_distortion_prime", lambda x: generators.residual_distortion_prime(G, 0.5, x), 0.4),
    ("generators.residual_distortion_log", lambda x: generators.residual_distortion_log(G, 0.5, x), -0.4),
    ("generators.pseudo_product", lambda x: generators.pseudo_product(G, x, 0.6), 0.4),
    ("dependence.j_integral_closed", lambda x: dependence.j_integral_closed(P, 1, x), -0.9),
    ("dependence.j_integral_quadrature", lambda x: dependence.j_integral_quadrature(P, 1, x), -0.9),
] + [
    (f"{family}.{meth}", lambda x, g=g, meth=meth: getattr(g, meth)(x), point)
    for family, g in GENERATORS.items()
    for meth, point in METHODS.items()
] + [
    (f"{family}.residual_distortion_prime_at_0", lambda x, g=g: generators.residual_distortion_prime(g, 0.0, x), 0.3)
    for family, g in GENERATORS.items()
]


def _assert_contract(fn, point):
    out = fn(point)
    assert type(out) is float
    for x in (np.array([point]), np.full((2, 2), point)):
        arr = fn(x)
        assert isinstance(arr, np.ndarray) and arr.shape == x.shape and arr.dtype == np.float64
        assert np.all(arr == out)  # each entry as if alone: its value does not depend on its neighbours


@pytest.mark.parametrize("name,fn,point", ARRAY_FUNCTIONS, ids=[c[0] for c in ARRAY_FUNCTIONS])
def test_scalar_in_float_out_array_in_array_out(name, fn, point):
    _assert_contract(fn, point)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_copula_edges_exact(name):
    m = MODELS[name]
    u = np.array([0.0, 1e-9, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-9, 1.0])
    for t in (0.0, 1.0 / m.lam):
        assert np.all(model.copula_t(m, t, u, 0.0) == 0.0)
        assert np.all(model.copula_t(m, t, 0.0, u) == 0.0)
        assert np.array_equal(model.copula_t(m, t, u, 1.0), u)
        assert np.array_equal(model.copula_t(m, t, 1.0, u), u)
    assert np.all(core.core_copula(m.core, u, 0.0) == 0.0)
    assert np.array_equal(core.core_copula(m.core, u, 1.0), u)
    assert np.array_equal(core.core_copula(m.core, 1.0, u), u)


# the calls of a generator g that take a log argument lw, and those that take a probability x
LOG_CALLS = {
    "h_from_log": lambda g, lw: g.h_from_log(lw),
    "h_log_from_log": lambda g, lw: g.h_log_from_log(lw),
    "h_elasticity_from_log": lambda g, lw: g.h_elasticity_from_log(lw),
    "residual_distortion_log": lambda g, lw: generators.residual_distortion_log(g, 0.5, lw),
}
UNIT_CALLS = {
    "h": lambda g, x: g.h(x),
    "h_inverse": lambda g, x: g.h_inverse(x),
    "neg_log_h_inverse": lambda g, x: g.neg_log_h_inverse(x),
    "time_distortion": lambda g, x: generators.time_distortion(g, 0.5, x),
    "residual_distortion": lambda g, x: generators.residual_distortion(g, 0.5, x),
    "residual_distortion_inverse": lambda g, x: generators.residual_distortion_inverse(g, 0.5, x),
    "residual_distortion_log_inverse": lambda g, x: generators.residual_distortion_log_inverse(g, 0.5, x),
    "residual_distortion_prime": lambda g, x: generators.residual_distortion_prime(g, 0.5, x),
    "pseudo_product": lambda g, x: generators.pseudo_product(g, x, 0.5),
}

NAN_CALLS = [
    ("core.gbar_log", lambda: core.gbar_log(P, NAN, 1.0)),
    ("core.marginal_survival", lambda: core.marginal_survival(P, 1, NAN)),
    ("core.marginal_density", lambda: core.marginal_density(P, 2, np.array([1.0, NAN]))),
    ("core.marginal_hazard", lambda: core.marginal_hazard(P, 1, NAN)),
    ("core.marginal_quantile", lambda: core.marginal_quantile(P, 1, NAN)),
    ("core.marginal_quantile_log", lambda: core.marginal_quantile_log(P, 1, NAN)),
    ("core.core_copula", lambda: core.core_copula(P, 0.5, NAN)),
    ("core.weak_lmp_residual", lambda: core.weak_lmp_residual(P, 1.0, 1.0, NAN)),
    ("model.tau", lambda: M.tau(NAN)),
    ("model.fbar", lambda: model.fbar(M, NAN, 1.0)),
    ("model.fbar_log", lambda: model.fbar_log(M, 1.0, NAN)),
    ("model.fbar_marginal", lambda: model.fbar_marginal(M, 1, NAN)),
    ("model.fbar_residual.t", lambda: model.fbar_residual(M, NAN, 1.0, 1.0)),
    ("model.fbar_residual.t_inf", lambda: model.fbar_residual(M, math.inf, 1.0, 1.0)),
    ("model.fbar_residual.x", lambda: model.fbar_residual(M, 1.0, NAN, 1.0)),
    ("model.residual_marginal", lambda: model.residual_marginal(M, 1, 1.0, NAN)),
    ("model.generalized_weak_residual", lambda: model.generalized_weak_residual(M, NAN, 1.0, 1.0)),
    ("model.copula_t.t", lambda: model.copula_t(M, NAN, 0.5, 0.5)),
    ("model.copula_t.t_inf", lambda: model.copula_t(M, math.inf, 0.5, 0.5)),
    ("model.copula_t.u", lambda: model.copula_t(M, 1.0, NAN, 0.5)),
    ("model.copula_t_diag_log", lambda: model.copula_t_diag_log(M, 1.0, np.array([-2.0, NAN]))),
    ("model.singular_line_survival", lambda: model.singular_line_survival(M, 1.0, NAN)),
    ("model.mean_excess", lambda: model.mean_excess(M, 1, NAN)),
    ("generators.time_distortion", lambda: generators.time_distortion(G, 0.5, NAN)),
    ("generators.residual_distortion.t", lambda: generators.residual_distortion(G, NAN, 0.5)),
    ("generators.residual_distortion.x", lambda: generators.residual_distortion(G, 0.5, NAN)),
    ("generators.residual_distortion_inverse", lambda: generators.residual_distortion_inverse(G, 0.5, NAN)),
    ("generators.residual_distortion_log_inverse",
     lambda: generators.residual_distortion_log_inverse(G, 0.5, NAN)),
    ("generators.residual_distortion_prime", lambda: generators.residual_distortion_prime(G, NAN, 0.5)),
    ("generators.residual_distortion_log.t", lambda: generators.residual_distortion_log(G, NAN, -0.5)),
    ("generators.residual_distortion_log.lw", lambda: generators.residual_distortion_log(G, 0.5, NAN)),
    # out of the domain, not NaN: these returned a number
    ("model.copula_t_diag_log.log_u_above_0", lambda: model.copula_t_diag_log(M, 1.0, 0.5)),
    ("generators.residual_distortion_log.negative_t",
     lambda: generators.residual_distortion_log(M.generator, -1.0, -0.5)),
    ("generators.residual_distortion_prime.x_above_1",
     lambda: generators.residual_distortion_prime(M.generator, 1.0, 1.5)),
    ("generators.residual_distortion_prime.x_below_0",
     lambda: generators.residual_distortion_prime(M.generator, 1.0, -0.5)),
    ("generators.pseudo_product", lambda: generators.pseudo_product(G, 0.5, NAN)),
    ("dependence.j_integral_closed", lambda: dependence.j_integral_closed(P, 1, NAN)),
    ("dependence.j_integral_quadrature", lambda: dependence.j_integral_quadrature(P, 1, np.array([-0.5, NAN]))),
    ("dependence.kendall_function.s", lambda: dependence.kendall_function(M, 1.0, (0.5, NAN))),
    ("dependence.kendall_function.t", lambda: dependence.kendall_function(M, NAN, (0.5,))),
    ("dependence.kendall_tau", lambda: dependence.kendall_tau(M, NAN)),
    ("dependence.kendall_tau.t_inf", lambda: dependence.kendall_tau(M, math.inf)),
    ("dependence.tail_lower", lambda: dependence.tail_lower(M, NAN)),
    ("dependence.tail_upper", lambda: dependence.tail_upper(M, NAN)),
    ("pricing.joint_annuity", lambda: pricing.joint_annuity(M, NAN)),
    ("pricing.joint_annuity.t_inf", lambda: pricing.joint_annuity(M, math.inf)),
    ("pricing.independent_annuity", lambda: pricing.independent_annuity(M, NAN)),
    ("pricing.residual_joint_annuity", lambda: pricing.residual_joint_annuity(M, NAN)),
    ("pricing.residual_independent_annuity", lambda: pricing.residual_independent_annuity(M, NAN)),
] + [
    (f"{family}.{meth}", lambda g=g, meth=meth: getattr(g, meth)(NAN))
    for family, g in GENERATORS.items()
    for meth in ("h", "h_inverse", "neg_log_h_inverse", "h_from_log", "h_log_from_log", "h_elasticity_from_log")
] + [
    (f"{family}.residual_distortion_prime_at_0", lambda g=g: generators.residual_distortion_prime(g, 0.0, NAN))
    for family, g in GENERATORS.items()
] + [  # a log above 0: these clamped it to 0 and returned a number
    (f"{family}.{name}.log_above_0", lambda g=g, call=call: call(g, 0.5))
    for family, g in GENERATORS.items()
    for name, call in LOG_CALLS.items()
] + [  # a rounding error outside [0, 1]: these admitted 1e-12 of it
    (f"{family}.{name}.{side}", lambda g=g, call=call, x=x: call(g, x))
    for family, g in GENERATORS.items()
    for name, call in UNIT_CALLS.items()
    for side, x in (("above_1", 1.0 + 1e-13), ("below_0", -1e-13))
]


@pytest.mark.parametrize("name,call", NAN_CALLS, ids=[c[0] for c in NAN_CALLS])
def test_nan_raises_domain_error(name, call):
    with pytest.raises(DomainError):
        call()

import functools
import math

import numpy as np
import pytest

from bivlmp.errors import ValidationError
from bivlmp.generators import (
    MIXING_LAWS,
    LogPowerGenerator,
    MixingLaw,
    SibuyaMixingGenerator,
    aging_profile,
    generator_from_mixing,
    make_generator,
    multiplicativity_check,
    power_scaled,
    pseudo_product,
    residual_distortion,
    residual_distortion_inverse,
    residual_distortion_log_inverse,
    residual_distortion_prime,
    time_distortion,
)
from oracles import mixing_mgf

CATALOG = [
    ("identity", {}),
    ("weibull", {"a": 1.0, "alpha": 2.0}),
    ("weibull", {"a": 1.0, "alpha": 0.5}),
    ("gompertz", {"xi": 2.0, "mu": 1.0}),
    ("mo15", {"xi": 2.0}),
    ("pareto", {"a": 1.0, "mu": 1.0}),
    ("logistic", {"a": 1.0, "theta": 0.5}),
    ("logistic", {"a": 1.0, "theta": 2.0}),
    ("log_series", {"a": 1.0, "theta": 10.0}),
    ("log_series", {"a": 1.0, "theta": -0.5}),
    ("arctan", {"a": 2.0}),
    ("polynomial", {"coeffs": [0.0, 1.5, 0.0, -0.5]}),
    ("sine", {"theta": 1.0}),
]

GRID = np.linspace(0.02, 0.98, 241)


@pytest.mark.parametrize("family,params", CATALOG)
def test_bijection_endpoints_and_monotonicity(family, params):
    g = make_generator(family, **params)
    assert g.h(0.0) == pytest.approx(0.0, abs=1e-12)
    assert g.h(1.0) == pytest.approx(1.0, abs=1e-12)
    vals = np.asarray(g.h(GRID))
    assert np.all(np.diff(vals) > 0), f"{family} not strictly increasing"
    assert np.all(vals >= 0) and np.all(vals <= 1)


@pytest.mark.parametrize("family,params", CATALOG)
def test_inverse_round_trip(family, params):
    g = make_generator(family, **params)
    u = np.linspace(0.01, 0.99, 49)
    assert np.allclose(g.h(g.h_inverse(u)), u, atol=1e-7)
    x = np.linspace(0.01, 0.99, 49)
    assert np.allclose(g.h_inverse(g.h(x)), x, atol=1e-6)


@pytest.mark.parametrize("family,params", CATALOG)
def test_log_form_consistency(family, params):
    g = make_generator(family, **params)
    x = np.linspace(0.05, 0.95, 31)
    lw = g.h_log_from_log(np.log(x))
    assert np.allclose(np.exp(lw), g.h(x), rtol=1e-12)
    assert np.allclose(np.exp(-g.neg_log_h_inverse(np.exp(lw))), x, atol=1e-9)


@pytest.mark.parametrize("family,params", CATALOG)
def test_prime_matches_finite_differences(family, params):
    g = make_generator(family, **params)
    x = np.linspace(0.1, 0.9, 17)
    eps = 1e-6
    fd = (np.asarray(g.h(x + eps)) - np.asarray(g.h(x - eps))) / (2 * eps)
    assert np.allclose(residual_distortion_prime(g, 0.0, x), fd, rtol=5e-5, atol=5e-8)


@pytest.mark.parametrize("family,params", CATALOG)
def test_residual_semigroup(family, params):
    # h_{t+s}(x) = h_t(e^-s x) / h_t(e^-s): conditioning twice equals once
    g = make_generator(family, **params)
    x = np.linspace(0.05, 0.95, 19)
    t, s = 0.7, 1.3
    once = residual_distortion(g, t + s, x)
    twice = residual_distortion(g, t, math.exp(-s) * x) / residual_distortion(g, t, math.exp(-s))
    assert np.allclose(once, twice, atol=1e-10)
    direct = g.h(np.exp(-(t + s)) * x) / g.h(math.exp(-(t + s)))
    assert np.allclose(once, direct, atol=1e-10)
    # d_t agrees with h_t after the change of variable x -> h^-1(u)
    u = g.h(x)
    assert np.allclose(time_distortion(g, t, u), residual_distortion(g, t, x), atol=1e-9)


@pytest.mark.parametrize("family,params", CATALOG)
def test_residual_distortion_inverse_round_trip(family, params):
    g = make_generator(family, **params)
    u = np.linspace(0.05, 0.95, 19)
    for t in (0.0, 1.0, 5.0):
        x = residual_distortion_inverse(g, t, u)
        assert np.allclose(residual_distortion(g, t, x), u, atol=1e-9)


@pytest.mark.parametrize("family,params", CATALOG)
def test_residual_distortion_log_inverse(family, params):
    g = make_generator(family, **params)
    u = np.linspace(0.05, 1.0, 20)
    for t in (0.0, 1.0, 5.0):
        lv = residual_distortion_log_inverse(g, t, u)
        assert np.allclose(lv, np.log(residual_distortion_inverse(g, t, u)), rtol=1e-9, atol=1e-15)
    assert residual_distortion_log_inverse(g, 2.0, 1.0) == 0.0


def test_gompertz_log_inverse_keeps_digits_near_one():
    # at age t = 14, h_t^-1(u) is within 1e-9 of 1; check the forward map
    # ln h_t(v) = -xi e^{mu t} (v^-mu - 1) = -xi e^{mu t} expm1(-mu ln v) at full precision
    g = make_generator("gompertz", xi=2.0, mu=1.5)
    u = np.array([0.05, 0.5, 0.95])
    t = 14.0
    lv = residual_distortion_log_inverse(g, t, u)
    assert np.all(lv < 0.0) and np.all(lv > -1e-9)
    forward = -2.0 * math.exp(1.5 * t) * np.expm1(-1.5 * lv)
    assert np.allclose(forward, np.log(u), rtol=1e-14, atol=0.0)


def test_time_distortion_at_zero_is_identity():
    g = make_generator("gompertz", xi=2.0, mu=1.0)
    u = np.linspace(0.0, 1.0, 21)
    assert np.allclose(time_distortion(g, 0.0, u), u, atol=1e-12)


def test_pseudo_product_axioms():
    g = make_generator("log_series", a=1.0, theta=10.0)
    a = np.linspace(0.1, 0.9, 9)
    b = np.linspace(0.15, 0.85, 9)
    assert np.allclose(pseudo_product(g, a, 1.0), a, atol=1e-12)
    assert np.allclose(pseudo_product(g, a, b), pseudo_product(g, b, a), atol=1e-12)
    ident = make_generator("identity")
    assert np.allclose(pseudo_product(ident, a, b), a * b, atol=1e-15)


def test_power_scaled_pseudo_product_invariance():
    # h_beta(x) = h(x^beta) induces the same pseudo-product as h for every beta
    g = make_generator("gompertz", xi=1.5, mu=1.0)
    a = np.linspace(0.1, 0.9, 9)
    b = np.linspace(0.12, 0.88, 9)
    base = pseudo_product(g, a, b)
    for beta in (0.5, 2.0, 3.7):
        gb = power_scaled(g, beta)
        assert np.allclose(pseudo_product(gb, a, b), base, atol=1e-10), beta


def test_mixing_generator_matches_mgf():
    for law in (
        MixingLaw("gamma", {"a": 2.0}),
        MixingLaw("positive_stable", {"a": 0.5}),
        MixingLaw("sibuya", {"a": 0.5}),
        MixingLaw("log_series", {"theta": -0.5}),
    ):
        g = generator_from_mixing(law, ratio=0.1)
        x = np.linspace(0.05, 0.95, 19)
        assert np.allclose(g.h(x), mixing_mgf(law, 0.1 * np.log(x)), rtol=1e-12), law.kind
        assert mixing_mgf(law, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_neg_log_inverse_survives_underflow():
    # gamma mixing: h^-1(u) = exp((1 - u^{-1/a})/ratio) underflows for small u,
    # but -ln h^-1(u) = (u^{-1/a} - 1)/ratio stays representable
    g = generator_from_mixing(MixingLaw("gamma", {"a": 2.0}), ratio=0.1)
    for u in (1e-5, 1e-12, 1e-200):
        s = g.neg_log_h_inverse(u)
        assert math.isfinite(s)
        assert s == pytest.approx((u ** (-0.5) - 1.0) / 0.1, rel=1e-12)
    # generators with a tagged power expansion also stay finite
    g2 = make_generator("log_series", a=1.0, theta=10.0)
    s = g2.neg_log_h_inverse(1e-250)
    assert math.isfinite(s)
    assert abs(g2.h_log_from_log(-min(s, 700.0)) - math.log(1e-250)) < 1e-6 or s > 700.0


BAD_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -2.0)


def _bad_parameter_cases():
    """(id, a call that must raise ValidationError): each parameter of each constructor at each bad number."""
    for family, params in dict(CATALOG).items():  # one admissible parameter set per family
        for name in (n for n in params if n != "coeffs"):
            for v in BAD_NUMBERS:
                yield f"{family}.{name}={v}", functools.partial(make_generator, family, **{**params, name: v})
    for v in BAD_NUMBERS:
        yield f"LogPowerGenerator.coef={v}", functools.partial(LogPowerGenerator, coef=v, expo=2.0)
        yield f"LogPowerGenerator.expo={v}", functools.partial(LogPowerGenerator, coef=1.0, expo=v)
        yield f"SibuyaMixingGenerator.a={v}", functools.partial(SibuyaMixingGenerator, v, 0.1)
        yield f"SibuyaMixingGenerator.ratio={v}", functools.partial(SibuyaMixingGenerator, 0.5, v)
        yield f"power_scaled.beta={v}", functools.partial(power_scaled, make_generator("identity"), v)
        for kind, (name, _, _) in MIXING_LAWS.items():
            yield f"MixingLaw.{kind}.{name}={v}", functools.partial(MixingLaw, kind, {name: v})
        law = MixingLaw("gamma", {"a": 1.0})
        yield f"mixing.ratio={v}", functools.partial(generator_from_mixing, law, v)
    for theta in (-1.0, 0.0):
        yield f"log_series.theta={theta}", functools.partial(make_generator, "log_series", a=1.0, theta=theta)
    yield "sine.theta=pi/2", functools.partial(make_generator, "sine", theta=math.pi / 2)
    for v in (math.nan, math.inf, -math.inf):
        yield f"polynomial.coeffs.1={v}", functools.partial(make_generator, "polynomial", coeffs=[0.0, v, 1.0])
    yield "MixingLaw.positive_stable.a=1.5", functools.partial(MixingLaw, "positive_stable", {"a": 1.5})
    yield "MixingLaw.log_series.theta=0.5", functools.partial(MixingLaw, "log_series", {"theta": 0.5})
    yield "MixingLaw.cauchy", functools.partial(MixingLaw, "cauchy", {})


BAD_PARAMETER_CASES = list(_bad_parameter_cases())


@pytest.mark.parametrize("build", [c for _, c in BAD_PARAMETER_CASES], ids=[i for i, _ in BAD_PARAMETER_CASES])
def test_bad_parameter_raises_validation_error(build):
    # NaN and +-inf fail like any value outside the domain, from the Python API as from a config
    with pytest.raises(ValidationError):
        build()


# arrays reaching both ends of (0, 1), where a numeric inverse loses digits first
NEAR_ENDPOINTS = np.array([1e-200, 1e-12, 1e-6, 0.3, 1.0 - 1e-6, 1.0 - 1e-12])


# the polynomial h(x) = x: the identity, its inverse solved numerically
NUMERIC_IDENTITY = make_generator("polynomial", coeffs=[0.0, 1.0])


def test_numeric_inverse_matches_closed_form():
    g, ref = NUMERIC_IDENTITY, make_generator("identity")
    x = np.linspace(0.05, 0.95, 19)
    assert np.array_equal(g.h(x), ref.h(x))
    # the numeric inverse against the closed one, relative, near 0 and near 1
    assert np.allclose(g.h_inverse(NEAR_ENDPOINTS), ref.h_inverse(NEAR_ENDPOINTS), rtol=1e-10, atol=0.0)
    assert g.h_inverse(0.3) == pytest.approx(ref.h_inverse(0.3), rel=1e-12)


def test_numeric_log_inverse_keeps_every_digit():
    # ln h^-1(e^lw) = lw; a solve of h(x) = e^lw would lose digits once e^lw nears
    # tiny, where the root finder's floor |residual| <= tiny is loose
    lw = np.array([-1.0, -100.0, -690.0, -700.0, -705.0, -708.0])
    assert np.array_equal(NUMERIC_IDENTITY._h_log_inv_from_log(lw), lw)


@pytest.mark.parametrize(
    "coeffs", [[0.0, 1.5, 0.0, -0.5], [0.0, 0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]
)
def test_polynomial_inverse_near_endpoints(coeffs):
    g = make_generator("polynomial", coeffs=coeffs)
    x = np.asarray(g.h_inverse(NEAR_ENDPOINTS))
    assert np.allclose(g.h(x), NEAR_ENDPOINTS, rtol=1e-12, atol=0.0)
    assert np.all(np.diff(x) > 0)


def test_aging_profile_quick_cases():
    assert aging_profile(make_generator("weibull", a=1.0, alpha=2.0)).nbu_nwu == "NBU"
    assert aging_profile(make_generator("weibull", a=1.0, alpha=0.5)).ifr_dfr == "DFR"
    prof = aging_profile(make_generator("identity"))
    assert prof.nbu_nwu == "memoryless" and prof.ifr_dfr == "memoryless"


def test_multiplicativity_examples():
    sub = make_generator("polynomial", coeffs=[0.0, 1.5, 0.0, -0.5])  # (3x - x^3)/2
    sup = make_generator("polynomial", coeffs=[0.0, 0.25, 0.5, 0.25])  # (x + 2x^2 + x^3)/4
    sine = make_generator("sine", theta=1.0)
    assert multiplicativity_check(sub)["empirical"] == "sub"
    assert multiplicativity_check(sub)["sufficient_condition_met"]
    assert multiplicativity_check(sup)["empirical"] == "super"
    assert multiplicativity_check(sup)["sufficient_condition_met"]
    assert multiplicativity_check(sine)["empirical"] == "sub"
    assert multiplicativity_check(make_generator("identity"))["empirical"] == "neither"

"""One admission rule for every number a caller passes.

Each parameter of every generator family, mixing law, core and bivariate
Gompertz parameter set must refuse a bool, a string and None with
ValidationError, and accept a numpy scalar of a valid value.  The tables are
built from generators.FAMILIES, generators.MIXING_LAWS and the records'
fields (their __slots__), so a new family or field joins them without an edit here.  Each count
and seed of the samplers, and each pricing horizon, follows the same rule.
"""

import fractions
import math
import re
import sys

import numpy as np
import pytest

from bivlmp.config import builtin_model
from bivlmp.core import CoreParams
from bivlmp.errors import ValidationError
from bivlmp.generators import FAMILIES, MIXING_LAWS, IdentityGenerator, MixingLaw, make_generator, power_scaled
from bivlmp.model import Mo15Params
from bivlmp.numerics import _is_real
from bivlmp.pricing import independent_annuity, joint_annuity, life_expectancy, premium_table
from bivlmp.sampler import sample_core, sample_mixing_shortcut, sample_model
from test_generators import CATALOG

# a valid value of each family's parameters, all of them exact in float32
FAMILY_PARAMS = dict(reversed(CATALOG))  # the first entry of each family
CORE = dict(lam=1.0, alpha=1.0, gamma1=1.0, gamma2=1.0, alpha1=0.25, alpha2=0.25, slack=0.0)
MO15 = dict(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=1.5, xi2=1.5)
SHORTCUT_CORE = CoreParams(**CORE)


def _law_value(domain):
    """A point of a mixing law's domain: its closed end, its midpoint, or lo + 1 on a half-line."""
    if domain.closed:
        return domain.hi
    return (domain.lo + domain.hi) / 2 if domain.hi < np.inf else domain.lo + 1.0


def _cases():
    """(id, build, valid value): build(v) constructs with one parameter set to v, the rest valid."""
    for family, params in FAMILY_PARAMS.items():
        for name, value in params.items():
            if name == "coeffs":
                for k, c in enumerate(value):
                    yield (f"{family}.coeffs[{k}]", lambda v, f=family, p=params, k=k: make_generator(
                        f, coeffs=[*p["coeffs"][:k], v, *p["coeffs"][k + 1:]]), c)
            else:
                yield f"{family}.{name}", lambda v, f=family, p=params, n=name: make_generator(f, **{**p, n: v}), value
    for kind, (name, domain, _, _) in MIXING_LAWS.items():
        yield f"{kind} mixing.{name}", lambda v, k=kind, n=name: MixingLaw(k, {n: v}), _law_value(domain)
        yield f"{kind} mixing.ratio", lambda v, k=kind, n=name, d=domain: make_generator(
            "mixing", law=MixingLaw(k, {n: _law_value(d)}), ratio=v), 0.5
    yield "power_scaled.beta", lambda v: power_scaled(IdentityGenerator(), v), 2.0
    yield "sample_mixing_shortcut.ratio", lambda v: sample_mixing_shortcut(
        MixingLaw("gamma", {"a": 2.0}), SHORTCUT_CORE, v, 4, 1), 0.5
    for name in CoreParams.__slots__:
        yield f"CoreParams.{name}", lambda v, n=name: CoreParams(**{**CORE, n: v}), CORE[name]
    for name in Mo15Params.__slots__:
        yield f"Mo15Params.{name}", lambda v, n=name: Mo15Params(**{**MO15, n: v}), MO15[name]


CASES = list(_cases())


def test_catalog_covers_every_family():
    assert set(FAMILY_PARAMS) == set(FAMILIES)


@pytest.mark.parametrize("bad", [True, "1", None], ids=repr)
@pytest.mark.parametrize("case,build,value", CASES, ids=[c[0] for c in CASES])
def test_a_non_number_is_refused(case, build, value, bad):
    owner, name = case.split(".", 1)
    # a config family's refusal names the family and the parameter as the config does
    match = f"^{re.escape(owner)}: {re.escape(name)} must lie in" if owner in FAMILIES else "must lie in"
    with pytest.raises(ValidationError, match=match):
        build(bad)


@pytest.mark.parametrize("family,params,name", [
    ("weibull", dict(a=-1, alpha=2), "a"), ("weibull", dict(a=1, alpha=0), "alpha"),
    ("pareto", dict(a=1, mu=5e-324), "mu"),  # 1 / mu overflows
], ids=["weibull.a", "weibull.alpha", "pareto.mu"])
def test_a_config_refusal_names_the_config_field(family, params, name):
    with pytest.raises(ValidationError, match=f"^{family}: {name} must lie in .*, not {params[name]!r}$"):
        make_generator(family, **params)


def test_the_least_pareto_mu_has_a_finite_inverse():
    least = math.nextafter(1 / sys.float_info.max, 1)  # 1 / (1 / the largest double) overflows
    assert make_generator("pareto", a=1, mu=least).expo == 1 / least < math.inf


@pytest.mark.parametrize("case,build,value", CASES, ids=[c[0] for c in CASES])
def test_a_numpy_scalar_of_a_valid_value_is_accepted(case, build, value):
    build(np.float32(value))
    if float(value).is_integer():
        build(np.int64(value))


@pytest.mark.parametrize("coeffs", [True, "01", None, 0.5, {"0": 0.0, "1": 1.0}, np.eye(2)], ids=repr)
def test_polynomial_coefficients_must_be_a_list(coeffs):
    with pytest.raises(ValidationError, match="list of at least two coefficients"):
        make_generator("polynomial", coeffs=coeffs)


def test_admitted_values_are_python_floats():
    g = make_generator("gompertz", xi=np.float32(2.0), mu=np.int64(1))
    assert type(g.xi) is float and type(g.mu) is float
    assert g.describe()["params"] == {"xi": 2.0, "mu": 1.0}
    assert all(type(v) is float for v in g.describe()["params"].values())
    core = CoreParams(**{**CORE, "lam": np.float32(1.0), "alpha": np.int64(1)})
    assert all(type(v) is float for v in core.describe().values())
    q = Mo15Params(**{**MO15, "xi": np.int64(2)})
    assert type(q.xi) is float


M = builtin_model("identity_mu")
# (id, call(v)) for each count and seed, the other arguments valid
COUNTS = [
    ("sample_model.n", lambda v: sample_model(M, v, 1)),
    ("sample_model.seed", lambda v: sample_model(M, 4, v)),
    ("sample_core.n", lambda v: sample_core(SHORTCUT_CORE, v, 1)),
    ("sample_core.seed", lambda v: sample_core(SHORTCUT_CORE, 4, v)),
    ("sample_mixing_shortcut.n", lambda v: sample_mixing_shortcut(MixingLaw("gamma", {"a": 2.0}), SHORTCUT_CORE,
                                                                   0.5, v, 1)),
    ("sample_mixing_shortcut.seed", lambda v: sample_mixing_shortcut(MixingLaw("gamma", {"a": 2.0}), SHORTCUT_CORE,
                                                                      0.5, 4, v)),
]
# (id, call(v)) for each horizon keyword
HORIZONS = [
    ("joint_annuity", lambda v: joint_annuity(M, 0.0, horizon=v)),
    ("independent_annuity", lambda v: independent_annuity(M, 0.0, horizon=v)),
    ("life_expectancy", lambda v: life_expectancy(M, 1, horizon=v)),
    ("premium_table", lambda v: premium_table(M, [0.0], horizon=v)[0].premium_joint),
]


@pytest.mark.parametrize("bad", [True, "4", 4.0, None, -1], ids=repr)
@pytest.mark.parametrize("case,call", COUNTS, ids=[c[0] for c in COUNTS])
def test_a_non_count_is_refused(case, call, bad):
    with pytest.raises(ValidationError, match="must be an integer >= 0"):
        call(bad)


@pytest.mark.parametrize("case,call", COUNTS, ids=[c[0] for c in COUNTS])
def test_a_numpy_integer_count_is_accepted(case, call):
    got, want = call(np.int64(4)), call(4)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y) and got.seed == want.seed
    assert type(got.seed) is int


@pytest.mark.parametrize("bad", [True, "50", math.nan], ids=repr)
@pytest.mark.parametrize("case,call", HORIZONS, ids=[c[0] for c in HORIZONS])
def test_a_non_number_horizon_is_refused(case, call, bad):
    with pytest.raises(ValidationError, match="horizon must lie in"):
        call(bad)


@pytest.mark.parametrize("case,call", HORIZONS, ids=[c[0] for c in HORIZONS])
def test_a_numpy_horizon_is_accepted(case, call):
    assert call(np.float32(50.0)) == call(50.0)


IS_REAL = [  # (value, a real number in the sense of the admission rule)
    (1.5, True), (np.float64(1.5), True), (np.float32(1.5), True), (math.nan, True), (2, True),
    (np.int64(2), True), (fractions.Fraction(1, 3), True), (True, False), (np.bool_(True), False),
    ("1", False), (1 + 0j, False), (None, False), (np.array(1.0), False),
]


@pytest.mark.parametrize("value, real", IS_REAL, ids=[repr(v) for v, _ in IS_REAL])
def test_what_is_a_real_number(value, real):
    assert _is_real(value) is real

"""Each argument checked once per call, the work under one error state.

The public functions check and convert each argument once, then run
unchecked kernels under one np.errstate: the surface functions of
bivlmp.model, and the integrals and the sampler, whose quadrature integrands
and root-finder residuals call the kernels on every pass.  Their values must
be the bits of the forms composed of the public helpers (tests/oracles.py),
and a counter on the checks and on np.errstate pins the one-check rule.
"""

import math

import numpy as np
import pytest

import oracles
from bivlmp import core, dependence, generators, model, numerics, pricing, sampler
from bivlmp.config import builtin_models
from bivlmp.core import CoreParams, mu_core
from bivlmp.errors import BivlmpError, DomainError
from bivlmp.generators import make_generator

MODELS = builtin_models()
# every config's core has alpha = 1; these two cores, off and on the mu subfamily, divide by another alpha
ALPHA_CORES = {
    "logistic_alpha_0.7": model.Model(make_generator("logistic", a=2.0, theta=0.5), CoreParams(
        lam=0.16, alpha=0.7, gamma1=0.1, gamma2=0.08, alpha1=0.3, alpha2=0.25)),
    "gompertz_mu_alpha_1.5": model.Model(make_generator("gompertz", xi=0.5, mu=1.2),
                                         mu_core(alpha=1.5, gamma=0.2, alpha1=0.3, alpha2=0.2)),
}
AGES = (0.0, 0.5, 2.0, 10.0)  # lambda t
MODULES = (numerics, core, generators, model, dependence, pricing, sampler)  # where a counter replaces a check


def _grids(m, seed):
    """Seeded lifetime and probability grids; the lifetimes include 0, the probabilities 0 and 1."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0, 1e-300], np.sort(rng.uniform(0.0, 5.0, 9)) / m.lam, [60.0 / m.lam, 1e300]])
    us = np.concatenate([[0.0, 1e-300], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0 - 2.0**-53, 1.0]])
    with np.errstate(divide="ignore"):  # ln 0 = -inf is a grid point too
        lus = np.log(us)
    return np.meshgrid(xs, xs, indexing="ij"), np.meshgrid(us, us, indexing="ij"), lus


def _same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("lam_t", AGES)
@pytest.mark.parametrize("name", sorted(MODELS) + sorted(ALPHA_CORES))
def test_surface_functions_equal_their_composed_forms(name, lam_t):
    m = {**MODELS, **ALPHA_CORES}[name]
    t = lam_t / m.lam
    (X, Y), (U, V), lus = _grids(m, 101 + len(name))
    with np.errstate(all="ignore"):  # the composed forms warn where a helper computes outside its error state
        pairs = _pairs(m, t, X, Y, U, V, lus)
    for k, (got, want) in enumerate(pairs):
        assert _same_bits(got, want), k


def _pairs(m, t, X, Y, U, V, lus):
    return [
        (core.gbar_log(m.core, X, Y), oracles.gbar_log(m.core, X, Y)),
        (core.gbar_log(m.core, X[1, 7], Y[1, 7]), oracles.gbar_log(m.core, X[1, 7], Y[1, 7])),
        (model.fbar(m, X, Y), oracles.fbar(m, X, Y)),
        (model.fbar(m, X[3, 4], Y[3, 4]), oracles.fbar(m, X[3, 4], Y[3, 4])),
        (model.fbar_log(m, X, Y), oracles.fbar_log(m, X, Y)),
        (model.fbar_residual(m, t, X, Y), oracles.fbar_residual(m, t, X, Y)),
        (model.fbar_residual(m, t, X[2, 5], Y[2, 5]), oracles.fbar_residual(m, t, X[2, 5], Y[2, 5])),
        (model.copula_t(m, t, U, V), oracles.copula_t(m, t, U, V)),
        (model.copula_t(m, t, U[4, 6], V[4, 6]), oracles.copula_t(m, t, U[4, 6], V[4, 6])),
        (model.copula_t_diag_log(m, t, lus), oracles.copula_t_diag_log(m, t, lus)),
        (model.copula_t_diag_log(m, t, lus[5]), oracles.copula_t_diag_log(m, t, lus[5])),
        (model.generalized_weak_residual(m, t, X[:-1, :-1], Y[:-1, :-1]),
         oracles.generalized_weak_residual(m, t, X[:-1, :-1], Y[:-1, :-1])),
        (model.generalized_weak_residual(m, t, X[3, 1], Y[3, 1]), oracles.generalized_weak_residual(m, t, X[3, 1],
                                                                                                    Y[3, 1])),
    ]


GENERATOR_METHODS = ("h", "h_from_log", "h_log_from_log", "h_elasticity_from_log", "neg_log_h_inverse")
PUBLIC_HELPERS = (core.marginal_quantile_log, model.copula_t_diag_log)  # checked public functions other calls used


def _counting(monkeypatch):
    """Count np.errstate blocks, the argument checks and the calls of the generator's public methods and helpers.

    A range check counts under its kind, the key of its row in numerics._RANGES.  The age check and each of
    PUBLIC_HELPERS are replaced in every module that binds them, the range check in numerics, where every
    entry calls it: dependence._kendall_values binds its own, to guard the ln v it computes, not an argument.
    """
    helpers = {fn.__name__: fn for fn in PUBLIC_HELPERS}
    counts = dict.fromkeys(("errstate", *numerics._RANGES, "_check_age", *GENERATOR_METHODS, *helpers), 0)
    kinds = {row: kind for kind, row in numerics._RANGES.items()}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[kinds[args[2]] if key == "_in_range" else key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "errstate", counted(np.errstate, "errstate"))
    monkeypatch.setattr(numerics, "_in_range", counted(numerics._in_range, "_in_range"))
    for key, fn in {"_check_age": numerics._check_age, **helpers}.items():
        for mod in MODULES:
            if getattr(mod, key, None) is fn:
                monkeypatch.setattr(mod, key, counted(fn, key))
    for name in GENERATOR_METHODS:
        monkeypatch.setattr(generators.Generator, name, counted(getattr(generators.Generator, name), name))
    return counts


# (call, its counts): one error state per call, one check per argument
CALLS = {
    "copula_t": (lambda m, a, b: model.copula_t(m, 0.5 / m.lam, a, b), dict(probability=2, _check_age=1)),
    "fbar_residual": (lambda m, a, b: model.fbar_residual(m, 0.5 / m.lam, a, b), dict(lifetime=2, _check_age=1)),
    "generalized_weak_residual": (lambda m, a, b: model.generalized_weak_residual(m, 0.5 / m.lam, a, b),
                                  dict(lifetime=2, _check_age=1)),
    "fbar": (lambda m, a, b: model.fbar(m, a, b), dict(lifetime=2)),
}


@pytest.mark.parametrize("shape", [(), (3, 4)], ids=["scalar", "array"])
@pytest.mark.parametrize("name", ["fig1_left", "mixing_gamma"])  # a core off the mu subfamily, and one on it
@pytest.mark.parametrize("call", sorted(CALLS))
def test_one_error_state_and_one_check_per_argument(monkeypatch, call, name, shape):
    m = MODELS[name]
    fn, want = CALLS[call]
    a, b = np.full(shape, 0.3), np.full(shape, 0.6)
    counts = _counting(monkeypatch)
    fn(m, a, b)
    assert counts == {**dict.fromkeys(counts, 0), "errstate": 1, **want}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_both_lifetimes_infinite_read_the_limit(name):
    # Gbar(inf, inf) = 0: ln Gbar is -inf there, not the NaN of inf - inf
    m = MODELS[name]
    inf = math.inf
    assert core.gbar_log(m.core, inf, inf) == -inf
    assert np.array_equal(core.gbar_log(m.core, [inf, inf, 1.0], [inf, 1.0, inf]), [-inf, -inf, -inf])
    assert model.fbar(m, inf, inf) == 0.0
    assert model.fbar_residual(m, 1.0 / m.lam, inf, inf) == 0.0
    assert model.fbar_log(m, inf, inf) == -inf


# (call at an age t, its counts): one age check per age argument, a range check only on an argument the
# caller passed, and no generator method called from inside, but sample_model's one neg_log_h_inverse of
# its uniforms (with its probability check)
INTEGRALS = {
    "kendall_tau": (dependence.kendall_tau, dict(_check_age=1)),
    "kendall_function.closed_form": (lambda m, t: dependence.kendall_function(m, t, source="closed_form"),
                                     dict(_check_age=1)),
    "kendall_function.quadrature": (lambda m, t: dependence.kendall_function(m, t, source="quadrature"),
                                    dict(_check_age=1)),
    "joint_annuity": (pricing.joint_annuity, dict(_check_age=1)),
    "independent_annuity": (pricing.independent_annuity, dict(_check_age=1)),
    "residual_joint_annuity": (pricing.residual_joint_annuity, dict(_check_age=1)),
    "residual_independent_annuity": (pricing.residual_independent_annuity, dict(_check_age=1)),
    "life_expectancy": (lambda m, t: pricing.life_expectancy(m, 1), {}),
    "mean_excess": (lambda m, t: model.mean_excess(m, 1, t), dict(_check_age=1)),
    "sample_model": (lambda m, t: sampler.sample_model(m, 1000, 7), dict(probability=1, neg_log_h_inverse=1)),
}
# fig1_left's rounded core clamps its singular mass to 0, which warns
FIG1_LEFT = pytest.param("fig1_left", marks=pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning"))


@pytest.mark.parametrize("name", [FIG1_LEFT, "mixing_gamma"])
@pytest.mark.parametrize("call", sorted(INTEGRALS))
def test_integrands_and_residuals_check_nothing_again(monkeypatch, call, name):
    m = MODELS[name]
    fn, want = INTEGRALS[call]
    counts = _counting(monkeypatch)
    fn(m, 1.0 / m.lam)
    assert counts.pop("errstate") >= 1
    assert counts == {**dict.fromkeys(counts, 0), **want}


# (call, its counts): one check per argument, and no checked public function run inside
SUPER = make_generator("polynomial", coeffs=[0.0, 0.25, 0.5, 0.25])  # (x + 2x^2 + x^3)/4: super, with h''
NESTED = {
    "tail_numeric.lower": (lambda m: dependence.tail_numeric(m, 1.0 / m.lam, "lower"), dict(_check_age=1)),
    "tail_numeric.upper": (lambda m: dependence.tail_numeric(m, 1.0 / m.lam, "upper"), dict(_check_age=1)),
    "tail_lower": (lambda m: dependence.tail_lower(m, 1.0 / m.lam), dict(_check_age=1)),
    "tail_upper": (lambda m: dependence.tail_upper(m, 1.0 / m.lam), dict(_check_age=1)),
    "marginal_quantile": (lambda m: core.marginal_quantile(m.core, 1, [0.3, 0.6]), {"probability open at 0": 1}),
    "multiplicativity_check": (lambda m: generators.multiplicativity_check(SUPER), {}),
}


@pytest.mark.parametrize("name", ["identity_mu", "mixing_gamma"])  # tail_lower by the lemma, and by the limit
@pytest.mark.parametrize("call", sorted(NESTED))
def test_public_calls_run_no_checked_public_call(monkeypatch, call, name):
    fn, want = NESTED[call]
    counts = _counting(monkeypatch)
    fn(MODELS[name])
    counts.pop("errstate")
    assert counts == {**dict.fromkeys(counts, 0), **want}


def _counted_calls(monkeypatch, fn, mods, key=lambda *args: True) -> list:
    """A list of fn's name, once per call of fn for which key holds; fn is replaced in each of mods that binds it."""
    calls = []

    def wrapper(*args, **kwargs):
        if key(*args):
            calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for mod in mods:
        if getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapper)
    return calls


# a refused argument is refused at the entry, before the first quadrature
REFUSED = {
    "life_expectancy": lambda m: pricing.life_expectancy(m, 3),
    "mean_excess": lambda m: model.mean_excess(m, 3, 0.0),
    "premium_table": lambda m: pricing.premium_table(m, [0, 5, -1]),
}


@pytest.mark.parametrize("call", sorted(REFUSED))
def test_a_refused_argument_runs_no_quadrature(monkeypatch, call):
    quadratures = _counted_calls(monkeypatch, numerics._de_integrate, [numerics])
    with pytest.raises(DomainError):
        REFUSED[call](MODELS["identity_mu"])
    assert quadratures == []


def test_the_horizon_is_admitted_once_per_call(monkeypatch):
    horizons = _counted_calls(monkeypatch, numerics._admit, MODULES, key=lambda owner, name, *rest: name == "horizon")
    pricing.premium_table(MODELS["identity_mu"], [0, 5, 10], horizon=100.0)
    assert len(horizons) == 1
    horizons.clear()
    pricing.reference_comparison({"left": MODELS["fig1_left"], "right": MODELS["fig1_right"]})
    assert horizons == []  # its horizon is the constant REFERENCE_HORIZON


@pytest.mark.parametrize("kind,default,given", [("horizon", None, 5.0), ("Kendall source", "closed_form", "quadrature")])
def test_a_left_out_default_that_admits_as_itself_runs_no_admission(monkeypatch, kind, default, given):
    admitted = []
    admit = numerics._ADMISSIONS[kind]
    monkeypatch.setitem(numerics._ADMISSIONS, kind, lambda x, what, first: admitted.append(x) or admit(x, what, first))

    @numerics.entry(t="age", x=kind)
    def body(m, t, x=default):
        return x

    admitted.clear()  # the decorator admits the default once, to see that it admits as itself
    assert body(None, 1.0) == default and admitted == []
    assert body(None, 1.0, given) == given and body(None, t=1.0, x=given) == given and admitted == [given, given]


@pytest.mark.parametrize("call", ["joint_annuity", "independent_annuity", "life_expectancy"])
def test_a_left_out_horizon_reads_none_and_a_given_one_is_admitted_once(monkeypatch, call):
    horizons = _counted_calls(monkeypatch, numerics._admit, MODULES, key=lambda owner, name, *rest: name == "horizon")
    fn, m = getattr(pricing, call), MODELS["identity_mu"]
    assert fn(m, 1) == fn(m, 1, None)
    assert horizons == []
    assert fn(m, 1, 50.0) == fn(m, 1, horizon=50.0)
    assert len(horizons) == 2


def _outcome(fn):
    """fn(), or the class and the text of the BivlmpError it raised."""
    try:
        return fn()
    except BivlmpError as exc:
        return type(exc), str(exc)


def _same(got, want):
    return got == want if isinstance(want, tuple) else _same_bits(got, want)


def _integral_pairs(m, t, lam_t):
    s = np.asarray(dependence.DEFAULT_S_GRID)
    horizon = t + 100.0 / m.lam
    pairs = {
        "kendall_tau": (lambda: dependence.kendall_tau(m, t), lambda: oracles.kendall_tau(m, t)),
        "premium_table": (lambda: np.array([[q.t, q.premium_joint, q.premium_independent]
                                            for q in pricing.premium_table(m, (t, t + 1.0), horizon)]),
                          lambda: np.array([[u, oracles.joint_annuity(m, u, horizon),
                                             oracles.independent_annuity(m, u, horizon)] for u in (t, t + 1.0)])),
    }
    for source in ("closed_form", "quadrature"):
        pairs[f"K_t.{source}"] = (lambda source=source: dependence.kendall_function(m, t, s, source).k_values(),
                                  lambda source=source: oracles.kendall_values(m, t, s, source))
    for name in ("joint_annuity", "independent_annuity"):
        pairs[name] = (lambda name=name: getattr(pricing, name)(m, t), lambda name=name: getattr(oracles, name)(m, t))
        pairs[f"{name}.horizon"] = (lambda name=name: getattr(pricing, name)(m, t, horizon),
                                    lambda name=name: getattr(oracles, name)(m, t, horizon))
    for name in ("residual_joint_annuity", "residual_independent_annuity"):
        pairs[name] = (lambda name=name: getattr(pricing, name)(m, t), lambda name=name: getattr(oracles, name)(m, t))
    for i in (1, 2):
        pairs[f"mean_excess{i}"] = (lambda i=i: model.mean_excess(m, i, t), lambda i=i: oracles.mean_excess(m, i, t))
        if lam_t == 0.0:  # no age argument
            pairs[f"life_expectancy{i}"] = (lambda i=i: pricing.life_expectancy(m, i),
                                            lambda i=i: oracles.life_expectancy(m, i))
            pairs[f"life_expectancy{i}.horizon"] = (lambda i=i: pricing.life_expectancy(m, i, 100.0),
                                                    lambda i=i: oracles.life_expectancy(m, i, 100.0))
    return pairs


@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")
@pytest.mark.parametrize("lam_t", AGES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_integrals_equal_their_composed_forms(name, lam_t):
    m = MODELS[name]
    t = lam_t / m.lam
    with np.errstate(all="ignore"):  # the composed forms warn where a helper computes outside its error state
        for key, (got, want) in _integral_pairs(m, t, lam_t).items():
            assert _same(_outcome(got), _outcome(want)), key


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gap_residual_equals_its_composed_form(name):
    m = MODELS[name]
    d = np.concatenate([[0.0, 1e-300], np.geomspace(1e-6, 200.0, 40) / m.lam])[:, None]
    tau = np.asarray(AGES)[None, :]
    with np.errstate(all="ignore"):
        for i in (1, 2):
            got, want = (f(m, d, tau, *oracles.side_constants(m, i))
                         for f in (sampler._ln_q_t_unscaled, oracles.ln_q_t_unscaled))
            assert _same_bits(got, want), i
        for got, want in zip(sampler._age_constants(m.generator, tau), oracles.age_constants(m.generator, tau)):
            assert _same_bits(got, want)


@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(set(MODELS) - {"weibull_mu"}))  # weibull_mu is no distribution to sample
def test_draws_equal_those_of_the_composed_residual(monkeypatch, name):
    m = MODELS[name]
    got = sampler.sample_model(m, 2000, 41)
    monkeypatch.setattr(sampler, "_ln_q_t_unscaled", oracles.ln_q_t_unscaled)
    monkeypatch.setattr(sampler, "_age_constants", oracles.age_constants)
    want = sampler.sample_model(m, 2000, 41)
    for part in ("x", "y", "atom"):
        assert _same_bits(getattr(got, part), getattr(want, part)), part

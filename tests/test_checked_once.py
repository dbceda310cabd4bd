"""Each argument checked once per call, the work under one error state.

The public surface functions of bivlmp.model check and convert each argument
once, then run unchecked kernels under one np.errstate.  Their values must be
the bits of the forms composed of the public helpers (tests/oracles.py), and
a counter on the checks and on np.errstate pins the one-check rule.
"""

import math

import numpy as np
import pytest

import oracles
from bivlmp import core, generators, model, numerics
from bivlmp.config import builtin_models
from bivlmp.core import CoreParams, mu_core
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


def _counting(monkeypatch):
    """Count np.errstate blocks and the argument checks; in_unit is replaced in every module that binds it."""
    counts = dict.fromkeys(("errstate", "_nonnegative", "in_unit", "_check_age"), 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "errstate", counted(np.errstate, "errstate"))
    monkeypatch.setattr(core, "_nonnegative", counted(core._nonnegative, "_nonnegative"))
    monkeypatch.setattr(generators, "_check_age", counted(generators._check_age, "_check_age"))
    in_unit = numerics.in_unit
    for mod in (numerics, core, generators, model):
        if getattr(mod, "in_unit", None) is in_unit:
            monkeypatch.setattr(mod, "in_unit", counted(in_unit, "in_unit"))
    return counts


# (call, its counts): one error state per call, one check per argument
CALLS = {
    "copula_t": (lambda m, a, b: model.copula_t(m, 0.5 / m.lam, a, b), dict(in_unit=2, _check_age=1)),
    "fbar_residual": (lambda m, a, b: model.fbar_residual(m, 0.5 / m.lam, a, b), dict(_nonnegative=2, _check_age=1)),
    "generalized_weak_residual": (lambda m, a, b: model.generalized_weak_residual(m, 0.5 / m.lam, a, b),
                                  dict(_nonnegative=2, _check_age=1)),
    "fbar": (lambda m, a, b: model.fbar(m, a, b), dict(_nonnegative=2)),
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

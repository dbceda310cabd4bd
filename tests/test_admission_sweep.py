"""Every argument of every public callable, swept with bad values.

For each callable in bivlmp.__all__, each public method of Generator on every
family of test_contract.GENERATORS, Model.tau and each public module function
outside __all__ (MODULE_FUNCTIONS), and each of its parameters, the other
arguments hold a valid value from VALID and the parameter takes each of BAD
in turn: the call must return a result or raise a BivlmpError, never a bare
Python error.  A parameter that holds a bivlmp object (a model, core,
generator, mixing law, sample batch or bridge parameter set) is not swept: it
is the caller's program that hands over the wrong object, not a number the
rule admits.  Neither is load_model's path, which goes to the file system.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

import bivlmp
from bivlmp import (CoreParams, Generator, MixingLaw, Mo15Params, Model, SampleBatch, builtin_model, emit_config,
                    sample_model)
from bivlmp import core, dependence, generators, model
from bivlmp.errors import BivlmpError
from test_contract import GENERATORS

M = builtin_model("mixing_gamma")
BATCH = sample_model(M, 64, 1)
CORE = dict(lam=1.0, alpha=1.0, gamma1=1.0, gamma2=1.0, alpha1=0.25, alpha2=0.25, slack=0.0)
MO15 = dict(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=1.5, xi2=1.5)
OBJECTS = (Model, CoreParams, Generator, MixingLaw, SampleBatch, Mo15Params)

# a valid value of each parameter, by name; VALID_FOR overrides it for one callable
VALID = {
    "m": M, "p": M.core, "g": M.generator, "b": BATCH, "batch": BATCH, "law": MixingLaw("gamma", {"a": 2.0}),
    "q": Mo15Params(**MO15), "generator": M.generator, "core": M.core,
    "t": 0.5, "x": 0.5, "y": 0.25, "z": 0.5, "u": 0.5, "v": 0.25, "a": 0.5, "i": 1, "n": 4, "seed": 1,
    "ratio": 0.5, "beta": 2.0, "s_grid": (0.25, 0.75), "ts": (0.5,), "horizon": None, "source": "closed_form",
    "which": "lower", "name": "mo15", "doc": emit_config(builtin_model("mo15")),
    "label": "", "model_label": "", "kind": "gamma", "params": {"a": 2.0}, "family": "mo15",
    **CORE, **MO15, "gamma": 1.0, "atom": np.zeros(2, bool), "grid": (0.5,), "value": 0.5, "method": "numeric",
    "classification": {}, "converged": True, "premium_joint": 1.0, "premium_independent": 1.0,
    "nbu_nwu": "NBU", "ifr_dfr": "IFR", "margins": np.zeros((1, 1)), "message": "m", "estimate": None,
    "path": Path(__file__).parents[1] / "configs" / "mo15.json",
    "lw": -0.5, "lx": -0.5, "lu": -0.5, "lv": -0.5, "log_u": -0.5,
}
VALID_FOR = {
    "SampleBatch": {"x": np.ones(2), "y": np.ones(2)},
    "make_generator": {"xi": 2.0},
    "pseudo_product": {"b": 0.25},
}
BAD = {
    "str": "a", "None": None, "bool": True, "nested list": [[0.5], [0.5]], "complex": 0.5 + 0.5j,
    "object array": np.array([0.5, None], dtype=object), "3-D array": np.full((2, 2, 2), 0.5),
    "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -1.0,
}
SKIP = {("load_model", "path")}  # a path goes to open(): True would read from file descriptor 1


# the public functions of each module that bivlmp.__all__ does not export
MODULE_FUNCTIONS = {
    generators: ("residual_distortion_log", "residual_distortion_log_inverse", "residual_distortion_inverse",
                 "residual_distortion_prime"),
    core: ("marginal_quantile_log", "marginal_hazard"),
    model: ("fbar_log", "fbar_marginal", "copula_t_diag_log"),
    dependence: ("j_integral_closed", "j_integral_quadrature"),
}
GENERATOR_METHODS = [name for name, fn in vars(Generator).items() if callable(fn) and not name.startswith("_")]


def _callables():
    for name in sorted(bivlmp.__all__):
        obj = getattr(bivlmp, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            yield name, obj


def _more_callables():
    """The bound public Generator methods of every family, Model.tau, and MODULE_FUNCTIONS."""
    for family, g in GENERATORS.items():
        for meth in GENERATOR_METHODS:
            yield f"{family}.{meth}", getattr(g, meth)
    yield "Model.tau", M.tau
    for mod, names in MODULE_FUNCTIONS.items():
        for name in names:
            yield f"{mod.__name__.split('.')[-1]}.{name}", getattr(mod, name)


def _arguments(name, fn):
    """[(parameter, valid value, positional)] of a valid call: every parameter without a default, and those
    with one that VALID names; a ** parameter takes the keywords of VALID_FOR."""
    valid = {**VALID, **VALID_FOR.get(name, {})}
    out = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.VAR_KEYWORD:
            out += [(k, v, False) for k, v in VALID_FOR.get(name, {}).items()]
        elif p.default is p.empty or p.name in valid:
            out.append((p.name, valid[p.name], p.kind is p.POSITIONAL_ONLY))
    return out


def _call(fn, arguments, k, bad):
    """fn with the arguments, the k-th one replaced by bad."""
    values = [(name, bad if j == k else value, positional) for j, (name, value, positional) in enumerate(arguments)]
    return fn(*[v for _, v, positional in values if positional], **{n: v for n, v, positional in values
                                                                     if not positional})


def _cases():
    for name, fn in [*_callables(), *_more_callables()]:
        arguments = _arguments(name, fn)
        for k, (param, value, _) in enumerate(arguments):
            if isinstance(value, OBJECTS) or (name, param) in SKIP:
                continue
            yield f"{name}.{param}", fn, arguments, k


CASES = list(_cases())


def test_the_sweep_reaches_every_callable_with_a_number_or_a_name_to_pass():
    unswept = {name for name, _ in _callables()} - {case.split(".")[0] for case, *_ in CASES}
    assert unswept == {"Generator", "builtin_models", "load_model", "aging_profile", "multiplicativity_check",
                       "emit_config", "mo15_bridge", "singular_mass", "empirical_atom"}


@pytest.mark.parametrize("case,fn,arguments,k", CASES, ids=[c[0] for c in CASES])
def test_a_bad_argument_gives_a_result_or_a_bivlmp_error(case, fn, arguments, k):
    _call(fn, arguments, k, arguments[k][1])  # the valid call itself runs
    bare = []
    for what, bad in BAD.items():
        try:
            _call(fn, arguments, k, bad)
        except BivlmpError:
            pass
        except Exception as exc:  # noqa: BLE001  (the point: no other error class)
            bare.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not bare, "\n".join(bare)


def test_the_sweep_reaches_every_public_generator_method_and_the_functions_outside_all():
    swept = {case.rsplit(".", 1)[0] for case, *_ in CASES}
    assert {f"{family}.{meth}" for family in GENERATORS for meth in GENERATOR_METHODS if meth != "describe"} <= swept
    assert {"Model.tau", *(f"{mod.__name__.split('.')[-1]}.{name}" for mod, names in MODULE_FUNCTIONS.items()
                           for name in names)} <= swept
    assert set(GENERATOR_METHODS) == {"h", "h_inverse", "h_elasticity_from_log", "h_from_log", "h_log_from_log",
                                      "neg_log_h_inverse", "describe"}

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from bivlmp.cli import run
from bivlmp.config import (
    BUILTIN_CONFIGS,
    builtin_model,
    emit_config,
    load_model,
    parse_config,
)
from bivlmp.core import CONFIG_NAMES, CoreParams, mu_core
from bivlmp.errors import ValidationError
from bivlmp.generators import (
    IdentityGenerator,
    LogPowerGenerator,
    MixingLaw,
    SibuyaMixingGenerator,
    generator_from_mixing,
    make_generator,
    power_scaled,
)
from bivlmp.model import Model, Mo15Params, fbar, mo15_bridge
from test_generators import CATALOG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MU = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
LAWS = [("gamma", {"a": 2.0}), ("positive_stable", {"a": 0.5}), ("sibuya", {"a": 0.5}), ("log_series", {"theta": -0.5})]
UNIT = np.linspace(0.0, 1.0, 41)


def _assert_round_trip_is_exact(m):
    """The model reparsed from its emitted JSON gives bitwise the same fbar and h."""
    again = parse_config(json.loads(json.dumps(emit_config(m))))
    z = np.linspace(0.0, 40.0, 21) / m.lam
    x, y = np.meshgrid(z, z)
    assert np.array_equal(fbar(again, x, y), fbar(m, x, y))
    assert np.array_equal(again.generator.h(UNIT), m.generator.h(UNIT))
    assert again.label == m.label and again.core == m.core


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_emit_parse_round_trip(name):
    _assert_round_trip_is_exact(builtin_model(name))


@pytest.mark.parametrize("family,params", CATALOG)
def test_emit_parse_round_trip_of_every_family(family, params):
    _assert_round_trip_is_exact(Model(generator=make_generator(family, **params), core=MU))


@pytest.mark.parametrize("kind,params", LAWS)
def test_emit_parse_round_trip_of_every_mixing_law(kind, params):
    _assert_round_trip_is_exact(Model(generator=generator_from_mixing(MixingLaw(kind, params), 0.1), core=MU))


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_shipped_config_files_match_builtins(name):
    # the CLI and the benchmark read the files, the tests read BUILTIN_CONFIGS: the two copies must agree
    path = CONFIG_DIR / f"{name}.json"
    assert json.loads(path.read_text()) == BUILTIN_CONFIGS[name]
    assert load_model(str(path)).describe() == builtin_model(name).describe()


def test_shipped_config_names_match_builtins():
    assert {path.stem for path in CONFIG_DIR.glob("*.json")} == set(BUILTIN_CONFIGS)


def test_unknown_top_level_key_rejected():
    doc = copy.deepcopy(BUILTIN_CONFIGS["identity_mu"])
    doc["surprise"] = 1
    with pytest.raises(ValidationError) as exc:
        parse_config(doc)
    assert "surprise" in str(exc.value)


def test_unknown_core_key_rejected():
    doc = copy.deepcopy(BUILTIN_CONFIGS["identity_mu"])
    doc["core"]["rho"] = 0.5
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_unknown_generator_key_rejected():
    doc = copy.deepcopy(BUILTIN_CONFIGS["mo15"])
    doc["generator"]["extra"] = True
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_unknown_mixing_law_key_rejected():
    doc = copy.deepcopy(BUILTIN_CONFIGS["mixing_gamma"])
    doc["generator"]["law"]["scale"] = 2.0
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_invalid_core_rejected_at_parse():
    doc = copy.deepcopy(BUILTIN_CONFIGS["identity_mu"])
    doc["core"]["lambda"] = 1.0  # far above the admissible window
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_validation_slack_is_honored():
    doc = copy.deepcopy(BUILTIN_CONFIGS["fig1_left"])
    # the published rounded parameters need the widened slack to validate
    assert parse_config(doc).core.slack == pytest.approx(5e-4)
    doc["validation_slack"] = 1e-9
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_unknown_builtin_name():
    with pytest.raises(ValidationError):
        builtin_model("nope")


def test_config_files_are_strict_json(tmp_path):
    # loading goes through the same strict parser as in-memory documents
    doc = copy.deepcopy(BUILTIN_CONFIGS["identity_mu"])
    doc["typo_field"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_model(path)


def test_mo15_bridge_has_a_config_form():
    _assert_round_trip_is_exact(mo15_bridge(Mo15Params(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=1.2, xi2=1.2)))


@pytest.mark.parametrize(
    "generator",
    [
        power_scaled(IdentityGenerator(), 2.0),
        LogPowerGenerator(coef=1.0, expo=2.0),
        SibuyaMixingGenerator(0.5, 0.1),
    ],
    ids=["power_scaled", "log_power", "sibuya"],
)
def test_emit_refuses_generators_without_a_config_form(generator):
    # only a generator built from a config document has one; a hand-built LogPowerGenerator
    # would need 1/expo for pareto's mu, which need not give back expo exactly
    m = Model(generator=generator, core=MU)
    with pytest.raises(ValidationError, match=generator.family):
        emit_config(m)


def test_numpy_and_int_parameters_round_trip():
    # the document holds the admitted floats, so json can write it and it reparses
    g = make_generator("gompertz", xi=np.float32(2.5), mu=np.int64(1))
    _assert_round_trip_is_exact(Model(generator=g, core=MU))
    m = Model(generator=make_generator("polynomial", coeffs=[0, np.float32(0.5), np.int64(0), 0.5]), core=MU)
    _assert_round_trip_is_exact(m)
    assert emit_config(m)["generator"]["params"] == {"coeffs": [0.0, 0.5, 0.0, 0.5]}
    law = MixingLaw("gamma", {"a": np.int64(2)})
    _assert_round_trip_is_exact(Model(generator=generator_from_mixing(law, np.float32(0.125)), core=MU))


def test_pareto_round_trips_its_parameters():
    # h(x) = (1 - ln x)^-2 is the pareto family with a = 1 and mu = 1/2
    m = Model(generator=make_generator("pareto", a=1.0, mu=0.5), core=MU)
    again = parse_config(emit_config(m))
    assert again.generator.expo == 2.0
    assert emit_config(again)["generator"] == {"family": "pareto", "params": {"a": 1.0, "mu": 0.5}}


DELETE = object()


def _set(name, path, value):
    """A copy of built-in `name` with the field at `path` set to value, or deleted where value is DELETE."""
    doc = copy.deepcopy(BUILTIN_CONFIGS[name])
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    if value is DELETE:
        del inner[last]
    else:
        inner[last] = value
    return doc


MALFORMED = {
    "unknown generator parameter": ("pareto_mu", ("generator", "params", "zeta"), 1.0),
    "missing generator parameter": ("pareto_mu", ("generator", "params", "mu"), DELETE),
    "string generator parameter": ("weibull_mu", ("generator", "params", "a"), "2"),
    "non-numeric string generator parameter": ("weibull_mu", ("generator", "params", "alpha"), "abc"),
    "null generator parameter": ("mo15", ("generator", "params", "xi"), None),
    "zero pareto mu": ("pareto_mu", ("generator", "params", "mu"), 0.0),
    "pareto mu with an infinite inverse": ("pareto_mu", ("generator", "params", "mu"), 1e-320),
    "NaN generator parameter": ("weibull_mu", ("generator", "params", "alpha"), float("nan")),
    "infinite generator parameter": ("fig1_left", ("generator", "params", "theta"), float("inf")),
    "bool generator parameter": ("fig1_left", ("generator", "params", "a"), True),
    "generator params not an object": ("weibull_mu", ("generator", "params"), [1.0, 2.0]),
    "unknown generator family": ("weibull_mu", ("generator", "family"), ["weibull"]),
    "unknown mixing-law parameter": ("mixing_gamma", ("generator", "law", "params", "b"), 1.0),
    "missing mixing-law parameter": ("mixing_gamma", ("generator", "law", "params"), {}),
    "string mixing-law parameter": ("mixing_sibuya", ("generator", "law", "params", "a"), "0.5"),
    "unknown mixing law": ("mixing_gamma", ("generator", "law", "kind"), "cauchy"),
    "missing mixing ratio": ("mixing_gamma", ("generator", "ratio"), DELETE),
    "string core value": ("identity_mu", ("core", "lambda"), "0.1"),
    "missing core value": ("identity_mu", ("core", "alpha2"), DELETE),
    "string validation_slack": ("fig1_left", ("validation_slack",), "5e-4"),
    "string ratio": ("mixing_stable", ("generator", "ratio"), "0.1"),
    "list core value": ("identity_mu", ("core", "alpha"), [1.0]),
    "list generator parameter": ("weibull_mu", ("generator", "params", "a"), [1.0]),
    "list ratio": ("mixing_logseries", ("generator", "ratio"), [0.1]),
}


# case -> (the path of a core field in identity_mu, a refused value, the refusal after "core: ")
CORE_REFUSALS = {name: (("core", name), -1, f"{name} must lie in .*, not -1") for name in CONFIG_NAMES[:-1]}
CORE_REFUSALS.update({
    "validation_slack": (("validation_slack",), -1, "validation_slack must be nonnegative, not -1"),
    "validation_slack nan": (("validation_slack",), np.nan, r"validation_slack must lie in \(-inf, inf\), not nan"),
    "validation_slack str": (("validation_slack",), "x", r"validation_slack must lie in \(-inf, inf\), not 'x'"),
    "validation_slack bool": (("validation_slack",), True, r"validation_slack must lie in \(-inf, inf\), not True"),
})


@pytest.mark.parametrize("case", CORE_REFUSALS)
def test_a_core_refusal_names_the_config_field(case):
    # lambda too, which CoreParams holds as its field lam, and validation_slack, which it holds as slack
    path, value, text = CORE_REFUSALS[case]
    with pytest.raises(ValidationError, match=f"^core: {text}$"):
        parse_config(_set("identity_mu", path, value))
    if path == ("validation_slack",):  # the Python API's keyword slack is refused in the same words
        mu = builtin_model("identity_mu").core
        with pytest.raises(ValidationError, match=f"^core: {text}$"):
            CoreParams(mu.lam, mu.alpha, mu.gamma1, mu.gamma2, mu.alpha1, mu.alpha2, slack=value)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_a_validation_error(case, tmp_path, capsys):
    doc = _set(*MALFORMED[case])
    with pytest.raises(ValidationError):
        parse_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", "-c", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

import copy
import json

import pytest

from bivlmp.config import (
    BUILTIN_CONFIGS,
    builtin_model,
    emit_config,
    load_model,
    parse_config,
)
from bivlmp.core import mu_core
from bivlmp.errors import ValidationError
from bivlmp.generators import IdentityGenerator, LogPowerGenerator, generator_from_survival, power_scaled
from bivlmp.model import Model

CONFIG_DIR = "configs"


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_emit_parse_round_trip(name):
    m = builtin_model(name)
    again = parse_config(emit_config(m))
    assert again.describe() == m.describe()


@pytest.mark.parametrize("name", sorted(BUILTIN_CONFIGS))
def test_shipped_config_files_match_builtins(name):
    m = load_model(f"{CONFIG_DIR}/{name}.json")
    assert m.describe() == builtin_model(name).describe()


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


@pytest.mark.parametrize(
    "generator",
    [power_scaled(IdentityGenerator(), 2.0), generator_from_survival(lambda z: 1.0 / (1.0 + z))],
    ids=["power_scaled", "from_survival"],
)
def test_emit_refuses_generators_without_a_config_form(generator):
    m = Model(generator=generator, core=mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2))
    with pytest.raises(ValidationError, match=generator.family):
        emit_config(m)


def test_log_power_generator_describes_its_pareto_parameters():
    # h(x) = (1 - ln x)^-2 is the pareto family with a = 1 and mu = 1/2
    core = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
    m = Model(generator=LogPowerGenerator(coef=1.0, expo=2.0), core=core)
    assert m.generator.params == {"a": 1.0, "mu": 0.5}
    again = parse_config(emit_config(m))
    assert again.describe() == m.describe()
    assert again.generator.expo == 2.0

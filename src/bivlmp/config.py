"""Strict JSON model configuration.

Schema (an unknown or missing field or parameter is rejected at every level,
and every value must be a finite JSON number; only polynomial "coeffs" is a list):

    {
      "label": "text",                     # optional
      "generator": {"family": "...", "params": {...}}
                 | {"family": "mixing", "law": {"kind": "...", "params": {...}},
                    "ratio": 0.1},
      "core": {"lambda": .., "alpha": .., "gamma1": .., "gamma2": ..,
               "alpha1": .., "alpha2": ..},
      "validation_slack": 1e-9             # optional
    }
"""

from __future__ import annotations

import json
import sys

from .core import CoreParams, DEFAULT_SLACK
from .errors import ValidationError
from .generators import Generator, make_generator
from .model import Model

_CORE_FIELDS = ("lambda", "alpha", "gamma1", "gamma2", "alpha1", "alpha2")


def _fields(doc, required: tuple, where: str, optional: tuple = ()):
    """doc, which must be an object with every required field and no field outside required + optional."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValidationError(f"{where} missing field(s): {', '.join(missing)}")
    return doc


def _number(value, where: str, list_ok: bool = False):
    """value as a float, or as a list of floats where list_ok; bools, strings, null and non-finite values fail."""
    if list_ok and isinstance(value, list):
        return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{where} must be a finite number, not {value!r}")
    return float(value)


def _params(doc, where: str) -> dict:
    """A params object with each value checked by _number; the generator layer checks the names."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be a JSON object")
    return {k: _number(v, f"{where}.{k}", list_ok=k == "coeffs") for k, v in doc.items()}


def parse_config(doc: dict) -> Model:
    _fields(doc, ("generator", "core"), "config", ("label", "validation_slack"))
    cdoc = _fields(doc["core"], _CORE_FIELDS, "core")
    core = CoreParams(*(_number(cdoc[k], f"core.{k}") for k in _CORE_FIELDS),
                      slack=_number(doc.get("validation_slack", DEFAULT_SLACK), "validation_slack"))
    return Model(generator=_parse_generator(doc["generator"]), core=core, label=str(doc.get("label", "")))


def _parse_generator(gdoc) -> Generator:
    if isinstance(gdoc, dict) and gdoc.get("family") == "mixing":
        _fields(gdoc, ("family", "law", "ratio"), "generator")
        law = _fields(gdoc["law"], ("kind",), "generator.law", ("params",))
        law = {"kind": law["kind"], "params": _params(law.get("params", {}), "generator.law.params")}
        return make_generator("mixing", law=law, ratio=_number(gdoc["ratio"], "generator.ratio"))
    _fields(gdoc, ("family",), "generator", ("params",))
    return make_generator(gdoc["family"], **_params(gdoc.get("params", {}), "generator.params"))


def emit_config(m: Model) -> dict:
    """Config document that reparses to an identical model."""
    if m.generator.config is None:
        raise ValidationError(f"a hand-built {m.generator.family!r} generator has no config form")
    core = m.core.describe()
    slack = core.pop("slack")
    return {"label": m.label, "generator": m.generator.describe(), "core": core, "validation_slack": slack}


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# built-in parameter sets
# ---------------------------------------------------------------------------

_MU_CORE = {"lambda": 0.1, "alpha": 1.0, "gamma1": 0.1, "gamma2": 0.1, "alpha1": 0.3, "alpha2": 0.2}

_FIG_LEFT_CORE = {
    "lambda": 0.0641, "alpha": 1.0, "gamma1": 0.05, "gamma2": 0.0463,
    "alpha1": 0.31, "alpha2": 0.3611,
}
_FIG_RIGHT_CORE = {
    "lambda": 0.0726, "alpha": 1.0, "gamma1": 0.046, "gamma2": 0.0426,
    "alpha1": 0.15, "alpha2": 0.2129,
}

BUILTIN_CONFIGS = {
    "identity_mu": {
        "label": "identity_mu",
        "generator": {"family": "identity", "params": {}},
        "core": dict(_MU_CORE),
    },
    "mixing_gamma": {
        "label": "mixing_gamma",
        "generator": {"family": "mixing", "law": {"kind": "gamma", "params": {"a": 2.0}}, "ratio": 0.1},
        "core": dict(_MU_CORE),
    },
    "mixing_stable": {
        "label": "mixing_stable",
        "generator": {
            "family": "mixing",
            "law": {"kind": "positive_stable", "params": {"a": 0.5}},
            "ratio": 0.1,
        },
        "core": dict(_MU_CORE),
    },
    "mixing_sibuya": {
        "label": "mixing_sibuya",
        "generator": {"family": "mixing", "law": {"kind": "sibuya", "params": {"a": 0.5}}, "ratio": 0.1},
        "core": dict(_MU_CORE),
    },
    "mixing_logseries": {
        "label": "mixing_logseries",
        "generator": {
            "family": "mixing",
            "law": {"kind": "log_series", "params": {"theta": -0.5}},
            "ratio": 0.1,
        },
        "core": dict(_MU_CORE),
    },
    "mo15": {
        "label": "mo15",
        "generator": {"family": "mo15", "params": {"xi": 2.0}},
        "core": {"lambda": 1.0, "alpha": 1.0, "gamma1": 1.0, "gamma2": 1.0, "alpha1": 0.4, "alpha2": 0.4},
    },
    "fig1_left": {
        "label": "fig1_left",
        "generator": {"family": "log_series", "params": {"a": 1.0, "theta": 10.0}},
        "core": dict(_FIG_LEFT_CORE),
        "validation_slack": 5e-04,
    },
    "fig1_right": {
        "label": "fig1_right",
        "generator": {"family": "log_series", "params": {"a": 1.0, "theta": 10.0}},
        "core": dict(_FIG_RIGHT_CORE),
        "validation_slack": 1e-05,
    },
    "weibull_mu": {
        "label": "weibull_mu",
        "generator": {"family": "weibull", "params": {"a": 1.0, "alpha": 2.0}},
        "core": dict(_MU_CORE),
    },
    "pareto_mu": {
        "label": "pareto_mu",
        "generator": {"family": "pareto", "params": {"a": 1.0, "mu": 1.0}},
        "core": dict(_MU_CORE),
    },
}


def builtin_model(name: str) -> Model:
    try:
        doc = BUILTIN_CONFIGS[name]
    except KeyError:
        raise ValidationError(f"unknown built-in model {name!r}") from None
    return parse_config(doc)


def builtin_models() -> dict:
    return {name: builtin_model(name) for name in BUILTIN_CONFIGS}

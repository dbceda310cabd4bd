"""Strict JSON model configuration.

Schema (an unknown or missing field or parameter is rejected at every level;
only polynomial "coeffs" is a list).  This module checks the document's shape;
each value goes unchanged to its constructor, whose rule admits a finite
number inside the parameter's interval and refuses a bool, a string or null:

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

from .core import CONFIG_NAMES, CoreParams, DEFAULT_SLACK
from .errors import ValidationError
from .generators import Generator, _entry, make_generator
from .model import Model
from .numerics import _fields


def parse_config(doc: dict) -> Model:
    gdoc, cdoc = _fields(doc, ("generator", "core"), "config", ("label", "validation_slack"))
    core = CoreParams(*_fields(cdoc, CONFIG_NAMES[:-1], "core"), slack=doc.get("validation_slack", DEFAULT_SLACK))
    return Model(generator=_parse_generator(gdoc), core=core, label=str(doc.get("label", "")))


def _parse_generator(gdoc) -> Generator:
    if isinstance(gdoc, dict) and gdoc.get("family") == "mixing":
        _, law, ratio = _fields(gdoc, ("family", "law", "ratio"), "generator")
        return make_generator("mixing", law=law, ratio=ratio)
    (family,) = _fields(gdoc, ("family",), "generator", ("params",))
    params = gdoc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("generator.params must be a JSON object")
    return make_generator(family, **params)


def emit_config(m: Model) -> dict:
    """Config document that reparses to an identical model."""
    if m.generator.config is None:
        raise ValidationError(f"a hand-built {m.generator.family!r} generator has no config form")
    core = m.core.describe()
    slack = core.pop("validation_slack")
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
    return parse_config(_entry(BUILTIN_CONFIGS, name, "built-in model"))


def builtin_models() -> dict:
    return {name: builtin_model(name) for name in BUILTIN_CONFIGS}

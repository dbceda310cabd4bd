"""Strict JSON model configuration.

Schema (unknown fields rejected at every level):

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

from .core import CoreParams, DEFAULT_SLACK
from .errors import ValidationError
from .generators import _FAMILIES, Generator, make_generator
from .model import Model

_TOP_KEYS = {"label", "generator", "core", "validation_slack"}
_CORE_KEYS = {"lambda", "alpha", "gamma1", "gamma2", "alpha1", "alpha2"}
_GEN_KEYS = {"family", "params"}
_GEN_MIXING_KEYS = {"family", "law", "ratio"}
_LAW_KEYS = {"kind", "params"}


def _reject_unknown(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ValidationError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")


def parse_config(doc: dict) -> Model:
    _reject_unknown(doc, _TOP_KEYS, "config")
    for req in ("generator", "core"):
        if req not in doc:
            raise ValidationError(f"config missing required field {req!r}")
    slack = float(doc.get("validation_slack", DEFAULT_SLACK))
    core_doc = doc["core"]
    _reject_unknown(core_doc, _CORE_KEYS, "core")
    missing = _CORE_KEYS - set(core_doc)
    if missing:
        raise ValidationError(f"core missing field(s): {', '.join(sorted(missing))}")
    core = CoreParams(
        lam=float(core_doc["lambda"]),
        alpha=float(core_doc["alpha"]),
        gamma1=float(core_doc["gamma1"]),
        gamma2=float(core_doc["gamma2"]),
        alpha1=float(core_doc["alpha1"]),
        alpha2=float(core_doc["alpha2"]),
        slack=slack,
    )
    gen = _parse_generator(doc["generator"])
    return Model(generator=gen, core=core, label=str(doc.get("label", "")))


def _parse_generator(gdoc: dict) -> Generator:
    if not isinstance(gdoc, dict) or "family" not in gdoc:
        raise ValidationError("generator must be an object with a 'family' field")
    family = gdoc["family"]
    if family == "mixing":
        _reject_unknown(gdoc, _GEN_MIXING_KEYS, "generator")
        for req in ("law", "ratio"):
            if req not in gdoc:
                raise ValidationError(f"mixing generator missing field {req!r}")
        law = gdoc["law"]
        _reject_unknown(law, _LAW_KEYS, "generator.law")
        if "kind" not in law:
            raise ValidationError("generator.law missing 'kind'")
        return make_generator(
            "mixing",
            law={"kind": law["kind"], "params": dict(law.get("params", {}))},
            ratio=float(gdoc["ratio"]),
        )
    _reject_unknown(gdoc, _GEN_KEYS, "generator")
    params = gdoc.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("generator.params must be an object")
    return make_generator(family, **params)


def emit_config(m: Model) -> dict:
    """Config document that reparses to an identical model."""
    g = m.generator
    if g.family != "mixing" and g.family not in _FAMILIES:
        raise ValidationError(f"a {g.family!r} generator has no config form")
    if g.family == "mixing":
        gdoc = {
            "family": "mixing",
            "law": {"kind": g.params["law"]["kind"], "params": dict(g.params["law"]["params"])},
            "ratio": g.params["ratio"],
        }
    else:
        gdoc = {"family": g.family, "params": dict(g.params)}
    return {
        "label": m.label,
        "generator": gdoc,
        "core": {
            "lambda": m.core.lam,
            "alpha": m.core.alpha,
            "gamma1": m.core.gamma1,
            "gamma2": m.core.gamma2,
            "alpha1": m.core.alpha1,
            "alpha2": m.core.alpha2,
        },
        "validation_slack": m.core.slack,
    }


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

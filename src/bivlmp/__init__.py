"""Bivariate survival models with a distorted weak lack-of-memory property.

The joint survival function has the form Fbar = h(Gbar) where h is a strictly
increasing bijection of [0,1] (the distortion generator) and Gbar satisfies the
classical weak bivariate lack-of-memory property.  Equivalently, the residual
survival satisfies Fbar(x+t, y+t)/Fbar(t, t) = d_t(Fbar(x, y)) for a
time-indexed distortion d_t induced by h.

Each submodule loads on first use (PEP 562): ``import bivlmp`` loads none of
them, and ``bivlmp.X`` or ``from bivlmp import X`` imports X's module.
"""

import sys

__version__ = "0.1.0"

# each submodule -> the names it exports from the package
_EXPORTS = {
    "core": ("CoreParams", "core_copula", "marginal_density", "marginal_quantile", "marginal_survival", "mu_core",
             "singular_mass", "weak_lmp_residual"),
    "dependence": ("KendallCurve", "TailReport", "empirical_kendall", "kendall_function", "kendall_tau", "tail_lower",
                   "tail_numeric", "tail_upper"),
    "errors": ("BivlmpError", "ConvergenceError", "DomainError", "ValidationError"),
    "generators": ("AgingProfile", "Generator", "MixingLaw", "aging_profile", "generator_from_mixing",
                   "make_generator", "multiplicativity_check", "power_scaled", "pseudo_product",
                   "residual_distortion", "time_distortion"),
    "model": ("Mo15Params", "Model", "copula_t", "fbar", "fbar_residual", "generalized_weak_residual", "mean_excess",
              "mo15_bridge", "residual_marginal", "singular_line_survival"),
    "pricing": ("PricingQuote", "independent_annuity", "joint_annuity", "life_expectancy", "premium_table",
                "residual_independent_annuity", "residual_joint_annuity"),
    "sampler": ("SampleBatch", "empirical_atom", "sample_core", "sample_mixing_shortcut", "sample_model"),
    "config": ("builtin_model", "builtin_models", "emit_config", "load_model", "parse_config"),
    "numerics": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    """Import the module that defines name, and keep the value so later lookups never come here."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # not importlib.import_module, which -X importtime does not report
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__

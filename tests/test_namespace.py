"""The package namespace: every public name, from its home module, loaded on first use."""

import importlib

import bivlmp

NAMES = [
    "AgingProfile", "BivlmpError", "ConvergenceError", "CoreParams", "DomainError", "Generator", "KendallCurve",
    "MixingLaw", "Mo15Params", "Model", "PricingQuote", "SampleBatch", "TailReport", "ValidationError",
    "aging_profile", "builtin_model", "builtin_models", "config", "copula_t", "core", "core_copula", "dependence",
    "emit_config", "empirical_atom", "empirical_kendall", "errors", "fbar", "fbar_residual",
    "generalized_weak_residual", "generator_from_mixing", "generators", "independent_annuity", "joint_annuity",
    "kendall_function", "kendall_tau", "life_expectancy", "load_model", "make_generator", "marginal_density",
    "marginal_quantile", "marginal_survival", "mean_excess", "mo15_bridge", "model", "mu_core",
    "multiplicativity_check", "numerics", "parse_config", "power_scaled", "premium_table", "pricing",
    "pseudo_product", "residual_distortion", "residual_independent_annuity", "residual_joint_annuity",
    "residual_marginal", "sample_core", "sample_mixing_shortcut", "sample_model", "sampler",
    "singular_line_survival", "singular_mass", "tail_lower", "tail_numeric", "tail_upper", "time_distortion",
    "weak_lmp_residual",
]
SUBMODULES = ("config", "core", "dependence", "errors", "generators", "model", "numerics", "pricing", "sampler")


def test_all_names_the_public_api():
    assert len(NAMES) == 67
    assert bivlmp.__all__ == NAMES


def test_each_name_is_its_home_modules_object():
    for name in NAMES:
        if name in SUBMODULES:
            assert getattr(bivlmp, name) is importlib.import_module(f"bivlmp.{name}")
        else:
            home = importlib.import_module(getattr(bivlmp, name).__module__)
            assert home.__name__.startswith("bivlmp.") and getattr(home, name) is getattr(bivlmp, name), name


def test_dir_and_star_import_give_every_name():
    assert dir(bivlmp) == NAMES
    namespace = {}
    exec("from bivlmp import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == NAMES


def test_unknown_name_raises_attribute_error():
    try:
        bivlmp.no_such_name
    except AttributeError as exc:
        assert str(exc) == "module 'bivlmp' has no attribute 'no_such_name'"
    else:
        raise AssertionError("bivlmp.no_such_name resolved")


def test_a_name_is_resolved_once(monkeypatch):
    calls = []
    resolve = vars(bivlmp)["__getattr__"]

    def counted(name):
        calls.append(name)
        return resolve(name)

    monkeypatch.delitem(vars(bivlmp), "kendall_tau", raising=False)
    monkeypatch.setitem(vars(bivlmp), "__getattr__", counted)
    first = bivlmp.kendall_tau
    assert bivlmp.kendall_tau is first
    assert calls == ["kendall_tau"]


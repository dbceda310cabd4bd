"""Every keyword default of the public API, pinned.

A default that no caller overrides is a setting with one value: it belongs
as a constant at its one use.  So each defaulted parameter of a public
function or class defined in a bivlmp module is listed here; a new one fails
this test until it is added to the table together with its second caller,
which CHANGES.md names.
"""

import importlib
import inspect
import pkgutil

import bivlmp

SETTINGS = {
    "cli.run": ("argv",),
    "core.CoreParams": ("slack",),
    "dependence.TailReport": ("classification", "converged"),
    "dependence.empirical_kendall": ("s_grid",),
    "dependence.kendall_function": ("s_grid", "source"),
    "errors.ConvergenceError": ("estimate",),
    "generators.Interval": ("hi", "closed", "hole"),
    "generators.MixingLaw": ("params",),
    "generators.SurvivalGenerator": ("density",),
    "generators.generator_from_survival": ("density",),
    "model.Model": ("label",),
    "numerics.LimitEstimate": ("sequence_tail", "converged"),
    "numerics.in_unit": ("slack", "open_at_0"),
    "numerics.integrate_unit": ("tol",),
    "numerics.integrate_upper": ("tol", "rate"),
    "numerics.invert_monotone": ("tol",),
    "numerics.limit_at_zero": ("u0", "tol", "budget"),
    "numerics.solve_decreasing_batch": ("start", "args"),
    "pricing.PricingQuote": ("model_label",),
    "pricing.independent_annuity": ("horizon",),
    "pricing.joint_annuity": ("horizon",),
    "pricing.life_expectancy": ("horizon",),
    "pricing.premium_table": ("horizon",),
    "sampler.SampleBatch": ("model_label",),
}


def _defaulted_parameters():
    found = {}
    for info in pkgutil.iter_modules(bivlmp.__path__):
        module = importlib.import_module(f"bivlmp.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:  # a class built on a builtin constructor, such as an exception's
                continue
            defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
            if defaulted:
                found[f"{info.name}.{name}"] = defaulted
    return found


def test_every_setting_is_pinned():
    assert _defaulted_parameters() == SETTINGS

"""No public name that nothing reaches, and one entry per public numeric call.

A static scan of src/bivlmp/*.py.  Each public top-level function and each
public method of Generator must be referenced in the package somewhere other
than its own definition and __init__.py (its kernel, fn.kernel, counts), or
be listed in KEPT with the reason it stays: the paper names it (paper), a
command of the CLI needs it (cli), or bench/tracing.py binds it by name with
no default, so that deleting it breaks the benchmark (bench-bound).  A new
public name that nothing reaches fails here, and so does a row of KEPT whose
name is reached or gone.

Each public function of ENTRY_MODULES and each public method of Generator is
decorated with numerics.entry, or is listed in NOT_ENTRIES with its reason.
No kernel calls an entry: a kernel is a _ function or method, an entry's
body, or a function or lambda nested in a function (a quadrature integrand,
a root-finder residual).  Outside numerics, no kernel calls an admission
helper either, but where EXEMPT says why; and each kind of
numerics._RANGES and numerics._ADMISSIONS is declared by some entry.  So each
public call checks each argument once, at its entry, and opens one error
state by construction.  An entry admits only what its caller passed, so
each default of an admitted parameter is already what its admission returns.
And only numerics.Record sets a record's field.

One kernel integrates a survival curve: no function of pricing calls a
quadrature or the decay scale or the heavy-tail probe of model, and only
model._survival_integral calls those two.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from bivlmp import numerics

SRC = Path(__file__).parents[1] / "src" / "bivlmp"
REASONS = {"paper", "cli", "bench-bound"}
KEPT = {
    "Generator.h": "paper",
    "Generator.h_inverse": "paper",
    "Generator.h_from_log": "paper",
    "Generator.h_log_from_log": "paper",
    "Generator.h_elasticity_from_log": "paper",
    "config.builtin_models": "paper",
    "core.core_copula": "paper",
    "core.marginal_density": "paper",
    "core.marginal_quantile_log": "paper",
    "core.marginal_survival": "paper",
    "core.mu_core": "paper",
    "core.weak_lmp_residual": "paper",
    "dependence.empirical_kendall": "paper",
    "dependence.j_integral_quadrature": "paper",
    "generators.multiplicativity_check": "paper",
    "generators.power_scaled": "paper",
    "generators.pseudo_product": "paper",
    "generators.residual_distortion": "paper",
    "generators.residual_distortion_log": "paper",
    "generators.residual_distortion_log_inverse": "paper",
    "model.copula_t": "paper",
    "model.fbar_log": "paper",
    "model.mean_excess": "paper",
    "model.mo15_bridge": "paper",
    "model.singular_line_survival": "paper",
    "pricing.life_expectancy": "paper",
    "pricing.residual_independent_annuity": "paper",
    "pricing.residual_joint_annuity": "paper",
    "sampler.sample_core": "paper",
    "sampler.sample_mixing_shortcut": "paper",
    "core.marginal_quantile": "bench-bound",
    "generators.residual_distortion_inverse": "bench-bound",
    "generators.residual_distortion_prime": "bench-bound",
    "numerics.invert_monotone": "bench-bound",
}


ENTRY_MODULES = ("core", "model", "generators", "dependence", "pricing")
KERNEL_MODULES = (*ENTRY_MODULES, "numerics", "sampler")  # cli's _ functions are commands, not kernels
NOT_ENTRY_REASONS = {
    "constructor": "admits its numbers with _admit and returns an object",
    "parameters": "a function of a parameter object alone, with no caller number",
    "sample": "counts a sample batch; its s grid takes +-inf, so it is no probability",
    "text": "takes no number",
}
NOT_ENTRIES = {
    "Generator.describe": "text",
    "core.mu_core": "constructor",
    "core.singular_mass": "parameters",
    "core.singular_mass_raw": "parameters",
    "dependence.core_lambda_l": "parameters",
    "dependence.core_lambda_u": "parameters",
    "dependence.empirical_kendall": "sample",
    "generators.generator_from_mixing": "constructor",
    "generators.make_generator": "constructor",
    "generators.power_scaled": "constructor",
    "model.mo15_bridge": "constructor",
    "pricing.table_text": "text",
}


def _places(tree, module):
    """(qualified name, node) of each top-level function and each method; (None, node) for the rest of the module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef) else None), item
        else:
            yield None, node


def _scan():
    """(the qualified public names, {bare name: the places that reference it})."""
    public, refs = set(), {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for place, node in _places(ast.parse(path.read_text()), module):
            if place is not None and not place.rsplit(".", 1)[1].startswith("_") and \
                    place.split(".")[0] in (module, "Generator"):
                public.add(place)
            if module == "__init__":
                continue
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name is not None:
                    refs.setdefault(name, set()).add(place)
    return public, refs


def test_every_public_name_is_reached_or_kept_for_a_reason():
    public, refs = _scan()
    unreached = {key for key in public if not refs.get(key.rsplit(".", 1)[1], set()) - {key}}
    assert unreached == set(KEPT), (sorted(unreached - set(KEPT)), sorted(set(KEPT) - unreached))
    assert set(KEPT.values()) <= REASONS


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _entry_decorators(node) -> list:
    """The entry(...) calls that decorate a function."""
    return [d for d in node.decorator_list
            if isinstance(d, ast.Call) and getattr(d.func, "id", getattr(d.func, "attr", None)) == "entry"]


def _is_entry(node) -> bool:
    """Whether a function is decorated with entry(...)."""
    return bool(_entry_decorators(node))


def _functions(tree, module):
    """(qualified name, node) of each top-level function and each method, as _places names them."""
    return [(place, node) for place, node in _places(tree, module) if isinstance(node, ast.FunctionDef)]


def _kernel_calls(trees, modules):
    """(the kernel, the name it calls) for each call by name in a kernel of modules.

    A kernel is a _ function or method (not a dunder), an entry's body, or a
    function or lambda nested in a function.
    """
    for module, tree in trees.items():
        if module not in modules:
            continue
        for place, node in _functions(tree, module):
            name = node.name
            kernel = _is_entry(node) or name.startswith("_") and not name.endswith("__")
            nested = [sub for sub in ast.walk(node)
                      if isinstance(sub, (ast.FunctionDef, ast.Lambda)) and sub is not node]
            for body in [node] * kernel + nested:
                for call in ast.walk(body):
                    if isinstance(call, ast.Call):
                        yield place, getattr(call.func, "id", getattr(call.func, "attr", None))


def _entry_calls(trees) -> set:
    """(the kernel, the entry it calls) for each call of an entry by name in a kernel of KERNEL_MODULES.

    A call of fn.kernel calls no entry.
    """
    entries = {node.name for module, tree in trees.items() for _, node in _functions(tree, module) if _is_entry(node)}
    return {(place, callee) for place, callee in _kernel_calls(trees, KERNEL_MODULES) if callee in entries}


def test_every_public_numeric_function_is_an_entry_or_says_why_not():
    trees = _trees()
    plain = {place for module, tree in trees.items() if module in ENTRY_MODULES
             for place, node in _functions(tree, module)
             if not node.name.startswith("_") and place.split(".")[0] in (module, "Generator") and not _is_entry(node)}
    assert plain == set(NOT_ENTRIES), (sorted(plain - set(NOT_ENTRIES)), sorted(set(NOT_ENTRIES) - plain))
    assert set(NOT_ENTRIES.values()) <= set(NOT_ENTRY_REASONS)


def test_no_kernel_calls_an_entry():
    assert _entry_calls(_trees()) == set()


def test_the_scan_finds_a_kernel_that_calls_an_entry():
    trees = _trees()
    injected = ast.parse("""
def _kernel(p, x):
    return gbar_log(p, x, x) + gbar_log.kernel(p, x, x)


def integral(p):
    return integrate_unit(lambda u: marginal_survival(p, 1, u))
""")
    trees["core"].body.extend(injected.body)
    assert _entry_calls(trees) == {("core._kernel", "gbar_log"), ("core.integral", "marginal_survival")}


# the checks of numerics that admit an argument, and Model.tau; numerics calls them from its entries
ADMISSION_HELPERS = {"_admit", "_admit_count", "_sequence", "_real_array", "_is_real", "_in_range", "_s_grid",
                     "_check_age", "tau"}
CONSTRUCTORS = {"__init__", "__post_init__", "_pareto"}  # each admits the numbers it is given, with _admit
EXEMPT = {("dependence._kendall_values", "_in_range"): "guards a computed ln v, not an argument",
          ("sampler._draws", "_admit_count"): "admits a sampler's count and seed, as a constructor does"}


def _admission_calls(trees) -> set:
    """(the kernel, the helper it calls) for each call of an admission helper in a kernel outside numerics.

    A constructor's calls and those of EXEMPT are left out.
    """
    return {(place, callee) for place, callee in _kernel_calls(trees, set(KERNEL_MODULES) - {"numerics"})
            if callee in ADMISSION_HELPERS and place.rsplit(".", 1)[1] not in CONSTRUCTORS} - set(EXEMPT)


def _kinds_table(trees, name: str) -> ast.Dict:
    """The dict literal of numerics.<name>, a table of kinds."""
    return next(node.value for node in trees["numerics"].body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name)


def _undeclared_kinds(trees) -> set:
    """The kinds of numerics._RANGES and _ADMISSIONS that no entry(...) declares, by itself or as (kind, name)."""
    specs = [keyword.value for module, tree in trees.items() for _, node in _functions(tree, module)
             for d in _entry_decorators(node) for keyword in d.keywords]
    declared = {(spec.elts[0] if isinstance(spec, ast.Tuple) else spec).value for spec in specs}
    return {key.value for table in ("_RANGES", "_ADMISSIONS") for key in _kinds_table(trees, table).keys} - declared


def test_no_kernel_outside_numerics_checks_an_argument():
    assert _admission_calls(_trees()) == set()


def test_every_kind_of_admission_is_declared_by_an_entry():
    assert _undeclared_kinds(_trees()) == set()


def _admits_unchanged(kind: str, what: str, default) -> bool:
    """Whether kind's admission returns default itself, or an equal float64 array if default is a read-only one."""
    admit = numerics._ADMISSIONS.get(kind) or (lambda x, w, first: numerics._in_range(x, w, numerics._RANGES[kind]))
    got = admit(default, what, None)
    if isinstance(default, np.ndarray):
        return default.dtype == got.dtype == float and not default.flags.writeable and np.array_equal(got, default)
    return got is default


def _entry_defaults(trees) -> dict:
    """{(entry, parameter): (its kind, the name its errors give it, its default)} for each defaulted admitted one."""
    found = {}
    for module, tree in trees.items():
        for place, node in _functions(tree, module):
            if not _is_entry(node):
                continue
            owner, name = place.split(".")
            namespace = importlib.import_module(f"bivlmp.{module}")
            fn = getattr(namespace if owner == module else getattr(namespace, owner), name)
            for keyword in [k for d in _entry_decorators(node) for k in d.keywords]:
                spec = ast.literal_eval(keyword.value)
                kind, what = spec if isinstance(spec, tuple) else (spec, keyword.arg)
                default = inspect.signature(fn.kernel).parameters[keyword.arg].default
                if default is not inspect.Parameter.empty:
                    found[place, keyword.arg] = kind, what, default
    return found


def test_every_entry_default_is_already_admitted():
    # a left-out parameter reaches its entry's body unadmitted, so its default must be what its admission returns
    found = _entry_defaults(_trees())
    assert set(found) == {("dependence.kendall_function", "s_grid"), ("dependence.kendall_function", "source"),
                          *((f"pricing.{name}", "horizon") for name in
                            ("joint_annuity", "independent_annuity", "life_expectancy", "premium_table"))}
    assert [place for place, spec in found.items() if not _admits_unchanged(*spec)] == []


def test_the_rule_refuses_a_default_that_its_admission_converts():
    grid = tuple(np.linspace(0.05, 0.95, 19))
    writeable = np.linspace(0.05, 0.95, 19)
    assert not _admits_unchanged("s grid", "s", grid)  # admitted as a new float array
    assert not _admits_unchanged("s grid", "s", writeable)  # a default array that a body could write
    assert not _admits_unchanged("horizon", "horizon", 50)  # admitted as the float 50.0
    assert _admits_unchanged("horizon", "horizon", None) and _admits_unchanged("Kendall source", "source", "quadrature")


def test_the_scan_finds_a_kernel_that_checks_an_argument():
    trees = _trees()
    injected = ast.parse("""
def _kernel(p, z):
    return gbar_log.kernel(p, _in_range(z, "z", _RANGES["lifetime"]), z)


def integral(m, t):
    return integrate_unit(lambda u: m.tau(t) * u)


class Law:
    def __init__(self, a):
        self.a = _admit("law", "a", a, POSITIVE)
""")
    trees["core"].body.extend(injected.body)
    assert _admission_calls(trees) == {("core._kernel", "_in_range"), ("core.integral", "tau")}


def test_the_scan_finds_a_kind_that_no_entry_declares():
    trees = _trees()
    for table, kind, value in (("_ADMISSIONS", "unused kind", "lambda x, what, first: x"),
                               ("_RANGES", "unused range", "(0.0, False, None, '{what} must be nonnegative')")):
        _kinds_table(trees, table).keys.append(ast.Constant(kind))
        _kinds_table(trees, table).values.append(ast.parse(value, mode="eval").body)
    assert _undeclared_kinds(trees) == {"unused kind", "unused range"}


def _field_setters(trees) -> set:
    """(module, the function or method, None elsewhere) of each __set__ and each object.__setattr__ in the package."""
    return {(module, place) for module, tree in trees.items() for place, node in _places(tree, module)
            for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
            and (sub.attr == "__set__" or sub.attr == "__setattr__" and getattr(sub.value, "id", None) == "object")}


def test_only_record_sets_a_field():
    # Record.__init_subclass__ binds each slot's __set__ once, for Record._fill to call
    assert _field_setters(_trees()) == {("numerics", "Record.__init_subclass__")}


def test_the_scan_finds_a_field_set_outside_record():
    trees = _trees()
    injected = ast.parse("""
class Quote(Record):
    def __init__(self, t):
        object.__setattr__(self, "t", t)
""")
    trees["pricing"].body.extend(injected.body)
    assert _field_setters(trees) == {("numerics", "Record.__init_subclass__"), ("pricing", "Quote.__init__")}


# the quadratures, and the two halves of the half-line policy that only model._survival_integral may ask
INTEGRAL_POLICY = ("integrate_upper", "integrate_unit", "_heavy_tailed", "_decay_rate")


def _policy_calls(trees) -> set:
    """(module, the function or method, None elsewhere, the name) of each call by name of INTEGRAL_POLICY."""
    return {(module, place, name) for module, tree in trees.items() for place, node in _places(tree, module)
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and (name := getattr(call.func, "id", getattr(call.func, "attr", None))) in INTEGRAL_POLICY}


def test_one_kernel_integrates_a_survival_curve():
    calls = _policy_calls(_trees())
    assert {call for call in calls if call[0] == "pricing"} == set()
    assert {call for call in calls if call[2] in INTEGRAL_POLICY[2:]} == {
        ("model", "model._survival_integral", "_heavy_tailed"), ("model", "model._survival_integral", "_decay_rate")}


def test_the_scan_finds_an_integral_outside_the_kernel():
    trees = _trees()
    injected = ast.parse("""
def _integrate(surv, m, t, span):
    rate = _decay_rate(m, m.lam * t)
    return integrate_unit(lambda u: span * surv(span * u), tol=1e-8).value
""")
    trees["pricing"].body.extend(injected.body)
    assert {call for call in _policy_calls(trees) if call[0] == "pricing"} == {
        ("pricing", "pricing._integrate", "_decay_rate"), ("pricing", "pricing._integrate", "integrate_unit")}

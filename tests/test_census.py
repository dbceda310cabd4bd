"""No public name that nothing reaches.

A static scan of src/bivlmp/*.py.  Each public top-level function and each
public method of Generator must be referenced in the package somewhere other
than its own definition and __init__.py, or be listed in KEPT with the reason
it stays: the paper names it (paper), a command of the CLI needs it (cli), or
bench/tracing.py binds it by name with no default, so that deleting it breaks
the benchmark (bench-bound).  A new public name that nothing reaches fails
here, and so does a row of KEPT whose name is reached or gone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "bivlmp"
REASONS = {"paper", "cli", "bench-bound"}
KEPT = {
    "Generator.h_inverse": "paper",
    "Generator.h_from_log": "paper",
    "Generator.h_log_from_log": "paper",
    "Generator.h_elasticity_from_log": "paper",
    "config.builtin_models": "paper",
    "core.core_copula": "paper",
    "core.gbar_log": "paper",
    "core.marginal_density": "paper",
    "core.marginal_hazard": "paper",
    "core.marginal_survival": "paper",
    "core.mu_core": "paper",
    "core.weak_lmp_residual": "paper",
    "dependence.empirical_kendall": "paper",
    "dependence.j_integral_closed": "paper",
    "dependence.j_integral_quadrature": "paper",
    "generators.multiplicativity_check": "paper",
    "generators.power_scaled": "paper",
    "generators.pseudo_product": "paper",
    "generators.residual_distortion": "paper",
    "generators.residual_distortion_log": "paper",
    "generators.residual_distortion_log_inverse": "paper",
    "generators.time_distortion": "paper",
    "model.copula_t": "paper",
    "model.fbar_log": "paper",
    "model.fbar_marginal": "paper",
    "model.mean_excess": "paper",
    "model.mo15_bridge": "paper",
    "model.residual_marginal": "paper",
    "model.singular_line_survival": "paper",
    "pricing.independent_annuity": "paper",
    "pricing.joint_annuity": "paper",
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

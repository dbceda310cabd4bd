"""Bivariate survival models with a distorted weak lack-of-memory property.

The joint survival function has the form Fbar = h(Gbar) where h is a strictly
increasing bijection of [0,1] (the distortion generator) and Gbar satisfies the
classical weak bivariate lack-of-memory property.  Equivalently, the residual
survival satisfies Fbar(x+t, y+t)/Fbar(t, t) = d_t(Fbar(x, y)) for a
time-indexed distortion d_t induced by h.
"""

from .core import (
    CoreParams,
    core_copula,
    gbar_eval,
    marginal_density,
    marginal_quantile,
    marginal_survival,
    mu_core,
    singular_mass,
    weak_lmp_residual,
)
from .dependence import (
    KendallCurve,
    TailReport,
    empirical_kendall,
    kendall_function,
    kendall_tau,
    tail_lower,
    tail_numeric,
    tail_upper,
)
from .errors import (
    BivlmpError,
    ConvergenceError,
    DomainError,
    ValidationError,
)
from .generators import (
    AgingProfile,
    Generator,
    MixingLaw,
    aging_profile,
    generator_from_mixing,
    make_generator,
    multiplicativity_check,
    power_scaled,
    pseudo_product,
    residual_distortion,
    time_distortion,
)
from .model import (
    Mo15Params,
    Model,
    copula_t,
    fbar,
    fbar_residual,
    generalized_weak_residual,
    mean_excess,
    mo15_bridge,
    residual_marginal,
    singular_line_survival,
)
from .pricing import (
    PricingQuote,
    independent_annuity,
    joint_annuity,
    life_expectancy,
    premium_table,
    residual_independent_annuity,
    residual_joint_annuity,
)
from .sampler import (
    SampleBatch,
    empirical_atom,
    empirical_atom_survival,
    empirical_survival,
    sample_core,
    sample_mixing_shortcut,
    sample_model,
)
from .config import builtin_model, builtin_models, emit_config, load_model, parse_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

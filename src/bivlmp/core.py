"""The undistorted layer.

The five-parameter family

    Gbar(x, y) = e^{-lambda y} (alpha1 + (1-alpha1) e^{gamma1 (x-y)})^{-1/alpha},  x >= y,

symmetric for x < y, satisfies the classical weak lack-of-memory property
Gbar(x+t, y+t) = Gbar(x, y) e^{-lambda t}.  It is a valid survival function iff

    (1/alpha) max(gamma1, gamma2) <= lambda <= (1/alpha)(gamma1(1-alpha1) + gamma2(1-alpha2)).

Setting gamma1 = gamma2 = gamma and lambda = gamma/alpha gives the
Muliere-Scarsini style subfamily with absolutely explicit copula.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import (POSITIVE, _FINITE, Interval, _admit, _is_real, _real_array, copula_edges, in_unit,
                       scalar_or_array)

DEFAULT_SLACK = 1e-9
_WEIGHT = Interval(0.0, 1.0)
# each field of CoreParams and its domain; slack, any finite number here, must also be >= 0
_DOMAINS = {"lam": POSITIVE, "alpha": POSITIVE, "gamma1": POSITIVE, "gamma2": POSITIVE,
            "alpha1": _WEIGHT, "alpha2": _WEIGHT, "slack": _FINITE}


@dataclass(frozen=True)
class CoreParams:
    lam: float
    alpha: float
    gamma1: float
    gamma2: float
    alpha1: float
    alpha2: float
    slack: float = DEFAULT_SLACK

    def __post_init__(self):
        for name, domain in _DOMAINS.items():
            object.__setattr__(self, name, _admit("core", name, getattr(self, name), domain))
        if self.slack < 0:
            raise ValidationError("slack must be nonnegative")
        # a margin inside the slack still validates (rounded published parameter sets need this)
        lower, upper = self._window()
        low, up, mass = self.margins.values()
        violations = [text for bad, text in (
            (low < -self.slack, f"lower bound violated: lambda={self.lam} < max(gamma1,gamma2)/alpha={lower} "
                                f"(margin {low:.3e})"),
            (up < -self.slack, f"upper bound violated: lambda={self.lam} > (gamma1(1-alpha1)+gamma2(1-alpha2))/alpha="
                               f"{upper} (margin {up:.3e})"),
            (mass < -self.slack, f"singular mass {mass:.3e} is negative beyond slack {self.slack:.1e}"),
            (mass > 1.0, f"singular mass {mass:.3e} exceeds 1"),
        ) if bad]
        if violations:
            raise ValidationError("; ".join(violations))

    def _window(self):
        """The bounds (lower, upper) of the admissible lambdas, as in the module docstring."""
        return (max(self.gamma1, self.gamma2) / self.alpha,
                (self.gamma1 * (1.0 - self.alpha1) + self.gamma2 * (1.0 - self.alpha2)) / self.alpha)

    @property
    def margins(self) -> dict:
        """Signed distances of lambda to the lower and upper bound, and the singular mass; each is >= -slack."""
        lower, upper = self._window()
        return {"lower_bound": self.lam - lower, "upper_bound": upper - self.lam,
                "singular_mass": singular_mass_raw(self)}

    @property
    def is_mu(self) -> bool:
        """True on the absolutely-explicit subfamily gamma1=gamma2, lambda=gamma/alpha."""
        return (
            abs(self.gamma1 - self.gamma2) <= 1e-12 * max(self.gamma1, self.gamma2)
            and abs(self.lam - self.gamma1 / self.alpha) <= 1e-12 * self.lam
        )

    def describe(self):
        return {
            "lambda": self.lam,
            "alpha": self.alpha,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "slack": self.slack,
        }


def mu_core(alpha: float, gamma: float, alpha1: float, alpha2: float) -> CoreParams:
    """Convenience constructor for the gamma1=gamma2=gamma, lambda=gamma/alpha subfamily."""
    alpha, gamma = _admit("core", "alpha", alpha, POSITIVE), _admit("core", "gamma", gamma, POSITIVE)
    return CoreParams(lam=gamma / alpha, alpha=alpha, gamma1=gamma, gamma2=gamma, alpha1=alpha1, alpha2=alpha2)


def gbar_log(p: CoreParams, x, y):
    """log Gbar(x, y), vectorized; the diagonal uses the exact -lambda*t form."""
    x = _nonnegative(x, "x")
    y = _nonnegative(y, "y")
    with np.errstate(all="ignore"):
        return scalar_or_array(_gbar_log(p, x, y))


def _gbar_log(p: CoreParams, x, y):
    """log Gbar(x, y) for float arrays x, y >= 0 (NaN-free), unchecked, under the caller's error state.

    At x = y = inf it is the limit -inf, where x - y is NaN.
    """
    d = np.asarray(x - y)  # an array even from numpy scalars, for the in-place steps
    first = d >= 0  # x >= y: the branch of margin 1
    gz = np.abs(d, out=d)
    np.fmin(gz, np.inf, out=gz)  # x = y = inf: NaN becomes inf, which leads to -inf below
    gz *= np.where(first, p.gamma1, p.gamma2)
    # log(alpha_i + (1-alpha_i) e^{gamma z}), overflow-safe and without cancellation as z -> 0
    inner = np.negative(gz, out=np.empty_like(gz))
    np.expm1(inner, out=inner)
    inner *= np.where(first, p.alpha1, p.alpha2)
    np.log1p(inner, out=inner)
    inner += gz
    inner /= p.alpha
    out = np.minimum(x, y)
    out *= -p.lam
    out -= inner
    return out


def _marginal_log(p: CoreParams, i: int, z):
    """ln Gbar_i(z) for z >= 0, unchecked."""
    gamma, aw = _marg(p, i)
    return -(gamma * z + np.log1p(aw * np.expm1(-gamma * z))) / p.alpha


def marginal_survival(p: CoreParams, i: int, z):
    return scalar_or_array(np.exp(_marginal_log(p, i, _nonnegative(z, "z"))))


def marginal_density(p: CoreParams, i: int, z):
    """g_i(z) = -d/dz Gbar_i(z), the hazard times Gbar_i: it underflows to 0 where e^{gamma_i z} overflows."""
    z = _nonnegative(z, "z")
    return scalar_or_array(_marginal_hazard(p, i, z) * np.exp(_marginal_log(p, i, z)))


def marginal_hazard(p: CoreParams, i: int, z):
    """Hazard g_i / Gbar_i of margin i, finite at every z."""
    return scalar_or_array(_marginal_hazard(p, i, _nonnegative(z, "z")))


def _marginal_hazard(p: CoreParams, i: int, z):
    """Hazard g_i / Gbar_i = (gamma_i / alpha) / (1 + alpha_i e^{-gamma_i z} / (1 - alpha_i)), finite at every z."""
    gamma, aw = _marg(p, i)
    return (gamma / p.alpha) / (1.0 + aw * np.exp(-gamma * z) / (1.0 - aw))


def marginal_quantile(p: CoreParams, i: int, u):
    """Solve Gbar_i(z) = u; closed form z = (1/gamma_i) ln((u^-alpha - alpha_i)/(1 - alpha_i))."""
    return marginal_quantile_log(p, i, np.log(in_unit(u, "u", open_at_0=True)))


def marginal_quantile_log(p: CoreParams, i: int, lu):
    """Solve ln Gbar_i(z) = lu for lu <= 0: z = (1/gamma_i) ln(1 + expm1(-alpha lu)/(1 - alpha_i)).

    Working from lu keeps the digits of u near 1.  Where e^{-alpha lu}
    overflows, z = (-alpha lu - ln(1 - alpha_i))/gamma_i to double precision.
    """
    lu = _real_array(lu, "ln u")
    if not lu.max(initial=-np.inf) <= 0.0:  # NaN fails it too
        raise DomainError("ln u must be nonpositive")
    with np.errstate(all="ignore"):
        return scalar_or_array(_log_a(p, i, lu) / _marg(p, i)[0])


def _log_a(p: CoreParams, i: int, lu):
    """ln((u^-alpha - alpha_i)/(1 - alpha_i)) = gamma_i Gbar_i^-1(u) from lu = ln u <= 0.

    Unchecked, under the caller's error state: the branch np.where drops overflows.
    """
    aw = _marg(p, i)[1]
    a = -p.alpha * lu
    return np.where(a < 700.0, np.log1p(np.expm1(a) / (1.0 - aw)), a - np.log1p(-aw))


def _nonnegative(z, what: str):
    """z as a float array (by _real_array), or DomainError unless all of it is >= 0, which NaN fails."""
    z = _real_array(z, what)
    if not z.min(initial=np.inf) >= 0:  # one reduction; NaN propagates through it and fails
        raise DomainError("lifetime arguments must be nonnegative")
    return z


def _marg(p: CoreParams, i: int):
    """(gamma_i, alpha_i) of margin i, which must be the number 1 or 2 (not a bool, not an array)."""
    if _is_real(i):
        if i == 1:
            return p.gamma1, p.alpha1
        if i == 2:
            return p.gamma2, p.alpha2
    raise DomainError("margin index must be 1 or 2")


def singular_mass_raw(p: CoreParams) -> float:
    """((1-alpha1) gamma1 + (1-alpha2) gamma2) / (alpha lambda) - 1, unclamped."""
    return ((1.0 - p.alpha1) * p.gamma1 + (1.0 - p.alpha2) * p.gamma2) / (p.alpha * p.lam) - 1.0


def singular_mass(p: CoreParams) -> float:
    """P(X = Y) of the core; negative-within-slack values clamp to 0 with a warning."""
    mass = singular_mass_raw(p)
    if mass < 0.0:
        warnings.warn(
            f"singular mass {mass:.3e} slightly negative (rounded parameters); clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return mass


def core_copula(p: CoreParams, u, v):
    """Survival copula of Gbar, the exp of _core_copula_log with exact edges."""
    u = in_unit(u, "u")
    v = in_unit(v, "v")
    with np.errstate(all="ignore"):  # u or v = 0 gives ln 0; copula_edges sets those points
        lc = _core_copula_log(p, np.log(u), np.log(v))
    return copula_edges(u, v, np.exp(lc))


def _core_copula_log(p: CoreParams, lu, lv):
    """ln C(e^lu, e^lv) of the survival copula of Gbar, for lu, lv <= 0.

    On the gamma1=gamma2, lambda=gamma/alpha subfamily the closed form

        C(u, v) = (alpha2 A(u) + alpha1 B(v) + (1-alpha1-alpha2) max(A(u), B(v)))^{-1/alpha}

    with A(u) = (u^-alpha - alpha1)/(1 - alpha1) applies; for A >= B the
    bracket is A ((1 - alpha1) + alpha1 B/A), taken as ln A +
    log1p(alpha1 expm1(ln B - ln A)).  Otherwise the copula is composed as
    Gbar(Gbar1^-1(u), Gbar2^-1(v)), with gamma_i Gbar_i^-1 = ln A, ln B.
    Unchecked, under the caller's error state: the branch np.where drops may overflow.
    """
    la = _log_a(p, 1, lu)
    lb = _log_a(p, 2, lv)
    if p.is_mu:
        lc = -np.where(la >= lb, la + np.log1p(p.alpha1 * np.expm1(lb - la)),
                       lb + np.log1p(p.alpha2 * np.expm1(la - lb))) / p.alpha
    else:  # the quantiles are >= 0, and NaN only where ln u or ln v is
        lc = _gbar_log(p, la / p.gamma1, lb / p.gamma2)
    # C <= min(u, v); this also gives -inf where ln A = ln B = inf leaves inf - inf
    return np.fmin(lc, np.minimum(lu, lv))


def weak_lmp_residual(p: CoreParams, x, y, t):
    """Gbar(x+t, y+t) - Gbar(x, y) Gbar(t, t); zero for every member of the family."""
    x, y, t = _nonnegative(x, "x"), _nonnegative(y, "y"), _nonnegative(t, "t")
    with np.errstate(all="ignore"):
        lhs = np.exp(_gbar_log(p, x + t, y + t))
        rhs = np.exp(_gbar_log(p, x, y) + _gbar_log(p, t, t))
        return scalar_or_array(lhs - rhs)

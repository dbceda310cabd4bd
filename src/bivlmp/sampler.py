"""Exact simulation of (X, Y), singular component included.

The construction rests on a decomposition derived from the survival function
itself (and unit-verified against finite differences of it): W = min(X, Y) and
D = X - Y are independent for the undistorted core, with

    W ~ exponential(lambda),
    P(D = 0)  = (g1(0) + g2(0))/lambda - 1,
    P(D > d)  = Gbar1(d) - g1(d)/lambda,       d >= 0,
    P(D < -d) = Gbar2(d) - g2(d)/lambda.

For a distorted model W has survival h(e^{-lambda t}) and, given W = t, the
atom probability is unchanged while the conditional side-magnitude survival is

    q_t(d) = h'(e^{-lambda t} Gbar1(d)) (lambda Gbar1(d) - g1(d))
             / (lambda h'(e^{-lambda t})),

obtained by differentiating Fbar along the second coordinate at x = y + d.
sample_model solves ln q_t(d) = ln target with the package's root finder;
every term of ln q_t comes from ln Gbar1(d) - lambda t, so no factor of q_t
has to be representable.  The per-draw constants of ln q_t, ln h(e^{-lambda t})
and the log elasticity at -lambda t, are added to the target instead of
subtracted at every pass, so the solver's stop, relative to the target, sits
at the rounding level of the terms the residual sums.  Where q_t has a
closed-form inverse the root finder is skipped: for the identity generator q_t is the core's side law at every
age, and on a side with gamma_i = alpha lambda that law inverts in closed
form.  The core sampler and the frailty shortcut are this path with the
identity generator.
All draws come from a counter-based Philox stream, one batch per seed, so
identical (model, n, seed) is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoreParams, _marg, _marginal_log, singular_mass
from .errors import DomainError, ValidationError
from .generators import IdentityGenerator, MixingLaw
from .model import Model
from .numerics import POSITIVE, _admit, _admit_count, _array_of, _real_array, solve_decreasing_batch

_TINY = np.finfo(float).tiny  # the floor of a gap target, so that its ln is finite
CSV_BLOCK = 8192  # rows per write in SampleBatch.to_csv: joining the whole file at once would raise peak memory


@dataclass(frozen=True)
class SampleBatch:
    x: np.ndarray
    y: np.ndarray
    atom: np.ndarray
    seed: int
    model_label: str = ""

    def __post_init__(self):
        x, y = _real_array(self.x, "x"), _real_array(self.y, "y")
        atom = _array_of(self.atom, "b", "atom", "a bool or an array of bools")
        for name, a in (("x", x), ("y", y), ("atom", atom)):  # the sampler's float and bool arrays, uncopied
            object.__setattr__(self, name, a)
        shapes = [np.shape(a) for a in (self.x, self.y, self.atom)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ValidationError(f"x, y and atom must be 1-D and of one length, not of shapes {shapes}")
        if not np.all(self.x[self.atom] == self.y[self.atom]):
            raise ValidationError("atom rows must have x == y exactly")

    @property
    def n(self) -> int:
        return int(self.x.size)

    def to_csv(self, path):
        """Write x, y, atom rows with .17g floats, CSV_BLOCK rows per write."""
        with open(path, "w", newline="") as fh:
            fh.write("x,y,atom\n")
            for k in range(0, self.n, CSV_BLOCK):
                x, y, atom = (a[k:k + CSV_BLOCK].tolist() for a in (self.x, self.y, self.atom))
                cells = [None] * (3 * len(x))  # x, y, atom of each row in turn, for one % per block
                cells[::3], cells[1::3], cells[2::3] = x, y, atom
                fh.write(("%.17g,%.17g,%d\n" * len(x)) % tuple(cells))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _side_probs(p: CoreParams):
    lam = p.lam
    g10 = p.gamma1 * (1.0 - p.alpha1) / p.alpha
    g20 = p.gamma2 * (1.0 - p.alpha2) / p.alpha
    p0 = singular_mass(p)
    q1 = 1.0 - g10 / lam  # P(D > 0)
    q2 = 1.0 - g20 / lam  # P(D < 0)
    # p0 + q1 + q2 = 1 algebraically; renormalize the float residue
    total = p0 + q1 + q2
    return p0 / total, q1 / total, q2 / total


def _mu_side_quantile(s, alpha, aw, gamma):
    """d with P(D > d | side) = s on a side with gamma_i = alpha lambda, the core's closed form.

    There P(D > d) = aw v^{-(alpha+1)/alpha} with v = aw + (1 - aw) e^{gamma d}, and s <= 1 gives v >= 1 > aw.
    v - 1 is taken as expm1 and d as log1p, so a tiny alpha, whose v rounds to 1, keeps its gap.
    """
    return np.log1p(np.expm1(-alpha / (alpha + 1.0) * np.log(s)) / (1.0 - aw)) / gamma


def _split(u_cat, p0, q1):
    """The atom flags and the two side masks of a categorical uniform."""
    atom = u_cat < p0
    side1 = (~atom) & (u_cat < p0 + q1)
    return atom, side1, ~(atom | side1)


def _batch(w, d, atom, seed, label) -> SampleBatch:
    """The pairs (W + max(D, 0), W + max(-D, 0))."""
    return SampleBatch(x=w + np.maximum(d, 0.0), y=w + np.maximum(-d, 0.0), atom=atom, seed=seed,
                       model_label=label)


def sample_core(p: CoreParams, n: int, seed: int) -> SampleBatch:
    """Draw n pairs from the undistorted core: the model with the identity generator."""
    return sample_model(Model(generator=IdentityGenerator(), core=p, label="core"), n, seed)


def _ln_q_t_unscaled(m: Model, i: int, d: np.ndarray, tau) -> np.ndarray:
    """ln q_t(d) + ln h(e^-tau) + ln el(-tau): the conditional side survival at per-draw ages tau, from ln Gbar_i(d).

    q_t(d) = h_tau(Gbar_i(d)) el(ln Gbar_i(d) - tau) / el(-tau) (1 - hazard_i(d) / lambda),
    el the elasticity x h'(x) / h(x).  The per-draw constants ln h(e^-tau) and
    ln el(-tau) (_age_constants) are left out: the gap solve adds them to its
    target instead, once per draw, and the monotonicity probe subtracts them.
    -inf where q_t is 0.
    """
    g, p = m.generator, m.core
    lx = _marginal_log(p, i, d) - tau
    # 1 - hazard_i/lambda = (1 - gamma_i/(alpha lambda) + c) / (1 + c), c = alpha_i e^{-gamma_i d}/(1 - alpha_i):
    # without the cancellation where hazard_i nears lambda, whose noise costs the root finder passes;
    # clamped at 0 (ln = -inf) where a gamma_i / (alpha lambda) above 1 within the core's slack makes it negative
    gamma, aw = _marg(p, i)
    c = aw / (1.0 - aw) * np.exp(-gamma * d)
    return (g._h_log_from_log(lx) + np.log(g._h_elasticity(lx))
            + np.log(np.maximum(1.0 - gamma / (p.alpha * p.lam) + c, 0.0)) - np.log1p(c))


def _age_constants(g, tau):
    """(ln h(e^-tau), ln el(-tau)): the per-draw constants that _ln_q_t_unscaled leaves out of ln q_t."""
    return g._h_log_from_log(-tau), np.log(g._h_elasticity(-tau))


def _check_q_monotone(m: Model, tau: np.ndarray) -> None:
    """Reject models whose conditional gap survival q_t is not nonincreasing.

    A non-monotone q_t means h(Gbar) is not 2-increasing, i.e. the generator
    and core do not combine into a proper bivariate distribution.
    """
    probes = np.quantile(tau, [0.0, 0.5, 1.0])[:, None]  # one row of the grid per probe age
    d_grid = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 24) / m.core.lam])
    lh_tau, lel_tau = _age_constants(m.generator, probes)
    for i in (1, 2):
        q = np.exp(_ln_q_t_unscaled(m, i, d_grid, probes) - lh_tau - lel_tau)
        if np.any(np.diff(q, axis=1) > 1e-9):
            raise ValidationError(
                "conditional gap survival is not monotone: the generator/core pair "
                "is not a valid bivariate survival function, cannot sample"
            )


def _side_gap(m: Model, i: int, targets: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Solve q_t(d) = target per draw, as ln q_t(d) + ln h(e^-tau) + ln el(-tau) = ln target + the same constants.

    With the age constants on the target's side, the solver's stop at
    2 eps |target| sits at the rounding level of the terms that ln q_t sums,
    not of ln q_t alone.  A zero target solves ln q_t(d) = ln tiny, near where
    q_t itself underflows.  For the identity generator q_t is the core's side
    law at every age, closed form on a side with gamma_i = alpha lambda.
    """
    p = m.core
    gamma, aw = _marg(p, i)
    if isinstance(m.generator, IdentityGenerator) and abs(gamma / (p.alpha * p.lam) - 1.0) < 1e-12:
        return _mu_side_quantile(targets / aw, p.alpha, aw, gamma)
    lh_tau, lel_tau = _age_constants(m.generator, tau)
    ln_targets = np.log(np.maximum(targets, _TINY)) + lh_tau + lel_tau
    return solve_decreasing_batch(lambda d, tau: _ln_q_t_unscaled(m, i, d, tau), ln_targets, start=1.0 / p.lam,
                                  args=(tau,))


def sample_model(m: Model, n: int, seed: int) -> SampleBatch:
    """Draw n pairs from a distorted model, conditioning the gap law on the min."""
    n, seed = _admit_count("sampler", "n", n), _admit_count("sampler", "seed", seed)
    if n < 1:
        raise DomainError("n must be at least 1")
    p = m.core
    u_min, u_cat, u_mag = _rng(seed).random((3, n))
    w = np.asarray(m.generator.neg_log_h_inverse(u_min)) / p.lam
    tau = p.lam * w
    with np.errstate(all="ignore"):
        _check_q_monotone(m, tau)
        p0, q1, q2 = _side_probs(p)
        atom, side1, side2 = _split(u_cat, p0, q1)
        d = np.zeros(n)
        for i, mask, q, sign in ((1, side1, q1, 1.0), (2, side2, q2, -1.0)):
            if np.any(mask):
                d[mask] = sign * _side_gap(m, i, u_mag[mask] * q, tau[mask])
    return _batch(w, d, atom, seed, m.label)


# ---------------------------------------------------------------------------
# mixing shortcut: draw the frailty factor, then a rescaled core
# ---------------------------------------------------------------------------


def _sample_sibuya(rng: np.random.Generator, a: float, n: int) -> np.ndarray:
    """Sibuya(a) variates as the mixture Z | P ~ Geometric(P) on {1, 2, ...}, P ~ Beta(a, 1 - a).

    Exact: P(Z > k) = E[(1 - P)^k] = prod_{j<=k}(1 - a/j).  Z = 1 + floor(E / -ln(1 - P)) with E
    standard exponential, in floats, since a small a puts mass far past the int64 range.  At a = 1, Z = 1.
    """
    if a >= 1.0:
        return np.ones(n)
    p = rng.beta(a, 1.0 - a, n)
    return np.floor(rng.standard_exponential(n) / -np.log1p(-p)) + 1.0


def _sample_positive_stable(rng: np.random.Generator, a: float, n: int) -> np.ndarray:
    """Positive-stable variates with E[e^{-sZ}] = e^{-s^a}.

    Classical single-uniform/exponential construction (Kanter 1975 /
    Chambers-Mallows-Stuck specialization to total positive skew).
    """
    if a >= 1.0:
        return np.ones(n)
    u = rng.random(n) * math.pi
    e = rng.exponential(1.0, n)
    factor = np.sin(a * u) / np.sin(u) ** (1.0 / a)
    factor *= (np.sin((1.0 - a) * u) / e) ** ((1.0 - a) / a)
    return factor


# kind of a generators.MIXING_LAWS entry -> its factor's sampler, of (rng, the law's one parameter, n)
_MIXING_SAMPLERS = {
    "gamma": lambda rng, a, n: rng.gamma(a, 1.0, n),
    "positive_stable": _sample_positive_stable,
    "sibuya": _sample_sibuya,
    "log_series": lambda rng, theta, n: rng.logseries(-theta, n).astype(float),
}


def sample_mixing_factor(law: MixingLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    (value,) = law.params.values()
    return _MIXING_SAMPLERS[law.kind](rng, value, n)


def sample_mixing_shortcut(law: MixingLaw, p: CoreParams, ratio: float, n: int, seed: int) -> SampleBatch:
    """Sample the frailty model E[Gbar^{ratio Z}] by conditioning on Z.

    Given Z = z, Gbar^{ratio z} is again a member of the family with
    alpha' = alpha/(ratio z) and lambda' = ratio z lambda, identical weights.
    Requires the gamma1 = gamma2, lambda = gamma/alpha specialization (so the
    side probabilities alpha1, alpha2 do not depend on z).
    """
    if not p.is_mu:
        raise DomainError("mixing shortcut needs gamma1 = gamma2 and lambda = gamma/alpha")
    ratio = _admit("mixing", "ratio", ratio, POSITIVE)
    n, seed = _admit_count("sampler", "n", n), _admit_count("sampler", "seed", seed)
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = _rng(seed)
    c = ratio * sample_mixing_factor(law, rng, n)  # per-draw power of Gbar
    u_min, u_cat, u_mag = rng.random((3, n))
    w = -np.log(u_min) / (c * p.lam)
    atom, side1, side2 = _split(u_cat, 1.0 - p.alpha1 - p.alpha2, p.alpha1)
    alpha = p.alpha / c
    d = np.zeros(n)
    for mask, aw, sign in ((side1, p.alpha1, 1.0), (side2, p.alpha2, -1.0)):
        d[mask] = sign * _mu_side_quantile(u_mag[mask], alpha[mask], aw, p.gamma1)
    return _batch(w, d, atom, seed, "mixing")


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------


def empirical_atom(b: SampleBatch) -> float:
    return float(np.mean(b.atom))

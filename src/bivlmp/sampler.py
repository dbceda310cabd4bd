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

obtained by differentiating Fbar along the second coordinate at x = y + d,
and evaluated from ln Gbar1(d) - lambda t.
All draws come from a counter-based Philox stream, one batch per seed, so
identical (model, n, seed) is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import (
    CoreParams,
    _marg,
    _marginal_log,
    marginal_density,
    marginal_survival,
    require_valid,
    singular_mass,
)
from .errors import DomainError, ValidationError
from .generators import MixingLaw, generator_from_mixing
from .model import Model
from .numerics import solve_decreasing_batch


@dataclass(frozen=True)
class SampleBatch:
    x: np.ndarray
    y: np.ndarray
    atom: np.ndarray
    seed: int
    model_label: str = ""

    def __post_init__(self):
        if not np.all(self.x[self.atom] == self.y[self.atom]):
            raise ValidationError("atom rows must have x == y exactly")

    @property
    def n(self) -> int:
        return int(self.x.size)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("x,y,atom\n")
            for xi, yi, ai in zip(self.x, self.y, self.atom):
                fh.write(f"{xi:.17g},{yi:.17g},{int(ai)}\n")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


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


def _side_survival(p: CoreParams, i: int, d):
    """P(D > d) (i=1) or P(D < -d) (i=2), d >= 0, up to the side normalization."""
    return marginal_survival(p, i, d) - marginal_density(p, i, d) / p.lam


def _invert_core_side(p: CoreParams, i: int, targets: np.ndarray) -> np.ndarray:
    """Solve P(D > d) = target for d, vectorized."""
    gamma, aw = (p.gamma1, p.alpha1) if i == 1 else (p.gamma2, p.alpha2)
    ratio = gamma / (p.alpha * p.lam)
    if abs(ratio - 1.0) < 1e-12:
        # closed form: P(D>d) = aw * w^{-(alpha+1)/alpha}, w = aw + (1-aw) e^{gamma d}
        w = (targets / aw) ** (-p.alpha / (p.alpha + 1.0))
        return np.log(np.maximum(w - aw, 1e-300) / (1.0 - aw)) / gamma
    return solve_decreasing_batch(lambda d: _side_survival(p, i, d), targets, start=1.0 / p.lam)


def sample_core(p: CoreParams, n: int, seed: int, label: str = "core") -> SampleBatch:
    """Draw n pairs from the undistorted core."""
    require_valid(p)
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = _rng(seed)
    w = -np.log(rng.random(n)) / p.lam
    p0, q1, q2 = _side_probs(p)
    u_cat = rng.random(n)
    u_mag = rng.random(n)
    atom = u_cat < p0
    side1 = (~atom) & (u_cat < p0 + q1)
    side2 = ~(atom | side1)
    d = np.zeros(n)
    if np.any(side1):
        d[side1] = _invert_core_side(p, 1, u_mag[side1] * q1)
    if np.any(side2):
        d[side2] = -_invert_core_side(p, 2, u_mag[side2] * q2)
    d = np.where(atom, 0.0, d)
    x = w + np.maximum(d, 0.0)
    y = w + np.maximum(-d, 0.0)
    return SampleBatch(x=x, y=y, atom=atom, seed=int(seed), model_label=label)


def _q_t_batch(m: Model, i: int, d: np.ndarray, tau, lh_tau, el_tau) -> np.ndarray:
    """Conditional side survival q_t(d) at per-draw ages tau, from the log of Gbar_i(d).

    q_t(d) = h_tau(Gbar_i(d)) el(ln Gbar_i(d) - tau) / el(-tau) (1 - hazard_i(d) / lambda),
    el the elasticity x h'(x) / h(x); lh_tau = ln h(e^-tau) and el_tau = el(-tau)
    are constant per draw, so the caller computes them once.
    """
    g, p = m.generator, m.core
    lx = _marginal_log(p, i, d) - tau
    # 1 - hazard_i/lambda = (1 - gamma_i/(alpha lambda) + c) / (1 + c), c = alpha_i e^{-gamma_i d}/(1 - alpha_i):
    # without the cancellation where hazard_i nears lambda, whose noise costs the root finder passes
    gamma, aw = _marg(p, i)
    c = aw / (1.0 - aw) * np.exp(-gamma * d)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ratio = np.exp(np.asarray(g.h_log_from_log(lx)) - lh_tau) * g.h_elasticity_from_log(lx) / el_tau
        return ratio * (1.0 - gamma / (p.alpha * p.lam) + c) / (1.0 + c)


def _age_constants(g, tau):
    """(ln h(e^-tau), el(-tau)): the per-draw constants of _q_t_batch."""
    return g.h_log_from_log(-tau), g.h_elasticity_from_log(-tau)


def _check_q_monotone(m: Model, tau: np.ndarray) -> None:
    """Reject models whose conditional gap survival q_t is not nonincreasing.

    A non-monotone q_t means h(Gbar) is not 2-increasing, i.e. the generator
    and core do not combine into a proper bivariate distribution.
    """
    probes = np.quantile(tau, [0.0, 0.5, 1.0])
    d_grid = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 24) / m.core.lam])
    for i in (1, 2):
        for tp in probes:
            q = _q_t_batch(m, i, d_grid, tp, *_age_constants(m.generator, tp))
            if np.any(np.diff(q) > 1e-9):
                raise ValidationError(
                    "conditional gap survival is not monotone: the generator/core pair "
                    "is not a valid bivariate survival function, cannot sample"
                )


def sample_model(m: Model, n: int, seed: int) -> SampleBatch:
    """Draw n pairs from a distorted model, conditioning the gap law on the min."""
    if not m.generator.has_prime:
        raise DomainError(f"{m.generator.family}: sampling needs the derivative capability")
    if n < 1:
        raise DomainError("n must be at least 1")
    p = m.core
    rng = _rng(seed)
    u_min = rng.random(n)
    u_cat = rng.random(n)
    u_mag = rng.random(n)
    w = np.asarray(m.generator.neg_log_h_inverse(u_min)) / p.lam
    tau = p.lam * w
    _check_q_monotone(m, tau)
    p0, q1, q2 = _side_probs(p)
    atom = u_cat < p0
    side1 = (~atom) & (u_cat < p0 + q1)
    side2 = ~(atom | side1)
    d = np.zeros(n)
    lh_tau, el_tau = _age_constants(m.generator, tau)
    for i, mask, q in ((1, side1, q1), (2, side2, q2)):
        if not np.any(mask):
            continue
        sol = solve_decreasing_batch(
            lambda dd, *age: _q_t_batch(m, i, dd, *age), u_mag[mask] * q, start=1.0 / p.lam,
            args=(tau[mask], lh_tau[mask], el_tau[mask]),
        )
        d[mask] = sol if i == 1 else -sol
    x = w + np.maximum(d, 0.0)
    y = w + np.maximum(-d, 0.0)
    return SampleBatch(x=x, y=y, atom=atom, seed=int(seed), model_label=m.label)


# ---------------------------------------------------------------------------
# mixing shortcut: draw the frailty factor, then a rescaled core
# ---------------------------------------------------------------------------


def _sample_sibuya(rng: np.random.Generator, a: float, n: int) -> np.ndarray:
    """Sibuya(a) variates by inverting the survival P(Z > k) = prod_{j<=k}(1 - a/j)."""
    u = rng.random(n)

    def log_surv(k):
        return gammaln(k + 1.0 - a) - gammaln(1.0 - a) - gammaln(k + 1.0)

    # smallest k >= 1 with P(Z > k) < u, then Z = k
    hi = np.ones(n)
    for _ in range(120):
        need = np.exp(log_surv(hi)) >= u
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    lo = np.zeros(n)
    for _ in range(80):
        mid = np.floor((lo + hi) / 2.0)
        mid = np.where(mid <= lo, lo + 1.0, mid)
        mid = np.where(mid >= hi, hi, mid)
        go_right = np.exp(log_surv(mid)) >= u
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
        if np.all(hi - lo <= 1.0):
            break
    return hi


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


def sample_mixing_factor(law: MixingLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    if law.kind == "gamma":
        return rng.gamma(law.params["a"], 1.0, n)
    if law.kind == "positive_stable":
        return _sample_positive_stable(rng, law.params["a"], n)
    if law.kind == "sibuya":
        a = law.params["a"]
        if a >= 1.0:
            return np.ones(n)
        return _sample_sibuya(rng, a, n)
    if law.kind == "log_series":
        return rng.logseries(-law.params["theta"], n).astype(float)
    raise DomainError(f"no sampler for mixing law {law.kind!r}")


def sample_mixing_shortcut(
    law: MixingLaw, p: CoreParams, ratio: float, n: int, seed: int, label: str = "mixing"
) -> SampleBatch:
    """Sample the frailty model E[Gbar^{ratio Z}] by conditioning on Z.

    Given Z = z, Gbar^{ratio z} is again a member of the family with
    alpha' = alpha/(ratio z) and lambda' = ratio z lambda, identical weights.
    Requires the gamma1 = gamma2, lambda = gamma/alpha specialization (so the
    side probabilities alpha1, alpha2 do not depend on z).
    """
    require_valid(p)
    if not p.is_mu:
        raise DomainError("mixing shortcut needs gamma1 = gamma2 and lambda = gamma/alpha")
    if ratio <= 0:
        raise DomainError("ratio must be positive")
    if n < 1:
        raise DomainError("n must be at least 1")
    gamma = p.gamma1
    rng = _rng(seed)
    z = sample_mixing_factor(law, rng, n)
    c = ratio * z  # per-draw power of Gbar
    alpha_eff = p.alpha / c
    lam_eff = c * p.lam
    w = -np.log(rng.random(n)) / lam_eff
    u_cat = rng.random(n)
    u_mag = rng.random(n)
    p0 = 1.0 - p.alpha1 - p.alpha2
    atom = u_cat < p0
    side1 = (~atom) & (u_cat < p0 + p.alpha1)
    side2 = ~(atom | side1)
    d = np.zeros(n)
    for mask, aw, sign in ((side1, p.alpha1, 1.0), (side2, p.alpha2, -1.0)):
        if not np.any(mask):
            continue
        ae = alpha_eff[mask]
        wv = (u_mag[mask]) ** (-ae / (ae + 1.0))  # targets already normalized by aw
        d[mask] = sign * np.log(np.maximum(wv - aw, 1e-300) / (1.0 - aw)) / gamma
    d = np.where(atom, 0.0, d)
    x = w + np.maximum(d, 0.0)
    y = w + np.maximum(-d, 0.0)
    return SampleBatch(x=x, y=y, atom=atom, seed=int(seed), model_label=label)


def mixing_model(law: MixingLaw, p: CoreParams, ratio: float, label: str = "mixing") -> Model:
    """The distorted model matched by sample_mixing_shortcut."""
    return Model(generator=generator_from_mixing(law, ratio), core=p, label=label)


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------


def empirical_survival(b: SampleBatch, x: float, y: float) -> float:
    return float(np.mean((b.x > x) & (b.y > y)))


def empirical_atom(b: SampleBatch) -> float:
    return float(np.mean(b.atom))


def empirical_atom_survival(b: SampleBatch, x: float) -> float:
    return float(np.mean(b.atom & (b.x > x)))

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
sample_model solves ln q_t(d) = ln target with the package's root finder, the
draws of both sides in one call per block of GAP_BLOCK draws, each draw's margin
constants (gamma_i, alpha_i) passed with its age; every term of ln q_t comes
from ln Gbar_i(d) - lambda t, so no factor of q_t has to be representable.
The per-draw constants, ln h and the log elasticity at e^{-lambda t}, join the
target, so the solver's stop sits at the rounding level of the terms the
residual sums.  A side whose q_t inverts in closed form, the identity
generator's side with gamma_i = alpha lambda, skips the root finder; the core
sampler and the frailty shortcut are this path with the identity generator.
All draws come from a counter-based Philox stream, one per seed, so identical
(model, n, seed) is bit-reproducible.  sample_model reads it in three passes of
GAP_BLOCK draws at a time, in the order one (3, n) batch would lay it out
(every u_min, then every u_cat, then every u_mag), and keeps about 18 bytes per
draw between them: x, which holds W until its gap is drawn, y, and the atom
and side flags.
"""

from __future__ import annotations

import numpy as np

from .core import CoreParams, singular_mass
from .errors import DomainError, ValidationError
from .generators import MIXING_LAWS, IdentityGenerator, MixingLaw
from .model import Model
from .numerics import POSITIVE, _TINY, Record, _admit, _admit_count, _array_of, _real_array, solve_decreasing_batch

CSV_BLOCK = 8192  # rows per write in SampleBatch.to_csv: joining the whole file at once would raise peak memory
GAP_BLOCK = 16384  # draws per block of sample_model's passes: whole-sample passes would raise peak memory
# ages lambda t that the monotonicity probe takes besides the sample's: a model whose q_t fails only at young
# ages (weibull_mu fails at lambda t <= 0.3) is refused whatever its draws
YOUNG = (1e-6, 1e-2, 0.1)
_D_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 24)])  # the probe's gaps times lambda: 0 / lambda is 0


# ---------------------------------------------------------------------------
# CSV: "%.17g" for a block of floats at once, the same characters (notes/decisions.md, "An exact .17g kernel")
# ---------------------------------------------------------------------------

_POW10 = 10.0 ** np.arange(21)  # 10^k for the fast range's k = 16 - e in [1, 20], exact doubles
_UPOW10 = 10 ** np.arange(18, dtype=np.uint64)
_ONES = 0x0101010101010101  # 1 in every byte of a word
_WORDS = 5  # 8-byte words per value: 16 integer digits, the point word, 16 more fraction digits
# by e + 4: the ASCII offset of the integer digits written, the last e + 1 of the 16
_INTEGER = ((np.arange(16) >= 15 - np.arange(-4, 16)[:, None]) * np.uint8(0x30)).view("<u8")
# by e + 4: the point word's fixed bytes, "0" in byte 0 and zeros from byte 2 on for e < 0; byte 1 takes the
# point and byte 7 the first fraction digit
_POINT = np.array([int.from_bytes(b"0\0" + b"0" * (-e - 1), "little") for e in range(-4, 0)] + [0] * 16, np.uint64)


def _veltkamp(a):
    """Veltkamp's split: a = hi + lo exactly, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _round17(v, e):
    """round(v 10^(16 - e)), ties to even, as int64: from p + err = v 10^(16 - e) exactly (Dekker's two-product)."""
    b = _POW10[16 - e]
    p = v * b  # an integer, being at least 1e16 > 2^53
    (vh, vl), (bh, bl) = _veltkamp(v), _veltkamp(b)
    err = ((vh * bh - p) + vh * bl + vl * bh) + vl * bl
    floor = np.floor(err)
    d = p.astype(np.int64) + floor.astype(np.int64)
    frac = err - floor
    return d + ((frac > 0.5) | ((frac == 0.5) & (d % 2 == 1)))


def _digits8(x):
    """The 8 decimal digits of uint64 x < 10^8 as the bytes of a word, the first digit in the lowest byte."""
    x = x // 10000 | (x % 10000) << 32  # 4-digit halves in 32-bit lanes
    hi = (x * 5243 >> 19) & 0x0000007F0000007F  # x // 100 in each lane
    x = hi | (x - hi * 100) << 16
    hi = (x * 103 >> 10) & 0x000F000F000F000F  # x // 10 in each 16-bit lane
    return hi | (x - hi * 10) << 8


def _written(w):
    """0x30, the ASCII offset, in each byte of digit word w at or before its last nonzero digit."""
    w = w + (w >> 8)
    w = w + (w >> 16)
    w = w + (w >> 32)  # in each byte, the sum of the digits from it on: at most 72, so no carry
    return ((w + 0x7F7F7F7F7F7F7F7F) >> 7 & _ONES) * 0x30


def _g17(v, out):
    """Write "%.17g" % t for each t of v into its row of _WORDS words of out, NUL bytes where no character is."""
    fast = (v >= 1e-4) & (v < 1e16)  # fixed notation with 16 - e in [1, 20]; NaN is not fast
    f = np.where(fast, v, 1.0)
    e = np.clip(np.floor(np.log10(f)), -4, 15).astype(np.intp)
    d = _round17(f, e)
    step = (d >= 10 ** 17).astype(np.intp) - (d < 10 ** 16)  # e is settled on the rounded d, not on p
    if step.any():
        e += step
        redo = np.flatnonzero(step)
        d[redo] = _round17(f[redo], e[redo])
    d = d.astype(np.uint64)
    scale = _UPOW10[16 - np.maximum(e, -1)]
    i = d // scale  # the integer part, 0 below 1
    frac = (d - i * scale) * _UPOW10[np.maximum(e, -1) + 1]  # the fraction digits, the first at 10^16
    out[:, :2] = np.stack([_digits8(i // 10 ** 8), _digits8(i % 10 ** 8)], axis=1) | _INTEGER[e + 4]
    out[:, 2] = _POINT[e + 4] | np.where(frac != 0, ord(".") << 8 | (frac // 10 ** 16 + 0x30) << 56, 0)
    frac %= 10 ** 16
    hi, lo = _digits8(frac // 10 ** 8), _digits8(frac % 10 ** 8)
    out[:, 3] = hi | np.where(lo != 0, _ONES * 0x30, _written(hi))
    out[:, 4] = lo | _written(lo)
    slow = np.flatnonzero(~fast)  # 0, negatives, below 1e-4, from 1e16 up, inf and NaN
    if slow.size:
        cells = np.array(["%.17g" % t for t in v[slow].tolist()], f"S{8 * _WORDS}")
        out[slow] = cells.view("<u8").reshape(-1, _WORDS)


def _csv_block(x, y, atom) -> bytes:
    """The bytes of "%.17g,%.17g,%d\\n" % row for each row of x, y, atom."""
    rows = np.empty((x.size, 2 * _WORDS + 2), "<u8")
    _g17(x, rows[:, :_WORDS])
    rows[:, _WORDS] = ord(",")
    _g17(y, rows[:, _WORDS + 1:-1])
    rows[:, -1] = ord(",") | (atom + ord("0")) << 8 | ord("\n") << 16
    return rows.tobytes().translate(None, b"\0")


class SampleBatch(Record):
    __slots__ = ("x", "y", "atom", "seed", "model_label")

    def __init__(self, x: np.ndarray, y: np.ndarray, atom: np.ndarray, seed: int, model_label: str = ""):
        x, y = _real_array(x, "x"), _real_array(y, "y")  # the sampler's float and bool arrays, uncopied
        atom = _array_of(atom, "b", "atom", "a bool or an array of bools")
        shapes = [np.shape(a) for a in (x, y, atom)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ValidationError(f"x, y and atom must be 1-D and of one length, not of shapes {shapes}")
        if np.any((x != y) & atom):  # NaN != NaN: a NaN atom row is refused too
            raise ValidationError("atom rows must have x == y exactly")
        self._fill(x, y, atom, seed, model_label)

    @property
    def n(self) -> int:
        return int(self.x.size)

    def to_csv(self, path):
        """Write x, y, atom rows with .17g floats, CSV_BLOCK rows per write.

        The bytes are those of "%.17g,%.17g,%d\\n" on each row, LF-terminated under an "x,y,atom" header;
        one numpy kernel writes each block, and only values outside [1e-4, 1e16) go through "%.17g" one by one.
        """
        with open(path, "wb") as fh:
            fh.write(b"x,y,atom\n")
            for k in range(0, self.n, CSV_BLOCK):
                fh.write(_csv_block(self.x[k:k + CSV_BLOCK], self.y[k:k + CSV_BLOCK], self.atom[k:k + CSV_BLOCK]))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _draws(n, seed) -> tuple:
    """(n, seed, the seed's Philox generator): n and seed admitted as counts, and n at least 1."""
    n, seed = _admit_count("sampler", "n", n), _admit_count("sampler", "seed", seed)
    if n < 1:
        raise DomainError("n must be at least 1")
    return n, seed, _rng(seed)


def _side_probs(p: CoreParams):
    p0 = singular_mass(p)
    q1 = 1.0 - p.gamma1 * (1.0 - p.alpha1) / p.alpha / p.lam  # P(D > 0) = 1 - g1(0)/lambda
    q2 = 1.0 - p.gamma2 * (1.0 - p.alpha2) / p.alpha / p.lam  # P(D < 0) = 1 - g2(0)/lambda
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


def sample_core(p: CoreParams, n: int, seed: int) -> SampleBatch:
    """Draw n pairs from the undistorted core: the model with the identity generator."""
    return sample_model(Model(generator=IdentityGenerator(), core=p, label="core"), n, seed)


def _ln_q_t_unscaled(m: Model, d: np.ndarray, tau, gamma, aw) -> np.ndarray:
    """ln q_t(d) + ln h(e^-tau) + ln el(-tau): the conditional side survival at per-draw ages tau, from ln Gbar_i(d).

    q_t(d) = h_tau(Gbar_i(d)) el(ln Gbar_i(d) - tau) / el(-tau) (1 - hazard_i(d) / lambda),
    el the elasticity x h'(x) / h(x), on the side of margin constants (gamma_i, alpha_i) = (gamma, aw), one
    pair per draw or one for all.  The per-draw constants ln h(e^-tau) and ln el(-tau) (_age_constants) are
    left out: the gap solve adds them to its target instead, once per draw, and the monotonicity probe
    subtracts them.  -inf where q_t is 0.
    """
    g, p = m.generator, m.core
    ngd = -(gd := gamma * d)  # (-gamma) d, the same double
    lx = -(gd + np.log1p(aw * np.expm1(ngd))) / p.alpha - tau  # core._marginal_log, less tau
    # 1 - hazard_i/lambda = (1 - gamma_i/(alpha lambda) + c) / (1 + c), c = alpha_i e^{-gamma_i d}/(1 - alpha_i):
    # without the cancellation where hazard_i nears lambda, whose noise costs the root finder passes;
    # clamped at 0 (ln = -inf) where a gamma_i / (alpha lambda) above 1 within the core's slack makes it negative
    c = aw / (1.0 - aw) * np.exp(ngd)
    return (g._h_log_from_log(lx) + np.log(g._h_elasticity(lx))
            + np.log(np.maximum(1.0 - gamma / (p.alpha * p.lam) + c, 0.0)) - np.log1p(c))


def _age_constants(g, tau):
    """(ln h(e^-tau), ln el(-tau)): the per-draw constants that _ln_q_t_unscaled leaves out of ln q_t."""
    return g._h_log_from_log(-tau), np.log(g._h_elasticity(-tau))


def _check_q_monotone(m: Model, w: np.ndarray) -> None:
    """Reject models whose conditional gap survival q_t is not nonincreasing, probed at three of the mins w and YOUNG.

    A non-monotone q_t means h(Gbar) is not 2-increasing, i.e. the generator
    and core do not combine into a proper bivariate distribution.  The fixed
    young ages make the verdict the same for every draw of a small sample.
    """
    p = m.core
    # the youngest, a middle and the oldest age, one row of the grid each: lambda w rounds monotonically,
    # so these are the order statistics of the ages tau = lambda w
    mid = np.partition(w, w.size // 2)[w.size // 2]
    probes = np.concatenate([p.lam * np.array([w.min(), mid, w.max()]), YOUNG])[:, None]
    lh_tau, lel_tau = _age_constants(m.generator, probes)
    sides = np.reshape([p.gamma1, p.gamma2, p.alpha1, p.alpha2], (2, 2, 1, 1))  # (gamma_i, alpha_i) on axis 0
    q = np.exp(_ln_q_t_unscaled(m, _D_GRID / p.lam, probes, *sides) - lh_tau - lel_tau)  # side x probe age x d
    if np.any(np.diff(q, axis=-1) > 1e-9):
        raise ValidationError(
            "conditional gap survival is not monotone: the generator/core pair "
            "is not a valid bivariate survival function, cannot sample"
        )


def sample_model(m: Model, n: int, seed: int) -> SampleBatch:
    """Draw n pairs from a distorted model, conditioning the gap law on the min.

    The uniforms are read GAP_BLOCK draws at a time in the order of one (3, n) batch: every u_min, then
    every u_cat, then every u_mag.  Between the passes only x (holding w until the last pass), y and two
    flags per draw are kept.
    """
    n, seed, rng = _draws(n, seed)
    g, p = m.generator, m.core
    blocks = [slice(k, min(k + GAP_BLOCK, n)) for k in range(0, n, GAP_BLOCK)]
    x = np.empty(n)
    for b in blocks:  # u_min: the min w, held in x until its gaps are drawn
        np.divide(g.neg_log_h_inverse(rng.random(b.stop - b.start)), p.lam, out=x[b])
    # not an entry: sample_model admits a count and a seed, no number of the entry's table, and calls the
    # entry neg_log_h_inverse above; the probe and the gap solve run under this one state
    with np.errstate(all="ignore"):
        _check_q_monotone(m, x)
        p0, q1, q2 = _side_probs(p)
        y, atom, side1 = np.empty(n), np.empty(n, bool), np.empty(n, bool)  # after the probe's copy of w is freed
        for b in blocks:  # u_cat: the atom and side-1 flags
            atom[b], side1[b], _ = _split(rng.random(b.stop - b.start), p0, q1)
        # for the identity generator q_t is the core's side law, closed form on a side with gamma_i = alpha lambda
        closed_sides = [abs(gi / (p.alpha * p.lam) - 1.0) < 1e-12 for gi in (p.gamma1, p.gamma2)]
        for b in blocks:  # u_mag: each block's gaps, then its x and y
            u_mag, w, atom_b, side1_b = rng.random(b.stop - b.start), x[b], atom[b], side1[b]
            gamma, aw = np.where(side1_b, p.gamma1, p.gamma2), np.where(side1_b, p.alpha1, p.alpha2)
            targets = u_mag * np.where(side1_b, q1, q2)
            gap, solved = np.zeros(w.size), ~atom_b  # solved: the draws whose gap the root finder solves
            if isinstance(g, IdentityGenerator) and any(closed_sides):
                closed = np.where(side1_b, *closed_sides)
                k, solved = np.flatnonzero(closed & solved), solved & ~closed
                # clamped at 0: a target that rounds above its side's weight makes s > 1 and a gap of order -eps/gamma_i
                gap[k] = np.maximum(_mu_side_quantile(targets[k] / aw[k], p.alpha, aw[k], gamma[k]), 0.0)
            k = np.flatnonzero(solved)
            if k.size:
                tau = p.lam * w[k]
                lh_tau, lel_tau = _age_constants(g, tau)
                # each target floored at the least normal double, so that its ln is finite
                ln_targets = np.log(np.maximum(targets[k], _TINY)) + lh_tau + lel_tau
                gap[k] = solve_decreasing_batch(lambda d, *rest: _ln_q_t_unscaled(m, d, *rest), ln_targets,
                                                start=1.0 / p.lam, args=(tau, gamma[k], aw[k]))
            # a gap >= 0 lengthens its side's lifetime only: the other side's, and both of an atom, are w;
            # y first, since x[b] still holds w
            wq = w + gap
            y[b] = np.where(side1_b | atom_b, w, wq)
            x[b] = np.where(side1_b, wq, w)
    return SampleBatch(x=x, y=y, atom=atom, seed=seed, model_label=m.label)


# ---------------------------------------------------------------------------
# mixing shortcut: draw the frailty factor, then a rescaled core
# ---------------------------------------------------------------------------


def sample_mixing_factor(law: MixingLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    name, _, _, draw = MIXING_LAWS[law.kind]
    return draw(rng, law.params[name], n)


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
    n, seed, rng = _draws(n, seed)
    with np.errstate(all="ignore"):  # not an entry: it admits a ratio, a count and a seed, as a constructor does
        c = ratio * sample_mixing_factor(law, rng, n)  # per-draw power of Gbar
        u_min, u_cat, u_mag = rng.random((3, n))
        w = -np.log(u_min) / (c * p.lam)
        atom, side1, side2 = _split(u_cat, 1.0 - p.alpha1 - p.alpha2, p.alpha1)
        # alpha at most the largest double, so that alpha / (alpha + 1) is not inf / inf where c underflows to 0:
        # such a row draws w = inf and a finite gap, the pair (inf, inf) of Gbar^0 = 1
        alpha = np.minimum(p.alpha / c, np.finfo(float).max)
        # every row's gap magnitude q >= 0 on its side's weight (unused on atom rows), so W + max(+-D, 0)
        # is w + q on the gap's side and w on the other, and w on both for an atom
        wq = w + _mu_side_quantile(u_mag, alpha, np.where(side1, p.alpha1, p.alpha2), p.gamma1)
        x, y = np.where(side1, wq, w), np.where(side2, wq, w)
    return SampleBatch(x=x, y=y, atom=atom, seed=seed, model_label="mixing")


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------


def empirical_atom(b: SampleBatch) -> float:
    return float(np.mean(b.atom))

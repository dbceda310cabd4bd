import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from bivlmp import numerics, sampler
from bivlmp.core import CoreParams, marginal_survival, mu_core, singular_mass
from bivlmp.errors import ValidationError
from bivlmp.generators import (
    MIXING_LAWS,
    IdentityGenerator,
    MixingLaw,
    generator_from_mixing,
    make_generator,
    power_scaled,
)
from bivlmp.model import Model, fbar
from bivlmp.sampler import (
    GAP_BLOCK,
    SampleBatch,
    _age_constants,
    _ln_q_t_unscaled,
    _mu_side_quantile,
    empirical_atom,
    sample_core,
    sample_mixing_factor,
    sample_mixing_shortcut,
    sample_model,
)
import oracles
from oracles import empirical_atom_survival, empirical_survival, mixing_mgf

MU = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)
NON_MU = CoreParams(lam=0.15, alpha=1.0, gamma1=0.1, gamma2=0.12, alpha1=0.3, alpha2=0.2)
# fig1_left's rounded core clamps its singular mass to 0, which warns
FIG1_LEFT = pytest.param("fig1_left", marks=pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning"))


def _ln_q_t(m, i, d, tau):
    """ln q_t(d) itself on side i: the sampler's residual less its age constants, under an error state of its own."""
    return _ln_q_t_of(m, d, tau, *oracles.side_constants(m, i))


def _ln_q_t_of(m, d, tau, gamma, aw):
    """ln q_t(d) itself on the side of margin constants (gamma, aw), one pair per draw or one for all."""
    with np.errstate(all="ignore"):
        lh_tau, lel_tau = _age_constants(m.generator, tau)
        return _ln_q_t_unscaled(m, d, tau, gamma, aw) - lh_tau - lel_tau


def _draw_uniforms(monkeypatch, uniforms):
    """Make sample_model draw the given rows of (u_min, u_cat, u_mag) in place of its Philox uniforms.

    sample_model reads its stream in calls of random(k), in the order one (3, n) batch lays it out, so the
    rows are served flattened: every u_min, then every u_cat, then every u_mag.
    """
    stream = iter(np.ravel(uniforms))
    monkeypatch.setattr(sampler, "_rng", lambda seed: types.SimpleNamespace(
        random=lambda k: np.fromiter(stream, float, count=k)))


def test_sample_model_deterministic(models):
    m = models["mixing_gamma"]
    a = sample_model(m, 2_000, seed=99)
    b = sample_model(m, 2_000, seed=99)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.atom, b.atom)
    c = sample_model(m, 2_000, seed=100)
    assert not np.array_equal(a.x, c.x)


@pytest.mark.parametrize("n", [1, 1_000])
def test_sample_model_numeric_generator_matches_closed(models, n):
    # the polynomial h(x) = x is the identity with a numeric inverse, so draws match up to the root finder
    m = models["identity_mu"]
    g = make_generator("polynomial", coeffs=[0.0, 1.0])
    got = sample_model(Model(generator=g, core=m.core, label="numeric identity"), n, seed=3)
    want = sample_model(m, n, seed=3)
    assert np.array_equal(got.atom, want.atom)
    assert np.allclose(got.x, want.x, rtol=1e-9, atol=1e-12)
    assert np.allclose(got.y, want.y, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["mixing_gamma", "mixing_sibuya", "mixing_stable", "mo15", FIG1_LEFT, "pareto_mu"])
def test_sample_model_matches_the_scipy_root_finder(models, name, monkeypatch):
    # every built-in whose gaps go through the root finder, against scipy's bracket_root + find_root
    got = sample_model(models[name], 20_000, seed=41)
    monkeypatch.setattr(sampler, "solve_decreasing_batch", oracles.solve_decreasing_batch)
    want = sample_model(models[name], 20_000, seed=41)
    assert np.array_equal(got.atom, want.atom)
    assert np.allclose(got.x, want.x, rtol=1e-12, atol=0.0)
    assert np.allclose(got.y, want.y, rtol=1e-12, atol=0.0)


def _counted_sample(m, monkeypatch):
    """sample_model(m, 10^4, seed=7) and the size of each residual pass of its gap solves."""
    evaluated = []

    def counted(fn, *args, **kwargs):
        def wrapped(d, *rest):
            evaluated.append(d.size)
            return fn(d, *rest)

        return numerics.solve_decreasing_batch(wrapped, *args, **kwargs)

    monkeypatch.setattr(sampler, "solve_decreasing_batch", counted)
    return sample_model(m, 10_000, seed=7), evaluated


@pytest.mark.parametrize("name", ["mixing_gamma", "mo15", FIG1_LEFT, "pareto_mu"])
def test_gap_solves_take_few_residual_evaluations(models, name, monkeypatch):
    # the log-domain residual and the stop at its rounding level hold the work to 7-8
    # residual evaluations per gap draw on these models
    batch, evaluated = _counted_sample(models[name], monkeypatch)
    assert sum(evaluated) <= 8.5 * np.count_nonzero(~batch.atom)


@pytest.mark.parametrize("name,budget", [("mixing_gamma", 9), ("mo15", 12),
                                         pytest.param("fig1_left", 11, marks=FIG1_LEFT.marks), ("pareto_mu", 9)])
def test_gap_solves_stay_within_their_pass_budget(models, name, budget, monkeypatch):
    # the age constants in the target put the stop at the rounding level of the terms summed,
    # and the secant first step starts close to a nearly linear residual: the one solve of a
    # sample, both sides' draws in it, takes at most budget residual passes, bracket passes included
    _, evaluated = _counted_sample(models[name], monkeypatch)
    assert len(evaluated) <= budget


@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")
def test_no_gap_solve_takes_more_than_a_block(models, monkeypatch):
    # fig1_left's core has no atom mass, so every draw's gap goes through the root finder, GAP_BLOCK at a time
    sizes = []

    def counted(fn, targets, **kwargs):
        sizes.append(targets.size)
        return numerics.solve_decreasing_batch(fn, targets, **kwargs)

    monkeypatch.setattr(sampler, "solve_decreasing_batch", counted)
    batch = sample_model(models["fig1_left"], 2 * GAP_BLOCK + 5, seed=3)
    assert sizes == [GAP_BLOCK, GAP_BLOCK, 5]
    assert np.count_nonzero(~batch.atom) == sum(sizes)


@pytest.mark.parametrize("name", ["identity_mu", "mixing_gamma"])
def test_memory_per_draw_is_bounded(models, name):
    # past one block's working set, a draw keeps x, y, atom and its side flag: 18 bytes, read off the
    # traced peaks at two sizes (identity_mu solves no gap, mixing_gamma solves both sides'); a float
    # array more per draw, 26 bytes, fails
    m = models[name]
    sample_model(m, 2_000, seed=5)  # first-call allocations out of the way
    peaks = []
    for n in (200_000, 400_000):
        tracemalloc.start()
        try:
            sample_model(m, n, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 200_000 <= 24.0


def test_refused_model_reads_only_its_mins(models, monkeypatch):
    # the probe takes its ages from the mins w, so weibull_mu is refused before a u_cat or u_mag is drawn
    reads, philox = [], sampler._rng

    def rng(seed):
        g = philox(seed)
        return types.SimpleNamespace(random=lambda k: reads.append(k) or g.random(k))

    monkeypatch.setattr(sampler, "_rng", rng)
    with pytest.raises(ValidationError, match="^conditional gap survival is not monotone: the generator/core pair "
                                              "is not a valid bivariate survival function, cannot sample$"):
        sample_model(models["weibull_mu"], 2 * GAP_BLOCK + 5, seed=1)
    assert reads == [GAP_BLOCK, GAP_BLOCK, 5]


@pytest.mark.parametrize("name", ["mixing_gamma", "mixing_sibuya", "mixing_stable", "mo15", FIG1_LEFT, "pareto_mu"])
def test_gap_residuals_sit_at_the_rounding_level_of_ln_q_t(models, name, monkeypatch):
    # ln q_t sums terms the size of ln h(e^-tau) and ln el(-tau), so its rounding level is eps times their
    # sizes and ln target's: each gap solves ln q_t(d) = ln target to 4 times that, or the root lies within
    # 4 ulps of it, and it lies within that bound over the slope (plus 8 ulps) of scipy's root
    m, n, seed, solves = models[name], 20_000, 41, []

    def recorded(fn, ln_targets, start, args):
        d = numerics.solve_decreasing_batch(fn, ln_targets, start=start, args=args)
        solves.append((ln_targets, *args, d))
        return d

    monkeypatch.setattr(sampler, "solve_decreasing_batch", recorded)
    batch = sample_model(m, n, seed)
    # the targets u_mag q_i of the non-atom draws, in the order the solves take them: none of these models
    # has a closed-form side
    _, u_cat, u_mag = sampler._rng(seed).random((3, n))
    p0, q1, q2 = sampler._side_probs(m.core)
    side1 = u_cat[~batch.atom] < p0 + q1
    targets = u_mag[~batch.atom] * np.where(side1, q1, q2)
    ln_targets, tau, gamma, aw, d = (np.concatenate(a) for a in zip(*solves))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    with np.errstate(all="ignore"):
        lh_tau, lel_tau = _age_constants(m.generator, tau)
    lt = np.log(np.maximum(targets, tiny))
    assert np.array_equal(ln_targets, lt + lh_tau + lel_tau)  # the solves took the targets above, in order
    bound = 4.0 * eps * (np.abs(lt) + np.abs(lh_tau) + np.abs(lel_tau))

    def residual(x):
        return _ln_q_t_of(m, x, tau, gamma, aw) - lt

    ulps = 4.0 * eps * d + 4.0 * tiny
    closed = (residual(np.maximum(d - ulps, 0.0)) >= -bound) & (residual(d + ulps) <= bound)
    assert np.all((np.abs(residual(d)) <= bound) | closed)
    lo, hi = np.maximum(d - 1e-6 / m.lam, 0.0), d + 1e-6 / m.lam
    slope = (residual(hi) - residual(lo)) / (hi - lo)
    want = oracles.solve_decreasing_batch(lambda x, *rest: _ln_q_t_of(m, x, *rest), lt, start=1.0 / m.lam,
                                          args=(tau, gamma, aw))
    assert np.all(np.abs(d - want) <= bound / np.abs(slope) + 8.0 * eps * d)


@pytest.mark.parametrize("name", ["mixing_gamma", FIG1_LEFT])
def test_zero_gap_target_gives_a_finite_gap(models, name, monkeypatch):
    # u_mag = 0 (probability 2^-53 per draw) makes a zero target, whose ln is -inf; three side-1 draws at one
    # age, of targets 0, 0.1 and 1e-300
    m = models[name]
    p0, q1, _ = sampler._side_probs(m.core)
    _draw_uniforms(monkeypatch, [[0.6] * 3, [p0 + q1 / 2.0] * 3, [0.0, 0.1 / q1, 1e-300 / q1]])
    batch = sample_model(m, 3, seed=0)
    assert not batch.atom.any() and np.all(batch.x >= batch.y)
    assert np.all(np.isfinite(batch.x))
    assert batch.x[0] >= batch.x[2]


def test_closed_form_gap_is_never_negative(models, monkeypatch):
    # on identity_mu the side-1 target u_mag q_1 rounds above alpha_1 at the largest uniform below 1, so
    # s = target / alpha_1 > 1: its gap is 0, not a negative one that would put y above x on a side-1 draw
    m = models["identity_mu"]
    p0, q1, _ = sampler._side_probs(m.core)
    top = np.nextafter(1.0, 0.0)
    assert top * q1 > m.core.alpha1
    _draw_uniforms(monkeypatch, [[0.6], [p0 + q1 / 2.0], [top]])
    batch = sample_model(m, 1, seed=0)
    assert not batch.atom[0] and batch.x[0] >= batch.y[0]


def test_hazard_above_lambda_within_slack_still_samples():
    # gamma_1 / (alpha lambda) = 1.0004 is admissible within the slack; far out it makes
    # 1 - hazard_1 / lambda negative, where ln q_t must read -inf, not NaN
    p = CoreParams(lam=0.1, alpha=1.0, gamma1=0.10004, gamma2=0.1, alpha1=0.3, alpha2=0.2, slack=5e-4)
    m = Model(generator=generator_from_mixing(MixingLaw("gamma", {"a": 2.0}), 0.1), core=p)
    batch = sample_model(m, 20_000, seed=3)
    assert np.all(np.isfinite(batch.x)) and np.all(np.isfinite(batch.y))


@pytest.mark.parametrize("p", [MU, NON_MU], ids=["mu", "non_mu"])
def test_sample_core_is_the_identity_model(p):
    got = sample_core(p, 5_000, seed=13)
    want = sample_model(Model(generator=IdentityGenerator(), core=p, label="core"), 5_000, seed=13)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    assert np.array_equal(got.atom, want.atom)


def test_identity_closed_form_gap_matches_root_finder():
    # power_scaled(identity, 1) is h(x) = x outside the identity class, so its gaps go through the root finder
    n = 5_000
    closed = sample_model(Model(generator=IdentityGenerator(), core=MU), n, seed=19)
    solved = sample_model(Model(generator=power_scaled(IdentityGenerator(), 1.0), core=MU), n, seed=19)
    assert np.array_equal(closed.atom, solved.atom)
    assert np.allclose(solved.x, closed.x, rtol=1e-12, atol=0.0)
    assert np.allclose(solved.y, closed.y, rtol=1e-12, atol=0.0)


def test_shortcut_keeps_the_gap_at_tiny_per_draw_alpha():
    # Sibuya(0.05) frailties reach Z past 1e16, where the per-draw alpha/Z rounds s^(-alpha/(alpha+1)) to 1
    b = sample_mixing_shortcut(MixingLaw("sibuya", {"a": 0.05}), MU, 0.1, 100_000, seed=3)
    assert np.count_nonzero((b.x == b.y) & ~b.atom) == 0


def test_shortcut_draws_infinite_lifetimes_at_zero_frailty():
    # Gamma(0.01) frailties underflow to 0 on about 4e-4 of the draws: Gbar^0 = 1, so both lifetimes are inf, not NaN
    b = sample_mixing_shortcut(MixingLaw("gamma", {"a": 0.01}), MU, 0.1, 50_000, seed=5)
    assert not np.any(np.isnan(b.x) | np.isnan(b.y))
    assert np.count_nonzero(np.isinf(b.x) & np.isinf(b.y) & ~b.atom) > 0


def test_batch_takes_infinite_atoms_and_off_diagonal_gaps():
    # only atom rows must have x == y: inf == inf holds, and a non-atom row may have any x and y
    b = SampleBatch(x=np.array([math.inf, 1.0, 3.0]), y=np.array([math.inf, 2.0, 0.5]),
                    atom=np.array([True, False, False]), seed=0)
    assert b.n == 3 and b.atom.tolist() == [True, False, False]


def test_mu_side_quantile_first_order_at_tiny_alpha():
    # d = ln(1 + (s^(-alpha/(alpha+1)) - 1)/(1 - aw))/gamma is alpha (-ln s)/((1 - aw) gamma) to first order
    s = np.array([0.5, 1e-3, 0.999])
    alpha = 1e-20
    want = alpha * -np.log(s) / (0.7 * 0.1)
    assert np.allclose(_mu_side_quantile(s, alpha, 0.3, 0.1), want, rtol=1e-12, atol=0.0)


def test_csv_round_trip(tmp_path, models):
    batch = sample_model(models["identity_mu"], 500, seed=5)
    path = tmp_path / "s.csv"
    batch.to_csv(path)
    text = path.read_text()
    assert text.startswith("x,y,atom\n")
    assert text.endswith("\n") and "\r" not in text
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], batch.x)
    assert np.array_equal(data[:, 1], batch.y)
    assert np.array_equal(data[:, 2].astype(bool), batch.atom)


def _rows_17g(x, y, atom) -> bytes:
    """The CSV rows of x, y, atom, each row formatted on its own with "%.17g"."""
    return "".join("%.17g,%.17g,%d\n" % row for row in zip(x.tolist(), y.tolist(), atom.tolist())).encode()


def _assert_csv_kernel_exact(values):
    # every value on both axes, in two orders, so that a row's x and y differ
    x = np.asarray(values, dtype=float)
    y, atom = x[::-1].copy(), np.arange(x.size) % 3 == 0
    assert sampler._csv_block(x, y, atom) == _rows_17g(x, y, atom)


# values outside the kernel's fixed-notation range [1e-4, 1e16), which "%.17g" writes one by one
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.5, -1e300, 9.9999999999999991e-5, 1e16, 1e17, 2.0 ** 60]


def _ties(rng, per_exponent):
    """Doubles halfway between two 17-digit decimals, per_exponent of them at each decimal exponent e in [-4, 15].

    With k = 16 - e, v = m / 2^(k+1) for an odd m makes v 10^k = m 5^k / 2 half an odd integer;
    m < 2^53 keeps v exact.
    """
    out = []
    for e in range(-4, 16):
        k = 16 - e
        lo = math.ceil(Fraction(2 ** (k + 1)) * Fraction(10) ** e)
        hi = min(math.ceil(Fraction(2 ** (k + 1)) * Fraction(10) ** (e + 1)), 2 ** 53)
        m = rng.integers(lo // 2, (hi - 1) // 2, per_exponent) * 2 + 1  # odd, in [lo, hi)
        out.append(m / 2.0 ** (k + 1))
    return np.concatenate(out)


def test_csv_kernel_matches_17g_on_random_bit_patterns():
    # uint64 bits read as doubles: NaNs, subnormals, negatives and every binary exponent, about 3% in the fast range
    bits = np.random.default_rng(31).integers(0, 2 ** 64 - 1, 60_000, dtype=np.uint64, endpoint=True)
    values = np.concatenate([bits.view(float), SPECIALS])
    assert np.isnan(values).sum() > 10 and (np.abs(values) < np.finfo(float).tiny).sum() > 10
    _assert_csv_kernel_exact(values)


def test_csv_kernel_rounds_exact_ties_to_even():
    ties = _ties(np.random.default_rng(32), 1000)
    for v in ties.tolist():
        e = math.floor(math.log10(v))
        assert 10.0 ** e <= v < 10.0 ** (e + 1) and (Fraction(v) * 10 ** (16 - e)).denominator == 2
    assert set(np.floor(np.log10(ties)).astype(int)) == set(range(-4, 16))
    _assert_csv_kernel_exact(ties)


def test_csv_kernel_matches_17g_at_powers_of_ten_and_the_range_edges():
    p = 10.0 ** np.arange(-6, 18)
    edges = np.array([1e-4, 1e16, 0.09999999999999999])  # the last: fl(v 1e17) is 1e16, round(v 1e17) below it
    values = np.concatenate([p, edges])
    _assert_csv_kernel_exact(np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]))


def test_csv_kernel_matches_17g_on_lifetime_like_values():
    rng = np.random.default_rng(33)
    values = [rng.random(20_000), rng.exponential(30.0, 20_000), np.exp(rng.uniform(-12.0, 40.0, 20_000)),
              rng.integers(1, 2 ** 53, 20_000).astype(float),
              rng.integers(1, 2 ** 20, 20_000) / 2.0 ** rng.integers(1, 40, 20_000)]
    _assert_csv_kernel_exact(np.concatenate(values))


def test_csv_bytes_of_special_values_across_two_block_boundaries(tmp_path):
    rng = np.random.default_rng(34)
    pool = np.concatenate([SPECIALS, _ties(rng, 20), 10.0 ** np.arange(-6, 18), rng.exponential(30.0, 500)])
    n = 2 * sampler.CSV_BLOCK + 5
    x, y = rng.choice(pool, n), rng.choice(pool, n)
    atom = (np.arange(n) % 4 == 0) & ~np.isnan(x)
    y[atom] = x[atom]
    batch = SampleBatch(x=x, y=y, atom=atom, seed=0)
    path = tmp_path / "s.csv"
    batch.to_csv(path)
    assert path.read_bytes() == b"x,y,atom\n" + _rows_17g(x, y, atom)


def test_a_batch_converts_lists_and_keeps_the_sampler_arrays(models):
    batch = SampleBatch(x=[1.0, 2.0], y=[1.0, 3], atom=[True, False], seed=0)
    assert batch.x.dtype == batch.y.dtype == np.float64 and batch.atom.dtype == bool
    assert batch.y.tolist() == [1.0, 3.0] and batch.n == 2
    drawn = sample_model(models["identity_mu"], 10, seed=1)
    again = SampleBatch(x=drawn.x, y=drawn.y, atom=drawn.atom, seed=1)
    assert again.x is drawn.x and again.y is drawn.y and again.atom is drawn.atom


def test_atom_rows_sit_on_diagonal(models):
    batch = sample_model(models["identity_mu"], 20_000, seed=17)
    assert np.all(batch.x[batch.atom] == batch.y[batch.atom])
    assert np.all(batch.x[~batch.atom] != batch.y[~batch.atom])


def test_atom_mass_matches_singular_mass(models):
    n = 50_000
    batch = sample_model(models["identity_mu"], n, seed=23)
    p0 = singular_mass(MU)
    se = math.sqrt(p0 * (1 - p0) / n)
    assert abs(empirical_atom(batch) - p0) < 4 * se


def test_side_split_matches_weights():
    n = 50_000
    batch = sample_core(MU, n, seed=31)
    frac_x_wins = np.mean(batch.x > batch.y)
    se = math.sqrt(0.3 * 0.7 / n)
    assert abs(frac_x_wins - MU.alpha1) < 4 * se


def test_empirical_survival_matches_fbar(models):
    n = 60_000
    for name in ("identity_mu", "mo15"):
        m = models[name]
        batch = sample_model(m, n, seed=41)
        for mult_x, mult_y in ((0.5, 0.2), (1.0, 1.0), (2.0, 0.7)):
            x, y = mult_x / m.lam, mult_y / m.lam
            p = fbar(m, x, y)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(empirical_survival(batch, x, y) - p) < 4.5 * se, (name, x, y)


def test_atom_survival_curve(models):
    m = models["identity_mu"]
    n = 60_000
    batch = sample_model(m, n, seed=43)
    x = math.log(2.0) / m.lam
    # P(X = Y > x) = p0 * e^{-lam x} = 0.25 for this model
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(empirical_atom_survival(batch, x) - 0.25) < 4 * se


@pytest.mark.parametrize("name", ["pareto_mu", "mixing_gamma"])
@pytest.mark.parametrize("tau", [700.0, 1000.0])
def test_gap_law_of_very_old_minima_matches_log_power_closed_form(models, name, tau):
    # h(x) = (1 - c ln x)^-e gives
    #   q_t(d) = ((1 + c tau) / (1 + c (tau - ln Gbar_i(d))))^(e + 1) (1 - hazard_i(d) / lambda);
    # e^-tau Gbar_i(d) is far below the smallest double here.  On these MU cores
    # 1 - hazard_i(d) / lambda = k / (1 + k) with k = alpha_i e^{-gamma d} / (1 - alpha_i).
    m = models[name]
    c, e = m.generator.coef, m.generator.expo
    d = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 30) / m.lam])
    for i, aw in ((1, m.core.alpha1), (2, m.core.alpha2)):
        lg = np.log(marginal_survival(m.core, i, d))
        k = aw / (1.0 - aw) * np.exp(-m.core.gamma1 * d)
        want = ((1.0 + c * tau) / (1.0 + c * (tau - lg))) ** (e + 1.0) * k / (1.0 + k)
        got = _ln_q_t(m, i, d, tau)
        assert np.allclose(got, np.log(want), rtol=0.0, atol=1e-12), i


def test_invalid_composition_rejected(models):
    # Weibull distortion with shape 2 on this core satisfies the functional
    # equation but is not 2-increasing; the sampler must refuse it.
    with pytest.raises(ValidationError):
        sample_model(models["weibull_mu"], 100, seed=1)


@pytest.mark.parametrize("seed", [0, 41, 4242])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_a_small_sample_of_weibull_mu_is_refused_whatever_its_draws(models, n, seed):
    # weibull_mu's q_t fails only at young ages (lambda t <= 0.3): the probe takes sampler.YOUNG besides the
    # sample's own mins, which a small sample may all draw older
    with pytest.raises(ValidationError, match="^conditional gap survival is not monotone: the generator/core pair "
                                              "is not a valid bivariate survival function, cannot sample$"):
        sample_model(models["weibull_mu"], n, seed)


def test_mixing_shortcut_agrees_with_direct():
    law = MixingLaw("gamma", {"a": 2.0})
    ratio = 0.1
    m = Model(generator=generator_from_mixing(law, ratio), core=MU)
    n = 60_000
    direct = sample_model(m, n, seed=57)
    shortcut = sample_mixing_shortcut(law, MU, ratio, n, seed=58)
    for mult in (0.5, 1.5):
        x = mult / MU.lam
        p = fbar(m, x, x)
        se = math.sqrt(2.0 * p * (1 - p) / n)
        d = empirical_survival(direct, x, x) - empirical_survival(shortcut, x, x)
        assert abs(d) < 4.5 * se, mult


@pytest.mark.parametrize("ratio", [math.nan, math.inf, 0.0, -1.0], ids=str)
def test_mixing_shortcut_rejects_bad_ratio(ratio):
    # NaN used to pass ratio <= 0 and fail later as a malformed sample batch
    with pytest.raises(ValidationError):
        sample_mixing_shortcut(MixingLaw("gamma", {"a": 2.0}), MU, ratio, 10, seed=1)


@pytest.mark.parametrize(
    "law",
    [
        MixingLaw("gamma", {"a": 2.0}),
        MixingLaw("positive_stable", {"a": 0.5}),
        MixingLaw("sibuya", {"a": 0.5}),
        MixingLaw("log_series", {"theta": -0.5}),
    ],
    ids=lambda law: law.kind,
)
def test_mixing_factor_matches_mgf(law):
    rng = np.random.default_rng(71)
    n = 60_000
    z = sample_mixing_factor(law, rng, n)
    assert np.all(z > 0)
    u = -0.3
    vals = np.exp(u * z)
    se = float(np.std(vals) / math.sqrt(n))
    assert abs(float(np.mean(vals)) - float(mixing_mgf(law, u))) < 4.5 * se


def test_every_mixing_law_has_one_sampler():
    # each row of MIXING_LAWS names its factor's sampler, which sample_mixing_factor runs: n positive floats
    for kind, (name, domain, _, draw) in MIXING_LAWS.items():
        value = (domain.lo + domain.hi) / 2 if domain.hi < math.inf else domain.lo + 1.0
        z = sample_mixing_factor(MixingLaw(kind, {name: value}), np.random.default_rng(3), 8)
        assert z.dtype == float and z.shape == (8,) and np.all(z > 0), kind
        assert np.array_equal(z, draw(np.random.default_rng(3), value, 8)), kind


def test_sibuya_factor_support():
    rng = np.random.default_rng(73)
    z = sample_mixing_factor(MixingLaw("sibuya", {"a": 0.5}), rng, 20_000)
    assert np.all(z == np.round(z)) and np.min(z) == 1.0
    # P(Z = 1) = a for a Sibuya law
    assert abs(np.mean(z == 1.0) - 0.5) < 0.02


@pytest.mark.parametrize("a", [0.05, 0.5])
def test_sibuya_tail_matches_exact_law(a):
    # P(Z > k) = Gamma(k + 1 - a) / (Gamma(1 - a) Gamma(k + 1)), which is k^-a / Gamma(1 - a) to double
    # precision far out, where a small a still leaves much of the mass
    n = 200_000
    z = sample_mixing_factor(MixingLaw("sibuya", {"a": a}), np.random.default_rng(79), n)
    exact = {k: math.exp(gammaln(k + 1.0 - a) - gammaln(1.0 - a) - gammaln(k + 1.0)) for k in (1, 2, 5, 10, 100, 1e3)}
    exact.update({k: k**-a / math.gamma(1.0 - a) for k in (1e16, 1e20, 1e30)})
    for k, p in exact.items():
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(z > k) - p) < 5.0 * se, k


def test_batch_metadata(models):
    batch = sample_model(models["mo15"], 100, seed=3)
    assert batch.n == 100
    assert batch.seed == 3
    assert batch.model_label == "mo15"


@pytest.mark.parametrize("kind", ["sibuya", "positive_stable"])
def test_a_mixing_factor_at_a_one_is_one_and_draws_nothing(kind):
    # at a = 1 the law is the point mass at 1: the factor takes no variate from the stream
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(sample_mixing_factor(MixingLaw(kind, {"a": 1.0}), rng, 6), np.ones(6))
    assert rng.random() == fresh.random()

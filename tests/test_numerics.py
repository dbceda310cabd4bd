import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivlmp import core, generators, model
from bivlmp.config import builtin_models
from bivlmp.core import marginal_hazard, marginal_quantile_log
from bivlmp.errors import ConvergenceError, DomainError
from bivlmp.numerics import (
    _HALF_LINE,
    _UNIT,
    FIRST_CHUNK,
    QuadratureResult,
    entry,
    integrate_unit,
    integrate_upper,
    invert_monotone,
    limit_at_zero,
    solve_decreasing_batch,
)

import oracles


def test_integrate_upper_exponential():
    res = integrate_upper(lambda z: np.exp(-z))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_integrate_upper_gamma_density():
    res = integrate_upper(lambda z: z * np.exp(-z))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_integrate_upper_respects_rate_scaling():
    lam = 0.05
    res = integrate_upper(lambda z: np.exp(-lam * z), rate=lam)
    assert res.value == pytest.approx(1.0 / lam, rel=1e-10)


def test_integrate_unit_polynomial():
    res = integrate_unit(lambda u: u * u)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_upper_rejects_nan():
    with pytest.raises(DomainError):
        integrate_upper(lambda z: float("nan"))


def test_integrate_unit_rejects_nan_at_one_node():
    with pytest.raises(DomainError):
        integrate_unit(lambda u: np.where(u > 0.5, np.nan, u))


def test_integrate_batch_of_columns():
    # m columns integrate m functions in one call, each to its own tolerance
    powers = np.array([0.0, 1.0, 2.5, -0.5])
    res = integrate_unit(lambda u: u**powers)
    assert res.value.shape == (4,)
    assert np.allclose(res.value, 1.0 / (powers + 1.0), rtol=1e-12, atol=0.0)
    rates = np.array([1e-3, 1.0, 40.0])
    res = integrate_upper(lambda z: np.exp(-rates * z), rate=1e-2)
    assert np.allclose(res.value, 1.0 / rates, rtol=1e-12, atol=0.0)
    assert isinstance(res.evaluations, int) and res.evaluations % 3 == 0


def test_integrate_single_column_is_a_float():
    res = integrate_unit(lambda u: 3.0 * u * u)
    assert isinstance(res.value, float) and res.value == pytest.approx(1.0, rel=1e-14)
    assert res.abs_error_estimate <= 1e-10


def test_integrate_without_convergence_raises():
    # 1/u is not integrable: every level adds about as much as the last
    with pytest.raises(ConvergenceError):
        integrate_unit(lambda u: 1.0 / u)
    # nor is 1/(1 + z) on the half line: the estimate stops at the last nodes
    with pytest.raises(ConvergenceError) as exc:
        integrate_upper(lambda z: 1.0 / (1.0 + z))
    assert exc.value.estimate > 100.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_integrate_rejects_bad_tol_and_rate(bad):
    with pytest.raises(DomainError):
        integrate_unit(lambda u: u, tol=bad)
    with pytest.raises(DomainError):
        integrate_upper(lambda z: np.exp(-z), rate=bad)


# ---------------------------------------------------------------------------
# the chunked rule against the level-by-level one (oracles.de_integrate)
# ---------------------------------------------------------------------------

ORACLE_UNIT, ORACLE_HALF_LINE = oracles.de_levels(unit=True), oracles.de_levels(unit=False)
MODELS = builtin_models()


def _quadrature(unit, f, tol, rate=1.0):
    """The outcome of integrate_unit / integrate_upper and of the oracle on f: result or error, bit for bit."""
    if unit:
        return _outcome(lambda: integrate_unit(f, tol=tol)), _outcome(
            lambda: oracles.de_integrate(f, ORACLE_UNIT, 1.0, tol, "unit-interval integral"))
    return _outcome(lambda: integrate_upper(f, tol=tol, rate=rate)), _outcome(
        lambda: oracles.de_integrate(f, ORACLE_HALF_LINE, 1.0 / rate, tol, "semi-infinite integral"))


def _bits(v):
    return type(v), np.asarray(v, dtype=float).tobytes()


def _outcome(run):
    """(result class or error class, the value or estimate's type and bytes, the error estimate)."""
    try:
        res = run()
    except (DomainError, ConvergenceError) as exc:
        return type(exc), _bits(getattr(exc, "estimate", None)), None
    return type(res), _bits(res.value), res.abs_error_estimate


def _j_integrand(m, i, columns):
    """The J_i integrand of j_integral_quadrature on the core of m, at one ln v or at 49 of them."""
    lv = np.array(-0.3) if columns == 1 else np.linspace(-5.0, -1e-9, 49)
    z_max = np.ravel(marginal_quantile_log(m.core, i, lv))
    return lambda u: z_max * marginal_hazard(m.core, i, z_max * u) ** 2


def _survival_integrand(m, columns):
    """The residual joint survival of m at lambda t = 0.5 along z, at one scale of z or at 49 of them."""
    tau, c = m.tau(0.5 / m.lam), np.array(1.0) if columns == 1 else np.geomspace(0.5, 2.0, 49)

    def surv(z):
        with np.errstate(all="ignore"):  # the kernel runs under its caller's error state
            return np.exp(m.generator._residual_log(tau, -m.lam * z * c))

    return surv


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("columns", [1, 49])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_chunked_rule_matches_the_level_rule_on_model_integrands(name, columns, tol):
    m = MODELS[name]
    for i in (1, 2):
        new, old = _quadrature(True, _j_integrand(m, i, columns), tol)
        assert new == old
    new, old = _quadrature(False, _survival_integrand(m, columns), tol, rate=m.lam)
    assert new == old


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_chunked_rule_matches_the_level_rule_on_the_summed_j_integrand(name, tol):
    # the integrand of the quadrature K_t route: J_1 + J_2 at 49 values of ln v
    j1, j2 = (_j_integrand(MODELS[name], i, 49) for i in (1, 2))
    new, old = _quadrature(True, lambda u: j1(u) + j2(u), tol)
    assert new[0] is QuadratureResult and new == old


POWERS = np.linspace(-0.5, 3.0, 49)
RATES = np.geomspace(1e-3, 40.0, 49)
GENERIC = {  # (unit, f, rate)
    "unit_powers": (True, lambda u: u**POWERS, 1.0),
    "unit_square": (True, lambda u: u * u, 1.0),
    "upper_rates": (False, lambda z: np.exp(-RATES * z), 1e-2),
    "upper_exp": (False, lambda z: np.exp(-z), 1.0),
}


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("name", sorted(GENERIC))
def test_chunked_rule_matches_the_level_rule_on_closed_integrands(name, tol):
    unit, f, rate = GENERIC[name]
    new, old = _quadrature(unit, f, tol, rate)
    assert new[0] is old[0] is QuadratureResult
    assert new == old


@pytest.mark.parametrize("unit, f, tol, stop, calls", [
    (True, lambda u: u * u, 1e-10, 3, [147]),
    (False, lambda z: np.exp(-z), 1e-9, 4, [193]),
    (False, lambda z: z * np.exp(-z), 1e-10, 5, [193, 192]),
])
def test_chunked_rule_matches_the_level_rule_at_each_stop(unit, f, tol, stop, calls):
    # an integral that stops by level 4 calls f once, on levels 0-4; evaluations counts every node f got
    levels = ORACLE_UNIT if unit else ORACLE_HALF_LINE
    seen = []

    def counted(x):
        seen.append(x.size)
        return f(x)

    res = integrate_unit(counted, tol=tol) if unit else integrate_upper(counted, tol=tol)
    old = oracles.de_integrate(f, levels, 1.0, tol, "")
    assert old.evaluations == sum(x.size for x, _ in levels[: stop + 1])  # the oracle stops at this level
    assert _bits(res.value) == _bits(old.value) and res.abs_error_estimate == old.abs_error_estimate
    assert seen == calls and res.evaluations == sum(calls)


def test_the_chunks_hold_the_levels_of_the_rule():
    # levels 0..FIRST_CHUNK-1 end to end in the first chunk, then one chunk per level, nodes and
    # weights bit for bit those of the level-by-level rule
    for chunks, levels, first in ((_UNIT, ORACLE_UNIT, 147), (_HALF_LINE, ORACLE_HALF_LINE, 193)):
        assert chunks[0][0].shape == chunks[0][1].shape == (first, 1)
        assert [len(bounds) for _, _, bounds in chunks] == [FIRST_CHUNK] + [1] * (len(levels) - FIRST_CHUNK)
        assert all(bounds[0][0] == 0 and bounds[-1][1] == x.shape[0] for x, _, bounds in chunks)
        flat = [(x[start:stop], w[start:stop]) for x, w, bounds in chunks for start, stop in bounds]
        assert len(flat) == len(levels)
        for (x, w), (x_old, w_old) in zip(flat, levels):
            assert x.tobytes() == x_old.tobytes() and w.tobytes() == w_old.tobytes() and w.shape == w_old.shape


def test_a_nan_past_the_stop_is_not_seen():
    # u^2 stops at level 3; its level-4 nodes share the first call, and NaN there changes nothing
    past = ORACLE_UNIT[4][0][:, 0]

    def f(u):
        return np.where(np.isin(u, past), np.nan, u * u)

    new, old = _quadrature(True, f, 1e-10)
    assert new[0] is QuadratureResult and new == old
    assert new == _quadrature(True, lambda u: u * u, 1e-10)[0]


def test_a_nan_at_a_summed_level_raises_as_the_level_rule_does():
    level_2 = ORACLE_HALF_LINE[2][0][:, 0]
    new, old = _quadrature(False, lambda z: np.where(np.isin(z, level_2[:1]), np.nan, np.exp(-z)), 1e-10)
    assert new[0] is DomainError and new == old


@pytest.mark.parametrize("unit, f", [(True, lambda u: 1.0 / u), (False, lambda z: 1.0 / (1.0 + z))])
def test_a_divergent_integral_raises_the_level_rule_estimate(unit, f):
    new, old = _quadrature(unit, f, 1e-10)
    assert new[0] is ConvergenceError and new == old


# ---------------------------------------------------------------------------
# one column (Python-float sums and tests) against two (array sums and tests)
# ---------------------------------------------------------------------------

def _run(unit, f, tol, columns):
    """integrate_unit / integrate_upper on f, with f's column repeated columns times."""
    g = f if columns == 1 else lambda x: np.repeat(f(x), columns, axis=1)
    return integrate_unit(g, tol=tol) if unit else integrate_upper(g, tol=tol)


def _level_nodes(unit, k):
    return (ORACLE_UNIT if unit else ORACLE_HALF_LINE)[k][0][:, 0]


@pytest.mark.parametrize("unit, f, tol, stop", [
    (True, lambda u: u * u, 1e-10, 3),  # inside the first chunk
    (False, lambda z: z * np.exp(-z), 1e-10, 5),  # the first later chunk
    (False, lambda z: np.exp(-z * z), 1e-16, 6),  # the second later chunk
])
def test_one_column_and_two_give_the_same_bits(unit, f, tol, stop):
    levels = ORACLE_UNIT if unit else ORACLE_HALF_LINE
    one, two = _run(unit, f, tol, 1), _run(unit, f, tol, 2)
    assert one.evaluations == sum(x.size for x, _ in levels[: max(stop, FIRST_CHUNK - 1) + 1])
    assert oracles.de_integrate(f, levels, 1.0, tol, "").evaluations == sum(x.size for x, _ in levels[: stop + 1])
    assert type(one.value) is float and two.value.shape == (2,)
    assert _bits(two.value) == _bits(np.array([one.value, one.value]))
    assert _bits(two.abs_error_estimate) == _bits(one.abs_error_estimate)
    assert two.evaluations == 2 * one.evaluations


@pytest.mark.parametrize("columns", [1, 2])
def test_infinities_of_both_signs_in_one_level_do_not_read_as_nan(columns):
    # +inf and -inf nodes sum to NaN, but no node value is NaN: the integral is not finite
    level_2 = _level_nodes(False, 2)

    def f(z):
        return np.where(z == level_2[0], np.inf, np.where(z == level_2[1], -np.inf, np.exp(-z)))

    with pytest.raises(ConvergenceError), np.errstate(all="ignore"):  # the error state an entry gives it
        _run(False, f, 1e-10, columns)


@pytest.mark.parametrize("columns", [1, 2])
def test_a_nan_at_level_6_raises_only_when_the_rule_reaches_it(columns):
    # exp(-z^2) stops at level 5 with tol 1e-10 and at level 6 with tol 1e-16
    level_6 = _level_nodes(False, 6)

    def f(z):
        return np.where(np.isin(z, level_6), np.nan, np.exp(-z * z))

    clean = _run(False, lambda z: np.exp(-z * z), 1e-10, columns)
    assert _bits(_run(False, f, 1e-10, columns).value) == _bits(clean.value)
    with pytest.raises(DomainError):
        _run(False, f, 1e-16, columns)


@pytest.mark.parametrize("columns", [1, 2])
def test_a_running_total_that_overflows_raises(columns):
    # levels 0 and 1 each sum to a finite double, 1e308 and 1.5e308, but 0.5 * 1e308 + 1.5e308 overflows
    (x0, w0), (x1, w1) = ORACLE_HALF_LINE[:2]
    c0, c1 = 1e308 / w0.sum(), 1.5e308 / w1.sum()
    assert np.isfinite([np.sum(w0 * c0), np.sum(w1 * c1)]).all()

    def f(z):
        return np.where(np.isin(z, x0), c0, np.where(np.isin(z, x1), c1, 0.0))

    with pytest.raises(ConvergenceError) as exc, np.errstate(all="ignore"):  # the error state an entry gives it
        _run(False, f, 1e-10, columns)
    assert np.all(np.asarray(exc.value.estimate) == np.inf)


def test_invert_monotone_decreasing():
    f = lambda z: math.exp(-0.3 * z)
    z = invert_monotone(f, 0.25, 0.0, 100.0, tol=1e-12)
    assert z == pytest.approx(-math.log(0.25) / 0.3, abs=1e-9)


def test_invert_monotone_increasing():
    z = invert_monotone(math.atan, 1.0, 0.0, 10.0, tol=1e-12)
    assert z == pytest.approx(math.tan(1.0), abs=1e-9)


def test_invert_monotone_raises_when_the_bracket_fails():
    # the ends bracket the target, but every step lands on a NaN inside (0.3, 0.9)
    with pytest.raises(ConvergenceError, match="monotone inversion did not converge"):
        invert_monotone(lambda x: math.nan if 0.3 < x < 0.9 else 1.0 - x, 0.5, 0.0, 1.0)


def test_limit_at_zero_sinc():
    est = limit_at_zero(lambda u: np.sin(u) / u, 0.25, 1e-6, 40)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_limit_at_zero_half_angle():
    est = limit_at_zero(lambda u: (1.0 - np.cos(u)) / u**2, 0.25, 1e-6, 40)
    assert est.converged
    assert est.value == pytest.approx(0.5, abs=1e-6)


def test_limit_at_zero_calls_g_once_on_the_whole_sequence():
    calls = []

    def g(u):
        calls.append(np.array(u))
        return np.sin(u) / u

    limit_at_zero(g, 0.5, 1e-6, 12)
    assert len(calls) == 1
    assert calls[0].tolist() == [0.5 * 2.0**-k for k in range(12)]


def test_limit_at_zero_ignores_values_past_convergence():
    def sinc(u):
        return np.sin(u) / u

    def nan_at_the_end(u):
        return np.where(u == u[-1], np.nan, sinc(u))

    est = limit_at_zero(nan_at_the_end, 0.25, 1e-6, 40)
    assert est == limit_at_zero(sinc, 0.25, 1e-6, 40)
    assert est.converged


def test_limit_at_zero_raises_on_a_non_finite_value_before_convergence():
    def inf_at_the_third(u):
        return np.where(u == u[2], np.inf, np.sin(u) / u)

    with pytest.raises(DomainError):
        limit_at_zero(inf_at_the_third, 0.25, 1e-6, 40)


def test_limit_at_zero_drifting_returns_the_last_accelerated_value():
    def g(u):
        return np.sqrt(-np.log(u))

    est = limit_at_zero(g, 0.25, 1e-6, 20)
    a0, a1, a2 = g(0.25 * 2.0 ** -np.arange(17, 20)).tolist()
    assert not est.converged
    assert est.value == a2 - (a2 - a1) ** 2 / (a2 - 2.0 * a1 + a0)
    assert est.sequence_tail[-1] == est.value and len(est.sequence_tail) == 6


@pytest.mark.parametrize("u0,budget", [(0.25, 2), (0.25, 0), (5e-324, 40)], ids=["budget_2", "budget_0", "underflow"])
def test_limit_at_zero_refuses_fewer_than_three_points(u0, budget):
    # one accelerated value needs three points u_k > 0; 5e-324 halves to 0 at once
    calls = []
    with pytest.raises(DomainError, match="at least 3 points"):
        limit_at_zero(calls.append, u0, 1e-6, budget)
    assert not calls


def test_solve_decreasing_batch():
    targets = np.array([0.9, 0.5, 0.1, 1e-6])
    roots = solve_decreasing_batch(lambda z: np.exp(-z), targets)
    assert np.allclose(roots, -np.log(targets), atol=1e-10)


@pytest.mark.parametrize("n", [2, 8192])
def test_solve_decreasing_batch_per_element_args(n):
    # the solver hands fn only the elements still active, so per-element rates
    # must arrive through args; rate 1e-12 puts the root ~2^39 past start, so
    # the elements finish on different passes and their args shrink with them
    rates = np.resize([1e-12, 0.5, 3.0, 1e-3, 40.0], n)
    targets = np.resize([0.5, 0.9, 1e-8, 0.25, 0.999], n)
    sizes = []

    def fn(z, r):
        assert z.shape == r.shape
        sizes.append(z.size)
        return np.exp(-r * z)

    roots = solve_decreasing_batch(fn, targets, args=(rates,))
    expect = -np.log(targets) / rates
    assert expect[0] > 2.0**30
    assert np.allclose(roots, expect, rtol=1e-12, atol=0.0)
    assert sizes[0] == n and len(set(sizes)) >= min(n, 3)


def test_solve_decreasing_batch_root_at_zero_is_exact():
    roots = solve_decreasing_batch(lambda z: np.exp(-z), np.array([1.0, 0.5, 1.0]))
    assert roots[0] == 0.0 and roots[2] == 0.0
    assert roots[1] == pytest.approx(math.log(2.0), rel=1e-15)


def test_empty_solve_returns_at_once():
    # no element is live from the start: the bracket's two passes and no refinement pass
    calls = []

    def fn(z):
        calls.append(z.size)
        return np.exp(-z)

    roots = solve_decreasing_batch(fn, np.array([]))
    assert roots.shape == (0,) and len(calls) <= 2


@given(st.lists(st.tuples(st.floats(1e-12, 1e3), st.floats(1e-300, 1.0, exclude_max=True)), min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_solve_decreasing_batch_matches_scipy(pairs):
    rates, targets = np.array(pairs).T

    def fn(z, r):
        return np.exp(-r * z)

    with np.errstate(all="ignore"):  # the error state an entry gives it
        roots = solve_decreasing_batch(fn, targets, args=(rates,))
    expect = oracles.solve_decreasing_batch(fn, targets, args=(rates,))
    # each stops within 4 eps relative of a sign change of the rounded fn - target, or once
    # |fn - target| <= tiny.  Past 8 eps relative the roots may differ only where that is
    # loose: the rounded exp(-r z) is flat over eps / r near target 1, and the tiny stop
    # leaves a band of tiny / |fn'| that matters only for targets below ~1e-290
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    tol = 8.0 * eps * np.abs(expect) + 4.0 * eps / rates + 2.0 * tiny / (rates * targets)
    assert np.all(np.abs(roots - expect) <= tol)


def _first_steps(fn, target):
    """The points solve_decreasing_batch hands fn for one target: the bracket [0, 1], then the refinement's."""
    points = []

    def recorded(z):
        points.extend(z.tolist())
        return fn(z)

    return solve_decreasing_batch(recorded, np.array([target])), points


def test_first_step_is_the_secant_point_of_a_finite_bracket():
    # on a line the regula-falsi point is the root; Chandrupatla's first step would bisect to 0.5
    root, points = _first_steps(lambda z: 1.0 - z, 0.75)
    assert points == [0.0, 1.0, 0.25] and root[0] == 0.25


def test_first_step_bisects_a_bracket_with_an_infinite_end():
    # ln(1 - z) is -inf at the bracket's end 1, where the secant point would sit on 0 and stall
    with np.errstate(all="ignore"):  # the error state an entry gives it
        root, points = _first_steps(lambda z: np.log(np.maximum(1.0 - z, 0.0)), math.log(0.9))
    assert points[:3] == [0.0, 1.0, 0.5]
    assert root[0] == pytest.approx(0.1, rel=1e-14)


def test_solve_decreasing_batch_nan_raises():
    with pytest.raises(ConvergenceError):
        solve_decreasing_batch(lambda z: np.full_like(z, np.nan), np.array([0.5, 0.2]))
    # NaN past the root's bracket is no excuse to stop short either
    with pytest.raises(ConvergenceError):
        solve_decreasing_batch(lambda z: np.where(z > 3.0, np.nan, np.exp(-z)), np.array([0.5, 1e-5]))


@pytest.mark.parametrize("start", [0.0, -1.0, math.nan, math.inf])
def test_a_start_that_is_not_positive_and_finite_is_refused(start):
    # a bracket [0, 0] never grows and one from -1 grows towards -inf, so the solve would never return;
    # a NaN or infinite start would fail every element as if the root finder had
    calls = []

    def fn(z):
        calls.append(z.size)
        return np.exp(-z)

    with pytest.raises(DomainError, match="^start must be positive and finite$"):
        solve_decreasing_batch(fn, np.array([0.5]), start=start)
    assert not calls


def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_read_only_targets_and_args_solve_to_the_same_roots(shape):
    # 1-D targets and args of their shape reach fn uncopied, so the solve must never write to them;
    # the 2-D case goes through the broadcast copies instead
    targets = np.reshape([0.9, 0.5, 1.0, 1e-6, 0.25, 0.999], shape)
    rates = np.resize([1e-9, 0.5, 3.0, 1e-3, 40.0, 1.0], shape[-1:])

    def fn(z, r):
        return np.exp(-r * z)

    with np.errstate(all="ignore"):  # the error state an entry gives it
        want = solve_decreasing_batch(fn, targets.copy(), args=(rates.copy(),))
        got = solve_decreasing_batch(fn, _read_only(targets), args=(_read_only(rates),))
    assert got.shape == shape and np.array_equal(got, want)


@given(
    rate=st.floats(0.1, 5.0),
    target=st.floats(0.01, 0.99),
)
@settings(max_examples=50, deadline=None)
def test_invert_monotone_recovers_exponential_quantile(rate, target):
    z = invert_monotone(lambda z: math.exp(-rate * z), target, 0.0, 1000.0, tol=1e-12)
    assert math.exp(-rate * z) == pytest.approx(target, abs=1e-9)


@entry(x="probability", t="age")
def _shifted(g, t, x=0.5):
    return x + t


def test_an_entry_admits_each_argument_by_position_keyword_or_default():
    assert _shifted(None, 1, 0.25) == _shifted(None, x=0.25, t=1) == _shifted(g=None, t=1, x=0.25) == 1.25
    assert type(_shifted(None, 2)) is float and _shifted(None, 2) == 2.5  # the default reaches the body as it is
    assert np.array_equal(_shifted(None, 1, [0.0, 1.0]), [1.0, 2.0])
    assert _shifted.kernel(None, 1.0, 0.25) == 1.25  # the body, unchecked
    with pytest.raises(DomainError, match="^x must lie in"):
        _shifted(None, 1, 2.0)
    with pytest.raises(DomainError, match="^t must be"):
        _shifted(None, -1.0)
    with pytest.raises(TypeError):
        _shifted(None)
    with pytest.raises(TypeError):
        _shifted(None, 1, 0.25, x=0.5)


M = builtin_models()["mixing_gamma"]


def test_a_left_out_argument_raises_pythons_own_type_error():
    with pytest.raises(TypeError, match=r"^fbar_residual\(\) missing 1 required positional argument: 'm'$"):
        model.fbar_residual(t=1.0, x=1.0, y=1.0)  # the first argument, whose m.tau admits t
    with pytest.raises(TypeError, match=r"^fbar_residual\(\) missing 1 required positional argument: 't'$"):
        model.fbar_residual(M, x=1.0, y=1.0)
    with pytest.raises(TypeError, match=r"^fbar\(\) missing 1 required positional argument: 'y'$"):
        model.fbar(M, 1.0)
    with pytest.raises(DomainError, match="^lifetime arguments must be nonnegative$"):
        model.fbar(M, -1.0)  # a bad argument is admitted before the body's call finds the missing one
    assert model.fbar_residual(m=M, t=1.0, x=1.0, y=0.5) == model.fbar_residual(M, 1.0, 1.0, 0.5)


# public calls whose bodies form ln 0, overflow or 0/0 on the way to an exact value
EDGE_CALLS = {
    "copula_t at u = 0": lambda: model.copula_t(M, 1.0, 0.0, 0.5),
    "h at 0": lambda: M.generator.h(0.0),
    "time_distortion at 0": lambda: generators.time_distortion(M.generator, 1.0, [0.0, 0.5]),
    "marginal_quantile_log where e^{-alpha ln u} overflows": lambda: core.marginal_quantile_log(M.core, 1, -1e300),
    "fbar at inf": lambda: model.fbar(M, math.inf, math.inf),
}


@pytest.mark.parametrize("name", sorted(EDGE_CALLS))
def test_an_entry_runs_its_body_with_floating_point_warnings_off(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EDGE_CALLS[name]()

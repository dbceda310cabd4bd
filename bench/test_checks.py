"""Tests of the benchmark's own checks: each accepts a right value and rejects a wrong one.

Run from the repository root with:  python3 -m pytest -q bench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import ref
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _doc(name):
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def test_kendall_curves_reject_a_shifted_curve():
    s = np.linspace(0.02, 0.98, 49)
    k = s - s * np.log(s)
    assert checks.kendall_curves(s, k, k + 1e-9, "K") == []
    assert checks.kendall_curves(s, k, k + 1e-3, "K")
    assert checks.kendall_curves(s, k, k, "K") == []
    assert checks.kendall_curves(s, s - 1e-3, s - 1e-3, "K")  # below the diagonal
    assert checks.kendall_curves(s, k[::-1], k[::-1], "K")  # decreasing


def test_kendall_estimate_rejects_a_shifted_estimate():
    s = np.linspace(0.02, 0.98, 49)
    k = s - s * np.log(s)
    assert checks.kendall_estimate(np.minimum(k + 0.001, 1.0), k, 40_000, "K_n") == []
    assert checks.kendall_estimate(np.minimum(k + 0.03, 1.0), k, 40_000, "K_n")


def _table_cells(scale=1.0, drop=0):
    cells = [(name, t, kind, value) for name, published in ref.TABLE1.items()
             for (t, kind), value in published.items()]
    cells[0] = cells[0][:3] + (cells[0][3] * scale,)
    return cells[drop:]


def test_table1_rejects_a_premium_off_by_two_percent():
    assert checks.table1(_table_cells(), ref.TABLE1, ref.TABLE1_RTOL) == []
    assert checks.table1(_table_cells(1.005), ref.TABLE1, ref.TABLE1_RTOL) == []
    assert checks.table1(_table_cells(1.02), ref.TABLE1, ref.TABLE1_RTOL)
    assert checks.table1(_table_cells(drop=1), ref.TABLE1, ref.TABLE1_RTOL)  # a cell missing


def _csv(x, y, atom):
    return "x,y,atom\n" + "".join(f"{a:.17g},{b:.17g},{int(c)}\n" for a, b, c in zip(x, y, atom))


def test_sample_csv_rejects_an_off_diagonal_atom_row():
    rng = np.random.default_rng(0)
    x, y = rng.exponential(size=50), rng.exponential(size=50)
    atom = np.zeros(50, dtype=bool)
    atom[::5] = True
    y[atom] = x[atom]
    assert checks.sample_csv(_csv(x, y, atom), x, y, atom, "csv") == []
    bad_y = y.copy()
    bad_y[0] += 1e-12
    assert checks.sample_csv(_csv(x, bad_y, atom), x, y, atom, "csv")
    assert checks.sample_csv(_csv(x[:-1], y[:-1], atom[:-1]), x, y, atom, "csv")  # a row lost
    assert checks.sample_csv("x,y\n1,2\n", x, y, atom, "csv")


def test_empirical_kendall_exact_rejects_a_count_off_by_one():
    rng = np.random.default_rng(1)
    n = 300
    x, y = rng.normal(size=n), rng.normal(size=n)
    y += 0.5 * x
    counts = checks.concordance_counts(x, y)
    grid = checks.count_grid(n)
    assert checks.empirical_kendall_exact(checks.concordance_curve(counts, n, grid), x, y, "K_n") == []
    off = counts.copy()
    off[np.argmax(counts < n - 1)] += 1
    assert checks.empirical_kendall_exact(checks.concordance_curve(off, n, grid), x, y, "K_n")


def test_concordance_counts_match_a_double_loop():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 5, 40).astype(float)  # ties on both axes
    y = rng.integers(0, 5, 40).astype(float)
    want = [sum(1 for j in range(40) if x[j] > x[i] and y[j] > y[i]) for i in range(40)]
    assert checks.concordance_counts(x, y).tolist() == want


def test_survival_grid_rejects_a_wrong_model():
    rng = np.random.default_rng(3)
    n = 20_000
    x, y = rng.exponential(size=n), rng.exponential(size=n)
    pts = [(a, b) for a in (0.2, 1.0, 2.0) for b in (0.2, 1.0, 2.0)]
    truth = [math.exp(-a - b) for a, b in pts]
    assert checks.survival_grid(x, y, pts, truth, "S") == []
    assert checks.survival_grid(x, y, pts, [p * 0.95 for p in truth], "S")
    assert checks.two_sample_survival(x, y, x[::-1], y, pts, truth, "S") == []
    assert checks.two_sample_survival(x, y, 0.5 * x, y, pts, truth, "S")


def test_atom_share_rejects_a_wrong_share_and_off_diagonal_atoms():
    rng = np.random.default_rng(4)
    n = 20_000
    atom = rng.random(n) < 0.2
    x = rng.exponential(size=n)
    y = np.where(atom, x, rng.exponential(size=n))
    assert checks.atom_share(atom, x, y, 0.2, "atoms") == []
    assert checks.atom_share(atom, x, y, 0.25, "atoms")
    assert checks.atom_share(atom, x, y + 1e-9, 0.2, "atoms")
    assert checks.atom_share(atom, x, y, 0.0, "atoms")


def test_kendall_dkw_and_sample_tau_reject_a_wrong_model():
    rng = np.random.default_rng(5)
    n = 20_000
    u, v = rng.random(n), rng.random(n)
    s = np.linspace(0.02, 0.98, 49)
    k_indep = s - s * np.log(s)  # P(UV <= s) for independent uniforms
    assert checks.kendall_dkw(u * v, s, k_indep, "K_0") == []
    assert checks.kendall_dkw(u * v, s, np.minimum(k_indep + 0.05, 1.0), "K_0")
    assert checks.sample_tau(u, v, 0.0, "tau") == []
    assert checks.sample_tau(u, v, 0.2, "tau")


def test_copula_grid_rejects_bound_and_rectangle_violations():
    u = np.linspace(0.0, 1.0, 11)
    U, V = np.meshgrid(u, u, indexing="ij")
    assert checks.copula_grid(u, u, U * V, "C") == []
    assert checks.copula_grid(u, u, np.minimum(U, V), "C") == []
    assert checks.copula_grid(u, u, np.minimum(U * V + 0.01, np.minimum(U, V) + 0.01), "C")
    wavy = U * V + 0.05 * np.sin(2 * np.pi * U) * np.sin(2 * np.pi * V)  # margins fine, mass < 0
    assert checks.copula_grid(u, u, wavy, "C")


def test_close_treats_equal_infinities_as_equal():
    assert checks.close([1.0, math.inf], [1.0 + 1e-12, math.inf], 1e-9, "v") == []
    assert checks.close([1.0, 5.0], [1.0, math.inf], 1e-9, "v")
    assert checks.close(1.02, 1.0, 0.01, "v")


@pytest.mark.parametrize("name", ["identity_mu", "mixing_gamma", "mo15", "mixing_stable"])
def test_closed_form_annuities_match_quadrature_of_the_reference(name):
    r = ref.RefModel(_doc(name))
    for c in (0.0, 1.5):
        t = c / r.lam
        quad = ref.quad_half_line(lambda z: float(r.residual(t, z, z)), r.lam)
        assert r.residual_joint_annuity(t) == pytest.approx(quad, rel=1e-8)


def test_reference_survival_is_the_paper_core_on_the_diagonal():
    r = ref.RefModel(_doc("identity_mu"))
    assert float(r.fbar(3.0, 3.0)) == pytest.approx(math.exp(-r.lam * 3.0), rel=1e-14)
    assert r.singular_mass() == pytest.approx(0.5)
    assert r.core_tails() == pytest.approx((0.8 / 1.1, 0.625))


def test_a_known_fault_beyond_its_ceiling_makes_the_run_incorrect():
    import workloads

    key = "pricing:independent_annuity:mixing_gamma:2"
    want = 20.70103
    within = checks.close(want * (1 - 3.0e-5), want, 1e-6, key)
    assert within and workloads.known_fault(key, within, 3.0e-5)
    beyond = checks.close(want * 1.5, want, 1e-6, key)
    assert not workloads.known_fault(key, beyond, 0.5)
    assert not workloads.known_fault("pricing:independent_annuity:mo15:2", within, 3.0e-5)
    assert not workloads.known_fault(key, [], 0.0)


def test_install_replaces_names_bound_at_import():
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from bivlmp import config, dependence, numerics, pricing

    m = config.load_model(ROOT / "configs" / "mo15.json")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert pricing.integrate_upper is numerics.integrate_upper
    value = pricing.residual_joint_annuity(m, 1.0)
    first = tracer.snapshot()
    tracer.reset()
    assert pricing.residual_joint_annuity(m, 1.0) == value
    again = tracer.snapshot()
    assert first["counts"] == again["counts"]  # work counts repeat exactly
    assert first["stats"]["numerics.integrate_upper@pricing.residual_joint_annuity"][0] == 1
    assert first["counts"]["numerics.integrate_upper.evals"] > 0
    layer = tracing.per_layer(first, {})
    assert set(layer) == set(tracing.UNITS)
    # source='auto' (the command line's route) is named by the route it took
    tracer.reset()
    curve = dependence.kendall_function(m, 1.0, (0.25, 0.5, 0.75))
    assert curve.source == "closed_form"
    assert tracer.snapshot()["stats"]["dependence.kendall_function.closed"][0] == 1


def test_reference_seconds_take_out_the_machine_state():
    # the calibration kernel runs twice as slow from t = 10 s on, and so does an
    # operation of fixed work: both timings read the same at the reference speed
    calibrations = [(t, 0.01 if t < 10.0 else 0.02) for t in np.arange(0.0, 20.0, 0.25)]
    fast, slow, slower_op = workloads.reference_seconds([(5.0, 0.3), (15.0, 0.6), (15.0, 0.9)], calibrations)
    assert fast == pytest.approx(0.3 * workloads.CALIBRATION_S / 0.01)
    assert slow == pytest.approx(fast)
    assert slower_op == pytest.approx(1.5 * fast)  # a slower program still reads slower

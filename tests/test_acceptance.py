"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Criterion 5 (the negative-dependence lower bound K_t(x) >= x - x ln x for
the bivariate Gompertz family) checks the bound on the zero-simultaneous-failure
boundary, where it holds, and checks that it fails for every sampled set with
positive singular mass, where it is provably false.  See notes/decisions.md for
the triage.
"""

import concurrent.futures
import math

import numpy as np
import pytest

from bivlmp.cli import run
from bivlmp.config import builtin_models
from bivlmp.core import singular_mass
from bivlmp.dependence import kendall_function, tail_lower, tail_numeric, tail_upper
from bivlmp.generators import aging_profile, make_generator, multiplicativity_check
from bivlmp.model import Mo15Params, fbar, generalized_weak_residual, mo15_bridge
from bivlmp.model import copula_t
from bivlmp.pricing import (
    REFERENCE_HORIZON,
    life_expectancy,
    reference_comparison,
)
from bivlmp.sampler import (
    empirical_atom,
    sample_mixing_shortcut,
    sample_model,
)
from bivlmp.generators import MixingLaw
from oracles import empirical_survival

MODELS = builtin_models()


def _report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_functional_equation():
    worst_overall = 0.0
    for name, m in MODELS.items():
        xs = np.linspace(0.0, 3.0 / m.lam, 20)
        X, Y = np.meshgrid(xs, xs)
        for t in np.linspace(0.0, 2.0 / m.lam, 10):
            res = generalized_weak_residual(m, float(t), X, Y)
            worst_overall = max(worst_overall, float(np.max(np.abs(res))))
    _report(
        1,
        "functional-equation residual over 10 models",
        worst_overall <= 1e-10,
        f"max residual {worst_overall:.2e}",
    )


def test_criterion_02_benchmark_premium_table(capsys):
    code = run(["paper", "table1"])
    out = capsys.readouterr().out
    rows = reference_comparison({"left": MODELS["fig1_left"], "right": MODELS["fig1_right"]})
    worst = max(r["rel_err"] for r in rows)
    ok = code == 0 and all(r["ok"] for r in rows) and "FAIL" not in out
    with capsys.disabled():
        _report(
            2,
            "12 benchmark premiums within 1% plus orderings",
            ok,
            f"max rel err {worst:.2e}",
        )


def test_criterion_03_life_expectancies():
    m = MODELS["fig1_left"]
    e1 = life_expectancy(m, 1, horizon=REFERENCE_HORIZON)
    e2 = life_expectancy(m, 2, horizon=REFERENCE_HORIZON)
    r1 = abs(e1 - 39.5) / 39.5
    r2 = abs(e2 - 43.4) / 43.4
    _report(
        3,
        "life expectancies (39.5, 43.4) within 1%",
        r1 <= 0.01 and r2 <= 0.01,
        f"computed ({e1:.3f}, {e2:.3f})",
    )


def test_criterion_04_kendall_dual_pipeline():
    names = (
        "mixing_gamma",
        "mixing_stable",
        "mixing_sibuya",
        "mixing_logseries",
        "mo15",
        "fig1_left",
        "fig1_right",
    )
    s_grid = np.linspace(0.05, 0.95, 19)
    worst = 0.0
    for name in names:
        m = MODELS[name]
        for t in (0.0, 5.0, 10.0):
            closed = kendall_function(m, t, s_grid, source="closed_form").k_values()
            quad = kendall_function(m, t, s_grid, source="quadrature").k_values()
            worst = max(worst, float(np.max(np.abs(closed - quad))))
    _report(4, "Kendall closed form vs quadrature", worst <= 1e-6, f"max diff {worst:.2e}")


def _random_admissible_mo15(count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lam = rng.uniform(0.5, 2.0)
        xi = rng.uniform(1.05, 3.0)
        lam1, lam2 = rng.uniform(0.2, 1.0, 2) * lam
        xi1, xi2 = rng.uniform(0.05, 0.95, 2) * xi
        try:
            q = Mo15Params(lam=lam, lam1=lam1, lam2=lam2, xi=xi, xi1=xi1, xi2=xi2)
            mo15_bridge(q)
        except Exception:
            continue
        out.append(q)
    return out


def _zero_mass_mo15(count: int, seed: int):
    """Admissible sets on the boundary lam1 xi1 + lam2 xi2 = lam xi, where P(X = Y) = 0."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lam = rng.uniform(0.5, 2.0)
        xi = rng.uniform(1.05, 3.0)
        lam1, lam2 = rng.uniform(0.2, 1.0, 2) * lam
        xi1 = rng.uniform(0.05, 0.95) * xi
        xi2 = (lam * xi - lam1 * xi1) / lam2
        try:
            q = Mo15Params(lam=lam, lam1=lam1, lam2=lam2, xi=xi, xi1=xi1, xi2=xi2)
            mo15_bridge(q)
        except Exception:
            continue
        out.append(q)
    return out


def test_criterion_05_gompertz_lower_bound():
    # The published claim K_t(x) >= x - x ln x holds on the zero-singular-mass
    # boundary and fails whenever the simultaneous-failure mass is positive
    # (notes/decisions.md has the proof).  (a) checks the bound where it
    # holds; (b) checks that the counterexample is still there.
    xs = np.linspace(0.05, 0.95, 19)
    indep = xs - xs * np.log(xs)

    def worst_gap(m):
        return min(
            float(np.min(kendall_function(m, t, xs, source="closed_form").k_values() - indep))
            for t in (0.0, 1.0, 5.0, 10.0)
        )

    zero_gaps = [worst_gap(mo15_bridge(q)) for q in _zero_mass_mo15(100, seed=1234)]
    held = sum(gap >= -1e-9 for gap in zero_gaps)

    positive = [mo15_bridge(q) for q in _random_admissible_mo15(100, seed=1234)]
    masses = [singular_mass(m.core) for m in positive]
    pos_gaps = [worst_gap(m) for m in positive]
    broken = sum(mass > 0.0 and gap < -1e-9 for mass, gap in zip(masses, pos_gaps))

    _report(
        5,
        "bivariate Gompertz bound K_t(x) >= x - x ln x",
        held == 100 and broken == 100,
        f"holds on {held}/100 zero-mass sets (worst gap {min(zero_gaps):.3e}); "
        f"broken on {broken}/100 positive-mass sets (mass {min(masses):.2g}..{max(masses):.2g}, "
        f"worst gap {min(pos_gaps):.3e}), as notes/decisions.md proves",
    )


def test_criterion_06_tail_coefficients():
    checks = []

    # identity-generator MU model: closed forms vs numeric limits
    m = MODELS["identity_mu"]
    lo, up = tail_lower(m, 0.0), tail_upper(m, 0.0)
    checks.append(abs(lo.value - (0.8 / 1.1)) < 1e-12)
    checks.append(abs(up.value - 0.625) < 1e-12)
    nlo, nup = tail_numeric(m, 0.0, "lower"), tail_numeric(m, 0.0, "upper")
    checks.append(nlo.converged and abs(nlo.value - lo.value) < 5e-3)
    checks.append(nup.converged and abs(nup.value - up.value) < 5e-3)

    # Sibuya and log-series mixing: both coefficients t-invariant for t > 0
    for name in ("mixing_sibuya", "mixing_logseries"):
        mm = MODELS[name]
        for which, lemma in (("lower", tail_lower), ("upper", tail_upper)):
            v5 = lemma(mm, 5.0).value
            v10 = lemma(mm, 10.0).value
            checks.append(abs(v5 - v10) < 1e-12)
            n5 = tail_numeric(mm, 5.0, which)
            checks.append(abs(n5.value - v5) < 5e-3)

    # bivariate Gompertz model: no lower-tail dependence
    mo = MODELS["mo15"]
    checks.append(tail_lower(mo, 0.0).value == 0.0)
    nmo = tail_numeric(mo, 0.0, "lower")
    checks.append(abs(nmo.value) < 5e-3)

    # Sibuya upper-tail discontinuity at t=0: lambda_U(C_0) = 2 - (2 - base)^a
    ms = MODELS["mixing_sibuya"]
    base = tail_upper(ms, 1.0).value
    at0 = tail_upper(ms, 0.0).value
    expect0 = 2.0 - (2.0 - base) ** 0.5
    checks.append(abs(at0 - expect0) < 1e-12)
    n0 = tail_numeric(ms, 0.0, "upper")
    checks.append(abs(n0.value - expect0) < 5e-3)

    _report(6, "tail dependence lemmas vs numeric limits", all(checks), f"{sum(checks)}/{len(checks)} checks")


SAMPLER_MODELS = ("identity_mu", "mixing_gamma", "mixing_sibuya", "mo15", "fig1_left")
N_SAMPLES = 200_000
Z_BOUND = 3.54  # two-sided normal quantile at 0.01/25 per model (Bonferroni)


@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")  # fig1_left's rounded core clamps its mass
def test_criterion_07_sampler_oracle():
    mults = (0.2, 0.6, 1.0, 1.5, 2.2)
    worst_z = 0.0
    atoms_on_mu_core = []
    ok = True
    for name in SAMPLER_MODELS:
        m = MODELS[name]
        batch = sample_model(m, N_SAMPLES, seed=20_26)
        for mx in mults:
            for my in mults:
                x, y = mx / m.lam, my / m.lam
                p = fbar(m, x, y)
                se = math.sqrt(max(p * (1 - p), 1e-12) / N_SAMPLES)
                z = abs(empirical_survival(batch, x, y) - p) / se
                worst_z = max(worst_z, z)
        p0 = singular_mass(m.core)
        se0 = math.sqrt(max(p0 * (1 - p0), 1e-12) / N_SAMPLES)
        a_hat = empirical_atom(batch)
        if p0 > 0:
            ok &= abs(a_hat - p0) < 4 * se0
        else:
            ok &= a_hat == 0.0
        if name in ("identity_mu", "mixing_gamma", "mixing_sibuya"):
            atoms_on_mu_core.append(a_hat)
    ok &= worst_z <= Z_BOUND
    # atom mass depends only on the core, not the generator
    spread = max(atoms_on_mu_core) - min(atoms_on_mu_core)
    ok &= spread < 8 * math.sqrt(0.25 / N_SAMPLES)

    # mixing shortcut vs direct sampler at grid points
    law = MixingLaw("gamma", {"a": 2.0})
    m = MODELS["mixing_gamma"]
    direct = sample_model(m, N_SAMPLES, seed=31_415)
    shortcut = sample_mixing_shortcut(law, m.core, 0.1, N_SAMPLES, seed=27_182)
    for mult in (0.2, 1.0, 2.2):
        x = mult / m.lam
        p = fbar(m, x, x)
        se = math.sqrt(2.0 * p * (1 - p) / N_SAMPLES)
        d = abs(empirical_survival(direct, x, x) - empirical_survival(shortcut, x, x))
        ok &= d < Z_BOUND * se

    _report(
        7,
        "sampler vs analytic survival (5 models, n=2e5)",
        ok,
        f"worst |z| {worst_z:.2f} (bound {Z_BOUND}), atom spread {spread:.4f}",
    )


AGING_CATALOG = [
    (("weibull", {"a": 1.0, "alpha": 2.0}), ("NBU", "IFR")),
    (("weibull", {"a": 1.0, "alpha": 0.5}), ("NWU", "DFR")),
    (("gompertz", {"xi": 2.0, "mu": 1.0}), ("NBU", "IFR")),
    (("pareto", {"a": 1.0, "mu": 1.0}), ("NWU", "DFR")),
    (("logistic", {"a": 1.0, "theta": 0.5}), ("NBU", "IFR")),
    (("logistic", {"a": 1.0, "theta": 2.0}), ("NWU", "DFR")),
    (("log_series", {"a": 1.0, "theta": 10.0}), ("NBU", "IFR")),
    (("log_series", {"a": 1.0, "theta": -0.5}), ("NWU", "DFR")),
    (("arctan", {"a": 2.0}), ("NBU", "IFR")),
    (("identity", {}), ("memoryless", "memoryless")),
]


def test_criterion_08_aging_catalog():
    mismatches = []
    for (family, params), expect in AGING_CATALOG:
        prof = aging_profile(make_generator(family, **params))
        got = (prof.nbu_nwu, prof.ifr_dfr)
        if got != expect:
            mismatches.append((family, params, got, expect))
    sub = make_generator("polynomial", coeffs=[0.0, 1.5, 0.0, -0.5])
    sup = make_generator("polynomial", coeffs=[0.0, 0.25, 0.5, 0.25])
    sine = make_generator("sine", theta=1.0)
    for g, expect in ((sub, "sub"), (sup, "super"), (sine, "sub")):
        got = multiplicativity_check(g)["empirical"]
        if got != expect:
            mismatches.append((g.family, got, expect))
    _report(
        8,
        "aging classifications and multiplicativity verdicts",
        not mismatches,
        f"{len(AGING_CATALOG) + 3 - len(mismatches)}/{len(AGING_CATALOG) + 3} match"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_09_copula_axioms():
    rng = np.random.default_rng(99)
    worst_margin = 0.0
    worst_rect = 0.0
    # weibull_mu is excluded: it solves the functional equation but is not
    # 2-increasing, hence has no copula (see notes/decisions.md)
    names = [n for n in MODELS if n != "weibull_mu"]
    grid = np.linspace(0.0, 1.0, 21)
    for name in names:
        m = MODELS[name]
        for t in (0.0, 1.0, 10.0):
            worst_margin = max(
                worst_margin,
                float(np.max(np.abs(copula_t(m, t, grid, 1.0) - grid))),
                float(np.max(np.abs(copula_t(m, t, 1.0, grid) - grid))),
                float(np.max(np.abs(copula_t(m, t, grid, 0.0)))),
            )
            lo = rng.uniform(0.0, 1.0, (1000, 2))
            hi = lo + rng.uniform(0.0, 1.0, (1000, 2)) * (1.0 - lo)
            mass = (
                copula_t(m, t, hi[:, 0], hi[:, 1])
                - copula_t(m, t, lo[:, 0], hi[:, 1])
                - copula_t(m, t, hi[:, 0], lo[:, 1])
                + copula_t(m, t, lo[:, 0], lo[:, 1])
            )
            worst_rect = min(worst_rect, float(np.min(mass)))
    ok = worst_margin <= 1e-9 and worst_rect >= -1e-9
    _report(
        9,
        "copula margins and rectangle inequality",
        ok,
        f"worst margin err {worst_margin:.2e}, worst rectangle mass {worst_rect:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    m = MODELS["mixing_sibuya"]

    def emit(path):
        sample_model(m, 5000, seed=4242).to_csv(path)
        return path.read_bytes()

    main_bytes = emit(tmp_path / "main.csv")
    repeat_bytes = emit(tmp_path / "repeat.csv")
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as ex:
        futures = [
            ex.submit(emit, tmp_path / f"thread_{i}.csv") for i in range(4)
        ]
        thread_bytes = [f.result() for f in futures]
    ok = main_bytes == repeat_bytes and all(b == main_bytes for b in thread_bytes)
    _report(10, "byte-identical samples across runs and threads", ok, f"{len(main_bytes)} bytes")

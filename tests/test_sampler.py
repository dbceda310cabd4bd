import math

import numpy as np
import pytest

from bivlmp.core import marginal_survival, mu_core, singular_mass
from bivlmp.errors import ValidationError
from bivlmp.generators import MixingLaw, generator_from_survival
from bivlmp.model import Model, fbar
from bivlmp.sampler import (
    SampleBatch,
    _age_constants,
    _q_t_batch,
    empirical_atom,
    empirical_atom_survival,
    empirical_survival,
    mixing_model,
    sample_core,
    sample_mixing_factor,
    sample_mixing_shortcut,
    sample_model,
)
from oracles import mixing_mgf

MU = mu_core(alpha=1.0, gamma=0.1, alpha1=0.3, alpha2=0.2)


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
    # survival e^-z gives h(x) = x, so draws match the identity model's up to the root finder
    m = models["identity_mu"]
    g = generator_from_survival(lambda z: math.exp(-z), density=lambda z: math.exp(-z))
    got = sample_model(Model(generator=g, core=m.core, label="numeric identity"), n, seed=3)
    want = sample_model(m, n, seed=3)
    assert np.array_equal(got.atom, want.atom)
    assert np.allclose(got.x, want.x, rtol=1e-9, atol=1e-12)
    assert np.allclose(got.y, want.y, rtol=1e-9, atol=1e-12)


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
        got = _q_t_batch(m, i, d, tau, *_age_constants(m.generator, tau))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), i


def test_invalid_composition_rejected(models):
    # Weibull distortion with shape 2 on this core satisfies the functional
    # equation but is not 2-increasing; the sampler must refuse it.
    with pytest.raises(ValidationError):
        sample_model(models["weibull_mu"], 100, seed=1)


def test_mixing_shortcut_agrees_with_direct():
    law = MixingLaw("gamma", {"a": 2.0})
    ratio = 0.1
    m = mixing_model(law, MU, ratio)
    n = 60_000
    direct = sample_model(m, n, seed=57)
    shortcut = sample_mixing_shortcut(law, MU, ratio, n, seed=58)
    for mult in (0.5, 1.5):
        x = mult / MU.lam
        p = fbar(m, x, x)
        se = math.sqrt(2.0 * p * (1 - p) / n)
        d = empirical_survival(direct, x, x) - empirical_survival(shortcut, x, x)
        assert abs(d) < 4.5 * se, mult


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


def test_sibuya_factor_support():
    rng = np.random.default_rng(73)
    z = sample_mixing_factor(MixingLaw("sibuya", {"a": 0.5}), rng, 20_000)
    assert np.all(z == np.round(z)) and np.min(z) == 1.0
    # P(Z = 1) = a for a Sibuya law
    assert abs(np.mean(z == 1.0) - 0.5) < 0.02


def test_batch_metadata(models):
    batch = sample_model(models["mo15"], 100, seed=3)
    assert batch.n == 100
    assert batch.seed == 3
    assert batch.model_label == "mo15"

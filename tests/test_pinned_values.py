"""Published mixing_gamma values, pinned bit for bit as float.hex.

A change meant to leave every value as it was (a faster kernel, a reordered
check) must keep these bits; a change meant to move a value changes this file
with it.  The values cover every integral route: the quadrature tau_t, K_t by
the closed and the quadrature route, the four annuities, the mean residual
lives, the life expectancies and a premium row.  The samplers' draws are
pinned as sha256 digests of the bytes of x, y and atom, at one fixed seed,
and the CSV that `bivlmp sample` writes as the sha256 of the file.
"""

import hashlib
from pathlib import Path

import pytest

from bivlmp import dependence, model, pricing
from bivlmp.cli import run
from bivlmp.config import builtin_models
from bivlmp.core import CoreParams
from bivlmp.generators import MixingLaw
from bivlmp.sampler import sample_core, sample_mixing_shortcut, sample_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = builtin_models()
M = MODELS["mixing_gamma"]
T = 2.0 / M.lam  # lambda t = 2

PINNED = {
    "kendall_tau": (lambda: dependence.kendall_tau(M, T), "0x1.cf076da7dff1cp-1"),
    "K_t(0.05) closed": (lambda: dependence.kendall_function(M, T, [0.05]).k_values()[0], "0x1.a13b818a110c4p-5"),
    "K_t(0.15) closed": (lambda: dependence.kendall_function(M, T, [0.15]).k_values()[0], "0x1.3d1d65fa5a1bfp-3"),
    "K_t(0.15) quadrature": (lambda: dependence.kendall_function(M, T, [0.15], source="quadrature").k_values()[0],
                             "0x1.3d1d65fa5a1c1p-3"),
    "joint_annuity": (lambda: pricing.joint_annuity(M, T), "0x1.4d55555555555p+6"),
    "independent_annuity": (lambda: pricing.independent_annuity(M, T), "0x1.4b376b2901019p+4"),
    "residual_joint_annuity": (lambda: pricing.residual_joint_annuity(M, T), "0x1.dffffffffffffp+6"),
    "residual_independent_annuity": (lambda: pricing.residual_independent_annuity(M, T), "0x1.51f72e87d32d8p+5"),
    "mean_excess 1": (lambda: model.mean_excess(M, 1, T), "0x1.ec7dba8bc045fp+6"),
    "mean_excess 2": (lambda: model.mean_excess(M, 2, T), "0x1.e7c7c4a23e7e8p+6"),
    "life_expectancy 1": (lambda: pricing.life_expectancy(M, 1), "0x1.9c3502073f886p+6"),
    "life_expectancy 2": (lambda: pricing.life_expectancy(M, 2), "0x1.97990978c6a9dp+6"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_published_value_keeps_its_bits(name):
    call, bits = PINNED[name]
    assert float(call()).hex() == bits


def test_premium_row_keeps_its_bits():
    row = pricing.premium_table(M, [0.5 / M.lam])[0]  # lambda t = 0.5
    assert [v.hex() for v in (row.t, row.premium_joint, row.premium_independent)] == [
        "0x1.4000000000000p+2", "0x1.7cf3cf3cf3cf3p+6", "0x1.eda4bcca1c36cp+4"]


SEED = 41

# sample_mixing_shortcut on each mixing config, its law and ratio read from the config, n = 5e4
SHORTCUT_DIGESTS = {
    "mixing_gamma": "7dc9c77e2243a24e6c23f94e4cacf82ba09872e74174f34e27b76042a154e2f2",
    "mixing_stable": "b4890a1fdc8296af8d026ea32f6de3dcb1e6672a6795f3420006d57a60935435",
    "mixing_sibuya": "9688c5a6acd48688aed24373e162274e982b77368801a9fe1172eaf7aad3eae0",
    "mixing_logseries": "b10e7dbd782cebf6991fb9d71df8b15a0b66de372f37e9b8977253bec59c6130",
}

# sample_model at n = 1e4, whose gaps the root finder solves on both models
MODEL_DIGESTS = {
    "mixing_gamma": "01f21f559eac282d3d9af5ecfea871581dad487f8abfeafd19a901a198495cf2",
    "fig1_left": "3fe5476e0411d9efc0f6bb0943051712ea2ce5bc3aeed63d3d3f560360e17961",
}


def _digest(b):
    return hashlib.sha256(b.x.tobytes() + b.y.tobytes() + b.atom.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SHORTCUT_DIGESTS))
def test_shortcut_draws_keep_their_bits(name):
    m = MODELS[name]
    cfg = m.generator.config
    law = MixingLaw(cfg["law"]["kind"], cfg["law"]["params"])
    assert _digest(sample_mixing_shortcut(law, m.core, cfg["ratio"], 50_000, SEED)) == SHORTCUT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")  # fig1_left's rounded core clamps its mass to 0
def test_model_draws_keep_their_bits(name):
    assert _digest(sample_model(MODELS[name], 10_000, SEED)) == MODEL_DIGESTS[name]


@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")
def test_model_draws_over_several_gap_blocks_keep_their_bits():
    # fig1_left's core clamps its singular mass to 0, so all 40,000 gaps go through the root finder: three blocks
    digest = "f721ea9cb62c5388a0d348d2257063bca2f9e55a89cc87bdd7e4513b9121dda7"
    assert _digest(sample_model(MODELS["fig1_left"], 40_000, SEED)) == digest


def test_core_draws_of_a_closed_and_a_solved_side_keep_their_bits():
    # gamma1 = alpha lambda inverts side 1 in closed form; side 2's gaps go through the root finder
    p = CoreParams(lam=1.0, alpha=1.0, gamma1=1.0, gamma2=0.8, alpha1=0.3, alpha2=0.2)
    digest = "cf492eb9f88b0bea143389deffe2e06588a41401c6eeb72f9d3bc27ee5d496a0"
    assert _digest(sample_core(p, 20_000, 3)) == digest


# `bivlmp sample -n 100000 --seed 4242` to CSV: sha256 of the published file's bytes
CSV_DIGESTS = {
    "fig1_left": "26b6c488fae5b33772bade1a46400990c276bcf019a0b2af03b31db211f9002a",
    "mixing_gamma": "d045d1f6c771d65adba27e7c450bd4beecc9951d06717c78e10c17601232825c",
}


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")
def test_sample_csv_keeps_its_bytes(name, tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert run(["sample", "-c", str(ROOT / "configs" / f"{name}.json"), "-n", "100000", "--seed", "4242",
                "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_DIGESTS[name]

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bivlmp import numerics, sampler
from bivlmp.cli import run
from bivlmp.config import BUILTIN_CONFIGS, load_model, parse_config
from bivlmp.dependence import tail_numeric
from bivlmp.model import fbar
from bivlmp.config import builtin_model
from bivlmp.sampler import CSV_BLOCK, sample_model

CFG = "configs/identity_mu.json"
ROOT = Path(__file__).resolve().parent.parent


def test_validate_ok(capsys):
    assert run(["validate", "-c", CFG]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "margin" in out


def test_validate_echo_round_trips(capsys):
    assert run(["validate", "-c", CFG, "--echo"]) == 0
    out = capsys.readouterr().out
    m = parse_config(json.loads(out[out.index("{"):]))
    ref = builtin_model("identity_mu")
    z = np.linspace(0.0, 40.0, 21)
    assert np.array_equal(fbar(m, z[:, None], z[None, :]), fbar(ref, z[:, None], z[None, :]))
    u = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(m.generator.h(u), ref.generator.h(u))
    assert m.core == ref.core and m.label == ref.label


def test_validate_bad_config_names_inequality(tmp_path, capsys):
    doc = json.loads(json.dumps(BUILTIN_CONFIGS["identity_mu"]))
    doc["core"]["lambda"] = 0.01  # below max(gamma1, gamma2)/alpha
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run(["validate", "-c", str(path)])
    err = capsys.readouterr()
    # parse_config refuses the core outright; the message names the bound
    assert code == 1
    assert "lower bound" in err.err + err.out


def test_missing_file_is_error(capsys):
    assert run(["validate", "-c", "no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_directory_as_config_is_error(capsys):
    assert run(["validate", "-c", "configs"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    lambda bad: ["tau", "-c", CFG, "--t", "0,abc"],
    lambda bad: ["validate", "-c", bad],
    lambda bad: ["tau", "-c", CFG, "--t", ","],
    lambda bad: ["eval", "-c", "configs/mixing_gamma.json", "--x", "1", "--y", "1", "--t", "inf"],
], ids=["tau_bad_time_list", "validate_not_json", "tau_empty_time_list", "eval_infinite_age"])
def test_refusal_is_one_error_line(argv, tmp_path, capsys):
    bad = tmp_path / "not.json"
    bad.write_text("not json {")
    assert run(argv(str(bad))) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1


def test_usage_error_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "-c", CFG, "--grid", "0"],
    ["check", "-c", CFG, "--grid", "-3"],
    ["kendall", "-c", CFG, "--t", "0", "--points", "-1"],
], ids=["check_grid_0", "check_grid_negative", "kendall_points_negative"])
def test_size_below_one_is_usage_error(argv, capsys):
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be an integer >= 1" in out.err and "Traceback" not in out.err


def test_eval_matches_library(capsys):
    assert run(["eval", "-c", CFG, "--x", "7", "--y", "3"]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(fbar(builtin_model("identity_mu"), 7.0, 3.0), rel=1e-15)


def test_eval_residual(capsys):
    assert run(["eval", "-c", CFG, "--x", "7", "--y", "3", "--t", "5"]) == 0
    out = float(capsys.readouterr().out.strip())
    m = builtin_model("identity_mu")
    assert out == pytest.approx(fbar(m, 12.0, 8.0) / fbar(m, 5.0, 5.0), rel=1e-12)


def test_check_reports_tiny_residual(capsys):
    assert run(["check", "-c", "configs/mo15.json", "--grid", "8"]) == 0
    out = capsys.readouterr().out
    assert "max |residual|" in out
    assert float(out.split("=")[1]) <= 1e-10


def test_kendall_csv_output(tmp_path, capsys):
    out_file = tmp_path / "k.csv"
    assert run(["kendall", "-c", CFG, "--t", "0,10", "--points", "5", "-o", str(out_file)]) == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,s,K"
    assert len(lines) == 1 + 2 * 5
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # 17-significant-digit round trip: formatting then parsing is the identity
    from bivlmp.dependence import kendall_function

    m = builtin_model("identity_mu")
    expect = kendall_function(m, 0.0, np.linspace(0.02, 0.98, 5)).k_values()
    assert np.array_equal(data[:5, 2], expect)


def test_tau_output(capsys):
    assert run(["tau", "-c", CFG, "--t", "0"]) == 0
    out = capsys.readouterr().out
    assert "tau=" in out
    assert float(out.strip().split("tau=")[1]) == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_taildep_json(capsys):
    assert run(["taildep", "-c", CFG, "--t", "0,5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["lambda_L"] == pytest.approx(0.8 / 1.1, abs=1e-12)
    assert rows[0]["lambda_U"] == pytest.approx(0.625, abs=1e-12)


def test_taildep_numeric_prints_tail_numeric(capsys):
    cfg = "configs/mixing_sibuya.json"
    assert run(["taildep", "-c", cfg, "--t", "0,5", "--numeric"]) == 0
    rows = json.loads(capsys.readouterr().out)
    m = load_model(cfg)
    assert [row["t"] for row in rows] == [0.0, 5.0]
    for row in rows:
        lo, up = tail_numeric(m, row["t"], "lower"), tail_numeric(m, row["t"], "upper")
        assert (row["lambda_L"], row["lambda_U"]) == (lo.value, up.value)
        assert row["lambda_L_method"] == row["lambda_U_method"] == "numeric"
        assert (row["lambda_L_converged"], row["lambda_U_converged"]) == (lo.converged, up.converged)


def test_aging_output(capsys):
    assert run(["aging", "-c", "configs/mo15.json"]) == 0
    out = capsys.readouterr().out
    assert "NBU / IFR" in out


def test_sample_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sample", "-c", CFG, "-n", "500", "--seed", "7", "-o", str(a)]) == 0
    assert run(["sample", "-c", CFG, "-n", "500", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_price_table(capsys):
    assert run(["price", "-c", CFG, "--t", "0,10"]) == 0
    out = capsys.readouterr().out
    assert "joint" in out and "independent" in out
    # identity model: joint premium at t=0 equals 1/lambda = 10
    row0 = out.strip().split("\n")[1].split()
    assert float(row0[1]) == pytest.approx(10.0, abs=1e-3)


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports bivlmp from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_queries_never_load_scipy(tmp_path):
    # nothing in the package imports scipy, sampling with its root finder included
    sample = ["sample", "-c", "configs/fig1_left.json", "-n", "200", "--seed", "5", "-o", str(tmp_path / "s.csv")]
    out = _fresh(f"""
import sys
import bivlmp
from bivlmp import cli
for argv in (["validate", "-c", "configs/fig1_right.json"],
             ["eval", "-c", "configs/mixing_gamma.json", "--x", "3", "--y", "5"],
             ["eval", "-c", "configs/mo15.json", "--x", "0.3", "--y", "0.5", "--t", "1.2"],
             ["tau", "-c", "configs/mixing_stable.json", "--t", "0,1.3"],
             ["kendall", "-c", "configs/mo15.json", "--t", "0,1.3", "--points", "9"],
             ["price", "-c", "configs/fig1_left.json", "--t", "0,10,20"],
             ["paper", "table1"],
             {sample!r}):
    assert cli.run(argv) == 0, argv
print("scipy loaded:", "scipy" in sys.modules)
""")
    assert out.endswith("scipy loaded: False\n")


@pytest.mark.filterwarnings("ignore:singular mass:RuntimeWarning")  # fig1_left's rounded core clamps its mass
def test_sample_loads_the_root_finder(tmp_path, monkeypatch):
    # fig1_left's gaps have no closed-form inverse, so sample inverts them with the numpy root finder
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return numerics.solve_decreasing_batch(*args, **kwargs)

    monkeypatch.setattr(sampler, "solve_decreasing_batch", counted)
    argv = ["sample", "-c", "configs/fig1_left.json", "-n", "200", "--seed", "5", "-o", str(tmp_path / "s.csv")]
    assert run(argv) == 0
    assert sum(calls) > 0


def test_sample_prints_the_mass_clamp_as_its_message(tmp_path):
    # fig1_left's rounded core clamps its singular mass to 0: stderr holds the message, not a path or a source line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    path = tmp_path / "s.csv"
    argv = ["sample", "-c", "configs/fig1_left.json", "-n", "200", "--seed", "5", "-o", str(path)]
    proc = subprocess.run([sys.executable, "-m", "bivlmp.cli", *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == f"wrote 200 samples to {path} (atom fraction 0.0)\n"
    assert proc.stderr == "warning: singular mass -2.953e-04 slightly negative (rounded parameters); clamped to 0\n"
    assert ".py" not in proc.stderr and "singular_mass(" not in proc.stderr


def test_csv_bytes_match_row_by_row_format(tmp_path, models):
    # past two block boundaries, with atom rows
    batch = sample_model(models["identity_mu"], 2 * CSV_BLOCK + 3, seed=11)
    assert batch.atom.any() and not batch.atom.all()
    path = tmp_path / "s.csv"
    batch.to_csv(path)
    rows = "".join(f"{x:.17g},{y:.17g},{int(a)}\n" for x, y, a in zip(batch.x, batch.y, batch.atom))
    assert path.read_bytes() == ("x,y,atom\n" + rows).encode()

"""The golden CLI transcript: a fixed command list run through ``cli.run``, with its streams captured.

``python tests/golden/make.py`` (from the repo root, with ``src`` on
``PYTHONPATH``) rewrites ``tests/golden/cli.json``: for each command its argv,
exit code, stdout and stderr, with the temporary directory it writes into
shown as ``{tmp}``.  ``tests/test_golden_cli.py`` replays the list and
compares every field exactly, so the file is written once from a trusted
tree and then changes only with an intended change of the CLI's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from bivlmp import cli

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("cli.json")
TMP = "{tmp}"
CONFIGS = ("fig1_left", "fig1_right", "identity_mu", "mixing_gamma", "mixing_logseries", "mixing_sibuya",
           "mixing_stable", "mo15", "pareto_mu", "weibull_mu")
QUERIES = (
    ["validate", "--echo"],
    ["eval", "--x", "1.5", "--y", "0.7"],
    ["eval", "--x", "1.5", "--y", "0.7", "--t", "2"],
    ["check"],
    ["kendall", "--t", "0,1,5,50"],
    ["tau", "--t", "0,1,5,50"],
    ["taildep", "--t", "0,2"],
    ["taildep", "--t", "1", "--numeric"],
    ["aging"],
    ["price", "--t", "0,5,10"],
)
# identity_mu with lambda below max(gamma1, gamma2) / alpha: the core is refused
BAD_CONFIG = {"label": "bad", "generator": {"family": "identity", "params": {}},
              "core": {"lambda": 0.01, "alpha": 1.0, "gamma1": 0.1, "gamma2": 0.1, "alpha1": 0.3, "alpha2": 0.2}}


def commands() -> list:
    """The argv of every command, in order; {tmp} stands for the temporary directory."""
    argvs = [[q[0], "-c", f"configs/{name}.json", *q[1:]] for name in CONFIGS for q in QUERIES]
    argvs.append(["paper", "table1"])
    argvs += [["validate", "-c", f"{TMP}/bad.json"],
              ["validate", "-c", f"{TMP}/no_such_file.json"],
              ["eval", "-c", "configs/identity_mu.json", "--x", "1"]]
    argvs += [["sample", "-c", f"configs/{name}.json", "-n", "3000", "--seed", "7", "-o", f"{TMP}/{name}.csv"]
              for name in ("mixing_gamma", "fig1_left", "weibull_mu")]
    return argvs


def replay() -> list:
    """Each command run through cli.run from the repo root, as {argv, code, stdout, stderr}, {tmp} masked.

    Each runs under the warning filters of a fresh interpreter, so a warning
    prints once per command as the CLI prints it, whatever filters the caller holds.
    """
    out, here = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "bad.json").write_text(json.dumps(BAD_CONFIG))
        os.chdir(ROOT)
        try:
            for argv in commands():
                stdout, stderr = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    warnings.resetwarnings()
                    warnings.simplefilter("default")
                    code = cli.run([a.replace(TMP, tmp) for a in argv])
                out.append({"argv": argv, "code": code, "stdout": stdout.getvalue().replace(tmp, TMP),
                            "stderr": stderr.getvalue().replace(tmp, TMP)})
        finally:
            os.chdir(here)
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(replay(), indent=1) + "\n")
    print(f"wrote {len(commands())} commands to {GOLDEN}", file=sys.stderr)

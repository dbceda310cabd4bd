"""The benchmark's workloads: inputs made from the seed, rounds of operations, checks.

Every workload runs the same nine operation groups in each round, so every
workload reports every end-to-end metric.  The workloads differ in how large
each group is: a workload's focus groups fill most of its round, and the
other groups run as a small probe, the command-line ones twice per round.

A round is the same list of operations on the same inputs every time.  The
operations of each group are spread evenly over the round, so that no group
is timed in one short block: each core of the reference machine (README.md)
switches between a fast state and one about 1.6x slower.  The
first round's outputs are checked; later rounds must reproduce them exactly.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import ref
import tracing

CONFIGS = ("identity_mu", "mixing_gamma", "mixing_stable", "mixing_sibuya", "mixing_logseries",
           "mo15", "fig1_left", "fig1_right", "pareto_mu", "weibull_mu")
# weibull_mu solves the functional equation but is not 2-increasing, so it is
# not a distribution: only the functional-equation residual runs on it.
DISTRIBUTIONS = tuple(n for n in CONFIGS if n != "weibull_mu")
MIXING = ("mixing_gamma", "mixing_stable", "mixing_sibuya", "mixing_logseries")
SIMULATED = ("identity_mu", "mixing_gamma", "mo15", "fig1_left", "pareto_mu")
S_GRID = tuple(float(s) for s in np.linspace(0.02, 0.98, 49))
SURVIVAL_MULTS = (0.2, 0.6, 1.0, 1.5, 2.2)  # survival check points, in units of 1/lambda
SUBSAMPLE = 1500  # rows of the brute-force concordance check
GROUPS = ("config", "sample", "shortcut", "empirical_kendall", "kendall", "tail", "surface", "pricing",
          "cli_query", "cli_sample")
CLI_QUERIES = ("validate", "eval", "eval_residual", "tau", "kendall", "price", "paper")
# Operations whose output check fails on every run because of a fault in the
# program (see CHANGES.md), each with the largest relative error still taken
# for that fault: within it the operation is counted as failed instead of
# making the run incorrect; beyond it the run is incorrect.  integrate_upper
# returns the gamma-mixing independence premium at lambda t = 2 3.0e-5 off
# while reporting an error estimate of 2.5e-6.
KNOWN_FAULTS = {"pricing:independent_annuity:mixing_gamma:2": 1e-4}
# copula_t returns 0, or values above min(u, v), wherever u or v is below a
# threshold where h^-1 underflows (see CHANGES.md): about 4e-3 for pareto_mu
# and 4e-4 for the gamma and stable mixings, at the ages run here.  On
# fig1_left, whose core (the paper's rounded parameters) is not 2-increasing
# near (1, 1), it leaves the Frechet lower bound for u, v above 1 - 3.2e-4.
# A seeded grid point lands there on some seeds only, so these grids keep
# their points within a range (low, high).
COPULA_RANGE = {"pareto_mu": (0.01, 1.0), "mixing_gamma": (1e-3, 1.0), "mixing_stable": (1e-3, 1.0),
                "fig1_left": (0.0, 0.999)}
# Each core of the reference machine (README.md) switches on its own between a
# fast state and one about 1.6x slower, for stretches of a fraction of a second
# to seconds, and the share of time spent slow changes over minutes.  A fixed
# calibration kernel that does not call the program runs between the operations,
# at most CALIBRATION_GAP_S apart, on the core that runs them; each timing is
# divided by the median of the CALIBRATION_NEIGHBOURS kernel timings nearest to
# it in time and multiplied by CALIBRATION_S, the kernel's time in the fast
# state: a time is reported as the seconds it takes in the fast state.
CALIBRATION_S = 0.010
CALIBRATION_GAP_S = 0.2
CALIBRATION_NEIGHBOURS = 6


@dataclass(frozen=True)
class Mix:
    sample_models: tuple
    sample_n: int
    shortcut_n: int
    kendall_n: int  # size of the empirical Kendall sample
    models: tuple  # analyzed models
    kendall_ages: tuple  # lambda * t for K_t and tau
    ages: tuple  # lambda * t for tails and surfaces
    price_ages: tuple  # lambda * t for the annuities
    grid: int  # side of the surface grids
    residual_models: tuple  # functional-equation residual
    cli_queries: tuple
    cli_sample_n: int
    repeats: dict = field(default_factory=dict)  # group -> times its operations run per round
    # the process whose peak resident set is peak_rss_mb: the one doing the focus work
    peak_process: str = "benchmark"


_PROBE = dict(sample_models=("mixing_gamma",), sample_n=2_000, shortcut_n=2_000, kendall_n=2_000,
              models=("identity_mu",), kendall_ages=(0.0, 1.0), ages=(0.0, 1.0), price_ages=(1.0,),
              grid=8, residual_models=("identity_mu",), cli_queries=("validate",), cli_sample_n=2_000)
_ANALYSIS = ("kendall", "tail", "surface", "pricing")
_SIMULATION = ("sample", "shortcut", "empirical_kendall")
# a command-line run lasts about a second, long enough for a core to change state
# in the middle of it, so the calibration corrects it less well than the short
# in-process calls: the command-line probes run twice per round
_CLI_PROBE = {"cli_query": 2, "cli_sample": 2}

MIXES = {
    # the focus calls repeat too, so that each has several timings per run
    "simulate": Mix(**{**_PROBE, "sample_models": SIMULATED, "sample_n": 10_000, "shortcut_n": 50_000,
                       "kendall_n": 30_000, "repeats": {"sample": 6, "shortcut": 6, "empirical_kendall": 4,
                                                        **dict.fromkeys(_ANALYSIS, 3), **_CLI_PROBE}}),
    "analyze": Mix(**{**_PROBE, "models": DISTRIBUTIONS, "kendall_ages": (0.0, 2.0), "ages": (0.0, 0.5, 2.0),
                      "price_ages": (2.0,), "grid": 40, "residual_models": CONFIGS,
                      "repeats": {**dict.fromkeys(_SIMULATION, 10), **_CLI_PROBE}}),
    "cli": Mix(**{**_PROBE, "cli_queries": CLI_QUERIES, "cli_sample_n": 100_000, "peak_process": "cli",
                  "repeats": {**dict.fromkeys(_SIMULATION, 10), **dict.fromkeys(_ANALYSIS, 5), "cli_sample": 2}}),
}


class Inputs:
    """Everything the workload feeds the program, drawn from the seed in a fixed order."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.sample_seed = {n: int(rng.integers(1, 2**31)) for n in CONFIGS}
        self.shortcut_seed = {n: int(rng.integers(1, 2**31)) for n in MIXING}
        self.kendall_seed = int(rng.integers(1, 2**31))
        self.cli_seed = int(rng.integers(1, 2**31))
        self.xs = rng.uniform(0.0, 3.0, 64)  # surface abscissae, in units of 1/lambda
        self.us = rng.uniform(0.0, 1.0, 64)  # copula grid
        self.eval_xy = rng.uniform(0.0, 3.0, 2)
        self.eval_residual = rng.uniform(0.0, 2.0, 3)
        self.cli_age = float(rng.uniform(0.5, 2.0))


@dataclass
class Op:
    group: str
    key: str
    fn: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    after: object = None  # untimed, called with the output


class CliError(RuntimeError):
    pass


def _same(a, b) -> bool:
    """Exact equality of two outputs of one operation (NaN equals NaN)."""
    if hasattr(a, "describe"):
        return a.describe() == b.describe()
    if hasattr(a, "x") and hasattr(a, "atom"):
        return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("x", "y", "atom"))
    if isinstance(a, (np.ndarray, float)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def run_child(cmd, cwd, env, timeout: float = 170.0):
    """Run a command to its end; return its wall time in seconds and its CompletedProcess.

    Not subprocess.run(timeout=...): with a timeout, Popen.wait polls the child
    with sleeps of up to 50 ms, which rounds the measured time.  Here a timer
    kills a command that overruns, and the wait blocks."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
    return time.perf_counter() - t0, subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def known_fault(key: str, problems: list, error) -> bool:
    """Whether the problems found in ``key`` are its known fault: the key is in
    KNOWN_FAULTS and the relative error is within the fault's ceiling."""
    ceiling = KNOWN_FAULTS.get(key)
    return bool(problems) and ceiling is not None and error is not None and error <= ceiling


_CALIBRATION_ARRAY = np.random.default_rng(0).uniform(0.0, 4.0, 50_000)


class _Term:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def value(self, x: float) -> float:
        return self.a * math.exp(-self.b * x) + x


def calibration_kernel() -> float:
    """Fixed work, independent of the program, that mixes what the program runs,
    in three parts of about equal time: a scalar float loop in the interpreter;
    method calls on objects, dict updates, a keyed sort and a JSON round trip;
    numpy kernels on an array of 5e4 elements.  Each part alone tracks some of
    the program's operations better than others (interpreter-bound code slows
    more than numpy-bound code in the slow state); the mix tracks them all within
    a few per cent."""
    acc = 0.0
    for i in range(1, 20_000):
        z = i * 1e-3
        acc += math.log1p(math.exp(-z)) / (1.0 + z)
    terms = [_Term(0.5 + i / 600, 1.0 - i / 600) for i in range(300)]
    table = {}
    for j in range(20):
        for term in terms:
            v = term.value(j * 0.01)
            table[int(v * 1000) % 997] = v
    acc += len(json.loads(json.dumps(sorted(table.items(), key=lambda kv: kv[1]))))
    b = np.exp(-_CALIBRATION_ARRAY)
    for _ in range(6):
        b = np.sort(np.log1p(b) + b * b)
    return acc + float(np.cumsum(b)[-1])


def reference_seconds(timings, calibrations) -> list:
    """Each (mid time, seconds) timing in seconds at the reference speed: divided by
    the median of the CALIBRATION_NEIGHBOURS calibration timings nearest to it in
    time, times CALIBRATION_S.  ``calibrations`` holds (mid time, seconds) pairs."""
    mids = np.array([m for m, _ in calibrations])
    secs = np.array([s for _, s in calibrations])
    out = []
    for mid, seconds in timings:
        near = np.argsort(np.abs(mids - mid), kind="stable")[:CALIBRATION_NEIGHBOURS]
        out.append(seconds / float(np.median(secs[near])) * CALIBRATION_S)
    return out


def interleave(plans) -> list:
    """Merge the groups' operation lists so each group's operations spread evenly over the round."""
    slots = []
    for g, plan in enumerate(plans):
        slots += [((j + 0.5) / len(plan), g, j, op) for j, op in enumerate(plan)]
    return [op for *_, op in sorted(slots, key=lambda s: s[:3])]


class Runner:
    """Runs rounds of one workload and keeps its timings, counts and check results."""

    def __init__(self, workload: str, seed: int, root: Path, tracer=None):
        import bivlmp.config
        import bivlmp.dependence
        import bivlmp.generators
        import bivlmp.model
        import bivlmp.pricing
        import bivlmp.sampler

        self.bv = sys.modules["bivlmp"]
        self.mix = MIXES[workload]
        self.root = root
        self.tracer = tracer
        self.inp = Inputs(seed)
        self.out_dir = root / "bench" / "out"
        self.out_dir.mkdir(exist_ok=True)
        names = set(self.mix.sample_models) | set(MIXING) | set(self.mix.models) | set(self.mix.residual_models)
        names |= {"fig1_left", "fig1_right", "mixing_gamma", "mixing_stable", "mo15"}  # CLI inputs
        self.config_names = tuple(n for n in CONFIGS if n in names)
        self.docs = {n: json.loads(self.config_path(n).read_text()) for n in self.config_names}
        self.refs = {n: ref.RefModel(d) for n, d in self.docs.items()}
        self.models = {n: self.bv.config.load_model(self.config_path(n)) for n in self.config_names}
        self.kendall_batch = self.bv.sampler.sample_model(
            self.models[self.mix.sample_models[0]], self.mix.kendall_n, self.inp.kendall_seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []
        self.faulty = set()
        self.cli_peak_rss_mb = 0.0  # the largest of the command-line subprocesses
        self.first = None
        self.rounds = 0
        self.durations = {}  # group -> operation key -> (mid time, seconds) of each run
        self.calibrations = []  # (mid time, seconds) of each calibration kernel run
        self._last_calibration = -math.inf

    def config_path(self, name: str) -> Path:
        return self.root / "configs" / f"{name}.json"

    # -- rounds --------------------------------------------------------------
    def run_round(self) -> dict:
        """One round; returns its timings (and its per-layer values when traced)."""
        self.times = dict.fromkeys(GROUPS, 0.0)
        self.outputs = {}
        self.cli_layer = {}
        if self.tracer is not None:
            self.tracer.reset()
        plans = [self._plan_configs(), self._plan_sample(), self._plan_shortcut(),
                 self._plan_empirical_kendall(), self._plan_kendall(), self._plan_tail(),
                 self._plan_surface(), self._plan_pricing(), self._plan_cli_queries(), self._plan_cli_sample()]
        for op in interleave([p for p in plans if p]):
            self._execute(op)
        self.rounds += 1
        if self.first is None:
            self.first = self.outputs
        else:
            for key, value in self.outputs.items():
                if key in self.first and not _same(value, self.first[key]):
                    self.problems.append(f"{key}: output differs from the first round's")
        draws = {g: sum(self.outputs[k].n for k in self.outputs if k.startswith(g + ":"))
                 for g in ("sample", "shortcut")}
        record = {"times": dict(self.times), "draws": draws}
        if self.tracer is not None:
            record["layer"] = tracing.per_layer(self.tracer.snapshot(), self.cli_layer)
        return record

    def calibrate(self):
        """Run the calibration kernel once, untimed by any group."""
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.calibrations.append(((t0 + t1) / 2, t1 - t0))
        self._last_calibration = t1

    def _execute(self, op: Op):
        if time.perf_counter() - self._last_calibration >= CALIBRATION_GAP_S:
            self.calibrate()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.fn(*op.args, **op.kwargs)
        except Exception as exc:  # a failing operation is counted and the round goes on
            self._timed(op, t0, time.perf_counter())
            self.failed += 1
            self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return
        self._timed(op, t0, time.perf_counter())
        self.outputs[op.key] = op.after(out) if op.after else out

    def _timed(self, op: Op, t0: float, t1: float):
        self.times[op.group] += t1 - t0
        self.durations.setdefault(op.group, {}).setdefault(op.key.split("#")[0], []).append(((t0 + t1) / 2, t1 - t0))

    def group_seconds(self, group: str) -> float:
        """Seconds per round in the group, at the reference speed: each operation's
        interquartile mean over all its runs, times the runs it makes per round."""
        return sum(len(d) / self.rounds * _interquartile_mean(reference_seconds(d, self.calibrations))
                   for d in self.durations.get(group, {}).values())

    def _repeats(self, group: str) -> range:
        return range(self.mix.repeats.get(group, 1))

    def _repeat(self, group: str, ops: list) -> list:
        """The group's operations, run `repeats` times; copies after the first get a #k key."""
        return [Op(op.group, _key(op.key, k), op.fn, op.args, op.kwargs, op.after)
                for k in self._repeats(group) for op in ops]

    # -- plans ---------------------------------------------------------------
    def _plan_configs(self):
        return [Op("config", f"config:{n}", self.bv.config.load_model, (self.config_path(n),))
                for n in self.config_names]

    def _plan_sample(self):
        # repeat k draws with seed + k: the root finder's work depends on the draws,
        # so a run averages it over several samples (numpy's SeedSequence makes
        # neighbouring seeds independent)
        mix = self.mix
        return [Op("sample", _key(f"sample:{n}", k), self.bv.sampler.sample_model,
                   (self.models[n], mix.sample_n, self.inp.sample_seed[n] + k))
                for k in self._repeats("sample") for n in mix.sample_models]

    def _mixing_law(self, name):
        doc = self.docs[name]["generator"]
        return self.bv.generators.MixingLaw(doc["law"]["kind"], dict(doc["law"]["params"])), float(doc["ratio"])

    def _plan_shortcut(self):
        ops = []
        for k in self._repeats("shortcut"):  # seed + k, as in _plan_sample
            for n in MIXING:
                law, ratio = self._mixing_law(n)
                ops.append(Op("shortcut", _key(f"shortcut:{n}", k), self.bv.sampler.sample_mixing_shortcut,
                              (law, self.models[n].core, ratio, self.mix.shortcut_n, self.inp.shortcut_seed[n] + k)))
        return ops

    def _plan_empirical_kendall(self):
        return self._repeat("empirical_kendall", [
            Op("empirical_kendall", "empirical_kendall", self.bv.dependence.empirical_kendall,
               (self.kendall_batch, S_GRID))])

    def _plan_kendall(self):
        dep, ops = self.bv.dependence, []
        for n in self.mix.models:
            m = self.models[n]
            for c in self.mix.kendall_ages:
                key, t = f"kendall:{n}:{c:g}", c / m.lam
                ops += [Op("kendall", key + ":closed", dep.kendall_function, (m, t, S_GRID), {"source": "closed_form"}),
                        Op("kendall", key + ":quadrature", dep.kendall_function, (m, t, S_GRID), {"source": "quadrature"}),
                        Op("kendall", key + ":tau", dep.kendall_tau, (m, t))]
        return self._repeat("kendall", ops)

    def _plan_tail(self):
        dep, ops = self.bv.dependence, []
        for n in self.mix.models:
            m = self.models[n]
            for c in self.mix.ages:
                key, t = f"tail:{n}:{c:g}", c / m.lam
                ops += [Op("tail", key + ":lower", dep.tail_lower, (m, t)),
                        Op("tail", key + ":upper", dep.tail_upper, (m, t)),
                        Op("tail", key + ":numeric_lower", dep.tail_numeric, (m, t, "lower")),
                        Op("tail", key + ":numeric_upper", dep.tail_numeric, (m, t, "upper"))]
        return self._repeat("tail", ops)

    def _grids(self, m, side):
        xs = np.sort(self.inp.xs[:side]) / m.lam
        return np.meshgrid(xs, xs, indexing="ij")

    def _copula_grid(self, name):
        """0, sorted seeded points, 1; the points lie within COPULA_RANGE where one is set."""
        lo, hi = COPULA_RANGE.get(name, (0.0, 1.0))
        return np.concatenate([[0.0], np.sort(lo + (hi - lo) * self.inp.us[: self.mix.grid - 2]), [1.0]])

    def _plan_surface(self):
        mod, mix, ops = self.bv.model, self.mix, []
        for n in mix.models:
            m = self.models[n]
            X, Y = self._grids(m, mix.grid)
            U, V = np.meshgrid(self._copula_grid(n), self._copula_grid(n), indexing="ij")
            ops.append(Op("surface", f"surface:{n}:fbar", mod.fbar, (m, X, Y)))
            for c in mix.ages:
                ops += [Op("surface", f"surface:{n}:{c:g}:residual", mod.fbar_residual, (m, c / m.lam, X, Y)),
                        Op("surface", f"surface:{n}:{c:g}:copula", mod.copula_t, (m, c / m.lam, U, V))]
        for n in mix.residual_models:
            m = self.models[n]
            X, Y = self._grids(m, mix.grid // 2)
            ops += [Op("surface", f"surface:{n}:{c:g}:functional_equation", mod.generalized_weak_residual,
                       (m, c / m.lam, X, Y)) for c in mix.ages]
        return self._repeat("surface", ops)

    def _plan_pricing(self):
        pr, mod, mix, ops = self.bv.pricing, self.bv.model, self.mix, []
        for n in mix.models:
            m = self.models[n]
            if n != "pareto_mu":  # its annuities and life expectancies are infinite
                ops += [Op("pricing", f"pricing:life_expectancy{i}:{n}", pr.life_expectancy, (m, i)) for i in (1, 2)]
            for c in mix.price_ages:
                t, key = c / m.lam, f"{n}:{c:g}"
                ops += [Op("pricing", f"pricing:mean_excess{i}:{key}", mod.mean_excess, (m, i, t)) for i in (1, 2)]
                if n != "pareto_mu":
                    ops += [Op("pricing", f"pricing:{fn.__name__}:{key}", fn, (m, t))
                            for fn in (pr.joint_annuity, pr.residual_joint_annuity, pr.independent_annuity,
                                       pr.residual_independent_annuity)]
        if "fig1_left" in mix.models:
            ops += [Op("pricing", f"pricing:life_expectancy{i}:fig1_left:horizon", pr.life_expectancy,
                       (self.models["fig1_left"], i), {"horizon": ref.TABLE1_HORIZON}) for i in (1, 2)]
        if "fig1_right" in mix.models:
            ops.append(Op("pricing", "pricing:reference_comparison", pr.reference_comparison,
                          ({"left": self.models["fig1_left"], "right": self.models["fig1_right"]},)))
        return self._repeat("pricing", ops)

    def _cli_queries(self):
        inp = self.inp
        age = repr(inp.cli_age)
        x, y = (repr(float(v) / self.refs["mixing_gamma"].lam) for v in inp.eval_xy)
        rx, ry, rt = (repr(float(v)) for v in inp.eval_residual)
        return {
            "validate": ["validate", "-c", "configs/fig1_right.json"],
            "eval": ["eval", "-c", "configs/mixing_gamma.json", "--x", x, "--y", y],
            "eval_residual": ["eval", "-c", "configs/mo15.json", "--x", rx, "--y", ry, "--t", rt],
            "tau": ["tau", "-c", "configs/mixing_stable.json", "--t", f"0,{age}"],
            "kendall": ["kendall", "-c", "configs/mo15.json", "--t", f"0,{age}", "--points", "49"],
            "price": ["price", "-c", "configs/fig1_left.json", "--t", "0,10,20"],
            "paper": ["paper", "table1"],
        }

    def _plan_cli_queries(self):
        queries = self._cli_queries()
        return self._repeat("cli_query", [Op("cli_query", f"cli:{q}", self._cli, (queries[q],), after=self._cli_done)
                                          for q in self.mix.cli_queries])

    def _sample_csv(self) -> Path:
        return self.out_dir / "cli_sample.csv"

    def _cli_sample_argv(self):
        return ["sample", "-c", "configs/fig1_left.json", "-n", str(self.mix.cli_sample_n),
                "--seed", str(self.inp.cli_seed), "-o", str(self._sample_csv().relative_to(self.root))]

    def _plan_cli_sample(self):
        def read_csv(stdout):
            self._cli_done(stdout)
            text = self._sample_csv().read_text()
            self._sample_csv().unlink()
            return stdout, text

        return self._repeat("cli_sample", [Op("cli_sample", "cli:sample", self._cli, (self._cli_sample_argv(),),
                                              after=read_csv)])

    def _cli(self, argv):
        """Run one command in a fresh interpreter (traced when this run is) and return its stdout."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        cmd = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(self._cli_report()),
               str(int(self.tracer is not None)), *argv]
        seconds, proc = run_child(cmd, self.root, env)
        name = f"cli.{argv[0]}.s"
        self.cli_layer[name] = self.cli_layer.get(name, 0.0) + seconds
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def _cli_report(self) -> Path:
        return self.out_dir / "cli_report.json"

    def _cli_done(self, stdout):
        """Take the peak resident set and, when traced, the spans that a command reported."""
        report = json.loads(self._cli_report().read_text())
        self._cli_report().unlink()
        self.cli_peak_rss_mb = max(self.cli_peak_rss_mb, report["peak_rss_mb"])
        if self.tracer is not None:
            self.tracer.merge(report["trace"])
            if "cli.import_s" not in self.cli_layer:  # once per round
                self.cli_layer.update(_import_times(self.root))
        return stdout

    # -- checks of the first round -------------------------------------------
    def check(self):
        """Check the first round's outputs; run after the last round, so that the
        checks' own memory and calls stay out of the measurements."""
        with _Paused(self.tracer):
            for check in (self._check_sample, self._check_shortcut, self._check_empirical_kendall,
                          self._check_kendall, self._check_tail, self._check_surface, self._check_pricing,
                          self._check_cli):
                check(self.first.get)
        # a known fault gives the same wrong output every round
        self.failed += len(self.faulty) * self.rounds

    def _expect(self, key: str, problems: list, error=None):
        """Record problems found in the output of ``key``; a known fault within
        its ceiling (relative error ``error``) counts the operation failed."""
        if known_fault(key, problems, error):
            self.faulty.add(key)
        else:
            self.problems.extend(problems)

    def _survival_points(self, r, mults=SURVIVAL_MULTS, diagonal=False):
        pts = [(a / r.lam, a / r.lam) for a in mults] if diagonal else \
            [(a / r.lam, c / r.lam) for a in mults for c in mults]
        return pts, [float(r.fbar(a, c)) for a, c in pts]

    def _check_sample(self, out):
        dep = self.bv.dependence
        for n in self.mix.sample_models:
            key, b = f"sample:{n}", out(f"sample:{n}")
            if b is None:
                continue
            m, r = self.models[n], self.refs[n]
            problems = checks.survival_grid(b.x, b.y, *self._survival_points(r), key)
            problems += checks.atom_share(b.atom, b.x, b.y, r.singular_mass(), key)
            k0 = dep.kendall_function(m, 0.0, S_GRID, source="closed_form").k_values()
            problems += checks.kendall_dkw(r.fbar(b.x, b.y), S_GRID, k0, key)
            problems += checks.sample_tau(b.x, b.y, dep.kendall_tau(m, 0.0), key)
            if not _same(self.bv.sampler.sample_model(m, b.n, self.inp.sample_seed[n]), b):
                problems.append(f"{key}: the same seed gave different draws")
            self._expect(key, problems)

    def _check_shortcut(self, out):
        for n in MIXING:
            key, b = f"shortcut:{n}", out(f"shortcut:{n}")
            if b is None:
                continue
            r = self.refs[n]
            problems = checks.survival_grid(b.x, b.y, *self._survival_points(r), key)
            problems += checks.atom_share(b.atom, b.x, b.y, r.singular_mass(), key)
            direct = out(f"sample:{n}")
            if direct is not None:
                pts, p = self._survival_points(r, (0.2, 1.0, 2.2), diagonal=True)
                problems += checks.two_sample_survival(b.x, b.y, direct.x, direct.y, pts, p, f"{key} vs direct")
            self._expect(key, problems)

    def _check_empirical_kendall(self, out):
        curve = out("empirical_kendall")
        if curve is None:
            return
        dep, b = self.bv.dependence, self.kendall_batch
        m = self.models[self.mix.sample_models[0]]
        k0 = dep.kendall_function(m, 0.0, S_GRID, source="closed_form").k_values()
        problems = checks.kendall_estimate(curve.k_values(), k0, b.n, "empirical_kendall")
        sub = self.bv.sampler.SampleBatch(x=b.x[:SUBSAMPLE], y=b.y[:SUBSAMPLE], atom=b.atom[:SUBSAMPLE], seed=b.seed)
        exact = dep.empirical_kendall(sub, checks.count_grid(SUBSAMPLE)).k_values()
        problems += checks.empirical_kendall_exact(exact, sub.x, sub.y, "empirical_kendall")
        self._expect("empirical_kendall", problems)

    def _check_kendall(self, out):
        for n in self.mix.models:
            taus, curves = [], []
            for c in self.mix.kendall_ages:
                key = f"kendall:{n}:{c:g}"
                closed, quad, tau = out(key + ":closed"), out(key + ":quadrature"), out(key + ":tau")
                if closed is not None and quad is not None:
                    self._expect(key, checks.kendall_curves(S_GRID, closed.k_values(), quad.k_values(), key))
                    curves.append(closed.k_values())
                if tau is not None:
                    taus.append(tau)
                    if not -1.0 <= tau <= 1.0:
                        self.problems.append(f"{key}: tau {tau} outside [-1, 1]")
            # the MU core with alpha = 1 makes C_t of mo15 free of xi e^{lambda t}
            if n == "mo15" and taus and max(taus) - min(taus) > 1e-8:
                self.problems.append(f"mo15: tau varies with age ({min(taus)!r}..{max(taus)!r})")
            # h = identity leaves C_t equal to the core copula at every age
            if n == "identity_mu" and curves and max(float(np.max(np.abs(k - curves[0]))) for k in curves) > 1e-12:
                self.problems.append("identity_mu: K_t varies with age")

    def _check_tail(self, out):
        for n in self.mix.models:
            for c in self.mix.ages:
                key = f"tail:{n}:{c:g}"
                lemmas = [out(key + ":lower"), out(key + ":upper")]
                numeric = [out(key + ":numeric_lower"), out(key + ":numeric_upper")]
                if None in lemmas or None in numeric:
                    continue
                problems = []
                for lemma, num in zip(lemmas, numeric):
                    if not (0.0 <= lemma.value <= 1.0 and num.converged):
                        problems.append(f"{key}: {lemma.which} coefficient {lemma.value} or limit unconverged")
                    if lemma.method != "numeric" and abs(lemma.value - num.value) > 5e-3:
                        problems.append(f"{key}: {lemma.which} lemma {lemma.value:.5f} vs limit {num.value:.5f}")
                if n == "identity_mu":
                    problems += checks.close([v.value for v in lemmas], list(self.refs[n].core_tails()), 1e-12,
                                             f"{key} vs the core tail formulas")
                self._expect(key, problems)

    def _check_surface(self, out):
        mix = self.mix
        for n in mix.models:
            m, r, u = self.models[n], self.refs[n], self._copula_grid(n)
            X, Y = self._grids(m, mix.grid)
            f = out(f"surface:{n}:fbar")
            if f is not None:
                self._expect(f"surface:{n}", checks.close(f, r.fbar(X, Y), 1e-10, f"surface:{n}:fbar"))
            for c in mix.ages:
                key = f"surface:{n}:{c:g}"
                res, cop = out(key + ":residual"), out(key + ":copula")
                if res is not None:
                    self._expect(key, checks.close(res, r.residual(c / m.lam, X, Y), 1e-10, key + ":fbar_residual"))
                if cop is not None:
                    self._expect(key, checks.copula_grid(u, u, cop, key + ":copula_t"))
        for n in mix.residual_models:
            for c in mix.ages:
                key = f"surface:{n}:{c:g}:functional_equation"
                res = out(key)
                if res is not None and not float(np.max(np.abs(res))) <= 1e-10:
                    self.problems.append(f"{key}: residual {float(np.max(np.abs(res))):.3e} > 1e-10")

    def _check_pricing(self, out):
        for n in self.mix.models:
            m, r = self.models[n], self.refs[n]
            for c in self.mix.price_ages:
                t, key = c / m.lam, f"{n}:{c:g}"
                me = [out(f"pricing:mean_excess{i}:{key}") for i in (1, 2)]
                if n == "pareto_mu":
                    # h(Gbar_i(z)) ~ 1/(lambda z): the mean residual life is infinite
                    if any(v is not None and v != math.inf for v in me):
                        self.problems.append(f"pricing:mean_excess:{key}: {me}, not infinite")
                    continue
                want = {"joint_annuity": r.joint_annuity(t), "residual_joint_annuity": r.residual_joint_annuity(t),
                        "independent_annuity": r.independent_annuity(t),
                        "residual_independent_annuity": r.residual_independent_annuity(t),
                        "mean_excess1": r.mean_excess(1, t), "mean_excess2": r.mean_excess(2, t)}
                got = {w: out(f"pricing:{w}:{key}") for w in want}
                for w, value in got.items():
                    if value is not None:
                        self._expect(f"pricing:{w}:{key}", checks.close(value, want[w], 1e-6, f"pricing:{w}:{key}"),
                                     abs(value - want[w]) / abs(want[w]))
                if None in me:
                    continue
                # min(X, Y) - t is below X - t and Y - t given both alive at t
                bound = min(me) * (1.0 + 1e-9)
                for w in ("residual_joint_annuity", "residual_independent_annuity"):
                    if got[w] is not None and not got[w] <= bound:
                        self._expect(f"pricing:{w}:{key}", [f"{key}: {w} {got[w]} exceeds the mean residual life"])
            for i in (1, 2):
                key = f"pricing:life_expectancy{i}:{n}"
                if out(key) is not None:
                    self._expect(key, checks.close(out(key), r.life_expectancy(i), 1e-6, key))
        r = self.refs["fig1_left"]
        for i, published in zip((1, 2), ref.LIFE_EXPECTANCY_FIG1_LEFT):
            key = f"pricing:life_expectancy{i}:fig1_left:horizon"
            if out(key) is not None:
                problems = checks.close(out(key), published, 0.01, key + " vs published")
                problems += checks.close(out(key), r.life_expectancy(i, ref.TABLE1_HORIZON), 1e-6, key)
                self._expect(key, problems)
        rows = out("pricing:reference_comparison")
        if rows is not None:
            cells = [(f"fig1_{row['side']}", row["t"], row["kind"], row["computed"]) for row in rows]
            self._expect("pricing:reference_comparison", checks.table1(cells, ref.TABLE1, ref.TABLE1_RTOL))

    def _check_cli(self, out):
        queries = self._cli_queries()
        for q in self.mix.cli_queries:
            stdout = out(f"cli:{q}")
            if stdout is not None:
                self._expect(f"cli:{q}", self._check_query(q, queries[q], stdout))
        got = out("cli:sample")
        if got is not None:
            self._expect("cli:sample", self._check_cli_sample(*got))

    def _check_query(self, q, argv, stdout):
        bv, lines, what = self.bv, stdout.splitlines(), f"bivlmp {' '.join(argv)}"
        if q == "validate":
            return [] if lines and lines[0] == "model fig1_right: ok" else [f"{what}: printed {lines[:1]}"]
        if q in ("eval", "eval_residual"):
            n = "mixing_gamma" if q == "eval" else "mo15"
            m, r = self.models[n], self.refs[n]
            xv, yv = float(argv[4]), float(argv[6])
            if q == "eval":
                lib, want = bv.model.fbar(m, xv, yv), float(r.fbar(xv, yv))
            else:
                tv = float(argv[8])
                lib, want = bv.model.fbar_residual(m, tv, xv, yv), float(r.residual(tv, xv, yv))
            problems = [] if stdout.strip() == repr(float(lib)) else [f"{what}: printed {stdout.strip()}, library {lib!r}"]
            return problems + checks.close(float(stdout), want, 1e-10, what)
        if q == "tau":
            m = self.models["mixing_stable"]
            want = [f"t={t!r} tau={bv.dependence.kendall_tau(m, t)!r}" for t in _ages(argv[4])]
            return [] if lines == want else [f"{what}: printed {lines}, library {want}"]
        if q == "kendall":
            m, s_grid = self.models["mo15"], np.linspace(0.02, 0.98, 49)
            want, problems, curves = ["t,s,K"], [], []
            for t in _ages(argv[4]):
                closed = bv.dependence.kendall_function(m, t, s_grid)
                quad = bv.dependence.kendall_function(m, t, s_grid, source="quadrature")
                problems += checks.kendall_curves(s_grid, closed.k_values(), quad.k_values(), f"{what} t={t}")
                want += [f"{t:.17g},{s:.17g},{k:.17g}" for s, k in closed.grid]
                curves.append(closed.k_values())
            if lines != want:
                problems.append(f"{what}: CSV differs from the library's curve")
            if np.max(np.abs(curves[0] - curves[-1])) > 1e-9:
                problems.append(f"{what}: mo15 K_t varies with age")
            return problems
        if q == "price":
            r, problems = self.refs["fig1_left"], []
            rows = [line.split() for line in lines[1:]]
            if [float(row[0]) for row in rows] != [0.0, 10.0, 20.0]:
                return [f"{what}: printed ages {[row[0] for row in rows]}"]
            for row in rows:
                t = float(row[0])
                for printed, want in ((float(row[1]), r.joint_annuity(t)), (float(row[2]), r.independent_annuity(t))):
                    if abs(printed - want) > 0.5e-4 + 1e-9 * want:  # printed to 4 decimals
                        problems.append(f"{what}: t={t:g} printed {printed}, reference {want:.6f}")
            return problems
        if q == "paper":
            cells, problems = [], []
            for line in lines[1:]:
                parts = line.split()
                if parts[-1] != "pass":
                    problems.append(f"{what}: {line}")
                if parts[0] != "ordering":
                    cells.append((f"fig1_{parts[0]}", float(parts[1]), parts[2], float(parts[3])))
            return problems + checks.table1(cells, ref.TABLE1, ref.TABLE1_RTOL)
        raise ValueError(q)

    def _check_cli_sample(self, stdout, text):
        m, r, n = self.models["fig1_left"], self.refs["fig1_left"], self.mix.cli_sample_n
        lib = self.bv.sampler.sample_model(m, n, self.inp.cli_seed)
        problems = checks.sample_csv(text, lib.x, lib.y, lib.atom, "bivlmp sample")
        x, y, atom = checks.parse_sample_csv(text)
        problems += checks.survival_grid(x, y, *self._survival_points(r), "bivlmp sample")
        problems += checks.atom_share(atom, x, y, r.singular_mass(), "bivlmp sample")
        if f"wrote {n} samples" not in stdout:
            problems.append(f"bivlmp sample: printed {stdout.strip()}")
        return problems


def _key(key: str, k: int) -> str:
    """The key of the k-th repeat of an operation; timings merge under the part before #."""
    return f"{key}#{k}" if k else key


def _interquartile_mean(values) -> float:
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def _ages(text: str):
    return [float(v) for v in text.split(",")]


def _import_times(root: Path) -> dict:
    """cli.import_s and cli.import.scipy_s from ``python -X importtime -c 'import bivlmp.cli'``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bivlmp.cli"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    total = scipy = 0
    stack = []  # (depth, name) of the lines already read; importtime prints children first
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0 and name.startswith("bivlmp"):
            total += int(cumulative)
        if name.split(".")[0] == "scipy" and not any(p.split(".")[0] == "scipy" for _, p in stack):
            scipy += int(cumulative)
        stack.append((depth, name))
    return {"cli.import_s": total / 1e6, "cli.import.scipy_s": scipy / 1e6}


class _Paused:
    """Pause tracing while the benchmark's own checks call the program."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enabled = False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.enabled = True

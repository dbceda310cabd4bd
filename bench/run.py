"""Benchmark of bivlmp: run one workload and print its metrics as JSON.

Usage (from the repository root):

    python3 bench/run.py --workload {simulate,analyze,cli} --seed N --seconds S --trace {0,1}

The program is imported from src/ and the model configs are read from
configs/.  The run measures set-up time in fresh interpreters, then repeats
rounds of the workload's operations until S seconds have passed, checks the
first round's outputs, and prints one JSON object as the last line of
standard output: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.
The exit code is 0 when the run completes, whether or not the checks pass
(the "correct" field says), and non-zero when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # before the rounds, plus one after each round

# One thread per numerical library, whatever the caller's environment says: the
# workloads are single-threaded, and the reference machine (bench/README.md)
# has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _require_program():
    missing = [p for p in (SRC / "bivlmp" / "__init__.py", ROOT / "configs") if not p.exists()]
    if missing:
        sys.exit(f"bench: program not found ({', '.join(str(p) for p in missing)}); "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bivlmp

    if Path(bivlmp.__file__).resolve().parent != SRC / "bivlmp":
        sys.exit(f"bench: imported bivlmp from {bivlmp.__file__}, not from {SRC}")


def setup_seconds(config_paths) -> float:
    """Wall time of a fresh interpreter that imports bivlmp and loads the configs."""
    import workloads

    code = ("import bivlmp\nfrom bivlmp.config import load_model\n"
            f"for p in {[str(p) for p in config_paths]!r}:\n    load_model(p)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds, proc = workloads.run_child([sys.executable, "-c", code], ROOT, env, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up failed: {proc.stderr.strip()[-300:]}")
    return seconds


def end_to_end(runner, rounds, setup_s: float, peak: dict) -> dict:
    """Each group's seconds per round from the interquartile mean of each of its
    operations over the run, in seconds of the machine's fast state
    (``workloads.reference_seconds``).  Not a median over rounds: the reference
    machine (bench/README.md) switches between a fast state and one about 1.6x
    slower, so the median of a run's two to four rounds jumps between the
    states; the calibration takes the state out and the interquartile mean
    drops the odd slow call.  ``peak`` holds the peak resident set, in MB, of
    the benchmark process and of the largest command-line subprocess; the
    workload names the one it reports."""
    draws = rounds[0]["draws"]
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak[runner.mix.peak_process], "MB"),
        "sample_draws_per_s": (draws["sample"] / runner.group_seconds("sample"), "draws/s"),
        "shortcut_draws_per_s": (draws["shortcut"] / runner.group_seconds("shortcut"), "draws/s"),
    }
    for name, group in (("empirical_kendall_s", "empirical_kendall"), ("kendall_s", "kendall"),
                        ("tail_s", "tail"), ("surface_s", "surface"), ("pricing_s", "pricing"),
                        ("cli_query_s", "cli_query"), ("cli_sample_s", "cli_sample")):
        values[name] = (runner.group_seconds(group), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(rounds, units: dict) -> dict:
    return {n: {"value": statistics.median(r["layer"][n] for r in rounds), "unit": u} for n, u in units.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_program()
    import cli_child
    import tracing
    import workloads

    if args.workload not in workloads.MIXES:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.MIXES)}")
    # one CPU for the whole run, command-line children included: on the reference
    # machine each core switches between its fast and slow state on its own, so
    # the calibration kernel must run on the core that runs the program
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = tracing.Tracer() if args.trace else None
    runner = workloads.Runner(args.workload, args.seed, ROOT, tracer)
    configs = [runner.config_path(n) for n in runner.config_names]
    setups = []  # (mid time, seconds), each between two calibrations

    def timed_setup():
        runner.calibrate()
        t0 = time.perf_counter()
        seconds = setup_seconds(configs)
        setups.append((t0 + seconds / 2, seconds))
        runner.calibrate()

    for _ in range(SETUP_REPEATS):
        timed_setup()
    if tracer is not None:
        tracing.install(tracer)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(runner.run_round())
        timed_setup()
    elapsed = time.perf_counter() - start
    # before the checks, so that their own arrays do not set it
    peak = {"benchmark": cli_child.peak_rss_mb(), "cli": runner.cli_peak_rss_mb}
    if tracer is not None:
        metrics = layer_metrics(rounds, tracing.UNITS)
    else:
        setup_s = statistics.median(workloads.reference_seconds(setups, runner.calibrations))
        metrics = end_to_end(runner, rounds, setup_s, peak)
    runner.check()
    for line in runner.errors[:20] + runner.problems[:50]:
        print(line, file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": len(rounds),
              "elapsed_s": elapsed, "round_times": [r["times"] for r in rounds], "setup_s": setups,
              "calibrations": runner.calibrations, "durations": runner.durations,
              "peak_rss_mb": peak,
              "known_faults": sorted(runner.faulty), "problems": runner.problems, "errors": runner.errors}
    out = runner.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    if tracer is not None:
        (runner.out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}))
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 1 validation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import dependence, generators, model as model_mod, pricing, sampler
from .config import builtin_model, emit_config, load_model
from .errors import BivlmpError


def _fmt(x) -> str:
    return repr(float(x))


def _parse_ts(text: str):
    try:
        ts = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise BivlmpError(f"could not parse time list {text!r}") from None
    if not ts:
        raise BivlmpError(f"time list {text!r} names no age")
    return ts


def _count(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return n


def _load(args):
    return load_model(args.config)


def cmd_validate(args) -> int:
    m = _load(args)
    # load_model builds a CoreParams, which refuses an inadmissible core, so every margin here is within the slack
    print(f"model {m.label or '(unlabeled)'}: ok")
    for name, margin in m.core.margins.items():
        print(f"  {name}: margin {_fmt(margin)}")
    if args.echo:
        print(json.dumps(emit_config(m), indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    m = _load(args)
    if args.t is not None:
        val = model_mod.fbar_residual(m, args.t, args.x, args.y)
    else:
        val = model_mod.fbar(m, args.x, args.y)
    print(_fmt(val))
    return 0


def cmd_check(args) -> int:
    m = _load(args)
    n = args.grid
    scale = 1.0 / m.lam
    xs = np.linspace(0.0, 3.0 * scale, n)
    ts = np.linspace(0.0, 2.0 * scale, max(n // 2, 2))
    worst = 0.0
    for t in ts:
        r = model_mod.generalized_weak_residual(m, float(t), xs[:, None], xs[None, :])
        worst = max(worst, float(np.max(np.abs(r))))
    print(f"max |residual| = {_fmt(worst)}")
    return 0 if worst <= 1e-10 else 1


def cmd_kendall(args) -> int:
    m = _load(args)
    s_grid = np.linspace(0.02, 0.98, args.points)
    lines = ["t,s,K"]
    for t in _parse_ts(args.t):
        curve = dependence.kendall_function(m, t, s_grid)
        for s, k in curve.grid:
            lines.append(f"{t:.17g},{s:.17g},{k:.17g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tau(args) -> int:
    m = _load(args)
    for t in _parse_ts(args.t):
        print(f"t={_fmt(t)} tau={_fmt(dependence.kendall_tau(m, t))}")
    return 0


def cmd_taildep(args) -> int:
    m = _load(args)
    out = []
    for t in _parse_ts(args.t):
        if args.numeric:
            lo = dependence.tail_numeric(m, t, "lower")
            up = dependence.tail_numeric(m, t, "upper")
        else:
            lo = dependence.tail_lower(m, t)
            up = dependence.tail_upper(m, t)
        out.append(
            {
                "t": t,
                "lambda_L": lo.value,
                "lambda_L_method": lo.method,
                "lambda_L_converged": lo.converged,
                "lambda_U": up.value,
                "lambda_U_method": up.method,
                "lambda_U_converged": up.converged,
            }
        )
    print(json.dumps(out, indent=2))
    return 0


def cmd_aging(args) -> int:
    m = _load(args)
    prof = generators.aging_profile(m.generator)
    print(f"aging: {prof.nbu_nwu} / {prof.ifr_dfr}")
    print(f"multiplicativity: {prof.multiplicativity}")
    return 0


def cmd_sample(args) -> int:
    m = _load(args)
    batch = sampler.sample_model(m, args.n, args.seed)
    batch.to_csv(args.output)
    print(f"wrote {batch.n} samples to {args.output} (atom fraction {_fmt(sampler.empirical_atom(batch))})")
    return 0


def cmd_price(args) -> int:
    m = _load(args)
    quotes = pricing.premium_table(m, _parse_ts(args.t))
    sys.stdout.write(pricing.table_text(quotes))
    return 0


def cmd_paper(args) -> int:
    models = {"left": builtin_model("fig1_left"), "right": builtin_model("fig1_right")}
    rows = pricing.reference_comparison(models)
    all_ok = True
    print(f"{'side':>5} {'t':>5} {'kind':>12} {'computed':>10} {'reference':>10} {'rel_err':>9}  result")
    for r in rows:
        ok = r["ok"]
        all_ok &= ok
        print(
            f"{r['side']:>5} {r['t']:>5.0f} {r['kind']:>12} {r['computed']:>10.4f} "
            f"{r['reference']:>10.4f} {r['rel_err']:>9.2e}  {'pass' if ok else 'FAIL'}"
        )
    # ordering check: left joint > independent, right joint < independent; rows come in
    # (joint, independent) pairs per side and age
    for joint, indep in zip(rows[::2], rows[1::2]):
        side, j, i = joint["side"], joint["computed"], indep["computed"]
        ok = j > i if side == "left" else j < i
        all_ok &= ok
        print(f"ordering {side} t={joint['t']:.0f}: joint {'>' if j > i else '<'} independent  {'pass' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bivlmp", description="Bivariate lack-of-memory survival models")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("-c", "--config", required=True, help="model config JSON path")
        return p

    p = with_config(sub.add_parser("validate", help="validate a model config"))
    p.add_argument("--echo", action="store_true", help="re-emit the parsed config as JSON")
    p.set_defaults(fn=cmd_validate)

    p = with_config(sub.add_parser("eval", help="evaluate the joint or residual survival"))
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(fn=cmd_eval)

    p = with_config(sub.add_parser("check", help="max functional-equation residual over a grid"))
    p.add_argument("--grid", type=_count, default=10)
    p.set_defaults(fn=cmd_check)

    p = with_config(sub.add_parser("kendall", help="Kendall curves as CSV"))
    p.add_argument("--t", required=True, help="comma-separated ages")
    p.add_argument("--points", type=_count, default=49)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_kendall)

    p = with_config(sub.add_parser("tau", help="Kendall's tau at given ages"))
    p.add_argument("--t", required=True)
    p.set_defaults(fn=cmd_tau)

    p = with_config(sub.add_parser("taildep", help="tail dependence coefficients"))
    p.add_argument("--t", required=True)
    p.add_argument("--numeric", action="store_true", help="force numeric limits")
    p.set_defaults(fn=cmd_taildep)

    p = with_config(sub.add_parser("aging", help="aging classification of the generator"))
    p.set_defaults(fn=cmd_aging)

    p = with_config(sub.add_parser("sample", help="draw samples to CSV"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_sample)

    p = with_config(sub.add_parser("price", help="annuity premium table"))
    p.add_argument("--t", required=True)
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("paper", help="reproduce the published benchmark table")
    p.add_argument("what", choices=["table1"])
    p.set_defaults(fn=cmd_paper)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as its message alone, as run prints an error."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        with warnings.catch_warnings():  # the filters stay; only how a shown warning prints changes
            warnings.showwarning = _show_warning
            return args.fn(args)
    except (BivlmpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

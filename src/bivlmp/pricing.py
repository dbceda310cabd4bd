"""Joint-life annuity valuation.

All values use a discount factor of exactly 1.  A deferred joint whole-life
annuity pays 1 per year from the deferment time t while both lives survive;
its net single premium at issue is

    a(t) = integral_t^inf Fbar(z, z) dz,

with no survival conditioning (the contract is priced at time 0).  The
conditional counterpart, the annuity value given both alive at t, is
a(t) / Fbar(t, t) = integral_0^inf Fbar_t(z, z) dz.

The independence benchmark replaces the joint survival by the product of the
two marginals.  An optional horizon truncates the integrals at a limiting age;
the published benchmark table uses horizon = 100 years.
"""

from __future__ import annotations

import numpy as np

from .model import Model, _survival_integral, fbar_marginal, residual_marginal
from .numerics import Record, entry, integrate_upper  # noqa: F401  (bench/test_checks.py reads integrate_upper)

PRICING_TOL = 1e-8


class PricingQuote(Record):
    __slots__ = ("t", "premium_joint", "premium_independent", "model_label")

    def __init__(self, t: float, premium_joint: float, premium_independent: float, model_label: str = ""):
        self._fill(t, premium_joint, premium_independent, model_label)


@entry(t="model age", horizon="horizon")
def joint_annuity(m: Model, t: float, horizon=None) -> float:
    """Net single premium of the deferred joint annuity: integral_t Fbar(z, z) dz."""
    return _survival_integral(m, t, lambda z: np.exp(m.generator._h_log_from_log(-m.lam * (z + t))), PRICING_TOL,
                              "joint annuity integral", horizon)


@entry(t="model age")
def residual_joint_annuity(m: Model, t: float) -> float:
    """Expected years both survive past t, given both alive at t: integral of Fbar_t(z, z)."""
    tau = m.lam * t
    return _survival_integral(m, t, lambda z: np.exp(m.generator._residual_log(tau, -m.lam * z)), PRICING_TOL,
                              "conditional joint annuity integral", None)


@entry(t="model age", horizon="horizon")
def independent_annuity(m: Model, t: float, horizon=None) -> float:
    """Deferred premium under independence with the same marginals."""
    margin = fbar_marginal.kernel
    return _survival_integral(m, t, lambda z: margin(m, 1, z + t) * margin(m, 2, z + t), PRICING_TOL,
                              "independent annuity integral", horizon)


@entry(t="model age")
def residual_independent_annuity(m: Model, t: float) -> float:
    """Conditional independence benchmark: product of the residual marginals."""
    margin = residual_marginal.kernel
    return _survival_integral(m, t, lambda z: margin(m, 1, t, z) * margin(m, 2, t, z), PRICING_TOL,
                              "conditional independent annuity integral", None)


@entry(horizon="horizon", i="margin")
def life_expectancy(m: Model, i: int, horizon=None) -> float:
    """Mean of lifetime i: integral of h(Gbar_i) to the horizon; with none it is mean_excess(m, i, 0) to PRICING_TOL."""
    return _survival_integral(m, 0.0, lambda z: fbar_marginal.kernel(m, i, z), PRICING_TOL,
                              "life expectancy integral", horizon)


@entry(ts="model ages", horizon="horizon")
def premium_table(m: Model, ts, horizon=None) -> list:
    """A quote per age of the sequence ts."""
    return [PricingQuote(t, joint_annuity.kernel(m, t, horizon), independent_annuity.kernel(m, t, horizon), m.label)
            for t in ts]


def table_text(quotes) -> str:
    rows = [f"{'t':>6}  {'joint':>12}  {'independent':>12}"]
    rows += [f"{q.t:>6.1f}  {q.premium_joint:>12.4f}  {q.premium_independent:>12.4f}" for q in quotes]
    return "\n".join(rows) + "\n"


# Published benchmark premiums for the two reference parameter sets
# (t = 0, 10, 20; joint and independent rows).  The source parameter captions
# are rounded and the source table integrates to a limiting age of 100 years,
# so agreement is to 1% relative, not 4 decimals.
REFERENCE_PREMIUMS = {
    "left": {
        "ts": (0.0, 10.0, 20.0),
        "joint": (27.2170, 18.4047, 11.8301),
        "independent": (25.7805, 16.9899, 10.5226),
    },
    "right": {
        "ts": (0.0, 10.0, 20.0),
        "joint": (24.0691, 15.4105, 9.2493),
        "independent": (25.2736, 16.6022, 10.3524),
    },
}
REFERENCE_TOLERANCE = 0.01
REFERENCE_HORIZON = 100.0


@entry()
def reference_comparison(models: dict) -> list:
    """Compare {'left': Model, 'right': Model} against the benchmark premiums.

    Returns one row per (side, t, joint|independent) with the computed value,
    the reference, the relative error, and a pass flag at 1%.
    """
    rows = []
    for side in ("left", "right"):
        ref = REFERENCE_PREMIUMS[side]
        quotes = premium_table.kernel(models[side], ref["ts"], REFERENCE_HORIZON)
        for q, rj, rind in zip(quotes, ref["joint"], ref["independent"]):
            for kind, comp, refv in (("joint", q.premium_joint, rj), ("independent", q.premium_independent, rind)):
                rel = abs(comp - refv) / abs(refv)
                rows.append({"side": side, "t": q.t, "kind": kind, "computed": comp, "reference": refv,
                             "rel_err": rel, "ok": bool(rel <= REFERENCE_TOLERANCE)})
    return rows

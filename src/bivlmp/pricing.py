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

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import Model, _fbar_marginal, _h_log, _residual_from_log, _residual_marginal, _survival_integral
from .numerics import _FINITE, _admit, _sequence, integrate_unit
from .numerics import integrate_upper  # noqa: F401  (bench/test_checks.py looks integrate_upper up here)

PRICING_TOL = 1e-8


@dataclass(frozen=True)
class PricingQuote:
    t: float
    premium_joint: float
    premium_independent: float
    model_label: str = ""


def _integrate(surv, m: Model, t: float, tau: float, horizon, what: str) -> float:
    """Integral of surv over [0, horizon - t), or over [0, inf) on the decay scale of m at tau = lambda t.

    To PRICING_TOL; a half-line integral that does not converge reads +inf
    when the tail of surv is heavy.  Under the caller's error state.
    """
    try:
        if horizon is None:
            return _survival_integral(m, tau, surv, PRICING_TOL)
        span = _admit("pricing", "horizon", horizon, _FINITE) - t
        if span <= 0:
            raise DomainError(f"horizon must exceed the age t = {t!r}")
        return integrate_unit(lambda u: span * surv(span * u), tol=PRICING_TOL).value
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"{what} did not converge (heavy-tailed survival?)", estimate=exc.estimate
        ) from exc


def joint_annuity(m: Model, t: float, horizon=None) -> float:
    """Net single premium of the deferred joint annuity: integral_t Fbar(z, z) dz."""
    with np.errstate(all="ignore"):
        return _joint_annuity(m, t, m.tau(t), horizon)


def _joint_annuity(m: Model, t: float, tau: float, horizon) -> float:
    """joint_annuity at an age t checked as tau = m.tau(t)."""
    return _integrate(lambda z: np.exp(_h_log(m.generator, -m.lam * (z + t))), m, t, tau, horizon,
                      "joint annuity integral")


def residual_joint_annuity(m: Model, t: float) -> float:
    """Expected years both survive past t, given both alive at t: integral of Fbar_t(z, z)."""
    tau = m.tau(t)
    with np.errstate(all="ignore"):
        return _integrate(lambda z: _residual_from_log(m.generator, tau, -m.lam * z), m, t, tau, None,
                          "conditional joint annuity integral")


def independent_annuity(m: Model, t: float, horizon=None) -> float:
    """Deferred premium under independence with the same marginals."""
    with np.errstate(all="ignore"):
        return _independent_annuity(m, t, m.tau(t), horizon)


def _independent_annuity(m: Model, t: float, tau: float, horizon) -> float:
    """independent_annuity at an age t checked as tau = m.tau(t)."""
    return _integrate(lambda z: _fbar_marginal(m, 1, z + t) * _fbar_marginal(m, 2, z + t), m, t, tau, horizon,
                      "independent annuity integral")


def residual_independent_annuity(m: Model, t: float) -> float:
    """Conditional independence benchmark: product of the residual marginals."""
    tau = m.tau(t)
    with np.errstate(all="ignore"):
        return _integrate(lambda z: _residual_marginal(m, 1, tau, z) * _residual_marginal(m, 2, tau, z), m, t, tau,
                          None, "conditional independent annuity integral")


def life_expectancy(m: Model, i: int, horizon=None) -> float:
    """Mean of lifetime i: integral of h(Gbar_i), optionally up to a limiting age."""
    with np.errstate(all="ignore"):
        return _integrate(lambda z: _fbar_marginal(m, i, z), m, 0.0, 0.0, horizon, "life expectancy integral")


def premium_table(m: Model, ts, horizon=None) -> list:
    """A quote per age of the sequence ts."""
    with np.errstate(all="ignore"):
        return [_quote(m, t, horizon) for t in _sequence(ts, "ts")]


def _quote(m: Model, t: float, horizon) -> PricingQuote:
    """The quote at age t, checked once by m.tau."""
    tau, t = m.tau(t), float(t)  # float(t): the age m.tau admitted
    return PricingQuote(t, _joint_annuity(m, t, tau, horizon), _independent_annuity(m, t, tau, horizon), m.label)


def table_text(quotes) -> str:
    header = f"{'t':>6}  {'joint':>12}  {'independent':>12}"
    rows = [header]
    for q in quotes:
        rows.append(f"{q.t:>6.1f}  {q.premium_joint:>12.4f}  {q.premium_independent:>12.4f}")
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


def reference_comparison(models: dict) -> list:
    """Compare {'left': Model, 'right': Model} against the benchmark premiums.

    Returns one row per (side, t, joint|independent) with the computed value,
    the reference, the relative error, and a pass flag at 1%.
    """
    rows = []
    with np.errstate(all="ignore"):
        for side in ("left", "right"):
            ref = REFERENCE_PREMIUMS[side]
            quotes = (_quote(models[side], t, REFERENCE_HORIZON) for t in ref["ts"])
            for q, rj, rind in zip(quotes, ref["joint"], ref["independent"]):
                for kind, comp, refv in (("joint", q.premium_joint, rj), ("independent", q.premium_independent, rind)):
                    rel = abs(comp - refv) / abs(refv)
                    rows.append({"side": side, "t": q.t, "kind": kind, "computed": comp, "reference": refv,
                                 "rel_err": rel, "ok": bool(rel <= REFERENCE_TOLERANCE)})
    return rows

"""Independent reference values for the benchmark's output checks.

Everything here is written from the defining formulas of the model, not from
the program, and nothing here imports bivlmp:

- the core survival  Gbar(x, y) = e^{-lambda y} (alpha1 + (1-alpha1) e^{gamma1 (x-y)})^{-1/alpha}
  for x >= y (symmetric for x < y) and its singular mass
  P(X = Y) = ((1-alpha1) gamma1 + (1-alpha2) gamma2) / (alpha lambda) - 1;
- each generator h of the shipped configs, the mixing ones taken from the
  Laplace transform or the probability generating function of the mixing law
  (h(x) = E[x^{ratio Z}]);
- closed-form annuities, and otherwise adaptive quadrature of the reference
  survival with scipy.

A model is read from its JSON config document, the program's input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


class RefModel:
    """F(x, y) = h(Gbar(x, y)) from a config document, evaluated in the log domain."""

    def __init__(self, doc: dict):
        self.label = doc.get("label", "")
        core = doc["core"]
        self.lam = float(core["lambda"])
        self.alpha = float(core["alpha"])
        self.gamma = (float(core["gamma1"]), float(core["gamma2"]))
        self.weight = (float(core["alpha1"]), float(core["alpha2"]))
        gen = doc["generator"]
        self.family = gen["family"]
        if self.family == "mixing":
            self.kind = gen["law"]["kind"]
            self.params = dict(gen["law"]["params"])
            self.ratio = float(gen["ratio"])
        else:
            self.kind = self.family
            self.params = dict(gen.get("params", {}))
            self.ratio = None

    # -- core ---------------------------------------------------------------
    def log_gbar(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x - y
        first = d >= 0
        g = np.where(first, self.gamma[0], self.gamma[1])
        a = np.where(first, self.weight[0], self.weight[1])
        z = np.abs(d)
        # ln(a + (1-a) e^{g z}) = g z + ln((1-a) + a e^{-g z})
        inner = g * z + np.log((1.0 - a) + a * np.exp(-g * z))
        return -self.lam * np.minimum(x, y) - inner / self.alpha

    def singular_mass(self) -> float:
        g1, g2 = self.gamma
        a1, a2 = self.weight
        return max(((1.0 - a1) * g1 + (1.0 - a2) * g2) / (self.alpha * self.lam) - 1.0, 0.0)

    # -- generator ----------------------------------------------------------
    def log_h(self, lg):
        """ln h(e^lg) for lg <= 0."""
        s = -np.minimum(np.asarray(lg, dtype=float), 0.0)
        p = self.params
        kind = self.kind
        if self.family == "mixing":
            u = self.ratio * s  # h(x) = E[e^{-u Z}], u = -ratio ln x
            if kind == "gamma":
                return -p["a"] * np.log1p(u)
            if kind == "positive_stable":
                return -(u ** p["a"])
            if kind == "sibuya":
                # pgf 1 - (1 - w)^a at w = e^{-u}
                with np.errstate(divide="ignore"):
                    return np.log1p(-((-np.expm1(-u)) ** p["a"]))
            if kind == "log_series":
                # numpy's logseries(q) has pgf ln(1 - q w) / ln(1 - q); q = -theta
                q = -p["theta"]
                return np.log(np.log1p(-q * np.exp(-u)) / math.log1p(-q))
            raise ValueError(f"no reference for mixing law {kind!r}")
        if kind == "identity":
            return -s
        if kind == "log_series":
            return np.log(np.log1p(p["theta"] * np.exp(-p["a"] * s)) / math.log1p(p["theta"]))
        if kind == "mo15":
            return -p["xi"] * np.expm1(s)
        if kind == "gompertz":
            return -p["xi"] * np.expm1(p["mu"] * s)
        if kind == "pareto":
            return -np.log1p(p["a"] * s) / p["mu"]
        if kind == "weibull":
            return -((p["a"] * s) ** p["alpha"])
        raise ValueError(f"no reference for generator {kind!r}")

    # -- survival -----------------------------------------------------------
    def log_fbar(self, x, y):
        with np.errstate(divide="ignore"):  # ln 0 = -inf where h underflows
            return self.log_h(self.log_gbar(x, y))

    def fbar(self, x, y):
        return np.exp(self.log_fbar(x, y))

    def residual(self, t, x, y):
        """F(x+t, y+t) / F(t, t)."""
        return np.exp(self.log_fbar(np.asarray(x) + t, np.asarray(y) + t) - self.log_fbar(t, t))

    def residual_margin(self, i, t, z):
        """Margin i of the residual vector given both alive at t: F(z+t, t)/F(t, t) for i = 1."""
        z = np.asarray(z, dtype=float)
        x, y = (z + t, t) if i == 1 else (t, z + t)
        return np.exp(self.log_fbar(x, y) - self.log_fbar(t, t))

    def margin(self, i, z):
        z = np.asarray(z, dtype=float)
        return self.fbar(z, 0.0) if i == 1 else self.fbar(0.0, z)

    # -- tails of the core copula (MU subfamily) -----------------------------
    def core_tails(self):
        """(lambda_L, lambda_U) of the core copula on gamma1 = gamma2, lambda = gamma/alpha."""
        a1, a2 = max(self.weight), min(self.weight)
        lower = ((1.0 - a2) / (1.0 + a1 - a2)) ** (1.0 / self.alpha)
        upper = (1.0 - a1 - a2) / (1.0 - a2)
        return lower, upper

    # -- annuities ----------------------------------------------------------
    def residual_joint_annuity(self, t: float) -> float:
        """integral_0^inf F(z+t, z+t)/F(t, t) dz: closed form where one exists, else quadrature."""
        lam, p, kind = self.lam, self.params, self.kind
        if kind == "identity":
            return 1.0 / lam
        if self.family == "mixing" and kind == "gamma":
            r = self.ratio
            return (1.0 + r * lam * t) / (r * lam * (p["a"] - 1.0))
        if kind == "mo15":
            xi_t = p["xi"] * math.exp(lam * t)
            return special.exp1(xi_t) * math.exp(xi_t) / lam
        if self.family == "mixing" and kind == "positive_stable":
            # F(z, z) = exp(-(c z)^a): e^{(ct)^a} Gamma(1/a, (ct)^a) / (a c)
            a, c = p["a"], self.ratio * lam
            w = (c * t) ** a
            return math.exp(w) * special.gammaincc(1.0 / a, w) * special.gamma(1.0 / a) / (a * c)
        return quad_half_line(lambda z: float(self.residual(t, z, z)), self.lam)

    def joint_annuity(self, t: float) -> float:
        """integral_t^inf F(z, z) dz = F(t, t) * residual joint annuity."""
        return float(self.fbar(t, t)) * self.residual_joint_annuity(t)

    def independent_annuity(self, t: float) -> float:
        return quad_half_line(lambda z: float(self.margin(1, z + t) * self.margin(2, z + t)), self.lam)

    def residual_independent_annuity(self, t: float) -> float:
        return quad_half_line(
            lambda z: float(self.residual_margin(1, t, z) * self.residual_margin(2, t, z)), self.lam
        )

    def mean_excess(self, i: int, t: float) -> float:
        return quad_half_line(lambda z: float(self.residual_margin(i, t, z)), self.lam)

    def life_expectancy(self, i: int, horizon=None) -> float:
        if horizon is None:
            return quad_half_line(lambda z: float(self.margin(i, z)), self.lam)
        return quad_interval(lambda z: float(self.margin(i, z)), 0.0, horizon)


def quad_interval(f, a: float, b: float) -> float:
    value, _ = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=500)
    return value


def quad_half_line(f, lam: float) -> float:
    """integral_0^inf f, split at a few mean lifetimes so slow tails stay accurate."""
    cuts = [0.0, 1.0 / lam, 5.0 / lam, 25.0 / lam]
    total = sum(quad_interval(f, a, b) for a, b in zip(cuts, cuts[1:]))
    tail, _ = integrate.quad(f, cuts[-1], math.inf, epsabs=1e-13, epsrel=1e-11, limit=500)
    return total + tail


# The paper's Table 1: net single premiums of the deferred joint-life annuity
# and of its independence counterpart, for the two Figure 1 parameter sets,
# integrated to a limiting age of 100 years.  The published parameters are
# rounded, so agreement is to 1% relative.
TABLE1 = {
    "fig1_left": {
        (0.0, "joint"): 27.2170, (10.0, "joint"): 18.4047, (20.0, "joint"): 11.8301,
        (0.0, "independent"): 25.7805, (10.0, "independent"): 16.9899, (20.0, "independent"): 10.5226,
    },
    "fig1_right": {
        (0.0, "joint"): 24.0691, (10.0, "joint"): 15.4105, (20.0, "joint"): 9.2493,
        (0.0, "independent"): 25.2736, (10.0, "independent"): 16.6022, (20.0, "independent"): 10.3524,
    },
}
TABLE1_HORIZON = 100.0
TABLE1_RTOL = 0.01
# Published life expectancies of the two margins of fig1_left (limiting age 100).
LIFE_EXPECTANCY_FIG1_LEFT = (39.5, 43.4)

"""Output checks of the benchmark.

Each check takes the program's outputs and an independent expectation (from
ref.py, a published value or a brute-force count) or a property the method
must have, and returns a list of problems; an empty list means it passed.
Nothing here imports bivlmp.

Statistical checks are sized from finite-sample inequalities, not normal
approximations, at a false-alarm probability of ALPHA per comparison.  A run
makes a few hundred comparisons, so its family-wise false-alarm rate stays
below 1e-7 for any seed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

ALPHA = 1e-10


def _log_term(alpha: float = ALPHA) -> float:
    return math.log(2.0 / alpha)


def bernstein_eps(n: int, p: float, alpha: float = ALPHA) -> float:
    """Half-width e with P(|mean of n Bernoulli(p) - p| >= e) <= alpha (Bernstein)."""
    L = _log_term(alpha)
    var = max(p * (1.0 - p), 0.0)
    return (2.0 * L / 3.0 + math.sqrt((2.0 * L / 3.0) ** 2 + 8.0 * n * L * var)) / (2.0 * n)


def dkw_eps(n: int, alpha: float = ALPHA) -> float:
    """Dvoretzky-Kiefer-Wolfowitz half-width for an empirical CDF of n iid values."""
    return math.sqrt(_log_term(alpha) / (2.0 * n))


def hoeffding_tau_eps(n: int, alpha: float = ALPHA) -> float:
    """Hoeffding half-width for the sample Kendall tau, a U-statistic with kernel in [-1, 1]."""
    return math.sqrt(2.0 * _log_term(alpha) / (n // 2))


def close(got, want, rtol: float, what: str, atol: float = 0.0) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    both_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        err = np.abs(got - want)
        ok = np.isfinite(got) & np.isfinite(want) & (err <= atol + rtol * np.abs(want))
    bad = ~(ok | both_inf)
    if np.any(bad):
        i = int(np.argmax(np.where(bad, err, -1.0)))
        return [f"{what}: {got.flat[i]!r} vs {want.flat[i]!r} (rtol {rtol:g}, atol {atol:g})"]
    return []


def survival_grid(x, y, points, p_ref, what: str) -> list:
    """Empirical joint survival of the pairs (x, y) at each point vs the reference."""
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.size
    out = []
    for (a, b), p in zip(points, p_ref):
        hat = float(np.count_nonzero((x > a) & (y > b))) / n
        if abs(hat - p) > bernstein_eps(n, p):
            out.append(f"{what}: survival at ({a:.4g}, {b:.4g}) is {hat:.5f}, model {p:.5f}, n={n}")
    return out


def atom_share(atom, x, y, p0: float, what: str) -> list:
    """Atom rows lie on the diagonal and their share matches P(X = Y)."""
    atom = np.asarray(atom, dtype=bool)
    out = []
    if not np.array_equal(np.asarray(x)[atom], np.asarray(y)[atom]):
        out.append(f"{what}: an atom row has x != y")
    n = atom.size
    share = float(np.count_nonzero(atom)) / n
    if p0 == 0.0:
        if share != 0.0:
            out.append(f"{what}: atom share {share} but P(X = Y) = 0")
    elif abs(share - p0) > bernstein_eps(n, p0):
        out.append(f"{what}: atom share {share:.5f} vs P(X = Y) {p0:.5f}, n={n}")
    return out


def two_sample_survival(x1, y1, x2, y2, points, p_ref, what: str) -> list:
    """Two independent samples of one model agree at each point."""
    n1, n2 = np.size(x1), np.size(x2)
    out = []
    for (a, b), p in zip(points, p_ref):
        h1 = float(np.count_nonzero((x1 > a) & (y1 > b))) / n1
        h2 = float(np.count_nonzero((x2 > a) & (y2 > b))) / n2
        # each side within its own Bernstein half-width at alpha/2
        if abs(h1 - h2) > bernstein_eps(n1, p, ALPHA / 2) + bernstein_eps(n2, p, ALPHA / 2):
            out.append(f"{what}: survival at ({a:.4g}, {b:.4g}) {h1:.5f} vs {h2:.5f}")
    return out


def kendall_dkw(fbar_at_sample, s_grid, k_model, what: str) -> list:
    """K_0(s) = P(F(X, Y) <= s): the CDF of F at the sample points vs the model's K_0 (DKW)."""
    v = np.sort(np.asarray(fbar_at_sample, dtype=float))
    n = v.size
    ecdf = np.searchsorted(v, np.asarray(s_grid), side="right") / n
    dev = np.max(np.abs(ecdf - np.asarray(k_model)))
    if dev > dkw_eps(n):
        return [f"{what}: CDF of F(X, Y) is {dev:.4f} from K_0 (DKW bound {dkw_eps(n):.4f}, n={n})"]
    return []


def sample_tau(x, y, tau_model: float, what: str) -> list:
    """The sample's Kendall tau (scipy) vs the model's tau at age 0 (Hoeffding)."""
    n = np.size(x)
    tau_hat = stats.kendalltau(x, y).statistic
    if abs(tau_hat - tau_model) > hoeffding_tau_eps(n):
        return [f"{what}: sample tau {tau_hat:.4f} vs model {tau_model:.4f} (n={n})"]
    return []


# sqrt(n) sup_s |K_n(s) - K_0(s)| of the empirical Kendall estimator had mean
# 0.5, standard deviation 0.15 and maximum 0.8 over 36 seeded samples
# (n = 2e3 and 4e4, identity_mu and mixing_gamma); the bound is 17 standard
# deviations above the mean.
KENDALL_ESTIMATOR_BOUND = 3.0


def kendall_estimate(k_hat, k_model, n: int, what: str) -> list:
    """The empirical Kendall curve is a CDF on the grid and within 3/sqrt(n) of K_0."""
    k_hat = np.asarray(k_hat)
    out = []
    if np.any(np.diff(k_hat) < 0) or k_hat[0] < 0 or k_hat[-1] > 1:
        out.append(f"{what}: the curve is not a CDF on the grid")
    dev = float(np.max(np.abs(k_hat - np.asarray(k_model))))
    if dev > KENDALL_ESTIMATOR_BOUND / math.sqrt(n):
        out.append(f"{what}: {dev:.4f} from K_0 (bound {KENDALL_ESTIMATOR_BOUND / math.sqrt(n):.4f}, n={n})")
    return out


def concordance_counts(x, y) -> np.ndarray:
    """O(n^2) count, for each i, of the j with x_j > x_i and y_j > y_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.array([np.count_nonzero((x > xi) & (y > yi)) for xi, yi in zip(x, y)])


def count_grid(n: int) -> list:
    """Every value c/(n-1) a concordance share can take: the curve on it fixes all counts."""
    return [c / (n - 1.0) for c in range(n)]


def concordance_curve(counts, n: int, s_grid) -> list:
    w = np.asarray(counts) / (n - 1.0)
    return [float(np.mean(w <= s)) for s in s_grid]


def empirical_kendall_exact(curve, x, y, what: str) -> list:
    """empirical_kendall on the count grid equals the brute-force curve exactly."""
    n = np.size(x)
    grid = count_grid(n)
    want = concordance_curve(concordance_counts(x, y), n, grid)
    got = [float(k) for k in curve]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        return [f"{what}: K_n at s={grid[i]:.6f} is {got[i]!r}, brute force {want[i]!r}"]
    return []


def kendall_curves(s, closed, quad, what: str) -> list:
    """Closed and quadrature K_t agree to 1e-6; s <= K_t <= 1 and K_t is nondecreasing."""
    s = np.asarray(s)
    closed = np.asarray(closed)
    quad = np.asarray(quad)
    out = []
    diff = float(np.max(np.abs(closed - quad)))
    if not diff <= 1e-6:
        out.append(f"{what}: closed and quadrature K_t differ by {diff:.3e}")
    for name, k in (("closed", closed), ("quadrature", quad)):
        if np.any(k < s - 1e-12) or np.any(k > 1.0 + 1e-12):
            out.append(f"{what}: {name} K_t leaves [s, 1]")
        if np.any(np.diff(k) < -1e-12):
            out.append(f"{what}: {name} K_t decreases")
    return out


def copula_grid(u, v, c, what: str, tol: float = 1e-9) -> list:
    """C on the grid u x v (u, v sorted, ending at 1): Frechet bounds, margins, 2-increasing."""
    u = np.asarray(u)
    v = np.asarray(v)
    c = np.asarray(c)
    U, V = np.meshgrid(u, v, indexing="ij")
    out = []
    if np.any(c > np.minimum(U, V) + tol) or np.any(c < np.maximum(U + V - 1.0, 0.0) - tol):
        out.append(f"{what}: C_t leaves the Frechet bounds")
    if u[-1] == 1.0 and np.max(np.abs(c[-1, :] - v)) > tol:
        out.append(f"{what}: C_t(1, v) != v")
    if v[-1] == 1.0 and np.max(np.abs(c[:, -1] - u)) > tol:
        out.append(f"{what}: C_t(u, 1) != u")
    mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    if np.min(mass) < -tol:
        out.append(f"{what}: rectangle mass {np.min(mass):.3e} < 0")
    return out


def table1(rows, published: dict, rtol: float) -> list:
    """rows: (model, t, kind, computed) against the published premiums."""
    out = []
    seen = set()
    for name, t, kind, value in rows:
        want = published[name][(float(t), kind)]
        seen.add((name, float(t), kind))
        if not abs(value - want) <= rtol * abs(want):
            out.append(f"table 1 {name} t={t:g} {kind}: {value:.4f} vs published {want:.4f}")
    expected = {(name, t, kind) for name, cells in published.items() for t, kind in cells}
    if seen != expected:
        out.append(f"table 1: {len(seen)} cells computed, {len(expected)} published")
    return out


def parse_sample_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "x,y,atom":
        raise ValueError("sample CSV header is not 'x,y,atom'")
    rows = [line.split(",") for line in lines[1:]]
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    atom = np.array([r[2] == "1" for r in rows])
    return x, y, atom


def sample_csv(text: str, x, y, atom, what: str) -> list:
    """The CLI's CSV holds exactly the library's draws, and atom rows have x == y."""
    try:
        cx, cy, ca = parse_sample_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"{what}: unreadable CSV ({exc})"]
    out = []
    if not np.array_equal(cx[ca], cy[ca]):
        out.append(f"{what}: an atom row has x != y")
    if not (np.array_equal(cx, x) and np.array_equal(cy, y) and np.array_equal(ca, atom)):
        out.append(f"{what}: CSV rows differ from the library's draws at the same seed")
    return out

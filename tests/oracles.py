"""Closed forms the tests check the program against."""

import math

import numpy as np

from bivlmp.errors import DomainError
from bivlmp.model import copula_t, copula_t_diag_log


def mixing_mgf(law, u):
    """M_Z(u) = E[e^{uZ}], u <= 0, of a MixingLaw's factor Z."""
    p = law.params
    u = np.asarray(u, dtype=float)
    if law.kind == "gamma":
        return (1.0 - u) ** (-p["a"])
    if law.kind == "positive_stable":
        return np.exp(-np.abs(u) ** p["a"])
    if law.kind == "sibuya":
        return 1.0 - (-np.expm1(u)) ** p["a"]
    theta = p["theta"]
    return np.log1p(theta * np.exp(u)) / math.log1p(theta)


def solve_decreasing_batch(fn, targets, start=1.0, args=()):
    """numerics.solve_decreasing_batch by scipy's elementwise bracket_root and find_root (Chandrupatla)."""
    from scipy.optimize import elementwise

    targets = np.asarray(targets, dtype=float)

    def residual(d, target, *rest):
        return fn(d, *rest) - target

    flat = tuple(np.broadcast_to(a, targets.shape).ravel() for a in (targets, *args))
    bracket = elementwise.bracket_root(residual, 0.0, start, xmin=0.0, args=flat)
    res = elementwise.find_root(residual, bracket.bracket, args=flat)
    if np.any((bracket.status != 0) | (res.status != 0)):
        raise AssertionError("the scipy oracle failed to solve")
    return res.x.reshape(targets.shape)


def limit_at_zero_scalar(g, u0, tol, budget):
    """numerics.limit_at_zero as a scalar sequence: one g(u) per step, stopping at the first converged step.

    Returns (value, sequence_tail, converged), or raises what g raises, or
    DomainError for a non-finite g(u).
    """
    raw, acc = [], []
    for k in range(budget):
        u = u0 * 2.0 ** (-k)
        if u == 0.0:
            break
        v = g(u)
        if math.isnan(v) or math.isinf(v):
            raise DomainError(f"g({u!r}) is not finite")
        raw.append(v)
        if len(raw) >= 3:
            a0, a1, a2 = raw[-3], raw[-2], raw[-1]
            denom = a2 - 2.0 * a1 + a0
            acc.append(a2 - (a2 - a1) ** 2 / denom if denom != 0.0 else a2)
            if len(acc) >= 3:
                d1 = abs(acc[-1] - acc[-2])
                d2 = abs(acc[-2] - acc[-3])
                if d1 <= tol and d1 <= d2 + tol:
                    return acc[-1], acc[-6:], True
    if acc:
        return acc[-1], acc[-6:], False
    return (raw[-1] if raw else math.nan), raw[-6:], False


def tail_numeric_scalar(m, t, which, tol=1e-4):
    """dependence.tail_numeric's limit, unclipped, from one scalar copula call per point of the sequence."""
    if which == "lower":
        def g(u):
            return math.exp(copula_t_diag_log(m, t, math.log(u)) - math.log(u))

        return limit_at_zero_scalar(g, 2.0**-6, tol, 36)

    def g(eps):
        u = 1.0 - eps
        return (float(copula_t(m, t, u, u)) - (2.0 * u - 1.0)) / eps

    return limit_at_zero_scalar(g, 2.0**-6, tol, 30)


def concordance_counts_by_search(x, y):
    """dependence._concordance_counts by the block-pair merge with one searchsorted per level.

    In descending x, ties broken by ascending y, the count of a point is the
    number of earlier points with a higher y rank.  Level by level, each point
    in the right half of a block pair counts them in the left half by
    searchsorted on the ranks sorted within blocks (keys block * n + rank).
    """
    n = x.size
    order = np.lexsort((y, -x))
    rank = np.unique(y, return_inverse=True)[1][order]
    pos = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    size = 1
    while size < n:
        block = pos // size
        keys = np.sort(block * n + rank)
        right = block % 2 == 1
        left = block[right] - 1
        counts[right] += (left + 1) * size - np.searchsorted(keys, left * n + rank[right], side="right")
        size *= 2
    out = np.empty(n, dtype=np.int64)
    out[order] = counts
    return out

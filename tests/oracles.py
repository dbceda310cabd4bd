"""Closed forms the tests check the program against."""

import math

import numpy as np


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

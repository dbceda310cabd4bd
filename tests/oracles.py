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

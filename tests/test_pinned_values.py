"""Published mixing_gamma values, pinned bit for bit as float.hex.

A change meant to leave every value as it was (a faster kernel, a reordered
check) must keep these bits; a change meant to move a value changes this file
with it.  The values cover every integral route: the quadrature tau_t, K_t by
the closed and the quadrature route, the four annuities, the mean residual
lives, the life expectancies and a premium row.
"""

import pytest

from bivlmp import dependence, model, pricing
from bivlmp.config import builtin_models

M = builtin_models()["mixing_gamma"]
T = 2.0 / M.lam  # lambda t = 2

PINNED = {
    "kendall_tau": (lambda: dependence.kendall_tau(M, T), "0x1.cf076da7dff1cp-1"),
    "K_t(0.05) closed": (lambda: dependence.kendall_function(M, T, [0.05]).k_values()[0], "0x1.a13b818a110c4p-5"),
    "K_t(0.15) closed": (lambda: dependence.kendall_function(M, T, [0.15]).k_values()[0], "0x1.3d1d65fa5a1bfp-3"),
    "K_t(0.15) quadrature": (lambda: dependence.kendall_function(M, T, [0.15], source="quadrature").k_values()[0],
                             "0x1.3d1d65fa5a1c1p-3"),
    "joint_annuity": (lambda: pricing.joint_annuity(M, T), "0x1.4d55555555555p+6"),
    "independent_annuity": (lambda: pricing.independent_annuity(M, T), "0x1.4b376b2901019p+4"),
    "residual_joint_annuity": (lambda: pricing.residual_joint_annuity(M, T), "0x1.dffffffffffffp+6"),
    "residual_independent_annuity": (lambda: pricing.residual_independent_annuity(M, T), "0x1.51f72e87d32d8p+5"),
    "mean_excess 1": (lambda: model.mean_excess(M, 1, T), "0x1.ec7dba8bc045fp+6"),
    "mean_excess 2": (lambda: model.mean_excess(M, 2, T), "0x1.e7c7c4a23e7e8p+6"),
    "life_expectancy 1": (lambda: pricing.life_expectancy(M, 1), "0x1.9c3502073f886p+6"),
    "life_expectancy 2": (lambda: pricing.life_expectancy(M, 2), "0x1.97990978c6a9dp+6"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_published_value_keeps_its_bits(name):
    call, bits = PINNED[name]
    assert float(call()).hex() == bits


def test_premium_row_keeps_its_bits():
    row = pricing.premium_table(M, [0.5 / M.lam])[0]  # lambda t = 0.5
    assert [v.hex() for v in (row.t, row.premium_joint, row.premium_independent)] == [
        "0x1.4000000000000p+2", "0x1.7cf3cf3cf3cf3p+6", "0x1.eda4bcca1c36cp+4"]

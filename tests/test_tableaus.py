"""Tests for the built-in additive Runge-Kutta tableau pairs."""

from dataclasses import replace

import numpy as np
import pytest

from imexest.tableaus import (
    BUILTIN_NAMES,
    ButcherTableau,
    ImexPair,
    builtin,
    pair_to_dict,
    validate,
)

GAMMA = 1.0 - 1.0 / np.sqrt(2.0)


def test_builtin_names_cover_three_schemes():
    assert len(BUILTIN_NAMES) == 3
    assert "Mid(1,2,2)" in BUILTIN_NAMES


def test_midpoint_entries():
    pair = builtin("mid122")
    assert pair.order == 2
    assert pair.n_stages == 2
    np.testing.assert_allclose(pair.explicit.abscissae, [0.0, 0.5])
    np.testing.assert_allclose(pair.explicit.coeffs, [[0.0, 0.0], [0.5, 0.0]])
    np.testing.assert_allclose(pair.explicit.weights, [0.0, 1.0])
    np.testing.assert_allclose(pair.implicit.abscissae, [0.0, 0.5])
    np.testing.assert_allclose(pair.implicit.coeffs, [[0.0, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(pair.implicit.weights, [0.0, 1.0])


def test_ssp332_entries():
    pair = builtin("ssp332")
    assert pair.order == 2
    assert pair.n_stages == 3
    np.testing.assert_allclose(
        pair.implicit.abscissae, [GAMMA, 1.0 - GAMMA, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        pair.implicit.coeffs[1], [1.0 - 2.0 * GAMMA, GAMMA, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        pair.implicit.weights, [1 / 6, 1 / 6, 2 / 3], atol=1e-15
    )


def test_ssp343_entries():
    alpha = 0.24169426078821
    beta = 0.06042356519705
    eta = 0.12915286960590
    pair = builtin("ssp343")
    assert pair.order == 3
    assert pair.n_stages == 4
    np.testing.assert_allclose(
        pair.implicit.coeffs[3],
        [beta, eta, 0.5 - beta - eta - alpha, alpha],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        pair.implicit.weights, [0.0, 1 / 6, 1 / 6, 2 / 3], atol=1e-15
    )


def test_builtin_aliases_agree():
    for name, alias in (("Mid(1,2,2)", "midpoint"), ("SSP3(3,3,2)", "ssp332"),
                        ("SSP3(4,3,3)", "ssp433")):
        assert pair_to_dict(builtin(name)) == pair_to_dict(builtin(alias))


def test_builtin_unknown_name_lists_options():
    with pytest.raises(ValueError, match="built-ins"):
        builtin("rk4")


def test_validate_builtin_pairs_clean():
    for name in BUILTIN_NAMES:
        assert validate(builtin(name)) == []


def test_validate_flags_duplicate_implicit_abscissae():
    base = builtin("mid122")
    bad = ImexPair(
        name="dup",
        order=2,
        explicit=base.explicit,
        implicit=ButcherTableau(
            abscissae=np.array([0.5, 0.5]),
            coeffs=np.array([[0.5, 0.0], [0.0, 0.5]]),
            weights=np.array([0.0, 1.0]),
        ),
    )
    report = validate(bad)
    assert any("duplicate implicit abscissae" in item for item in report)


def test_validate_flags_non_strictly_lower_explicit():
    base = builtin("mid122")
    bad = ImexPair(
        name="diag",
        order=2,
        explicit=ButcherTableau(
            abscissae=np.array([1.0, 0.5]),
            coeffs=np.array([[1.0, 0.0], [0.5, 0.0]]),
            weights=np.array([0.0, 1.0]),
        ),
        implicit=base.implicit,
    )
    report = validate(bad)
    assert any("strictly lower triangular" in item for item in report)


def test_validate_flags_weights_not_summing_to_one():
    base = builtin("mid122")
    bad = ImexPair(
        name="wsum",
        order=2,
        explicit=ButcherTableau(
            abscissae=np.array([0.0, 0.5]),
            coeffs=np.array([[0.0, 0.0], [0.5, 0.0]]),
            weights=np.array([0.0, 0.9]),
        ),
        implicit=base.implicit,
    )
    report = validate(bad)
    assert any("sum" in item for item in report)


MID = builtin("mid122")


@pytest.mark.parametrize("bad, defect", [
    (replace(MID, implicit=builtin("ssp332").implicit),
     "stage count mismatch: explicit 2 vs implicit 3"),
    (replace(MID, order=0), "order must be a positive integer, got 0"),
    (replace(MID, implicit=ButcherTableau(
        abscissae=[0.0, 0.5], coeffs=[[-0.5, 0.5], [0.0, 0.5]],
        weights=[0.0, 1.0])), "B not lower triangular (row 0, col 1)"),
    (replace(MID, explicit=ButcherTableau(
        abscissae=[0.0, 0.6], coeffs=[[0.0, 0.0], [0.5, 0.0]],
        weights=[0.0, 1.0])), "explicit row sum mismatch at row 1"),
], ids=["stage-count", "order", "implicit-upper", "row-sum"])
def test_validate_names_each_defect(bad, defect):
    assert any(item.startswith(defect) for item in validate(bad))


def test_validate_is_pure():
    pair = builtin("ssp332")
    assert validate(pair) == validate(pair)


def test_weight_moment_zero_is_one():
    for name in BUILTIN_NAMES:
        pair = builtin(name)
        assert pair.explicit.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert pair.implicit.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_weight_moment_first_moment_half_on_implicit_abscissae():
    # both weight vectors against the implicit abscissae: second-order
    # consistency of the two stage quadratures
    for name in BUILTIN_NAMES:
        pair = builtin(name)
        d = pair.implicit.abscissae
        assert pair.explicit.weights @ d == pytest.approx(0.5, abs=1e-14)
        assert pair.implicit.weights @ d == pytest.approx(0.5, abs=1e-14)


def test_weight_moment_midpoint_hand_values():
    pair = builtin("mid122")
    assert pair.explicit.weights @ pair.implicit.abscissae == pytest.approx(0.5)
    # ssp332 implicit hand sum: gamma/6 + (1 - gamma)/6 + (1/2)(2/3)
    ssp = builtin("ssp332")
    hand = GAMMA / 6 + (1 - GAMMA) / 6 + 0.5 * (2 / 3)
    assert ssp.implicit.weights @ ssp.implicit.abscissae == pytest.approx(
        hand, abs=1e-15)


def test_abscissae_match_row_sums():
    for name in BUILTIN_NAMES:
        pair = builtin(name)
        for tab in (pair.explicit, pair.implicit):
            np.testing.assert_allclose(
                tab.coeffs.sum(axis=1), tab.abscissae, atol=1e-15
            )


def test_tableaus_immutable():
    pair = builtin("mid122")
    with pytest.raises(Exception):
        pair.explicit.weights[0] = 3.0

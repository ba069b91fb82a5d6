"""Tests for the finite-blocklength error model and its linear surrogate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.fbl import (
    CodeSpec,
    linearization_params,
    psi_exact_vec,
    psi_linear,
)

# the two working points used throughout: a rate-3 control code and a
# rate-1 payload code, both over 100 channel uses
CODE_C = CodeSpec(m=100, bits=300)
CODE_E = CodeSpec(m=100, bits=100)


def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(m=0, bits=100)
    with pytest.raises(ValueError):
        CodeSpec(m=100, bits=0)
    with pytest.raises(ValueError):
        CodeSpec(m=-5, bits=10)
    assert CODE_C.rate == 3.0
    assert CODE_E.rate == 1.0


def test_linearization_frozen_values():
    lin_c = linearization_params(CODE_C)
    assert lin_c.beta == pytest.approx(7.0, abs=1e-12)
    assert lin_c.delta == pytest.approx(0.05026200292434228, rel=1e-14)
    assert lin_c.v == pytest.approx(6.005212743406519, rel=1e-14)
    assert lin_c.u == pytest.approx(7.994787256593481, rel=1e-14)

    lin_e = linearization_params(CODE_E)
    assert lin_e.beta == pytest.approx(1.0, abs=1e-12)
    assert lin_e.delta == pytest.approx(0.23032943298089034, rel=1e-14)
    assert lin_e.v == pytest.approx(0.7829196236325198, rel=1e-14)
    assert lin_e.u == pytest.approx(1.2170803763674802, rel=1e-14)


@settings(max_examples=60)
@given(st.integers(min_value=10, max_value=2000), st.integers(min_value=1, max_value=1200))
def test_linearization_knee_width_identity(m, bits):
    # the ramp width is pinned to the slope: delta*sqrt(m)*(u - v) = 1
    lin = linearization_params(CodeSpec(m=m, bits=bits))
    assert lin.delta * math.sqrt(m) * (lin.u - lin.v) == pytest.approx(1.0, rel=1e-12)
    assert lin.v < lin.beta < lin.u


def test_psi_exact_anchors():
    # capacity equals rate exactly at beta, where the error probability is 1/2
    assert psi_exact_vec(7.0, CODE_C) == pytest.approx(0.5, abs=1e-14)
    assert psi_exact_vec(1.0, CODE_E) == pytest.approx(0.5, abs=1e-14)
    assert psi_exact_vec(0.0, CODE_C) == 1.0
    assert psi_exact_vec(1e9, CODE_C) == 0.0
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            psi_exact_vec(np.array([1.0, bad]), CODE_C)


def test_psi_exact_monotone_and_bounded():
    vals = psi_exact_vec(np.geomspace(1e-6, 1e4, 300), CODE_C)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 0.0)


# (gamma, psi) for CODE_E, frozen from mpmath at 50 digits:
# erfc((log2(1+g) - rate) / sqrt(V(g)/m) / sqrt(2)) / 2
_PSI_REFERENCE = (
    (1e-09, 1.0),
    (0.1, 1.0),
    (0.3, 0.9999999999921794),
    (0.5, 0.9999432275574693),
    (0.7, 0.9777662558924132),
    (0.9, 0.7268272389974321),
    (1.0, 0.5),
    (1.1, 0.28949915887862665),
    (1.3, 0.06033265063461206),
    (1.6, 0.0022396099605963477),
    (2.0, 8.51654848353687e-06),
    (2.5, 2.6166018952635767e-09),
    (3.0, 4.0695148989333603e-13),
    (4.0, 4.306265733672078e-21),
    (6.0, 5.087346284111937e-37),
    (10.0, 5.41371985771503e-66),
    (16.0, 2.9687589348207716e-102),
    (25.0, 1.3146005120166958e-145),
    (40.0, 7.936330560642077e-201),
    (60.0, 2.249057369419233e-256),
    (75.0, 4.571199912595138e-290),
)


def test_psi_exact_vec_reference_values():
    grid, reference = (np.array(col) for col in zip(*_PSI_REFERENCE))
    vec = psi_exact_vec(grid, CODE_E)
    body = reference > 1e-12
    np.testing.assert_allclose(vec[body], reference[body], rtol=1e-13, atol=0.0)
    # the far tail (down to 1e-300) keeps nearly full relative accuracy
    np.testing.assert_allclose(vec[~body], reference[~body], rtol=1e-12, atol=0.0)


def test_psi_exact_vec_handles_zero_block():
    out = psi_exact_vec(np.zeros(5), CODE_C)
    assert out.tolist() == [1.0] * 5


def test_psi_linear_shape():
    lin = linearization_params(CODE_C)
    eps = 1e-9
    assert psi_linear(lin.v - eps, lin) == 1.0
    assert psi_linear(lin.u + eps, lin) == 0.0
    assert psi_linear(lin.beta, lin) == pytest.approx(0.5, abs=1e-12)
    # affine on the ramp: midpoint of (v, beta) sits at 3/4
    assert psi_linear(0.5 * (lin.v + lin.beta), lin) == pytest.approx(0.75, abs=1e-9)


@settings(max_examples=40)
@given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=20.0))
def test_psi_linear_monotone(g1, g2):
    lin = linearization_params(CODE_E)
    lo, hi = sorted((g1, g2))
    assert psi_linear(lo, lin) >= psi_linear(hi, lin)


def test_surrogate_gap_frozen():
    # worst-case |exact - linear| over a dense grid around the ramp; these
    # levels are what the closed-form averages inherit as model error
    for code, frozen in ((CODE_C, 0.1191291566608661), (CODE_E, 0.1241343776705385)):
        lin = linearization_params(code)
        grid = np.linspace(max(lin.v - 1.0, 0.0), lin.u + 1.0, 20001)
        exact = psi_exact_vec(grid, code)
        gap = max(abs(e - psi_linear(float(g), lin)) for g, e in zip(grid, exact))
        assert gap == pytest.approx(frozen, abs=2e-3)
        assert gap < 0.15

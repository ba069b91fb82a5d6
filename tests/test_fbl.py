"""Tests for the finite-blocklength error model and its linear surrogate."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc as scipy_erfc

from risnoma.channel import REFERENCE, SystemConfig
from risnoma.fbl import (
    _GAMMA_FLOOR,
    CodeSpec,
    linearization_params,
    psi_exact_vec,
    psi_linear,
)
from risnoma.montecarlo import _metric_sums

# the two working points used throughout: the reference system's rate-3
# control code and rate-1 payload code, both over 100 channel uses
CODE_C, CODE_E = REFERENCE.code_c, REFERENCE.code_e


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


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=1, max_value=10**60))
def test_code_spec_accepts_only_codes_with_a_finite_linearization(m, bits):
    # m = 10**50 once divided by zero and bits/m = 1e7 overflowed
    try:
        code = CodeSpec(m=m, bits=bits)
    except ValueError:
        return
    lin = linearization_params(code)
    assert all(math.isfinite(x) for x in (lin.beta, lin.delta, lin.v, lin.u))
    assert 0.0 < lin.beta and 0.0 < lin.delta
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


def _reference_q_arg(gl: np.ndarray, code: CodeSpec) -> np.ndarray:
    """The Q argument (C - rate) / sqrt(V / m) at SINRs at or above the floor."""
    r = 1.0 + gl
    cap = np.log2(r)
    with np.errstate(over="ignore"):  # r * r past 1e154
        disp = (math.log2(math.e) ** 2) * (1.0 - 1.0 / (r * r))
    return (cap - code.rate) * np.sqrt(code.m / disp)


def _reference_psi_exact_vec(gamma, code: CodeSpec) -> np.ndarray:
    """The masked two-pass psi that the in-place kernel replaced.

    Entries below the floor are 1; the rest are gathered, evaluated in
    fresh temporaries and scattered back.  Kept here as the bitwise
    reference for the kernel.
    """
    g = np.asarray(gamma, dtype=np.float64)
    if not np.all(g >= 0.0):
        raise ValueError("SINR must be >= 0 and not NaN")
    out = np.ones(g.shape, dtype=np.float64)
    live = g >= _GAMMA_FLOOR
    if not np.any(live):
        return out
    arg = _reference_q_arg(g[live], code)
    np.clip(arg, -38.0, 38.0, out=arg)
    out[live] = 0.5 * scipy_erfc(arg / math.sqrt(2.0))
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _quiet_psi(gamma, code: CodeSpec) -> np.ndarray:
    # the kernel must not warn on any valid input, overflow included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return psi_exact_vec(gamma, code)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# exact zeros (both signs), values below and at the floor, the whole
# ordinary range, and values whose r * r overflows
_SPECIAL_SINRS = np.array(
    [0.0, -0.0, 1e-300, 1e-17, 1e-13, _GAMMA_FLOOR, 2e-12, 1e-9, 1e-3, 0.5, 1.0,
     7.0, 1e3, 1e9, 1e154, 1e200, 1e300, math.inf]
)


@pytest.mark.parametrize(
    "code",
    # at m = 1e12 the formula below the floor no longer clips to psi = 1,
    # so only the floor's limit value keeps the reference's 1
    [CODE_C, CODE_E, CodeSpec(m=37, bits=11), CodeSpec(m=2000, bits=6000),
     CodeSpec(m=10**12, bits=1)],
    ids=lambda c: f"m{c.m}-n{c.bits}",
)
def test_psi_kernel_matches_masked_reference_bitwise(code):
    rng = np.random.default_rng(20261018)
    _assert_same_bits(_quiet_psi(_SPECIAL_SINRS, code), _reference_psi_exact_vec(_SPECIAL_SINRS, code))
    # the kernel does not clip the Q argument, the reference clips it at
    # +-38.  SINRs whose Q argument lies in [37, 39] or [-39, -37] cover the
    # clip and erfc's underflow band, where psi runs through the subnormals
    # to 0 (Q argument 37.55 to 37.68).  At m = 1e12 no SINR at or above
    # the floor has a negative Q argument
    grid = np.logspace(-12.0, 13.0, 250_001)
    z = _reference_q_arg(grid, code)
    high = grid[(37.0 <= z) & (z <= 39.0)]
    low = grid[(-39.0 <= z) & (z <= -37.0)]
    want_high = _reference_psi_exact_vec(high, code)
    assert (want_high == 0.0).any()
    assert ((0.0 < want_high) & (want_high < np.finfo(np.float64).tiny)).any()
    assert low.size > 0 or code.m == 10**12
    _assert_same_bits(_quiet_psi(high, code), want_high)
    _assert_same_bits(_quiet_psi(low, code), _reference_psi_exact_vec(low, code))
    for size in (1, 7, 64, 4096):
        for _ in range(8):
            # ordinary SINRs over twelve decades, salted with special values
            g = 10.0 ** rng.uniform(-4.0, 8.0, size)
            salt = rng.random(size) < 0.2
            g[salt] = rng.choice(_SPECIAL_SINRS, salt.sum())
            _assert_same_bits(_quiet_psi(g, code), _reference_psi_exact_vec(g, code))


@pytest.mark.parametrize("gamma", [0.0, 1e-13, 0.9, 7.0, 1e300, math.inf])
def test_psi_kernel_zero_dim_input(gamma):
    for code in (CODE_C, CODE_E):
        for arg in (gamma, np.float64(gamma), np.array(gamma)):
            got = _quiet_psi(arg, code)
            assert got.shape == ()
            _assert_same_bits(got, _reference_psi_exact_vec(gamma, code))


def test_psi_kernel_empty_and_2d_input():
    _assert_same_bits(_quiet_psi(np.empty(0), CODE_C), np.empty(0))
    _assert_same_bits(_quiet_psi([], CODE_E), np.empty(0))
    _assert_same_bits(_quiet_psi(np.empty((3, 0)), CODE_E), np.empty((3, 0)))
    g = np.concatenate([_SPECIAL_SINRS, _SPECIAL_SINRS[::-1]]).reshape(4, 9)
    for grid in (g, g.T, np.asfortranarray(g)):
        for code in (CODE_C, CODE_E):
            _assert_same_bits(_quiet_psi(grid, code), _reference_psi_exact_vec(grid, code))


@pytest.mark.parametrize(
    "bad",
    [math.nan, -1e-300, -1.0, -math.inf, [1.0, math.nan], [[1.0, 2.0], [-0.5, 3.0]],
     [math.inf, math.nan, 0.0]],
)
def test_psi_kernel_refuses_negative_and_nan(bad):
    with pytest.raises(ValueError, match="SINR must be >= 0 and not NaN"):
        psi_exact_vec(bad, CODE_E)


def _reference_metric_sums(gains, cfg: SystemConfig):
    """_metric_sums with SC through its own psi call at max(g_e1, g_e2)."""
    gain_t, gain_z, gain_w = gains
    a_c_rho = cfg.alpha_c * cfg.rho_s
    a_e_rho = cfg.alpha_e * cfg.rho_s
    g_cc = a_c_rho * gain_t
    g_ce = a_e_rho * gain_t / (a_c_rho * gain_t + 1.0)
    g_e1 = a_e_rho * gain_z / (a_c_rho * gain_z + 1.0)
    g_e2 = cfg.rho_c * gain_w
    eps_cc = _reference_psi_exact_vec(g_cc, cfg.code_c)
    eps_ce = _reference_psi_exact_vec(g_ce, cfg.code_e)
    eps_e1 = _reference_psi_exact_vec(g_e1, cfg.code_e)
    eps_e2 = _reference_psi_exact_vec(g_e2, cfg.code_e)
    cu = eps_ce + eps_cc - eps_ce * eps_cc
    relay_ok = 1.0 - eps_ce
    sc = eps_ce * eps_e1 + relay_ok * _reference_psi_exact_vec(np.maximum(g_e1, g_e2), cfg.code_e)
    mrc = eps_ce * eps_e1 + relay_ok * _reference_psi_exact_vec(g_e1 + g_e2, cfg.code_e)
    cols = (cu, sc, mrc, eps_cc, eps_ce, eps_e1, eps_e2)
    return (
        np.array([float(np.sum(c)) for c in cols]),
        np.array([float(np.sum(c * c)) for c in cols]),
    )


def test_sc_column_equals_psi_of_max_with_ties():
    # the reference rho_c = 1 makes g_e2 equal to gain_w, so copying g_e1
    # into gain_w ties the two CEU branches exactly on a quarter of the
    # trials; zeros tie them below the floor
    cfg = REFERENCE
    rng = np.random.default_rng(5)
    n = 4096
    gain_t, gain_z, gain_w = (rng.exponential(3.0, n) for _ in range(3))
    a_c_rho, a_e_rho = cfg.alpha_c * cfg.rho_s, cfg.alpha_e * cfg.rho_s
    g_e1 = a_e_rho * gain_z / (a_c_rho * gain_z + 1.0)
    gain_w[: n // 4] = g_e1[: n // 4]
    gain_z[-8:] = gain_w[-8:] = 0.0
    g_e1 = a_e_rho * gain_z / (a_c_rho * gain_z + 1.0)
    ties = g_e1 == cfg.rho_c * gain_w
    assert ties.sum() == n // 4 + 8

    sums, sqsums = _metric_sums((gain_t, gain_z, gain_w), cfg)
    want_sums, want_sqsums = _reference_metric_sums((gain_t, gain_z, gain_w), cfg)
    assert sums.tobytes() == want_sums.tobytes()
    assert sqsums.tobytes() == want_sqsums.tobytes()


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

"""Tests for the finite-blocklength error model and its linear surrogate."""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc as scipy_erfc

from risnoma.channel import REFERENCE, CodeSpec, SystemConfig
from risnoma.montecarlo import _metric_sums, psi_exact_vec

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
    with pytest.raises(ValueError, match="m must be an integer, got 100.5"):
        CodeSpec(m=100.5, bits=100)
    with pytest.raises(ValueError, match="bits must be an integer, got True"):
        CodeSpec(m=100, bits=True)
    assert CodeSpec(m=np.int64(100), bits=np.int32(300)) == CODE_C
    assert CODE_C.rate == 3.0
    assert CODE_E.rate == 1.0


def test_linearization_frozen_values():
    assert CODE_C.beta == pytest.approx(7.0, abs=1e-12)
    assert CODE_C.delta == pytest.approx(0.05026200292434228, rel=1e-14, abs=0)
    assert CODE_C.v == pytest.approx(6.005212743406519, rel=1e-14, abs=0)
    assert CODE_C.u == pytest.approx(7.994787256593481, rel=1e-14, abs=0)

    assert CODE_E.beta == pytest.approx(1.0, abs=1e-12)
    assert CODE_E.delta == pytest.approx(0.23032943298089034, rel=1e-14, abs=0)
    assert CODE_E.v == pytest.approx(0.7829196236325198, rel=1e-14, abs=0)
    assert CODE_E.u == pytest.approx(1.2170803763674802, rel=1e-14, abs=0)


def _surrogate(code):
    return code.beta, code.delta, code.v, code.u


def test_code_spec_derives_its_surrogate_as_fields_outside_its_identity():
    # beta, delta, v and u are derived once, when the code is built: they are
    # not arguments and stay out of the repr, equality and hash
    code = CodeSpec(m=100, bits=300)
    assert repr(code) == "CodeSpec(m=100, bits=300)"
    other = CodeSpec(100, 300)
    object.__setattr__(other, "beta", 0.0)
    assert other == code and hash(other) == hash(code)
    with pytest.raises(TypeError):
        CodeSpec(m=100, bits=300, beta=7.0)
    # the pool pickles every config into its tasks
    clone = pickle.loads(pickle.dumps(code))
    assert clone == code and _surrogate(clone) == _surrogate(code)
    # replace builds a new code, so it derives them again
    smaller = replace(code, bits=100)
    assert _surrogate(smaller) == _surrogate(CODE_E) and smaller.beta == 1.0


@settings(max_examples=60)
@given(st.integers(min_value=10, max_value=2000), st.integers(min_value=1, max_value=1200))
def test_linearization_knee_width_identity(m, bits):
    # the ramp width is pinned to the slope: delta*sqrt(m)*(u - v) = 1
    code = CodeSpec(m=m, bits=bits)
    assert code.delta * math.sqrt(m) * (code.u - code.v) == pytest.approx(1.0, rel=1e-12, abs=0)
    assert code.v < code.beta < code.u


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=1, max_value=10**60))
def test_code_spec_accepts_only_codes_with_a_finite_linearization(m, bits):
    # m = 10**50 once divided by zero and bits/m = 1e7 overflowed
    try:
        code = CodeSpec(m=m, bits=bits)
    except ValueError:
        return
    assert all(math.isfinite(x) for x in (code.beta, code.delta, code.v, code.u))
    assert 0.0 < code.beta and 0.0 < code.delta
    assert code.v < code.beta < code.u


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
    """The Q argument (C - rate) / sqrt(V / m) at each SINR; -inf where 1 + gamma is 1."""
    r = 1.0 + gl
    cap = np.log2(r)
    # r * r overflows past 1e154, and m / V divides by zero where V is 0
    with np.errstate(over="ignore", divide="ignore"):
        disp = (math.log2(math.e) ** 2) * (1.0 - 1.0 / (r * r))
        return (cap - code.rate) * np.sqrt(code.m / disp)


def _reference_psi_exact_vec(gamma, code: CodeSpec) -> np.ndarray:
    """The two-pass psi that the in-place kernel replaced.

    Every entry is evaluated in fresh temporaries, with the Q argument
    clipped to [-38, 38] and the result to [0, 1].  Kept here as the
    bitwise reference for the kernel.
    """
    g = np.asarray(gamma, dtype=np.float64)
    if not np.all(g >= 0.0):
        raise ValueError("SINR must be >= 0 and not NaN")
    arg = np.clip(_reference_q_arg(g, code), -38.0, 38.0)
    return np.clip(0.5 * scipy_erfc(arg / math.sqrt(2.0)), 0.0, 1.0)


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


# exact zeros (both signs), values so small that 1 + gamma rounds to 1 or
# nearly so, the whole ordinary range, and values whose r * r overflows
_SPECIAL_SINRS = np.array(
    [0.0, -0.0, 1e-300, 1e-17, 1e-13, 1e-12, 2e-12, 1e-9, 1e-3, 0.5, 1.0,
     7.0, 1e3, 1e9, 1e154, 1e200, 1e300, math.inf]
)


@pytest.mark.parametrize(
    "code",
    # at m = 1e12 and rate 1e-12, psi falls from 1 to 1/2 between SINRs
    # 3e-15 and 7e-13, so the kernel and the reference must agree there too
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
    # to 0 (Q argument 37.55 to 37.68).  At m = 1e12 the Q argument is
    # negative only below SINR 7e-13, and there 1 + gamma rounds so coarsely
    # that it jumps from -33 straight to -inf, never into [-39, -37]
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


# (gamma, psi) at m = 1e12 and 1 bit, frozen from mpmath at 50 digits as
# _PSI_REFERENCE is: psi falls from 1 to 1/2 below SINR 1e-12 here
_PSI_LONG_CODE_REFERENCE = (
    (2e-13, 0.78222631511478418),
    (6e-13, 0.53388176766810815),
    (9e-13, 0.43873430440410116),
)


def test_psi_exact_vec_follows_the_formula_at_tiny_sinrs():
    # 1 + gamma keeps gamma only to a multiple of 2**-52, so the kernel is within
    # 8.3e-5 of these values; a floor that set psi to 1 here reads 1.0
    grid, reference = (np.array(col) for col in zip(*_PSI_LONG_CODE_REFERENCE))
    got = _quiet_psi(grid, CodeSpec(m=10**12, bits=1))
    assert got.tolist() == pytest.approx(reference.tolist(), rel=1e-3, abs=0)


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


def test_surrogate_gap_frozen():
    # worst-case |exact - linear| over a dense grid around the ramp; these
    # levels are what the closed-form averages inherit as model error
    for code, frozen in ((CODE_C, 0.1191291566608661), (CODE_E, 0.1241343776705385)):
        grid = np.linspace(max(code.v - 1.0, 0.0), code.u + 1.0, 20001)
        linear = np.clip(0.5 - (grid - code.beta) / (code.u - code.v), 0.0, 1.0)
        gap = np.abs(psi_exact_vec(grid, code) - linear).max()
        assert gap == pytest.approx(frozen, abs=2e-3)
        assert gap < 0.15

"""Tests for the seeded Monte Carlo path: the two fading samplers, psi, the
per-chunk sums and the runs that pool them.

The sampler checks compare empirical moments against closed forms of the
constituent distributions (exponential direct powers, Rayleigh-product
cascades), and the random-phase law against the phase-by-phase
construction, kept here as a reference sampler; psi is checked bit for
bit against a two-pass reference kernel.  For the runs, determinism is
the contract under test: fixed chunking plus per-chunk seeding must make
results bitwise reproducible for any worker count.  The statistical checks
compare against closed forms that do not go through the gamma fit, so they
exercise the simulation independently of the analytics.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc
from scipy.special import roots_genlaguerre

from risnoma import cli, montecarlo
from risnoma.channel import REFERENCE, CodeSpec, ScenarioKind, SystemConfig, links
from risnoma.montecarlo import (
    CHUNK_TRIALS,
    _chunksize,
    _metric_sums,
    _sample_aligned_batch,
    _sample_random_phase_batch,
    psi_exact_vec,
    run_points,
    run_trials,
)

ALIGNED = ScenarioKind.TWO_ZONE_ALIGNED

# the two working points used throughout: the reference system's rate-3
# control code and rate-1 payload code, both over 100 channel uses
CODE_C, CODE_E = REFERENCE.code_c, REFERENCE.code_e

_PI_SQ = math.pi * math.pi

# the overrides of the reference system that give each simulated system: the
# two scenarios, and no surface, which is R = 0 in either
_SYSTEMS = {
    "two_zone_aligned": {},
    "single_zone_random": {"scenario": ScenarioKind.SINGLE_ZONE_RANDOM},
    "no_ris": {"R": 0},
}


def make_config(**overrides) -> SystemConfig:
    return replace(REFERENCE, **overrides)


def _sweep_cfgs(axis, values, keys, *_) -> list:
    # the configs of a sweep over the model keys, as the CLI builds them; a
    # preset's run ends in its source suffix, which no config carries
    raw = {**keys, "sweep": {"axis": axis, "values": list(values)}}
    return [p.cfg for p in cli.parse_config(raw).points]


def _aligned(cfg, rng, n):
    """The aligned sampler's (T, Z, W) at cfg.R."""
    return dict(_sample_aligned_batch(cfg, rng, n, counts=[cfg.R]))[cfg.R]


# ----------------------------------------------------------------- sampling

def test_sample_aligned_is_seed_deterministic():
    cfg = make_config()
    a = _aligned(cfg, np.random.default_rng(42), 4)
    b = _aligned(cfg, np.random.default_rng(42), 4)
    c = _aligned(cfg, np.random.default_rng(43), 4)
    assert len(a) == 3
    for arr, arr_b, arr_c in zip(a, b, c):
        np.testing.assert_array_equal(arr, arr_b)
        assert not np.array_equal(arr, arr_c)
        assert np.all(arr >= 0.0)


def test_sample_aligned_r_zero_has_no_cascade():
    cfg = make_config(R=0)
    gains = _aligned(cfg, np.random.default_rng(7), 4)
    rng = np.random.default_rng(7)
    for gain, link in zip(gains, links(cfg), strict=True):
        np.testing.assert_array_equal(gain, rng.exponential(link.lam_d, size=4))
        assert np.all(gain > 0.0)


def test_direct_draws_unchanged_when_cascade_skipped():
    # skipping the cascade at R = 0 must not shift the direct-power stream,
    # so no surface stays bit-compatible with eta = 0
    cfg = make_config()
    with_q = _aligned(cfg, np.random.default_rng(11), 64)
    no_q = _aligned(make_config(R=0), np.random.default_rng(11), 64)
    rng = np.random.default_rng(11)
    for gain, power, link in zip(with_q, no_q, links(cfg), strict=True):
        np.testing.assert_array_equal(power, rng.exponential(link.lam_d, size=64))
        assert np.all(gain > power)


def test_aligned_cascade_matches_exponential_construction():
    # the cascades fill reused buffers in place, element by element; the
    # bits equal the plain construction from unit exponentials drawn in the
    # same order: the direct powers, then per element an (e_g, e_h) pair
    # for each link in turn
    cfg = make_config(R=5)
    gains = _aligned(cfg, np.random.default_rng(19), 300)
    rng = np.random.default_rng(19)
    powers = [rng.exponential(link.lam_d, size=300) for link in links(cfg)]
    sums = [np.zeros(300) for _ in links(cfg)]
    for _ in range(cfg.R):
        for s in sums:
            s += np.sqrt(rng.exponential(1.0, size=300) * rng.exponential(1.0, size=300))
    for gain, p, s, link in zip(gains, powers, sums, links(cfg), strict=True):
        scale = link.eta * math.sqrt(link.lam_g * link.lam_r)
        np.testing.assert_array_equal(gain, p + (scale * s) ** 2)


def test_aligned_gains_at_fewer_elements_are_a_prefix_of_one_draw():
    # element r's draws never depend on R, so one draw at R = 8 holds the
    # gains of a draw at any smaller R from the same generator state
    cfg = make_config(eta_c=0.7, eta_e=0.4)
    by_count = dict(_sample_aligned_batch(cfg, np.random.default_rng(29), 300, counts=[0, 1, 3, 8]))
    assert sorted(by_count) == [0, 1, 3, 8]
    for count, gains in by_count.items():
        alone = _aligned(replace(cfg, R=count), np.random.default_rng(29), 300)
        for gain, want in zip(gains, alone, strict=True):
            np.testing.assert_array_equal(gain, want)


def test_samplers_ignore_fields_outside_fading_key(draws):
    # run_points draws one batch for every config that differs only in
    # fields outside its grouping key, so no sampler may read such a field
    cfg = make_config()
    other = make_config(
        rho_s=1000.0,
        rho_c=3.0,
        alpha_c=0.3,
        code_c=CodeSpec(m=50, bits=120),
        code_e=CodeSpec(m=200, bits=40),
    )
    for scenario in (ScenarioKind.TWO_ZONE_ALIGNED, ScenarioKind.SINGLE_ZONE_RANDOM):
        calls, _ = draws([replace(cfg, scenario=scenario), replace(other, scenario=scenario)])
        assert len(calls) == 1, scenario
    for sample in (_aligned, _sample_random_phase_batch):
        a = sample(cfg, np.random.default_rng(23), 256)
        b = sample(other, np.random.default_rng(23), 256)
        for gain_a, gain_b in zip(a, b, strict=True):
            np.testing.assert_array_equal(gain_a, gain_b)


# sha256 of the bytes of (T, Z, W) from 512 draws of one seeded stream per
# case.  A change that moves any bit of any sampled gain changes a digest.
# The two cases without a surface (R = 0) draw the same three exponentials
# in the same order, so they share one digest.
_GAIN_CASES = {
    "aligned": (_aligned, {}),
    "aligned_r0": (_aligned, {"R": 0}),
    "random_phase_16": (_sample_random_phase_batch, {}),
    "random_phase_0": (_sample_random_phase_batch, {"R": 0}),
}
_GAIN_DIGESTS = {
    "aligned": "901f4f7de600b7ac80beb241b95a0ca28c512e935f4bd34ae65b7b6058ba9db4",
    "aligned_r0": "64d17765fe1a3b2f4a02df80001a8522593b8a0c304f5df8ec64289efa798e86",
    "random_phase_16": "e8e85a2309e20b3d5bd90a24039a8b872a1035d2e075eb24ff62df30c6a62ecb",
    "random_phase_0": "64d17765fe1a3b2f4a02df80001a8522593b8a0c304f5df8ec64289efa798e86",
}


@pytest.mark.parametrize("case", sorted(_GAIN_CASES))
def test_sampled_gains_are_bitwise_frozen(case):
    sample, overrides = _GAIN_CASES[case]
    cfg = make_config(eta_c=0.7, eta_e=0.4, **overrides)
    gains = sample(cfg, np.random.default_rng(2024), 512)
    digest = hashlib.sha256(b"".join(g.tobytes() for g in gains)).hexdigest()
    assert digest == _GAIN_DIGESTS[case]


@pytest.mark.parametrize(
    "field, value",
    [("R", 3), ("eta_c", 0.5), ("eta_e", 0.5), ("lambda_c", 2.0), ("lambda_e", 2.0),
     ("lambda_ce", 2.0), ("lambda_rc", 2.0), ("lambda_gc", 2.0), ("lambda_re", 2.0),
     ("lambda_ge", 2.0), ("lambda_rce", 2.0), ("lambda_gce", 2.0)],
)
def test_fading_key_changes_with_every_fading_field(draws, field, value):
    # every fading field splits run_points' groups, except R between aligned
    # points: their gains at fewer elements are a prefix of one draw at the
    # largest R
    pair = (make_config(), make_config(**{field: value}))
    aligned, _ = draws(list(pair))
    random_phase, _ = draws(
        [replace(cfg, scenario=ScenarioKind.SINGLE_ZONE_RANDOM) for cfg in pair]
    )
    assert len(random_phase) == 2
    if field == "R":
        assert aligned == [("_sample_aligned_batch", 8)]
    else:
        assert len(aligned) == 2


def test_aligned_moments_match_closed_forms():
    # empirical mean of T = p_c + (eta*q_c)^2 against
    # lambda_c + eta^2 * (var_q + mean_q^2), all moments exact
    cfg = make_config()
    n = 400_000
    by_count = dict(_sample_aligned_batch(cfg, np.random.default_rng(3021), n, counts=[0, 1, 3, 8]))
    t = by_count[cfg.R][0]
    mean_q = cfg.R * (math.pi / 4.0) * math.sqrt(cfg.lambda_gc * cfg.lambda_rc)
    var_q = cfg.R * (1.0 - _PI_SQ / 16.0) * cfg.lambda_gc * cfg.lambda_rc
    expected = cfg.lambda_c + cfg.eta_c**2 * (var_q + mean_q**2)
    se = float(np.std(t)) / math.sqrt(n)
    assert float(np.mean(t)) == pytest.approx(expected, abs=5.0 * se)
    # every link's cascade sum after 1, 3 and 8 elements of the one draw,
    # recovered from the gains and the direct powers, has the exact mean
    # and variance of a sum of that many |g||h| products
    for count in (1, 3, 8):
        for name, gain, p, link in zip("TZW", by_count[count], by_count[0], links(cfg)):
            q = np.sqrt(gain - p) / link.eta
            hop = link.lam_g * link.lam_r
            dev = (q - np.mean(q)) ** 2
            se_mean = float(np.std(q)) / math.sqrt(n)
            se_var = float(np.std(dev)) / math.sqrt(n)
            exact_mean = count * (math.pi / 4.0) * math.sqrt(hop)
            exact_var = count * (1.0 - _PI_SQ / 16.0) * hop
            assert float(np.mean(q)) == pytest.approx(exact_mean, abs=5.0 * se_mean), (name, count)
            assert float(np.var(q, ddof=1)) == pytest.approx(exact_var, abs=5.0 * se_var), (
                name, count)


def test_random_phase_moments_match_closed_forms():
    # uniform phases decorrelate the reflected terms, so the effective
    # power has mean lambda + eta^2 * n_elements * lambda_g * lambda_r
    cfg = make_config()
    n = 200_000
    total_elements = 2 * cfg.R
    rng = np.random.default_rng(515)
    t = _sample_random_phase_batch(cfg, rng, n)[0]
    expected = cfg.lambda_c + cfg.eta_c**2 * total_elements * cfg.lambda_gc * cfg.lambda_rc
    se = float(np.std(t)) / math.sqrt(n)
    assert float(np.mean(t)) == pytest.approx(expected, abs=5.0 * se)


def _reference_random_phase_powers(cfg, rng, n, total_elements):
    # the construction the exact law replaces: complex Gaussian direct and
    # per-element hops, uniform phases, |h + eta * sum g e^{j phi} h_r|^2
    def complex_normal(mean_power, size):
        s = math.sqrt(mean_power / 2.0)
        return rng.normal(0.0, s, size=size) + 1j * rng.normal(0.0, s, size=size)

    out = []
    for link in links(cfg):
        shape = (n, total_elements)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        reflected = np.sum(
            complex_normal(link.lam_g, shape)
            * np.exp(1j * phi)
            * complex_normal(link.lam_r, shape),
            axis=1,
        )
        out.append(np.abs(complex_normal(link.lam_d, n) + link.eta * reflected) ** 2)
    return out


def test_random_phase_second_moments_match_exact_law():
    # p = Exp(1) * (ld + eta^2 lg S), S ~ Gamma(k, lr) over k elements, so
    # E[p^2] = 2 (ld^2 + 2 ld eta^2 lg k lr + eta^4 lg^2 lr^2 k (k + 1))
    cfg = make_config()
    n = 200_000
    k = 2 * cfg.R
    gains = _sample_random_phase_batch(cfg, np.random.default_rng(516), n)
    for name, gain, (ld, lg, lr, eta) in zip("TZW", gains, links(cfg), strict=True):
        expected = 2.0 * (
            ld * ld + 2.0 * ld * eta**2 * lg * k * lr + eta**4 * lg * lg * lr * lr * k * (k + 1)
        )
        sq = gain**2
        se = float(np.std(sq)) / math.sqrt(n)
        assert float(np.mean(sq)) == pytest.approx(expected, abs=5.0 * se), name


@pytest.mark.parametrize(
    "eta, total_elements, seed", [(1.0, 16, 601), (0.5, 2, 602), (0.0, 16, 603)]
)
def test_random_phase_law_matches_reference_construction(eta, total_elements, seed):
    # two-sample KS test of every link power against the phase-by-phase
    # construction, on independent streams
    cfg = make_config(eta_c=eta, eta_e=eta, R=total_elements // 2)
    n = 50_000
    fast = _sample_random_phase_batch(cfg, np.random.default_rng(seed), n)
    ref = _reference_random_phase_powers(
        cfg, np.random.default_rng(seed + 1000), n, total_elements
    )
    for name, got, want in zip("TZW", fast, ref, strict=True):
        assert stats.ks_2samp(got, want).pvalue > 1e-3, name


def test_random_phase_no_elements_is_exponential():
    cfg = make_config(R=0)
    gains = _sample_random_phase_batch(cfg, np.random.default_rng(604), 50_000)
    for name, gain, link in zip("TZW", gains, links(cfg), strict=True):
        assert stats.kstest(gain, stats.expon(scale=link.lam_d).cdf).pvalue > 1e-3, name


def test_sample_random_phase_batch_interface():
    cfg = make_config()
    gains = _sample_random_phase_batch(cfg, np.random.default_rng(9), 4)
    assert len(gains) == 3
    for gain in gains:
        assert gain.shape == (4,) and np.all(gain > 0.0)
    # no elements -> plain direct fading
    bare = _sample_random_phase_batch(make_config(R=0), np.random.default_rng(9), 4)
    assert np.all(bare[0] > 0.0)


# ------------------------------------------------------------ effective gain

def test_effective_gain_link_mapping():
    # every lambda distinct and eta_c != eta_e, so a gain built from the
    # wrong link's parameters cannot match the textbook construction
    cfg = make_config(
        R=3, eta_c=0.5, eta_e=0.25,
        lambda_c=1.1, lambda_e=0.3, lambda_ce=1.7,
        lambda_rc=0.9, lambda_gc=0.8, lambda_re=1.3,
        lambda_ge=0.35, lambda_rce=0.6, lambda_gce=1.2,
    )
    t, z, w = _aligned(cfg, np.random.default_rng(31), 200)
    rng = np.random.default_rng(31)
    p_c, p_e, p_ce = (
        rng.exponential(lam, size=200) for lam in (cfg.lambda_c, cfg.lambda_e, cfg.lambda_ce)
    )
    hops = [(cfg.lambda_gc, cfg.lambda_rc), (cfg.lambda_ge, cfg.lambda_re),
            (cfg.lambda_gce, cfg.lambda_rce)]
    q_c, q_e, q_ce = (np.zeros(200) for _ in hops)
    # element by element, one |g||h| product per link in the order T, Z, W
    for _ in range(3):
        for q, (lam_g, lam_r) in zip((q_c, q_e, q_ce), hops):
            g = np.sqrt(rng.exponential(lam_g, size=200))
            h = np.sqrt(rng.exponential(lam_r, size=200))
            q += g * h

    np.testing.assert_allclose(t, p_c + (cfg.eta_c * q_c) ** 2, rtol=1e-15)
    np.testing.assert_allclose(z, p_e + (cfg.eta_e * q_e) ** 2, rtol=1e-15)
    np.testing.assert_allclose(w, p_ce + (cfg.eta_e * q_ce) ** 2, rtol=1e-15)


def test_effective_gain_eta_zero_reduces_to_direct():
    cfg = make_config(eta_c=0.0, eta_e=0.0)
    gains = _aligned(cfg, np.random.default_rng(37), 64)
    direct = _aligned(make_config(R=0), np.random.default_rng(37), 64)
    for gain, power in zip(gains, direct, strict=True):
        np.testing.assert_array_equal(gain, power)




# ---------------------------------------------------------------------- psi

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


# -------------------------------------------------------------- determinism

def test_same_seed_reproduces_bitwise():
    for scenario in (ALIGNED, ScenarioKind.SINGLE_ZONE_RANDOM):
        cfg = make_config(scenario=scenario)
        a = run_trials(cfg, 10_000, 77)
        b = run_trials(cfg, 10_000, 77)
        c = run_trials(cfg, 10_000, 78)
        for key in ("cu", "ceu_sc", "ceu_mrc"):
            assert a[key].mean == b[key].mean, scenario
            assert a[key].stderr == b[key].stderr, scenario
        assert a["cu"].mean != c["cu"].mean, scenario


def test_worker_count_does_not_change_results(monkeypatch):
    n = 3 * CHUNK_TRIALS  # several chunks so the pool actually splits work
    for system, overrides in _SYSTEMS.items():
        cfg = make_config(**overrides)
        monkeypatch.setenv("RISNOMA_WORKERS", "1")
        serial = run_trials(cfg, n, 123)
        monkeypatch.setenv("RISNOMA_WORKERS", "3")
        pooled = run_trials(cfg, n, 123)
        for key in ("cu", "ceu_sc", "ceu_mrc"):
            assert serial[key].mean == pooled[key].mean, system
            assert serial[key].stderr == pooled[key].stderr, system


def test_no_surface_scenario_equals_eta_zero():
    # no surface is R = 0 in either sampler; skipping the cascade draws
    # leaves the direct-power stream untouched, so R = 0 in both scenarios
    # and an aligned surface that reflects nothing give the same estimates
    # bitwise, though each keys its own draw
    want = run_trials(make_config(eta_c=0.0, eta_e=0.0), 8192, 42)
    assert len(want) == 7
    for cfg in (make_config(R=0), make_config(R=0, scenario=ScenarioKind.SINGLE_ZONE_RANDOM)):
        assert run_trials(cfg, 8192, 42) == want, cfg.scenario


def test_fig3_baseline_is_a_prefix_of_the_aligned_draw(draws, monkeypatch):
    # fig3's no-surface baseline is its aligned sweep at R = 0: the same
    # links, so its gains are the zero-element prefix of the aligned draw,
    # and the 22 points make one draw per chunk
    points = [cfg for run in cli.PRESETS["fig3"] for cfg in _sweep_cfgs(*run)]
    assert len(points) == 22 and {cfg.R for cfg in points} == {0, 8}
    counts = []
    sample = montecarlo._sample_aligned_batch

    def recording(*args, **kwargs):
        counts.append(sorted(kwargs["counts"]))
        return sample(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_sample_aligned_batch", recording)
    calls, got = draws(points, 2 * CHUNK_TRIALS)
    assert calls == [("_sample_aligned_batch", 8)] * 2
    assert counts == [[0, 8]] * 2
    assert got[11:] == run_points(points[11:], 2 * CHUNK_TRIALS, 42)


def test_random_phase_at_zero_eta_keeps_its_own_draw(draws):
    # at eta_c = eta_e = 0 the random-phase gains have the law of the direct
    # powers, but the sampler draws its gammas first, so its bits differ
    # from the aligned draw and it keys a draw of its own
    zero_eta = make_config(eta_c=0.0, eta_e=0.0, scenario=ScenarioKind.SINGLE_ZONE_RANDOM)
    calls, _ = draws([make_config(R=0), zero_eta])
    assert calls == [("_sample_aligned_batch", 0), ("_sample_random_phase_batch", 8)]


# -------------------------------------------------------- bitwise estimates

def _estimate_digest(results) -> str:
    """sha256 over float.hex of every mean and stderr, point by point.

    The CSVs print %.10e, which cannot see a change in the last bits of an
    estimate; this digest can.
    """
    h = hashlib.sha256()
    for i, est in enumerate(results):
        for key in sorted(est):
            e = est[key]
            h.update(f"{i} {key} {e.mean.hex()} {e.stderr.hex()} {e.n}\n".encode())
    return h.hexdigest()


def _fig_points() -> list:
    # every config of the fig2..fig6 presets, in preset order
    return [cfg for runs in cli.PRESETS.values() for run in runs for cfg in _sweep_cfgs(*run)]


# A change meant to keep the random draws and the float operations must keep
# these digests; a change meant to alter them updates a digest and says why.
_POINT_DIGESTS = {
    "two_zone_aligned": "8e346a90e0f60ff756875dc49c9eabadc0fbf45135aa401ff2a41519fda329c0",
    "single_zone_random": "18a0f3a1a166cbf9b7ad65d7318fb52abac521dae671c77bea49ae08a8a8b973",
    "no_ris": "88db0a38a02d7578d234e3c5188e1a1c51c3786da47f3abdc4956845ac3f3318",
}
# numpy's AVX-512 (X86_V4) log2 rounds some entries of psi_exact_vec
# differently from its baseline path, and the fig points' estimates see it;
# so their pin is keyed by the path numpy dispatches float64 log2 to.
_FIG_POINTS_DIGESTS = {
    "X86_V4": "8c661461d946e73438c7f28facfe684cc5498d89db30813fa3494eeff4c4c7ba",
    "baseline(X86_V2)": "46053db39f8e032542cf0512d90e3f46a873451ea5ed90063c69c15983c86fa5",
}


def _log2_path() -> str:
    """The SIMD path numpy takes for float64 log2 in this process."""
    from numpy.lib.introspect import opt_func_info  # numpy >= 2.0

    info = opt_func_info(func_name="^log2$", signature="float64")
    return info["log2"]["dd"]["current"]


def _fig_points_digest() -> str:
    # 81 points in one call: several fading groups, shared draws, and a
    # partial last chunk
    points = _fig_points()
    assert len(points) == 81
    return _estimate_digest(run_points(points, 2 * CHUNK_TRIALS + 300, 77))


@pytest.mark.parametrize("system", list(_SYSTEMS))
def test_point_estimates_are_bitwise_frozen(system):
    cfg = make_config(rho_s=10.0 ** 0.5, rho_c=10.0 ** -0.5, **_SYSTEMS[system])
    got = run_points([cfg], CHUNK_TRIALS + 1000, 2024)
    assert _estimate_digest(got) == _POINT_DIGESTS[system]


def test_fig_point_estimates_are_bitwise_frozen():
    path = _log2_path()
    assert path in _FIG_POINTS_DIGESTS, f"no fig-points pin for numpy's log2 path {path}"
    assert _fig_points_digest() == _FIG_POINTS_DIGESTS[path]


def test_fig_point_estimates_match_the_baseline_log2_pin():
    # the baseline pin, checked in a child with numpy's X86_V4 dispatch off,
    # so both pins are checked on an AVX-512 host; where log2 already takes
    # the baseline path this repeats the test above
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_montecarlo as t; "
        "print(t._log2_path(), t._fig_points_digest())"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    child = subprocess.run(
        [sys.executable, "-c", script, os.path.dirname(os.path.abspath(__file__))],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    path, digest = child.stdout.split()
    assert path == "baseline(X86_V2)"
    assert digest == _FIG_POINTS_DIGESTS[path]


# ---------------------------------------------------------- estimate shape

def test_estimates_are_probabilities_with_sane_stderr():
    n = 8192
    for overrides in _SYSTEMS.values():
        est = run_trials(make_config(**overrides), n, 5)
        for e in est.values():
            assert 0.0 <= e.mean <= 1.0
            assert 0.0 <= e.stderr <= 0.5 / math.sqrt(n)
            assert e.n == n


def test_non_finite_sum_is_an_internal_error():
    # max(0.0, nan) is 0.0, so clamping alone once turned this NaN sum into
    # BlerEstimate(0.0, 0.0, 4)
    with pytest.raises(RuntimeError, match="internal error: non-finite"):
        montecarlo._estimates(4, np.full((2, 7), np.nan))
    sums = np.stack([np.full(7, 0.5), np.full(7, 0.25)])
    sums[1, 3] = np.inf
    with pytest.raises(RuntimeError, match="internal error: non-finite"):
        montecarlo._estimates(4, sums)


def test_one_trial_has_zero_stderr():
    est = run_trials(make_config(), 1, 9)
    assert all(e.n == 1 and e.stderr == 0.0 for e in est.values())


def _log_uniform(lo: float, hi: float):
    # floats spread evenly in log10, kept inside [lo, hi] against rounding
    exponents = st.floats(min_value=math.log10(lo), max_value=math.log10(hi))
    return exponents.map(lambda e: min(max(10.0**e, lo), hi))


_SNRS = st.one_of(_log_uniform(1e-320, 1e308), st.floats(min_value=1e300, max_value=1.7e308))
_LAMBDA_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.name.startswith("lambda_"))


@st.composite
def _accepted_configs(draw):
    # every range SystemConfig accepts, out to its edges: link means up to
    # the 1e100 bound, SNRs from subnormal to the float maximum, eta = 0
    return make_config(
        rho_s=draw(_SNRS),
        rho_c=draw(_SNRS),
        alpha_c=draw(st.floats(min_value=1e-6, max_value=0.4999)),
        eta_c=draw(st.sampled_from([0.0, 0.5, 1.0])),
        eta_e=draw(st.sampled_from([0.0, 0.5, 1.0])),
        R=draw(st.sampled_from([0, 1, 8, 1024])),
        scenario=draw(st.sampled_from(list(ScenarioKind))),
        **{name: draw(_log_uniform(1e-300, 1e100)) for name in _LAMBDA_FIELDS},
    )


_RHO_3079_DB = 10.0**307.9  # the CLI's linear power at 3079 dB


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cfg=_accepted_configs())
@example(cfg=make_config(rho_s=_RHO_3079_DB, rho_c=_RHO_3079_DB / 10.0))
@example(
    cfg=make_config(
        rho_s=1.7e308, rho_c=1.7e308, eta_c=0.0, R=1024, **dict.fromkeys(_LAMBDA_FIELDS, 1e100)
    )
)
def test_every_accepted_config_simulates(cfg):
    # the SIC SINRs overflow to inf/inf at a huge SNR and are capped at
    # their ceiling; the link-mean bound keeps every gain finite, so eta = 0
    # never meets an inf.  No point fails, and numpy warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (est,) = run_points([cfg], 64, 7)
    for e in est.values():
        assert 0.0 <= e.mean <= 1.0 and math.isfinite(e.stderr)


def test_partial_final_chunk_is_counted():
    est = run_trials(make_config(), CHUNK_TRIALS + 904, 9)
    assert est["cu"].n == CHUNK_TRIALS + 904


def test_rejects_nonpositive_trial_count():
    with pytest.raises(ValueError):
        run_trials(make_config(), 0, 1)


@pytest.mark.parametrize(
    "seed", [-1, 2**64, -(10**400)], ids=["minus_one", "two_to_64", "huge_negative"]
)
def test_rejects_seed_outside_64_bits(seed):
    # the chunk streams take a 64-bit seed, and the CSV records the seed,
    # so a seed outside that range is refused rather than wrapped onto another
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)") as exc:
        run_points([make_config()], 256, seed)
    assert len(str(exc.value)) <= 120


def test_largest_seed_is_accepted():
    got = run_points([make_config()], 256, 2**64 - 1)[0]
    assert got["cu"].n == 256


@pytest.mark.parametrize(
    "cfgs",
    [None, 3, 2.5, (cfg for cfg in [REFERENCE]), {"a": REFERENCE}],
    ids=["none", "int", "float", "generator", "dict"],
)
def test_run_points_refuses_a_config_list_that_is_not_a_sequence(cfgs):
    # the points are indexed and counted after grouping, so a one-pass
    # iterable is refused with the rest, by the parameter's name
    with pytest.raises(ValueError, match=r"^cfgs must be a Sequence, got "):
        run_points(cfgs, 16, 1)


def test_two_psi_calls_per_config_per_chunk(monkeypatch):
    # cc at code_c, then one (4, n) block at code_e: ce, e1, e2 and the MRC
    # sum; SC reuses the e1/e2 values.  perfbench's trace wraps this module
    # attribute, so calls go through it
    calls = []
    psi = montecarlo.psi_exact_vec

    def counting_psi(gamma, code):
        calls.append((np.shape(gamma), code))
        return psi(gamma, code)

    monkeypatch.setattr(montecarlo, "psi_exact_vec", counting_psi)
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    cfg = make_config()
    assert cfg.code_c != cfg.code_e
    points = [cfg, make_config(rho_s=100.0)]
    run_points(points, 2 * CHUNK_TRIALS + 100, 5)
    # three chunks, each evaluating both configs
    full = [((CHUNK_TRIALS,), cfg.code_c), ((4, CHUNK_TRIALS), cfg.code_e)]
    tail = [((100,), cfg.code_c), ((4, 100), cfg.code_e)]
    assert calls == full * 4 + tail * 2


def test_component_and_user_key_sets():
    # one call gives the three user-level and the four per-step estimates
    got = run_trials(make_config(), 4096, 3)
    assert set(got) == {"cu", "ceu_sc", "ceu_mrc", "cc", "ce", "e1", "e2"}


def test_stderr_shrinks_like_root_n():
    # quadrupling the trial count should halve the standard error; at 0 dB
    # the cu metric has plenty of variance for the ratio to be stable
    cfg = make_config(rho_s=1.0, rho_c=0.1)
    small = run_trials(cfg, 40_960, 31)["cu"].stderr
    large = run_trials(cfg, 163_840, 31)["cu"].stderr
    assert small / large == pytest.approx(2.0, rel=0.2, abs=0)


# ------------------------------------------------------------ physics checks

@settings(max_examples=100)
@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_combined_gain_bound_pointwise(g1, g2):
    # the inequality behind the MRC lower bound: failing at the summed gain
    # is at least as likely as failing at both doubled gains independently
    code = CodeSpec(m=100, bits=100)
    lhs = psi_exact_vec(g1 + g2, code)
    rhs = psi_exact_vec(2.0 * g1, code) * psi_exact_vec(2.0 * g2, code)
    assert lhs >= rhs - 1e-12


def test_rayleigh_only_average_matches_closed_form():
    # with no surface the own-data step's average linear-surrogate BLER has
    # an elementary closed form (exponential fading): delta*sqrt(m) *
    # [(u - v) - a (exp(-v/a) - exp(-u/a))] with a the mean received SNR.
    # The simulation averages the exact model, so they agree only to the
    # surrogate's bias, well under the sampling error at this point.
    rho_s = 10.0 ** 1.5
    cfg = make_config(rho_s=rho_s, rho_c=rho_s / 10.0, R=0)
    code = cfg.code_c
    a = cfg.alpha_c * cfg.rho_s * cfg.lambda_c
    closed = code.delta * math.sqrt(code.m) * (
        (code.u - code.v) - a * (math.exp(-code.v / a) - math.exp(-code.u / a))
    )
    mc = run_trials(cfg, 200_000, 101)["cc"]
    assert mc.mean == pytest.approx(closed, abs=4.0 * mc.stderr)


# the differential check: each decoding step's simulated average against
# its exact-law integral over random configs, both paths written out here.
# Per step, the fields of its link: direct mean, cascade hops, amplitude
_DIFF_LINKS = {
    "cc": ("lambda_c", "lambda_gc", "lambda_rc", "eta_c"),
    "ce": ("lambda_c", "lambda_gc", "lambda_rc", "eta_c"),
    "e1": ("lambda_e", "lambda_ge", "lambda_re", "eta_e"),
    "e2": ("lambda_ce", "lambda_gce", "lambda_rce", "eta_e"),
}
_DIFF_EXAMPLES = 30  # per case, with and without a surface
_DIFF_TRIALS = 20_000
# a family-wise false-alarm rate of 1e-3 over every row the check can judge
_DIFF_Z = stats.norm.isf(1e-3 / (2 * len(_DIFF_LINKS) * 2 * _DIFF_EXAMPLES))


def _diff_sinr(tag, x, cfg):
    a_c, a_e = cfg.alpha_c * cfg.rho_s, cfg.alpha_e * cfg.rho_s
    if tag in ("cc", "e2"):
        return (a_c if tag == "cc" else cfg.rho_c) * x
    # ce and e1 decode the edge user's share under the central user's
    return a_e * x / (a_c * x + 1.0)


@st.composite
def _exact_law_configs(draw, surface):
    # without a surface (R = 0), or random-phase with R = 1..8: the two
    # cases whose gains have an exact law
    def db(lo, hi):
        return 10.0 ** (draw(st.floats(lo, hi)) / 10.0)

    m = draw(st.integers(50, 299))
    # the nine link means, each drawn once, in a fixed order
    names = dict.fromkeys(name for link in _DIFF_LINKS.values() for name in link[:3])
    lambdas = {name: draw(st.floats(0.1, 2.0)) for name in names}
    return SystemConfig(
        rho_s=db(-5.0, 25.0), rho_c=db(-10.0, 20.0), alpha_c=draw(st.floats(0.03, 0.45)),
        code_c=CodeSpec(m, draw(st.integers(50, 399))),
        code_e=CodeSpec(m, draw(st.integers(30, 199))),
        R=draw(st.integers(1, 8)) if surface else 0,
        eta_c=draw(st.floats(0.2, 1.0)), eta_e=draw(st.floats(0.2, 1.0)),
        scenario=ScenarioKind.SINGLE_ZONE_RANDOM if surface else ALIGNED,
        **lambdas,
    )


def _exact_step_average(cfg, tag):
    """E[psi(sinr(X))] by quadrature over the exact law of the step's gain X.

    Without a surface X ~ Exp(lam_d).  With 2R random-phase elements X | S ~
    Exp(lam_d + eta^2 lam_g S) over S ~ Gamma(2R, scale lam_r), the mixture
    taken at generalized Gauss-Laguerre nodes.  The integral breaks at the
    gain where the SINR reaches the code's threshold, where psi falls.
    """
    lam_d, lam_g, lam_r, eta = (getattr(cfg, name) for name in _DIFF_LINKS[tag])
    code = cfg.code_c if tag == "cc" else cfg.code_e
    if cfg.R == 0:
        means, weights = np.array([lam_d]), np.array([1.0])
    else:
        nodes, weights = roots_genlaguerre(60, 2 * cfg.R - 1)
        means, weights = lam_d + eta * eta * lam_g * lam_r * nodes, weights / weights.sum()

    def integrand(x):
        density = np.sum(weights * np.exp(-x / means) / means)
        return float(psi_exact_vec(np.float64(_diff_sinr(tag, x, cfg)), code)) * density

    beta = 2.0 ** code.rate - 1.0
    if tag in ("cc", "e2"):
        cross = beta / _diff_sinr(tag, 1.0, cfg)
    else:
        room = cfg.alpha_e * cfg.rho_s - cfg.alpha_c * cfg.rho_s * beta
        cross = beta / room if room > 0.0 else math.inf
    edges = (0.0, cross, math.inf) if cross < math.inf else (0.0, math.inf)
    return sum(quad(integrand, lo, hi, limit=200)[0] for lo, hi in zip(edges, edges[1:]))


@pytest.mark.parametrize("surface", [False, True], ids=["no_surface", "random_phase"])
@settings(max_examples=_DIFF_EXAMPLES, derandomize=True, deadline=None)
@given(data=st.data())
def test_step_averages_match_their_exact_law_integrals(surface, data):
    # compare's interval holds the exact average on every row, resolved or
    # not; the z gate judges a row only where the simulation resolves it,
    # n*min(E, 1 - E) >= 50 trials on each side, Bonferroni over all rows
    cfg = data.draw(_exact_law_configs(surface), label="cfg")
    est = run_trials(cfg, _DIFF_TRIALS, 99)
    for tag in _DIFF_LINKS:
        exact = _exact_step_average(cfg, tag)
        mc = est[tag]
        assert abs(mc.mean - exact) <= mc.half_width, (tag, exact, mc)
        if _DIFF_TRIALS * min(exact, 1.0 - exact) < 50:
            continue
        z = (mc.mean - exact) / mc.stderr
        assert abs(z) <= _DIFF_Z, (tag, exact, mc, z)


# ------------------------------------------------------------------- sweeps

def _axis_cfg(axis, value, keys=None):
    # the config of one sweep point over the given model keys (the reference
    # defaults, make_config(), if none), as the CLI builds it
    (cfg,) = _sweep_cfgs(axis, [value], keys or {})
    return cfg


def _axis_points(axis, values, **overrides):
    # the configs of a sweep, as the CLI builds them, with the overrides set
    return [replace(_axis_cfg(axis, value), **overrides) for value in values]


def test_single_value_sweep_matches_run_trials():
    direct = run_trials(make_config(rho_s=100.0, rho_c=10.0), 8192, 55)
    got = run_points(_axis_points("rho_s_db", [20.0]), 8192, 55)
    assert len(got) == 1
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert got[0][key].mean == direct[key].mean


def test_sweep_records_overflowing_db_value_as_point_error():
    pts = cli.parse_config({"sweep": {"axis": "rho_s_db", "values": [1e308]}}).points
    assert "rho_s must be finite" in pts[0].cfg


def _assert_same(got, want, label):
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert got[key] == want[key], (label, key)


_AXIS_VALUES = {
    "rho_s_db": [0.0, 10.0, 20.0],
    "alpha_c": [0.05, 0.2, 0.4],
    "m": [50, 100, 300],
    "R": [3, 8, 1],
}


@pytest.mark.parametrize("axis", sorted(_AXIS_VALUES))
@pytest.mark.parametrize("system", list(_SYSTEMS))
def test_batched_sweep_matches_lone_run_trials(system, axis):
    # points of one sweep share their draws; each must still get exactly
    # what a lone run_trials at that value gives.  Without a surface an R
    # sweep is three R = 0 points
    n = CHUNK_TRIALS + 500  # two chunks, the last one partial
    overrides = _SYSTEMS[system]
    got = run_points(_axis_points(axis, _AXIS_VALUES[axis], **overrides), n, 61)
    for value, est in zip(_AXIS_VALUES[axis], got):
        alone = run_trials(replace(_axis_cfg(axis, value), **overrides), n, 61)
        _assert_same(est, alone, (system, axis, value))


_DB_SWEEP = range(-10, 31, 5)
_LAMBDA_SWEEP = (0.05, 0.1, 0.3, 1.0, 3.0, 10.0)


def _ordered_sweeps():
    # (label, configs in increasing order of the swept value, metrics that
    # must not rise along them).  Random-phase R sweeps are left out: each R
    # draws its own gamma, so its points share no draw, and at 8192 trials
    # and seed 7 ceu_sc rises from 9.72e-4 to 1.007e-3 between R = 11 and 12
    every = ("cu", "ceu_sc", "ceu_mrc", "cc", "ce", "e1", "e2")
    random = {"scenario": ScenarioKind.SINGLE_ZONE_RANDOM}
    yield "rho_s_db aligned", _axis_points("rho_s_db", _DB_SWEEP), every
    yield "rho_s_db random", _axis_points("rho_s_db", _DB_SWEEP, **random), every
    yield "R aligned", _axis_points("R", range(17)), every
    for eta in ("eta_c", "eta_e"):
        yield eta, [make_config(**{eta: v}) for v in (0.0, 0.25, 0.5, 0.75, 1.0)], every
    for f in fields(SystemConfig):
        if f.name.startswith("lambda_"):
            yield f.name, [make_config(**{f.name: v}) for v in _LAMBDA_SWEEP], every
    # the relay SNR reaches only the relayed step and what combines it
    rho_c = [make_config(rho_c=10.0 ** (db / 10.0)) for db in _DB_SWEEP]
    yield "rho_c", rho_c, ("e2", "ceu_sc", "ceu_mrc")


def test_every_sweep_is_ordered_exactly():
    # the points of each sweep see the same unit draws (one shared draw, or
    # the same seed and draw order, scaled), and each trial's metric is
    # monotone in the swept value, so each mean is too: exactly, with no
    # statistical tolerance, and ceu_mrc <= ceu_sc at every point (pathwise)
    for label, cfgs, metrics in _ordered_sweeps():
        got = run_points(cfgs, 8192, 7)
        for metric in metrics:
            means = [est[metric].mean for est in got]
            assert all(b <= a for a, b in zip(means, means[1:])), (label, metric, means)
        assert all(est["ceu_mrc"].mean <= est["ceu_sc"].mean for est in got), label


def test_failing_point_leaves_its_group_intact():
    # 3079 dB overflows the SIC ratio to inf/inf, which once failed the
    # point; it now simulates, and the 10 dB point, which draws from the
    # same batch, keeps the bits of a lone run
    got = run_points(_axis_points("rho_s_db", [10, 3079]), 8192, 5)
    assert set(got[1]) == set(got[0])
    assert all(0.0 <= est.mean <= 1.0 for est in got[1].values())
    _assert_same(got[0], run_trials(_axis_cfg("rho_s_db", 10), 8192, 5), 10)


def test_overflowing_point_raises_no_numpy_warning():
    # at 3079 dB most SIC SINRs overflow to inf/inf and the rest round to
    # within an ulp of the ceiling alpha_e/alpha_c; capped there, ce and e1
    # read psi at the ceiling, with no numpy warning.  The 10 dB point draws
    # from the same batch and keeps the bits of a lone run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_points(_axis_points("rho_s_db", [10, 3079]), 8192, 5)
    cfg = _axis_cfg("rho_s_db", 3079)
    floor = float(psi_exact_vec(np.float64(cfg.alpha_e / cfg.alpha_c), cfg.code_e))
    for tag in ("ce", "e1"):
        assert got[1][tag].mean == pytest.approx(floor, rel=1e-12, abs=0)
    assert got[0] == run_trials(_axis_cfg("rho_s_db", 10), 8192, 5)


def test_batched_sweep_worker_count_does_not_change_results(monkeypatch):
    # two operating points per element count share each draw, as in fig5,
    # plus a second scenario, so tasks differ in size
    points = [
        replace(_axis_cfg(axis, value), scenario=scenario)
        for scenario in (ALIGNED, ScenarioKind.SINGLE_ZONE_RANDOM)
        for axis, value in (("rho_s_db", 10.0), ("rho_s_db", 15.0), ("R", 2))
    ]
    n = 3 * CHUNK_TRIALS
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    serial = run_points(points, n, 123)
    monkeypatch.setenv("RISNOMA_WORKERS", "3")
    pooled = run_points(points, n, 123)
    assert serial == pooled


def test_default_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    # an affinity mask of one CPU on a 64-CPU host sizes the pool at 1
    monkeypatch.delenv("RISNOMA_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert montecarlo._worker_count() == 1
    # where the platform has no affinity call, the host's count serves
    monkeypatch.delattr(os, "sched_getaffinity")
    assert montecarlo._worker_count() == 64


@pytest.mark.parametrize(
    ("env", "message"), [("abc", "must be an integer, got 'abc'"), ("0", "must be >= 1, got 0")]
)
def test_worker_cap_must_be_a_positive_integer(monkeypatch, env, message):
    monkeypatch.setenv("RISNOMA_WORKERS", env)
    with pytest.raises(ValueError, match=f"RISNOMA_WORKERS {message}"):
        montecarlo._worker_count()


def _finish_times(costs, size: int, workers: int) -> list[float]:
    # pool.map cuts the tasks into batches of `size` in order, and the
    # first worker to be free takes the next batch
    free = [0.0] * workers
    for start in range(0, len(costs), size):
        free[free.index(min(free))] += sum(costs[start:start + size])
    return free


def test_chunksize_gives_each_worker_an_equal_share():
    for workers in (2, 3, 4):
        for n_tasks in range(1, 300):
            size = _chunksize(n_tasks, workers)
            assert 1 <= size <= 16
            if n_tasks >= 4 * workers:
                # at least four batches per worker
                assert -(-n_tasks // size) >= 4 * workers
            finish = _finish_times([1.0] * n_tasks, size, workers)
            assert max(finish) - min(finish) <= size
    # fig's 25 chunks on 2 workers (the last of 1696 trials) went out as
    # one batch per worker: 13 full chunks on one, 11 and the tail on the
    # other.  Now no worker ends more than one batch behind its share, and
    # a batch is at most a quarter of a share
    costs = [1.0] * 24 + [1696 / CHUNK_TRIALS]
    size = _chunksize(len(costs), 2)
    share = sum(costs) / 2
    assert size <= share / 4
    assert share - min(_finish_times(costs, size, 2)) <= size
    # compare at 1e6 trials still ships 16 tasks per message
    assert _chunksize(245, 2) == 16


def test_fig5_shares_draws_and_one_pool(tmp_path, monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setenv("RISNOMA_WORKERS", "2")
    assert cli.cmd_fig("fig5", str(tmp_path / "fig5.csv"), 8192, 1234) == 0
    assert pools == [2]

    # the 10 dB and 15 dB curves at all 8 element counts draw each chunk
    # once, at R = 8, and take every smaller R as a prefix: 1 draw x 2 chunks
    draws = []
    sample = montecarlo._sample_aligned_batch

    def counting_sample(*args, **kwargs):
        draws.append((args[2], args[0].R, sorted(kwargs["counts"])))
        return sample(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_sample_aligned_batch", counting_sample)
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    assert cli.cmd_fig("fig5", str(tmp_path / "fig5_serial.csv"), 8192, 1234) == 0
    assert draws == [(CHUNK_TRIALS, 8, list(range(1, 9)))] * 2
    assert (tmp_path / "fig5.csv").read_bytes() == (tmp_path / "fig5_serial.csv").read_bytes()


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    # run_points sizes its pool by min(worker cap, tasks): no task and one
    # chunk start no pool, and two chunks start two workers under a cap of 8
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setenv("RISNOMA_WORKERS", "8")
    cfg = make_config()
    assert run_points([], CHUNK_TRIALS, 1) == []
    run_points([cfg], CHUNK_TRIALS, 1)
    assert pools == []
    pooled = run_points([cfg], 2 * CHUNK_TRIALS, 1)
    assert pools == [2]
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    assert pooled == run_points([cfg], 2 * CHUNK_TRIALS, 1)


def test_chunk_memory_does_not_grow_with_the_element_count():
    # the aligned sampler draws element by element, so one chunk at the
    # largest R a config allows holds no (4096, R) buffer
    args = ((make_config(R=1024),), CHUNK_TRIALS, 9, 0)
    tracemalloc.start()
    try:
        montecarlo._chunk_sums(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_chunk_memory_does_not_grow_with_the_distinct_element_counts():
    # a group's configs share one aligned draw, so a chunk of 64 configs at
    # R = 1..64 needs no more than one config at R = 1024
    args = (tuple(make_config(R=R) for R in range(1, 65)), CHUNK_TRIALS, 9, 0)
    tracemalloc.start()
    try:
        montecarlo._chunk_sums(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_apply_axis_semantics():
    # a sweep point is the config's model keys with the swept key set; the
    # sweeps above build theirs on the reference defaults, make_config()
    cfg = make_config()
    assert cli.parse_config({}).points[0].cfg == cfg
    coupled = _axis_cfg("rho_s_db", 20.0)
    assert coupled.rho_s == pytest.approx(100.0, rel=1e-15, abs=0)
    assert coupled.rho_c == pytest.approx(10.0, rel=1e-15, abs=0)
    pinned = _axis_cfg("rho_s_db", 20.0, {"rho_c": cfg.rho_c})
    assert pinned.rho_c == cfg.rho_c
    # a linear or dB base SNR is replaced, and the relay SNR still follows it
    for base in ({"rho_s": 7.3}, {"rho_s_db": 5.0}):
        replaced = _axis_cfg("rho_s_db", 20.0, base)
        assert replaced.rho_s == coupled.rho_s and replaced.rho_c == coupled.rho_c

    assert _axis_cfg("R", 3).R == 3
    swapped = _axis_cfg("alpha_c", 0.3)
    assert swapped.alpha_c == 0.3 and swapped.alpha_e == 0.7

    resized = _axis_cfg("m", 250)
    assert resized.code_c == CodeSpec(m=250, bits=cfg.code_c.bits)
    assert resized.code_e == CodeSpec(m=250, bits=cfg.code_e.bits)

"""Tests for the fading models, the cascaded-gain gamma fit, and sampling.

The moment checks compare empirical means against closed-form moments of
the constituent distributions (exponential direct powers, Rayleigh-product
cascades), so they validate the samplers independently of the fit.  The
random-phase sampler draws each link power from its exact law; its tests
check that law against the phase-by-phase construction, kept here as a
reference sampler.
"""

import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from risnoma.analytic import gamma_fit
from risnoma.channel import (
    CC,
    CE,
    E1,
    E2,
    REFERENCE,
    CodeSpec,
    ScenarioKind,
    SystemConfig,
    links,
)
from risnoma.montecarlo import _sample_aligned_batch, _sample_random_phase_batch

_PI_SQ = math.pi * math.pi


def _aligned(cfg, rng, n):
    """The aligned sampler's (T, Z, W) at cfg.R."""
    return dict(_sample_aligned_batch(cfg, rng, n, counts=[cfg.R]))[cfg.R]


def make_config(**overrides) -> SystemConfig:
    return replace(REFERENCE, **overrides)


# ------------------------------------------------------------ configuration

def test_system_config_accepts_reference_point():
    cfg = make_config()
    assert cfg.lambda_gc == 0.8 and cfg.lambda_ge == 0.3
    assert cfg.eta_c == 1.0 and cfg.alpha_e == 0.9


@pytest.mark.parametrize(
    "overrides",
    [
        {"rho_s": 0.0},
        {"rho_c": -1.0},
        {"alpha_c": 0.6},  # order violated
        {"alpha_c": 0.5},  # strict ordering required
        {"R": -1},
        {"eta_c": 1.5},
        {"eta_e": -0.1},
        {"lambda_e": 0.0},
        {"lambda_gce": -2.0},
        {"lambda_rc": math.nextafter(1e100, math.inf)},  # past the bound on link means
        {"R": 1025},  # past the cap on the aligned sampler's element loop
        {"R": 2.5},  # element counts are integers, not a gamma fit's extrapolation
        {"R": 8.0},
        {"R": True},
    ],
)
def test_system_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        make_config(**overrides)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("rho_s", "10", "must be a real number, got '10'"),
        ("alpha_c", None, "must be a real number, got None"),
        ("eta_c", True, "must be a real number, got True"),
        ("lambda_c", True, "must be a real number, got True"),
        ("lambda_e", np.bool_(True), "must be a real number"),
        ("rho_s", 10**400, "must be finite, got 1.000e+400"),
    ],
    ids=["str", "none", "bool_eta", "bool_lambda", "numpy_bool", "int_past_float_range"],
)
def test_system_config_float_fields_take_only_real_numbers(name, value, message):
    # a string or None once raised TypeError, a bool was stored as is, and an
    # integer past the float range raised OverflowError
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} {message}")):
        make_config(**{name: value})


def test_system_config_stores_each_float_field_as_a_float():
    cfg = make_config(rho_s=10, rho_c=np.float32(1.0), lambda_e=np.float64(0.3))
    assert (type(cfg.rho_s), type(cfg.rho_c), type(cfg.lambda_e)) == (float, float, float)
    assert cfg == make_config()


_FLOAT_FIELDS = (
    "rho_s", "rho_c", "alpha_c", "eta_c", "eta_e",
    "lambda_c", "lambda_e", "lambda_ce", "lambda_rc", "lambda_gc",
    "lambda_re", "lambda_ge", "lambda_rce", "lambda_gce",
)


@given(
    st.sampled_from(_FLOAT_FIELDS),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_system_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_config(**{name: value})


def test_alpha_e_follows_alpha_c():
    # the edge share is the complement, not a field: a new alpha_c is valid
    cfg = replace(make_config(), alpha_c=0.3)
    assert cfg.alpha_c == 0.3 and cfg.alpha_e == 0.7


def test_system_config_refuses_a_scenario_that_is_not_a_scenario_kind():
    # the config takes a ScenarioKind or its tag, which the CLI reads from JSON
    assert make_config().scenario is ScenarioKind.TWO_ZONE_ALIGNED
    random = make_config(scenario="single_zone_random").scenario
    assert random is ScenarioKind.SINGLE_ZONE_RANDOM
    tags = "two_zone_aligned, single_zone_random"
    with pytest.raises(ValueError, match=f"^scenario must be one of {tags}, got 'no_ris'$"):
        make_config(scenario="no_ris")


def test_system_config_allows_eta_zero_and_r_zero():
    assert make_config(eta_c=0.0, eta_e=0.0).eta_c == 0.0
    assert make_config(R=0).R == 0
    assert make_config(R=1024).R == 1024


# ---------------------------------------------------------------- gamma fit

def test_gamma_fit_frozen_reference():
    kappa, b = gamma_fit(8, 0.8, 1.0)
    assert kappa == pytest.approx(11.879566079348178, rel=1e-15, abs=0)
    assert b == pytest.approx(0.4363385963634107, rel=1e-15, abs=0)


@pytest.mark.parametrize("R", [1, 2, 8, 64])
@pytest.mark.parametrize("pair", [(0.8, 1.0), (0.3, 1.0)])
def test_gamma_fit_matches_exact_moments(R, pair):
    # the fit must reproduce the exact first two moments of the cascade sum:
    # mean R*(pi/4)*sqrt(lg*lr), variance R*(1 - pi^2/16)*lg*lr
    lg, lr = pair
    kappa, b = gamma_fit(R, lg, lr)
    mean = (kappa + 1.0) * b
    var = (kappa + 1.0) * b**2
    assert mean == pytest.approx(R * (math.pi / 4.0) * math.sqrt(lg * lr), rel=1e-12, abs=0)
    assert var == pytest.approx(R * (1.0 - _PI_SQ / 16.0) * lg * lr, rel=1e-12, abs=0)


def test_gamma_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        gamma_fit(0, 0.8, 1.0)
    with pytest.raises(ValueError):
        gamma_fit(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_fit(4, 0.8, -1.0)
    # a product that overflows the scale is refused by its inputs' names;
    # one that underflows gives b = 0, which unmodeled names
    with pytest.raises(ValueError, match=r"lambda_g \* lambda_r"):
        gamma_fit(8, 1e200, 1e200)
    assert gamma_fit(8, 1e-200, 1e-200)[1] == 0.0


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


# ------------------------------------------------------- decoding-step table

def test_step_table_links_and_codes():
    cfg = make_config()
    assert [step.link for step in (CC, CE, E1, E2)] == [0, 0, 1, 2]
    assert [step.code(cfg) for step in (CC, CE, E1, E2)] == [cfg.code_c] + [cfg.code_e] * 3
    assert CE.ceiling(cfg) == E1.ceiling(cfg) == cfg.alpha_e / cfg.alpha_c
    assert CC.ceiling(cfg) == E2.ceiling(cfg) == math.inf


@settings(max_examples=300, deadline=None)
@given(
    step=st.sampled_from([CC, CE, E1, E2]),
    alpha_c=st.floats(min_value=0.01, max_value=0.49),
    rho_s=st.floats(min_value=1e-3, max_value=1e6),
    rho_c=st.floats(min_value=1e-3, max_value=1e6),
    share=st.floats(min_value=1e-250, max_value=1.0, exclude_max=True),
    w=st.floats(min_value=1e-250, max_value=1e250),
)
def test_step_sinr_map_inverts_its_gain_threshold(step, alpha_c, rho_s, rho_c, share, w):
    # the closed forms' inverse map undoes the simulation's forward map
    cfg = make_config(alpha_c=alpha_c, rho_s=rho_s, rho_c=rho_c)
    ceiling = step.ceiling(cfg)
    if ceiling < math.inf:
        w = share * ceiling
    t = step.gain_threshold(w, cfg)
    if t == math.inf:
        # rounding may close the SIC room only in the last ulps below the ceiling
        assert w >= ceiling * (1.0 - 1e-12)
    else:
        assert 0.0 < t < math.inf
        assert step.sinr(t, cfg) == pytest.approx(w, rel=1e-12, abs=0)
        # the forward map on an array gives the float map's bits
        assert step.sinr(np.array([t]), cfg)[0] == step.sinr(t, cfg)


def test_gain_threshold_is_inf_when_the_sinr_scale_underflows():
    # at the least subnormal rho_s, alpha_c * rho_s rounds to 0, so every cc
    # SINR is 0 and no gain reaches w; this once divided by zero
    cfg = make_config(rho_s=5e-324, rho_c=1.0)
    assert cfg.alpha_c * cfg.rho_s == 0.0
    assert CC.gain_threshold(1.0, cfg) == math.inf


@pytest.mark.parametrize("step", [CE, E1], ids=["ce", "e1"])
def test_sic_gain_threshold_is_never_at_and_above_the_ceiling(step):
    cfg = make_config(alpha_c=0.2)
    ceiling = step.ceiling(cfg)
    for w in (ceiling, math.nextafter(ceiling, math.inf), 2.0 * ceiling, 1e300):
        assert step.gain_threshold(w, cfg) == math.inf

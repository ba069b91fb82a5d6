"""Tests for the seeded Monte Carlo engine.

Determinism is the contract under test: fixed chunking plus per-chunk
seeding must make results bitwise reproducible for any worker count.  The
statistical checks compare against closed forms that do not go through the
gamma fit, so they exercise the simulation independently of the analytics.
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
from scipy.special import roots_genlaguerre

from risnoma import cli, montecarlo
from risnoma.channel import REFERENCE, CodeSpec, ScenarioKind, SystemConfig
from risnoma.montecarlo import (
    CHUNK_TRIALS,
    _chunksize,
    psi_exact_vec,
    run_points,
    run_trials,
)

ALIGNED = ScenarioKind.TWO_ZONE_ALIGNED

# the overrides of the reference system that give each simulated system: the
# two scenarios, and no surface, which is R = 0 in either
_SYSTEMS = {
    "two_zone_aligned": {},
    "single_zone_random": {"scenario": ScenarioKind.SINGLE_ZONE_RANDOM},
    "no_ris": {"R": 0},
}


def make_config(**overrides) -> SystemConfig:
    return replace(REFERENCE, **overrides)


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
    points = [p.cfg for run in cli._PRESETS["fig3"] for p in cli._expand(*run)]
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
    return [
        p.cfg
        for runs in cli._PRESETS.values()
        for run in runs
        for p in cli._expand(*run)
    ]


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

def test_mrc_never_exceeds_sc():
    cfg = make_config(rho_s=1.0, rho_c=0.1)
    est = run_trials(cfg, 20_000, 11)
    assert est["ceu_mrc"].mean <= est["ceu_sc"].mean


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
    (point,) = cli._expand(axis, [value], keys or {}, "")
    return point.cfg


def _axis_points(axis, values, **overrides):
    # the configs of a sweep, as the CLI builds them, with the overrides set
    return [replace(_axis_cfg(axis, value), **overrides) for value in values]


def test_single_value_sweep_matches_run_trials():
    direct = run_trials(make_config(rho_s=100.0, rho_c=10.0), 8192, 55)
    got = run_points(_axis_points("rho_s_db", [20.0]), 8192, 55)
    assert len(got) == 1
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert got[0][key].mean == direct[key].mean


def test_sweep_records_per_point_errors_and_continues():
    pts = cli._expand("alpha_c", [0.1, 0.6, 0.2], {}, "")
    assert [isinstance(p.cfg, SystemConfig) for p in pts] == [True, False, True]
    assert "alpha_c" in pts[1].cfg
    kept = cli._kept(pts, closed_forms=False)
    ran = run_points([p.cfg for p in kept], 4096, 8)
    assert [p.value for p in kept] == [0.1, 0.2]
    assert all(set(est) >= {"cu", "ceu_sc", "ceu_mrc"} for est in ran)


def test_sweep_records_overflowing_db_value_as_point_error():
    pts = cli._expand("rho_s_db", [1e308], {}, "")
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

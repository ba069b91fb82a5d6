"""Tests for the seeded Monte Carlo engine.

Determinism is the contract under test: fixed chunking plus per-chunk
seeding must make results bitwise reproducible for any worker count.  The
statistical checks compare against closed forms that do not go through the
gamma fit, so they exercise the simulation independently of the analytics.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.channel import SystemConfig
from risnoma.fbl import CodeSpec, linearization_params, psi_exact_vec
from risnoma.montecarlo import (
    CHUNK_TRIALS,
    ScenarioKind,
    SweepPoint,
    _apply_axis,
    run_component_trials,
    run_trials,
    sweep,
)

ALIGNED = ScenarioKind.TWO_ZONE_ALIGNED


def make_config(**overrides) -> SystemConfig:
    base = dict(
        rho_s=10.0,
        rho_c=1.0,
        alpha_c=0.1,
        alpha_e=0.9,
        code_c=CodeSpec(m=100, bits=300),
        code_e=CodeSpec(m=100, bits=100),
        R=8,
    )
    base.update(overrides)
    return SystemConfig(**base)


# -------------------------------------------------------------- determinism

def test_same_seed_reproduces_bitwise():
    cfg = make_config()
    for scenario in (ALIGNED, ScenarioKind.SINGLE_ZONE_RANDOM):
        a = run_trials(cfg, scenario, 10_000, 77)
        b = run_trials(cfg, scenario, 10_000, 77)
        c = run_trials(cfg, scenario, 10_000, 78)
        for key in ("cu", "ceu_sc", "ceu_mrc"):
            assert a[key].mean == b[key].mean, scenario
            assert a[key].stderr == b[key].stderr, scenario
        assert a["cu"].mean != c["cu"].mean, scenario


def test_worker_count_does_not_change_results(monkeypatch):
    cfg = make_config()
    n = 3 * CHUNK_TRIALS  # several chunks so the pool actually splits work
    for scenario in ScenarioKind:
        monkeypatch.setenv("RISNOMA_WORKERS", "1")
        serial = run_trials(cfg, scenario, n, 123)
        monkeypatch.setenv("RISNOMA_WORKERS", "3")
        pooled = run_trials(cfg, scenario, n, 123)
        for key in ("cu", "ceu_sc", "ceu_mrc"):
            assert serial[key].mean == pooled[key].mean, scenario
            assert serial[key].stderr == pooled[key].stderr, scenario


def test_no_surface_scenario_equals_eta_zero():
    # the no-surface scenario skips the cascade draws without disturbing
    # the direct-power stream, so it reproduces eta = 0 bitwise
    cfg = make_config()
    quiet = run_trials(make_config(eta_c=0.0, eta_e=0.0), ALIGNED, 8192, 42)
    none = run_trials(cfg, ScenarioKind.NO_RIS, 8192, 42)
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert quiet[key].mean == none[key].mean


# ---------------------------------------------------------- estimate shape

def test_estimates_are_probabilities_with_sane_stderr():
    cfg = make_config()
    n = 8192
    for scenario in (ALIGNED, ScenarioKind.NO_RIS, ScenarioKind.SINGLE_ZONE_RANDOM):
        est = run_trials(cfg, scenario, n, 5)
        for e in est.values():
            assert 0.0 <= e.mean <= 1.0
            assert 0.0 <= e.stderr <= 0.5 / math.sqrt(n)
            assert e.n == n


def test_partial_final_chunk_is_counted():
    est = run_trials(make_config(), ALIGNED, CHUNK_TRIALS + 904, 9)
    assert est["cu"].n == CHUNK_TRIALS + 904


def test_rejects_nonpositive_trial_count():
    with pytest.raises(ValueError):
        run_trials(make_config(), ALIGNED, 0, 1)


def test_component_and_user_key_sets():
    cfg = make_config()
    users = run_trials(cfg, ALIGNED, 4096, 3)
    steps = run_component_trials(cfg, ALIGNED, 4096, 3)
    assert set(users) == {"cu", "ceu_sc", "ceu_mrc"}
    assert set(steps) == {"cc", "ce", "e1", "e2"}


def test_stderr_shrinks_like_root_n():
    # quadrupling the trial count should halve the standard error; at 0 dB
    # the cu metric has plenty of variance for the ratio to be stable
    cfg = make_config(rho_s=1.0, rho_c=0.1)
    small = run_trials(cfg, ALIGNED, 40_960, 31)["cu"].stderr
    large = run_trials(cfg, ALIGNED, 163_840, 31)["cu"].stderr
    assert small / large == pytest.approx(2.0, rel=0.2)


# ------------------------------------------------------------ physics checks

def test_mrc_never_exceeds_sc():
    cfg = make_config(rho_s=1.0, rho_c=0.1)
    est = run_trials(cfg, ALIGNED, 20_000, 11)
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
    lin = linearization_params(cfg.code_c)
    a = cfg.alpha_c * cfg.rho_s * cfg.lambda_c
    closed = lin.delta * math.sqrt(cfg.code_c.m) * (
        (lin.u - lin.v) - a * (math.exp(-lin.v / a) - math.exp(-lin.u / a))
    )
    mc = run_component_trials(cfg, ALIGNED, 200_000, 101)["cc"]
    assert mc.mean == pytest.approx(closed, abs=4.0 * mc.stderr)


# ------------------------------------------------------------------- sweeps

def test_single_value_sweep_matches_run_trials():
    cfg = make_config()
    direct = run_trials(make_config(rho_s=100.0, rho_c=10.0), ALIGNED, 8192, 55)
    pts = sweep(cfg, ALIGNED, "rho_s_db", [20.0], 8192, 55)
    assert len(pts) == 1 and pts[0].error is None
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert pts[0].estimates[key].mean == direct[key].mean


def test_sweep_records_per_point_errors_and_continues():
    cfg = make_config()
    pts = sweep(cfg, ALIGNED, "alpha_c", [0.1, 0.6, 0.2], 4096, 8)
    assert [p.error is None for p in pts] == [True, False, True]
    assert pts[1].estimates is None
    assert "alpha_c" in pts[1].error
    assert isinstance(pts[0], SweepPoint)


def test_sweep_records_overflowing_db_value_as_point_error():
    pts = sweep(make_config(), ALIGNED, "rho_s_db", [1e308], 4096, 8)
    assert pts[0].estimates is None
    assert "rho_s must be finite" in pts[0].error


def test_sweep_rejects_empty_values():
    with pytest.raises(ValueError):
        sweep(make_config(), ALIGNED, "rho_s_db", [], 4096, 8)


def test_apply_axis_semantics():
    cfg = make_config()
    coupled = _apply_axis(cfg, "rho_s_db", 20.0, True)
    assert coupled.rho_s == pytest.approx(100.0, rel=1e-15)
    assert coupled.rho_c == pytest.approx(10.0, rel=1e-15)
    pinned = _apply_axis(cfg, "rho_s_db", 20.0, False)
    assert pinned.rho_c == cfg.rho_c

    assert _apply_axis(cfg, "R", 3, True).R == 3
    swapped = _apply_axis(cfg, "alpha_c", 0.3, True)
    assert swapped.alpha_c == 0.3 and swapped.alpha_e == 0.7

    resized = _apply_axis(cfg, "m", 250, True)
    assert resized.code_c == CodeSpec(m=250, bits=cfg.code_c.bits)
    assert resized.code_e == CodeSpec(m=250, bits=cfg.code_e.bits)

    with pytest.raises(ValueError):
        _apply_axis(cfg, "eta_c", 0.5, True)

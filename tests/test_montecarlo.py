"""Tests for the seeded Monte Carlo engine.

Determinism is the contract under test: fixed chunking plus per-chunk
seeding must make results bitwise reproducible for any worker count.  The
statistical checks compare against closed forms that do not go through the
gamma fit, so they exercise the simulation independently of the analytics.
"""

import hashlib
import math
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma import cli, montecarlo
from risnoma.channel import SystemConfig
from risnoma.fbl import CodeSpec, linearization_params, psi_exact_vec
from risnoma.montecarlo import (
    CHUNK_TRIALS,
    ScenarioKind,
    SweepPoint,
    _apply_axis,
    _chunksize,
    run_component_trials,
    run_points,
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
    # every (config, scenario) point of the fig2..fig6 presets, in preset order
    defaults = cli.parse_config({}).system
    return [
        (_apply_axis(base, axis, value, True), scenario)
        for preset in ("fig2", "fig3", "fig4", "fig5", "fig6")
        for scenario, axis, values, base, _ in cli._preset_runs(preset, defaults)
        for value in values
    ]


# A change meant to keep the random draws and the float operations must keep
# these digests; a change meant to alter them updates a digest and says why.
_POINT_DIGESTS = {
    ScenarioKind.TWO_ZONE_ALIGNED: "74797efb768df90859511415538169a162cf4ff5dcda65cea04888605003ff20",
    ScenarioKind.SINGLE_ZONE_RANDOM: "18a0f3a1a166cbf9b7ad65d7318fb52abac521dae671c77bea49ae08a8a8b973",
    ScenarioKind.NO_RIS: "88db0a38a02d7578d234e3c5188e1a1c51c3786da47f3abdc4956845ac3f3318",
}
_FIG_POINTS_DIGEST = "2f0bb8fdf5b4abcb3b5c684a7c1d05b95eed0e0e3cc6f7b5e2dddf7e637a2d84"


@pytest.mark.parametrize("scenario", list(ScenarioKind), ids=lambda k: k.value)
def test_point_estimates_are_bitwise_frozen(scenario):
    cfg = make_config(rho_s=10.0 ** 0.5, rho_c=10.0 ** -0.5)
    got = run_points([(cfg, scenario)], CHUNK_TRIALS + 1000, 2024)
    assert _estimate_digest(got) == _POINT_DIGESTS[scenario]


def test_fig_point_estimates_are_bitwise_frozen():
    # 81 points in one call: several fading groups, shared draws, and a
    # partial last chunk
    points = _fig_points()
    assert len(points) == 81
    got = run_points(points, 2 * CHUNK_TRIALS + 300, 77)
    assert _estimate_digest(got) == _FIG_POINTS_DIGEST


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


def _assert_same(got, want, label):
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert got[key] == want[key], (label, key)


_AXIS_VALUES = {
    "rho_s_db": [0.0, 10.0, 20.0],
    "alpha_c": [0.05, 0.2, 0.4],
    "m": [50, 100, 300],
    "R": [1, 3, 8],
}


@pytest.mark.parametrize("axis", sorted(_AXIS_VALUES))
@pytest.mark.parametrize("scenario", list(ScenarioKind), ids=lambda k: k.value)
def test_batched_sweep_matches_lone_run_trials(scenario, axis):
    # points of one sweep share their draws; each must still get exactly
    # what a lone run_trials at that value gives
    cfg = make_config()
    n = CHUNK_TRIALS + 500  # two chunks, the last one partial
    pts = sweep(cfg, scenario, axis, _AXIS_VALUES[axis], n, 61)
    for value, point in zip(_AXIS_VALUES[axis], pts):
        assert point.error is None
        alone = run_trials(_apply_axis(cfg, axis, value, True), scenario, n, 61)
        _assert_same(point.estimates, alone, (scenario, axis, value))


def test_failing_point_leaves_its_group_intact():
    # 3079 dB overflows the SINRs to NaN while evaluating; the point at
    # 10 dB draws from the same batch and must be unaffected
    cfg = make_config()
    with np.errstate(over="ignore", invalid="ignore"):
        pts = sweep(cfg, ALIGNED, "rho_s_db", [10, 3079], 8192, 5)
    assert pts[0].error is None
    assert pts[1].estimates is None
    assert "SINR must be >= 0 and not NaN" in pts[1].error
    alone = run_trials(_apply_axis(cfg, "rho_s_db", 10, True), ALIGNED, 8192, 5)
    _assert_same(pts[0].estimates, alone, 10)


def test_overflowing_point_raises_no_numpy_warning():
    # same sweep as above with every warning an error: the overflow to NaN
    # is reported only as the point's own error
    cfg = make_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = sweep(cfg, ALIGNED, "rho_s_db", [10, 3079], 8192, 5)
    assert "SINR must be >= 0 and not NaN" in pts[1].error
    alone = run_trials(_apply_axis(cfg, "rho_s_db", 10, True), ALIGNED, 8192, 5)
    _assert_same(pts[0].estimates, alone, 10)


def test_run_points_reports_errors_per_point():
    cfg = make_config()
    with np.errstate(over="ignore", invalid="ignore"):
        got = run_points(
            [(_apply_axis(cfg, "rho_s_db", 3079, True), ALIGNED), (cfg, ALIGNED)], 4096, 5
        )
    assert "SINR must be >= 0 and not NaN" in got[0]
    assert set(got[1]) == {"cu", "ceu_sc", "ceu_mrc", "cc", "ce", "e1", "e2"}


def test_batched_sweep_worker_count_does_not_change_results(monkeypatch):
    # two operating points per element count share each draw, as in fig5,
    # plus a second scenario, so tasks differ in size
    cfg = make_config()
    points = [
        (_apply_axis(cfg, axis, value, True), scenario)
        for scenario in (ALIGNED, ScenarioKind.SINGLE_ZONE_RANDOM)
        for axis, value in (("rho_s_db", 10.0), ("rho_s_db", 15.0), ("R", 2))
    ]
    n = 3 * CHUNK_TRIALS
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    serial = run_points(points, n, 123)
    monkeypatch.setenv("RISNOMA_WORKERS", "3")
    pooled = run_points(points, n, 123)
    assert serial == pooled


def test_chunksize_gives_each_worker_an_equal_share():
    # 25 chunks on 2 workers were once cut 8/8/8/1, idling one worker
    assert _chunksize(25, 2) == 13
    for workers in (2, 3, 4):
        for n_tasks in range(1, 200):
            size = _chunksize(n_tasks, workers)
            assert 1 <= size <= 16
            if n_tasks <= 16 * workers:
                # one batch per worker
                assert size == -(-n_tasks // workers)


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

    # the 10 dB and 15 dB curves draw each chunk once per element count:
    # 8 element counts x 2 chunks
    draws = []
    sample = montecarlo._sample_aligned_batch

    def counting_sample(*args, **kwargs):
        draws.append(args[2])
        return sample(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_sample_aligned_batch", counting_sample)
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    assert cli.cmd_fig("fig5", str(tmp_path / "fig5_serial.csv"), 8192, 1234) == 0
    assert draws == [CHUNK_TRIALS] * 16
    assert (tmp_path / "fig5.csv").read_bytes() == (tmp_path / "fig5_serial.csv").read_bytes()


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

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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma import cli, montecarlo
from risnoma.channel import REFERENCE, ScenarioKind, SystemConfig
from risnoma.fbl import CodeSpec, linearization_params, psi_exact_vec
from risnoma.montecarlo import (
    CHUNK_TRIALS,
    _chunksize,
    run_points,
    run_trials,
)

ALIGNED = ScenarioKind.TWO_ZONE_ALIGNED


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
    for scenario in ScenarioKind:
        cfg = make_config(scenario=scenario)
        monkeypatch.setenv("RISNOMA_WORKERS", "1")
        serial = run_trials(cfg, n, 123)
        monkeypatch.setenv("RISNOMA_WORKERS", "3")
        pooled = run_trials(cfg, n, 123)
        for key in ("cu", "ceu_sc", "ceu_mrc"):
            assert serial[key].mean == pooled[key].mean, scenario
            assert serial[key].stderr == pooled[key].stderr, scenario


def test_no_surface_scenario_equals_eta_zero():
    # no surface is R = 0 in either sampler; skipping the cascade draws
    # leaves the direct-power stream untouched, so all four ways of saying
    # "no surface" give the same estimates bitwise
    want = run_trials(make_config(eta_c=0.0, eta_e=0.0), 8192, 42)
    assert len(want) == 7
    for cfg in (
        make_config(scenario=ScenarioKind.NO_RIS),
        make_config(R=0),
        make_config(R=0, scenario=ScenarioKind.SINGLE_ZONE_RANDOM),
    ):
        assert run_trials(cfg, 8192, 42) == want, cfg.scenario


def test_points_without_a_surface_term_share_one_draw(draws):
    # each point's gains are the direct powers alone, so all five share one
    # draw per chunk, made by the aligned sampler at R = 0
    points = [
        make_config(R=1, scenario=ScenarioKind.NO_RIS),
        make_config(R=8, scenario=ScenarioKind.NO_RIS),
        make_config(R=0),
        make_config(R=0, scenario=ScenarioKind.SINGLE_ZONE_RANDOM),
        make_config(R=8, eta_c=0.0, eta_e=0.0),
    ]
    calls, got = draws(points, 2 * CHUNK_TRIALS)
    assert calls == [("_sample_aligned_batch", 0)] * 2
    assert all(est == got[0] for est in got)


def test_random_phase_at_zero_eta_keeps_its_own_draw(draws):
    # at eta_c = eta_e = 0 the random-phase gains have the law of the direct
    # powers, but the sampler draws its gammas first, so its bits differ
    # from the no-surface draw and it must not join that group
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
        for preset in ("fig2", "fig3", "fig4", "fig5", "fig6")
        for run in cli._preset_runs(preset)
        for p in cli._expand(*run)
    ]


# A change meant to keep the random draws and the float operations must keep
# these digests; a change meant to alter them updates a digest and says why.
_POINT_DIGESTS = {
    ScenarioKind.TWO_ZONE_ALIGNED: "8e346a90e0f60ff756875dc49c9eabadc0fbf45135aa401ff2a41519fda329c0",
    ScenarioKind.SINGLE_ZONE_RANDOM: "18a0f3a1a166cbf9b7ad65d7318fb52abac521dae671c77bea49ae08a8a8b973",
    ScenarioKind.NO_RIS: "88db0a38a02d7578d234e3c5188e1a1c51c3786da47f3abdc4956845ac3f3318",
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


@pytest.mark.parametrize("scenario", list(ScenarioKind), ids=lambda k: k.value)
def test_point_estimates_are_bitwise_frozen(scenario):
    cfg = make_config(rho_s=10.0 ** 0.5, rho_c=10.0 ** -0.5, scenario=scenario)
    got = run_points([cfg], CHUNK_TRIALS + 1000, 2024)
    assert _estimate_digest(got) == _POINT_DIGESTS[scenario]


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
    for scenario in (ALIGNED, ScenarioKind.NO_RIS, ScenarioKind.SINGLE_ZONE_RANDOM):
        est = run_trials(make_config(scenario=scenario), n, 5)
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
    assert small / large == pytest.approx(2.0, rel=0.2)


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
    lin = linearization_params(cfg.code_c)
    a = cfg.alpha_c * cfg.rho_s * cfg.lambda_c
    closed = lin.delta * math.sqrt(cfg.code_c.m) * (
        (lin.u - lin.v) - a * (math.exp(-lin.v / a) - math.exp(-lin.u / a))
    )
    mc = run_trials(cfg, 200_000, 101)["cc"]
    assert mc.mean == pytest.approx(closed, abs=4.0 * mc.stderr)


# ------------------------------------------------------------------- sweeps

def _axis_cfg(axis, value, keys=None):
    # the config of one sweep point over the given model keys (the reference
    # defaults, make_config(), if none), as the CLI builds it
    (point,) = cli._expand(axis, [value], keys or {}, "")
    return point.cfg


def _axis_points(scenario, axis, values):
    # the configs of a sweep in one scenario, as the CLI builds them
    return [replace(_axis_cfg(axis, value), scenario=scenario) for value in values]


def test_single_value_sweep_matches_run_trials():
    direct = run_trials(make_config(rho_s=100.0, rho_c=10.0), 8192, 55)
    got = run_points(_axis_points(ALIGNED, "rho_s_db", [20.0]), 8192, 55)
    assert len(got) == 1 and not isinstance(got[0], str)
    for key in ("cu", "ceu_sc", "ceu_mrc"):
        assert got[0][key].mean == direct[key].mean


def test_sweep_records_per_point_errors_and_continues():
    pts = cli._expand("alpha_c", [0.1, 0.6, 0.2], {}, "")
    assert [isinstance(p.cfg, SystemConfig) for p in pts] == [True, False, True]
    assert "alpha_c" in pts[1].cfg
    ran = cli._simulate(pts, 4096, 8)
    assert [p.value for p, _ in ran] == [0.1, 0.2]
    assert all(set(est) >= {"cu", "ceu_sc", "ceu_mrc"} for _, est in ran)


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
    "R": [1, 3, 8],
}


@pytest.mark.parametrize("axis", sorted(_AXIS_VALUES))
@pytest.mark.parametrize("scenario", list(ScenarioKind), ids=lambda k: k.value)
def test_batched_sweep_matches_lone_run_trials(scenario, axis):
    # points of one sweep share their draws; each must still get exactly
    # what a lone run_trials at that value gives
    n = CHUNK_TRIALS + 500  # two chunks, the last one partial
    got = run_points(_axis_points(scenario, axis, _AXIS_VALUES[axis]), n, 61)
    for value, est in zip(_AXIS_VALUES[axis], got):
        assert not isinstance(est, str)
        alone = run_trials(replace(_axis_cfg(axis, value), scenario=scenario), n, 61)
        _assert_same(est, alone, (scenario, axis, value))


def test_failing_point_leaves_its_group_intact():
    # 3079 dB overflows the SINRs to NaN while evaluating; the point at
    # 10 dB draws from the same batch and must be unaffected
    with np.errstate(over="ignore", invalid="ignore"):
        got = run_points(_axis_points(ALIGNED, "rho_s_db", [10, 3079]), 8192, 5)
    assert not isinstance(got[0], str)
    assert "SINR must be >= 0 and not NaN" in got[1]
    alone = run_trials(_axis_cfg("rho_s_db", 10), 8192, 5)
    _assert_same(got[0], alone, 10)


def test_overflowing_point_raises_no_numpy_warning():
    # same sweep as above with every warning an error: the overflow to NaN
    # is reported only as the point's own error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_points(_axis_points(ALIGNED, "rho_s_db", [10, 3079]), 8192, 5)
    assert "SINR must be >= 0 and not NaN" in got[1]
    alone = run_trials(_axis_cfg("rho_s_db", 10), 8192, 5)
    _assert_same(got[0], alone, 10)


def test_point_reports_its_first_failing_chunk(monkeypatch):
    # every chunk fails with its own message; one worker runs them in order
    chunks = iter(range(3))

    def failing(gains, cfg):
        raise ValueError(f"chunk {next(chunks)} failed")

    monkeypatch.setattr(montecarlo, "_metric_sums", failing)
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    assert run_points([make_config()], 3 * CHUNK_TRIALS, 5) == ["chunk 0 failed"]


def test_run_points_reports_errors_per_point():
    cfg = make_config()
    with np.errstate(over="ignore", invalid="ignore"):
        got = run_points(
            [_axis_cfg("rho_s_db", 3079), cfg], 4096, 5
        )
    assert "SINR must be >= 0 and not NaN" in got[0]
    assert set(got[1]) == {"cu", "ceu_sc", "ceu_mrc", "cc", "ce", "e1", "e2"}


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
        (got,) = montecarlo._chunk_sums(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not isinstance(got, str)
    assert peak < 4 * 2**20


def test_apply_axis_semantics():
    # a sweep point is the config's model keys with the swept key set; the
    # sweeps above build theirs on the reference defaults, make_config()
    cfg = make_config()
    assert cli.parse_config({}).points[0].cfg == cfg
    coupled = _axis_cfg("rho_s_db", 20.0)
    assert coupled.rho_s == pytest.approx(100.0, rel=1e-15)
    assert coupled.rho_c == pytest.approx(10.0, rel=1e-15)
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

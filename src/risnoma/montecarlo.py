"""Seeded, parallelizable Monte Carlo estimation of the average BLERs.

Per trial the instantaneous SINRs of all four decoding steps are formed
from one joint fading draw, the exact finite-blocklength BLER of each step
is evaluated, and the per-user error metrics are averaged.  Averaging the
conditional error probability (a smooth estimator) rather than flipping
Bernoulli coins gives the same expectation at far lower variance.

Determinism: trials are partitioned into fixed 4096-trial chunks; chunk c
draws from a generator seeded by (master seed, c); partial sums are merged
in chunk order.  The result is bitwise identical for any worker count, so
the worker pool (capped by the RISNOMA_WORKERS environment variable) only
affects speed.  Since every point of a call uses the same seed, points that
share the fading law (channel.fading_key) would draw the same batch; they
are grouped so that each chunk is drawn once and evaluated for every point
of its group, and all chunks of one call run in one process pool.

Provides:
    BlerEstimate         -- mean / stderr / n triple
    ScenarioKind         -- aligned two-zone, single-zone random, no surface
    run_points           -- all estimates at many points in one batched call
    run_trials           -- cu / ceu_sc / ceu_mrc estimates
    run_component_trials -- per-decoding-step estimates (cc, ce, e1, e2)
    sweep                -- estimates along one config axis
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import (
    SystemConfig,
    _sample_aligned_batch,
    _sample_random_phase_batch,
    effective_gain,
    fading_key,
)
from .fbl import CodeSpec, psi_exact_vec

__all__ = [
    "BlerEstimate",
    "ScenarioKind",
    "run_points",
    "run_trials",
    "run_component_trials",
    "sweep",
    "SweepPoint",
]

CHUNK_TRIALS = 4096
_BATCH_TASKS = 16  # most chunk tasks per process-pool message

_USER_METRICS = ("cu", "ceu_sc", "ceu_mrc")
_STEP_METRICS = ("cc", "ce", "e1", "e2")
_METRICS = _USER_METRICS + _STEP_METRICS
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class BlerEstimate:
    """Monte Carlo estimate of one average BLER."""

    mean: float
    stderr: float
    n: int


class ScenarioKind(Enum):
    TWO_ZONE_ALIGNED = "two_zone_aligned"
    SINGLE_ZONE_RANDOM = "single_zone_random"
    NO_RIS = "no_ris"


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # counter-based stream: chunk c of master seed s gets its own
    # SeedSequence entropy (s, c); worker assignment cannot change draws
    return np.random.default_rng(
        np.random.SeedSequence([seed & _SEED_MASK, chunk_index])
    )


def _metric_sums(
    gains: tuple[np.ndarray, np.ndarray, np.ndarray], cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Sums and sums of squares of every metric for one config on one batch."""
    gain_t, gain_z, gain_w = gains

    a_c_rho = cfg.alpha_c * cfg.rho_s
    a_e_rho = cfg.alpha_e * cfg.rho_s
    # a huge SNR overflows the SINRs to inf or NaN; psi refuses the NaNs
    # with this config's error, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        g_cc = a_c_rho * gain_t
        g_ce = a_e_rho * gain_t / (a_c_rho * gain_t + 1.0)
        g_e1 = a_e_rho * gain_z / (a_c_rho * gain_z + 1.0)
        g_e2 = cfg.rho_c * gain_w

    eps_cc = psi_exact_vec(g_cc, cfg.code_c)
    eps_ce = psi_exact_vec(g_ce, cfg.code_e)
    eps_e1 = psi_exact_vec(g_e1, cfg.code_e)
    eps_e2 = psi_exact_vec(g_e2, cfg.code_e)

    # CU fails if either SIC stage fails (inclusion-exclusion of the two)
    cu = eps_ce + eps_cc - eps_ce * eps_cc
    # CEU: direct-only when the relay failed to decode, combined otherwise.
    # SC decodes at max(g_e1, g_e2), whose psi is already in eps_e1 or eps_e2
    relay_ok = 1.0 - eps_ce
    sc = eps_ce * eps_e1 + relay_ok * np.where(g_e1 >= g_e2, eps_e1, eps_e2)
    mrc = eps_ce * eps_e1 + relay_ok * psi_exact_vec(g_e1 + g_e2, cfg.code_e)

    cols = (cu, sc, mrc, eps_cc, eps_ce, eps_e1, eps_e2)
    sums = np.array([np.add.reduce(c) for c in cols])
    sqsums = np.array([np.add.reduce(c * c) for c in cols])
    return sums, sqsums


def _chunk_sums(args) -> tuple[int, list[tuple[np.ndarray, np.ndarray] | str]]:
    """Draw one chunk of trials once and evaluate each config of a group on it.

    Every config of the group has the same fading key, so the one batch is
    the batch each would have drawn alone.  The configs are evaluated one
    at a time to keep memory per chunk bounded; a ValueError while
    evaluating one becomes that config's error and the rest carry on.
    """
    cfgs, scenario, n_trials, seed, chunk_index = args
    rng = _chunk_rng(seed, chunk_index)
    head = cfgs[0]

    if scenario is ScenarioKind.SINGLE_ZONE_RANDOM:
        batch = _sample_random_phase_batch(head, rng, n_trials, 2 * head.R)
    else:
        with_cascade = scenario is ScenarioKind.TWO_ZONE_ALIGNED and head.R > 0
        batch = _sample_aligned_batch(head, rng, n_trials, with_cascade=with_cascade)

    gains = effective_gain(batch, head)
    out: list[tuple[np.ndarray, np.ndarray] | str] = []
    for cfg in cfgs:
        try:
            out.append(_metric_sums(gains, cfg))
        except ValueError as exc:
            out.append(str(exc))
    return n_trials, out


def _worker_count() -> int:
    env = os.environ.get("RISNOMA_WORKERS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"RISNOMA_WORKERS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ValueError(f"RISNOMA_WORKERS must be >= 1, got {cap}")
        return cap
    return os.cpu_count() or 1


def _chunksize(n_tasks: int, workers: int) -> int:
    # the same number of batches per worker, each of at most _BATCH_TASKS
    # tasks: workers get equal shares, and the sums one batch returns stay
    # small however many points and chunks the call has
    batches = workers * -(-n_tasks // (workers * _BATCH_TASKS))
    return -(-n_tasks // batches)


def _estimates(count: int, total: np.ndarray, total_sq: np.ndarray) -> dict[str, BlerEstimate]:
    out: dict[str, BlerEstimate] = {}
    for i, name in enumerate(_METRICS):
        mean = total[i] / count
        if count > 1:
            var = max(0.0, (total_sq[i] - count * mean * mean) / (count - 1))
            stderr = math.sqrt(var / count)
        else:
            stderr = 0.0
        out[name] = BlerEstimate(mean=float(min(1.0, max(0.0, mean))), stderr=stderr, n=count)
    return out


def run_points(
    points: Sequence[tuple[SystemConfig, ScenarioKind]], n: int, seed: int
) -> list[dict[str, BlerEstimate] | str]:
    """Estimate every metric at each (config, scenario) point over n trials.

    Returns, per point in the given order, a dict of all seven estimates
    (cu, ceu_sc, ceu_mrc, cc, ce, e1, e2) or that point's error message.
    Points whose scenario and fading key agree share one draw per chunk,
    and every chunk of the call runs in one process pool.  Each point gets
    the same draws and the same float operations as a call with that point
    alone.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    groups: dict[tuple, list[int]] = {}
    for i, (cfg, scenario) in enumerate(points):
        groups.setdefault((scenario, fading_key(cfg)), []).append(i)

    n_chunks = (n + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    owners: list[list[int]] = []
    tasks = []
    for (scenario, _), members in groups.items():
        cfgs = tuple(points[i][0] for i in members)
        for c in range(n_chunks):
            owners.append(members)
            tasks.append((cfgs, scenario, min(CHUNK_TRIALS, n - c * CHUNK_TRIALS), seed, c))

    count = [0] * len(points)
    total = [np.zeros(len(_METRICS)) for _ in points]
    total_sq = [np.zeros(len(_METRICS)) for _ in points]
    errors: list[str | None] = [None] * len(points)
    workers = min(_worker_count(), len(tasks))
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_chunk_sums, tasks, chunksize=_chunksize(len(tasks), workers))
        else:
            results = map(_chunk_sums, tasks)
        # pool.map yields in task order, so every point merges its chunks in
        # chunk order; merging as results arrive holds only a few batches
        for members, (n_c, per_cfg) in zip(owners, results):
            for i, got in zip(members, per_cfg):
                if errors[i] is not None:
                    continue
                if isinstance(got, str):
                    errors[i] = got
                    continue
                count[i] += n_c
                total[i] += got[0]
                total_sq[i] += got[1]
    return [
        errors[i] if errors[i] is not None else _estimates(count[i], total[i], total_sq[i])
        for i in range(len(points))
    ]


def _one_point(
    cfg: SystemConfig, scenario: ScenarioKind, n: int, seed: int, keys: tuple[str, ...]
) -> dict[str, BlerEstimate]:
    got = run_points([(cfg, scenario)], n, seed)[0]
    if isinstance(got, str):
        raise ValueError(got)
    return {k: got[k] for k in keys}


def run_trials(
    cfg: SystemConfig, scenario: ScenarioKind, n: int, seed: int
) -> dict[str, BlerEstimate]:
    """Estimate the three user-level average BLERs over n trials."""
    return _one_point(cfg, scenario, n, seed, _USER_METRICS)


def run_component_trials(
    cfg: SystemConfig, scenario: ScenarioKind, n: int, seed: int
) -> dict[str, BlerEstimate]:
    """Estimate the four per-decoding-step average BLERs over n trials.

    Same trials (same seed derivation) as run_trials; exposes the cc / ce /
    e1 / e2 stages individually for oracle comparisons.
    """
    return _one_point(cfg, scenario, n, seed, _STEP_METRICS)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: the axis value plus estimates or an error."""

    value: float
    estimates: dict[str, BlerEstimate] | None
    error: str | None = None


def _db_to_linear(db: float) -> float:
    # past about 3083 dB the power overflows; inf lets SystemConfig reject it
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _apply_axis(
    cfg: SystemConfig, axis: str, value, couple_rho_c: bool
) -> SystemConfig:
    if axis == "rho_s_db":
        rho_s = _db_to_linear(value)
        rho_c = rho_s / 10.0 if couple_rho_c else cfg.rho_c
        return replace(cfg, rho_s=rho_s, rho_c=rho_c)
    if axis == "R":
        return replace(cfg, R=int(value))
    if axis == "alpha_c":
        return replace(cfg, alpha_c=float(value), alpha_e=1.0 - float(value))
    if axis == "m":
        return replace(
            cfg,
            code_c=CodeSpec(m=int(value), bits=cfg.code_c.bits),
            code_e=CodeSpec(m=int(value), bits=cfg.code_e.bits),
        )
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(
    cfg_base: SystemConfig,
    scenario: ScenarioKind,
    axis: str,
    values,
    n: int,
    seed: int,
    couple_rho_c: bool = True,
) -> list[SweepPoint]:
    """User-level estimates at each axis value; per-point failures are recorded.

    Every point uses the same seed (common random numbers across the
    sweep), and all points go through one run_points call, so each point
    reproduces run_trials at its value exactly.  For rho_s_db sweeps the
    relay SNR follows as rho_s/10 unless couple_rho_c=False pins it at the
    base config's value.
    """
    if not values:
        raise ValueError("sweep needs at least one axis value")
    cfgs: list[SystemConfig | str] = []
    for value in values:
        try:
            cfgs.append(_apply_axis(cfg_base, axis, value, couple_rho_c))
        except ValueError as exc:
            cfgs.append(str(exc))
    valid = [(cfg, scenario) for cfg in cfgs if not isinstance(cfg, str)]
    results = iter(run_points(valid, n, seed))
    return [
        _sweep_point(value, cfg if isinstance(cfg, str) else next(results))
        for value, cfg in zip(values, cfgs)
    ]


def _sweep_point(value, result: dict[str, BlerEstimate] | str) -> SweepPoint:
    """The SweepPoint of one axis value from its run_points result."""
    if isinstance(result, str):
        return SweepPoint(value=float(value), estimates=None, error=result)
    return SweepPoint(value=float(value), estimates={k: result[k] for k in _USER_METRICS})

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
affects speed.  Since every point of a call uses the same seed, points
whose sampler reads the same inputs are grouped so that each chunk is
drawn once and evaluated for every point of its group, and all chunks of
one call run in one process pool.  run_points states the grouping rule in
one place; no surface is R = 0 and groups like any other point.

Per config and chunk the hot path makes two psi calls: one at code_c for
the cc step, and one at code_e on a (4, n) block of the ce, e1 and e2 SINRs
and the MRC sum.  psi is elementwise, so the block gives the bits of four
separate calls; the memory it holds is one config's, whatever the group
size.  The pool hands out the chunk tasks in batches, at least four per
worker and at most 16 tasks each, so the workers finish close together.

No point fails: SystemConfig bounds the link means, so every drawn gain is
finite, and the SIC steps cap their SINR at its ceiling, so no SINR is NaN.

Provides:
    BlerEstimate         -- mean / stderr / n triple
    run_points           -- all estimates at many points in one batched call
    run_trials           -- all estimates at one point
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .channel import CC, CE, E1, E2, ScenarioKind, SystemConfig, links
from .channel import _sample_aligned_batch, _sample_random_phase_batch
from .fbl import _echo, psi_exact_vec

__all__ = [
    "BlerEstimate",
    "run_points",
    "run_trials",
]

CHUNK_TRIALS = 4096
_BATCH_TASKS = 16  # most chunk tasks per process-pool message

_STEPS = (CC, CE, E1, E2)
_METRICS = ("cu", "ceu_sc", "ceu_mrc") + tuple(step.tag for step in _STEPS)


@dataclass(frozen=True)
class BlerEstimate:
    """Monte Carlo estimate of one average BLER."""

    mean: float
    stderr: float
    n: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # counter-based stream: chunk c of master seed s gets its own
    # SeedSequence entropy (s, c); worker assignment cannot change draws
    return np.random.default_rng(
        np.random.SeedSequence([seed, chunk_index])
    )


def _metric_sums(
    gains: tuple[np.ndarray, np.ndarray, np.ndarray], cfg: SystemConfig
) -> np.ndarray:
    """Sums (row 0) and sums of squares (row 1) of every metric for one config on one batch."""
    # two psi calls: cc at its code, and one block of the ce, e1 and e2
    # SINRs and the MRC sum, which share ce's code.  A huge SNR overflows
    # the SINRs to inf, where psi is 0, and a SIC ratio to inf/inf, which
    # the step caps at its ceiling; neither is a fault, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        g_cc = CC.sinr(gains[CC.link], cfg)
        block = np.empty((4, len(g_cc)))
        for row, step in zip(block, (CE, E1, E2)):
            row[...] = step.sinr(gains[step.link], cfg)
        g_e1, g_e2 = block[1:3]
        np.add(g_e1, g_e2, out=block[3])
    eps_cc = psi_exact_vec(g_cc, CC.code(cfg))
    eps_ce, eps_e1, eps_e2, eps_mrc = psi_exact_vec(block, CE.code(cfg))

    # CU fails if either SIC stage fails (inclusion-exclusion of the two)
    cu = eps_ce + eps_cc - eps_ce * eps_cc
    # CEU: direct-only when the relay failed to decode, combined otherwise.
    # SC decodes at max(g_e1, g_e2), whose psi is already in eps_e1 or eps_e2
    direct_only, relay_ok = eps_ce * eps_e1, 1.0 - eps_ce
    sc = direct_only + relay_ok * np.where(g_e1 >= g_e2, eps_e1, eps_e2)
    mrc = direct_only + relay_ok * eps_mrc

    cols = (cu, sc, mrc, eps_cc, eps_ce, eps_e1, eps_e2)
    return np.array([[np.add.reduce(c) for c in cols], [np.add.reduce(c * c) for c in cols]])


def _chunk_sums(args) -> list[np.ndarray]:
    """Draw one chunk of trials once and evaluate each config of a group on it.

    The configs of a group draw alike (run_points states the rule); aligned
    ones may differ in R, so each takes the gains at its own R from the one
    aligned draw.  Either way a config gets the draw it would have made
    alone.  The configs are evaluated one at a time, so only one config's
    SINRs are alive at once; the gains stay alive for the whole loop, one
    (T, Z, W) per distinct R.
    """
    cfgs, n_trials, seed, chunk_index = args
    rng = _chunk_rng(seed, chunk_index)
    if cfgs[0].scenario is ScenarioKind.SINGLE_ZONE_RANDOM:
        by_count = {cfgs[0].R: _sample_random_phase_batch(cfgs[0], rng, n_trials)}
    else:
        # one draw at the group's largest R holds every smaller R as a prefix
        top = max(cfgs, key=lambda cfg: cfg.R)
        by_count = _sample_aligned_batch(top, rng, n_trials, counts={cfg.R for cfg in cfgs})
    return [_metric_sums(by_count[cfg.R], cfg) for cfg in cfgs]


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
    # the CPUs this process may run on, which an affinity mask can limit
    # below the host's count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunksize(n_tasks: int, workers: int) -> int:
    # at least four batches per worker, of 1 to _BATCH_TASKS tasks.  A free
    # worker takes the next batch, so no worker ends more than one batch,
    # at most a quarter of its share, behind that share (with fewer than
    # four tasks per worker, one task behind).  The cap keeps the sums one
    # batch returns small however many points and chunks the call has
    return max(1, min(_BATCH_TASKS, n_tasks // (4 * workers)))


def _estimates(n: int, sums: np.ndarray) -> dict[str, BlerEstimate]:
    # the clamp below would turn a NaN mean into 0.0; a non-finite sum is a
    # fault of the program, not of the config, so it is not a ValueError
    if not np.isfinite(sums).all():
        raise RuntimeError(f"internal error: non-finite Monte Carlo sum over {n} trials")
    out: dict[str, BlerEstimate] = {}
    for name, total, total_sq in zip(_METRICS, *sums):
        mean = total / n
        if n > 1:
            var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
            stderr = math.sqrt(var / n)
        else:
            stderr = 0.0
        out[name] = BlerEstimate(mean=float(min(1.0, max(0.0, mean))), stderr=stderr, n=n)
    return out


def _check_budget(n: int, seed: int) -> None:
    """Refuse a trial count below 1 or a seed outside 64 bits with ValueError."""
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {_echo(n)}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {_echo(seed)}")


def run_points(
    cfgs: Sequence[SystemConfig], n: int, seed: int
) -> list[dict[str, BlerEstimate]]:
    """Estimate every metric at each point, one config each, over n trials.

    Returns, per point in the given order, a dict of all seven estimates
    (cu, ceu_sc, ceu_mrc, cc, ce, e1, e2).  Points that draw alike share
    one draw per chunk (the grouping loop below states the rule), and every
    chunk of the call runs in one process pool.  Each point gets the same
    draws and the same float operations as a call with that point alone.
    """
    _check_budget(n, seed)
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        # points share a chunk's draw when their sampler reads the same
        # inputs.  Aligned gains at R elements are a prefix of a draw at any
        # larger R, so an aligned point keys on its links alone; a
        # random-phase point keys on R and its links
        aligned = cfg.scenario is ScenarioKind.TWO_ZONE_ALIGNED
        groups.setdefault((cfg.scenario, links(cfg), None if aligned else cfg.R), []).append(i)

    n_chunks = (n + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    owners: list[list[int]] = []
    tasks = []
    for members in groups.values():
        group = tuple(cfgs[i] for i in members)
        for c in range(n_chunks):
            owners.append(members)
            tasks.append((group, min(CHUNK_TRIALS, n - c * CHUNK_TRIALS), seed, c))

    sums = np.zeros((len(cfgs), 2, len(_METRICS)))
    workers = min(_worker_count(), len(tasks))
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_chunk_sums, tasks, chunksize=_chunksize(len(tasks), workers))
        else:
            results = map(_chunk_sums, tasks)
        # pool.map yields in task order, so every point merges its chunks in
        # chunk order; merging as results arrive holds only a few batches
        for members, per_cfg in zip(owners, results):
            for i, got in zip(members, per_cfg):
                sums[i] += got
    return [_estimates(n, s) for s in sums]


def run_trials(cfg: SystemConfig, n: int, seed: int) -> dict[str, BlerEstimate]:
    """Every estimate that run_points gives for this one point."""
    return run_points([cfg], n, seed)[0]

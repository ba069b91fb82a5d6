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
affects speed.

Provides:
    BlerEstimate         -- mean / stderr / n triple
    ScenarioKind         -- aligned two-zone, single-zone random, no surface
    run_trials           -- cu / ceu_sc / ceu_mrc estimates
    run_component_trials -- per-decoding-step estimates (cc, ce, e1, e2)
    sweep                -- estimates along one config axis
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import (
    SystemConfig,
    _sample_aligned_batch,
    _sample_random_phase_batch,
    effective_gain,
)
from .fbl import CodeSpec, psi_exact_vec

__all__ = [
    "BlerEstimate",
    "ScenarioKind",
    "run_trials",
    "run_component_trials",
    "sweep",
    "SweepPoint",
]

CHUNK_TRIALS = 4096

_METRICS = ("cu", "ceu_sc", "ceu_mrc", "cc", "ce", "e1", "e2")
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


def _chunk_sums(args) -> tuple[int, np.ndarray, np.ndarray]:
    """Sums and sums of squares of every metric over one chunk of trials."""
    cfg, scenario, n_trials, seed, chunk_index = args
    rng = _chunk_rng(seed, chunk_index)

    if scenario is ScenarioKind.SINGLE_ZONE_RANDOM:
        batch = _sample_random_phase_batch(cfg, rng, n_trials, 2 * cfg.R)
    else:
        with_cascade = scenario is ScenarioKind.TWO_ZONE_ALIGNED and cfg.R > 0
        batch = _sample_aligned_batch(cfg, rng, n_trials, with_cascade=with_cascade)

    gain_t, gain_z, gain_w = effective_gain(batch, cfg)

    a_c_rho = cfg.alpha_c * cfg.rho_s
    a_e_rho = cfg.alpha_e * cfg.rho_s
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
    # CEU: direct-only when the relay failed to decode, combined otherwise
    relay_ok = 1.0 - eps_ce
    sc = eps_ce * eps_e1 + relay_ok * psi_exact_vec(
        np.maximum(g_e1, g_e2), cfg.code_e
    )
    mrc = eps_ce * eps_e1 + relay_ok * psi_exact_vec(g_e1 + g_e2, cfg.code_e)

    cols = (cu, sc, mrc, eps_cc, eps_ce, eps_e1, eps_e2)
    sums = np.array([float(np.sum(c)) for c in cols])
    sqsums = np.array([float(np.sum(c * c)) for c in cols])
    return n_trials, sums, sqsums


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


def _accumulate(
    cfg: SystemConfig, scenario: ScenarioKind, n: int, seed: int
) -> dict[str, BlerEstimate]:
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    n_chunks = (n + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    tasks = [
        (cfg, scenario, min(CHUNK_TRIALS, n - c * CHUNK_TRIALS), seed, c)
        for c in range(n_chunks)
    ]

    workers = min(_worker_count(), n_chunks)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # pool.map preserves task order, so the merge below is in
            # chunk order regardless of completion order
            results = list(pool.map(_chunk_sums, tasks, chunksize=8))
    else:
        results = [_chunk_sums(t) for t in tasks]

    total = np.zeros(len(_METRICS))
    total_sq = np.zeros(len(_METRICS))
    count = 0
    for n_c, sums, sqsums in results:
        count += n_c
        total += sums
        total_sq += sqsums

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


def run_trials(
    cfg: SystemConfig, scenario: ScenarioKind, n: int, seed: int
) -> dict[str, BlerEstimate]:
    """Estimate the three user-level average BLERs over n trials."""
    full = _accumulate(cfg, scenario, n, seed)
    return {k: full[k] for k in ("cu", "ceu_sc", "ceu_mrc")}


def run_component_trials(
    cfg: SystemConfig, scenario: ScenarioKind, n: int, seed: int
) -> dict[str, BlerEstimate]:
    """Estimate the four per-decoding-step average BLERs over n trials.

    Same trials (same seed derivation) as run_trials; exposes the cc / ce /
    e1 / e2 stages individually for oracle comparisons.
    """
    full = _accumulate(cfg, scenario, n, seed)
    return {k: full[k] for k in ("cc", "ce", "e1", "e2")}


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
    """Run run_trials at each axis value; per-point failures are recorded.

    Every point uses the same seed (common random numbers across the
    sweep), so a single-value sweep reproduces run_trials exactly.  For
    rho_s_db sweeps the relay SNR follows as rho_s/10 unless
    couple_rho_c=False pins it at the base config's value.
    """
    if not values:
        raise ValueError("sweep needs at least one axis value")
    points: list[SweepPoint] = []
    for value in values:
        try:
            cfg = _apply_axis(cfg_base, axis, value, couple_rho_c)
            est = run_trials(cfg, scenario, n, seed)
        except ValueError as exc:
            points.append(SweepPoint(value=float(value), estimates=None, error=str(exc)))
            continue
        points.append(SweepPoint(value=float(value), estimates=est))
    return points

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
size.  An aligned group's draw yields its gains one element count at a
time, and each is evaluated before the next is formed, so a chunk's memory
does not grow with the number of distinct R either.  The pool hands out
the chunk tasks in batches, at least four per worker and at most 16 tasks
each, so the workers finish close together.

No point fails: SystemConfig bounds the link means, so every drawn gain is
finite, and the SIC steps cap their SINR at its ceiling, so no SINR is NaN.

Provides:
    BlerEstimate               -- mean / stderr / n triple, and the half_width
                                  of its empirical-Bernstein interval
    run_points                 -- all estimates at many points in one batched call
    run_trials                 -- all estimates at one point
    psi_exact_vec              -- Q((C(gamma) - rate)/sqrt(V(gamma)/m)) over an
                                  array, through erfc with no clip of its argument
    _sample_aligned_batch      -- n aligned-phase draws of the gains T, Z, W,
                                  element by element, yielded at each element
                                  count as the loop reaches it, so one draw
                                  serves every smaller R as a prefix
    _sample_random_phase_batch -- n single-zone draws of T, Z, W, each from
                                  its exact law (gamma-mixed exponential)
"""
from __future__ import annotations

import math
import os
from collections.abc import Collection, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc as _erfc_vec

from .channel import (
    CC, CE, E1, E2, CodeSpec, ScenarioKind, SinrKind, SystemConfig, _as_instance, _as_int,
    _as_thresholds, _echo, links,
)

__all__ = [
    "BlerEstimate",
    "run_points",
    "run_trials",
    "psi_exact_vec",
]

CHUNK_TRIALS = 4096
_BATCH_TASKS = 16  # most chunk tasks per process-pool message

_METRICS = ("cu", "ceu_sc", "ceu_mrc") + tuple(step.value for step in SinrKind)
_L = math.log(4.0 / 1e-3)  # ln(4/delta): an interval misses with probability <= 1e-3


@dataclass(frozen=True)
class BlerEstimate:
    """Monte Carlo estimate of one average BLER, and its interval."""

    mean: float
    stderr: float
    n: int

    @property
    def half_width(self) -> float:
        """h = stderr*sqrt(2L) + 7L/(3(n - 1)), the half-width of the two-sided
        empirical-Bernstein interval around mean (Maurer & Pontil, COLT 2009,
        Thm. 4, with delta/2 for each side): every per-trial metric lies in
        [0, 1], so [mean - h, mean + h] holds the true mean with probability
        >= 1 - delta.  It needs only the estimate's own stderr and n, and is
        inf for a single trial."""
        dof = self.n - 1
        return self.stderr * math.sqrt(2.0 * _L) + 7.0 * _L / (3.0 * dof) if dof else math.inf


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # counter-based stream: chunk c of master seed s gets its own
    # SeedSequence entropy (s, c); worker assignment cannot change draws
    return np.random.default_rng(
        np.random.SeedSequence([seed, chunk_index])
    )


def _sample_aligned_batch(
    cfg: SystemConfig, rng: np.random.Generator, n: int, counts: Collection[int]
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """n draws of the gains (T, Z, W) with the surface phases aligned per zone.

    Each gain is p + (eta*q)^2: the direct power p is exponential with mean
    lam_d, and the cascaded sum q adds R independent |g||h| products, each
    sqrt(lam_g lam_r) times sqrt(e_g e_h) for unit exponentials e_g, e_h.
    Draw order is fixed: the three direct powers, then element by element,
    for r = 0..R-1, the (e_g, e_h) pair of each link T, Z, W.  So the draws
    of element r never depend on R, and the running sums after k elements
    are what a draw at R = k would give, bit for bit.  At R = 0 the direct
    powers come from untouched draws, which is what makes no surface
    bit-compatible with eta = 0.

    A generator: it yields (k, (T, Z, W)) for each element count k in
    counts, in increasing k, as the element loop reaches k, all from this
    one draw.  Every count lies in [0, cfg.R]: _chunk_sums, the one caller,
    draws at its group's largest R, so the sampler does not check again.
    The element loop holds no (n, R) buffer, and a caller that drops each
    (T, Z, W) before taking the next holds one count's gains at a time.
    """
    powers = tuple(rng.exponential(link.lam_d, size=n) for link in links(cfg))
    scales = [link.eta * math.sqrt(link.lam_g * link.lam_r) for link in links(cfg)]
    sums = np.zeros((3, n))
    pairs = np.empty((3, 2, n))  # one (e_g, e_h) pair per link
    prods = np.empty((3, n))
    if 0 in counts:
        yield 0, powers
    for k in range(1, cfg.R + 1):
        rng.standard_exponential(out=pairs)
        np.multiply(pairs[:, 0], pairs[:, 1], out=prods)
        np.sqrt(prods, out=prods)
        sums += prods
        if k in counts:
            yield k, tuple(p + (scale * s) ** 2 for p, scale, s in zip(powers, scales, sums))


def _sample_random_phase_batch(
    cfg: SystemConfig, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n draws of the gains (T, Z, W) of the single-zone baseline: one
    surface of N = 2R elements, uniform random phases.

    Each link's field is h + eta * sum_r g_r e^{j phi_r} h_r over the N
    elements, all channels circularly symmetric complex Gaussian.  Since
    g_r e^{j phi_r} has the law of g_r, the phases change nothing; given
    the h_r the field is CN(0, lam_d + eta^2 lam_g S) with S = sum_r
    |h_r|^2 ~ Gamma(N, scale lam_r).  So each link power is drawn exactly
    as Exp(1) * (lam_d + eta^2 lam_g S).  Draw order per link, links in the
    order T, Z, W: the gamma S (zeros, from no draws, when R = 0), then the
    unit exponential.
    """
    gains = []
    for lam_d, lam_g, lam_r, eta in links(cfg):
        mean = lam_d + eta * eta * lam_g * rng.gamma(2 * cfg.R, lam_r, size=n)
        gains.append(rng.exponential(1.0, size=n) * mean)
    return tuple(gains)


_LOG2E_SQ = math.log2(math.e) ** 2
_SQRT2 = math.sqrt(2.0)


def psi_exact_vec(gamma: np.ndarray, code: CodeSpec) -> np.ndarray:
    """Instantaneous BLER at each SINR under the normal approximation.

    1 at gamma = 0, by the formula itself: the dispersion term m/V is inf
    there, the Q argument -inf and erfc(-inf) = 2.
    Strictly decreasing in gamma, exactly 0.5 where capacity equals rate.
    Elementwise over an array of any shape, with each entry's bits
    independent of its neighbours, so stacking the SINRs of several steps
    that share a code into one block and calling once gives the same bits
    as one call per step at a fraction of the fixed cost per call.
    The Q argument is not clipped: scipy's erfc(x) is exactly 0 for
    x >= 26.6417 and exactly 2 for x <= -5.8636, and maps +-inf to 0 and
    2, so an argument past either point already gives the exact limit.
    Raises ValueError on a SINR that is not real numbers, or is negative
    or NaN, and on a code that is not a CodeSpec; a float64 array is read
    in place, not copied.
    """
    g = _as_thresholds("SINR", gamma)
    _as_instance("code", code, CodeSpec)
    # one pass over two buffers; every entry goes through the formula
    out = np.empty_like(g)
    buf = np.empty_like(g)
    with np.errstate(over="ignore", divide="ignore"):
        np.add(1.0, g, out=buf)
        np.log2(buf, out=out)
        np.multiply(buf, buf, out=buf)
        np.divide(1.0, buf, out=buf)
        np.subtract(1.0, buf, out=buf)
        np.multiply(_LOG2E_SQ, buf, out=buf)
        np.divide(code.m, buf, out=buf)
        np.sqrt(buf, out=buf)
        np.subtract(out, code.rate, out=out)
        np.multiply(out, buf, out=out)
        np.divide(out, _SQRT2, out=out)
        _erfc_vec(out, out=out)
        np.multiply(0.5, out, out=out)
    return out


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
    alone.  The group must come in increasing R, as run_points orders it:
    the aligned draw is made at the last config's R, and the sums come back
    in the group's order because its counts arrive in increasing R.  Each
    count's (T, Z, W) is evaluated for its configs, one config at a time,
    as the draw reaches it and before the next count is formed, so what a
    chunk holds does not grow with the number of distinct R in its group.
    """
    cfgs, n_trials, seed, chunk_index = args
    rng = _chunk_rng(seed, chunk_index)
    if cfgs[0].scenario is ScenarioKind.SINGLE_ZONE_RANDOM:
        draws = [(cfgs[0].R, _sample_random_phase_batch(cfgs[0], rng, n_trials))]
    else:
        # one draw at the group's largest R holds every smaller R as a prefix
        draws = _sample_aligned_batch(cfgs[-1], rng, n_trials, counts={cfg.R for cfg in cfgs})
    return [_metric_sums(gains, cfg) for count, gains in draws for cfg in cfgs if cfg.R == count]


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


def _check_budget(n: int, seed: int) -> tuple[int, int]:
    """The trial count and seed read as integers; ValueError for any other
    value, for a trial count below 1 or for a seed outside 64 bits."""
    n, seed = _as_int("trial count", n), _as_int("seed", seed)
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {_echo(n)}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {_echo(seed)}")
    return n, seed


def run_points(
    cfgs: Sequence[SystemConfig], n: int, seed: int
) -> list[dict[str, BlerEstimate]]:
    """Estimate every metric at each point, one config each, over n trials.

    Returns, per point in the given order, a dict of all seven estimates
    (cu, ceu_sc, ceu_mrc, cc, ce, e1, e2).  Points that draw alike share
    one draw per chunk (the grouping loop below states the rule), and every
    chunk of the call runs in one process pool.  Each point gets the same
    draws and the same float operations as a call with that point alone.
    n and seed are read by _check_budget; then a cfgs that is not a
    Sequence, and each config that is not a SystemConfig, is refused by
    name, before anything is drawn.
    """
    n, seed = _check_budget(n, seed)
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(_as_instance("cfgs", cfgs, Sequence)):
        _as_instance("cfg", cfg, SystemConfig)
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
        # _chunk_sums takes a group in increasing R; the sums still merge by
        # member index, so the output keeps the given order
        members.sort(key=lambda i: cfgs[i].R)
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

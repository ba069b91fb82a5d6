"""Which risnoma names the traced run wraps, and the per-layer metrics.

Every function is wrapped at the module attribute its caller resolves at
call time: montecarlo imports the samplers and psi_exact_vec by name, cli
imports run_trials by name, and analytic calls its own effective_gain_cdf
through the module globals.  The compute layers are traced in a one-worker
run, where every chunk runs in this process; dispatch is traced in a run at
the workload's own worker count, where chunks run in pool workers whose
spans would be lost.
"""
from __future__ import annotations

import json
import os

import numpy as np

from risnoma import analytic, cli, montecarlo

from spans import Tracer, summarize


def _trials(args, kwargs) -> int:
    return int(args[2])


def _elements(args, kwargs) -> int:
    return int(np.size(args[0]))


def _rows(args, kwargs) -> int:
    return len(args[1])


def trace_compute(tracer: Tracer) -> None:
    """Wrap the sampler, psi, chunk, closed-form and CSV layers."""
    tracer.wrap(montecarlo, "_sample_aligned_batch", "channel.sample_aligned", _trials)
    tracer.wrap(montecarlo, "_sample_random_phase_batch", "channel.sample_random_phase", _trials)
    tracer.wrap(montecarlo, "psi_exact_vec", "fbl.psi_exact_vec", _elements)
    tracer.wrap(montecarlo, "_chunk_sums", "montecarlo.chunk")
    tracer.wrap(analytic, "effective_gain_cdf", "analytic.effective_gain_cdf")
    tracer.wrap(cli, "_analytic_rows", "analytic.point")
    tracer.wrap(cli, "_write_csv", "cli.write_csv", _rows)


def trace_dispatch(tracer: Tracer) -> None:
    """Wrap the per-point Monte Carlo call and the process pool."""
    tracer.wrap(montecarlo, "run_trials", "montecarlo.run_trials")
    tracer.wrap(cli, "run_trials", "montecarlo.run_trials")
    tracer.wrap_pool(montecarlo, "ProcessPoolExecutor", "montecarlo.pool_start")


# metric -> the wrapped names it is computed from, and what it should move
LAYER_MAP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layer_map.json")


def _ratio(num: float, den: float) -> float:
    # a layer that did no work on this workload reads 0
    return num / den if den else 0.0


def layer_metrics(compute_spans, dispatch_spans, iterations: int, workers: int,
                  traced_wall_s: float, untraced_wall_s: float,
                  missing: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values per iteration, plus the metrics left missing.

    compute_spans come from one-worker traced iterations, dispatch_spans
    from traced iterations at the workload's worker count; traced and
    untraced wall are medians of one-worker iterations.
    """
    c = summarize(compute_spans)
    d = summarize(dispatch_spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
    aligned = c.get("channel.sample_aligned", empty)
    random_phase = c.get("channel.sample_random_phase", empty)
    psi = c.get("fbl.psi_exact_vec", empty)
    chunk = c.get("montecarlo.chunk", empty)
    cdf = c.get("analytic.effective_gain_cdf", empty)
    point = c.get("analytic.point", empty)
    csv = c.get("cli.write_csv", empty)
    pool = d.get("montecarlo.pool_start", empty)
    mc_wall = d.get("montecarlo.run_trials", empty)["total_s"]
    wall = c.get("workload", empty)["total_s"]
    per_iter = 1.0 / iterations

    values = {
        "channel.sample_aligned.ns_per_trial": 1e9 * _ratio(aligned["total_s"], aligned["work"]),
        "channel.sample_aligned.share": _ratio(aligned["total_s"], wall),
        "channel.sample.trials": (aligned["work"] + random_phase["work"]) * per_iter,
        "channel.sample_random_phase.ns_per_trial":
            1e9 * _ratio(random_phase["total_s"], random_phase["work"]),
        "channel.sample_random_phase.share": _ratio(random_phase["total_s"], wall),
        "fbl.psi_exact_vec.calls": psi["calls"] * per_iter,
        "fbl.psi_exact_vec.ns_per_element": 1e9 * _ratio(psi["total_s"], psi["work"]),
        "fbl.psi_exact_vec.share": _ratio(psi["total_s"], wall),
        "montecarlo.chunks": chunk["calls"] * per_iter,
        "montecarlo.chunk.self_ms": 1e3 * _ratio(chunk["self_s"], chunk["calls"]),
        "montecarlo.pools_started": pool["calls"] * per_iter,
        "montecarlo.pool_start_ms": 1e3 * _ratio(pool["total_s"], pool["calls"]),
        # derived: serial chunk seconds over workers x parallel MC wall
        "montecarlo.dispatch_efficiency": _ratio(chunk["total_s"], workers * mc_wall),
        "analytic.effective_gain_cdf.calls": cdf["calls"] * per_iter,
        "analytic.cdf_calls_per_point": _ratio(cdf["calls"], point["calls"]),
        "analytic.effective_gain_cdf.us_per_call": 1e6 * _ratio(cdf["total_s"], cdf["calls"]),
        "analytic.point_ms": 1e3 * _ratio(point["total_s"], point["calls"]),
        "cli.write_csv_ms": 1e3 * csv["total_s"] * per_iter,
        "cli.rows": csv["work"] * per_iter,
        "tracing_overhead_frac": _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
    }
    with open(LAYER_MAP, encoding="utf-8") as fh:
        sources = json.load(fh)["metrics"]
    gone = {name.removeprefix("risnoma.") for name in missing}
    lost = sorted(m for m, row in sources.items() if gone.intersection(row["from"]))
    for name in lost:
        values[name] = 0.0
    return values, lost

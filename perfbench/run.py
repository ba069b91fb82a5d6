"""risnoma benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig_sweep --seed 1234 --seconds 30 --trace 0

The program is imported from ./src, so nothing needs installing.  With
--trace 0 the workload repeats at its own worker count until --seconds have
passed; the end-to-end metrics are medians over those iterations.  A
correctness gate follows the timed iterations (a Monte Carlo workload is
rerun at the other worker count and must give the same bytes), then set-up
is timed in fresh processes.  With --trace 1 each iteration runs the workload
untraced and traced at one worker, and traced at its own worker count, and
the per-layer metrics come from the spans.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it describes the machine and inputs.
The exit code is 1 when the correctness gate fails, and 2 when the program
cannot be imported from this directory.  Scratch files and a full result
record (spans included, for --trace 1) go under ./.perfbench/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NoReturn

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120

# One fresh process: import the package and run one point through both
# evaluation paths (a one-chunk compare), as a user's first command would.
_SETUP_PROBE = """
import contextlib, io, sys
from risnoma import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["compare", "--config", sys.argv[1], "--trials", "4096", "--seed", sys.argv[2]])
sys.exit(0 if code in (0, 4) else 1)
"""


def _die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "risnoma", "__init__.py")):
        _die(f"no risnoma package under {SRC}; run from the root of a checkout")
    sys.path.insert(1, SRC)
    import numpy
    import risnoma
    import scipy

    if not os.path.abspath(risnoma.__file__).startswith(SRC + os.sep):
        _die(f"risnoma imported from {risnoma.__file__}, not from {SRC}")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "risnoma": risnoma.__version__}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _set_workers(n: int) -> None:
    os.environ["RISNOMA_WORKERS"] = str(n)


class Check:
    """Accumulates operation counts and correctness problems across runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] | None = None
        self.exit_codes: set[int] = set()

    def take(self, outcome, label: str) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"{label}: {p}" for p in outcome.problems]
        self.exit_codes.update(outcome.exit_codes)
        if self.reference is None:
            self.reference = outcome.outputs
            return
        for name in sorted(set(self.reference) | set(outcome.outputs)):
            if outcome.outputs.get(name) != self.reference.get(name):
                self.problems.append(f"{label}: {name} differs from the first run")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and bool(self.reference)


def _timed_runs(runner, seconds: float, check: Check):
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        c0, t0 = _cpu_seconds(), time.perf_counter()
        outcome = runner.run()
        t1, c1 = time.perf_counter(), _cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        check.take(outcome, f"iteration {len(walls)}")
        if t1 - start >= seconds:
            return walls, cpus


def _setup_times(seed: int) -> list[float]:
    config = os.path.join(OUT, "work", "setup_reference.json")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("{}")
    env = dict(os.environ, RISNOMA_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, config, str(seed)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
    return times


def _end_to_end(workload, runner, args, nproc: int, check: Check, info: dict) -> dict:
    workers = 1 if workload.serial else nproc
    _set_workers(workers)
    walls, cpus = _timed_runs(runner, args.seconds, check)
    peak = _peak_rss_mb()

    other = nproc if workers == 1 else 1
    if workload.monte_carlo and other != workers:
        _set_workers(other)
        check.take(runner.run(), f"gate at {other} worker(s)")
        info["gate_workers"] = [workers, other]

    setup = _setup_times(args.seed)
    points = workload.points()
    info.update(workers=workers, iterations=len(walls),
                wall_s_all=walls, setup_s_all=setup)
    if workload.monte_carlo:
        info["trials_per_s"] = statistics.median(
            points * runner.trials / w for w in walls)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "points_per_s": statistics.median(points / w for w in walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }


def _per_layer(workload, runner, args, nproc: int, check: Check, info: dict) -> tuple[dict, dict]:
    import layers
    from spans import Tracer

    workers = 1 if workload.serial else nproc
    compute, dispatch = Tracer(), Tracer()
    traced_walls, untraced_walls = [], []
    start = time.perf_counter()

    def untraced():
        _set_workers(1)
        t0 = time.perf_counter()
        check.take(runner.run(), "untraced, 1 worker")
        untraced_walls.append(time.perf_counter() - t0)

    def traced():
        _set_workers(1)
        layers.trace_compute(compute)
        try:
            t0 = time.perf_counter()
            outcome = compute.call("workload", 0, runner.run)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            compute.restore()
        check.take(outcome, "traced, 1 worker")

    iterations = 0
    while True:
        # the dispatch run goes first, so the one-worker pair runs warm
        _set_workers(workers)
        layers.trace_dispatch(dispatch)
        try:
            outcome = dispatch.call("workload", 0, runner.run)
        finally:
            dispatch.restore()
        check.take(outcome, f"traced, {workers} worker(s)")
        # alternate the order so drift does not bias the overhead estimate
        for step in ((untraced, traced) if iterations % 2 == 0 else (traced, untraced)):
            step()
        iterations += 1
        if time.perf_counter() - start >= args.seconds:
            break

    missing = sorted(set(compute.missing) | set(dispatch.missing))
    values, lost = layers.layer_metrics(
        compute.spans, dispatch.spans, iterations, workers,
        statistics.median(traced_walls), statistics.median(untraced_walls), missing)
    info.update(workers=workers, iterations=iterations, missing_names=missing,
                missing_metrics=lost,
                derived_metrics=["montecarlo.dispatch_efficiency", "tracing_overhead_frac"])
    spans = {"compute": compute.spans, "dispatch": dispatch.spans}
    return values, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="Monte Carlo trials per point instead of the workload's own")
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _die(f"cannot read BENCHMARK.json in {ROOT}: {exc}")
    versions = _import_program()
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    trials = args.trials if args.trials is not None and workload.monte_carlo else workload.trials
    nproc = len(os.sched_getaffinity(0))

    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, work, args.seed, trials)
    check = Check()
    info = {"workload": workload.name, "seed": args.seed, "trials_per_point": trials,
            "points_per_iteration": workload.points(), "nproc": nproc,
            "cpu_model": _cpu_model(), "git_commit": _git_commit(), **versions}

    if args.trace:
        values, spans = _per_layer(workload, runner, args, nproc, check, info)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, spans = _end_to_end(workload, runner, args, nproc, check, info), None
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    shutil.rmtree(work, ignore_errors=True)

    info.update(sha256={name: hashlib.sha256(data).hexdigest()
                        for name, data in (check.reference or {}).items()},
                exit_codes=sorted(check.exit_codes), problems=check.problems)
    if workload.kind == "compare" and 4 in check.exit_codes:
        # acceptance criterion 4: the MRC lower bound fails at the reference
        # point by design; recorded, not counted as a failed operation
        info["compare_verdict"] = "comparison FAILED (exit 4), the by-design MRC-bound verdict"
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = os.path.join(OUT, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "spans": spans}, fh)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main())

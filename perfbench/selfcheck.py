"""Self-check for the benchmark: run every workload small and check what it reports.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Every workload run.py knows, including the two that BENCHMARK.json does
not list, runs once with --trace 0 and once with --trace 1 at a tiny trial
count.  The check asserts that every metric BENCHMARK.json names is
emitted with its unit, that the layer map covers exactly the per-layer
metrics, and the exact layer counts of the current code: one process pool
per Monte Carlo sweep point when more than one worker is available, nine
closed-form CDF calls per point, and no sampler or psi calls on the
closed-form workload.  Finally the benchmark must refuse to run, without
printing a result, in a directory that holds only itself.  Exits 1 on any
failed assertion.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TINY = ["--seconds", "1", "--trials", "8192"]  # two chunks, so a pool still starts
TIMEOUT_S = 600

# every workload run.py knows -> pools started per iteration when more than
# one worker is available
POOLS = {"fig_sweep": 37, "fig4_random_phase": 22, "compare_serial": 0, "closed_form_grid": 0}


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["metrics"]
    nproc = len(os.sched_getaffinity(0))
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    names = {m["name"] for m in spec["per_layer"]}
    expect(set(layer_map) == names, "layer_map.json covers exactly the per-layer metrics")
    expect({w["name"] for w in spec["workloads"]} <= set(POOLS),
           "BENCHMARK.json lists only workloads run.py knows")
    listed = set()
    for mapped in layer_map.values():
        listed |= set(mapped["no_move"]).union(*mapped["moves"].values())
    expect(listed <= set(POOLS), "layer_map.json names only workloads run.py knows")

    for name in POOLS:
        layers: dict[str, float] = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", name, "--seed", "1234", "--trace", str(trace), *TINY], ROOT)
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            if proc.returncode != 0:
                print(proc.stderr[-1000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            expect(set(metrics) == set(wanted), f"{label}: emits every {group} metric")
            for metric, unit in wanted.items():
                got = metrics.get(metric, {})
                value = got.get("value")
                ok = (got.get("unit") == unit and isinstance(value, (int, float))
                      and math.isfinite(value) and (trace == 1 or value > 0))
                if not ok:
                    expect(False, f"{label}: {metric} = {got}")
            if trace == 1:
                layers = {k: v["value"] for k, v in metrics.items()}
        if not layers:
            continue
        pools = POOLS[name] if nproc > 1 else 0
        expect(layers["montecarlo.pools_started"] == pools,
               f"{name}: montecarlo.pools_started = {layers['montecarlo.pools_started']}, expected {pools}")
        expect(layers["analytic.cdf_calls_per_point"] == 9,
               f"{name}: analytic.cdf_calls_per_point = {layers['analytic.cdf_calls_per_point']}, expected 9")
        if name == "closed_form_grid":
            for metric in ("channel.sample.trials", "fbl.psi_exact_vec.calls", "montecarlo.chunks"):
                expect(layers[metric] == 0, f"{name}: {metric} = {layers[metric]}, expected 0")

    # a directory with only BENCHMARK.json and the benchmark must be refused
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    first = spec["workloads"][0]["name"]
    proc = _run(["--workload", first, "--seed", "1", "--trace", "0", *TINY], bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory refused with exit code {proc.returncode} and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

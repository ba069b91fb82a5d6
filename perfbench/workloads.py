"""The four benchmark workloads: what one iteration runs and how it is checked.

Each workload drives the public CLI entry point ``risnoma.cli.main`` in this
process, exactly as a user's command would, and returns the bytes it
produced together with its operation counts and any correctness problem.
An operation is one sweep point or one compare point.  The worker count is
set by the caller through RISNOMA_WORKERS, the variable the CLI reads.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

from risnoma import cli

# one fig preset -> (sweep points, CSV rows).  Aligned two-zone points emit
# three MC rows and three closed-form rows; other scenarios emit MC rows only.
_PRESETS = {
    "fig2": (11, 66),
    "fig4": (22, 99),
    "fig5": (16, 96),
    "fig6": (10, 60),
}
_CSV_HEADER = "axis,value,metric,source,bler,stderr,n,seed"

_GRID_R = (1, 2, 4, 8, 16, 32)
_GRID_DB = [round(0.1 * k, 1) for k in range(301)]

_REPORT_ROW = re.compile(r"analytic=(\S+)\s+mc=(\S+) \+- (\S+)")
_ANALYTIC_ROW = re.compile(r"^  (cu|ceu_sc|ceu_mrc)\s+(\S+)", re.MULTILINE)


@dataclass
class Outcome:
    """What one iteration produced.

    outputs: file name -> the bytes compared across worker counts and
        iterations (CSVs for fig, the printed report otherwise).
    problems: correctness failures that are not single failed operations.
    """

    outputs: dict[str, bytes] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.outputs.update(other.outputs)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.exit_codes += other.exit_codes


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "fig", "compare" or "analytic"
    presets: tuple = ()
    trials: int = 0         # Monte Carlo trials per point; 0 for closed forms
    serial: bool = False    # one worker instead of nproc

    @property
    def monte_carlo(self) -> bool:
        return self.trials > 0

    def points(self) -> int:
        """Operations per iteration."""
        if self.kind == "fig":
            return sum(_PRESETS[p][0] for p in self.presets)
        if self.kind == "compare":
            return 1
        return len(_GRID_R) * len(_GRID_DB)


# BENCHMARK.json lists only the two fig workloads.  compare_serial and
# closed_form_grid run in one process on one core, and on a shared two-core
# host their run-to-run spread (0.17 to 0.38 of the median over ten seeds)
# exceeded the 0.25 bound; they stay runnable by name and in the self-check.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig_sweep", "fig", presets=("fig2", "fig5", "fig6"), trials=100_000),
        Workload("fig4_random_phase", "fig", presets=("fig4",), trials=100_000),
        Workload("compare_serial", "compare", trials=1_000_000, serial=True),
        Workload("closed_form_grid", "analytic"),
    )
}


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout/stderr captured; an exception reads as exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the benchmark records it as a failed operation
            print(f"exception: {exc!r}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _bler_ok(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and 0.0 <= value <= 1.0


class Runner:
    """Runs one workload's iterations from a private scratch directory."""

    def __init__(self, workload: Workload, workdir: str, seed: int, trials: int) -> None:
        self.workload = workload
        self.workdir = workdir
        self.seed = seed
        self.trials = trials
        os.makedirs(workdir, exist_ok=True)
        self.configs: list[str] = []
        if workload.kind == "compare":
            self.configs.append(self._write_config("reference", {}))
        elif workload.kind == "analytic":
            for R in _GRID_R:
                sweep = {"axis": "rho_s_db", "values": _GRID_DB}
                self.configs.append(self._write_config(f"grid_R{R}", {"R": R, "sweep": sweep}))

    def _write_config(self, stem: str, raw: dict) -> str:
        path = os.path.join(self.workdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        return path

    def run(self) -> Outcome:
        kind = self.workload.kind
        if kind == "fig":
            return self._run_fig()
        if kind == "compare":
            return self._run_compare()
        return self._run_analytic()

    def _run_fig(self) -> Outcome:
        total = Outcome()
        for preset in self.workload.presets:
            points, rows = _PRESETS[preset]
            out_path = os.path.join(self.workdir, preset + ".csv")
            argv = ["fig", "--preset", preset, "--out", out_path,
                    "--trials", str(self.trials), "--seed", str(self.seed)]
            code, _, err = _call_cli(argv)
            got = Outcome(attempted=points, exit_codes=[code])
            if code != 0:
                got.failed = points
                got.problems.append(f"fig {preset} exited {code}: {err.strip()[-200:]}")
                total.add(got)
                continue
            # the CLI drops a failed sweep point with a stderr warning and exits 0
            got.failed = sum(1 for line in err.splitlines() if line.startswith("warning:"))
            with open(out_path, "rb") as fh:
                got.outputs[preset + ".csv"] = fh.read()
            lines = got.outputs[preset + ".csv"].decode("utf-8").splitlines()
            if not lines or lines[0] != _CSV_HEADER:
                got.problems.append(f"fig {preset}: bad CSV header")
            elif len(lines) - 1 != rows and got.failed == 0:
                got.problems.append(f"fig {preset}: {len(lines) - 1} rows, expected {rows}")
            bad = [ln for ln in lines[1:] if not _bler_ok(ln.split(",")[4])]
            if bad:
                got.problems.append(f"fig {preset}: BLER not finite in [0, 1]: {bad[0]}")
            total.add(got)
        return total

    def _run_compare(self) -> Outcome:
        argv = ["compare", "--config", self.configs[0],
                "--trials", str(self.trials), "--seed", str(self.seed)]
        code, out, err = _call_cli(argv)
        # exit 4 is the comparison verdict (the MRC bound fails by design at
        # the reference point); 2, 3 or an exception is a failed operation
        got = Outcome(outputs={"compare.txt": out.encode("utf-8")}, attempted=1,
                      exit_codes=[code])
        if code not in (0, 4):
            got.failed = 1
            got.problems.append(f"compare exited {code}: {err.strip()[-200:]}")
            return got
        rows = _REPORT_ROW.findall(out)
        if len(rows) != 3:
            got.problems.append(f"compare: {len(rows)} report rows, expected 3")
        for analytic_value, mc_value, _ in rows:
            if not (_bler_ok(analytic_value) and _bler_ok(mc_value)):
                got.problems.append(f"compare: BLER not finite in [0, 1]: {analytic_value} {mc_value}")
        return got

    def _run_analytic(self) -> Outcome:
        total = Outcome()
        for path in self.configs:
            code, out, err = _call_cli(["analytic", "--config", path])
            stem = os.path.splitext(os.path.basename(path))[0]
            got = Outcome(outputs={f"analytic_{stem}.txt": out.encode("utf-8")},
                          attempted=len(_GRID_DB), exit_codes=[code])
            if code != 0:
                got.failed = len(_GRID_DB)
                got.problems.append(f"analytic {path} exited {code}: {err.strip()[-200:]}")
                total.add(got)
                continue
            values = _ANALYTIC_ROW.findall(out)
            good = sum(1 for _, v in values if _bler_ok(v))
            got.failed = len(_GRID_DB) - good // 3
            if len(values) != 3 * len(_GRID_DB) or good != len(values):
                got.problems.append(
                    f"analytic {stem}: {good} finite BLERs in [0, 1] "
                    f"of {len(values)}, expected {3 * len(_GRID_DB)}"
                )
            total.add(got)
        return total

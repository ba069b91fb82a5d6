"""Command-line front end: configs, figure presets, CSV emission, comparisons.

Provides:
    RunConfig     -- validated bundle of system + experiment parameters
    ConfigError   -- structured config failure carrying the offending key path
    load_config   -- JSON file -> RunConfig with defaults and strict key checks
    cmd_run       -- one sweep (or single point) -> CSV
    cmd_fig       -- presets fig2..fig6 reproducing the reference curves -> CSV
    cmd_compare   -- analytic vs Monte Carlo report with PASS/FAIL verdicts
    cmd_analytic  -- closed forms only, no simulation
    main          -- argparse entry point (exit codes: 0 ok, 2 config,
                     3 I/O, 4 comparison failure)

The CSV schema is frozen: header ``axis,value,metric,source,bler,stderr,n,seed``,
rows sorted by (value, metric, source), numeric columns in %.10e so reruns are
byte-identical (LF line endings).  ``source`` is ``mc``/``analytic`` with
``analytic_lb`` marking the combining-bound row; presets that overlay several
scenarios or SNR contexts append a suffix (``mc_no_ris``, ``mc_single_zone``,
``mc_10db``, ...) which keeps one schema across every emitted file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from . import analytic
from .channel import SystemConfig
from .fbl import CodeSpec
from .montecarlo import (
    ScenarioKind,
    SweepPoint,
    _apply_axis,
    _db_to_linear,
    _sweep_point,
    run_points,
    run_trials,
    sweep,
)

_CSV_HEADER = "axis,value,metric,source,bler,stderr,n,seed"

_SWEEP_AXES = ("rho_s_db", "R", "alpha_c", "m")

# Flat snake_case config keys.  *_db keys are conveniences converted to
# linear exactly once at load; setting both spellings of one SNR is an error.
_NUMBER_KEYS = {
    "rho_s",
    "rho_s_db",
    "rho_c",
    "rho_c_db",
    "alpha_c",
    "alpha_e",
    "eta_c",
    "eta_e",
    "lambda_c",
    "lambda_e",
    "lambda_ce",
    "lambda_rc",
    "lambda_gc",
    "lambda_re",
    "lambda_ge",
    "lambda_rce",
    "lambda_gce",
}
_INT_KEYS = {"m", "n_c", "n_e", "R", "quad_order", "trials", "seed"}
_OTHER_KEYS = {"scenario", "sweep"}
_ALL_KEYS = _NUMBER_KEYS | _INT_KEYS | _OTHER_KEYS


class ConfigError(Exception):
    """Invalid configuration; message includes the offending key path."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: physics, trial budget, seed, scenario, sweep.

    couple_rho_c records whether the relay SNR was left at its default
    (one tenth of rho_s) so SNR sweeps can keep the two moving together;
    an explicit rho_c/rho_c_db in the config pins it instead.
    """

    system: SystemConfig
    trials: int
    seed: int
    scenario: ScenarioKind
    sweep_axis: str | None
    sweep_values: tuple | None
    couple_rho_c: bool


def _check_number(value: object, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config error at {where}: expected a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"config error at {where}: must be finite")


def _require_number(raw: dict, key: str) -> float:
    _check_number(raw[key], key)
    return float(raw[key])


def _require_int(raw: dict, key: str) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config error at {key}: expected an integer")
    return value


def parse_config(raw: object) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig, filling reference defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config error: top level must be a JSON object")
    unknown = sorted(set(raw) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"config error: unknown keys {', '.join(unknown)}")
    for key in ("rho_s", "rho_c"):
        if key in raw and f"{key}_db" in raw:
            raise ConfigError(
                f"config error at {key}_db: give {key} in dB or linear, not both"
            )

    if "rho_s" in raw:
        rho_s = _require_number(raw, "rho_s")
    elif "rho_s_db" in raw:
        rho_s = _db_to_linear(_require_number(raw, "rho_s_db"))
    else:
        rho_s = 10.0  # 10 dB, the reference operating point
    couple_rho_c = True
    if "rho_c" in raw:
        rho_c = _require_number(raw, "rho_c")
        couple_rho_c = False
    elif "rho_c_db" in raw:
        rho_c = _db_to_linear(_require_number(raw, "rho_c_db"))
        couple_rho_c = False
    else:
        rho_c = rho_s / 10.0

    alpha_c = _require_number(raw, "alpha_c") if "alpha_c" in raw else 0.1
    alpha_e = _require_number(raw, "alpha_e") if "alpha_e" in raw else 1.0 - alpha_c
    m = _require_int(raw, "m") if "m" in raw else 100
    n_c = _require_int(raw, "n_c") if "n_c" in raw else 300
    n_e = _require_int(raw, "n_e") if "n_e" in raw else 100

    numbers = {}
    for key in _NUMBER_KEYS - {"rho_s", "rho_s_db", "rho_c", "rho_c_db", "alpha_c", "alpha_e"}:
        if key in raw:
            numbers[key] = _require_number(raw, key)

    try:
        system = SystemConfig(
            rho_s=rho_s,
            rho_c=rho_c,
            alpha_c=alpha_c,
            alpha_e=alpha_e,
            code_c=CodeSpec(m=m, bits=n_c),
            code_e=CodeSpec(m=m, bits=n_e),
            R=_require_int(raw, "R") if "R" in raw else 8,
            quad_order=_require_int(raw, "quad_order") if "quad_order" in raw else 50,
            **numbers,
        )
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from exc

    trials = _require_int(raw, "trials") if "trials" in raw else 100_000
    if trials < 1:
        raise ConfigError("config error at trials: must be >= 1")
    seed = _require_int(raw, "seed") if "seed" in raw else 1234

    scenario_tag = raw.get("scenario", "two_zone_aligned")
    try:
        scenario = ScenarioKind(scenario_tag)
    except ValueError:
        tags = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(
            f"config error at scenario: {scenario_tag!r} not one of {tags}"
        ) from None

    sweep_axis = None
    sweep_values: tuple | None = None
    if "sweep" in raw:
        block = raw["sweep"]
        if not isinstance(block, dict) or set(block) != {"axis", "values"}:
            raise ConfigError(
                "config error at sweep: expected an object with keys axis, values"
            )
        sweep_axis = block["axis"]
        if sweep_axis not in _SWEEP_AXES:
            raise ConfigError(
                f"config error at sweep.axis: {sweep_axis!r} not one of "
                f"{', '.join(_SWEEP_AXES)}"
            )
        values = block["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("config error at sweep.values: expected a nonempty list")
        for i, v in enumerate(values):
            _check_number(v, f"sweep.values[{i}]")
            if sweep_axis in ("R", "m") and not isinstance(v, int):
                raise ConfigError(f"config error at sweep.values[{i}]: expected an integer")
        sweep_values = tuple(values)

    return RunConfig(
        system=system,
        trials=trials,
        seed=seed,
        scenario=scenario,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        couple_rho_c=couple_rho_c,
    )


def _reject_constant(name: str):
    # json.load accepts NaN, Infinity and -Infinity, which are not JSON
    raise ConfigError(f"config error: {name} in config; numbers must be finite")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"config error: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error: {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# CSV emission


def _analytic_rows(cfg: SystemConfig) -> list[tuple[str, str, float]]:
    return [
        ("cu", "analytic", analytic.avg_bler_cu(cfg)),
        ("ceu_sc", "analytic", analytic.avg_bler_ceu_sc(cfg)),
        ("ceu_mrc", "analytic_lb", analytic.avg_bler_ceu_mrc(cfg)),
    ]


def _check_points(labelled: list[tuple[str, SweepPoint]]) -> None:
    """Warn about each failed (axis, point); it is an error if none succeeded."""
    failed = [(axis, point) for axis, point in labelled if point.error is not None]
    for axis, point in failed:
        print(f"warning: {axis}={point.value}: {point.error}", file=sys.stderr)
    if failed:
        summary = f"{len(failed)} of {len(labelled)} sweep points failed"
        if len(failed) == len(labelled):
            raise ConfigError(f"config error: {summary}")
        print(summary, file=sys.stderr)


def _sweep_rows(items: list[tuple], seed: int) -> list[tuple]:
    """Rows for sweep points given as (scenario, axis, base, couple_rho_c,
    suffix, point): MC always; closed forms only where they apply.

    Failed points are reported and left out, and a run in which every point
    failed is a config error.  The analytic expressions model the
    phase-aligned two-zone system with at least one element per zone, so
    no_ris / single_zone_random runs (and R = 0 points) emit simulation rows
    only.
    """
    _check_points([(axis, point) for _, axis, _, _, _, point in items])
    rows: list[tuple] = []
    for scenario, axis, base, couple_rho_c, suffix, point in items:
        if point.error is not None:
            continue
        value = point.value
        for metric, est in point.estimates.items():
            rows.append(
                (axis, value, metric, "mc" + suffix, est.mean, est.stderr, est.n, seed)
            )
        cfg = _apply_axis(base, axis, value, couple_rho_c)
        if scenario is ScenarioKind.TWO_ZONE_ALIGNED and cfg.R >= 1:
            for metric, source, bler in _analytic_rows(cfg):
                rows.append((axis, value, metric, source + suffix, bler, 0.0, 0, seed))
    return rows


def _check_bler(bler: float, where: str) -> None:
    # a BLER outside [0, 1] or NaN is a fault of the program, not of the
    # config, so it must not be a ValueError (which main reports as exit 2)
    if not 0.0 <= bler <= 1.0:
        raise RuntimeError(f"internal error: BLER {bler!r} at {where} is not in [0, 1]")


def _write_csv(out_path: str, rows: list[tuple]) -> None:
    rows = sorted(rows, key=lambda r: (r[1], r[2], r[3]))
    lines = [_CSV_HEADER]
    for axis, value, metric, source, bler, stderr, n, seed in rows:
        _check_bler(bler, f"{axis}={value!r} {metric} {source}")
        lines.append(
            f"{axis},{value:.10e},{metric},{source},{bler:.10e},{stderr:.10e},{n},{seed}"
        )
    text = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_run(run_cfg: RunConfig, out_path: str) -> int:
    if run_cfg.sweep_axis is not None:
        axis, values = run_cfg.sweep_axis, run_cfg.sweep_values
    else:
        # A single point is a one-value SNR sweep; keeps the schema uniform.
        axis = "rho_s_db"
        values = (10.0 * math.log10(run_cfg.system.rho_s),)
    base, scenario, couple = run_cfg.system, run_cfg.scenario, run_cfg.couple_rho_c
    points = sweep(base, scenario, axis, list(values), run_cfg.trials, run_cfg.seed, couple)
    items = [(scenario, axis, base, couple, "", point) for point in points]
    rows = _sweep_rows(items, run_cfg.seed)
    _write_csv(out_path, rows)
    print(f"wrote {out_path}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# Figure presets.  Numbering follows the order the narrative discusses the
# figures; the README carries the mapping table.  The blocklength sweep is a
# plain `run` recipe (axis m at R = 2) rather than a preset of its own.

_DB_GRID = tuple(float(v) for v in range(0, 21, 2))
_ALPHA_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.49)
_R_GRID = tuple(range(1, 9))


def _preset_runs(preset: str, defaults: SystemConfig):
    """(scenario, axis, values, base, suffix) tuples making up one preset."""
    at_10db = _apply_axis(defaults, "rho_s_db", 10.0, True)
    at_15db = _apply_axis(defaults, "rho_s_db", 15.0, True)
    aligned = ScenarioKind.TWO_ZONE_ALIGNED
    runs = {
        "fig2": [(aligned, "rho_s_db", _DB_GRID, defaults, "")],
        "fig3": [
            (aligned, "rho_s_db", _DB_GRID, defaults, ""),
            (ScenarioKind.NO_RIS, "rho_s_db", _DB_GRID, defaults, "_no_ris"),
        ],
        "fig4": [
            (aligned, "rho_s_db", _DB_GRID, defaults, ""),
            (
                ScenarioKind.SINGLE_ZONE_RANDOM,
                "rho_s_db",
                _DB_GRID,
                defaults,
                "_single_zone",
            ),
        ],
        "fig5": [
            (aligned, "R", _R_GRID, at_10db, "_10db"),
            (aligned, "R", _R_GRID, at_15db, "_15db"),
        ],
        "fig6": [(aligned, "alpha_c", _ALPHA_GRID, at_10db, "")],
    }
    return runs[preset]


def cmd_fig(preset: str, out_path: str, trials: int, seed: int) -> int:
    defaults = parse_config({}).system
    # every point of the preset goes into one batched Monte Carlo call
    specs = [
        (scenario, axis, base, suffix, value)
        for scenario, axis, values, base, suffix in _preset_runs(preset, defaults)
        for value in values
    ]
    results = run_points(
        [(_apply_axis(base, axis, value, True), scenario)
         for scenario, axis, base, _, value in specs],
        trials,
        seed,
    )
    items = [
        (scenario, axis, base, True, suffix, _sweep_point(value, got))
        for (scenario, axis, base, suffix, value), got in zip(specs, results)
    ]
    rows = _sweep_rows(items, seed)
    _write_csv(out_path, rows)
    print(f"wrote {out_path}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# Comparison report

_MC_RESOLUTION = 1e-4  # below this the MC mean has too few effective samples
_DECADE_TOL = 0.3


def _compare_point(
    cfg: SystemConfig, est: dict, trials: int, seed: int, label: str
) -> tuple[list[str], bool]:
    verdicts = []
    lines = [f"[{label}] n={trials} seed={seed}"]
    for metric, source, value in _analytic_rows(cfg):
        mc = est[metric]
        _check_bler(value, f"[{label}] {metric} {source}")
        _check_bler(mc.mean, f"[{label}] {metric} mc")
        ratio = value / mc.mean if mc.mean > 0.0 else math.inf
        if source == "analytic_lb":
            # Bound semantics: the closed form must not exceed the estimate.
            ok = value <= mc.mean + 3.0 * mc.stderr
            verdict = "PASS" if ok else "FAIL"
        elif mc.mean < _MC_RESOLUTION:
            verdict = "SKIP"
        else:
            ok = abs(math.log10(value) - math.log10(mc.mean)) <= _DECADE_TOL
            verdict = "PASS" if ok else "FAIL"
        verdicts.append(verdict)
        lines.append(
            f"  {metric:8s} {source:12s} analytic={value:.6e}  "
            f"mc={mc.mean:.6e} +- {mc.stderr:.6e}  ratio={ratio:.3e}  {verdict}"
        )
    lines.append("")
    return lines, "FAIL" in verdicts


def cmd_compare(run_cfg: RunConfig) -> int:
    """Analytic vs MC per metric; exit 0 only if no row fails.

    cu / ceu_sc rows are judged on |log10 analytic - log10 mc| <= 0.3
    wherever the MC mean resolves (>= 1e-4; SKIP otherwise); the ceu_mrc row
    is judged as a lower bound (FAIL iff analytic exceeds mc + 3*stderr).
    Failed sweep points are reported and skipped, as in cmd_run.
    """
    base, trials, seed = run_cfg.system, run_cfg.trials, run_cfg.seed
    aligned = ScenarioKind.TWO_ZONE_ALIGNED
    if run_cfg.sweep_axis is not None:
        axis, values, couple = run_cfg.sweep_axis, run_cfg.sweep_values, run_cfg.couple_rho_c
        points = sweep(base, aligned, axis, list(values), trials, seed, couple)
        _check_points([(axis, point) for point in points])
        reports = [
            (_apply_axis(base, axis, v, couple), point.estimates, f"{axis}={v}")
            for v, point in zip(values, points)
            if point.error is None
        ]
    else:
        est = run_trials(base, aligned, trials, seed)
        reports = [(base, est, f"rho_s={base.rho_s:g}")]
    failed = False
    for cfg, est, label in reports:
        lines, point_failed = _compare_point(cfg, est, trials, seed, label)
        failed = failed or point_failed
        print("\n".join(lines))
    if failed:
        print("comparison FAILED")
        return 4
    print("comparison passed")
    return 0


def cmd_analytic(run_cfg: RunConfig) -> int:
    if run_cfg.sweep_axis is not None:
        values = run_cfg.sweep_values
        axis = run_cfg.sweep_axis
    else:
        axis, values = "rho_s_db", (10.0 * math.log10(run_cfg.system.rho_s),)
    for v in values:
        cfg = _apply_axis(run_cfg.system, axis, v, run_cfg.couple_rho_c)
        print(f"[{axis}={v:g}]")
        for metric, source, value in _analytic_rows(cfg):
            tag = " (lower bound)" if source == "analytic_lb" else ""
            print(f"  {metric:8s} {value:.10e}{tag}")
    for scheme in ("cu", "ceu_sc", "ceu_mrc"):
        d = analytic.diversity_order(run_cfg.system.R, scheme)
        print(f"  diversity {scheme:8s} {d:.6f}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risnoma",
        description="Average-BLER toolkit: closed forms and Monte Carlo "
        "for a surface-assisted two-user cooperative downlink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one config, write CSV")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed", type=int)

    p_fig = sub.add_parser("fig", help="reproduce a reference figure as CSV")
    p_fig.add_argument(
        "--preset", required=True, choices=("fig2", "fig3", "fig4", "fig5", "fig6")
    )
    p_fig.add_argument("--out", required=True)
    p_fig.add_argument("--trials", type=int, default=100_000)
    p_fig.add_argument("--seed", type=int, default=1234)

    p_cmp = sub.add_parser("compare", help="analytic vs Monte Carlo report")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--trials", type=int)
    p_cmp.add_argument("--seed", type=int)

    p_an = sub.add_parser("analytic", help="closed forms only, no simulation")
    p_an.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "fig":
            return cmd_fig(args.preset, args.out, args.trials, args.seed)
        run_cfg = load_config(args.config)
        if getattr(args, "trials", None) is not None:
            run_cfg = replace(run_cfg, trials=args.trials)
        if getattr(args, "seed", None) is not None:
            run_cfg = replace(run_cfg, seed=args.seed)
        if args.command == "run":
            return cmd_run(run_cfg, args.out)
        if args.command == "compare":
            return cmd_compare(run_cfg)
        return cmd_analytic(run_cfg)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        # argument validation raised by the library layers
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: configs, figure presets, CSV emission, comparisons.

Provides:
    RunConfig     -- validated points of a run, with its trial budget and seed
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
systems or SNR contexts append a suffix (``mc_no_ris``, ``mc_single_zone``,
``mc_10db``, ...) which keeps one schema across every emitted file.

A point is one SystemConfig, so ``scenario`` is a model key read by its
field's type, and analytic.unmodeled rules which points get closed forms.
No surface is ``R = 0``: fig3's ``_no_ris`` baseline is fig2's sweep at R = 0.

Each rule has one owner.  Every value is read by the library's reader of
its type (fbl._as_float, fbl._as_int, channel._as_scenario), and the trial
count and seed by montecarlo's own check, so a refusal is the library's
message behind ``config error: ``.  Every BLER is checked where it is made:
unmodeled refuses each point outside the closed forms' domain before
anything is simulated, the gain CDF is finite on that domain, avg_blers
clamps to [0, 1], and the Monte Carlo refuses a non-finite sum and clamps
each mean.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import NamedTuple

from . import analytic
from .channel import _READERS, REFERENCE, SystemConfig
from .fbl import CodeSpec, _as_float, _as_int, _echo
from .montecarlo import _check_budget, run_points

_CSV_HEADER = "axis,value,metric,source,bler,stderr,n,seed"
_DEFAULT_TRIALS = 100_000
_DEFAULT_SEED = 1234


class ConfigError(Exception):
    """Invalid configuration, its message naming the offending key path:
    ``config error at <key>: ...`` for the file's structure, or ``config
    error: `` and the library's own refusal of a value at that key."""


def _read(read, *args):
    """read(*args), with its ValueError raised as a ConfigError."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from exc


# Flat snake_case config keys that describe the system, each with the
# library's reader of its type.  *_db keys are conveniences converted to
# linear exactly once, in _build_system; setting both spellings of one SNR
# is an error.  Every SystemConfig field with a default is a key of its own.
_MODEL_KEYS = {
    **dict.fromkeys(("rho_s", "rho_s_db", "rho_c", "rho_c_db", "alpha_c"), _as_float),
    **dict.fromkeys(("m", "n_c", "n_e", "R"), _as_int),
    **{f.name: _READERS[f.type] for f in fields(SystemConfig) if f.default is not MISSING},
}
_ALL_KEYS = set(_MODEL_KEYS) | {"trials", "seed", "sweep"}

# Each sweep axis with the keys a swept value replaces.
_SWEEP_AXES = {"rho_s_db": ("rho_s",), "R": (), "alpha_c": (), "m": ()}


class _Point(NamedTuple):
    """One axis value of a sweep, with its config or why it has none."""

    axis: str
    value: float
    cfg: SystemConfig | str
    suffix: str


@dataclass(frozen=True)
class RunConfig:
    """A run's points (the config's sweep, or its own system as one point
    on the dB SNR axis), trial budget and seed."""

    points: list[_Point]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        # checked wherever it is set, so --trials 0 is refused before any warning
        _read(_check_budget, self.trials, self.seed)


def _db_to_linear(db: float) -> float:
    # past about 3083 dB the power overflows; inf lets SystemConfig reject it
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _build_system(keys: dict) -> SystemConfig:
    """Model keys -> SystemConfig: each omitted key takes REFERENCE's value,
    except rho_c, which follows rho_s 10 dB below it.

    Raises ConfigError for a value of the wrong JSON type, a non-finite
    number or an SNR given in both spellings, and ValueError when the model
    refuses the values.
    """
    for key in ("rho_s", "rho_c"):
        if key in keys and f"{key}_db" in keys:
            raise ConfigError(
                f"config error at {key}_db: give {key} in dB or linear, not both"
            )
    got = {key: _read(read, key, keys[key]) for key, read in _MODEL_KEYS.items() if key in keys}
    for key in ("rho_s", "rho_c"):
        if f"{key}_db" in got:
            got[key] = _db_to_linear(got.pop(f"{key}_db"))
    got.setdefault("rho_c", got.get("rho_s", REFERENCE.rho_s) / 10.0)
    m = got.pop("m", REFERENCE.code_c.m)
    got["code_c"] = CodeSpec(m=m, bits=got.pop("n_c", REFERENCE.code_c.bits))
    got["code_e"] = CodeSpec(m=m, bits=got.pop("n_e", REFERENCE.code_e.bits))
    return replace(REFERENCE, **got)


def _expand(axis: str, values, keys: dict, suffix: str) -> list[_Point]:
    """One point per axis value: the model keys with the swept key set to the
    value and the keys it replaces dropped.  A value the model refuses keeps
    its error as the point's config."""
    kept = {key: value for key, value in keys.items() if key not in _SWEEP_AXES[axis]}
    points = []
    for value in values:
        try:
            cfg = _build_system({**kept, axis: value})
        except ValueError as exc:
            cfg = str(exc)
        points.append(_Point(axis, float(value), cfg, suffix))
    return points


def parse_config(raw: object) -> RunConfig:
    """Validate a decoded JSON object into a RunConfig; omitted model keys
    take REFERENCE's values (see _build_system)."""
    if not isinstance(raw, dict):
        raise ConfigError("config error: top level must be a JSON object")
    unknown = sorted(set(raw) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"config error: unknown keys {', '.join(unknown)}")

    keys = {key: value for key, value in raw.items() if key in _MODEL_KEYS}
    base = _read(_build_system, keys)
    trials = _read(_as_int, "trials", raw.get("trials", _DEFAULT_TRIALS))
    seed = _read(_as_int, "seed", raw.get("seed", _DEFAULT_SEED))
    _read(_check_budget, trials, seed)  # a bad budget is named before a bad sweep

    if "sweep" not in raw:
        rho_s_db = 10.0 * math.log10(base.rho_s)
        points = [_Point("rho_s_db", rho_s_db, base, "")]
    else:
        block = raw["sweep"]
        if not isinstance(block, dict) or set(block) != {"axis", "values"}:
            raise ConfigError(
                "config error at sweep: expected an object with keys axis, values"
            )
        axis = block["axis"]
        if not isinstance(axis, str) or axis not in _SWEEP_AXES:
            raise ConfigError(
                f"config error at sweep.axis: {_echo(axis)} not one of "
                f"{', '.join(_SWEEP_AXES)}"
            )
        values = block["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("config error at sweep.values: expected a nonempty list")
        for i, v in enumerate(values):
            # a finite number, and of the swept key's type
            _read(_as_float, f"sweep.values[{i}]", v)
            _read(_MODEL_KEYS[axis], f"sweep.values[{i}]", v)
        points = _expand(axis, values, keys, "")
    return RunConfig(points=points, trials=trials, seed=seed)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object, refusing a repeated key that json would overwrite."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config error: duplicate key {key}")
        obj[key] = value
    return obj


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            # json.load takes NaN, Infinity and -Infinity, which the reader
            # of every value refuses in parse_config
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"config error: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error: {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Sweep points: each command's one path from its axis values to its output


def _kept(points: list[_Point], closed_forms: bool) -> list[_Point]:
    """The points a command can evaluate, before anything runs: each one the
    model refused, or with closed_forms one the closed forms do not model,
    is warned about and dropped; it is a config error if none is left."""
    reasons = [
        p.cfg if isinstance(p.cfg, str) else analytic.unmodeled(p.cfg) if closed_forms else None
        for p in points
    ]
    failed = [(p, reason) for p, reason in zip(points, reasons) if reason is not None]
    for p, reason in failed:
        print(f"warning: {p.axis}={p.value}: {reason}", file=sys.stderr)
    if failed:
        summary = f"{len(failed)} of {len(points)} sweep points failed"
        if len(failed) == len(points):
            raise ConfigError(f"config error: {summary}")
        print(summary, file=sys.stderr)
    return [p for p, reason in zip(points, reasons) if reason is None]


# ---------------------------------------------------------------------------
# CSV emission


def _analytic_rows(cfg: SystemConfig) -> list[tuple[str, str, float]]:
    cu, sc, mrc = analytic.avg_blers(cfg)
    return [("cu", "analytic", cu), ("ceu_sc", "analytic", sc), ("ceu_mrc", "analytic_lb", mrc)]


def _write_csv(out_path: str, rows: list[tuple]) -> None:
    rows = sorted(rows, key=lambda r: (r[1], r[2], r[3]))
    lines = [_CSV_HEADER]
    for axis, value, metric, source, bler, stderr, n, seed in rows:
        lines.append(
            f"{axis},{value:.10e},{metric},{source},{bler:.10e},{stderr:.10e},{n},{seed}"
        )
    text = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_run(run_cfg: RunConfig, out_path: str) -> int:
    """Simulate the points and write their rows: MC always, closed forms
    where they model the point's system."""
    rows: list[tuple] = []
    seed = run_cfg.seed
    points = _kept(run_cfg.points, closed_forms=False)
    for p, est in zip(points, run_points([p.cfg for p in points], run_cfg.trials, seed)):
        for metric in ("cu", "ceu_sc", "ceu_mrc"):
            e = est[metric]
            rows.append((p.axis, p.value, metric, "mc" + p.suffix, e.mean, e.stderr, e.n, seed))
        if analytic.unmodeled(p.cfg) is None:
            for metric, source, bler in _analytic_rows(p.cfg):
                rows.append((p.axis, p.value, metric, source + p.suffix, bler, 0.0, 0, seed))
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


def _preset_runs(preset: str):
    """(axis, values, model keys, suffix) tuples making up one preset."""
    at_10db, at_15db = {"rho_s_db": 10.0}, {"rho_s_db": 15.0}
    runs = {
        "fig2": [("rho_s_db", _DB_GRID, {}, "")],
        "fig3": [
            ("rho_s_db", _DB_GRID, {}, ""),
            ("rho_s_db", _DB_GRID, {"R": 0}, "_no_ris"),
        ],
        "fig4": [
            ("rho_s_db", _DB_GRID, {}, ""),
            ("rho_s_db", _DB_GRID, {"scenario": "single_zone_random"}, "_single_zone"),
        ],
        "fig5": [("R", _R_GRID, at_10db, "_10db"), ("R", _R_GRID, at_15db, "_15db")],
        "fig6": [("alpha_c", _ALPHA_GRID, at_10db, "")],
    }
    return runs[preset]


def cmd_fig(preset: str, out_path: str, trials: int, seed: int) -> int:
    points = [point for run in _preset_runs(preset) for point in _expand(*run)]
    return cmd_run(RunConfig(points, trials, seed), out_path)


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
        ratio = value / mc.mean if mc.mean > 0.0 else math.inf
        if source == "analytic_lb":
            # Bound semantics: the closed form must not exceed the estimate.
            ok = value <= mc.mean + 3.0 * mc.stderr
            verdict = "PASS" if ok else "FAIL"
        elif mc.mean < _MC_RESOLUTION:
            verdict = "SKIP"
        else:
            ok = 10.0**-_DECADE_TOL <= ratio <= 10.0**_DECADE_TOL
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

    cu / ceu_sc rows are judged on their ratio analytic/mc, which must lie
    in [10**-0.3, 10**0.3], wherever the MC mean resolves (>= 1e-4; SKIP
    otherwise), so a closed form that underflows to 0 fails; the ceu_mrc row
    is judged as a lower bound (FAIL iff analytic exceeds mc + 3*stderr).
    Failed sweep points, and points the closed forms do not model, are
    reported and skipped, as in cmd_run.
    """
    trials, seed = run_cfg.trials, run_cfg.seed
    failed = False
    points = _kept(run_cfg.points, closed_forms=True)
    for p, est in zip(points, run_points([p.cfg for p in points], trials, seed)):
        lines, point_failed = _compare_point(p.cfg, est, trials, seed, f"{p.axis}={p.value:g}")
        failed = failed or point_failed
        print("\n".join(lines))
    if failed:
        print("comparison FAILED")
        return 4
    print("comparison passed")
    return 0


def cmd_analytic(run_cfg: RunConfig) -> int:
    for p in _kept(run_cfg.points, closed_forms=True):
        rows = _analytic_rows(p.cfg)  # before the header: a refused point prints nothing
        print(f"[{p.axis}={p.value:g}]")
        for metric, source, value in rows:
            tag = " (lower bound)" if source == "analytic_lb" else ""
            print(f"  {metric:8s} {value:.10e}{tag}")
        for scheme in ("cu", "ceu_sc", "ceu_mrc"):
            d = analytic.diversity_order(p.cfg.R, scheme)
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

    p_fig = sub.add_parser("fig", help="reproduce a reference figure as CSV")
    p_fig.add_argument(
        "--preset", required=True, choices=("fig2", "fig3", "fig4", "fig5", "fig6")
    )
    p_fig.add_argument("--out", required=True)
    p_fig.add_argument("--trials", type=int, default=_DEFAULT_TRIALS)
    p_fig.add_argument("--seed", type=int, default=_DEFAULT_SEED)

    p_cmp = sub.add_parser("compare", help="analytic vs Monte Carlo report")
    p_cmp.add_argument("--config", required=True)
    for p in (p_run, p_cmp):  # overrides of the config's budget
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)

    p_an = sub.add_parser("analytic", help="closed forms only, no simulation")
    p_an.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "fig":
            return cmd_fig(args.preset, args.out, args.trials, args.seed)
        run_cfg = load_config(args.config)
        overrides = {key: getattr(args, key, None) for key in ("trials", "seed")}
        run_cfg = replace(run_cfg, **{k: v for k, v in overrides.items() if v is not None})
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

"""Tests for the command-line layer: config parsing, CSV schema, exit codes.

The CSV format is load-bearing (downstream plotting scripts key on it), so
its header, ordering, number formatting, and line endings are pinned here.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from risnoma import analytic
from risnoma.cli import (
    ConfigError,
    load_config,
    main,
    parse_config,
)
from risnoma.montecarlo import ScenarioKind

CSV_HEADER = "axis,value,metric,source,bler,stderr,n,seed"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------- parse_config

def test_parse_config_reference_defaults():
    rc = parse_config({})
    assert rc.system.rho_s == 10.0
    assert rc.system.rho_c == 1.0
    assert rc.system.alpha_c == 0.1 and rc.system.alpha_e == 0.9
    assert rc.system.R == 8
    assert rc.system.code_c.m == 100 and rc.system.code_c.bits == 300
    assert rc.system.code_e.bits == 100
    assert rc.trials == 100_000 and rc.seed == 1234
    assert rc.scenario is ScenarioKind.TWO_ZONE_ALIGNED
    assert rc.sweep_axis is None
    assert rc.couple_rho_c is True


def test_parse_config_db_conversion_and_coupling():
    rc = parse_config({"rho_s_db": 20})
    assert rc.system.rho_s == pytest.approx(100.0, rel=1e-15)
    assert rc.system.rho_c == pytest.approx(10.0, rel=1e-15)
    # an explicit relay SNR pins it (no coupling during sweeps either)
    rc = parse_config({"rho_c": 5.0})
    assert rc.system.rho_c == 5.0
    assert rc.couple_rho_c is False
    rc = parse_config({"rho_c_db": 0})
    assert rc.system.rho_c == 1.0 and rc.couple_rho_c is False


def test_parse_config_alpha_complement_default():
    rc = parse_config({"alpha_c": 0.2})
    assert rc.system.alpha_e == pytest.approx(0.8, rel=1e-15)


@pytest.mark.parametrize(
    "payload",
    [
        {"rho_s": 10.0, "rho_s_db": 10.0},  # both spellings
        {"rho_c": 1.0, "rho_c_db": 0.0},
        {"alpha_c": 0.6},  # ordering violated after complement
        {"alpha_c": 0.2, "alpha_e": 0.9},  # does not sum to one
        {"trials": 0},
        {"alpha_c": True},  # bool is not a number here
        {"m": 2.5},  # integer keys reject floats
        {"scenario": "mesh"},
        {"frequency": 2.4},  # unknown key
        [],  # not an object
        {"rho_s_db": 1e308},  # linear power overflows a float
    ],
)
def test_parse_config_rejects(payload):
    with pytest.raises(ConfigError):
        parse_config(payload)


def test_parse_config_unknown_keys_listed_sorted():
    with pytest.raises(ConfigError, match="bandwidth, zeta"):
        parse_config({"zeta": 1, "bandwidth": 2})


def test_parse_config_sweep_block():
    rc = parse_config({"sweep": {"axis": "rho_s_db", "values": [0, 5, 10]}})
    assert rc.sweep_axis == "rho_s_db"
    assert rc.sweep_values == (0, 5, 10)
    for bad in (
        {"axis": "rho_s_db"},  # missing values
        {"axis": "lambda_c", "values": [1]},  # not a sweepable axis
        {"axis": "rho_s_db", "values": []},
        {"axis": "rho_s_db", "values": ["a"]},
        {"axis": "R", "values": [1.5]},  # element counts are integers
        {"axis": "m", "values": [100, True]},
    ):
        with pytest.raises(ConfigError):
            parse_config({"sweep": bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_parse_config_rejects_non_finite_numbers(bad):
    with pytest.raises(ConfigError, match=r"at sweep\.values\[1\]: must be finite"):
        parse_config({"sweep": {"axis": "rho_s_db", "values": [0, bad]}})
    with pytest.raises(ConfigError, match="at alpha_c: must be finite"):
        parse_config({"alpha_c": bad})


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


# ------------------------------------------------------------------ cmd_run

def test_run_single_point_csv_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, {"trials": 4096, "seed": 7})
    out = tmp_path / "point.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    # one point: three simulation rows plus three closed-form rows
    assert len(rows) == 6
    assert {r[0] for r in rows} == {"rho_s_db"}
    assert {r[2] for r in rows} == {"cu", "ceu_mrc", "ceu_sc"}
    assert {r[3] for r in rows} == {"mc", "analytic", "analytic_lb"}
    # rows are sorted by (value, metric, source)
    keys = [(float(r[1]), r[2], r[3]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r[7] == "7"
        if r[3] == "mc":
            assert r[6] == "4096"
        else:
            assert r[6] == "0" and float(r[5]) == 0.0
    # scientific notation with ten digits throughout
    assert all("e" in r[1] and "e" in r[4] for r in rows)


def test_run_emits_frozen_analytic_value(tmp_path):
    cfg = write_config(tmp_path, {"trials": 256})
    out = tmp_path / "frozen.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    # closed-form cu at the reference point, %.10e-formatted
    assert "cu,analytic,8.8353488026e-03" in text


def test_run_output_is_bytewise_reproducible(tmp_path):
    cfg = write_config(tmp_path, {"trials": 4096, "seed": 3})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_run_no_surface_scenario_has_no_closed_form_rows(tmp_path):
    cfg = write_config(tmp_path, {"trials": 2048, "scenario": "no_ris"})
    out = tmp_path / "none.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    rows = read_rows(out)
    assert len(rows) == 3
    assert {r[3] for r in rows} == {"mc"}


def test_run_sweep_rows_and_error_points(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "trials": 2048,
            "sweep": {"axis": "alpha_c", "values": [0.1, 0.6, 0.3]},
        },
    )
    out = tmp_path / "sweep.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    # the impossible allocation is reported and skipped, the rest proceed
    assert "alpha_c=0.6" in captured.err
    rows = read_rows(out)
    assert {float(r[1]) for r in rows} == {0.1, 0.3}
    assert len(rows) == 12


def test_sweep_partial_failure_is_counted(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"trials": 512, "sweep": {"axis": "rho_s_db", "values": [10, 3079]}}
    )
    out = tmp_path / "partial.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: rho_s_db=3079.0: SINR must be >= 0 and not NaN" in err
    assert "1 of 2 sweep points failed" in err
    assert {float(r[1]) for r in read_rows(out)} == {10.0}
    # compare reports the point that ran; at 512 trials its MRC bound
    # fails as in test_compare_flags_violated_bound
    assert main(["compare", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert "1 of 2 sweep points failed" in captured.err
    assert "[rho_s_db=10]" in captured.out and "[rho_s_db=3079]" not in captured.out


def test_overflowing_sweep_point_prints_no_numpy_warning(tmp_path):
    # the overflow happens in the pool workers, whose stderr is the CLI's
    cfg = write_config(
        tmp_path, {"trials": 8192, "sweep": {"axis": "rho_s_db", "values": [10, 3079]}}
    )
    out = tmp_path / "quiet.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "risnoma", "run", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "RISNOMA_WORKERS": "2"},
    )
    assert proc.returncode == 0
    assert "warning: rho_s_db=3079.0: SINR must be >= 0 and not NaN" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert {float(r[1]) for r in read_rows(out)} == {10.0}


@pytest.mark.parametrize("bad", [math.nan, 1.5])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_bler_outside_unit_interval_is_an_internal_error(tmp_path, monkeypatch, command, bad):
    monkeypatch.setattr(analytic, "avg_bler_ceu_sc", lambda cfg: bad)
    cfg = write_config(tmp_path, {"trials": 256})
    out = tmp_path / "bad.csv"
    argv = [command, "--config", cfg] + (["--out", str(out)] if command == "run" else [])
    with pytest.raises(RuntimeError, match=r"internal error: BLER .* ceu_sc analytic"):
        main(argv)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_sweep_with_every_point_failed_exits_2(tmp_path, capsys, command):
    # a sweep that produced nothing is an error, not an empty CSV
    for sweep in (
        {"axis": "rho_s_db", "values": [1e308]},
        {"axis": "alpha_c", "values": [0.6, 0.7]},
    ):
        cfg = write_config(tmp_path, {"trials": 256, "sweep": sweep})
        out = tmp_path / "none.csv"
        argv = [command, "--config", cfg] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        n = len(sweep["values"])
        assert f"config error: {n} of {n} sweep points failed" in err
        assert err.count("warning:") == n
        assert not out.exists()


def test_run_trials_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path, {"trials": 999_999, "seed": 1})
    out = tmp_path / "ov.csv"
    main(["run", "--config", cfg, "--out", str(out), "--trials", "2048", "--seed", "99"])
    rows = read_rows(out)
    mc = [r for r in rows if r[3] == "mc"]
    assert all(r[6] == "2048" and r[7] == "99" for r in mc)


# ------------------------------------------------------------------ cmd_fig

def test_fig5_preset_source_grammar(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["fig", "--preset", "fig5", "--out", str(out), "--trials", "512"]) == 0
    rows = read_rows(out)
    assert {r[3] for r in rows} == {
        "mc_10db",
        "mc_15db",
        "analytic_10db",
        "analytic_15db",
        "analytic_lb_10db",
        "analytic_lb_15db",
    }
    assert {r[0] for r in rows} == {"R"}
    # 8 element counts x 2 operating points x 6 rows
    assert len(rows) == 96


def test_fig3_preset_mixes_baseline_rows(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig", "--preset", "fig3", "--out", str(out), "--trials", "512"]) == 0
    rows = read_rows(out)
    assert {r[3] for r in rows} == {"mc", "analytic", "analytic_lb", "mc_no_ris"}
    # 11 grid points x (6 aligned rows + 3 baseline-only rows)
    assert len(rows) == 99


# sha256 of each preset's CSV at --trials 8192 --seed 1234.  A change that
# keeps the random draws must keep these bytes; a change meant to alter the
# draws updates the digest and says why.
FIG_DIGESTS = {
    "fig2": "6327ce54f24f00394c1977636f054f2e47310db0a35700ed8cbb80afaa2fe80a",
    "fig3": "f60b82a7f31f906a648bcf32180a3d122da778d8b404a25cd03cd14564888e77",
    "fig4": "dbf693b8bd74e1a1efcfa38b6c28048ddc2d77542ca4691288b9c00abf2b6c10",
    "fig5": "970329e87b883450aa3b653c0c6be8e6591713fc44f0e2b45fdb429d62b49dbd",
    "fig6": "640baa1eff184ea2277401096fa82f14040d93f04c3f5fd11060439eef083d75",
}


@pytest.mark.parametrize("preset", sorted(FIG_DIGESTS))
def test_fig_preset_bytes_are_frozen(tmp_path, monkeypatch, preset):
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    out = tmp_path / f"{preset}.csv"
    argv = ["fig", "--preset", preset, "--out", str(out), "--trials", "8192", "--seed", "1234"]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG_DIGESTS[preset]


# ------------------------------------------------------- compare / analytic

def test_compare_passes_in_the_resolvable_regime(tmp_path, capsys):
    # at -20 dB every metric is near one: cu and sc resolve and agree,
    # and the lower bound sits below the estimate
    cfg = write_config(tmp_path, {"rho_s_db": -20, "trials": 20_000})
    assert main(["compare", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "comparison passed" in out
    assert "FAIL" not in out


def test_compare_flags_violated_bound(tmp_path, capsys):
    # at the reference point with few trials the simulation cannot see the
    # deep-tail mass, so the closed-form lower bound exceeds mc + 3 stderr
    cfg = write_config(tmp_path, {"trials": 2000})
    assert main(["compare", "--config", cfg]) == 4
    out = capsys.readouterr().out
    assert "comparison FAILED" in out
    assert "SKIP" in out  # sc is below the resolution floor there


def test_analytic_subcommand_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    assert main(["analytic", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "8.8353488026e-03" in out
    assert "lower bound" in out
    assert "diversity" in out


# --------------------------------------------------------------- exit codes

def test_exit_code_2_on_config_errors(tmp_path, capsys):
    bad = write_config(tmp_path, {"alpha_c": 0.6})
    assert main(["analytic", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert main(["analytic", "--config", missing]) == 2


def test_exit_code_2_on_non_finite_config(tmp_path, capsys):
    # json writes and reads NaN / Infinity; the library rejects both
    for payload in ({"rho_s": float("nan")}, {"lambda_e": float("inf")}):
        assert main(["analytic", "--config", write_config(tmp_path, payload)]) == 2
        assert "must be finite" in capsys.readouterr().err


def test_exit_code_2_on_non_finite_json_constants(tmp_path, capsys):
    # json.load reads NaN and Infinity unless told not to; either one in a
    # sweep once ran the other points (NaN) or wrote an empty CSV (Infinity)
    out = tmp_path / "out.csv"
    for text in (
        '{"trials": 256, "sweep": {"axis": "rho_s_db", "values": [NaN, 10]}}',
        '{"trials": 256, "sweep": {"axis": "alpha_c", "values": [Infinity]}}',
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_on_unwritable_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"trials": 256})
    target = str(tmp_path / "no_such_dir" / "out.csv")
    assert main(["run", "--config", cfg, "--out", target]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, {})
    proc = subprocess.run(
        [sys.executable, "-m", "risnoma", "analytic", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "diversity" in proc.stdout

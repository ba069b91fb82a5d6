"""Tests for the command-line layer: config parsing, CSV schema, exit codes.

The CSV format is load-bearing (downstream plotting scripts key on it), so
its header, ordering, number formatting, and line endings are pinned here.
"""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma import analytic, cli
from risnoma.channel import REFERENCE, ScenarioKind, SystemConfig
from risnoma.cli import (
    ConfigError,
    load_config,
    main,
    parse_config,
)
from risnoma.montecarlo import BlerEstimate, run_points

CSV_HEADER = "axis,value,metric,source,bler,stderr,n,seed"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def swept_rho_c(raw):
    # the relay SNR at the 20 dB point of a rho_s_db sweep over the config
    (point,) = parse_config({**raw, "sweep": {"axis": "rho_s_db", "values": [20]}}).points
    return point.cfg.rho_c


# ------------------------------------------------------------- parse_config

def test_parse_config_reference_defaults():
    rc = parse_config({})
    (point,) = rc.points
    assert point.cfg.rho_s == 10.0
    assert point.cfg.rho_c == 1.0
    assert point.cfg.alpha_c == 0.1 and point.cfg.alpha_e == 0.9
    assert point.cfg.R == 8
    assert point.cfg.code_c.m == 100 and point.cfg.code_c.bits == 300
    assert point.cfg.code_e.bits == 100
    assert rc.trials == 100_000 and rc.seed == 1234
    assert point.cfg.scenario is ScenarioKind.TWO_ZONE_ALIGNED
    assert (point.axis, point.value, point.suffix) == ("rho_s_db", 10.0, "")
    assert swept_rho_c({}) == pytest.approx(10.0, rel=1e-15, abs=0)


def test_parse_config_of_no_keys_is_the_reference_system():
    (point,) = parse_config({}).points
    assert point.cfg == REFERENCE


def test_reference_codes_share_the_one_blocklength_key():
    # a config has one m key for both codes, so an omitted m can give
    # REFERENCE only if its two codes agree on m
    assert REFERENCE.code_c.m == REFERENCE.code_e.m


def test_parse_config_db_conversion_and_coupling():
    cfg = parse_config({"rho_s_db": 20}).points[0].cfg
    assert cfg.rho_s == pytest.approx(100.0, rel=1e-15, abs=0)
    assert cfg.rho_c == pytest.approx(10.0, rel=1e-15, abs=0)
    # an explicit relay SNR pins it (no coupling during sweeps either)
    cfg = parse_config({"rho_c": 5.0}).points[0].cfg
    assert cfg.rho_c == 5.0
    assert swept_rho_c({"rho_c": 5.0}) == 5.0
    cfg = parse_config({"rho_c_db": 0}).points[0].cfg
    assert cfg.rho_c == 1.0 and swept_rho_c({"rho_c_db": 0}) == 1.0


def test_parse_config_alpha_complement_default():
    cfg = parse_config({"alpha_c": 0.2}).points[0].cfg
    assert cfg.alpha_e == pytest.approx(0.8, rel=1e-15, abs=0)


_HUGE_CODES = [{"m": 10**400}, {"n_c": 10**400}]


@pytest.mark.parametrize(
    "payload",
    [
        {"rho_s": 10.0, "rho_s_db": 10.0},  # both spellings
        {"rho_c": 1.0, "rho_c_db": 0.0},
        {"alpha_c": 0.6},  # ordering violated after complement
        {"alpha_c": 0.2, "alpha_e": 0.9},  # alpha_e follows from alpha_c
        {"trials": 0},
        {"alpha_c": True},  # bool is not a number here
        {"m": 2.5},  # integer keys reject floats
        {"scenario": "mesh"},
        {"frequency": 2.4},  # unknown key
        [],  # not an object
        {"rho_s_db": 1e308},  # linear power overflows a float
        {"m": 10**50},  # the surrogate's threshold rounds to 0
        {"n_c": 10**9},  # 2**(2*rate) overflows a float
        *_HUGE_CODES,
        {"m": -(10**400)},
        {"n_e": -(10**400)},
        {"R": -(10**400)},
        {"quad_order": -(10**400)},  # the quadrature order is no key
        {"seed": -1},  # the chunk streams take a 64-bit seed
        {"seed": 2**64},
        {"seed": 10**400},
        {"R": 10**20},  # diversity orders of 8e19 once went out
        {"R": 10**400},  # once an OverflowError in the gamma fit
        {"R": 2000, "sweep": {"axis": "R", "values": [1, 2]}},  # base system checked first
        {"scenario": 10**400},  # an unknown tag is echoed briefly
        {"scenario": "x" * 5000},
        {"sweep": {"axis": "x" * 5000, "values": [1]}},  # so is a bad sweep axis
        {"sweep": {"axis": 10**400, "values": [1]}},
        {"sweep": {"axis": list(range(1000)), "values": [1]}},
    ],
)
def test_parse_config_rejects(payload):
    with pytest.raises(ConfigError) as exc:
        parse_config(payload)
    # a huge integer is printed by its leading digits and exponent
    message = str(exc.value)
    assert len(message) <= 120, message
    if payload in _HUGE_CODES:
        assert "has no finite linearization" in message


@pytest.mark.parametrize("key, value", [("alpha_e", 0.9), ("quad_order", 50)])
def test_parse_config_refuses_derived_and_fixed_values_as_unknown_keys(key, value):
    with pytest.raises(ConfigError, match=f"unknown keys {key}$"):
        parse_config({key: value})


def test_parse_config_unknown_keys_listed_sorted():
    with pytest.raises(ConfigError, match="bandwidth, zeta"):
        parse_config({"zeta": 1, "bandwidth": 2})


def test_no_ris_is_not_a_scenario(tmp_path, capsys):
    # no surface is R = 0; the retired scenario tag is a config error that
    # lists the two scenarios, and run writes no CSV for it
    cfg = write_config(tmp_path, {"trials": 256, "scenario": "no_ris"})
    out = tmp_path / "none.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scenario must be one of two_zone_aligned, single_zone_random, got 'no_ris'" in err
    assert not out.exists()


def test_parse_config_sweep_block():
    rc = parse_config({"sweep": {"axis": "rho_s_db", "values": [0, 5, 10]}})
    assert [(p.axis, p.value) for p in rc.points] == [
        ("rho_s_db", 0.0), ("rho_s_db", 5.0), ("rho_s_db", 10.0)
    ]
    for bad in (
        {"axis": "rho_s_db"},  # missing values
        {"axis": "lambda_c", "values": [1]},  # not a sweepable axis
        {"axis": ["R"], "values": [1]},  # an axis name is a string
        {"axis": "rho_s_db", "values": []},
        {"axis": "rho_s_db", "values": ["a"]},
        {"axis": "R", "values": [1.5]},  # element counts are integers
        {"axis": "m", "values": [100, True]},
    ):
        with pytest.raises(ConfigError):
            parse_config({"sweep": bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_parse_config_rejects_non_finite_numbers(bad):
    sweep_value = r"^config error: sweep\.values\[1\] must be finite, got "
    with pytest.raises(ConfigError, match=sweep_value):
        parse_config({"sweep": {"axis": "rho_s_db", "values": [0, bad]}})
    with pytest.raises(ConfigError, match="^config error: alpha_c must be finite, got "):
        parse_config({"alpha_c": bad})


@pytest.mark.parametrize(
    "raw, refuse",
    [
        ({"alpha_c": math.nan}, lambda: replace(REFERENCE, alpha_c=math.nan)),
        ({"R": 1.5}, lambda: replace(REFERENCE, R=1.5)),
        ({"scenario": "mesh"}, lambda: replace(REFERENCE, scenario="mesh")),
        ({"lambda_rc": 1e200}, lambda: replace(REFERENCE, lambda_rc=1e200)),
        ({"trials": 0}, lambda: run_points([REFERENCE], 0, 1234)),
        ({"seed": -1}, lambda: run_points([REFERENCE], 256, -1)),
    ],
    ids=["float", "int", "scenario", "lambda", "trials", "seed"],
)
def test_config_refusals_are_the_librarys_own(raw, refuse):
    # the CLI reads each value through the library's own rule, so the two
    # messages cannot drift apart
    with pytest.raises(ValueError) as lib:
        refuse()
    with pytest.raises(ConfigError) as got:
        parse_config(raw)
    assert str(got.value) == f"config error: {lib.value}"


@pytest.mark.parametrize(
    "axis, field, bad",
    [("rho_s_db", "rho_s", math.inf), ("alpha_c", "alpha_c", "0.2"), ("R", "R", 2.5)],
)
def test_sweep_value_refusals_are_the_librarys_own(axis, field, bad):
    # the library names the field and the CLI the key path, in one wording
    with pytest.raises(ValueError) as lib:
        replace(REFERENCE, **{field: bad})
    with pytest.raises(ConfigError) as got:
        parse_config({"sweep": {"axis": axis, "values": [1, bad]}})
    reason = str(lib.value).removeprefix(f"{field} ")
    assert str(got.value) == f"config error: sweep.values[1] {reason}"


# every value a JSON decoder can give one key: numbers of any size or
# finiteness, and the wrong types
_JSON_SCALARS = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cli._ALL_KEYS - {"sweep"})), _JSON_SCALARS)
def test_parse_config_refuses_only_with_config_error(key, value):
    try:
        parse_config({key: value})
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cli._SWEEP_AXES)), st.data())
def test_every_sweep_value_becomes_one_point(axis, data):
    numbers = st.integers(min_value=-(10**300), max_value=10**300)
    if axis not in ("R", "m"):
        numbers = st.one_of(numbers, st.floats(allow_nan=False, allow_infinity=False))
    values = data.draw(st.lists(numbers, min_size=1, max_size=4))
    points = parse_config({"sweep": {"axis": axis, "values": values}}).points
    assert [p.value for p in points] == [float(v) for v in values]
    assert all(isinstance(p.cfg, (SystemConfig, str)) for p in points)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    # JSON text is UTF-8; a Latin-1 file is refused by its path, as invalid JSON is
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"scenario": "caf\u00e9"}'.encode("latin-1"))
    message = f"^config error: {re.escape(str(latin))} is not valid JSON: 'utf-8' codec"
    with pytest.raises(ConfigError, match=message):
        load_config(str(latin))


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"R": 1, "R": 8}', "R"),
        ('{"sweep": {"axis": "R", "values": [1, 2], "axis": "m"}}', "axis"),
        ('{"sweep": {"axis": "R", "values": [1, 2], "values": [3]}}', "values"),
    ],
    ids=["top_level", "sweep_axis", "sweep_values"],
)
def test_duplicate_keys_are_refused(tmp_path, capsys, text, key):
    # json keeps the last of a repeated key, so {"R": 1, "R": 8} once ran at R = 8
    path = tmp_path / "dup.json"
    path.write_text(text, encoding="utf-8")
    for command in ("run", "compare", "analytic"):
        argv = [command, "--config", str(path)]
        out = tmp_path / "dup.csv"
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: duplicate key {key}\n"
        assert captured.out == ""
        assert not out.exists()


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
    assert "cu,analytic,8.8382052121e-03" in text


def test_run_output_is_bytewise_reproducible(tmp_path):
    cfg = write_config(tmp_path, {"trials": 4096, "seed": 3})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_run_no_surface_scenario_has_no_closed_form_rows(tmp_path):
    cfg = write_config(tmp_path, {"trials": 2048, "R": 0})
    out = tmp_path / "none.csv"
    main(["run", "--config", cfg, "--out", str(out)])
    rows = read_rows(out)
    assert len(rows) == 3
    assert {r[3] for r in rows} == {"mc"}


def test_run_eta_zero_has_no_closed_form_rows(tmp_path, capsys):
    # eta = 0 is a surface that reflects nothing: simulated, not modelled
    cfg = write_config(tmp_path, {"trials": 256, "eta_c": 0.0})
    out = tmp_path / "eta0.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert {r[3] for r in rows} == {"mc"}
    assert "warning:" not in capsys.readouterr().err


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
        tmp_path, {"trials": 512, "sweep": {"axis": "alpha_c", "values": [0.1, 0.6]}}
    )
    out = tmp_path / "partial.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: alpha_c=0.6: need 0 < alpha_c < alpha_e" in err
    assert "1 of 2 sweep points failed" in err
    assert {float(r[1]) for r in read_rows(out)} == {0.1}
    # compare reports the point that ran; 512 trials resolve none of its
    # rows well enough to fail one
    assert main(["compare", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "1 of 2 sweep points failed" in captured.err
    assert "[alpha_c=0.1]" in captured.out and "[alpha_c=0.6]" not in captured.out


def test_overflowing_sweep_point_prints_no_numpy_warning(tmp_path):
    # the SINRs overflow in the pool workers, whose stderr is the CLI's; the
    # point simulates to its ceiling floor like any other
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
    assert "warning:" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    rows = read_rows(out)
    assert len(rows) == 12
    assert sorted({float(r[1]) for r in rows}) == [10.0, 3079.0]


@pytest.mark.parametrize(
    "raw, value",
    [
        ({"eta_c": 0, "lambda_gc": 1e200, "lambda_rc": 1e200}, "1e+200"),
        ({"eta_c": 0, "lambda_rc": 1e307, "scenario": "single_zone_random"}, "1e+307"),
    ],
    ids=["aligned", "random_phase"],
)
def test_link_mean_past_the_bound_exits_2(tmp_path, capsys, raw, value):
    # with eta = 0 these once met 0 * inf in the samplers: the aligned one
    # failed the point, the random-phase one printed a numpy RuntimeWarning
    cfg = write_config(tmp_path, {"trials": 256, **raw})
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: lambda_rc must lie in (0, 1e100], got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("eta", ["eta_c", "eta_e"])
@pytest.mark.parametrize("command", ["run", "compare", "analytic"])
def test_nan_gain_cdf_exits_2_with_the_kernels_reason(tmp_path, capsys, command, eta):
    # a subnormal eta once printed closed-form BLERs of 0 with three numpy
    # warnings, and later exited 2 on the gain CDF's NaN; the CDF's rule
    # now stops at the gamma tail, so every command gives finite closed forms
    cfg = write_config(tmp_path, {"trials": 256, eta: 1e-320})
    out = tmp_path / "tiny.csv"
    argv = [command, "--config", cfg] + (["--out", str(out)] if command == "run" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert "warning:" not in captured.err
    if command == "run":
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 6
        assert all(0.0 <= float(row[4]) <= 1.0 for row in rows)
    elif command == "analytic":
        assert code == 0
        assert captured.out.count("[") == 1
    else:
        assert code in (0, 4)
        reports = [line for line in captured.out.splitlines() if "analytic=" in line]
        assert len(reports) == 3
        for line in reports:
            value = float(line.split("analytic=")[1].split()[0])
            assert math.isfinite(value) and 0.0 <= value <= 1.0


def test_tiny_eta_sweep_keeps_every_point(tmp_path, capsys):
    # at eta 1e-190 the -2800 dB point's gain CDF was once NaN, which failed
    # the whole run after simulating both points
    cfg = write_config(
        tmp_path,
        {"eta_c": 1e-190, "trials": 4096, "sweep": {"axis": "rho_s_db", "values": [10, -2800]}},
    )
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_rows(out)
    assert len(rows) == 12
    assert all(0.0 <= float(row[4]) <= 1.0 for row in rows)


@pytest.mark.parametrize("command", ["run", "compare", "analytic"])
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


def test_analytic_skips_failed_sweep_points(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sweep": {"axis": "alpha_c", "values": [0.1, 0.6, 0.3]}})
    assert main(["analytic", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("warning:") == 1
    assert "warning: alpha_c=0.6: " in captured.err
    assert "1 of 3 sweep points failed" in captured.err
    assert "[alpha_c=0.1]" in captured.out and "[alpha_c=0.3]" in captured.out
    assert "[alpha_c=0.6]" not in captured.out


@pytest.mark.parametrize("command", ["run", "compare", "analytic"])
def test_every_command_evaluates_the_loaded_config(tmp_path, monkeypatch, command):
    # 10*log10 and back moves rho_s = 10**0.3 by one ulp; no command may
    # rebuild the config it was given
    raw = {"rho_s_db": 3, "trials": 256}
    seen = []
    avg_blers = analytic.avg_blers

    def recording(cfg):
        seen.append(cfg)
        return avg_blers(cfg)

    monkeypatch.setattr(analytic, "avg_blers", recording)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "point.csv"
    argv = [command, "--config", cfg] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) in (0, 4)
    assert [c.rho_s for c in seen] == [parse_config(raw).points[0].cfg.rho_s]


@pytest.mark.parametrize("raw, calls", [({}, 6), ({"alpha_c": 0.49}, 6)])
def test_closed_form_rows_evaluate_each_step_once(monkeypatch, raw, calls):
    # six step averages (cc, ce, e1, e2, doubled e1 and e2), each one CDF
    # call; at alpha_c = 0.49 the SIC ceiling lies inside the knee window of
    # ce and e1, whose averages then take one call on the rule's 50 nodes
    got = []
    cdf = analytic.effective_gain_cdf

    def counting(*args):
        got.append(args)
        return cdf(*args)

    monkeypatch.setattr(analytic, "effective_gain_cdf", counting)
    cli._analytic_rows(parse_config(raw).points[0].cfg)
    assert len(got) == calls


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
    "fig2": "b26bc648c0fb6ac85fe5992a90b76ef965fc2e0999c63c7987d3ac235a9e8cb1",
    "fig3": "03bdf04594f7e9e606c4a87e81dd799b431b7214b2e60ab6600e25ee8be2eef3",
    "fig4": "8658292d4a1609245f7ef2d0eab06536ea940edeaa5250ed1996e22e783e1737",
    "fig5": "b55c9b68f340ec1bafa83f9b964b6002b9f7a028d8cf9cee6c22a505a4cdb910",
    "fig6": "df200fe320f104c9883b21bd3841d27c3ed8275408af42a0d6d3f8e3131a4731",
}


@pytest.mark.parametrize("preset", sorted(FIG_DIGESTS))
def test_fig_preset_bytes_are_frozen(tmp_path, monkeypatch, preset):
    monkeypatch.setenv("RISNOMA_WORKERS", "1")
    out = tmp_path / f"{preset}.csv"
    argv = ["fig", "--preset", preset, "--out", str(out), "--trials", "8192", "--seed", "1234"]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FIG_DIGESTS[preset], f"{preset}: got {digest}"


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
    # at eta_e = 0.01 the edge user's closed forms sit 3-5x above a mean
    # the simulation resolves at 2000 trials: sc leaves its window and the
    # lower bound exceeds the estimate, while cu's interval is too wide
    cfg = write_config(tmp_path, {"eta_e": 0.01, "trials": 2000})
    assert main(["compare", "--config", cfg]) == 4
    lines = capsys.readouterr().out.splitlines()
    for metric, verdict in (("cu", "SKIP"), ("ceu_sc", "FAIL"), ("ceu_mrc", "FAIL")):
        (line,) = [line for line in lines if line.startswith(f"  {metric:8s} ")]
        assert line.endswith(f"  {verdict}"), line
    assert lines[-1] == "comparison FAILED"


@pytest.mark.parametrize("command", ["compare", "analytic"])
@pytest.mark.parametrize(
    "payload, where",
    [
        ({"R": 0}, "two_zone_aligned at R=0"),
        ({"eta_c": 0.0}, "two_zone_aligned at R=8, eta_c=0, eta_e=1"),
        ({"eta_e": 0.0}, "two_zone_aligned at R=8, eta_c=1, eta_e=0"),
        ({"lambda_gc": 1e-300, "lambda_rc": 1e-300}, "two_zone_aligned at R=8, eta_c=1, eta_e=1"),
    ],
    ids=["R_0", "eta_c_0", "eta_e_0", "lambda_underflow"],
)
def test_closed_form_commands_refuse_points_they_do_not_model(
    tmp_path, capsys, monkeypatch, command, payload, where
):
    # refused before anything is simulated or evaluated
    simulated = []
    monkeypatch.setattr(cli, "run_points", lambda points, n, seed: simulated.extend(points) or [])
    monkeypatch.setattr(cli, "_analytic_rows", None)
    cfg = write_config(tmp_path, {"trials": 256, **payload})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert f"no closed form for scenario {where}" in err
    assert "config error: 1 of 1 sweep points failed" in err
    assert simulated == []


@pytest.mark.parametrize("command", ["compare", "analytic"])
def test_underflowing_sinr_scale_is_a_sure_failure_not_a_crash(tmp_path, capsys, command):
    # at the least subnormal rho_s, alpha_c * rho_s rounds to 0; the closed
    # forms once died on it with a ZeroDivisionError and exit 1
    cfg = write_config(tmp_path, {"rho_s": 5e-324, "rho_c": 1.0, "trials": 4096})
    assert main([command, "--config", cfg]) == 0
    out = capsys.readouterr().out
    if command == "analytic":
        for metric in ("cu", "ceu_sc", "ceu_mrc"):
            assert f"  {metric:8s} 1.0000000000e+00" in out
    else:
        assert out.count("analytic=1.000000e+00  mc=1.000000e+00 +- 0.000000e+00") == 3
        assert "comparison passed" in out


# Rows measured with `risnoma compare` at seed 1234, as (source, closed form,
# (mean, stderr, n), verdict): the reference point at 1e5 trials, where
# neither edge-user tail is resolved; the bound at -5 dB; R = 2 at 14 dB and
# 1e6 trials, where the closed form sits 36x and the bound 67x above a
# resolved mean; and closed forms that underflow to 0 at alpha_c = 0.45 and
# 600 dB.
_MEASURED_ROWS = {
    "reference_cu": ("analytic", 8.835349e-3, (6.747186e-3, 2.211602e-4, 10**5), "PASS"),
    "reference_sc": ("analytic", 1.280080e-15, (9.078969e-39, 9.078951e-39, 10**5), "SKIP"),
    "reference_mrc": ("analytic_lb", 3.015418e-19, (1.784833e-68, 1.784763e-68, 10**5), "SKIP"),
    "minus_5db_mrc": ("analytic_lb", 3.467313e-4, (1.349204e-3, 7.228318e-5, 10**5), "PASS"),
    "r2_14db_sc": ("analytic", 2.689280e-3, (7.398489e-5, 6.468049e-6, 10**6), "FAIL"),
    "r2_14db_mrc": ("analytic_lb", 5.366271e-4, (8.038914e-6, 2.129034e-6, 10**6), "FAIL"),
    "zero_cu": ("analytic", 0.0, (1.190376e-1, 6.508609e-11, 4096), "FAIL"),
    "zero_mrc": ("analytic_lb", 0.0, (1.416996e-2, 0.0, 4096), "PASS"),
}


def _judge(monkeypatch, source, value, mc):
    # the verdict _compare_point gives one row, and whether it failed the point
    metric = "ceu_mrc" if source == "analytic_lb" else "cu"
    monkeypatch.setattr(cli, "_analytic_rows", lambda cfg: [(metric, source, value)])
    lines, failed = cli._compare_point(REFERENCE, {metric: mc}, mc.n, 1234, "x")
    verdict = lines[1].split()[-1]
    assert failed == (verdict == "FAIL")
    return verdict


def test_compare_point_judges_each_row_by_its_interval(monkeypatch):
    got = {
        name: _judge(monkeypatch, source, value, BlerEstimate(*mc))
        for name, (source, value, mc, _) in _MEASURED_ROWS.items()
    }
    assert got == {name: row[-1] for name, row in _MEASURED_ROWS.items()}


def test_compare_point_never_fails_a_single_trial(monkeypatch):
    # one trial bounds the mean to nothing but [0, 1], so no row is resolved
    for source, value, mean in itertools.product(
        ("analytic", "analytic_lb"), (1e-300, 1e-3, 0.5, 1.0), (0.0, 1.0)
    ):
        mc = BlerEstimate(mean, 0.0, 1)
        assert cli._half_width(mc) == math.inf
        assert _judge(monkeypatch, source, value, mc) == "SKIP", (source, value, mean)


def test_compare_fails_a_closed_form_that_underflows_to_zero(tmp_path, capsys):
    # at 600 dB the cu and ceu_sc closed forms are 0 while the simulation
    # resolves both; compare once took log10(0) and exited 2
    cfg = write_config(tmp_path, {"alpha_c": 0.45, "rho_s_db": 600, "trials": 4096})
    assert main(["compare", "--config", cfg]) == 4
    lines = capsys.readouterr().out.splitlines()
    for metric in ("cu", "ceu_sc"):
        (line,) = [line for line in lines if line.startswith(f"  {metric:8s} ")]
        assert "analytic=0.000000e+00" in line
        assert line.endswith("ratio=0.000e+00  FAIL")
    assert lines[-1] == "comparison FAILED"


def test_closed_form_commands_run_on_every_accepted_config(tmp_path, capsys):
    # parse_config accepts all 324 configs of this grid: short codes whose
    # knee v lies below SINR 0 (m = 1, 2), extreme SNRs and power splits.
    # analytic always reports, and compare always judges
    failures = []
    grid = itertools.product(
        (1, 2, 4, 100), (1, 10, 300), (1, 10, 100), (0.05, 0.45, 0.49), (-30, 10, 600)
    )
    for m, n_c, n_e, alpha_c, rho_s_db in grid:
        raw = {"m": m, "n_c": n_c, "n_e": n_e, "alpha_c": alpha_c, "rho_s_db": rho_s_db}
        cfg = write_config(tmp_path, {**raw, "trials": 256})
        for command, codes in (("analytic", (0,)), ("compare", (0, 4))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, "--config", cfg])
            err = capsys.readouterr().err
            if code not in codes:
                failures.append((command, raw, code, err.strip()))
    assert failures == []


@pytest.mark.parametrize("command", ["compare", "analytic"])
def test_closed_form_commands_skip_r_zero_in_a_sweep(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"trials": 256, "sweep": {"axis": "R", "values": [0, 1, 2]}})
    assert main([command, "--config", cfg]) in (0, 4)
    captured = capsys.readouterr()
    assert captured.err.count("warning:") == 1
    assert "warning: R=0.0: no closed form for scenario two_zone_aligned at R=0" in captured.err
    assert "1 of 3 sweep points failed" in captured.err
    assert "[R=0" not in captured.out
    assert "[R=1]" in captured.out and "[R=2]" in captured.out


def test_analytic_prints_each_points_diversity(tmp_path, capsys):
    # the slopes follow the point's own R, not the config's base R = 0
    cfg = write_config(tmp_path, {"R": 0, "sweep": {"axis": "R", "values": [1, 2]}})
    assert main(["analytic", "--config", cfg]) == 0
    blocks = capsys.readouterr().out.split("[R=")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["1]", "2]"]
    for block, cu in zip(blocks, ("0.804973", "1.609946")):
        assert f"  diversity cu       {cu}" in block.splitlines()
        assert sum("diversity" in line for line in block.splitlines()) == 3


def test_analytic_subcommand_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    assert main(["analytic", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "8.8382052121e-03" in out
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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_exit_code_2_on_seed_outside_64_bits(tmp_path, capsys, seed):
    out = tmp_path / "out.csv"
    argv = ["fig", "--preset", "fig2", "--out", str(out), "--trials", "256", "--seed", seed]
    assert main(argv) == 2
    shown = {"-1": "-1", str(2**64): "1.845e+19"}[seed]
    message = f"config error: seed must lie in [0, 2**64), got {shown}\n"
    assert capsys.readouterr().err == message
    cfg = write_config(tmp_path, {"trials": 256})
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", seed]) == 2
    assert capsys.readouterr().err == message
    # the config key gives the same message
    cfg = write_config(tmp_path, {"trials": 256, "seed": int(seed)})
    for command in ("analytic", "compare"):
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == message
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "fig", "compare"])
@pytest.mark.parametrize(
    ("env", "reason"), [("abc", "must be an integer, got 'abc'"), ("0", "must be >= 1, got 0")]
)
def test_worker_cap_refusal_is_a_config_error(tmp_path, capsys, monkeypatch, command, env, reason):
    # montecarlo reads RISNOMA_WORKERS when it sizes its pool; main reports
    # the library's ValueError as a config error, before any row is written
    monkeypatch.setenv("RISNOMA_WORKERS", env)
    out = tmp_path / "out.csv"
    argv = {
        "run": ["run", "--config", write_config(tmp_path, {"trials": 256}), "--out", str(out)],
        "fig": ["fig", "--preset", "fig2", "--out", str(out), "--trials", "256"],
        "compare": ["compare", "--config", write_config(tmp_path, {"trials": 256})],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: RISNOMA_WORKERS {reason}\n"
    assert captured.out == ""
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

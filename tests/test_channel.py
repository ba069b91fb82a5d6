"""Tests for the model shared by both paths: the system config, the codes
and their linear surrogate, and the decoding-step table that ties each
step to its link, code and SINR map."""

import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnoma.channel import (
    CC,
    CE,
    E1,
    E2,
    REFERENCE,
    CodeSpec,
    ScenarioKind,
    SystemConfig,
)

# the two working points used throughout: the reference system's rate-3
# control code and rate-1 payload code, both over 100 channel uses
CODE_C, CODE_E = REFERENCE.code_c, REFERENCE.code_e


def make_config(**overrides) -> SystemConfig:
    return replace(REFERENCE, **overrides)


# ------------------------------------------------------------ configuration

def test_system_config_accepts_reference_point():
    cfg = make_config()
    assert cfg.lambda_gc == 0.8 and cfg.lambda_ge == 0.3
    assert cfg.eta_c == 1.0 and cfg.alpha_e == 0.9


@pytest.mark.parametrize(
    "overrides",
    [
        {"rho_s": 0.0},
        {"rho_c": -1.0},
        {"alpha_c": 0.6},  # order violated
        {"alpha_c": 0.5},  # strict ordering required
        {"R": -1},
        {"eta_c": 1.5},
        {"eta_e": -0.1},
        {"lambda_e": 0.0},
        {"lambda_gce": -2.0},
        {"lambda_rc": math.nextafter(1e100, math.inf)},  # past the bound on link means
        {"R": 1025},  # past the cap on the aligned sampler's element loop
        {"R": 2.5},  # element counts are integers, not a gamma fit's extrapolation
        {"R": 8.0},
        {"R": True},
    ],
)
def test_system_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        make_config(**overrides)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("rho_s", "10", "must be a real number, got '10'"),
        ("alpha_c", None, "must be a real number, got None"),
        ("eta_c", True, "must be a real number, got True"),
        ("lambda_c", True, "must be a real number, got True"),
        ("lambda_e", np.bool_(True), "must be a real number"),
        ("rho_s", 10**400, "must be finite, got 1.000e+400"),
    ],
    ids=["str", "none", "bool_eta", "bool_lambda", "numpy_bool", "int_past_float_range"],
)
def test_system_config_float_fields_take_only_real_numbers(name, value, message):
    # a string or None once raised TypeError, a bool was stored as is, and an
    # integer past the float range raised OverflowError
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} {message}")):
        make_config(**{name: value})


def test_system_config_stores_each_float_field_as_a_float():
    cfg = make_config(rho_s=10, rho_c=np.float32(1.0), lambda_e=np.float64(0.3))
    assert (type(cfg.rho_s), type(cfg.rho_c), type(cfg.lambda_e)) == (float, float, float)
    assert cfg == make_config()


_FLOAT_FIELDS = (
    "rho_s", "rho_c", "alpha_c", "eta_c", "eta_e",
    "lambda_c", "lambda_e", "lambda_ce", "lambda_rc", "lambda_gc",
    "lambda_re", "lambda_ge", "lambda_rce", "lambda_gce",
)


@given(
    st.sampled_from(_FLOAT_FIELDS),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_system_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_config(**{name: value})


def test_alpha_e_follows_alpha_c():
    # the edge share is the complement, not a field: a new alpha_c is valid
    cfg = replace(make_config(), alpha_c=0.3)
    assert cfg.alpha_c == 0.3 and cfg.alpha_e == 0.7


def test_system_config_refuses_a_scenario_that_is_not_a_scenario_kind():
    # the config takes a ScenarioKind or its tag, which the CLI reads from JSON
    assert make_config().scenario is ScenarioKind.TWO_ZONE_ALIGNED
    random = make_config(scenario="single_zone_random").scenario
    assert random is ScenarioKind.SINGLE_ZONE_RANDOM
    tags = "two_zone_aligned, single_zone_random"
    with pytest.raises(ValueError, match=f"^scenario must be one of {tags}, got 'no_ris'$"):
        make_config(scenario="no_ris")


def test_system_config_allows_eta_zero_and_r_zero():
    assert make_config(eta_c=0.0, eta_e=0.0).eta_c == 0.0
    assert make_config(R=0).R == 0
    assert make_config(R=1024).R == 1024


# -------------------------------------------------------------------- codes

def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(m=0, bits=100)
    with pytest.raises(ValueError):
        CodeSpec(m=100, bits=0)
    with pytest.raises(ValueError):
        CodeSpec(m=-5, bits=10)
    with pytest.raises(ValueError, match="m must be an integer, got 100.5"):
        CodeSpec(m=100.5, bits=100)
    with pytest.raises(ValueError, match="bits must be an integer, got True"):
        CodeSpec(m=100, bits=True)
    assert CodeSpec(m=np.int64(100), bits=np.int32(300)) == CODE_C
    assert CODE_C.rate == 3.0
    assert CODE_E.rate == 1.0


def test_linearization_frozen_values():
    assert CODE_C.beta == pytest.approx(7.0, abs=1e-12)
    assert CODE_C.delta == pytest.approx(0.05026200292434228, rel=1e-14, abs=0)
    assert CODE_C.v == pytest.approx(6.005212743406519, rel=1e-14, abs=0)
    assert CODE_C.u == pytest.approx(7.994787256593481, rel=1e-14, abs=0)

    assert CODE_E.beta == pytest.approx(1.0, abs=1e-12)
    assert CODE_E.delta == pytest.approx(0.23032943298089034, rel=1e-14, abs=0)
    assert CODE_E.v == pytest.approx(0.7829196236325198, rel=1e-14, abs=0)
    assert CODE_E.u == pytest.approx(1.2170803763674802, rel=1e-14, abs=0)


def _surrogate(code):
    return code.beta, code.delta, code.v, code.u


def test_code_spec_derives_its_surrogate_as_fields_outside_its_identity():
    # beta, delta, v and u are derived once, when the code is built: they are
    # not arguments and stay out of the repr, equality and hash
    code = CodeSpec(m=100, bits=300)
    assert repr(code) == "CodeSpec(m=100, bits=300)"
    other = CodeSpec(100, 300)
    object.__setattr__(other, "beta", 0.0)
    assert other == code and hash(other) == hash(code)
    with pytest.raises(TypeError):
        CodeSpec(m=100, bits=300, beta=7.0)
    # the pool pickles every config into its tasks
    clone = pickle.loads(pickle.dumps(code))
    assert clone == code and _surrogate(clone) == _surrogate(code)
    # replace builds a new code, so it derives them again
    smaller = replace(code, bits=100)
    assert _surrogate(smaller) == _surrogate(CODE_E) and smaller.beta == 1.0


@settings(max_examples=60)
@given(st.integers(min_value=10, max_value=2000), st.integers(min_value=1, max_value=1200))
def test_linearization_knee_width_identity(m, bits):
    # the ramp width is pinned to the slope: delta*sqrt(m)*(u - v) = 1
    code = CodeSpec(m=m, bits=bits)
    assert code.delta * math.sqrt(m) * (code.u - code.v) == pytest.approx(1.0, rel=1e-12, abs=0)
    assert code.v < code.beta < code.u


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=1, max_value=10**60))
def test_code_spec_accepts_only_codes_with_a_finite_linearization(m, bits):
    # m = 10**50 once divided by zero and bits/m = 1e7 overflowed
    try:
        code = CodeSpec(m=m, bits=bits)
    except ValueError:
        return
    assert all(math.isfinite(x) for x in (code.beta, code.delta, code.v, code.u))
    assert 0.0 < code.beta and 0.0 < code.delta
    assert code.v < code.beta < code.u

# ------------------------------------------------------- decoding-step table

def test_step_table_links_and_codes():
    cfg = make_config()
    assert [step.link for step in (CC, CE, E1, E2)] == [0, 0, 1, 2]
    assert [step.code(cfg) for step in (CC, CE, E1, E2)] == [cfg.code_c] + [cfg.code_e] * 3
    assert CE.ceiling(cfg) == E1.ceiling(cfg) == cfg.alpha_e / cfg.alpha_c
    assert CC.ceiling(cfg) == E2.ceiling(cfg) == math.inf


@settings(max_examples=300, deadline=None)
@given(
    step=st.sampled_from([CC, CE, E1, E2]),
    alpha_c=st.floats(min_value=0.01, max_value=0.49),
    rho_s=st.floats(min_value=1e-3, max_value=1e6),
    rho_c=st.floats(min_value=1e-3, max_value=1e6),
    share=st.floats(min_value=1e-250, max_value=1.0, exclude_max=True),
    w=st.floats(min_value=1e-250, max_value=1e250),
)
def test_step_sinr_map_inverts_its_gain_threshold(step, alpha_c, rho_s, rho_c, share, w):
    # the closed forms' inverse map undoes the simulation's forward map
    cfg = make_config(alpha_c=alpha_c, rho_s=rho_s, rho_c=rho_c)
    ceiling = step.ceiling(cfg)
    if ceiling < math.inf:
        w = share * ceiling
    t = step.gain_threshold(w, cfg)
    if t == math.inf:
        # rounding may close the SIC room only in the last ulps below the ceiling
        assert w >= ceiling * (1.0 - 1e-12)
    else:
        assert 0.0 < t < math.inf
        assert step.sinr(t, cfg) == pytest.approx(w, rel=1e-12, abs=0)
        # the forward map on an array gives the float map's bits
        assert step.sinr(np.array([t]), cfg)[0] == step.sinr(t, cfg)


def test_gain_threshold_is_inf_when_the_sinr_scale_underflows():
    # at the least subnormal rho_s, alpha_c * rho_s rounds to 0, so every cc
    # SINR is 0 and no gain reaches w; this once divided by zero
    cfg = make_config(rho_s=5e-324, rho_c=1.0)
    assert cfg.alpha_c * cfg.rho_s == 0.0
    assert CC.gain_threshold(1.0, cfg) == math.inf


@pytest.mark.parametrize("step", [CE, E1], ids=["ce", "e1"])
def test_sic_gain_threshold_is_never_at_and_above_the_ceiling(step):
    cfg = make_config(alpha_c=0.2)
    ceiling = step.ceiling(cfg)
    for w in (ceiling, math.nextafter(ceiling, math.inf), 2.0 * ceiling, 1e300):
        assert step.gain_threshold(w, cfg) == math.inf

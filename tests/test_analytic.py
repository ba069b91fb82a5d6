"""Tests for the closed forms: the cascade's gamma fit, the gain and SINR
CDFs, and the averaged error rates.

Frozen values were produced by this library at the reference configuration
and cross-checked against quadrature of the defining integrals; structural
identities (midpoint reduction, saturation, doubling) are tested exactly.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from risnoma import cli
from risnoma.analytic import (
    _FEJER_WEIGHTS,
    _NODES,
    avg_blers,
    avg_psi,
    diversity_order,
    effective_gain_cdf,
    gamma_fit,
    sinr_cdf,
    unmodeled,
)
from risnoma.channel import (
    CC, CE, E1, E2, REFERENCE, CodeSpec, Link, ScenarioKind, SinrKind, SystemConfig, links,
)
from risnoma.montecarlo import run_trials

def make_config(**overrides) -> SystemConfig:
    return replace(REFERENCE, **overrides)


# the reference system's T link, at its R = 8
T8 = links(REFERENCE)[0]
# the six step averages of a point, as (step, SINR gain) pairs: cc, ce, e1,
# e2, and e1 and e2 at twice their SINR
_STEPS = ((CC, 1.0), (CE, 1.0), (E1, 1.0), (E2, 1.0), (E1, 2.0), (E2, 2.0))


# ---------------------------------------------------------------- quadrature

def test_chebyshev_rule_basic_structure():
    assert len(_NODES) == len(_FEJER_WEIGHTS) == 50
    assert all(-1.0 < x < 1.0 for x in _NODES)
    assert all(a > b for a, b in zip(_NODES, _NODES[1:]))
    assert all(w > 0.0 for w in _FEJER_WEIGHTS)
    # every integral in analytic shares one rule, so its arrays are read-only
    for arr in (_NODES, _FEJER_WEIGHTS):
        assert not arr.flags.writeable


def test_chebyshev_rule_semicircle_exactness():
    # Fejer's rule is built on the Gauss-Chebyshev points: with their weights
    # pi/50 against 1/sqrt(1-x^2), they integrate sqrt(1-x^2) exactly (pi/2)
    weights = np.full_like(_NODES, math.pi / 50.0)
    total = math.fsum(weights * (1.0 - _NODES * _NODES))
    assert total == pytest.approx(math.pi / 2.0, abs=5e-15)


def test_chebyshev_rule_exact_for_polynomials_times_semicircle():
    # exact for p(x) * sqrt(1-x^2) with p a low-degree polynomial;
    # int x^2 sqrt(1-x^2) dx over [-1,1] = pi/8
    weights = np.full_like(_NODES, math.pi / 50.0)
    total = math.fsum(weights * _NODES * _NODES * (1.0 - _NODES * _NODES))
    assert total == pytest.approx(math.pi / 8.0, abs=5e-15)


def test_fejer_weights_are_exact_where_they_claim():
    # Fejer's weights integrate polynomials of degree < 50 exactly, and a
    # smooth function to spectral accuracy
    for f, exact in (
        (np.ones_like(_NODES), 2.0),
        (_NODES**2, 2.0 / 3.0),
        (_NODES**4, 2.0 / 5.0),
        (_NODES**48, 2.0 / 49.0),
        (np.exp(_NODES), 2.0 * math.sinh(1.0)),
    ):
        assert math.fsum(_FEJER_WEIGHTS * f) == pytest.approx(exact, rel=0, abs=1e-15)


# ---------------------------------------------------------------- gamma fit

def test_gamma_fit_frozen_reference():
    kappa, b = gamma_fit(8, 0.8, 1.0)
    assert kappa == pytest.approx(11.879566079348178, rel=1e-15, abs=0)
    assert b == pytest.approx(0.4363385963634107, rel=1e-15, abs=0)


def test_gamma_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        gamma_fit(0, 0.8, 1.0)
    with pytest.raises(ValueError):
        gamma_fit(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_fit(4, 0.8, -1.0)
    # a product that overflows the scale is refused by its inputs' names;
    # one that underflows gives b = 0, which unmodeled names
    with pytest.raises(ValueError, match=r"lambda_g \* lambda_r"):
        gamma_fit(8, 1e200, 1e200)
    assert gamma_fit(8, 1e-200, 1e-200)[1] == 0.0


# --------------------------------------------------------- effective_gain_cdf

def test_gain_cdf_edges_and_validation():
    assert effective_gain_cdf(0.0, T8, 8) == 0.0
    assert effective_gain_cdf(1e6, T8, 8) == pytest.approx(1.0, abs=1e-12)
    # a threshold no gain reaches is certain, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert effective_gain_cdf(math.inf, T8, 8) == 1.0
        got = effective_gain_cdf(np.array([0.0, 30.98393048665198, math.inf]), T8, 8)
    assert got.tolist() == [0.0, effective_gain_cdf(30.98393048665198, T8, 8), 1.0]
    for t in (-1.0, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="t must be >= 0 and not NaN"):
            effective_gain_cdf(t, T8, 8)
    with pytest.raises(ValueError, match="^lam_d must be positive$"):
        effective_gain_cdf(1.0, T8._replace(lam_d=0.0), 8)
    # eta * b must be positive: eta = 0, a fit whose scale is 0 (lambda_g *
    # lambda_r underflowed), and a product that underflows are refused
    underflow = T8._replace(lam_g=1e-200, lam_r=1e-200)
    for link in (T8._replace(eta=0.0), underflow, T8._replace(eta=5e-324)):
        with pytest.raises(ValueError, match=r"^eta \* b must be positive"):
            effective_gain_cdf(1.0, link, 8)
    # a negative eta is refused by name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^eta must be >= 0$"):
            effective_gain_cdf(1.0, T8._replace(eta=-1.0), 8)
    # a subnormal eta overflows sqrt(t)/eta; the rule stops at the gamma
    # tail, so the edges stay exact and the CDF finite, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = effective_gain_cdf(np.array([0.0, 1.0, math.inf]), T8._replace(eta=1e-320), 8)
    assert got[0] == 0.0 and 0.0 < got[1] < 1.0 and got[2] == 1.0


def test_gain_cdf_monotone_and_bounded():
    grid = np.geomspace(1e-3, 500.0, 200)
    vals = [effective_gain_cdf(float(t), T8, 8) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gain_cdf_deep_tail_is_finite_and_positive():
    # the correction terms are combined in the log domain, so far-left
    # thresholds keep full relative accuracy instead of underflowing
    for t, frozen in (
        (1e-12, 2.845538846227438e-83),
        (1e-6, 1.2357770522139096e-44),
        (1e-3, 2.4157743894344994e-25),
    ):
        val = effective_gain_cdf(t, T8, 8)
        assert math.isfinite(val) and val > 0.0
        assert val == pytest.approx(frozen, rel=1e-12, abs=0)


def test_gain_cdf_frozen_median_point():
    # median of 10^6 seeded draws of T = p + q^2 at the reference channel
    # (R=8, lambda_g=0.8, lambda_r=1, lambda_direct=1); the closed form
    # evaluated there must sit near one half.  The frozen value doubles as
    # a regression anchor for the quadrature path.
    median_t = 30.98393048665198
    val = effective_gain_cdf(median_t, T8, 8)
    assert val == pytest.approx(0.5131604054299881, rel=1e-12, abs=0)
    assert 0.45 < val < 0.55


@pytest.fixture(scope="module")
def gain_cdf_error_against_quad():
    # worst absolute error of the order-50 CDF, over a broad threshold grid,
    # against scipy's adaptive quad of the same head-minus-correction
    # integral, with a breakpoint at the gamma mode b * kappa
    kappa, b = gamma_fit(8, T8.lam_g, T8.lam_r)
    s = kappa + 1.0
    q_cap = b * (s + 12.0 * math.sqrt(s) + 40.0)

    def reference(t):
        def term(zeta):
            return math.exp(
                kappa * (math.log(zeta) - math.log(b)) - gammaln(s) + min(zeta * zeta - t, 0.0) - zeta / b
            )

        top = min(math.sqrt(t), q_cap)
        points = [b * kappa] if 0.0 <= b * kappa <= top else None
        correction, _ = quad(term, 0.0, top, points=points, epsabs=0, epsrel=1e-13, limit=200)
        return gammainc(s, math.sqrt(t) / b) - correction

    grid = list(np.linspace(0.5, 80.0, 40)) + [30.98393048665198]
    return max(abs(effective_gain_cdf(float(t), T8, 8) - reference(float(t))) for t in grid)


def test_gain_cdf_order_50_meets_1e6_target(gain_cdf_error_against_quad):
    assert gain_cdf_error_against_quad <= 1e-6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at small eta the correction lacks the gamma density's factor 1/b, "
    "so the CDF reads 0.799 at t = 1e-8 against a bound of 1e-9 and exceeds "
    "its direct-power bound at most thresholds (ROADMAP item 12)",
)
def test_gain_cdf_at_small_eta_rises_and_stays_below_its_direct_power():
    # the gain is its direct power plus a square, so P(gain <= t) is at most
    # P(direct power <= t) = -expm1(-t / lam_d), and a CDF never falls
    link = Link(lam_d=10.0, lam_g=0.1, lam_r=1.0, eta=1e-4)
    t = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 161), [math.inf]))
    cdf = effective_gain_cdf(t, link, 2)
    assert np.all(cdf[1:] >= cdf[:-1] * (1.0 - _RISE)), cdf
    assert np.all(cdf <= -np.expm1(-t / link.lam_d) * (1.0 + _RISE)), cdf


# the CDF of each link's gain under its gamma fit, as (link, R, threshold,
# float.hex) rows, with each link's lam_d, lam_g, lam_r and eta by name, from
# the law itself at 60 digits by tests/oracles/make_gain_cdf_oracle.py, not
# from this code.  A cell whose value is not a normal float64 is left out, as
# is one where the generator's two methods miss their 1e-12 agreement
_GAIN_CDF_ORACLE = json.loads(
    (Path(__file__).parent / "oracles" / "gain_cdf.json").read_text(encoding="utf-8")
)


def test_gain_cdf_oracle_table_is_well_formed():
    # the value test below is an expected failure, so without this a
    # regenerated table that is malformed or falls with t would fail nothing
    cells = {}
    for name, R, t, want in _GAIN_CDF_ORACLE["cells"]:
        assert name in _GAIN_CDF_ORACLE["links"], name
        assert type(R) is int and R >= 1, (name, R)
        cells.setdefault((name, R), []).append((t, float.fromhex(want)))
    for cell, rows in cells.items():
        ts, values = zip(*rows)
        assert all(sys.float_info.min <= v <= 1.0 for v in values), (cell, values)
        assert all(a < b for a, b in zip(ts, ts[1:])), (cell, ts)
        assert all(a < b for a, b in zip(values, values[1:])), (cell, values)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the correction lacks the gamma density's factor 1/b, so the CDF "
    "reads 2.85e-83 against 6.79e-96 on the T link at R = 8, t = 1e-12, and "
    "0.799 against 7.04e-10 on the small-eta link at t = 1e-8; every cell is "
    "off, by 7.6e-9 to 2.2e13 relative (ROADMAP item 12)",
)
def test_gain_cdf_matches_its_oracle():
    # every cell that misses its oracle value, with the ratio it reads
    off = {}
    for name, R, t, want in _GAIN_CDF_ORACLE["cells"]:
        link = Link(**_GAIN_CDF_ORACLE["links"][name])
        got = effective_gain_cdf(t, link, R)
        if got != pytest.approx(float.fromhex(want), rel=1e-9, abs=0):
            off[name, R, t] = float(got / float.fromhex(want))
    assert off == {}


@pytest.mark.parametrize(
    "R, link",
    [
        (2, Link(lam_d=10.0, lam_g=0.1, lam_r=1.0, eta=1e-4)),
        (2, Link(lam_d=158.0, lam_g=79.0, lam_r=0.0065, eta=1.4e-4)),
        (2, Link(lam_d=249.0, lam_g=0.082, lam_r=0.19, eta=1.5e-3)),
        (2, Link(lam_d=0.17, lam_g=0.45, lam_r=0.11, eta=2.1e-5)),
        (3, Link(lam_d=656.0, lam_g=0.22, lam_r=8.8, eta=2.4e-5)),
        (2, Link(lam_d=764.0, lam_g=83.0, lam_r=0.042, eta=6.5e-5)),
        (907, Link(lam_d=227.0, lam_g=0.048, lam_r=33.0, eta=1.8e-6)),
        (931, Link(lam_d=424.0, lam_g=0.017, lam_r=63.0, eta=2.1e-4)),
        (558, Link(lam_d=126.0, lam_g=0.24, lam_r=11.0, eta=6.5e-7)),
    ],
)
def test_gain_cdf_never_falls_once_its_rule_passes_the_bulk(R, link):
    # small-eta links on which one Chebyshev panel stretched from 0 to q_cap
    # left the gamma bulk so few nodes that the CDF fell with t, by up to
    # 7.6e-8, once sqrt(t)/eta passed about 27 b; the tail panel keeps the
    # bulk's rule fixed there.  On the large-R links the CDF fell by up to
    # 1.2e-4 just below the bulk edge while the bulk panel had folded
    # Gauss-Chebyshev weights, whose error there outgrew the CDF's rise
    t = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 161), [math.inf]))
    cdf = effective_gain_cdf(t, link, R)
    assert np.all(cdf[1:] >= cdf[:-1] * (1.0 - _RISE)), cdf


# ------------------------------------------------------------------ sinr_cdf

def test_sinr_cdf_zero_threshold_is_zero():
    cfg = make_config()
    for kind in (CC, CE, E1, E2):
        assert sinr_cdf(0.0, kind, cfg) == 0.0
        # the ce and e1 maps send NaN to an infinite gain threshold, which
        # once read as a certain event
        for omega in (-0.5, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="omega must be >= 0 and not NaN"):
                sinr_cdf(omega, kind, cfg)


def test_sinr_cdf_at_zero_is_one_when_the_sinr_scale_underflows():
    # alpha_c * rho_s rounds to 0, so every cc SINR is 0 and P(SINR <= 0) = 1
    cfg = make_config(rho_s=5e-324)
    assert cfg.alpha_c * cfg.rho_s == 0.0
    assert sinr_cdf(0.0, CC, cfg) == 1.0
    assert sinr_cdf(0.0, CE, cfg) == 0.0


def test_sinr_cdf_interference_saturation():
    # the ce / e1 SINRs are interference-limited: below alpha_e/alpha_c the
    # CDF is a proper mixture, at or above it the event is certain
    cfg = make_config()
    ratio = cfg.alpha_e / cfg.alpha_c
    for kind in (CE, E1):
        assert sinr_cdf(ratio, kind, cfg) == 1.0
        assert sinr_cdf(ratio + 5.0, kind, cfg) == 1.0
        # at half the ratio the gain threshold is moderate and the CDF proper
        assert sinr_cdf(ratio * 0.5, kind, cfg) < 1.0
    # cc has no interference term, so no saturation there
    assert sinr_cdf(ratio, CC, cfg) < 1.0


def test_sinr_cdf_is_one_in_the_last_ulp_below_the_ceiling():
    # there the rounded SIC room alpha_e rho_s - alpha_c rho_s w is already
    # 0; the SINR cannot reach w, so the CDF is 1, not a division by zero
    cfg = make_config(alpha_c=0.35)
    w = math.nextafter(cfg.alpha_e / cfg.alpha_c, 0.0)
    for kind in (CE, E1):
        assert sinr_cdf(w, kind, cfg) == 1.0
        assert sinr_cdf(0.5 * w, kind, cfg) < 1.0


def test_sinr_cdf_at_infinity_is_one():
    # an infinite threshold is an infinite gain threshold: certain, not 0
    cfg = make_config()
    for kind in (CC, CE, E1, E2):
        assert sinr_cdf(math.inf, kind, cfg) == 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    alpha_c=st.floats(min_value=0.05, max_value=0.4999),
    rho_db=st.floats(min_value=-10.0, max_value=30.0),
    R=st.integers(min_value=1, max_value=64),
    shares=st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=16),
)
def test_sinr_cdf_on_an_array_gives_the_bits_of_one_call_per_element(alpha_c, rho_db, R, shares):
    # 0, the ceiling, the float just below it, values above it, inf, the
    # knee window's quadrature nodes and random fractions of the ceiling
    # (of beta where there is no ceiling): one array call, one warning-free
    # pass, the same bits as a call per element
    rho_s = 10.0 ** (rho_db / 10.0)
    cfg = make_config(alpha_c=alpha_c, rho_s=rho_s, rho_c=rho_s / 10.0, R=R)
    for kind, gain in _STEPS:
        code = kind.code(cfg)
        c = gain * kind.ceiling(cfg)
        scale = c if c < math.inf else code.beta
        omega = [0.0, math.inf, *(scale * s for s in shares)]
        omega += list(code.v + (code.u - code.v) / 2.0 * (_NODES + 1.0))
        if c < math.inf:
            omega += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf), 2.0 * c, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sinr_cdf(np.array(omega) / gain, kind, cfg)
        assert got.shape == (len(omega),)
        want = [float(sinr_cdf(w / gain, kind, cfg)).hex() for w in omega]
        assert [v.hex() for v in got.tolist()] == want


def test_sinr_cdf_doubled_halves_threshold_first():
    # CDF of 2*gamma at omega is the plain CDF at omega/2 -- the halving
    # happens before the SINR-to-gain threshold map, not after: the average
    # of 2*SINR is the plain CDF at beta/2 ...
    cfg = make_config()
    for kind in (E1, E2):
        assert avg_psi(kind, cfg, 2.0) == sinr_cdf(kind.code(cfg).beta / 2.0, kind, cfg)
    # ... and, where the doubled ceiling 3.0 lies in the knee window
    # (-1.85, 7.85) of the m = 1 code, the integral of the halved CDF up to
    # that ceiling, as adaptive quadrature of it shows
    cfg = make_config(alpha_c=0.4, code_e=CodeSpec(m=1, bits=2))
    code, ceiling = cfg.code_e, 2.0 * E1.ceiling(cfg)
    assert code.v < ceiling < code.u
    integral, _ = quad(lambda w: sinr_cdf(w / 2.0, E1, cfg), 0.0, ceiling, limit=200)
    reference = code.delta * math.sqrt(code.m) * (integral + code.u - ceiling)
    assert avg_psi(E1, cfg, 2.0) == pytest.approx(reference, abs=1e-3)


def test_sinr_cdf_monotone_per_kind():
    cfg = make_config()
    omegas = np.linspace(0.0, 8.0, 60)
    for kind in (CC, CE, E1, E2):
        vals = [sinr_cdf(float(w), kind, cfg) for w in omegas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_sinr_kind_rejects_unknown_tag():
    with pytest.raises(ValueError):
        SinrKind("uplink")


# ------------------------------------------------------------------- avg_psi

def test_avg_psi_frozen_reference_values():
    cfg = make_config()
    assert avg_psi(CC, cfg, 1.0) == pytest.approx(0.008838205212099954, rel=1e-12, abs=0)
    assert avg_psi(CE, cfg, 1.0) == pytest.approx(3.942511444390763e-12, rel=1e-12, abs=0)
    assert avg_psi(E1, cfg, 1.0) == pytest.approx(1.7805154535367623e-09, rel=1e-12, abs=0)
    assert avg_psi(E2, cfg, 1.0) == pytest.approx(7.196283958498745e-07, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "alpha_c, code_e",
    [(0.46, REFERENCE.code_e), (0.49, REFERENCE.code_e), (0.45, CodeSpec(m=2, bits=1))],
    ids=["0.46", "0.49", "m2-0.45"],
)
@pytest.mark.parametrize("kind", [CE, E1], ids=["ce", "e1"])
def test_avg_psi_with_the_ceiling_inside_the_knee_window(kind, alpha_c, code_e):
    # the SIC ceiling alpha_e/alpha_c (1.17 and 1.04) lies inside the knee
    # window [0.78, 1.22] of the rate-1 code: the CDF jumps to 1 there, and
    # the average keeps that mass, as adaptive quadrature of the CDF shows.
    # The m = 2 code's window [-0.47, 1.30] holds its ceiling 1.22 and starts
    # below SINR 0, where the CDF is 0, so the integral starts at 0
    cfg = make_config(alpha_c=alpha_c, code_e=code_e)
    code = cfg.code_e
    ceiling = kind.ceiling(cfg)
    assert code.v < ceiling < code.u
    integral, _ = quad(
        lambda w: sinr_cdf(w, kind, cfg), max(code.v, 0.0), code.u, points=[ceiling], limit=200
    )
    reference = code.delta * math.sqrt(code.m) * integral
    assert avg_psi(kind, cfg, 1.0) == pytest.approx(reference, abs=1e-3)


@pytest.mark.parametrize("alpha_c", [0.1, 0.45])
def test_avg_psi_outside_the_ceiling_case_is_the_cdf_at_threshold(alpha_c):
    # the ceiling lies above u (9.0 and 1.22 against 1.217), so every step,
    # doubled or not, keeps the midpoint reduction bit for bit
    cfg = make_config(alpha_c=alpha_c)
    for kind, gain in _STEPS:
        assert avg_psi(kind, cfg, gain) == sinr_cdf(kind.code(cfg).beta / gain, kind, cfg)


# ----------------------------------------------------------- user-level BLER

def test_avg_bler_cu_is_max_of_steps():
    cfg = make_config()
    e_cc = avg_psi(CC, cfg, 1.0)
    e_ce = avg_psi(CE, cfg, 1.0)
    assert avg_blers(cfg)[0] == max(e_cc, e_ce)
    # at the reference point the own-data step dominates
    assert avg_blers(cfg)[0] == e_cc


def test_user_level_frozen_reference_values():
    cfg = make_config()
    assert avg_blers(cfg)[0] == pytest.approx(8.838205212099954e-3, rel=1e-12, abs=0)
    assert avg_blers(cfg)[1] == pytest.approx(1.2813164993120728e-15, rel=1e-12, abs=0)
    assert avg_blers(cfg)[2] == pytest.approx(3.01858443934426e-19, rel=1e-12, abs=0)


def test_numpy_integer_element_count_gives_the_reference_averages():
    # the config stores a numpy integer as an int
    cfg = make_config(R=np.int64(8))
    assert type(cfg.R) is int
    assert avg_blers(cfg) == avg_blers(make_config())


def test_sc_algebra_bounds():
    cfg = make_config()
    e_ce = avg_psi(CE, cfg, 1.0)
    p_e1 = avg_psi(E1, cfg, 1.0)
    sc = avg_blers(cfg)[1]
    # sc = p_e1 * (e_ce + (1 - e_ce) p_e2) <= p_e1, and >= e_ce * p_e1
    assert e_ce * p_e1 <= sc <= p_e1


def test_sc_reduces_to_relay_free_term_at_huge_relay_snr():
    # when the relayed phase never fails, only the direct phase remains
    cfg = make_config(rho_c=1e15)
    e_ce = avg_psi(CE, cfg, 1.0)
    p_e1 = avg_psi(E1, cfg, 1.0)
    p_e2 = avg_psi(E2, cfg, 1.0)
    assert p_e2 < 1e-10
    assert abs(avg_blers(cfg)[1] - e_ce * p_e1) <= p_e2


def test_combining_collapses_when_first_step_always_fails():
    # e_ce = 1 wipes out the combining branch entirely: both schemes equal
    # the direct-phase average, exactly
    cfg = make_config(alpha_c=0.49, code_e=CodeSpec(m=100, bits=200))
    p_e1 = avg_psi(E1, cfg, 1.0)
    assert avg_blers(cfg)[1] == p_e1
    assert avg_blers(cfg)[2] == p_e1


@pytest.mark.parametrize("rho_s", [1.0, 10.0, 316.0])
@pytest.mark.parametrize("R", [1, 4, 8])
def test_mrc_bound_never_exceeds_sc(rho_s, R):
    # the doubled-SINR averages are CDFs at beta/2 <= CDFs at beta, so the
    # MRC bound is dominated by the SC expression configuration-wide
    cfg = make_config(rho_s=rho_s, rho_c=rho_s / 10.0, R=R)
    assert avg_blers(cfg)[2] <= avg_blers(cfg)[1]


def test_bler_outputs_are_probabilities():
    for rho_db in (-10.0, 0.0, 20.0):
        cfg = make_config(rho_s=10.0 ** (rho_db / 10.0), rho_c=10.0 ** (rho_db / 10.0) / 10.0)
        for val in avg_blers(cfg):
            assert 0.0 <= val <= 1.0


# ------------------------------------------------------------ diversity order

def test_diversity_order_frozen_values():
    assert diversity_order(8, "cu") == pytest.approx(6.439783039674089, rel=1e-14, abs=0)
    assert diversity_order(8, "ceu_sc") == pytest.approx(6.439783039674089, rel=1e-14, abs=0)
    assert diversity_order(8, "ceu_mrc") == pytest.approx(41.47080559807405, rel=1e-14, abs=0)
    assert diversity_order(2, "ceu_sc") == pytest.approx(1.6099457599185223, rel=1e-14, abs=0)


def test_diversity_order_mrc_squares_sc():
    for R in range(1, 9):
        sc = diversity_order(R, "ceu_sc")
        assert diversity_order(R, "cu") == sc
        assert diversity_order(R, "ceu_mrc") == sc * sc
    with pytest.raises(ValueError):
        diversity_order(0, "cu")
    with pytest.raises(ValueError):
        diversity_order(4, "egc")


def test_high_snr_slope_tracks_diversity_order():
    # measured log-log slope of the central-user average between 60 and
    # 80 dB for R = 2 must sit within 10% of the predicted asymptotic order
    lo = make_config(R=2, rho_s=1e6, rho_c=1e5)
    hi = make_config(R=2, rho_s=1e8, rho_c=1e7)
    slope = (math.log10(avg_blers(lo)[0]) - math.log10(avg_blers(hi)[0])) / 2.0
    predicted = diversity_order(2, "cu")
    assert slope == pytest.approx(1.607092288098312, rel=1e-9, abs=0)
    assert abs(slope - predicted) <= 0.1 * predicted


# ------------------------------------------------- relay-link variance choice

def test_relay_direct_variance_default_matches_simulation_better():
    """The relay step's direct-link variance is ambiguous between two
    readings (the dedicated CU->CEU variance versus the BS->CEU one); the
    default must be the one the simulation supports.  At 0 dB the relayed
    step has enough error mass to separate them cleanly."""
    cfg = make_config(rho_s=1.0, rho_c=0.1)
    mc = run_trials(cfg, 200_000, 101)["e2"]
    default = avg_psi(E2, cfg, 1.0)
    # only the relay step reads lambda_ce, so this is the BS->CEU reading
    alternative = avg_psi(E2, replace(cfg, lambda_ce=cfg.lambda_e), 1.0)
    assert abs(default - mc.mean) < abs(alternative - mc.mean)
    # frozen adjudication levels: default within ~6 stderr, alternative ~3x farther
    assert abs(default - mc.mean) < 2.5e-3
    assert abs(alternative - mc.mean) > 3.5e-3


# ------------------------------------------------------------ model domain

@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"scenario": ScenarioKind.SINGLE_ZONE_RANDOM}, "single_zone_random at R=8"),
        ({"R": 0}, "two_zone_aligned at R=0"),
        ({"eta_c": 0.0}, "two_zone_aligned at R=8, eta_c=0, eta_e=1"),
        # lambda_g * lambda_r underflows, so the fit's scale b is 0
        ({"lambda_gc": 1e-300, "lambda_rc": 1e-300}, "two_zone_aligned at R=8, eta_c=1, eta_e=1"),
    ],
    ids=["single_zone_random", "R_0", "eta_c_0", "lambda_underflow"],
)
def test_closed_forms_refuse_configs_they_do_not_model(overrides, where):
    # a baseline once got the aligned model's numbers from avg_blers; now
    # every closed-form number refuses it with the reason compare prints
    cfg = make_config(**overrides)
    reason = unmodeled(cfg)
    assert reason.startswith(f"no closed form for scenario {where}")
    with pytest.raises(ValueError) as exc:
        avg_psi(E1, cfg, 1.0)
    assert str(exc.value) == reason
    with pytest.raises(ValueError) as exc:
        avg_blers(cfg)
    assert str(exc.value) == reason
    assert unmodeled(make_config()) is None


def test_avg_blers_is_one_when_the_sinr_scale_underflows():
    # at the least subnormal rho_s the cc SINR scale rounds to 0, and the
    # ce and e1 thresholds overflow: every step but e2 always fails
    assert avg_blers(make_config(rho_s=5e-324, rho_c=1.0)) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("eta", ["eta_c", "eta_e"])
def test_subnormal_eta_gives_finite_closed_forms(eta):
    # a subnormal eta once overflowed sqrt(t)/eta in the gain CDF's
    # quadrature to a NaN, printed as BLER 0 and later refused; the rule
    # now stops at the gamma tail, so the averages are finite, silently
    cfg = make_config(**{eta: 1e-320})
    assert unmodeled(cfg) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = avg_blers(cfg)
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in got)


def _log_uniform(lo: float, hi: float):
    # floats spread evenly in log10, kept inside [lo, hi] against rounding
    exponents = st.floats(min_value=math.log10(lo), max_value=math.log10(hi))
    return exponents.map(lambda e: min(max(10.0**e, lo), hi))


_SNRS = st.one_of(_log_uniform(1e-320, 1e308), st.floats(min_value=1e300, max_value=1.7e308))
_LAMBDA_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.name.startswith("lambda_"))
_ETAS = st.sampled_from([0.0, 1e-320, 1e-200, 1e-6, 1e-3, 0.05, 0.5, 1.0])


@st.composite
def _accepted_configs(draw):
    # the ranges tests/test_montecarlo.py simulates, out to every edge
    # SystemConfig accepts, with eta from 0 through subnormal to 1
    return make_config(
        rho_s=draw(_SNRS),
        rho_c=draw(_SNRS),
        alpha_c=draw(st.floats(min_value=1e-6, max_value=0.4999)),
        eta_c=draw(_ETAS),
        eta_e=draw(_ETAS),
        R=draw(st.sampled_from([0, 1, 8, 1024])),
        scenario=draw(st.sampled_from(list(ScenarioKind))),
        **{name: draw(_log_uniform(1e-300, 1e100)) for name in _LAMBDA_FIELDS},
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cfg=_accepted_configs())
@example(cfg=make_config(eta_c=1e-320))
@example(cfg=make_config(lambda_gc=1e-300, lambda_rc=1e-300))
def test_every_accepted_config_has_closed_forms_or_a_reason(cfg):
    # unmodeled is the closed forms' one domain rule: a config it passes
    # gets every average in [0, 1], with no error and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if unmodeled(cfg) is not None:
            return
        values = avg_blers(cfg) + tuple(avg_psi(kind, cfg, gain) for kind, gain in _STEPS)
    assert all(0.0 <= v <= 1.0 for v in values)


# ------------------------------------------------------------------ orderings

_RISE = 1e-12  # relative rounding a value may gain where it must not rise
_DB = st.floats(min_value=-10.0, max_value=40.0)
_MEANS = _log_uniform(1e-3, 1e3)
_AMPLITUDES = _log_uniform(1e-8, 1.0)


@st.composite
def _modeled_configs(draw):
    # configs the closed forms model, over the range the paper's figures span
    # and beyond: every link mean in [1e-3, 1e3] and eta down to 1e-8
    return make_config(
        rho_s=10.0 ** (draw(_DB) / 10.0),
        rho_c=10.0 ** (draw(_DB) / 10.0),
        alpha_c=draw(st.floats(min_value=0.01, max_value=0.49)),
        eta_c=draw(_AMPLITUDES),
        eta_e=draw(_AMPLITUDES),
        R=draw(st.integers(min_value=1, max_value=1024)),
        **{name: draw(_MEANS) for name in _LAMBDA_FIELDS},
    )


_AXES = {
    "rho_s": _DB.map(lambda db: 10.0 ** (db / 10.0)),
    "rho_c": _DB.map(lambda db: 10.0 ** (db / 10.0)),
    "eta_c": _AMPLITUDES,
    "eta_e": _AMPLITUDES,
    "R": st.integers(1, 1024),
    **dict.fromkeys(_LAMBDA_FIELDS, _MEANS),
}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cfg=_modeled_configs(), axis=st.sampled_from(sorted(_AXES)), data=st.data())
def test_closed_forms_keep_their_orderings(cfg, axis, data):
    # each link's gain CDF rises from 0 to 1; more SNR, more surface and
    # stronger links never raise a BLER; the MRC bound never exceeds SC
    t = np.concatenate(([0.0], np.geomspace(1e-8, 1e8, 161), [math.inf]))
    for link in links(cfg):
        cdf = effective_gain_cdf(t, link, cfg.R)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.all(cdf[1:] >= cdf[:-1] * (1.0 - _RISE)), (link, cdf)
    values = sorted(data.draw(st.lists(_AXES[axis], min_size=2, max_size=5), label=axis))
    blers = [avg_blers(replace(cfg, **{axis: v})) for v in values]
    for before, after in zip(blers, blers[1:]):
        assert all(b <= a * (1.0 + _RISE) for a, b in zip(before, after)), (values, blers)
    assert all(mrc <= sc * (1.0 + _RISE) for _, sc, mrc in blers), (values, blers)


# ------------------------------------------------------ bitwise closed forms

def _closed_form_configs() -> list[SystemConfig]:
    # every fig2..fig6 point the closed forms model, a grid that puts the SIC
    # ceiling of ce and e1 inside their knee window, short edge codes whose
    # doubled e1 ceiling (3.0 at alpha_c = 0.4, 2.44 at 0.45) lies inside
    # theirs, and a few element counts
    figs = [
        p.cfg
        for runs in cli.PRESETS.values()
        for axis, values, keys, _ in runs
        for p in cli.parse_config({**keys, "sweep": {"axis": axis, "values": list(values)}}).points
        if unmodeled(p.cfg) is None
    ]
    ceiling = [
        make_config(alpha_c=float(a), rho_s=10.0 ** (db / 10.0), rho_c=10.0 ** (db / 10.0 - 1.0))
        for a in np.linspace(0.45, 0.4999, 12)
        for db in (5, 10, 20)
    ]
    doubled = [
        make_config(
            code_e=code, alpha_c=a, rho_s=10.0 ** (db / 10.0), rho_c=10.0 ** (db / 10.0 - 1.0)
        )
        for code in (CodeSpec(1, 2), CodeSpec(2, 4), CodeSpec(4, 6))
        for a in (0.4, 0.45)
        for db in (0, 10, 20)
    ]
    return figs + ceiling + doubled + [make_config(R=R) for R in (1, 2, 4, 32, 256)]


def _closed_form_digest() -> str:
    """sha256 over float.hex of avg_blers and the six step averages, config by config.

    The CSVs print %.10e, which cannot see a change in the last bits of a
    closed form; this digest can.
    """
    h = hashlib.sha256()
    for i, cfg in enumerate(_closed_form_configs()):
        vals = (*avg_blers(cfg), *(avg_psi(kind, cfg, gain) for kind, gain in _STEPS))
        h.update(f"{i} {' '.join(float(v).hex() for v in vals)}\n".encode())
    return h.hexdigest()


def _log_exp_path() -> str:
    """The SIMD paths numpy takes for float64 log and exp in this process."""
    from numpy.lib.introspect import opt_func_info  # numpy >= 2.0

    return ", ".join(
        f"{f} {opt_func_info(func_name=f'^{f}$', signature='float64')[f]['dd']['current']}"
        for f in ("log", "exp")
    )


# The correction sum's log and exp round some last bits differently on each
# of numpy's SIMD paths, so the pin is keyed by the paths this process takes.
# A change meant to keep the closed forms' float operations keeps these.
_CLOSED_FORM_DIGESTS = {
    "log X86_V4, exp X86_V4": "103d28f27d95900d69b82e87a1a54c7a9f7dd5191ba8be3a6c76d4aedaa42ed4",
    "log X86_V3, exp X86_V3": "62ea628d0358e018641fb439f6b51181fefb189e2e5b4c67e6e0ad93a95297de",
    "log baseline(X86_V2), exp baseline(X86_V2)": (
        "62ea628d0358e018641fb439f6b51181fefb189e2e5b4c67e6e0ad93a95297de"
    ),
}


def test_closed_forms_are_bitwise_frozen():
    path = _log_exp_path()
    digest = _closed_form_digest()
    assert path in _CLOSED_FORM_DIGESTS, f"no closed-form pin for numpy's paths {path}: got {digest}"
    assert digest == _CLOSED_FORM_DIGESTS[path], f"{path}: got {digest}"


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
def test_closed_forms_match_the_pins_of_the_slower_simd_paths(disabled):
    # each slower path's pin, checked in a child with numpy's faster dispatch
    # off, so every pin is checked on an AVX-512 host; where a path is
    # already the one this process takes, this repeats the test above
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_analytic as t; "
        "print(t._log_exp_path() + '|' + t._closed_form_digest())"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    child = subprocess.run(
        [sys.executable, "-c", script, os.path.dirname(os.path.abspath(__file__))],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    path, digest = child.stdout.strip().split("|")
    assert path in _CLOSED_FORM_DIGESTS, f"no closed-form pin for numpy's paths {path}: got {digest}"
    assert digest == _CLOSED_FORM_DIGESTS[path], f"{path}: got {digest}"

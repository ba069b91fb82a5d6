"""Tests for the closed-form CDFs and averaged error rates.

Frozen values were produced by this library at the reference configuration
and cross-checked against quadrature of the defining integrals; structural
identities (midpoint reduction, saturation, doubling) are tested exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from risnoma.analytic import (
    avg_blers,
    avg_psi,
    chebyshev_rule,
    diversity_order,
    effective_gain_cdf,
    sinr_cdf,
    unmodeled,
)
from risnoma.channel import (
    CC, CE, E1, E2, REFERENCE, ScenarioKind, SinrKind, SystemConfig, gamma_fit,
)
from risnoma.fbl import CodeSpec, linearization_params
from risnoma.montecarlo import run_trials


def make_config(**overrides) -> SystemConfig:
    return replace(REFERENCE, **overrides)


FIT8 = gamma_fit(8, 0.8, 1.0)


# ---------------------------------------------------------------- quadrature

def test_chebyshev_rule_basic_structure():
    rule = chebyshev_rule(50)
    nodes, weights = rule
    assert len(nodes) == 50 and len(weights) == 50
    assert all(-1.0 < x < 1.0 for x in nodes)
    assert all(w > 0.0 for w in weights)
    with pytest.raises(ValueError):
        chebyshev_rule(0)
    # one cached rule is shared by every caller, so its arrays are read-only
    assert chebyshev_rule(50) is rule
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_chebyshev_rule_semicircle_exactness():
    # The rule integrates sqrt(1-x^2) exactly (pi/2) for every order >= 2;
    # order 1 is the documented exception (single node at 0, weight pi,
    # giving pi instead of pi/2).
    for order in (2, 3, 5, 17, 50):
        total = math.fsum(w * math.sqrt(1.0 - x * x) for x, w in zip(*chebyshev_rule(order)))
        assert total == pytest.approx(math.pi / 2.0, abs=5e-15)
    total = math.fsum(w * math.sqrt(1.0 - x * x) for x, w in zip(*chebyshev_rule(1)))
    assert total == pytest.approx(math.pi, abs=5e-15)


def test_chebyshev_rule_weight_sum_order_100():
    # sum of weights = integral of 1/sqrt(1-x^2) sampled by the rule;
    # frozen value documents the rule normalization at high order
    _, weights = chebyshev_rule(100)
    assert math.fsum(weights) == pytest.approx(2.0000822490709864, rel=1e-14)


def test_chebyshev_rule_exact_for_polynomials_times_semicircle():
    # the weights carry the sqrt(1-x^2) factor, so the rule is exact for
    # integrands of the form p(x) * sqrt(1-x^2) with p a low-degree
    # polynomial; int x^2 sqrt(1-x^2) dx over [-1,1] = pi/8
    for order in (3, 8, 50):
        total = math.fsum(
            w * (x * x) * math.sqrt(1.0 - x * x) for x, w in zip(*chebyshev_rule(order))
        )
        assert total == pytest.approx(math.pi / 8.0, abs=5e-15)


# --------------------------------------------------------- effective_gain_cdf

def test_gain_cdf_edges_and_validation():
    assert effective_gain_cdf(0.0, 1.0, FIT8, 1.0, 50) == 0.0
    assert effective_gain_cdf(1e6, 1.0, FIT8, 1.0, 50) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        effective_gain_cdf(-1.0, 1.0, FIT8, 1.0, 50)
    with pytest.raises(ValueError):
        effective_gain_cdf(1.0, 0.0, FIT8, 1.0, 50)
    with pytest.raises(ValueError):
        effective_gain_cdf(1.0, 1.0, FIT8, 0.0, 50)


def test_gain_cdf_monotone_and_bounded():
    grid = np.geomspace(1e-3, 500.0, 200)
    vals = [effective_gain_cdf(float(t), 1.0, FIT8, 1.0, 50) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gain_cdf_deep_tail_is_finite_and_positive():
    # the correction terms are combined in the log domain, so far-left
    # thresholds keep full relative accuracy instead of underflowing
    for t, frozen in (
        (1e-12, 2.8432003719955727e-83),
        (1e-6, 1.234761654142073e-44),
        (1e-3, 2.4137996900192514e-25),
    ):
        val = effective_gain_cdf(t, 1.0, FIT8, 1.0, 50)
        assert math.isfinite(val) and val > 0.0
        assert val == pytest.approx(frozen, rel=1e-12)


def test_gain_cdf_frozen_median_point():
    # median of 10^6 seeded draws of T = p + q^2 at the reference channel
    # (R=8, lambda_g=0.8, lambda_r=1, lambda_direct=1); the closed form
    # evaluated there must sit near one half.  The frozen value doubles as
    # a regression anchor for the quadrature path.
    median_t = 30.98393048665198
    val = effective_gain_cdf(median_t, 1.0, FIT8, 1.0, 50)
    assert val == pytest.approx(0.5131088323460321, rel=1e-12)
    assert 0.45 < val < 0.55


@pytest.fixture(scope="module")
def quad_order_ladder():
    # worst absolute CDF change when the correction order is quadrupled,
    # over a broad threshold grid
    grid = list(np.linspace(0.5, 80.0, 40)) + [30.98393048665198]
    worst = 0.0
    for t in grid:
        lo = effective_gain_cdf(float(t), 1.0, FIT8, 1.0, 50)
        hi = effective_gain_cdf(float(t), 1.0, FIT8, 1.0, 200)
        worst = max(worst, abs(hi - lo))
    return worst


def test_gain_cdf_order_50_is_converged_to_5e5(quad_order_ladder):
    # achieved convergence level of the default order-50 rule
    assert quad_order_ladder <= 6e-5


@pytest.mark.xfail(
    strict=True,
    reason="order-50 endpoint convergence plateaus near 5e-5 (the node "
    "transform clusters error at zeta -> 0, decaying only as order^-2); "
    "the 1e-6 target would need order ~350",
)
def test_gain_cdf_order_50_meets_1e6_target(quad_order_ladder):
    assert quad_order_ladder <= 1e-6


# ------------------------------------------------------------------ sinr_cdf

def test_sinr_cdf_zero_threshold_is_zero():
    cfg = make_config()
    for kind in (CC, CE, E1, E2):
        assert sinr_cdf(0.0, kind, cfg) == 0.0
    with pytest.raises(ValueError):
        sinr_cdf(-0.5, CC, cfg)


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


def test_sinr_cdf_doubled_halves_threshold_first():
    # CDF of 2*gamma at omega is the plain CDF at omega/2 -- the halving
    # happens before the SINR-to-gain threshold map, not after
    cfg = make_config()
    for tag in ("e1", "e2"):
        plain = SinrKind(tag)
        doubled = SinrKind(tag, doubled=True)
        for omega in (0.3, 1.0, 2.5):
            assert sinr_cdf(omega, doubled, cfg) == sinr_cdf(omega / 2.0, plain, cfg)


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

def test_avg_psi_is_cdf_at_threshold():
    # the average of the linear surrogate collapses to one CDF evaluation
    # at the code threshold (slope times ramp width is exactly one)
    cfg = make_config()
    for kind, code in ((CC, cfg.code_c), (CE, cfg.code_e), (E2, cfg.code_e)):
        beta = linearization_params(code).beta
        assert avg_psi(kind, cfg) == sinr_cdf(beta, kind, cfg)


def test_avg_psi_frozen_reference_values():
    cfg = make_config()
    assert avg_psi(CC, cfg) == pytest.approx(0.00883534880260821, rel=1e-12)
    assert avg_psi(CE, cfg) == pytest.approx(3.939500607907397e-12, rel=1e-12)
    assert avg_psi(E1, cfg) == pytest.approx(1.7799043625452978e-09, rel=1e-12)
    assert avg_psi(E2, cfg) == pytest.approx(7.191806899568875e-07, rel=1e-12)


def test_avg_psi_saturated_step_is_exactly_one():
    # with beta at 3 and near-even power split the ce step's SINR can never
    # reach its threshold, so its average error probability is exactly 1
    cfg = make_config(alpha_c=0.49, code_e=CodeSpec(m=100, bits=200))
    assert cfg.alpha_e / cfg.alpha_c < linearization_params(cfg.code_e).beta
    assert avg_psi(CE, cfg) == 1.0


def test_avg_psi_agrees_with_quadrature_of_the_cdf():
    # independent check of the midpoint reduction: delta*sqrt(m) times the
    # integral of the SINR CDF over the ramp, via adaptive quadrature
    cfg = make_config()
    for kind, code in ((CC, cfg.code_c), (E2, cfg.code_e)):
        lin = linearization_params(code)
        integral, _ = quad(lambda w: sinr_cdf(w, kind, cfg), lin.v, lin.u, limit=200)
        reference = lin.delta * math.sqrt(code.m) * integral
        assert avg_psi(kind, cfg) == pytest.approx(reference, abs=1e-3)


@pytest.mark.parametrize("alpha_c", [0.46, 0.49])
@pytest.mark.parametrize("kind", [CE, E1], ids=["ce", "e1"])
def test_avg_psi_with_the_ceiling_inside_the_knee_window(kind, alpha_c):
    # the SIC ceiling alpha_e/alpha_c (1.17 and 1.04) lies inside the knee
    # window [0.78, 1.22] of the rate-1 code: the CDF jumps to 1 there, and
    # the average keeps that mass, as adaptive quadrature of the CDF shows
    cfg = make_config(alpha_c=alpha_c)
    lin = linearization_params(cfg.code_e)
    ceiling = kind.ceiling(cfg)
    assert lin.v < ceiling < lin.u
    integral, _ = quad(
        lambda w: sinr_cdf(w, kind, cfg), lin.v, lin.u, points=[ceiling], limit=200
    )
    reference = lin.delta * math.sqrt(cfg.code_e.m) * integral
    assert avg_psi(kind, cfg) == pytest.approx(reference, abs=1e-3)


@pytest.mark.parametrize("alpha_c", [0.1, 0.45])
def test_avg_psi_outside_the_ceiling_case_is_the_cdf_at_threshold(alpha_c):
    # the ceiling lies above u (9.0 and 1.22 against 1.217), so every step,
    # doubled or not, keeps the midpoint reduction bit for bit
    cfg = make_config(alpha_c=alpha_c)
    kinds = (CC, CE, E1, E2, SinrKind("e1", doubled=True), SinrKind("e2", doubled=True))
    for kind in kinds:
        code = kind.code(cfg)
        beta = linearization_params(code).beta
        assert avg_psi(kind, cfg) == sinr_cdf(beta, kind, cfg)


# ----------------------------------------------------------- user-level BLER

def test_avg_bler_cu_is_max_of_steps():
    cfg = make_config()
    e_cc = avg_psi(CC, cfg)
    e_ce = avg_psi(CE, cfg)
    assert avg_blers(cfg)[0] == max(e_cc, e_ce)
    # at the reference point the own-data step dominates
    assert avg_blers(cfg)[0] == e_cc


def test_user_level_frozen_reference_values():
    cfg = make_config()
    assert avg_blers(cfg)[0] == pytest.approx(0.00883534880260821, rel=1e-12)
    assert avg_blers(cfg)[1] == pytest.approx(1.2800798594418767e-15, rel=1e-12)
    assert avg_blers(cfg)[2] == pytest.approx(3.015418298334436e-19, rel=1e-12)


def test_numpy_integer_element_count_gives_the_reference_averages():
    # the config stores a numpy integer as an int
    cfg = make_config(R=np.int64(8))
    assert type(cfg.R) is int
    assert avg_blers(cfg) == avg_blers(make_config())


def test_sc_algebra_bounds():
    cfg = make_config()
    e_ce = avg_psi(CE, cfg)
    p_e1 = avg_psi(E1, cfg)
    sc = avg_blers(cfg)[1]
    # sc = p_e1 * (e_ce + (1 - e_ce) p_e2) <= p_e1, and >= e_ce * p_e1
    assert e_ce * p_e1 <= sc <= p_e1


def test_sc_reduces_to_relay_free_term_at_huge_relay_snr():
    # when the relayed phase never fails, only the direct phase remains
    cfg = make_config(rho_c=1e15)
    e_ce = avg_psi(CE, cfg)
    p_e1 = avg_psi(E1, cfg)
    p_e2 = avg_psi(E2, cfg)
    assert p_e2 < 1e-10
    assert abs(avg_blers(cfg)[1] - e_ce * p_e1) <= p_e2


def test_combining_collapses_when_first_step_always_fails():
    # e_ce = 1 wipes out the combining branch entirely: both schemes equal
    # the direct-phase average, exactly
    cfg = make_config(alpha_c=0.49, code_e=CodeSpec(m=100, bits=200))
    p_e1 = avg_psi(E1, cfg)
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
    assert diversity_order(8, "cu") == pytest.approx(6.439783039674089, rel=1e-14)
    assert diversity_order(8, "ceu_sc") == pytest.approx(6.439783039674089, rel=1e-14)
    assert diversity_order(8, "ceu_mrc") == pytest.approx(41.47080559807405, rel=1e-14)
    assert diversity_order(2, "ceu_sc") == pytest.approx(1.6099457599185223, rel=1e-14)


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
    assert slope == pytest.approx(1.6070924711444872, rel=1e-9)
    assert abs(slope - predicted) <= 0.1 * predicted


# ------------------------------------------------- relay-link variance choice

def test_relay_direct_variance_default_matches_simulation_better():
    """The relay step's direct-link variance is ambiguous between two
    readings (the dedicated CU->CEU variance versus the BS->CEU one); the
    default must be the one the simulation supports.  At 0 dB the relayed
    step has enough error mass to separate them cleanly."""
    cfg = make_config(rho_s=1.0, rho_c=0.1)
    mc = run_trials(cfg, 200_000, 101)["e2"]
    default = avg_psi(E2, cfg)
    # only the relay step reads lambda_ce, so this is the BS->CEU reading
    alternative = avg_psi(E2, replace(cfg, lambda_ce=cfg.lambda_e))
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
    ],
    ids=["single_zone_random", "R_0", "eta_c_0"],
)
def test_closed_forms_refuse_configs_they_do_not_model(overrides, where):
    # a baseline once got the aligned model's numbers from avg_blers; now
    # every closed-form number refuses it with the reason compare prints
    cfg = make_config(**overrides)
    reason = unmodeled(cfg)
    assert reason.startswith(f"no closed form for scenario {where}")
    with pytest.raises(ValueError) as exc:
        avg_psi(E1, cfg)
    assert str(exc.value) == reason
    with pytest.raises(ValueError) as exc:
        avg_blers(cfg)
    assert str(exc.value) == reason
    assert unmodeled(make_config()) is None


def test_avg_blers_is_one_when_the_sinr_scale_underflows():
    # at the least subnormal rho_s the cc SINR scale rounds to 0, and the
    # ce and e1 thresholds overflow: every step but e2 always fails
    assert avg_blers(make_config(rho_s=5e-324, rho_c=1.0)) == (1.0, 1.0, 1.0)

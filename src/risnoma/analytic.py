"""Closed-form CDFs and average block error rates.

Everything here is deterministic math on top of the gamma fit: the CDF of a
direct-plus-reflected gain (exponential plus squared-gamma), the SINR CDFs
it induces for each decoding step, and the averaged BLERs.  Averages of the
piecewise-linear BLER surrogate reduce, via the first-order midpoint rule,
to a single CDF evaluation at the threshold beta -- the slope times the knee
width is exactly one -- so nearly every "average" below is one CDF call.
The exception is a SIC step whose SINR ceiling lies inside the knee window,
where the CDF is integrated up to the ceiling instead.

Provides:
    QUAD_ORDER         -- the Gauss-Chebyshev order sinr_cdf uses
    chebyshev_rule     -- the cached Gauss-Chebyshev (nodes, weights) of an order
    unmodeled          -- why the closed forms do not model a config, or None
    effective_gain_cdf -- CDF of T/Z/W at a point
    sinr_cdf           -- CDF of the step's SINR (threshold-mapped)
    avg_psi            -- average linearized BLER of one decoding step
    avg_blers          -- all three user-level averages from six step averages
    diversity_order    -- asymptotic log-log BLER slopes
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.chebyshev import chebgauss
from scipy.special import gammainc, gammaln

from .channel import CC, CE, E1, E2, GammaFit, ScenarioKind, SinrKind, SystemConfig
from .channel import gamma_fit, links
from .fbl import linearization_params

QUAD_ORDER = 50

__all__ = [
    "QUAD_ORDER",
    "chebyshev_rule",
    "unmodeled",
    "effective_gain_cdf",
    "sinr_cdf",
    "avg_psi",
    "avg_blers",
    "diversity_order",
]


@functools.cache
def chebyshev_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Chebyshev rule of the first kind of order U on (-1, 1), as (nodes, weights).

    nodes[u] = cos((2u-1)pi/(2U)) for u = 1..U (strictly decreasing) and
    weights[u] = (pi/U)*sqrt(1 - nodes[u]^2): the sqrt(1-x^2) weight
    function is folded into the weights, so sum(weights * f(nodes))
    approximates the plain integral of f over (-1, 1).  The arrays are
    read-only because every caller shares the cached rule.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nodes, weights = chebgauss(order)
    weights *= np.sqrt(1.0 - nodes * nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def unmodeled(cfg: SystemConfig) -> str | None:
    """Why the closed forms do not model cfg (the reason states their domain), or None."""
    aligned = cfg.scenario is ScenarioKind.TWO_ZONE_ALIGNED
    if aligned and cfg.R >= 1 and min(cfg.eta_c, cfg.eta_e) > 0.0:
        return None
    return (
        f"no closed form for scenario {cfg.scenario.value} at R={cfg.R}, "
        f"eta_c={cfg.eta_c:g}, eta_e={cfg.eta_e:g}; it needs "
        f"{ScenarioKind.TWO_ZONE_ALIGNED.value}, R >= 1 and eta_c, eta_e > 0"
    )


def effective_gain_cdf(
    t: float,
    direct_var: float,
    fit: GammaFit,
    eta: float,
    quad_order: int,
) -> float:
    """CDF at t of gain = p + (eta*q)^2, p ~ Exp(direct_var), q ~ fit.

    Evaluates the regularized-incomplete-gamma head minus a Gauss-Chebyshev
    correction sum over transformed nodes zeta_u = (sqrt(t)/(2 eta))(xi_u+1).
    Each correction term is a product of factors that can over- or
    underflow on their own, so its logarithm is summed first and
    exponentiated once; the combined exponent is <= 0 by construction, and
    deep-tail evaluations stay finite and positive.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if direct_var <= 0.0:
        raise ValueError("direct_var must be positive")
    if eta <= 0.0:
        raise ValueError("eta must be positive for the analytic CDF")
    if t == 0.0:
        return 0.0

    sqrt_t = math.sqrt(t)
    shape = fit.kappa + 1.0
    head = gammainc(shape, sqrt_t / (eta * fit.b))

    front = sqrt_t / (2.0 * eta)
    nodes, weights = chebyshev_rule(quad_order)
    zeta = front * (nodes + 1.0)
    log_terms = (
        np.log(weights)
        + math.log(front)
        + fit.kappa * (np.log(zeta) - math.log(fit.b))
        - gammaln(shape)
        + (eta * eta * zeta * zeta - t) / direct_var
        - zeta / fit.b
    )
    corr = np.sum(np.exp(log_terms))
    return min(1.0, max(0.0, float(head - corr)))


def sinr_cdf(omega: float, kind: SinrKind, cfg: SystemConfig) -> float:
    """CDF of the decoding step's SINR at threshold omega.

    Maps omega through the step's inverse SINR map to a threshold on its
    link's gain and delegates to effective_gain_cdf; at or above the step's
    ceiling the SINR never reaches omega and the CDF is 1.  omega = 0 maps
    to gain 0 (CDF 0), or to inf if the SINR scale underflows to 0.  A
    config the closed forms do not model is refused with unmodeled's reason.
    """
    if why := unmodeled(cfg):
        raise ValueError(why)
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    t = kind.gain_threshold(omega, cfg)
    if t == math.inf:
        return 1.0
    link = links(cfg)[kind.link]
    fit = gamma_fit(cfg.R, link.lam_g, link.lam_r)
    return effective_gain_cdf(t, link.lam_d, fit, link.eta, QUAD_ORDER)


def avg_psi(kind: SinrKind, cfg: SystemConfig) -> float:
    """Average linearized BLER of one decoding step, under the step's code.

    The average of the linear surrogate over the fading is delta*sqrt(m)
    times the integral of the SINR CDF F from v to u.  The midpoint
    (first-order Riemann) reduction replaces it by F(beta): since
    delta*sqrt(m)*(u - v) = 1 with beta the midpoint, that is one CDF call.
    A SIC step's CDF jumps to 1 at its ceiling c; when c lies inside
    (v, u) the midpoint loses that mass, so the average is then
    delta*sqrt(m)*(integral of F over [v, c] + (u - c)), the integral from
    the Gauss-Chebyshev rule of order QUAD_ORDER.
    """
    code = kind.code(cfg)
    lin = linearization_params(code)
    ceiling = kind.ceiling(cfg)
    if not lin.v < ceiling < lin.u:
        return sinr_cdf(lin.beta, kind, cfg)
    half = (ceiling - lin.v) / 2.0
    below = half * sum(
        w * sinr_cdf(lin.v + half * (x + 1.0), kind, cfg)
        for x, w in zip(*chebyshev_rule(QUAD_ORDER))
    )
    return min(1.0, lin.delta * math.sqrt(code.m) * (below + lin.u - ceiling))


def avg_blers(cfg: SystemConfig) -> tuple[float, float, float]:
    """The user-level average BLERs (cu, ceu_sc, ceu_mrc), each clamped to [0, 1].

    The six step averages they need (cc, ce, e1, e2, doubled e1 and e2) are
    each computed once.  cu: SIC at the CU fails if either the edge user's
    message or its own fails to decode; the max of the two step averages is
    the standard analytic stand-in for that union.  ceu_sc: the edge user
    under selective combining.  ceu_mrc: the edge user under MRC, the
    paper's analytic lower bound from psi(g1 + g2) >= psi(2 g1) psi(2 g2):
    the combined-phase term factors into doubled-SINR averages, each of
    which is the plain CDF at beta/2.  The paper derives it as a lower bound
    under the gamma fit of the cascade, but against the exact average of
    the simulated metric it holds at R = 8 only at low SNR: closed/true is
    0.29 at 0 dB but 1.02, 9.2 and 154 at 5, 10 and 15 dB.  The main cause
    is not the fit's tail but a factor 1/b that effective_gain_cdf leaves
    out of the gamma density, which makes the closed-form gain CDF too large.
    """
    e_cc, e_ce, p_e1, p_e2, p_e1_d, p_e2_d = (
        avg_psi(kind, cfg)
        for kind in (CC, CE, E1, E2, SinrKind("e1", doubled=True), SinrKind("e2", doubled=True))
    )
    cu = max(e_cc, e_ce)
    sc = e_ce * p_e1 + (1.0 - e_ce) * p_e1 * p_e2
    mrc = e_ce * p_e1 + (1.0 - e_ce) * p_e1_d * p_e2_d
    return tuple(min(1.0, max(0.0, val)) for val in (cu, sc, mrc))


def diversity_order(R: int, scheme: str) -> float:
    """The paper's claimed asymptotic slope of log BLER versus log SNR.

    With kappa the fitted shape parameter for R elements the paper claims
    (kappa+1)/2 for the central user and the SC edge user, and its square
    for MRC.  These are claims, not the slopes of the closed forms above:
    there SC and MRC share one slope, twice the central user's.  Variance
    factors cancel in kappa, so only R enters.
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    kappa = gamma_fit(R, 1.0, 1.0).kappa
    half = (kappa + 1.0) / 2.0
    if scheme in ("cu", "ceu_sc"):
        return half
    if scheme == "ceu_mrc":
        return half * half
    raise ValueError(f"unknown scheme {scheme!r}")

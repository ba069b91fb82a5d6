"""Closed-form CDFs and average block error rates.

Everything here is deterministic math on top of one approximation, the
gamma fit: with aligned phases each cascaded link collapses to q = sum over
elements of |g|*|h|, a sum of products of independent Rayleigh magnitudes,
whose law is approximated by a gamma law via moment matching.  On it rest
the CDF of a direct-plus-reflected gain (exponential plus squared-gamma),
the SINR CDFs it induces for each decoding step, and the averaged BLERs.
Averages of the piecewise-linear BLER surrogate reduce, via the first-order
midpoint rule, to a single CDF evaluation at the threshold beta -- the slope
times the knee width is exactly one -- so nearly every "average" below is
one CDF call.
The exception is a SIC step whose SINR ceiling lies inside the knee window,
where the CDF is integrated up to the ceiling instead.  The two CDFs take a
float or an array of thresholds, with each entry's bits those of a call on
it alone, so that integral too is one call, on the rule's nodes: every
point costs six CDF calls, one per step average.

Provides:
    gamma_fit          -- returns (kappa, b), the moment-matched gamma fit of the
                          cascaded sum q over R elements: shape kappa+1, scale b
    unmodeled          -- why the closed forms do not model a config, or None
    effective_gain_cdf -- CDF of one link's gain (T, Z or W) under the gamma fit of
                          its R-element cascade, at each of an array of points
    sinr_cdf           -- CDF of the step's SINR at each of an array of thresholds
    avg_psi            -- average linearized BLER of one decoding step at gain times
                          its SINR
    avg_blers          -- all three user-level averages from six step averages
    diversity_order    -- asymptotic log-log BLER slopes
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebgauss
from scipy.special import gammainc, gammaln

from .channel import (
    CC, CE, E1, E2, Link, ScenarioKind, SinrKind, SystemConfig, _as_float, _as_instance, _as_int,
    _as_thresholds, _echo, links,
)

__all__ = [
    "gamma_fit",
    "unmodeled",
    "effective_gain_cdf",
    "sinr_cdf",
    "avg_psi",
    "avg_blers",
    "diversity_order",
]


def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The one quadrature rule on (-1, 1), as read-only (nodes, weights).

    nodes[u] = cos((2u-1)pi/100) for u = 1..50, the order-50 Chebyshev
    points, strictly decreasing.  weights are Fejer's first-rule weights on
    them (Waldvogel, BIT 46, 2006): sum(weights * f(nodes)) integrates any
    polynomial of degree < 50 exactly and a smooth f to spectral accuracy,
    whatever f is at the ends.
    """
    nodes, _ = chebgauss(50)
    j = np.arange(1, nodes.size // 2 + 1)
    terms = np.cos(2 * j * np.arccos(nodes)[:, None]) / (4 * j * j - 1)
    weights = (1 - 2 * terms.sum(axis=1)) * 2 / nodes.size
    for arr in (nodes, weights):
        arr.flags.writeable = False
    return nodes, weights


_NODES, _FEJER_WEIGHTS = _rule()
_PI_SQ = math.pi * math.pi


def gamma_fit(R: int, lambda_g: float, lambda_r: float) -> tuple[float, float]:
    """Returns (kappa, b), the moment-matched gamma fit of the cascaded sum
    q = sum_{r=1..R} |g_r||h_r|: shape kappa+1, scale b.

    Each |g||h| product of independent Rayleigh magnitudes has mean
    (pi/4)sqrt(lambda_g lambda_r) and variance (1 - pi^2/16)lambda_g lambda_r;
    matching the first two moments of the R-term sum gives

        kappa = ((R+1)pi^2 - 16)/(16 - pi^2)
        b     = (4/pi - pi/4) sqrt(lambda_g lambda_r)

    so that (kappa+1)b and (kappa+1)b^2 reproduce the exact mean and
    variance.  Undefined for R = 0 (no cascade to fit): callers branch.
    R is read as an integer and the variances as finite floats, each
    refused by name with ValueError otherwise, as is a product
    lambda_g * lambda_r that overflows b.  One that underflows gives b = 0,
    which unmodeled names.
    """
    R = _as_int("R", R)
    lambda_g, lambda_r = _as_float("lambda_g", lambda_g), _as_float("lambda_r", lambda_r)
    if R < 1:
        raise ValueError(f"gamma fit requires R >= 1, got R={R}")
    if lambda_g <= 0.0 or lambda_r <= 0.0:
        raise ValueError("per-hop variances must be positive")
    kappa = ((R + 1) * _PI_SQ - 16.0) / (16.0 - _PI_SQ)
    b = (4.0 / math.pi - math.pi / 4.0) * math.sqrt(lambda_g * lambda_r)
    if not math.isfinite(b):
        raise ValueError("lambda_g * lambda_r overflows the fit's scale b")
    return kappa, b


def unmodeled(cfg: SystemConfig) -> str | None:
    """Why the closed forms do not model cfg (the reason states their domain), or None.

    They need the aligned scenario, R >= 1 and eta * b > 0 on every link,
    with b the scale of the link's gamma fit.  effective_gain_cdf refuses
    by the same rule and is finite wherever it holds, so this is the closed
    forms' one domain rule.  eta = 0 breaks it, and so does a b of 0, where
    lambda_g * lambda_r underflows.  A cfg that is not a SystemConfig is
    refused by name with ValueError.
    """
    _as_instance("cfg", cfg, SystemConfig)
    aligned = cfg.scenario is ScenarioKind.TWO_ZONE_ALIGNED
    if aligned and cfg.R >= 1 and all(
        link.eta * gamma_fit(cfg.R, link.lam_g, link.lam_r)[1] > 0.0 for link in links(cfg)
    ):
        return None
    return (
        f"no closed form for scenario {cfg.scenario.value} at R={cfg.R}, "
        f"eta_c={cfg.eta_c:g}, eta_e={cfg.eta_e:g}; it needs "
        f"{ScenarioKind.TWO_ZONE_ALIGNED.value}, R >= 1 and eta * b > 0 on every "
        "link, with b the scale of its gamma fit"
    )


def effective_gain_cdf(t, link: Link, R: int):
    """CDF at each threshold t (float or array) of the link's gain
    p + (eta*q)^2, p ~ Exp(lam_d) and q ~ gamma_fit(R, lam_g, lam_r), the
    fit of its R-element cascade; an array of t's shape, or a float.

    Evaluates the regularized-incomplete-gamma head minus a correction
    integral over [0, H], with H = min(sqrt(t)/eta, q_cap) and q_cap =
    b(s + 12 sqrt(s) + 40), s = kappa+1: the gamma law puts under 1e-23 of
    its mass past q_cap, so a tiny eta or a huge t never stretches the rule
    past where the density lives.  The integral has three panels, with
    edges 0, b*s (the gamma mean), b(s + 12 sqrt(s)) and H, each clipped
    to H, and each mapped from (-1, 1) as zeta = lo + ((hi - lo)/2)(xi + 1)
    onto the one rule.  One panel stretched to q_cap left the bulk so few
    nodes that its error outgrew the CDF's rise, and the CDF fell with t at
    small eta.  The edge at the mean splits the bulk where the integrand
    peaks: without it the CDF still fell with t on some links at R = 16..32.
    An empty panel is skipped.  Each correction term is a product of
    factors that can over- or underflow on their own, so its logarithm is
    summed first and exponentiated once; the combined exponent is <= 0 by
    construction, and deep-tail evaluations stay finite and positive.  Each
    entry's bits are those of a call on it alone.  At t = 0 the logarithms
    are -inf and the CDF 0; at t = inf the head is 1 and every correction
    term 0.

    Every argument is read before anything is computed, and refused by
    name with ValueError: a t that is not real numbers (a bool, text or
    complex is refused, not converted), or a negative or NaN t; a link
    that is not a Link; a lam_d or eta that is not a finite real number;
    R, lambda_g and lambda_r as gamma_fit reads them; a lam_d <= 0; a
    negative eta; and eta * b <= 0 (unmodeled's rule).
    """
    t = _as_thresholds("t", t)
    _as_instance("link", link, Link)
    lam_d, eta = _as_float("lam_d", link.lam_d), _as_float("eta", link.eta)
    if lam_d <= 0.0:
        raise ValueError("lam_d must be positive")
    kappa, b = gamma_fit(R, link.lam_g, link.lam_r)
    shape = kappa + 1.0
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    if not eta * b > 0.0:
        raise ValueError("eta * b must be positive for the analytic CDF")

    bulk = shape + 12.0 * math.sqrt(shape)
    # log(0) at t = 0, and sqrt(t)/eta overflowing before the cap at a tiny
    # eta, are exact limits: -inf and a rule that ends at q_cap
    with np.errstate(divide="ignore", over="ignore"):
        head = gammainc(shape, np.sqrt(t) / (eta * b))
        reach = np.minimum(np.sqrt(t) / eta, b * (bulk + 40.0))[..., None]
        edges = (0.0, np.minimum(reach, b * shape), np.minimum(reach, b * bulk), reach)
        correction = 0.0
        for lo, hi in zip(edges, edges[1:]):
            if not np.any(hi > lo):
                continue
            front = (hi - lo) / 2.0
            zeta = lo + front * (_NODES + 1.0)
            log_terms = (
                np.log(_FEJER_WEIGHTS)
                + np.log(front)
                + kappa * (np.log(zeta) - math.log(b))
                - gammaln(shape)
                + np.minimum(eta * eta * zeta * zeta - t[..., None], 0.0) / lam_d
                - zeta / b
            )
            correction = correction + np.sum(np.exp(log_terms), axis=-1)
        return np.clip(head - correction, 0.0, 1.0)[()]


def sinr_cdf(omega, kind: SinrKind, cfg: SystemConfig):
    """CDF of the decoding step's SINR at each threshold omega (float or array).

    Maps omega through the step's inverse SINR map to thresholds on its
    link's gain and makes one effective_gain_cdf call on them all; at or
    above the step's ceiling the SINR never reaches omega, the gain
    threshold is inf and the CDF 1.  omega = 0 maps to gain 0 (CDF 0), or
    to inf if the SINR scale underflows to 0.  A config the closed forms do
    not model is refused with unmodeled's reason, and an omega that is not
    real numbers, or is negative or NaN, or a kind that is not a SinrKind,
    with ValueError.
    """
    if why := unmodeled(cfg):
        raise ValueError(why)
    omega = _as_thresholds("omega", omega)
    _as_instance("kind", kind, SinrKind)
    return effective_gain_cdf(kind.gain_threshold(omega, cfg), links(cfg)[kind.link], cfg.R)


def avg_psi(kind: SinrKind, cfg: SystemConfig, gain: float) -> float:
    """Average linearized BLER of one decoding step at gain times its SINR,
    under the step's code.

    The surrogate's threshold beta, slope delta and knees v, u are fields
    of the step's CodeSpec, derived once when the code is built.  The
    average of the linear surrogate over the fading is delta*sqrt(m)
    times the integral of the SINR CDF F from v to u.  The midpoint
    (first-order Riemann) reduction replaces it by F(beta): since
    delta*sqrt(m)*(u - v) = 1 with beta the midpoint, that is one CDF call.
    A SIC step's CDF jumps to 1 at its ceiling c; when c lies inside
    (v, u) the midpoint loses that mass, so the average is then
    delta*sqrt(m)*(integral of F over [max(v, 0), c] + (u - c)), the
    integral from the order-50 rule: one CDF call on its nodes.  F is 0
    below 0, where a short code's knee v can lie.

    gain is 1.0 for the step itself and 2.0 for the MRC bound's 2*SINR: the
    ceiling is multiplied by gain and the CDF read at w / gain, both exact
    for those two.  A kind that is not a SinrKind, a cfg that is not a
    SystemConfig and a gain that is not a finite real number > 0 are
    refused by name with ValueError.
    """
    _as_instance("kind", kind, SinrKind)
    _as_instance("cfg", cfg, SystemConfig)
    gain = _as_float("gain", gain)
    if not gain > 0.0:
        raise ValueError(f"gain must be positive, got {_echo(gain)}")
    code = kind.code(cfg)
    ceiling = gain * kind.ceiling(cfg)
    if not code.v < ceiling < code.u:
        return float(sinr_cdf(code.beta / gain, kind, cfg))
    lo = max(code.v, 0.0)
    half = (ceiling - lo) / 2.0
    cdf = sinr_cdf((lo + half * (_NODES + 1.0)) / gain, kind, cfg)
    # summed left to right, node by node: a dot product rounds differently
    below = half * float(np.cumsum(_FEJER_WEIGHTS * cdf)[-1])
    return min(1.0, code.delta * math.sqrt(code.m) * (below + code.u - ceiling))


def avg_blers(cfg: SystemConfig) -> tuple[float, float, float]:
    """The user-level average BLERs (cu, ceu_sc, ceu_mrc), each clamped to [0, 1].

    The six step averages they need (cc, ce, e1 and e2, and e1 and e2 at
    twice their SINR) are each computed once.  cu: SIC at the CU fails if
    either the edge user's message or its own fails to decode; the max of
    the two step averages is the standard analytic stand-in for that union.
    ceu_sc: the edge user under selective combining.  ceu_mrc: the edge
    user under MRC, the paper's analytic lower bound from psi(g1 + g2) >=
    psi(2 g1) psi(2 g2): the combined-phase term factors into averages of
    2*SINR, avg_psi at gain 2.0.  The paper derives it as a lower bound
    under the gamma fit of the cascade, but against the exact average of
    the simulated metric it holds at R = 8 only at low SNR: closed/true is
    0.29 at 0 dB but 1.02, 9.2 and 154 at 5, 10 and 15 dB.  The main cause
    is not the fit's tail but a factor 1/b that effective_gain_cdf leaves
    out of the gamma density, which makes the closed-form gain CDF too large.
    """
    e_cc, e_ce, p_e1, p_e2, p_e1_d, p_e2_d = (
        avg_psi(kind, cfg, gain)
        for kind, gain in ((CC, 1.0), (CE, 1.0), (E1, 1.0), (E2, 1.0), (E1, 2.0), (E2, 2.0))
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
    factors cancel in kappa, so only R enters; gamma_fit reads R, and
    refuses any value but an integer >= 1.
    """
    kappa, _ = gamma_fit(R, 1.0, 1.0)
    half = (kappa + 1.0) / 2.0
    if scheme in ("cu", "ceu_sc"):
        return half
    if scheme == "ceu_mrc":
        return half * half
    raise ValueError(f"unknown scheme {scheme!r}")

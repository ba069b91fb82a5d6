"""Fading models for all links and the cascaded-gain gamma fit.

The surface is split into two zones of R elements, one phase-aligned to the
central user and one to the edge user.  With aligned phases each cascaded
link collapses to q = sum over elements of |g|*|h|, a sum of products of
independent Rayleigh magnitudes; its distribution is approximated by a
gamma distribution via moment matching.  The single-zone baseline with
uniform random phases needs no fit: the phases leave each circularly
symmetric g_r unchanged in law, so given the h_r a link power is exponential
with mean lambda_d + eta^2 lambda_g sum_r |h_r|^2, and that sum is gamma.

Provides:
    ScenarioKind               -- aligned two-zone or single-zone random phases
    SystemConfig               -- one point: physical parameters (linear SNRs), scenario
    REFERENCE                  -- the paper's reference system; the CLI fills
                                  every omitted config key from it
    GammaFit                   -- (kappa, b) gamma approximation of q
    gamma_fit                  -- moment-matched (kappa, b) for R elements
    Link                       -- mean powers and surface gain of one link
    links                      -- the T, Z and W links of a config
    SinrKind, CC, CE, E1, E2   -- the decoding steps: link, code, SINR map, ceiling
    _sample_aligned_batch      -- n aligned-phase draws of the gains T, Z, W
                                  per element count, element by element, so
                                  one draw serves every smaller R as a prefix
    _sample_random_phase_batch -- n single-zone draws of T, Z, W, each from
                                  its exact law (gamma-mixed exponential)
"""
from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .fbl import CodeSpec, _as_float, _as_int, _as_thresholds, _echo

__all__ = [
    "ScenarioKind",
    "SystemConfig",
    "REFERENCE",
    "GammaFit",
    "gamma_fit",
    "Link",
    "links",
    "SinrKind",
    "CC",
    "CE",
    "E1",
    "E2",
]

_PI_SQ = math.pi * math.pi
_MAX_R = 1024


class ScenarioKind(Enum):
    """Two aligned zones of R elements, or one random-phase zone of 2R; no surface is R = 0."""

    TWO_ZONE_ALIGNED = "two_zone_aligned"
    SINGLE_ZONE_RANDOM = "single_zone_random"


def _as_scenario(name: str, val) -> ScenarioKind:
    """val as a ScenarioKind if it is one or is one's tag; else ValueError."""
    try:
        return ScenarioKind(val)
    except ValueError:
        tags = ", ".join(k.value for k in ScenarioKind)
        raise ValueError(f"{name} must be one of {tags}, got {_echo(val)}") from None


def _as_code(name: str, val) -> CodeSpec:
    """val if it is a CodeSpec; else ValueError."""
    if not isinstance(val, CodeSpec):
        raise ValueError(f"{name} must be a CodeSpec, got {_echo(val)}")
    return val


# the reader of each SystemConfig field type: it returns the value as that
# type, or refuses it with ValueError (the CLI reads its config keys with them)
_READERS = {"int": _as_int, "float": _as_float, "ScenarioKind": _as_scenario, "CodeSpec": _as_code}


@dataclass(frozen=True)
class SystemConfig:
    """One point: physical parameters of the two-user link, and scenario.

    SNRs are linear power ratios (transmit power over noise power); the CLI
    converts from dB exactly once at load.  The central user takes the
    smaller power share alpha_c and the edge user the rest, alpha_e = 1 -
    alpha_c (a property, not a field).  lambda_* and eta_* are the mean
    channel power gains and surface amplitudes of the three links, grouped
    per link by `links`.  Every field is read by its type's reader in
    _READERS, so a scenario tag is stored as its ScenarioKind, and a code
    that is not a CodeSpec is refused.
    """

    rho_s: float
    rho_c: float
    alpha_c: float
    code_c: CodeSpec
    code_e: CodeSpec
    R: int
    eta_c: float = 1.0
    eta_e: float = 1.0
    lambda_c: float = 1.0
    lambda_e: float = 0.3
    lambda_ce: float = 1.0
    lambda_rc: float = 1.0
    lambda_gc: float = 0.8
    lambda_re: float = 1.0
    lambda_ge: float = 0.3
    lambda_rce: float = 1.0
    lambda_gce: float = 0.8
    scenario: ScenarioKind = ScenarioKind.TWO_ZONE_ALIGNED

    def __post_init__(self) -> None:
        # NaN compares false, so each number is checked finite before its range
        for f in fields(self):
            val = _READERS[f.type](f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, val)
            # eta = 0, a surface that reflects nothing, is simulated; the
            # closed forms do not model it (analytic.unmodeled)
            if f.name.startswith("eta_") and not (0.0 <= val <= 1.0):
                raise ValueError(f"{f.name} must lie in [0, 1], got {val}")
            # 1e100 keeps every drawn gain finite (at most about 2e209), so
            # eta = 0 never multiplies an inf; gains first overflow near 1e149
            elif f.name.startswith("lambda_") and not (0.0 < val <= 1e100):
                raise ValueError(f"{f.name} must lie in (0, 1e100], got {val}")
        if self.rho_s <= 0.0 or self.rho_c <= 0.0:
            raise ValueError("transmit SNRs must be positive")
        if not (0.0 < self.alpha_c < self.alpha_e):
            raise ValueError(
                f"need 0 < alpha_c < alpha_e, got alpha_c={self.alpha_c}, "
                f"alpha_e={self.alpha_e}"
            )
        # the bound caps the aligned sampler's element loop (a 4096-trial
        # chunk at R = 1024 takes about 0.2 s) and the gains a chunk holds:
        # one (T, Z, W) per distinct R of an aligned group, 96 KiB each at
        # 4096 trials, so about 96 MiB if a sweep takes all 1025 values
        if not 0 <= self.R <= _MAX_R:
            raise ValueError(f"element count R must be in [0, {_MAX_R}], got {_echo(self.R)}")

    @property
    def alpha_e(self) -> float:
        """The edge user's power share, the complement of alpha_c."""
        return 1.0 - self.alpha_c


# The paper's reference system: 10 dB transmit SNR, the relay phase 10 dB
# below it, alpha_c = 0.1, 300- and 100-bit packets in m = 100 channel uses
# (the CLI's one m key sets both codes, so they share it), and R = 8 elements
# per zone, with every other field at its default.
REFERENCE = SystemConfig(
    rho_s=10.0, rho_c=1.0, alpha_c=0.1,
    code_c=CodeSpec(m=100, bits=300), code_e=CodeSpec(m=100, bits=100), R=8,
)


@dataclass(frozen=True)
class GammaFit:
    """Gamma approximation of the cascaded sum q: shape kappa+1, scale b."""

    kappa: float
    b: float


def gamma_fit(R: int, lambda_g: float, lambda_r: float) -> GammaFit:
    """Moment-matched gamma parameters for q = sum_{r=1..R} |g_r||h_r|.

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
    return GammaFit(kappa=kappa, b=b)


class Link(NamedTuple):
    """One link: a direct Rayleigh path of mean power lam_d plus an R-element
    cascade of per-hop mean powers lam_g, lam_r, scaled by surface amplitude eta."""

    lam_d: float
    lam_g: float
    lam_r: float
    eta: float


def links(cfg: SystemConfig) -> tuple[Link, Link, Link]:
    """The BS->CU, BS->CEU and CU->CEU links, whose gains are T, Z and W."""
    return (
        Link(cfg.lambda_c, cfg.lambda_gc, cfg.lambda_rc, cfg.eta_c),
        Link(cfg.lambda_e, cfg.lambda_ge, cfg.lambda_re, cfg.eta_e),
        Link(cfg.lambda_ce, cfg.lambda_gce, cfg.lambda_rce, cfg.eta_e),
    )


@dataclass(frozen=True)
class SinrKind:
    """One decoding step: its link, its code and its gain-to-SINR map both ways.

    tag: "cc" (CU decodes its own data after SIC), "ce" (CU decodes the
    edge user's data), "e1" (CEU decodes the direct phase), "e2" (CEU
    decodes the relayed phase).  doubled=True denotes 2*SINR, used by the
    MRC bound: its ceiling is twice the plain one, and its gain threshold
    at w is the plain threshold at w/2.
    """

    tag: str
    doubled: bool = False

    def __post_init__(self) -> None:
        if self.tag not in ("cc", "ce", "e1", "e2"):
            raise ValueError(f"unknown SINR kind {self.tag!r}")

    @property
    def link(self) -> int:
        """Index into links(cfg) of the gain X under this step's SINR."""
        return {"cc": 0, "ce": 0, "e1": 1, "e2": 2}[self.tag]

    def code(self, cfg: SystemConfig) -> CodeSpec:
        return cfg.code_c if self.tag == "cc" else cfg.code_e

    def ceiling(self, cfg: SystemConfig) -> float:
        """The SINR's least upper bound: ce and e1 decode under the CU's share."""
        ceiling = cfg.alpha_e / cfg.alpha_c if self.tag in ("ce", "e1") else math.inf
        return 2.0 * ceiling if self.doubled else ceiling

    def sinr(self, gain, cfg: SystemConfig):
        """SINR at gain X (float or array): alpha_c rho_s X (cc), rho_c X
        (e2), alpha_e rho_s X / (alpha_c rho_s X + 1) (ce, e1), and twice
        that for a doubled step.  A SIC ratio is capped at its ceiling, its
        limit, also where overflow makes it NaN."""
        if self.doubled:
            return 2.0 * SinrKind(self.tag).sinr(gain, cfg)
        if self.tag in ("cc", "e2"):
            return (cfg.alpha_c * cfg.rho_s if self.tag == "cc" else cfg.rho_c) * gain
        ratio = cfg.alpha_e * cfg.rho_s * gain / (cfg.alpha_c * cfg.rho_s * gain + 1.0)
        return np.fmin(ratio, self.ceiling(cfg))

    def gain_threshold(self, w, cfg: SystemConfig):
        """The gain X whose SINR is w >= 0 (float or array), or inf where no
        gain reaches w; an array of w's shape, or a float.  A w that is not
        real numbers, or is negative or NaN, is refused with ValueError."""
        w = _as_thresholds("w", w)
        if self.doubled:
            return SinrKind(self.tag).gain_threshold(w / 2.0, cfg)
        # no gain reaches w where the room is 0: where alpha_c * rho_s
        # underflows to 0 (0 * inf is then NaN, masked here), at and above
        # the ceiling, and where the rounded SIC room reaches 0 a few ulps
        # below it; a room of a few subnormals overflows the threshold to inf
        with np.errstate(over="ignore", invalid="ignore"):
            if self.tag in ("cc", "e2"):
                room = cfg.alpha_c * cfg.rho_s if self.tag == "cc" else cfg.rho_c
            else:
                room = np.where(
                    w < self.ceiling(cfg), cfg.alpha_e * cfg.rho_s - cfg.alpha_c * cfg.rho_s * w, 0.0
                )
            return np.divide(w, room, out=np.full_like(w, math.inf), where=room > 0.0)[()]


CC, CE, E1, E2 = (SinrKind(tag) for tag in ("cc", "ce", "e1", "e2"))


def _sample_aligned_batch(
    cfg: SystemConfig, rng: np.random.Generator, n: int, counts: Collection[int]
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """n draws of the gains (T, Z, W) with the surface phases aligned per zone.

    Each gain is p + (eta*q)^2: the direct power p is exponential with mean
    lam_d, and the cascaded sum q adds R independent |g||h| products, each
    sqrt(lam_g lam_r) times sqrt(e_g e_h) for unit exponentials e_g, e_h.
    Draw order is fixed: the three direct powers, then element by element,
    for r = 0..R-1, the (e_g, e_h) pair of each link T, Z, W.  So the draws
    of element r never depend on R, and the running sums after k elements
    are what a draw at R = k would give, bit for bit.  At R = 0 the direct
    powers come from untouched draws, which is what makes no surface
    bit-compatible with eta = 0.

    Returns a dict from each element count in counts (each in [0, R], which
    the caller ensures) to its (T, Z, W), all from this one draw.  The element
    loop holds no (n, R) buffer, but the dict keeps one (T, Z, W), 24n
    bytes, per count: memory grows with the number of distinct counts.
    """
    powers = tuple(rng.exponential(link.lam_d, size=n) for link in links(cfg))
    scales = [link.eta * math.sqrt(link.lam_g * link.lam_r) for link in links(cfg)]
    sums = np.zeros((3, n))
    pairs = np.empty((3, 2, n))  # one (e_g, e_h) pair per link
    prods = np.empty((3, n))
    by_count = {0: powers} if 0 in counts else {}
    for k in range(1, cfg.R + 1):
        rng.standard_exponential(out=pairs)
        np.multiply(pairs[:, 0], pairs[:, 1], out=prods)
        np.sqrt(prods, out=prods)
        sums += prods
        if k in counts:
            by_count[k] = tuple(p + (scale * s) ** 2 for p, scale, s in zip(powers, scales, sums))
    return by_count


def _sample_random_phase_batch(
    cfg: SystemConfig, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n draws of the gains (T, Z, W) of the single-zone baseline: one
    surface of N = 2R elements, uniform random phases.

    Each link's field is h + eta * sum_r g_r e^{j phi_r} h_r over the N
    elements, all channels circularly symmetric complex Gaussian.  Since
    g_r e^{j phi_r} has the law of g_r, the phases change nothing; given
    the h_r the field is CN(0, lam_d + eta^2 lam_g S) with S = sum_r
    |h_r|^2 ~ Gamma(N, scale lam_r).  So each link power is drawn exactly
    as Exp(1) * (lam_d + eta^2 lam_g S).  Draw order per link, links in the
    order T, Z, W: the gamma S (zeros, from no draws, when R = 0), then the
    unit exponential.
    """
    gains = []
    for lam_d, lam_g, lam_r, eta in links(cfg):
        mean = lam_d + eta * eta * lam_g * rng.gamma(2 * cfg.R, lam_r, size=n)
        gains.append(rng.exponential(1.0, size=n) * mean)
    return tuple(gains)

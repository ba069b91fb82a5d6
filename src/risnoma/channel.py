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
    SystemConfig               -- full physical configuration (linear SNRs)
    GammaFit                   -- (kappa, b) gamma approximation of q
    gamma_fit                  -- moment-matched (kappa, b) for R elements
    fading_key                 -- the config fields a sampled batch depends on
    _sample_aligned_batch      -- n aligned-phase draws of all nine channels
    _sample_random_phase_batch -- n single-zone draws, each link power from its
                                  exact law (gamma-mixed exponential)
    effective_gain             -- combined direct + reflected gains T / Z / W
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fbl import CodeSpec

__all__ = [
    "SystemConfig",
    "GammaFit",
    "gamma_fit",
    "fading_key",
    "effective_gain",
]

_PI_SQ = math.pi * math.pi


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters of the two-user cooperative link.

    SNRs are linear power ratios (transmit power over noise power); the CLI
    converts from dB exactly once at load.  alpha_c + alpha_e = 1 with the
    central user taking the smaller share.  lambda_* are mean channel power
    gains: lambda_c / lambda_e / lambda_ce for the direct links (BS->CU,
    BS->CEU, CU->CEU) and per-hop pairs (lambda_g*, lambda_r*) for the
    cascaded surface links of each zone.
    """

    rho_s: float
    rho_c: float
    alpha_c: float
    alpha_e: float
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
    quad_order: int = 50

    def __post_init__(self) -> None:
        # every check below compares, and NaN compares false, so reject
        # non-finite values before anything else
        for f in fields(self):
            val = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite, got {val}")
        if self.rho_s <= 0.0 or self.rho_c <= 0.0:
            raise ValueError("transmit SNRs must be positive")
        if abs(self.alpha_c + self.alpha_e - 1.0) > 1e-9:
            raise ValueError(
                f"power allocation must satisfy alpha_c + alpha_e = 1, "
                f"got {self.alpha_c} + {self.alpha_e}"
            )
        if not (0.0 < self.alpha_c < self.alpha_e):
            raise ValueError(
                f"need 0 < alpha_c < alpha_e, got alpha_c={self.alpha_c}, "
                f"alpha_e={self.alpha_e}"
            )
        if self.R < 0:
            raise ValueError(f"element count R must be >= 0, got {self.R}")
        for name in ("eta_c", "eta_e"):
            val = getattr(self, name)
            # eta = 0 is allowed as an explicit "no surface" in simulation
            if not (0.0 <= val <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        for name in (
            "lambda_c", "lambda_e", "lambda_ce",
            "lambda_rc", "lambda_gc", "lambda_re",
            "lambda_ge", "lambda_rce", "lambda_gce",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.quad_order < 1:
            raise ValueError(f"quad_order must be >= 1, got {self.quad_order}")


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
    """
    if R < 1:
        raise ValueError(f"gamma fit requires R >= 1, got R={R}")
    if lambda_g <= 0.0 or lambda_r <= 0.0:
        raise ValueError("per-hop variances must be positive")
    kappa = ((R + 1) * _PI_SQ - 16.0) / (16.0 - _PI_SQ)
    b = (4.0 / math.pi - math.pi / 4.0) * math.sqrt(lambda_g * lambda_r)
    return GammaFit(kappa=kappa, b=b)


# Every SystemConfig field that the two samplers and effective_gain read.
# The random-phase sampler also takes 2R as its element count.
_FADING_FIELDS = (
    "R", "eta_c", "eta_e",
    "lambda_c", "lambda_e", "lambda_ce",
    "lambda_rc", "lambda_gc", "lambda_re",
    "lambda_ge", "lambda_rce", "lambda_gce",
)


def fading_key(cfg: SystemConfig) -> tuple:
    """The config fields that a sampled batch and its effective gains depend on.

    Two configs with equal keys draw bitwise the same batch from the same
    generator state and get the same (T, Z, W), so one draw serves both.
    SNRs, the power split, the codes and quad_order are not part of it.
    """
    return tuple(getattr(cfg, name) for name in _FADING_FIELDS)


def _rayleigh_magnitudes_into(
    rng: np.random.Generator, mean_power: float, out: np.ndarray
) -> None:
    # |h| with E|h|^2 = mean_power, i.e. sqrt of an exponential draw.
    # exponential(scale) is scale * standard_exponential(), so filling a
    # reused buffer in place gives the same bits with no fresh temporary.
    rng.standard_exponential(out=out)
    out *= mean_power
    np.sqrt(out, out=out)


def _sample_aligned_batch(
    cfg: SystemConfig,
    rng: np.random.Generator,
    n: int,
    with_cascade: bool,
) -> dict[str, np.ndarray]:
    """n draws of all links with the surface phases aligned per zone.

    Direct powers p_* are exponential with their lambda means; each cascaded
    sum q_* adds R independent |g||h| products.  Draw order is fixed (p_c,
    p_e, p_ce, then the three cascades hop by hop); skipping the cascade
    (with_cascade=False) leaves the direct draws untouched, which is what
    makes the no-surface scenario bit-compatible with eta = 0.
    """
    p_c = rng.exponential(cfg.lambda_c, size=n)
    p_e = rng.exponential(cfg.lambda_e, size=n)
    p_ce = rng.exponential(cfg.lambda_ce, size=n)
    zeros = np.zeros(n, dtype=np.float64)
    if not with_cascade or cfg.R == 0:
        return {"p_c": p_c, "p_e": p_e, "p_ce": p_ce,
                "q_c": zeros, "q_e": zeros, "q_ce": zeros.copy()}
    # two (n, R) buffers serve all three cascades, one per hop
    hop_g = np.empty((n, cfg.R))
    hop_r = np.empty((n, cfg.R))
    q = {}
    for name, lam_g, lam_r in (
        ("q_c", cfg.lambda_gc, cfg.lambda_rc),
        ("q_e", cfg.lambda_ge, cfg.lambda_re),
        ("q_ce", cfg.lambda_gce, cfg.lambda_rce),
    ):
        _rayleigh_magnitudes_into(rng, lam_g, hop_g)
        _rayleigh_magnitudes_into(rng, lam_r, hop_r)
        hop_g *= hop_r
        q[name] = np.sum(hop_g, axis=1)
    return {"p_c": p_c, "p_e": p_e, "p_ce": p_ce, **q}


def _sample_random_phase_batch(
    cfg: SystemConfig,
    rng: np.random.Generator,
    n: int,
    total_elements: int,
) -> dict[str, np.ndarray]:
    """n draws of the single-zone baseline: one surface, uniform random phases.

    Each link's field is h + eta * sum_r g_r e^{j phi_r} h_r over N =
    total_elements elements, all channels circularly symmetric complex
    Gaussian.  Since g_r e^{j phi_r} has the law of g_r, the phases change
    nothing; given the h_r the field is CN(0, lam_d + eta^2 lam_g S) with
    S = sum_r |h_r|^2 ~ Gamma(N, scale lam_r).  So each link power is drawn
    exactly as Exp(1) * (lam_d + eta^2 lam_g S).  Draw order per link, links
    in the order p_c, p_e, p_ce: the gamma S (skipped when N = 0), then the
    unit exponential.  The q_* arrays are zero because the aligned-cascade
    CDF machinery does not apply to this baseline.
    """
    links = (
        ("p_c", cfg.lambda_c, cfg.lambda_gc, cfg.lambda_rc, cfg.eta_c),
        ("p_e", cfg.lambda_e, cfg.lambda_ge, cfg.lambda_re, cfg.eta_e),
        ("p_ce", cfg.lambda_ce, cfg.lambda_gce, cfg.lambda_rce, cfg.eta_e),
    )
    out: dict[str, np.ndarray] = {}
    for name, lam_direct, lam_g, lam_r, eta in links:
        if total_elements > 0:
            s = rng.gamma(total_elements, lam_r, size=n)
            mean = lam_direct + eta * eta * lam_g * s
        else:
            mean = lam_direct
        out[name] = rng.exponential(1.0, size=n) * mean
    zeros = np.zeros(n, dtype=np.float64)
    out["q_c"] = zeros
    out["q_e"] = zeros.copy()
    out["q_ce"] = zeros.copy()
    return out


def effective_gain(
    batch: dict[str, np.ndarray], cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combined channel gains (T, Z, W) = direct power + (eta*q)^2 per trial.

    T is the BS->CU gain, Z the BS->CEU gain and W the CU->CEU relay gain,
    from the p_* / q_* arrays of one sampled batch.
    """
    return (
        batch["p_c"] + (cfg.eta_c * batch["q_c"]) ** 2,
        batch["p_e"] + (cfg.eta_e * batch["q_e"]) ** 2,
        batch["p_ce"] + (cfg.eta_e * batch["q_ce"]) ** 2,
    )

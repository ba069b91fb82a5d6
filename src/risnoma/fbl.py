"""Finite-blocklength coding math.

Instantaneous block error rate of a short packet at a given SINR, under the
normal approximation, plus the piecewise-linear surrogate whose averages
admit closed forms downstream.

Provides:
    CodeSpec             -- (blocklength m, payload bits) pair
    PsiLinearization     -- threshold/slope/knee parameters of the surrogate
    psi_exact_vec        -- Q((C(gamma) - rate)/sqrt(V(gamma)/m)) over an array
    linearization_params -- beta, delta, v, u for a CodeSpec
    psi_linear           -- the 1 / ramp / 0 surrogate
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc as _erfc_vec

__all__ = [
    "CodeSpec",
    "PsiLinearization",
    "psi_exact_vec",
    "linearization_params",
    "psi_linear",
]

# below this SINR the Q argument is far past -38 for any sane code; the
# dispersion also vanishes (m/V divides by zero), so return the limit value
_GAMMA_FLOOR = 1e-12
# |Q argument| beyond which Q(x) is sub-1e-300: clip to the exact limit
_ARG_CLIP = 38.0
_LOG2E_SQ = math.log2(math.e) ** 2
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CodeSpec:
    """A short-packet code: m channel uses carrying `bits` information bits."""

    m: int
    bits: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.m}")
        if self.bits < 1:
            raise ValueError(f"payload bits must be >= 1, got {self.bits}")

    @property
    def rate(self) -> float:
        """Code rate in bits per channel use."""
        return self.bits / self.m


@dataclass(frozen=True)
class PsiLinearization:
    """Parameters of the piecewise-linear BLER surrogate.

    beta is the SINR threshold where the surrogate crosses 1/2, delta the
    slope scale, and (v, u) the knees: 1 below v, 0 above u, affine between.
    They satisfy u - v = 1/(delta*sqrt(m)) with beta centered.
    """

    beta: float
    delta: float
    v: float
    u: float


def psi_exact_vec(gamma: np.ndarray, code: CodeSpec) -> np.ndarray:
    """Instantaneous BLER at each SINR under the normal approximation.

    Defined as 1 at gamma = 0 (zero capacity, zero dispersion limit).
    Strictly decreasing in gamma, exactly 0.5 where capacity equals rate.
    Raises ValueError on a negative or NaN SINR.
    """
    g = np.asarray(gamma, dtype=np.float64)
    lo = g.min(initial=np.inf)  # NaN if any entry is NaN
    if not lo >= 0.0:
        raise ValueError("SINR must be >= 0 and not NaN")
    # one pass over two buffers; every entry goes through the formula, and
    # those below the floor are set to their limit afterwards
    out = np.empty_like(g)
    buf = np.empty_like(g)
    with np.errstate(over="ignore", divide="ignore"):
        np.add(1.0, g, out=buf)
        np.log2(buf, out=out)
        np.multiply(buf, buf, out=buf)
        np.divide(1.0, buf, out=buf)
        np.subtract(1.0, buf, out=buf)
        np.multiply(_LOG2E_SQ, buf, out=buf)
        np.divide(code.m, buf, out=buf)
        np.sqrt(buf, out=buf)
        np.subtract(out, code.rate, out=out)
        np.multiply(out, buf, out=out)
        np.clip(out, -_ARG_CLIP, _ARG_CLIP, out=out)
        np.divide(out, _SQRT2, out=out)
        _erfc_vec(out, out=out)
        np.multiply(0.5, out, out=out)
    if lo < _GAMMA_FLOOR:
        out[g < _GAMMA_FLOOR] = 1.0
    return out


def linearization_params(code: CodeSpec) -> PsiLinearization:
    """Threshold, slope and knees of the linear surrogate for `code`."""
    rate = code.rate
    beta = 2.0**rate - 1.0
    delta = 1.0 / math.sqrt(2.0 * math.pi * (2.0 ** (2.0 * rate) - 1.0))
    half_width = 1.0 / (2.0 * delta * math.sqrt(code.m))
    return PsiLinearization(beta=beta, delta=delta, v=beta - half_width, u=beta + half_width)


def psi_linear(gamma: float, lin: PsiLinearization) -> float:
    """Piecewise-linear BLER surrogate: 1 below v, ramp, 0 above u.

    The ramp is 1/2 - delta*sqrt(m)*(gamma - beta); since u - v equals
    1/(delta*sqrt(m)), the slope is recovered from the knees alone.
    """
    if gamma <= lin.v:
        return 1.0
    if gamma >= lin.u:
        return 0.0
    return 0.5 - (gamma - lin.beta) / (lin.u - lin.v)

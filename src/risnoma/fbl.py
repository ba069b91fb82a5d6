"""Finite-blocklength coding math.

Instantaneous block error rate of a short packet at a given SINR, under the
normal approximation.  Each code carries the parameters of its
piecewise-linear surrogate, whose averages admit closed forms downstream.

Provides:
    CodeSpec      -- (blocklength m, payload bits) pair, with its surrogate's
                     threshold beta, slope delta and knees v, u
    psi_exact_vec -- Q((C(gamma) - rate)/sqrt(V(gamma)/m)) over an array,
                     through erfc with no clip of its argument
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np
from scipy.special import erfc as _erfc_vec

__all__ = ["CodeSpec", "psi_exact_vec"]

_LOG2E_SQ = math.log2(math.e) ** 2
_SQRT2 = math.sqrt(2.0)


def _echo(val) -> str:
    """A refused value as a message shows it: an integer past 15 digits by
    its leading digits and exponent, any other value by its repr cut to 24
    characters."""
    if isinstance(val, int) and abs(val) >= 10**15:
        return f"{Decimal(val):.3e}"
    shown = repr(val)
    return shown if len(shown) <= 24 else shown[:21] + "..."


def _as_int(name: str, val) -> int:
    """val as an int if operator.index takes it and it is not a bool; else ValueError."""
    if isinstance(val, bool) or not hasattr(type(val), "__index__"):
        raise ValueError(f"{name} must be an integer, got {_echo(val)}")
    return operator.index(val)


def _as_float(name: str, val) -> float:
    """val as a float if it is a finite real number and not a bool; else ValueError."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_echo(val)}")
    try:
        num = float(val)
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{name} must be finite, got {_echo(val)}") from None
    if not math.isfinite(num):
        raise ValueError(f"{name} must be finite, got {_echo(num)}")
    return num


def _as_thresholds(name: str, val) -> np.ndarray:
    """val as a float64 array if its dtype is an integer or float and every
    entry is >= 0 and not NaN; else ValueError.  A float64 array comes back
    as is, not copied.  Bools, text, complex numbers and objects (such as an
    integer past int64) are refused, not converted."""
    arr = np.asarray(val)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got {_echo(val)}")
    arr = arr.astype(np.float64, copy=False)
    if not arr.min(initial=np.inf) >= 0.0:  # NaN if any entry is NaN
        raise ValueError(f"{name} must be >= 0 and not NaN")
    return arr


@dataclass(frozen=True)
class CodeSpec:
    """A short-packet code: m channel uses carrying `bits` information bits,
    and the parameters of its piecewise-linear BLER surrogate.

    beta is the SINR threshold where the surrogate crosses 1/2, delta the
    slope scale, and (v, u) the knees: 1 below v, 0 above u, affine between.
    They satisfy u - v = 1/(delta*sqrt(m)) with beta centered.  The four are
    derived from (m, bits) once, when the code is built, and are not
    arguments: the repr, equality and hash are those of (m, bits).
    """

    m: int
    bits: int
    beta: float = field(init=False, repr=False, compare=False)
    delta: float = field(init=False, repr=False, compare=False)
    v: float = field(init=False, repr=False, compare=False)
    u: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("m", "bits"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.m < 1:
            raise ValueError(f"blocklength must be >= 1, got {_echo(self.m)}")
        if self.bits < 1:
            raise ValueError(f"payload bits must be >= 1, got {_echo(self.bits)}")
        try:
            rate = self.rate
            beta = 2.0**rate - 1.0
            delta = 1.0 / math.sqrt(2.0 * math.pi * (2.0 ** (2.0 * rate) - 1.0))
            half_width = 1.0 / (2.0 * delta * math.sqrt(self.m))
        except (OverflowError, ZeroDivisionError):
            beta = delta = half_width = math.nan  # refused below
        derived = {"beta": beta, "delta": delta, "v": beta - half_width, "u": beta + half_width}
        for name, val in derived.items():
            object.__setattr__(self, name, val)
        # every closed form needs the surrogate: a finite threshold and slope
        # above 0, and knees that float arithmetic keeps apart from beta
        finite = 0.0 < self.beta < math.inf and 0.0 < self.delta < math.inf
        if not (finite and self.v < self.beta < self.u):
            shown = f"{_echo(self.bits)}/{_echo(self.m)}"
            raise ValueError(f"code rate {shown} has no finite linearization")

    @property
    def rate(self) -> float:
        """Code rate in bits per channel use."""
        return self.bits / self.m


def psi_exact_vec(gamma: np.ndarray, code: CodeSpec) -> np.ndarray:
    """Instantaneous BLER at each SINR under the normal approximation.

    1 at gamma = 0, by the formula itself: the dispersion term m/V is inf
    there, the Q argument -inf and erfc(-inf) = 2.
    Strictly decreasing in gamma, exactly 0.5 where capacity equals rate.
    Elementwise over an array of any shape, with each entry's bits
    independent of its neighbours, so stacking the SINRs of several steps
    that share a code into one block and calling once gives the same bits
    as one call per step at a fraction of the fixed cost per call.
    The Q argument is not clipped: scipy's erfc(x) is exactly 0 for
    x >= 26.6417 and exactly 2 for x <= -5.8636, and maps +-inf to 0 and
    2, so an argument past either point already gives the exact limit.
    Raises ValueError on a SINR that is not real numbers, or is negative
    or NaN; a float64 array is read in place, not copied.
    """
    g = _as_thresholds("SINR", gamma)
    # one pass over two buffers; every entry goes through the formula
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
        np.divide(out, _SQRT2, out=out)
        _erfc_vec(out, out=out)
        np.multiply(0.5, out, out=out)
    return out


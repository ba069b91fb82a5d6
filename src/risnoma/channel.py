"""The system model both evaluation paths read: configs, codes, links and
decoding steps, and the rule that reads every input value.

The surface is split into two zones of R elements, one phase-aligned to the
central user and one to the edge user, or, in the single-zone baseline, is
one zone of 2R elements with uniform random phases.  Each of the three
links is a direct Rayleigh path plus an R-element cascade.  Each code
carries the parameters of its piecewise-linear BLER surrogate.  What each
path makes of that model lives with the path: the fading samplers and the
exact BLER psi in montecarlo, and the moment-matched gamma fit of the
aligned cascade and the surrogate's averages in analytic.  Every module
reads its inputs with the readers here (_as_int, _as_float,
_as_thresholds, _as_instance for a model object, and one per field type
in _READERS), so a refusal names its value the one way _echo shows it.

Provides:
    ScenarioKind               -- aligned two-zone or single-zone random phases
    CodeSpec                   -- (blocklength m, payload bits) pair, with its
                                  surrogate's threshold beta, slope delta and knees v, u
    SystemConfig               -- one point: physical parameters (linear SNRs), scenario
    REFERENCE                  -- the paper's reference system; the CLI fills
                                  every omitted config key from it
    Link                       -- mean powers and surface gain of one link
    links                      -- the T, Z and W links of a config
    SinrKind, CC, CE, E1, E2   -- the decoding steps: link, code, SINR map, ceiling
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, fields
from decimal import Decimal
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "ScenarioKind",
    "CodeSpec",
    "SystemConfig",
    "REFERENCE",
    "Link",
    "links",
    "SinrKind",
    "CC",
    "CE",
    "E1",
    "E2",
]

_MAX_R = 1024


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


def _as_instance(name: str, val, cls: type):
    """val if it is a cls; else ValueError."""
    if not isinstance(val, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {_echo(val)}")
    return val


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


# the reader of each SystemConfig field type: it returns the value as that
# type, or refuses it with ValueError (the CLI reads its config keys with them)
_READERS = {"int": _as_int, "float": _as_float, "ScenarioKind": _as_scenario,
            "CodeSpec": lambda name, val: _as_instance(name, val, CodeSpec)}


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
        # chunk at R = 1024 takes about 0.2 s)
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
    decodes the relayed phase).
    """

    tag: str

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
        return cfg.alpha_e / cfg.alpha_c if self.tag in ("ce", "e1") else math.inf

    def sinr(self, gain, cfg: SystemConfig):
        """SINR at gain X (float or array): alpha_c rho_s X (cc), rho_c X
        (e2), alpha_e rho_s X / (alpha_c rho_s X + 1) (ce, e1).  A SIC
        ratio is capped at its ceiling, its limit, also where overflow makes
        it NaN."""
        if self.tag in ("cc", "e2"):
            return (cfg.alpha_c * cfg.rho_s if self.tag == "cc" else cfg.rho_c) * gain
        ratio = cfg.alpha_e * cfg.rho_s * gain / (cfg.alpha_c * cfg.rho_s * gain + 1.0)
        return np.fmin(ratio, self.ceiling(cfg))

    def gain_threshold(self, w, cfg: SystemConfig):
        """The gain X whose SINR is w >= 0 (float or array), or inf where no
        gain reaches w; an array of w's shape, or a float.  A w that is not
        real numbers, or is negative or NaN, is refused with ValueError."""
        w = _as_thresholds("w", w)
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


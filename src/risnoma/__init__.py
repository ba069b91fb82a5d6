"""Average block-error-rate toolkit for a surface-assisted two-user
cooperative downlink in the short-packet regime.

Two independent evaluation paths over the same system model:

- closed forms (`risnoma.analytic`): a moment-matched gamma approximation
  of the cascaded surface link feeds per-decoding-step SINR CDFs, and the
  linearized finite-blocklength error model makes each step average one CDF
  call on an array of thresholds: the code's beta, or, for a SIC step whose
  ceiling lies inside the knee window, the quadrature nodes up to it;
- simulation (`risnoma.montecarlo`): seeded, chunk-deterministic Monte
  Carlo averaging the exact finite-blocklength error model per trial.

The CLI (`python -m risnoma`) writes both as CSV and cross-checks them.
"""

from .analytic import avg_blers, diversity_order
from .channel import REFERENCE, CodeSpec, ScenarioKind, SystemConfig
from .montecarlo import BlerEstimate, run_trials

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "REFERENCE",
    "CodeSpec",
    "ScenarioKind",
    "BlerEstimate",
    "avg_blers",
    "diversity_order",
    "run_trials",
    "__version__",
]

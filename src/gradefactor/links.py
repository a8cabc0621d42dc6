"""Numerically stable inverse link functions (probit / logit).

All probability-of-success computations in the package go through this
module.  Log-CDF values are evaluated in log space so that likelihoods
stay finite for slack values far into the tails, and the hazard ratios
N(x)/Phi(x) used by the gradients are computed with the scaled
complementary error function instead of dividing two tiny numbers.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import special


class LinkKind(enum.Enum):
    """Choice of inverse link mapping slack values to success probabilities."""

    PROBIT = "probit"
    LOGIT = "logit"


_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _require_no_nan(x, name):
    if np.isnan(x).any():
        raise ValueError(f"{name} received NaN input")


def inv_probit(x):
    """Standard normal CDF.  Monotone, maps R onto (0, 1)."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "inv_probit")
    return special.ndtr(x)


def log_inv_probit(x):
    """log of the standard normal CDF, accurate for large negative x."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "log_inv_probit")
    return special.log_ndtr(x)


def inv_logit(x):
    """Logistic sigmoid 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "inv_logit")
    return special.expit(x)


def log_inv_logit(x):
    """log of the logistic sigmoid, i.e. -log(1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "log_inv_logit")
    return special.log_expit(x)


def inv_link(x, link: LinkKind):
    if link is LinkKind.PROBIT:
        return inv_probit(x)
    if link is LinkKind.LOGIT:
        return inv_logit(x)
    raise TypeError(f"unknown link {link!r}")


def log_inv_link(x, link: LinkKind):
    if link is LinkKind.PROBIT:
        return log_inv_probit(x)
    if link is LinkKind.LOGIT:
        return log_inv_logit(x)
    raise TypeError(f"unknown link {link!r}")


def probit_hazard(x):
    """Ratio N(x)/Phi(x) of the standard normal PDF to its CDF.

    Uses N(x)/Phi(x) = sqrt(2/pi) / erfcx(-x/sqrt(2)), which stays
    accurate for x far below zero where both N and Phi underflow.
    """
    x = np.asarray(x, dtype=float)
    return _SQRT_2_OVER_PI / special.erfcx(-x / _SQRT_2)


def logit_hazard(x):
    """Ratio Phi'(x)/Phi(x) for the logistic link: 1 / (1 + exp(x))."""
    x = np.asarray(x, dtype=float)
    return special.expit(-x)


def hazard(x, link: LinkKind):
    if link is LinkKind.PROBIT:
        return probit_hazard(x)
    if link is LinkKind.LOGIT:
        return logit_hazard(x)
    raise TypeError(f"unknown link {link!r}")


def scalar_lipschitz(link: LinkKind) -> float:
    """Lipschitz constant of the hazard ratio: 1 (probit) or 1/4 (logit)."""
    return 1.0 if link is LinkKind.PROBIT else 0.25

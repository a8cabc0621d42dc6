"""Numerically stable inverse link functions (probit / logit).

All probability-of-success computations in the package go through this
module.  Log-CDF values are evaluated in log space so that likelihoods
stay finite for slack values far into the tails, and the hazard ratios
N(x)/Phi(x) used by the gradients are computed with the scaled
complementary error function instead of dividing two tiny numbers.

`log_inv_link` and `hazard` take an optional `out` array of the input's
shape (it may be the input itself) and write their result there, so the
solver's inner loop evaluates them without allocating.  The logit kernels
are chains of numpy's vectorized ufuncs (exp, log1p), which run several
times faster per cell than scipy's scalar expit and log_expit.
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
    # min propagates NaN, and unlike isnan(x).any() builds no temporary
    if np.isnan(np.min(x, initial=np.inf)):
        raise ValueError(f"{name} received NaN input")


def inv_probit(x):
    """Standard normal CDF.  Monotone, maps R onto (0, 1)."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "inv_probit")
    return special.ndtr(x)


def log_inv_probit(x, out=None):
    """log of the standard normal CDF, accurate for large negative x."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "log_inv_probit")
    return special.log_ndtr(x, out=out)


def inv_logit(x):
    """Logistic sigmoid 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "inv_logit")
    return special.expit(x)


def log_inv_logit(x, out=None):
    """log of the logistic sigmoid, -log(1 + exp(-x)), evaluated as
    min(x, 0) - log1p(exp(-|x|)): the exponent is never positive, so
    nothing overflows in either tail."""
    x = np.asarray(x, dtype=float)
    _require_no_nan(x, "log_inv_logit")
    head = np.minimum(x, 0.0)  # taken before out, which may be x, is written
    tail = np.exp(np.copysign(x, -1.0, out=out), out=out)
    return np.subtract(head, np.log1p(tail, out=out), out=out)


def inv_link(x, link: LinkKind):
    if link is LinkKind.PROBIT:
        return inv_probit(x)
    if link is LinkKind.LOGIT:
        return inv_logit(x)
    raise TypeError(f"unknown link {link!r}")


def log_inv_link(x, link: LinkKind, out=None):
    if link is LinkKind.PROBIT:
        return log_inv_probit(x, out)
    if link is LinkKind.LOGIT:
        return log_inv_logit(x, out)
    raise TypeError(f"unknown link {link!r}")


def probit_hazard(x, out=None):
    """Ratio N(x)/Phi(x) of the standard normal PDF to its CDF.

    Uses N(x)/Phi(x) = sqrt(2/pi) / erfcx(-x/sqrt(2)), which stays
    accurate for x far below zero where both N and Phi underflow.
    """
    x = np.asarray(x, dtype=float)
    # x / -sqrt(2) is -x / sqrt(2) exactly: IEEE rounding is sign-symmetric
    t = special.erfcx(np.divide(x, -_SQRT_2, out=out), out=out)
    return np.divide(_SQRT_2_OVER_PI, t, out=out)


def logit_hazard(x, out=None):
    """Ratio Phi'(x)/Phi(x) for the logistic link: 1 / (1 + exp(x)).

    Past x = 709.78 exp(x) is inf and the ratio 0, as scipy's expit(-x)
    gives; that overflow is expected, so it raises no warning.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        t = np.exp(x, out=out)
    t += 1.0
    return np.divide(1.0, t, out=out)


def hazard(x, link: LinkKind, out=None):
    if link is LinkKind.PROBIT:
        return probit_hazard(x, out)
    if link is LinkKind.LOGIT:
        return logit_hazard(x, out)
    raise TypeError(f"unknown link {link!r}")


def scalar_lipschitz(link: LinkKind) -> float:
    """Lipschitz constant of the hazard ratio: 1 (probit) or 1/4 (logit)."""
    return 1.0 if link is LinkKind.PROBIT else 0.25

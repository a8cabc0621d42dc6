"""Numerically stable inverse link functions (probit / logit).

All probability-of-success computations in the package go through this
module.  Log-CDF values are evaluated in log space so that likelihoods
stay finite for slack values far into the tails.  The probit hazard
N(x)/Phi(x) used by the gradients is numpy's vectorized exp over
scipy's ndtr from a cut at x = -8 upward.  Below the cut both shrink
towards underflow (Phi leaves the normal range at x = -37.6 and is 0
past -38.4), and their ratio keeps its digits only while ndtr rounds its
exponential exactly as the numerator does; those few cells take the
scaled complementary error function, which forms neither.

`log_inv_link` and `hazard` take an optional `out` array of the input's
shape (it may be the input itself) and write their result there, so the
solver's inner loop does not allocate its results (the probit hazard
makes one temporary).  The logit kernels are chains of numpy's
vectorized ufuncs (exp, log1p), which run several times faster per cell
than scipy's scalar expit and log_expit.
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
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# probit_hazard's cells below _HAZARD_CUT take the erfcx form; those above
# _HAZARD_TOP (where exp(-x^2/2) is already 0) are clamped to it, so that
# x^2 cannot overflow
_HAZARD_CUT = -8.0
_HAZARD_TOP = 40.0


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

    From x = -8 upward this is exp(-u^2) / (sqrt(2 pi) ndtr(x)) with
    u = x / sqrt(2): numpy's SIMD exp over scipy's ndtr, which costs less
    per cell than erfcx.  For x < -0.71 scipy's ndtr forms the same
    exp(-u^2) from the same rounded u, so that rounding cancels in the
    ratio.  On [-8, 8] the result is within 128 ulp of the exact ratio,
    the worst cells being large positive x, as for the erfcx form.  Cells
    below -8 take sqrt(2/pi) / erfcx(-x/sqrt(2)), which stays accurate
    where N and Phi both underflow.  exp and ndtr see the input clamped
    to [-8, 40], so no cell divides 0 by 0 and x^2 stays finite; above
    38.6 the ratio is 0 either way.  Makes one temporary of the input's
    size.
    """
    x = np.asarray(x, dtype=float)
    scalar = out is None and x.ndim == 0
    tail = None
    # fmin skips NaN, which would hide every other cell's minimum
    if np.fmin.reduce(x, axis=None, initial=np.inf) < _HAZARD_CUT:
        # taken before out, which may be x, is written
        tail = np.flatnonzero(x < _HAZARD_CUT)
        # x / -sqrt(2) is -x / sqrt(2) exactly: IEEE rounding is sign-symmetric
        tail_values = _SQRT_2_OVER_PI / special.erfcx(x.flat[tail] / -_SQRT_2)
    t = np.clip(x, _HAZARD_CUT, _HAZARD_TOP, out=np.empty_like(x))
    if out is None:
        out = np.empty_like(x)
    u2 = np.square(np.multiply(t, _SQRT_HALF, out=out), out=out)
    pdf = np.exp(np.negative(u2, out=out), out=out)
    cdf = special.ndtr(t, out=t)
    cdf *= _SQRT_2PI
    np.divide(pdf, cdf, out=out)
    if tail is not None:
        out.flat[tail] = tail_values
    return out[()] if scalar else out


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

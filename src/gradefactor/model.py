"""Core data model: graded-response matrices and factorizations.

A response dataset is a Q x N binary matrix together with a boolean
observation mask; entries outside the mask are missing (unassigned
questions), never sentinel values.  A factorization holds the
non-negative question--concept weights W (Q x K), the real-valued
learner concept knowledge C (K x N), the per-question difficulty
offsets mu (larger = easier), and the link choice.  The rank-one
difficulty matrix mu * 1^T is never materialized.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .links import LinkKind, log_inv_link


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dimensions:
    """Problem dimensions; warns when K is not small relative to Q and N."""

    Q: int
    N: int
    K: int

    def __post_init__(self):
        for name in ("Q", "N", "K"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.K > min(self.Q, self.N):
            warnings.warn(
                f"concept count K={self.K} exceeds min(Q, N)="
                f"{min(self.Q, self.N)}; the model expects far fewer "
                "concepts than questions or learners",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ObservedEntries:
    """The observed cells of a Q x N response matrix, in row-major order.

    index : flat indices of the observed cells, or slice(None) when every
        cell is observed (a slice reads a view instead of copying through
        an index array).
    sign : read-only array of s = 2y - 1 at those cells.
    shape : (Q, N) of the response matrix.

    The derived views below are built on first use and then shared.
    """

    index: np.ndarray | slice
    sign: np.ndarray
    shape: tuple[int, int]

    def gather(self, Z, out=None):
        """Values of the C-contiguous Q x N array Z at the observed cells,
        written into out when it is given."""
        flat = Z.reshape(-1)
        if out is None:
            return flat[self.index]
        if isinstance(self.index, slice):
            np.copyto(out, flat[self.index])
            return out
        # clip mode: the default mode buffers the result in a temporary
        return np.take(flat, self.index, out=out, mode="clip")

    def scatter(self, out, values):
        """Write values into the observed cells of the C-contiguous Q x N
        array out; the other cells keep what they hold."""
        out.reshape(-1)[self.index] = values
        return out

    @functools.cached_property
    def float_mask(self) -> np.ndarray:
        """Read-only Q x N array: 1.0 at the observed cells, 0.0 elsewhere."""
        return _frozen_array(self.scatter(np.zeros(self.shape), 1.0))

    @functools.cached_property
    def row_counts(self) -> np.ndarray:
        """Read-only number of observed cells in each row, as floats."""
        return _frozen_array(self.float_mask.sum(axis=1))

    @functools.cached_property
    def positive(self) -> np.ndarray:
        """Read-only flat indices of the observed cells with y = 1."""
        return _frozen_array(self._flat_index()[self.sign > 0], dtype=np.intp)

    @functools.cached_property
    def negative(self) -> np.ndarray:
        """Read-only flat indices of the observed cells with y = 0."""
        return _frozen_array(self._flat_index()[self.sign < 0], dtype=np.intp)

    def _flat_index(self):
        if isinstance(self.index, slice):
            return np.arange(self.sign.size)
        return self.index


@dataclass(frozen=True)
class ResponseMatrix:
    """Binary graded responses with an observation mask.

    entries : (Q, N) array of {0, 1}; values at unobserved positions are
        ignored.
    mask : (Q, N) boolean array, True where a graded response was observed.
    """

    entries: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a Q x N matrix with Q, N >= 1")
        if self.mask is None:
            mask = np.ones(entries.shape, dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool)
        if mask.shape != entries.shape:
            raise ValueError("mask shape must match entries shape")
        # NaN compares unequal to both, so it is rejected too
        if ((entries != 0.0) & (entries != 1.0) & mask).any():
            raise ValueError("observed entries must be 0 or 1")
        # a new array, not zeroed in place: with the ML fit allocation-free,
        # zeroing in place was measured again on the ml-sparse benchmark
        # (6 pairs, medians, 2 vCPUs).  It lowered peak RSS from 205 to 192 MB, but
        # setup_s (0.120 -> 0.125 s) and wall_s (1.76 -> 1.80 s) read worse,
        # by less than their run-to-run spread; a time cost is not traded
        # for memory here without a clearer measurement
        entries = np.where(mask, entries, 0.0)
        entries.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mask", mask)

    @property
    def Q(self) -> int:
        return self.entries.shape[0]

    @property
    def N(self) -> int:
        return self.entries.shape[1]

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    @functools.cached_property
    def observed(self) -> ObservedEntries:
        """Observed cells and their signs, built on first use and then
        shared by every fit of this matrix."""
        index = slice(None) if self.mask.all() else np.flatnonzero(self.mask)
        sign = 2.0 * self.entries.reshape(-1)[index] - 1.0
        sign.setflags(write=False)
        if isinstance(index, np.ndarray):
            index.setflags(write=False)
        return ObservedEntries(index, sign, self.entries.shape)


@dataclass(frozen=True)
class FactorModel:
    """Factorization (W, C, mu) plus the link used to score slack values."""

    W: np.ndarray
    C: np.ndarray
    mu: np.ndarray
    link: LinkKind = LinkKind.PROBIT

    def __post_init__(self):
        W = _frozen_array(self.W)
        C = _frozen_array(self.C)
        mu = _frozen_array(self.mu)
        if W.ndim != 2 or C.ndim != 2 or mu.ndim != 1:
            raise ValueError("W must be Q x K, C must be K x N, mu length Q")
        if W.shape[1] != C.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: W is {W.shape}, C is {C.shape}"
            )
        if mu.shape[0] != W.shape[0]:
            raise ValueError("mu length must equal the number of questions")
        if not (np.isfinite(W).all() and np.isfinite(C).all() and np.isfinite(mu).all()):
            raise ValueError("factors must be finite")
        if (W < 0).any():
            raise ValueError("question-concept weights must be non-negative")
        if not isinstance(self.link, LinkKind):
            raise TypeError("link must be a LinkKind")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "mu", mu)

    @property
    def Q(self) -> int:
        return self.W.shape[0]

    @property
    def N(self) -> int:
        return self.C.shape[1]

    @property
    def K(self) -> int:
        return self.W.shape[1]


def slack(model: FactorModel) -> np.ndarray:
    """Slack matrix Z with Z[i, j] = w_i . c_j + mu_i."""
    return model.W @ model.C + model.mu[:, None]


def log_likelihood(model: FactorModel, data: ResponseMatrix) -> float:
    """Sum of per-entry log-likelihoods over the observed positions."""
    if (model.Q, model.N) != (data.Q, data.N):
        raise ValueError(
            f"model is {model.Q} x {model.N} but data is {data.Q} x {data.N}"
        )
    obs = data.observed
    z = obs.gather(slack(model))
    return float(log_inv_link(obs.sign * z, model.link).sum())

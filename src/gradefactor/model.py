"""Core data model: graded-response matrices and factorizations.

A response dataset is a Q x N bool matrix of correct answers together
with a bool observation mask; entries outside the mask are missing
(unassigned questions), never sentinel values.  A factorization holds the
non-negative question--concept weights W (Q x K), the real-valued
learner concept knowledge C (K x N), the per-question difficulty
offsets mu (larger = easier), and the link choice.  The rank-one
difficulty matrix mu * 1^T is never materialized.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .links import LinkKind, log_inv_link


def _frozen_array(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def check_count(name, value, minimum=1):
    """Raise ValueError naming the argument unless value is an integer
    >= minimum (a bool is not one); seeds take minimum=0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        kind = ("a non-negative integer" if minimum == 0
                else f"an integer >= {minimum}")
        raise ValueError(f"{name} must be {kind}")


def check_real(name, value, positive=False):
    """Raise ValueError naming the argument unless value is a finite real
    number >= 0, or > 0 when positive is set (a bool is not one)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0
            or (positive and value == 0)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a finite {kind} number")


def check_dimensions(Q, N, K):
    """Raise ValueError unless Q, N and K are integers >= 1; warn when K is
    not small relative to Q and N."""
    for name, value in (("Q", Q), ("N", N), ("K", K)):
        check_count(name, value)
    if K > min(Q, N):
        warnings.warn(
            f"concept count K={K} exceeds min(Q, N)={min(Q, N)}; the model "
            "expects far fewer concepts than questions or learners",
            stacklevel=3,
        )


def check_observed(data):
    """Raise ValueError unless data has an observed response to fit."""
    if not data.mask.any():
        raise ValueError("cannot fit: no observed responses")


def _flat_cells(Z):
    """The cells of a Q x N array, or of each matrix of a B x Q x N stack,
    as a flat view: one row per matrix, and 1-D for a single matrix,
    whose fancy indexing is cheaper than a 2-D array's."""
    if Z.ndim == 2 or len(Z) == 1:
        return Z.reshape(-1)
    return Z.reshape(len(Z), -1)


def masked_gram(A, mask):
    """Masked Gram matrices sum_j mask[i, j] a_j a_j^T of the columns a_j
    of A, one per row i of the float m x n mask.

    A is d x (B * n): B blocks of n columns side by side, each block one
    member of a stack.  Returns B * m x d x d, block b's Gram for mask row
    i at b * m + i.  Computed as one matmul of the stacked outer products
    with the mask: the contraction einsum("kj,ij,lj->ikl", optimize=True)
    runs, without its per-call path search; einsum's operand order keeps
    the result bitwise equal.
    """
    d, n = A.shape[0], mask.shape[1]
    outer = (A[:, None, :] * A[None, :, :]).reshape(d * d, -1)
    blocks = outer.reshape(d * d, -1, n).transpose(1, 0, 2)
    return (blocks @ mask.T).transpose(0, 2, 1).reshape(-1, d, d)


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
        written into out when it is given.  A C-contiguous B x Q x N stack
        gives B x n_observed values, one row per matrix."""
        flat = _flat_cells(Z)
        if out is None:
            return flat[self.index] if flat.ndim == 1 else flat[:, self.index]
        dest = out.reshape(flat.shape[:-1] + (-1,))  # a view of out
        if isinstance(self.index, slice):
            np.copyto(dest, flat[..., self.index])
        else:
            # clip mode: the default mode buffers the result in a temporary
            np.take(flat, self.index, axis=-1, out=dest, mode="clip")
        return out

    def scatter(self, out, values):
        """Write values into the observed cells of the C-contiguous Q x N
        array out, or of each matrix of a B x Q x N stack (values then
        B x n_observed); the other cells keep what they hold."""
        flat, index = _flat_cells(out), self.index
        if flat.ndim == 2 and not isinstance(index, slice):
            # one flat index into the whole stack: a 2-D fancy assignment
            # runs several times slower
            flat, index = out.reshape(-1), self._stack_index(len(flat))
        if flat.ndim == 1:
            # a 1 x n_observed value array would take a slower path
            flat[index] = np.reshape(values, -1) if np.ndim(values) else values
        else:
            flat[:, index] = values
        return out

    @functools.cached_property
    def _stack_indices(self) -> dict:
        return {}

    def _stack_index(self, B):
        """Read-only flat indices of the observed cells of every matrix of
        a B x Q x N stack, built once per B."""
        index = self._stack_indices.get(B)
        if index is None:
            Q, N = self.shape
            index = (np.arange(B)[:, None] * (Q * N) + self.index).reshape(-1)
            index.setflags(write=False)
            self._stack_indices[B] = index
        return index

    @functools.cached_property
    def float_mask(self) -> np.ndarray:
        """Read-only Q x N array: 1.0 at the observed cells, 0.0 elsewhere."""
        return _frozen_array(self.scatter(np.zeros(self.shape), 1.0))

    @functools.cached_property
    def row_counts(self) -> np.ndarray:
        """Read-only number of observed cells in each row, as floats."""
        return _frozen_array(self.float_mask.sum(axis=1))


@dataclass(frozen=True)
class ResponseMatrix:
    """Binary graded responses with an observation mask.

    entries : (Q, N) responses.  Bool entries are taken as they are; int
        or float entries must be 0 or 1 at the observed cells and may be
        anything, NaN included, elsewhere.
    mask : (Q, N) array, True where a graded response was observed; None
        observes every cell.

    Both are copied into read-only bool arrays, 2 bytes per cell in all,
    and no float array is built from bool input: `entries` is True where
    an observed response is correct and False everywhere else, unobserved
    cells included.
    """

    entries: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a Q x N matrix with Q, N >= 1")
        if self.mask is None:
            mask = np.ones(entries.shape, dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool)
        if mask.shape != entries.shape:
            raise ValueError("mask shape must match entries shape")
        if entries.dtype == bool:
            correct = entries & mask
        else:
            correct = entries == 1
            # NaN compares unequal to both, so it is rejected too
            if ((entries != 0) & ~correct & mask).any():
                raise ValueError("observed entries must be 0 or 1")
            correct &= mask
        correct.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "entries", correct)
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

"""Dictionary-learning baseline: non-negative OMP coding plus rank-one
dictionary updates, fit directly to the raw 0/1 responses.

The baseline ignores the link function entirely: each question row of Y
is approximated as a sparse non-negative combination of K atom rows
(the rows of C), with per-row sparsity budgets supplied by the caller.
All inner products, least-squares fits and rank-one updates restrict to
the observed entries.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .model import ResponseMatrix

# atoms with norm below this are treated as dead and re-seeded
_ATOM_NORM_TOL = 1e-10


@dataclass
class KsvdConfig:
    """n_concepts atoms; row_sparsity is a scalar budget or one per question."""

    n_concepts: int
    row_sparsity: object
    max_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("n_concepts", "max_iters"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n_concepts < 1:
            raise ValueError("n_concepts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def sparsity_vector(self, Q: int) -> np.ndarray:
        s = np.asarray(self.row_sparsity, dtype=int)
        if s.ndim == 0:
            s = np.full(Q, int(s))
        if s.shape != (Q,):
            raise ValueError("row_sparsity must be a scalar or length-Q vector")
        if (s < 0).any() or (s > self.n_concepts).any():
            raise ValueError("row sparsity must lie in [0, n_concepts]")
        return s


def nn_omp(dictionary, target, s: int):
    """Non-negative orthogonal matching pursuit.

    Greedily picks the atom with the largest (signed, not absolute) inner
    product with the residual, then refits all selected coefficients with
    non-negative least squares.  Stops early once no remaining atom has a
    positive inner product; with none at the first step the zero vector
    comes back.
    """
    D = np.asarray(dictionary, dtype=float)
    target = np.asarray(target, dtype=float)
    K = D.shape[0]
    if s > K:
        raise ValueError("sparsity budget exceeds the number of atoms")
    coef = np.zeros(K)
    if s == 0 or target.size == 0:
        return coef
    support: list[int] = []
    residual = target.copy()
    for _ in range(s):
        scores = D @ residual
        scores[support] = -np.inf
        pick = int(np.argmax(scores))
        if scores[pick] <= 0:
            break
        support.append(pick)
        sol, _ = optimize.nnls(D[support].T, target)
        residual = target - D[support].T @ sol
    if support:
        coef[support] = sol
    return coef


def dict_update_rank1(Y_sub, w_col, c_row, mask, n_iters: int = 3):
    """Rank-one refit of one concept on its masked residual block.

    Alternates exact masked least-squares updates: the atom row c is
    unconstrained, the usage weights w are clamped at zero.  Each half
    step minimizes the masked squared error exactly, so the residual
    never increases.  The atom is renormalized to unit length with the
    scale pushed into w.
    """
    Y_sub = np.asarray(Y_sub, dtype=float)
    maskf = np.asarray(mask, dtype=float)
    w = np.asarray(w_col, dtype=float).copy()
    c = np.asarray(c_row, dtype=float).copy()
    if Y_sub.shape[0] == 0:
        raise ValueError("empty usage set; re-seed the atom instead")
    for _ in range(n_iters):
        denom_c = maskf.T @ (w * w)
        num_c = (maskf * Y_sub).T @ w
        c = np.divide(num_c, denom_c, out=np.zeros_like(num_c), where=denom_c > 0)
        denom_w = maskf @ (c * c)
        num_w = (maskf * Y_sub) @ c
        w = np.divide(num_w, denom_w, out=np.zeros_like(num_w), where=denom_w > 0)
        np.maximum(w, 0.0, out=w)
    norm = float(np.linalg.norm(c))
    if norm > _ATOM_NORM_TOL:
        c /= norm
        w *= norm
    return w, c


def _masked_residual(Y, W, C, maskf):
    return (Y - W @ C) * maskf


def fit_ksvd(data: ResponseMatrix, config: KsvdConfig):
    """Alternate masked sparse coding and rank-one dictionary updates.

    Returns (W, C) with W respecting the per-row sparsity budgets and
    W >= 0 elementwise.  Atoms used by no question are re-seeded from the
    worst-represented data row.
    """
    Y = data.entries
    maskf = data.mask.astype(float)
    Q, N = Y.shape
    K = config.n_concepts
    s = config.sparsity_vector(Q)
    rng = np.random.default_rng(config.seed)

    C = rng.standard_normal((K, N))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    W = np.zeros((Q, K))

    for _ in range(config.max_iters):
        for i in range(Q):
            obs = data.mask[i]
            if s[i] == 0 or not obs.any():
                W[i] = 0.0
                continue
            W[i] = nn_omp(C[:, obs], Y[i, obs], int(s[i]))
        for k in range(K):
            usage = W[:, k] > 0
            if not usage.any():
                resid_norms = np.linalg.norm(_masked_residual(Y, W, C, maskf), axis=1)
                worst = int(np.argmax(resid_norms))
                seed_row = Y[worst] * maskf[worst]
                norm = float(np.linalg.norm(seed_row))
                if norm > _ATOM_NORM_TOL:
                    C[k] = seed_row / norm
                else:
                    C[k] = rng.standard_normal(N)
                    C[k] /= np.linalg.norm(C[k])
                continue
            excl = W[:, k].copy()
            W[usage, k] = 0.0
            E = (Y[usage] - W[usage] @ C) * maskf[usage]
            w_new, c_new = dict_update_rank1(E, excl[usage], C[k], data.mask[usage])
            W[usage, k] = w_new
            C[k] = c_new
    return W, C

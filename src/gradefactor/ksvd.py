"""Dictionary-learning baseline: non-negative OMP coding plus rank-one
dictionary updates, fit directly to the raw 0/1 responses.

The baseline ignores the link function entirely: each question row of Y
is approximated as a sparse non-negative combination of K atom rows
(the rows of C), with per-row sparsity budgets supplied by the caller.
All inner products, least-squares fits and rank-one updates restrict to
the observed entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ResponseMatrix, check_count, check_observed, masked_gram

# atoms with norm below this are treated as dead and re-seeded
_ATOM_NORM_TOL = 1e-10
# a support Gram whose smallest eigenvalue is at most this fraction of its
# largest counts as singular in nn_omp, which then refits that row by NNLS
_RCOND = 1e-10
# nn_omp takes no atom whose inner product with the residual is at most
# this fraction of the row's observed norm times the largest atom's: such
# a score is roundoff, as when the residual is already orthogonal to
# every atom
_SCORE_RTOL = 1e-10


@dataclass(frozen=True)
class KsvdConfig:
    """n_concepts atoms; row_sparsity is a scalar budget or one per question.

    n_concepts and max_iters must be integers >= 1, seed an integer >= 0,
    and row_sparsity an integer >= 0 or a sequence of them (a bool is none
    of these).
    """

    n_concepts: int
    row_sparsity: object
    max_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        check_count("n_concepts", self.n_concepts)
        check_count("max_iters", self.max_iters)
        check_count("seed", self.seed, minimum=0)
        # object entries keep their own type, where np.asarray would make
        # a bool among ints an int
        for budget in np.array(self.row_sparsity, dtype=object).ravel():
            check_count("row_sparsity", budget, minimum=0)

    def sparsity_vector(self, Q: int) -> np.ndarray:
        s = np.asarray(self.row_sparsity)
        if s.ndim == 0:
            s = np.full(Q, s)
        if s.shape != (Q,):
            raise ValueError("row_sparsity must be a scalar or length-Q vector")
        if (s > self.n_concepts).any():
            raise ValueError("row sparsity must lie in [0, n_concepts]")
        return s


def nn_omp(dictionary, target, s, mask=None):
    """Non-negative orthogonal matching pursuit of every target row at once.

    dictionary is K x N (the atoms are its rows).  target is one length-N
    row or a Q x N stack; s is one budget or one per row; mask (the
    target's shape, True where observed) restricts each row's inner
    products and fits to its observed cells, and None observes every cell.
    Returns (K,) coefficients for one row and Q x K for a stack.

    Each row greedily picks the atom with the largest (signed, not
    absolute) inner product with its residual, then refits all its
    selected coefficients; it stops early once no remaining atom's inner
    product exceeds _SCORE_RTOL times the row's observed norm times the
    largest observed atom norm, so with none at the first step its row of
    zeros comes back.  The work is in Gram form: with the row's masked
    Gram G = sum_j m_j c_j c_j^T and b = sum_j m_j y_j c_j, the inner
    products are b - G x, and one batched solve of G_SS x_S = b_S refits
    every row's support S.  That least-squares solution is the
    non-negative one whenever it is positive; a row whose solution has an
    entry <= 0, or whose support Gram is singular (reciprocal condition
    below _RCOND), is refitted by scipy's NNLS on its own observed cells.
    """
    D = np.asarray(dictionary, dtype=float)
    Y = np.asarray(target, dtype=float)
    single = Y.ndim == 1
    Y = Y.reshape(-1, D.shape[1])
    mask = (np.ones(Y.shape, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool).reshape(Y.shape))
    Q, K = len(Y), D.shape[0]
    budget = np.broadcast_to(s, (Q,))
    if (budget > K).any():
        raise ValueError("sparsity budget exceeds the number of atoms")
    maskf = mask.astype(float)
    gram = masked_gram(D, maskf)  # Q x K x K
    b = (maskf * Y) @ D.T  # Q x K
    atom_sq = np.diagonal(gram, axis1=1, axis2=2).max(axis=1, initial=0.0)
    floor = _SCORE_RTOL * np.sqrt((maskf * Y * Y).sum(axis=1) * atom_sq)
    coef = np.zeros((Q, K))
    picked = np.zeros((Q, K), dtype=bool)
    support = np.empty((Q, K), dtype=np.intp)  # each row's picks in order
    rows = np.arange(Q)
    for step in range(int(budget.max(initial=0))):
        rows = rows[budget[rows] > step]
        scores = b[rows] - (gram[rows] @ coef[rows, :, None])[:, :, 0]
        scores[picked[rows]] = -np.inf
        pick = scores.argmax(axis=1)
        going = scores[np.arange(len(rows)), pick] > floor[rows]
        rows, pick = rows[going], pick[going]
        if not len(rows):
            break
        picked[rows, pick] = True
        support[rows, step] = pick
        S = support[rows, :step + 1]
        sol, fits = _positive_solve(gram[rows[:, None, None], S[:, :, None], S[:, None, :]],
                                    b[rows[:, None], S])
        coef[rows] = 0.0
        coef[rows[fits, None], S[fits]] = sol[fits]
        for i, S_i in zip(rows[~fits], S[~fits]):
            # imported here, so that only this fallback loads scipy.optimize
            from scipy.optimize import nnls
            obs = mask[i]
            coef[i, S_i], _ = nnls(D[S_i][:, obs].T, Y[i, obs])
    return coef[0] if single else coef


def _positive_solve(G, b):
    """Solve each n x t x t system G x = b (b is n x t).  Returns x and a
    boolean per system: True where G is nonsingular and x > 0."""
    eig = np.linalg.eigvalsh(G)
    fits = eig[:, 0] > _RCOND * eig[:, -1]
    x = np.zeros(b.shape)
    if fits.any():
        x[fits] = np.linalg.solve(G[fits], b[fits, :, None])[:, :, 0]
        fits &= (x > 0).all(axis=1)
    return x, fits


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
    worst-represented data row.  A matrix with no observed response
    raises ValueError.
    """
    check_observed(data)
    Y = data.entries.astype(float)
    maskf = data.observed.float_mask
    Q, N = Y.shape
    K = config.n_concepts
    s = config.sparsity_vector(Q)
    rng = np.random.default_rng(config.seed)

    C = rng.standard_normal((K, N))
    C /= np.linalg.norm(C, axis=1, keepdims=True)

    for _ in range(config.max_iters):
        W = nn_omp(C, Y, s, data.mask)
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

"""Mapping estimated concepts onto human-readable question tags.

Given a binary question-tag incidence matrix T, each concept column w_k
of the fitted W is regressed onto the tags by non-negative l1-penalized
least squares, solved with an accelerated projected gradient method.
The resulting M x K map A supports tag percentages per concept and the
learner tag-knowledge matrix U = A C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import io_formats

_KKT_TOL = 1e-8
_MAX_ITERS = 200_000
# eta candidates scanned per concept, the most tags a concept's map may
# keep, and the tags reported per concept
_N_ETAS = 5
_MAX_ACTIVE = 3
_TOP_TAGS = 3


@dataclass(frozen=True)
class TagMatrix:
    """Q x M binary incidence of tags on questions, with tag labels."""

    T: np.ndarray
    names: tuple

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        if T.ndim != 2:
            raise ValueError("tag incidence must be a Q x M matrix")
        if not np.isin(T, (0.0, 1.0)).all():
            raise ValueError("tag incidence entries must be 0 or 1")
        names = tuple(str(n) for n in self.names)
        if len(names) != T.shape[1]:
            raise ValueError("need exactly one name per tag column")
        T.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "names", names)

    @property
    def Q(self) -> int:
        return self.T.shape[0]

    @property
    def M(self) -> int:
        return self.T.shape[1]


def _kkt_residual(T, w, a, eta):
    """KKT residual of each column of a (M x P) for the targets w (Q x P)
    and weights eta (P,): |gradient| on the active entries and its
    negative part on the zero ones, maximized over the column."""
    grad = T.T @ (T @ a - w) + eta
    return np.where(a > 0, np.abs(grad), np.maximum(-grad, 0.0)).max(axis=0)


def solve_bpdn_plus(T, w, eta):
    """Minimize 0.5 ||w_p - T a_p||^2 + eta_p ||a_p||_1 over a_p >= 0 for
    every column w_p of the Q x P stack w, with weight eta_p from the
    length-P eta.  A length-Q w is one column and returns a length-M a; a
    scalar eta weighs every column alike.

    Accelerated projected gradient at constant step 1/sigma_max(T)^2,
    with all columns in one M x P array; each column restarts its own
    momentum and stops on its own once its KKT residual, checked every 25
    iterations, drops below 1e-8 (well inside the 1e-6 contract), or
    after 200 000 iterations.
    """
    T = np.asarray(T, dtype=float)
    w = np.asarray(w, dtype=float)
    targets = w.reshape(len(w), -1)
    P = targets.shape[1]
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (P,))
    if not (np.isfinite(eta) & (eta >= 0)).all():
        raise ValueError("eta must be finite and non-negative")
    M = T.shape[1]
    gram = T.T @ T
    tw = T.T @ targets
    sig2 = float(max(np.linalg.eigvalsh(gram)[-1], 1e-12))
    t = 1.0 / sig2

    solution = np.zeros((M, P))
    cols = np.arange(P)  # the columns still iterating
    x_prev = np.zeros((M, P))
    u = np.zeros((M, P))
    tau = np.ones(P)
    for it in range(_MAX_ITERS):
        grad = gram @ u - tw[:, cols]
        x = np.maximum(u - t * (grad + eta[cols]), 0.0)
        # momentum pointing uphill restarts a column's acceleration
        restart = np.einsum("mp,mp->p", u - x, x - x_prev) > 0
        tau_next = np.where(restart, 1.0, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau)))
        u = x + np.where(restart, 0.0, (tau - 1.0) / tau_next) * (x - x_prev)
        tau = tau_next
        x_prev = x
        if it % 25 == 0:
            done = _kkt_residual(T, targets[:, cols], x, eta[cols]) <= _KKT_TOL
            solution[:, cols[done]] = x[:, done]
            going = ~done
            cols, x_prev, u, tau = cols[going], x[:, going], u[:, going], tau[going]
            if not len(cols):
                break
    solution[:, cols] = x_prev
    return solution[:, 0] if w.ndim == 1 else solution


def default_eta_grid(T, w):
    """Geometric grid below the smallest eta that zeroes the solution, one
    per column of the Q x K stack w (_N_ETAS x K)."""
    eta_max = np.abs(np.asarray(T).T @ np.asarray(w)).max(axis=0)
    return eta_max * np.geomspace(0.5, 1e-3, _N_ETAS)[:, None]


def fit_tag_map(W, tag_matrix: TagMatrix):
    """Estimate the M x K tag-to-concept map.

    Each concept column scans a small eta grid and keeps the
    best-reconstructing solution among those with at most three tags
    (falling back to the sparsest grid solution when none qualifies),
    mirroring top-3 tag readouts.  One solve_bpdn_plus call fits every
    (concept, eta) pair.
    """
    W = np.asarray(W, dtype=float)
    T = tag_matrix.T
    if W.shape[0] != T.shape[0]:
        raise ValueError("W and the tag incidence must share the question axis")
    K = W.shape[1]
    etas = default_eta_grid(T, W)  # _N_ETAS x K
    # column k * _N_ETAS + e fits concept k at its e-th eta
    fits = solve_bpdn_plus(T, np.repeat(W, _N_ETAS, axis=1), etas.T.reshape(-1))
    fits = fits.reshape(tag_matrix.M, K, _N_ETAS)
    A = np.zeros((tag_matrix.M, K))
    for k in range(K):
        w_k = W[:, k]
        best, best_err = None, np.inf
        fallback, fallback_key = None, None
        for cand, a in zip(etas[:, k], fits[:, k].T):
            nnz = int(np.count_nonzero(a))
            err = float(np.sum((w_k - T @ a) ** 2))
            if nnz <= _MAX_ACTIVE and err < best_err:
                best, best_err = a, err
            key = (nnz, -cand)
            if fallback_key is None or key < fallback_key:
                fallback, fallback_key = a, key
        A[:, k] = best if best is not None else fallback
    return A


def concept_tag_percentages(A, k: int):
    """Column k of A normalized to sum to one.

    An all-zero column (uninterpretable concept) yields all-zero weights
    rather than an error.
    """
    a = np.asarray(A, dtype=float)[:, k]
    total = float(a.sum())
    if total <= 0:
        return np.zeros_like(a)
    return a / total


def top_tags(A, names, k: int):
    """The three highest-weight tags of concept k as (name, share) pairs."""
    weights = concept_tag_percentages(A, k)
    order = np.argsort(-weights, kind="stable")
    out = []
    for m in order[:_TOP_TAGS]:
        if weights[m] <= 0:
            break
        out.append((names[m], float(weights[m])))
    return out


def learner_tag_knowledge(A, C):
    """Tag-level knowledge U = A C (M x N)."""
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    if A.shape[1] != C.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: A is {A.shape}, C is {C.shape}"
        )
    return A @ C


def read_tags_csv(path, question_ids):
    """Load (question id, tag name) pairs into a TagMatrix.

    Rows referring to unknown question ids raise; tag columns appear in
    sorted name order so the layout is reproducible.
    """
    index = {str(q): i for i, q in enumerate(question_ids)}
    pairs = []
    for row in io_formats.csv_rows(path, io_formats.read_text(path)):
        if not row or row[0].strip().startswith("#"):
            continue
        if len(row) < 2:
            raise ValueError(f"{path}: malformed tag row: {row!r}")
        qid, tag = row[0].strip(), row[1].strip()
        if qid in ("question_id", "question"):  # optional header
            continue
        if qid not in index:
            raise ValueError(f"{path}: unknown question id {qid!r}")
        pairs.append((index[qid], tag))
    names = sorted({tag for _, tag in pairs})
    pos = {t: m for m, t in enumerate(names)}
    T = np.zeros((len(question_ids), len(names)))
    for qi, tag in pairs:
        T[qi, pos[tag]] = 1.0
    return TagMatrix(T, tuple(names))

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
    grad = T.T @ (T @ a - w) + eta
    active = a > 0
    res = 0.0
    if active.any():
        res = float(np.abs(grad[active]).max())
    if (~active).any():
        res = max(res, float(np.maximum(-grad[~active], 0.0).max()))
    return res


def solve_bpdn_plus(T, w, eta):
    """Minimize 0.5 ||w - T a||^2 + eta ||a||_1 over a >= 0.

    Accelerated projected gradient at constant step 1/sigma_max(T)^2 with
    momentum restarts; iterates until the KKT residual drops below 1e-8
    (well inside the 1e-6 contract) or 200 000 iterations are done.
    """
    T = np.asarray(T, dtype=float)
    w = np.asarray(w, dtype=float)
    if eta < 0:
        raise ValueError("eta must be non-negative")
    M = T.shape[1]
    gram = T.T @ T
    tw = T.T @ w
    sig2 = float(max(np.linalg.eigvalsh(gram)[-1], 1e-12))
    t = 1.0 / sig2

    x_prev = np.zeros(M)
    u = np.zeros(M)
    tau = 1.0
    for it in range(_MAX_ITERS):
        grad = gram @ u - tw
        x = np.maximum(u - t * (grad + eta), 0.0)
        if (u - x) @ (x - x_prev) > 0:
            # momentum points uphill: restart acceleration
            tau = 1.0
            u = x.copy()
        else:
            tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
            u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
            tau = tau_next
        x_prev = x
        if it % 25 == 0 and _kkt_residual(T, w, x, eta) <= _KKT_TOL:
            break
    return x_prev


def default_eta_grid(T, w):
    """Geometric grid below the smallest eta that zeroes the solution."""
    eta_max = float(np.abs(np.asarray(T).T @ np.asarray(w)).max())
    if eta_max <= 0:
        return np.zeros(_N_ETAS)
    return eta_max * np.geomspace(0.5, 1e-3, _N_ETAS)


def fit_tag_map(W, tag_matrix: TagMatrix):
    """Estimate the M x K tag-to-concept map, one concept at a time.

    Each column scans a small eta grid and keeps the best-reconstructing
    solution among those with at most three tags (falling back to the
    sparsest grid solution when none qualifies), mirroring top-3 tag
    readouts.
    """
    W = np.asarray(W, dtype=float)
    T = tag_matrix.T
    if W.shape[0] != T.shape[0]:
        raise ValueError("W and the tag incidence must share the question axis")
    K = W.shape[1]
    A = np.zeros((tag_matrix.M, K))
    for k in range(K):
        w_k = W[:, k]
        best, best_err = None, np.inf
        fallback, fallback_key = None, None
        for cand in default_eta_grid(T, w_k):
            a = solve_bpdn_plus(T, w_k, cand)
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

"""Estimate quality metrics and held-out prediction evaluation.

Factorizations are only identified up to concept relabeling and column
scaling, so before any error is computed the W columns and C rows of
both truth and estimate are normalized to unit length and the estimate's
concepts are permuted to best match the truth (summed cosine similarity
over W columns and C rows jointly).  Difficulties are compared raw.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import optimize as sopt

from .links import inv_link
from .model import FactorModel, ResponseMatrix, slack


@dataclass(frozen=True)
class EvalReport:
    """Normalized squared errors, support error and concept permutation."""

    e_w: float
    e_c: float
    e_mu: float
    e_h: float
    permutation: tuple = ()

    def __post_init__(self):
        for name in ("e_w", "e_c", "e_mu", "e_h"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _unit_columns(M):
    norms = np.linalg.norm(M, axis=0, keepdims=True)
    return np.divide(M, norms, out=np.zeros_like(M, dtype=float), where=norms > 0)


def _unit_rows(M):
    return _unit_columns(np.asarray(M, dtype=float).T).T


def match_permutation(W_true, W_est, C_true, C_est):
    """Concept relabeling that best aligns the estimate with the truth.

    Maximizes the summed cosine similarity of matched W columns plus
    matched C rows with the assignment solver.  Returns perm with
    perm[a] = estimate concept matched to truth concept a.
    """
    Wt = _unit_columns(np.asarray(W_true, dtype=float))
    We = _unit_columns(np.asarray(W_est, dtype=float))
    Ct = _unit_rows(np.asarray(C_true, dtype=float))
    Ce = _unit_rows(np.asarray(C_est, dtype=float))
    score = Wt.T @ We + Ct @ Ce.T  # score[a, b]: truth a vs estimate b
    _, cols = sopt.linear_sum_assignment(-score)
    return np.asarray(cols, dtype=int)


def eval_metrics(truth: FactorModel, estimate: FactorModel) -> EvalReport:
    """Permutation-matched normalized errors of an estimated factorization."""
    if (truth.Q, truth.N, truth.K) != (estimate.Q, estimate.N, estimate.K):
        raise ValueError("truth and estimate dimensions disagree")
    perm = match_permutation(truth.W, estimate.W, truth.C, estimate.C)
    Wt = _unit_columns(truth.W)
    We = _unit_columns(estimate.W)[:, perm]
    Ct = _unit_rows(truth.C)
    Ce = _unit_rows(estimate.C)[perm, :]

    denom_w = float((Wt * Wt).sum())
    denom_c = float((Ct * Ct).sum())
    denom_mu = float(truth.mu @ truth.mu)
    H_t = (truth.W > 0).astype(float)
    H_e = (estimate.W[:, perm] > 0).astype(float)
    denom_h = float((H_t * H_t).sum())
    if min(denom_w, denom_c, denom_mu, denom_h) <= 0:
        raise ValueError("zero-norm ground truth; error ratios undefined")

    return EvalReport(
        e_w=float(((Wt - We) ** 2).sum()) / denom_w,
        e_c=float(((Ct - Ce) ** 2).sum()) / denom_c,
        e_mu=float(((truth.mu - estimate.mu) ** 2).sum()) / denom_mu,
        e_h=float(((H_t - H_e) ** 2).sum()) / denom_h,
        permutation=tuple(int(p) for p in perm),
    )


def predict_heldout(model: FactorModel, heldout: ResponseMatrix):
    """Score held-out responses: (accuracy at the 0.5 rule, mean
    probability assigned to the actual outcomes)."""
    if (model.Q, model.N) != (heldout.Q, heldout.N):
        raise ValueError("model and held-out data dimensions disagree")
    if heldout.n_observed == 0:
        raise ValueError("held-out set is empty")
    probs = inv_link(slack(model), model.link)[heldout.mask]
    y = heldout.entries[heldout.mask]
    accuracy = float(((probs >= 0.5) == y).mean())
    likelihood = float(np.where(y, probs, 1.0 - probs).mean())
    return accuracy, likelihood


def write_benchmark_csv(path, rows):
    """Emit (trial, method, metric, value) rows for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "method", "metric", "value"])
        for trial, method, metric, value in rows:
            writer.writerow([trial, method, metric, repr(float(value))])

"""Alternating maximum-likelihood solver for the sparse factorization.

The joint problem is bi-convex: holding C fixed, each question row of W
(with its difficulty offset) solves an l1-regularized non-negative
regression; holding W fixed, each learner column of C solves a ridge
regression.  Both inner problems are solved with accelerated proximal
gradient iterations at constant step size 1/L, where L comes from the
largest squared singular value of the active design matrix times the
scalar hazard Lipschitz constant (1 probit, 1/4 logit).

The difficulty offset rides along as an extra column of W paired with an
all-ones row of C; that coordinate is exempt from the l1 shrinkage and
the non-negativity clamp because difficulties may be negative.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .links import LinkKind, hazard, log_inv_link, scalar_lipschitz
from .model import Dimensions, FactorModel, ResponseMatrix, log_likelihood

_L_FLOOR = 1e-12
# fits with fewer cells (Q * N) than this run their restarts serially even
# when threads are offered: each step is then mostly Python overhead under
# the interpreter lock, so a second thread adds contention, not speed.
# Measured with 2 restarts on 2 threads against 1 (BIC over 4 lambdas, 25
# outer iterations): a second thread breaks even near 2000 cells for probit
# and 6000 for logit, whose cheaper kernels release the lock for less time.
_SERIAL_RESTART_CELLS = {LinkKind.PROBIT: 2_000, LinkKind.LOGIT: 6_000}


@dataclass
class MLConfig:
    """Knobs for the alternating maximum-likelihood fit.

    lambda_l1 : weight of the sparsity penalty on the concept weights.
    gamma_c : weight of the ridge penalty on learner knowledge columns.
    mu_w : small ridge weight on question rows; keeps the row subproblem
        strongly convex without noticeably slowing convergence.
    inner_iters : accelerated-gradient iterations per subproblem per
        outer iteration; a few suffice because subproblems are warm
        started.
    max_outer / outer_tol : outer loop stops after max_outer alternations
        or once the relative objective decrease falls below outer_tol.
    restarts : number of random initializations; the run with the lowest
        final objective wins.

    lambda_l1, gamma_c, mu_w and outer_tol must be finite; inner_iters,
    max_outer, restarts and seed must be integers.
    """

    lambda_l1: float
    gamma_c: float = 0.1
    mu_w: float = 1e-4
    inner_iters: int = 10
    max_outer: int = 500
    outer_tol: float = 1e-6
    restarts: int = 1
    seed: int = 0
    link: LinkKind = LinkKind.PROBIT

    def __post_init__(self):
        for name in ("lambda_l1", "gamma_c", "mu_w", "outer_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("inner_iters", "max_outer", "restarts", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.lambda_l1 <= 0:
            raise ValueError("lambda_l1 must be positive")
        if self.gamma_c <= 0:
            raise ValueError("gamma_c must be positive")
        if self.mu_w < 0:
            raise ValueError("mu_w must be non-negative")
        if self.inner_iters < 1 or self.max_outer < 1 or self.restarts < 1:
            raise ValueError("inner_iters, max_outer and restarts must be >= 1")
        if self.outer_tol < 0:
            raise ValueError("outer_tol must be non-negative")


@dataclass(frozen=True)
class FitTrace:
    """Objective values per outer iteration of the winning restart.

    The first entry is the objective at initialization.  With the default
    configuration the sequence is non-increasing (up to float roundoff).
    """

    objectives: np.ndarray
    final_objective: float
    n_outer: int
    restart_index: int


def _penalty(W_aug, C, config: MLConfig) -> float:
    """The l1 and ridge terms of the overall objective."""
    K = C.shape[0]
    return (
        config.lambda_l1 * float(np.abs(W_aug[:, :K]).sum())
        + 0.5 * config.mu_w * float((W_aug * W_aug).sum())
        + 0.5 * config.gamma_c * float((C * C).sum())
    )


def objective_value(W_aug, C, data: ResponseMatrix, config: MLConfig) -> float:
    """Overall objective: masked negative log-likelihood plus penalties.

    W_aug is Q x (K+1) with the difficulty offsets in the last column.
    Raises if any concept weight is negative (the feasible set excludes it).
    """
    W_aug = np.asarray(W_aug, dtype=float)
    C = np.asarray(C, dtype=float)
    K = C.shape[0]
    if W_aug.shape[1] != K + 1:
        raise ValueError("W_aug must have one more column than C has rows")
    if (W_aug[:, :K] < 0).any():
        raise ValueError("concept weights must be non-negative")
    z = W_aug[:, :K] @ C + W_aug[:, K][:, None]
    obs = data.observed
    nll = -float(log_inv_link(obs.sign * obs.gather(z), config.link).sum())
    return nll + _penalty(W_aug, C, config)


class _Workspace:
    """The arrays one restart's kernels work in, allocated once, so that
    no step of the outer iteration allocates a Q x N or n_observed array.
    Fresh Q x N temporaries in every kernel call cost their pages' faults
    afresh: about 358k minor faults per ml-full benchmark operation (4
    fits of 200 x 300, 10 outer iterations), against 2k with this.

    obs : the observed cells of the response matrix.
    slack : Q x N slack Z of the iterate being evaluated, filled by
        np.matmul(..., out=).
    buf : Q x N, zero at every unobserved cell.  The kernels scatter their
        per-cell values into it, so masked gradients and per-row or
        per-column sums are plain dense operations on it.
    cells : the observed cells of s * Z, which the link kernels overwrite
        with their values in place.
    loglik : the log-likelihood of each observed cell at the current
        iterate.  Each phase reads its incoming objective from it and
        evaluates the link once, at its end point.  A vector of the
        observed cells, not a third Q x N array, so that the workspace
        is no larger than the temporaries it replaced.

    The cache starts at the slack W_aug @ C_aug of the first iterate,
    C_aug being C with a trailing all-ones row.  One workspace per
    restart, because restarts may run on a thread pool.
    """

    def __init__(self, obs, W_aug, C_aug, link):
        self.obs = obs
        self.slack = np.empty(obs.shape)
        self.buf = np.zeros(obs.shape)
        self.cells = np.empty(obs.sign.shape)
        self.loglik = np.empty(obs.sign.shape)
        _log_lik_cells(np.matmul(W_aug, C_aug, out=self.slack), self, link)
        self.cells, self.loglik = self.loglik, self.cells

    def cached(self):
        """buf with the cached log-likelihood of each observed cell."""
        return self.obs.scatter(self.buf, self.loglik)

    def objective(self, W_aug, C, config):
        """objective_value at (W_aug, C), whose cells the cache holds; both
        sum the observed cells in the same order."""
        return -float(self.loglik.sum()) + _penalty(W_aug, C, config)

    def accept(self, rejected):
        """Cache the cell log-likelihoods of a phase's end point, which
        cells and buf hold, except in the rows or columns where the
        boolean rejected (Q x 1 or N) is set: those were put back to the
        incoming iterate, whose cached cells stay."""
        if rejected.any():
            # the cached cells staged in slack zeroed off the mask, so that
            # buf stays zero there
            self.slack.fill(0.0)
            cached = self.obs.scatter(self.slack, self.loglik)
            np.copyto(self.buf, cached, where=rejected)
            self.obs.gather(self.buf, out=self.cells)
        self.cells, self.loglik = self.loglik, self.cells


def _col_slack(C, W_aug, work):
    """work.slack filled with W C + mu: the slack as the column phase
    forms it."""
    Z = np.matmul(W_aug[:, :-1], C, out=work.slack)
    Z += W_aug[:, -1][:, None]
    return Z


def _signed_cells(Z, work):
    """work.cells filled with s * z at the observed cells of Z."""
    cells = work.obs.gather(Z, out=work.cells)
    cells *= work.obs.sign
    return cells


def _log_lik_cells(Z, work, link):
    """work.buf with the log-likelihood of each observed cell under slack Z."""
    cells = log_inv_link(_signed_cells(Z, work), link, out=work.cells)
    return work.obs.scatter(work.buf, cells)


def _residual_cells(Z, work, link):
    """work.buf with s * hazard(s * z) at each observed cell: minus the
    derivative of the log-likelihood in the slack."""
    cells = hazard(_signed_cells(Z, work), link, out=work.cells)
    cells *= work.obs.sign
    return work.obs.scatter(work.buf, cells)


def _row_objectives(W_aug, cell_ll, lam, mu_w):
    """Objective of every question row, from the Q x N log-likelihoods of
    its cells (zero at unobserved cells)."""
    nll = -cell_ll.sum(axis=1)
    l1 = np.abs(W_aug[:, :-1]).sum(axis=1)
    l2 = (W_aug * W_aug).sum(axis=1)
    return nll + lam * l1 + 0.5 * mu_w * l2


def _col_objectives(C, cell_ll, gamma):
    """Objective of every learner column, from the Q x N log-likelihoods
    of its cells (zero at unobserved cells)."""
    nll = -cell_ll.sum(axis=0)
    return nll + 0.5 * gamma * (C * C).sum(axis=0)


def _row_lipschitz(C_aug, work, mu_w, link):
    """Gradient Lipschitz constant of every question-row subproblem: the
    hazard constant times the largest eigenvalue of the row's masked Gram
    sum_j mask[i, j] c_j c_j^T, plus mu_w, floored at _L_FLOOR."""
    d = C_aug.shape[0]
    maskf = work.obs.scatter(work.buf, 1.0)  # buf as the float observation mask
    # per-row Gram as one matmul of the stacked outer products with the
    # mask, the contraction einsum("kj,ij,lj->ikl", optimize=True) runs,
    # without its per-call path search; einsum's operand order keeps the
    # result bitwise equal
    outer = (C_aug[:, None, :] * C_aug[None, :, :]).reshape(d * d, -1)
    gram = (outer @ maskf.T).T.reshape(-1, d, d)
    sig2 = np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None)
    return np.maximum(scalar_lipschitz(link) * sig2 + mu_w, _L_FLOOR)


def _row_gradient(W_aug, C_aug, work, mu_w, link):
    """Gradient of the smooth part (log-likelihood + ridge) in every row."""
    resid = _residual_cells(np.matmul(W_aug, C_aug, out=work.slack), work, link)
    # -(R @ C^T) is (-R) @ C^T bitwise, without a Q x N negated copy
    return -(resid @ C_aug.T) + mu_w * W_aug


def _col_lipschitz(W, work, link):
    """Gradient Lipschitz constant of every learner-column subproblem, from
    the column's masked Gram sum_i mask[i, j] w_i w_i^T (W without the
    difficulty column), floored at _L_FLOOR."""
    Q, K = W.shape
    maskf = work.obs.scatter(work.buf, 1.0)  # buf as the float observation mask
    # per-column Gram as in _row_lipschitz: einsum("ik,ij,il->jkl") as one
    # matmul
    outer = (W.T[:, None, :] * W.T[None, :, :]).reshape(K * K, Q)
    gram = (outer @ maskf).T.reshape(-1, K, K)
    sig2 = np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None)
    return np.maximum(scalar_lipschitz(link) * sig2, _L_FLOOR)


def _col_gradient(C, W_aug, work, link):
    """Gradient of the log-likelihood in every learner column; the ridge
    enters through the proximal step instead."""
    resid = _residual_cells(_col_slack(C, W_aug, work), work, link)
    return -W_aug[:, :-1].T @ resid


def _phase_w(W_aug, C_aug, work, lam, mu_w, link, iters):
    """One alternation over all question rows at once.

    Rows carry individual step sizes from their masked designs.  Concept
    coordinates take the non-negative soft threshold; the trailing
    difficulty coordinate is neither shrunk nor clamped.  A final
    accept-if-improved comparison against the incoming rows keeps the
    outer objective non-increasing even with few inner iterations.  The
    workspace's cache holds the cell log-likelihoods of the incoming rows
    on entry and of the returned rows on exit.
    """
    d = W_aug.shape[1]
    t = (1.0 / _row_lipschitz(C_aug, work, mu_w, link))[:, None]
    lam_t = lam * t

    f_old = _row_objectives(W_aug, work.cached(), lam, mu_w)
    x_prev = W_aug
    u = W_aug.copy()
    tau = 1.0
    for _ in range(iters):
        x = u - t * _row_gradient(u, C_aug, work, mu_w, link)
        x[:, : d - 1] = np.maximum(x[:, : d - 1] - lam_t, 0.0)
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    cell_ll = _log_lik_cells(np.matmul(x_prev, C_aug, out=work.slack), work, link)
    worse = _row_objectives(x_prev, cell_ll, lam, mu_w) > f_old
    if worse.any():
        x_prev[worse] = W_aug[worse]
    work.accept(worse[:, None])
    return x_prev


def _phase_c(C, W_aug, work, gamma, link, iters):
    """One alternation over all learner columns at once; the ridge term
    enters through the rescaling prox, so no sign constraint applies.
    The accept-if-improved guard and the cache work as in _phase_w."""
    t = 1.0 / _col_lipschitz(W_aug[:, :-1], work, link)  # (N,)
    shrink = 1.0 + gamma * t

    f_old = _col_objectives(C, work.cached(), gamma)
    x_prev = C
    u = C.copy()
    tau = 1.0
    for _ in range(iters):
        x = (u - t * _col_gradient(u, W_aug, work, link)) / shrink
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    cell_ll = _log_lik_cells(_col_slack(x_prev, W_aug, work), work, link)
    worse = _col_objectives(x_prev, cell_ll, gamma) > f_old
    if worse.any():
        x_prev[:, worse] = C[:, worse]
    work.accept(worse)
    return x_prev


def _run_restart(data, K, config, seed_seq):
    rng = np.random.default_rng(seed_seq)
    Q, N = data.Q, data.N
    W_aug = np.empty((Q, K + 1))
    W_aug[:, :K] = np.abs(rng.standard_normal((Q, K)))
    W_aug[:, K] = rng.standard_normal(Q)
    C = rng.standard_normal((K, N))
    ones = np.ones((1, N))

    work = _Workspace(data.observed, W_aug, np.vstack([C, ones]), config.link)
    objs = [work.objective(W_aug, C, config)]
    for _ in range(config.max_outer):
        C = _phase_c(C, W_aug, work, config.gamma_c, config.link,
                     config.inner_iters)
        C_aug = np.vstack([C, ones])
        W_aug = _phase_w(W_aug, C_aug, work, config.lambda_l1,
                         config.mu_w, config.link, config.inner_iters)
        objs.append(work.objective(W_aug, C, config))
        decrease = objs[-2] - objs[-1]
        if decrease < config.outer_tol * max(1.0, abs(objs[-2])):
            break
    return W_aug, C, np.asarray(objs)


def fit_ml(data: ResponseMatrix, K: int, config: MLConfig, n_threads: int = 1):
    """Fit the sparse factorization by alternating convex subproblems.

    Runs config.restarts random initializations (deterministically seeded
    from config.seed) and returns the model with the smallest final
    objective together with its objective trace.  The restarts run on
    n_threads threads only when the matrix has at least
    _SERIAL_RESTART_CELLS[config.link] cells; the result is the same
    either way.

    Returns
    -------
    (FactorModel, FitTrace)
    """
    if data.n_observed == 0:
        raise ValueError("cannot fit: no observed responses")
    Dimensions(data.Q, data.N, K)
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    data.observed  # build the shared view before restarts start on threads

    if (n_threads > 1 and config.restarts > 1
            and data.Q * data.N >= _SERIAL_RESTART_CELLS[config.link]):
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(
                pool.map(lambda s: _run_restart(data, K, config, s), seeds)
            )
    else:
        results = [_run_restart(data, K, config, s) for s in seeds]

    best = min(range(len(results)), key=lambda r: results[r][2][-1])
    W_aug, C, objs = results[best]
    model = FactorModel(W_aug[:, :K], C, W_aug[:, K], config.link)
    trace = FitTrace(
        objectives=objs,
        final_objective=float(objs[-1]),
        n_outer=len(objs) - 1,
        restart_index=best,
    )
    return model, trace


def pick_min_bic(candidates):
    """Select (lambda, bic) with the smallest bic; ties go to the larger
    lambda (the sparser model)."""
    best_lam, best_bic = None, None
    for lam, bic in candidates:
        if best_bic is None or bic < best_bic or (bic == best_bic and lam > best_lam):
            best_lam, best_bic = lam, bic
    if best_lam is None:
        raise ValueError("empty candidate list")
    return best_lam


@dataclass(frozen=True)
class LambdaSelection:
    """Outcome of choosing the sparsity weight by BIC.

    lambda_l1 : the chosen weight; model and trace are its fit, as fit_ml
        returns them for that weight.
    table : one row per distinct candidate in increasing order of lambda,
        each a dict with keys lambda, log_likelihood, df, bic and n_outer.
    """

    lambda_l1: float
    model: FactorModel
    trace: FitTrace
    table: tuple


def bic_select_lambda(data: ResponseMatrix, K: int, lambda_grid, config: MLConfig,
                      n_threads: int = 1) -> LambdaSelection:
    """Pick the sparsity weight minimizing an information criterion.

    Each distinct candidate gets one full fit (same seed, restarts on
    n_threads threads), and the winner's fit is returned with the choice.
    The criterion is -2 log-likelihood + df * log(n_observed) with df
    counting the active concept weights, all of C, and the Q difficulties;
    the df convention is documented rather than canonical.  Warns when
    the choice is the smallest or largest of several candidates, where
    the grid may not bracket the optimum.
    """
    lambda_grid = sorted(set(float(lam) for lam in lambda_grid))
    if not lambda_grid:
        raise ValueError("lambda grid is empty")
    n_obs = data.n_observed
    fits, table = {}, []
    for lam in lambda_grid:
        cfg = dataclasses.replace(config, lambda_l1=lam)
        model, trace = fit_ml(data, K, cfg, n_threads=n_threads)
        ll = log_likelihood(model, data)
        df = int(np.count_nonzero(model.W)) + K * data.N + data.Q
        bic = float(-2.0 * ll + df * np.log(n_obs))
        fits[lam] = (model, trace)
        table.append({"lambda": lam, "log_likelihood": ll, "df": df, "bic": bic,
                      "n_outer": trace.n_outer})
    chosen = pick_min_bic([(row["lambda"], row["bic"]) for row in table])
    if len(lambda_grid) > 1 and chosen in (lambda_grid[0], lambda_grid[-1]):
        edge = "smallest" if chosen == lambda_grid[0] else "largest"
        warnings.warn(
            f"BIC chose lambda={chosen!r}, the {edge} value of the grid; "
            "the grid may not bracket the best weight",
            stacklevel=2,
        )
    return LambdaSelection(chosen, *fits[chosen], tuple(table))

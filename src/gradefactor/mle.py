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
import warnings
from dataclasses import dataclass

import numpy as np

from .links import LinkKind, hazard, log_inv_link, scalar_lipschitz
from .model import Dimensions, FactorModel, ResponseMatrix, log_likelihood

_L_FLOOR = 1e-12


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

    lambda_l1, gamma_c, mu_w and outer_tol must be finite.
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


@dataclass
class FitTrace:
    """Objective values per outer iteration of the winning restart.

    The first entry is the objective at initialization.  With the default
    configuration the sequence is non-increasing (up to float roundoff).
    """

    objectives: np.ndarray
    final_objective: float
    n_outer: int
    restart_index: int


def nonneg_soft_threshold(x, thresh):
    """Proximal step of thresh * ||x||_1 restricted to x >= 0."""
    return np.maximum(np.asarray(x, dtype=float) - thresh, 0.0)


def ridge_rescale(x, gamma_t):
    """Proximal step of (gamma_t / 2) * ||x||^2: plain shrinkage."""
    return np.asarray(x, dtype=float) / (1.0 + gamma_t)


def _sigma_sq_max(mat):
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0.0
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.T
    else:
        gram = mat.T @ mat
    return float(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def lipschitz_row(C_sub, mu_w, link: LinkKind) -> float:
    """Gradient Lipschitz constant for one question-row subproblem."""
    C_sub = np.asarray(C_sub, dtype=float)
    if C_sub.size == 0:
        raise ValueError("design matrix is empty")
    return scalar_lipschitz(link) * _sigma_sq_max(C_sub) + mu_w


def lipschitz_col(W_sub, link: LinkKind) -> float:
    """Gradient Lipschitz constant for one learner-column subproblem."""
    W_sub = np.asarray(W_sub, dtype=float)
    if W_sub.size == 0:
        raise ValueError("design matrix is empty")
    return scalar_lipschitz(link) * _sigma_sq_max(W_sub)


def grad_w_row(w_aug, C_aug, y_row, mask_row, mu_w, link: LinkKind):
    """Gradient of the smooth part (log-likelihood + ridge) in one w row.

    C_aug carries the all-ones difficulty row; mask_row restricts the sum
    to observed learners.
    """
    w_aug = np.asarray(w_aug, dtype=float)
    mask_row = np.asarray(mask_row, dtype=bool)
    if not mask_row.any():
        return mu_w * w_aug
    C_sub = np.asarray(C_aug, dtype=float)[:, mask_row]
    s = 2.0 * np.asarray(y_row, dtype=float)[mask_row] - 1.0
    z = C_sub.T @ w_aug
    return -C_sub @ (s * hazard(s * z, link)) + mu_w * w_aug


def grad_c_col(c, W_aug, y_col, mask_col, link: LinkKind):
    """Gradient of the log-likelihood in one learner column (ridge handled
    by the proximal step, so it is not included here)."""
    c = np.asarray(c, dtype=float)
    mask_col = np.asarray(mask_col, dtype=bool)
    W_aug = np.asarray(W_aug, dtype=float)
    if not mask_col.any():
        return np.zeros_like(c)
    W_sub = W_aug[mask_col, :-1]
    mu_sub = W_aug[mask_col, -1]
    s = 2.0 * np.asarray(y_col, dtype=float)[mask_col] - 1.0
    z = W_sub @ c + mu_sub
    return -W_sub.T @ (s * hazard(s * z, link))


def objective_row(w_aug, C_aug, y_row, mask_row, lam, mu_w, link: LinkKind,
                  free_last=True):
    """Full subproblem objective F1 for one question row; +inf outside the
    non-negativity constraint."""
    w_aug = np.asarray(w_aug, dtype=float)
    con = w_aug[:-1] if free_last else w_aug
    if (con < 0).any():
        return float("inf")
    mask_row = np.asarray(mask_row, dtype=bool)
    nll = 0.0
    if mask_row.any():
        C_sub = np.asarray(C_aug, dtype=float)[:, mask_row]
        s = 2.0 * np.asarray(y_row, dtype=float)[mask_row] - 1.0
        nll = -float(log_inv_link(s * (C_sub.T @ w_aug), link).sum())
    return nll + lam * float(np.abs(con).sum()) + 0.5 * mu_w * float(w_aug @ w_aug)


def objective_col(c, W_aug, y_col, mask_col, gamma, link: LinkKind):
    """Full subproblem objective F2 for one learner column."""
    c = np.asarray(c, dtype=float)
    mask_col = np.asarray(mask_col, dtype=bool)
    nll = 0.0
    if mask_col.any():
        W_aug = np.asarray(W_aug, dtype=float)
        W_sub = W_aug[mask_col, :-1]
        mu_sub = W_aug[mask_col, -1]
        s = 2.0 * np.asarray(y_col, dtype=float)[mask_col] - 1.0
        nll = -float(log_inv_link(s * (W_sub @ c + mu_sub), link).sum())
    return nll + 0.5 * gamma * float(c @ c)


def solve_w_row(w0, C_aug, y_row, mask_row, lam, mu_w, link: LinkKind,
                iters, free_last=True):
    """Accelerated proximal gradient on one question row.

    Constant step 1/L1.  Concept coordinates are shrunk with the
    non-negative soft threshold; when free_last is set the trailing
    difficulty coordinate is left unshrunk and unclamped.
    """
    w0 = np.asarray(w0, dtype=float).copy()
    if iters == 0:
        return w0
    mask_row = np.asarray(mask_row, dtype=bool)
    if mask_row.any():
        L = lipschitz_row(np.asarray(C_aug, dtype=float)[:, mask_row], mu_w, link)
    else:
        L = mu_w
    t = 1.0 / max(L, _L_FLOOR)
    ncon = w0.shape[0] - 1 if free_last else w0.shape[0]
    x_prev = w0
    u = w0.copy()
    tau = 1.0
    for _ in range(iters):
        x_hat = u - t * grad_w_row(u, C_aug, y_row, mask_row, mu_w, link)
        x = x_hat.copy()
        x[:ncon] = nonneg_soft_threshold(x_hat[:ncon], lam * t)
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    return x_prev


def solve_c_col(c0, W_aug, y_col, mask_col, gamma, link: LinkKind, iters):
    """Accelerated proximal gradient on one learner column; the ridge term
    enters through the rescaling prox, so no sign constraint applies."""
    c0 = np.asarray(c0, dtype=float).copy()
    if iters == 0:
        return c0
    mask_col = np.asarray(mask_col, dtype=bool)
    W_aug = np.asarray(W_aug, dtype=float)
    if mask_col.any():
        L = lipschitz_col(W_aug[mask_col, :-1], link)
    else:
        L = 0.0
    t = 1.0 / max(L, _L_FLOOR)
    x_prev = c0
    u = c0.copy()
    tau = 1.0
    for _ in range(iters):
        x_hat = u - t * grad_c_col(u, W_aug, y_col, mask_col, link)
        x = ridge_rescale(x_hat, gamma * t)
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    return x_prev


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
    pen = (
        config.lambda_l1 * float(np.abs(W_aug[:, :K]).sum())
        + 0.5 * config.mu_w * float((W_aug * W_aug).sum())
        + 0.5 * config.gamma_c * float((C * C).sum())
    )
    return nll + pen


# The batched kernels below take the observed cells `obs` of the response
# matrix and a Q x N scratch array `buf` that is zero at every unobserved
# cell.  The slack Z stays a dense matmul; the link kernels run on the
# observed cells only, and their results are scattered into `buf`, whose
# unobserved cells stay zero, so masked gradients and per-row or
# per-column sums are plain dense operations on it.


def _log_lik_cells(Z, obs, buf, link):
    """buf with the log-likelihood of each observed cell under slack Z."""
    return obs.scatter(buf, log_inv_link(obs.sign * obs.gather(Z), link))


def _residual_cells(Z, obs, buf, link):
    """buf with s * hazard(s * z) at each observed cell: minus the
    derivative of the log-likelihood in the slack."""
    s = obs.sign
    return obs.scatter(buf, s * hazard(s * obs.gather(Z), link))


def _row_objectives(W_aug, C_aug, obs, buf, lam, mu_w, link):
    nll = -_log_lik_cells(W_aug @ C_aug, obs, buf, link).sum(axis=1)
    l1 = np.abs(W_aug[:, :-1]).sum(axis=1)
    l2 = (W_aug * W_aug).sum(axis=1)
    return nll + lam * l1 + 0.5 * mu_w * l2


def _col_objectives(C, W_aug, obs, buf, gamma, link):
    Z = W_aug[:, :-1] @ C + W_aug[:, -1][:, None]
    nll = -_log_lik_cells(Z, obs, buf, link).sum(axis=0)
    return nll + 0.5 * gamma * (C * C).sum(axis=0)


def _phase_w(W_aug, C_aug, obs, buf, lam, mu_w, link, iters):
    """One alternation over all question rows at once.

    Rows carry individual step sizes from their masked designs.  A final
    accept-if-improved comparison against the incoming rows keeps the
    outer objective non-increasing even with few inner iterations.
    """
    Q, d = W_aug.shape
    maskf = obs.scatter(buf, 1.0)  # buf as the float observation mask
    # per-row Gram sum_j mask[i, j] c_j c_j^T: one matmul of the stacked
    # outer products with the mask, the contraction einsum("kj,ij,lj->ikl",
    # optimize=True) runs, without its per-call path search; einsum's
    # operand order keeps the result bitwise equal
    outer = (C_aug[:, None, :] * C_aug[None, :, :]).reshape(d * d, -1)
    gram = (outer @ maskf.T).T.reshape(Q, d, d)
    sig2 = np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None)
    L = np.maximum(scalar_lipschitz(link) * sig2 + mu_w, _L_FLOOR)
    t = (1.0 / L)[:, None]
    lam_t = lam * t

    f_old = _row_objectives(W_aug, C_aug, obs, buf, lam, mu_w, link)
    x_prev = W_aug
    u = W_aug.copy()
    tau = 1.0
    for _ in range(iters):
        resid = _residual_cells(u @ C_aug, obs, buf, link)
        grad = -resid @ C_aug.T + mu_w * u
        x = u - t * grad
        x[:, : d - 1] = np.maximum(x[:, : d - 1] - lam_t, 0.0)
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    f_new = _row_objectives(x_prev, C_aug, obs, buf, lam, mu_w, link)
    worse = f_new > f_old
    if worse.any():
        x_prev[worse] = W_aug[worse]
    return x_prev


def _phase_c(C, W_aug, obs, buf, gamma, link, iters):
    """One alternation over all learner columns at once."""
    W = W_aug[:, :-1]
    mu = W_aug[:, -1][:, None]
    (Q, K), N = W.shape, C.shape[1]
    maskf = obs.scatter(buf, 1.0)  # buf as the float observation mask
    # per-column Gram as in _phase_w: einsum("ik,ij,il->jkl") as one matmul
    outer = (W.T[:, None, :] * W.T[None, :, :]).reshape(K * K, Q)
    gram = (outer @ maskf).T.reshape(N, K, K)
    sig2 = np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None)
    L = np.maximum(scalar_lipschitz(link) * sig2, _L_FLOOR)
    t = 1.0 / L  # (N,)
    shrink = 1.0 + gamma * t

    f_old = _col_objectives(C, W_aug, obs, buf, gamma, link)
    x_prev = C
    u = C.copy()
    tau = 1.0
    for _ in range(iters):
        resid = _residual_cells(W @ u + mu, obs, buf, link)
        grad = -W.T @ resid
        x = (u - t * grad) / shrink
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    f_new = _col_objectives(x_prev, W_aug, obs, buf, gamma, link)
    worse = f_new > f_old
    if worse.any():
        x_prev[:, worse] = C[:, worse]
    return x_prev


def _run_restart(data, K, config, seed_seq):
    rng = np.random.default_rng(seed_seq)
    Q, N = data.Q, data.N
    W_aug = np.empty((Q, K + 1))
    W_aug[:, :K] = np.abs(rng.standard_normal((Q, K)))
    W_aug[:, K] = rng.standard_normal(Q)
    C = rng.standard_normal((K, N))

    obs = data.observed
    # scratch for the kernels; one per restart because restarts may run
    # on a thread pool
    buf = np.zeros((Q, N))
    ones = np.ones((1, N))

    objs = [objective_value(W_aug, C, data, config)]
    for _ in range(config.max_outer):
        C = _phase_c(C, W_aug, obs, buf, config.gamma_c, config.link,
                     config.inner_iters)
        C_aug = np.vstack([C, ones])
        W_aug = _phase_w(W_aug, C_aug, obs, buf, config.lambda_l1,
                         config.mu_w, config.link, config.inner_iters)
        objs.append(objective_value(W_aug, C, data, config))
        decrease = objs[-2] - objs[-1]
        if decrease < config.outer_tol * max(1.0, abs(objs[-2])):
            break
    return W_aug, C, np.asarray(objs)


def fit_ml(data: ResponseMatrix, K: int, config: MLConfig, n_threads: int = 1):
    """Fit the sparse factorization by alternating convex subproblems.

    Runs config.restarts random initializations (deterministically seeded
    from config.seed) and returns the model with the smallest final
    objective together with its objective trace.

    Returns
    -------
    (FactorModel, FitTrace)
    """
    if data.n_observed == 0:
        raise ValueError("cannot fit: no observed responses")
    Dimensions(data.Q, data.N, K)
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    data.observed  # build the shared view before restarts start on threads

    if n_threads > 1 and config.restarts > 1:
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

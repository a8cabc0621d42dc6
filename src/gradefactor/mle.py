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
import warnings
from dataclasses import dataclass

import numpy as np

from .links import LinkKind, hazard, log_inv_link, scalar_lipschitz
from .model import (FactorModel, ResponseMatrix, check_count, check_dimensions,
                    check_observed, check_real, log_likelihood, masked_gram)

_L_FLOOR = 1e-12
# the members of one fit (its restarts, and with a lambda grid every
# (lambda, restart) pair) advance together as stacks of at most this many
# cells (B * Q * N), or of one member when it alone is larger.  A stack of
# small members makes one kernel call where each would make its own: per
# member, 8 logit members of 34 x 99 took 15 ms where one alone took 23
# (8 outer iterations, K = 5).  Larger stacks spill the workspace out of
# cache: 2 members of 32k cells took 2-21% longer each than one alone.
_BATCH_CELLS = 32_768
# a fit splits its members into stacks for a thread pool only while each
# stack keeps at least this many cells: a smaller one spends its steps
# mostly in Python overhead under the interpreter lock, so a second
# thread adds contention, not speed.  Probit breaks even near 6000 cells:
# with BLAS on one thread, K = 5, lambda 1 and 25 outer iterations, the
# split on 2 threads against one stack on the calling thread (medians of
# 7 alternating rounds) ran 2 restarts at 50 x 50 in 0.243 / 0.163 s
# against 0.157 / 0.109 s (faster in 0 and 1 of 7), at 60 x 60 0.238 s
# against 0.162 s (0 of 7), at 70 x 80 0.272 s against 0.269 s (2 of 7),
# and BIC over 4 lambdas x 2 restarts at 20 x 50 (two stacks of 4000
# cells) 0.238 s against 0.238 s (2 of 7).  It paid from 8000 cells: 2
# restarts at 80 x 100 0.406 / 0.327 / 0.308 s against 0.393 / 0.362 /
# 0.371 s (5, 7 and 5 of 7), at 100 x 120 0.370 s against 0.519 s (6 of
# 7), at 100 x 160 0.487 / 0.448 s against 0.681 / 0.675 s, and BIC at
# 34 x 99 0.437 / 0.394 / 0.425 s against 0.668 / 0.558 / 0.638 s (7 of
# 7 in each set) and at 40 x 50 0.301 / 0.300 s against 0.362 / 0.382 s
# (7 and 6 of 7); 3 restarts at 60 x 100, split into stacks of 12000 and
# 6000 cells, broke even (0.433 / 0.369 s against 0.427 / 0.372 s, 4 of
# 7 each).  No logit split measured paid, its cheaper kernels releasing
# the lock for less time: with BLAS on one thread, 5 BIC fits of 34 x 99
# (4 lambdas x 2 restarts, 25 outer iterations) ran faster as one stack
# of 8 on 1 thread than as two stacks of 4 (13464 cells each) on 2
# threads in 20 of 28 alternating rounds (medians 1.02 / 0.96 / 1.13 s
# against 1.06 / 1.12 / 1.20 s in three sets), as did restarts in one
# stack against one per thread (15 outer iterations): 2 at 80 x 100 and
# at 100 x 160 in 7 of 7 rounds each, 3 at 100 x 100 in 5 of 7.
_SERIAL_RESTART_CELLS = {LinkKind.PROBIT: 8_000, LinkKind.LOGIT: 16_384}
# both halves of an ML phase run block by block of rows, each block at
# most this many cells (512 KiB) of every member, instead of as dense
# B x Q x N arrays written out to memory and read back at the observed
# cells.  The slack half forms each block's product and gathers its
# observed cells while it is still in cache.  The residual half scatters
# a block's per-cell values into a block of zeros and multiplies or sums
# that.  One slack evaluation (mean of the row and column phases' forms)
# at 1000 x 2000, K = 5, p_obs 0.1, BLAS on one thread, medians of 15
# alternating rounds in each of 4 runs: the dense product and gather took
# 3.1-3.2 ms; blocks of 2^13 ... 2^18 cells 2.8-3.7, 2.1-2.4, 1.6-2.0,
# 1.4-1.9, 1.4-1.8 and 2.2-2.5 ms (a 2 MiB L2 cache per core).  At
# 400 x 1000 the dense form took 0.59 ms and 2^15 ... 2^18 cells 0.35,
# 0.32, 0.29 and 0.44 ms; at 1000 x 2000, p_obs 0.3, 3.9 ms and 2.2, 2.0,
# 1.9 and 3.0 ms.  The residual half's row and column gradient products
# (scatter included, medians of 7 rounds, same box) at 1000 x 2000, p_obs
# 0.1: dense 2.7 and 2.2 ms; 2^14 ... 2^18 cells 2.0 / 2.1, 1.5 / 1.4-1.5,
# 1.4 / 1.2-1.3, 1.5-1.6 / 1.4 and 2.9-3.1 / 2.4-3.0 ms.  At 400 x 1000:
# dense 0.50 / 0.43 ms, blocks 0.39 / 0.38, 0.34 / 0.32, 0.28 / 0.24,
# 0.33 / 0.30 and 0.48 / 0.44 ms; at 1000 x 2000, p_obs 0.3, dense 3.3 /
# 2.8 ms, blocks 3.3 / 3.5, 2.7 / 2.7, 2.7 / 2.6, 2.7 / 2.4 and 4.4 / 3.8.
# 2^16 and 2^17 tie; the smaller keeps the workspace smaller, and every
# multi-member stack (_BATCH_CELLS) stays one block.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
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

    lambda_l1 and gamma_c must be finite and positive, mu_w and outer_tol
    finite and non-negative, inner_iters, max_outer and restarts integers
    >= 1, and seed an integer >= 0.
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
        check_real("lambda_l1", self.lambda_l1, positive=True)
        check_real("gamma_c", self.gamma_c, positive=True)
        check_real("mu_w", self.mu_w)
        check_real("outer_tol", self.outer_tol)
        for name in ("inner_iters", "max_outer", "restarts"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, minimum=0)
        if not isinstance(self.link, LinkKind):
            raise TypeError("link must be a LinkKind")


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


def _penalty(W_aug, C, lam, config: MLConfig) -> float:
    """The l1 (weight lam) and ridge terms of the overall objective."""
    K = C.shape[0]
    return (
        lam * float(np.abs(W_aug[:, :K]).sum())
        + 0.5 * config.mu_w * float((W_aug * W_aug).sum())
        + 0.5 * config.gamma_c * float((C * C).sum())
    )


def objective_value(W_aug, C, data: ResponseMatrix, config: MLConfig) -> float:
    """Overall objective: the negative observed log-likelihood plus
    penalties; the fit's own objective comes from its workspace cache, and
    this is its oracle.

    W_aug is Q x (K+1) with the difficulty offsets in the last column.
    Raises if any concept weight is negative (the feasible set excludes it).
    """
    W_aug = np.asarray(W_aug, dtype=float)
    K = np.shape(C)[0]
    if W_aug.shape[1] != K + 1:
        raise ValueError("W_aug must have one more column than C has rows")
    model = FactorModel(W_aug[:, :K], C, W_aug[:, K], config.link)
    return (-log_likelihood(model, data)
            + _penalty(W_aug, model.C, config.lambda_l1, config))


class _Workspace:
    """The arrays one stack of members' kernels work in, allocated once, so
    that no step of the outer iteration allocates a Q x N or n_observed
    array.  Fresh Q x N temporaries in every kernel call cost their pages'
    faults afresh: about 358k minor faults per ml-full benchmark operation
    (4 fits of 200 x 300, 10 outer iterations), against 2k with this.

    A stack of B members holds their W_aug stacked as (B*Q) x (K+1) and
    their C_aug as (K+1) x (B*N), member m in rows m*Q... and columns
    m*N...; each B x ... array below has one matrix or row per member.
    Beyond its observed cells and their indices, a stack holds two blocks
    of cells, scratch and resid: a fit forms no dense B x Q x N array
    unless every cell is observed.

    obs : the observed cells of the response matrix.
    cells : B x n_observed, the observed cells of the slack of the
        iterate being evaluated, filled block by block (no Q x N slack is
        formed), which the link kernels sign and then overwrite with their
        values in place.
    loglik : B x n_observed, the log-likelihood of each observed cell at
        the current iterate.  Each phase reads its incoming objective from
        it and evaluates the link once, at its end point.
    scratch : room for one block of the slack: the same rows of every
        member, as many as fit in _BLOCK_CELLS cells but at least two, and
        one more in a last block that a single leftover row joins.
    resid : room for one block of a per-cell value laid out as the dense
        B x rows x N block it belongs to: a gradient's residual, the
        log-likelihoods of the row sums, or the 0/1 mask of a step size.
        It is zero at every cell but the observed cells of the block in
        use.  A stack of one block only ever writes its observed cells, so
        it is never zeroed again; a plan of several blocks zeroes each
        block's observed cells once it is done with them.  Kept apart from
        scratch, which holds whole slack blocks.
    plan : one (lo, hi, cells, index) per block of rows lo:hi that holds
        an observed cell, in order; blocks with none are skipped.  index
        is B x n_block: the flat positions of the block's observed cells
        within the B x (hi - lo) x N block, member m's in its row m, so a
        stack of fewer members reads its first rows.  A block's slack goes
        into scratch and its observed cells are gathered into
        cells[:, cells] while the block is still in cache; the same
        positions scatter a per-cell value into resid.  Found once, with
        searchsorted on obs.index.  A stack of at most _BLOCK_CELLS cells,
        every multi-member stack among them, is one block: one batched
        product, as a dense slack was.
    row_counts : observed cells per row, which expand rejected rows to
        their cells.
    cols : B * n_observed stacked column ids (member m's columns m*N...)
        of the cells, which expand rejected columns to their cells and
        give the column sums through bincount.

    When every cell is observed, plan, scratch, resid, row_counts and
    cols are None: the cells are then the dense stack itself, each product
    is written straight into them and each dense step reads them in place,
    and ones, a Q x N array of ones, is the float mask.

    The cache starts at the slack W_aug @ C_aug of the first iterate,
    C_aug being C with a trailing all-ones row.  One workspace per stack,
    because stacks may run on a thread pool.
    """

    def __init__(self, obs, W_aug, C_aug, link):
        Q, N = obs.shape
        B = W_aug.shape[0] // Q
        self.obs = obs
        self.cells = np.empty((B,) + obs.sign.shape)
        self.loglik = np.empty((B,) + obs.sign.shape)
        self.scratch = self.resid = self.plan = self.row_counts = None
        self.cols = self.ones = None
        if isinstance(obs.index, slice):
            self.ones = np.ones((Q, N))
        else:
            # a block of one row would be a matrix-vector product, whose
            # sums round differently from a matrix product's: a last row
            # left over joins the block before it
            rows = min(Q, max(2, _BLOCK_CELLS // (B * N)))
            bounds = np.append(np.arange(0, max(Q - 1, 1), rows), Q)
            starts = np.searchsorted(obs.index, np.arange(Q + 1) * N)
            self.row_counts = np.diff(starts)
            size = B * int(np.diff(bounds).max()) * N
            self.scratch, self.resid = np.empty(size), np.zeros(size)
            members = np.arange(B)[:, None]
            self.plan = [(lo, hi, slice(a, b),
                          members * ((hi - lo) * N) + (obs.index[a:b] - lo * N))
                         for lo, hi, a, b in zip(bounds[:-1], bounds[1:],
                                                 starts[bounds[:-1]],
                                                 starts[bounds[1:]]) if b > a]
            self.cols = np.remainder(obs.index, N)
            if B > 1:
                self.cols = (self.cols + members * N).reshape(-1)
        _log_lik_cells(_slack(W_aug, C_aug, self), self, link)
        self.cells, self.loglik = self.loglik, self.cells

    def blocks(self, values):
        """(lo, hi, R) for each block of rows lo:hi of the plan in turn, R
        the B x (hi - lo) x N block holding values (B x n_observed, or 1.0
        for the float mask) at its observed cells and zero at the others.
        R is only good until the next block is made."""
        B, (Q, N) = len(self.cells), self.obs.shape
        if self.plan is None:
            yield 0, Q, values.reshape(B, Q, N) if np.ndim(values) else self.ones[None]
            return
        for lo, hi, dest, index in self.plan:
            R, index = self.resid[:B * (hi - lo) * N], index[:B]
            R[index] = values[:, dest] if np.ndim(values) else values
            yield lo, hi, R.reshape(B, hi - lo, N)
            if len(self.plan) > 1:
                R[index] = 0.0

    def row_grams(self, A):
        """masked_gram(A, mask) for the float mask of the response matrix,
        formed block by block of rows: A is d x (B*N), and the result has
        one d x d Gram per row of every member, B*Q in all."""
        B, Q, d = len(self.cells), self.obs.shape[0], len(A)
        grams = np.zeros((B, Q, d, d))
        for lo, hi, R in self.blocks(1.0):
            grams[:, lo:hi] = masked_gram(A, R[0]).reshape(B, hi - lo, d, d)
        return grams.reshape(-1, d, d)

    def col_grams(self, A):
        """masked_gram(A, mask.T) for the float mask of the response
        matrix, summed over the blocks of rows: A is d x (B*Q), and the
        result has one d x d Gram per column of every member, B*N in all.
        A matrix product never returns -0.0, so a sum of one block is
        bitwise the block's."""
        B, (Q, N), d = len(self.cells), self.obs.shape, len(A)
        A = A.reshape(d, B, Q)
        grams = np.zeros((B * N, d, d))
        for lo, hi, R in self.blocks(1.0):
            grams += masked_gram(A[:, :, lo:hi].reshape(d, -1), R[0].T)
        return grams

    def objective(self, m, W_aug, C, lam, config):
        """objective_value at member m's (W_aug, C) and l1 weight lam, whose
        cells the cache holds; both sum the observed cells in the same
        order."""
        return -float(self.loglik[m].sum()) + _penalty(W_aug, C, lam, config)

    def accept(self, rejected, axis):
        """Cache the cell log-likelihoods of a phase's end point, which
        cells holds, except in the rows (axis 0, rejected B x Q) or the
        columns (axis 1, rejected B x N) where the boolean rejected is set:
        those were put back to the incoming iterate, whose cached cells
        stay."""
        if rejected.any():
            B, (Q, N) = len(rejected), self.obs.shape
            if self.plan is None:  # rows as B x Q x 1, columns as B x 1 x N
                where = np.broadcast_to(np.expand_dims(rejected, 2 - axis), (B, Q, N))
            elif axis == 0:
                where = np.repeat(rejected, self.row_counts, axis=1)
            else:
                where = rejected.reshape(-1)[self.cols[:self.cells.size]]
            np.copyto(self.cells, self.loglik, where=where.reshape(self.cells.shape))
        self.cells, self.loglik = self.loglik, self.cells

    def keep(self, members):
        """Shrink the stack to the members at the given increasing
        positions, their cached cells moved to the front in order."""
        n = len(members)
        self.loglik[:n] = self.loglik[members]
        self.loglik = self.loglik[:n]
        self.cells = self.cells[:n]


def _row_blocks(A, rows):
    """A stack of members' blocks of `rows` rows as a B x rows x cols view."""
    return A.reshape(-1, rows, A.shape[1])


def _col_blocks(A, cols):
    """A stack of members' blocks of `cols` columns as a B x rows x cols
    view."""
    return A.reshape(A.shape[0], -1, cols).transpose(1, 0, 2)


def _fill_cells(work, product):
    """work.cells filled with the observed cells of a stack's slack, block
    by block of work.plan: product(lo, hi, out) writes rows lo:hi of every
    member's slack into out, a B x (hi - lo) x N array."""
    cells = work.cells
    B, (Q, N) = len(cells), work.obs.shape
    if work.plan is None:
        product(0, Q, cells.reshape(B, Q, N))
        return cells
    for lo, hi, dest, index in work.plan:
        product(lo, hi, work.scratch[:B * (hi - lo) * N].reshape(B, hi - lo, N))
        # clip mode: the default mode buffers the result in a temporary
        np.take(work.scratch, index[:B], out=cells[:, dest], mode="clip")
    return cells


def _slack(W_aug, C_aug, work):
    """work.cells filled with the observed cells of each member's
    W_aug @ C_aug."""
    Q, N = work.obs.shape
    W, C = _row_blocks(W_aug, Q), _col_blocks(C_aug, N)
    return _fill_cells(work, lambda lo, hi, out: np.matmul(W[:, lo:hi], C, out=out))


def _col_slack(C, W_aug, work):
    """work.cells filled with the observed cells of W C + mu: the slack as
    the column phase forms it."""
    Q, N = work.obs.shape
    W, mu = _row_blocks(W_aug[:, :-1], Q), _row_blocks(W_aug[:, -1:], Q)
    C = _col_blocks(C, N)

    def product(lo, hi, out):
        np.matmul(W[:, lo:hi], C, out=out)
        out += mu[:, lo:hi]
    return _fill_cells(work, product)


def _log_lik_cells(z, work, link):
    """z, work.cells holding the slack at the observed cells, overwritten
    with the log-likelihood of each."""
    z *= work.obs.sign
    return log_inv_link(z, link, out=z)


def _residual_cells(z, work, link):
    """z, work.cells holding the slack at the observed cells, overwritten
    with s * hazard(s * z) at each: minus the derivative of the
    log-likelihood in the slack."""
    z *= work.obs.sign
    cells = hazard(z, link, out=z)
    cells *= work.obs.sign
    return cells


def _row_objectives(W_aug, cell_ll, work, lam, mu_w):
    """Objective of every question row, from the B x n_observed
    log-likelihoods of the observed cells; lam is a scalar or one weight
    per row.  Each row's cells are summed as a dense row with zeros at the
    unobserved cells, bitwise."""
    nll = np.zeros((len(cell_ll), work.obs.shape[0]))
    for lo, hi, R in work.blocks(cell_ll):
        nll[:, lo:hi] = R.sum(axis=-1)
    l1 = np.abs(W_aug[:, :-1]).sum(axis=1)
    l2 = (W_aug * W_aug).sum(axis=1)
    return -nll.reshape(-1) + lam * l1 + 0.5 * mu_w * l2


def _col_objectives(C, cell_ll, work, gamma):
    """Objective of every learner column, from the B x n_observed
    log-likelihoods of the observed cells.  bincount adds each column's
    cells in row order, as a dense sum over the rows does, bitwise."""
    B, (Q, N) = len(cell_ll), work.obs.shape
    if work.plan is None:
        nll = cell_ll.reshape(B, Q, N).sum(axis=-2).reshape(-1)
    else:
        nll = np.bincount(work.cols[:cell_ll.size], weights=cell_ll.reshape(-1),
                          minlength=B * N)
    return -nll + 0.5 * gamma * (C * C).sum(axis=0)


def _lipschitz(A, maskf, ridge, link):
    """Gradient Lipschitz constant of the subproblem of every row of the
    float mask: the hazard constant times the largest eigenvalue of its
    masked Gram sum_j maskf[i, j] a_j a_j^T over the columns of A, plus
    ridge, floored at _L_FLOOR.  Question rows pass C_aug and the mask,
    learner columns W (without the difficulty column) transposed and the
    mask transposed.  maskf may instead be a function of A that gives the
    Grams, as a workspace's row_grams and col_grams do block by block."""
    gram = maskf(A) if callable(maskf) else masked_gram(A, maskf)
    sig2 = np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None)
    return np.maximum(scalar_lipschitz(link) * sig2 + ridge, _L_FLOOR)


def _row_gradient(W_aug, C_aug, work, mu_w, link):
    """Gradient of the smooth part (log-likelihood + ridge) in every row;
    zero likelihood part in a row with no observed cell."""
    Q, N = work.obs.shape
    resid = _residual_cells(_slack(W_aug, C_aug, work), work, link)
    C_t = _col_blocks(C_aug, N).transpose(0, 2, 1)
    grad = np.zeros((len(resid), Q, len(C_aug)))
    for lo, hi, R in work.blocks(resid):
        np.matmul(R, C_t, out=grad[:, lo:hi])
    # -(R @ C^T) is (-R) @ C^T bitwise, without a negated copy of R
    np.negative(grad, out=grad)
    return grad.reshape(W_aug.shape) + mu_w * W_aug


def _col_gradient(C, W_aug, work, link):
    """Gradient of the log-likelihood in every learner column; the ridge
    enters through the proximal step instead."""
    Q, N = work.obs.shape
    resid = _residual_cells(_col_slack(C, W_aug, work), work, link)
    W_t = (-_row_blocks(W_aug[:, :-1], Q)).transpose(0, 2, 1)
    grad = np.zeros(C.shape)
    out = _col_blocks(grad, N)
    for i, (lo, hi, R) in enumerate(work.blocks(resid)):
        if i:
            out += W_t[:, :, lo:hi] @ R
        else:  # in place: a one-block stack adds nothing
            np.matmul(W_t[:, :, lo:hi], R, out=out)
    return grad


def _accelerated(x0, step, iters):
    """iters accelerated proximal-gradient (FISTA) iterations from x0,
    step(u) being one proximal-gradient step from u; returns the last
    iterate."""
    x_prev, u, tau = x0, x0, 1.0
    for _ in range(iters):
        x = step(u)
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        u = x + ((tau - 1.0) / tau_next) * (x - x_prev)
        x_prev, tau = x, tau_next
    return x_prev


def _phase_w(W_aug, C_aug, work, lam, mu_w, link, iters):
    """One alternation over all question rows at once.

    Rows carry individual step sizes from their masked designs, and lam is
    a scalar or one l1 weight per row.  Concept coordinates take the
    non-negative soft threshold; the trailing difficulty coordinate is
    neither shrunk nor clamped.  A final accept-if-improved comparison
    against the incoming rows keeps the outer objective non-increasing even
    with few inner iterations.  The workspace's cache holds the cell
    log-likelihoods of the incoming rows on entry and of the returned rows
    on exit.
    """
    t = 1.0 / _lipschitz(C_aug, work.row_grams, mu_w, link)
    lam_t = (lam * t)[:, None]
    t = t[:, None]
    f_old = _row_objectives(W_aug, work.loglik, work, lam, mu_w)

    def step(u):
        x = u - t * _row_gradient(u, C_aug, work, mu_w, link)
        x[:, :-1] = np.maximum(x[:, :-1] - lam_t, 0.0)
        return x

    x = _accelerated(W_aug, step, iters)
    cell_ll = _log_lik_cells(_slack(x, C_aug, work), work, link)
    worse = _row_objectives(x, cell_ll, work, lam, mu_w) > f_old
    if worse.any():
        x[worse] = W_aug[worse]
    work.accept(worse.reshape(-1, work.obs.shape[0]), 0)
    return x


def _phase_c(C, W_aug, work, gamma, link, iters):
    """One alternation over all learner columns at once; the ridge term
    enters through the rescaling prox, so no sign constraint applies.
    The step sizes, the accept-if-improved guard and the cache work as in
    _phase_w."""
    t = 1.0 / _lipschitz(W_aug[:, :-1].T, work.col_grams, 0.0, link)  # one per column
    shrink = 1.0 + gamma * t
    f_old = _col_objectives(C, work.loglik, work, gamma)

    def step(u):
        return (u - t * _col_gradient(u, W_aug, work, link)) / shrink

    x = _accelerated(C, step, iters)
    cell_ll = _log_lik_cells(_col_slack(x, W_aug, work), work, link)
    worse = _col_objectives(x, cell_ll, work, gamma) > f_old
    if worse.any():
        x[:, worse] = C[:, worse]
    work.accept(worse.reshape(-1, work.obs.shape[1]), 1)
    return x


def _run_stack(data, K, config, members):
    """Fit the members, each a (lambda, restart seed sequence) pair, as one
    stack through the same outer iterations.  Every member's numbers are
    bitwise those of a stack holding it alone: its rows and columns meet
    only its own in every product and sum, and it leaves the stack once
    its own objective stops decreasing by outer_tol.  Returns (W_aug, C,
    objectives) per member, in order."""
    Q, N, B = data.Q, data.N, len(members)
    W_aug = np.empty((B * Q, K + 1))
    C = np.empty((K, B * N))
    for m, (_, seed) in enumerate(members):
        rng = np.random.default_rng(seed)
        W_aug[m * Q:(m + 1) * Q, :K] = np.abs(rng.standard_normal((Q, K)))
        W_aug[m * Q:(m + 1) * Q, K] = rng.standard_normal(Q)
        C[:, m * N:(m + 1) * N] = rng.standard_normal((K, N))
    lams = [lam for lam, _ in members]
    lam = np.repeat(lams, Q)
    ones = np.ones((1, B * N))

    def member(i):
        return W_aug[i * Q:(i + 1) * Q], C[:, i * N:(i + 1) * N]

    work = _Workspace(data.observed, W_aug, np.vstack([C, ones]), config.link)
    objs = [[work.objective(m, *member(m), lams[m], config)] for m in range(B)]
    fits = [None] * B
    active = list(range(B))  # the member at each position of the stack
    for _ in range(config.max_outer):
        C = _phase_c(C, W_aug, work, config.gamma_c, config.link,
                     config.inner_iters)
        C_aug = np.vstack([C, ones[:, :C.shape[1]]])
        W_aug = _phase_w(W_aug, C_aug, work, lam, config.mu_w, config.link,
                         config.inner_iters)
        going = []
        for i, m in enumerate(active):
            objs[m].append(work.objective(i, *member(i), lams[m], config))
            decrease = objs[m][-2] - objs[m][-1]
            if decrease < config.outer_tol * max(1.0, abs(objs[m][-2])):
                fits[m] = member(i)
            else:
                going.append(i)
        if len(going) < len(active):
            active = [active[i] for i in going]
            if not active:
                break
            W_aug = _row_blocks(W_aug, Q)[going].reshape(-1, K + 1)
            C = C.reshape(K, -1, N)[:, going].reshape(K, -1)
            lam = lam.reshape(-1, Q)[going].reshape(-1)
            work.keep(going)
    for i, m in enumerate(active):
        fits[m] = member(i)
    return [(*fits[m], np.asarray(objs[m])) for m in range(B)]


def _chunks(n_members, cells, link, n_threads):
    """Deal member positions 0..n_members-1 round-robin into stacks.

    A stack holds at most max(1, _BATCH_CELLS // cells) members.  With
    n_threads > 1 the split grows to min(n_threads, n_members) stacks
    while each still holds at least _SERIAL_RESTART_CELLS[link] cells.
    Dealing, rather than cutting the (lambda, restart) order into runs,
    spreads the small lambdas, which run the most outer iterations, over
    the stacks.
    """
    n = -(-n_members // max(1, _BATCH_CELLS // cells))
    while (n < min(n_threads, n_members)
           and n_members // (n + 1) * cells >= _SERIAL_RESTART_CELLS[link]):
        n += 1
    return [np.arange(s, n_members, n) for s in range(n)]


def _fit_grid(data, K, config, lambdas, n_threads):
    """Fit every (lambda, restart) member, config.restarts random starts
    (seeded from config.seed, the same for every lambda) per lambda, and
    return each lambda's best restart as (model, trace), in order."""
    check_count("n_threads", n_threads)
    check_observed(data)
    check_dimensions(data.Q, data.N, K)
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    members = [(lam, seed) for lam in lambdas for seed in seeds]
    data.observed  # build the shared view before stacks start on threads

    chunks = _chunks(len(members), data.Q * data.N, config.link, n_threads)

    def run(chunk):
        return _run_stack(data, K, config, [members[m] for m in chunk])

    if n_threads > 1 and len(chunks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as pool:
            stacks = list(pool.map(run, chunks))
    else:
        stacks = [run(chunk) for chunk in chunks]
    results = [None] * len(members)
    for chunk, stack in zip(chunks, stacks):
        for m, fit in zip(chunk, stack):
            results[m] = fit

    fits = []
    for start in range(0, len(results), config.restarts):
        restarts = results[start:start + config.restarts]
        best = min(range(len(restarts)), key=lambda r: restarts[r][2][-1])
        W_aug, C, objs = restarts[best]
        model = FactorModel(W_aug[:, :K], C, W_aug[:, K], config.link)
        trace = FitTrace(
            objectives=objs,
            final_objective=float(objs[-1]),
            n_outer=len(objs) - 1,
            restart_index=best,
        )
        fits.append((model, trace))
    return fits


def fit_ml(data: ResponseMatrix, K: int, config: MLConfig, n_threads: int = 1):
    """Fit the sparse factorization by alternating convex subproblems.

    Runs config.restarts random initializations (deterministically seeded
    from config.seed) and returns the model with the smallest final
    objective together with its objective trace.  The restarts are fitted
    as stacks of members advanced together, each stack at most
    _BATCH_CELLS cells unless it holds one restart; with n_threads > 1
    they are split into up to n_threads stacks of at least
    _SERIAL_RESTART_CELLS[config.link] cells each, which run on a thread
    pool.  The result is the same whatever the split.

    Returns
    -------
    (FactorModel, FitTrace)
    """
    return _fit_grid(data, K, config, [config.lambda_l1], n_threads)[0]


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

    Each distinct candidate gets one full fit (same seed and restarts),
    the same as fit_ml's for that weight, bitwise.  All candidates' restarts
    are fitted together as one set of members, stacked and split across
    n_threads threads as in fit_ml, and the winner's fit is returned with
    the choice.
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
    fits = dict(zip(lambda_grid, _fit_grid(data, K, config, lambda_grid, n_threads)))
    table = []
    for lam, (model, trace) in fits.items():
        ll = log_likelihood(model, data)
        df = int(np.count_nonzero(model.W)) + K * data.N + data.Q
        bic = float(-2.0 * ll + df * np.log(n_obs))
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

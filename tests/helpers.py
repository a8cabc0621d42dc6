"""Shared independent oracles for the test suite, adapters that run the
batched ML kernels on a single question row or learner column, the
Gibbs sampler's state invariants, reference steps and the rectified
normal that its weight step draws from, and a runner for scripts in a
fresh interpreter.

The oracles are built from the math module / scipy.integrate only, so
oracle values never flow through the code paths they are checking.  The
adapters wrap one row (or column) of responses in a one-question (or
one-learner) ResponseMatrix and call the same private kernels that
fit_ml runs, so solver tests check the estimator's own code.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import linalg as sla
from scipy import special

import gradefactor
from gradefactor import bayes, mle
from gradefactor.links import LinkKind
from gradefactor.model import ResponseMatrix


def phi_scalar(z, link):
    if link is LinkKind.PROBIT:
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    return 1.0 / (1.0 + math.exp(-z))


def log_phi_scalar(z, link):
    """Stable scalar log Phi(z); asymptotic series deep in the probit tail."""
    if link is LinkKind.LOGIT:
        return min(z, 0.0) - math.log1p(math.exp(-abs(z)))
    if z > -30.0:
        return math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
    a = -z
    series, coef = 0.0, 1.0
    for n in range(6):
        series += coef / a ** (2 * n)
        coef *= -(2 * n + 1)
    return -0.5 * a * a - math.log(math.sqrt(2.0 * math.pi)) + math.log(series / a)


def smooth_row_oracle(w, C_aug, y, mask, mu_w, link):
    """Scalar-loop smooth objective (NLL + ridge) of one question row."""
    total = 0.5 * mu_w * float(np.dot(w, w))
    for j in range(C_aug.shape[1]):
        if not mask[j]:
            continue
        z = float(C_aug[:, j] @ w)
        total -= log_phi_scalar(z if y[j] == 1 else -z, link)
    return total


def smooth_col_oracle(c, W_aug, y, mask, link):
    """Scalar-loop smooth objective (NLL only) of one learner column."""
    total = 0.0
    for i in range(W_aug.shape[0]):
        if not mask[i]:
            continue
        z = float(W_aug[i, :-1] @ c + W_aug[i, -1])
        total -= log_phi_scalar(z if y[i] == 1 else -z, link)
    return total


def row_objective_oracle(w, C_aug, y, mask, lam, mu_w, link):
    """Scalar-loop row objective: the smooth part plus the l1 penalty on
    the concept coordinates (all but the trailing difficulty)."""
    return smooth_row_oracle(w, C_aug, y, mask, mu_w, link) + lam * sum(
        abs(float(v)) for v in w[:-1])


def col_objective_oracle(c, W_aug, y, mask, gamma, link):
    """Scalar-loop column objective: the NLL plus the ridge penalty."""
    return smooth_col_oracle(c, W_aug, y, mask, link) + 0.5 * gamma * float(
        np.dot(c, c))


def central_diff(f, x, h=1e-5):
    grad = np.zeros_like(x)
    for idx in range(x.size):
        step = np.zeros_like(x)
        step[idx] = h
        grad[idx] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def random_row_instance(rng, K, N):
    """Random augmented row subproblem (difficulty coordinate last)."""
    C_aug = np.vstack([rng.normal(size=(K, N)), np.ones((1, N))])
    y = rng.integers(0, 2, N).astype(float)
    mask = rng.random(N) < 0.8
    if not mask.any():
        mask[0] = True
    w = np.concatenate([np.abs(rng.normal(size=K)), rng.normal(size=1)])
    return w, C_aug, y, mask


def binary_rank2_instance(rng, Q=24, N=16):
    """Noiseless {0,1} responses from a sparse non-negative rank-2 model:
    every question loads exactly one of two distinct binary atom rows."""
    patterns = rng.integers(0, 2, size=(2, N)).astype(float)
    while np.array_equal(patterns[0], patterns[1]) or not patterns.any(axis=1).all():
        patterns = rng.integers(0, 2, size=(2, N)).astype(float)
    assign = rng.integers(0, 2, size=Q)
    W = np.zeros((Q, 2))
    W[np.arange(Q), assign] = 1.0
    return W, patterns, W @ patterns


def one_row(y, mask):
    """One-question ResponseMatrix: responses y observed where mask is set."""
    return ResponseMatrix(np.asarray(y, dtype=float)[None, :],
                          np.asarray(mask, dtype=bool)[None, :])


def one_col(y, mask):
    """One-learner ResponseMatrix: responses y observed where mask is set."""
    return ResponseMatrix(np.asarray(y, dtype=float)[:, None],
                          np.asarray(mask, dtype=bool)[:, None])


def _workspace(data, W_aug, C_aug, link):
    """The workspace fit_ml builds for a restart, started at (W_aug, C_aug)."""
    return mle._Workspace(data.observed, np.asarray(W_aug, dtype=float),
                          np.asarray(C_aug, dtype=float), link)


def row_lipschitz(C_aug, mask, mu_w, link):
    """Step-size constant L of one question row with design C_aug."""
    maskf = np.asarray(mask, dtype=float)[None, :]
    return float(mle._lipschitz(np.asarray(C_aug, dtype=float), maskf, mu_w, link)[0])


def col_lipschitz(W, mask, link):
    """Step-size constant L of one learner column with concept weights W."""
    maskf = np.asarray(mask, dtype=float)[None, :]
    return float(mle._lipschitz(np.asarray(W, dtype=float).T, maskf, 0.0, link)[0])


def row_gradient(w, C_aug, y, mask, mu_w, link):
    """Gradient of the smooth part (NLL + ridge) of one question row."""
    W_aug = np.asarray(w, dtype=float)[None, :]
    work = _workspace(one_row(y, mask), W_aug, C_aug, link)
    return mle._row_gradient(W_aug, C_aug, work, mu_w, link)[0]


def col_gradient(c, W_aug, y, mask, link):
    """Gradient of the NLL of one learner column."""
    C = np.asarray(c, dtype=float)[:, None]
    work = _workspace(one_col(y, mask), W_aug, np.vstack([C, np.ones((1, 1))]),
                      link)
    return mle._col_gradient(C, W_aug, work, link)[:, 0]


def solve_row(w0, C_aug, y, mask, lam, mu_w, link, iters):
    """The row phase run on one question row from w0 for iters steps."""
    W_aug = np.array(w0, dtype=float)[None, :]
    work = _workspace(one_row(y, mask), W_aug, C_aug, link)
    return mle._phase_w(W_aug, C_aug, work, lam, mu_w, link, iters)[0]


def solve_col(c0, W_aug, y, mask, gamma, link, iters):
    """The column phase run on one learner column from c0 for iters steps."""
    C = np.array(c0, dtype=float)[:, None]
    work = _workspace(one_col(y, mask), W_aug, np.vstack([C, np.ones((1, 1))]),
                      link)
    return mle._phase_c(C, W_aug, work, gamma, link, iters)[:, 0]


def validate_state(state, data=None):
    """Raise ValueError naming the first invariant a Gibbs state breaks;
    with data, also check the slack signs at the observed cells."""
    if not (state.W >= 0).all():
        raise ValueError("W must be non-negative")
    if not np.allclose(state.V, state.V.T):
        raise ValueError("V must be symmetric")
    if not np.linalg.eigvalsh(state.V)[0] > 0:
        raise ValueError("V must be positive definite")
    if not ((state.r > 0) & (state.r < 1)).all():
        raise ValueError("r must lie in (0, 1)")
    if not ((state.activity >= 0) & (state.activity <= 1)).all():
        raise ValueError("activity must lie in [0, 1]")
    if data is not None:
        obs_z = state.Z[data.mask]
        obs_y = data.entries[data.mask]
        if not ((obs_z > 0) == (obs_y == 1)).all():
            raise ValueError("Z signs must match the observed responses")


def sample_rect_normal(m, s, lam, rng):
    """Draw from the exponentially tilted normal on [0, inf).

    The density proportional to exp(-(x-m)^2 / 2s - lam*x) on x >= 0 is a
    normal with mean m - lam*s and variance s truncated to the positive
    half-line; sampling reuses the truncated-normal kernel exactly.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (s > 0).all():  # NaN included
        raise ValueError("slab variance must be positive")
    if not (np.asarray(lam) >= 0).all():
        raise ValueError("tilt rate must be non-negative")
    return bayes.sample_truncnorm(m - lam * s, s, rng)


def rect_normal_logpdf(x, m, s, lam):
    """Log density of the rectified normal; -inf for negative arguments."""
    x = np.asarray(x, dtype=float)
    theta = m - lam * s
    root_s = np.sqrt(s)
    logpdf = (
        -((x - theta) ** 2) / (2.0 * s)
        - 0.5 * np.log(2.0 * math.pi * s)
        - special.log_ndtr(theta / root_s)
    )
    return np.where(x >= 0, logpdf, -np.inf)


def run_child(script, *options, timeout=120):
    """Lines a fresh interpreter prints running script with the package
    this test imported; it is killed, and the test fails, after timeout
    seconds."""
    # the child does not inherit pytest's pythonpath setting: point it at
    # the src directory of the package this test imported
    src = str(Path(gradefactor.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, *options, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def step_weights_residual(state, data, rng):
    """Reference weight step: the residual form that keeps a dense Q x N
    residual R = Z - mu - W C and updates it rank-one per concept.  It
    makes the same draws, in the same order, as bayes.step_weights."""
    W, C, Z, mu = state.W, state.C, state.Z, state.mu
    Q, K = W.shape
    maskf = data.observed.float_mask
    R = Z - mu[:, None] - W @ C
    for k in range(K):
        lam_k = float(state.lam[k])
        r_k = float(state.r[k])
        ck = C[k]
        den = maskf @ (ck * ck)
        num = (maskf * (R + W[:, k, None] * ck)) @ ck
        good = den > 0.0
        m_hat = num[good] / den[good]
        s_hat = 1.0 / den[good]
        act = np.full(Q, r_k)
        log_ratio = rect_normal_logpdf(0.0, m_hat, s_hat, lam_k)
        act[good] = special.expit(
            -(log_ratio - np.log(lam_k)) + np.log(r_k) - np.log1p(-r_k)
        )
        active = rng.random(Q) < act
        new_col = np.zeros(Q)
        slab = sample_rect_normal(m_hat, s_hat, lam_k, rng)
        new_col[good] = np.where(active[good], slab, 0.0)
        fallback = active & ~good
        if fallback.any():
            new_col[fallback] = rng.exponential(1.0 / lam_k, int(fallback.sum()))
        R += (W[:, k] - new_col)[:, None] * ck
        W[:, k] = new_col
        state.activity[:, k] = act


def step_knowledge_shared(state, data, rng):
    """Reference knowledge step for a fully observed matrix: every learner
    shares the precision V^-1 + W^T W, so one Cholesky factor serves all
    columns.  Same draws as bayes.step_knowledge."""
    assert data.mask.all(), "the shared precision needs every cell observed"
    W, Z, mu, V = state.W, state.Z, state.mu, state.V
    K, N = state.C.shape
    B = W.T @ (Z - mu[:, None])
    xi = rng.standard_normal((K, N))
    A = np.linalg.inv(V) + W.T @ W
    Lc = np.linalg.cholesky(A)
    state.C[:] = np.linalg.solve(A, B) + sla.solve_triangular(Lc.T, xi, lower=False)

"""Bayesian estimation of the factorization with spike-slab sparsity.

The sampler targets the posterior of the probit model with priors

    W[i,k] ~ r_k Exp(lambda_k) + (1 - r_k) delta_0
    lambda_k ~ Gamma(alpha, beta),  r_k ~ Beta(e, f)
    c_j ~ N(0, V),  V ~ InvWishart(V0, h),  mu_i ~ N(mu0, v_mu)

One sweep draws, in order: the latent slack values (sign-constrained by
the observed responses), the difficulties, the learner knowledge columns,
the knowledge covariance, the question-concept weights (spike-slab), the
per-concept exponential rates, and the per-concept inclusion rates.

W weights are drawn from a rectified normal: the exponential slab tilts
a normal likelihood, which after completing the square is just a normal
with mean shifted by -lambda*s truncated to [0, inf).  Truncated normals
use inverse-CDF sampling except deep in the tail (beyond 4 standard
deviations) where an exponential-proposal rejection sampler takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import linalg as sla
from scipy import special

from .links import LinkKind
from .model import FactorModel, ResponseMatrix

_TAIL_THRESHOLD = 4.0
_PD_JITTER = 1e-10
_R_CLIP = 1e-12


@dataclass
class SpikeSlabHyperparams:
    """Prior hyperparameters; None fields resolve to data-driven defaults
    (v0 -> identity, h -> K+1, mu0 -> probit pull-back of the observed
    correct rate)."""

    alpha: float = 1.0
    beta: float = 1.5
    e: float = 1.0
    f: float = 1.5
    v0: np.ndarray | None = None
    h: float | None = None
    mu0: float | None = None
    v_mu: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "e", "f", "v_mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")

    def resolve(self, K: int, data: ResponseMatrix | None = None):
        v0 = np.eye(K) if self.v0 is None else np.asarray(self.v0, dtype=float)
        if v0.shape != (K, K):
            raise ValueError(f"v0 must be {K} x {K}")
        if not np.isfinite(v0).all():
            raise ValueError("v0 must be finite")
        if not np.allclose(v0, v0.T):
            raise ValueError("v0 must be symmetric")
        if np.linalg.eigvalsh(v0)[0] <= 0:
            raise ValueError("v0 must be positive definite")
        h = float(K + 1) if self.h is None else float(self.h)
        if not (math.isfinite(h) and h > K - 1):
            raise ValueError("h must be finite and exceed K - 1")
        if self.mu0 is not None:
            mu0 = float(self.mu0)
            if not math.isfinite(mu0):
                raise ValueError("mu0 must be finite")
        elif data is not None and data.n_observed > 0:
            rate = float(data.entries[data.mask].mean())
            rate = min(max(rate, 1e-6), 1.0 - 1e-6)
            mu0 = float(special.ndtri(rate))
        else:
            mu0 = 0.0
        return v0, h, mu0


@dataclass
class GibbsState:
    """Current draw of every sampled quantity.

    activity holds the most recent conditional probability that each
    weight is active (nonzero); it is refreshed by the weight step and
    averaged into the posterior summary.
    """

    Z: np.ndarray
    W: np.ndarray
    C: np.ndarray
    mu: np.ndarray
    V: np.ndarray
    lam: np.ndarray
    r: np.ndarray
    activity: np.ndarray

    def validate(self, data: ResponseMatrix | None = None):
        """Raise ValueError naming the first invariant the state breaks;
        with data, also check the slack signs at the observed cells."""
        if not (self.W >= 0).all():
            raise ValueError("W must be non-negative")
        if not np.allclose(self.V, self.V.T):
            raise ValueError("V must be symmetric")
        if not np.linalg.eigvalsh(self.V)[0] > 0:
            raise ValueError("V must be positive definite")
        if not ((self.r > 0) & (self.r < 1)).all():
            raise ValueError("r must lie in (0, 1)")
        if not ((self.activity >= 0) & (self.activity <= 1)).all():
            raise ValueError("activity must lie in [0, 1]")
        if data is not None:
            obs_z = self.Z[data.mask]
            obs_y = data.entries[data.mask]
            if not ((obs_z > 0) == (obs_y == 1)).all():
                raise ValueError("Z signs must match the observed responses")


@dataclass
class PosteriorSummary:
    """Per-entry posterior means/variances plus mean activity probabilities."""

    w_mean: np.ndarray
    w_var: np.ndarray
    c_mean: np.ndarray
    c_var: np.ndarray
    mu_mean: np.ndarray
    mu_var: np.ndarray
    activity: np.ndarray
    n_samples: int
    burn_in: int

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if ((self.activity < 0) | (self.activity > 1)).any():
            raise ValueError("activity probabilities must lie in [0, 1]")


def _body_draws(a, rng):
    # survival-function inversion avoids cancellation for a near 0
    u = 1.0 - rng.random(a.shape)
    return -special.ndtri(u * special.ndtr(-a))


def _std_truncnorm_lower(a, rng):
    """Standard normal conditioned on X >= a, elementwise over a."""
    a = np.asarray(a, dtype=float)
    body = a <= _TAIL_THRESHOLD
    if body.all():  # the usual case: no element needs the tail sampler
        return _body_draws(a, rng)
    tail = ~body
    at = a[tail]
    if not np.isfinite(at).all():  # no tail proposal would ever be accepted
        raise ValueError("truncation points must be finite")
    out = np.empty_like(a)
    if body.any():
        out[body] = _body_draws(a[body], rng)
    alpha = 0.5 * (at + np.sqrt(at * at + 4.0))
    draws = np.empty_like(at)
    pending = np.ones(at.shape, dtype=bool)
    while pending.any():
        ap = at[pending]
        z = ap + rng.exponential(1.0, ap.shape) / alpha[pending]
        accept = rng.random(ap.shape) <= np.exp(-0.5 * (z - alpha[pending]) ** 2)
        idx = np.flatnonzero(pending)[accept]
        draws.flat[idx] = z[accept]
        pending.flat[idx] = False
    out[tail] = draws
    return out


def sample_truncnorm(mean, var, side, rng, size=None):
    """Draw normal variates constrained strictly to one side of zero.

    side is "positive" (support (0, inf)) or "negative" ((-inf, 0)).
    mean and var broadcast; size optionally expands scalar parameters.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if (var <= 0).any():
        raise ValueError("variance must be positive")
    if side not in ("positive", "negative"):
        raise ValueError("side must be 'positive' or 'negative'")
    scalar_in = mean.ndim == 0 and var.ndim == 0 and size is None
    shape = np.broadcast(mean, var).shape if size is None else size
    # draw on the positive side; a negative draw is a mirrored positive one
    m = mean if mean.shape == shape else np.broadcast_to(mean, shape)
    if side == "negative":
        m = -m
    sigma = np.sqrt(var)
    a = -m / sigma
    x = m + sigma * _std_truncnorm_lower(a, rng)
    # boundary hits are measure-zero but float-representable; redraw them
    while (x <= 0).any():
        bad = x <= 0
        sigma_bad = np.broadcast_to(sigma, shape)[bad]
        x[bad] = m[bad] + sigma_bad * _std_truncnorm_lower(a[bad], rng)
    if side == "negative":
        x = -x
    return float(x) if scalar_in else x


def sample_rect_normal(m, s, lam, rng, size=None):
    """Draw from the exponentially tilted normal on [0, inf).

    The density proportional to exp(-(x-m)^2 / 2s - lam*x) on x >= 0 is a
    normal with mean m - lam*s and variance s truncated to the positive
    half-line; sampling reuses the truncated-normal kernel exactly.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    if (s <= 0).any():
        raise ValueError("slab variance must be positive")
    if (np.asarray(lam) < 0).any():
        raise ValueError("tilt rate must be non-negative")
    return sample_truncnorm(m - lam * s, s, "positive", rng, size=size)


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


def _log_rect_at_zero(m_hat, s_hat, lam):
    theta = m_hat - lam * s_hat
    return (
        -(theta * theta) / (2.0 * s_hat)
        - 0.5 * np.log(2.0 * math.pi * s_hat)
        - special.log_ndtr(theta / np.sqrt(s_hat))
    )


def sample_inv_wishart(scale, df, rng):
    """Inverse-Wishart draw via the Bartlett factorization.

    scale must be symmetric positive definite and df > dim - 1.
    """
    scale = np.asarray(scale, dtype=float)
    K = scale.shape[0]
    if df <= K - 1:
        raise ValueError("degrees of freedom must exceed dim - 1")
    L = np.linalg.cholesky(scale)
    B = np.zeros((K, K))
    for i in range(K):
        B[i, i] = math.sqrt(rng.chisquare(df - i))
        if i > 0:
            B[i, :i] = rng.standard_normal(i)
    # V = (L B^-T)(L B^-T)^T inverts the Wishart draw without forming it
    Mt = sla.solve_triangular(B, L.T, lower=True)
    V = Mt.T @ Mt
    return 0.5 * (V + V.T)


# ---------------------------------------------------------------------------
# Gibbs steps.  Each mutates the state in place and preserves its invariants.
# ---------------------------------------------------------------------------


def step_slack(state: GibbsState, data: ResponseMatrix, rng):
    """Draw the latent slack at observed entries, sign-matched to Y."""
    obs = data.observed
    mean = (state.W @ state.C + state.mu[:, None]).reshape(-1)
    for cells, side in ((obs.positive, "positive"), (obs.negative, "negative")):
        if cells.size:
            np.put(state.Z, cells, sample_truncnorm(mean[cells], 1.0, side, rng))


def step_difficulty(state: GibbsState, data: ResponseMatrix, hyper_resolved, rng):
    """Conjugate normal update of the per-question difficulty."""
    mu0, v_mu = hyper_resolved.mu0, hyper_resolved.v_mu
    obs = data.observed
    v = 1.0 / (1.0 / v_mu + obs.row_counts)
    resid = ((state.Z - state.W @ state.C) * obs.float_mask).sum(axis=1)
    m = v * (mu0 / v_mu + resid)
    state.mu[:] = m + np.sqrt(v) * rng.standard_normal(m.shape)


def step_knowledge(state: GibbsState, data: ResponseMatrix, rng):
    """Draw every learner's knowledge column from its normal conditional.

    Each learner's precision uses only the rows of W for the questions
    that learner answered.  When the dataset is fully observed the
    precision is shared, so it is factored once.
    """
    W, Z, mu, V = state.W, state.Z, state.mu, state.V
    K, N = state.C.shape
    Vinv = np.linalg.inv(V)
    obs = data.observed
    maskf = obs.float_mask
    B = W.T @ (maskf * (Z - mu[:, None]))  # (K, N)
    xi = rng.standard_normal((K, N))
    if isinstance(obs.index, slice):  # every cell observed
        A = Vinv + W.T @ W
        Lc = np.linalg.cholesky(A)
        means = np.linalg.solve(A, B)
        noise = sla.solve_triangular(Lc.T, xi, lower=False)
        state.C[:] = means + noise
        return
    # gram[j] = sum_i maskf[i, j] w_i w_i^T as one matmul over the stacked
    # outer products: the contraction einsum("ik,ij,il->jkl", optimize=True)
    # chooses, without searching for it on every call
    outer = (W[:, :, None] * W[:, None, :]).reshape(W.shape[0], K * K)
    gram = (maskf.T @ outer).reshape(N, K, K)
    A = Vinv[None, :, :] + gram
    Lc = np.linalg.cholesky(A)
    means = np.linalg.solve(A, B.T[:, :, None])[:, :, 0]
    noise = np.linalg.solve(np.transpose(Lc, (0, 2, 1)), xi.T[:, :, None])[:, :, 0]
    state.C[:] = (means + noise).T


def step_covariance(state: GibbsState, hyper_resolved, rng):
    """Inverse-Wishart update of the knowledge covariance, with a trace
    jitter guarding the Gram matrix against losing definiteness."""
    v0, h = hyper_resolved.v0, hyper_resolved.h
    N = state.C.shape[1]
    scale = v0 + state.C @ state.C.T
    scale = 0.5 * (scale + scale.T)
    scale += _PD_JITTER * np.trace(scale) * np.eye(scale.shape[0])
    state.V[:] = sample_inv_wishart(scale, N + h, rng)


def step_weights(state: GibbsState, data: ResponseMatrix, rng, order=None,
                 rngs=None):
    """Spike-slab draw of every question-concept weight, one concept
    column at a time (entries within a column are independent given the
    rest).

    order and rngs permit concept-relabelled replays: column order[k] is
    updated with generator rngs[k].  Entries whose concept carries no
    observed signal fall back to their prior.
    """
    W, C, Z, mu = state.W, state.C, state.Z, state.mu
    Q, K = W.shape
    maskf = data.observed.float_mask
    R = Z - mu[:, None] - W @ C
    if order is None:
        order = range(K)
    for pos, k in enumerate(order):
        gen = rng if rngs is None else rngs[pos]
        lam_k = float(state.lam[k])
        r_k = float(state.r[k])
        ck = C[k]
        den = maskf @ (ck * ck)
        num = (maskf * (R + W[:, k, None] * ck)) @ ck
        good = den > 0.0
        all_good = bool(good.all())
        # rows that see observed signal; a slice when all do (the usual case)
        # reads views instead of boolean-indexed copies
        rows = slice(None) if all_good else good
        m_hat = num[rows] / den[rows]
        s_hat = 1.0 / den[rows]
        act = np.full(Q, r_k)
        log_ratio = _log_rect_at_zero(m_hat, s_hat, lam_k)
        act[rows] = special.expit(
            -(log_ratio - np.log(lam_k)) + np.log(r_k) - np.log1p(-r_k)
        )
        active = gen.random(Q) < act
        new_col = np.zeros(Q)
        slab = sample_rect_normal(m_hat, s_hat, lam_k, gen)
        new_col[rows] = np.where(active[rows], slab, 0.0)
        if not all_good:
            fallback = active & ~good
            if fallback.any():
                new_col[fallback] = gen.exponential(1.0 / lam_k, int(fallback.sum()))
        R += (W[:, k] - new_col)[:, None] * ck
        W[:, k] = new_col
        state.activity[:, k] = act


def step_rates(state: GibbsState, hyper_resolved, rng, order=None, rngs=None):
    """Gamma update of the per-concept exponential slab rates."""
    hyper = hyper_resolved.hyper
    b = np.count_nonzero(state.W, axis=0)
    colsum = state.W.sum(axis=0)
    K = state.W.shape[1]
    if order is None:
        order = range(K)
    for pos, k in enumerate(order):
        gen = rng if rngs is None else rngs[pos]
        state.lam[k] = gen.gamma(hyper.alpha + b[k], 1.0 / (hyper.beta + colsum[k]))


def step_inclusion(state: GibbsState, hyper_resolved, rng, order=None, rngs=None):
    """Beta update of the per-concept inclusion rates."""
    hyper = hyper_resolved.hyper
    Q, K = state.W.shape
    b = np.count_nonzero(state.W, axis=0)
    if order is None:
        order = range(K)
    for pos, k in enumerate(order):
        gen = rng if rngs is None else rngs[pos]
        draw = gen.beta(hyper.e + b[k], hyper.f + Q - b[k])
        state.r[k] = min(max(draw, _R_CLIP), 1.0 - _R_CLIP)


class _Resolved(NamedTuple):
    v0: np.ndarray
    h: float
    mu0: float
    v_mu: float
    hyper: SpikeSlabHyperparams


def _resolve(hyper: SpikeSlabHyperparams, K, data):
    v0, h, mu0 = hyper.resolve(K, data)
    return _Resolved(v0, h, mu0, hyper.v_mu, hyper)


def gibbs_sweep(state: GibbsState, data: ResponseMatrix,
                hyper: SpikeSlabHyperparams, rng):
    """One full systematic sweep over all seven conditionals.

    hyper is resolved and validated on every call; run_gibbs does that
    once per run and then sweeps with the resolved values.
    """
    return _sweep(state, data, _resolve(hyper, state.W.shape[1], data), rng)


def _sweep(state: GibbsState, data: ResponseMatrix, resolved: _Resolved, rng):
    step_slack(state, data, rng)
    step_difficulty(state, data, resolved, rng)
    step_knowledge(state, data, rng)
    step_covariance(state, resolved, rng)
    step_weights(state, data, rng)
    step_rates(state, resolved, rng)
    step_inclusion(state, resolved, rng)
    return state


def init_gibbs_state(data: ResponseMatrix, K: int, hyper: SpikeSlabHyperparams,
                     rng) -> GibbsState:
    """Draw an initial state from the priors."""
    return _initial_state(data, K, _resolve(hyper, K, data), rng)


def _initial_state(data: ResponseMatrix, K: int, resolved: _Resolved,
                   rng) -> GibbsState:
    hyper = resolved.hyper
    v0, h, mu0, v_mu = resolved.v0, resolved.h, resolved.mu0, resolved.v_mu
    Q, N = data.Q, data.N
    lam = rng.gamma(hyper.alpha, 1.0 / hyper.beta, K)
    r = np.clip(rng.beta(hyper.e, hyper.f, K), _R_CLIP, 1.0 - _R_CLIP)
    V = sample_inv_wishart(v0, h, rng)
    C = np.linalg.cholesky(V) @ rng.standard_normal((K, N))
    mu = mu0 + math.sqrt(v_mu) * rng.standard_normal(Q)
    active = rng.random((Q, K)) < r
    vals = rng.exponential(1.0, (Q, K)) / lam
    W = np.where(active, vals, 0.0)
    return GibbsState(
        Z=np.zeros((Q, N)),
        W=W,
        C=C,
        mu=mu,
        V=V,
        lam=lam,
        r=r,
        activity=np.broadcast_to(r, (Q, K)).copy(),
    )


def run_gibbs(data: ResponseMatrix, K: int,
              hyper: SpikeSlabHyperparams | None = None,
              burn_in: int = 30_000, n_samples: int = 30_000,
              rng=None) -> PosteriorSummary:
    """Run the sampler and summarize the retained draws.

    The 30k/30k default matches the long-run protocol; desk-scale
    experiments typically use a couple of thousand each.  Statistics are
    accumulated over the post-burn-in sweeps only.  The hyperparameters
    are resolved and validated once per run, not once per sweep; the
    chain equals init_gibbs_state followed by gibbs_sweep calls.
    """
    if burn_in < 1 or n_samples < 1:
        raise ValueError("burn_in and n_samples must be >= 1")
    if hyper is None:
        hyper = SpikeSlabHyperparams()
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    resolved = _resolve(hyper, K, data)
    state = _initial_state(data, K, resolved, rng)
    for _ in range(burn_in):
        _sweep(state, data, resolved, rng)
    w_sum = np.zeros_like(state.W)
    w_sq = np.zeros_like(state.W)
    c_sum = np.zeros_like(state.C)
    c_sq = np.zeros_like(state.C)
    mu_sum = np.zeros_like(state.mu)
    mu_sq = np.zeros_like(state.mu)
    act_sum = np.zeros_like(state.activity)
    for _ in range(n_samples):
        _sweep(state, data, resolved, rng)
        w_sum += state.W
        w_sq += state.W * state.W
        c_sum += state.C
        c_sq += state.C * state.C
        mu_sum += state.mu
        mu_sq += state.mu * state.mu
        act_sum += state.activity
    n = float(n_samples)
    w_mean = w_sum / n
    c_mean = c_sum / n
    mu_mean = mu_sum / n
    return PosteriorSummary(
        w_mean=w_mean,
        w_var=np.clip(w_sq / n - w_mean**2, 0.0, None),
        c_mean=c_mean,
        c_var=np.clip(c_sq / n - c_mean**2, 0.0, None),
        mu_mean=mu_mean,
        mu_var=np.clip(mu_sq / n - mu_mean**2, 0.0, None),
        activity=np.clip(act_sum / n, 0.0, 1.0),
        n_samples=n_samples,
        burn_in=burn_in,
    )


def posterior_point_estimates(summary: PosteriorSummary,
                              activity_threshold: float) -> FactorModel:
    """Collapse a posterior summary to a sparse point-estimate model.

    Weights whose mean activity probability falls below the threshold are
    zeroed; everything else takes its posterior mean.  The sampler is
    probit-only, so the resulting model scores with the probit link.
    """
    if not 0.0 <= activity_threshold <= 1.0:
        raise ValueError("activity threshold must lie in [0, 1]")
    W = np.where(summary.activity < activity_threshold, 0.0, summary.w_mean)
    return FactorModel(W, summary.c_mean, summary.mu_mean, LinkKind.PROBIT)

"""Bayesian estimation of the factorization with spike-slab sparsity.

The sampler targets the posterior of the probit model with the fixed priors

    W[i,k] ~ r_k Exp(lambda_k) + (1 - r_k) delta_0
    lambda_k ~ Gamma(alpha, beta),  r_k ~ Beta(e, f)
    c_j ~ N(0, V),  V ~ InvWishart(V0, h),  mu_i ~ N(mu0, v_mu)

where alpha = 1, beta = 1.5, e = 1, f = 1.5, v_mu = 1, V0 = I_K, h = K + 1,
and mu0 is the probit pull-back of the observed correct rate.

One sweep draws, in order: the latent slack values (sign-constrained by
the observed responses), the difficulties, the learner knowledge columns,
the knowledge covariance, the question-concept weights (spike-slab), the
per-concept exponential rates, and the per-concept inclusion rates.

W weights are drawn from a rectified normal: the exponential slab tilts
a normal likelihood, which after completing the square is just a normal
with mean shifted by -lambda*s truncated to [0, inf).  Every truncated
normal is drawn by inverting its CDF with one uniform per draw, in log
space past 4 standard deviations, so a call uses a fixed number of
uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import special

from .links import LinkKind
from .model import (FactorModel, ResponseMatrix, check_count, check_dimensions,
                    check_observed, masked_gram)

_TAIL_THRESHOLD = 4.0
_PD_JITTER = 1e-10
_R_CLIP = 1e-12
# the fixed prior of the module docstring; V0 = I_K and h = K + 1 follow
# from K, and mu0 from the data (_resolve)
_ALPHA, _BETA = 1.0, 1.5
_E, _F = 1.0, 1.5
_V_MU = 1.0


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


@dataclass(frozen=True)
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


def _std_truncnorm_lower(a, rng):
    """Standard normal conditioned on X >= a, elementwise over a, from one
    uniform per element."""
    a = np.asarray(a, dtype=float)
    u = 1.0 - rng.random(a.shape)  # in (0, 1]
    # survival-function inversion avoids cancellation for a near 0
    out = -special.ndtri(u * special.ndtr(-a))
    tail = ~(a <= _TAIL_THRESHOLD)  # NaN included
    if tail.any():
        at = a[tail]
        if not np.isfinite(at).all():
            raise ValueError("truncation points must be finite")
        # ndtr(-a) loses its digits out here, so invert in log space
        out[tail] = -special.ndtri_exp(np.log(u[tail]) + special.log_ndtr(-at))
    return out


def sample_truncnorm(mean, var, rng):
    """Draw normal variates constrained strictly to (0, inf).

    mean and var broadcast; the draws take the broadcast shape.  A draw on
    (-inf, 0) is the negated draw for the negated mean.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if not (var > 0).all():  # NaN included
        raise ValueError("variance must be positive")
    scalar_in = mean.ndim == 0 and var.ndim == 0
    shape = np.broadcast(mean, var).shape
    m = mean if mean.shape == shape else np.broadcast_to(mean, shape)
    sigma = np.sqrt(var)
    a = -m / sigma
    x = m + sigma * _std_truncnorm_lower(a, rng)
    # boundary hits are measure-zero but float-representable; redraw them
    while (x <= 0).any():
        bad = x <= 0
        sigma_bad = np.broadcast_to(sigma, shape)[bad]
        x[bad] = m[bad] + sigma_bad * _std_truncnorm_lower(a[bad], rng)
    return float(x) if scalar_in else x


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
    return sample_truncnorm(m - lam * s, s, rng)


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
    """Draw the latent slack at observed entries, sign-matched to Y: with
    s = 2y - 1, s * Z is a draw on (0, inf) for the mean s * (W C + mu)."""
    obs = data.observed
    mean = obs.sign * obs.gather(state.W @ state.C + state.mu[:, None])
    obs.scatter(state.Z, obs.sign * sample_truncnorm(mean, 1.0, rng))


def step_difficulty(state: GibbsState, data: ResponseMatrix, mu0: float, rng):
    """Conjugate normal update of the per-question difficulty, whose
    prior mean is mu0."""
    obs = data.observed
    v = 1.0 / (1.0 / _V_MU + obs.row_counts)
    resid = ((state.Z - state.W @ state.C) * obs.float_mask).sum(axis=1)
    m = v * (mu0 / _V_MU + resid)
    state.mu[:] = m + np.sqrt(v) * rng.standard_normal(m.shape)


def step_knowledge(state: GibbsState, data: ResponseMatrix, rng):
    """Draw every learner's knowledge column from its normal conditional.

    Each learner's precision uses only the rows of W for the questions
    that learner answered.
    """
    W, Z, mu, V = state.W, state.Z, state.mu, state.V
    K, N = state.C.shape
    maskf = data.observed.float_mask
    B = W.T @ (maskf * (Z - mu[:, None]))  # (K, N)
    xi = rng.standard_normal((K, N))
    A = np.linalg.inv(V) + masked_gram(W.T, maskf.T)
    Lc = np.linalg.cholesky(A)
    means = np.linalg.solve(A, B.T[:, :, None])[:, :, 0]
    noise = np.linalg.solve(np.transpose(Lc, (0, 2, 1)), xi.T[:, :, None])[:, :, 0]
    state.C[:] = (means + noise).T


def step_covariance(state: GibbsState, rng):
    """Inverse-Wishart update of the knowledge covariance, with a trace
    jitter guarding the Gram matrix against losing definiteness."""
    K, N = state.C.shape
    scale = np.eye(K) + state.C @ state.C.T
    scale = 0.5 * (scale + scale.T)
    scale += _PD_JITTER * np.trace(scale) * np.eye(K)
    state.V[:] = sample_inv_wishart(scale, N + (K + 1.0), rng)


def step_weights(state: GibbsState, data: ResponseMatrix, rng):
    """Spike-slab draw of every question-concept weight, one concept
    column at a time (entries within a column are independent given the
    rest).  Entries whose concept carries no observed signal fall back
    to their prior.

    Every conditional follows from two products made once per call: the
    masked Gram M_i = sum_j mask_ij c_j c_j^T of each question and the
    projection P = (mask * (Z - mu)) C^T.
    """
    W, C, Z, mu = state.W, state.C, state.Z, state.mu
    Q, K = W.shape
    maskf = data.observed.float_mask
    gram = masked_gram(C, maskf)  # Q x K x K
    proj = (maskf * (Z - mu[:, None])) @ C.T  # Q x K
    for k in range(K):
        lam_k = float(state.lam[k])
        r_k = float(state.r[k])
        den = gram[:, k, k]
        # the masked residual of every other concept, projected on c_k
        num = proj[:, k] - (gram[:, k] * W).sum(axis=1) + W[:, k] * den
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
        W[:, k] = new_col
        state.activity[:, k] = act


def step_rates(state: GibbsState, rng):
    """Gamma update of the per-concept exponential slab rates."""
    b = np.count_nonzero(state.W, axis=0)
    colsum = state.W.sum(axis=0)
    state.lam[:] = rng.gamma(_ALPHA + b, 1.0 / (_BETA + colsum))


def step_inclusion(state: GibbsState, rng):
    """Beta update of the per-concept inclusion rates."""
    Q = state.W.shape[0]
    b = np.count_nonzero(state.W, axis=0)
    state.r[:] = np.clip(rng.beta(_E + b, _F + Q - b), _R_CLIP, 1.0 - _R_CLIP)


def _resolve(data: ResponseMatrix) -> float:
    """The prior mean mu0 of the difficulties: the probit pull-back of the
    observed correct rate, clipped away from 0 and 1."""
    rate = np.count_nonzero(data.entries) / data.n_observed
    rate = min(max(rate, 1e-6), 1.0 - 1e-6)
    return float(special.ndtri(rate))


def _sweep(state: GibbsState, data: ResponseMatrix, mu0: float, rng):
    step_slack(state, data, rng)
    step_difficulty(state, data, mu0, rng)
    step_knowledge(state, data, rng)
    step_covariance(state, rng)
    step_weights(state, data, rng)
    step_rates(state, rng)
    step_inclusion(state, rng)
    return state


def _initial_state(data: ResponseMatrix, K: int, mu0: float, rng) -> GibbsState:
    """A draw of every quantity from its prior; the slack starts at 0."""
    Q, N = data.Q, data.N
    lam = rng.gamma(_ALPHA, 1.0 / _BETA, K)
    r = np.clip(rng.beta(_E, _F, K), _R_CLIP, 1.0 - _R_CLIP)
    V = sample_inv_wishart(np.eye(K), K + 1.0, rng)
    C = np.linalg.cholesky(V) @ rng.standard_normal((K, N))
    mu = mu0 + math.sqrt(_V_MU) * rng.standard_normal(Q)
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


def run_gibbs(data: ResponseMatrix, K: int, burn_in: int = 30_000,
              n_samples: int = 30_000, rng=None) -> PosteriorSummary:
    """Run the sampler under the fixed prior and summarize the retained
    draws.

    The 30k/30k default matches the long-run protocol; desk-scale
    experiments typically use a couple of thousand each.  Statistics are
    accumulated over the post-burn-in sweeps only.  K, burn_in and
    n_samples must be integers >= 1; rng is a Generator, None, or an
    integer seed >= 0.  A matrix with no observed response raises
    ValueError.
    """
    check_observed(data)
    check_dimensions(data.Q, data.N, K)
    check_count("burn_in", burn_in)
    check_count("n_samples", n_samples)
    if isinstance(rng, (int, np.integer)):  # a bool too, which check_count refuses
        check_count("rng", rng, minimum=0)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    mu0 = _resolve(data)
    state = _initial_state(data, K, mu0, rng)
    for _ in range(burn_in):
        _sweep(state, data, mu0, rng)
    names = ("W", "C", "mu", "activity")
    sums = {name: np.zeros_like(getattr(state, name)) for name in names}
    squares = {name: np.zeros_like(sums[name]) for name in names[:3]}
    for _ in range(n_samples):
        _sweep(state, data, mu0, rng)
        for name in names:
            value = getattr(state, name)
            sums[name] += value
            if name in squares:
                squares[name] += value * value
    mean = {name: total / float(n_samples) for name, total in sums.items()}
    var = {name: np.clip(sq / float(n_samples) - mean[name] ** 2, 0.0, None)
           for name, sq in squares.items()}
    return PosteriorSummary(
        w_mean=mean["W"], w_var=var["W"], c_mean=mean["C"], c_var=var["C"],
        mu_mean=mean["mu"], mu_var=var["mu"],
        activity=np.clip(mean["activity"], 0.0, 1.0),
        n_samples=n_samples, burn_in=burn_in,
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

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
# redraw rounds before a draw that keeps rounding to <= 0 is refused
_MAX_REDRAWS = 100
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


def _std_truncnorm_upper(w, rng):
    """Standard normal conditioned on T <= w, elementwise over the array
    w, from one uniform per element."""
    u = rng.random(w.shape)
    np.subtract(1.0, u, out=u)  # in (0, 1]
    # inverting the CDF below w avoids cancellation for w near 0
    t = special.ndtr(w)
    t *= u
    special.ndtri(t, out=t)
    # one reduce finds whether any point lies in the tail, NaN included
    if not np.minimum.reduce(w, axis=None, initial=math.inf) >= -_TAIL_THRESHOLD:
        tail = ~(w >= -_TAIL_THRESHOLD)
        wt = w[tail]
        if not np.isfinite(wt).all():
            raise ValueError("truncation points must be finite")
        # ndtr(w) loses its digits out here, so invert in log space
        t[tail] = special.ndtri_exp(np.log(u[tail]) + special.log_ndtr(wt))
    return t


def sample_truncnorm(mean, var, rng):
    """Draw normal variates constrained strictly to (0, inf).

    mean and var broadcast; the draws take the broadcast shape, and a
    scalar mean and var give a float.  A draw on (-inf, 0) is the negated
    draw for the negated mean.  A draw is x = m - sigma T with T a
    standard normal below w = m / sigma.  A draw that rounds to x <= 0
    is redrawn; when the positive excess lies below the float spacing
    near m, every redraw rounds too, and after _MAX_REDRAWS rounds a
    ValueError says so.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if not np.minimum.reduce(var, axis=None, initial=math.inf) > 0:  # NaN included
        raise ValueError("variance must be positive")
    scalar_in = mean.ndim == 0 and var.ndim == 0
    if scalar_in:
        mean = mean.reshape(1)
    sigma = np.sqrt(var)
    w = mean / sigma
    x = _std_truncnorm_upper(w, rng)
    x *= sigma
    np.subtract(mean, x, out=x)
    # boundary hits are measure-zero but float-representable; redraw them
    rounds = 0
    while np.fmin.reduce(x, axis=None, initial=math.inf) <= 0:  # NaN ignored
        bad = x <= 0
        m_bad = np.broadcast_to(mean, x.shape)[bad]
        sigma_bad = np.broadcast_to(sigma, x.shape)[bad]
        if rounds == _MAX_REDRAWS:
            raise ValueError(
                f"mean {m_bad[0]:g} with sd {sigma_bad[0]:g}: the draw's excess "
                "over 0 is below float resolution near the mean, so "
                f"{_MAX_REDRAWS} redraws all rounded to <= 0")
        rounds += 1
        x[bad] = m_bad - sigma_bad * _std_truncnorm_upper(w[bad], rng)
    return float(x[0]) if scalar_in else x


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
    projection P = (mask * (Z - mu)) C^T.  The slab variance
    s = 1 / (M_i)_kk and what depends on it alone are made once per
    call, over the rows with signal only, packed concept by concept so
    that a concept's rows are a slice.  A concept's pass forms the slab
    mean theta and the log-odds of its activity in place and draws its
    slabs in one sample_truncnorm call.  With theta = m - lambda s, an
    active weight is a normal of mean theta and variance s on [0, inf),
    and the log-odds of activity are log r - log(1 - r) + log lambda
    + log_ndtr(theta / sqrt s) + theta^2 / 2s + log(2 pi s) / 2.
    """
    W, C, Z, mu = state.W, state.C, state.Z, state.mu
    Q, K = W.shape
    maskf = data.observed.float_mask
    gram = masked_gram(C, maskf)  # Q x K x K
    proj = (maskf * (Z - mu[:, None])) @ C.T  # Q x K
    den = gram.diagonal(axis1=1, axis2=2).T.copy()  # K x Q: (M_i)_kk
    good = den > 0.0  # the row has signal on the concept
    # what depends on s alone, over the rows with signal, packed concept
    # by concept: concept k's rows are ends[k]:ends[k + 1]
    counts = np.count_nonzero(good, axis=1)
    ends = [0] + np.cumsum(counts).tolist()
    den_g = den[good]
    s = 1.0 / den_g
    root_s = np.sqrt(s)
    two_s = 2.0 * s
    half_log = 0.5 * np.log(2.0 * math.pi * s)
    lam_s = np.repeat(state.lam, counts) * s
    log_lam = np.log(state.lam)
    log_r = np.log(state.r)
    log1m_r = np.log1p(-state.r)
    act = np.empty((K, Q))
    act[:] = state.r[:, None]
    for k in range(K):
        g = good[k]
        rows = slice(ends[k], ends[k + 1])
        # the masked residual of every other concept, projected on c_k
        num = np.add.reduce(gram[:, k] * W, axis=1)
        np.subtract(proj[:, k], num, out=num)
        num += W[:, k] * den[k]
        theta = num[g]
        theta /= den_g[rows]
        theta -= lam_s[rows]
        # log-odds of activity: minus the slab's log density at 0, then
        # plus log lambda + log r - log(1 - r)
        odds = theta * theta
        odds /= two_s[rows]
        odds += half_log[rows]
        odds += special.log_ndtr(theta / root_s[rows])
        odds += log_lam[k]
        odds += log_r[k]
        odds -= log1m_r[k]
        act[k][g] = special.expit(odds, out=odds)
        active = rng.random(Q) < act[k]
        slab = sample_truncnorm(theta, s[rows], rng)
        col = np.zeros(Q)
        col[g] = slab
        W[:, k] = np.where(active, col, 0.0)
        # an active weight on a row without signal is drawn from its prior
        fallback = active & ~g
        n_fallback = np.count_nonzero(fallback)
        if n_fallback:
            W[fallback, k] = rng.exponential(1.0 / state.lam[k], n_fallback)
    state.activity[:] = act.T


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

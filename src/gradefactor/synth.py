"""Ground-truth instance generation for benchmarking.

Instances are drawn from the model's own priors: sparse non-negative
weights with exponential magnitudes, knowledge columns from a normal
with an inverse-Wishart(I, K + 1) covariance, normal difficulties, and
Bernoulli responses through the chosen link.  The observation mask is
i.i.d. uniform at the requested rate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bayes import sample_inv_wishart
from .links import LinkKind, inv_link
from .model import FactorModel, ResponseMatrix


@dataclass
class SynthConfig:
    """Generator settings.

    nnz_mode picks the support law for each question row: ("uniform",
    lo, hi) draws the nonzero count uniformly on {lo..hi} and places it
    at random, while ("bernoulli", q) activates each entry independently.
    The default is uniform on {1..min(3, K)}.  lambda_k is the
    exponential rate of active weights (mean 1/lambda_k).  seed must be
    a non-negative integer, as numpy's generators require.
    """

    Q: int
    N: int
    K: int
    nnz_mode: tuple | None = None
    lambda_k: float = 2.0 / 3.0
    v_mu: float = 1.0
    p_obs: float = 1.0
    link: LinkKind = LinkKind.PROBIT
    seed: int = 0

    def __post_init__(self):
        if min(self.Q, self.N, self.K) < 1:
            raise ValueError("Q, N and K must be positive")
        if not 0.0 < self.p_obs <= 1.0:
            raise ValueError("p_obs must lie in (0, 1]")
        for name in ("lambda_k", "v_mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if self.nnz_mode is None:
            self.nnz_mode = ("uniform", 1, min(3, self.K))
        mode = self.nnz_mode[0]
        if mode == "uniform":
            lo, hi = int(self.nnz_mode[1]), int(self.nnz_mode[2])
            if not 0 <= lo <= hi <= self.K:
                raise ValueError("uniform support bounds must satisfy 0 <= lo <= hi <= K")
        elif mode == "bernoulli":
            q = float(self.nnz_mode[1])
            if not 0.0 < q < 1.0:
                raise ValueError("bernoulli activation rate must lie in (0, 1)")
        else:
            raise ValueError(f"unknown support law {mode!r}")


def _draw_weights(config: SynthConfig, rng) -> np.ndarray:
    Q, K = config.Q, config.K
    W = np.zeros((Q, K))
    scale = 1.0 / config.lambda_k
    mode = config.nnz_mode[0]
    if mode == "bernoulli":
        q = float(config.nnz_mode[1])
        active = rng.random((Q, K)) < q
        W[active] = rng.exponential(scale, int(active.sum()))
        return W
    lo, hi = int(config.nnz_mode[1]), int(config.nnz_mode[2])
    for i in range(Q):
        nnz = int(rng.integers(lo, hi + 1))
        if nnz == 0:
            continue
        support = rng.choice(K, size=nnz, replace=False)
        W[i, support] = rng.exponential(scale, nnz)
    return W


def generate_synthetic(config: SynthConfig):
    """Draw (ground-truth FactorModel, ResponseMatrix) from the priors,
    seeded by config.seed."""
    rng = np.random.default_rng(config.seed)
    Q, N, K = config.Q, config.N, config.K
    W = _draw_weights(config, rng)
    V = sample_inv_wishart(np.eye(K), K + 1, rng)
    C = np.linalg.cholesky(V) @ rng.standard_normal((K, N))
    mu = rng.normal(0.0, np.sqrt(config.v_mu), Q)
    truth = FactorModel(W, C, mu, config.link)
    probs = inv_link(W @ C + mu[:, None], config.link)
    Y = (rng.random((Q, N)) < probs).astype(float)
    mask = rng.random((Q, N)) < config.p_obs
    return truth, ResponseMatrix(np.where(mask, Y, 0.0), mask)

"""Ground-truth instance generation for benchmarking.

Instances are drawn from the model's own priors: sparse non-negative
weights with exponential magnitudes, knowledge columns from a normal
with an inverse-Wishart(I, K + 1) covariance, normal difficulties, and
Bernoulli responses through the chosen link.  The observation mask is
i.i.d. uniform at the requested rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import sample_inv_wishart
from .links import LinkKind, inv_link
from .model import FactorModel, ResponseMatrix, check_count, check_real, slack


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.

    nnz_mode picks the support law for each question row: ("uniform",
    lo, hi) draws the nonzero count uniformly on {lo..hi} and places it
    at random, while ("bernoulli", q) activates each entry independently.
    The default is uniform on {1..min(3, K)}.  lambda_k is the
    exponential rate of active weights (mean 1/lambda_k).  Q, N and K
    must be integers >= 1, seed an integer >= 0 (as numpy's generators
    require), and lambda_k and v_mu finite and positive.
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
        for name in ("Q", "N", "K"):
            check_count(name, getattr(self, name))
        check_real("p_obs", self.p_obs, positive=True)
        if self.p_obs > 1.0:
            raise ValueError("p_obs must lie in (0, 1]")
        check_real("lambda_k", self.lambda_k, positive=True)
        check_real("v_mu", self.v_mu, positive=True)
        check_count("seed", self.seed, minimum=0)
        if self.nnz_mode is None:
            object.__setattr__(self, "nnz_mode", ("uniform", 1, min(3, self.K)))
        mode, *params = self.nnz_mode
        if mode == "uniform" and len(params) == 2:
            lo, hi = params
            check_count("nnz_mode lo", lo, minimum=0)
            check_count("nnz_mode hi", hi, minimum=0)
            if not lo <= hi <= self.K:
                raise ValueError("uniform support bounds must satisfy 0 <= lo <= hi <= K")
        elif mode == "bernoulli" and len(params) == 1:
            check_real("nnz_mode rate", params[0], positive=True)
            if params[0] >= 1.0:
                raise ValueError("bernoulli activation rate must lie in (0, 1)")
        else:
            raise ValueError("nnz_mode must be ('uniform', lo, hi) or ('bernoulli', q), "
                             f"not {self.nnz_mode!r}")


def _draw_weights(config: SynthConfig, rng) -> np.ndarray:
    Q, K = config.Q, config.K
    W = np.zeros((Q, K))
    scale = 1.0 / config.lambda_k
    mode = config.nnz_mode[0]
    if mode == "bernoulli":
        active = rng.random((Q, K)) < config.nnz_mode[1]
        W[active] = rng.exponential(scale, int(active.sum()))
        return W
    lo, hi = config.nnz_mode[1:]
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
    probs = inv_link(slack(truth), config.link)
    correct = rng.random((Q, N)) < probs
    mask = rng.random((Q, N)) < config.p_obs
    return truth, ResponseMatrix(correct, mask)

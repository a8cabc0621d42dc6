"""Solver-level checks: gradients against finite differences, step sizes
against power iteration, subproblem solutions against grid search, and the
outer-loop monotonicity guarantee."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from gradefactor import mle
from gradefactor.links import LinkKind, log_inv_link
from gradefactor.mle import (
    MLConfig,
    bic_select_lambda,
    fit_ml,
    objective_value,
    pick_min_bic,
    _phase_c,
    _phase_w,
)
from gradefactor.model import FactorModel, ResponseMatrix, log_likelihood, masked_gram
from gradefactor.synth import SynthConfig, generate_synthetic

from helpers import (
    central_diff,
    col_gradient,
    col_lipschitz,
    col_objective_oracle,
    random_row_instance as random_instance,
    row_gradient,
    row_lipschitz,
    row_objective_oracle,
    smooth_col_oracle,
    smooth_row_oracle,
    solve_col,
    solve_row,
)

LINKS = [LinkKind.PROBIT, LinkKind.LOGIT]


class TestConfig:
    @pytest.mark.parametrize("field", ["lambda_l1", "gamma_c", "mu_w", "outer_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MLConfig(**{"lambda_l1": 1.0, field: value})

    @pytest.mark.parametrize("field,value", [
        ("restarts", 1.5),
        ("inner_iters", math.nan),
        ("max_outer", math.inf),
        ("seed", 2.0),
        ("restarts", True),
        ("max_outer", True),
        ("seed", True),
        ("seed", -1),
    ])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MLConfig(**{"lambda_l1": 1.0, field: value})

    @pytest.mark.parametrize("value", ["probit", None, 1])
    def test_link_must_be_a_linkkind(self, value):
        with pytest.raises(TypeError, match="link must be a LinkKind"):
            MLConfig(lambda_l1=1.0, link=value)


class TestGradients:
    @pytest.mark.parametrize("link", LINKS)
    def test_w_gradient_matches_finite_differences(self, link):
        rng = np.random.default_rng(10)
        for _ in range(30):
            K = int(rng.integers(1, 5))
            N = int(rng.integers(2, 7))
            w, C_aug, y, mask = random_instance(rng, K, N)
            mu_w = 0.05
            grad = row_gradient(w, C_aug, y, mask, mu_w, link)
            fd = central_diff(
                lambda v: smooth_row_oracle(v, C_aug, y, mask, mu_w, link), w
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("link", LINKS)
    def test_c_gradient_matches_finite_differences(self, link):
        rng = np.random.default_rng(11)
        for _ in range(30):
            K = int(rng.integers(1, 5))
            Q = int(rng.integers(2, 7))
            W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
            y = rng.integers(0, 2, Q).astype(float)
            mask = rng.random(Q) < 0.8
            if not mask.any():
                mask[0] = True
            c = rng.normal(size=K)
            grad = col_gradient(c, W_aug, y, mask, link)
            fd = central_diff(lambda v: smooth_col_oracle(v, W_aug, y, mask, link), c)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_logit_zero_weights_closed_form(self):
        rng = np.random.default_rng(12)
        K, N = 3, 6
        C_aug = np.vstack([rng.normal(size=(K, N)), np.ones((1, N))])
        y = rng.integers(0, 2, N).astype(float)
        mask = np.ones(N, dtype=bool)
        grad = row_gradient(np.zeros(K + 1), C_aug, y, mask, 0.0, LinkKind.LOGIT)
        np.testing.assert_allclose(grad, -C_aug @ (y - 0.5), atol=1e-12)

    def test_empty_mask_reduces_to_ridge(self):
        w = np.array([0.3, -0.2, 1.0])
        C_aug = np.ones((3, 4))
        grad = row_gradient(w, C_aug, np.zeros(4), np.zeros(4, dtype=bool), 0.7,
                            LinkKind.PROBIT)
        np.testing.assert_array_equal(grad, 0.7 * w)


def power_iteration_sigma_sq(M, iters=2000):
    v = np.ones(M.shape[1]) / math.sqrt(M.shape[1])
    gram = M.T @ M
    for _ in range(iters):
        v = gram @ v
        v /= np.linalg.norm(v)
    return float(v @ (gram @ v))


class TestLipschitz:
    def test_identity_probit(self):
        L = row_lipschitz(np.eye(2), np.ones(2), 0.0, LinkKind.PROBIT)
        assert L == pytest.approx(1.0)

    def test_identity_logit(self):
        L = row_lipschitz(np.eye(2), np.ones(2), 0.0, LinkKind.LOGIT)
        assert L == pytest.approx(0.25)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(13)
        M = rng.normal(size=(6, 4))
        expected = power_iteration_sigma_sq(M)
        # M as the design of a row with 4 learners, and as the weights of
        # a column with 6 questions and 4 concepts
        L_row = row_lipschitz(M, np.ones(4), 0.0, LinkKind.PROBIT)
        L_col = col_lipschitz(M, np.ones(6), LinkKind.PROBIT)
        assert L_row == pytest.approx(expected, abs=1e-8)
        assert L_col == pytest.approx(expected, abs=1e-8)

    def test_blank_row_step_is_ridge(self):
        # a question nobody answered keeps only the ridge curvature
        C_aug = np.ones((3, 4))
        assert row_lipschitz(C_aug, np.zeros(4), 0.7, LinkKind.PROBIT) == 0.7

    @pytest.mark.parametrize("link", LINKS)
    def test_descent_lemma(self, link):
        rng = np.random.default_rng(14)
        for _ in range(20):
            K = int(rng.integers(1, 4))
            N = int(rng.integers(2, 8))
            w, C_aug, y, mask = random_instance(rng, K, N)
            mu_w = 1e-3
            L = row_lipschitz(C_aug, mask, mu_w, link)
            for _ in range(10):
                x = rng.normal(size=K + 1)
                step = rng.normal(size=K + 1)
                ynew = x + step
                fx = smooth_row_oracle(x, C_aug, y, mask, mu_w, link)
                fy = smooth_row_oracle(ynew, C_aug, y, mask, mu_w, link)
                gx = row_gradient(x, C_aug, y, mask, mu_w, link)
                bound = fx + gx @ step + 0.5 * L * float(step @ step)
                assert fy <= bound + 1e-9 * max(1.0, abs(bound))


class TestProxSteps:
    # with step 1/L a single proximal-gradient step never raises the
    # objective, so the accept-if-improved guard keeps it and one phase
    # iteration from a start point is exactly one prox step
    def test_nonneg_soft_threshold(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            w, C_aug, y, mask = random_instance(rng, 3, 8)
            lam, mu_w = 0.3, 1e-3
            t = 1.0 / row_lipschitz(C_aug, mask, mu_w, LinkKind.PROBIT)
            step = w - t * row_gradient(w, C_aug, y, mask, mu_w, LinkKind.PROBIT)
            out = solve_row(w, C_aug, y, mask, lam, mu_w, LinkKind.PROBIT, 1)
            np.testing.assert_allclose(out[:-1], np.maximum(step[:-1] - lam * t, 0.0),
                                       rtol=1e-12, atol=1e-14)
            assert out[-1] == pytest.approx(step[-1], rel=1e-12, abs=1e-14)

    def test_ridge_rescale(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            Q, K = 8, 2
            W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
            y = rng.integers(0, 2, Q).astype(float)
            mask = rng.random(Q) < 0.8
            c = rng.normal(size=K)
            gamma = 1.5
            t = 1.0 / col_lipschitz(W_aug[:, :-1], mask, LinkKind.PROBIT)
            step = c - t * col_gradient(c, W_aug, y, mask, LinkKind.PROBIT)
            out = solve_col(c, W_aug, y, mask, gamma, LinkKind.PROBIT, 1)
            np.testing.assert_allclose(out, step / (1.0 + gamma * t), rtol=1e-12,
                                       atol=1e-14)


class TestRowSolver:
    def test_strong_shrinkage_zeroes_concepts(self):
        rng = np.random.default_rng(15)
        K, N = 3, 10
        C_aug = np.vstack([rng.normal(size=(K, N)), np.ones((1, N))])
        y = rng.integers(0, 2, N).astype(float)
        mask = np.ones(N, dtype=bool)
        g0 = row_gradient(np.zeros(K + 1), C_aug, y, mask, 0.0, LinkKind.PROBIT)
        lam = 10.0 * float(np.abs(g0).max())
        w = solve_row(np.zeros(K + 1), C_aug, y, mask, lam, 1e-4,
                      LinkKind.PROBIT, iters=50)
        np.testing.assert_array_equal(w[:K], 0.0)
        # difficulty coordinate is free to move
        assert abs(w[K]) > 0 or abs(float(g0[K])) < 1e-12

    def test_zero_iters_returns_start(self):
        w0 = np.array([0.5, 1.0])
        out = solve_row(w0, np.ones((2, 3)), np.ones(3), np.ones(3, dtype=bool),
                        0.1, 0.0, LinkKind.PROBIT, iters=0)
        np.testing.assert_array_equal(out, w0)

    @pytest.mark.parametrize("link", LINKS)
    def test_k1_matches_grid_search(self, link):
        # pure 1-D problem: the design's difficulty row is zero, so the
        # difficulty coordinate stays at its start 0 and only the weight
        # moves.  The random labels put the optimum on the w=0 boundary;
        # labels that follow the sign of c, three of them flipped, put it
        # inside (about 0.67 probit, 1.00 logit), so that input starts at
        # 2.5, away from both optima
        rng = np.random.default_rng(16)
        N = 12
        c = rng.normal(size=N)
        y_random = rng.integers(0, 2, N).astype(float)
        y_sign = (c > 0).astype(float)
        y_sign[:3] = 1.0 - y_sign[:3]
        C_aug = np.vstack([c, np.zeros(N)])
        mask = np.ones(N, dtype=bool)
        lam, mu_w = 0.3, 1e-3
        grid = np.arange(0.0, 5.0001, 1e-4)
        for y, w0 in ((y_random, 1.0), (y_sign, 2.5)):
            w = solve_row(np.array([w0, 0.0]), C_aug, y, mask, lam, mu_w, link,
                          iters=4000)
            assert w[1] == 0.0
            vals = [row_objective_oracle(np.array([g, 0.0]), C_aug, y, mask, lam,
                                         mu_w, link) for g in grid]
            best = grid[int(np.argmin(vals))]
            assert abs(float(w[0]) - best) < 1e-3

    def test_nonnegativity_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            K, N = 3, 8
            w, C_aug, y, mask = random_instance(rng, K, N)
            out = solve_row(w, C_aug, y, mask, 0.05, 1e-4, LinkKind.PROBIT, 25)
            assert (out[:K] >= 0).all()


class TestColSolver:
    @pytest.mark.parametrize("link", LINKS)
    def test_k1_matches_grid_search(self, link):
        rng = np.random.default_rng(18)
        Q = 12
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, 1))), rng.normal(size=(Q, 1))])
        y = rng.integers(0, 2, Q).astype(float)
        mask = np.ones(Q, dtype=bool)
        gamma = 0.4
        c = solve_col(np.array([2.0]), W_aug, y, mask, gamma, link, iters=4000)
        grid = np.arange(-5.0, 5.0001, 1e-4)
        vals = [col_objective_oracle(np.array([g]), W_aug, y, mask, gamma, link)
                for g in grid]
        best = grid[int(np.argmin(vals))]
        assert abs(float(c[0]) - best) < 1e-3

    def test_huge_gamma_drives_to_zero(self):
        rng = np.random.default_rng(19)
        Q = 10
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, 2))), rng.normal(size=(Q, 1))])
        y = rng.integers(0, 2, Q).astype(float)
        mask = np.ones(Q, dtype=bool)
        c = solve_col(np.array([3.0, -2.0]), W_aug, y, mask, 1e6,
                      LinkKind.PROBIT, iters=500)
        assert np.linalg.norm(c) <= 1e-4


class TestAcceleratedRate:
    def test_gap_bounded_by_accelerated_rate(self):
        rng = np.random.default_rng(20)
        K, N = 3, 12
        w0, C_aug, y, mask = random_instance(rng, K, N)
        lam, mu_w = 0.2, 1e-3
        link = LinkKind.PROBIT
        L = row_lipschitz(C_aug, mask, mu_w, link)
        w_star = solve_row(w0, C_aug, y, mask, lam, mu_w, link, iters=20000)
        f_star = row_objective_oracle(w_star, C_aug, y, mask, lam, mu_w, link)
        dist_sq = float(np.sum((w0 - w_star) ** 2))
        for ell in range(1, 51):
            w_ell = solve_row(w0, C_aug, y, mask, lam, mu_w, link, iters=ell)
            gap = row_objective_oracle(w_ell, C_aug, y, mask, lam, mu_w, link) - f_star
            assert gap <= 2.0 * L * dist_sq / (ell + 1) ** 2 + 1e-10


class TestObjective:
    def test_all_correct_zero_factors(self):
        Q, N = 4, 5
        data = ResponseMatrix(np.ones((Q, N)))
        cfg = MLConfig(lambda_l1=3.0)
        value = objective_value(np.zeros((Q, 3)), np.zeros((2, N)), data, cfg)
        assert value == pytest.approx(Q * N * math.log(2.0), rel=1e-12)

    def test_penalties_only_with_empty_mask(self):
        rng = np.random.default_rng(21)
        Q, N, K = 3, 4, 2
        data = ResponseMatrix(np.zeros((Q, N)), np.zeros((Q, N), dtype=bool))
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
        C = rng.normal(size=(K, N))
        cfg = MLConfig(lambda_l1=0.7, gamma_c=0.3, mu_w=0.2)
        expected = 0.0
        for i in range(Q):
            for k in range(K):
                expected += 0.7 * abs(W_aug[i, k])
        for i in range(Q):
            for k in range(K + 1):
                expected += 0.1 * W_aug[i, k] ** 2
        for k in range(K):
            for j in range(N):
                expected += 0.15 * C[k, j] ** 2
        assert objective_value(W_aug, C, data, cfg) == pytest.approx(expected, rel=1e-12)

    def test_matches_likelihood_composition(self):
        rng = np.random.default_rng(22)
        Q, N, K = 4, 5, 2
        truth, data = generate_synthetic(SynthConfig(Q=Q, N=N, K=K, seed=1))
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
        C = rng.normal(size=(K, N))
        cfg = MLConfig(lambda_l1=0.5, gamma_c=0.2, mu_w=0.1)
        model = FactorModel(W_aug[:, :K], C, W_aug[:, K], cfg.link)
        expected = (
            -log_likelihood(model, data)
            + 0.5 * np.sum(W_aug[:, :K] ** 2) * cfg.mu_w
            + 0.5 * cfg.mu_w * np.sum(W_aug[:, K] ** 2)
            + 0.5 * cfg.gamma_c * np.sum(C**2)
            + cfg.lambda_l1 * np.sum(np.abs(W_aug[:, :K]))
        )
        assert objective_value(W_aug, C, data, cfg) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("link", LINKS)
    def test_partial_mask_matches_dense_formula(self, link):
        rng = np.random.default_rng(27)
        Q, N, K = 9, 11, 3
        truth, data = generate_synthetic(SynthConfig(Q=Q, N=N, K=K, p_obs=0.6, seed=7))
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
        C = rng.normal(size=(K, N))
        Z = W_aug[:, :K] @ C + W_aug[:, K][:, None]
        if link is LinkKind.PROBIT:
            erfc = np.vectorize(math.erfc)
            log_p = np.log(0.5 * erfc(-Z / math.sqrt(2.0)))
            log_q = np.log(0.5 * erfc(Z / math.sqrt(2.0)))
        else:
            log_p = -np.log1p(np.exp(-Z))
            log_q = -np.log1p(np.exp(Z))
        Y, M = data.entries, data.mask.astype(float)
        ll = float(np.sum(M * (Y * log_p + (1.0 - Y) * log_q)))
        cfg = MLConfig(lambda_l1=0.4, gamma_c=0.3, mu_w=0.05, link=link)
        expected = (
            -ll
            + cfg.lambda_l1 * np.sum(np.abs(W_aug[:, :K]))
            + 0.5 * cfg.mu_w * np.sum(W_aug**2)
            + 0.5 * cfg.gamma_c * np.sum(C**2)
        )
        model = FactorModel(W_aug[:, :K], C, W_aug[:, K], link)
        assert 0 < data.n_observed < Q * N
        assert log_likelihood(model, data) == pytest.approx(ll, rel=1e-12)
        assert objective_value(W_aug, C, data, cfg) == pytest.approx(expected, rel=1e-12)

    def test_negative_weight_rejected(self):
        data = ResponseMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            objective_value(np.array([[-0.1, 0.0], [0.0, 0.0]]), np.zeros((1, 2)),
                            data, MLConfig(lambda_l1=1.0))


def blank_question_and_learner(data):
    """data with question 0 answered by no learner and learner N-1 answering
    nothing."""
    mask = data.mask.copy()
    mask[0, :] = False
    mask[:, -1] = False
    return ResponseMatrix(data.entries, mask)


class TestBatchedPhases:
    # every row (column) of a multi-row (multi-column) phase call equals
    # the same phase run on that row (column) alone
    @staticmethod
    def check_phase_w(data, rng):
        Q, N, K = data.Q, data.N, 2
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
        C_aug = np.vstack([rng.normal(size=(K, N)), np.ones((1, N))])
        lam, mu_w, iters = 0.15, 1e-3, 8
        work = mle._Workspace(data.observed, W_aug, C_aug, LinkKind.PROBIT)
        batched = _phase_w(W_aug.copy(), C_aug, work, lam, mu_w, LinkKind.PROBIT,
                           iters)
        for i in range(Q):
            single = solve_row(W_aug[i], C_aug, data.entries[i], data.mask[i],
                               lam, mu_w, LinkKind.PROBIT, iters)
            np.testing.assert_allclose(batched[i], single, atol=1e-9)

    @staticmethod
    def check_phase_c(data, rng):
        Q, N, K = data.Q, data.N, 2
        W_aug = np.hstack([np.abs(rng.normal(size=(Q, K))), rng.normal(size=(Q, 1))])
        C = rng.normal(size=(K, N))
        gamma, iters = 0.25, 8
        work = mle._Workspace(data.observed, W_aug, np.vstack([C, np.ones((1, N))]),
                              LinkKind.PROBIT)
        batched = _phase_c(C.copy(), W_aug, work, gamma, LinkKind.PROBIT, iters)
        for j in range(N):
            single = solve_col(C[:, j], W_aug, data.entries[:, j], data.mask[:, j],
                               gamma, LinkKind.PROBIT, iters)
            np.testing.assert_allclose(batched[:, j], single, atol=1e-9)

    def test_phase_w_matches_row_solver(self):
        truth, data = generate_synthetic(SynthConfig(Q=5, N=7, K=2, p_obs=0.8, seed=2))
        self.check_phase_w(data, np.random.default_rng(23))

    def test_phase_c_matches_col_solver(self):
        truth, data = generate_synthetic(SynthConfig(Q=6, N=5, K=2, p_obs=0.9, seed=3))
        self.check_phase_c(data, np.random.default_rng(24))

    def test_phase_w_with_blank_question_and_learner(self):
        truth, data = generate_synthetic(SynthConfig(Q=6, N=8, K=2, p_obs=0.7, seed=4))
        self.check_phase_w(blank_question_and_learner(data), np.random.default_rng(25))

    def test_phase_c_with_blank_question_and_learner(self):
        truth, data = generate_synthetic(SynthConfig(Q=7, N=6, K=2, p_obs=0.7, seed=5))
        self.check_phase_c(blank_question_and_learner(data), np.random.default_rng(26))

    def test_link_kernels_see_only_observed_cells(self, monkeypatch):
        import gradefactor.mle as mle

        truth, data = generate_synthetic(SynthConfig(Q=30, N=40, K=3, p_obs=0.3, seed=6))
        shapes = {"hazard": [], "log_inv_link": []}
        for name in shapes:
            def recording(x, link, out=None, _real=getattr(mle, name),
                          _shapes=shapes[name]):
                _shapes.append(np.shape(x))
                return _real(x, link, out)
            monkeypatch.setattr(mle, name, recording)
        fit_ml(data, 3, MLConfig(lambda_l1=0.5, max_outer=4, outer_tol=0, restarts=2))
        # the 2 restarts run as one stack: each call evaluates the observed
        # cells of both, one row per restart
        assert len(shapes["hazard"]) == 4 * 2 * 10
        assert len(shapes["log_inv_link"]) == 1 + 4 * 2
        assert set(shapes["hazard"]) == {(2, data.n_observed)}
        assert set(shapes["log_inv_link"]) == {(2, data.n_observed)}


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# (members, p_obs, block cells) of the block shapes the slack takes, on a
# 23 x 10 matrix whose rows 9-11 are unobserved: one member in blocks of 3
# rows (a short last block, and rows 9-11 a block with no observed cell);
# every cell observed, where the cells are the slack itself; a stack of 3
# members in one batched block, as every multi-member stack runs; and the
# same stack in blocks of 2 rows of every member, the leftover last row
# joining the block before it
BLOCK_CASES = {
    "row-blocks": (1, 0.7, 30),
    "fully-observed": (1, 1.0, 30),
    "members": (3, 0.7, mle._BLOCK_CELLS),
    "members-in-row-blocks": (3, 0.7, 60),
}


def block_case(name, monkeypatch, seed=0):
    """(data, W_aug, C) of a stack for BLOCK_CASES[name], with the block
    constant patched."""
    B, p_obs, block = BLOCK_CASES[name]
    monkeypatch.setattr(mle, "_BLOCK_CELLS", block)
    Q, N, K = 23, 10, 2
    _, data = generate_synthetic(SynthConfig(Q=Q, N=N, K=K, p_obs=p_obs, seed=seed))
    if p_obs < 1:
        mask = data.mask.copy()
        mask[9:12] = False
        data = ResponseMatrix(data.entries, mask)
    rng = np.random.default_rng(seed)
    W_aug = np.hstack([np.abs(rng.standard_normal((B * Q, K))),
                       rng.standard_normal((B * Q, 1))])
    return data, W_aug, rng.standard_normal((K, B * N))


def dense_row_slack(W_aug, C_aug, Q, N):
    """B x Q x N: each member's W_aug @ C_aug as one dense product."""
    return np.matmul(mle._row_blocks(W_aug, Q), mle._col_blocks(C_aug, N))


def dense_col_slack(C, W_aug, Q, N):
    """B x Q x N: each member's W C + mu as one dense product."""
    return (np.matmul(mle._row_blocks(W_aug[:, :-1], Q), mle._col_blocks(C, N))
            + mle._row_blocks(W_aug[:, -1:], Q))


def observed_cells(data, Z):
    """B x n_observed: the observed cells of each matrix of a stack."""
    return Z.reshape(len(Z), -1)[:, np.flatnonzero(data.mask)]


def with_ones(C):
    return np.vstack([C, np.ones((1, C.shape[1]))])


class TestBlockedSlack:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_slack_equals_dense_product(self, case, monkeypatch):
        data, W_aug, C = block_case(case, monkeypatch)
        Q, N = data.mask.shape
        work = mle._Workspace(data.observed, W_aug, with_ones(C), LinkKind.PROBIT)
        assert_bitwise(mle._slack(W_aug, with_ones(C), work),
                       observed_cells(data, dense_row_slack(W_aug, with_ones(C), Q, N)))
        assert_bitwise(mle._col_slack(C, W_aug, work),
                       observed_cells(data, dense_col_slack(C, W_aug, Q, N)))

    def test_block_plans(self, monkeypatch):
        rows = {}
        for case in BLOCK_CASES:
            data, W_aug, C = block_case(case, monkeypatch)
            work = mle._Workspace(data.observed, W_aug, with_ones(C), LinkKind.PROBIT)
            rows[case] = work.plan and [(lo, hi) for lo, hi, _, _ in work.plan]
        assert rows["row-blocks"] == [(0, 3), (3, 6), (6, 9), (12, 15), (15, 18),
                                      (18, 21), (21, 23)]
        assert rows["fully-observed"] is None
        assert rows["members"] == [(0, 23)]
        # the last row joins the block before it
        assert rows["members-in-row-blocks"] == (
            [(lo, lo + 2) for lo in range(0, 20, 2) if lo != 10] + [(20, 23)])

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_cache_holds_through_rejections(self, case, monkeypatch):
        # steps of ten times 1/L overshoot, so that the accept-if-improved
        # guard puts some rows and columns back: at 1/L it rejected no
        # column on shapes like these over many seeds
        lipschitz = mle._lipschitz
        monkeypatch.setattr(mle, "_lipschitz", lambda *args: lipschitz(*args) / 10)
        data, W_aug, C = block_case(case, monkeypatch)
        Q, N = data.mask.shape
        link, sign = LinkKind.PROBIT, 2.0 * data.entries - 1.0
        work = mle._Workspace(data.observed, W_aug, with_ones(C), link)
        # every cell's log-likelihood at the iterate, recomputed densely:
        # a phase's end point in the form of the slack that phase uses, and
        # a rejected row or column keeping its values, computed earlier at
        # the same factors
        ref = log_inv_link(sign * dense_row_slack(W_aug, with_ones(C), Q, N), link)
        assert_bitwise(work.loglik, observed_cells(data, ref))
        rejected_rows = rejected_cols = 0
        for _ in range(3):
            C_new = _phase_c(C, W_aug, work, 0.1, link, 3)
            kept = (C_new == C).all(axis=0).reshape(-1, 1, N)
            fresh = log_inv_link(sign * dense_col_slack(C_new, W_aug, Q, N), link)
            ref = np.where(kept, ref, fresh)
            assert_bitwise(work.loglik, observed_cells(data, ref))
            C, rejected_cols = C_new, rejected_cols + kept.sum()

            W_new = _phase_w(W_aug, with_ones(C), work, 0.1, 1e-4, link, 3)
            kept = (W_new == W_aug).all(axis=1).reshape(-1, Q, 1)
            fresh = log_inv_link(sign * dense_row_slack(W_new, with_ones(C), Q, N), link)
            ref = np.where(kept, ref, fresh)
            assert_bitwise(work.loglik, observed_cells(data, ref))
            W_aug, rejected_rows = W_new, rejected_rows + kept.sum()
        assert 0 < rejected_rows < 3 * len(W_aug)
        assert 0 < rejected_cols < 3 * C.shape[1]

    def test_fit_holds_one_dense_array(self):
        # numpy reports its array allocations to tracemalloc.  The dense
        # slack was a second Q x N float64 array next to buf; without it a
        # fit's peak stays below two
        Q, N = 400, 1000
        _, data = generate_synthetic(SynthConfig(Q=Q, N=N, K=5, p_obs=0.1, seed=9))
        data.observed
        tracemalloc.start()
        try:
            fit_ml(data, 5, MLConfig(lambda_l1=1.0, max_outer=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * Q * N * 8

    def test_fit_holds_no_dense_array(self):
        # with the residual half blocked too, a fit's working memory is its
        # observed cells plus one block: it peaks at 2.91 MB here, below one
        # Q x N float64 array (3.2 MB), where the B x Q x N buffer of
        # scattered residuals took it to 5.2 MB
        Q, N = 400, 1000
        _, data = generate_synthetic(SynthConfig(Q=Q, N=N, K=5, p_obs=0.1, seed=9))
        data.observed
        tracemalloc.start()
        try:
            fit_ml(data, 5, MLConfig(lambda_l1=1.0, max_outer=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < Q * N * 8
        rng = np.random.default_rng(9)
        W_aug = np.abs(rng.standard_normal((Q, 6)))
        work = mle._Workspace(data.observed, W_aug,
                              with_ones(rng.standard_normal((5, N))), LinkKind.PROBIT)
        arrays = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
        arrays += [index for _, _, _, index in work.plan]
        assert len(work.plan) > 1 and max(a.size for a in arrays) < Q * N


def scattered(data, cells):
    """B x Q x N: the B x n_observed cells written into zeros, as the
    dense residual buffer held them."""
    out = np.zeros((len(cells),) + data.mask.shape)
    out.reshape(len(cells), -1)[:, np.flatnonzero(data.mask)] = cells
    return out


class TestBlockedResidual:
    # the residual half of the phases (gradients, objective sums and step
    # sizes) block by block of the plan, against the dense forms on a
    # B x Q x N buffer: bitwise where the stack is one block, and within
    # roundoff where BLAS sums rows of several blocks
    MU_W, LAM, GAMMA = 1e-3, 0.3, 0.2

    @staticmethod
    def workspace(case, monkeypatch):
        data, W_aug, C = block_case(case, monkeypatch)
        work = mle._Workspace(data.observed, W_aug, with_ones(C), LinkKind.PROBIT)
        return data, W_aug, C, work

    @staticmethod
    def check(got, want, case):
        if case in ("fully-observed", "members"):  # one block
            assert_bitwise(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_gradients(self, case, monkeypatch):
        data, W_aug, C, work = self.workspace(case, monkeypatch)
        Q, N = data.mask.shape
        link, C_aug = LinkKind.PROBIT, with_ones(C)
        got_w = mle._row_gradient(W_aug, C_aug, work, self.MU_W, link)
        R = scattered(data, mle._residual_cells(mle._slack(W_aug, C_aug, work),
                                                work, link))
        C_t = mle._col_blocks(C_aug, N).transpose(0, 2, 1)
        want_w = -(R @ C_t).reshape(W_aug.shape) + self.MU_W * W_aug
        self.check(got_w, want_w, case)

        got_c = mle._col_gradient(C, W_aug, work, link)
        R = scattered(data, mle._residual_cells(mle._col_slack(C, W_aug, work),
                                                work, link))
        want_c = np.empty(C.shape)
        np.matmul((-mle._row_blocks(W_aug[:, :-1], Q)).transpose(0, 2, 1), R,
                  out=mle._col_blocks(want_c, N))
        self.check(got_c, want_c, case)

    @pytest.mark.parametrize("case", ["row-blocks", "members", "members-in-row-blocks"])
    def test_unobserved_rows_have_no_likelihood_gradient(self, case, monkeypatch):
        data, W_aug, C, work = self.workspace(case, monkeypatch)
        grad = mle._row_gradient(W_aug, with_ones(C), work, 0.0, LinkKind.PROBIT)
        blank = mle._row_blocks(grad, data.Q)[:, 9:12]
        assert np.count_nonzero(blank) == 0
        assert np.count_nonzero(mle._row_blocks(grad, data.Q)[:, :9]) > 0

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_objective_sums_are_bitwise(self, case, monkeypatch):
        data, W_aug, C, work = self.workspace(case, monkeypatch)
        ll = scattered(data, work.loglik)
        lam = self.LAM
        want = (-ll.sum(axis=-1).reshape(-1) + lam * np.abs(W_aug[:, :-1]).sum(axis=1)
                + 0.5 * self.MU_W * (W_aug * W_aug).sum(axis=1))
        assert_bitwise(mle._row_objectives(W_aug, work.loglik, work, lam, self.MU_W),
                       want)
        want = -ll.sum(axis=-2).reshape(-1) + 0.5 * self.GAMMA * (C * C).sum(axis=0)
        assert_bitwise(mle._col_objectives(C, work.loglik, work, self.GAMMA), want)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_step_sizes(self, case, monkeypatch):
        data, W_aug, C, work = self.workspace(case, monkeypatch)
        maskf, link = data.mask.astype(float), LinkKind.PROBIT
        A = with_ones(C)
        self.check(mle._lipschitz(work.row_grams(A), self.MU_W, link),
                   mle._lipschitz(masked_gram(A, maskf), self.MU_W, link), case)
        A = W_aug[:, :-1].T
        self.check(mle._lipschitz(work.col_grams(A), 0.0, link),
                   mle._lipschitz(masked_gram(A, maskf.T), 0.0, link), case)

    def test_stack_in_row_blocks_equals_members_alone(self, monkeypatch):
        # a stack of 3 members in blocks of 2 rows of each, and each member
        # alone in blocks of 2 rows: every block's products and sums meet
        # the same numbers in the same order
        data, _, _ = block_case("members-in-row-blocks", monkeypatch)
        config = MLConfig(lambda_l1=0.3, max_outer=6, outer_tol=1e-3)
        members = [(0.3, seed) for seed in np.random.SeedSequence(5).spawn(3)]
        stacked = mle._run_stack(data, 2, config, members)
        monkeypatch.setattr(mle, "_BLOCK_CELLS", 2 * data.N)
        for member, fit in zip(members, stacked):
            alone = mle._run_stack(data, 2, config, [member])[0]
            for got, want in zip(fit, alone):
                assert_bitwise(got, want)


class TestFit:
    def test_objective_trace_nonincreasing(self):
        for seed in range(3):
            truth, data = generate_synthetic(
                SynthConfig(Q=25, N=25, K=3, p_obs=0.9, seed=seed)
            )
            _, trace = fit_ml(data, 3, MLConfig(lambda_l1=0.1, seed=seed, max_outer=60))
            diffs = np.diff(trace.objectives)
            assert (diffs <= 1e-9).all()

    def test_all_unobserved_rejected(self):
        data = ResponseMatrix(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            fit_ml(data, 2, MLConfig(lambda_l1=0.1))

    def test_weights_nonnegative_and_deterministic(self):
        truth, data = generate_synthetic(SynthConfig(Q=20, N=20, K=2, seed=5))
        cfg = MLConfig(lambda_l1=0.2, seed=9, restarts=2, max_outer=25)
        model1, trace1 = fit_ml(data, 2, cfg)
        model2, trace2 = fit_ml(data, 2, cfg)
        assert (model1.W >= 0).all()
        np.testing.assert_array_equal(model1.W, model2.W)
        np.testing.assert_array_equal(model1.C, model2.C)
        assert trace1.restart_index == trace2.restart_index

    @pytest.mark.parametrize("p_obs", [1.0, 0.5])
    def test_thread_parallel_restarts_identical(self, p_obs):
        # 50 x 50 cells: above the probit serial-restart threshold
        truth, data = generate_synthetic(SynthConfig(Q=50, N=50, K=2, p_obs=p_obs,
                                                     seed=6))
        cfg = MLConfig(lambda_l1=0.2, seed=3, restarts=3, max_outer=15)
        serial, _ = fit_ml(data, 2, cfg, n_threads=1)
        # switch threads often so that restarts sharing any scratch state
        # would interleave inside a phase
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, _ = fit_ml(data, 2, cfg, n_threads=3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(serial.W, threaded.W)
        np.testing.assert_array_equal(serial.C, threaded.C)

    @pytest.mark.parametrize("link,Q,N,pooled", [
        (LinkKind.PROBIT, 40, 49, False),
        (LinkKind.PROBIT, 80, 99, False),
        (LinkKind.PROBIT, 80, 100, True),
        (LinkKind.LOGIT, 60, 99, False),
        (LinkKind.LOGIT, 127, 129, False),
        (LinkKind.LOGIT, 128, 128, True),
    ])
    def test_small_fits_run_restarts_serially(self, monkeypatch, link, Q, N, pooled):
        # two restarts split into one-restart stacks on the pool only when
        # each keeps _SERIAL_RESTART_CELLS[link] cells; else they run as
        # one stack on the calling thread
        _, data = generate_synthetic(SynthConfig(Q=Q, N=N, K=2, seed=6))
        stacks = []

        def recording(data, K, config, members, _real=mle._run_stack):
            stacks.append((threading.get_ident(), len(members)))
            return _real(data, K, config, members)

        monkeypatch.setattr(mle, "_run_stack", recording)
        fit_ml(data, 2, MLConfig(lambda_l1=0.2, link=link, restarts=2, max_outer=1),
               n_threads=2)
        assert sorted(n for _, n in stacks) == ([1, 1] if pooled else [2])
        assert all((tid != threading.get_ident()) == pooled for tid, _ in stacks)

    @pytest.mark.parametrize("n_members,cells,link,n_threads,sizes", [
        (8, 3366, LinkKind.LOGIT, 1, [8]),
        (8, 3366, LinkKind.LOGIT, 2, [8]),
        (8, 3366, LinkKind.LOGIT, 4, [8]),
        (8, 3366, LinkKind.LOGIT, 8, [8]),
        (10, 3366, LinkKind.LOGIT, 1, [5, 5]),
        (8, 10_000, LinkKind.LOGIT, 1, [3, 3, 2]),
        (3, 60_000, LinkKind.PROBIT, 1, [1, 1, 1]),
        (3, 60_000, LinkKind.PROBIT, 8, [1, 1, 1]),
        (5, 1_000, LinkKind.PROBIT, 8, [5]),
        (1, 60_000, LinkKind.PROBIT, 2, [1]),
        (8, 3366, LinkKind.PROBIT, 4, [4, 4]),
        (4, 8192, LinkKind.LOGIT, 4, [2, 2]),
    ])
    def test_member_chunks(self, n_members, cells, link, n_threads, sizes):
        # at most _BATCH_CELLS cells per stack unless one member is larger;
        # with threads, up to min(n_threads, members) stacks while each
        # keeps _SERIAL_RESTART_CELLS[link] cells
        # the members are dealt round-robin: stack s holds s, s + n, ...
        chunks = mle._chunks(n_members, cells, link, n_threads)
        assert [len(c) for c in chunks] == sizes
        for s, chunk in enumerate(chunks):
            assert np.array_equal(chunk, np.arange(s, n_members, len(chunks)))

    @pytest.mark.parametrize("n_threads", [0, -2, 2.5, True])
    def test_bad_thread_count_rejected(self, n_threads):
        _, data = generate_synthetic(SynthConfig(Q=6, N=6, K=1, seed=9))
        cfg = MLConfig(lambda_l1=1.0, max_outer=2)
        with pytest.raises(ValueError, match="n_threads"):
            fit_ml(data, 1, cfg, n_threads=n_threads)
        with pytest.raises(ValueError, match="n_threads"):
            bic_select_lambda(data, 1, [0.5, 1.0], cfg, n_threads=n_threads)

    @pytest.mark.parametrize("K", [0, 2.5])
    def test_bad_concept_count_rejected(self, K):
        _, data = generate_synthetic(SynthConfig(Q=6, N=6, K=1, seed=9))
        cfg = MLConfig(lambda_l1=1.0, max_outer=2)
        with pytest.raises(ValueError, match="^K must be an integer >= 1"):
            fit_ml(data, K, cfg)

    def test_best_restart_selected(self):
        truth, data = generate_synthetic(SynthConfig(Q=15, N=15, K=2, seed=7))
        cfg = MLConfig(lambda_l1=0.2, seed=4, restarts=4, max_outer=20)
        model, trace = fit_ml(data, 2, cfg)
        assert 0 <= trace.restart_index < 4

    def test_recovery_beats_random_baseline_every_trial(self):
        from gradefactor.evaluate import eval_metrics
        from gradefactor.model import FactorModel

        rng = np.random.default_rng(300)
        for seed in range(10):
            truth, data = generate_synthetic(SynthConfig(Q=50, N=50, K=5,
                                                         seed=700 + seed))
            model, _ = fit_ml(data, 5, MLConfig(lambda_l1=2.0, seed=seed,
                                                max_outer=120))
            fitted = eval_metrics(truth, model).e_w
            baseline_model = FactorModel(np.abs(rng.normal(size=(50, 5))),
                                         rng.normal(size=(5, 50)),
                                         rng.normal(size=50))
            baseline = eval_metrics(truth, baseline_model).e_w
            assert fitted < baseline


# Fits of a 12 x 15, K=3 instance, 2 restarts of 20 outer iterations each:
# (sum, then the entries 0, 7 and -1) of W's nonzero weights, of C and of
# mu (the sum of W is over all of W), and the final objective.  A change
# to the arithmetic of the phases moves them.
PINNED_FITS = {
    (0.7, LinkKind.PROBIT): {
        "W": (28.62026230193803, 1.6198221779921613, 2.7951055433636016,
              2.472069918045382),
        "C": (-4.407408251392884, 0.6129077804855435, 0.6190783939688926,
              -1.129260924504378),
        "mu": (-1.6741274623673221, -3.2336345023066677, 0.5842828035703997,
              1.1767780931253724),
        "final_objective": 9.81718003590359,
    },
    (0.7, LinkKind.LOGIT): {
        "W": (36.767453537866196, 2.0823790272650653, 2.067979194156662,
              4.016927139864805),
        "C": (-2.439253181567929, -0.31699518028572243, 1.6651251251293266,
              -1.591965295275111),
        "mu": (-6.738715053635534, -6.195748976133033, 0.6268986980277031,
              2.97487630010154),
        "final_objective": 13.519007869269725,
    },
    (1.0, LinkKind.PROBIT): {
        "W": (42.32756718775367, 1.9322744922121935, 2.120528600696267,
              2.9022325728199037),
        "C": (-10.743848649185175, -0.1926605647454493, -0.2827026561702187,
              -1.3114940531490658),
        "mu": (4.187055668693096, -3.1209962335234662, 0.7639643717331763,
              2.6437100689610458),
        "final_objective": 17.743159058765706,
    },
    (1.0, LinkKind.LOGIT): {
        "W": (54.080693710824406, 2.5931195476848887, 2.66656625159037,
              4.120297203250164),
        "C": (-7.878555559852573, 0.1507031375004514, -0.3118475151743231,
              -1.821588009596675),
        "mu": (1.8402723797594658, -5.8424046150482996, 0.21330256704584052,
              4.315514659048763),
        "final_objective": 22.971922668655886,
    },
}


class TestFitPinned:
    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("p_obs", [0.7, 1.0])
    def test_fit_pinned(self, p_obs, link):
        truth, data = generate_synthetic(SynthConfig(Q=12, N=15, K=3, p_obs=p_obs,
                                                     seed=41))
        model, trace = fit_ml(data, 3, MLConfig(lambda_l1=0.2, max_outer=20,
                                                outer_tol=0.0, restarts=2, seed=42,
                                                link=link))
        pinned = PINNED_FITS[(p_obs, link)]
        for name in ("W", "C", "mu"):
            values = getattr(model, name)
            entries = values[values > 0] if name == "W" else values.reshape(-1)
            got = (values.sum(), entries[0], entries[7], entries[-1])
            assert got == pytest.approx(pinned[name], rel=1e-12), name
        assert trace.final_objective == pytest.approx(pinned["final_objective"],
                                                      rel=1e-12)


class TestObjectiveCache:
    # each phase reads its incoming objective from the per-cell
    # log-likelihood cache and evaluates the link once, at its end point
    def test_link_calls_per_restart(self, monkeypatch):
        calls = {"log_inv_link": 0, "hazard": 0}
        for name in calls:
            def counting(x, link, out=None, _real=getattr(mle, name), _name=name):
                calls[_name] += 1
                return _real(x, link, out)
            monkeypatch.setattr(mle, name, counting)
        n, inner = 7, 4
        _, data = generate_synthetic(SynthConfig(Q=15, N=20, K=2, p_obs=0.8, seed=7))
        fit_ml(data, 2, MLConfig(lambda_l1=0.3, max_outer=n, outer_tol=0.0,
                                 inner_iters=inner, seed=1))
        assert calls["log_inv_link"] == 1 + 2 * n
        assert calls["hazard"] == 2 * inner * n

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("p_obs", [0.7, 1.0])
    def test_final_objective_is_objective_value(self, p_obs, link):
        _, data = generate_synthetic(SynthConfig(Q=12, N=15, K=3, p_obs=p_obs, seed=41))
        cfg = MLConfig(lambda_l1=0.2, max_outer=20, outer_tol=0.0, restarts=2,
                       seed=42, link=link)
        model, trace = fit_ml(data, 3, cfg)
        W_aug = np.column_stack([model.W, model.mu])
        assert trace.final_objective == pytest.approx(
            objective_value(W_aug, model.C, data, cfg), rel=1e-12)


class TestBicSelection:
    def test_singleton_grid(self):
        truth, data = generate_synthetic(SynthConfig(Q=12, N=12, K=2, seed=8))
        cfg = MLConfig(lambda_l1=1.0, max_outer=15)
        assert bic_select_lambda(data, 2, [0.37], cfg).lambda_l1 == 0.37

    def test_empty_grid_rejected(self):
        truth, data = generate_synthetic(SynthConfig(Q=6, N=6, K=1, seed=9))
        with pytest.raises(ValueError):
            bic_select_lambda(data, 1, [], MLConfig(lambda_l1=1.0))

    def test_tie_breaks_toward_larger_lambda(self):
        assert pick_min_bic([(0.1, 5.0), (1.0, 5.0), (0.5, 6.0)]) == 1.0

    def test_extreme_lambda_overpenalizes_dense_truth(self):
        # dense true W: the degenerate all-zero fit at lambda=1e3 must lose
        truth, data = generate_synthetic(
            SynthConfig(Q=20, N=40, K=2, nnz_mode=("uniform", 2, 2), seed=10)
        )
        cfg = MLConfig(lambda_l1=1.0, max_outer=40, seed=0)
        chosen = bic_select_lambda(data, 2, [1e-3, 1e3], cfg).lambda_l1
        assert chosen == 1e-3

    def test_all_correct_question_detaches(self):
        # a question everyone answers correctly carries no concept signal:
        # with BIC-selected sparsity its weight row should empty out
        detached = 0
        for seed in range(10):
            truth, data = generate_synthetic(
                SynthConfig(Q=12, N=40, K=2, seed=100 + seed)
            )
            Y = data.entries.copy()
            Y[0, :] = 1.0
            data_mod = ResponseMatrix(Y, data.mask)
            cfg = MLConfig(lambda_l1=1.0, max_outer=40, seed=seed)
            lam = bic_select_lambda(data_mod, 2, [0.05, 0.1, 0.2, 0.4, 0.8],
                                    cfg).lambda_l1
            model, _ = fit_ml(data_mod, 2, MLConfig(lambda_l1=lam, max_outer=40,
                                                    seed=seed))
            if np.count_nonzero(model.W[0]) == 0:
                detached += 1
        assert detached >= 9

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_winner_is_the_direct_fit(self, n_threads):
        truth, data = generate_synthetic(SynthConfig(Q=14, N=16, K=2, p_obs=0.8,
                                                     seed=12))
        cfg = MLConfig(lambda_l1=1.0, max_outer=15, restarts=2, seed=3)
        selection = bic_select_lambda(data, 2, [0.1, 0.3, 0.9], cfg,
                                      n_threads=n_threads)
        model, trace = fit_ml(data, 2, MLConfig(lambda_l1=selection.lambda_l1,
                                                max_outer=15, restarts=2, seed=3))
        for name in ("W", "C", "mu"):
            assert np.array_equal(getattr(selection.model, name), getattr(model, name))
        assert np.array_equal(selection.trace.objectives, trace.objectives)
        assert selection.trace.final_objective == trace.final_objective
        assert selection.trace.n_outer == trace.n_outer
        assert selection.trace.restart_index == trace.restart_index

    def test_table_has_one_row_per_distinct_lambda(self, monkeypatch):
        truth, data = generate_synthetic(SynthConfig(Q=12, N=12, K=2, seed=13))
        grids, members = [], []

        def counting(data, K, config, lambdas, n_threads, _real=mle._fit_grid):
            grids.append(list(lambdas))
            return _real(data, K, config, lambdas, n_threads)

        def stacking(data, K, config, stack, _real=mle._run_stack):
            members.extend(lam for lam, _ in stack)
            return _real(data, K, config, stack)

        monkeypatch.setattr(mle, "_fit_grid", counting)
        monkeypatch.setattr(mle, "_run_stack", stacking)
        cfg = MLConfig(lambda_l1=1.0, max_outer=10)
        selection = bic_select_lambda(data, 2, [0.4, 0.1, 0.4, 0.2], cfg)
        # each distinct lambda reaches the runner once, as one member per
        # restart
        assert grids == [[0.1, 0.2, 0.4]]
        assert members == [0.1, 0.2, 0.4]
        assert [row["lambda"] for row in selection.table] == [0.1, 0.2, 0.4]
        n_obs = data.n_observed
        for row in selection.table:
            assert set(row) == {"lambda", "log_likelihood", "df", "bic", "n_outer"}
            assert row["bic"] == pytest.approx(
                -2.0 * row["log_likelihood"] + row["df"] * math.log(n_obs), rel=1e-12)
        best = min(selection.table, key=lambda row: row["bic"])
        assert selection.lambda_l1 == best["lambda"]
        assert selection.trace.n_outer == best["n_outer"]

    @staticmethod
    def assert_separate_fits(selection, data, K, grid, cfg):
        """The selection's table, winner and trace equal those of one fit_ml
        per lambda, bitwise."""
        fits = {lam: fit_ml(data, K, dataclasses.replace(cfg, lambda_l1=lam))
                for lam in sorted(set(grid))}
        for row in selection.table:
            model, trace = fits[row["lambda"]]
            df = int(np.count_nonzero(model.W)) + K * data.N + data.Q
            assert row["log_likelihood"] == log_likelihood(model, data)
            assert row["df"] == df
            assert row["bic"] == -2.0 * row["log_likelihood"] + df * np.log(data.n_observed)
            assert row["n_outer"] == trace.n_outer
        model, trace = fits[selection.lambda_l1]
        for name in ("W", "C", "mu"):
            assert np.array_equal(getattr(selection.model, name), getattr(model, name))
        assert np.array_equal(selection.trace.objectives, trace.objectives)
        assert selection.trace.final_objective == trace.final_objective
        assert selection.trace.n_outer == trace.n_outer
        assert selection.trace.restart_index == trace.restart_index

    @pytest.mark.parametrize("link,p_obs", [(LinkKind.LOGIT, 0.7),
                                            (LinkKind.PROBIT, 1.0)])
    def test_members_are_independent(self, link, p_obs):
        _, data = generate_synthetic(SynthConfig(Q=14, N=16, K=2, p_obs=p_obs,
                                                 link=link, seed=14))
        cfg = MLConfig(lambda_l1=1.0, max_outer=20, outer_tol=0.0, restarts=3,
                       seed=4, link=link)
        grid = [0.1, 0.3, 0.9, 2.7]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            selection = bic_select_lambda(data, 2, grid, cfg)
        self.assert_separate_fits(selection, data, 2, grid, cfg)

    def test_members_leave_the_stack_at_their_own_stop(self):
        _, data = generate_synthetic(SynthConfig(Q=14, N=16, K=2, p_obs=0.8,
                                                 link=LinkKind.LOGIT, seed=15))
        cfg = MLConfig(lambda_l1=1.0, max_outer=60, outer_tol=1e-3, restarts=2,
                       seed=6, link=LinkKind.LOGIT)
        grid = [0.05, 0.2, 0.8, 3.2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            selection = bic_select_lambda(data, 2, grid, cfg)
        # the members stopped at different outer iterations, all before the cap
        n_outer = [row["n_outer"] for row in selection.table]
        assert len(set(n_outer)) > 1 and max(n_outer) < cfg.max_outer
        self.assert_separate_fits(selection, data, 2, grid, cfg)

    def test_threaded_stacks_match_one_stack(self, monkeypatch):
        # 4 lambdas x 2 restarts of 34 x 99 logit: one stack of 8 members
        # serially, two stacks of 4 on two threads once the logit split
        # threshold lets 13464-cell stacks split
        monkeypatch.setitem(mle._SERIAL_RESTART_CELLS, LinkKind.LOGIT, 13_464)
        _, data = generate_synthetic(SynthConfig(Q=34, N=99, K=5, p_obs=0.9,
                                                 link=LinkKind.LOGIT, seed=16))
        cfg = MLConfig(lambda_l1=1.0, max_outer=15, outer_tol=1e-5, restarts=2,
                       seed=7, link=LinkKind.LOGIT)
        grid = [2.0, 4.0, 8.0, 12.0]
        stacks = []

        def recording(data, K, config, members, _real=mle._run_stack):
            stacks.append(len(members))
            return _real(data, K, config, members)

        monkeypatch.setattr(mle, "_run_stack", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = bic_select_lambda(data, 5, grid, cfg, n_threads=1)
            # switch threads often so that stacks sharing any scratch state
            # would interleave inside a phase
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = bic_select_lambda(data, 5, grid, cfg, n_threads=2)
            finally:
                sys.setswitchinterval(interval)
        assert stacks == [8, 4, 4]
        assert serial.table == threaded.table
        assert serial.lambda_l1 == threaded.lambda_l1
        for name in ("W", "C", "mu"):
            assert np.array_equal(getattr(serial.model, name),
                                  getattr(threaded.model, name))
        assert np.array_equal(serial.trace.objectives, threaded.trace.objectives)
        assert serial.trace.restart_index == threaded.trace.restart_index

    def test_edge_choice_warns(self):
        truth, data = generate_synthetic(
            SynthConfig(Q=20, N=40, K=2, nnz_mode=("uniform", 2, 2), seed=10)
        )
        cfg = MLConfig(lambda_l1=1.0, max_outer=40, seed=0)
        with pytest.warns(UserWarning, match="smallest value of the grid"):
            bic_select_lambda(data, 2, [1e-3, 1e3], cfg)

    def test_singleton_grid_does_not_warn(self):
        truth, data = generate_synthetic(SynthConfig(Q=12, N=12, K=2, seed=8))
        cfg = MLConfig(lambda_l1=1.0, max_outer=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bic_select_lambda(data, 2, [0.37, 0.37], cfg)

"""Generator statistics, permutation matching, the error metrics against a
scalar-loop oracle, and held-out prediction."""

import itertools
import math

import numpy as np
import pytest

from gradefactor.evaluate import (
    eval_metrics,
    match_permutation,
    predict_heldout,
    write_benchmark_csv,
)
from gradefactor.links import LinkKind
from gradefactor.model import FactorModel, ResponseMatrix
from gradefactor.synth import SynthConfig, generate_synthetic


class TestGenerator:
    def test_mask_cardinality_binomial(self):
        config = SynthConfig(Q=60, N=60, K=3, p_obs=0.5, seed=60)
        _, data = generate_synthetic(config)
        n = 60 * 60
        sd = math.sqrt(n * 0.5 * 0.5)
        assert abs(data.n_observed - 0.5 * n) <= 3.0 * sd

    def test_active_weight_mean(self):
        config = SynthConfig(Q=6000, N=2, K=3, lambda_k=2.0 / 3.0, seed=61)
        truth, _ = generate_synthetic(config)
        active = truth.W[truth.W > 0]
        assert active.size > 10_000
        assert abs(active.mean() - 1.5) < 0.05

    def test_row_support_distribution(self):
        config = SynthConfig(Q=10_000, N=2, K=4, nnz_mode=("uniform", 1, 3), seed=62)
        truth, _ = generate_synthetic(config)
        counts = (truth.W > 0).sum(axis=1)
        for value in (1, 2, 3):
            freq = float((counts == value).mean())
            assert abs(freq - 1.0 / 3.0) < 0.02

    def test_bernoulli_support(self):
        config = SynthConfig(Q=400, N=2, K=5, nnz_mode=("bernoulli", 0.4), seed=63)
        truth, _ = generate_synthetic(config)
        rate = float((truth.W > 0).mean())
        assert abs(rate - 0.4) < 0.03

    def test_responses_binary_and_masked(self):
        config = SynthConfig(Q=20, N=25, K=2, p_obs=0.6, link=LinkKind.LOGIT, seed=64)
        _, data = generate_synthetic(config)
        assert np.isin(data.entries[data.mask], (0.0, 1.0)).all()

    def test_bad_p_obs(self):
        with pytest.raises(ValueError):
            SynthConfig(Q=2, N=2, K=1, p_obs=0.0)

    @pytest.mark.parametrize("field,value", [
        *(pytest.param(field, value, id=f"{value}-{field}")
          for value in (math.nan, math.inf, -math.inf) for field in ("lambda_k", "v_mu")),
        ("Q", math.nan),
        ("Q", 2.5),
        ("K", True),
        ("nnz_mode", ("uniform", 1.5, 2)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{"Q": 2, "N": 2, "K": 2, field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            SynthConfig(Q=2, N=2, K=1, seed=seed)


class TestMatchPermutation:
    def test_identity(self):
        truth, _ = generate_synthetic(SynthConfig(Q=12, N=10, K=3, seed=65))
        perm = match_permutation(truth.W, truth.W, truth.C, truth.C)
        np.testing.assert_array_equal(perm, [0, 1, 2])
        report = eval_metrics(truth, truth)
        assert report.e_w == report.e_c == report.e_mu == report.e_h == 0.0

    def test_recovers_known_shuffle(self):
        truth, _ = generate_synthetic(SynthConfig(Q=12, N=10, K=4, seed=66))
        shuffle = np.array([2, 0, 3, 1])
        est = FactorModel(truth.W[:, shuffle], truth.C[shuffle, :], truth.mu,
                          truth.link)
        perm = match_permutation(truth.W, est.W, truth.C, est.C)
        np.testing.assert_array_equal(est.W[:, perm], truth.W)
        report = eval_metrics(truth, est)
        assert report.e_w == pytest.approx(0.0, abs=1e-24)

    def test_exhaustive_equals_assignment_solver(self):
        # a brute force over every relabeling is the oracle
        rng = np.random.default_rng(67)

        def unit_cols(M):
            n = np.linalg.norm(M, axis=0, keepdims=True)
            return np.divide(M, n, out=np.zeros_like(M), where=n > 0)

        for K in range(1, 7):
            truth, _ = generate_synthetic(SynthConfig(Q=10, N=8, K=K, seed=68))
            W_est = np.abs(rng.normal(size=(10, K)))
            C_est = rng.normal(size=(K, 8))
            perm = match_permutation(truth.W, W_est, truth.C, C_est)
            score = (unit_cols(truth.W).T @ unit_cols(W_est)
                     + unit_cols(truth.C.T).T @ unit_cols(C_est.T))
            oracle = max(itertools.permutations(range(K)),
                         key=lambda p: score[np.arange(K), p].sum())
            np.testing.assert_array_equal(perm, oracle)

    def test_recovers_noisy_shuffle_of_eleven_concepts(self):
        # above ten concepts the same solver runs: a planted relabeling of
        # a slightly perturbed truth is found
        rng = np.random.default_rng(70)
        truth, _ = generate_synthetic(SynthConfig(Q=40, N=30, K=11, seed=71))
        shuffle = rng.permutation(11)
        W_est = truth.W[:, shuffle] + 0.01 * np.abs(rng.normal(size=(40, 11)))
        C_est = truth.C[shuffle, :] + 0.01 * rng.normal(size=(11, 30))
        perm = match_permutation(truth.W, W_est, truth.C, C_est)
        np.testing.assert_array_equal(shuffle[perm], np.arange(11))


class TestEvalMetrics:
    def test_zero_estimate_gives_unit_errors(self):
        truth, _ = generate_synthetic(SynthConfig(Q=10, N=8, K=2, seed=69))
        est = FactorModel(np.zeros((10, 2)), np.zeros((2, 8)), np.zeros(10))
        report = eval_metrics(truth, est)
        assert report.e_w == pytest.approx(1.0)
        assert report.e_h == pytest.approx(1.0)
        assert report.e_mu == pytest.approx(1.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(70)
        truth, _ = generate_synthetic(SynthConfig(Q=8, N=6, K=2, seed=71))
        est = FactorModel(np.abs(rng.normal(size=(8, 2))), rng.normal(size=(2, 6)),
                          rng.normal(size=8))
        report = eval_metrics(truth, est)

        def normalize_cols(M):
            out = np.array(M, dtype=float)
            for k in range(out.shape[1]):
                norm = math.sqrt(sum(out[i, k] ** 2 for i in range(out.shape[0])))
                if norm > 0:
                    for i in range(out.shape[0]):
                        out[i, k] /= norm
            return out

        perm = list(report.permutation)
        Wt = normalize_cols(truth.W)
        We = normalize_cols(est.W)[:, perm]
        num = sum((Wt[i, k] - We[i, k]) ** 2 for i in range(8) for k in range(2))
        den = sum(Wt[i, k] ** 2 for i in range(8) for k in range(2))
        assert report.e_w == pytest.approx(num / den, rel=1e-12)

        Ct = normalize_cols(truth.C.T).T
        Ce = normalize_cols(est.C.T).T[perm, :]
        num_c = sum((Ct[k, j] - Ce[k, j]) ** 2 for k in range(2) for j in range(6))
        den_c = sum(Ct[k, j] ** 2 for k in range(2) for j in range(6))
        assert report.e_c == pytest.approx(num_c / den_c, rel=1e-12)

        num_mu = sum((truth.mu[i] - est.mu[i]) ** 2 for i in range(8))
        den_mu = sum(truth.mu[i] ** 2 for i in range(8))
        assert report.e_mu == pytest.approx(num_mu / den_mu, rel=1e-12)

    def test_common_relabel_invariance(self):
        rng = np.random.default_rng(72)
        truth, _ = generate_synthetic(SynthConfig(Q=9, N=7, K=3, seed=73))
        est = FactorModel(np.abs(rng.normal(size=(9, 3))), rng.normal(size=(3, 7)),
                          rng.normal(size=9))
        base = eval_metrics(truth, est)
        relabel = np.array([1, 2, 0])
        truth2 = FactorModel(truth.W[:, relabel], truth.C[relabel, :], truth.mu,
                             truth.link)
        est2 = FactorModel(est.W[:, relabel], est.C[relabel, :], est.mu, est.link)
        shuffled = eval_metrics(truth2, est2)
        assert shuffled.e_w == pytest.approx(base.e_w, rel=1e-12)
        assert shuffled.e_c == pytest.approx(base.e_c, rel=1e-12)
        assert shuffled.e_h == pytest.approx(base.e_h, rel=1e-12)

    def test_support_error_scale_invariant(self):
        rng = np.random.default_rng(74)
        truth, _ = generate_synthetic(SynthConfig(Q=9, N=7, K=2, seed=75))
        est_W = np.abs(rng.normal(size=(9, 2)))
        est = FactorModel(est_W, rng.normal(size=(2, 7)), rng.normal(size=9))
        scaled = FactorModel(est_W * np.array([3.0, 0.25]), est.C, est.mu)
        assert eval_metrics(truth, est).e_h == pytest.approx(
            eval_metrics(truth, scaled).e_h
        )

    def test_zero_truth_rejected(self):
        truth = FactorModel(np.zeros((3, 1)), np.ones((1, 3)), np.ones(3))
        est = FactorModel(np.ones((3, 1)), np.ones((1, 3)), np.ones(3))
        with pytest.raises(ValueError):
            eval_metrics(truth, est)


class TestPredictHeldout:
    def test_perfect_separation(self):
        W = np.array([[10.0], [10.0]])
        C = np.array([[1.0, -1.0]])
        model = FactorModel(W, C, np.zeros(2))
        heldout = ResponseMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        accuracy, likelihood = predict_heldout(model, heldout)
        assert accuracy == 1.0
        assert likelihood > 0.99

    def test_centered_model_half_likelihood(self):
        model = FactorModel(np.zeros((2, 1)), np.zeros((1, 3)), np.zeros(2))
        heldout = ResponseMatrix(np.random.default_rng(76).integers(0, 2, (2, 3)).astype(float))
        _, likelihood = predict_heldout(model, heldout)
        assert likelihood == pytest.approx(0.5, abs=1e-12)

    def test_matches_hand_loop(self):
        rng = np.random.default_rng(77)
        truth, data = generate_synthetic(SynthConfig(Q=8, N=8, K=2, seed=78))
        holdout_mask = np.zeros((8, 8), dtype=bool)
        coords = rng.choice(64, size=20, replace=False)
        holdout_mask.flat[coords] = True
        heldout = ResponseMatrix(np.where(holdout_mask, data.entries, 0.0),
                                 holdout_mask)
        accuracy, likelihood = predict_heldout(truth, heldout)
        correct, like = 0, 0.0
        for i in range(8):
            for j in range(8):
                if not holdout_mask[i, j]:
                    continue
                z = float(truth.W[i] @ truth.C[:, j] + truth.mu[i])
                p = 0.5 * math.erfc(-z / math.sqrt(2.0))
                y = data.entries[i, j]
                correct += (p >= 0.5) == (y == 1.0)
                like += p if y == 1.0 else 1.0 - p
        assert accuracy == pytest.approx(correct / 20)
        assert likelihood == pytest.approx(like / 20)

    def test_empty_heldout_rejected(self):
        model = FactorModel(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros(2))
        empty = ResponseMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            predict_heldout(model, empty)


def test_benchmark_csv_format(tmp_path):
    path = tmp_path / "bench.csv"
    write_benchmark_csv(path, [(0, "ml", "e_w", 0.25), (1, "ksvd", "e_h", 1.0)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,method,metric,value"
    assert lines[1].startswith("0,ml,e_w,")

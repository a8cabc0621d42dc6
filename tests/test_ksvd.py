"""Baseline factorizer: greedy coding against exhaustive search, rank-one
update monotonicity, and the masking contract."""

import itertools

import numpy as np
import pytest
from scipy import optimize

from gradefactor import ksvd
from gradefactor.ksvd import KsvdConfig, dict_update_rank1, fit_ksvd, nn_omp
from gradefactor.model import ResponseMatrix


def nn_omp_row_reference(D, target, s):
    """One row of non-negative OMP as a loop: pick the atom with the
    largest inner product with the residual, refit the support by NNLS.
    Stops when that inner product is roundoff against the row's norm
    times the largest atom norm."""
    coef = np.zeros(D.shape[0])
    support = []
    residual = target.copy()
    floor = ksvd._SCORE_RTOL * np.linalg.norm(target) * np.linalg.norm(D, axis=1).max()
    for _ in range(s):
        scores = D @ residual
        scores[support] = -np.inf
        pick = int(np.argmax(scores))
        if scores[pick] <= floor:
            break
        support.append(pick)
        sol, _ = optimize.nnls(D[support].T, target)
        residual = target - D[support].T @ sol
        coef[support] = sol
    return coef


def assert_matches_row_loop(D, Y, s, mask):
    got = nn_omp(D, Y, s, mask)
    assert got.shape == (len(Y), len(D))
    for i in range(len(Y)):
        obs = mask[i]
        ref = nn_omp_row_reference(D[:, obs], Y[i, obs], int(s[i]))
        np.testing.assert_array_equal(got[i] != 0, ref != 0)
        scale = max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(got[i], ref, rtol=0, atol=1e-12 * scale)


class CountingNnls:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = optimize.nnls

        def counting(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(ksvd.optimize, "nnls", counting)


class TestNnOmp:
    def test_zero_budget(self):
        out = nn_omp(np.eye(3), np.ones(3), 0)
        np.testing.assert_array_equal(out, 0.0)

    def test_orthonormal_exact_pick(self):
        D = np.eye(4)
        target = 3.0 * D[2]
        out = nn_omp(D, target, 1)
        np.testing.assert_allclose(out, [0, 0, 3.0, 0], atol=1e-12)

    def test_no_admissible_atom(self):
        D = -np.ones((3, 4))
        out = nn_omp(D, np.ones(4), 2)
        np.testing.assert_array_equal(out, 0.0)

    def test_support_matches_exhaustive_nnls(self):
        # low-coherence atoms keep the greedy pursuit globally optimal
        rng = np.random.default_rng(30)
        for trial in range(20):
            D = rng.normal(size=(4, 30))
            D /= np.linalg.norm(D, axis=1, keepdims=True)
            true_support = rng.choice(4, size=2, replace=False)
            coefs = rng.uniform(0.5, 2.0, size=2)
            target = coefs @ D[true_support]
            out = nn_omp(D, target, 2)
            got = set(int(i) for i in np.flatnonzero(out > 1e-8))

            best_err, best_support = np.inf, None
            for support in itertools.combinations(range(4), 2):
                sol, err = optimize.nnls(D[list(support)].T, target)
                if err < best_err:
                    best_err, best_support = err, set(
                        s for s, v in zip(support, sol) if v > 1e-8
                    )
            assert got == best_support

    @pytest.mark.parametrize("masked", [False, True])
    def test_orthogonal_residual_gets_no_extra_pick(self, masked):
        # each row is exactly 1.7 atom 0 + 0.6 atom 2 on its observed
        # cells: once both are picked every other score is roundoff, whose
        # sign picked one or more extra atoms in most rows under a "> 0"
        # rule
        rng = np.random.default_rng(32)
        Q, N = 40, 30
        D = rng.normal(size=(5, N))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        Y = np.tile(1.7 * D[0] + 0.6 * D[2], (Q, 1))
        mask = rng.random((Q, N)) < 0.8 if masked else np.ones((Q, N), dtype=bool)
        got = nn_omp(D, Y, 5, mask)
        np.testing.assert_array_equal(got != 0, np.tile([1, 0, 1, 0, 0], (Q, 1)) != 0)
        np.testing.assert_allclose(got[:, [0, 2]], np.tile([1.7, 0.6], (Q, 1)), rtol=1e-12)

    def test_budget_respected(self):
        rng = np.random.default_rng(31)
        D = rng.normal(size=(6, 10))
        target = rng.normal(size=10)
        for s in range(7):
            out = nn_omp(D, target, s)
            assert np.count_nonzero(out) <= s
            assert (out >= 0).all()


class TestNnOmpStack:
    def test_stack_equals_row_loop(self):
        rng = np.random.default_rng(60)
        for trial in range(60):
            K, N, Q = (int(v) for v in rng.integers((2, 3, 1), (7, 40, 25)))
            D = rng.normal(size=(K, N))
            if trial % 3 == 0:
                D[1] = D[0]  # a duplicated atom
            Y = (rng.random((Q, N)) < 0.5).astype(float) if trial % 2 else rng.normal(size=(Q, N))
            mask = rng.random((Q, N)) < rng.uniform(0.2, 1.0)
            mask[0] = False  # a row with no observed cell
            s = rng.integers(0, K + 1, size=Q)
            s[-1] = 0
            assert_matches_row_loop(D, Y, s, mask)

    def test_negated_atom_forces_nnls_fallback(self, monkeypatch):
        # atom 3 is -atom 0; this row picks both (by scores far from ties),
        # so its support Gram is singular and NNLS must refit it
        rng = np.random.default_rng(338)
        D = rng.normal(size=(3, 9))
        D = np.vstack([D, -D[0]])
        y = rng.normal(size=9)
        ref = nn_omp_row_reference(D, y, 4)
        nnls = CountingNnls(monkeypatch)
        got = nn_omp(D, y, 4)
        assert nnls.calls >= 1
        assert got[0] == 0 or got[3] == 0
        np.testing.assert_array_equal(got != 0, ref != 0)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_positive_refits_need_no_nnls(self, monkeypatch):
        rng = np.random.default_rng(61)
        D = np.linalg.qr(rng.normal(size=(12, 4)))[0].T  # orthonormal atoms
        W_true = rng.uniform(0.5, 2.0, size=(10, 4))
        nnls = CountingNnls(monkeypatch)
        got = nn_omp(D, W_true @ D, 4)
        assert nnls.calls == 0
        np.testing.assert_allclose(got, W_true, atol=1e-12)

    def test_one_row_keeps_its_shape(self):
        D = np.eye(3)
        assert nn_omp(D, np.array([0.0, 2.0, 1.0]), 1).shape == (3,)
        assert nn_omp(D, np.array([[0.0, 2.0, 1.0]]), 1).shape == (1, 3)

    def test_budget_above_atom_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            nn_omp(np.eye(2), np.ones((3, 2)), [1, 3, 0])


def masked_sse(Y, w, c, mask):
    return float((((Y - np.outer(w, c)) * mask) ** 2).sum())


class TestRankOneUpdate:
    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(32)
        w_true = np.abs(rng.normal(size=6)) + 0.1
        c_true = rng.normal(size=9)
        Y = np.outer(w_true, c_true)
        mask = np.ones_like(Y, dtype=bool)
        w, c = dict_update_rank1(Y, np.abs(rng.normal(size=6)) + 0.1,
                                 rng.normal(size=9), mask, n_iters=50)
        resid = masked_sse(Y, w, c, mask)
        assert resid / (Y**2).sum() < 1e-8

    def test_residual_nonincreasing(self):
        rng = np.random.default_rng(33)
        Y = rng.normal(size=(5, 8))
        mask = rng.random((5, 8)) < 0.8
        w = np.abs(rng.normal(size=5))
        c = rng.normal(size=8)
        prev = masked_sse(Y, w, c, mask)
        for _ in range(50):
            w, c = dict_update_rank1(Y, w, c, mask, n_iters=1)
            cur = masked_sse(Y, w, c, mask)
            assert cur <= prev + 1e-10
            prev = cur

    def test_matches_direction_grid_oracle(self):
        # exhaustive oracle: scan unit directions c, best nonneg w is closed form
        rng = np.random.default_rng(34)
        Y = rng.normal(size=(3, 3))
        mask = np.ones((3, 3), dtype=bool)
        best = np.inf
        for theta in np.linspace(0, np.pi, 720, endpoint=False):
            for phi_ang in np.linspace(0, 2 * np.pi, 1440, endpoint=False):
                c = np.array([
                    np.sin(theta) * np.cos(phi_ang),
                    np.sin(theta) * np.sin(phi_ang),
                    np.cos(theta),
                ])
                w = np.maximum(Y @ c, 0.0)
                best = min(best, masked_sse(Y, w, c, mask))
        w0 = np.abs(rng.normal(size=3)) + 0.5
        c0 = rng.normal(size=3)
        w, c = dict_update_rank1(Y, w0, c0, mask, n_iters=200)
        ours = masked_sse(Y, w, c, mask)
        assert ours <= best + 1e-3

    def test_empty_usage_rejected(self):
        with pytest.raises(ValueError):
            dict_update_rank1(np.empty((0, 4)), np.empty(0), np.ones(4),
                              np.empty((0, 4), dtype=bool))


from helpers import binary_rank2_instance as random_sparse_binary_instance


class TestFitKsvd:
    def test_zero_sparsity_gives_zero_weights(self):
        data = ResponseMatrix(np.random.default_rng(35).integers(0, 2, (6, 6)).astype(float))
        W, C = fit_ksvd(data, KsvdConfig(n_concepts=2, row_sparsity=0, max_iters=3))
        np.testing.assert_array_equal(W, 0.0)

    def test_support_recovery_beats_random_baseline(self):
        wins = 0
        for seed in range(6):
            rng = np.random.default_rng(40 + seed)
            W_true, C_true, Y = random_sparse_binary_instance(rng)
            data = ResponseMatrix(Y)
            W, C = fit_ksvd(data, KsvdConfig(n_concepts=2, row_sparsity=1,
                                             max_iters=15, seed=seed))
            from gradefactor.evaluate import match_permutation

            perm = match_permutation(W_true, W, C_true, C)
            H_true = (W_true > 0).astype(float)
            H_est = (W[:, perm] > 0).astype(float)
            e_h = ((H_true - H_est) ** 2).sum() / (H_true**2).sum()

            H_rand = np.zeros_like(H_true)
            H_rand[np.arange(len(H_rand)), rng.integers(0, 2, len(H_rand))] = 1.0
            e_h_rand = ((H_true - H_rand) ** 2).sum() / (H_true**2).sum()
            if e_h < e_h_rand:
                wins += 1
        assert wins == 6

    def test_sparsity_constraint_and_nonnegativity(self):
        rng = np.random.default_rng(36)
        Y = rng.integers(0, 2, (15, 12)).astype(float)
        mask = rng.random((15, 12)) < 0.7
        data = ResponseMatrix(Y * mask, mask)
        s = rng.integers(0, 4, size=15)
        W, C = fit_ksvd(data, KsvdConfig(n_concepts=3, row_sparsity=s, max_iters=8))
        assert (W >= 0).all()
        assert ((W > 0).sum(axis=1) <= s).all()

    def test_unobserved_entries_never_matter(self):
        rng = np.random.default_rng(37)
        Y = rng.integers(0, 2, (10, 8)).astype(float)
        mask = rng.random((10, 8)) < 0.6
        flipped = np.where(mask, Y, 1.0 - Y)
        cfg = KsvdConfig(n_concepts=2, row_sparsity=2, max_iters=6, seed=1)
        W1, C1 = fit_ksvd(ResponseMatrix(Y * mask, mask), cfg)
        W2, C2 = fit_ksvd(ResponseMatrix(flipped * mask, mask), cfg)
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(C1, C2)

    def test_codes_every_question_in_one_call_per_iteration(self, monkeypatch):
        calls = []
        real = ksvd.nn_omp

        def counting(*args):
            calls.append(args[1].shape)
            return real(*args)
        monkeypatch.setattr(ksvd, "nn_omp", counting)
        data = ResponseMatrix(np.random.default_rng(38).integers(0, 2, (9, 7)).astype(float))
        fit_ksvd(data, KsvdConfig(n_concepts=2, row_sparsity=1, max_iters=4))
        assert calls == [(9, 7)] * 4

    def test_bad_sparsity_rejected(self):
        with pytest.raises(ValueError):
            KsvdConfig(n_concepts=2, row_sparsity=3).sparsity_vector(4)

    @pytest.mark.parametrize("field,value", [
        ("n_concepts", float("nan")),
        ("n_concepts", 2.5),
        ("max_iters", 2.5),
        ("max_iters", float("inf")),
    ])
    def test_non_integer_config_rejected(self, field, value):
        kwargs = {"n_concepts": 2, "row_sparsity": 1, "max_iters": 3, field: value}
        with pytest.raises(ValueError, match=field):
            KsvdConfig(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("row_sparsity", 2.7),
    ("row_sparsity", [1.5, 2, 0.2, 3]),
    ("row_sparsity", True),
    ("row_sparsity", "2"),
    ("seed", 1.5),
    ("seed", True),
    ("seed", -1),
    ("row_sparsity", [1, True]),
])
def test_config_value_that_would_be_truncated_or_fail_later_rejected(field, value):
    kwargs = {"n_concepts": 3, "row_sparsity": 1, field: value}
    with pytest.raises(ValueError, match=field):
        KsvdConfig(**kwargs)


def test_integer_sparsity_vector_accepted():
    cfg = KsvdConfig(n_concepts=3, row_sparsity=np.array([0, 3, 1], dtype=np.uint8))
    assert cfg.sparsity_vector(3).tolist() == [0, 3, 1]
    assert KsvdConfig(n_concepts=3, row_sparsity=np.int64(2)).sparsity_vector(2).tolist() == [2, 2]

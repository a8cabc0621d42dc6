"""Tag regression: KKT optimality, the NNLS oracle at eta = 0, and the
percentage / knowledge-profile views."""

import numpy as np
import pytest
from scipy import optimize

from gradefactor import tags
from gradefactor.tags import (
    TagMatrix,
    concept_tag_percentages,
    default_eta_grid,
    fit_tag_map,
    learner_tag_knowledge,
    read_tags_csv,
    solve_bpdn_plus,
    top_tags,
)


def kkt_residual(T, w, a, eta):
    grad = T.T @ (T @ a - w) + eta
    res = 0.0
    if (a > 0).any():
        res = float(np.abs(grad[a > 0]).max())
    if (a == 0).any():
        res = max(res, float(np.maximum(-grad[a == 0], 0.0).max()))
    return res


class TestSolveBpdnPlus:
    def test_identity_prox_case(self):
        a = solve_bpdn_plus(np.eye(2), np.array([0.5, -0.2]), 0.1)
        np.testing.assert_allclose(a, [0.4, 0.0], atol=1e-9)

    def test_eta_zero_matches_nnls(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            T = rng.normal(size=(12, 5))
            w = rng.normal(size=12)
            ours = solve_bpdn_plus(T, w, 0.0)
            oracle, _ = optimize.nnls(T, w)
            np.testing.assert_allclose(ours, oracle, atol=1e-6)

    def test_large_eta_gives_zero(self):
        rng = np.random.default_rng(51)
        T = rng.random((8, 4))
        w = rng.normal(size=8)
        eta = float(np.abs(T.T @ w).max())
        a = solve_bpdn_plus(T, w, eta)
        np.testing.assert_array_equal(a, 0.0)

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            T = (rng.random((10, 6)) < 0.4).astype(float)
            w = np.abs(rng.normal(size=10))
            eta = float(rng.uniform(0.001, 0.2))
            a = solve_bpdn_plus(T, w, eta)
            assert (a >= 0).all()
            assert kkt_residual(T, w, a, eta) <= 1e-6

    def test_objective_dominates_reference_points(self):
        rng = np.random.default_rng(53)
        T = rng.random((9, 5))
        w = np.abs(rng.normal(size=9))
        eta = 0.05

        def objective(a):
            return 0.5 * np.sum((w - T @ a) ** 2) + eta * np.abs(a).sum()

        a = solve_bpdn_plus(T, w, eta)
        assert objective(a) <= objective(np.zeros(5)) + 1e-12
        nnls_point, _ = optimize.nnls(T, w)
        assert objective(a) <= objective(nnls_point) + 1e-8

    def test_solution_path_monotone_in_eta(self):
        rng = np.random.default_rng(54)
        T = (rng.random((12, 6)) < 0.5).astype(float)
        w = np.abs(rng.normal(size=12))
        etas = np.sort(rng.uniform(0.0, 0.5, 6))
        norms = [np.abs(solve_bpdn_plus(T, w, float(e))).sum() for e in etas]
        for lo, hi in zip(norms[:-1], norms[1:]):
            assert lo >= hi - 1e-9

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            solve_bpdn_plus(np.eye(2), np.ones(2), -0.1)


class TestSolveBpdnPlusStack:
    def test_stack_equals_column_solves(self):
        rng = np.random.default_rng(58)
        for _ in range(15):
            Q, M, P = (int(v) for v in rng.integers((6, 2, 1), (40, 10, 30)))
            T = (rng.random((Q, M)) < 0.4).astype(float)
            W = np.abs(rng.normal(size=(Q, P))) * (rng.random((Q, P)) < 0.6)
            etas = rng.uniform(0.0, 0.3, P) * (rng.random(P) < 0.8)
            A = solve_bpdn_plus(T, W, etas)
            assert A.shape == (M, P)
            for p in range(P):
                np.testing.assert_allclose(A[:, p], solve_bpdn_plus(T, W[:, p], etas[p]),
                                           rtol=0, atol=1e-12)

    def test_scalar_eta_weighs_every_column(self):
        rng = np.random.default_rng(59)
        T = (rng.random((10, 4)) < 0.5).astype(float)
        W = np.abs(rng.normal(size=(10, 3)))
        np.testing.assert_array_equal(solve_bpdn_plus(T, W, 0.05),
                                      solve_bpdn_plus(T, W, np.full(3, 0.05)))

    def test_negative_eta_in_stack_rejected(self):
        with pytest.raises(ValueError):
            solve_bpdn_plus(np.eye(2), np.ones((2, 2)), [0.1, -0.1])


class TestTagMatrix:
    def test_binary_enforced(self):
        with pytest.raises(ValueError):
            TagMatrix(np.array([[0.5]]), ("a",))

    def test_name_count_enforced(self):
        with pytest.raises(ValueError):
            TagMatrix(np.zeros((2, 2)), ("only-one",))


class TestPercentages:
    def test_simple_shares(self):
        A = np.array([[2.0], [1.0], [1.0], [0.0]])
        np.testing.assert_allclose(concept_tag_percentages(A, 0),
                                   [0.5, 0.25, 0.25, 0.0])
        assert concept_tag_percentages(A, 0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_nonzero(self):
        A = np.array([[0.0], [3.7], [0.0]])
        np.testing.assert_allclose(concept_tag_percentages(A, 0), [0.0, 1.0, 0.0])

    def test_zero_column_is_empty_not_error(self):
        A = np.zeros((3, 1))
        np.testing.assert_array_equal(concept_tag_percentages(A, 0), 0.0)
        assert top_tags(A, ("a", "b", "c"), 0) == []

    def test_top_tags_shape(self):
        A = np.array([[0.46], [0.23], [0.21], [0.10]])
        names = ("freq", "rate", "alias", "misc")
        out = top_tags(A, names, 0)
        assert out == [("freq", pytest.approx(0.46)),
                       ("rate", pytest.approx(0.23)),
                       ("alias", pytest.approx(0.21))]


class TestTagKnowledge:
    def test_identity_map(self):
        C = np.random.default_rng(55).normal(size=(3, 5))
        np.testing.assert_array_equal(learner_tag_knowledge(np.eye(3), C), C)

    def test_hand_computed(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        C = np.array([[1.0, -1.0], [3.0, 0.0]])
        np.testing.assert_array_equal(learner_tag_knowledge(A, C),
                                      [[1.0, -1.0], [6.0, 0.0]])

    def test_class_average_is_row_mean(self):
        rng = np.random.default_rng(56)
        A = np.abs(rng.normal(size=(4, 2)))
        C = rng.normal(size=(2, 7))
        U = learner_tag_knowledge(A, C)
        np.testing.assert_allclose(U.mean(axis=1), (A @ C).mean(axis=1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            learner_tag_knowledge(np.ones((3, 2)), np.ones((3, 4)))


class TestFitTagMap:
    def test_default_grid_prefers_sparse_columns(self):
        rng = np.random.default_rng(57)
        T = (rng.random((20, 8)) < 0.3).astype(float)
        A_true = np.zeros((8, 2))
        A_true[1, 0], A_true[4, 0] = 1.2, 0.8
        A_true[2, 1] = 1.5
        W = T @ A_true
        A = fit_tag_map(W, TagMatrix(T, tuple(f"t{m}" for m in range(8))))
        assert A.shape == (8, 2)
        assert (A >= 0).all()
        assert ((A > 1e-8).sum(axis=0) <= 3).all()

    def test_one_solve_matches_per_concept_scan(self, monkeypatch):
        rng = np.random.default_rng(62)
        T = (rng.random((30, 7)) < 0.3).astype(float)
        W = np.abs(rng.normal(size=(30, 4))) * (rng.random((30, 4)) < 0.5)
        W[:, 3] = 0.0  # a concept no question uses
        tm = TagMatrix(T, tuple(f"t{m}" for m in range(7)))
        calls = []
        monkeypatch.setattr(tags, "solve_bpdn_plus",
                            lambda *args: calls.append(args) or solve_bpdn_plus(*args))
        A = fit_tag_map(W, tm)
        assert len(calls) == 1 and calls[0][1].shape == (30, 4 * 5)
        for k in range(4):
            # the scan one concept at a time: best error among <= 3 tags,
            # else the sparsest fit, largest eta first on ties
            cands = [(eta, solve_bpdn_plus(T, W[:, k], eta))
                     for eta in default_eta_grid(T, W[:, k])]
            kept = [(float(np.sum((W[:, k] - T @ a) ** 2)), i)
                    for i, (eta, a) in enumerate(cands) if np.count_nonzero(a) <= 3]
            pick = (min(kept)[1] if kept else
                    min(range(5), key=lambda i: (np.count_nonzero(cands[i][1]), -cands[i][0])))
            np.testing.assert_allclose(A[:, k], cands[pick][1], rtol=0, atol=1e-12)

    def test_eta_grid_of_a_stack_is_one_grid_per_column(self):
        rng = np.random.default_rng(63)
        T = (rng.random((12, 5)) < 0.4).astype(float)
        W = np.abs(rng.normal(size=(12, 3)))
        W[:, 1] = 0.0
        grid = default_eta_grid(T, W)
        assert grid.shape == (5, 3)
        for k in range(3):
            # T^T W and T^T w_k may sum in different orders
            np.testing.assert_allclose(grid[:, k], default_eta_grid(T, W[:, k]),
                                       rtol=1e-14)
        np.testing.assert_array_equal(grid[:, 1], 0.0)

    def test_eta_grid_shape(self):
        T = np.eye(4)
        w = np.array([1.0, 0.5, 0.0, 0.0])
        grid = default_eta_grid(T, w)
        assert len(grid) == 5
        assert (np.diff(grid) < 0).all()


def test_read_tags_csv_roundtrip(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text(
        "question_id,tag\nq1,algebra\nq2,geometry\nq1,fractions\nq3,algebra\n"
    )
    tm = read_tags_csv(path, ["q1", "q2", "q3"])
    assert tm.names == ("algebra", "fractions", "geometry")
    np.testing.assert_array_equal(
        tm.T, [[1, 1, 0], [0, 0, 1], [1, 0, 0]]
    )
    with pytest.raises(ValueError):
        read_tags_csv(path, ["q1", "q2"])

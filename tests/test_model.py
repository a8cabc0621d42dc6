"""Response-matrix and factor-model contracts."""

import concurrent.futures
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gradefactor
from gradefactor.links import LinkKind, inv_link
from gradefactor.model import (
    FactorModel,
    ResponseMatrix,
    check_dimensions,
    log_likelihood,
    slack,
)


def phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# responses as a caller may hold them: bool, int or float, each with a
# value it may hold off the mask
INPUT_DTYPES = pytest.mark.parametrize("dtype", [bool, np.int64, float],
                                       ids=["bool", "int", "float"])
UNOBSERVED = {bool: True, np.int64: 7, float: math.nan}


class TestResponseMatrix:
    def test_rejects_non_binary_observed(self):
        with pytest.raises(ValueError):
            ResponseMatrix([[0.0, 0.5]], [[True, True]])

    def test_ignores_values_outside_mask(self):
        data = ResponseMatrix([[0.0, 7.0]], [[True, False]])
        assert not data.entries[0, 1]
        assert data.n_observed == 1

    # the value's own dtype is the input's; bool has no bad value
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 2.0, -1.0,
        pytest.param(np.int64(2), id="int-2"), pytest.param(np.int64(-1), id="int--1"),
    ])
    def test_rejects_bad_value_at_observed_cell(self, value):
        with pytest.raises(ValueError, match="observed entries must be 0 or 1"):
            ResponseMatrix(np.array([[1, value]], dtype=np.asarray(value).dtype),
                           [[True, True]])

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, 2.0,
        pytest.param(np.int64(2), id="int-2"), pytest.param(np.True_, id="bool-True"),
    ])
    def test_accepts_any_value_at_unobserved_cell(self, value):
        dtype = np.asarray(value).dtype
        entries = np.array([[1, value]], dtype=dtype)
        data = ResponseMatrix(entries, [[True, False]])
        assert data.entries.tolist() == [[True, False]]
        assert np.array_equal(entries, np.array([[1, value]], dtype=dtype), equal_nan=True)

    def test_mask_shape_checked(self):
        for dtype in (bool, np.int64, float):
            with pytest.raises(ValueError):
                ResponseMatrix(np.zeros((2, 2), dtype=dtype), np.ones((2, 3), dtype=bool))

    @INPUT_DTYPES
    def test_entries_are_read_only_bool_false_off_mask(self, dtype):
        rng = np.random.default_rng(66)
        mask = rng.random((6, 7)) < 0.6
        correct = rng.random((6, 7)) < 0.5
        entries = np.where(mask, correct, UNOBSERVED[dtype]).astype(dtype)
        data = ResponseMatrix(entries, mask)
        assert data.entries.dtype == bool and data.mask.dtype == bool
        assert not data.entries.flags.writeable and not data.mask.flags.writeable
        with pytest.raises(ValueError):
            data.entries[0, 0] = True
        assert np.array_equal(data.entries, correct & mask)
        assert np.array_equal(data.mask, mask)

    @INPUT_DTYPES
    def test_caller_changes_do_not_reach_data(self, dtype):
        rng = np.random.default_rng(67)
        mask = rng.random((6, 7)) < 0.6
        correct = rng.random((6, 7)) < 0.5
        entries = correct.astype(dtype)
        data = ResponseMatrix(entries, mask)
        want_entries, want_mask = correct & mask, mask.copy()
        entries[...] = 1 - entries
        mask[...] = ~mask
        assert np.array_equal(data.entries, want_entries)
        assert np.array_equal(data.mask, want_mask)

    def test_bool_input_makes_no_float_copy(self):
        # numpy reports its array allocations to tracemalloc; the matrix's
        # own two bool arrays take 2 bytes a cell, a float64 copy 8
        Q, N = 300, 500
        rng = np.random.default_rng(68)
        correct = rng.random((Q, N)) < 0.5
        mask = rng.random((Q, N)) < 0.1
        tracemalloc.start()
        try:
            ResponseMatrix(correct, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * Q * N


class TestObservedScatter:
    @pytest.mark.parametrize("p_obs", [0.6, 1.0])
    def test_stack_scatter_equals_one_matrix_at_a_time(self, p_obs):
        rng = np.random.default_rng(64)
        mask = rng.random((5, 7)) < p_obs
        obs = ResponseMatrix(rng.integers(0, 2, (5, 7)), mask).observed
        for B in (1, 3, 3, 4):  # the second B = 3 reuses the cached index
            values = rng.normal(size=(B, obs.sign.size))
            out = rng.normal(size=(B, 5, 7))
            expected = out.copy()
            for b in range(B):
                obs.scatter(expected[b], values[b])
            assert obs.scatter(out, values) is out
            assert out.tobytes() == expected.tobytes()
            obs.scatter(out, 2.5)
            np.testing.assert_array_equal(out[:, mask], 2.5)

    def test_threads_share_the_index_cache(self):
        # stacks of different sizes scatter at once through one cache, with
        # the interpreter switching threads as often as it can
        rng = np.random.default_rng(65)
        mask = rng.random((6, 9)) < 0.5
        obs = ResponseMatrix(rng.integers(0, 2, (6, 9)), mask).observed

        def work(B):
            for _ in range(200):
                values = np.arange(B * obs.sign.size, dtype=float).reshape(B, -1)
                out = obs.scatter(np.zeros((B, 6, 9)), values)
                if not np.array_equal(out[:, mask], values):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(work, 2 + i % 3) for i in range(6)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)


class TestFactorModel:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            FactorModel([[-0.1]], [[0.0]], [0.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FactorModel(np.ones((2, 2)), np.ones((3, 4)), np.zeros(2))

    def test_immutable_arrays(self):
        model = FactorModel(np.ones((2, 2)), np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            model.W[0, 0] = 2.0


class TestSlack:
    def test_zero_weights_all_ones(self):
        model = FactorModel(np.zeros((3, 2)), np.random.default_rng(0).normal(size=(2, 4)),
                            np.ones(3))
        np.testing.assert_array_equal(slack(model), np.ones((3, 4)))

    def test_scalar_case(self):
        model = FactorModel([[2.0]], [[3.0]], [-1.0])
        assert slack(model)[0, 0] == 5.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        W = np.abs(rng.normal(size=(4, 2)))
        C = rng.normal(size=(2, 3))
        mu = rng.normal(size=4)
        model = FactorModel(W, C, mu)
        expected = np.empty((4, 3))
        for i in range(4):
            for j in range(3):
                acc = mu[i]
                for k in range(2):
                    acc += W[i, k] * C[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(slack(model), expected, atol=1e-12)


class TestLogLikelihood:
    def test_empty_mask_is_zero(self):
        data = ResponseMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        model = FactorModel(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros(2))
        assert log_likelihood(model, data) == 0.0

    def test_single_centered_entry(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        data = ResponseMatrix(np.array([[1.0, 0], [0, 0]]), mask)
        model = FactorModel(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros(2))
        assert log_likelihood(model, data) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_dense_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        W = np.abs(rng.normal(size=(5, 2)))
        C = rng.normal(size=(2, 5))
        mu = rng.normal(size=5)
        Y = rng.integers(0, 2, size=(5, 5)).astype(float)
        model = FactorModel(W, C, mu, LinkKind.PROBIT)
        data = ResponseMatrix(Y)
        expected = 0.0
        for i in range(5):
            for j in range(5):
                z = float(W[i] @ C[:, j] + mu[i])
                p = phi(z)
                expected += math.log(p if Y[i, j] == 1 else 1.0 - p)
        assert log_likelihood(model, data) == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch(self):
        data = ResponseMatrix(np.zeros((2, 3)))
        model = FactorModel(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            log_likelihood(model, data)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        W = np.abs(rng.normal(size=(4, 2)))
        C = rng.normal(size=(2, 5))
        mu = rng.normal(size=4)
        Y = rng.integers(0, 2, size=(4, 5)).astype(float)
        mask = rng.random((4, 5)) < 0.7
        base = log_likelihood(FactorModel(W, C, mu), ResponseMatrix(Y * mask, mask))
        qp = rng.permutation(4)
        lp = rng.permutation(5)
        permuted = log_likelihood(
            FactorModel(W[qp], C[:, lp], mu[qp]),
            ResponseMatrix((Y * mask)[qp][:, lp], mask[qp][:, lp]),
        )
        assert permuted == pytest.approx(base, rel=1e-12)


class TestPredictProb:
    def test_examples(self):
        model = FactorModel([[1.6448536]], [[1.0]], [0.0], LinkKind.PROBIT)
        assert inv_link(slack(model), model.link)[0, 0] == pytest.approx(0.95, abs=1e-6)
        model_log = FactorModel([[math.log(3.0)]], [[1.0]], [0.0], LinkKind.LOGIT)
        p_logit = inv_link(slack(model_log), model_log.link)[0, 0]
        assert p_logit == pytest.approx(0.75, abs=1e-12)
        centered = FactorModel([[0.0]], [[1.0]], [0.0])
        assert inv_link(slack(centered), centered.link)[0, 0] == 0.5

    def test_zero_weights_learner_independent(self):
        rng = np.random.default_rng(7)
        model = FactorModel(np.zeros((3, 2)), rng.normal(size=(2, 6)), rng.normal(size=3))
        probs = inv_link(slack(model), model.link)
        for i in range(3):
            assert len(set(probs[i].tolist())) == 1


def test_dimensions_warns_on_large_k():
    with pytest.warns(UserWarning):
        check_dimensions(Q=4, N=5, K=6)


@pytest.mark.parametrize("K", [0, -1, 2.5, np.float64(2.0), True, "2"])
def test_dimensions_reject_k_that_is_not_a_positive_integer(K):
    with pytest.raises(ValueError, match="^K must be an integer >= 1"):
        check_dimensions(Q=4, N=5, K=K)


def test_checks_hold_under_optimize_flag():
    # python -O strips assert statements; the config checks must survive it
    script = textwrap.dedent("""
        import math
        from gradefactor.mle import MLConfig
        from gradefactor.synth import SynthConfig
        for make in (lambda: MLConfig(1.0, restarts=True),
                     lambda: MLConfig(1.0, gamma_c=math.nan),
                     lambda: SynthConfig(Q=2, N=2, K=True),
                     lambda: SynthConfig(Q=2, N=2, K=1, v_mu=math.nan)):
            try:
                make()
            except ValueError as exc:
                print("rejected:", exc)
            else:
                print("accepted")
    """)
    # the child does not inherit pytest's pythonpath setting: point it at
    # the src directory of the package this test imported
    src = str(Path(gradefactor.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "rejected: restarts must be an integer >= 1",
        "rejected: gamma_c must be a finite positive number",
        "rejected: K must be an integer >= 1",
        "rejected: v_mu must be a finite positive number",
    ]

"""Sampler correctness: moment checks against rejection/quadrature oracles,
conjugate closed forms, distributional tests, and sweep invariants."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import gradefactor.bayes as bayes
from gradefactor.bayes import (
    GibbsState,
    _initial_state,
    _resolve,
    _std_truncnorm_upper,
    _sweep,
    posterior_point_estimates,
    run_gibbs,
    sample_inv_wishart,
    sample_truncnorm,
    step_covariance,
    step_difficulty,
    step_inclusion,
    step_knowledge,
    step_rates,
    step_slack,
    step_weights,
)
from gradefactor.model import ResponseMatrix
from gradefactor.synth import SynthConfig, generate_synthetic
from helpers import (
    rect_normal_logpdf,
    run_child,
    sample_rect_normal,
    step_knowledge_shared,
    step_weights_residual,
    validate_state,
)


class TestTruncnorm:
    def test_standard_halfnormal_mean(self):
        rng = np.random.default_rng(0)
        draws = sample_truncnorm(np.full(1_000_000, 0.0), 1.0, rng)
        assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) < 0.003

    def test_sign_constraints(self):
        rng = np.random.default_rng(1)
        pos = sample_truncnorm(np.full(10_000, -1.0), 2.0, rng)
        # a draw on (-inf, 0) is the negated draw for the negated mean
        neg = -sample_truncnorm(np.full(10_000, -1.5), 0.5, rng)
        assert (pos > 0).all()
        assert (neg < 0).all()

    def test_deep_tail_mean_against_rejection_oracle(self):
        # Mills-ratio closed form for E[X | X > 0], X ~ N(-8, 1)
        alpha = 8.0
        expected = -8.0 + stats.norm.pdf(alpha) / stats.norm.sf(alpha)
        rng = np.random.default_rng(2)
        draws = sample_truncnorm(np.full(100_000, -8.0), 1.0, rng)
        assert np.isfinite(draws).all()
        assert abs(draws.mean() - expected) / abs(expected) < 0.05

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            sample_truncnorm(0.0, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("mean,var", [(math.nan, 1.0), (-math.inf, 1.0),
                                          (0.5, math.nan)])
    def test_non_finite_parameters_rejected(self, mean, var):
        # a non-finite truncation point has no finite inverse-CDF draw,
        # so it is refused
        with pytest.raises(ValueError):
            sample_truncnorm(mean, var, np.random.default_rng(0))

    def test_nan_variance_named(self):
        with pytest.raises(ValueError, match="variance must be positive"):
            sample_truncnorm(0.0, math.nan, np.random.default_rng(0))
        with pytest.raises(ValueError, match="variance must be positive"):
            sample_truncnorm([0.0, 1.0], [1.0, math.nan], np.random.default_rng(0))

    def test_one_uniform_per_draw(self):
        # means -8 and -30 put their truncation points past 4 sigma, and
        # still take one uniform each
        rng = np.random.default_rng(40)
        sample_truncnorm([0.5, -8.0, 1.0, -30.0], 1.0, rng)
        clone = np.random.default_rng(40)
        clone.random(4)
        assert rng.random() == clone.random()

    def test_body_draws_are_the_inverse_cdf(self):
        # every truncation point at most 4 sigma out: X = -ndtri(u ndtr(-a))
        # with u = 1 - U, bitwise
        a = np.linspace(-6.0, 4.0, 101)
        u = 1.0 - np.random.default_rng(41).random(a.shape)
        expected = -special.ndtri(u * special.ndtr(-a))
        draws = -_std_truncnorm_upper(-a, np.random.default_rng(41))
        np.testing.assert_array_equal(draws, expected)

    @pytest.mark.parametrize("a", [4.5, 8.0, 40.0, 300.0])
    def test_tail_conditional_cdf_is_uniform(self, a):
        # P(X > x | X > a) = Q(x) / Q(a), with Q(x) = erfcx(x / sqrt 2)
        # exp(-x^2 / 2) / 2 written through erfcx, which the sampler does
        # not use; the conditional CDF of exact draws is uniform on (0, 1)
        x = -_std_truncnorm_upper(np.full(50_000, -a), np.random.default_rng(42))
        assert (x >= a).all()
        root2 = math.sqrt(2.0)
        surv = (special.erfcx(x / root2) / special.erfcx(a / root2)
                * np.exp(-0.5 * (x - a) * (x + a)))
        assert stats.kstest(1.0 - surv, "uniform").pvalue > 0.001

    @pytest.mark.parametrize("mean", [0.3, -5.0, -40.0])
    def test_scalar_mean_draws_one_element(self, mean):
        # -5 and -40 put the truncation point in the log-space tail; the
        # draw is the one a one-element array call makes
        draw = sample_truncnorm(mean, 1.0, np.random.default_rng(43))
        array = sample_truncnorm(np.array([mean]), 1.0, np.random.default_rng(43))
        assert draw.shape == (1,)
        assert draw[0] > 0
        assert draw[0] == array[0]

    def test_rect_normal_in_the_tail_is_positive(self):
        # theta = 0 - 6 * 1 is 6 sd below 0
        draw = sample_rect_normal(np.array([0.0]), 1.0, 6.0, np.random.default_rng(44))
        assert draw.shape == (1,)
        assert draw[0] > 0

    def test_draw_below_float_resolution_ends(self):
        # the excess over 0 is about var / |mean| = 1e-16, below the
        # float spacing near 1e6 (1.2e-10), so every redraw rounds to <= 0
        script = (
            "import numpy as np\n"
            "from gradefactor.bayes import sample_truncnorm\n"
            "try:\n"
            "    sample_truncnorm(np.array([-1e6]), 1e-10, np.random.default_rng(0))\n"
            "except ValueError as err:\n"
            "    print(err)\n"
        )
        lines = run_child(script, timeout=60)
        assert len(lines) == 1
        assert "below float resolution" in lines[0]
        assert "mean -1e+06" in lines[0]


class TestRectNormal:
    def test_zero_tilt_matches_truncnorm(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = sample_rect_normal(np.full(200_000, 0.7), 1.3, 0.0, rng1)
        b = sample_truncnorm(np.full(200_000, 0.7), 1.3, rng2)
        assert abs(a.mean() - b.mean()) < 0.01
        assert abs(a.var() - b.var()) < 0.01

    def test_density_normalizes(self):
        for m, s, lam in [(1.0, 0.25, 2.0), (-0.5, 1.0, 0.5), (2.0, 4.0, 3.0)]:
            total, _ = integrate.quad(
                lambda x: math.exp(rect_normal_logpdf(x, m, s, lam)),
                0.0,
                m + 10.0 * math.sqrt(s),
            )
            assert 0.999 <= total <= 1.001

    def test_moments_match_quadrature(self):
        m, s, lam = 1.0, 0.25, 2.0
        upper = m + 10.0 * math.sqrt(s)
        first, _ = integrate.quad(
            lambda x: x * math.exp(rect_normal_logpdf(x, m, s, lam)), 0.0, upper
        )
        second, _ = integrate.quad(
            lambda x: x * x * math.exp(rect_normal_logpdf(x, m, s, lam)), 0.0, upper
        )
        rng = np.random.default_rng(4)
        draws = sample_rect_normal(np.full(1_000_000, m), s, lam, rng)
        assert abs(draws.mean() - first) < 0.005
        assert abs((draws**2).mean() - second) < 0.005

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            sample_rect_normal(0.0, -1.0, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("s,lam,message", [
        (math.nan, 1.0, "slab variance must be positive"),
        (1.0, math.nan, "tilt rate must be non-negative"),
        ([1.0, math.nan], 0.5, "slab variance must be positive"),
        (1.0, [0.5, math.nan], "tilt rate must be non-negative"),
    ])
    def test_nan_parameter_named(self, s, lam, message):
        with pytest.raises(ValueError, match=message):
            sample_rect_normal([0.0, 0.5], s, lam, np.random.default_rng(0))


class TestInvWishart:
    def test_mean_matches_closed_form(self):
        rng = np.random.default_rng(5)
        scale = np.array([[2.0, 0.3], [0.3, 1.0]])
        df = 8.0
        draws = np.mean([sample_inv_wishart(scale, df, rng) for _ in range(40_000)],
                        axis=0)
        np.testing.assert_allclose(draws, scale / (df - 2 - 1), rtol=0.03)

    def test_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            V = sample_inv_wishart(np.eye(3), 4.5, rng)
            assert np.linalg.eigvalsh(V)[0] > 0
            np.testing.assert_allclose(V, V.T)

    def test_bad_df(self):
        with pytest.raises(ValueError):
            sample_inv_wishart(np.eye(3), 1.5, np.random.default_rng(0))


def one_question_weight_step(z, C, lam, r, rng=None):
    """Run step_weights on one question with slack row z, knowledge C
    (K x N, every response observed), difficulty 0, weights starting at 0,
    slab rate lam and inclusion probability r; returns the state."""
    C = np.asarray(C, dtype=float)
    K, N = C.shape
    state = GibbsState(
        Z=np.asarray(z, dtype=float).reshape(1, N), W=np.zeros((1, K)), C=C,
        mu=np.zeros(1), V=np.eye(K), lam=np.full(K, float(lam)),
        r=np.full(K, float(r)), activity=np.zeros((1, K)),
    )
    step_weights(state, ResponseMatrix(np.ones((1, N))),
                 np.random.default_rng(0) if rng is None else rng)
    return state


class TestWPosteriorStats:
    # step_weights keeps P(weight active | rest) = 1 - P(zero) in activity
    def test_forced_active_when_inclusion_near_one(self):
        state = one_question_weight_step([1.0, 2.0], [[1.0, 1.0]], 1.0, 1.0 - 1e-12)
        assert 1.0 - state.activity[0, 0] < 1e-9

    def test_single_observation_plugin(self, monkeypatch):
        # m_hat = 2 and s_hat = 1: the slab is a normal of mean
        # m_hat - lam s_hat = 1 and variance s_hat = 1 on (0, inf)
        seen = []

        def recording(mean, var, rng, _real=bayes.sample_truncnorm):
            seen.append((mean, var))
            return _real(mean, var, rng)

        monkeypatch.setattr(bayes, "sample_truncnorm", recording)
        one_question_weight_step([2.0], [[1.0]], 1.0, 0.5)
        (mean, var), = seen
        assert float(mean[0]) == pytest.approx(2.0 - 1.0 * 1.0)
        assert float(var[0]) == pytest.approx(1.0)

    def test_scalar_spike_probability_matches_quadrature(self):
        # scalar model: x | m ~ N(m, 1), m ~ r Exp(lam) + (1-r) delta0
        for x, lam, r in [(0.5, 1.0, 0.3), (2.0, 0.5, 0.5), (-1.0, 2.0, 0.7)]:
            like0 = stats.norm.pdf(x, 0.0, 1.0)
            marg, _ = integrate.quad(
                lambda m: stats.norm.pdf(x, m, 1.0) * lam * math.exp(-lam * m),
                0.0,
                60.0,
            )
            expected = like0 * (1 - r) / (like0 * (1 - r) + r * marg)
            state = one_question_weight_step([x], [[1.0]], lam, r)
            assert 1.0 - state.activity[0, 0] == pytest.approx(expected, abs=1e-6)

    def test_degenerate_column_falls_back_to_prior(self):
        # no observed response weights the entry: activity is the prior
        # inclusion probability and an active weight is an Exp(lam) draw
        rng = np.random.default_rng(3)
        draws = []
        for _ in range(2000):
            state = one_question_weight_step([1.0], [[0.0]], 2.0, 0.3, rng)
            assert state.activity[0, 0] == 0.3
            draws.append(state.W[0, 0])
        draws = np.asarray(draws)
        assert (draws >= 0).all()
        assert abs((draws > 0).mean() - 0.3) < 0.05
        assert abs(draws[draws > 0].mean() - 0.5) < 0.08


def make_state(data, K, seed):
    rng = np.random.default_rng(seed)
    return _initial_state(data, K, _resolve(data), rng), rng


class TestSweepInvariants:
    def test_invariants_hold_over_sweeps(self):
        truth, data = generate_synthetic(SynthConfig(Q=8, N=6, K=2, p_obs=0.8, seed=7))
        mu0 = _resolve(data)
        state, rng = make_state(data, 2, 8)
        for _ in range(100):
            _sweep(state, data, mu0, rng)
            validate_state(state, data)

    def test_slack_sign_consistency(self):
        truth, data = generate_synthetic(SynthConfig(Q=5, N=5, K=2, seed=9))
        state, rng = make_state(data, 2, 10)
        step_slack(state, data, rng)
        obs = data.mask
        assert ((state.Z[obs] > 0) == (data.entries[obs] == 1)).all()

    def test_slack_is_one_draw_over_every_observed_cell(self, monkeypatch):
        truth, data = generate_synthetic(SynthConfig(Q=6, N=7, K=2, p_obs=0.7, seed=9))
        y = data.entries[data.mask]
        assert 0 < y.sum() < y.size  # both signs observed
        sizes = []

        def counting(mean, *args, _real=bayes.sample_truncnorm):
            sizes.append(np.size(mean))
            return _real(mean, *args)

        monkeypatch.setattr(bayes, "sample_truncnorm", counting)
        state, rng = make_state(data, 2, 10)
        step_slack(state, data, rng)
        assert sizes == [data.n_observed]

    def test_weight_step_is_one_draw_per_concept(self, monkeypatch):
        # one sample_truncnorm call per concept over the rows with signal,
        # an empty one for a concept with none
        truth, data = generate_synthetic(SynthConfig(Q=6, N=7, K=3, p_obs=0.7, seed=9))
        mask = data.mask.copy()
        mask[2] = False  # a question with no observed response
        data = ResponseMatrix(data.entries, mask)
        sizes = []

        def counting(mean, *args, _real=bayes.sample_truncnorm):
            sizes.append(np.size(mean))
            return _real(mean, *args)

        state, rng = make_state(data, 3, 10)
        state.C[1] = 0.0
        monkeypatch.setattr(bayes, "sample_truncnorm", counting)
        step_weights(state, data, rng)
        assert sizes == [5, 0, 5]

    def test_slack_draws_uncorrelated_across_entries(self):
        truth, data = generate_synthetic(SynthConfig(Q=3, N=3, K=1, seed=11))
        state, rng = make_state(data, 1, 12)
        n = 40_000
        samples = np.empty((n, 9))
        for t in range(n):
            step_slack(state, data, rng)
            samples[t] = state.Z.ravel()
        corr = np.corrcoef(samples, rowvar=False)
        off_diag = corr[~np.eye(9, dtype=bool)]
        assert np.abs(off_diag).max() < 0.02


def broken_states():
    """(description, mutation) pairs that each break one state invariant."""
    def negative_w(state, data):
        state.W[0, 0] = -0.5

    def asymmetric_v(state, data):
        state.V[0, 1] += 0.25

    def wrong_slack_sign(state, data):
        i, j = np.argwhere(data.mask)[0]
        state.Z[i, j] = -1.0 if data.entries[i, j] == 1 else 1.0

    return [("negative W", negative_w), ("asymmetric V", asymmetric_v),
            ("wrong slack sign", wrong_slack_sign)]


class TestStateValidation:
    def _swept_state(self):
        truth, data = generate_synthetic(SynthConfig(Q=6, N=5, K=2, p_obs=0.8, seed=29))
        state, rng = make_state(data, 2, 30)
        _sweep(state, data, _resolve(data), rng)
        validate_state(state, data)
        return state, data

    @pytest.mark.parametrize("case", broken_states(), ids=lambda c: c[0])
    def test_broken_invariant_raises(self, case):
        _, breaker = case
        state, data = self._swept_state()
        breaker(state, data)
        with pytest.raises(ValueError):
            validate_state(state, data)


class TestConjugateSteps:
    def test_difficulty_posterior_matches_closed_form(self):
        # the fixed prior: mu0 is the probit pull-back of the observed
        # correct rate and v_mu = 1
        truth, data = generate_synthetic(SynthConfig(Q=4, N=12, K=2, p_obs=0.7, seed=13))
        mu0 = stats.norm.ppf(data.entries[data.mask].mean())
        state, rng = make_state(data, 2, 14)
        state.Z[data.mask] = np.random.default_rng(15).normal(size=data.n_observed)
        maskf = data.mask.astype(float)
        n_prime = maskf.sum(axis=1)
        v = 1.0 / (1.0 + n_prime)
        resid = ((state.Z - state.W @ state.C) * maskf).sum(axis=1)
        expected_mean = v * (mu0 + resid)
        n_draws = 20_000
        draws = np.empty((n_draws, 4))
        for t in range(n_draws):
            step_difficulty(state, data, _resolve(data), rng)
            draws[t] = state.mu
        mc_se = np.sqrt(v / n_draws)
        assert (np.abs(draws.mean(axis=0) - expected_mean) <= 3.0 * mc_se).all()

    def test_covariance_step_matches_inverse_gamma_oracle(self):
        # K = 1 reduction: IW(scale, df) is InvGamma(df/2, scale/2)
        # under the fixed prior V0 = I and h = K + 1
        truth, data = generate_synthetic(SynthConfig(Q=5, N=6, K=1, seed=16))
        state, rng = make_state(data, 1, 17)
        scale = float(1.0 + (state.C @ state.C.T).item())
        df = data.N + 2.0
        draws = np.empty(10_000)
        for t in range(10_000):
            step_covariance(state, rng)
            draws[t] = state.V[0, 0]
        oracle_rng = np.random.default_rng(18)
        # jitter shifts the scale: reproduce it exactly
        jittered = scale * (1.0 + 1e-10)
        oracle = (jittered / 2.0) / oracle_rng.gamma(df / 2.0, 1.0, size=10_000)
        assert stats.ks_2samp(draws, oracle).pvalue > 0.01


def _copy_state(state):
    return GibbsState(**{name: np.copy(value) for name, value in vars(state).items()})


class TestReferenceSteps:
    # the batched steps against their reference forms in helpers, on the
    # same state and the same Generator

    def test_weight_step_matches_residual_form(self):
        truth, data = generate_synthetic(SynthConfig(Q=12, N=15, K=3, p_obs=0.7, seed=33))
        mask = data.mask.copy()
        mask[4] = False  # a question with no observed response
        data = ResponseMatrix(data.entries, mask)
        state, rng = make_state(data, 3, 34)
        for _ in range(5):
            _sweep(state, data, _resolve(data), rng)
        # weights on most entries, so every concept's conditional depends
        # on the others, and a concept with no signal anywhere
        pick = np.random.default_rng(35)
        shape = state.W.shape
        state.W[:] = pick.exponential(1.0, shape) * (pick.random(shape) < 0.7)
        state.r[:] = 0.6
        state.C[1] = 0.0
        new, ref = _copy_state(state), _copy_state(state)
        step_weights(new, data, np.random.default_rng(36))
        step_weights_residual(ref, data, np.random.default_rng(36))
        assert (new.W[:, 1] > 0).any()  # the prior fallback ran
        np.testing.assert_array_equal(new.W != 0, ref.W != 0)
        assert np.abs(new.W - ref.W).max() <= 1e-12 * np.abs(ref.W).max()
        assert np.abs(new.activity - ref.activity).max() <= 1e-12

    def test_knowledge_step_matches_shared_precision(self):
        truth, data = generate_synthetic(SynthConfig(Q=12, N=15, K=3, p_obs=1.0, seed=37))
        state, rng = make_state(data, 3, 38)
        for _ in range(5):
            _sweep(state, data, _resolve(data), rng)
        new, ref = _copy_state(state), _copy_state(state)
        step_knowledge(new, data, np.random.default_rng(39))
        step_knowledge_shared(ref, data, np.random.default_rng(39))
        assert np.abs(new.C - ref.C).max() <= 1e-12 * np.abs(ref.C).max()


class TestScalarSpikeSlabSampler:
    def test_inclusion_frequency_matches_quadrature(self):
        # one-coordinate model driven through the real weight step
        rng = np.random.default_rng(21)
        for x, lam, r in [(0.5, 1.0, 0.3), (1.5, 2.0, 0.6), (-0.8, 0.5, 0.5)]:
            data = ResponseMatrix(np.array([[1.0]]), np.array([[True]]))
            state = GibbsState(
                Z=np.array([[x]]),
                W=np.array([[0.0]]),
                C=np.array([[1.0]]),
                mu=np.array([0.0]),
                V=np.eye(1),
                lam=np.array([lam]),
                r=np.array([r]),
                activity=np.array([[r]]),
            )
            n = 100_000
            active = 0
            for _ in range(n):
                state.W[0, 0] = 0.0
                step_weights(state, data, rng)
                if state.W[0, 0] != 0.0:
                    active += 1
            like0 = stats.norm.pdf(x, 0.0, 1.0)
            marg, _ = integrate.quad(
                lambda m: stats.norm.pdf(x, m, 1.0) * lam * math.exp(-lam * m),
                0.0, 60.0,
            )
            p_active = r * marg / (like0 * (1 - r) + r * marg)
            se = math.sqrt(p_active * (1 - p_active) / n)
            assert abs(active / n - p_active) <= 3.0 * se


class TestRunGibbs:
    def test_summary_shapes_and_ranges(self):
        truth, data = generate_synthetic(SynthConfig(Q=10, N=8, K=2, p_obs=0.8, seed=22))
        summary = run_gibbs(data, 2, burn_in=50, n_samples=50, rng=23)
        assert summary.w_mean.shape == (10, 2)
        assert ((summary.activity >= 0) & (summary.activity <= 1)).all()
        assert (summary.w_mean >= 0).all()
        assert (summary.w_var >= 0).all()

    def test_activity_separates_true_support(self):
        truth, data = generate_synthetic(SynthConfig(Q=30, N=30, K=2, seed=24))
        summary = run_gibbs(data, 2, burn_in=300, n_samples=300, rng=25)
        from gradefactor.evaluate import match_permutation

        perm = match_permutation(truth.W, summary.w_mean, truth.C, summary.c_mean)
        activity = summary.activity[:, perm]
        on = activity[truth.W > 0]
        off = activity[truth.W == 0]
        assert on.mean() > off.mean()

    def test_bad_counts_rejected(self):
        truth, data = generate_synthetic(SynthConfig(Q=4, N=4, K=1, seed=26))
        with pytest.raises(ValueError):
            run_gibbs(data, 1, burn_in=0, n_samples=10, rng=0)

    @pytest.mark.parametrize("name,value", [
        ("K", 0), ("K", -1), ("K", 2.5), ("K", True),
        ("burn_in", 0), ("burn_in", 2.5), ("burn_in", True),
        ("n_samples", -3), ("n_samples", 2.5), ("n_samples", np.float64(4.0)),
    ])
    def test_bad_sizes_rejected_by_name(self, name, value):
        # found before any draw, with a message naming the argument
        truth, data = generate_synthetic(SynthConfig(Q=4, N=4, K=1, seed=26))
        sizes = {"K": 1, "burn_in": 2, "n_samples": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            run_gibbs(data, sizes["K"], burn_in=sizes["burn_in"],
                      n_samples=sizes["n_samples"], rng=0)

    @pytest.mark.parametrize("rng", [True, False, -1, np.int64(-2)])
    def test_bad_seed_rejected_by_name(self, rng):
        # a bool would otherwise seed the chain as 0 or 1
        truth, data = generate_synthetic(SynthConfig(Q=4, N=4, K=1, seed=26))
        with pytest.raises(ValueError, match="^rng must be a non-negative integer$"):
            run_gibbs(data, 1, burn_in=2, n_samples=2, rng=rng)


# Posterior summaries of a 20 + 20 sweep chain: (sum, flat entries 0 and 7,
# last entry) of each field.  A change to the arithmetic or the RNG order of
# any step moves them.
PINNED_CHAINS = {
    0.7: {
        "w_mean": (17.9052949724023, 0.6736438141087737, 0.07410403995118202,
                   0.04436731132908804),
        "c_mean": (11.442621659557359, -0.11057868444479146, -0.5904566204213126,
                   -0.3047591459577655),
        "mu_mean": (-1.0157178854290208, -0.6570305698986284, 0.4152589728870855,
                    1.0783108532020234),
        "activity": (13.380214871677651, 0.7858222794963383, 0.07242719177266842,
                     0.09005139225659595),
    },
    1.0: {
        "w_mean": (30.297040535682097, 0.5375009382137383, 0.0, 0.013019972748226005),
        "c_mean": (30.589175686861076, -0.7967081723914959, -2.2170698685652104,
                   0.2907943596858996),
        "mu_mean": (-0.8101512851542214, -0.48615107047528827, 0.6609609415301392,
                    1.3877721432882204),
        "activity": (16.074430791953144, 0.9865447413941567, 0.011551427301471186,
                     0.038631353115477676),
    },
}


def pinned_instance(p_obs):
    truth, data = generate_synthetic(SynthConfig(Q=12, N=15, K=3, p_obs=p_obs, seed=31))
    return data


class TestChainPinned:
    @pytest.mark.parametrize("p_obs", sorted(PINNED_CHAINS))
    def test_posterior_summary_pinned(self, p_obs):
        summary = run_gibbs(pinned_instance(p_obs), 3, burn_in=20, n_samples=20, rng=32)
        for name, pinned in PINNED_CHAINS[p_obs].items():
            values = getattr(summary, name)
            got = (values.sum(), values.flat[0], values.flat[7], values.flat[-1])
            assert got == pytest.approx(pinned, rel=1e-12), name

    @pytest.mark.parametrize("p_obs", sorted(PINNED_CHAINS))
    def test_run_gibbs_equals_public_sweeps(self, p_obs):
        data = pinned_instance(p_obs)
        summary = run_gibbs(data, 3, burn_in=20, n_samples=20, rng=32)
        rng = np.random.default_rng(32)
        mu0 = _resolve(data)
        state = _initial_state(data, 3, mu0, rng)
        for _ in range(20):
            _sweep(state, data, mu0, rng)
        sums = {"W": 0.0, "C": 0.0, "mu": 0.0, "activity": 0.0}
        for _ in range(20):
            _sweep(state, data, mu0, rng)
            for name in sums:
                sums[name] = sums[name] + getattr(state, name)
        np.testing.assert_array_equal(summary.w_mean, sums["W"] / 20.0)
        np.testing.assert_array_equal(summary.c_mean, sums["C"] / 20.0)
        np.testing.assert_array_equal(summary.mu_mean, sums["mu"] / 20.0)
        np.testing.assert_array_equal(summary.activity,
                                      np.clip(sums["activity"] / 20.0, 0.0, 1.0))


def stressed_weight_chain(sweeps=24):
    """The steps of 24 sweeps, in _sweep's order, on a 12 x 15 matrix at
    p_obs 0.7 whose question 4 has no observed response.  Every third
    sweep zeroes knowledge row 1 before the weight step, so concept 1
    falls back to its prior; every fourth sets lambda_2 = 60, which puts
    concept 2's slab means many sd below 0, in the sampler's tail.
    Returns the state and the concept-1 weights drawn from the prior."""
    truth, data = generate_synthetic(SynthConfig(Q=12, N=15, K=3, p_obs=0.7, seed=33))
    mask = data.mask.copy()
    mask[4] = False
    data = ResponseMatrix(data.entries, mask)
    rng = np.random.default_rng(34)
    mu0 = _resolve(data)
    state = _initial_state(data, 3, mu0, rng)
    fallback = []
    for t in range(sweeps):
        step_slack(state, data, rng)
        step_difficulty(state, data, mu0, rng)
        step_knowledge(state, data, rng)
        step_covariance(state, rng)
        if t % 3 == 0:
            state.C[1] = 0.0
        if t % 4 == 1:
            state.lam[2] = 60.0
        step_weights(state, data, rng)
        if t % 3 == 0:
            fallback.append(state.W[:, 1].copy())
        step_rates(state, rng)
        step_inclusion(state, rng)
    return state, np.concatenate(fallback)


# (sum, sum of squares, max) of each field of stressed_weight_chain's
# final state and the SHA-256 of their bytes, recorded before the weight
# step and the truncated-normal sampler were rewritten; the rewrite keeps
# every operation and every draw, so they must match exactly
PINNED_STRESSED_CHAIN = {
    "W": (1287.869628750233, 913656.8551577639, 865.526558178366),
    "activity": (4.626794982430372, 3.551340993242379, 1.0),
    "Z": (905.1458644913332, 1088423.3129897437, 738.3131710197887),
    "C": (25.94394300380319, 228.08870474154975, 9.063209675240739),
    "mu": (-23.239379647857, 306.5973773769238, 0.20734139924068207),
}
PINNED_STRESSED_DIGEST = "834084a72093774233a4a42b6951d953ce780406c41843b65a24d02a806f5f48"


class TestStressedChainPinned:
    def test_reaches_fallback_and_tail(self, monkeypatch):
        tails = []

        def recording(mean, var, rng, _real=bayes.sample_truncnorm):
            w = np.asarray(mean) / np.sqrt(var)
            tails.append((np.ndim(var), bool((w < -4.0).any())))
            return _real(mean, var, rng)

        monkeypatch.setattr(bayes, "sample_truncnorm", recording)
        state, fallback = stressed_weight_chain()
        assert (fallback > 0).any()
        assert (0, True) in tails  # a slack draw in the tail
        assert (1, True) in tails  # a weight draw in the tail

    def test_final_state_pinned(self):
        state, _ = stressed_weight_chain()
        digest = hashlib.sha256()
        for name, pinned in PINNED_STRESSED_CHAIN.items():
            value = getattr(state, name)
            digest.update(value.tobytes())
            got = (float(value.sum()), float((value * value).sum()), float(value.max()))
            assert got == pinned, name
        assert digest.hexdigest() == PINNED_STRESSED_DIGEST


class TestPointEstimates:
    def _summary(self):
        truth, data = generate_synthetic(SynthConfig(Q=8, N=8, K=2, seed=27))
        return run_gibbs(data, 2, burn_in=40, n_samples=40, rng=28)

    def test_zero_threshold_keeps_everything(self):
        summary = self._summary()
        model = posterior_point_estimates(summary, 0.0)
        np.testing.assert_array_equal(model.W, summary.w_mean)

    def test_thresholds_zero_low_activity(self):
        summary = self._summary()
        for threshold in (0.35, 0.55):
            model = posterior_point_estimates(summary, threshold)
            below = summary.activity < threshold
            assert (model.W[below] == 0).all()
            np.testing.assert_array_equal(model.W[~below], summary.w_mean[~below])

    def test_bad_threshold(self):
        summary = self._summary()
        with pytest.raises(ValueError):
            posterior_point_estimates(summary, 1.5)

"""Sampler correctness: moment checks against rejection/quadrature oracles,
conjugate closed forms, distributional tests, and sweep invariants."""

import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import integrate, stats

from gradefactor.bayes import (
    GibbsState,
    SpikeSlabHyperparams,
    _resolve,
    gibbs_sweep,
    init_gibbs_state,
    posterior_point_estimates,
    rect_normal_logpdf,
    run_gibbs,
    sample_inv_wishart,
    sample_rect_normal,
    sample_truncnorm,
    step_covariance,
    step_difficulty,
    step_inclusion,
    step_rates,
    step_slack,
    step_weights,
)
from gradefactor.model import ResponseMatrix
from gradefactor.synth import SynthConfig, generate_synthetic


class TestTruncnorm:
    def test_standard_halfnormal_mean(self):
        rng = np.random.default_rng(0)
        draws = sample_truncnorm(0.0, 1.0, "positive", rng, size=1_000_000)
        assert abs(draws.mean() - math.sqrt(2.0 / math.pi)) < 0.003

    def test_sign_constraints(self):
        rng = np.random.default_rng(1)
        pos = sample_truncnorm(-1.0, 2.0, "positive", rng, size=10_000)
        neg = sample_truncnorm(1.5, 0.5, "negative", rng, size=10_000)
        assert (pos > 0).all()
        assert (neg < 0).all()

    def test_deep_tail_mean_against_rejection_oracle(self):
        # Mills-ratio closed form for E[X | X > 0], X ~ N(-8, 1)
        alpha = 8.0
        expected = -8.0 + stats.norm.pdf(alpha) / stats.norm.sf(alpha)
        rng = np.random.default_rng(2)
        draws = sample_truncnorm(-8.0, 1.0, "positive", rng, size=100_000)
        assert np.isfinite(draws).all()
        assert abs(draws.mean() - expected) / abs(expected) < 0.05

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            sample_truncnorm(0.0, 0.0, "positive", np.random.default_rng(0))

    @pytest.mark.parametrize("mean,var", [(math.nan, 1.0), (-math.inf, 1.0),
                                          (0.5, math.nan)])
    def test_non_finite_parameters_rejected(self, mean, var):
        # the tail sampler would never accept a draw for these
        with pytest.raises(ValueError):
            sample_truncnorm(mean, var, "positive", np.random.default_rng(0))

    def test_bad_side(self):
        with pytest.raises(ValueError):
            sample_truncnorm(0.0, 1.0, "both", np.random.default_rng(0))


class TestRectNormal:
    def test_zero_tilt_matches_truncnorm(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = sample_rect_normal(0.7, 1.3, 0.0, rng1, size=200_000)
        b = sample_truncnorm(0.7, 1.3, "positive", rng2, size=200_000)
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
        draws = sample_rect_normal(m, s, lam, rng, size=1_000_000)
        assert abs(draws.mean() - first) < 0.005
        assert abs((draws**2).mean() - second) < 0.005

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            sample_rect_normal(0.0, -1.0, 1.0, np.random.default_rng(0))


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
        import gradefactor.bayes as bayes

        seen = []

        def recording(m_hat, s_hat, lam, rng, _real=bayes.sample_rect_normal):
            seen.append((m_hat, s_hat))
            return _real(m_hat, s_hat, lam, rng)

        monkeypatch.setattr(bayes, "sample_rect_normal", recording)
        one_question_weight_step([2.0], [[1.0]], 1.0, 0.5)
        (m_hat, s_hat), = seen
        assert float(m_hat[0]) == pytest.approx(2.0)
        assert float(s_hat[0]) == pytest.approx(1.0)

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
    return init_gibbs_state(data, K, SpikeSlabHyperparams(), rng), rng


class TestSweepInvariants:
    def test_invariants_hold_over_sweeps(self):
        truth, data = generate_synthetic(SynthConfig(Q=8, N=6, K=2, p_obs=0.8, seed=7))
        hyper = SpikeSlabHyperparams()
        state, rng = make_state(data, 2, 8)
        for _ in range(100):
            gibbs_sweep(state, data, hyper, rng)
            state.validate(data)

    def test_slack_sign_consistency(self):
        truth, data = generate_synthetic(SynthConfig(Q=5, N=5, K=2, seed=9))
        state, rng = make_state(data, 2, 10)
        step_slack(state, data, rng)
        obs = data.mask
        assert ((state.Z[obs] > 0) == (data.entries[obs] == 1)).all()

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
        gibbs_sweep(state, data, SpikeSlabHyperparams(), rng)
        state.validate(data)
        return state, data

    @pytest.mark.parametrize("case", broken_states(), ids=lambda c: c[0])
    def test_broken_invariant_raises(self, case):
        _, breaker = case
        state, data = self._swept_state()
        breaker(state, data)
        with pytest.raises(ValueError):
            state.validate(data)

    def test_rejected_under_optimize_flag(self):
        # python -O strips assert statements; the checks must survive it
        script = textwrap.dedent("""
            import numpy as np
            from gradefactor.bayes import SpikeSlabHyperparams, init_gibbs_state
            from gradefactor.synth import SynthConfig, generate_synthetic
            truth, data = generate_synthetic(SynthConfig(Q=6, N=5, K=2, seed=29))
            state = init_gibbs_state(data, 2, SpikeSlabHyperparams(),
                                     np.random.default_rng(30))
            state.W[0, 0] = -0.5
            try:
                state.validate(data)
            except ValueError as exc:
                print("rejected:", exc)
            else:
                print("accepted")
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("rejected:")


class TestHyperparams:
    @pytest.mark.parametrize("field", ["alpha", "beta", "e", "f", "v_mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SpikeSlabHyperparams(**{field: value})

    @pytest.mark.parametrize("field", ["h", "mu0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_resolve_rejects_non_finite(self, field, value):
        hyper = SpikeSlabHyperparams(**{field: value})
        with pytest.raises(ValueError, match=field):
            hyper.resolve(2)


class TestConjugateSteps:
    def test_difficulty_posterior_matches_closed_form(self):
        truth, data = generate_synthetic(SynthConfig(Q=4, N=12, K=2, p_obs=0.7, seed=13))
        hyper = SpikeSlabHyperparams(mu0=0.4, v_mu=2.0)
        state, rng = make_state(data, 2, 14)
        resolved = _resolve(hyper, 2, data)
        state.Z[data.mask] = np.random.default_rng(15).normal(size=data.n_observed)
        maskf = data.mask.astype(float)
        n_prime = maskf.sum(axis=1)
        v = 1.0 / (1.0 / 2.0 + n_prime)
        resid = ((state.Z - state.W @ state.C) * maskf).sum(axis=1)
        expected_mean = v * (0.4 / 2.0 + resid)
        n_draws = 20_000
        draws = np.empty((n_draws, 4))
        for t in range(n_draws):
            step_difficulty(state, data, resolved, rng)
            draws[t] = state.mu
        mc_se = np.sqrt(v / n_draws)
        assert (np.abs(draws.mean(axis=0) - expected_mean) <= 3.0 * mc_se).all()

    def test_covariance_step_matches_inverse_gamma_oracle(self):
        # K = 1 reduction: IW(scale, df) is InvGamma(df/2, scale/2)
        truth, data = generate_synthetic(SynthConfig(Q=5, N=6, K=1, seed=16))
        hyper = SpikeSlabHyperparams()
        state, rng = make_state(data, 1, 17)
        resolved = _resolve(hyper, 1, data)
        scale = float(resolved.v0[0, 0] + (state.C @ state.C.T).item())
        df = data.N + resolved.h
        draws = np.empty(10_000)
        for t in range(10_000):
            step_covariance(state, resolved, rng)
            draws[t] = state.V[0, 0]
        oracle_rng = np.random.default_rng(18)
        # jitter shifts the scale: reproduce it exactly
        jittered = scale * (1.0 + 1e-10)
        oracle = (jittered / 2.0) / oracle_rng.gamma(df / 2.0, 1.0, size=10_000)
        assert stats.ks_2samp(draws, oracle).pvalue > 0.01


class TestExchangeability:
    def test_concept_relabel_commutes_with_weight_steps(self):
        truth, data = generate_synthetic(SynthConfig(Q=7, N=6, K=3, p_obs=0.9, seed=19))
        hyper = SpikeSlabHyperparams()
        K = 3
        state_a, rng = make_state(data, K, 20)
        step_slack(state_a, data, rng)
        resolved = _resolve(hyper, K, data)

        perm = np.array([2, 0, 1])  # new position i holds old concept perm[i]
        inv = np.argsort(perm)
        state_b = GibbsState(
            Z=state_a.Z.copy(),
            W=state_a.W[:, perm].copy(),
            C=state_a.C[perm, :].copy(),
            mu=state_a.mu.copy(),
            V=state_a.V[np.ix_(perm, perm)].copy(),
            lam=state_a.lam[perm].copy(),
            r=state_a.r[perm].copy(),
            activity=state_a.activity[:, perm].copy(),
        )

        seeds = [101, 202, 303]
        rngs_a = [np.random.default_rng(s) for s in seeds]
        rngs_b = [np.random.default_rng(s) for s in seeds]
        order_a = list(range(K))
        order_b = [int(inv[k]) for k in order_a]

        step_weights(state_a, data, None, order=order_a, rngs=rngs_a)
        step_weights(state_b, data, None, order=order_b, rngs=rngs_b)
        np.testing.assert_allclose(state_b.W, state_a.W[:, perm], atol=1e-12)
        np.testing.assert_allclose(state_b.activity, state_a.activity[:, perm],
                                   atol=1e-12)

        rngs_a = [np.random.default_rng(s + 7) for s in seeds]
        rngs_b = [np.random.default_rng(s + 7) for s in seeds]
        step_rates(state_a, resolved, None, order=order_a, rngs=rngs_a)
        step_rates(state_b, resolved, None, order=order_b, rngs=rngs_b)
        np.testing.assert_allclose(state_b.lam, state_a.lam[perm], atol=1e-12)

        rngs_a = [np.random.default_rng(s + 11) for s in seeds]
        rngs_b = [np.random.default_rng(s + 11) for s in seeds]
        step_inclusion(state_a, resolved, None, order=order_a, rngs=rngs_a)
        step_inclusion(state_b, resolved, None, order=order_b, rngs=rngs_b)
        np.testing.assert_allclose(state_b.r, state_a.r[perm], atol=1e-12)


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


# Posterior summaries of a 20 + 20 sweep chain: (sum, flat entries 0 and 7,
# last entry) of each field.  A change to the arithmetic or the RNG order of
# any step moves them.
PINNED_CHAINS = {
    0.7: {
        "w_mean": (23.257701710951324, 0.08685448193493447, 0.1585998681176619,
                   0.16275910939604227),
        "c_mean": (6.012044032461558, -0.1552817301075457, 0.11176535224364752,
                   -0.10428451184641707),
        "mu_mean": (-1.1758224562230137, -0.44963781561726057, 0.2687966639825762,
                    0.8283258736469614),
        "activity": (9.021685451049626, 0.2674294487615436, 0.257793746714429,
                     0.2248332383420973),
    },
    1.0: {
        "w_mean": (40.36811238999932, 1.7409467684894007, 0.002758356437758619, 0.0),
        "c_mean": (12.24000605609972, -0.16976967026282797, -0.5671125031868691,
                   0.13142688956927867),
        "mu_mean": (-1.4974541174033846, -0.4153091496246567, 0.33766620153936333,
                    1.573173746448246),
        "activity": (16.82853848897643, 0.9951021717034191, 0.16486072237019894,
                     0.02717522691855993),
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
        hyper = SpikeSlabHyperparams()
        rng = np.random.default_rng(32)
        state = init_gibbs_state(data, 3, hyper, rng)
        for _ in range(20):
            gibbs_sweep(state, data, hyper, rng)
        sums = {"W": 0.0, "C": 0.0, "mu": 0.0, "activity": 0.0}
        for _ in range(20):
            gibbs_sweep(state, data, hyper, rng)
            for name in sums:
                sums[name] = sums[name] + getattr(state, name)
        np.testing.assert_array_equal(summary.w_mean, sums["W"] / 20.0)
        np.testing.assert_array_equal(summary.c_mean, sums["C"] / 20.0)
        np.testing.assert_array_equal(summary.mu_mean, sums["mu"] / 20.0)
        np.testing.assert_array_equal(summary.activity,
                                      np.clip(sums["activity"] / 20.0, 0.0, 1.0))


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

"""Link-function values, stability in the tails, and hazard slope bounds."""

import math
import tracemalloc
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from gradefactor.links import (
    LinkKind,
    hazard,
    inv_logit,
    inv_probit,
    log_inv_link,
    log_inv_logit,
    log_inv_probit,
    logit_hazard,
    probit_hazard,
)
from gradefactor.model import FactorModel, ResponseMatrix, log_likelihood


def ulps(a, b):
    """Distance in units in the last place between same-sign doubles."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a.view(np.int64) - b.view(np.int64))


def normal_pdf(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def mills_ratio_series(a, terms=6):
    """Asymptotic Mills ratio Phi(-a)*sqrt(2pi)*exp(a^2/2) ~ (1/a)(1 - 1/a^2 + 3/a^4 - ...)."""
    total, coef = 0.0, 1.0
    for n in range(terms):
        total += coef / a ** (2 * n)
        coef *= -(2 * n + 1)
    return total / a


def log_phi_tail_oracle(z, terms=6):
    """log Phi(z) for z << 0 from the asymptotic erfc series."""
    a = -z
    return -0.5 * a * a - math.log(math.sqrt(2.0 * math.pi)) + math.log(
        mills_ratio_series(a, terms)
    )


class TestInvProbit:
    def test_zero_maps_to_half(self):
        assert inv_probit(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_95th_percentile_matches_quadrature(self):
        # independent oracle: integrate the normal PDF directly
        x = 1.6448536
        expected, _ = integrate.quad(normal_pdf, -40.0, x)
        assert expected == pytest.approx(0.95, abs=1e-6)
        assert inv_probit(x) == pytest.approx(expected, abs=1e-9)

    def test_deep_tail_log_matches_series_oracle(self):
        lp = float(log_inv_probit(-38.0))
        assert math.isfinite(lp)
        assert lp == pytest.approx(log_phi_tail_oracle(-38.0), rel=1e-9)

    def test_symmetry(self):
        x = np.random.default_rng(0).uniform(-8, 8, 4000)
        np.testing.assert_allclose(inv_probit(-x), 1.0 - inv_probit(x), atol=1e-12)

    def test_monotone(self):
        x = np.linspace(-10, 10, 5001)
        assert (np.diff(inv_probit(x)) >= 0).all()

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            inv_probit(float("nan"))


class TestInvLogit:
    def test_center_and_ln3(self):
        assert inv_logit(0.0) == pytest.approx(0.5, abs=1e-16)
        assert inv_logit(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_tail_matches_extended_precision(self):
        # oracle: 1 / (1 + e^10) evaluated with 50-digit decimals
        getcontext().prec = 50
        expected = float(Decimal(1) / (Decimal(1) + Decimal(10).exp()))
        assert inv_logit(-10.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(4.539786870e-5, abs=1e-12)

    def test_symmetry(self):
        x = np.random.default_rng(1).uniform(-30, 30, 4000)
        np.testing.assert_allclose(inv_logit(-x), 1.0 - inv_logit(x), atol=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            inv_logit(float("nan"))


def entry_log_lik(y, z, link):
    """Log-likelihood of one response y at slack z, through the package's
    likelihood of a 1 x 1 response matrix."""
    model = FactorModel(np.zeros((1, 1)), np.zeros((1, 1)), [z], link)
    return log_likelihood(model, ResponseMatrix([[y]]))


class TestLogLikEntry:
    @pytest.mark.parametrize("link", [LinkKind.PROBIT, LinkKind.LOGIT])
    def test_centered_entries(self, link):
        assert entry_log_lik(1, 0.0, link) == pytest.approx(math.log(0.5), abs=1e-12)
        assert entry_log_lik(0, 0.0, link) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_deep_tail_probit(self):
        value = entry_log_lik(1, -30.0, LinkKind.PROBIT)
        assert math.isfinite(value)
        two_term = -0.5 * 30.0**2 - math.log(30.0 * math.sqrt(2.0 * math.pi))
        assert value == pytest.approx(two_term, rel=1e-4)

    @pytest.mark.parametrize("link", [LinkKind.PROBIT, LinkKind.LOGIT])
    def test_partition_sum(self, link):
        z = np.linspace(-8, 8, 801)
        total = np.exp([entry_log_lik(1, zi, link) for zi in z]) + np.exp(
            [entry_log_lik(0, zi, link) for zi in z]
        )
        np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_bad_response_rejected(self):
        with pytest.raises(ValueError):
            entry_log_lik(2, 0.0, LinkKind.PROBIT)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            entry_log_lik(1, float("nan"), LinkKind.LOGIT)


def probit_hazard_oracle(x):
    """N(x)/Phi(x) at 40 significant digits, rounded to the nearest double."""
    with mpmath.workdps(40):
        t = mpmath.mpf(float(x))
        return float(mpmath.npdf(t) / mpmath.ncdf(t))


class TestProbitHazard:
    def test_within_128_ulp_of_exact_on_the_fitting_range(self):
        # exp over ndtr from the cut at -8 up; the worst cells are large
        # positive x, where the erfcx form is off by as much
        x = np.linspace(-8.0, 8.0, 6401)
        exact = np.array([probit_hazard_oracle(v) for v in x])
        err = ulps(probit_hazard(x), exact)
        assert err.max() <= 128
        assert np.median(err) <= 4

    def test_below_the_cut_within_4_ulp_of_exact(self):
        x = np.linspace(-40.0, -8.0, 321)
        exact = np.array([probit_hazard_oracle(v) for v in x])
        assert ulps(probit_hazard(x), exact).max() <= 4

    def test_tail_cells_survive_a_nan(self):
        # a NaN cell stays NaN and does not hide the others from the cut
        x = np.array([-1e3, np.nan, -20.0, 0.0])
        got = probit_hazard(x)
        assert np.isnan(got[1])
        np.testing.assert_array_equal(got[[0, 2, 3]], probit_hazard(x[[0, 2, 3]]))
        assert got[0] == pytest.approx(1e3, rel=1e-6)

    def test_value_at_zero(self):
        assert probit_hazard(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        assert isinstance(probit_hazard(0.0), float)  # scalar in, scalar out

    def test_far_tail_matches_mills_oracle(self):
        x = -20.0
        oracle = 1.0 / mills_ratio_series(20.0, terms=8)
        assert float(probit_hazard(x)) == pytest.approx(oracle, rel=1e-8)
        assert float(probit_hazard(x)) == pytest.approx(20.05, abs=0.01)

    def test_positive_and_decreasing(self):
        x = np.linspace(-12, 12, 2001)
        g = probit_hazard(x)
        assert (g > 0).all()
        assert (np.diff(g) < 0).all()

    def test_slope_bounds(self):
        # finite-difference derivative of the hazard stays in [-1, 0]
        x = np.linspace(-10, 10, 2001)
        h = 1e-4
        slope = (probit_hazard(x + h) - probit_hazard(x - h)) / (2 * h)
        assert slope.min() >= -1.0 - 1e-6
        assert slope.max() <= 1e-8

    def test_contraction_on_sampled_pairs(self):
        rng = np.random.default_rng(2)
        y, z = rng.uniform(-15, 15, (2, 2000))
        lhs = np.abs(probit_hazard(y) - probit_hazard(z))
        assert (lhs <= np.abs(y - z) + 1e-12).all()


class TestLogitHazard:
    def test_slope_bounds(self):
        x = np.linspace(-12, 12, 2001)
        h = 1e-4
        slope = (logit_hazard(x + h) - logit_hazard(x - h)) / (2 * h)
        assert slope.min() >= -0.25 - 1e-8
        assert slope.max() <= 1e-10

    def test_quarter_contraction(self):
        rng = np.random.default_rng(3)
        y, z = rng.uniform(-20, 20, (2, 2000))
        lhs = np.abs(logit_hazard(y) - logit_hazard(z))
        assert (lhs <= 0.25 * np.abs(y - z) + 1e-12).all()


class TestLogitKernelsAgainstScipy:
    # numpy's vectorized exp and log1p in place of scipy's scalar loops
    X = np.linspace(-1000.0, 1000.0, 400_001)
    EXACT = np.linspace(-1000.0, 1000.0, 2001)

    def test_hazard_matches_expit(self):
        # both compute 1 / (1 + e^x), scipy with libm's exp; numpy's SIMD
        # exp may differ from it by 1 ulp, which rounding 1 + e^x can
        # turn into 3 (seen near x = 37)
        assert ulps(logit_hazard(self.X), special.expit(-self.X)).max() <= 3

    def test_hazard_within_two_ulp_of_exact(self):
        getcontext().prec = 60
        exact = np.array([float(1 / (1 + Decimal(float(x)).exp())) for x in self.EXACT])
        got = logit_hazard(self.EXACT)
        normal = exact >= np.finfo(float).tiny
        assert ulps(got[normal], exact[normal]).max() <= 2
        # past x = 709.78 e^x overflows, and the ratio is 0 as in scipy
        np.testing.assert_array_equal(got[self.EXACT > 710], 0.0)

    def test_log_inv_logit_matches_log_expit(self):
        assert ulps(log_inv_logit(self.X), special.log_expit(self.X)).max() <= 2

    def test_log_inv_logit_within_two_ulp_of_exact(self):
        exact = []
        for x in self.EXACT:
            # enough digits that 1 + e^-x keeps e^-x for x up to 1000
            getcontext().prec = 60 + int(max(x, 0.0) / 2.3)
            exact.append(float(-(1 + (-Decimal(float(x))).exp()).ln()))
        assert ulps(log_inv_logit(self.EXACT), exact).max() <= 2

    @pytest.mark.parametrize("kernel", [logit_hazard, log_inv_logit])
    def test_in_place_equals_out_of_place(self, kernel):
        expected = kernel(self.X)
        x = self.X.copy()
        assert kernel(x, out=x) is x
        assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kernel", [logit_hazard, log_inv_logit])
    def test_scalar_in_scalar_out(self, kernel):
        assert np.ndim(kernel(800.0)) == 0
        assert kernel(0.0) == pytest.approx(0.5 if kernel is logit_hazard else -math.log(2.0))

    def test_log_inv_logit_rejects_nan(self):
        with pytest.raises(ValueError):
            log_inv_logit(np.array([0.0, np.nan]))


class TestInPlaceKernels:
    # the solver calls the kernels with out=, often aliasing the input
    GRID = np.concatenate([[-1e3, -40.0, 0.0, 40.0], np.linspace(-40.0, 40.0, 321)])

    @pytest.mark.parametrize("link", list(LinkKind))
    @pytest.mark.parametrize("kernel", [hazard, log_inv_link])
    def test_out_bitwise_equals_allocating_call(self, kernel, link):
        expected = kernel(self.GRID, link)
        out = np.empty_like(self.GRID)
        assert kernel(self.GRID, link, out=out) is out
        assert out.tobytes() == expected.tobytes()
        x = self.GRID.copy()
        assert kernel(x, link, out=x) is x
        assert x.tobytes() == expected.tobytes()

    def test_probit_hazard_below_the_cut_is_the_erfcx_formula(self):
        # cells below the cut at -8 keep the erfcx form bitwise, which stays
        # accurate where N and Phi underflow (-x / sqrt(2) negates first;
        # the kernel divides by -sqrt(2)); the GRID raises no warning
        # (module filter)
        got = hazard(self.GRID, LinkKind.PROBIT)
        low = self.GRID < -8.0
        formula = math.sqrt(2.0 / math.pi) / special.erfcx(-self.GRID[low] / math.sqrt(2.0))
        assert low.sum() == 2 + 128
        assert got[low].tobytes() == formula.tobytes()
        assert np.isfinite(got).all() and (got >= 0).all()

    def test_probit_hazard_makes_one_temporary(self):
        # numpy reports its array allocations to tracemalloc
        x = np.random.default_rng(4).normal(0.0, 3.0, 100_000)
        x[7] = -50.0  # a cell below the cut takes the erfcx path too
        tracemalloc.start()
        try:
            probit_hazard(x, out=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * x.nbytes

    @pytest.mark.parametrize("link", list(LinkKind))
    def test_nan_rejected_with_out(self, link):
        x = np.array([0.0, np.nan, 1.0])
        with pytest.raises(ValueError):
            log_inv_link(x, link, out=np.empty(3))
        with pytest.raises(ValueError):
            log_inv_link(x, link, out=x)

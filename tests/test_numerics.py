import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchan import numerics
from synchan.numerics import (
    _binomial_log_pmf_vec,
    _log2_binomial,
    _log_factorials,
    awgn_expectation,
    binary_entropy,
    block_entropy,
)

from helpers import exact_block_entropy, run_python


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        # 1 - H_b(0.10) = 0.5310 in the reference tables
        assert binary_entropy(0.10) == pytest.approx(0.4690, abs=5e-5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-9)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0, -1e9])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def log2_choose(n, k):
    # at p = 1/2 the pmf is C(n, k) 2^-n
    return _binomial_log_pmf_vec(n, 0.5)[k] + n


class TestLogBinomial:
    def test_trivial(self):
        assert log2_choose(1000, 0) == pytest.approx(0.0, abs=1e-12)
        assert log2_choose(10, 5) == pytest.approx(math.log2(252), rel=1e-13)

    @pytest.mark.parametrize("n,k", [(1000, 500), (2000, 137), (1500, 750), (777, 33)])
    def test_against_big_integer_oracle(self, n, k):
        exact = math.log2(math.comb(n, k))
        assert log2_choose(n, k) == pytest.approx(exact, rel=1e-12)
        assert _log2_binomial(_log_factorials(n), n, k) == pytest.approx(exact, rel=1e-12)


class TestLogFactorials:
    def test_against_scipy_gammaln(self):
        from scipy.special import gammaln

        k = np.arange(2, 20001)
        assert np.max(np.abs(_log_factorials(20000)[2:] / gammaln(k + 1.0) - 1.0)) <= 1e-15

    def test_values_do_not_depend_on_request_order(self):
        # each order runs in a fresh interpreter, so the table starts empty
        script = (
            "import sys\n"
            "from synchan.numerics import _log_factorials\n"
            "for n in map(int, sys.argv[1:]):\n"
            "    table = _log_factorials(n)\n"
            "print(table[:11].tobytes().hex(), _log_factorials(20000).tobytes().hex())\n"
        )
        small_first = run_python("-c", script, "10", "20000")
        large_first = run_python("-c", script, "20000", "10")
        assert small_first.returncode == large_first.returncode == 0, small_first.stderr
        assert small_first.stdout == large_first.stdout


class TestBinomialLogPmf:
    def test_direct_small_case(self):
        assert _binomial_log_pmf_vec(2, 0.5)[1] == pytest.approx(-1.0, abs=1e-14)

    def test_against_rational_oracle(self):
        exact = Fraction(math.comb(1000, 10)) * Fraction(1, 100) ** 10 * Fraction(99, 100) ** 990
        reference = math.log2(exact.numerator) - math.log2(exact.denominator)
        assert _binomial_log_pmf_vec(1000, 0.01)[10] == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    @pytest.mark.parametrize("p", [0.037, 0.5, 0.91])
    def test_normalization(self, n, p):
        total = math.fsum(np.exp2(_binomial_log_pmf_vec(n, p)))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBlockEntropy:
    def test_single_trial_is_binary_entropy(self):
        for p in (0.0, 0.1, 0.5, 0.93):
            assert block_entropy(1, p) == pytest.approx(binary_entropy(p), abs=1e-15)

    def test_deterministic_count(self):
        assert block_entropy(50, 0.0) == 0.0
        assert block_entropy(50, 1.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 32, 64])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.9])
    def test_against_high_precision_oracle(self, n, p):
        assert block_entropy(n, p) == pytest.approx(exact_block_entropy(n, p), abs=1e-12)

    def test_upper_bounds(self):
        for n in (1, 4, 16, 200, 1000):
            for p in (0.01, 0.2, 0.5):
                h = block_entropy(n, p)
                assert h <= n * binary_entropy(p) + 1e-12
                assert h <= math.log2(n + 1) + 1e-12


class TestAwgnExpectation:
    def test_rule_literals_are_leggauss_bit_for_bit(self):
        # the literals stand in for np.polynomial.legendre.leggauss(20), which no command imports
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert numerics._GL_NODES.tobytes() == nodes.tobytes()
        assert numerics._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_noiseless_limit(self):
        assert awgn_expectation(0.05) < 1e-12

    def test_high_noise_limit(self):
        assert awgn_expectation(1e4) > 0.999

    def test_bounded_and_monotone(self):
        grid = [0.2, 0.3, 0.5, 0.8, 1.0, 1.6, 2.5, 5.0, 10.0, 100.0]
        values = [awgn_expectation(s) for s in grid]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_against_monte_carlo(self):
        # independent Monte-Carlo oracle for E[log2(1 + exp(-2u/s^2))], u ~ N(1, s^2)
        sigma = 1.0
        gen = np.random.default_rng(1234)
        u = 1.0 + sigma * gen.standard_normal(10_000_000)
        samples = np.logaddexp(0.0, -2.0 * u / sigma**2) / math.log(2.0)
        estimate = float(samples.mean())
        stderr = float(samples.std(ddof=1) / math.sqrt(samples.size))
        assert abs(awgn_expectation(sigma) - estimate) <= 3.0 * stderr

    @pytest.mark.parametrize("sigma", [0.20639685545794598, 0.25, 0.5, 0.8])
    def test_against_mpmath(self, sigma):
        # 30-digit tanh-sinh quadrature, split at the kink y = 0 and around the mode
        with mpmath.workdps(30):
            s = mpmath.mpf(sigma)

            def integrand(y):
                return mpmath.npdf(y, 1, s) * mpmath.log(1 + mpmath.exp(-2 * y / s**2), 2)

            reference = mpmath.quad(integrand, [-mpmath.inf, 1 - 20 * s, 0, 1, 1 + 20 * s, mpmath.inf])
        assert abs(awgn_expectation(sigma) - float(reference)) <= 1e-12

    @pytest.mark.parametrize(
        "sigma", [5e-324, 1e-200, 1e10, 1e50, 1e150, 1.4e154, 1e200, sys.float_info.max]
    )
    def test_extreme_sigma_stays_in_unit_interval(self, sigma):
        # quadrature over 1 +- 40 sigma reads 1.0000000000000002 at sigma = 1e10,
        # and sigma**2 overflows a float from about 1.34e154
        assert 0.0 <= awgn_expectation(sigma) <= 1.0

    def test_against_scipy_quad(self):
        # adaptive Gauss-Kronrod over y in 1 +- 40 sigma, split at the kink y = 0
        # and the mode y = 1, as an oracle independent of the fixed rule
        from scipy.integrate import quad

        def reference(sigma):
            def integrand(y):
                return math.exp(-0.5 * ((y - 1.0) / sigma) ** 2) * np.logaddexp(0.0, -2.0 * y / sigma**2)

            lo, hi = 1.0 - 40.0 * sigma, 1.0 + 40.0 * sigma
            breaks = [y for y in (0.0, 1.0) if lo < y < hi]
            value, _ = quad(integrand, lo, hi, points=breaks, epsabs=0.0, epsrel=1e-13, limit=200)
            return value / (sigma * math.sqrt(2.0 * math.pi) * math.log(2.0))

        for sigma in np.logspace(-2, 4, 501):
            expected = reference(sigma)
            if expected < 1e-290:
                assert abs(awgn_expectation(sigma) - expected) <= 1e-300
            else:
                assert abs(awgn_expectation(sigma) / expected - 1.0) <= 1e-12, sigma

    @pytest.mark.parametrize("sigma", [1.0001e4, 3e4, 1e6])
    def test_low_snr_branch_against_mpmath(self, sigma):
        # in z = (y - 1) / sigma, standard normal, split at the kink z = -1/sigma
        with mpmath.workdps(40):
            s = mpmath.mpf(sigma)

            def integrand(z):
                return mpmath.npdf(z) * mpmath.log(1 + mpmath.exp(-2 * (1 + s * z) / s**2), 2)

            reference = mpmath.quad(integrand, [-mpmath.inf, -1 / s, 0, mpmath.inf])
        assert abs(awgn_expectation(sigma) - float(reference)) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            awgn_expectation(0.0)
        with pytest.raises(ValueError):
            awgn_expectation(-1.0)

    def test_non_finite_sigma_is_rejected_promptly(self):
        # in a child process, so that a hang fails the test instead of stalling the suite
        script = (
            "from synchan.numerics import awgn_expectation\n"
            "for sigma in (float('inf'), float('nan')):\n"
            "    try:\n"
            "        awgn_expectation(sigma)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted sigma={sigma}')\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr

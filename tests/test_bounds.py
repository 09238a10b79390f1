import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from synchan import bounds
from synchan.bounds import (
    ChannelParams,
    capacity_expansion_constant,
    deletion_awgn_bound,
    deletion_bound,
    deletion_bound_small_p,
    deletion_small_p_coefficients,
    deletion_substitution_bound,
    evaluate_bound,
    gallager_bound,
    insertion_small_p_coefficients,
    optimize_block_length,
    random_insertion_bound,
    random_insertion_bound_small_p,
)
from synchan.combinatorics import (
    expected_run_count,
    mean_pattern_log_weight,
    single_insertion_log_weight,
    single_insertion_log_weight_exact,
)
from synchan.numerics import awgn_expectation, binary_entropy, block_entropy
from synchan.oracle import (
    deletion_output_multiplicities,
    exact_deletion_substitution_entropies,
    exact_insertion_entropies,
    insertion_output_multiplicities,
)
from synchan.reference_tables import OPTIMIZE_N_MAX, table2_diffs

from helpers import (
    brute_mean_pattern_log_weight,
    capacity_expansion_deletion,
    mp_deletion_small_p_coefficients,
    mp_pattern_gain,
    mp_pattern_log_weight,
    scalar_insertion_rate,
    scalar_single_insertion_sum,
)


class TestChannelParams:
    def test_constructors_zero_other_fields(self):
        assert ChannelParams.deletion(0.2) == ChannelParams(p_d=0.2)
        assert ChannelParams.insertion(0.2) == ChannelParams(p_i=0.2)
        assert ChannelParams.deletion_awgn(0.1, 2.0) == ChannelParams(p_d=0.1, sigma=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(p_d=1.2)
        with pytest.raises(ValueError):
            ChannelParams(p_d=0.6, p_i=0.6)
        with pytest.raises(ValueError):
            ChannelParams(sigma=-0.1)

    def test_deletion_and_insertion_mass_as_the_bounds_evaluate_it(self):
        # 1.0 + 5.27e-116 rounds to 1.0, but 1 - p_d - p_i is below 0
        with pytest.raises(ValueError, match=r"got p_d=1\.0 and p_i=5\.27e-116"):
            ChannelParams(p_d=1.0, p_i=5.27e-116)
        with pytest.raises(ValueError, match="p_d \\+ p_i must not exceed 1"):
            gallager_bound(ChannelParams(p_d=1.0, p_i=1e-200))
        # a real sum of at most 1 passes however it rounds
        for p_d, p_i in [(0.7, 0.3), (1.0, 0.0), (0.1, 0.9), (1e-200, 1.0)]:
            assert math.isfinite(gallager_bound(ChannelParams(p_d=p_d, p_i=p_i)).rate)

    def test_a_probability_is_checked_before_the_block_length(self):
        with pytest.raises(ValueError, match="p_d must lie in"):
            deletion_bound(0, 2.0)
        with pytest.raises(ValueError, match="p_i must lie in"):
            random_insertion_bound_small_p(1, -0.5)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError):
            ChannelParams(sigma=sigma)
        with pytest.raises(ValueError):
            ChannelParams.deletion_awgn(0.1, sigma)


class TestGallagerBound:
    def test_perfect_channel(self):
        assert gallager_bound(ChannelParams()).rate == 1.0

    def test_insertion_only_reference(self):
        rate = gallager_bound(ChannelParams.insertion(0.10)).rate
        assert rate == pytest.approx(0.5310, abs=5e-5)

    def test_deletion_substitution_reference(self):
        rate = gallager_bound(ChannelParams.deletion_substitution(0.05, 0.03)).rate
        assert rate == pytest.approx(0.5289, abs=5e-5)


class TestDeletionSubstitutionBound:
    def test_reference_cells(self):
        assert deletion_substitution_bound(1000, 0.01, 0.01).rate == pytest.approx(0.8419, abs=5e-4)
        assert deletion_substitution_bound(100, 0.1, 0.1).rate == pytest.approx(0.1222, abs=5e-4)

    def test_error_free_channel(self):
        assert deletion_substitution_bound(37, 0.0, 0.0).rate == 1.0

    def test_improvement_over_gallager(self):
        # the gain over the gallager value is the pattern term minus p_d,
        # independent of p_e
        for n in (10, 100):
            for p_d in (1e-4, 0.01, 0.1, 0.3, 0.5):
                for p_e in (0.0, 0.05, 0.2):
                    ours = deletion_substitution_bound(n, p_d, p_e)
                    base = gallager_bound(ChannelParams.deletion_substitution(p_d, p_e)).rate
                    gain = ours.components["pattern_gain"] - p_d
                    assert ours.rate - base == pytest.approx(gain, abs=1e-12)

    def test_improvement_sign(self):
        # positive throughout the tabulated regime; the often-quoted claim
        # that it is always positive fails for large deletion probabilities
        for n in (100, 1000):
            for p_d in (1e-4, 1e-3, 0.01, 0.05, 0.1):
                gain = deletion_substitution_bound(n, p_d, 0.0).components["pattern_gain"] - p_d
                assert gain > 0.0
        flipped = deletion_substitution_bound(1000, 0.3, 0.0).components["pattern_gain"] - 0.3
        assert flipped < 0.0

    def test_monotone_in_substitution_probability(self):
        rates = [deletion_substitution_bound(50, 0.05, p_e).rate for p_e in np.linspace(0, 0.5, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


class TestPatternGainReference:
    """The deletion-family pattern gain against a 40-digit evaluation of its run-length form.

    The reference sums (1/n) sum_l E_l(n) g_l(p_d) with g_l(p) = E[log2 C(l, K)],
    K ~ Bin(l, p); it never forms a W_j(n).  The kernel's tolerance, 2e-12, was
    fixed before this test ran, above its largest error measured before (8.2e-13).
    """

    P_D = (1e-4, 0.01, 0.1, 0.3)

    @pytest.mark.parametrize("n", [10, 30])
    def test_reference_equals_the_hypergeometric_weight_sum(self, n):
        weights = [mp_pattern_log_weight(n, j) for j in range(n + 1)]
        for p in self.P_D:
            terms = [math.comb(n, j) * p**j * (1 - p) ** (n - j) * w for j, w in enumerate(weights)]
            assert float(mp_pattern_gain(n, p)) == pytest.approx(math.fsum(terms) / n, abs=2e-15)

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    @pytest.mark.parametrize("p_d", P_D)
    def test_kernel_at_the_paper_block_lengths(self, n, p_d):
        assert abs(bounds._pattern_gain(n, p_d) - float(mp_pattern_gain(n, p_d))) <= 2e-12


class TestDeletionBound:
    def test_reference_loss(self):
        # the reference loss 1.1302e-2 is quoted at p_e = 1e-5; the deletion-only
        # value sits below it by exactly the substitution penalty (about 1.6%
        # here, so the p_e term is not negligible at the 1% level)
        with_subst = deletion_substitution_bound(1000, 0.001, 1e-5)
        assert 1.0 - with_subst.rate == pytest.approx(1.1302e-2, rel=0.01)
        deletion_only = deletion_bound(1000, 0.001)
        penalty = with_subst.components["substitution_penalty"]
        assert deletion_only.rate == pytest.approx(with_subst.rate - penalty, abs=1e-15)
        assert 1.0 - deletion_only.rate == pytest.approx(1.1122e-2, rel=0.01)

    def test_no_deletions(self):
        assert deletion_bound(123, 0.0).rate == 1.0

    def test_small_p_relaxation_stays_below(self):
        for n in (4, 10, 50):
            for p in np.linspace(0.0, 0.2, 41):
                assert (
                    deletion_bound_small_p(n, float(p)).rate
                    <= deletion_bound(n, float(p)).rate + 1e-12
                )

    def test_small_p_polynomial_against_enumerated_weights(self):
        w1 = brute_mean_pattern_log_weight(10, 1)
        w2 = brute_mean_pattern_log_weight(10, 2)
        p = 0.01
        direct = (
            1.0
            - binary_entropy(p)
            + p * (w1 - 1.0)
            + p**2 * 4.5 * (w2 - 2 * w1)
            + p**3 * math.comb(9, 2) * (w1 - w2)
            - p**4 * math.comb(9, 3) * w1
        )
        assert deletion_bound_small_p(10, p).rate == pytest.approx(direct, abs=1e-12)
        c = deletion_small_p_coefficients(10)
        assert c[0] == pytest.approx(w1 - 1.0, abs=1e-10)

    def test_small_p_coefficients_against_a_50_digit_reference(self):
        # formed from W_1 and W_2, c2 = (n-1)/2 (W_2 - 2 W_1) loses its digits to cancellation,
        # 35% of them at n = 10^7; c1 = W_1 - 1 passes through 0, so it is held to an absolute bound
        for n in [*range(4, 1200), 10**4, 10**6, 10**7, 10**9, 10**15, 10**18, 2**60, 2**250]:
            c1, *rest = deletion_small_p_coefficients(n)
            ref1, *ref_rest = mp_deletion_small_p_coefficients(n)
            assert abs(c1 - ref1) <= 5e-16, n
            for got, want in zip(rest, ref_rest):
                assert abs(got - want) <= 5e-16 * abs(want), n

    def test_small_p_requires_n_of_4(self):
        with pytest.raises(ValueError):
            deletion_bound_small_p(3, 0.01)


class TestDeletionAwgnBound:
    def test_noiseless_reduces_to_deletion(self):
        assert deletion_awgn_bound(60, 0.05, 0.0).rate == deletion_bound(60, 0.05).rate

    def test_deletion_free_is_biawgn_capacity(self):
        for sigma in (0.25, 0.5, 1.0, 2.0):
            rate = deletion_awgn_bound(100, 0.0, sigma).rate
            assert abs(rate - (1.0 - awgn_expectation(sigma))) <= 1e-12

    def test_exact_component_decomposition(self):
        # the AWGN penalty is exactly (1 - p_d) times the expectation term
        result = deletion_awgn_bound(50, 0.1, 0.8)
        assert result.components["awgn_penalty"] == -(1 - 0.1) * awgn_expectation(0.8)
        assert result.rate == pytest.approx(
            deletion_bound(50, 0.1).rate - (1 - 0.1) * awgn_expectation(0.8), abs=1e-15
        )

    def test_monotone_in_noise_and_deletions(self):
        sig_rates = [deletion_awgn_bound(50, 0.05, s).rate for s in (0.1, 0.3, 0.6, 1.0, 2.0)]
        assert all(a > b for a, b in zip(sig_rates, sig_rates[1:]))
        pd_rates = [deletion_awgn_bound(50, p, 0.5).rate for p in (0.0, 0.05, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(pd_rates, pd_rates[1:]))


class TestRandomInsertionBound:
    def test_reference_cells(self):
        assert random_insertion_bound(5, 0.05).rate == pytest.approx(0.7442, abs=5e-4)
        assert random_insertion_bound(4, 0.10).rate == pytest.approx(0.5702, abs=5e-4)

    def test_tiny_probability_loss(self):
        loss = 1.0 - random_insertion_bound(121, 1e-6).rate
        assert loss == pytest.approx(2.007e-5, rel=0.01)

    def test_crossover_against_gallager(self):
        ours = random_insertion_bound(3, 0.25).rate
        base = gallager_bound(ChannelParams.insertion(0.25)).rate
        assert ours == pytest.approx(0.1853, abs=5e-4)
        assert base == pytest.approx(0.1887, abs=5e-4)
        assert ours < base

    def test_error_free_channel(self):
        assert random_insertion_bound(9, 0.0).rate == 1.0

    def test_requires_two_bits(self):
        with pytest.raises(ValueError):
            random_insertion_bound(1, 0.1)

    def test_grid_equals_one_point_and_scalar_evaluations(self):
        p_is = [0.0, 5e-324, 1e-300, 6.3e-19, 1e-6, 0.1, 0.5, 1.0 - 1e-12, 1.0]
        ns = [2, 3, 4, 9, 100, 512, 1023, 4096, 10**6]
        methods = ["random_insertion", "random_insertion_exact"]
        grids = bounds._grid_rates(methods, [0.0], [0.0], p_is, [0.0], ns)
        for i, p_i in enumerate(p_is):
            for j, n in enumerate(ns):
                printed = scalar_single_insertion_sum(n, lambda l: n + 1 - l)
                exact = scalar_single_insertion_sum(n, lambda l: (n - l - 1) / 2.0)
                for method, grid, weight in zip(methods, grids, (printed, exact)):
                    expected = scalar_insertion_rate(n, p_i, weight).hex()
                    assert grid[0, 0, i, 0, j].hex() == expected, (method, p_i, n)
                    assert evaluate_bound(method, ChannelParams.insertion(p_i), n).rate.hex() == expected
                assert random_insertion_bound(n, p_i).rate.hex() == grids[0][0, 0, i, 0, j].hex()

    @pytest.mark.parametrize("n", [1023, 1024, 4096])
    @pytest.mark.parametrize("bound", [random_insertion_bound, random_insertion_bound_small_p])
    def test_finite_past_n_1022(self, bound, n):
        # 2.0 ** (n + 1) overflows a float from n = 1023
        for p_i in (0.0, 0.001):
            assert math.isfinite(bound(n, p_i).rate)


    @pytest.mark.parametrize("method", ["random_insertion", "random_insertion_exact"])
    def test_finite_up_to_the_largest_block_length(self, method):
        for p_i in (0.0, 5e-324, 1e-300, 0.1, 1.0):
            assert math.isfinite(evaluate_bound(method, ChannelParams.insertion(p_i), 2**1000).rate)
        for n in (2**1000 + 1, 10**400):
            with pytest.raises(ValueError, match="block length must be <= 2\\^1000"):
                evaluate_bound(method, ChannelParams.insertion(0.1), n)


class TestInsertionGallagerCrossover:
    """Where the insertion bound, at its best n = 3..512, stops beating Gallager's rate."""

    @staticmethod
    def _gains(method, p_is):
        ours, gallager = bounds._grid_rates([method, "gallager"], [0.0], [0.0], p_is, [0.0], range(3, 513))
        return ours[0, 0, :, 0].max(axis=-1) - gallager[0, 0, :, 0, 0]

    @pytest.mark.parametrize(
        "method, crossover", [("random_insertion", 0.24325946), ("random_insertion_exact", 0.00621658)]
    )
    def test_one_crossover(self, method, crossover):
        root = brentq(lambda p_i: self._gains(method, [p_i])[0], 1e-4, 0.5, xtol=1e-12)
        assert root == pytest.approx(crossover, abs=1e-6)
        # the bound helps below the crossover, and only there
        signs = np.sign(self._gains(method, np.geomspace(1e-4, 0.5, 60).tolist()))
        assert signs[0] == 1.0 and np.count_nonzero(np.diff(signs)) == 1


class TestDeletionGallagerCrossover:
    """Where the deletion-family rate at n = 10^4 stops beating Gallager's, and where it drops below 0."""

    N = 10**4

    @classmethod
    def _gain(cls, p_d):
        # pattern_gain - p_d: both rates subtract the same substitution term, so it holds at any p_e
        return deletion_bound(cls.N, p_d).rate - gallager_bound(ChannelParams.deletion(p_d)).rate

    @classmethod
    def _rate(cls, p_d):
        return deletion_bound(cls.N, p_d).rate

    @pytest.mark.parametrize("name, crossover, hi", [("_gain", 0.20945020, 0.5), ("_rate", 0.35119418, 0.99)])
    def test_one_crossover(self, name, crossover, hi):
        f = getattr(self, name)
        root = brentq(f, 1e-4, hi, xtol=1e-12)
        assert root == pytest.approx(crossover, abs=1e-6)
        # positive below the crossover, and only there
        signs = np.sign([f(p_d) for p_d in np.geomspace(1e-4, hi, 30).tolist()])
        assert signs[0] == 1.0 and np.count_nonzero(np.diff(signs)) == 1


class TestInsertionSmallP:
    def test_reference_coefficients(self):
        c1, c2, c3, c4 = insertion_small_p_coefficients(10)
        assert c1 == pytest.approx(1.1591, rel=5e-3)
        assert c2 == pytest.approx(-30.7184, rel=5e-3)
        assert c3 == pytest.approx(1.0502e2, rel=5e-3)
        assert c4 == pytest.approx(-1.3391e3, rel=5e-3)

    def test_error_free_channel(self):
        assert random_insertion_bound_small_p(12, 0.0).rate == 1.0

    def test_finite_up_to_the_largest_block_length(self):
        # the quartic coefficient is about -n^4/6, a finite float up to n = 2^250
        assert all(map(math.isfinite, insertion_small_p_coefficients(2**250)))
        for p_i in (0.0, 0.1, 1.0):
            assert math.isfinite(random_insertion_bound_small_p(2**250, p_i).rate)
        for n in (2**250 + 1, 2**1000):
            with pytest.raises(ValueError, match="block length must be <= 2\\^250"):
                insertion_small_p_coefficients(n)

    def test_stays_below_full_bound(self):
        for n in (5, 6, 10, 20, 50):
            for p in np.linspace(0.0, 0.1, 41):
                assert (
                    random_insertion_bound_small_p(n, float(p)).rate
                    <= random_insertion_bound(n, float(p)).rate + 1e-12
                )


# each block-length method with the first length its scan takes by default
_SCANNED_METHODS = {
    "deletion": 2,
    "deletion_substitution": 2,
    "deletion_awgn": 2,
    "random_insertion": 3,
    "random_insertion_exact": 3,
    "deletion_small_p": 4,
    "random_insertion_small_p": 4,
}


class TestOptimizeBlockLength:
    def test_insertion_optima(self):
        n_star, best = optimize_block_length("random_insertion", ChannelParams.insertion(0.03), 512)
        assert n_star == 5
        assert best.rate == pytest.approx(0.8276, abs=5e-4)
        n_star, _ = optimize_block_length("random_insertion", ChannelParams.insertion(0.20), 512)
        assert n_star == 3

    def test_longer_blocks_tighter_for_deletion_substitution(self):
        long_rate = deletion_substitution_bound(1000, 0.01, 0.01).rate
        short_rate = deletion_substitution_bound(100, 0.01, 0.01).rate
        assert long_rate >= short_rate
        assert long_rate == pytest.approx(0.8419, abs=5e-4)
        assert short_rate == pytest.approx(0.8418, abs=5e-4)

    def test_argmax_definition(self):
        params = ChannelParams.insertion(0.08)
        n_star, best = optimize_block_length("random_insertion", params, 64)
        for n in range(3, 65):
            assert best.rate >= random_insertion_bound(n, 0.08).rate

    def test_table2_optima_and_rates_are_the_scans(self):
        for d in table2_diffs():
            if d.column in ("optimal_n", "bound", "loss_bound"):
                params = ChannelParams.insertion(d.row[0])
                n_star, best = optimize_block_length("random_insertion", params, OPTIMIZE_N_MAX)
                expected = {"optimal_n": n_star, "bound": best.rate, "loss_bound": 1.0 - best.rate}
                assert repr(d.computed) == repr(expected[d.column]), d

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="'nonsense' is unknown"):
            optimize_block_length("nonsense", ChannelParams(), 16)

    def test_gallager_has_no_block_length(self):
        with pytest.raises(ValueError, match="'gallager' has no block length"):
            optimize_block_length("gallager", ChannelParams(), 16)

    @pytest.mark.parametrize("n_min", [2.5, 2.0, "2"])
    def test_n_min_must_be_an_integer(self, n_min):
        # n_max is in the block-length test below; there None is no default
        with pytest.raises(ValueError, match="requires an integer block length"):
            optimize_block_length("deletion", ChannelParams.deletion(0.1), 10, n_min)

    @pytest.mark.parametrize(
        "method, params, n_max, n_min",
        [
            ("deletion", ChannelParams.deletion(0.05), 40, None),
            ("deletion_substitution", ChannelParams.deletion_substitution(0.1, 0.02), 40, None),
            ("deletion_awgn", ChannelParams.deletion_awgn(0.02, 0.7), 30, 1),
            ("random_insertion", ChannelParams.insertion(0.08), 40, None),
            # n = 2 dominates the insertion scan once it is let in
            ("random_insertion", ChannelParams.insertion(0.08), 40, 2),
            ("deletion_small_p", ChannelParams.deletion(0.01), 40, None),
            ("random_insertion_small_p", ChannelParams.insertion(0.01), 40, 5),
        ]
        # the error-free channel: every length ties at rate 1
        + [(method, ChannelParams(), 12, None) for method in _SCANNED_METHODS],
    )
    def test_first_argmax_of_a_plain_scan(self, method, params, n_max, n_min):
        lengths = range(n_min or _SCANNED_METHODS[method], n_max + 1)
        scan = [evaluate_bound(method, params, n) for n in lengths]
        best = max(range(len(scan)), key=lambda i: (scan[i].rate, -i))
        n_star, result = optimize_block_length(method, params, n_max, n_min)
        assert (n_star, result.rate) == (lengths[best], scan[best].rate)
        assert result.components == scan[best].components
        if params == ChannelParams():
            assert (n_star, result.rate) == (lengths[0], 1.0)


class TestCapacityExpansion:
    def test_independent_summation(self):
        series = math.fsum(2.0 ** (-l - 1) * l * math.log2(l) for l in range(2, 501))
        reference = math.log2(2.0 * math.e) - series
        assert capacity_expansion_constant() == pytest.approx(reference, abs=1e-12)

    def test_perfect_channel_limit(self):
        assert capacity_expansion_deletion(1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_sits_just_above_the_bound(self):
        for p in (1e-5, 1e-4, 1e-3):
            gap = capacity_expansion_deletion(p) - deletion_bound(1000, p).rate
            assert 0.0 < gap / p < 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            capacity_expansion_deletion(0.0)


class TestBoundResultInvariants:
    CASES = [
        ("gallager", ChannelParams(p_d=0.05, p_e=0.02, p_i=0.01), None),
        ("deletion", ChannelParams.deletion(0.07), 40),
        ("deletion_substitution", ChannelParams.deletion_substitution(0.07, 0.02), 40),
        ("deletion_awgn", ChannelParams.deletion_awgn(0.07, 0.8), 40),
        ("random_insertion", ChannelParams.insertion(0.07), 40),
        ("deletion_small_p", ChannelParams.deletion(0.02), 40),
        ("random_insertion_small_p", ChannelParams.insertion(0.02), 40),
    ]

    @pytest.mark.parametrize("method,params,n", CASES)
    def test_rate_is_component_sum_and_at_most_one(self, method, params, n):
        result = evaluate_bound(method, params, n)
        assert result.rate == math.fsum(result.components.values())
        assert result.rate <= 1.0 + 1e-12
        assert result.method == method

    @pytest.mark.parametrize(
        "method,n", [(m, n) for m, _, n in CASES]
    )
    def test_error_free_rate_is_one(self, method, n):
        assert evaluate_bound(method, ChannelParams(), n).rate == pytest.approx(1.0, abs=1e-12)

    def test_deletion_family_component_order(self):
        shared = ["base", "block_entropy_penalty", "pattern_gain"]
        assert list(deletion_bound(40, 0.07).components) == shared
        assert list(deletion_substitution_bound(40, 0.07, 0.02).components) == shared + [
            "substitution_penalty"
        ]
        assert list(deletion_awgn_bound(40, 0.07, 0.8).components) == shared + ["awgn_penalty"]


# probabilities anywhere in [0, 1], and within 1e-9 of either end
_PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-9),
    st.floats(0.0, 1e-9).map(lambda x: 1.0 - x),
)
_BOUNDS = {
    "deletion": lambda n, p, q, sigma: deletion_bound(n, p),
    "deletion_substitution": lambda n, p, q, sigma: deletion_substitution_bound(n, p, q),
    "deletion_awgn": lambda n, p, q, sigma: deletion_awgn_bound(n, p, sigma),
    "random_insertion": lambda n, p, q, sigma: random_insertion_bound(n, p),
}


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(sorted(_BOUNDS)),
    n=st.integers(1, 4096),
    p=_PROBABILITIES,
    q=_PROBABILITIES,
    sigma=st.one_of(st.just(0.0), st.floats(-3.0, 300.0).map(lambda e: 10.0**e)),
)
# 1 - p rounds to 1.0 here
@example(method="random_insertion", n=251, p=6.299594023157632e-19, q=0.0, sigma=0.0)
def test_bounds_are_finite_component_sums_at_most_one(method, n, p, q, sigma):
    try:
        result = _BOUNDS[method](n, p, q, sigma)
    except ValueError:
        return
    assert all(math.isfinite(v) for v in result.components.values())
    assert result.rate == math.fsum(result.components.values())
    assert result.rate <= 1.0
    assert result.components.get("multi_insertion_gain", 0.0) >= 0.0


def test_evaluate_bound_requires_block_length():
    with pytest.raises(ValueError):
        evaluate_bound("deletion", ChannelParams.deletion(0.1))


# every function that takes a block length, called at n
_TAKES_N = {
    "deletion_bound": lambda n: deletion_bound(n, 0.1),
    "deletion_substitution_bound": lambda n: deletion_substitution_bound(n, 0.1, 0.02),
    "deletion_awgn_bound": lambda n: deletion_awgn_bound(n, 0.1, 0.7),
    "random_insertion_bound": lambda n: random_insertion_bound(n, 0.1),
    "deletion_bound_small_p": lambda n: deletion_bound_small_p(n, 0.01),
    "random_insertion_bound_small_p": lambda n: random_insertion_bound_small_p(n, 0.01),
    "deletion_small_p_coefficients": deletion_small_p_coefficients,
    "insertion_small_p_coefficients": insertion_small_p_coefficients,
    "optimize_block_length": lambda n: optimize_block_length("deletion", ChannelParams.deletion(0.1), n),
    "expected_run_count": lambda n: expected_run_count(2, n),
    "mean_pattern_log_weight": lambda n: mean_pattern_log_weight(n, 2),
    "block_entropy": lambda n: block_entropy(n, 0.1),
    "single_insertion_log_weight": single_insertion_log_weight,
    "single_insertion_log_weight_exact": single_insertion_log_weight_exact,
    "deletion_output_multiplicities": deletion_output_multiplicities,
    "insertion_output_multiplicities": insertion_output_multiplicities,
    "exact_deletion_substitution_entropies": lambda n: exact_deletion_substitution_entropies(n, 0.1, 0.02),
    "exact_insertion_entropies": lambda n: exact_insertion_entropies(n, 0.1),
} | {
    f"evaluate_bound({method!r})": lambda n, method=method: evaluate_bound(method, ChannelParams(), n)
    for method in sorted(bounds._BOUNDS)
    if bounds._BOUNDS[method].n_min is not None
}


@pytest.mark.parametrize("call", sorted(_TAKES_N))
@pytest.mark.parametrize("n", [5.5, 5.0, math.nan, math.inf, "5", None, True, False])
def test_a_block_length_that_is_not_an_integer_is_a_value_error(call, n):
    with pytest.raises(ValueError, match="requires an integer block length"):
        _TAKES_N[call](n)


@pytest.mark.parametrize("call", sorted(_TAKES_N))
def test_a_numpy_integer_block_length_is_an_int(call):
    result, expected = _TAKES_N[call](np.int64(5)), _TAKES_N[call](5)
    assert repr(result) == repr(expected)
    if hasattr(result, "block_length"):
        assert type(result.block_length) is int


# float.hex of each method"s rate and components at two points, as computed
# before every rate, optimum and one-point bound came from one component grid; the
# deletion_small_p components as re-pinned when its coefficients came in closed form,
# each nearer a 50-digit reference than before, with the rates unchanged
_PINNED = [
    (
        "gallager",
        ChannelParams(p_d=0.05, p_e=0.02, p_i=0.01),
        None,
        "0x1.004e981851267p-1",
        {
            "base": "0x1.0000000000000p+0",
            "deletion_term": "-0x1.ba90c079482c2p-3",
            "insertion_term": "-0x1.1021e1a8b49e2p-4",
            "correct_term": "-0x1.becd7c6ae892bp-4",
            "flip_term": "-0x1.b97a603749435p-4",
        },
    ),
    (
        "gallager",
        ChannelParams(p_d=0.3, p_e=0.1, p_i=0.2),
        None,
        "-0x1.70a05039a60cap-1",
        {
            "base": "0x1.0000000000000p+0",
            "deletion_term": "-0x1.0acc442cbb8e3p-1",
            "insertion_term": "-0x1.db87e758f6be8p-2",
            "correct_term": "-0x1.096be8421d143p-1",
            "flip_term": "-0x1.ba90c079482c1p-3",
        },
    ),
    (
        "deletion",
        ChannelParams.deletion(0.01),
        100,
        "0x1.d7f326e1355bbp-1",
        {
            "base": "0x1.fae147ae147aep-1",
            "block_entropy_penalty": "-0x1.4aedbe46a0a77p-4",
            "pattern_gain": "0x1.9be5befd3d6edp-7",
        },
    ),
    (
        "deletion",
        ChannelParams.deletion(0.2),
        37,
        "0x1.180aa8dae12eap-2",
        {
            "base": "0x1.999999999999ap-1",
            "block_entropy_penalty": "-0x1.71a08f2b35a92p-1",
            "pattern_gain": "0x1.903127fc329b4p-3",
        },
    ),
    (
        "deletion_substitution",
        ChannelParams.deletion_substitution(0.01, 0.03),
        1000,
        "0x1.757ee66072bb3p-1",
        {
            "base": "0x1.fae147ae147aep-1",
            "block_entropy_penalty": "-0x1.4aedbe46a0a77p-4",
            "pattern_gain": "0x1.a0f7f16fd3ebbp-7",
            "substitution_penalty": "-0x1.8a22252a33e9cp-3",
        },
    ),
    (
        "deletion_substitution",
        ChannelParams.deletion_substitution(0.1, 0.2),
        40,
        "-0x1.b942b6456235ap-4",
        {
            "base": "0x1.ccccccccccccdp-1",
            "block_entropy_penalty": "-0x1.e0406181bc7cep-2",
            "pattern_gain": "0x1.c6a93cf8abb2ep-4",
            "substitution_penalty": "-0x1.4caa1a73b04b7p-1",
        },
    ),
    (
        "deletion_awgn",
        ChannelParams.deletion_awgn(0.05, 0.8),
        100,
        "0x1.8421ae0ba8790p-2",
        {
            "base": "0x1.e666666666666p-1",
            "block_entropy_penalty": "-0x1.25453e71f2a22p-2",
            "pattern_gain": "0x1.ec08c8acaf8e3p-5",
            "awgn_penalty": "-0x1.60e6f964c7a36p-2",
        },
    ),
    (
        "deletion_awgn",
        ChannelParams.deletion_awgn(0.2, 2.0),
        20,
        "-0x1.9daead375e8aep-2",
        {
            "base": "0x1.999999999999ap-1",
            "block_entropy_penalty": "-0x1.71a08f2b35a92p-1",
            "pattern_gain": "0x1.83c69cf1a1145p-3",
            "awgn_penalty": "-0x1.57c208467b7b0p-1",
        },
    ),
    (
        "random_insertion",
        ChannelParams.insertion(0.03),
        5,
        "0x1.a7c09b8ebc7fdp-1",
        {
            "base": "0x1.b7abfc78b016cp-1",
            "block_entropy_penalty": "-0x1.8e1d517ff6608p-3",
            "single_insertion_gain": "0x1.42e928cae174ap-3",
            "multi_insertion_gain": "0x1.70b6062efb777p-8",
            "tail_gain": "0x1.e9b79d68f0e22p-20",
        },
    ),
    (
        "random_insertion",
        ChannelParams.insertion(0.2),
        40,
        "-0x1.ec20161690af9p-2",
        {
            "base": "0x1.16c262777579dp-13",
            "block_entropy_penalty": "-0x1.71a08f2b35a92p-1",
            "single_insertion_gain": "0x1.67a5ef36ae308p-10",
            "multi_insertion_gain": "0x1.eb2d1408aa0bap-3",
            "tail_gain": "0x1.72e25eb38c55dp-89",
        },
    ),
    (
        "deletion_small_p",
        ChannelParams.deletion(0.01),
        10,
        "0x1.d724304e6299ep-1",
        {
            "base": "0x1.0000000000000p+0",
            "block_entropy_penalty": "-0x1.4aedbe46a0a77p-4",
            "linear": "0x1.2b7e9f9d68e00p-10",
            "quadratic": "-0x1.f6f7f2b31ded7p-14",
            "cubic": "-0x1.0004468508104p-15",
            "quartic": "-0x1.f67e8588bc7e4p-21",
        },
    ),
    (
        "deletion_small_p",
        ChannelParams.deletion(0.001),
        100,
        "0x1.fa4b4b78d0f11p-1",
        {
            "base": "0x1.0000000000000p+0",
            "block_entropy_penalty": "-0x1.75cf353398570p-7",
            "linear": "0x1.1c450d7b7cce1p-12",
            "quadratic": "-0x1.7b0db3b636b44p-20",
            "cubic": "-0x1.948388e46a88ap-18",
            "quartic": "-0x1.ac254d0de7198p-23",
        },
    ),
    (
        "random_insertion_small_p",
        ChannelParams.insertion(0.02),
        6,
        "0x1.bff8a409f6db5p-1",
        {
            "base": "0x1.0000000000000p+0",
            "block_entropy_penalty": "-0x1.21ab94445d6c3p-3",
            "linear": "0x1.4e596b374b978p-6",
            "quadratic": "-0x1.0ee9ea86742f3p-8",
            "cubic": "0x1.183645fa46bbfp-13",
            "quartic": "-0x1.78e6ff7139cc5p-16",
        },
    ),
    (
        "random_insertion_small_p",
        ChannelParams.insertion(0.005),
        50,
        "0x1.e05fd6660fa82p-1",
        {
            "base": "0x1.0000000000000p+0",
            "block_entropy_penalty": "-0x1.7409834a9c09bp-5",
            "linear": "0x1.a7faa9ab90dc8p-8",
            "quadratic": "-0x1.a8c82e9b58eecp-6",
            "cubic": "0x1.e916aa131ea56p-9",
            "quartic": "-0x1.496fb75840962p-11",
        },
    ),
]


@pytest.mark.parametrize("method, params, n, rate, components", _PINNED)
def test_values_pinned_bit_for_bit(method, params, n, rate, components):
    result = evaluate_bound(method, params, n)
    assert result.rate.hex() == rate
    assert [(name, value.hex()) for name, value in result.components.items()] == [
        *components.items()
    ]

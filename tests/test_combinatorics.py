import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchan import combinatorics
from synchan.channels import RngState
from synchan.combinatorics import (
    expected_run_count,
    mean_pattern_log_weight,
    mean_pattern_log_weights,
    single_insertion_log_weight,
    single_insertion_log_weight_exact,
)

from helpers import (
    RunLengthSequence,
    all_bit_strings,
    brute_mean_pattern_log_weight,
    brute_single_insertion_log_weight,
    brute_subsequence_counts,
    deletion_patterns,
    encode,
    enumerate_deletion_patterns,
    mp_pattern_log_weight,
    mp_single_insertion_weight,
    random_run_profile,
    run_python,
    runs_of,
    subsequence_weight,
)

bits_of = lambda s: [int(c) for c in s]


class TestRunLengthCoding:
    def test_worked_example(self):
        assert encode(bits_of("001111011000")) == RunLengthSequence(0, (2, 4, 1, 2, 3))

    def test_single_symbol(self):
        assert encode([1]) == RunLengthSequence(1, (1,))

    def test_roundtrip_random_strings(self):
        gen = np.random.default_rng(99)
        for _ in range(10_000):
            bits = tuple(gen.integers(0, 2, size=int(gen.integers(1, 65))))
            assert encode(bits) == RunLengthSequence(bits[0], tuple(runs_of(bits)))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_roundtrip_property(self, bits):
        assert encode(bits) == RunLengthSequence(bits[0], tuple(runs_of(bits)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            encode([])

    @pytest.mark.parametrize("bits", [[0.5, 1], [2, 1], [-1, 0], [1, 1.5]])
    def test_non_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            encode(bits)

    def test_bools_and_integral_floats_accepted(self):
        assert encode([True, True, False]) == RunLengthSequence(1, (2, 1))
        assert encode(np.array([0.0, 1.0, 1.0])) == RunLengthSequence(0, (1, 2))

    def test_derived_fields(self):
        rls = encode(bits_of("1101100011"))
        assert rls == RunLengthSequence(1, (2, 1, 2, 3, 2))
        assert rls.length == 10


def recursive_deletion_patterns(runs, d):
    """The per-run deletion patterns of d deletions, by the recursion the kernel replaced."""
    runs = tuple(runs)

    def rec(k, remaining, prefix):
        if k == len(runs):
            if remaining == 0:
                yield prefix
            return
        capacity_after = sum(runs[k + 1 :])
        lo = max(0, remaining - capacity_after)
        hi = min(runs[k], remaining)
        for dk in range(lo, hi + 1):
            yield from rec(k + 1, remaining - dk, prefix + (dk,))

    yield from rec(0, d, ())


def property_scope_profiles(n_max=12):
    """Per n <= n_max: one run, n unit runs and two profiles drawn at seed 7; then every
    profile of n <= 8 bits."""
    gen = RngState(7).generator
    for n in range(1, n_max + 1):
        yield (n,)
        yield (1,) * n
        yield random_run_profile(gen, n)
        yield random_run_profile(gen, n)
    for n in range(1, 9):
        yield from {tuple(runs_of(bits)) for bits in all_bit_strings(n)}


class TestEnumeratePatterns:
    def test_same_sequence_as_the_recursion(self):
        # the seeded draws of the pattern mixture depend on the order
        for runs in property_scope_profiles():
            for d in range(sum(runs) + 1):
                got = list(enumerate_deletion_patterns(runs, d))
                assert got == list(recursive_deletion_patterns(runs, d))
                assert all(type(dk) is int for pattern in got for dk in pattern)

    def test_kernel_rows_are_every_pattern_once(self):
        for runs in property_scope_profiles():
            patterns = deletion_patterns(runs)
            assert patterns.shape == (math.prod(r + 1 for r in runs), len(runs))
            assert np.unique(patterns, axis=0).shape == patterns.shape
            assert (patterns >= 0).all() and (patterns <= runs).all()

    def test_tiny_case(self):
        got = set(enumerate_deletion_patterns((2, 1), 1))
        assert got == {(1, 0), (0, 1)}

    def test_single_run(self):
        assert list(enumerate_deletion_patterns((5,), 3)) == [(3,)]

    def test_pattern_totals(self):
        runs = (3, 1, 2)
        total = sum(1 for d in range(7) for _ in enumerate_deletion_patterns(runs, d))
        assert total == math.prod(r + 1 for r in runs)

    def test_vandermonde_identity(self):
        gen = np.random.default_rng(5)
        for n in range(1, 13):
            profile = runs_of(tuple(gen.integers(0, 2, size=n)))
            for d in range(n + 1):
                total = sum(
                    math.prod(comb(nk, dk) for nk, dk in zip(profile, p))
                    for p in enumerate_deletion_patterns(profile, d)
                )
                assert total == comb(n, d)


class TestExpectedRunCount:
    def test_small_values(self):
        assert expected_run_count(1, 2) == 1.0
        assert expected_run_count(5, 5) == 2.0**-4

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_run_count(0, 4)
        with pytest.raises(ValueError):
            expected_run_count(5, 4)
        with pytest.raises(ValueError, match="requires an integer run length"):
            expected_run_count(2.5, 10)
        with pytest.raises(ValueError, match="block length must be <= 2\\^1000"):
            expected_run_count(2, 10**400)

    def test_largest_block_length(self):
        assert expected_run_count(2, 2**1000) == 2.0**997
        assert expected_run_count(2**1000, 2**1000) == 0.0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exhaustive_enumeration(self, n):
        counts = np.zeros(n + 1)
        for bits in all_bit_strings(n):
            for r in runs_of(bits):
                counts[r] += 1
        for l in range(1, n + 1):
            assert counts[l] / 2**n == pytest.approx(expected_run_count(l, n), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lengths_partition_the_block(self, n):
        total = math.fsum(l * expected_run_count(l, n) for l in range(1, n + 1))
        assert total == pytest.approx(n, abs=1e-12)


class TestMeanPatternLogWeight:
    def test_single_bit_block(self):
        assert mean_pattern_log_weight(1, 1) == 0.0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exhaustive_enumeration(self, n):
        for j in range(1, n + 1):
            brute = brute_mean_pattern_log_weight(n, j)
            assert mean_pattern_log_weight(n, j) == pytest.approx(brute, abs=1e-10)

    def test_bounded_by_log_choose(self):
        for n, j in [(8, 3), (40, 7), (200, 20), (1000, 1), (1000, 100), (1000, 500)]:
            w = mean_pattern_log_weight(n, j)
            assert 0.0 <= w <= math.log2(comb(n, j)) + 1e-12

    def test_limit_approached_at_one_over_n_rate(self):
        series = math.fsum(2.0 ** (-l - 1) * l * math.log2(l) for l in range(2, 201))
        gap_1000 = abs(mean_pattern_log_weight(1000, 1) - series)
        gap_2000 = abs(mean_pattern_log_weight(2000, 1) - series)
        assert gap_1000 < 2e-3
        assert gap_2000 == pytest.approx(gap_1000 / 2, rel=0.1)

    def test_reproducible_to_the_bit(self):
        # a fresh process computes W_7(500) alone, without any table entry
        script = "from synchan.combinatorics import mean_pattern_log_weight as w; print(repr(w(500, 7)))"
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) == mean_pattern_log_weight(500, 7) == mean_pattern_log_weight(500, 7)

    @pytest.mark.parametrize(
        "n, js",
        [
            # the Table I pmf windows at n = 1000 (p_d from 1e-5 to 0.1)
            (1000, (1, 2, 10, 50, 100, 130)),
            # the large-n pmf windows (p_d from 0.02 to 0.25)
            (10000, (200, 1100, 2500)),
        ],
    )
    def test_against_mpmath(self, n, js):
        for j in js:
            reference = mp_pattern_log_weight(n, j)
            assert mean_pattern_log_weight(n, j) == pytest.approx(reference, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_independent_of_the_request_window(self, n):
        # a fresh table per request: nothing is shared between the windows
        cases = [(lo, min(n, lo + width)) for lo in range(1, n + 1, max(1, n // 7)) for width in (0, 3, 40)]
        wide = []
        for lo, hi in [(1, n)] + cases:
            combinatorics._WEIGHT_TABLES.clear()
            wide.append((lo, hi, mean_pattern_log_weights(n, lo, hi).copy()))
        full = wide[0][2]
        for lo, hi, values in wide[1:]:
            assert np.array_equal(values, full[lo - 1 : hi])

    def test_table_holds_only_the_requested_span(self, monkeypatch):
        computed = []
        kernel = combinatorics._pattern_log_weights

        def counting_kernel(n, js):
            computed.extend(js.tolist())
            return kernel(n, js)

        monkeypatch.setattr(combinatorics, "_pattern_log_weights", counting_kernel)
        combinatorics._WEIGHT_TABLES.pop(20000, None)
        first = mean_pattern_log_weights(20000, 190, 230).copy()
        start, values = combinatorics._WEIGHT_TABLES[20000]
        assert values.size <= 41
        # growing the span keeps every value already computed
        mean_pattern_log_weights(20000, 180, 200)
        start, values = combinatorics._WEIGHT_TABLES[20000]
        assert (start, values.size) == (180, 51)
        assert np.array_equal(values[10:], first)
        assert computed == list(range(190, 231)) + list(range(180, 190))

    def test_window_is_read_only(self):
        values = mean_pattern_log_weights(20, 3, 6)
        assert values.shape == (4,)
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_pattern_log_weight(5, 0)
        with pytest.raises(ValueError):
            mean_pattern_log_weight(5, 6)
        with pytest.raises(ValueError):
            mean_pattern_log_weights(5, 4, 3)


class TestSingleInsertionLogWeight:
    def test_single_bit_block(self):
        assert single_insertion_log_weight(1) == 0.0
        assert single_insertion_log_weight_exact(1) == 0.0

    def test_reference_polynomial_constant(self):
        # the linear coefficient of the n=10 small-p insertion polynomial
        assert single_insertion_log_weight(10) - 31 / 40 == pytest.approx(1.1591, rel=5e-3)

    @pytest.mark.parametrize("exact", [False, True])
    def test_kernel_against_mpmath(self, exact):
        # 50-digit term-by-term sums; the kernel's prefix sums are each rounded once
        ns = [*range(1, 1101), 10**6, 2**40, 10**15, 10**18, 2**1000]
        got = combinatorics._single_insertion_weights(ns, exact).tolist()
        weight = single_insertion_log_weight_exact if exact else single_insertion_log_weight
        for n, value in zip(ns, got, strict=True):
            reference = mp_single_insertion_weight(n, exact)
            assert abs(value - reference) <= 5e-16 * reference, (n, value, reference)
            assert weight(n) == value

    def test_weights_are_not_memoised(self):
        assert not hasattr(single_insertion_log_weight, "cache_info")
        assert not hasattr(single_insertion_log_weight_exact, "cache_info")

    @pytest.mark.parametrize("n", [2**1000 + 1, 10**400], ids=["2^1000+1", "10^400"])
    def test_block_length_beyond_the_largest(self, n):
        for weight in (single_insertion_log_weight, single_insertion_log_weight_exact):
            with pytest.raises(ValueError, match=r"block length must be <= 2\^1000, got \d+ bits"):
                weight(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_block_length_below_one(self, n):
        for weight in (single_insertion_log_weight, single_insertion_log_weight_exact):
            with pytest.raises(ValueError, match="block length must be >= 1, got "):
                weight(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exact_variant_matches_enumeration(self, n):
        brute = brute_single_insertion_log_weight(n)
        assert single_insertion_log_weight_exact(n) == pytest.approx(brute, abs=1e-10)

    def test_tabulated_variant_matches_enumeration(self):
        """The tabulated closed form should reduce to the enumerated average.

        It does not: its interior-run term carries about twice the weight of
        the enumerated definition (n=10: 1.934085 against 0.889248; the two
        agree only at n=1), so this check records a real defect in the
        printed coefficient that the reference tables inherit.  It is left
        failing because ``test_reference_polynomial_constant``, acceptance
        criteria 3 and 4 and Table II pin that printed coefficient, and the
        repository does not settle which of the two the insertion bound
        should follow.
        """
        gaps = []
        for n in range(2, 11):
            brute = brute_single_insertion_log_weight(n)
            tabulated = single_insertion_log_weight(n)
            if abs(tabulated - brute) > 1e-10:
                gaps.append(f"  n={n}: tabulated {tabulated:.6f} vs enumerated {brute:.6f}")
        assert not gaps, (
            "the tabulated closed form overweights interior runs by 2x:\n" + "\n".join(gaps)
        )


class TestSubsequenceWeight:
    def test_identity_and_empty(self):
        assert subsequence_weight([0, 1, 1], [0, 1, 1]) == 1
        assert subsequence_weight([0, 1, 1], []) == 1

    def test_uniform_run(self):
        assert subsequence_weight([1, 1, 1], [1, 1]) == 3

    def test_length_error(self):
        with pytest.raises(ValueError):
            subsequence_weight([1], [1, 0])

    def test_against_deletion_subset_enumeration(self):
        gen = np.random.default_rng(21)
        for n in (5, 8, 12):
            bits = tuple(gen.integers(0, 2, size=n))
            counts = brute_subsequence_counts(bits)
            for y, count in counts.items():
                assert subsequence_weight(bits, y) == count
            for m in range(n + 1):
                total = sum(c for y, c in counts.items() if len(y) == m)
                assert total == comb(n, n - m)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.data())
    def test_reversal_symmetry(self, x, data):
        m = data.draw(st.integers(0, len(x)))
        y = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        assert subsequence_weight(x, y) == subsequence_weight(x[::-1], y[::-1])

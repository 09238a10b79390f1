import math
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb

import numpy as np
import pytest
from helpers import (
    all_bit_strings,
    brute_subsequence_counts,
    count_law_by_length,
    deletion_awgn_pattern_entropy_bound,
    encode,
    exact_block_entropy,
    float_deletion_sums,
    mc_deletion_awgn_pattern_entropy,
    reshaped_insertion_count_law,
    subsequence_weight,
)

from synchan import oracle
from synchan.numerics import awgn_expectation, binary_entropy, block_entropy
from synchan.oracle import (
    OracleResourceError,
    deletion_output_multiplicities,
    exact_deletion_substitution_entropies,
    exact_insertion_conditional_law,
    exact_insertion_entropies,
    insertion_output_multiplicities,
    mc_awgn_entropy_check,
)
from synchan.verification import SIGNIFICANCE, _chi2_tail, run_oracle_checks


def brute_deletion_substitution_entropies(n, p_d, p_e):
    """(H(Y'), H(Y'|X), I(X;Y')) from dict laws over every deletion set and every output.

    Each size-m keep set of x is pushed through the BSC by the explicit
    Hamming distance from its survivor string to each of the 2^m outputs.
    """
    marginal = {}
    conditional = 0.0
    for x in product((0, 1), repeat=n):
        law = {}
        for m in range(n + 1):
            p_del = p_d ** (n - m) * (1 - p_d) ** m
            for keep in combinations(range(n), m):
                survivor = [x[i] for i in keep]
                for y in product((0, 1), repeat=m):
                    d = sum(a != b for a, b in zip(survivor, y))
                    prob = p_del * p_e**d * (1 - p_e) ** (m - d)
                    if prob > 0:
                        law[y] = law.get(y, 0.0) + prob
        conditional -= math.fsum(p * math.log2(p) for p in law.values()) / 2**n
        for y, prob in law.items():
            marginal[y] = marginal.get(y, 0.0) + prob / 2**n
    output = -math.fsum(p * math.log2(p) for p in marginal.values())
    return output, conditional, output - conditional


@lru_cache(maxsize=None)
def brute_insertion_counts(bits):
    """Map each output of ``bits`` to its number of events.

    An event keeps each symbol or replaces it by one of the four bit pairs;
    the output length n + j fixes the number j of replaced symbols.
    """
    pairs = list(product((0, 1), repeat=2))
    events = product(*([(b,)] + pairs for b in bits))
    return Counter(tuple(chain.from_iterable(event)) for event in events)


def brute_insertion_entropies(n, p_i):
    """(H(Y), H(Y|X), I(X;Y)) from dict laws over every insertion event of every input."""
    marginal = {}
    conditional = 0.0
    for x in product((0, 1), repeat=n):
        law = {}
        for y, count in brute_insertion_counts(x).items():
            j = len(y) - n
            prob = count * (p_i / 4) ** j * (1 - p_i) ** (n - j)
            if prob > 0:
                law[y] = prob
        conditional -= math.fsum(p * math.log2(p) for p in law.values()) / 2**n
        for y, prob in law.items():
            marginal[y] = marginal.get(y, 0.0) + prob / 2**n
    output = -math.fsum(p * math.log2(p) for p in marginal.values())
    return output, conditional, output - conditional


@lru_cache(maxsize=None)
def bsc_matrix(m, p_e):
    """The m-bit BSC transition matrix from the Hamming distance of every code pair."""
    codes = np.arange(1 << m)
    distance = np.bitwise_count(codes[:, None] ^ codes[None, :]).astype(float)
    return p_e**distance * (1 - p_e) ** (m - distance)


@lru_cache(maxsize=None)
def per_input_survivor_counts(n):
    """For every input, its survivor counts per length m from every keep set."""
    per_input = []
    for x in all_bit_strings(n):
        counts = [np.zeros(1 << m) for m in range(n + 1)]
        for y, count in brute_subsequence_counts(x).items():
            counts[len(y)][sum(b << k for k, b in enumerate(y))] += count
        per_input.append(counts)
    return per_input


def per_input_deletion_sums(n, p_e):
    """The oracle's (4, n + 1) p_d-free sums, by a loop over all 2^n inputs.

    Each input's BSC law comes from the explicit Hamming-distance matrix.
    """
    slog = [[] for _ in range(n + 1)]
    mass = [[] for _ in range(n + 1)]
    aggregate = [np.zeros(1 << m) for m in range(n + 1)]
    for counts in per_input_survivor_counts(n):
        for m in range(n + 1):
            law = counts[m] @ bsc_matrix(m, p_e)
            positive = law[law > 0]
            slog[m].append(float(np.sum(positive * np.log2(positive))))
            mass[m].append(float(law.sum()))
            aggregate[m] += law
    sums = np.zeros((4, n + 1))
    for m in range(n + 1):
        positive = aggregate[m][aggregate[m] > 0]
        sums[:, m] = (
            math.fsum(slog[m]),
            math.fsum(mass[m]),
            math.fsum(positive * np.log2(positive)),
            math.fsum(aggregate[m]),
        )
    return sums


# H(Y), H(Y|X) and I(X;Y) recorded with the earlier kernels (a per-bit BSC
# over every input, and a loop over every insertion input)
RECORDED_DELETION_N12 = {
    (0.01, 0.0): (12.426663172890244, 0.8327578625799367, 11.593905310310307),
    (0.01, 0.05): (12.426663172890258, 4.17356803068576, 8.253095142204497),
    (0.1, 0.0): (12.791209728020219, 4.303954681591918, 8.4872550464283),
    (0.1, 0.05): (12.79120972802022, 6.855565869786052, 5.935643858234168),
    (0.3, 0.0): (11.102084215609379, 7.003289954480333, 4.098794261129046),
    (0.3, 0.05): (11.102084215609375, 8.26273994857048, 2.8393442670388946),
}
RECORDED_INSERTION_N9 = {
    0.01: (9.536024063910178, 0.808975843495921, 8.727048220414257),
    0.1: (11.659226479783834, 5.076835152886874, 6.5823913268969605),
    0.3: (14.187817201592551, 10.824588104689557, 3.3632290969029945),
}


def entropies(report):
    return report.output_entropy, report.conditional_entropy, report.mutual_information


class TestSurvivorCounts:
    """The integer survivor counts that every deletion law is built from."""

    @staticmethod
    def per_input(n, m):
        return np.concatenate([c for _, c in oracle._survivor_counts(n, m, np.arange(1 << n))])

    def test_conditionals_from_embedding_counts(self):
        gen = np.random.default_rng(17)
        x = tuple(int(b) for b in gen.integers(0, 2, size=7))
        code = sum(b << k for k, b in enumerate(x))
        for m in range(8):
            for y, count in enumerate(self.per_input(7, m)[code].tolist()):
                assert count == subsequence_weight(x, tuple((y >> k) & 1 for k in range(m)))

    def test_every_conditional_matches_brute_force(self):
        n = 5
        counts = [self.per_input(n, m) for m in range(n + 1)]
        for code, x in enumerate(all_bit_strings(n)):
            got = {
                tuple((y >> k) & 1 for k in range(m)): c
                for m in range(n + 1)
                for y, c in enumerate(counts[m][code].tolist())
                if c
            }
            assert got == brute_subsequence_counts(x)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_row_sums_to_the_binomial(self, n):
        # so every conditional law, and the marginal, has mass exactly 1 at any p_d
        for m in range(n + 1):
            for _, counts in oracle._survivor_counts(n, m, np.arange(1 << n)):
                assert counts.dtype == np.int64 and np.all(counts.sum(axis=1) == comb(n, m))

    def test_resource_guard(self):
        with pytest.raises(OracleResourceError):
            deletion_output_multiplicities(15)


class TestPerLengthUniformity:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_deletion_multiplicities(self, n):
        for m, agg in enumerate(deletion_output_multiplicities(n)):
            expected = (1 << (n - m)) * comb(n, n - m)
            assert agg.dtype == np.int64 and agg.shape == (1 << m,)
            assert np.all(agg == expected)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_insertion_multiplicities(self, n):
        for j, agg in enumerate(insertion_output_multiplicities(n)):
            expected = (1 << j) * comb(n, j)
            assert np.all(agg == expected)


class TestDeletionSubstitutionEntropies:
    def test_report_is_consistent(self):
        report = exact_deletion_substitution_entropies(6, 0.1, 0.05)
        assert report.mutual_information == pytest.approx(
            report.output_entropy - report.conditional_entropy, abs=1e-12
        )
        assert report.block_entropy == pytest.approx(block_entropy(6, 0.1), abs=1e-14)

    def test_no_deletions_reduces_to_bsc(self):
        report = exact_deletion_substitution_entropies(6, 0.0, 0.05)
        assert report.mutual_information / 6 == pytest.approx(
            1.0 - binary_entropy(0.05), abs=1e-12
        )

    def test_output_entropy_identity(self):
        for n in (2, 5, 8):
            for p_d in (0.01, 0.1, 0.3):
                report = exact_deletion_substitution_entropies(n, p_d, 0.05)
                identity = report.bound_chain[0]
                assert identity.relation == "eq"
                assert abs(identity.margin) < 1e-9

    def test_inequalities_hold(self):
        report = exact_deletion_substitution_entropies(8, 0.1, 0.05)
        assert all(c.holds for c in report.bound_chain)
        by_label = {c.label: c for c in report.bound_chain}
        assert by_label["conditional_entropy_bound"].margin > 0
        assert by_label["capacity_chain"].margin > 0

    def test_error_free_margins_vanish(self):
        report = exact_deletion_substitution_entropies(5, 0.0, 0.0)
        for c in report.bound_chain:
            assert abs(c.margin) <= 1e-12

    def test_resource_guard(self):
        with pytest.raises(OracleResourceError):
            exact_deletion_substitution_entropies(13, 0.1, 0.0)

    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("p_d", [0.0, 0.1, 1.0])
    def test_matches_brute_force(self, p_d, p_e):
        for n in (1, 2, 4, 6):
            report = exact_deletion_substitution_entropies(n, p_d, p_e)
            expected = brute_deletion_substitution_entropies(n, p_d, p_e)
            got = (report.output_entropy, report.conditional_entropy, report.mutual_information)
            assert got == pytest.approx(expected, rel=0, abs=1e-12)

    def test_report_independent_of_cache_state(self):
        oracle._deletion_sums.cache_clear()
        cold = exact_deletion_substitution_entropies(9, 0.1, 0.05)
        oracle._deletion_sums.cache_clear()
        for n in (3, 9):
            for p_d in (0.01, 0.3):
                for p_e in (0.0, 0.05):
                    exact_deletion_substitution_entropies(n, p_d, p_e)
        assert exact_deletion_substitution_entropies(9, 0.1, 0.05) == cold


class TestDeletionKernel:
    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.5, 1.0])
    def test_sums_match_a_per_input_loop(self, p_e):
        for n in range(1, 9):
            got, expected = oracle._deletion_sums(n, (p_e,))[0][0], per_input_deletion_sums(n, p_e)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-11)

    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.5, 1.0])
    def test_no_deletion_column_matches_the_dense_path(self, p_e):
        # column n is filled in closed form; the dense path pushes every input's
        # one-hot survivor row through the BSC
        for n in (1, 2, 5, 9, 12):
            slog, mass = [], []
            aggregate = np.zeros(1 << n, dtype=np.int64)
            for _, counts in oracle._survivor_counts(n, n, np.arange(1 << n)):
                law = oracle._bsc(counts, p_e)
                slog.extend(oracle._slog(law, axis=1).tolist())
                mass.extend(law.sum(axis=1).tolist())
                aggregate += counts.sum(axis=0)
            total = oracle._bsc(aggregate[None, :], p_e)[0]
            column = oracle._deletion_sums(n, (p_e,))[0][0, :, n]
            dense = [math.fsum(slog), math.fsum(mass), math.fsum(total)]
            np.testing.assert_allclose(column[[0, 1, 3]], dense, rtol=1e-12, atol=0)
            assert column[2] == pytest.approx(oracle._slog(total), rel=0, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_integer_p_e_zero_sums_equal_the_float_laws_bit_for_bit(self, n):
        assert oracle._deletion_sums(n, (0.0,))[0].tobytes() == float_deletion_sums(n).tobytes()

    @pytest.mark.parametrize("grid", [(0.0, 0.05), (0.05, 0.0, 0.3)])
    def test_grid_rows_equal_single_p_e_sums(self, grid):
        for n in (1, 2, 5, 9, 12):
            sums, _ = oracle._deletion_sums(n, grid)
            assert sums.shape == (len(grid), 4, n + 1)
            for row, p_e in zip(sums, grid):
                assert row.tobytes() == oracle._deletion_sums(n, (p_e,))[0][0].tobytes()

    def test_one_survivor_pass_per_block_length(self, monkeypatch):
        # one pass per m <= n serves every p_e and the aggregates: 13 calls at n = 12, not 12 per p_e
        calls = []
        survivor_counts = oracle._survivor_counts

        def counted(n, m, inputs):
            calls.append(m)
            return survivor_counts(n, m, inputs)

        monkeypatch.setattr(oracle, "_survivor_counts", counted)
        oracle._deletion_sums.cache_clear()
        _, aggregates = oracle._deletion_sums(12, (0.0, 0.05))
        assert sorted(calls) == list(range(13))
        for aggregate, expected in zip(aggregates, deletion_output_multiplicities(12), strict=True):
            assert np.array_equal(aggregate, expected)

    def test_grid_reports_equal_single_reports(self):
        p_ds, p_es = (0.0, 0.1, 0.3), (0.05, 0.0)
        for n in (1, 4, 9):
            reports = oracle._deletion_reports(n, p_ds, p_es)
            assert list(reports) == [(p_d, p_e) for p_d in p_ds for p_e in p_es]
            for (p_d, p_e), report in reports.items():
                assert report == exact_deletion_substitution_entropies(n, p_d, p_e)

    @pytest.mark.parametrize("p_ds,p_es", [((0.1, 1.5), (0.0,)), ((0.1,), (0.0, -0.1))])
    def test_grid_reports_reject_invalid_probabilities(self, p_ds, p_es):
        with pytest.raises(ValueError, match=r"p_[de] must lie in \[0, 1\], got "):
            oracle._deletion_reports(4, p_ds, p_es)

    @pytest.mark.parametrize("p_d,p_e", sorted(RECORDED_DELETION_N12))
    def test_largest_reports_are_unchanged(self, p_d, p_e):
        report = exact_deletion_substitution_entropies(12, p_d, p_e)
        assert entropies(report) == pytest.approx(RECORDED_DELETION_N12[p_d, p_e], rel=0, abs=1e-12)
        assert all(c.holds for c in report.bound_chain)


class TestCachedArraysAreReadOnly:
    def test_deletion_multiplicities(self):
        before = deletion_output_multiplicities(5)[2].copy()
        with pytest.raises(ValueError):
            deletion_output_multiplicities(5)[2][0] = 999
        assert np.array_equal(deletion_output_multiplicities(5)[2], before)

    def test_insertion_tables(self):
        before = [a.copy() for a in insertion_output_multiplicities(5)]
        with pytest.raises(ValueError):
            insertion_output_multiplicities(5)[2][0] = 999
        with pytest.raises(ValueError):
            oracle._insertion_tables(5)[0][2] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(insertion_output_multiplicities(5), before))

    def test_deletion_sums(self):
        before = oracle._deletion_sums(5, (0.05,))[0].copy()
        with pytest.raises(ValueError):
            oracle._deletion_sums(5, (0.05,))[0][0, 0, 0] = 999.0
        assert np.array_equal(oracle._deletion_sums(5, (0.05,))[0], before)


def orbit_codes(code, n):
    """The little-endian codes of an input, its complement, its reversal and both."""
    bits = tuple((code >> k) & 1 for k in range(n))
    flipped = tuple(1 - b for b in bits)
    return {sum(b << k for k, b in enumerate(v)) for v in (bits, flipped, bits[::-1], flipped[::-1])}


class TestOrbitEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_representatives_partition_the_inputs(self, n):
        inputs, weight = oracle._orbit_representatives(n)
        assert int(weight.sum()) == 1 << n
        covered = Counter()
        for x, w in zip(inputs.tolist(), weight.tolist()):
            orbit = orbit_codes(x, n)
            assert x >> (n - 1) == 0 and len(orbit) == w
            covered.update(orbit)
        assert sorted(covered) == list(range(1 << n)) and set(covered.values()) == {1}
        assert (weight == 2).any()  # palindromes

    def test_half_the_inputs_are_enumerated_at_n12(self):
        assert oracle._orbit_representatives(12)[0].size == 1056

    @pytest.mark.parametrize("n", range(1, 13))
    def test_symmetrised_aggregate_equals_full_enumeration(self, n):
        everyone = np.arange(1 << n)
        for m, aggregate in enumerate(deletion_output_multiplicities(n)):
            full = sum(counts.sum(axis=0) for _, counts in oracle._survivor_counts(n, m, everyone))
            assert aggregate.dtype == np.int64 and np.array_equal(aggregate, full)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_orbit_sum_is_rebuilt_exactly(self, n):
        inputs, weight = oracle._orbit_representatives(n)
        for m in range(n + 1):
            everyone = oracle._survivor_counts(n, m, np.arange(1 << n))
            per_input = np.concatenate([counts for _, counts in everyone])
            for x, w in zip(inputs.tolist(), weight.tolist()):
                expected = sum(per_input[y] for y in orbit_codes(x, n))
                assert np.array_equal(oracle._orbit_aggregate(w * per_input[x]), expected)


class TestBsc:
    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.5, 1.0])
    def test_matches_the_hamming_distance_matrix(self, p_e):
        gen = np.random.default_rng(5)
        for m in range(11):
            counts = gen.integers(0, 50, size=(3, 1 << m))
            law = oracle._bsc(counts, p_e)
            assert law.shape == counts.shape and (law >= 0).all()
            expected = counts @ bsc_matrix.__wrapped__(m, p_e)
            np.testing.assert_allclose(law, expected, rtol=1e-13, atol=0)


class TestInsertionKernel:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_equal_per_input_sums(self, n):
        laws = [count_law_by_length(oracle._insertion_count_law(x), n) for x in all_bit_strings(n)]
        log_weight_mean, packed = oracle._insertion_tables(n)
        aggregate = count_law_by_length(packed, n)
        for j in range(n + 1):
            counts = [law[j] for law in laws]
            assert aggregate[j].dtype == np.int64
            assert np.array_equal(aggregate[j], sum(counts))
            per_input = math.fsum(float(np.sum(c[c > 1] * np.log2(c[c > 1]))) for c in counts)
            assert log_weight_mean[j] == pytest.approx(per_input / 2**n, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_mean_is_bit_identical_to_full_enumeration(self, n):
        laws = [count_law_by_length(oracle._insertion_count_law(x), n) for x in all_bit_strings(n)]
        size = 1 + max(int(law[j].max()) for law in laws for j in range(n + 1))
        histogram = np.array(
            [sum(np.bincount(law[j], minlength=size) for law in laws) for j in range(n + 1)]
        )
        k = np.arange(2, size)
        terms = (histogram[:, 2:] * (k * np.log2(k))).tolist()
        expected = np.array([math.fsum(row) for row in terms]) * 2.0**-n
        assert oracle._insertion_tables(n)[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_count_law_matches_every_event(self, n):
        for x in all_bit_strings(n):
            expected = brute_insertion_counts(x)
            for j, arr in enumerate(count_law_by_length(oracle._insertion_count_law(x), n)):
                for code, count in enumerate(arr.tolist()):
                    y = tuple((code >> (n + j - 1 - i)) & 1 for i in range(n + j))
                    assert count == expected.get(y, 0)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_count_law_equals_the_reshaped_form(self, n):
        inputs = list(all_bit_strings(n)) if n <= 8 else []
        for bits in [(2,) * n, *inputs]:
            law = oracle._insertion_count_law(bits)
            assert law.tobytes() == reshaped_insertion_count_law(bits).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_packed_law_is_zero_below_the_input_length(self, n):
        gen = np.random.default_rng(n)
        for bits in ((2,) * n, tuple(gen.integers(0, 2, size=n))):
            law = oracle._insertion_count_law(bits)
            assert law.dtype == np.int64 and law.size == 2 << (2 * n)
            assert not law[: 1 << n].any()

    @pytest.mark.parametrize("p_i", [0.0, 0.01, 0.3, 1.0])
    def test_entropies_match_brute_force(self, p_i):
        for n in range(1, 7):
            expected = brute_insertion_entropies(n, p_i)
            assert entropies(exact_insertion_entropies(n, p_i)) == pytest.approx(
                expected, rel=0, abs=1e-12
            )

    @pytest.mark.parametrize("p_i", sorted(RECORDED_INSERTION_N9))
    def test_largest_reports_are_unchanged(self, p_i):
        report = exact_insertion_entropies(9, p_i)
        assert entropies(report) == pytest.approx(RECORDED_INSERTION_N9[p_i], rel=0, abs=1e-12)

    def test_tables_enumerate_one_prefix_per_orbit(self, monkeypatch):
        # 36 orbits of the 7 middle bits at n = 9, and the aggregate: every
        # (n-1)-bit prefix would be 256 calls, and every input 512
        calls = []
        count_law = oracle._insertion_count_law

        def counted(bits):
            calls.append(bits)
            return count_law(bits)

        monkeypatch.setattr(oracle, "_insertion_count_law", counted)
        oracle._insertion_tables.cache_clear()
        exact_insertion_entropies(9, 0.1)
        assert len(calls) == 36 + 1

    @pytest.mark.parametrize("bits", [(0, 2, 1), (0.5, 1), (-1,)])
    def test_conditional_law_rejects_non_bits(self, bits):
        with pytest.raises(ValueError, match="bits"):
            exact_insertion_conditional_law(bits, 0.1)

    @pytest.mark.parametrize("p_i", [1.5, -0.2, math.nan])
    def test_conditional_law_rejects_invalid_probabilities(self, p_i):
        # at 1.5 the law of (0, 1) would sum to 1 with a -0.375 entry
        with pytest.raises(ValueError, match="p_i"):
            exact_insertion_conditional_law((0, 1), p_i)


class TestInsertionEntropies:
    def test_output_entropy_identity(self):
        for n in (1, 3, 6):
            for p_i in (0.01, 0.1, 0.3):
                report = exact_insertion_entropies(n, p_i)
                assert abs(report.bound_chain[0].margin) < 1e-9

    def test_exact_weight_comparisons_hold(self):
        # with the enumerated single-insertion weight the conditional-entropy
        # bound and the capacity chain are sound for every n >= 3 tested
        for n in (3, 4, 5, 6):
            for p_i in (0.01, 0.1, 0.3):
                report = exact_insertion_entropies(n, p_i)
                by_label = {c.label: c for c in report.bound_chain}
                assert by_label["conditional_entropy_bound_exact_weight"].holds
                assert by_label["capacity_chain_exact_weight"].holds

    def test_tabulated_weight_comparisons_fail_where_known(self):
        """The tabulated weight makes the closed-form conditional-entropy
        'upper bound' dip below the exact value; record that it is detected."""
        report = exact_insertion_entropies(6, 0.1)
        by_label = {c.label: c for c in report.bound_chain}
        assert not by_label["conditional_entropy_bound"].holds
        assert not by_label["capacity_chain"].holds

    def test_error_free_margins_vanish(self):
        report = exact_insertion_entropies(4, 0.0)
        for c in report.bound_chain:
            assert abs(c.margin) <= 1e-12

    def test_every_bit_replaced(self):
        report = exact_insertion_entropies(3, 1.0)
        assert report.output_entropy == pytest.approx(6.0, abs=1e-12)
        assert report.conditional_entropy == pytest.approx(6.0, abs=1e-12)
        assert report.mutual_information == pytest.approx(0.0, abs=1e-12)

    def test_resource_guard(self):
        with pytest.raises(OracleResourceError):
            exact_insertion_entropies(10, 0.1)

    def test_tables_built_once_per_length(self):
        # the oracle scope reads each length's table twice: entropies, then uniformity
        oracle._insertion_tables.cache_clear()
        run_oracle_checks(deletion_n=[], insertion_n=[3, 6, 9])
        assert oracle._insertion_tables.cache_info().misses == 3


def at_most_one_insertion(bits, p):
    """The exact conditional law restricted to outputs of length n and n + 1."""
    law = exact_insertion_conditional_law(bits, p)
    return {y: prob for y, prob in law.items() if len(y) <= len(bits) + 1}


class TestSingleInsertionLaw:
    def test_no_insertions_is_point_mass(self):
        assert exact_insertion_conditional_law((0, 1, 1), 0.0) == {(0, 1, 1): 1.0}

    @pytest.mark.parametrize("bits", [(1, 1, 1, 1, 1), (0, 0, 1, 0, 1), (0, 1)])
    def test_total_mass(self, bits):
        p = 0.15
        n = len(bits)
        law = at_most_one_insertion(bits, p)
        expected = (1 - p) ** n + n * p * (1 - p) ** (n - 1)
        assert math.fsum(law.values()) == pytest.approx(expected, abs=1e-14)

    def test_generic_run_extension_coefficients(self):
        p = 0.1
        # runs (3, 3, 3), within the oracle's n <= 9
        law = at_most_one_insertion((0, 0, 0, 1, 1, 1, 0, 0, 0), p)
        q = p * (1 - p) ** 8
        assert law[(0,) * 4 + (1,) * 3 + (0,) * 3] == pytest.approx(4 / 4 * q, rel=1e-12)
        assert law[(0,) * 3 + (1,) * 4 + (0,) * 3] == pytest.approx(5 / 4 * q, rel=1e-12)
        assert law[(0,) * 3 + (1,) * 3 + (0,) * 4] == pytest.approx(4 / 4 * q, rel=1e-12)
        # replacing the second 1 of the middle run by 00 splits it: 000 1 00 1 000
        split = (0, 0, 0, 1, 0, 0, 1, 0, 0, 0)
        assert law[split] == pytest.approx(1 / 4 * q, rel=1e-12)

    def test_single_run_boundary_collapse(self):
        # one run has no extension event from a neighbouring run, so the
        # extension mass is n/4, not (n+1)/4
        p = 0.2
        law = at_most_one_insertion((1,) * 5, p)
        q = p * (1 - p) ** 4
        assert law[(1,) * 6] == pytest.approx(5 / 4 * q, rel=1e-12)

    def test_matches_full_enumeration(self):
        # every single event: one position replaced by each of the four bit pairs
        p = 0.3
        x = (0, 1, 1, 0, 1)
        n = len(x)
        expected = {x: (1 - p) ** n}
        for pos in range(n):
            for pair in product((0, 1), repeat=2):
                y = x[:pos] + pair + x[pos + 1 :]
                expected[y] = expected.get(y, 0.0) + p * (1 - p) ** (n - 1) / 4
        law = at_most_one_insertion(x, p)
        assert set(law) == set(expected)
        for y, prob in law.items():
            assert prob == pytest.approx(expected[y], rel=1e-12)


class TestBoundChainCheck:
    """The ordered chain each exact report carries, as the chains scope reads it."""

    def test_deletion_chain(self):
        chain = exact_deletion_substitution_entropies(8, 0.1, 0.05).bound_chain
        assert [c.label for c in chain] == [
            "output_entropy_identity",
            "conditional_entropy_bound",
            "capacity_chain",
        ]
        assert all(c.holds for c in chain)

    def test_insertion_chain_reports_reality(self):
        chain = exact_insertion_entropies(6, 0.1).bound_chain
        by_label = {c.label: c for c in chain}
        assert chain[0].label == "output_entropy_identity"
        assert by_label["output_entropy_identity"].holds
        assert not by_label["capacity_chain"].holds
        assert by_label["capacity_chain_exact_weight"].holds


class TestHighPrecisionBlockEntropy:
    def test_single_trial(self):
        for p in (0.1, 0.5, 0.77):
            assert exact_block_entropy(1, p) == pytest.approx(binary_entropy(p), abs=1e-15)

    def test_deterministic_count(self):
        assert exact_block_entropy(40, 0.0) == 0.0

    def test_guard(self):
        with pytest.raises(OracleResourceError):
            exact_block_entropy(65, 0.1)


def _holds(check):
    """Whether verify passes the estimate: a two-sided normal test of its deviation at SIGNIFICANCE."""
    return _chi2_tail(check.deviation_sigmas**2, 1) >= SIGNIFICANCE


class TestMcAwgnEntropyCheck:
    def test_passes_at_moderate_noise(self):
        check = mc_awgn_entropy_check(1.0, samples=300_000, seed=31)
        assert _holds(check)
        assert check.std_error > 0

    def test_low_noise_limit(self):
        # the expectation term vanishes, leaving the pure two-point mixture entropy
        check = mc_awgn_entropy_check(0.05, samples=200_000, seed=32)
        gaussian_pair = math.log2(2 * 0.05 * math.sqrt(2 * math.pi * math.e))
        assert check.closed_form == pytest.approx(gaussian_pair, abs=1e-12)
        assert awgn_expectation(0.05) < 1e-15
        assert _holds(check)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-17])
    def test_unmeasurable_spread_is_a_value_error(self, sigma):
        # every draw has the same density, so a standard error of 0 would pass any estimate
        with pytest.raises(ValueError, match=f"sigma={sigma!r}"):
            mc_awgn_entropy_check(sigma, samples=100_000)

    def test_smallest_simulated_noise_holds(self):
        check = mc_awgn_entropy_check(1e-15, samples=100_000)
        assert check.std_error > 0
        assert _holds(check)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_awgn_entropy_check(1.0, samples=10)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_invalid_sigma_rejected_before_any_draw(self, sigma, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("drew samples before checking sigma")

        monkeypatch.setattr(oracle, "RngState", no_stream)
        with pytest.raises(ValueError, match="sigma"):
            mc_awgn_entropy_check(sigma, samples=100_000)


class TestPatternEntropyBound:
    """Monte-Carlo spot checks of the per-pattern conditional-entropy bound."""

    @pytest.mark.parametrize("bits,d", [((0, 1, 1, 0), 1), ((0, 1, 1, 0), 2), ((0, 0, 1), 1)])
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_bound_holds(self, bits, d, sigma):
        x = encode(bits)
        ub = deletion_awgn_pattern_entropy_bound(x, d, sigma)
        estimate, stderr = mc_deletion_awgn_pattern_entropy(x, d, sigma, samples=120_000, seed=77)
        assert estimate <= ub + 4.0 * stderr

    def test_single_pattern_is_tight(self):
        # one run: a unique deletion pattern, so the bound is the exact
        # Gaussian entropy and the estimate must bracket it
        x = encode([1, 1, 1, 1])
        ub = deletion_awgn_pattern_entropy_bound(x, 2, 1.0)
        assert ub == pytest.approx(2 * math.log2(math.sqrt(2 * math.pi * math.e)), abs=1e-12)
        estimate, stderr = mc_deletion_awgn_pattern_entropy(x, 2, 1.0, samples=150_000, seed=78)
        assert abs(estimate - ub) <= 4.0 * stderr

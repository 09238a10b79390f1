import math
from math import comb

import numpy as np
import pytest
from helpers import subsequence_weight
from scipy import stats

from synchan import channels
from synchan.channels import (
    RngState,
    simulate_bsc,
    simulate_deletion,
    simulate_deletion_awgn,
    simulate_deletion_substitution,
    simulate_gallager_insertion,
)
from synchan.oracle import exact_insertion_conditional_law
from synchan.verification import _chi2_tail, _chi2_two_sided, _ks_pvalue, run_simulator_checks

SIGNIFICANCE = 1e-3


def chi_square_pvalue(observed, expected):
    obs, exp = [], []
    small_o = small_e = 0.0
    for o, e in zip(observed, expected):
        if e < 5.0:
            small_o += o
            small_e += e
        else:
            obs.append(o)
            exp.append(e)
    if small_e:
        obs.append(small_o)
        exp.append(small_e)
    obs, exp = np.asarray(obs, float), np.asarray(exp, float)
    exp *= obs.sum() / exp.sum()
    return float(stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1))


def binom_pmf(n, p):
    k = np.arange(n + 1)
    return np.array([comb(n, int(i)) for i in k]) * p**k * (1 - p) ** (n - k)


def row_starts(lengths):
    return np.cumsum(lengths) - lengths


def row_sums(values, lengths):
    """Sum of each row of a batch output, empty rows included."""
    rows = np.repeat(np.arange(lengths.size), lengths)
    return np.bincount(rows, weights=values, minlength=lengths.size)


SIMULATORS = [
    (simulate_deletion, (0.3,)),
    (simulate_bsc, (0.3,)),
    (simulate_deletion_substitution, (0.3, 0.2)),
    (simulate_deletion_awgn, (0.3, 0.5)),
    (simulate_gallager_insertion, (0.3,)),
]
SIMULATOR_IDS = [sim.__name__ for sim, _ in SIMULATORS]


class TestDeterminism:
    def test_same_seed_same_paths(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1] * 4
        for sim, args in [
            (simulate_deletion, (0.3,)),
            (simulate_bsc, (0.3,)),
            (simulate_deletion_substitution, (0.2, 0.1)),
            (simulate_deletion_awgn, (0.2, 1.0)),
            (simulate_gallager_insertion, (0.3,)),
        ]:
            first = sim(bits, *args, RngState(777))
            second = sim(bits, *args, RngState(777))
            assert np.array_equal(first, second)

    def test_split_streams_differ(self):
        parent = RngState(3)
        a, b = parent.split(2)
        assert not np.array_equal(a.generator.random(16), b.generator.random(16))

    def test_split_is_reproducible(self):
        first = [s.generator.random(4) for s in RngState(11).split(3)]
        second = [s.generator.random(4) for s in RngState(11).split(3)]
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_seed_is_exposed(self):
        assert RngState(42).seed == 42
        assert "42" in repr(RngState(42))


class TestDeletion:
    def test_degenerate_probabilities(self):
        bits = [1, 0, 0, 1, 1]
        assert np.array_equal(simulate_deletion(bits, 0.0, RngState(1)), bits)
        assert simulate_deletion(bits, 1.0, RngState(1)).size == 0

    def test_output_is_subsequence(self):
        rng = RngState(5)
        gen = np.random.default_rng(6)
        for _ in range(200):
            bits = gen.integers(0, 2, size=30)
            out = simulate_deletion(bits, 0.4, rng)
            assert subsequence_weight(bits, out) >= 1

    def test_survivor_count_distribution(self):
        trials, n, p_d = 100_000, 20, 0.1
        bits = np.tile(np.uint8([0, 1]), (trials, n // 2))
        _, lengths = simulate_deletion(bits, p_d, RngState(101))
        counts = np.bincount(lengths, minlength=n + 1)
        p = chi_square_pvalue(counts, binom_pmf(n, 1 - p_d) * trials)
        assert p >= SIGNIFICANCE

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            simulate_deletion([1, 0], 1.5, RngState(0))


class TestBsc:
    def test_degenerate_probabilities(self):
        bits = np.array([1, 0, 0, 1], dtype=np.uint8)
        assert np.array_equal(simulate_bsc(bits, 0.0, RngState(1)), bits)
        assert np.array_equal(simulate_bsc(bits, 1.0, RngState(1)), 1 - bits)

    def test_flip_rate(self):
        nbits, p_e = 100_000, 0.2
        out = simulate_bsc(np.zeros(nbits, dtype=np.uint8), p_e, RngState(303))
        z = abs(int(out.sum()) - nbits * p_e) / math.sqrt(nbits * p_e * (1 - p_e))
        assert z <= stats.norm.isf(SIGNIFICANCE / 2)


class TestDeletionSubstitution:
    def test_reduces_to_stages(self):
        bits = [0, 1, 1, 0, 0, 0, 1, 1]
        assert np.array_equal(
            simulate_deletion_substitution(bits, 0.0, 0.0, RngState(9)), bits
        )
        # with p_e = 0 the cascade consumes the same draws as deletion alone
        assert np.array_equal(
            simulate_deletion_substitution(bits, 0.3, 0.0, RngState(9)),
            simulate_deletion(bits, 0.3, RngState(9)),
        )

    def test_joint_length_flip_law(self):
        # all-zeros input: survivor count and flip count are both visible
        trials, n, p_d, p_e = 60_000, 12, 0.2, 0.15
        zeros = np.zeros((trials, n), dtype=np.uint8)
        out, lengths = simulate_deletion_substitution(zeros, p_d, p_e, RngState(404))
        joint = np.zeros((n + 1, n + 1))
        np.add.at(joint, (lengths, row_sums(out, lengths).astype(np.int64)), 1)
        expected = np.zeros_like(joint)
        length_pmf = binom_pmf(n, 1 - p_d)
        for m in range(n + 1):
            expected[m, : m + 1] = trials * length_pmf[m] * binom_pmf(m, p_e)
        assert chi_square_pvalue(joint.ravel(), expected.ravel()) >= SIGNIFICANCE


class TestDeletionAwgn:
    def test_noiseless_mapping(self):
        out = simulate_deletion_awgn([0, 1, 1, 0], 0.0, 0.0, RngState(1))
        assert np.array_equal(out, [1.0, -1.0, -1.0, 1.0])

    def test_noise_moments(self):
        nsamp, sigma = 100_000, 0.7
        received = simulate_deletion_awgn(np.ones(nsamp, dtype=np.uint8), 0.0, sigma, RngState(55))
        noise = received + 1.0
        z = abs(noise.mean()) / (sigma / math.sqrt(nsamp))
        assert z <= stats.norm.isf(SIGNIFICANCE / 2)
        var_stat = noise.var() * nsamp / sigma**2
        assert stats.chi2.ppf(SIGNIFICANCE / 2, nsamp - 1) <= var_stat
        assert var_stat <= stats.chi2.isf(SIGNIFICANCE / 2, nsamp - 1)

    def test_marginal_mixture_density(self):
        sigma, p_d = 1.0, 0.3
        rng = RngState(66)
        x = rng.generator.integers(0, 2, size=30_000, dtype=np.uint8)
        received = simulate_deletion_awgn(x, p_d, sigma, rng)

        def mixture_cdf(v):
            return 0.5 * (
                stats.norm.cdf(v, loc=1.0, scale=sigma) + stats.norm.cdf(v, loc=-1.0, scale=sigma)
            )

        assert stats.kstest(received, mixture_cdf).pvalue >= SIGNIFICANCE

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -0.5])
    def test_invalid_sigma_rejected_before_any_draw(self, sigma):
        rng = RngState(4)
        with pytest.raises(ValueError, match="sigma"):
            simulate_deletion_awgn([0, 1, 1], 0.0, sigma, rng)
        assert rng.generator.random() == RngState(4).generator.random()


class TestGallagerInsertion:
    def test_no_events(self):
        bits = [1, 0, 1, 1, 0]
        assert np.array_equal(simulate_gallager_insertion(bits, 0.0, RngState(2)), bits)

    def test_every_bit_replaced(self):
        out = simulate_gallager_insertion([1, 0, 1], 1.0, RngState(2))
        assert out.size == 6

    def test_event_count_distribution(self):
        trials, n, p_i = 100_000, 20, 0.1
        bits = np.tile(np.uint8([0, 1]), (trials, n // 2))
        _, lengths = simulate_gallager_insertion(bits, p_i, RngState(707))
        counts = np.bincount(lengths - n, minlength=n + 1)
        assert chi_square_pvalue(counts, binom_pmf(n, p_i) * trials) >= SIGNIFICANCE

    def test_single_bit_replacement_uniformity(self):
        trials = 100_000
        out, lengths = simulate_gallager_insertion(
            np.ones((trials, 1), dtype=np.uint8), 0.5, RngState(808)
        )
        first = row_starts(lengths)[lengths == 2]
        quad = np.bincount(2 * out[first] + out[first + 1], minlength=4)
        assert chi_square_pvalue(quad, np.full(4, quad.sum() / 4)) >= SIGNIFICANCE

    def test_empirical_law_matches_enumeration(self):
        # end-to-end distributional check of the simulator against the exact
        # conditional law from the enumeration oracle
        trials, p_i = 200_000, 0.4
        bits = (0, 1)
        law = exact_insertion_conditional_law(bits, p_i)
        out, lengths = simulate_gallager_insertion(np.tile(bits, (trials, 1)), p_i, RngState(909))
        # an output y is coded as 2^len(y) + sum_k y_k 2^k, one integer per row
        place = np.arange(out.size) - np.repeat(row_starts(lengths), lengths)
        codes = (1 << lengths) + row_sums(out.astype(np.int64) << place, lengths).astype(np.int64)
        observed = dict(zip(*np.unique(codes, return_counts=True)))
        keys = sorted(law)
        key_codes = [(1 << len(k)) + sum(b << i for i, b in enumerate(k)) for k in keys]
        assert set(observed) <= set(key_codes)
        obs = [observed.get(c, 0) for c in key_codes]
        exp = [law[k] * trials for k in keys]
        assert chi_square_pvalue(obs, exp) >= SIGNIFICANCE


class TestBitValidation:
    @pytest.mark.parametrize(
        "bits",
        [
            [0.5, 1],
            np.array([256, 1]),
            np.array([1.9, 0.0]),
            [-1, 0],
            [2],
            [[0, 1], [1, 3]],
            [math.nan],
        ],
        ids=["half", "wraps-to-0", "truncates-to-1", "negative", "two", "batch", "nan"],
    )
    @pytest.mark.parametrize("sim,args", SIMULATORS, ids=SIMULATOR_IDS)
    def test_non_bits_rejected_before_any_draw(self, sim, args, bits):
        rng = RngState(12)
        with pytest.raises(ValueError, match="0 or 1"):
            sim(bits, *args, rng)
        assert rng.generator.random() == RngState(12).generator.random()

    @pytest.mark.parametrize(
        "bits", [[True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int64)]
    )
    def test_bools_and_integral_floats_accepted(self, bits):
        out = simulate_deletion(bits, 0.0, RngState(1))
        assert out.dtype == np.uint8
        assert out.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("sim,args", SIMULATORS, ids=SIMULATOR_IDS)
    def test_three_dimensional_input_rejected(self, sim, args):
        with pytest.raises(ValueError, match="batch"):
            sim(np.zeros((2, 2, 2), dtype=np.uint8), *args, RngState(1))


class TestBatchForm:
    BITS = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0]

    def test_block_outputs_pinned(self):
        # sample paths of the block form, recorded before the batch form existed
        def run(sim, *args):
            return sim(self.BITS, *args, RngState(2024)).tolist()

        assert run(simulate_deletion, 0.3) == [0, 1, 0, 1, 1, 0, 0]
        assert run(simulate_bsc, 0.3) == [0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0]
        assert run(simulate_deletion_substitution, 0.3, 0.2) == [1, 1, 1, 1, 1, 0, 0]
        assert run(simulate_deletion_awgn, 0.3, 0.5) == [
            0.4461414824363662,
            -0.25779720715814913,
            1.0244562015347671,
            -0.5942399415092212,
            -1.6882114199872844,
            0.7818146320795903,
            0.35445418332600276,
        ]
        assert run(simulate_gallager_insertion, 0.3) == [
            0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0,
        ]

    def test_deletion_batch_equals_sequential_blocks(self):
        batch = np.random.default_rng(3).integers(0, 2, size=(7, 9), dtype=np.uint8)
        symbols, lengths = simulate_deletion(batch, 0.4, RngState(21))
        rng = RngState(21)
        blocks = [simulate_deletion(row, 0.4, rng) for row in batch]
        assert lengths.tolist() == [b.size for b in blocks]
        assert np.array_equal(symbols, np.concatenate(blocks))

    def test_bsc_batch_equals_sequential_blocks(self):
        batch = np.random.default_rng(4).integers(0, 2, size=(7, 9), dtype=np.uint8)
        out = simulate_bsc(batch, 0.4, RngState(22))
        rng = RngState(22)
        assert out.shape == batch.shape
        assert np.array_equal(out, np.stack([simulate_bsc(row, 0.4, rng) for row in batch]))

    @pytest.mark.parametrize("sim,args", SIMULATORS, ids=SIMULATOR_IDS)
    def test_one_row_batch_equals_block(self, sim, args):
        block = sim(self.BITS, *args, RngState(23))
        batch = sim([self.BITS], *args, RngState(23))
        if sim is simulate_bsc:
            assert np.array_equal(batch, [block])
        else:
            symbols, lengths = batch
            assert np.array_equal(symbols, block)
            assert lengths.tolist() == [block.size]

    @pytest.mark.parametrize(
        "sim,args",
        SIMULATORS[2:],  # the two-stage simulators: del-sub, del-AWGN, insertion
        ids=SIMULATOR_IDS[2:],
    )
    def test_batch_equals_flattened_block_split_by_lengths(self, sim, args):
        batch = np.random.default_rng(5).integers(0, 2, size=(6, 8), dtype=np.uint8)
        symbols, lengths = sim(batch, *args, RngState(24))
        assert np.array_equal(symbols, sim(batch.ravel(), *args, RngState(24)))
        # the first stage's draws are one uniform per input bit, row-major
        first_stage = RngState(24).generator.random(batch.shape)
        if sim is simulate_gallager_insertion:
            expected = batch.shape[1] + (first_stage < args[0]).sum(axis=1)
        else:
            expected = (first_stage >= args[0]).sum(axis=1)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == expected.tolist()

    @pytest.mark.parametrize("sim,args", SIMULATORS, ids=SIMULATOR_IDS)
    def test_zero_rows(self, sim, args):
        rng = RngState(25)
        out = sim(np.zeros((0, 5), dtype=np.uint8), *args, rng)
        if sim is simulate_bsc:
            assert out.shape == (0, 5)
        else:
            symbols, lengths = out
            assert symbols.size == 0 and lengths.size == 0
            assert lengths.dtype == np.int64
        assert rng.generator.random() == RngState(25).generator.random()

    def test_degenerate_probabilities(self):
        batch = np.random.default_rng(6).integers(0, 2, size=(4, 5), dtype=np.uint8)
        n = batch.shape[1]
        for sim, args, size in [
            (simulate_deletion, (0.0,), n),
            (simulate_deletion_substitution, (0.0, 0.0), n),
            (simulate_gallager_insertion, (0.0,), n),
        ]:
            symbols, lengths = sim(batch, *args, RngState(26))
            assert np.array_equal(symbols, batch.ravel())
            assert lengths.tolist() == [size] * 4
        for sim, args in [
            (simulate_deletion, (1.0,)),
            (simulate_deletion_substitution, (1.0, 0.5)),
            (simulate_deletion_awgn, (1.0, 0.5)),
        ]:
            symbols, lengths = sim(batch, *args, RngState(26))
            assert symbols.size == 0
            assert lengths.tolist() == [0] * 4
        symbols, lengths = simulate_gallager_insertion(batch, 1.0, RngState(26))
        assert lengths.tolist() == [2 * n] * 4
        assert symbols.size == 8 * n
        assert np.array_equal(simulate_bsc(batch, 0.0, RngState(26)), batch)
        assert np.array_equal(simulate_bsc(batch, 1.0, RngState(26)), 1 - batch)
        symbols, _ = simulate_deletion_substitution(batch, 0.0, 1.0, RngState(26))
        assert np.array_equal(symbols, 1 - batch.ravel())
        symbols, _ = simulate_deletion_awgn(batch, 0.0, 0.0, RngState(26))
        assert np.array_equal(symbols, 1.0 - 2.0 * batch.ravel())


class TestSimulatorChecks:
    def test_checks_make_few_simulator_calls(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for name in channels.__all__:
            if name.startswith("simulate_"):
                monkeypatch.setattr(channels, name, counted(getattr(channels, name)))
        checks = run_simulator_checks(scale=0.05)
        assert all(c.passed for c in checks), [str(c) for c in checks if not c.passed]
        assert 0 < len(calls) <= 100


# degrees of freedom from one bin to the registered noise-variance test's 10^6
# samples; at large k the tails near the mean test the series, the continued
# fraction and the saddle-point prefactor where they cancel most
_CHI2_DOF = [1, 2, 5, 20, 440, 999, 49_999, 999_999]


class TestStatisticalTestsAgainstScipy:
    @pytest.mark.parametrize("k", _CHI2_DOF)
    def test_chi_square_tails(self, k):
        probabilities = [1e-4, 5e-4, 0.01, 0.3, 0.5, 0.9] + ([1e-12, 1e-8] if k < 10**5 else [])
        for q in probabilities:
            for x in (stats.chi2.isf(q, k), stats.chi2.ppf(q, k)):
                assert _chi2_tail(x, k) == pytest.approx(stats.chi2.sf(x, k), rel=1e-12, abs=0)
                assert _chi2_tail(x, k, upper=False) == pytest.approx(stats.chi2.cdf(x, k), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [1, 999, 49_999, 999_999])
    def test_two_sided_pvalues_decide_as_the_cuts(self, k):
        # statistics from 1e-2 down to 1e-11 relative on either side of each cut
        offsets = np.concatenate([-np.logspace(-2, -11, 10), np.logspace(-11, -2, 10)])
        lo, hi = stats.chi2.ppf(SIGNIFICANCE / 2, k), stats.chi2.isf(SIGNIFICANCE / 2, k)
        for x in np.concatenate([lo * (1 + offsets), hi * (1 + offsets)]).tolist():
            assert (_chi2_two_sided(x, k) >= SIGNIFICANCE) == (lo <= x <= hi), x
        if k == 1:
            # the normal test of a mean, as a chi-square test of z^2
            z_cut = stats.norm.isf(SIGNIFICANCE / 2)
            for z in (z_cut * (1 + offsets)).tolist():
                assert (_chi2_tail(z * z, 1) >= SIGNIFICANCE) == (z <= z_cut), z

    @pytest.mark.parametrize("n", [1000, 9500, 190_000])
    def test_ks_pvalue_near_exact_law(self, n):
        # scaled statistics whose exact p-values span about 0.96 down to 1e-5
        for d in np.linspace(0.5, 2.5, 11) / math.sqrt(n):
            assert _ks_pvalue(d, n) == pytest.approx(stats.kstwo.sf(d, n), rel=0.03)

    def test_ks_pvalue_limits(self):
        assert _ks_pvalue(0.0, 1000) == 1.0
        assert _ks_pvalue(1e-4, 1000) == 1.0
        assert _ks_pvalue(1.0, 1000) == 0.0

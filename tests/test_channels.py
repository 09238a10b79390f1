import math
from math import comb

import numpy as np
import pytest
from scipy import stats

from synchan.channels import (
    RngState,
    simulate_bsc,
    simulate_deletion,
    simulate_deletion_awgn,
    simulate_deletion_substitution,
    simulate_gallager_insertion,
)
from synchan.combinatorics import subsequence_weight
from synchan.oracle import exact_insertion_conditional_law

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
        rng = RngState(101)
        bits = [0, 1] * (n // 2)
        counts = np.zeros(n + 1)
        for _ in range(trials):
            counts[simulate_deletion(bits, p_d, rng).size] += 1
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
        rng = RngState(404)
        zeros = np.zeros(n, dtype=np.uint8)
        joint = np.zeros((n + 1, n + 1))
        for _ in range(trials):
            out = simulate_deletion_substitution(zeros, p_d, p_e, rng)
            joint[out.size, int(out.sum())] += 1
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
        rng = RngState(707)
        bits = [0, 1] * (n // 2)
        counts = np.zeros(n + 1)
        for _ in range(trials):
            counts[simulate_gallager_insertion(bits, p_i, rng).size - n] += 1
        assert chi_square_pvalue(counts, binom_pmf(n, p_i) * trials) >= SIGNIFICANCE

    def test_single_bit_replacement_uniformity(self):
        trials = 100_000
        rng = RngState(808)
        quad = np.zeros(4)
        for _ in range(trials):
            out = simulate_gallager_insertion([1], 0.5, rng)
            if out.size == 2:
                quad[2 * out[0] + out[1]] += 1
        assert chi_square_pvalue(quad, np.full(4, quad.sum() / 4)) >= SIGNIFICANCE

    def test_empirical_law_matches_enumeration(self):
        # end-to-end distributional check of the simulator against the exact
        # conditional law from the enumeration oracle
        trials, p_i = 200_000, 0.4
        bits = (0, 1)
        law = exact_insertion_conditional_law(bits, p_i)
        rng = RngState(909)
        observed: dict[tuple, int] = {}
        for _ in range(trials):
            key = tuple(int(b) for b in simulate_gallager_insertion(bits, p_i, rng))
            observed[key] = observed.get(key, 0) + 1
        keys = sorted(law)
        assert set(observed) <= set(keys)
        obs = [observed.get(k, 0) for k in keys]
        exp = [law[k] * trials for k in keys]
        assert chi_square_pvalue(obs, exp) >= SIGNIFICANCE

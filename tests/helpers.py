"""Brute-force enumeration, high-precision and reference helpers shared by several test modules.

The brute-force helpers are deliberately written in the most direct way
possible (string enumeration, integer counting, mpmath sums) so they stay
independent of the library code they check.  The reference code at the end
(run-length coding, per-run deletion patterns, random run profiles, the
deletion-AWGN pattern mixture, the small-p deletion capacity expansion, and
the earlier float and reshape forms of two oracle kernels, which the kernels
must match bit for bit) is what only the tests call.  ``run_python`` runs code in a fresh
interpreter.
"""

import functools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

import mpmath
import numpy as np

import synchan
from synchan import oracle
from synchan.bounds import capacity_expansion_constant
from synchan.channels import RngState
from synchan.combinatorics import _RUN_WEIGHT_FLOOR
from synchan.numerics import LN2, binary_entropy
from synchan.oracle import OracleResourceError


def run_python(*args, timeout=60, cwd=None):
    """Run the interpreter with ``args`` in ``cwd``, importing the same synchan as the tests."""
    env = dict(os.environ, PYTHONPATH=str(Path(synchan.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout, cwd=cwd
    )


def all_bit_strings(n):
    for code in range(1 << n):
        yield tuple((code >> i) & 1 for i in range(n))


def runs_of(bits):
    lengths = []
    current, count = bits[0], 0
    for b in bits:
        if b == current:
            count += 1
        else:
            lengths.append(count)
            current, count = b, 1
    lengths.append(count)
    return lengths


def brute_mean_pattern_log_weight(n, j):
    """i.u.d. average log2 per-run splitting multiplicity, by full enumeration."""
    total = 0.0
    for bits in all_bit_strings(n):
        for nk in runs_of(bits):
            for jk in range(1, min(j, nk) + 1):
                if j - jk > n - nk:
                    continue
                total += comb(nk, jk) * comb(n - nk, j - jk) * math.log2(comb(nk, jk))
    return total / (2**n * comb(n, j))


def brute_single_insertion_log_weight(n):
    """Defining per-sequence average of the single-insertion run-count terms."""
    total = 0.0
    for bits in all_bit_strings(n):
        r = runs_of(bits)
        if len(r) == 1:
            continue
        total += (r[0] + 1) * math.log2(r[0] + 1) + (r[-1] + 1) * math.log2(r[-1] + 1)
        for nk in r[1:-1]:
            total += (nk + 2) * math.log2(nk + 2)
    return total / (2 ** (n + 2) * n) + math.log2(n) / 2 ** (n + 1)


def scalar_single_insertion_sum(n, interior_coeff):
    """The single-insertion weight as a loop over run lengths l, with ``interior_coeff(l)``.

    The scalar form that ``_single_insertion_weights`` replaced, the weight of the
    scalar insertion rate: ``lambda l: n + 1 - l`` gives the printed weight,
    ``lambda l: (n - l - 1) / 2.0`` the exact one.
    """
    terms = []
    for l in range(1, n):
        w = 2.0**-l
        if w * (n + 3) * (l + 2) * math.log2(l + 2) < _RUN_WEIGHT_FLOOR:
            break
        terms.append(
            w
            * (
                interior_coeff(l) * (l + 2) * math.log2(l + 2)
                + 2 * (l + 1) * math.log2(l + 1)
            )
        )
    return math.fsum(terms) / (4 * n) + math.ldexp(math.log2(n), -(n + 1))


def scalar_insertion_rate(n, p_i, weight):
    """The insertion bound at one point, as the scalar formula the grid path replaced."""
    log_keep = math.log1p(-p_i) if p_i < 1.0 else -math.inf
    base = math.exp(n * log_keep)
    q = p_i * math.exp((n - 1) * log_keep)
    multi_mass = max(0.0, -math.fsum([-1.0, base, n * q, p_i**n, n * p_i ** (n - 1) * (1.0 - p_i)]))
    return math.fsum(
        [
            base,
            -binary_entropy(p_i),
            (weight - (3 * n + 1) / (4 * n) + n) * q,
            multi_mass * math.log2(n * (n - 1) / 2) / n,
            p_i ** (n - 1) * (1.0 - p_i) * math.log2(n),
        ]
    )


def brute_subsequence_counts(bits):
    """Map each deletion output of ``bits`` to its number of index sets."""
    n = len(bits)
    counts = {}
    for m in range(n + 1):
        for keep in combinations(range(n), m):
            y = tuple(bits[i] for i in keep)
            counts[y] = counts.get(y, 0) + 1
    return counts


def subsequence_weight(x, y):
    """Number of distinct deletion index sets carrying x onto y.

    Equivalently, the number of embeddings of y as a subsequence of x.
    Exact integer dynamic program, O(len(x) * len(y)).
    """
    x = tuple(int(b) for b in x)
    y = tuple(int(b) for b in y)
    if len(y) > len(x):
        raise ValueError("y cannot be longer than x")
    ways = [0] * (len(y) + 1)
    ways[0] = 1
    for xi in x:
        for j in range(len(y), 0, -1):
            if y[j - 1] == xi:
                ways[j] += ways[j - 1]
    return ways[len(y)]


def count_law_by_length(law, n):
    """Split a packed insertion count law of an n-symbol input into its output lengths n..2n.

    The packed law holds the count of the m-bit output y at index 2^m + y.
    """
    return [law[2**m : 2 ** (m + 1)] for m in range(n, 2 * n + 1)]


def exact_block_entropy(n, p):
    """Binomial block entropy summed at 220-bit precision; oracle for block_entropy."""
    if n > 64:
        raise OracleResourceError(f"high-precision block entropy supports n <= 64, got {n}")
    if p in (0.0, 1.0):
        return 0.0
    with mpmath.workprec(220):
        mp = mpmath.mpf(p)
        total = mpmath.mpf(0)
        for j in range(n + 1):
            mass = comb(n, j) * mp**j * (1 - mp) ** (n - j)
            total -= mass * mpmath.log(mass, 2)
        return float(total)


def mp_pattern_log_weight(n, j, digits=40):
    """W_j(n) summed over run lengths l in mpmath, with the hypergeometric
    terms of each l advanced by their ratio and a tail below 1e-45."""
    with mpmath.workdps(digits):
        total = mpmath.mpf(2) ** (1 - n) * mpmath.log(mpmath.binomial(n, j), 2)
        for l in range(1, n):
            runs = mpmath.mpf(2) ** (-l - 1) * (n - l + 3)
            if runs * n < mpmath.mpf(10) ** -45:
                break
            first, last = max(1, j - (n - l)), min(j, l)
            if first > last:
                continue
            hyper = mpmath.binomial(l, first) * mpmath.binomial(n - l, j - first)
            hyper /= mpmath.binomial(n, j)
            inner = mpmath.mpf(0)
            for jp in range(first, last + 1):
                inner += hyper * mpmath.log(mpmath.binomial(l, jp), 2)
                hyper *= mpmath.mpf((l - jp) * (j - jp)) / ((jp + 1) * (n - l - j + jp + 1))
            total += runs * inner
        return float(total)


@functools.lru_cache(maxsize=None)
def _mp_log2_binomials(run_cut, digits):
    """log2 C(l, k) for 0 <= k <= l <= run_cut, in mpmath."""
    with mpmath.workdps(digits):
        return [[mpmath.log(comb(l, k), 2) for k in range(l + 1)] for l in range(run_cut + 1)]


@functools.lru_cache(maxsize=None)
def _mp_run_gains(p, run_cut, digits):
    """g_l(p) = E[log2 C(l, K)], K ~ Bin(l, p), for l = 0..run_cut and 0 <= p < 1, in mpmath."""
    logs = _mp_log2_binomials(run_cut, digits)
    with mpmath.workdps(digits):
        p, q = mpmath.mpf(p), 1 - mpmath.mpf(p)
        gains = []
        for l in range(run_cut + 1):
            pmf, gain = q**l, mpmath.mpf(0)
            for k in range(l + 1):
                gain += pmf * logs[l][k]
                pmf *= p * (l - k) / ((k + 1) * q)
            gains.append(gain)
        return tuple(gains)


def mp_pattern_gain(n, p, run_cut=160, digits=40):
    """The deletion-family pattern gain (1/n) sum_l E_l(n) g_l(p) in mpmath, as an mpf.

    E_l(n), the mean number of runs of length l in n uniform bits, is
    2^(-l-1) (n - l + 3) for l < n and 2^(1-n) for l = n; g_l(p) is
    E[log2 C(l, K)] with K ~ Bin(l, p), since the Bin(n, p) deletions of a
    block hit a run of length l Bin(l, p) times.  Runs longer than
    ``run_cut`` are dropped: g_l <= l bounds their share by
    (n + 3)/n * sum_{l > 160} l 2^(-l-1), below 1e-46.
    """
    gains = _mp_run_gains(p, run_cut, digits)
    with mpmath.workdps(digits):
        two = mpmath.mpf(2)
        total = mpmath.fsum(two ** (-l - 1) * (n - l + 3) * gains[l] for l in range(1, min(n, run_cut + 1)))
        if n <= run_cut:
            total += two ** (1 - n) * gains[n]
        return total / n


@functools.lru_cache(maxsize=None)
def _mp_insertion_run_terms(run_cut, digits):
    """2^-l (l+2) log2(l+2) and 2^-l 2 (l+1) log2(l+1) for l = 1..run_cut, in mpmath."""
    with mpmath.workdps(digits):
        two = mpmath.mpf(2)
        return tuple(
            (two**-l * (l + 2) * mpmath.log(l + 2, 2), two**-l * 2 * (l + 1) * mpmath.log(l + 1, 2))
            for l in range(1, run_cut + 1)
        )


def mp_single_insertion_weight(n, exact=False, run_cut=200, digits=50):
    """The printed single-insertion weight, or the exact one, summed term by term in mpmath, as an mpf.

    The sum over l = 1..n-1 of 2^-l (c (l+2) log2(l+2) + 2 (l+1) log2(l+1)),
    with c = n + 1 - l printed and (n - l - 1)/2 exact, over 4n, plus
    2^(-n-1) log2(n).  Runs longer than ``run_cut`` are dropped: c <= n + 1
    bounds their share of the weight by about 2^-run_cut run_cut^2, below 1e-55.
    """
    terms = _mp_insertion_run_terms(run_cut, digits)[: min(n - 1, run_cut)]
    with mpmath.workdps(digits):
        c = [mpmath.mpf(n - l - 1) / 2 if exact else n + 1 - l for l in range(1, len(terms) + 1)]
        total = mpmath.fdot(c, [a for a, _ in terms]) + mpmath.fsum(b for _, b in terms)
        return total / (4 * n) + mpmath.ldexp(mpmath.log(n, 2), -(n + 1))


def mp_deletion_small_p_coefficients(n, digits=50):
    """The small-p deletion coefficients of (p, p^2, p^3, p^4) from W_1(n) and W_2(n) in mpmath, as mpfs.

    W_j(n) is E_n(n) log2 C(n, j) plus the sum over l < n of E_l(n), the mean
    number of runs of length l, times the mean log2 C(l, j') of the j' of j
    uniform deletions that land in a run of length l (hypergeometric).  The
    coefficients are W_1 - 1, (n-1)/2 (W_2 - 2 W_1), C(n-1, 2)(W_1 - W_2) and
    -C(n-1, 3) W_1.  W_2 - 2 W_1 is of order 1/n, so the sums carry
    2 log10(n) more digits than ``digits``.  Runs longer than
    L = 200 + log2(n) are dropped: W_1 and W_2 lose below 2^-L L^2 each,
    which moves c2 by below 1e-50.
    """
    dps = digits + 2 * len(str(n)) + 10
    logs = _mp_run_logs(200 + n.bit_length(), dps)[: n - 1]
    with mpmath.workdps(dps):
        two, pairs = mpmath.mpf(2), mpmath.mpf(comb(n, 2))
        runs = [two ** (-l - 1) * (n - l + 3) for l in range(1, len(logs) + 1)]
        # one deletion in the run, with probability l/n, or of two, one with l(n - l)/C(n, 2)
        # and both with C(l, 2)/C(n, 2)
        w1 = mpmath.fdot(runs, [l * log_l for l, (log_l, _) in enumerate(logs, 1)]) / n
        w2 = mpmath.fdot(runs, [l * (n - l) * log_l + both for l, (log_l, both) in enumerate(logs, 1)])
        w2 /= pairs
        w1 += two ** (1 - n) * mpmath.log(n, 2)
        w2 += two ** (1 - n) * mpmath.log(pairs, 2)
        return w1 - 1, (n - 1) * (w2 - 2 * w1) / 2, comb(n - 1, 2) * (w1 - w2), -comb(n - 1, 3) * w1


@functools.lru_cache(maxsize=None)
def _mp_run_logs(run_cut, dps):
    """(log2 l, C(l, 2) log2 C(l, 2)) for l = 1..run_cut, in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        pairs = [comb(l, 2) for l in range(1, run_cut + 1)]
        return tuple((mpmath.log(l, 2), k * mpmath.log(max(k, 1), 2)) for l, k in enumerate(pairs, 1))


@dataclass(frozen=True)
class RunLengthSequence:
    """A binary sequence as (b; n_1, ..., n_K): first-run symbol plus run lengths.

    ``run_lengths`` is empty only for the empty sequence, which ``encode``
    never produces.
    """

    first_bit: int
    run_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.first_bit not in (0, 1):
            raise ValueError(f"first_bit must be 0 or 1, got {self.first_bit!r}")
        if any(r < 1 for r in self.run_lengths):
            raise ValueError(f"run lengths must be positive, got {self.run_lengths!r}")

    @property
    def length(self) -> int:
        return sum(self.run_lengths)


def encode(bits):
    """Run-length encode a non-empty binary sequence."""
    bits = tuple(bits)
    if not bits:
        raise ValueError("cannot encode an empty sequence")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    bits = tuple(int(b) for b in bits)
    lengths = []
    current, count = bits[0], 0
    for b in bits:
        if b == current:
            count += 1
        else:
            lengths.append(count)
            current, count = b, 1
    lengths.append(count)
    return RunLengthSequence(bits[0], tuple(lengths))


def deletion_patterns(runs):
    """Every per-run deletion pattern (d_1, ..., d_K), 0 <= d_k <= n_k, one row each.

    The prod(n_k + 1) rows, whatever the number of deletions, are in
    lexicographic order.
    """
    sizes = [r + 1 for r in runs]
    return np.indices(sizes).reshape(len(sizes), math.prod(sizes)).T


def random_run_profile(gen, n):
    """The run lengths of an n-bit block, each drawn uniformly from 1 to the bits left."""
    lengths = []
    remaining = n
    while remaining:
        r = int(gen.integers(1, remaining + 1))
        lengths.append(r)
        remaining -= r
    return tuple(lengths)


def enumerate_deletion_patterns(runs, d):
    """Yield every per-run deletion pattern (d_1, ..., d_K), 0 <= d_k <= n_k, summing to d.

    The patterns are the rows of :func:`deletion_patterns`, in its order.
    """
    runs = tuple(runs)
    if d < 0 or d > sum(runs):
        raise ValueError(f"d must lie in [0, {sum(runs)}], got {d}")
    patterns = deletion_patterns(runs)
    yield from map(tuple, patterns[patterns.sum(axis=1) == d].tolist())


def pattern_mixture(x, d):
    """Survivor symbol vectors and their conditional weights for d deletions."""
    total = comb(x.length, d)
    vectors = []
    weights = []
    for pattern in enumerate_deletion_patterns(x.run_lengths, d):
        weight = math.prod(comb(nk, dk) for nk, dk in zip(x.run_lengths, pattern))
        survivors = []
        bit = x.first_bit
        for nk, dk in zip(x.run_lengths, pattern):
            survivors.extend([1.0 - 2.0 * bit] * (nk - dk))
            bit ^= 1
        vectors.append(tuple(survivors))
        weights.append(weight / total)
    return vectors, weights


def deletion_awgn_pattern_entropy_bound(x, d, sigma):
    """Closed-form upper bound on the d-deletion AWGN output entropy given x.

    (n-d) log2(sigma sqrt(2 pi e)) + log2 C(n,d) minus the mean log2 pattern
    multiplicity, treating distinct deletion patterns as distinct outputs.
    """
    n = x.length
    if not 0 <= d <= n:
        raise ValueError(f"d must lie in [0, {n}], got {d}")
    _, weights = pattern_mixture(x, d)
    total = comb(n, d)
    pattern_term = math.fsum(w * math.log2(w * total) for w in weights if w > 0)
    return (
        (n - d) * math.log2(sigma * math.sqrt(2.0 * math.pi * math.e))
        + math.log2(total)
        - pattern_term
    )


def mc_deletion_awgn_pattern_entropy(x, d, sigma, samples=200_000, seed=0):
    """Monte-Carlo estimate (value, std error) of the d-deletion AWGN output entropy.

    Samples from the true pattern mixture and averages -log2 of its density,
    so the estimate converges to the exact differential entropy that
    :func:`deletion_awgn_pattern_entropy_bound` upper-bounds.
    """
    n = x.length
    if not 0 <= d < n:
        raise ValueError(f"d must lie in [0, {n}), got {d}")
    vectors, weights = pattern_mixture(x, d)
    centers = np.array(vectors)
    probs = np.array(weights)
    gen = RngState(seed).generator
    dim = n - d
    choice = gen.choice(len(probs), size=samples, p=probs)
    y = centers[choice] + sigma * gen.standard_normal((samples, dim))
    # log density of the pattern mixture, stabilized over patterns
    sq = ((y[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    log_terms = np.log(probs)[None, :] - sq / (2.0 * sigma**2)
    peak = log_terms.max(axis=1)
    log_density = (
        peak
        + np.log(np.exp(log_terms - peak[:, None]).sum(axis=1))
        - dim * math.log(sigma * math.sqrt(2.0 * math.pi))
    )
    values = -log_density / LN2
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(samples))
    return estimate, std_error


def capacity_expansion_deletion(p_d):
    """Dominant terms 1 + p log2(p) - A1*p of the small-p deletion capacity.

    Diagnostic comparison curve only: the omitted remainder is O(p^1.4), so
    this is not a lower bound.
    """
    if not 0.0 < p_d < 1.0:
        raise ValueError(f"p_d must lie in (0, 1), got {p_d!r}")
    return 1.0 + p_d * math.log2(p_d) - capacity_expansion_constant() * p_d


def float_deletion_sums(n):
    """The oracle's (1, 4, n + 1) deletion sums at p_e = 0, from float laws.

    Each chunk of survivor counts becomes a float law whose per-input sums of
    p log2 p and p are weighted by orbit size and fsummed, as the kernel did
    before it read c log2 c from a table of the integer counts.
    """

    def slog(law, axis=None):
        return (law * np.log2(law, out=np.zeros_like(law), where=law > 0)).sum(axis=axis)

    inputs, weight = oracle._orbit_representatives(n)
    sums = np.zeros((1, 4, n + 1))
    sums[0, :, n] = -(1 << n) * n * binary_entropy(0.0), 1 << n, 0.0, 1 << n
    for m, aggregate in enumerate(oracle.deletion_output_multiplicities(n)[:n]):
        slogs, masses = [], []
        for rows, counts in oracle._survivor_counts(n, m, inputs):
            law = counts.astype(np.float64)
            slogs.extend((weight[rows] * slog(law, axis=1)).tolist())
            masses.extend((weight[rows] * law.sum(axis=1)).tolist())
        total = aggregate.astype(np.float64)
        sums[0, :, m] = math.fsum(slogs), math.fsum(masses), slog(total), math.fsum(total)
    return sums


def reshaped_insertion_count_law(bits):
    """The packed insertion count law of ``bits``, added in through a (size, 2) reshape per symbol."""
    law = np.array([0, 1], dtype=np.int64)
    for keep_weights in np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)[list(bits)]:
        new = np.repeat(law * keep_weights.sum(), 4)
        new[: 2 * law.size].reshape(-1, 2)[:, :] += law[:, None] * keep_weights
        law = new
    return law

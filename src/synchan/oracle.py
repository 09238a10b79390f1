"""Exact small-block enumeration oracles and Monte-Carlo cross-checks.

Everything here is ground truth for the closed forms in
:mod:`synchan.bounds`: exact output laws, entropies, and mutual information
for i.u.d. inputs over the deletion, deletion-substitution, and random
insertion channels, plus Monte-Carlo checks for the continuous-output
deletion-AWGN channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, product
from typing import Sequence

import numpy as np

from .bounds import ChannelParams, deletion_substitution_bound, evaluate_bound, random_insertion_bound
from .channels import RngState, _as_bits
from .numerics import (
    LN2,
    _check_integer,
    _check_probability,
    _check_sigma,
    awgn_expectation,
    binary_entropy,
    block_entropy,
)

__all__ = [
    "OracleResourceError",
    "Comparison",
    "EntropyReport",
    "deletion_output_multiplicities",
    "insertion_output_multiplicities",
    "exact_deletion_substitution_entropies",
    "exact_insertion_entropies",
    "exact_insertion_conditional_law",
    "mc_awgn_entropy_check",
]

MAX_DELETION_COUNT_N = 14
MAX_DELETION_ENTROPY_N = 12
MAX_INSERTION_N = 9


class OracleResourceError(RuntimeError):
    """The requested block length exceeds the oracle's enumeration budget."""


def _check_limit(n: int, limit: int, what: str) -> int:
    """``n`` as an int of at least 1, else a ValueError; an OracleResourceError above ``limit``."""
    n = _check_integer(n, what, minimum=1)
    if n > limit:
        raise OracleResourceError(f"{what} supports n <= {limit}, got {n}")
    return n


@dataclass(frozen=True)
class Comparison:
    """One verdict of a verification chain: ``value`` vs ``reference``.

    ``relation`` is one of "le", "ge", "eq"; ``margin`` is the signed slack
    (nonnegative when the relation holds exactly) and ``holds`` applies the
    stated tolerance.
    """

    label: str
    value: float
    reference: float
    relation: str
    margin: float
    holds: bool
    tolerance: float

    @classmethod
    def make(cls, label: str, value: float, reference: float, relation: str, tolerance: float):
        if relation == "le":
            margin = reference - value
        elif relation == "ge":
            margin = value - reference
        elif relation == "eq":
            margin = -abs(value - reference)
        else:
            raise ValueError(f"unknown relation {relation!r}")
        return cls(label, value, reference, relation, margin, margin >= -tolerance, tolerance)


@dataclass(frozen=True)
class EntropyReport:
    """Exact entropies for one channel instance plus closed-form comparisons."""

    channel: str
    n: int
    output_entropy: float
    conditional_entropy: float
    mutual_information: float
    block_entropy: float
    bound_chain: tuple[Comparison, ...]


# ---------------------------------------------------------------------------
# deletion-side enumeration
# ---------------------------------------------------------------------------

# entries per array in one chunk of inputs (256 KiB); of 2^13 to 2^16, 2^14 and 2^15 run fastest
_CHUNK_ELEMENTS = 1 << 15


def _gather_bits(width: int, masks: np.ndarray) -> np.ndarray:
    """``out[v, s]``: the bits of each width-bit value v at the set bits of masks[s], packed."""
    values = np.arange(1 << width, dtype=np.int64)[:, None]
    out = np.zeros((values.size, masks.size), dtype=np.int64)
    rank = np.zeros(masks.size, dtype=np.int64)  # set bits of each mask below bit k
    for k in range(width):
        bit = (masks >> k) & 1
        out |= ((values >> k) & bit) << rank
        rank += bit
    return out


def _reversed_codes(width: int) -> np.ndarray:
    """``out[v]``: the width-bit value v with its bits in reverse order."""
    values = np.arange(1 << width, dtype=np.int64)
    out = np.zeros_like(values)
    for k in range(width):
        out |= ((values >> k) & 1) << (width - 1 - k)
    return out


def _orbit_representatives(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One n-bit input per orbit of {identity, complement, reversal, both}, and its orbit's size.

    Every representative ends in 0.  Of an input x ending in 0, the reversal
    or, if x starts with 1, the complemented reversal ends in 0 too; the
    smaller of the two codes represents an orbit of 4, or of 2 where they
    coincide (palindromes, and complemented palindromes).
    """
    inputs = np.arange(1 << (n - 1), dtype=np.int64)
    mirror = _reversed_codes(n)[inputs] ^ np.where(inputs & 1, (1 << n) - 1, 0)
    keep = inputs <= mirror
    return inputs[keep], np.where(inputs[keep] == mirror[keep], 2, 4)


def _survivor_counts(n: int, m: int, inputs: np.ndarray):
    """Yield ``(rows, S)`` over consecutive slices ``rows`` of ``inputs``, an array of n-bit codes.

    ``S[i, y]`` counts the size-m keep sets of input ``inputs[rows][i]``
    whose survivor string is ``y``, looked up for the first h symbols and the
    rest in two small tables.  Codes are little-endian: bit k of an input or
    an output is its k-th symbol.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    masks = masks[np.bitwise_count(masks) == m]
    h = n // 2
    low = masks & ((1 << h) - 1)
    head = _gather_bits(h, low)
    tail = _gather_bits(n - h, masks >> h) << np.bitwise_count(low).astype(np.int64)
    step = max(1, _CHUNK_ELEMENTS // max(masks.size, 1 << m))
    for start in range(0, inputs.size, step):
        rows = slice(start, start + step)
        chunk = inputs[rows]
        # (row within the chunk, survivor code) as one bincount index
        index = head[chunk & ((1 << h) - 1)] | tail[chunk >> h]
        index |= np.arange(chunk.size, dtype=np.int64)[:, None] << m
        counts = np.bincount(index.ravel(), minlength=chunk.size << m)
        yield rows, counts.reshape(chunk.size, 1 << m)


def _orbit_aggregate(weighted: np.ndarray) -> np.ndarray:
    """The survivor counts summed over all inputs, from A = sum of w S over the representatives.

    Complementing an input complements its survivors (y -> 2^m - 1 - y, a
    flip of the array) and reversing it reverses them, so the orbit of a
    representative adds S, S o c, S o r and S o cr: (A + A o c + A o r + A o cr) / 4
    counts each orbit of 4 once and each orbit of 2, whose S is fixed by r
    or by cr, twice at weight 2.  Integer arithmetic keeps the division exact.
    """
    flipped = weighted + weighted[::-1]
    return (flipped + flipped[_reversed_codes(weighted.size.bit_length() - 1)]) // 4


@lru_cache(maxsize=32)
def _bsc_matrix(bits: int, p_e: float) -> np.ndarray:
    """The BSC transition matrix on ``bits`` bits: the Kronecker power of one bit's."""
    return reduce(np.kron, [np.array([[1.0 - p_e, p_e], [p_e, 1.0 - p_e]])] * bits, np.ones((1, 1)))


def _bsc(counts: np.ndarray, p_e: float) -> np.ndarray:
    """Push each row of ``counts``, a law over {0,1}^m, through a BSC.

    The m-bit BSC matrix is the Kronecker product of three matrices on about
    m/3 bits each, applied one at a time as a matrix product on the low bits
    followed by a transpose that rotates the next bits to the bottom.  Every
    entry stays a sum of nonnegative terms, so unlike a Hadamard
    factorisation no small probability can round below zero.
    """
    law = counts.astype(np.float64)
    rows, size = law.shape
    m = size.bit_length() - 1
    for bits in ((m + 2) // 3, (m + 1) // 3, m // 3) if p_e else ():
        law = law.reshape(-1, 1 << bits) @ _bsc_matrix(bits, p_e)
        law = law.reshape(rows, -1, 1 << bits).transpose(0, 2, 1)
    return law.reshape(rows, size)


def _slog(law: np.ndarray, axis=None):
    """Sum of p log2 p over the positive entries of ``law``."""
    return (law * np.log2(law, out=np.zeros_like(law), where=law > 0)).sum(axis=axis)


@lru_cache(maxsize=32)
def _deletion_sums(n: int, p_es: tuple[float, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The p_d-free sums of the deletion-substitution entropies, and the aggregate survivor counts.

    The sums have shape (len(p_es), 4, n + 1).  For the per-input laws
    S = BSC(survivor counts) of length m and their aggregate T = sum_x S,
    entry [i, :, m] holds sum_x sum_y S log2 S, sum_x sum_y S,
    sum_y T log2 T and sum_y T at p_e = p_es[i].  A length factor f > 0
    then turns sum f S log2(f S) into f (sum S log2 S + log2 f sum S).  The
    BSC commutes with complementing and reversing, so the per-input sums
    are enumerated once per orbit (:func:`_orbit_representatives`) and
    weighted by its size, and T is the BSC of the integer aggregate.  Each
    chunk of survivor counts is built once and pushed through the BSC once
    per p_e, in the same order as for a single p_e, so every row equals the
    one-p_e result bit for bit.  At p_e = 0 the BSC is the identity, so a
    row's sum of S log2 S adds a table of c log2 c read at its integer
    counts, and its sum of S is their integer sum.  The integer aggregates,
    one per m, are :func:`deletion_output_multiplicities`.

    Column n, with no deletions, is filled in closed form: each input's one
    keep set makes S the product law BSC(e_x), whose sum of S log2 S is
    -n h(p_e), and T is uniform with every entry 1.  Its aggregate is still
    enumerated, so that the uniformity checks test it.
    """
    inputs, weight = _orbit_representatives(n)
    sums = np.zeros((len(p_es), 4, n + 1))
    for row, p_e in zip(sums, p_es):
        row[:, n] = -(1 << n) * n * binary_entropy(p_e), 1 << n, 0.0, 1 << n
    # c log2 c for every count c an input can give one survivor, read at p_e = 0
    c = np.arange(math.comb(n, n // 2) + 1, dtype=np.float64)
    c_log_c = c * np.log2(c, out=np.zeros_like(c), where=c > 0)
    aggregates = []
    for m in range(n + 1):
        grid = p_es if m < n else ()
        slog, mass = [[] for _ in grid], [[] for _ in grid]
        weighted = np.zeros(1 << m, dtype=np.int64)
        for rows, counts in _survivor_counts(n, m, inputs):
            for i, p_e in enumerate(grid):
                law = _bsc(counts, p_e) if p_e else counts
                row_slog = _slog(law, axis=1) if p_e else c_log_c[counts].sum(axis=1)
                slog[i].extend((weight[rows] * row_slog).tolist())
                mass[i].extend((weight[rows] * law.sum(axis=1)).tolist())
            weighted += weight[rows] @ counts
        aggregates.append(_orbit_aggregate(weighted))
        aggregates[-1].flags.writeable = False
        for i, p_e in enumerate(grid):
            total = _bsc(aggregates[-1][None, :], p_e)[0]
            sums[i, :, m] = math.fsum(slog[i]), math.fsum(mass[i]), _slog(total), math.fsum(total)
    sums.flags.writeable = False
    return sums, tuple(aggregates)


def deletion_output_multiplicities(n: int) -> tuple[np.ndarray, ...]:
    """Aggregate integer deletion multiplicities summed over all inputs.

    Entry ``m`` is an array of length 2^m whose ``y``-th element counts the
    (input, deletion-index-set) pairs producing output ``y`` of length m.
    Per-length uniformity of the i.u.d. output law is equivalent to every
    element of entry m equalling 2^(n-m) * C(n, n-m).
    """
    n = _check_limit(n, MAX_DELETION_COUNT_N, "deletion enumeration")
    return _deletion_sums(n, ())[1]


def _deletion_reports(
    n: int, p_ds: Sequence[float], p_es: Sequence[float]
) -> dict[tuple[float, float], EntropyReport]:
    """Exact deletion-substitution reports for every (p_d, p_e) of a grid, from one survivor pass."""
    n = _check_limit(n, MAX_DELETION_ENTROPY_N, "deletion-substitution enumeration")
    for p_d in p_ds:
        _check_probability(p_d, "p_d")
    sums, _ = _deletion_sums(n, tuple(_check_probability(p_e, "p_e") for p_e in p_es))
    weight = 1.0 / (1 << n)
    reports = {}
    for p_d in p_ds:
        h_t = block_entropy(n, p_d)
        for p_e, (cond_slog, cond_mass, out_slog, out_mass) in zip(p_es, sums):
            cond_terms, out_terms = [], []
            for m in range(n + 1):
                factor = p_d ** (n - m) * (1.0 - p_d) ** m
                if factor > 0:
                    cond_terms.append(factor * (cond_slog[m] + math.log2(factor) * cond_mass[m]))
                factor *= weight
                if factor > 0:
                    out_terms.append(factor * (out_slog[m] + math.log2(factor) * out_mass[m]))
            conditional = -math.fsum(cond_terms) * weight
            output = -math.fsum(out_terms)
            mutual = output - conditional
            bound = deletion_substitution_bound(n, p_d, p_e)
            prop_ub = n * (1.0 - p_d) - n * bound.rate
            chain = (
                Comparison.make("output_entropy_identity", output, n * (1.0 - p_d) + h_t, "eq", 1e-9),
                Comparison.make("conditional_entropy_bound", prop_ub, conditional, "ge", 1e-12),
                Comparison.make("capacity_chain", bound.rate, (mutual - h_t) / n, "le", 1e-12),
            )
            reports[p_d, p_e] = EntropyReport(
                "deletion_substitution", n, output, conditional, mutual, h_t, chain
            )
    return reports


def exact_deletion_substitution_entropies(n: int, p_d: float, p_e: float) -> EntropyReport:
    """Exact H(Y'), H(Y'|X), and I(X;Y') for the deletion-substitution channel."""
    return _deletion_reports(n, (p_d,), (p_e,))[p_d, p_e]


# ---------------------------------------------------------------------------
# insertion-side enumeration
# ---------------------------------------------------------------------------


def _insertion_count_law(bits: Sequence[int]) -> np.ndarray:
    """Integer event counts per output, packed: entry ``(1 << m) | y`` counts the m-bit output y.

    So the (n+j)-bit outputs, with j replacements, are the slice
    [2^(n+j), 2^(n+j+1)), and entries below 2^n are zero.  Every
    (position-set, replacement-choice) event with j replacements has the
    same probability (p/4)^j (1-p)^(n-j), so integer counts determine the
    conditional law for every p at once.  A symbol 2 stands for both bit
    values, summing the two inputs' counts.  Codes are big-endian, so
    appending bits multiplies the packed index: each symbol repeats the law
    four times (a replacement by any bit pair) and adds it into every other
    entry below, from the kept bit on (the symbol kept).
    """
    law = np.array([0, 1], dtype=np.int64)  # the empty output, at index 1 << 0
    for symbol in bits:
        new = np.repeat(2 * law if symbol == 2 else law, 4)
        for kept in (0, 1) if symbol == 2 else (symbol,):
            new[kept : 2 * law.size : 2] += law
        law = new
    return law


def _bits_le(code: int, m: int) -> tuple[int, ...]:
    return tuple((int(code) >> k) & 1 for k in range(m))


def _by_length(law: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The slices of a packed n-symbol count law, one per number j = 0..n of replacements."""
    return tuple(law[1 << (n + j) : 2 << (n + j)] for j in range(n + 1))


@lru_cache(maxsize=MAX_INSERTION_N)
def _insertion_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean of sum_y c_j(x,y) log2 c_j(x,y) over x, packed aggregate count law).

    The mean needs only the histogram of count values over the outputs of x.
    It is the same for x, its complement, its reversal and either last bit
    b: the last step writes c[4q + 2r + s] = B[q] + [s == b] A[2q + r] from
    the laws A, B of the first k = n - 1 bits with j and j - 1
    replacements.  So (by reversal) the first bit does not matter either,
    and the histogram depends only on the orbit of the middle n - 2 bits
    under {identity, complement, reversal, both}: one k-bit prefix
    0 + middle is enumerated per orbit (36 at n = 9), weighted by the
    orbit's size.  In its packed law P, B of entry t is P[t >> 1], so the
    last step is folded in over every j at once: the entries with s == b
    are P + repeat(P[:size / 2], 2), and those with s != b are P's own
    entries twice, one row further on (four times at row n, which has no
    A).  Each is one bincount, with every length offset into its own row.
    """
    aggregate = _insertion_count_law((2,) * n)
    aggregate.flags.writeable = False
    # no input's count exceeds the aggregate count of the same output
    size = 1 + int(aggregate.max())
    # for n <= 2 there is no middle, and the one prefix 0 stands for every input
    middles, weight = _orbit_representatives(n - 2) if n > 2 else (np.zeros(1, int), np.ones(1, int))
    k = n - 1
    # the histogram row of each prefix entry at index 2^k and above: j, of length k + j
    offsets = np.repeat(np.arange(n) * size, 1 << np.arange(k, 2 * k + 1))
    histogram = np.zeros((n + 1) * size, dtype=np.int64)
    for middle, w in zip((middles << 1).tolist(), weight.tolist()):
        law = _insertion_count_law(_bits_le(middle, k))
        folded = (law + np.repeat(law[: law.size // 2], 2))[1 << k :]
        histogram += np.bincount(folded + offsets, minlength=histogram.size) * w
        twice = np.bincount(law[1 << k :] + offsets, minlength=n * size) * (2 * w)
        histogram[size:] += twice
        histogram[n * size :] += twice[k * size :]
    counts = np.arange(2, size)
    terms = (histogram.reshape(n + 1, size)[:, 2:] * (counts * np.log2(counts))).tolist()
    log_weight_mean = np.array([math.fsum(row) for row in terms]) * 2.0 ** (min(n, 2) - n)
    log_weight_mean.flags.writeable = False
    return log_weight_mean, aggregate


def insertion_output_multiplicities(n: int) -> tuple[np.ndarray, ...]:
    """Aggregate integer insertion event counts summed over all inputs.

    Entry ``j`` is an array over all (n+j)-bit outputs counting the
    (input, event) combinations with exactly j replacements.  Per-length
    uniformity of the i.u.d. output law is equivalent to every element of
    entry j equalling 2^j * C(n, j).
    """
    n = _check_limit(n, MAX_INSERTION_N, "insertion enumeration")
    return _by_length(_insertion_tables(n)[1], n)


def _insertion_alpha(n: int, p_i: float) -> np.ndarray:
    """(p/4)^j (1-p)^(n-j) for j = 0..n; 0^0 = 1 makes the endpoints exact."""
    j = np.arange(n + 1)
    return (p_i / 4.0) ** j * (1.0 - p_i) ** (n - j)


def exact_insertion_entropies(n: int, p_i: float) -> EntropyReport:
    """Exact H(Y), H(Y|X), and I(X;Y) for the random insertion channel."""
    n = _check_limit(n, MAX_INSERTION_N, "insertion enumeration")
    _check_probability(p_i, "p_i")
    log_weight_mean, packed = _insertion_tables(n)
    aggregate = _by_length(packed, n)
    alpha = _insertion_alpha(n, p_i)
    log_weight = math.fsum(alpha[j] * log_weight_mean[j] for j in range(n + 1))
    conditional = n * binary_entropy(p_i) + 2.0 * n * p_i - log_weight
    weight = 1.0 / (1 << n)
    output_terms = []
    for j in np.nonzero(alpha)[0]:
        probs = aggregate[j][aggregate[j] > 0] * (alpha[j] * weight)
        output_terms.append(float(np.sum(probs * np.log2(probs))))
    output = -math.fsum(output_terms)
    mutual = output - conditional
    h_t = block_entropy(n, p_i)
    chain = [Comparison.make("output_entropy_identity", output, n * (1.0 + p_i) + h_t, "eq", 1e-9)]
    if n >= 2:
        exact_weight = evaluate_bound("random_insertion_exact", ChannelParams.insertion(p_i), n)
        for tag, bound in (("", random_insertion_bound(n, p_i)), ("_exact_weight", exact_weight)):
            ub, rate = n * (1.0 + p_i) - n * bound.rate, (mutual - h_t) / n
            chain += [
                Comparison.make("conditional_entropy_bound" + tag, ub, conditional, "ge", 1e-12),
                Comparison.make("capacity_chain" + tag, bound.rate, rate, "le", 1e-12),
            ]
    return EntropyReport("random_insertion", n, output, conditional, mutual, h_t, tuple(chain))


def exact_insertion_conditional_law(
    bits: Sequence[int], p_i: float
) -> dict[tuple[int, ...], float]:
    """Exact law of the insertion-channel output for one fixed input of 0s and 1s."""
    bits = _as_bits(bits, batch=False).tolist()
    _check_probability(p_i, "p_i")
    n = _check_limit(len(bits), MAX_INSERTION_N, "insertion enumeration")
    alpha = _insertion_alpha(n, p_i)
    law: dict[tuple[int, ...], float] = {}
    for j, arr in enumerate(_by_length(_insertion_count_law(bits), n)):
        if alpha[j] == 0.0:
            continue
        # product yields every (n+j)-bit row in big-endian code order, so
        # compress keeps the nonzero codes' rows without a step per code
        kept = arr != 0
        rows = compress(product((0, 1), repeat=n + j), kept.tolist())
        law.update(zip(rows, (arr[kept] * alpha[j]).tolist()))
    return law


# ---------------------------------------------------------------------------
# Monte-Carlo checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McCheck:
    """A Monte-Carlo estimate against a closed form, and their distance in standard errors."""

    estimate: float
    closed_form: float
    std_error: float
    deviation_sigmas: float


def _mixture_neg_log2_density(y: np.ndarray, sigma: float) -> np.ndarray:
    scale = math.log2(2.0 * sigma * math.sqrt(2.0 * math.pi))
    # in units of sigma, as sigma**2 underflows to 0 for sigma below 1e-162; a distance
    # that overflows to inf there gives its component the density 0 it has
    with np.errstate(over="ignore"):
        a = -0.5 * ((y - 1.0) / sigma) ** 2
        b = -0.5 * ((y + 1.0) / sigma) ** 2
    return scale - np.logaddexp(a, b) / LN2


def mc_awgn_entropy_check(sigma: float, samples: int = 10_000_000, seed: int = 0) -> McCheck:
    """Monte-Carlo differential entropy of the antipodal AWGN output marginal.

    Estimates -E[log2 f(y)] under the balanced two-Gaussian mixture and
    compares with the closed form log2(2 sigma sqrt(2 pi e)) minus
    :func:`synchan.numerics.awgn_expectation`.
    """
    if samples < 100_000:
        raise ValueError(f"need at least 1e5 samples, got {samples}")
    _check_sigma(sigma, positive=True)
    gen = RngState(seed).generator
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining:
        chunk = min(remaining, 1_000_000)
        signs = 1.0 - 2.0 * gen.integers(0, 2, size=chunk)
        y = signs + sigma * gen.standard_normal(chunk)
        values = _mixture_neg_log2_density(y, sigma)
        total += float(values.sum())
        total_sq += float((values * values).sum())
        remaining -= chunk
    estimate = total / samples
    variance = max(total_sq / samples - estimate**2, 0.0)
    std_error = math.sqrt(variance / samples)
    if std_error == 0.0:
        # every draw had the same density, so the spread of the estimate is unmeasured
        raise ValueError(f"sigma={sigma!r} is too small to simulate: every sample has the same density")
    closed = math.log2(2.0 * sigma * math.sqrt(2.0 * math.pi * math.e)) - awgn_expectation(sigma)
    deviation = abs(estimate - closed) / std_error
    return McCheck(estimate, closed, std_error, deviation)

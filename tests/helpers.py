"""Brute-force enumeration and high-precision helpers shared by several test modules.

These are deliberately written in the most direct way possible (string
enumeration, integer counting, mpmath sums) so they stay independent of the
library code they check.  ``run_python`` runs code in a fresh interpreter.
"""

import math
import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import mpmath

import synchan
from synchan.combinatorics import _RUN_WEIGHT_FLOOR
from synchan.numerics import binary_entropy
from synchan.oracle import OracleResourceError


def run_python(*args, timeout=60):
    """Run the interpreter with ``args``, importing the same synchan as the tests."""
    env = dict(os.environ, PYTHONPATH=str(Path(synchan.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
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

    The scalar form the array kernel replaced, kept as its bit-for-bit reference:
    ``lambda l: n + 1 - l`` gives the printed weight, ``lambda l: (n - l - 1) / 2.0``
    the exact one.
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

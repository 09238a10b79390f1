"""Run counts and the run-combinatoric weight sums the bounds are built on."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .numerics import _check_integer, _log2_binomial, _log_factorials

__all__ = [
    "expected_run_count",
    "mean_pattern_log_weight",
    "mean_pattern_log_weights",
    "single_insertion_log_weight",
    "single_insertion_log_weight_exact",
]


def expected_run_count(l: int, n: int) -> float:
    """Expected number of runs of length l in an i.u.d. n-bit sequence.

    Closed form 2^(-l-1) * (n - l + 3) for 1 <= l <= n-1; the two constant
    sequences give 2^(1-n) for l = n.  This is an expected count, not a
    probability, and exceeds 1 for small l.
    """
    l = _check_integer(l, "expected_run_count", "run length")
    n = _check_integer(n, "expected_run_count", minimum=1)
    if l < 1 or l > n:
        raise ValueError(f"l must lie in [1, {n}], got {l}")
    if l == n:
        return 2.0 ** (1 - n)
    return 2.0 ** (-l - 1) * (n - l + 3)


# Beyond this cut-off the geometric run-length weights are too small to move
# a float64 result; exactness for small n is unaffected (n - 1 < cut-off).
_RUN_WEIGHT_FLOOR = 1e-30

# W_j(n) by block length n as (lo, values): values[k] is W_{lo+k}(n), over the
# span of j requested so far; NaN marks a value not yet computed
_WEIGHT_TABLES: dict[int, tuple[int, np.ndarray]] = {}


def _pattern_log_weights(n: int, js: np.ndarray) -> np.ndarray:
    """W_j(n) for the given j, in one pass over run lengths l.

    A run of length l receives j' of the j deletions with hypergeometric
    probability C(l,j')C(n-l,j-j')/C(n,j); the expected number of such runs
    is :func:`expected_run_count`.  Each row of the (j, j') arrays spans
    j' = 1..l whatever the other rows are, so a value does not depend on
    which other j are computed with it.
    """
    log_factorials = _log_factorials(n)
    lcnj = _log2_binomial(log_factorials, n, js)
    total = np.zeros(js.size)
    for l in range(1, n):
        weight = expected_run_count(l, n)
        # log2 C(n, j) <= n bounds every term, so the cut-off is the same for all j
        if weight * n < _RUN_WEIGHT_FLOOR:
            break
        jp = np.arange(1, l + 1)
        outside = js[:, None] - jp
        valid = (outside >= 0) & (outside <= n - l)
        log_c = _log2_binomial(log_factorials, l, jp)
        log_hyper = (
            log_c
            + _log2_binomial(log_factorials, n - l, np.clip(outside, 0, n - l))
            - lcnj[:, None]
        )
        hyper = np.where(valid, np.exp2(log_hyper), 0.0)
        total += weight * (hyper * log_c).sum(axis=1)
    return total + expected_run_count(n, n) * lcnj


def mean_pattern_log_weights(n: int, lo: int, hi: int) -> np.ndarray:
    """W_j(n) for j = lo..hi as a read-only array; see :func:`mean_pattern_log_weight`.

    Each W_j(n) is computed once per process: a table per block length keeps
    every value computed so far over the span of j requested so far, and a
    request computes only the j it is missing.
    """
    n = _check_integer(n, "mean_pattern_log_weights", minimum=1)
    lo = _check_integer(lo, "mean_pattern_log_weights", "deletion count")
    hi = _check_integer(hi, "mean_pattern_log_weights", "deletion count")
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"require 1 <= lo <= hi <= {n}, got lo={lo}, hi={hi}")
    start, table = _WEIGHT_TABLES.get(n, (lo, np.empty(0)))
    first, last = min(lo, start), max(hi, start + table.size - 1)
    if last - first + 1 > table.size:
        grown = np.full(last - first + 1, np.nan)
        grown[start - first : start - first + table.size] = table
        start, table = first, grown
        _WEIGHT_TABLES[n] = start, table
    window = table[lo - start : hi - start + 1]
    missing = np.flatnonzero(np.isnan(window))
    if missing.size:
        window[missing] = _pattern_log_weights(n, missing + lo)
    window = window.view()
    window.flags.writeable = False
    return window


def mean_pattern_log_weight(n: int, j: int) -> float:
    """Average log2 multiplicity of per-run splittings of j deletions.

    For an i.u.d. n-bit input and a uniformly chosen size-j deletion index
    set, this is the expected log2 of the product of per-run binomial
    coefficients describing how the deletions land on the runs.  Nonnegative
    and at most log2(C(n, j)).
    """
    return float(mean_pattern_log_weights(n, j, j)[0])


_RUN_CUT = 128  # longer runs add below 2^-_RUN_CUT (_RUN_CUT + 3)^2 < 2^-113 of a run-series weight


def _run_prefix_sums() -> np.ndarray:
    """Rows F0, F1, B, S1, S2, T0, T1: at m = 0.._RUN_CUT, one fsum over l = 1..m of
    2^-l (l+2) log2(l+2), l times that, 2^-l 2 (l+1) log2(l+1), 2^-l l log2(l), l times that,
    2^-l l (l-1) log2((l-1)/(2l)) and l times that."""
    x_log2_x = np.array([0.0] + [x * math.log2(x) for x in range(1, _RUN_CUT + 3)])
    l = np.arange(1, _RUN_CUT + 1)
    f0 = np.ldexp(x_log2_x[l + 2], -l)
    s1 = np.ldexp(x_log2_x[l], -l)
    pairs = [0.0] + [x * (x - 1) * math.log2((x - 1) / (2 * x)) for x in range(2, _RUN_CUT + 1)]
    t0 = np.ldexp(pairs, -l)
    rows = np.array([f0, l * f0, np.ldexp(x_log2_x[l + 1], 1 - l), s1, l * s1, t0, l * t0]).tolist()
    return np.array([[math.fsum(row[:m]) for m in range(_RUN_CUT + 1)] for row in rows])


_RUN_SUMS = _run_prefix_sums()


def _single_insertion_weights(ns: Sequence[int], exact: bool = False) -> np.ndarray:
    """The printed single-insertion weight at each block length of ``ns``, or the exact one.

    Each is 2^(-n-1) log2(n) plus, over 4n, the sum over l = 1..n-1 of 2^-l (c (l+2) log2(l+2)
    + 2 (l+1) log2(l+1)), c = n + 1 - l printed and (n - l - 1)/2 exact: with the prefix sums to
    m = min(n - 1, _RUN_CUT), (n+1) F0 - F1 + B printed and ((n-1) F0 - F1)/2 + B exact.
    """
    ns = [_check_integer(n, "the single-insertion weight", minimum=1) for n in ns]
    f0, f1, b = _RUN_SUMS[:3, [min(n - 1, _RUN_CUT) for n in ns]]
    # exact: (n-1)/2 F0 - F1/2, which is ((n-1) F0 - F1)/2 to the bit, as halving is exact
    scale = 0.5 if exact else 1.0
    sums = np.array([scale * float(n - 1 if exact else n + 1) for n in ns]) * f0 - scale * f1 + b
    return sums / np.array([4.0 * n for n in ns]) + [math.ldexp(math.log2(n), -(n + 1)) for n in ns]


def single_insertion_log_weight(n: int) -> float:
    """Run-weighted log2 count of single-insertion outputs, tabulated form.

    This is the coefficient the reference tables and the insertion-channel
    bound are built on.  Its interior-run term carries about twice the
    weight of the per-sequence average computed by
    :func:`single_insertion_log_weight_exact`; the two agree only at n = 1
    (at n = 2 they are 0.969361 and 0.375000).
    """
    return float(_single_insertion_weights([n])[0])


def single_insertion_log_weight_exact(n: int) -> float:
    """Per-sequence average log2 count of single-insertion outputs.

    Equals the i.u.d. average over inputs of the run-extension count terms
    (n_1+1)log(n_1+1) + (n_K+1)log(n_K+1) + sum of (n_k+2)log(n_k+2) over
    interior runs, divided by 4n, with the single-run boundary case folded
    in.  Verified against exhaustive enumeration in the test suite.
    """
    return float(_single_insertion_weights([n], exact=True)[0])

"""Deletion patterns and the run-combinatoric weight sums the bounds are built on."""

from __future__ import annotations

import math
from itertools import islice
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


def _deletion_patterns(runs: Sequence[int]) -> np.ndarray:
    """Every per-run deletion pattern (d_1, ..., d_K), 0 <= d_k <= n_k, one row each.

    The prod(n_k + 1) rows, whatever the number of deletions, are in
    lexicographic order.
    """
    sizes = [r + 1 for r in runs]
    return np.indices(sizes).reshape(len(sizes), math.prod(sizes)).T


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


def _single_insertion_weights(ns: Sequence[int], exact: bool = False) -> np.ndarray:
    """The printed single-insertion weight at each block length of ``ns``, or the exact one.

    Each is fsum(t_l) / (4n) + 2^(-n-1) log2(n), t_l = 2^-l (c (l+2) log2(l+2)
    + 2 (l+1) log2(l+1)), with c = n + 1 - l printed and (n - l - 1) / 2
    exact, over l = 1..n-1 while 2^-l (n+3) (l+2) log2(l+2) is at least
    ``_RUN_WEIGHT_FLOOR``.  Each float operation is that sum's at n alone.
    """
    ns = [_check_integer(n, "the single-insertion weight", minimum=1) for n in ns]
    # 2^-l (n+3) < 2^-128 from l = bit_length(n+3) + 128 on, so every cut-off lies below it
    lengths = np.arange(1, min(max(ns), (max(ns) + 3).bit_length() + 128))
    logs = np.array([math.log2(k) for k in range(2, lengths.size + 3)])
    w = np.ldexp(1.0, -lengths)
    bound = w * np.array([float(n + 3) for n in ns])[:, None] * (lengths + 2) * logs[1:]
    # the bound falls as l grows, so each row keeps a prefix of the lengths
    keep = (bound >= _RUN_WEIGHT_FLOOR) & (lengths < np.reshape(ns, (-1, 1)))
    # n + 1 = hi + lo with lo its low 32 bits: hi (l+2) and (lo - l)(l+2) are
    # exact floats for n < 2^77, so their sum is (n + 1 - l)(l + 2) rounded once
    lo, hi = np.array([((n + 1) & 0xFFFFFFFF, float((n + 1) >> 32 << 32)) for n in ns]).T[..., None]
    if exact:
        c = (hi + (lo - lengths - 2)) / 2.0 * (lengths + 2)
    else:
        c = hi * (lengths + 2) + (lo - lengths) * (lengths + 2)
    terms = iter((w * (c * logs[1:] + 2 * (lengths + 1) * logs[:-1]))[keep].tolist())
    tails = [math.ldexp(math.log2(n), -(n + 1)) for n in ns]
    return np.array(
        [math.fsum(islice(terms, k)) / (4 * n) + t for k, n, t in zip(keep.sum(axis=1).tolist(), ns, tails)]
    )


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

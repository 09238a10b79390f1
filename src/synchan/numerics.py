"""Stable building blocks: entropies, the binomial log-pmf, Gaussian expectations.

All logarithms are base 2 and all rates are in bits per channel use.  The
convention 0 * log(0) = 0 is applied uniformly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

LN2 = math.log(2.0)

__all__ = [
    "binary_entropy",
    "block_entropy",
    "awgn_expectation",
]


def _check_probability(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def _check_integer(value, owner: str, what: str = "block length") -> int:
    """``value`` as an int if it is a Python or NumPy integer; a ValueError naming ``owner`` if not."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{owner} requires an integer {what}, got {value!r}")
    return int(value)


def binary_entropy(p: float) -> float:
    """Binary entropy H_b(p) = -p*log2(p) - (1-p)*log2(1-p) in bits."""
    p = _check_probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, read-only: entry k is lgamma(k + 1) whatever was requested before."""
    global _LOG_FACTORIALS
    if n >= (size := _LOG_FACTORIALS.size):
        new = range(size, max(n + 1, 2 * size))  # at least double the table
        _LOG_FACTORIALS = np.append(_LOG_FACTORIALS, [math.lgamma(k + 1) for k in new])
        _LOG_FACTORIALS.flags.writeable = False
    return _LOG_FACTORIALS[: n + 1]


def _log2_binomial(log_factorials: np.ndarray, a, b):
    """log2 C(a, b) for integers 0 <= b <= a < len(log_factorials), elementwise."""
    return (log_factorials[a] - log_factorials[b] - log_factorials[a - b]) / LN2


def _binomial_log_pmf_vec(n: int, p: float) -> np.ndarray:
    """log2 pmf over j = 0..n for 0 < p < 1."""
    j = np.arange(n + 1)
    return _log2_binomial(_log_factorials(n), n, j) + j * math.log2(p) + (n - j) * math.log2(1.0 - p)


def block_entropy(n: int, p: float) -> float:
    """Entropy in bits of the per-block synchronization-event count Binomial(n, p)."""
    n = _check_integer(n, "block_entropy")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = _check_probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    lp = _binomial_log_pmf_vec(n, p)
    # summing -pmf*log2(pmf) with fsum keeps the result exactly rounded and
    # independent of term order
    return math.fsum(np.exp2(lp) * -lp)


# past this sigma the quadrature drifts by a few ulps and sigma**2 overflows
# near 1.3e154, while the low-SNR expansion is accurate to an ulp
_LOW_SNR_SIGMA = 1e4
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# panel edges in units of min(1, sigma) on both sides of a break point, widths 2^-3..2^11
_PANEL_OFFSETS = np.outer([-1.0, 1.0], np.concatenate(([0.0], np.cumsum(2.0 ** np.arange(-3, 12))))).ravel()


@lru_cache(maxsize=512)
def awgn_expectation(sigma: float) -> float:
    """Expected log2(1 + exp(-2*y/sigma^2)) for y ~ N(1, sigma^2).

    One minus this value is the capacity of the binary-input AWGN channel with
    unit-energy antipodal signalling and noise variance sigma^2.  The result
    lies in [0, 1] and increases with sigma (it underflows to exactly 0.0 for
    very small sigma and rounds to exactly 1.0 for sigma beyond about 1e8).

    For 0.025 <= sigma <= 1e4: a fixed composite 20-point Gauss-Legendre rule over
    z = (y - 1)/sigma in [-40, 40], panels of width min(1, sigma) * 2^k, k = -3..11,
    graded away from the mode z = 0 and the kink z = -1/sigma; within 5e-14 relative
    of adaptive quadrature.  Beyond, the low-SNR expansion 1 - 1/(2 sigma^2 ln 2).
    """
    sigma = float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if sigma > _LOW_SNR_SIGMA:
        # the next term, 1/(4 sigma^4 ln 2), is below half an ulp of 1 here;
        # sigma * sigma may overflow to inf, which gives exactly 1.0
        return 1.0 - 0.5 / (sigma * sigma * LN2)
    if sigma < 0.025:
        return 0.0  # below the smallest subnormal, where sigma^2 may underflow too
    offsets = min(1.0, sigma) * _PANEL_OFFSETS
    edges = np.unique(np.clip(np.concatenate((offsets, offsets - 1.0 / sigma, [-40.0, 40.0])), -40.0, 40.0))
    half = 0.5 * np.diff(edges)[:, None]
    z = edges[:-1, None] + half * (1.0 + _GL_NODES)
    integrand = np.exp(-0.5 * z * z) * np.logaddexp(0.0, -2.0 * (1.0 + sigma * z) / (sigma * sigma))
    return float((half * _GL_WEIGHTS * integrand).sum()) / (math.sqrt(2.0 * math.pi) * LN2)

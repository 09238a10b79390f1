"""Stable building blocks: entropies, the binomial log-pmf, Gaussian expectations.

All logarithms are base 2 and all rates are in bits per channel use.  The
convention 0 * log(0) = 0 is applied uniformly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

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


def binary_entropy(p: float) -> float:
    """Binary entropy H_b(p) = -p*log2(p) - (1-p)*log2(1-p) in bits."""
    p = _check_probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n: the table :func:`_log2_binomial` reads."""
    return gammaln(np.arange(n + 1) + 1)


def _log2_binomial(log_factorials: np.ndarray, a, b):
    """log2 C(a, b) for integers 0 <= b <= a < len(log_factorials), elementwise."""
    return (log_factorials[a] - log_factorials[b] - log_factorials[a - b]) / LN2


def _binomial_log_pmf_vec(n: int, p: float) -> np.ndarray:
    """log2 pmf over j = 0..n for 0 < p < 1."""
    j = np.arange(n + 1)
    return _log2_binomial(_log_factorials(n), n, j) + j * math.log2(p) + (n - j) * math.log2(1.0 - p)


def block_entropy(n: int, p: float) -> float:
    """Entropy in bits of the per-block synchronization-event count Binomial(n, p)."""
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


@lru_cache(maxsize=512)
def awgn_expectation(sigma: float) -> float:
    """Expected log2(1 + exp(-2*y/sigma^2)) for y ~ N(1, sigma^2).

    One minus this value is the capacity of the binary-input AWGN channel with
    unit-energy antipodal signalling and noise variance sigma^2.  The result
    lies in [0, 1] and increases with sigma (it underflows to exactly 0.0 for
    very small sigma and rounds to exactly 1.0 for sigma beyond about 1e8).

    For sigma <= 1e4: one adaptive Gauss-Kronrod integration
    (``scipy.integrate.quad``) over y in 1 +- 40 sigma, split at the
    integrand's kink y = 0 and at its mode y = 1, to relative accuracy 1e-12.
    Beyond that, the low-SNR expansion 1 - 1/(2 sigma^2 ln 2).
    """
    sigma = float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if sigma > _LOW_SNR_SIGMA:
        # the next term, 1/(4 sigma^4 ln 2), is below half an ulp of 1 here;
        # sigma * sigma may overflow to inf, which gives exactly 1.0
        return 1.0 - 0.5 / (sigma * sigma * LN2)
    # imported here: loading scipy.integrate costs about 0.3 s, which a bare
    # ``import synchan`` need not pay (synchan.cli loads it through scipy.stats)
    from scipy.integrate import quad

    scale = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * LN2)

    def integrand(y: float) -> float:
        t = -2.0 * y / sigma**2
        # log(1 + e^t), overflow-safe for large positive t
        softplus = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
        return scale * math.exp(-0.5 * ((y - 1.0) / sigma) ** 2) * softplus

    lo, hi = 1.0 - 40.0 * sigma, 1.0 + 40.0 * sigma
    breaks = [y for y in (0.0, 1.0) if lo < y < hi]
    value, _ = quad(integrand, lo, hi, points=breaks, epsabs=0.0, epsrel=1e-12, limit=200)
    return value

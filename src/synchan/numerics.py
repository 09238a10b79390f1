"""Stable scalar building blocks: entropies, log-domain binomials, Gaussian expectations.

All logarithms are base 2 and all rates are in bits per channel use.  The
convention 0 * log(0) = 0 is applied uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.special import gammaln

LN2 = math.log(2.0)

__all__ = [
    "LogWeight",
    "binary_entropy",
    "log_binomial",
    "binomial_log_pmf",
    "block_entropy",
    "awgn_expectation",
    "log_sum",
]


@dataclass(frozen=True)
class LogWeight:
    """Base-2 logarithm of a nonnegative quantity, with an exact-zero state.

    ``log2 = -inf`` encodes an exactly-zero weight; any finite ``log2``
    exponentiates to a strictly positive value.  NaN and +inf are rejected.
    """

    log2: float

    def __post_init__(self) -> None:
        if math.isnan(self.log2) or self.log2 == math.inf:
            raise ValueError(f"invalid log-weight {self.log2!r}")

    @classmethod
    def zero(cls) -> "LogWeight":
        return cls(-math.inf)

    @classmethod
    def of(cls, value: float) -> "LogWeight":
        """Log-weight of a plain nonnegative value."""
        if value < 0:
            raise ValueError(f"negative weight {value!r}")
        return cls(-math.inf) if value == 0 else cls(math.log2(value))

    @property
    def is_zero(self) -> bool:
        return self.log2 == -math.inf

    @property
    def value(self) -> float:
        """The represented quantity, exp2(log2); exactly 0.0 for the zero state."""
        return 0.0 if self.is_zero else 2.0 ** self.log2


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


def log_binomial(n: int, k: int) -> LogWeight:
    """log2 of the binomial coefficient C(n, k) via log-gamma."""
    if k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return LogWeight(_log_binomial(n, k))


def _log_binomial(n: int, k: int) -> float:
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)) / LN2


def _log_binomial_vec(n: int, k: np.ndarray) -> np.ndarray:
    return (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)) / LN2


def binomial_log_pmf(n: int, j: int, p: float) -> LogWeight:
    """log2 of the Binomial(n, p) mass at j, exact-zero when the mass vanishes."""
    if j < 0 or j > n:
        raise ValueError(f"require 0 <= j <= n, got n={n}, j={j}")
    p = _check_probability(p)
    if p == 0.0:
        return LogWeight(0.0) if j == 0 else LogWeight.zero()
    if p == 1.0:
        return LogWeight(0.0) if j == n else LogWeight.zero()
    return LogWeight(_log_binomial(n, j) + j * math.log2(p) + (n - j) * math.log2(1.0 - p))


def _binomial_log_pmf_vec(n: int, p: float) -> np.ndarray:
    """log2 pmf over j = 0..n for 0 < p < 1."""
    j = np.arange(n + 1)
    return _log_binomial_vec(n, j) + j * math.log2(p) + (n - j) * math.log2(1.0 - p)


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


def log_sum(terms: Iterable[LogWeight]) -> LogWeight:
    """log2 of a sum of nonnegative quantities given by their log-weights."""
    logs = [t.log2 for t in terms if not t.is_zero]
    if not logs:
        return LogWeight.zero()
    m = max(logs)
    return LogWeight(m + math.log2(math.fsum(2.0 ** (v - m) for v in logs)))


@lru_cache(maxsize=512)
def awgn_expectation(sigma: float) -> float:
    """Expected log2(1 + exp(-2*y/sigma^2)) for y ~ N(1, sigma^2).

    One minus this value is the capacity of the binary-input AWGN channel with
    unit-energy antipodal signalling and noise variance sigma^2.  The result
    lies in [0, 1) and increases with sigma (it underflows to exactly 0.0 for
    very small sigma).

    One adaptive Gauss-Kronrod integration (``scipy.integrate.quad``) over
    y in 1 +- 40 sigma, split at the integrand's kink y = 0 and at its mode
    y = 1, to relative accuracy 1e-12.
    """
    sigma = float(sigma)
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
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

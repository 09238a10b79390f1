"""Capacity lower bounds for binary deletion, deletion-AWGN, and insertion channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np

from .combinatorics import mean_pattern_log_weights, single_insertion_log_weight
from .numerics import (
    awgn_expectation,
    binary_entropy,
    _binomial_log_pmf_vec,
)

__all__ = [
    "ChannelParams",
    "BoundResult",
    "gallager_bound",
    "deletion_substitution_bound",
    "deletion_bound",
    "deletion_bound_small_p",
    "deletion_awgn_bound",
    "random_insertion_bound",
    "insertion_bound_from_weight",
    "random_insertion_bound_small_p",
    "deletion_small_p_coefficients",
    "insertion_small_p_coefficients",
    "optimize_block_length",
    "evaluate_bound",
    "capacity_expansion_constant",
    "capacity_expansion_deletion",
]


@dataclass(frozen=True)
class ChannelParams:
    """Channel error probabilities and AWGN noise scale (unit-energy antipodal)."""

    p_d: float = 0.0
    p_e: float = 0.0
    p_i: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_d", "p_e", "p_i"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.p_d + self.p_i > 1.0:
            raise ValueError(f"p_d + p_i must not exceed 1, got {self.p_d + self.p_i!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")

    @classmethod
    def deletion(cls, p_d: float) -> "ChannelParams":
        return cls(p_d=p_d)

    @classmethod
    def deletion_substitution(cls, p_d: float, p_e: float) -> "ChannelParams":
        return cls(p_d=p_d, p_e=p_e)

    @classmethod
    def deletion_awgn(cls, p_d: float, sigma: float) -> "ChannelParams":
        return cls(p_d=p_d, sigma=sigma)

    @classmethod
    def insertion(cls, p_i: float) -> "ChannelParams":
        return cls(p_i=p_i)


@dataclass(frozen=True)
class BoundResult:
    """A rate in bits/channel use with its additive component breakdown.

    ``rate`` is exactly the compensated sum of ``components``.
    """

    rate: float
    method: str
    block_length: int | None
    components: dict[str, float] = field(compare=False)

    @classmethod
    def from_components(
        cls, method: str, block_length: int | None, components: dict[str, float]
    ) -> "BoundResult":
        return cls(math.fsum(components.values()), method, block_length, dict(components))


def _xlog2x(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log2(x)


def gallager_bound(params: ChannelParams) -> BoundResult:
    """Convolutional-coding achievable rate for insertion/deletion/substitution errors.

    1 + p_d log p_d + p_i log p_i + p_c log p_c + p_s log p_s, with
    p_c = (1-p_d-p_i)(1-p_e) and p_s = (1-p_d-p_i) p_e.
    """
    p_c = (1.0 - params.p_d - params.p_i) * (1.0 - params.p_e)
    p_s = (1.0 - params.p_d - params.p_i) * params.p_e
    return BoundResult.from_components(
        "gallager",
        None,
        {
            "base": 1.0,
            "deletion_term": _xlog2x(params.p_d),
            "insertion_term": _xlog2x(params.p_i),
            "correct_term": _xlog2x(p_c),
            "flip_term": _xlog2x(p_s),
        },
    )


# pmf terms within 2^-50 of the modal term keep the truncation error of the
# pattern-gain sum below 1e-12 in the final rate
_PMF_LOG2_WINDOW = 50.0


# sweeps repeat each (n, p_d) across their p_e or SNR axis
@lru_cache(maxsize=1024)
def _pattern_gain(n: int, p_d: float) -> float:
    """(1/n) sum over j of W_j(n) C(n,j) p^j (1-p)^(n-j), j-range truncated."""
    if p_d == 0.0 or p_d == 1.0:
        return 0.0
    lp = _binomial_log_pmf_vec(n, p_d)[1:]
    # the log-pmf is concave in j, so the kept terms form one window
    kept = np.flatnonzero(lp >= lp.max() - _PMF_LOG2_WINDOW)
    lo, hi = int(kept[0]), int(kept[-1])
    weights = mean_pattern_log_weights(n, lo + 1, hi + 1)
    return math.fsum(weights * np.exp2(lp[lo : hi + 1])) / n


def _check_block_length(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise ValueError(f"block length must be >= {minimum}, got {n}")


def _deletion_components(n: int, p_d: float, p_e: float = 0.0, sigma: float = 0.0) -> dict[str, float]:
    """Check n, then the parameters; return the terms every deletion-family bound shares."""
    _check_block_length(n)
    ChannelParams(p_d=p_d, p_e=p_e, sigma=sigma)
    return {
        "base": 1.0 - p_d,
        "block_entropy_penalty": -binary_entropy(p_d),
        "pattern_gain": _pattern_gain(n, p_d),
    }


def deletion_substitution_bound(n: int, p_d: float, p_e: float) -> BoundResult:
    """Finite-block capacity lower bound for the deletion-substitution channel."""
    components = _deletion_components(n, p_d, p_e=p_e)
    components["substitution_penalty"] = -(1.0 - p_d) * binary_entropy(p_e)
    return BoundResult.from_components("deletion_substitution", n, components)


def deletion_bound(n: int, p_d: float) -> BoundResult:
    """Deletion-only capacity lower bound (substitution probability zero)."""
    return BoundResult.from_components("deletion", n, _deletion_components(n, p_d))


def deletion_small_p_coefficients(n: int) -> tuple[float, float, float, float]:
    """Coefficients of (p, p^2, p^3, p^4) in the small-p deletion polynomial."""
    _check_block_length(n, 4)
    w1, w2 = mean_pattern_log_weights(n, 1, 2).tolist()
    return (
        w1 - 1.0,
        (n - 1) / 2.0 * (w2 - 2.0 * w1),
        comb(n - 1, 2) * (w1 - w2),
        -comb(n - 1, 3) * w1,
    )


def deletion_bound_small_p(n: int, p_d: float) -> BoundResult:
    """Quartic small-p relaxation of the deletion-only bound."""
    params = ChannelParams.deletion(p_d)
    c1, c2, c3, c4 = deletion_small_p_coefficients(n)
    p = params.p_d
    return BoundResult.from_components(
        "deletion_small_p",
        n,
        {
            "base": 1.0,
            "block_entropy_penalty": -binary_entropy(p),
            "linear": c1 * p,
            "quadratic": c2 * p * p,
            "cubic": c3 * p**3,
            "quartic": c4 * p**4,
        },
    )


def deletion_awgn_bound(n: int, p_d: float, sigma: float) -> BoundResult:
    """Capacity lower bound for the deletion channel cascaded with BI-AWGN."""
    components = _deletion_components(n, p_d, sigma=sigma)
    penalty = 0.0 if sigma == 0.0 else awgn_expectation(sigma)
    components["awgn_penalty"] = -(1.0 - p_d) * penalty
    return BoundResult.from_components("deletion_awgn", n, components)


def insertion_bound_from_weight(n: int, p_i: float, weight: float) -> BoundResult:
    """Insertion-channel bound evaluated with an explicit single-insertion weight.

    The verification suite uses this to compare the tabulated weight against
    the enumerated one; :func:`random_insertion_bound` fixes the weight to
    :func:`synchan.combinatorics.single_insertion_log_weight`.
    """
    _check_block_length(n, 2)
    params = ChannelParams.insertion(p_i)
    p = params.p_i
    q = p * (1.0 - p) ** (n - 1)
    multi_mass = -math.fsum(
        [-1.0, (1.0 - p) ** n, n * q, p**n, n * p ** (n - 1) * (1.0 - p)]
    )
    return BoundResult.from_components(
        "random_insertion",
        n,
        {
            "base": (1.0 - p) ** n,
            "block_entropy_penalty": -binary_entropy(p),
            "single_insertion_gain": (weight - (3 * n + 1) / (4 * n) + n) * q,
            "multi_insertion_gain": multi_mass * math.log2(n * (n - 1) / 2) / n,
            "tail_gain": p ** (n - 1) * (1.0 - p) * math.log2(n),
        },
    )


def random_insertion_bound(n: int, p_i: float) -> BoundResult:
    """The paper's printed insertion bound for the two-bit random replacement channel.

    Evaluates the published formula with the printed single-insertion
    coefficient :func:`synchan.combinatorics.single_insertion_log_weight`,
    so it reproduces the reference insertion table.  Exact enumeration shows
    that at small n this is not a capacity lower bound: the value exceeds
    the enumerated (I(X;Y) - H(T))/n at every n from 2 to 9 at p_i = 0.01,
    at n <= 7 at p_i = 0.1 and at n <= 4 at p_i = 0.3.
    """
    return insertion_bound_from_weight(n, p_i, single_insertion_log_weight(n))


def insertion_small_p_coefficients(n: int) -> tuple[float, float, float, float]:
    """Coefficients of (p, p^2, p^3, p^4) in the small-p insertion polynomial."""
    _check_block_length(n, 4)
    s = single_insertion_log_weight(n)
    b = math.log2(n * (n - 1) / 2)
    c = (3 * n + 1) / (4 * n)
    return (
        s - c,
        -(n - 1) / 2.0 * (2.0 * s - 2.0 * c + n - b),
        -comb(n, 2) * (b - s - 2.0 * n / 3.0 + c),
        -comb(n, 3) * (s + n - c),
    )


def random_insertion_bound_small_p(n: int, p_i: float) -> BoundResult:
    """Quartic small-p relaxation of the insertion-channel bound."""
    params = ChannelParams.insertion(p_i)
    c1, c2, c3, c4 = insertion_small_p_coefficients(n)
    p = params.p_i
    return BoundResult.from_components(
        "random_insertion_small_p",
        n,
        {
            "base": 1.0,
            "block_entropy_penalty": -binary_entropy(p),
            "linear": c1 * p,
            "quadratic": c2 * p * p,
            "cubic": c3 * p**3,
            "quartic": c4 * p**4,
        },
    )


_EVALUATORS: dict[str, Callable[[int, ChannelParams], BoundResult]] = {
    "deletion_substitution": lambda n, c: deletion_substitution_bound(n, c.p_d, c.p_e),
    "deletion": lambda n, c: deletion_bound(n, c.p_d),
    "deletion_awgn": lambda n, c: deletion_awgn_bound(n, c.p_d, c.sigma),
    "random_insertion": lambda n, c: random_insertion_bound(n, c.p_i),
    "deletion_small_p": lambda n, c: deletion_bound_small_p(n, c.p_d),
    "random_insertion_small_p": lambda n, c: random_insertion_bound_small_p(n, c.p_i),
}


def evaluate_bound(method: str, params: ChannelParams, n: int | None = None) -> BoundResult:
    """Evaluate any bound by its method tag; ``n`` is ignored for gallager."""
    if method == "gallager":
        return gallager_bound(params)
    if method not in _EVALUATORS:
        raise ValueError(f"unknown method {method!r}")
    if n is None:
        raise ValueError(f"method {method!r} requires a block length")
    return _EVALUATORS[method](n, params)

# the multi-insertion penalty term log2(n(n-1)/2) vanishes at n = 2, which
# makes the n = 2 insertion value spuriously dominate every scan; the
# reference optima are taken over n >= 3
_DEFAULT_N_MIN = {
    "random_insertion": 3,
    "deletion_small_p": 4,
    "random_insertion_small_p": 4,
}


def optimize_block_length(
    method: str, params: ChannelParams, n_max: int, n_min: int | None = None
) -> tuple[int, BoundResult]:
    """Exhaustively scan block lengths and return the argmax bound.

    Ties break toward the smaller block length.  The profile is not known to
    be unimodal, so every length in [n_min, n_max] is evaluated.
    """
    if method not in _EVALUATORS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_EVALUATORS)}")
    if n_min is None:
        n_min = _DEFAULT_N_MIN.get(method, 2)
    if n_max < n_min:
        raise ValueError(f"n_max must be >= {n_min}, got {n_max}")
    evaluate = _EVALUATORS[method]
    best_n, best = n_min, evaluate(n_min, params)
    for n in range(n_min + 1, n_max + 1):
        candidate = evaluate(n, params)
        if candidate.rate > best.rate:
            best_n, best = n, candidate
    return best_n, best


@lru_cache(maxsize=None)
def capacity_expansion_constant(terms: int = 200) -> float:
    """First-order constant of the small-p deletion capacity expansion.

    log2(2e) minus the geometric series sum of 2^(-l-1) l log2(l); the tail
    beyond 200 terms is far below 1e-12.
    """
    series = math.fsum(2.0 ** (-l - 1) * l * math.log2(l) for l in range(2, terms + 1))
    return math.log2(2.0 * math.e) - series


def capacity_expansion_deletion(p_d: float) -> float:
    """Dominant terms 1 + p log2(p) - A1*p of the small-p deletion capacity.

    Diagnostic comparison curve only: the omitted remainder is O(p^1.4), so
    this is not a lower bound.
    """
    if not 0.0 < p_d < 1.0:
        raise ValueError(f"p_d must lie in (0, 1), got {p_d!r}")
    return 1.0 + p_d * math.log2(p_d) - capacity_expansion_constant() * p_d

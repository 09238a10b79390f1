"""Capacity lower bounds for binary deletion, deletion-AWGN, and insertion channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
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


# the component each deletion-family bound adds to the shared three: its name,
# the axis of its parameter and the function of it that -(1 - p_d) multiplies
_DELETION_PENALTIES = {
    "deletion": None,
    "deletion_substitution": ("substitution_penalty", "p_e", lambda p_e: binary_entropy(p_e)),
    "deletion_awgn": (
        "awgn_penalty", "sigma", lambda sigma: 0.0 if sigma == 0.0 else awgn_expectation(sigma)
    ),
}


def _on_grid(f: Callable, axes: dict, names) -> np.ndarray:
    """``f(**point)`` at each point of the named axes' product, shaped to broadcast over axes."""
    values = [f(**dict(zip(names, point))) for point in product(*(axes[name] for name in names))]
    shape = [len(axis) if name in names else 1 for name, axis in axes.items()]
    return np.array(values, dtype=float).reshape(shape)


def _deletion_components(method: str, axes: dict) -> dict[str, np.ndarray]:
    """A deletion-family bound's components, each once per value of the axes it reads."""
    keep = 1.0 - _on_grid(lambda p_d: p_d, axes, ["p_d"])
    components = {
        "base": keep,
        "block_entropy_penalty": -_on_grid(lambda p_d: binary_entropy(p_d), axes, ["p_d"]),
        "pattern_gain": _on_grid(lambda p_d, n: _pattern_gain(n, p_d), axes, ["p_d", "n"]),
    }
    if _DELETION_PENALTIES[method] is not None:
        name, axis, factor = _DELETION_PENALTIES[method]
        components[name] = -keep * _on_grid(factor, axes, [axis])
    return components


def _deletion_family_bound(method: str, n: int, p_d: float, **extra: float) -> BoundResult:
    """Check n, then the parameters; evaluate the bound on its one-point grid."""
    _check_block_length(n)
    ChannelParams(p_d=p_d, **extra)
    point = dict(p_d=p_d, n=n, **extra)
    components = _deletion_components(method, {name: [value] for name, value in point.items()})
    return BoundResult.from_components(method, n, {k: v.item() for k, v in components.items()})


def deletion_substitution_bound(n: int, p_d: float, p_e: float) -> BoundResult:
    """Finite-block capacity lower bound for the deletion-substitution channel."""
    return _deletion_family_bound("deletion_substitution", n, p_d, p_e=p_e)


def deletion_bound(n: int, p_d: float) -> BoundResult:
    """Deletion-only capacity lower bound (substitution probability zero)."""
    return _deletion_family_bound("deletion", n, p_d)


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
    return _deletion_family_bound("deletion_awgn", n, p_d, sigma=sigma)


def insertion_bound_from_weight(n: int, p_i: float, weight: float) -> BoundResult:
    """Insertion-channel bound evaluated with an explicit single-insertion weight.

    The verification suite uses this to compare the tabulated weight against
    the enumerated one; :func:`random_insertion_bound` fixes the weight to
    :func:`synchan.combinatorics.single_insertion_log_weight`.
    """
    _check_block_length(n, 2)
    params = ChannelParams.insertion(p_i)
    p = params.p_i
    # (1-p)^k as exp(k log1p(-p)): where p is below an ulp of 1, 1 - p rounds
    # to 1.0 and would drop the -n*p that cancels the single-insertion +n*q
    log_keep = math.log1p(-p) if p < 1.0 else -math.inf
    base = math.exp(n * log_keep)
    q = p * math.exp((n - 1) * log_keep)
    # the mass of 2 to n-2 insertions, by cancellation: its error of an ulp
    # of 1 can take it below 0 where it is tiny
    multi_mass = max(0.0, -math.fsum([-1.0, base, n * q, p**n, n * p ** (n - 1) * (1.0 - p)]))
    return BoundResult.from_components(
        "random_insertion",
        n,
        {
            "base": base,
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


# the axes each bound outside the deletion family reads
_GRID_READS = {
    "gallager": ("p_d", "p_e", "p_i"),
    "random_insertion": ("p_i", "n"),
    "deletion_small_p": ("p_d", "n"),
    "random_insertion_small_p": ("p_i", "n"),
}


def _raises(f: Callable, **kwargs) -> bool:
    try:
        f(**kwargs)
    except ValueError:
        return True
    return False


def _grid_rates(methods: list[str], p_d, p_e, p_i, sigma, n) -> list[np.ndarray]:
    """Each method's rate at every point of the grid p_d x p_e x p_i x sigma x n.

    Bit for bit ``evaluate_bound(method, ChannelParams(p_d, p_e, p_i, sigma), n).rate``,
    with each component computed once per value of the axes it reads.  An
    invalid grid raises the error of its first invalid point, as evaluation
    there would, taking the methods in turn.
    """
    axes = dict(p_d=p_d, p_e=p_e, p_i=p_i, sigma=sigma, n=n)
    # ChannelParams rejects a point for p_d and p_i, p_e or sigma, and a
    # method's block-length check reads no channel parameter
    probes = [(names, ChannelParams) for names in (["p_d", "p_i"], ["p_e"], ["sigma"])]
    probes.append((["n"], lambda n: [evaluate_bound(m, ChannelParams(), n) for m in methods]))
    rejected = sum(_on_grid(partial(_raises, f), axes, names) for names, f in probes) > 0
    if rejected.any():
        first = np.unravel_index(rejected.argmax(), rejected.shape)
        point = [axis[i] for axis, i in zip(axes.values(), first)]
        for method in methods:
            evaluate_bound(method, ChannelParams(*point[:4]), point[4])
    if rejected.size == 0:
        return [np.empty(rejected.shape) for _ in methods]
    grids = []
    for method in methods:
        if method in _DELETION_PENALTIES:
            # each point's math.fsum of its components, as in BoundResult.from_components
            points = np.broadcast(*_deletion_components(method, axes).values())
            rates = np.fromiter(map(math.fsum, points), float, points.size).reshape(points.shape)
        else:
            rates = _on_grid(
                lambda n=None, **params: evaluate_bound(method, ChannelParams(**params), n).rate,
                axes,
                _GRID_READS[method],
            )
        grids.append(np.broadcast_to(rates, rejected.shape))
    return grids


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

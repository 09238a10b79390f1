"""Capacity lower bounds for binary deletion, deletion-AWGN, and insertion channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import _RUN_CUT, _RUN_SUMS, _single_insertion_weights, mean_pattern_log_weights
from .numerics import (
    _MAX_N,
    _binomial_log_pmf_vec,
    _check_integer,
    _check_probability,
    _check_sigma,
    awgn_expectation,
    binary_entropy,
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
    "random_insertion_bound_small_p",
    "optimize_block_length",
    "evaluate_bound",
    "capacity_expansion_constant",
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
            _check_probability(getattr(self, name), name)
        # as the bounds evaluate it: the sum p_d + p_i can round to 1 where this is below 0
        if 1.0 - self.p_d - self.p_i < 0.0:
            raise ValueError(
                f"p_d + p_i must not exceed 1, got p_d={self.p_d!r} and p_i={self.p_i!r}"
            )
        _check_sigma(self.sigma)


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


def _gallager_components(p_d: float, p_e: float, p_i: float) -> dict[str, float]:
    p_c = (1.0 - p_d - p_i) * (1.0 - p_e)
    p_s = (1.0 - p_d - p_i) * p_e
    return {
        "base": 1.0,
        "deletion_term": _xlog2x(p_d),
        "insertion_term": _xlog2x(p_i),
        "correct_term": _xlog2x(p_c),
        "flip_term": _xlog2x(p_s),
    }


def gallager_bound(params: ChannelParams) -> BoundResult:
    """Convolutional-coding achievable rate for insertion/deletion/substitution errors.

    1 + p_d log p_d + p_i log p_i + p_c log p_c + p_s log p_s, with
    p_c = (1-p_d-p_i)(1-p_e) and p_s = (1-p_d-p_i) p_e.  This is not a lower
    bound everywhere: revealing which bits were deleted and which are
    replacements bounds the capacity by (1-p_d-p_i)(1-h(p_e)).  With
    p_e = p_i = 0 the formula is 1 - h(p_d), above 1 - p_d for p_d > 0.7729078
    (0.531 at p_d = 0.9, where the capacity is at most 0.1).
    """
    return evaluate_bound("gallager", params)


# pmf terms within 2^-50 of the modal term keep the truncation error of the
# pattern-gain sum below 1e-12 in the final rate
_PMF_LOG2_WINDOW = 50.0


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


def _on_grid(f: Callable, axes: dict, names) -> dict[str, np.ndarray]:
    """Each entry of ``f(**point)`` over the named axes, shaped to broadcast over nonempty axes."""
    shape = [len(axis) if name in names else 1 for name, axis in axes.items()]
    points = [f(**dict(zip(names, point))) for point in product(*(axes[name] for name in names))]
    return {key: np.array([p[key] for p in points], float).reshape(shape) for key in points[0]}


def _deletion_components(axes: dict, penalty: tuple | None = None) -> dict[str, np.ndarray]:
    """A deletion-family bound's components, each once per value of the axes it reads.

    ``penalty``, if given, is the component the bound adds to the shared three: its
    name, the axis of its parameter and the function of it that -(1 - p_d) multiplies.
    """
    components = _on_grid(lambda p_d: {"base": 1.0 - p_d}, axes, ["p_d"])
    entropy = _on_grid(lambda p_d: {"block_entropy_penalty": -binary_entropy(p_d)}, axes, ["p_d"])
    gain = _on_grid(lambda p_d, n: {"pattern_gain": _pattern_gain(n, p_d)}, axes, ["p_d", "n"])
    components |= entropy | gain
    if penalty is not None:
        name, axis, factor = penalty
        values = _on_grid(lambda **point: {name: factor(point[axis])}, axes, [axis])
        components[name] = -components["base"] * values[name]
    return components


def deletion_substitution_bound(n: int, p_d: float, p_e: float) -> BoundResult:
    """Finite-block capacity lower bound for the deletion-substitution channel."""
    return evaluate_bound("deletion_substitution", ChannelParams(p_d=p_d, p_e=p_e), n)


def deletion_bound(n: int, p_d: float) -> BoundResult:
    """Deletion-only capacity lower bound (substitution probability zero)."""
    return evaluate_bound("deletion", ChannelParams(p_d=p_d), n)


def _small_p_components(coefficients: Callable, axis: str, axes: dict) -> dict[str, np.ndarray]:
    """A quartic small-p relaxation: 1 - h(p) plus a polynomial in p with coefficients in n."""
    c1, c2, c3, c4 = _on_grid(lambda n: dict(enumerate(coefficients(n))), axes, ["n"]).values()

    def per_p(**point) -> dict[int, float]:
        p = point[axis]
        return dict(enumerate([p, binary_entropy(p), p**3, p**4]))

    p, h, p3, p4 = _on_grid(per_p, axes, [axis]).values()
    names = ("base", "block_entropy_penalty", "linear", "quadratic", "cubic", "quartic")
    return dict(zip(names, (np.ones_like(p), -h, c1 * p, c2 * p * p, c3 * p3, c4 * p4)))


def _deletion_small_p_coefficients(n: int) -> tuple[float, float, float, float]:
    """Coefficients of (p, p^2, p^3, p^4) in the small-p deletion polynomial, at a checked n."""
    # W_1(n) and c2 = (n-1)/2 (W_2(n) - 2 W_1(n)) as run series: in c2 a run of length l adds
    # 2^-l l(l-1) log2((l-1)/(2l)) (n+3-l)/(4n), below 0 for every l >= 2, so nothing cancels
    s1, s2, t0, t1 = _RUN_SUMS[3:, min(n - 1, _RUN_CUT)].tolist()
    w1 = ((n + 3) * s1 - s2) / (2 * n) + math.ldexp(math.log2(n), 1 - n)
    c2 = ((n + 3) * t0 - t1) / (4 * n) + math.ldexp((n - 1) * math.log2((n - 1) / (2 * n)), -n)
    return (w1 - 1.0, c2, -comb(n - 1, 2) * w1 - (n - 2) * c2, -comb(n - 1, 3) * w1)


def deletion_bound_small_p(n: int, p_d: float) -> BoundResult:
    """Quartic small-p relaxation of the deletion-only bound."""
    return evaluate_bound("deletion_small_p", ChannelParams(p_d=p_d), n)


def deletion_awgn_bound(n: int, p_d: float, sigma: float) -> BoundResult:
    """Capacity lower bound for the deletion channel cascaded with BI-AWGN."""
    return evaluate_bound("deletion_awgn", ChannelParams(p_d=p_d, sigma=sigma), n)


def _insertion_components(axes: dict, exact: bool = False) -> dict:
    """The insertion bound's components, each once per value of the axes it reads.

    The single-insertion weight at each n is the printed one, or the exact one if
    ``exact``.  Each float operation is the one the formula makes at that point alone.
    """
    p_is, ns = [float(p) for p in axes["p_i"]], [int(n) for n in axes["n"]]
    weights = _single_insertion_weights(ns, exact)
    # (1-p)^k and p^k once per p_i and exponent k, each an n or an n - 1 (at n - 1
    # in ks is at[n] - 1); (1-p)^k as exp(k log1p(-p)): where p is below an ulp
    # of 1, 1 - p rounds to 1.0 and would drop the -n*p that cancels the +n*q
    ks = sorted({*ns, *(n - 1 for n in ns)})
    at = np.array([*map({k: i for i, k in enumerate(ks)}.get, ns)])
    log_keep = [math.log1p(-p) if p < 1.0 else -math.inf for p in p_is]
    keep_k = np.array([[math.exp(k * lk) for k in ks] for lk in log_keep])
    p_k = np.array([[p**k for k in ks] for p in p_is])
    p, n = np.array(p_is)[:, None], np.array(ns, float)
    q = p * keep_k[:, at - 1]
    # the mass of 2 to n-2 insertions, by cancellation: its error of an ulp
    # of 1 can take it below 0 where it is tiny
    ends = [np.full(q.shape, -1.0), keep_k[:, at], n * q, p_k[:, at], n * p_k[:, at - 1] * (1.0 - p)]
    sums = np.reshape([math.fsum(e) for e in np.stack(ends, axis=-1).reshape(-1, 5).tolist()], q.shape)
    per_n = [((3 * m + 1) / (4 * m), math.log2(m * (m - 1) // 2), math.log2(m)) for m in ns]
    fraction, log_pairs, log_n = np.array(per_n).T
    components = {
        "base": keep_k[:, at],
        "block_entropy_penalty": -np.array([binary_entropy(v) for v in p_is])[:, None],
        "single_insertion_gain": (weights - fraction + n) * q,
        "multi_insertion_gain": np.where(sums < 0.0, -sums, 0.0) * log_pairs / n,
        "tail_gain": p_k[:, at - 1] * (1.0 - p) * log_n,
    }
    spread = tuple(slice(None) if name in ("p_i", "n") else None for name in axes)
    return {key: value[spread] for key, value in components.items()}


def random_insertion_bound(n: int, p_i: float) -> BoundResult:
    """The paper's printed insertion bound for the two-bit random replacement channel.

    Evaluates the published formula with the paper's printed, run-weighted
    single-insertion coefficient, so it reproduces the reference insertion
    table.  Exact enumeration shows
    that at small n this is not a capacity lower bound: the value exceeds
    the enumerated (I(X;Y) - H(T))/n at every n from 2 to 9 at p_i = 0.01,
    at n <= 7 at p_i = 0.1 and at n <= 4 at p_i = 0.3.
    """
    return evaluate_bound("random_insertion", ChannelParams(p_i=p_i), n)


def _insertion_small_p_coefficients(n: int) -> tuple[float, float, float, float]:
    """Coefficients of (p, p^2, p^3, p^4) in the small-p insertion polynomial, at a checked n."""
    s = _single_insertion_weights([n]).item()
    b = math.log2(n * (n - 1) // 2)
    c = (3 * n + 1) / (4 * n)
    return (
        s - c,
        -(n - 1) / 2.0 * (2.0 * s - 2.0 * c + n - b),
        -comb(n, 2) * (b - s - 2.0 * n / 3.0 + c),
        -comb(n, 3) * (s + n - c),
    )


def random_insertion_bound_small_p(n: int, p_i: float) -> BoundResult:
    """Quartic small-p relaxation of the insertion-channel bound.

    At n = 4, its smallest block length, it is not below :func:`random_insertion_bound`:
    it exceeds it by a p^3 term, up to 3.50e-6 near p_i = 0.028, for p_i up to about 0.037.
    """
    return evaluate_bound("random_insertion_small_p", ChannelParams(p_i=p_i), n)


class _Bound(NamedTuple):
    n_min: int | None
    scan_min: int | None
    components: Callable
    n_max: int = _MAX_N


def _awgn_penalty(sigma: float) -> float:
    return 0.0 if sigma == 0.0 else awgn_expectation(sigma)


# each bound: its smallest block length (None: it takes none), the block length an optimize
# scan starts from, its components on a grid of axes, each computed once per value of the
# axes it reads and shaped to broadcast, and its largest block length (a small-p quartic
# coefficient, about -n^4/6, is a finite float up to 2^250).  The multi-insertion penalty
# term log2(n(n-1)/2) vanishes at n = 2, which makes the n = 2 insertion value
# spuriously dominate every scan; the reference optima are taken over n >= 3
_BOUNDS = {
    "gallager": _Bound(None, None, partial(_on_grid, _gallager_components, names=("p_d", "p_e", "p_i"))),
    "deletion": _Bound(1, 2, _deletion_components),
    "deletion_substitution": _Bound(
        1, 2, partial(_deletion_components, penalty=("substitution_penalty", "p_e", binary_entropy))
    ),
    "deletion_awgn": _Bound(
        1, 2, partial(_deletion_components, penalty=("awgn_penalty", "sigma", _awgn_penalty))
    ),
    "random_insertion": _Bound(2, 3, _insertion_components),
    "random_insertion_exact": _Bound(2, 3, partial(_insertion_components, exact=True)),
    "deletion_small_p": _Bound(
        4, 4, partial(_small_p_components, _deletion_small_p_coefficients, "p_d"), 2**250
    ),
    "random_insertion_small_p": _Bound(
        4, 4, partial(_small_p_components, _insertion_small_p_coefficients, "p_i"), 2**250
    ),
}


def _check_block_length(method: str, n) -> int | None:
    """``n`` as an int where the method takes a block length; a ValueError if it is not one."""
    n_min, _, _, n_max = _BOUNDS[method]
    return None if n_min is None else _check_integer(n, f"method {method!r}", minimum=n_min, maximum=n_max)


def evaluate_bound(method: str, params: ChannelParams, n: int | None = None) -> BoundResult:
    """Evaluate any bound by its method tag; ``n`` is ignored for gallager."""
    if method not in _BOUNDS:
        raise ValueError(f"unknown method {method!r}")
    n = _check_block_length(method, n)
    axes = dict(p_d=[params.p_d], p_e=[params.p_e], p_i=[params.p_i], sigma=[params.sigma], n=[n])
    components = _BOUNDS[method].components(axes)
    return BoundResult.from_components(method, n, {k: v.item() for k, v in components.items()})


def _rejected(check: Callable, **point) -> dict[str, bool]:
    try:
        check(**point)
    except ValueError:
        return {"rejected": True}
    return {"rejected": False}


def _grid_rates(methods: list[str], p_d, p_e, p_i, sigma, n) -> list[np.ndarray]:
    """Each method's rate at every point of the grid p_d x p_e x p_i x sigma x n.

    Bit for bit ``evaluate_bound(method, ChannelParams(p_d, p_e, p_i, sigma), n).rate``:
    both are the ``math.fsum`` of the same components.  An invalid grid raises
    the error of its first invalid point, as evaluation there would, taking
    the methods in turn.
    """
    axes = dict(p_d=p_d, p_e=p_e, p_i=p_i, sigma=sigma, n=n)
    shape = tuple(map(len, axes.values()))
    if 0 in shape:
        return [np.empty(shape) for _ in methods]
    # ChannelParams rejects a point for p_d and p_i, p_e or sigma, and a
    # method's block-length check reads no channel parameter
    checks = [(names, ChannelParams) for names in (["p_d", "p_i"], ["p_e"], ["sigma"])]
    checks.append((["n"], lambda n: [_check_block_length(method, n) for method in methods]))
    rejected = sum(_on_grid(partial(_rejected, f), axes, names)["rejected"] for names, f in checks)
    if rejected.any():
        first = np.unravel_index((rejected > 0).argmax(), shape)
        *params, n_first = [axis[i] for axis, i in zip(axes.values(), first)]
        ChannelParams(*params)
        for method in methods:
            _check_block_length(method, n_first)
    grids = []
    for method in methods:
        # each point's math.fsum of its components, as in BoundResult.from_components
        points = np.broadcast(*_BOUNDS[method].components(axes).values())
        rates = np.fromiter(map(math.fsum, points), float, points.size).reshape(points.shape)
        grids.append(np.broadcast_to(rates, shape))
    return grids


def optimize_block_length(
    method: str, params: ChannelParams, n_max: int, n_min: int | None = None
) -> tuple[int, BoundResult]:
    """Exhaustively scan block lengths and return the argmax bound.

    Ties break toward the smaller block length.  The profile is not known to
    be unimodal, so every length in [n_min, n_max] is evaluated, on one grid.
    """
    scanned = sorted(m for m, bound in _BOUNDS.items() if bound.n_min is not None)
    if method not in scanned:
        reason = "has no block length" if method in _BOUNDS else "is unknown"
        raise ValueError(f"method {method!r} {reason}; choose from {scanned}")
    if n_min is None:
        n_min = _BOUNDS[method].scan_min
    n_min = _check_integer(n_min, "optimize_block_length", "block length n_min", _BOUNDS[method].n_min)
    n_max = _check_integer(n_max, "optimize_block_length", "block length n_max", n_min)
    lengths = range(n_min, n_max + 1)
    point = [[params.p_d], [params.p_e], [params.p_i], [params.sigma]]
    n_star = lengths[int(_grid_rates([method], *point, lengths)[0].argmax())]
    return n_star, evaluate_bound(method, params, n_star)


def capacity_expansion_constant() -> float:
    """First-order constant of the small-p deletion capacity expansion.

    log2(2e) minus the series sum of 2^(-l-1) l log2(l), read from the run-series
    prefix sums over l <= 128; the terms beyond sum to below 2^-113.
    """
    return math.log2(2.0 * math.e) - _RUN_SUMS[3, -1] / 2.0

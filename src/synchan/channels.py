"""Seeded simulators for the deletion, substitution, AWGN, and insertion channels.

Reproducibility contract: every simulator is a pure function of its inputs and
the :class:`RngState` it advances.  The generator is NumPy's PCG64 seeded
through ``SeedSequence``; independent streams come from ``SeedSequence.spawn``,
so identical seeds give identical sample paths on every platform.  Each
simulator documents the order in which it consumes random draws.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .numerics import _check_probability

__all__ = [
    "RngState",
    "simulate_deletion",
    "simulate_bsc",
    "simulate_deletion_substitution",
    "simulate_deletion_awgn",
    "simulate_gallager_insertion",
]


class RngState:
    """A seeded PCG64 stream with an explicit split rule for independence."""

    def __init__(self, seed: int | None = None, _sequence: np.random.SeedSequence | None = None):
        self._sequence = _sequence if _sequence is not None else np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self._sequence)

    @property
    def seed(self):
        return self._sequence.entropy

    def split(self, count: int) -> list["RngState"]:
        """Spawn ``count`` non-overlapping child streams."""
        return [RngState(_sequence=child) for child in self._sequence.spawn(count)]

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed!r})"


def _as_bits(bits: Sequence[int]) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def simulate_deletion(bits: Sequence[int], p_d: float, rng: RngState) -> np.ndarray:
    """Remove each bit independently with probability p_d, preserving order.

    Consumes one uniform draw per input bit.
    """
    p_d = _check_probability(p_d, "p_d")
    arr = _as_bits(bits)
    keep = rng.generator.random(arr.size) >= p_d
    return arr[keep]


def simulate_bsc(bits: Sequence[int], p_e: float, rng: RngState) -> np.ndarray:
    """Flip each bit independently with probability p_e.

    Consumes one uniform draw per input bit.
    """
    p_e = _check_probability(p_e, "p_e")
    arr = _as_bits(bits)
    flips = rng.generator.random(arr.size) < p_e
    return arr ^ flips.astype(np.uint8)


def simulate_deletion_substitution(
    bits: Sequence[int], p_d: float, p_e: float, rng: RngState
) -> np.ndarray:
    """Deletion stage followed by a binary symmetric channel on the survivors.

    Consumes the deletion draws first, then one flip draw per survivor.
    """
    return simulate_bsc(simulate_deletion(bits, p_d, rng), p_e, rng)


def simulate_deletion_awgn(
    bits: Sequence[int], p_d: float, sigma: float, rng: RngState
) -> np.ndarray:
    """Deletion stage, then antipodal mapping 0 -> +1, 1 -> -1 plus N(0, sigma^2) noise.

    Consumes the deletion draws first, then one Gaussian draw per survivor.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    survivors = simulate_deletion(bits, p_d, rng)
    symbols = 1.0 - 2.0 * survivors.astype(np.float64)
    return symbols + sigma * rng.generator.standard_normal(symbols.size)


def simulate_gallager_insertion(bits: Sequence[int], p_i: float, rng: RngState) -> np.ndarray:
    """Replace each bit, independently with probability p_i, by two uniform bits.

    The replaced bit does not survive; the four two-bit patterns are
    equiprobable.  Unreplaced bits pass through intact and order is
    preserved, so the output length is the input length plus the number of
    replacement events.  Consumes one uniform draw per input bit for the
    event mask, then two bit draws per event in input order.
    """
    p_i = _check_probability(p_i, "p_i")
    arr = _as_bits(bits)
    events = rng.generator.random(arr.size) < p_i
    replacements = rng.generator.integers(0, 2, size=(int(events.sum()), 2), dtype=np.uint8)
    sizes = np.where(events, 2, 1)
    starts = np.cumsum(sizes) - sizes
    out = np.empty(int(sizes.sum()), dtype=np.uint8)
    out[starts[~events]] = arr[~events]
    out[starts[events]] = replacements[:, 0]
    out[starts[events] + 1] = replacements[:, 1]
    return out

"""Seeded simulators for the deletion, substitution, AWGN, and insertion channels.

Reproducibility contract: every simulator is a pure function of its inputs and
the :class:`RngState` it advances.  The generator is NumPy's PCG64 seeded
through ``SeedSequence``; independent streams come from ``SeedSequence.spawn``,
so identical seeds give identical sample paths on every platform.  Each
simulator documents the order in which it consumes random draws.

Every simulator takes a block of n bits or a ``(trials, n)`` batch of blocks,
which runs in one vectorised pass; a block is the one-row batch.  A batch of
``simulate_bsc`` returns a ``(trials, n)`` array.  A batch of any other
simulator returns ``(symbols, lengths)``: every row's output concatenated in
row order, and the int64 output length of each row.  Draws are taken
row-major over the whole batch, stage by stage, so a batch consumes the
stream as the block call on the flattened input does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .numerics import _check_integer, _check_probability, _check_sigma

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
        seed = seed if seed is None else _check_integer(seed, "RngState", what="seed", minimum=0, maximum=None)
        self._sequence = _sequence if _sequence is not None else np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self._sequence)

    @property
    def seed(self):
        return self._sequence.entropy

    def split(self, count: int) -> list["RngState"]:
        """Spawn ``count`` non-overlapping child streams."""
        count = _check_integer(count, "RngState.split", what="count", minimum=0, maximum=None)
        return [RngState(_sequence=child) for child in self._sequence.spawn(count)]

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed!r})"


def _as_bits(bits: Sequence[int], batch: bool = True) -> np.ndarray:
    """A block (n,) or, if ``batch``, a batch (trials, n) as uint8, every element checked to be 0 or 1."""
    arr = np.asarray(bits)
    if arr.ndim not in ((1, 2) if batch else (1,)):
        shapes = "a 1-D block or a 2-D batch" if batch else "a 1-D block"
        raise ValueError(f"bits must be {shapes}, got {arr.ndim}-D")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def _delete(batch: np.ndarray, p_d: float, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Survivors of every row concatenated, and each row's survivor count."""
    keep = rng.generator.random(batch.shape) >= p_d
    return batch[keep], keep.sum(axis=1, dtype=np.int64)


def _flip(arr: np.ndarray, p_e: float, rng: RngState) -> np.ndarray:
    return arr ^ (rng.generator.random(arr.shape) < p_e).astype(np.uint8)


def simulate_deletion(bits: Sequence[int], p_d: float, rng: RngState):
    """Remove each bit independently with probability p_d, preserving order.

    Consumes one uniform draw per input bit, row-major.  A batch returns
    ``(symbols, lengths)``.
    """
    p_d = _check_probability(p_d, "p_d")
    arr = _as_bits(bits)
    survivors, lengths = _delete(np.atleast_2d(arr), p_d, rng)
    return survivors if arr.ndim == 1 else (survivors, lengths)


def simulate_bsc(bits: Sequence[int], p_e: float, rng: RngState) -> np.ndarray:
    """Flip each bit independently with probability p_e.

    Consumes one uniform draw per input bit, row-major.  A batch returns a
    ``(trials, n)`` array.
    """
    p_e = _check_probability(p_e, "p_e")
    return _flip(_as_bits(bits), p_e, rng)


def simulate_deletion_substitution(bits: Sequence[int], p_d: float, p_e: float, rng: RngState):
    """Deletion stage followed by a binary symmetric channel on the survivors.

    Consumes all the deletion draws first, one uniform per input bit, then
    one flip draw per survivor, both row-major.  A batch returns
    ``(symbols, lengths)``.
    """
    p_d = _check_probability(p_d, "p_d")
    p_e = _check_probability(p_e, "p_e")
    arr = _as_bits(bits)
    survivors, lengths = _delete(np.atleast_2d(arr), p_d, rng)
    received = _flip(survivors, p_e, rng)
    return received if arr.ndim == 1 else (received, lengths)


def simulate_deletion_awgn(bits: Sequence[int], p_d: float, sigma: float, rng: RngState):
    """Deletion stage, then antipodal mapping 0 -> +1, 1 -> -1 plus N(0, sigma^2) noise.

    Consumes all the deletion draws first, one uniform per input bit, then
    one Gaussian draw per survivor, both row-major.  A batch returns
    ``(symbols, lengths)``.
    """
    sigma = _check_sigma(sigma)
    p_d = _check_probability(p_d, "p_d")
    arr = _as_bits(bits)
    survivors, lengths = _delete(np.atleast_2d(arr), p_d, rng)
    symbols = 1.0 - 2.0 * survivors.astype(np.float64)
    received = symbols + sigma * rng.generator.standard_normal(symbols.size)
    return received if arr.ndim == 1 else (received, lengths)


def simulate_gallager_insertion(bits: Sequence[int], p_i: float, rng: RngState):
    """Replace each bit, independently with probability p_i, by two uniform bits.

    The replaced bit does not survive; the four two-bit patterns are
    equiprobable.  Unreplaced bits pass through intact and order is
    preserved, so a row's output length is n plus its number of replacement
    events.  Consumes one uniform draw per input bit for the event mask,
    row-major, then one ``integers(0, 2, (events, 2), uint8)`` draw whose
    rows follow the events in row-major order.  A batch returns
    ``(symbols, lengths)``.
    """
    p_i = _check_probability(p_i, "p_i")
    arr = _as_bits(bits)
    batch = np.atleast_2d(arr)
    events = rng.generator.random(batch.shape) < p_i
    replacements = rng.generator.integers(0, 2, size=(int(events.sum()), 2), dtype=np.uint8)
    sizes = np.where(events, 2, 1).ravel()
    out = np.repeat(batch.ravel(), sizes)
    out[np.repeat(events.ravel(), sizes)] = replacements.ravel()
    return out if arr.ndim == 1 else (out, batch.shape[1] + events.sum(axis=1, dtype=np.int64))

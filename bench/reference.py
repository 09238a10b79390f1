"""A fixed reference computation that tracks the host's speed.

The benchmark's host runs faster or slower by a fifth from one minute to the
next, and by more from one second to the next, which no number of rounds
averages out.  So while a round runs its operations, a timer interrupts the
program every ``INTERVAL_S`` of wall time and runs one small unit of this
computation (:class:`Sampler`).  The time the units take is taken out of the
operations' time, and the round reports that time in *reference seconds*:
wall seconds times ``NOMINAL_UNIT_S`` over the mean time of a unit sampled
during it.  A reference second is a wall second on a host as fast as the one
the README's figures were taken on.  The samples are spread evenly over the
operations' time because the host's speed changes within seconds: units
timed only between operations did not track it.

The unit uses no part of synchan, so a change to the program cannot move
it.  It mixes interpreter work (a small dict, floats, a sort), NumPy work on
small arrays (``unique``, ``log2``, a copy) and random reads of a dict and
an array much larger than the L2 cache, the kinds of work the program does.
With the interpreter and NumPy parts alone, an operation's time varied
1.15 to 1.35 times as much as the unit's when the host's speed changed;
with the memory part added, 1.0 to 1.1 times as much.  The dict and the array, about 20 MB, are
built once per round before its operations start, so they add a constant
to the round's peak resident memory.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

# about the median time of one unit on the reference host: a 2-vCPU KVM guest
# (Intel Xeon, 2.1 GHz), Python 3.11.7, NumPy 2.4.6
NOMINAL_UNIT_S = 0.02
# wall time between two units: about a tenth of the time goes to the units
INTERVAL_S = 0.2
# the unit's memory part looks up random keys of a dict this large, and
# gathers random elements of an array this large: both far beyond the
# 2 MB L2 cache, as much of the program's data is
TABLE_SIZE = 100_000
ARRAY_SIZE = 1_000_000


def _interpreter_part() -> float:
    table: dict[int, int] = {}
    total = 0.0
    for i in range(17_500):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + 1
        total += (i % 13) * 0.5
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return total + len(items)


def _array_part() -> float:
    import numpy as np

    x = (np.arange(10_000, dtype=np.int64) * 7919) % 65_521
    total = 0.0
    for _ in range(32):
        _, counts = np.unique(x, return_counts=True)
        total += float(np.log2(counts).sum())
        x = x[::-1].copy()
    return total


class Sampler:
    """Runs one unit every INTERVAL_S of wall time while it is entered.

    The units run in a SIGALRM handler, so in the main thread between two
    bytecodes of whatever the program is doing.  ``unit_s`` and ``units``
    add up the units' own times; ``handler_s`` adds up the time the
    handler took, which the caller subtracts from the wall time it measured.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        keys = rng.integers(1 << 20, 1 << 40, TABLE_SIZE).tolist()
        self._table = {key: key * 0.5 for key in keys}
        self._probes = [keys[i] for i in rng.integers(0, TABLE_SIZE, 20_000)]
        self._array = rng.random(ARRAY_SIZE)
        self._gather = rng.integers(0, ARRAY_SIZE, 60_000)
        self.unit_s = 0.0
        self.units = 0
        self.handler_s = 0.0

    def _memory_part(self) -> float:
        table = self._table
        total = 0.0
        for key in self._probes:
            total += table[key]
        return total + float(self._array[self._gather].sum())

    def run_unit(self) -> float:
        """Run one unit; return the wall time it took."""
        began = perf_counter()
        checksum = _interpreter_part() + _array_part() + self._memory_part()
        elapsed = perf_counter() - began
        if not math.isfinite(checksum):
            raise RuntimeError("the reference computation went wrong")
        return elapsed

    def _sample(self, signum, frame) -> None:
        began = perf_counter()
        self.unit_s += self.run_unit()
        self.units += 1
        self.handler_s += perf_counter() - began

    def __enter__(self) -> Sampler:
        self.run_unit()  # warm up: the first unit allocates
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_unit_s(self) -> float:
        return self.unit_s / self.units

"""Golden reference values for the two bound tables and their regeneration.

Table 1 covers the deletion-substitution channel (right block: rates at
block lengths 1000 and 100; left block: the same bounds reported as
1 - rate in the small-probability regime).  Table 2 covers the random
insertion channel at the per-row optimal block length.

Tolerances: cells printed with four decimals are compared absolutely at
5e-4; cells printed in scientific notation are compared relatively at 1%;
optimal block lengths must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import _BOUNDS, _grid_rates

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "CellDiff",
    "TABLE1_LEFT",
    "TABLE1_RIGHT",
    "TABLE2_LEFT",
    "TABLE2_RIGHT",
    "KNOWN_DISCREPANT_CELLS",
    "table1_diffs",
    "table2_diffs",
]

ABS_TOL = 5e-4
REL_TOL = 0.01

# (p_d, p_e, gallager, rate at n=1000, rate at n=100)
TABLE1_RIGHT = (
    (0.01, 0.01, 0.8392, 0.8419, 0.8418),
    (0.01, 0.03, 0.7268, 0.7373, 0.7293),
    (0.01, 0.10, 0.4549, 0.4576, 0.4575),
    (0.05, 0.01, 0.6368, 0.6476, 0.6469),
    (0.05, 0.03, 0.5289, 0.5397, 0.5390),
    (0.05, 0.10, 0.2681, 0.2789, 0.2781),
    (0.10, 0.01, 0.4583, 0.4729, 0.4716),
    (0.10, 0.03, 0.3561, 0.3707, 0.3693),
    (0.10, 0.10, 0.1089, 0.1236, 0.1222),
)

# (p_d, p_e, 1-gallager, 1-rate at n=1000, 1-rate at n=100)
TABLE1_LEFT = (
    (1e-5, 1e-5, 3.6104e-4, 3.5817e-4, 3.5834e-4),
    (1e-5, 1e-4, 1.6535e-3, 1.6506e-3, 1.6508e-3),
    (1e-5, 1e-3, 1.15881e-2, 1.15853e-2, 1.15854e-2),
    (1e-4, 1e-5, 1.6535e-3, 1.6248e-3, 1.6264e-3),
    (1e-4, 1e-4, 2.9459e-3, 2.9172e-3, 2.9188e-3),
    (1e-4, 1e-3, 1.2879e-2, 1.2850e-2, 1.2852e-2),
    (1e-3, 1e-5, 1.1588e-2, 1.1302e-2, 1.1319e-2),
    (1e-3, 1e-4, 1.2879e-2, 1.2593e-2, 1.2610e-2),
    (1e-3, 1e-3, 2.2804e-2, 2.2518e-2, 2.2535e-2),
)

# (p_i, 1-gallager, 1-rate at optimal n, optimal n); the 1-gallager entry of
# the p_i = 1e-2 row is printed with the exponent off by one in the source
# table (8.07e-1 would mean a rate of 0.193 at a 1% insertion rate, which its
# own closed form rules out); the mantissa is kept and the exponent fixed
TABLE2_LEFT = (
    (1e-6, 2.14e-5, 2.007e-5, 121),
    (1e-5, 1.81e-4, 1.68e-4, 57),
    (1e-4, 1.47e-3, 1.35e-3, 27),
    (1e-3, 1.14e-2, 1.02e-2, 13),
    (1e-2, 8.07e-2, 7.14e-2, 7),
)

# (p_i, gallager, rate at optimal n, optimal n)
TABLE2_RIGHT = (
    (0.03, 0.8056, 0.8276, 5),
    (0.05, 0.7136, 0.7442, 5),
    (0.10, 0.5310, 0.5702, 4),
    (0.15, 0.3901, 0.4230, 4),
    (0.20, 0.2781, 0.2962, 3),
    (0.23, 0.2220, 0.2283, 3),
    (0.25, 0.1887, 0.1853, 3),
)

# cells whose printed source value is inconsistent with the table's own
# internal structure (the improvement over the gallager column at fixed p_d
# is independent of p_e, which pins this cell near 0.7295)
KNOWN_DISCREPANT_CELLS = {("table1_right", 0.01, 0.03, "rate_n1000")}

OPTIMIZE_N_MAX = 512


@dataclass(frozen=True)
class CellDiff:
    """One regenerated cell against its golden value."""

    table: str
    row: tuple[float, float]
    column: str
    expected: float
    computed: float
    kind: str  # "abs", "rel", or "exact"
    within: bool

    @property
    def known_discrepant(self) -> bool:
        return (self.table, *self.row, self.column) in KNOWN_DISCREPANT_CELLS


def _diff(table: str, row, column: str, expected: float, computed: float, kind: str) -> CellDiff:
    tol = {"abs": ABS_TOL, "rel": REL_TOL * abs(expected), "exact": 0}[kind]
    return CellDiff(table, tuple(row), column, expected, computed, kind, abs(computed - expected) <= tol)


def _row_diffs(table: str, row, columns, refs, rates) -> list[CellDiff]:
    """A row's rate cells: rates compared absolutely, or in a left block losses 1 - rate, relatively."""
    loss = table.endswith("_left")
    return [
        _diff(table, row, column, ref, 1.0 - rate if loss else rate, "rel" if loss else "abs")
        for column, ref, rate in zip(columns, refs, rates)
    ]


def table1_diffs() -> list[CellDiff]:
    """Regenerate every cell of the deletion-substitution table, each block from one grid."""
    diffs = []
    for table, rows, columns in (
        ("table1_right", TABLE1_RIGHT, ("gallager", "rate_n1000", "rate_n100")),
        ("table1_left", TABLE1_LEFT, ("loss_gallager", "loss_n1000", "loss_n100")),
    ):
        # each block is a full p_d x p_e grid, so one call computes each (n, p_d) pattern gain once
        p_ds, p_es = (list(dict.fromkeys(axis)) for axis in list(zip(*rows))[:2])
        grids = _grid_rates(["gallager", "deletion_substitution"], p_ds, p_es, [0.0], [0.0], [1000, 100])
        for p_d, p_e, *refs in rows:
            gallager, rates = (grid[p_ds.index(p_d), p_es.index(p_e), 0, 0].tolist() for grid in grids)
            diffs += _row_diffs(table, (p_d, p_e), columns, refs, [gallager[0], *rates])
    return diffs


def table2_diffs() -> list[CellDiff]:
    """Regenerate every cell of the random-insertion table, optima included, from one scan grid."""
    p_is = [row[0] for row in TABLE2_LEFT + TABLE2_RIGHT]
    lengths = range(_BOUNDS["random_insertion"].scan_min, OPTIMIZE_N_MAX + 1)
    grids = _grid_rates(["random_insertion", "gallager"], [0.0], [0.0], p_is, [0.0], lengths)
    rates, gallager = (grid.reshape(len(p_is), len(lengths)) for grid in grids)
    best = rates.argmax(axis=1)  # each row's first argmax, as in optimize_block_length
    diffs = []
    for table, rows, columns in (
        ("table2_left", TABLE2_LEFT, ("loss_gallager", "loss_bound")),
        ("table2_right", TABLE2_RIGHT, ("gallager", "bound")),
    ):
        for p_i, ref_g, ref_rate, ref_n in rows:
            k = p_is.index(p_i)
            optimum = [gallager[k, 0].item(), rates[k, best[k]].item()]
            diffs += _row_diffs(table, (p_i, 0.0), columns, (ref_g, ref_rate), optimum)
            diffs.append(_diff(table, (p_i, 0.0), "optimal_n", ref_n, lengths[best[k]], "exact"))
    return diffs

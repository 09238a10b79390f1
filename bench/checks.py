"""Output checks, computed without the program.

Every reference here is either the paper's printed table, a closed form
evaluated with ``math.comb`` and ``math.log2``, an exhaustive enumeration, an
integral by ``scipy.integrate.quad``, or a property the method must have.
Nothing compares against a stored copy of synchan's own output.  Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from functools import lru_cache

import numpy as np
from scipy import integrate, special

LN2 = math.log(2.0)

# ---------------------------------------------------------------------------
# the paper's printed tables, kept apart from synchan.reference_tables so that
# an edit there cannot move the benchmark's reference
# ---------------------------------------------------------------------------

# cells printed with four decimals: absolute 5e-4; in scientific notation:
# relative 1%; optimal block lengths: exact
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

# (p_d, p_e, 1 - gallager, 1 - rate at n=1000, 1 - rate at n=100)
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

# (p_i, 1 - gallager, 1 - rate at the optimal n, optimal n); the 1 - gallager
# entry of the p_i = 1e-2 row is printed as 8.07e-1, an exponent slip (its own
# closed form gives 8.07e-2), and is kept here with the exponent fixed
TABLE2_LEFT = (
    (1e-6, 2.14e-5, 2.007e-5, 121),
    (1e-5, 1.81e-4, 1.68e-4, 57),
    (1e-4, 1.47e-3, 1.35e-3, 27),
    (1e-3, 1.14e-2, 1.02e-2, 13),
    (1e-2, 8.07e-2, 7.14e-2, 7),
)

# (p_i, gallager, rate at the optimal n, optimal n)
TABLE2_RIGHT = (
    (0.03, 0.8056, 0.8276, 5),
    (0.05, 0.7136, 0.7442, 5),
    (0.10, 0.5310, 0.5702, 4),
    (0.15, 0.3901, 0.4230, 4),
    (0.20, 0.2781, 0.2962, 3),
    (0.23, 0.2220, 0.2283, 3),
    (0.25, 0.1887, 0.1853, 3),
)

# the insertion scans of Table II start at n = 3 (n = 2 is excluded by the
# method), the deletion-substitution scan at n = 2
INSERTION_SCAN_N_MIN = 3
INSERTION_SCAN_N_MAX = 512
DELETION_SCAN_N_MIN = 2
# rates are checked against the exhaustive enumeration up to this n
ENUMERATED_N_MAX = 10

# tolerances: full-precision values against closed forms, and values read
# from CSV, which the CLI prints with 8 significant digits (a value in
# [0.1, 1) is then off by at most 5e-9, any value by at most 5e-8 of itself)
EXACT_TOL = 1e-11
CSV_TOL = 1.5e-8
CSV_REL_TOL = 1e-7
ENTROPY_TOL = 1e-9

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def entropy2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _xlog2x(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log2(x)


def gallager(p_d: float = 0.0, p_e: float = 0.0, p_i: float = 0.0) -> float:
    survive = 1.0 - p_d - p_i
    return 1.0 + _xlog2x(p_d) + _xlog2x(p_i) + _xlog2x(survive * (1 - p_e)) + _xlog2x(survive * p_e)


def deletion_base(p_d: float, p_e: float = 0.0) -> float:
    """The deletion-substitution rate without its pattern gain."""
    return 1.0 - p_d - entropy2(p_d) - (1.0 - p_d) * entropy2(p_e)


def _log2_comb(a, b):
    return (special.gammaln(a + 1.0) - special.gammaln(b + 1.0) - special.gammaln(a - b + 1.0)) / LN2


@lru_cache(maxsize=None)
def pmf_window(n: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, pmf): the Binomial(n, p) masses of j = lo, lo + 1, ..., with j >= 1.

    The window keeps every mass within 2^-80 of the largest; since
    W_j(n) <= n, the mass left out moves a rate by less than 1e-20.
    """
    js = np.arange(n + 1, dtype=float)
    log2_pmf = _log2_comb(float(n), js) + js * math.log2(p) + (n - js) * math.log2(1.0 - p)
    keep = np.flatnonzero(log2_pmf >= log2_pmf.max() - 80.0)
    lo, hi = max(1, int(keep[0])), int(keep[-1])
    return lo, np.exp2(log2_pmf[lo : hi + 1])


@lru_cache(maxsize=None)
def gain_ceiling(n: int, p: float) -> float:
    """(1/n) E[log2 C(n, J)], J ~ Binomial(n, p): the gain when W_j = log2 C(n, j)."""
    if p in (0.0, 1.0):
        return 0.0
    lo, pmf = pmf_window(n, p)
    return math.fsum(m * math.log2(math.comb(n, lo + k)) for k, m in enumerate(pmf)) / n


# W_j(n) is computed for every j up to this n, and over the pmf window above it
ALL_J_MAX_N = 2000


@lru_cache(maxsize=None)
def pattern_weights(n: int, lo: int, hi: int) -> np.ndarray:
    """W_j(n) for j = lo..hi, summed over the runs of the input.

    A deletion set D of size j puts d_r deletions into run r of the input x,
    and the sets that give the same output are those with the same d_r, so
    log2 of their number is the sum over runs of log2 C(length_r, d_r).  By
    linearity of expectation W_j(n) is then the sum over run lengths l of
    (expected number of runs of length l) times E[log2 C(l, d)], where d,
    the deletions a uniform size-j set puts into a given l positions, is
    Hypergeometric(n, l, j).  A run of length l < n starting at position s
    has l - 1 equal neighbours inside, and a differing neighbour at each of
    its inner ends: 2^-l for each of the two runs at an end of x, and
    2^-(l+1) for each of the n - l - 1 runs inside.  The one run of length n
    has probability 2^(1-n).  The sum stops once a run length's count times l
    is below 1e-20.  ``selftest.py`` compares the result with
    :func:`enumerated_weights` for n <= 10.
    """
    js = np.arange(lo, hi + 1, dtype=float)
    log2_total = _log2_comb(float(n), js)
    weights = np.zeros(js.size)
    for l in range(1, n + 1):
        runs = 2.0 ** (1 - n) if l == n else 2.0 * 2.0**-l + (n - l - 1) * 2.0 ** -(l + 1)
        if runs * l < 1e-20:
            break
        d = np.arange(1, l + 1)
        log2_inside = np.array([math.log2(math.comb(l, k)) for k in d])
        outside = js[:, None] - d[None, :]
        possible = (outside >= 0) & (outside <= n - l)
        log2_hyper = (
            log2_inside[None, :]
            + _log2_comb(float(n - l), np.clip(outside, 0, n - l))
            - log2_total[:, None]
        )
        weights += runs * (np.where(possible, np.exp2(log2_hyper), 0.0) @ log2_inside)
    return weights


@lru_cache(maxsize=None)
def pattern_gain(n: int, p_d: float) -> float:
    """(1/n) E[W_J(n)], J ~ Binomial(n, p_d), with W_j(n) from :func:`pattern_weights`."""
    if p_d in (0.0, 1.0):
        return 0.0
    lo, pmf = pmf_window(n, p_d)
    if n <= ALL_J_MAX_N:
        weights = pattern_weights(n, 1, n)[lo - 1 : lo - 1 + pmf.size]
    else:
        weights = pattern_weights(n, lo, lo + pmf.size - 1)
    return math.fsum(pmf * weights) / n


def deletion_rate(n: int, p_d: float, p_e: float) -> float:
    """The deletion-substitution bound with W_j(n) from :func:`pattern_weights`."""
    return deletion_base(p_d, p_e) + pattern_gain(n, p_d)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    return sum((values >> k) & 1 for k in range(bits))


@lru_cache(maxsize=None)
def enumerated_weights(n: int) -> tuple[float, ...]:
    """W_j(n) for j = 0..n, by enumerating every input and every deletion set.

    For an input x and a deletion set D, every D' that removes as many
    symbols from each run of x as D does gives the same output.  W_j(n) is
    the mean, over the 2^n inputs and the C(n, j) sets of size j, of log2 of
    the number of such D'.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = _popcount(masks, n)
    totals = np.zeros(n + 1)
    for x in range(1 << n):
        runs = []
        for i in range(n):
            if i == 0 or ((x >> i) & 1) != ((x >> (i - 1)) & 1):
                runs.append(0)
            runs[-1] |= 1 << i
        key = np.zeros(1 << n, dtype=np.int64)
        for run in runs:
            key = key * (n + 1) + _popcount(masks & run, n)
        _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
        totals += np.bincount(sizes, weights=np.log2(counts[inverse]), minlength=n + 1)
    return tuple(totals[j] / ((1 << n) * math.comb(n, j)) for j in range(n + 1))


def enumerated_deletion_rate(n: int, p_d: float, p_e: float) -> float:
    """The deletion-substitution bound with W_j(n) from :func:`enumerated_weights`."""
    weights = enumerated_weights(n)
    gain = math.fsum(
        weights[j] * math.comb(n, j) * p_d**j * (1.0 - p_d) ** (n - j) for j in range(1, n + 1)
    )
    return deletion_base(p_d, p_e) + gain / n


@lru_cache(maxsize=None)
def awgn_expectation(sigma: float) -> float:
    """E[log2(1 + exp(-2y/sigma^2))] for y ~ N(1, sigma^2), by adaptive quadrature."""
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def integrand(y: float) -> float:
        z = (y - 1.0) / sigma
        t = -2.0 * y / sigma**2
        softplus = t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))
        return norm * math.exp(-0.5 * z * z) * softplus / LN2

    lo, hi = 1.0 - 40.0 * sigma, 1.0 + 40.0 * sigma
    breaks = [b for b in (0.0, 1.0) if lo < b < hi]
    value, _ = integrate.quad(integrand, lo, hi, points=breaks, epsabs=1e-14, epsrel=1e-12, limit=500)
    return value


def count_entropy(n: int, p: float) -> float:
    """Entropy in bits of Binomial(n, p), from math.comb."""
    masses = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return -math.fsum(m * math.log2(m) for m in masses if m > 0)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_bracket(rate: float, n: int, p_d: float, p_e: float, tol: float, label: str) -> list[str]:
    """0 <= W_j(n) <= log2 C(n, j) puts the rate between the base and base + ceiling."""
    lo = deletion_base(p_d, p_e)
    hi = lo + gain_ceiling(n, p_d)
    if lo - tol <= rate <= hi + tol:
        return []
    return [f"{label}: rate {rate!r} outside [{lo!r}, {hi!r}]"]


def check_deletion_rate(rate: float, n: int, p_d: float, p_e: float, tol: float, label: str) -> list[str]:
    """A deletion-family rate against the bracket and against :func:`deletion_rate`."""
    failures = check_bracket(rate, n, p_d, p_e, tol, label)
    expected = deletion_rate(n, p_d, p_e)
    if abs(rate - expected) > tol:
        failures.append(f"{label}: rate {rate!r}, the run-length sum gives {expected!r}")
    return failures


def check_enumerated_rate(rate: float, n: int, p_d: float, p_e: float, label: str) -> list[str]:
    expected = enumerated_deletion_rate(n, p_d, p_e)
    if abs(rate - expected) <= EXACT_TOL:
        return []
    return [f"{label}: rate {rate!r}, enumeration gives {expected!r}"]


def check_scan_optimum(
    best_n: int, rates: dict[int, float], n_min: int, n_max: int, label: str
) -> list[str]:
    """The optimum is at least the rate at both ends of the scan and at its neighbours."""
    if not n_min <= best_n <= n_max:
        return [f"{label}: optimum n = {best_n} outside [{n_min}, {n_max}]"]
    lengths = [n for n in sorted({n_min, n_max, best_n - 1, best_n, best_n + 1}) if n_min <= n <= n_max]
    if any(n not in rates for n in lengths):
        return [f"{label}: no rate at n = {[n for n in lengths if n not in rates]}"]
    return [
        f"{label}: rate {rates[n]!r} at n = {n} beats the optimum {rates[best_n]!r} at n = {best_n}"
        for n in lengths
        if rates[n] > rates[best_n]
    ]


def printed_misprints() -> dict[tuple, float]:
    """Table I rate cells whose printed gain over gallager strays from their group.

    At p_i = 0 the bound and gallager share the term -(1 - p_d) h(p_e), so
    within one p_d group and one block length the gain cannot depend on p_e.
    A printed gain more than ABS_TOL from its group's median marks a
    misprint; the value the table implies is printed gallager + that median.
    """
    implied = {}
    for p_d in sorted({row[0] for row in TABLE1_RIGHT}):
        group = [row for row in TABLE1_RIGHT if row[0] == p_d]
        for index, column in ((3, "rate_n1000"), (4, "rate_n100")):
            median_gain = statistics.median(row[index] - row[2] for row in group)
            for row in group:
                if abs(row[index] - row[2] - median_gain) > ABS_TOL:
                    implied[("table1_right", p_d, row[1], column)] = row[2] + median_gain
    return implied


def _near(value: float, expected: float, kind: str) -> bool:
    if kind == "abs":
        return abs(value - expected) <= ABS_TOL
    if kind == "rel":
        return abs(value - expected) <= REL_TOL * abs(expected)
    return value == expected


def read_table_csv(text: str) -> dict[tuple, float]:
    """{(table, p_first, p_second, column): computed} from `synchan table --csv`."""
    cells = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["table"], float(row["p_first"]), float(row["p_second"]), row["column"])
        cells[key] = float(row["computed"])
    return cells


def table1_expectations() -> dict[tuple, tuple]:
    """{cell: (printed value, tolerance kind, closed form or None, n or None, p_d, p_e)}."""
    cells = {}
    for p_d, p_e, g, r1000, r100 in TABLE1_RIGHT:
        cells[("table1_right", p_d, p_e, "gallager")] = (g, "abs", gallager(p_d, p_e), None, p_d, p_e)
        cells[("table1_right", p_d, p_e, "rate_n1000")] = (r1000, "abs", None, 1000, p_d, p_e)
        cells[("table1_right", p_d, p_e, "rate_n100")] = (r100, "abs", None, 100, p_d, p_e)
    for p_d, p_e, g, l1000, l100 in TABLE1_LEFT:
        loss_gallager = 1.0 - gallager(p_d, p_e)
        cells[("table1_left", p_d, p_e, "loss_gallager")] = (g, "rel", loss_gallager, None, p_d, p_e)
        cells[("table1_left", p_d, p_e, "loss_n1000")] = (l1000, "rel", None, 1000, p_d, p_e)
        cells[("table1_left", p_d, p_e, "loss_n100")] = (l100, "rel", None, 100, p_d, p_e)
    return cells


def check_table1(cells: dict[tuple, float], exit_code: int) -> list[str]:
    """Every Table I cell against its printed value; the misprint against what the table implies."""
    expected = table1_expectations()
    if set(cells) != set(expected):
        return [f"table I: cells {sorted(set(cells) ^ set(expected))} missing or unexpected"]
    implied = printed_misprints()
    failures = []
    deviates = False
    for key, (printed, kind, closed, n, p_d, p_e) in expected.items():
        value = cells[key]
        if not _near(value, printed, kind):
            deviates = True
            if key not in implied:
                failures.append(f"table I {key}: {value!r}, printed {printed!r}")
        if key in implied and not _near(value, implied[key], "abs"):
            failures.append(f"table I {key}: {value!r}, the printed gains imply {implied[key]!r}")
        if closed is not None and abs(value - closed) > CSV_REL_TOL * abs(closed):
            failures.append(f"table I {key}: {value!r}, closed form {closed!r}")
        if n is not None:
            rate = value if key[0] == "table1_right" else 1.0 - value
            failures += check_deletion_rate(rate, n, p_d, p_e, CSV_TOL, f"table I {key}")
    if exit_code != (1 if deviates else 0):
        failures.append(f"table I: exit code {exit_code}, expected {1 if deviates else 0}")
    return failures


def table2_expectations() -> dict[tuple, tuple]:
    """{cell: (printed value, tolerance kind, closed form or None)}."""
    cells = {}
    for p_i, g, loss, n_star in TABLE2_LEFT:
        cells[("table2_left", p_i, 0.0, "loss_gallager")] = (g, "rel", 1.0 - gallager(p_i=p_i))
        cells[("table2_left", p_i, 0.0, "loss_bound")] = (loss, "rel", None)
        cells[("table2_left", p_i, 0.0, "optimal_n")] = (n_star, "exact", None)
    for p_i, g, rate, n_star in TABLE2_RIGHT:
        cells[("table2_right", p_i, 0.0, "gallager")] = (g, "abs", gallager(p_i=p_i))
        cells[("table2_right", p_i, 0.0, "bound")] = (rate, "abs", None)
        cells[("table2_right", p_i, 0.0, "optimal_n")] = (n_star, "exact", None)
    return cells


def table2_scans(cells: dict[tuple, float]) -> dict[float, int]:
    """{p_i: optimal n} of the twelve scans, as the table reports them."""
    return {key[1]: int(value) for key, value in cells.items() if key[3] == "optimal_n"}


def check_table2(
    cells: dict[tuple, float], exit_code: int, scan_rates: dict[float, dict[int, float]]
) -> list[str]:
    """Every Table II cell against its printed value, and each scan's optimum.

    ``scan_rates[p_i][n]`` holds the bound at the scan's ends and around the
    optimum the table reports, evaluated at full precision.
    """
    expected = table2_expectations()
    if set(cells) != set(expected):
        return [f"table II: cells {sorted(set(cells) ^ set(expected))} missing or unexpected"]
    failures = []
    deviates = False
    for key, (printed, kind, closed) in expected.items():
        value = cells[key]
        if not _near(value, printed, kind):
            deviates = True
            failures.append(f"table II {key}: {value!r}, printed {printed!r}")
        if closed is not None and abs(value - closed) > CSV_REL_TOL * abs(closed):
            failures.append(f"table II {key}: {value!r}, closed form {closed!r}")
    if exit_code != (1 if deviates else 0):
        failures.append(f"table II: exit code {exit_code}, expected {1 if deviates else 0}")
    for key, value in cells.items():
        if key[3] not in ("bound", "loss_bound"):
            continue
        table, p_i = key[0], key[1]
        best_n = int(cells[(table, p_i, 0.0, "optimal_n")])
        rates = scan_rates[p_i]
        rate = value if key[3] == "bound" else 1.0 - value
        if best_n in rates and abs(rate - rates[best_n]) > CSV_TOL:
            failures.append(
                f"table II {key}: {value!r}, the bound at n = {best_n} is {rates[best_n]!r}"
            )
        failures += check_scan_optimum(
            best_n, rates, INSERTION_SCAN_N_MIN, INSERTION_SCAN_N_MAX, f"table II scan p_i = {p_i}"
        )
    return failures


def read_sweep_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(op: dict, rows: list[dict[str, str]], exit_code: int) -> list[str]:
    """Each sweep row: the deletion column's rate, and the exact relation of the other to it."""
    label = f"sweep {'/'.join(op['methods'])} n={op['n']}"
    if exit_code != 0:
        return [f"{label}: exit code {exit_code}"]
    second_axis = op.get("pe") or op.get("snr_db")
    if len(rows) != len(op["pd"]) * len(second_axis):
        return [f"{label}: {len(rows)} rows for a {len(op['pd'])} x {len(second_axis)} grid"]
    failures = []
    grid = [(p_d, v) for p_d in op["pd"] for v in second_axis]
    for row, (p_d, v) in zip(rows, grid):
        where = f"{label} p_d={p_d!r} {'p_e' if 'pe' in op else 'snr_db'}={v!r}"
        if row["p_d"] != f"{p_d:.8g}" or row["n"] != str(op["n"]):
            failures.append(f"{where}: row reads p_d={row['p_d']} n={row['n']}")
            continue
        deletion = float(row["deletion"])
        failures += check_deletion_rate(deletion, op["n"], p_d, 0.0, CSV_TOL, where)
        if "pe" in op:
            other = float(row["del-sub"])
            expected = deletion - (1.0 - p_d) * entropy2(v)
        else:
            sigma = 10.0 ** (-v / 20.0)
            if row["sigma"] != f"{sigma:.8g}":
                failures.append(f"{where}: sigma reads {row['sigma']}, expected {sigma:.8g}")
            other = float(row["del-awgn"])
            expected = deletion - (1.0 - p_d) * awgn_expectation(sigma)
        if abs(other - expected) > CSV_TOL:
            failures.append(f"{where}: {other!r}, the deletion column gives {expected!r}")
    return failures


def check_report_entropy(channel: str, n: int, p: float, output_entropy: float) -> list[str]:
    """Output entropy of an i.u.d. input: n(1 - p) + H(T) (deletion), n(1 + p) + H(T) (insertion)."""
    sign = -1.0 if channel == "deletion" else 1.0
    expected = n * (1.0 + sign * p) + count_entropy(n, p)
    if abs(output_entropy - expected) <= ENTROPY_TOL:
        return []
    return [f"{channel} report n={n} p={p}: H(Y) = {output_entropy!r}, expected {expected!r}"]


def check_chain_margins(label: str, margins: list[tuple[str, float]]) -> list[str]:
    return [f"{label}: {name} margin {margin!r} < 0" for name, margin in margins if not margin >= 0.0]


def check_verify_scope(scope: str, checks: list[list]) -> list[str]:
    """Every check of a verification scope passed, and the scope ran at least one."""
    if not checks:
        return [f"verify {scope}: no checks ran"]
    return [f"verify {scope}: FAIL {name}: {detail}" for name, passed, detail in checks if not passed]

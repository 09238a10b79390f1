"""Self-test of the benchmark's output checks: each must pass a correct value
and reject a perturbed one.

Usage: python3 bench/selftest.py

The correct values are built from the checks' own references, not from
synchan, so this runs without the program.  Exits 1 if a check passes a
perturbed value or rejects a correct one.
"""

from __future__ import annotations

import math
import sys

import checks


def _table1_cells() -> dict[tuple, float]:
    """A Table I as the program should print it, from the closed forms."""
    cells = {}
    for key, (printed, kind, closed, n, p_d, p_e) in checks.table1_expectations().items():
        if closed is None:
            rate = checks.deletion_rate(n, p_d, p_e)
            closed = rate if key[0] == "table1_right" else 1.0 - rate
        cells[key] = closed
    return cells


def _table2():
    """A Table II as the program should print it, and bound values around each optimum."""
    cells = {}
    scan_rates = {}
    for key, (printed, kind, closed) in checks.table2_expectations().items():
        cells[key] = closed if closed is not None else printed
    for key, value in cells.items():
        if key[3] in ("bound", "loss_bound"):
            rate = value if key[3] == "bound" else 1.0 - value
            best_n = int(cells[(key[0], key[1], 0.0, "optimal_n")])
            lengths = {checks.INSERTION_SCAN_N_MIN, checks.INSERTION_SCAN_N_MAX}
            lengths |= {best_n - 1, best_n, best_n + 1}
            scan_rates[key[1]] = {n: rate - 0.01 * abs(n - best_n) for n in lengths}
    return cells, scan_rates


def _sweep(kind, p_d, value, n, awgn_scale=1.0, shift=0.0):
    """One sweep op and its single CSV row, correct up to the given perturbation."""
    deletion = checks.deletion_rate(n, p_d, 0.0)
    row = {"p_d": f"{p_d:.8g}", "n": str(n), "deletion": f"{deletion:.8g}"}
    if kind == "pe":
        op = {"methods": ["deletion", "del-sub"], "pd": [p_d], "pe": [value], "n": n}
        row["del-sub"] = f"{deletion - (1 - p_d) * checks.entropy2(value) + shift:.8g}"
    else:
        sigma = 10.0 ** (-value / 20.0)
        op = {"methods": ["deletion", "del-awgn"], "pd": [p_d], "snr_db": [value], "n": n}
        row["sigma"] = f"{sigma:.8g}"
        penalty = (1 - p_d) * checks.awgn_expectation(sigma) * awgn_scale
        row["del-awgn"] = f"{deletion - penalty + shift:.8g}"
    return op, [row]


def _replaced(cells, key, value):
    return {**cells, key: value}


def cases():
    """(name, check result on a correct value, check result on a perturbed value)."""
    t1 = _table1_cells()
    cell = ("table1_right", 0.05, 0.03, "rate_n100")
    misprint = next(iter(checks.printed_misprints()))
    loss = ("table1_left", 1e-4, 1e-4, "loss_gallager")
    yield (
        "table I",
        checks.check_table1(t1, 1),
        checks.check_table1(_replaced(t1, cell, t1[cell] + 1e-3), 1),
    )
    yield "table I misprint cell", [], checks.check_table1(
        _replaced(t1, misprint, t1[misprint] + 1e-3), 1
    )
    yield "table I gallager closed form", [], checks.check_table1(
        _replaced(t1, loss, t1[loss] * (1 + 1e-6)), 1
    )
    yield "table I exit code", [], checks.check_table1(t1, 0)

    t2, rates = _table2()
    bound = ("table2_right", 0.10, 0.0, "bound")
    yield (
        "table II",
        checks.check_table2(t2, 0, rates),
        checks.check_table2(_replaced(t2, bound, t2[bound] + 1e-3), 0, rates),
    )
    optimal_n = ("table2_left", 1e-4, 0.0, "optimal_n")
    yield "table II optimal n", [], checks.check_table2(_replaced(t2, optimal_n, 28), 0, rates)
    beaten = _replaced(rates, 0.05, _replaced(rates[0.05], 6, rates[0.05][5] + 1e-9))
    yield "table II scan optimum", [], checks.check_table2(t2, 0, beaten)

    good, bad = _sweep("pe", 0.05, 0.01, 1000), _sweep("pe", 0.05, 0.01, 1000, shift=1e-7)
    yield "sweep p_d x p_e", checks.check_sweep(*good, 0), checks.check_sweep(*bad, 0)
    good = _sweep("snr", 0.05, 4.0, 100)
    bad = _sweep("snr", 0.05, 4.0, 100, awgn_scale=1 + 1e-6)
    yield (
        "sweep p_d x SNR, E(sigma) x (1 + 1e-6)",
        checks.check_sweep(*good, 0),
        checks.check_sweep(*bad, 0),
    )

    p_d, p_e = 0.1, 0.02
    weights = checks.enumerated_weights(8)
    scaled_gain = math.fsum(
        weights[j] * (1 + 1e-6) * math.comb(8, j) * p_d**j * (1 - p_d) ** (8 - j)
        for j in range(1, 9)
    )
    scaled = checks.deletion_base(p_d, p_e) + scaled_gain / 8
    yield (
        "rate at n = 8, W_j x (1 + 1e-6)",
        checks.check_enumerated_rate(checks.enumerated_deletion_rate(8, p_d, p_e), 8, p_d, p_e, "n=8"),
        checks.check_enumerated_rate(scaled, 8, p_d, p_e, "n=8"),
    )

    rate = checks.deletion_rate(10000, 0.02, 0.01)
    base = checks.deletion_base(0.02, 0.01)
    yield (
        "rate at n = 10000, W_j x (1 + 1e-6)",
        checks.check_deletion_rate(rate, 10000, 0.02, 0.01, checks.EXACT_TOL, "n=10000"),
        checks.check_deletion_rate(
            base + (rate - base) * (1 + 1e-6), 10000, 0.02, 0.01, checks.EXACT_TOL, "n=10000"
        ),
    )

    def run_length_sum_at_small_n(shift):
        failures = []
        for n in range(2, checks.ENUMERATED_N_MAX + 1):
            rate = checks.deletion_rate(n, p_d, p_e) + shift
            failures += checks.check_enumerated_rate(rate, n, p_d, p_e, f"n={n}")
        return failures

    yield (
        "run-length sum against the enumeration, n = 2..10",
        run_length_sum_at_small_n(0.0),
        run_length_sum_at_small_n(1e-10),
    )

    ceiling = checks.gain_ceiling(10000, 0.02)

    def bracket(rate):
        return checks.check_bracket(rate, 10000, 0.02, 0.01, 1e-12, "n=10000")

    yield "bracket, below", bracket(base + 0.5 * ceiling), bracket(base - 1e-9)
    yield "bracket, above", [], bracket(base + ceiling + 1e-9)

    scan = {2: 0.1, 98: 0.29, 99: 0.3, 100: 0.31}
    yield (
        "scan optimum",
        checks.check_scan_optimum(100, scan, 2, 100, "scan"),
        checks.check_scan_optimum(99, scan, 2, 100, "scan"),
    )

    entropy = 12 * (1 - 0.1) + checks.count_entropy(12, 0.1)
    yield (
        "output entropy, shifted by 1e-8",
        checks.check_report_entropy("deletion", 12, 0.1, entropy),
        checks.check_report_entropy("deletion", 12, 0.1, entropy + 1e-8),
    )
    entropy = 9 * (1 + 0.3) + checks.count_entropy(9, 0.3)
    yield (
        "insertion output entropy",
        checks.check_report_entropy("insertion", 9, 0.3, entropy),
        checks.check_report_entropy("insertion", 9, 0.3, entropy - 1e-8),
    )
    yield (
        "chain margins",
        checks.check_chain_margins("r", [["capacity_chain", 1e-3]]),
        checks.check_chain_margins("r", [["capacity_chain", -1e-12]]),
    )
    passing = [["a", True, ""], ["b", True, ""]]
    yield (
        "verify scope",
        checks.check_verify_scope("oracle", passing),
        checks.check_verify_scope("oracle", passing + [["c", False, "p = 1e-9"]]),
    )
    yield "verify scope, empty", [], checks.check_verify_scope("oracle", [])


def main() -> int:
    bad = 0
    for name, correct, perturbed in cases():
        ok = not correct and bool(perturbed)
        bad += not ok
        status = "ok  " if ok else "FAIL"
        if correct:
            detail = correct[0]
        else:
            detail = "rejects: " + perturbed[0] if perturbed else "passes the perturbed value"
        print(f"{status} {name}: {detail}")
    if bad:
        print(f"{bad} of the checks above misjudged a value")
    else:
        print("every check passed the correct value and rejected the perturbed one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

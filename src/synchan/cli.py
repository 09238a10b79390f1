"""Command-line front end: bound evaluation, table regeneration, sweeps, verification.

Subcommands: ``bound``, ``table``, ``sweep``, ``verify``, ``optimize``.
CSV output is UTF-8, comma-separated, CRLF-terminated, with a header row and '.' decimals;
rates are printed with at least six significant digits.

The SNR flag assumes unit-energy antipodal signalling with noise variance
sigma^2, so SNR = 1/sigma^2 and --snr-db maps to sigma = 10^(-snr_db/20).
To sidestep that convention, bound and optimize take --sigma or --noise-var, and
sweep takes a --sigma axis; sweep has no --noise-var.  The noise flags exclude each other.

An invalid value exits 2 with one stderr line: ``error: argument --flag: ...`` where the
parser rejects it, or an ``error:`` naming the parameter (the path, for --csv) where the
library does.  An unknown flag, a missing required flag or a missing subcommand exits 2
with argparse's usage message.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import nullcontext
from functools import partial
from itertools import product
from typing import Sequence

from .bounds import _BOUNDS, ChannelParams, _grid_rates, evaluate_bound, optimize_block_length
from .numerics import _check_integer
from .reference_tables import CellDiff, table1_diffs, table2_diffs

__all__ = ["main"]

_METHODS = {
    "gallager": "gallager",
    "deletion": "deletion",
    "del-sub": "deletion_substitution",
    "del-awgn": "deletion_awgn",
    "insertion": "random_insertion",
    "del-small-p": "deletion_small_p",
    "ins-small-p": "random_insertion_small_p",
}

# the scopes of ``verify``, in the order they run; named here so that only verify loads verification
_SCOPES = ("properties", "oracle", "chains", "simulators")

# the JSON layouts of ``verify`` and of ``bound``/``optimize``: bump when a key changes or goes away
_VERIFY_SCHEMA_VERSION = 1
_RESULT_SCHEMA_VERSION = 1


def _flag(convert):
    """``convert`` as an argparse ``type``: its ValueError becomes the flag's error, message kept."""

    def converted(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return converted


def _sigma_from_snr_db(snr_db: str | float) -> float:
    """sigma = 10^(-snr_db / 20), or ValueError where that exceeds the float range."""
    snr_db = float(snr_db)
    try:
        return 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        raise ValueError(f"{snr_db!r} dB gives a sigma beyond the float range") from None


def _sigma_from_noise_var(text: str) -> float:
    variance = float(text)
    if variance < 0:
        raise ValueError(f"must be nonnegative, got {variance!r}")
    return math.sqrt(variance)


def _sample_budget(text: str) -> float:
    budget = float(text)
    if not 0.0 < budget < math.inf:
        raise ValueError(f"must be positive and finite, got {budget!r}")
    return budget


def _params_from_args(args) -> ChannelParams:
    # + 0.0 reads a probability of -0.0 as 0.0
    return ChannelParams(p_d=args.pd + 0.0, p_e=args.pe + 0.0, p_i=args.pi + 0.0, sigma=args.sigma)


def _print_result(result, as_json: bool) -> None:
    if as_json:
        keys = ("method", "block_length", "rate", "components")
        payload = {"schema_version": _RESULT_SCHEMA_VERSION} | {k: getattr(result, k) for k in keys}
        print(json.dumps(payload, indent=2))
        return
    print(f"method        {result.method}")
    if result.block_length is not None:
        print(f"block length  {result.block_length}")
    print(f"rate          {result.rate:.6g} bits/channel use")
    for name, value in result.components.items():
        print(f"  {name:<24s} {value:+.6g}")


def _cmd_bound(args) -> int:
    _print_result(evaluate_bound(_METHODS[args.method], _params_from_args(args), args.n), args.json)
    return 0


def _format_cell(diff: CellDiff) -> str:
    value = f"{diff.computed:.6g}"
    if not diff.within:
        value += " [DEVIATES ref {0:g}{1}]".format(
            diff.expected, ", known misprint" if diff.known_discrepant else ""
        )
    return value


def _open_csv(path: str | None, default=None):
    """The ``--csv`` file opened for writing, or ``default`` without a path; open it before any work."""
    return open(path, "w", newline="", encoding="utf-8") if path else nullcontext(default)


def _write_diff_csv(fh, diffs: list[CellDiff]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["table", "p_first", "p_second", "column", "reference", "computed", "kind", "within"])
    for d in diffs:
        writer.writerow(
            [d.table, f"{d.row[0]:g}", f"{d.row[1]:g}", d.column]
            + [f"{d.expected:.8g}", f"{d.computed:.8g}", d.kind, int(d.within)]
        )


def _cmd_table(args) -> int:
    with _open_csv(args.csv) as out:
        diffs = table1_diffs() if args.which in ("I", "1") else table2_diffs()
        bad = _print_table(diffs)
        if out:
            _write_diff_csv(out, diffs)
    return 1 if bad else 0


def _print_table(diffs: list[CellDiff]) -> list[CellDiff]:
    """Print the regenerated cells row by row, then those beyond tolerance; return the latter."""
    by_row: dict[tuple[str, tuple[float, float]], list[CellDiff]] = {}
    for d in diffs:
        by_row.setdefault((d.table, d.row), []).append(d)
    current_block = None
    for (block, row), cells in by_row.items():
        if block != current_block:
            print(f"\n[{block}]")
            header = ["p".ljust(10), "p2".ljust(10)] + [c.column.ljust(22) for c in cells]
            print("  ".join(header))
            current_block = block
        fields = [f"{row[0]:<10g}", f"{row[1]:<10g}"] + [
            _format_cell(c).ljust(22) for c in cells
        ]
        print("  ".join(fields))
    bad = [d for d in diffs if not d.within]
    print(f"\n{len(diffs)} cells regenerated, {len(bad)} beyond tolerance")
    for d in bad:
        note = " (known misprint in the source table)" if d.known_discrepant else ""
        print(
            f"  {d.table} row {d.row} {d.column}: computed {d.computed:.6g}"
            f" vs reference {d.expected:.6g}{note}"
        )
    return bad


def _number(text: str, integer: bool) -> float:
    value = float(text)
    if integer and not value.is_integer():
        raise ValueError(f"expected an integer, got {text.strip()!r}")
    return value


def _parse_axis(text: str, integer: bool = False) -> list:
    """Parse a comma list or a lo:hi:count:{lin,log} range specification.

    An empty string is an empty axis.  With ``integer`` every number given must
    be an integer; the points of a range are rounded to the nearest integer, and
    no two may round to the same one.
    """
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"range must be lo:hi:count[:lin|log], got {text!r}")
        lo, hi, count = _number(parts[0], integer), _number(parts[1], integer), int(parts[2])
        spacing = parts[3] if len(parts) == 4 else "lin"
        if count < 1:
            raise ValueError("range count must be positive")
        if count == 1:
            values = [lo]
        elif spacing == "log":
            if lo <= 0 or hi <= 0:
                raise ValueError("log spacing requires positive endpoints")
            ratio = (hi / lo) ** (1.0 / (count - 1))
            values = [lo * ratio**i for i in range(count)]
        elif spacing == "lin":
            step = (hi - lo) / (count - 1)
            values = [lo + step * i for i in range(count)]
        else:
            raise ValueError(f"unknown spacing {spacing!r}")
    else:
        values = [_number(v, integer) for v in text.split(",")]
    if integer:
        values = [int(round(v)) for v in values]
        if ":" in text and len(set(values)) < len(values):
            raise ValueError(f"range {text!r} rounds two points to one integer")
    return values


def _cmd_sweep(args) -> int:
    methods = args.method or ["gallager"]
    with _open_csv(args.csv, sys.stdout) as out:
        rates = _grid_rates([_METHODS[m] for m in methods], args.pd, args.pe, args.pi, args.sigma, args.n)
        columns = (
            [f"{p_d:.8g}" for p_d in args.pd],
            [f"{p_e:.8g}" for p_e in args.pe],
            [f"{p_i:.8g}" for p_i in args.pi],
            # + 0.0 turns the -0.0 dB of sigma = 1 into 0.0
            [(f"{s:.8g}", f"{-20.0 * math.log10(s) + 0.0:.8g}" if s > 0 else "") for s in args.sigma],
            ["" if n is None else str(n) for n in args.n],
        )
        rate_rows = zip(*(grid.ravel().tolist() for grid in rates))
        writer = csv.writer(out)
        writer.writerow(["p_d", "p_e", "p_i", "sigma", "snr_db", "n"] + methods)
        writer.writerows(
            [p_d, p_e, p_i, *sigma, n] + [f"{r:.8g}" for r in row]
            for (p_d, p_e, p_i, sigma, n), row in zip(product(*columns), rate_rows)
        )
    return 0


def _cmd_verify(args) -> int:
    # each scope once, in the order first given
    scopes = list(dict.fromkeys(args.scope or ["all"]))
    if "all" in scopes:
        scopes = list(_SCOPES)
    from . import verification

    scale = args.mc_samples / 1_000_000.0
    results = {}
    wall_s: dict[str, float] = {}
    for scope in (s for s in _SCOPES if s in scopes):
        began = time.perf_counter()
        if scope == "properties":
            results[scope] = verification.run_property_checks()
        elif scope == "oracle":
            results[scope] = verification.run_oracle_checks()
        elif scope == "chains":
            results[scope] = verification.run_chain_checks()
        else:
            results[scope] = verification.run_simulator_checks(args.seed, scale)
        wall_s[scope] = time.perf_counter() - began
    failures, known = [], []  # each failing check as scope:name, and those of the recorded defect
    for scope in scopes:
        checks = results.get(scope, [])
        if not args.json:
            print(f"[{scope}]")
            for check in checks:
                print(f"  {check}")
        failures.extend(f"{scope}:{c.name}" for c in checks if not c.passed)
        known.extend(f"{scope}:{c.name}" for c in checks if verification._recorded_defect(scope, c))
    if args.json:
        payload = {
            "schema_version": _VERIFY_SCHEMA_VERSION,
            "scopes": {
                scope: [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in results.get(scope, [])
                ]
                for scope in scopes
            },
            "failures": failures,
            "known_failures": known,
            "wall_s": wall_s,
        }
        print(json.dumps(payload, indent=2))
    elif failures:
        print(f"{len(known)} of {len(failures)} failures are the recorded insertion-weight defect (README)")
        print(f"{len(failures)} failing checks")
    else:
        print("all checks passed")
    return 1 if failures else 0


def _cmd_optimize(args) -> int:
    method, params = _METHODS[args.method], _params_from_args(args)
    n_star, result = optimize_block_length(method, params, args.n_max, args.n_min)
    if not args.json:
        print(f"optimal n     {n_star}")
    _print_result(result, args.json)
    return 0


def _add_param_flags(parser: argparse.ArgumentParser, axis: bool = False) -> None:
    """The probability and noise flags: one number each, or with ``axis`` one sweep axis each."""
    number, zero = (_flag(_parse_axis), [0.0]) if axis else (float, 0.0)
    snr_db = (lambda text: [_sigma_from_snr_db(db) for db in _parse_axis(text)]) if axis else _sigma_from_snr_db
    parser.add_argument("--pd", type=number, default=zero, help="deletion probability")
    parser.add_argument("--pe", type=number, default=zero, help="substitution probability")
    parser.add_argument("--pi", type=number, default=zero, help="insertion probability")
    noise = parser.add_mutually_exclusive_group()
    noise.add_argument("--sigma", type=number, default=zero, help="AWGN noise std-dev")
    noise.add_argument("--snr-db", type=_flag(snr_db), dest="sigma", metavar="SNR_DB", help="SNR in dB (1/sigma^2)")
    if not axis:
        variance = _flag(_sigma_from_noise_var)
        noise.add_argument("--noise-var", type=variance, dest="sigma", metavar="NOISE_VAR", help="AWGN noise variance")


def _build_parser() -> argparse.ArgumentParser:
    description = "Capacity lower bounds and verification for synchronization-error channels"
    parser = argparse.ArgumentParser(prog="synchan", description=description, exit_on_error=False)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=partial(argparse.ArgumentParser, exit_on_error=False)
    )

    p_bound = sub.add_parser("bound", help="evaluate one bound")
    p_bound.add_argument("--method", choices=sorted(_METHODS), required=True)
    p_bound.add_argument("--n", type=int, default=None, help="block length")
    _add_param_flags(p_bound)
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(func=_cmd_bound)

    p_table = sub.add_parser("table", help="regenerate a reference table and diff it")
    p_table.add_argument("which", type=str.upper, choices=["I", "II", "1", "2"])
    p_table.add_argument("--csv", default=None, help="write the cell diff as CSV")
    p_table.set_defaults(func=_cmd_table)

    axes = "--pd, --pe, --pi, --sigma, --snr-db and --n each take a comma list or lo:hi:count[:lin|log]"
    p_sweep = sub.add_parser("sweep", help="evaluate bounds over a parameter grid", description=axes)
    p_sweep.add_argument("--method", action="append", choices=sorted(_METHODS), help="repeatable method flag")
    _add_param_flags(p_sweep, axis=True)
    p_sweep.add_argument("--n", type=_flag(partial(_parse_axis, integer=True)), default=[None], help="block length")
    p_sweep.add_argument("--csv", default=None, help="output path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    seed = _flag(lambda text: _check_integer(int(text), "verify", what="seed", minimum=0, maximum=None))
    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--scope", action="append", choices=[*_SCOPES, "all"], help="repeatable; default all")
    p_verify.add_argument("--seed", type=seed, default=20250809)
    p_verify.add_argument(
        "--mc-samples",
        type=_flag(_sample_budget),
        default=1_000_000,
        help="statistical-test sample budget (scales the registered sizes)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_opt = sub.add_parser("optimize", help="find the best block length for a bound")
    scanned = sorted(name for name, tag in _METHODS.items() if _BOUNDS[tag].n_min is not None)
    p_opt.add_argument("--method", choices=scanned, required=True)
    p_opt.add_argument("--n-max", type=int, required=True)
    p_opt.add_argument("--n-min", type=int, default=None)
    _add_param_flags(p_opt)
    p_opt.add_argument("--json", action="store_true")
    p_opt.set_defaults(func=_cmd_optimize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the ``synchan`` command line on ``argv`` (default ``sys.argv[1:]``); return its exit status."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, ValueError, OSError) as exc:  # a bad value, or an unwritable --csv
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

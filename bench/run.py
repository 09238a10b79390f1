"""synchan benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload param-sweep --seed 1 --seconds 10 --trace 0

Each round runs the workload's operations once, in a fresh interpreter
(``bench/child.py``) with empty caches and without ``SYNCHAN_THREADS``, as a
closed loop: one caller, the next operation only after the last returned.
Rounds repeat until ``--seconds`` have passed; every round is whole.  The
parent checks each round's outputs against the benchmark's own computations
(``bench/checks.py``).  With ``--trace 0`` the last line of standard output
is the end-to-end metrics, medians over the rounds, with times in reference
seconds (``bench/reference.py``); with ``--trace 1`` the rounds run traced
and the last line is the per-layer metrics, with times in wall seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import reference
from inputs import STAGES, WORKLOADS, make_inputs
from tracer import METRICS as LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# setup_s is the median of at least this many imports: every round's, and
# import-only interpreters after the rounds when there were fewer rounds
SETUP_SAMPLES = 3
ROUND_TIMEOUT_S = 150


def _run_child(spec: dict, work_dir: Path, name: str) -> dict:
    spec_path = work_dir / f"{name}-spec.json"
    spec["result"] = str(work_dir / f"{name}-result.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "SYNCHAN_THREADS"}
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"round process exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def check_op(op: dict, output: dict, values: dict) -> list[str]:
    """Failure messages for one operation's outputs; empty when they pass."""
    kind = op["kind"]
    if kind == "verify":
        failures = checks.check_verify_scope(op["scope"], output["checks"])
        for channel, n, p, p_e, entropy, margins in values.get("reports", []):
            failures += checks.check_report_entropy(channel, n, p, entropy)
            failures += checks.check_chain_margins(f"deletion report n={n} p_d={p} p_e={p_e}", margins)
        return failures
    if kind == "sweep":
        return checks.check_sweep(op, checks.read_sweep_csv(output["csv"]), output["exit_code"])
    if kind == "table" and op["which"] == "I":
        return checks.check_table1(checks.read_table_csv(output["csv"]), output["exit_code"])
    if kind == "table":
        scan_rates = {p_i: dict(rates) for p_i, rates in values["scan_rates"]}
        cells = checks.read_table_csv(output["csv"])
        return checks.check_table2(cells, output["exit_code"], scan_rates)
    label = f"{kind} {op['method']} p_d={op['pd']!r} p_e={op['pe']!r}"
    if output["exit_code"] != 0:
        return [f"{label}: exit code {output['exit_code']}: {output['stderr']}"]
    result = json.loads(output["stdout"])
    if kind == "bound":
        return checks.check_deletion_rate(
            result["rate"], op["n"], op["pd"], op["pe"], checks.EXACT_TOL, label
        )
    # optimize: the optimum and the rates the child evaluated around it
    rates = dict(values["rates"])
    best_n = result["block_length"]
    failures = []
    if rates.get(best_n) != result["rate"]:
        failures.append(
            f"{label}: optimum rate {result['rate']!r},"
            f" the bound at n = {best_n} is {rates.get(best_n)!r}"
        )
    failures += checks.check_scan_optimum(best_n, rates, checks.DELETION_SCAN_N_MIN, op["n_max"], label)
    for n, rate in rates.items():
        where = f"{label} n={n}"
        failures += checks.check_deletion_rate(rate, n, op["pd"], op["pe"], checks.EXACT_TOL, where)
        if n <= checks.ENUMERATED_N_MAX:
            failures += checks.check_enumerated_rate(rate, n, op["pd"], op["pe"], where)
    return failures


def run_round(stages: list[list[dict]], trace: bool, work_dir: Path, index: int, workload: str) -> dict:
    """Run one round and check it; returns its timings and failure counts."""
    spec = {
        "root": str(ROOT),
        "stages": stages,
        "trace": trace,
        "out_dir": str(work_dir),
        "trace_path": str(OUT_DIR / f"trace-{workload}.npz"),
    }
    ops = [op for stage in stages for op in stage]
    try:
        result = _run_child(spec, work_dir, f"round{index}")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"round {index + 1}: {exc}", file=sys.stderr)
        return {"failed": len(ops), "incorrect": 0, "attempted": len(ops)}
    failed = incorrect = 0
    for record in result["ops"]:
        if "error" in record:
            failed += 1
            kind = record["op"]["kind"]
            print(f"round {index + 1}: {kind} raised:\n{record['error']}", file=sys.stderr)
            continue
        try:
            failures = check_op(record["op"], record["output"], record.get("values", {}))
        except (KeyError, ValueError, TypeError) as exc:
            failures = [f"{record['op']['kind']}: output could not be read: {exc!r}"]
        if failures:
            failed += 1
            incorrect += 1
            for message in failures[:20]:
                print(f"round {index + 1}: {message}", file=sys.stderr)
    result.update(failed=failed, incorrect=incorrect, attempted=len(ops))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "synchan" / "__init__.py").is_file():
        print(f"error: no synchan package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    stages = make_inputs(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        rounds = []
        started = perf_counter()
        while not rounds or perf_counter() - started < args.seconds:
            rounds.append(run_round(stages, bool(args.trace), work_dir, len(rounds), args.workload))
        setups = [r["setup_s"] for r in rounds if "setup_s" in r]
        for k in range(SETUP_SAMPLES - len(setups)):
            probe = _run_child({"root": str(ROOT), "setup_only": True}, work_dir, f"setup{k}")
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    timed = [r for r in rounds if "stage_s" in r]
    for k, r in enumerate(timed):
        stage_text = ", ".join(
            f"{name} {seconds:.4f} s" for name, seconds in zip(STAGES[args.workload], r["stage_s"])
        )
        unit_text = f", reference unit {r['unit_s']:.4f} s ({r['units']} sampled)" if "unit_s" in r else ""
        print(
            f"round {k + 1} (wall time): setup {r['setup_s']:.4f} s, {stage_text}{unit_text},"
            f" peak RSS {r['peak_rss_mb']:.1f} MB,"
            f" {r['failed']} of {r['attempted']} operations failed"
        )
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["incorrect"] == 0 for r in rounds)
    if not timed:
        print("error: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in timed), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        # wall seconds to reference seconds: each round's work by its own
        # reference unit; the imports, some of them in import-only
        # interpreters, by the run's mean unit
        run_unit = statistics.fmean(r["unit_s"] for r in timed)
        work = [sum(r["stage_s"]) * reference.NOMINAL_UNIT_S / r["unit_s"] for r in timed]
        setup = statistics.median(setups) * reference.NOMINAL_UNIT_S / run_unit
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed), "unit": "MB"},
            "work_s": {"value": statistics.median(work), "unit": "s"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

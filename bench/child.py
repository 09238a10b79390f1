"""One round of a workload, in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC names the checkout root, the operations of each stage and where to
write the result.  The round times ``import synchan`` (with ``synchan.cli``,
which every command loads), runs the stages under a wall clock, reads the
process's peak resident memory, and only then, with tracing stopped,
evaluates the extra program values the checks need.  An untraced round
samples the reference computation (``bench/reference.py``) while its
operations run, and reports the mean time of one unit of it.  Nothing here
judges correctness: the parent checks the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference


def _join(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def cli_argv(op: dict, csv_path: Path) -> list[str]:
    kind = op["kind"]
    if kind == "table":
        return ["table", op["which"], "--csv", str(csv_path)]
    if kind == "sweep":
        argv = ["sweep"]
        for method in op["methods"]:
            argv += ["--method", method]
        argv += ["--pd", _join(op["pd"])]
        if "pe" in op:
            argv += ["--pe", _join(op["pe"])]
        else:
            argv.append("--snr-db=" + _join(op["snr_db"]))
        return argv + ["--n", str(op["n"]), "--csv", str(csv_path)]
    if kind == "optimize":
        return [
            "optimize", "--method", op["method"], "--pd", repr(op["pd"]), "--pe", repr(op["pe"]),
            "--n-max", str(op["n_max"]), "--json",
        ]
    if kind == "bound":
        return [
            "bound", "--method", op["method"], "--n", str(op["n"]), "--pd", repr(op["pd"]),
            "--pe", repr(op["pe"]), "--json",
        ]
    raise ValueError(f"no command for operation kind {kind!r}")


def run_op(op: dict, csv_path: Path):
    """Run one operation; return what it produced, untouched."""
    import synchan.cli
    import synchan.verification

    if op["kind"] == "verify":
        scope = op["scope"]
        verification = synchan.verification
        if scope == "properties":
            checks = verification.run_property_checks(seed=op["seed"])
        elif scope == "oracle":
            checks = verification.run_oracle_checks(op["deletion_n"], op["insertion_n"])
        elif scope == "chains":
            checks = verification.run_chain_checks(op["deletion_n"], op["insertion_n"])
        else:
            checks = verification.run_simulator_checks(seed=op["seed"], scale=op["scale"])
        return {"checks": [[c.name, c.passed, c.detail] for c in checks]}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exit_code = synchan.cli.main(cli_argv(op, csv_path))
    return {"exit_code": exit_code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_values(op: dict, output: dict) -> dict:
    """Program values the checks need beyond the operation's own output."""
    from synchan import bounds, oracle

    kind = op["kind"]
    if kind == "optimize":
        best_n = json.loads(output["stdout"])["block_length"]
        # n <= 10 for the enumeration check, the scan's ends, the optimum and its neighbours
        lengths = set(range(2, 11)) | {op["n_max"], best_n - 1, best_n, best_n + 1}
        return {
            "rates": [
                [n, bounds.deletion_substitution_bound(n, op["pd"], op["pe"]).rate]
                for n in sorted(lengths)
                if 2 <= n <= op["n_max"]
            ]
        }
    if kind == "table" and op["which"] == "II":
        from checks import INSERTION_SCAN_N_MAX, INSERTION_SCAN_N_MIN, read_table_csv, table2_scans

        scans = []
        for p_i, best_n in table2_scans(read_table_csv(output["csv"])).items():
            lengths = {INSERTION_SCAN_N_MIN, INSERTION_SCAN_N_MAX, best_n - 1, best_n, best_n + 1}
            rates = [
                [n, bounds.random_insertion_bound(n, p_i).rate]
                for n in sorted(lengths)
                if INSERTION_SCAN_N_MIN <= n <= INSERTION_SCAN_N_MAX
            ]
            scans.append([p_i, rates])
        return {"scan_rates": scans}
    if kind == "verify" and op["scope"] == "oracle":
        n, p_d, p_e = op["largest_deletion"]
        report = oracle.exact_deletion_substitution_entropies(n, p_d, p_e)
        margins = [[c.label, c.margin] for c in report.bound_chain[1:]]
        reports = [["deletion", n, p_d, p_e, report.output_entropy, margins]]
        for n, p_i in op["largest_insertion"]:
            report = oracle.exact_insertion_entropies(n, p_i)
            reports.append(["insertion", n, p_i, 0.0, report.output_entropy, []])
        return {"reports": reports}
    return {}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    result: dict = {}
    start = perf_counter()
    sys.path.insert(0, str(root / "src"))
    import synchan
    import synchan.cli  # noqa: F401

    result["setup_s"] = perf_counter() - start
    if not Path(synchan.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"imported synchan from {synchan.__file__}, not from {root / 'src'}")
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # an untraced round samples the host's speed while its operations run,
    # and leaves the sampling time out of the operations' time
    sampler = reference.Sampler() if tracer is None else None
    out_dir = Path(spec["out_dir"])
    ops = []
    stage_s = []
    with sampler or contextlib.nullcontext():
        for stage, stage_ops in enumerate(spec["stages"]):
            elapsed = 0.0
            for k, op in enumerate(stage_ops):
                csv_path = out_dir / f"stage{stage + 1}-op{k + 1}.csv"
                record = {"op": op}
                sampled = sampler.handler_s if sampler else 0.0
                began = perf_counter()
                try:
                    record["output"] = run_op(op, csv_path)
                except Exception:
                    record["error"] = traceback.format_exc()
                elapsed += perf_counter() - began
                if sampler:
                    elapsed -= sampler.handler_s - sampled
                ops.append((record, csv_path))
            stage_s.append(elapsed)
    result["stage_s"] = stage_s
    if sampler:
        result["unit_s"] = sampler.mean_unit_s()
        result["units"] = sampler.units
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.recording = False
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["trace_path"])

    for record, csv_path in ops:
        if "output" not in record:
            continue
        if csv_path.exists():
            record["output"]["csv"] = csv_path.read_text(encoding="utf-8")
        try:
            record["values"] = check_values(record["op"], record["output"])
        except Exception:
            record["error"] = traceback.format_exc()
    result["ops"] = [record for record, _ in ops]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

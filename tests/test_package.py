import ast
import importlib
import json
import types
from pathlib import Path

import pytest

import synchan

from helpers import run_python

MODULES = ["bounds", "channels", "combinatorics", "numerics", "oracle", "reference_tables", "verification"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # tools that look up each name in __all__ (star imports, tracers) need every one to exist
    module = importlib.import_module(f"synchan.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_only_module_exports():
    public = {attr for name in MODULES for attr in importlib.import_module(f"synchan.{name}").__all__}
    exported = {
        attr
        for attr, value in vars(synchan).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported - public == set()


# the public surface, name by name: a name added to or removed from it is a deliberate edit here
PUBLIC = {
    "bounds": [
        "BoundResult",
        "ChannelParams",
        "capacity_expansion_constant",
        "deletion_awgn_bound",
        "deletion_bound",
        "deletion_bound_small_p",
        "deletion_small_p_coefficients",
        "deletion_substitution_bound",
        "evaluate_bound",
        "gallager_bound",
        "insertion_bound_from_weight",
        "insertion_small_p_coefficients",
        "optimize_block_length",
        "random_insertion_bound",
        "random_insertion_bound_small_p",
    ],
    "channels": [
        "RngState",
        "simulate_bsc",
        "simulate_deletion",
        "simulate_deletion_awgn",
        "simulate_deletion_substitution",
        "simulate_gallager_insertion",
    ],
    "combinatorics": [
        "expected_run_count",
        "mean_pattern_log_weight",
        "mean_pattern_log_weights",
        "single_insertion_log_weight",
        "single_insertion_log_weight_exact",
    ],
    "numerics": ["awgn_expectation", "binary_entropy", "block_entropy"],
    "oracle": [
        "Comparison",
        "EntropyReport",
        "ExactDistribution",
        "OracleResourceError",
        "deletion_output_multiplicities",
        "exact_deletion_law",
        "exact_deletion_substitution_entropies",
        "exact_insertion_conditional_law",
        "exact_insertion_entropies",
        "insertion_output_multiplicities",
        "mc_awgn_entropy_check",
    ],
    "reference_tables": [
        "ABS_TOL",
        "CellDiff",
        "KNOWN_DISCREPANT_CELLS",
        "REL_TOL",
        "TABLE1_LEFT",
        "TABLE1_RIGHT",
        "TABLE2_LEFT",
        "TABLE2_RIGHT",
        "table1_diffs",
        "table2_diffs",
    ],
    "verification": [
        "Check",
        "SIGNIFICANCE",
        "run_chain_checks",
        "run_oracle_checks",
        "run_property_checks",
        "run_scopes",
        "run_simulator_checks",
    ],
}

PACKAGE = [
    "BoundResult",
    "ChannelParams",
    "EntropyReport",
    "ExactDistribution",
    "RngState",
    "awgn_expectation",
    "binary_entropy",
    "block_entropy",
    "capacity_expansion_constant",
    "deletion_awgn_bound",
    "deletion_bound",
    "deletion_bound_small_p",
    "deletion_substitution_bound",
    "evaluate_bound",
    "exact_deletion_law",
    "exact_deletion_substitution_entropies",
    "exact_insertion_entropies",
    "expected_run_count",
    "gallager_bound",
    "mc_awgn_entropy_check",
    "mean_pattern_log_weight",
    "optimize_block_length",
    "random_insertion_bound",
    "random_insertion_bound_small_p",
    "simulate_bsc",
    "simulate_deletion",
    "simulate_deletion_awgn",
    "simulate_deletion_substitution",
    "simulate_gallager_insertion",
    "single_insertion_log_weight",
    "single_insertion_log_weight_exact",
]


def test_public_surface_is_pinned():
    exports = {name: sorted(importlib.import_module(f"synchan.{name}").__all__) for name in MODULES}
    assert exports == PUBLIC
    exported = sorted(
        attr
        for attr, value in vars(synchan).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PACKAGE


# the messages of the domain checks that synchan.numerics declares once for the whole package
_DOMAIN_MESSAGES = ("must lie in [0, 1]", "sigma must be", "must be >=")


def test_domain_checks_are_declared_once():
    # a module other than numerics that raises one of these messages has a copy of its check
    copies = []
    for path in sorted(Path(synchan.__file__).parent.glob("*.py")):
        if path.stem == "numerics":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and any(m in ast.unparse(node) for m in _DOMAIN_MESSAGES):
                copies.append(f"{path.name}:{node.lineno}")
    assert copies == []


# in a fresh interpreter: which heavy modules each stage of a run has loaded
_LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys

def loaded(prefix):
    return sorted(name for name in sys.modules if name.startswith(prefix))

import synchan.cli
stages = {"mpmath after import synchan.cli": loaded("mpmath")}
import synchan, synchan.verification
stages["scipy after import"] = loaded("scipy")
with contextlib.redirect_stdout(io.StringIO()):
    assert synchan.cli.main(["bound", "--method", "del-awgn", "--n", "100", "--pd", "0.1", "--sigma", "0.8"]) == 0
    stages["scipy after del-awgn bound"] = loaded("scipy")
    synchan.cli.main(["table", "I"])  # exits 1: the source table's known misprint
    stages["scipy after table I"] = loaded("scipy")
synchan.verification.run_simulator_checks(scale=0.01)
stages["scipy after simulator checks"] = loaded("scipy")
stages["mpmath after simulator checks"] = loaded("mpmath")
print(json.dumps(stages))
"""


def test_runtime_loads_neither_scipy_nor_mpmath():
    # the runtime, chi-square checks included, computes with NumPy alone; either
    # module would cost its import time on every command that loaded it
    result = run_python("-c", _LOADED_MODULES_SCRIPT)
    assert result.returncode == 0, result.stderr
    stages = json.loads(result.stdout)
    assert stages == {name: [] for name in stages}
    assert len(stages) == 6

import ast
import importlib
import json
import shutil
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
        "OracleResourceError",
        "deletion_output_multiplicities",
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
    "awgn_expectation",
    "binary_entropy",
    "block_entropy",
    "capacity_expansion_constant",
    "deletion_awgn_bound",
    "deletion_bound",
    "deletion_bound_small_p",
    "deletion_substitution_bound",
    "evaluate_bound",
    "expected_run_count",
    "gallager_bound",
    "mean_pattern_log_weight",
    "optimize_block_length",
    "random_insertion_bound",
    "random_insertion_bound_small_p",
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


# in a fresh interpreter: which of the modules no command but verify needs, and which heavy
# modules, each stage of a run has loaded
_LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys

VERIFY_ONLY = ("synchan.oracle", "synchan.channels", "synchan.verification", "numpy.polynomial", "fractions")


def loaded(*packages):
    return sorted(name for name in sys.modules if any(name == p or name.startswith(p + ".") for p in packages))


import synchan.cli
stages = {"import synchan.cli": loaded("scipy", "mpmath", *VERIFY_ONLY)}
commands = {
    "bound": (["bound", "--method", "del-awgn", "--n", "100", "--pd", "0.1", "--sigma", "0.8"], 0),
    "sweep": (["sweep", "--method", "del-sub", "--method", "insertion", "--pd", "0.1", "--pe", "0,0.01",
               "--pi", "0.05", "--n", "10"], 0),
    "table I": (["table", "I"], 1),  # the source table's known misprint
    "optimize": (["optimize", "--method", "del-sub", "--pd", "0.1", "--pe", "0.01", "--n-max", "20"], 0),
}
with contextlib.redirect_stdout(io.StringIO()):
    for stage, (argv, code) in commands.items():
        assert synchan.cli.main(argv) == code, stage
        stages[stage] = loaded("scipy", "mpmath", *VERIFY_ONLY)
import synchan.verification
# fractions included: the rational deletion law was its last user in verify
for check in ("run_property_checks", "run_oracle_checks", "run_chain_checks"):
    getattr(synchan.verification, check)()
stages["property, oracle and chain checks"] = loaded("scipy", "mpmath", "fractions")
synchan.verification.run_simulator_checks(scale=0.01)
stages["simulator checks"] = loaded("scipy", "mpmath", "fractions")
print(json.dumps(stages))
"""


def test_runtime_loads_neither_scipy_nor_mpmath():
    # the runtime, chi-square checks included, computes with NumPy alone, and only verify loads
    # the oracle, the simulators and their checks: each module loaded costs its compile and import
    # time on every command that loads it
    result = run_python("-c", _LOADED_MODULES_SCRIPT)
    assert result.returncode == 0, result.stderr
    stages = json.loads(result.stdout)
    assert stages == {name: [] for name in stages}
    assert len(stages) == 7


_FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False
"""


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # the suite's warning filters turn warnings into errors; one raised in hypothesis's
    # report hook would end the run in an INTERNALERROR instead of a FAILED line
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(_FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    result = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "FAILED test_fails.py::test_fails" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr

import importlib
import json
import types

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

import ast
import importlib
import json
import re
import shutil
import types
from pathlib import Path

import pytest

import synchan

from helpers import run_python

ROOT = Path(__file__).parents[1]

# the modules whose __all__ together make up the public surface
MODULES = [
    "bounds", "channels", "cli", "combinatorics", "numerics", "oracle", "reference_tables", "verification"
]

_API_LINE = re.compile(r"- `synchan\.(\w+)\.(\w+)` — (.+)")


def _readme_api() -> dict[str, str]:
    """{"module.name": text} for each line of the README's API section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    api = {}
    for line in section.splitlines():
        if line.startswith("- "):
            match = _API_LINE.fullmatch(line)
            assert match, f"not an API line: {line!r}"
            assert f"{match[1]}.{match[2]}" not in api, f"listed twice: {line!r}"
            api[f"{match[1]}.{match[2]}"] = match[3]
    return api


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # tools that look up each name in __all__ (star imports, tracers) need every one to exist
    module = importlib.import_module(f"synchan.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_readme_api_is_the_public_surface():
    # the README's API list is the one declaration of the public surface: a name added to a
    # module's __all__ needs a README line, and a README line must name a public function or class
    api = _readme_api()
    modules = {name: importlib.import_module(f"synchan.{name}") for name in MODULES}
    public = {
        f"{name}.{attr}": getattr(module, attr) for name, module in modules.items() for attr in module.__all__
    }
    assert sorted(set(api) - set(public)) == []
    assert sorted(set(public) - set(api)) == []
    assert [name for name, obj in public.items() if not callable(obj)] == []
    assert {name: (obj.__doc__ or "").strip().split("\n", 1)[0] for name, obj in public.items()} == api


def test_package_namespace_holds_only_modules():
    # every public name is imported from its module; the package re-exports none
    exported = {
        attr
        for attr, value in vars(synchan).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set()


def test_benchmark_reads_only_documented_names():
    # bench/child.py runs the program through these modules' names: one dropped from the API
    # would fail its rounds, not a test
    modules = {"bounds", "cli", "oracle", "verification"}
    read = set()
    for node in ast.walk(ast.parse((ROOT / "bench" / "child.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            value = node.value
            owner = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", None)
            if owner in modules:
                read.add(f"{owner}.{node.attr}")
    assert {name.split(".")[0] for name in read} == modules
    assert sorted(read - set(_readme_api())) == []


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


# in a fresh interpreter: which submodules ``import synchan`` loads, and then which of the modules
# no command but verify needs, and which heavy modules, each stage of a run has loaded
_LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys

VERIFY_ONLY = ("synchan.oracle", "synchan.channels", "synchan.verification", "numpy.polynomial", "fractions")


def loaded(*packages):
    return sorted(name for name in sys.modules if any(name == p or name.startswith(p + ".") for p in packages))


import synchan
stages = {"import synchan": [name for name in loaded("synchan") if name != "synchan"]}
import synchan.cli
stages["import synchan.cli"] = loaded("scipy", "mpmath", *VERIFY_ONLY)
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
    assert len(stages) == 8


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


def _references(tree, name: str) -> bool:
    """Whether ``tree`` reads ``name``, as a bare name or as an attribute."""
    return any(
        (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == name
        for node in ast.walk(tree)
    )


def test_every_private_definition_has_a_caller_in_the_package():
    # code whose only caller is a test belongs in tests/helpers.py, not in the package
    tops = [
        (path.stem, top)
        for path in sorted((ROOT / "src" / "synchan").glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    private = [
        (module, top)
        for module, top in tops
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_")
    ]
    uncalled = [
        f"{module}.{definition.name}"
        for module, definition in private
        if not any(top is not definition and _references(top, definition.name) for _, top in tops)
    ]
    assert uncalled == []


def test_readme_counts_the_recorded_chain_failures():
    recorded = json.loads((ROOT / "tests" / "verify_verdicts.json").read_text(encoding="utf-8"))
    failing = sum(not passed for _, passed, _ in recorded["run_chain_checks()"])
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"`synchan verify` fails (\d+) chain checks", readme) == [str(failing)]

import importlib
import types

import pytest

import synchan

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

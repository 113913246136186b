import importlib
import pkgutil

import pytest

import driftlab

MODULES = ["driftlab"] + ["driftlab." + m.name
                          for m in pkgutil.iter_modules(driftlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing

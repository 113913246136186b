import importlib

import pytest

MODULES = ["driftlab", "driftlab.diophantine", "driftlab.eigen", "driftlab.expr",
           "driftlab.operator", "driftlab.scenario"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing

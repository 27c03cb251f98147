"""Package surface: every name a dgconv module exports resolves."""

import importlib
import pkgutil

import pytest

import dgconv

MODULES = ["dgconv"] + [f"dgconv.{m.name}"
                        for m in pkgutil.iter_modules(dgconv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes"
    assert len(set(module.__all__)) == len(module.__all__)

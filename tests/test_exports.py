"""Package surface: every name a dgconv module exports, and every name
the benchmark in perfbench/ uses, resolves."""

import ast
import importlib
import os
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


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _parse(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _trace_targets():
    """perfbench/tracing.py's TARGETS, read without importing it."""
    for node in _parse("tracing.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _package_chains(name):
    """Every attribute chain rooted at the name D (``import dgconv as D``)
    in a perfbench file, e.g. ("core", "ConvFilter")."""
    chains = set()
    for node in ast.walk(_parse(name)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "D":
            chains.add(tuple(reversed(parts)))
    return chains


def test_benchmark_names_resolve():
    """The benchmark reaches dgconv by name: a traced function that is
    gone would read 0 in its per-layer metric instead of failing, so
    every name it uses must still resolve."""
    missing = []
    for _, module, attr in _trace_targets():
        owner = importlib.import_module(module)
        *cls, fn = attr.split(".")
        for part in cls:
            owner = getattr(owner, part, None)
        if owner is None or (fn not in vars(owner) if cls
                             else not hasattr(owner, fn)):
            missing.append(f"{module}.{attr}")
    chains = _package_chains("workloads.py") | _package_chains("test_checks.py")
    assert chains
    for chain in sorted(chains):
        obj = dgconv
        for part in chain:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append("dgconv." + ".".join(chain))
    assert missing == []

"""The benchmark's hooks into capelli must exist where it looks for them.

``perfbench/tracer.py`` finds each traced method with
``vars(owner).get(attr)`` and silently skips a target it cannot find, so
a traced method moved into a base class would read zero in every layer
metric instead of failing.  This test resolves every target the same way.

``perfbench/child.py`` runs the workloads through the package API; a name
or keyword it uses that the package no longer has would fail only in a
benchmark run.  The second half reads child.py with ``ast`` and resolves
every capelli attribute it uses, and every keyword it passes, here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHILD = PERFBENCH / "child.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("capelli_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname, path, name", load_tracer().TARGETS)
def test_target_is_defined_on_its_owner(modname, path, name):
    owner = importlib.import_module("capelli." + modname)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    assert callable(vars(owner).get(attr)), f"{modname}.{path} ({name})"


def capelli_uses(path):
    """(dotted name, object path, keyword names) for each capelli attribute
    that the file uses, bound by `from capelli import m` or
    `from capelli.m import name`; keywords are those of a call to it."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "capelli":
            for alias in node.names:
                if node.module == "capelli":
                    bound[alias.asname or alias.name] = (alias.name,)
                else:
                    bound[alias.asname or alias.name] = (node.module.partition(".")[2], alias.name)
    keywords = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords[id(node.func)] = [k.arg for k in node.keywords if k.arg]
    uses = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            name = bound[node.value.id] + (node.attr,)
        elif isinstance(node, ast.Name) and node.id in bound and len(bound[node.id]) == 2:
            name = bound[node.id]
        else:
            continue
        uses.setdefault(name, set()).update(keywords.get(id(node), ()))
    return sorted(uses.items())


CHILD_USES = capelli_uses(CHILD)


def test_child_uses_the_api_under_test():
    used = {".".join(p) for p, _ in CHILD_USES}
    assert {"modules.gauge_normalize", "modules.psi_of_ladder",
            "modules.equivalence_witness", "bfunction.verify_annihilation",
            "bfunction.compute_b", "algebra.confluence_exhaustive",
            "catalog.instantiate", "cli.main", "poly.UniPoly"} <= used


@pytest.mark.parametrize("path, keywords", CHILD_USES,
                         ids=[".".join(p) for p, _ in CHILD_USES])
def test_child_call_resolves(path, keywords):
    modname, *attrs = path
    obj = importlib.import_module("capelli." + modname)
    for attr in attrs:
        assert hasattr(obj, attr), f"capelli.{'.'.join(path)} is gone"
        obj = getattr(obj, attr)
    if keywords:
        params = inspect.signature(obj).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for kw in keywords:
            assert takes_any or kw in params, f"capelli.{'.'.join(path)} takes no {kw}="

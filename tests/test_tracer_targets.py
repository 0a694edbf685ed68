"""The benchmark tracer's targets must exist where it looks for them.

``perfbench/tracer.py`` finds each traced method with
``vars(owner).get(attr)`` and silently skips a target it cannot find, so
a traced method moved into a base class would read zero in every layer
metric instead of failing.  This test resolves every target the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

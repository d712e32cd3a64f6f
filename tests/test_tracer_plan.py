"""The traced benchmark run wraps the functions listed in
``perfbench/tracer.py``'s PLAN; each of them must still exist in meshcide,
so that removing one fails here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"))


@pytest.mark.parametrize(
    "module, name, generator",
    [
        (module, name, counter == TRACER["GENERATOR"])
        for module, name, _, _, counter in TRACER["PLAN"]
    ],
)
def test_plan_function_resolves(module, name, generator):
    function = getattr(importlib.import_module(f"meshcide.{module}"), name)
    assert callable(function)
    if generator:  # the tracer times each resumption of these
        assert inspect.isgeneratorfunction(function)


def test_pattern_builds_are_countable():
    from meshcide.mesh import MeshPattern

    assert callable(MeshPattern.__post_init__)

"""The benchmark's tracer wraps package functions by (module, name); this
keeps every one of them, and the report field it counts, in place."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from wordmaps.gf import ImageReport

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module,function", _traced())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"wordmaps.{module}"), function))


def test_image_report_has_count_field():
    assert "count" in ImageReport._fields

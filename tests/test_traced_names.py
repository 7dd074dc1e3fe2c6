"""The benchmark's tracer (`perfbench/tracer.py`) wraps program functions by
module and name from outside the package.  Each name it lists must exist,
so that a refactor which renames or deletes a traced function fails here
and not in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.TRACED]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_function_exists(module, attr):
    fn = getattr(importlib.import_module(f"cloneabd.{module}"), attr, None)
    assert callable(fn), f"cloneabd.{module}.{attr}"

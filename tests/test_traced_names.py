"""Every name the benchmark's span tracer wraps still resolves.

The traced benchmark run looks qscatter functions up by module and name, so
renaming or deleting one breaks that run; this test makes the break show up
in the ordinary test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module,attr",
    [pytest.param(m, a, id=f"{m}.{a}") for m, a, *_ in tracing.FUNCTIONS],
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module,cls,attr", [(m, c, a) for m, c, a, *_ in tracing.METHODS]
)
def test_traced_method_resolves(module, cls, attr):
    assert callable(getattr(importlib.import_module(module), cls).__dict__[attr])

"""The traced benchmark run wraps library functions by module attribute.

bench/tracing.py lists them in WRAP_POINTS and looks each one up when the
traced run starts, so a refactor that stops binding one of those names
would crash `bench/run.py --trace 1`. This test fails first instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def wrap_points():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize(
    "module_name, attr", [(module_name, attr) for module_name, attr, _ in wrap_points()]
)
def test_wrap_point_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))

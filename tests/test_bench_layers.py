"""The benchmark's tracer wraps library functions by name: each one must
still exist where its layer list says, or a traced round fails."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, name", _layers(), ids=lambda v: v)
def test_traced_layer_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))

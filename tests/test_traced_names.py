"""Every library name that ``perfbench/tracing.py`` wraps still resolves.

The tracer wraps functions by module and attribute path, so a name
deleted or renamed in the library breaks its install.  The file is
loaded read-only, as ``perfbench/checks.py`` loads ``tests/helpers.py``,
and the tracer is not installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# Beside the spans and leaves, install wraps these two by name.
NAMES = [(layer, path) for layer, path, _ in (*tracing.SPANS, *tracing.LEAVES)]
NAMES += [("ncalg", "Scalar.__init__"), ("cli", "main")]


@pytest.mark.parametrize(("layer", "path"), NAMES, ids=[f"{layer}.{path}" for layer, path in NAMES])
def test_every_traced_name_resolves(layer, path):
    _, _, value = tracing._resolve(importlib.import_module(f"qjacobi.{layer}"), path)
    assert callable(value)

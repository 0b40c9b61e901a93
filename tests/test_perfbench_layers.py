"""The benchmark's tracer wraps grapes functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_names_a_grapes_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module, attr, _layer, _hook in tracer.LAYERS:
        target = getattr(importlib.import_module(f"grapes.{module}"), attr, None)
        assert callable(target), f"grapes.{module}.{attr}"

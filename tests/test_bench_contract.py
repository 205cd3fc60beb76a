"""The benchmark's tracer wraps gabp functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_is_a_gabp_function():
    # Tracer.installed getattr's each target, so a deleted one breaks `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for layer, func in tracing.TARGETS:
        assert layer in tracing.LAYERS, layer
        fn = getattr(importlib.import_module(f"gabp.{layer}"), func, None)
        assert callable(fn), f"gabp.{layer}.{func}"

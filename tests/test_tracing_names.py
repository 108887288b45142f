"""The benchmark tracer wraps functions by module attribute name; a renamed
or removed function would silently read zero there, so every name it
lists must resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for table in (tracing.SPANS, tracing.COUNTS)
             for targets in table.values() for pair in targets]
    assert pairs
    for module, func in pairs:
        target = getattr(importlib.import_module(f"rescuepd.{module}"), func, None)
        assert callable(target), f"rescuepd.{module}.{func}"

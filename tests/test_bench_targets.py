"""The benchmark's tracer (bench/tracing.py) patches package attributes by
name; every name it lists must exist, or traced runs break."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_tracing_target_resolves():
    # loaded by path: bench/ holds its own oracles.py next to tests/oracles.py
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, owner, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(module)
        if owner:
            obj = getattr(obj, owner, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert tracing.TARGETS and missing == []

"""The benchmark's tracer wraps library functions by name; keep them there."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_call_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.CALL_SITES
    for module, path, _, _ in tracing.CALL_SITES:
        owner, attr = tracing.resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{module}.{path}"

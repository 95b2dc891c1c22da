"""The golden run writes the files whose digests ``tests/golden`` holds.

Determinism within one process is checked elsewhere; this catches a change
that alters an output by accident. The digests depend on the floating
point arithmetic of the Python, numpy and scipy versions they were made
with, so with other versions the test skips and names both sets. A change
that alters outputs on purpose reruns ``tests/golden/regen.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"


def load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", REGEN)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen


def test_golden_run_matches_digests(tmp_path):
    regen = load_regen()
    golden = json.loads(regen.DIGESTS.read_text())
    if golden["versions"] != regen.versions():
        pytest.skip(f"digests made with {golden['versions']}, running "
                    f"{regen.versions()}")
    got = regen.golden_digests(tmp_path)
    changed = sorted(name for name in golden["digests"].keys() | got.keys()
                     if golden["digests"].get(name) != got.get(name))
    assert not changed, f"golden files differ: {changed}"

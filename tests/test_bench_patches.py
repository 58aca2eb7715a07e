"""The traced benchmark patches module attributes of the package; each one
must exist, or a simplification that removes it fails only in the bench."""

import importlib
import importlib.util
from pathlib import Path


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves():
    patches = _bench_spans().PATCHES
    assert patches
    missing = [(module, attr) for module, attr, _ in patches
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []

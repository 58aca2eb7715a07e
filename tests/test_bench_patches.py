"""The traced benchmark patches module attributes of the package; each one
must exist, or a simplification that removes it fails only in the bench."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from fastsvc.model import FitOptions, SpatialDataset, fit


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


def test_a_nystrom_fit_records_every_patched_span():
    spans = _bench_spans()
    rng = np.random.default_rng(0)
    n = 600
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    ds = SpatialDataset(coords=rng.uniform(0.0, 10.0, (n, 2)),
                        y=X @ np.array([1.0, 2.0]) + rng.standard_normal(n),
                        X=X, svc_flags=np.ones(2, bool))
    recorder = spans.Recorder()
    with spans.installed(recorder), recorder.fit():
        fit(ds, FitOptions(basis="nystrom", knot_count=40, seed=0))
    recorded = {sp.name for sp in recorder.spans}
    assert {name for _, _, name in spans.PATCHES} - recorded == set()

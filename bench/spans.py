"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

The recorder wraps the public entry point of each fastsvc module by
replacing the module attribute its caller resolves at call time, so nothing
inside ``src/`` is instrumented and the untraced path runs the original
functions. Each call records one span: name, start, end, parent span, the
fit it belongs to, the error class it raised (if any) and a few attributes
read from its arguments or result. Spans are kept in memory and written out
by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time

#: (module whose attribute the caller resolves, attribute, span name)
PATCHES = (
    ("fastsvc.model", "build_basis", "model.build_basis"),
    ("fastsvc.model", "mst_max_edge", "geometry.mst_max_edge"),
    ("fastsvc.model", "kmeans_knots", "geometry.kmeans_knots"),
    ("fastsvc.model", "nystrom_basis", "eigenbasis.nystrom_basis"),
    ("fastsvc.model", "compress", "compression.compress"),
    ("fastsvc.model", "fit_sequential", "sequential.fit_sequential"),
    ("fastsvc.model", "reconstruct_svc", "model.reconstruct_svc"),
    ("fastsvc.eigenbasis", "proximity", "geometry.proximity"),
    ("fastsvc.sequential", "build_cache", "sequential.build_cache"),
    ("fastsvc.sequential", "optimize_k", "sequential.optimize_k"),
    ("fastsvc.sequential", "fast_loglik", "sequential.fast_loglik"),
    ("fastsvc.sequential", "spd_factor", "likelihood.spd_factor"),
    ("fastsvc.likelihood", "spd_factor", "likelihood.spd_factor"),
    ("fastsvc.likelihood", "compressed_restricted_loglik",
     "likelihood.compressed_restricted_loglik"),
)

#: errors ``fast_loglik`` raises, each counted by name; ``optimize_k`` turns
#: them into ``inf``. The fail ratio counts any error, named here or not.
FAST_LOGLIK_ERRORS = ("InsufficientData", "NonPositiveEigenvalue",
                      "SingularInnerMatrix", "NegativeResidualNorm", "PerfectFit")


class Span:
    __slots__ = ("id", "parent", "fit", "name", "t0", "t1", "error", "attrs")

    def __init__(self, id_, parent, fit, name, t0):
        self.id, self.parent, self.fit, self.name, self.t0 = id_, parent, fit, name, t0
        self.t1 = t0
        self.error = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "fit": self.fit,
                "name": self.name, "t0": self.t0, "t1": self.t1,
                "error": self.error, **self.attrs}


def _optimize_k_attrs(args, kwargs, result):
    params, target = args[1], args[2]
    moved = (result[0], result[1]) != (float(params.rho[target]),
                                       float(params.alpha[target]))
    return {"moved": moved, "n_eval": result[3]}


def _fit_sequential_attrs(args, kwargs, result):
    lls = result[2].sweep_logliks
    gain = lls[-1] - lls[-2] if len(lls) > 1 else 0.0
    return {"sweeps": len(lls), "last_sweep_gain": gain}


#: span name -> function(args, kwargs, result) giving extra span attributes
ATTRS = {
    "compression.compress": lambda a, kw, r: {"n_obs": r.n_obs, "gram_size": r.size},
    "eigenbasis.nystrom_basis": lambda a, kw, r: {"n_pairs": r.n_pairs},
    "sequential.optimize_k": _optimize_k_attrs,
    "sequential.fit_sequential": _fit_sequential_attrs,
}


class Recorder:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.fits = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        fit_id = self._open[0].fit if self._open else self.fits
        sp = Span(len(self.spans), parent, fit_id, name, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.t1 = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def fit(self):
        """Root span of one ``fit`` call; its children share its fit id."""
        with self.span("model.fit") as sp:
            yield sp
        self.fits += 1

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    sp.attrs.update(attrs(args, kwargs, result))
                return result

        return traced


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every entry point in PATCHES for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics -------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] = child.get(sp.parent, 0.0) + sp.duration
    return {sp.id: sp.duration - child.get(sp.id, 0.0) for sp in spans}


class Totals:
    """Per-fit sums over the spans of a recorder."""

    def __init__(self, recorder: Recorder):
        spans = recorder.spans
        self.fits = max(recorder.fits, 1)
        self.spans = spans
        self.by_id = {sp.id: sp for sp in spans}
        self.self_s = self_times(spans)

    def select(self, name, parent=None):
        out = [sp for sp in self.spans if sp.name == name]
        if parent is not None:
            out = [sp for sp in out if sp.parent is not None
                   and self.by_id[sp.parent].name == parent]
        return out

    def calls(self, name, parent=None) -> float:
        return len(self.select(name, parent)) / self.fits

    def seconds(self, name, parent=None) -> float:
        return sum(sp.duration for sp in self.select(name, parent)) / self.fits

    def self_seconds(self, name) -> float:
        return sum(self.self_s[sp.id] for sp in self.select(name)) / self.fits

    def attr_sum(self, name, key) -> float:
        return sum(sp.attrs[key] for sp in self.select(name)) / self.fits

    def errors(self, name, error=None) -> float:
        """Failed calls per fit: those that raised ``error``, or anything."""
        return sum(sp.error is not None if error is None else sp.error == error
                   for sp in self.select(name)) / self.fits

    def largest_self(self) -> tuple:
        per_name = {}
        for sp in self.spans:
            if sp.name != "model.fit":
                per_name[sp.name] = per_name.get(sp.name, 0.0) + self.self_s[sp.id]
        name = max(per_name, key=per_name.get)
        return name, per_name[name] / self.fits


def layer_seconds(t: Totals) -> dict:
    """The time of each layer whose scaling and thread sensitivity are
    reported: total span time, or self time where a layer calls a traced
    child (Nystrom calls proximity, optimize_k calls fast_loglik)."""
    return {
        "model.fit": t.seconds("model.fit"),
        "geometry.mst_max_edge": t.seconds("geometry.mst_max_edge"),
        "geometry.kmeans_knots": t.seconds("geometry.kmeans_knots"),
        "geometry.proximity": t.seconds("geometry.proximity"),
        "eigenbasis.nystrom_basis": t.self_seconds("eigenbasis.nystrom_basis"),
        "compression.compress": t.seconds("compression.compress"),
        "sequential.fit_sequential": t.seconds("sequential.fit_sequential"),
        "sequential.build_cache": t.seconds("sequential.build_cache"),
        "sequential.optimize_k": t.self_seconds("sequential.optimize_k"),
        "sequential.fast_loglik": t.seconds("sequential.fast_loglik"),
        "likelihood.spd_factor": t.seconds("likelihood.spd_factor"),
        "model.reconstruct_svc": t.seconds("model.reconstruct_svc"),
    }


#: layers whose log-log slope in N is reported (the last one per call)
SCALED = ("geometry.mst_max_edge", "geometry.kmeans_knots",
          "eigenbasis.nystrom_basis", "compression.compress",
          "sequential.fit_sequential")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Totals) -> dict:
    """Per-layer metrics of one traced run, ``name -> (value, unit)``,
    averaged per traced fit."""
    m = {}
    m["model.fit.s"] = (t.seconds("model.fit"), "s")
    m["model.build_basis.s"] = (t.seconds("model.build_basis"), "s")
    m["model.reconstruct_svc.s"] = (t.seconds("model.reconstruct_svc"), "s")

    m["geometry.mst_max_edge.s"] = (t.seconds("geometry.mst_max_edge"), "s")
    m["geometry.kmeans_knots.s"] = (t.seconds("geometry.kmeans_knots"), "s")
    m["geometry.proximity.s"] = (t.seconds("geometry.proximity"), "s")
    m["geometry.proximity.calls"] = (t.calls("geometry.proximity"), "count")

    m["eigenbasis.nystrom_basis.s"] = (t.self_seconds("eigenbasis.nystrom_basis"), "s")
    m["eigenbasis.n_pairs"] = (t.attr_sum("eigenbasis.nystrom_basis", "n_pairs"), "count")

    # 2 N m^2 flops for W'W, fixed by the shape: a computed count
    n_obs = t.attr_sum("compression.compress", "n_obs")
    gram = t.attr_sum("compression.compress", "gram_size")
    compress_s = t.seconds("compression.compress")
    gflop = 2.0 * n_obs * gram ** 2 / 1e9
    m["compression.compress.s"] = (compress_s, "s")
    m["compression.gram_size"] = (gram, "count")
    m["compression.compress.gflop"] = (gflop, "GFLOP")
    m["compression.compress.gflop_per_s"] = (_ratio(gflop, compress_s), "GFLOP/s")

    m["sequential.fit_sequential.s"] = (t.seconds("sequential.fit_sequential"), "s")
    cache_calls = t.calls("sequential.build_cache")
    cache_s = t.seconds("sequential.build_cache")
    m["sequential.build_cache.calls"] = (cache_calls, "count")
    m["sequential.build_cache.s"] = (cache_s, "s")
    m["sequential.build_cache.ms_per_call"] = (1e3 * _ratio(cache_s, cache_calls), "ms")
    ll_calls = t.calls("sequential.fast_loglik")
    ll_s = t.seconds("sequential.fast_loglik")
    m["sequential.fast_loglik.calls"] = (ll_calls, "count")
    m["sequential.fast_loglik.s"] = (ll_s, "s")
    m["sequential.fast_loglik.us_per_call"] = (1e6 * _ratio(ll_s, ll_calls), "us")
    for err in FAST_LOGLIK_ERRORS:
        m[f"sequential.fast_loglik.failed.{err}"] = (
            t.errors("sequential.fast_loglik", err), "count")
    m["sequential.fast_loglik.fail_ratio"] = (
        _ratio(t.errors("sequential.fast_loglik"), ll_calls), "ratio")
    opt_calls = t.calls("sequential.optimize_k")
    m["sequential.optimize_k.calls"] = (opt_calls, "count")
    m["sequential.optimize_k.self_s"] = (t.self_seconds("sequential.optimize_k"), "s")
    m["sequential.optimize_k.moved_ratio"] = (
        _ratio(t.attr_sum("sequential.optimize_k", "moved"), opt_calls), "ratio")
    m["sequential.sweeps"] = (t.attr_sum("sequential.fit_sequential", "sweeps"), "count")
    m["sequential.last_sweep_gain"] = (
        t.attr_sum("sequential.fit_sequential", "last_sweep_gain"), "nats")

    for parent in ("fast_loglik", "build_cache"):
        calls = t.calls("likelihood.spd_factor", f"sequential.{parent}")
        secs = t.seconds("likelihood.spd_factor", f"sequential.{parent}")
        m[f"likelihood.spd_factor.{parent}.calls"] = (calls, "count")
        m[f"likelihood.spd_factor.{parent}.s"] = (secs, "s")
        m[f"likelihood.spd_factor.{parent}.us_per_call"] = (1e6 * _ratio(secs, calls), "us")
    m["likelihood.compressed_restricted_loglik.s"] = (
        t.seconds("likelihood.compressed_restricted_loglik"), "s")
    return m


def scaling_metrics(small: Totals, large: Totals, n_small: int, n_large: int) -> dict:
    """Log-log slope in N of each scaled layer between two traced fits."""
    ts, tl = layer_seconds(small), layer_seconds(large)
    pairs = {f"{name}.n_exponent": (ts[name], tl[name]) for name in SCALED}
    pairs["sequential.fast_loglik.us_per_call.n_exponent"] = (
        _ratio(ts["sequential.fast_loglik"], small.calls("sequential.fast_loglik")),
        _ratio(tl["sequential.fast_loglik"], large.calls("sequential.fast_loglik")))
    scale = math.log(n_large / n_small)
    return {name: (math.log(b / a) / scale if a > 0 and b > 0 else 0.0, "1")
            for name, (a, b) in pairs.items()}

"""Workloads, the closed fit loop and the correctness gate of the benchmark.

Imported by ``run.py`` only after the BLAS thread count is pinned, because
importing numpy fixes it.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np

from fastsvc import FitOptions, SimConfig, fit, gen_large
from fastsvc.compression import SvcDesign, compress
from fastsvc.likelihood import (
    DIRECT_SIZE_GUARD,
    compressed_restricted_loglik,
    direct_restricted_loglik,
)

from spans import Recorder, Totals, installed, layer_metrics, layer_seconds, scaling_metrics

#: relative tolerance of the oracle checks (acceptance criterion 1)
ORACLE_RTOL = 1e-8

#: row chunk of the gate's fresh compression; differs from compress's default
GATE_CHUNK = 1000


@dataclasses.dataclass(frozen=True)
class Workload:
    n: int              # sites per dataset
    k: int              # covariates, intercept included
    options: dict       # FitOptions keywords
    datasets: int       # datasets generated per run, each fitted in the loop
    gen_knots: int = 500

    def config(self, seed: int) -> SimConfig:
        return SimConfig(self.n, self.k, seed, generator="large",
                         knot_count=self.gen_knots)

    def fit_options(self) -> FitOptions:
        return FitOptions(**self.options)


WORKLOADS = {
    # pinned sweeps make estimation fixed work; MST and k-means dominate
    "basis_heavy": Workload(20_000, 4, dict(basis="nystrom", knot_count=200, tol=0.0,
                                            max_sweeps=3, seed=0), datasets=2),
    # default fit, converging at tol: estimation dominates
    "estimate_heavy": Workload(5_000, 4, dict(seed=0), datasets=8),
    # 1600-row Gram, sweeps pinned: cache builds against evaluations
    "wide_k": Workload(10_000, 8, dict(tol=0.0, max_sweeps=2, seed=0), datasets=3),
}

#: tiny-N variant of every workload, for the self-test
TINY = dict(n=2400, gen_knots=100, datasets=2)
TINY_OPTIONS = dict(knot_count=40, max_sweeps=2, eval_budget=30)


def workload(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    if tiny:
        wl = dataclasses.replace(wl, options={**wl.options, **TINY_OPTIONS}, **TINY)
    return wl


def dataset_seed(seed: int, index: int) -> int:
    """Generator seed of dataset ``index`` of a run with workload seed ``seed``."""
    return 1000 * seed + index


# -- correctness -------------------------------------------------------------

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def check_fit(inst, result, reference=None) -> list[str]:
    """Problems with one fit; empty when it passes.

    With a ``reference`` (an earlier fit of the same dataset) the fit must
    repeat it bit for bit. Without one, its loglik must match the compressed
    likelihood recomputed from a fresh compression with another chunk size
    and, where N allows, the direct N-sized oracle.
    """
    ds = inst.dataset
    beta = result.beta_surfaces
    problems = []
    if beta.shape != (ds.n_obs, ds.n_cov):
        problems.append(f"beta_surfaces shape {beta.shape}")
    elif not np.isfinite(beta).all():
        problems.append("beta_surfaces not finite")
    if reference is not None:
        if result.loglik != reference.loglik:
            problems.append(f"repeat loglik {result.loglik!r} != {reference.loglik!r}")
        if not np.array_equal(beta, reference.beta_surfaces):
            problems.append("repeat beta_surfaces not bit-identical")
        return problems
    design = SvcDesign(X=ds.X, y=ds.y, vectors=result.basis.vectors,
                       values=result.basis.values, svc_flags=ds.svc_flags)
    recompressed = compressed_restricted_loglik(
        compress(design, chunk=GATE_CHUNK), result.params).loglik
    if _rel(result.loglik, recompressed) > ORACLE_RTOL:
        problems.append(f"loglik {result.loglik!r} != recompressed {recompressed!r}")
    if ds.n_obs <= DIRECT_SIZE_GUARD:
        direct = direct_restricted_loglik(design, result.params).loglik
        if _rel(result.loglik, direct) > ORACLE_RTOL:
            problems.append(f"loglik {result.loglik!r} != direct {direct!r}")
    return problems


def beta_r2(inst, result) -> float:
    """Share of the true surfaces' variance the fitted surfaces recover,
    pooled over the evaluated columns."""
    cols = inst.eval_columns
    truth = inst.true_beta[:, cols]
    err = result.beta_surfaces[:, cols] - truth
    centred = truth - truth.mean(axis=0)
    return float(1.0 - np.sum(err ** 2) / np.sum(centred ** 2))


class Ledger:
    """Counts fits and failures; keeps the first fit of each dataset as the
    reference later fits must repeat."""

    def __init__(self, instances):
        self.instances = instances
        self.references = [None] * len(instances)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fit(self, index: int, options: FitOptions):
        """Run one fit; returns ``(result or None, wall seconds)``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fit(self.instances[index].dataset, options)
        except Exception:  # a failed fit is counted and reported, never fatal
            self.failed += 1
            self.problems.append(f"dataset {index}: fit raised")
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def check(self, index: int, result) -> bool:
        """Gate a fit outside the timed region; counts it as failed if not."""
        if result is None:
            return False
        reference = self.references[index]
        problems = check_fit(self.instances[index], result, reference)
        if reference is None and not problems:
            self.references[index] = result
        if problems:
            self.failed += 1
            self.problems += [f"dataset {index}: {p}" for p in problems]
        return not problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.references[0] is not None


# -- end-to-end run ----------------------------------------------------------

def generate(wl: Workload, seed: int, count: int):
    """``count`` seeded datasets and the generation time of each."""
    instances, secs = [], []
    for i in range(count):
        t0 = time.perf_counter()
        instances.append(gen_large(wl.config(dataset_seed(seed, i))))
        secs.append(time.perf_counter() - t0)
    return instances, secs


def peak_fit_mib(ledger: Ledger, options: FitOptions):
    """tracemalloc peak of one untimed fit of dataset 0, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result, _ = ledger.fit(0, options)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak / 2 ** 20


def run_end_to_end(wl: Workload, seed: int, seconds: float, import_s: list[float]):
    """Set up, time fits in a closed loop for ``seconds``, gate every fit.

    Returns ``(ledger, metrics, detail)``; metrics map name -> (value, unit).
    """
    options = wl.fit_options()
    instances, gen_s = generate(wl, seed, wl.datasets)
    ledger = Ledger(instances)
    warm, warm_s = ledger.fit(0, options)
    ledger.check(0, warm)
    setup_s = statistics.median(import_s) + statistics.median(gen_s) + warm_s

    # one caller, one fit at a time; every dataset at least once
    times = [[] for _ in instances]
    done = 0
    start = time.perf_counter()
    while done < len(instances) or time.perf_counter() - start < seconds:
        index = done % len(instances)
        result, wall = ledger.fit(index, options)
        if ledger.check(index, result):
            times[index].append(wall)
        done += 1
    loop_s = time.perf_counter() - start

    peak_result, peak_mib = peak_fit_mib(ledger, options)
    ledger.check(0, peak_result)

    refs = [r for r in ledger.references if r is not None]
    per_dataset = [statistics.median(t) for t in times if t]
    metrics = {}
    if per_dataset:
        metrics["fit_s"] = (statistics.median(per_dataset), "s")
    metrics["setup_s"] = (setup_s, "s")
    if refs:
        metrics["neg_loglik"] = (statistics.median(-r.loglik for r in refs), "nats")
        metrics["beta_r2"] = (statistics.median(
            beta_r2(inst, r) for inst, r in zip(instances, ledger.references)
            if r is not None), "ratio")
    metrics["fit_peak_mb"] = (peak_mib, "MiB")
    detail = {
        "fit_samples": sum(map(len, times)),
        "fit_s_by_dataset": times,
        "loop_s": loop_s,
        "setup_parts_s": {"import": statistics.median(import_s),
                          "generate": statistics.median(gen_s), "warm_up_fit": warm_s},
        "fit_fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "sweeps": [r.trace.n_sweeps for r in refs],
        "evaluations": [int(sum(map(sum, r.trace.eval_counts))) for r in refs],
    }
    return ledger, metrics, detail


# -- traced run ----------------------------------------------------------------

def traced_fit(recorder: Recorder, ledger: Ledger, index: int, options: FitOptions):
    """One fit with every entry point wrapped; the gate runs unwrapped."""
    with installed(recorder), recorder.fit():
        result, wall = ledger.fit(index, options)
    ledger.check(index, result)
    return wall


def run_traced(wl: Workload, seed: int, seconds: float):
    """Per-layer metrics from traced fits of dataset 0, the tracing overhead
    against untraced fits of it, and the log-log slope of each layer between
    N / 2 and N. Returns ``(ledger, metrics, detail, recorder)``."""
    options = wl.fit_options()
    config = wl.config(dataset_seed(seed, 0))
    half_n = wl.n // 2
    ledger = Ledger([gen_large(config),
                     gen_large(dataclasses.replace(config, n=half_n))])

    warm, _ = ledger.fit(0, options)
    ledger.check(0, warm)
    # untraced and traced fits alternate, so machine drift hits both alike
    recorder, plain, traced = Recorder(), [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        result, wall = ledger.fit(0, options)
        if ledger.check(0, result):
            plain.append(wall)
        traced.append(traced_fit(recorder, ledger, 0, options))
    half = Recorder()
    traced_fit(half, ledger, 1, options)

    totals = Totals(recorder)
    metrics = layer_metrics(totals)
    if plain:
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                       "s")
    metrics.update(scaling_metrics(Totals(half), totals, half_n, wl.n))
    largest = totals.largest_self()
    detail = {"traced_fits": len(traced), "traced_fit_s": statistics.median(traced),
              "untraced_fits": len(plain),
              "untraced_fit_s": statistics.median(plain) if plain else None,
              "largest_self_time": {"layer": largest[0], "s": largest[1]}}
    return ledger, metrics, detail, recorder


def single_thread_layers(wl: Workload, seed: int):
    """Layer times of one traced fit of dataset 0 (run with one BLAS thread)."""
    ledger = Ledger([gen_large(wl.config(dataset_seed(seed, 0)))])
    recorder = Recorder()
    traced_fit(recorder, ledger, 0, wl.fit_options())
    return ledger, layer_seconds(Totals(recorder))

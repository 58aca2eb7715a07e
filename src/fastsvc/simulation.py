"""Synthetic data generators, accuracy metrics, and the benchmark runner.

Two generators produce datasets with known coefficient surfaces:

* ``gen_small`` draws surfaces from a spatial moving average
  ``beta_k = 1 + C_std eps_k`` with ``C_std`` the row-standardized
  ``exp(-d)`` kernel (dense, so N is guarded).
* ``gen_large`` draws surfaces from the positive-eigenvalue Nystrom basis,
  ``beta_k = 1 + E_plus gamma_k`` with ``gamma_k ~ N(0, diag(lam) ** alpha)``;
  the first half of the coefficients get a large-scale exponent, the rest a
  small-scale one.

In both, covariate values are standard normal, the residual variance is
pinned to ``NOISE_RATIO`` times the realized signal variance (so the model
R-squared concentrates near 1 / (1 + NOISE_RATIO)), and all draws are
seeded.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ShapeMismatch, SizeGuardExceeded
from .eigenbasis import NYSTROM_CHUNK, nystrom_basis
from .geometry import kmeans_knots
from .gwr import gwr_fit
from .model import FitOptions, SpatialDataset, SvcFit, fit

log = logging.getLogger(__name__)

#: dense moving-average generator refused above this N
SMALL_GEN_GUARD = 5000

#: generator knot decompositions capped here
MAX_GEN_KNOTS = 2000

#: residual variance as a multiple of the realized signal variance
NOISE_RATIO = 0.3

#: estimators the benchmark runner compares
METHODS = ("msvc", "gwr")

REPORT_COLUMNS = ("method", "N", "K", "rep", "alpha_group", "rmse", "bias",
                  "corr", "t_basis_s", "t_compress_s", "t_estimate_s", "t_total_s")


@dataclass(frozen=True)
class SimConfig:
    """Generator settings. ``k`` counts generated coefficient surfaces; the
    small generator adds a plain intercept column on top of them."""

    n: int
    k: int
    seed: int = 0
    generator: str = "small"          # small | large
    knot_count: int = MAX_GEN_KNOTS   # large generator only
    alpha_large: float = 2.0
    alpha_small: float = 0.5

    def __post_init__(self):
        if self.k < 1 or self.n < self.k + 1:
            raise ValueError(f"need k >= 1 and n >= k + 1, got n={self.n}, k={self.k}")
        if self.generator not in ("small", "large"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 1 <= self.knot_count <= MAX_GEN_KNOTS:
            raise ValueError(
                f"knot_count must be in [1, {MAX_GEN_KNOTS}], got {self.knot_count}")


@dataclass(frozen=True)
class SimInstance:
    """A generated dataset with its ground truth."""

    dataset: SpatialDataset
    true_beta: np.ndarray        # (N, K_design)
    true_sigma2: float
    eval_columns: np.ndarray     # design columns with a meaningful truth
    alpha_by_column: np.ndarray | None  # scale exponent per design column


def gen_small(config: SimConfig) -> SimInstance:
    """Moving-average surfaces on dense kernels; all covariates random.

    The returned design is fit-ready: an intercept column is prepended (its
    true surface is identically zero) ahead of the K generated covariates.
    """
    n, k = config.n, config.k
    if n > SMALL_GEN_GUARD:
        raise SizeGuardExceeded(f"N={n} exceeds small-generator guard {SMALL_GEN_GUARD}")
    rng = np.random.default_rng(config.seed)
    coords = rng.standard_normal((n, 2))

    smoother = np.exp(-cdist(coords, coords))
    smoother /= smoother.sum(axis=1, keepdims=True)

    x_rand = rng.standard_normal((n, k))
    beta = 1.0 + smoother @ rng.standard_normal((n, k))
    signal = np.sum(x_rand * beta, axis=1)
    sigma2 = NOISE_RATIO * float(np.var(signal))
    y = signal + np.sqrt(sigma2) * rng.standard_normal(n)

    X = np.column_stack([np.ones(n), x_rand])
    dataset = SpatialDataset(coords=coords, y=y, X=X,
                             svc_flags=np.ones(k + 1, dtype=bool))
    true_beta = np.column_stack([np.zeros(n), beta])
    return SimInstance(
        dataset=dataset,
        true_beta=true_beta,
        true_sigma2=sigma2,
        eval_columns=np.arange(1, k + 1),
        alpha_by_column=None,
    )


def gen_large(config: SimConfig) -> SimInstance:
    """Eigenbasis-driven multiscale surfaces; first covariate is the constant.

    The first ceil(K/2) surfaces use the large-scale exponent, the rest the
    small-scale one. Surfaces use every positive approximated eigenpair of a
    unit-range knot kernel (up to the knot count), deliberately richer than
    the 200-pair estimation basis.
    """
    n, k = config.n, config.k
    rng = np.random.default_rng(config.seed)
    coords = rng.standard_normal((n, 2))

    knots = kmeans_knots(coords, min(config.knot_count, n), seed=config.seed)
    basis = nystrom_basis(coords, knots, range_r=1.0, max_pairs=None)
    lam = basis.values

    n_large = (k + 1) // 2
    alphas = np.where(np.arange(k) < n_large, config.alpha_large, config.alpha_small)
    gamma = rng.standard_normal((lam.shape[0], k))
    gamma *= np.sqrt(lam[:, None] ** alphas[None, :])
    # row blocks of the basis, never all N x L at once
    beta = np.empty((n, k))
    for lo in range(0, n, NYSTROM_CHUNK):
        hi = min(lo + NYSTROM_CHUNK, n)
        beta[lo:hi] = 1.0 + basis.rows(lo, hi) @ gamma

    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))]) if k > 1 \
        else np.ones((n, 1))
    signal = np.sum(X * beta, axis=1)
    sigma2 = NOISE_RATIO * float(np.var(signal))
    y = signal + np.sqrt(sigma2) * rng.standard_normal(n)

    dataset = SpatialDataset(coords=coords, y=y, X=X,
                             svc_flags=np.ones(k, dtype=bool))
    return SimInstance(
        dataset=dataset,
        true_beta=beta,
        true_sigma2=sigma2,
        eval_columns=np.arange(k),
        alpha_by_column=alphas.astype(float),
    )


def generate(config: SimConfig) -> SimInstance:
    return gen_small(config) if config.generator == "small" else gen_large(config)


# -- accuracy metrics --------------------------------------------------------

def _paired(true, est):
    t = np.asarray(true, dtype=np.float64)
    e = np.asarray(est, dtype=np.float64)
    if t.shape != e.shape:
        raise ShapeMismatch(f"shape mismatch: {t.shape} vs {e.shape}")
    return t, e


def rmse(true, est) -> float:
    """Root mean squared error pooled over all entries."""
    t, e = _paired(true, est)
    return float(np.sqrt(np.mean((t - e) ** 2)))


def bias(true, est) -> float:
    """Mean of (true - estimate); positive means underestimation."""
    t, e = _paired(true, est)
    return float(np.mean(t - e))


def corr(true, est) -> float:
    """Pearson correlation pooled over all entries; NaN if either side is
    constant (e.g. a coefficient collapsed to its fixed effect)."""
    t, e = _paired(true, est)
    tc = t.ravel() - t.mean()
    ec = e.ravel() - e.mean()
    denom = np.sqrt((tc @ tc) * (ec @ ec))
    if denom == 0.0:
        return float("nan")
    return float(tc @ ec / denom)


# -- experiment runner -------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark campaign: methods x sample sizes x replications."""

    methods: tuple = ("msvc",)
    n_values: tuple = (1000,)
    k: int = 2
    reps: int = 20
    seed: int = 0
    generator: str = "large"
    gen_knot_count: int = MAX_GEN_KNOTS
    fit_options: FitOptions = field(default_factory=lambda: FitOptions(basis="nystrom"))

    def __post_init__(self):
        if not self.methods:
            raise ValueError(f"methods must name at least one method, got {self.methods!r}")
        if not self.n_values:
            raise ValueError(f"n_values must hold at least one sample size, got {self.n_values!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be positive, got {self.reps}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {', '.join(METHODS)}")
        for n in self.n_values:  # rejects what the campaign would fail on
            self.config(n, self.seed)

    def config(self, n: int, seed: int) -> SimConfig:
        """Generator settings of one replication at sample size ``n``."""
        return SimConfig(n=int(n), k=self.k, seed=seed, generator=self.generator,
                         knot_count=min(self.gen_knot_count, int(n)))


def _group_columns(instance: SimInstance):
    """Evaluation columns keyed by alpha group label."""
    cols = instance.eval_columns
    if instance.alpha_by_column is None:
        return {"all": cols}
    groups = {}
    for a in np.unique(instance.alpha_by_column[cols])[::-1]:
        members = cols[instance.alpha_by_column[cols] == a]
        groups[f"{a:g}"] = members
    return groups


def _metric_rows(base: dict, instance: SimInstance, surfaces: np.ndarray,
                 timings: dict):
    rows = []
    for label, cols in _group_columns(instance).items():
        t, e = instance.true_beta[:, cols], surfaces[:, cols]
        rows.append({**base,
                     "alpha_group": label,
                     "rmse": rmse(t, e),
                     "bias": bias(t, e),
                     "corr": corr(t, e),
                     **timings})
    return rows


def _nan_rows(base: dict, timings: dict):
    return [{**base, "alpha_group": "all", "rmse": np.nan, "bias": np.nan,
             "corr": np.nan, **timings}]


def run_experiment(spec: ExperimentSpec):
    """Run the campaign; one report row per method x N x rep x alpha group.

    Deterministic given the spec (replication r uses seed ``spec.seed + r``).
    Per-replication failures are logged and recorded as NaN metric rows.
    Returns a list of dicts with the REPORT_COLUMNS keys.
    """
    rows = []
    for n in spec.n_values:
        for rep in range(spec.reps):
            instance = generate(spec.config(n, spec.seed + rep))
            for method in spec.methods:
                base = {"method": method, "N": int(n), "K": spec.k, "rep": rep}
                try:
                    if method == "msvc":
                        result = fit(instance.dataset, spec.fit_options)
                        timings = {
                            "t_basis_s": result.timings["basis"],
                            "t_compress_s": result.timings["compress"],
                            "t_estimate_s": result.timings["estimate"],
                            "t_total_s": sum(result.timings[stage] for stage in
                                             ("basis", "compress", "estimate")),
                        }
                        surfaces = result.beta_surfaces
                    else:  # gwr
                        t0 = time.perf_counter()
                        gfit = gwr_fit(instance.dataset)
                        elapsed = time.perf_counter() - t0
                        timings = {"t_basis_s": 0.0, "t_compress_s": 0.0,
                                   "t_estimate_s": elapsed, "t_total_s": elapsed}
                        surfaces = gfit.beta_surfaces
                    rows.extend(_metric_rows(base, instance, surfaces, timings))
                except Exception:
                    log.exception("replication failed: %s", base)
                    zeros = {"t_basis_s": np.nan, "t_compress_s": np.nan,
                             "t_estimate_s": np.nan, "t_total_s": np.nan}
                    rows.extend(_nan_rows(base, zeros))
    rows.sort(key=lambda r: (r["method"], r["N"], r["rep"], r["alpha_group"]))
    return rows


def write_report(rows, path):
    """CSV with the fixed REPORT_COLUMNS schema, 17 significant digits."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            out = []
            for col in REPORT_COLUMNS:
                val = row[col]
                out.append(f"{val:.17g}" if isinstance(val, float) else val)
            writer.writerow(out)

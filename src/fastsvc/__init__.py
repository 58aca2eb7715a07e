"""Fast multiscale spatially varying coefficient (SVC) regression.

A Moran-eigenvector SVC estimator built for large N: Nystrom rank reduction
of the spatial basis, one-pass compression of the design into N-free inner
products, and sequential restricted-likelihood maximization whose per-step
cost is O(L^3). Ships with an exact slow-path oracle, a GWR baseline, and a
seeded simulation/benchmark harness.
"""

from .compression import CompressedMoments, SvcDesign, compress
from .eigenbasis import EigenBasis, basis_at, exact_basis, moran_coefficient, nystrom_basis
from .errors import FastSvcError
from .geometry import KnotSet, kmeans_knots, mst_max_edge, proximity
from .gwr import GwrFit, GwrGrid, gwr_fit, gwr_fit_at, gwr_select_bandwidth
from .likelihood import (
    LikelihoodResult,
    ShrinkageParams,
    compressed_restricted_loglik,
    direct_restricted_loglik,
    v_diag,
)
from .model import (
    FitOptions,
    SpatialDataset,
    SvcFit,
    add_intercept,
    build_basis,
    fit,
    reconstruct_svc,
)
from .sequential import FitTrace, PerKCache, build_cache, fast_loglik, fit_sequential, optimize_k
from .simulation import (
    ExperimentSpec,
    SimConfig,
    SimInstance,
    bias,
    corr,
    gen_large,
    gen_small,
    generate,
    rmse,
    run_experiment,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "CompressedMoments", "SvcDesign", "compress",
    "EigenBasis", "basis_at", "exact_basis", "moran_coefficient", "nystrom_basis",
    "FastSvcError",
    "KnotSet", "kmeans_knots", "mst_max_edge", "proximity",
    "GwrFit", "GwrGrid", "gwr_fit", "gwr_fit_at", "gwr_select_bandwidth",
    "LikelihoodResult", "ShrinkageParams",
    "compressed_restricted_loglik", "direct_restricted_loglik", "v_diag",
    "FitOptions", "SpatialDataset", "SvcFit", "add_intercept", "build_basis",
    "fit", "reconstruct_svc",
    "FitTrace", "PerKCache", "build_cache", "fast_loglik", "fit_sequential", "optimize_k",
    "ExperimentSpec", "SimConfig", "SimInstance",
    "bias", "corr", "gen_large", "gen_small", "generate", "rmse",
    "run_experiment", "write_report",
    "__version__",
]

"""End-to-end estimation pipeline and coefficient-surface reconstruction.

``fit`` chains the whole approach: kernel range from the spanning tree,
eigenbasis (exact or Nystrom), one-pass compression, sequential restricted-
likelihood maximization, and surface reconstruction
``beta_k = b_k 1 + E V_k u_k``. Per-stage wall times are recorded on the
result so scaling behavior can be inspected.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .compression import SvcDesign, _check_regression, compress
from .eigenbasis import DEFAULT_MAX_PAIRS, EigenBasis, exact_basis, nystrom_basis
from .errors import DependentCovariates, InsufficientData, InvalidKnotCount
from .geometry import KnotSet, as_coords, distinct_sites, kmeans_knots, mst_max_edge
from .likelihood import ShrinkageParams, v_diag
from .sequential import FitTrace, fit_sequential

#: with basis="auto", the exact eigenbasis is used up to this N
AUTO_EXACT_LIMIT = 1000

#: a fit's k-means runs on at most this many sites per knot; fixed on cost:
#: at this density Lloyd converges in about 25 passes
KNOT_SAMPLE_PER_KNOT = 25

_log = logging.getLogger("fastsvc")


@dataclass(frozen=True)
class SpatialDataset:
    """Observations at planar sites: response, covariates, varying flags.

    ``X[:, 0]`` must be the constant 1; its coefficient surface doubles as
    the spatially dependent residual term, so it always varies. Construction
    enforces this, finite coordinates, covariates and response, and (with at
    least as many rows as columns) covariates of full column rank, so a
    malformed dataset fails before any fitting work.
    """

    coords: np.ndarray     # (N, 2)
    y: np.ndarray          # (N,)
    X: np.ndarray          # (N, K), first column all ones
    svc_flags: np.ndarray  # (K,) bool

    def __post_init__(self):
        coords = as_coords(self.coords)
        y = np.asarray(self.y, dtype=np.float64).ravel()
        X = np.asarray(self.X, dtype=np.float64)
        flags = np.asarray(self.svc_flags, dtype=bool).ravel()
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "svc_flags", flags)
        n = coords.shape[0]
        if X.ndim != 2:
            raise ValueError("X must be 2-D, (N, K)")
        if y.shape[0] != n or X.shape[0] != n:
            raise ValueError("coords, y and X must agree on N")
        if flags.shape[0] != X.shape[1]:
            raise ValueError("need one svc flag per covariate")
        _check_regression(X, y, flags)
        if n >= X.shape[1]:  # fewer rows than columns is fit's InsufficientData
            dependent = _dependent_columns(X)
            if dependent:
                raise DependentCovariates(dependent, X.shape[1] - len(dependent))

    @property
    def n_obs(self) -> int:
        return self.coords.shape[0]

    @property
    def n_cov(self) -> int:
        return self.X.shape[1]


def _dependent_columns(X: np.ndarray) -> list[int]:
    """Indices of the columns of ``X`` that are linear combinations of the
    columns before them. Every leading block is ranked at numpy's default
    ``matrix_rank`` tolerance for the whole of ``X``; singular values only
    grow as columns are added, so the count equals the rank deficiency."""
    s = np.linalg.svd(X, compute_uv=False)
    tol = s.max() * max(X.shape) * np.finfo(X.dtype).eps
    if np.count_nonzero(s > tol) == X.shape[1]:
        return []
    ranks = [0] + [np.linalg.matrix_rank(X[:, :j], tol=tol)
                   for j in range(1, X.shape[1] + 1)]
    return [j for j in range(X.shape[1]) if ranks[j + 1] == ranks[j]]


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a constant-1 column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return np.column_stack([np.ones(X.shape[0]), X])


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for ``fit``; defaults follow the scale-capped scheme."""

    knot_count: int | None = None         # default min(200, distinct sites)
    basis: str = "auto"                   # exact | nystrom | auto
    max_eigenpairs: int = DEFAULT_MAX_PAIRS
    tol: float = 1e-5
    max_sweeps: int = 30
    eval_budget: int = 120
    seed: int = 0
    range_r: float | None = None          # override the MST-derived kernel range

    def __post_init__(self):
        if self.basis not in ("exact", "nystrom", "auto"):
            raise ValueError(f"unknown basis kind {self.basis!r}")
        for name in ("knot_count", "max_eigenpairs", "max_sweeps", "eval_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.range_r is not None and not 0 < self.range_r < np.inf:
            raise ValueError(f"range_r must be finite and > 0, got {self.range_r}")


@dataclass(frozen=True)
class SvcFit:
    """Fitted model: coefficients, shrinkage, surfaces, and diagnostics."""

    b_hat: np.ndarray          # (K,)
    u_hat: np.ndarray          # (K_v, L)
    params: ShrinkageParams
    sigma2_hat: float
    loglik: float
    basis: EigenBasis
    beta_surfaces: np.ndarray  # (N, K)
    svc_flags: np.ndarray
    trace: FitTrace
    timings: dict              # seconds per stage: basis / compress / estimate /
                               # reconstruct, basis's range / knots / eigen,
                               # and estimate's cache builds / searches

    @property
    def collapsed(self) -> np.ndarray:
        return self.trace.collapsed


def reconstruct_svc(basis: EigenBasis, b_hat: np.ndarray,
                    params: ShrinkageParams, u_hat: np.ndarray,
                    svc_flags) -> np.ndarray:
    """Coefficient surfaces ``beta_k = b_k 1 + E V_k u_k`` (constant rows for
    non-varying coefficients).

    The varying columns come from ``basis.times`` on the (L, K_v) matrix of
    ``V_k u_k``: an exact basis multiplies its stored rows chunk by chunk,
    equal bit for bit to the chunked ``rows @ coef`` through scipy's
    ``dgemm``; a Nystrom basis multiplies its site-to-knot kernel by the
    knot-side product (knots x K_v), which skips the N x knots x L product
    of its rows and agrees with ``rows @ coef`` to rounding."""
    flags = np.asarray(svc_flags, dtype=bool).ravel()
    k = flags.shape[0]
    if b_hat.shape[0] != k:
        raise ValueError("one fixed effect per covariate required")
    varying = np.flatnonzero(flags)
    coef = np.empty((basis.n_pairs, varying.size))
    for a in range(varying.size):
        coef[:, a] = v_diag(params.rho[a], params.alpha[a], basis.values) * u_hat[a]
    beta = np.tile(b_hat, (basis.n_sites, 1))
    beta[:, varying] += basis.times(coef)
    return beta


def _fit_knots(coords: np.ndarray, n_knots: int, seed: int) -> KnotSet:
    """``kmeans_knots`` on at most ``KNOT_SAMPLE_PER_KNOT * n_knots`` sites.

    Knots are only Nystrom landmarks, so above that bound Lloyd runs on a
    uniform sample of the sites, drawn without replacement and kept in
    their original order (k-means on samples: Sculley, WWW 2010; k-means
    Nystrom landmarks: Zhang, Tsang & Kwok, ICML 2008). The sample is drawn
    from the first stream spawned from ``seed``, independent of the ++
    seeding's ``default_rng(seed)``. At or below the bound, k-means gets
    ``coords`` itself. A sample holding fewer distinct sites than
    ``n_knots`` makes k-means run on all sites, so only data with too few
    distinct sites raise ``InvalidKnotCount``. ``KnotSet.sites`` reports
    how many sites k-means ran on."""
    n = coords.shape[0]
    bound = KNOT_SAMPLE_PER_KNOT * n_knots
    if n > bound:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        sample = coords[np.sort(rng.choice(n, size=bound, replace=False))]
        try:
            return kmeans_knots(sample, n_knots, seed=seed)
        except InvalidKnotCount:
            pass  # too many repeated sites in the sample; all sites may do
    return kmeans_knots(coords, n_knots, seed=seed)


def build_basis(coords, options: FitOptions, timings: dict | None = None) -> EigenBasis:
    """Eigenbasis per the options: range from the spanning tree unless
    overridden, exact for modest N or knots + Nystrom otherwise.

    The distinct sites are found once (``distinct_sites``), when the range
    or the default knot count ``min(200, distinct sites)`` needs them, and
    the range is taken on them, which finds them already distinct in O(N).
    ``timings``, when given, receives the wall seconds of that pass and the
    kernel range (``range``), the knots (``knots``, 0 for an exact basis)
    and the eigendecomposition with its row extension (``eigen``). Knots
    come from ``_fit_knots``. One DEBUG line on the ``fastsvc`` logger
    describes the basis: its kind, range and where the range came from
    (``given`` in the options, or the ``spanning tree`` of ``mst_max_edge``,
    whose own DEBUG line precedes it when the tree came from the Delaunay
    fallback), knots and the sites k-means ran on, pair count L and
    eigenvalue spread ``lambda_1 .. lambda_L``."""
    timings = {} if timings is None else timings
    coords = as_coords(coords)
    n = coords.shape[0]
    kind = options.basis
    if kind == "auto":
        kind = "exact" if n <= AUTO_EXACT_LIMIT else "nystrom"
    default_knots = kind == "nystrom" and options.knot_count is None
    t0 = time.perf_counter()
    r, distinct = options.range_r, None
    if r is None or default_knots:
        sites = distinct_sites(coords)
        distinct = sites.shape[0]
        if r is None:
            # a single distinct site goes in as given, so that the range
            # raises AllPointsCoincident
            r = mst_max_edge(sites if distinct > 1 else coords)
    t1 = time.perf_counter()
    timings["range"] = t1 - t0
    knots = None
    if kind == "nystrom":
        n_knots = min(200, distinct) if default_knots else min(options.knot_count, n)
        knots = _fit_knots(coords, n_knots, options.seed)
    t2 = time.perf_counter()
    timings["knots"] = t2 - t1
    if knots is None:
        basis = exact_basis(coords, r, max_pairs=options.max_eigenpairs)
    else:
        basis = nystrom_basis(coords, knots, r, max_pairs=options.max_eigenpairs)
    timings["eigen"] = time.perf_counter() - t2
    knot_note = "no knots" if knots is None else (
        f"{knots.count} knots from {knots.sites} sites after {knots.passes} passes "
        f"(converged={knots.converged})")
    source = "spanning tree" if options.range_r is None else "given"
    _log.debug("%s basis: range_r=%.6g (%s), %s, L=%d, lambda_1=%.6g, lambda_L=%.6g", kind,
               r, source, knot_note, basis.n_pairs, basis.values[0], basis.values[-1])
    return basis


def fit(dataset: SpatialDataset, options: FitOptions | None = None) -> SvcFit:
    """Estimate a multiscale spatially varying coefficient model.

    Deterministic for a fixed seed. Raises ``InsufficientData`` when N <= K
    and propagates the typed numerical errors of the underlying stages.
    """
    options = options or FitOptions()
    n, k = dataset.n_obs, dataset.n_cov
    if n <= k:
        raise InsufficientData(f"need N > K, got N={n}, K={k}")

    timings = {}
    t0 = time.perf_counter()
    basis = build_basis(dataset.coords, options, timings)
    timings["basis"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    design = SvcDesign(X=dataset.X, y=dataset.y, vectors=basis,
                       values=basis.values, svc_flags=dataset.svc_flags)
    moments = compress(design)
    timings["compress"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    params, final, trace = fit_sequential(
        moments, tol=options.tol, max_sweeps=options.max_sweeps,
        budget=options.eval_budget)
    timings["estimate"] = time.perf_counter() - t0
    timings["cache"] = trace.cache_s
    timings["search"] = trace.search_s

    t0 = time.perf_counter()
    beta = reconstruct_svc(basis, final.b_hat, params, final.u_hat, dataset.svc_flags)
    timings["reconstruct"] = time.perf_counter() - t0
    return SvcFit(
        b_hat=final.b_hat,
        u_hat=final.u_hat,
        params=params,
        sigma2_hat=final.sigma2_hat,
        loglik=final.loglik,
        basis=basis,
        beta_surfaces=beta,
        svc_flags=dataset.svc_flags.copy(),
        trace=trace,
        timings=timings,
    )

"""Geographically weighted regression baseline with exponential kernel.

Local weighted least squares at every site,
``beta(s_i) = [X' G(s_i) X]^{-1} X' G(s_i) y`` with
``g(s_i, s_j) = exp(-d(s_i, s_j) / b)``, bandwidth chosen by leave-one-out
cross-validation (own site down-weighted to zero) over a coarse log grid
followed by golden-section refinement. Kept as the accuracy/time reference
for the eigenbasis estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import LocalSingularity, NoValidBandwidth, SizeGuardExceeded
from .model import SpatialDataset

#: local normal-matrix condition above this raises LocalSingularity
LOCAL_COND_LIMIT = 1e12

#: per-site solves refused above this N (O(N^2 K^2) per bandwidth)
GWR_SIZE_GUARD = 20000

#: golden-section steps refining the best grid bandwidth
REFINE_ITERS = 20


@dataclass(frozen=True)
class GwrGrid:
    """Bandwidth search range; bounds default to fractions of the site
    bounding-box diagonal."""

    b_min: float | None = None
    b_max: float | None = None
    n_points: int = 12

    def __post_init__(self):
        for name in ("b_min", "b_max"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.b_min is not None and self.b_max is not None \
                and not self.b_min < self.b_max:
            raise ValueError(f"need b_min < b_max, got {self.b_min} and {self.b_max}")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")

    def resolve(self, coords: np.ndarray) -> np.ndarray:
        span = coords.max(axis=0) - coords.min(axis=0)
        diam = float(np.hypot(span[0], span[1]))
        if diam <= 0.0:
            diam = 1.0
        lo = self.b_min if self.b_min is not None else diam / 200.0
        hi = self.b_max if self.b_max is not None else 2.0 * diam
        if not hi > lo:
            raise ValueError(f"bandwidth grid needs b_min < b_max, got {lo} and {hi} "
                             "(a bound not given defaults from the site extent)")
        return np.geomspace(lo, hi, self.n_points)


@dataclass(frozen=True)
class GwrFit:
    bandwidth: float
    beta_surfaces: np.ndarray  # (N, K)
    cv_score: float


def _local_solves(dataset: SpatialDataset, bandwidth: float,
                  leave_one_out: bool, chunk: int = 256):
    """Per-site WLS coefficients (N, K); optionally with zero self-weight."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    coords, X, y = dataset.coords, dataset.X, dataset.y
    n, k = X.shape
    if n > GWR_SIZE_GUARD:
        raise SizeGuardExceeded(f"N={n} exceeds the GWR size guard {GWR_SIZE_GUARD}")
    beta = np.empty((n, k))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        W = np.exp(-cdist(coords[lo:hi], coords) / bandwidth)
        if leave_one_out:
            W[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        XW = X[None, :, :] * W[:, :, None]          # (S, N, K)
        A = np.einsum("snk,nl->skl", XW, X)          # local normal matrices
        rhs = XW.transpose(0, 2, 1) @ y              # (S, K)
        conds = np.linalg.cond(A)
        bad = np.flatnonzero(~np.isfinite(conds) | (conds > LOCAL_COND_LIMIT))
        if bad.size:
            raise LocalSingularity(site=int(lo + bad[0]))
        beta[lo:hi] = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    return beta


def gwr_fit_at(dataset: SpatialDataset, bandwidth: float) -> np.ndarray:
    """Coefficient surfaces at a fixed bandwidth, (N, K)."""
    return _local_solves(dataset, bandwidth, leave_one_out=False)


def gwr_loo_cv(dataset: SpatialDataset, bandwidth: float) -> float:
    """Leave-one-out CV score: sum of squared holdout prediction errors."""
    beta = _local_solves(dataset, bandwidth, leave_one_out=True)
    resid = dataset.y - np.sum(dataset.X * beta, axis=1)
    return float(resid @ resid)


def gwr_select_bandwidth(dataset: SpatialDataset,
                         grid: GwrGrid | None = None):
    """Coarse log-grid scan plus golden-section refinement of the LOO-CV score.

    Returns ``(bandwidth, cv_score)``; raises ``NoValidBandwidth`` when every
    candidate hits a local singularity.
    """
    grid = grid or GwrGrid()
    candidates = grid.resolve(dataset.coords)
    scores = np.full(candidates.shape[0], np.inf)
    for i, b in enumerate(candidates):
        try:
            scores[i] = gwr_loo_cv(dataset, float(b))
        except LocalSingularity:
            continue
    if not np.isfinite(scores).any():
        raise NoValidBandwidth("all candidate bandwidths failed")
    best = int(np.argmin(scores))

    # golden-section on log-bandwidth between the grid neighbors of the best
    left = np.log(candidates[max(best - 1, 0)])
    right = np.log(candidates[min(best + 1, candidates.shape[0] - 1)])
    if right <= left:
        return float(candidates[best]), float(scores[best])

    def score_at(logb: float) -> float:
        try:
            return gwr_loo_cv(dataset, float(np.exp(logb)))
        except LocalSingularity:
            return np.inf

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = score_at(x1), score_at(x2)
    for _ in range(REFINE_ITERS):
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = score_at(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = score_at(x2)
    logb = x1 if f1 <= f2 else x2
    fbest = min(f1, f2)
    if fbest <= scores[best]:
        return float(np.exp(logb)), float(fbest)
    return float(candidates[best]), float(scores[best])


def gwr_fit(dataset: SpatialDataset, bandwidth: float | None = None,
            grid: GwrGrid | None = None) -> GwrFit:
    """Full GWR fit; selects the bandwidth by LOO-CV when not given."""
    if bandwidth is None:
        bandwidth, cv = gwr_select_bandwidth(dataset, grid)
    else:
        cv = gwr_loo_cv(dataset, bandwidth)
    beta = gwr_fit_at(dataset, bandwidth)
    return GwrFit(bandwidth=float(bandwidth), beta_surfaces=beta, cv_score=float(cv))

"""One-pass compression of the design into N-free inner products.

Stacking ``W = [X, x_{k1} o E, ..., x_{kv} o E]`` (one block per spatially
varying covariate, ``o`` the columnwise product), everything the restricted
likelihood needs is contained in

    gram = W'W,   gy = W'y,   yty = y'y.

These are accumulated in row chunks of one preallocated buffer, and the
basis rows can be streamed from an ``EigenBasis``, so no N-by-anything
temporary beyond a chunk is ever materialized and the result size depends
only on K and L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .eigenbasis import ROW_CHUNK, EigenBasis
from .errors import DimensionMismatch, NonFiniteInput


def _check_regression(X: np.ndarray, y: np.ndarray, flags: np.ndarray):
    """The regression contract: ``X[:, 0]`` is the constant 1, its
    coefficient varies, and ``X`` and ``y`` are finite."""
    if not np.allclose(X[:, 0], 1.0):
        raise ValueError("first covariate column must be the constant 1")
    if not flags[0]:
        raise ValueError("the intercept coefficient must be marked varying")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInput("covariates or response contain NaN or infinity")


@dataclass(frozen=True)
class SvcDesign:
    """Regression design bundled with the spatial basis.

    ``X[:, 0]`` must be the constant 1 and the first covariate always varies:
    its varying part doubles as the residual spatial-dependence term.

    ``vectors`` is an (N, L) array, checked for non-finite entries here, or
    an ``EigenBasis`` whose rows ``compress`` pulls and checks chunk by
    chunk, so a Nystrom basis is never materialized.
    """

    X: np.ndarray          # (N, K), first column all ones
    y: np.ndarray          # (N,)
    vectors: np.ndarray | EigenBasis  # (N, L) basis eigenvectors, or their source
    values: np.ndarray     # (L,) basis eigenvalues, > 0
    svc_flags: np.ndarray  # (K,) bool, True = coefficient varies spatially

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64).ravel()
        E = self.vectors
        if not isinstance(E, EigenBasis):
            E = np.asarray(E, dtype=np.float64)
        lam = np.asarray(self.values, dtype=np.float64).ravel()
        flags = np.asarray(self.svc_flags, dtype=bool).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "vectors", E)
        object.__setattr__(self, "values", lam)
        object.__setattr__(self, "svc_flags", flags)
        n = X.shape[0]
        if X.ndim != 2:
            raise DimensionMismatch("X must be 2-D")
        if y.shape[0] != n or E.shape[0] != n:
            raise DimensionMismatch(
                f"row mismatch: X has {n}, y has {y.shape[0]}, basis has {E.shape[0]}")
        if lam.shape[0] != E.shape[1]:
            raise DimensionMismatch("eigenvalue count differs from basis columns")
        if flags.shape[0] != X.shape[1]:
            raise DimensionMismatch("need one svc flag per covariate")
        _check_regression(X, y, flags)
        if isinstance(E, np.ndarray) and not np.isfinite(E).all():
            raise NonFiniteInput("basis contains NaN or infinity")

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_cov(self) -> int:
        return self.X.shape[1]

    @property
    def n_basis(self) -> int:
        return self.vectors.shape[1]

    @property
    def varying(self) -> np.ndarray:
        return np.flatnonzero(self.svc_flags)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Basis rows ``lo:hi``, sliced from the array or pulled from the basis."""
        E = self.vectors
        return E.rows(lo, hi) if isinstance(E, EigenBasis) else E[lo:hi]


@dataclass(frozen=True)
class CompressedMoments:
    """All inner products the likelihood needs; no field scales with N.

    ``gram`` is the (K + K_v L) square Gram matrix of the stacked design,
    laid out as the fixed block followed by one L-block per varying
    covariate in ``varying`` order; ``block`` gives each L-block's columns.
    """

    gram: np.ndarray     # (m, m), m = K + K_v * L
    gy: np.ndarray       # (m,)
    yty: float
    n_obs: int
    n_cov: int           # K
    n_basis: int         # L
    varying: np.ndarray  # (K_v,) indices into covariate columns
    values: np.ndarray   # (L,) basis eigenvalues carried along for shrinkage

    @property
    def k_varying(self) -> int:
        return int(self.varying.shape[0])

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    def block(self, a: int) -> slice:
        """Column range of the a-th varying covariate's basis block."""
        lo = self.n_cov + a * self.n_basis
        return slice(lo, lo + self.n_basis)


def compress(design: SvcDesign, chunk: int = ROW_CHUNK) -> CompressedMoments:
    """Accumulate the Gram blocks of the stacked design in one pass.

    Each chunk of ``chunk`` rows of ``[W, y]`` is written into one
    preallocated buffer, and ``dsyrk`` adds its Gram, which holds ``W'W``,
    ``W'y`` and ``y'y``, into one upper triangle in place; the triangle is
    mirrored once at the end, so the Gram is exactly symmetric. No other
    BLAS call runs between the ``dsyrk`` calls: a threaded ``W'y`` product
    there slowed them by half on a 2-core machine. Basis rows are pulled one
    chunk at a time and must be finite. Results are exact inner products up
    to float addition order, which the chunk size and the BLAS calls fix.
    """
    X, y = design.X, design.y
    n, k = X.shape
    L = design.n_basis
    varying = design.varying
    m = k + varying.size * L

    buffer = np.empty((min(chunk, n), m + 1))
    gram = np.zeros((m + 1, m + 1), order="F")
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        E = design.rows(lo, hi)
        if not np.isfinite(E).all():
            raise NonFiniteInput(f"basis rows {lo}:{hi} contain NaN or infinity")
        W = buffer[:hi - lo]
        W[:, :k] = X[lo:hi]
        for a, j in enumerate(varying):
            np.multiply(X[lo:hi, j: j + 1], E, out=W[:, k + a * L: k + (a + 1) * L])
        W[:, m] = y[lo:hi]
        # W.T is Fortran-ordered and gram is too, so dsyrk copies neither
        gram = blas.dsyrk(1.0, W.T, beta=1.0, c=gram, overwrite_c=True)
    for j in range(1, m + 1):
        gram[j, :j] = gram[:j, j]
    return CompressedMoments(
        gram=gram[:m, :m],
        gy=gram[:m, m].copy(),
        yty=float(gram[m, m]),
        n_obs=n,
        n_cov=k,
        n_basis=L,
        varying=varying.copy(),
        values=design.values.copy(),
    )

"""Moran eigenvector bases: exact spectral construction and Nystrom extension.

The basis diagonalizes the doubly centered proximity kernel
``H C H`` with ``H = I - 11'/N``. Eigenvectors are orthogonal map patterns
ordered by spatial scale, and each eigenvalue is proportional to the Moran
coefficient of its eigenvector. Only positive-eigenvalue pairs (positive
spatial dependence) are retained, capped at 200 by default.

The Nystrom path builds the same object from L knot sites in O(N L^2):

    E_hat    = [C_NL - 1 (1_L' (C_L + I) / L)] E_L (Lambda_L + I)^{-1}
    lam_hat  = ((L + N) / L) (lambda_L + 1) - 1

where (E_L, Lambda_L) diagonalize the doubly centered zero-diagonal knot
kernel. The row correction restores the unit diagonal the zero-diagonal
convention removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigh

from .errors import (
    ConstantVector,
    DegenerateKernel,
    MissingKnots,
    NonPositiveRange,
    SizeGuardExceeded,
)
from .geometry import KnotSet, as_coords, proximity

#: eigenvalues below this fraction of the largest count as non-positive noise
POSITIVE_TOL = 1e-8

#: default cap on retained eigenpairs
DEFAULT_MAX_PAIRS = 200

#: dense exact eigendecomposition refused above this N
EXACT_SIZE_GUARD = 5000

#: dense knot decomposition refused above this knot count
KNOT_SIZE_GUARD = 2000

#: rows per chunk where a fit streams a basis (compression, reconstruction),
#: so each chunk's arrays hold ROW_CHUNK x (columns) values; fixed on memory:
#: compress's ``dsyrk`` runs as fast on 256-row chunks as on 1024-row ones
ROW_CHUNK = 256

#: rows per block of one Nystrom evaluation; rows pulled in blocks of this
#: size, aligned to it, repeat ``vectors`` bit for bit
NYSTROM_CHUNK = 8192


@dataclass(frozen=True)
class EigenBasis:
    """Retained spatial eigenpairs, exact or Nystrom-approximated.

    A basis is a source of eigenvector rows: ``rows(lo, hi)`` gives rows
    ``lo:hi`` and ``vectors`` all N of them. An exact basis stores its
    (N, L) array. A Nystrom basis stores only its sites and knot ingredients
    and evaluates rows on demand, so the stages that stream it (compression,
    surface reconstruction, the CLI export) never hold all N x L at once.

    Attributes
    ----------
    values : (L,) array
        Eigenvalues, strictly positive, descending.
    range_r : float
        Kernel range used to build the proximity matrix.
    kind : str
        ``"exact"`` or ``"nystrom"``.
    stored : (N, L) array or None
        The eigenvector columns of an exact basis.
    sites : (N, 2) array or None
        The sites a Nystrom basis evaluates its rows at.
    knots : KnotSet or None
        Present only for the Nystrom kind.
    knot_scale, row_correction
        Nystrom ingredients that evaluate the basis at any sites
        (``basis_at``): ``knot_scale`` is the knot kernel's eigenvectors
        divided by ``knot_values + 1`` (knots x L), the factor that maps a
        row of the corrected site-to-knot kernel to a basis row, formed once
        when the basis is built.
    knot_values : (L,) array or None
        Eigenvalues of the knot kernel, present only for the Nystrom kind.
    """

    values: np.ndarray
    range_r: float
    kind: str
    stored: np.ndarray | None = None
    sites: np.ndarray | None = None
    knots: KnotSet | None = None
    knot_scale: np.ndarray | None = None
    knot_values: np.ndarray | None = None
    row_correction: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_sites(self) -> int:
        source = self.stored if self.stored is not None else self.sites
        return int(source.shape[0])

    @property
    def shape(self) -> tuple:
        """(N, L), the shape of ``vectors``."""
        return (self.n_sites, self.n_pairs)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvector rows ``lo:hi``: a view of the stored array, or the
        Nystrom formula evaluated at those sites."""
        if self.stored is not None:
            return self.stored[lo:hi]
        return basis_at(self, self.sites[lo:hi])

    @property
    def vectors(self) -> np.ndarray:
        """All (N, L) eigenvector columns; a Nystrom basis evaluates every
        row on each access."""
        return self.rows(0, self.n_sites)

    def times(self, coef: np.ndarray) -> np.ndarray:
        """``vectors @ coef`` for an (L, J) ``coef``, ``ROW_CHUNK`` rows at a
        time. An exact basis multiplies its stored rows, each chunk with the
        scipy ``dgemm`` call of ``_knot_kernel_times``. A Nystrom basis
        folds ``coef`` into the knot side first, ``knot_scale @ coef``
        (knots x J), and multiplies the kernel rows by that, so no N x L
        rows are formed; the result agrees with ``vectors @ coef`` to
        rounding, not bit for bit."""
        n = self.n_sites
        if self.stored is None:
            folded = blas.dgemm(1.0, coef.T, self.knot_scale.T).T
            return _knot_kernel_times(self.sites, self, folded, ROW_CHUNK)
        out = np.empty((n, coef.shape[1]))
        for lo in range(0, n, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, n)
            out[lo:hi] = blas.dgemm(1.0, coef.T, self.stored[lo:hi].T).T
        return out


def _double_center(C: np.ndarray) -> np.ndarray:
    # H C H for symmetric C, via row/column mean subtraction
    row = C.mean(axis=1)
    total = row.mean()
    return C - row[:, None] - row[None, :] + total


def _centered_eigh(C: np.ndarray):
    """Eigenpairs of the doubly centered kernel with the constant direction
    deflated.

    Centering annihilates the constant vector, so the spectrum has an exact
    null along 1 that carries no spatial pattern. Left in place it can be
    returned mixed into near-zero eigenvectors (breaking their zero means)
    and, worse, the Nystrom eigenvalue rescaling would map it to a positive
    value. A rank-one shift pushes it strictly below every genuine
    eigenvalue; all other pairs are untouched because they are orthogonal
    to 1.

    The decomposition is LAPACK's ``dsyevd`` through scipy, the call
    ``np.linalg.eigh`` makes (equal eigenpairs bit for bit): numpy's own
    OpenBLAS threads, woken here, kept spinning through the ``compress``
    that follows, which then took about 1.3x as long on a 2-core machine.
    """
    M = _double_center(C)
    n = M.shape[0]
    bound = float(np.abs(M).sum(axis=1).max())  # Gershgorin radius
    M = M - (bound + 1.0) / n * np.ones((n, n))
    return eigh(M, driver="evd")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # make the largest-magnitude entry of each column positive (sign convention)
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs[None, :]


def _positive_descending(values: np.ndarray, max_pairs: int | None):
    """Indices of retained eigenvalues: positive (relative tolerance), sorted
    descending, capped."""
    vmax = values.max()
    if not vmax > 0.0:
        raise DegenerateKernel("centered kernel has no positive eigenvalues")
    keep = np.flatnonzero(values > POSITIVE_TOL * vmax)
    keep = keep[np.argsort(values[keep])[::-1]]
    if max_pairs is not None and keep.size > max_pairs:
        keep = keep[:max_pairs]
    return keep


def exact_basis(coords, range_r: float,
                max_pairs: int | None = DEFAULT_MAX_PAIRS) -> EigenBasis:
    """Dense eigendecomposition of the doubly centered zero-diagonal kernel.

    The oracle-quality construction: O(N^3) time, O(N^2) memory, guarded by
    ``EXACT_SIZE_GUARD``. Retains positive eigenpairs, descending, capped.
    """
    pts = as_coords(coords)
    n = pts.shape[0]
    if n > EXACT_SIZE_GUARD:
        raise SizeGuardExceeded(
            f"N={n} exceeds dense eigendecomposition guard {EXACT_SIZE_GUARD}")
    C = proximity(pts, pts, range_r, zero_diagonal=True)
    w, V = _centered_eigh(C)
    keep = _positive_descending(w, max_pairs)
    return EigenBasis(
        values=w[keep].copy(),
        range_r=float(range_r),
        kind="exact",
        stored=_fix_signs(V[:, keep]),
    )


def _knot_kernel_times(coords, basis: EigenBasis, right: np.ndarray,
                       chunk: int) -> np.ndarray:
    """``C_nl right`` for the row-corrected site-to-knot kernel ``C_nl`` of a
    Nystrom basis at arbitrary sites, chunked so the kernel never exceeds
    chunk x L memory. With ``right = basis.knot_scale`` these are the basis
    rows; with ``knot_scale @ coef``, the rows times ``coef``.

    The product runs through scipy's BLAS, the library of ``compress``'s
    ``dsyrk``: numpy and scipy each load their own OpenBLAS, and a loop that
    alternates between the two thread pools ran about twice as slow on a
    2-core machine. Both operands are passed transposed, so Fortran-ordered
    and uncopied; that is the column-major call numpy's ``C_nl @ right``
    makes, and with the OpenBLAS builds numpy and scipy ship its rows equal
    numpy's bit for bit (the generated benchmark data did not change).
    """
    pts = as_coords(coords)
    out = np.empty((pts.shape[0], right.shape[1]))
    for lo in range(0, pts.shape[0], chunk):
        hi = min(lo + chunk, pts.shape[0])
        C_nl = proximity(pts[lo:hi], basis.knots.centers, basis.range_r)
        C_nl -= basis.row_correction[None, :]
        out[lo:hi] = blas.dgemm(1.0, right.T, C_nl.T).T
    return out


def nystrom_basis(coords, knots: KnotSet, range_r: float,
                  max_pairs: int | None = DEFAULT_MAX_PAIRS) -> EigenBasis:
    """Nystrom-extended eigenpairs from a knot subset.

    Eigenvalues are rescaled knot eigenvalues; the retained count is the
    number of positive rescaled eigenvalues, capped at ``max_pairs``. The
    cost is that of the knot decomposition: the N rows are evaluated only
    when the basis is read (see ``EigenBasis``).
    """
    if not range_r > 0.0:
        raise NonPositiveRange(f"kernel range must be > 0, got {range_r}")
    pts = as_coords(coords)
    n = pts.shape[0]
    n_knots = knots.count
    if n_knots > KNOT_SIZE_GUARD:
        raise SizeGuardExceeded(f"knot count {n_knots} exceeds guard {KNOT_SIZE_GUARD}")

    C_l = proximity(knots.centers, knots.centers, range_r, zero_diagonal=True)
    w, V = _centered_eigh(C_l)
    lam_hat = ((n_knots + n) / n_knots) * (w + 1.0) - 1.0
    # lam_hat > 0 gives w + 1 > L / (L + N) > 0, so the row scaling below
    # never divides by zero
    keep = _positive_descending(lam_hat, max_pairs)

    knot_values = w[keep].copy()
    knot_scale = _fix_signs(V[:, keep]) / (knot_values + 1.0)[None, :]
    # column means of the unit-diagonal knot kernel
    row_correction = (C_l.sum(axis=0) + 1.0) / n_knots
    return EigenBasis(
        values=lam_hat[keep].copy(),
        range_r=float(range_r),
        kind="nystrom",
        sites=pts.copy(),
        knots=knots,
        knot_scale=knot_scale,
        knot_values=knot_values,
        row_correction=row_correction,
    )


def basis_at(basis: EigenBasis, new_coords) -> np.ndarray:
    """Evaluate a Nystrom basis at new sites; rows follow the training formula.

    Raises
    ------
    MissingKnots
        If the basis is exact (no knot machinery to extend with).
    """
    if basis.kind != "nystrom" or basis.knots is None:
        raise MissingKnots("only a Nystrom basis can be evaluated at new sites")
    return _knot_kernel_times(new_coords, basis, basis.knot_scale, NYSTROM_CHUNK)


def moran_coefficient(y, C: np.ndarray, tol: float = 1e-12) -> float:
    """Moran coefficient of ``y`` under the square proximity matrix ``C``.

    ``MC = (N / 1'C1) * (yc' C yc) / (yc' yc)`` with ``yc`` the centered
    vector. Positive values indicate positive spatial dependence.
    """
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = yv.shape[0]
    if C.shape != (n, n):
        raise ValueError(f"C must be ({n}, {n}), got {C.shape}")
    yc = yv - yv.mean()
    denom = yc @ yc
    if denom <= tol * max(1.0, yv @ yv):
        raise ConstantVector("vector has no variation; Moran coefficient undefined")
    total = C.sum()
    return float(n / total * (yc @ C @ yc) / denom)

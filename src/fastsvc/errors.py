"""Typed exceptions raised across the package.

Every numerical failure mode has its own class so callers (and the CLI)
can distinguish bad input from estimation breakdown.
"""


class FastSvcError(Exception):
    """Base class for all package errors."""


# -- geometry ---------------------------------------------------------------

class AllPointsCoincident(FastSvcError):
    """Every pairwise distance is zero; the kernel range would degenerate."""


class DegenerateTriangulation(FastSvcError):
    """Delaunay triangulation leaves a distinct site out of the spanning tree."""


class InvalidKnotCount(FastSvcError):
    """Requested knot count below 1, or above N or the number of distinct sites."""


class NonPositiveRange(FastSvcError):
    """Kernel range must be strictly positive."""


# -- eigenbasis -------------------------------------------------------------

class SizeGuardExceeded(FastSvcError):
    """Dense O(N^2)/O(N^3) path refused for this sample size."""


class DegenerateKernel(FastSvcError):
    """Centered kernel has no positive eigenvalues."""


class MissingKnots(FastSvcError):
    """Operation needs a knot-based (Nystrom) basis."""


class ConstantVector(FastSvcError):
    """Vector has (numerically) zero centered sum of squares."""


# -- compression ------------------------------------------------------------

class DimensionMismatch(FastSvcError):
    """Array shapes are inconsistent."""


class NonFiniteInput(FastSvcError):
    """Input contains NaN or infinity."""


# -- likelihood -------------------------------------------------------------

class NonPositiveEigenvalue(FastSvcError):
    """Shrinkage scaling needs strictly positive eigenvalues."""


class SingularP(FastSvcError):
    """Mixed-model coefficient matrix numerically singular (collinearity
    or shrinkage-ratio overflow)."""


class PerfectFit(FastSvcError):
    """Residual term is zero; the profiled likelihood is undefined."""


class NegativeResidualNorm(FastSvcError):
    """Compressed residual norm evaluated below -tolerance (catastrophic
    cancellation)."""


# -- sequential estimator ---------------------------------------------------

class SingularBlock(FastSvcError):
    """Off-target block system numerically singular during cache build.

    The system is factored in pieces, one Schur complement at a time, and
    each piece is guarded on its own; a piece is at least as well
    conditioned as the whole system, so this is raised on the first piece
    that is singular, which can pass where the whole system would not."""


class SingularInnerMatrix(FastSvcError):
    """Target-dependent inner matrix not factorizable."""


# -- model api --------------------------------------------------------------

class InsufficientData(FastSvcError):
    """Need more rows than fixed-effect columns."""


class DependentCovariates(FastSvcError):
    """Covariate columns are linearly dependent: collinear, constant or
    duplicated. ``columns`` holds the indices of the columns that are linear
    combinations of the columns before them."""

    def __init__(self, columns, rank: int):
        self.columns = tuple(columns)
        super().__init__(
            f"covariate column(s) {list(self.columns)} of X are linear combinations "
            f"of the columns before them (rank {rank} of {rank + len(self.columns)})")


# -- gwr --------------------------------------------------------------------

class LocalSingularity(FastSvcError):
    """A local weighted normal matrix is numerically singular."""

    def __init__(self, site: int, message: str | None = None):
        self.site = site
        super().__init__(message or f"local normal matrix singular at site {site}")


class NoValidBandwidth(FastSvcError):
    """Every candidate bandwidth failed."""


# -- simulation -------------------------------------------------------------

class ShapeMismatch(FastSvcError):
    """Metric inputs must have identical shapes."""

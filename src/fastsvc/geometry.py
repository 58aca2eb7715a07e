"""Planar geometry: MST-based kernel range, knot selection, kernels.

Coordinates are plain float arrays of shape (N, 2). Duplicate sites are
tolerated everywhere; they simply produce kernel weight 1 off-diagonal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree
from scipy.spatial.distance import cdist

from .errors import (AllPointsCoincident, DegenerateTriangulation, InvalidKnotCount,
                     NonPositiveRange)

_KMEANS_MAX_ITER = 100

#: neighbours per site in the graph that certifies the kernel range; fixed on
#: coverage and cost: at 8, 38 of the 39 seed-1/2/3 bench datasets certify
RANGE_NEIGHBOURS = 8

#: sites per block of the kernel range's neighbour query and edge pass; fixed
#: on memory and time (see ``_knn_max_edge_sq``)
RANGE_BLOCK = 1024

_log = logging.getLogger("fastsvc")


def as_coords(points) -> np.ndarray:
    """Coerce to a float64 (N, 2) coordinate array and validate finiteness."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"coordinates must have shape (N, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates contain non-finite values")
    return pts


def _tree_max_edge_sq(sites: np.ndarray, i: np.ndarray, j: np.ndarray) -> float | None:
    """Largest squared edge of a minimum spanning tree of the graph with
    edges (i, j) over ``sites``, or None when those edges leave a site
    unconnected. Lengths use Prim's formula dx**2 + dy**2 on the sites."""
    # imported here: scipy.sparse.csgraph adds ~0.1 s to `import fastsvc`
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import minimum_spanning_tree

    m = sites.shape[0]
    d2 = (sites[i, 0] - sites[j, 0]) ** 2 + (sites[i, 1] - sites[j, 1]) ** 2
    # a zero weight reads as a missing edge; keep distinct sites whose
    # squared distance underflows connected
    np.maximum(d2, np.finfo(np.float64).smallest_subnormal, out=d2)
    tree = minimum_spanning_tree(csr_array((d2, (i, j)), shape=(m, m)))
    if tree.nnz != m - 1:
        return None
    return float(tree.data.max())


def _delaunay_max_edge_sq(sites: np.ndarray, qhull_options: str | None) -> float | None:
    """``_tree_max_edge_sq`` over the Delaunay edges, or None when Qhull
    fails or drops a site. Qhull sees centred coordinates: at a large offset
    its precision tolerances would otherwise swamp the spread."""
    try:
        tri = Delaunay(sites - sites.mean(axis=0), qhull_options=qhull_options)
    except QhullError:
        return None
    indptr, neighbors = tri.vertex_neighbor_vertices
    rows = np.repeat(np.arange(sites.shape[0]), np.diff(indptr))
    keep = rows < neighbors
    return _tree_max_edge_sq(sites, rows[keep], neighbors[keep])


def _block_edge_sq(sites: np.ndarray, lo: int, nbr: np.ndarray) -> np.ndarray:
    """Squared lengths from sites ``lo:lo + len(nbr)`` to their neighbours
    ``nbr`` by Prim's formula dx**2 + dy**2, the zero of an underflowing gap
    raised as ``_tree_max_edge_sq`` raises it, and each site's edge to
    itself set to inf."""
    x, y = sites[:, 0], sites[:, 1]
    hi = lo + nbr.shape[0]
    d2 = (x[lo:hi, None] - x[nbr]) ** 2 + (y[lo:hi, None] - y[nbr]) ** 2
    np.maximum(d2, np.finfo(np.float64).smallest_subnormal, out=d2)
    d2[nbr == np.arange(lo, hi)[:, None]] = np.inf
    return d2


def _knn_max_edge_sq(sites: np.ndarray) -> tuple[float | None, int]:
    """The longest MST edge², certified on the ``RANGE_NEIGHBOURS``-nearest-
    neighbour graph of the distinct ``sites`` (None when the graph cannot
    certify it), and that graph's component count at the threshold.

    A spanning tree joins every site to some other site, so the longest MST
    edge² is at least ``lb``, the largest over sites of each site's smallest
    squared length. When the neighbour edges no longer than ``lb`` connect
    every site, a spanning tree with no longer edge exists, so ``lb`` is the
    answer. Lengths come from ``_block_edge_sq``. ``lb`` is a lower bound
    only if the site that sets it has no nearer site than its tree
    neighbours; that holds when its nearest found length is below the
    square of the tree's farthest returned distance by a margin far above
    the rounding of either.

    The graph is streamed in blocks of ``RANGE_BLOCK`` sites. A first pass
    queries the tree, keeps the neighbours in an int32 table and ``lb`` as a
    running maximum; a second pass recomputes each block's lengths and
    compacts the edges no longer than ``lb`` into the front of that table,
    which becomes the index array of a CSR graph grouped by row. So the
    working set is the tree, the table and the graph's CSR arrays: O(N),
    with no N-wide float array beyond the graph's unit weights."""
    # imported here: scipy.sparse.csgraph adds ~0.1 s to `import fastsvc`
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    m = sites.shape[0]
    nbr = np.empty((m, RANGE_NEIGHBOURS + 1), dtype=np.int32)
    tree = cKDTree(sites)
    lb, top_far = -1.0, 0.0
    for lo in range(0, m, RANGE_BLOCK):
        dist, nbr[lo:lo + RANGE_BLOCK] = tree.query(sites[lo:lo + RANGE_BLOCK],
                                                    k=RANGE_NEIGHBOURS + 1)
        nearest = _block_edge_sq(sites, lo, nbr[lo:lo + RANGE_BLOCK]).min(axis=1)
        top = int(np.argmax(nearest))
        # the first site to reach the maximum sets it, as one argmax would
        if nearest[top] > lb:
            lb, top_far = float(nearest[top]), float(dist[top, -1])
    del tree

    flat = nbr.reshape(-1)
    indptr = np.zeros(m + 1, dtype=np.int32)
    nnz = 0
    for lo in range(0, m, RANGE_BLOCK):
        block = nbr[lo:lo + RANGE_BLOCK]
        short = _block_edge_sq(sites, lo, block) <= lb
        kept = block[short]
        # rows before lo kept at most their own entries, so this writes
        # behind the rows still to be read
        flat[nnz:nnz + kept.size] = kept
        indptr[lo + 1:lo + 1 + block.shape[0]] = nnz + np.cumsum(short.sum(axis=1))
        nnz += kept.size
    graph = csr_array((np.ones(nnz), flat[:nnz], indptr), shape=(m, m))
    components = connected_components(graph, directed=False, return_labels=False)
    certified = components == 1 and lb < top_far ** 2 * (1.0 - 1e-12)
    return (lb if certified else None), components


def distinct_sites(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, 2) array in lexicographic order, equal to
    ``np.unique(pts, axis=0)`` as ``==`` compares (rows that differ only in
    a zero's sign count as one). Rows already strictly increasing are
    returned as they are; otherwise one ``np.lexsort`` and a compare of
    adjacent rows find them, without ``np.unique``'s sort of rows as a
    structured dtype."""
    x, y = pts[:, 0], pts[:, 1]
    dx = np.diff(x)
    if np.all((dx > 0.0) | ((dx == 0.0) & (np.diff(y) > 0.0))):
        return pts
    ordered = pts[np.lexsort((y, x))]
    x, y = ordered[:, 0], ordered[:, 1]
    keep = np.empty(x.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    keep[1:] |= y[1:] != y[:-1]
    return ordered if keep.all() else ordered[keep]


def mst_max_edge(coords) -> float:
    """Length of the longest edge of a Euclidean minimum spanning tree.

    Duplicate sites are merged first (they only add zero-length edges), and
    ``RANGE_NEIGHBOURS + 1`` or fewer distinct sites use every pair. On more
    sites, each site's ``RANGE_NEIGHBOURS`` nearest neighbours come from a
    kd-tree (Friedman, Bentley & Finkel, 1977), and the largest of the
    sites' nearest squared lengths bounds the longest edge from below. When
    the neighbour edges no longer than that bound connect every site, the
    bound is the answer (see ``_knn_max_edge_sq``): O(N log N) time, O(N)
    memory, no triangulation. Otherwise (separated clusters, an outlying
    pair whose joining edge is no nearest-neighbour edge, collinear lines)
    one DEBUG line on the ``fastsvc`` logger gives the component count and
    the tree is built by Kruskal's algorithm over the O(N) Delaunay edges,
    since the Euclidean MST is a subgraph of the Delaunay triangulation
    (Shamos & Hoey, 1975). When Qhull fails (exactly collinear sites) or
    drops sites as coplanar (near-collinear sites), the triangulation is
    retried on joggled input (``QJ``). Edge lengths are always taken from
    the given coordinates, so on either path the result equals the maximum
    edge Prim's algorithm finds on the full distance graph.

    Parameters
    ----------
    coords : (N, 2) array

    Returns
    -------
    float
        Maximum MST edge length, > 0.

    Raises
    ------
    AllPointsCoincident
        If every pairwise distance is zero.
    DegenerateTriangulation
        If even the joggled triangulation leaves a distinct site unconnected.
    """
    pts = as_coords(coords)
    if pts.shape[0] < 2:
        raise ValueError("need at least two sites for a spanning tree")

    sites = distinct_sites(pts)
    m = sites.shape[0]
    if m < 2:
        raise AllPointsCoincident("all sites coincide; kernel range would be zero")
    if m <= RANGE_NEIGHBOURS + 1:
        return float(np.sqrt(_tree_max_edge_sq(sites, *np.triu_indices(m, k=1))))
    max_edge_sq, components = _knn_max_edge_sq(sites)
    if max_edge_sq is None:
        _log.debug("kernel range: the %d-nearest-neighbour graph of %d distinct sites "
                   "does not certify it (%d components at its lower bound); using the "
                   "Delaunay tree", RANGE_NEIGHBOURS, m, components)
        max_edge_sq = _delaunay_max_edge_sq(sites, None)
        if max_edge_sq is None:
            max_edge_sq = _delaunay_max_edge_sq(sites, "QJ")
    if max_edge_sq is None:
        raise DegenerateTriangulation(
            f"Delaunay triangulation leaves some of the {m} distinct sites "
            "unconnected, even on joggled input")
    return float(np.sqrt(max_edge_sq))


@dataclass(frozen=True)
class KnotSet:
    """K-means cluster centers, the knots of a Nystrom basis.

    ``passes`` counts the Lloyd passes that placed them, ``converged`` is
    False when those passes stopped at the cap instead of at a fixed point,
    and ``sites`` counts the sites they ran on. Knots built by hand keep the
    defaults.
    """

    centers: np.ndarray     # (L, 2)
    passes: int = 0
    converged: bool = True
    sites: int = 0

    @property
    def count(self) -> int:
        return self.centers.shape[0]


def _plusplus_seed(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy, d2_new = np.empty(n), np.empty(n), np.empty(n)

    def sq_dist_to(c, out):
        # dx*dx + dy*dy, the same sum as np.sum((pts - c)**2, axis=1)
        np.subtract(x, c[0], out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(y, c[1], out=dy)
        np.multiply(dy, dy, out=dy)
        return np.add(dx, dy, out=out)

    centers = np.empty((k, 2))
    centers[0] = pts[rng.integers(n)]
    d2 = sq_dist_to(centers[0], np.empty(n))
    for i in range(1, k):
        total = d2.sum()
        if not total > 0.0:
            # a point is drawn only at a positive distance from every center
            # so far, so the i centers are distinct and every site is one
            raise InvalidKnotCount(f"n_knots={k} exceeds the {i} distinct sites")
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centers[i] = pts[idx]
        np.minimum(d2, sq_dist_to(centers[i], d2_new), out=d2)
    return centers


def _nearest_two_rows(pts: np.ndarray, centers: np.ndarray, chunk: int = 4096):
    """Nearest center of each point (the ``argmin`` of its ``cdist`` row, so
    ties go to the lowest index), its distance, and the distance to the
    second-nearest center (inf with one center)."""
    n = pts.shape[0]
    nearest, first, second = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    for lo in range(0, n, chunk):
        d = cdist(pts[lo:lo + chunk], centers)
        r = np.arange(d.shape[0])
        idx = np.argmin(d, axis=1)
        nearest[lo:lo + chunk] = idx
        first[lo:lo + chunk] = d[r, idx]
        d[r, idx] = np.inf
        second[lo:lo + chunk] = d.min(axis=1)
    return nearest, first, second


def _nearest_two(pts: np.ndarray, centers: np.ndarray, margin: float):
    """``_nearest_two_rows`` from a kd-tree over the centers (Kanungo et
    al., IEEE TPAMI 2002). A point whose two nearest distances are not
    apart by the relative ``margin`` may be tied, so it takes the ``cdist``
    row instead, as do all points when there are fewer than two centers or
    a center is not finite (the tree rejects NaN)."""
    if centers.shape[0] < 2 or not np.isfinite(centers).all():
        return _nearest_two_rows(pts, centers)
    dist, idx = cKDTree(centers).query(pts, k=2)
    nearest, first, second = idx[:, 0], dist[:, 0], dist[:, 1]
    tied = np.flatnonzero(~(first < second * (1.0 - margin)))
    if tied.size:
        nearest[tied], first[tied], second[tied] = _nearest_two_rows(pts[tied], centers)
    return nearest, first, second


def _reseed_empty(pts: np.ndarray, centers: np.ndarray, assignment: np.ndarray,
                  empty: np.ndarray) -> None:
    """Move each empty cluster's center to the point farthest from its own
    center, and that point into the cluster (in place)."""
    d_own = np.sum((pts - centers[assignment]) ** 2, axis=1)
    for c in empty:
        far = int(np.argmax(d_own))
        centers[c] = pts[far]
        assignment[far] = c
        d_own[far] = 0.0


def kmeans_knots(coords, n_knots: int, seed: int = 0) -> KnotSet:
    """Deterministic Lloyd k-means with ++ seeding, used to place basis knots.

    Raises ``InvalidKnotCount`` when ``n_knots`` exceeds N or the number of
    distinct sites (the seeding finds that out; sites whose squared distance
    underflows count as one). Iterates to an assignment fixed point or
    ``_KMEANS_MAX_ITER`` passes; hitting the cap logs a warning and leaves
    ``converged`` False. Empty clusters are re-seeded from the point
    farthest from its current center.

    Each pass gives every point the ``argmin`` of its ``cdist`` row, but
    only recomputes the rows that can change (Hamerly, SDM 2010). Each point
    keeps an upper bound ``u`` on the distance to its own center and a
    lower bound ``l`` on the distance to every other center, both exact
    after its last recompute. When the centers move, ``u`` grows by its own
    center's drift and ``l`` shrinks by the largest drift (triangle
    inequality). A point is recomputed when ``u >= l (1 - margin) -
    margin s``, where ``s`` sums the largest drifts since every bound was
    last exact. Otherwise its own center is strictly nearer than any other,
    so ``argmin`` would return it again; exact ties are always recomputed,
    and ``argmin`` breaks them as a full pass would. ``margin`` covers the
    rounding of ``cdist``, the drifts and the bound updates: with unit
    roundoff ``u0 = eps / 2`` each distance carries a relative error of at
    most ``3 u0``, and over ``P`` passes the bounds drift from the computed
    distances by at most ``(P + 9) u0`` relative to ``u`` and
    ``(P + 7) u0`` relative to ``l + s``, so ``(2 P + 16) u0`` suffices to
    first order; ``margin`` doubles it. A pass that re-seeds an empty
    cluster makes every bound inexact, so the next pass recomputes every
    row.

    A recomputed point takes its two nearest centers from a kd-tree over the
    centers (Kanungo et al., IEEE TPAMI 2002), built once per pass. The tree
    forms each distance as ``cdist`` does, the root of ``dx**2 + dy**2``, so
    it carries the same ``3 u0``. It skips a node only when the squared
    distance to the node's box exceeds the squared ``second`` found so far;
    that box distance is summed from per-axis gaps none larger than itself,
    so a skipped center lies no nearer than ``second`` less a relative error
    of order ``u0`` per tree level, far inside ``margin``. The tree's
    ``second`` is therefore as good a lower bound as ``cdist``'s. A point
    whose tree distances fail ``first < second (1 - margin)`` may be tied,
    exactly or within that rounding, with ``second`` or a skipped center,
    so it takes its ``cdist`` row and ``argmin`` gives the tie to the lowest
    index. Any other point's tree neighbour is strictly nearest, so
    ``argmin`` returns it too. Passes with one center or a NaN center (one
    left empty by a re-seed) use ``cdist`` rows throughout. The centers, the
    pass count and the cap flag therefore equal those of plain Lloyd
    recomputing every row on every pass.
    """
    pts = as_coords(coords)
    n = pts.shape[0]
    if n_knots < 1 or n_knots > n:
        raise InvalidKnotCount(f"n_knots={n_knots} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    centers = _plusplus_seed(pts, n_knots, rng)
    cap = _KMEANS_MAX_ITER
    margin = 2 * (cap + 8) * np.finfo(np.float64).eps

    assignment = np.full(n, -1, dtype=np.int64)
    upper, lower = np.full(n, np.inf), np.zeros(n)
    slack = 0.0
    converged = False
    for passes in range(1, cap + 1):
        new_assignment = assignment.copy()
        # a NaN bound (a center left empty by the re-seed) proves nothing
        stale = np.flatnonzero(~(upper < lower * (1.0 - margin) - margin * slack))
        new_assignment[stale], upper[stale], lower[stale] = _nearest_two(
            pts[stale], centers, margin)
        counts = np.bincount(new_assignment, minlength=n_knots)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            _reseed_empty(pts, centers, new_assignment, empty)
            counts = np.bincount(new_assignment, minlength=n_knots)
        sums = np.column_stack([np.bincount(new_assignment, weights=pts[:, j],
                                            minlength=n_knots) for j in (0, 1)])
        new_centers = sums / counts[:, None]
        if np.array_equal(new_assignment, assignment):
            centers = new_centers
            converged = True
            break
        if empty.size:
            upper.fill(np.inf)
        else:
            drift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))
            largest = drift.max()
            upper += drift[new_assignment]
            lower -= largest
            # s restarts at a pass that recomputed every row
            slack = largest if stale.size == n else slack + largest
        centers = new_centers
        assignment = new_assignment
    if not converged:
        _log.warning("k-means knot placement stopped at its %d-pass cap before "
                     "converging (N=%d, %d knots)", cap, n, n_knots)
    return KnotSet(centers=centers, passes=passes, converged=converged, sites=n)


def proximity(a, b, range_r: float, zero_diagonal: bool = False) -> np.ndarray:
    """Exponential distance-decay kernel exp(-d / range_r), shape (|a|, |b|).

    With ``zero_diagonal`` the main diagonal of a square result is forced to
    exactly 0 (the convention for the spatial dependence matrix).
    """
    if not range_r > 0.0:
        raise NonPositiveRange(f"kernel range must be > 0, got {range_r}")
    out = np.exp(-cdist(as_coords(a), as_coords(b)) / range_r)
    if zero_diagonal and out.shape[0] == out.shape[1]:
        np.fill_diagonal(out, 0.0)
    return out

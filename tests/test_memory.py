"""A fit streams its Nystrom basis: compression holds one chunk buffer, one
chunk of basis rows and the Gram, and the fit's peak memory grows by much
less than one basis row per site. The coordinate ascent holds one penalized
system and nothing else with m rows. The compressed likelihood holds what a
sweep's root elimination holds: half of one system for an even count of
live coefficients, more for an odd one. The kernel range holds its sites,
an int32 neighbour table and the graph of its kept edges, and no N-wide
float array of the neighbour distances.

Every budget is counted from the shapes of the arrays the code makes.
"""

import tracemalloc

import numpy as np
import pytest

from fastsvc import geometry
from fastsvc.compression import SvcDesign, compress
from fastsvc.eigenbasis import ROW_CHUNK, nystrom_basis
from fastsvc.geometry import RANGE_NEIGHBOURS, mst_max_edge
from fastsvc.likelihood import ShrinkageParams, compressed_restricted_loglik
from fastsvc.model import FitOptions, SpatialDataset, build_basis, fit
from fastsvc.sequential import fit_sequential

OPTIONS = FitOptions(basis="nystrom", knot_count=100, max_sweeps=1, tol=0.0)
DOUBLE = 8  # bytes
INT32 = 4


def _dataset(n, seed=0, k=2):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = X.sum(axis=1) + np.sin(2.0 * coords[:, 0]) + 0.3 * rng.standard_normal(n)
    return SpatialDataset(coords=coords, y=y, X=X, svc_flags=np.ones(k, dtype=bool))


def _peak(fn, *args):
    """``fn(*args)`` and the bytes its traced allocations peaked at."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def _compress_budget(m, knots, pairs):
    """Bytes compress may hold: its buffer of ROW_CHUNK rows of ``[W, y]``;
    one chunk of Nystrom rows, whose chunk-by-knots kernel and chunk-by-L
    rows are each made twice (the kernel's negated copy, the product before
    it is copied into place); and twice the Gram of ``[W, y]``."""
    buffer = ROW_CHUNK * (m + 1) * DOUBLE
    rows = 2 * ROW_CHUNK * (knots + pairs) * DOUBLE
    return buffer + rows + 2 * (m + 1) ** 2 * DOUBLE


def _estimate_budget(m, L):
    """Bytes the coordinate ascent may hold beyond its moments: one m x m
    penalized system; six L x L arrays (the last step's cache, the trailing
    factor block and its inverse, an evaluation's inner matrix and its
    inverse factor); 16 m-vectors; and numpy's ufunc buffers, up to
    ``getbufsize`` elements for each of three operands, which the strided
    gather of the Gram fills."""
    return (m * m + 6 * L * L + 16 * m + 3 * np.getbufsize()) * DOUBLE


def _solve_budget(m):
    """Bytes the compressed likelihood may hold beyond its moments: the
    leading half's factor with its panel, then the panel with the trailing
    half's Schur complement, at most ``ceil(m / 2) m`` doubles; 16
    m-vectors; and numpy's ufunc buffers, as in ``_estimate_budget``."""
    return ((m + 1) // 2 * m + 16 * m + 3 * np.getbufsize()) * DOUBLE


def _split_budget(s, h, m):
    """Bytes the compressed likelihood may hold beyond its moments when it
    eliminates ``s`` of its system's columns and keeps ``h``: the
    eliminated part's factor with its panel, then the panel with the kept
    part's conditional Gram and that Gram's scaled copy; 16 m-vectors; and
    numpy's ufunc buffers, as in ``_estimate_budget``."""
    held = max(s * s + s * h, s * h + 2 * h * h)
    return (held + 16 * m + 3 * np.getbufsize()) * DOUBLE


def _range_budget(m, block):
    """Bytes ``mst_max_edge`` may hold on m distinct sites that the
    neighbour graph certifies, in blocks of ``block`` sites: the sorted
    distinct sites; the int32 table of RANGE_NEIGHBOURS + 1 neighbours per
    site; the kd-tree's int64 index array; at most RANGE_NEIGHBOURS kept
    edges per site, each with its unit weight and, in the transposed copy
    ``connected_components`` makes, a weight and an int32 index; three int32
    arrays of m + 1 (the two index pointers and the labels); and six
    block-by-neighbour arrays of doubles (the query's distances and indices,
    and the temporaries of the lengths)."""
    k = RANGE_NEIGHBOURS + 1
    held = m * 2 * DOUBLE + m * k * INT32 + m * DOUBLE
    graph = RANGE_NEIGHBOURS * m * (2 * DOUBLE + INT32) + 3 * (m + 1) * INT32
    return held + graph + 6 * block * k * DOUBLE


def _design(ds, vectors, basis):
    return SvcDesign(X=ds.X, y=ds.y, vectors=vectors, values=basis.values,
                     svc_flags=ds.svc_flags)


def test_compress_holds_one_chunk_and_matches_the_array_route():
    ds = _dataset(3000)
    basis = build_basis(ds.coords, OPTIONS)
    streamed, peak = _peak(compress, _design(ds, basis, basis))
    assert peak <= _compress_budget(streamed.size, basis.knots.count, basis.n_pairs)

    array = compress(_design(ds, basis.vectors, basis))
    for name in ("gram", "gy"):
        got, want = getattr(streamed, name), getattr(array, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(streamed.yty - array.yty) <= 1e-12 * array.yty


def test_fit_peak_does_not_hold_the_basis():
    mst_max_edge(_dataset(100).coords)  # the range imports scipy.sparse.csgraph lazily
    peaks, fits = {}, {}
    for n in (3000, 6000):
        ds = _dataset(n)
        fits[n], peaks[n] = _peak(fit, ds, OPTIONS)
        basis = fits[n].basis
        m = ds.n_cov * (1 + basis.n_pairs)
        # the compression stage, plus the fit's surfaces and the basis's sites
        per_site = (ds.n_cov + 2) * DOUBLE
        assert peaks[n] <= (_compress_budget(m, basis.knots.count, basis.n_pairs)
                            + n * per_site)
        reference = nystrom_basis(ds.coords, basis.knots, basis.range_r)
        assert np.array_equal(basis.vectors, reference.vectors)
    # a stored (N, L) basis would add 3000 rows of L doubles
    assert peaks[6000] - peaks[3000] < 3000 * fits[6000].basis.n_pairs * DOUBLE


def test_fit_sequential_holds_one_system_and_no_block_of_m_rows():
    ds = _dataset(3000, k=6)
    basis = build_basis(ds.coords, FitOptions(basis="nystrom", knot_count=100))
    moments = compress(_design(ds, basis, basis))
    m, L = moments.size, moments.n_basis
    assert m > 6 * L  # an m x L block would not fit in the L x L allowance
    fit_sequential(moments, tol=0.0, max_sweeps=1)  # first calls import lazily
    _, peak = _peak(fit_sequential, moments, None, 0.0, 1)
    assert peak <= _estimate_budget(m, L)


def test_compressed_loglik_holds_half_its_system():
    # so a fit's final likelihood peaks below its sweeps whichever
    # coefficients collapse, where one m x m factor would not
    ds = _dataset(3000, k=6)
    basis = build_basis(ds.coords, FitOptions(basis="nystrom", knot_count=100))
    moments = compress(_design(ds, basis, basis))
    m, kv = moments.size, moments.k_varying
    params = ShrinkageParams(np.ones(kv), np.ones(kv))
    compressed_restricted_loglik(moments, params)
    _, peak = _peak(compressed_restricted_loglik, moments, params)
    assert peak <= _solve_budget(m) < m * m * DOUBLE


@pytest.mark.parametrize("collapsed", [(), (0,)])
def test_compressed_loglik_holds_its_root_split(collapsed):
    # five live coefficients keep two blocks and eliminate three; with the
    # first one collapsed, four keep two and eliminate two
    ds = _dataset(3000, k=5)
    basis = build_basis(ds.coords, FitOptions(basis="nystrom", knot_count=100))
    moments = compress(_design(ds, basis, basis))
    m, L, kv = moments.size, moments.n_basis, moments.k_varying
    rho = np.ones(kv)
    rho[list(collapsed)] = 0.0
    params = ShrinkageParams(rho, np.ones(kv))
    live = kv - len(collapsed)
    kept = live // 2 * L
    eliminated = moments.n_cov + (live - live // 2) * L
    compressed_restricted_loglik(moments, params)
    _, peak = _peak(compressed_restricted_loglik, moments, params)
    assert peak <= _split_budget(eliminated, kept, m)


@pytest.mark.parametrize("block", [geometry.RANGE_BLOCK, 100])
def test_range_holds_its_table_and_graph(monkeypatch, block):
    def refuse(*args, **kwargs):
        raise AssertionError("the nearest-neighbour graph should certify these sites")

    coords = _dataset(6000).coords
    want = mst_max_edge(coords)  # and the first call imports lazily
    monkeypatch.setattr(geometry, "Delaunay", refuse)
    monkeypatch.setattr(geometry, "RANGE_BLOCK", block)
    got, peak = _peak(mst_max_edge, coords)
    assert got == want
    assert peak <= _range_budget(coords.shape[0], block)

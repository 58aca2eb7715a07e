import numpy as np
import pytest

from fastsvc.eigenbasis import (
    EXACT_SIZE_GUARD,
    basis_at,
    exact_basis,
    moran_coefficient,
    nystrom_basis,
)
from fastsvc.errors import (
    ConstantVector,
    DegenerateKernel,
    MissingKnots,
    SizeGuardExceeded,
)
from fastsvc.geometry import kmeans_knots, mst_max_edge, proximity

from oracles import knot_vectors, naive_moran


def _random_sites(seed, n):
    return np.random.default_rng(seed).standard_normal((n, 2))


class TestExactBasis:
    def test_zero_column_means(self):
        pts = _random_sites(0, 80)
        basis = exact_basis(pts, mst_max_edge(pts))
        assert np.abs(basis.vectors.mean(axis=0)).max() < 1e-10

    def test_moran_relation_per_column(self):
        pts = _random_sites(1, 50)
        r = mst_max_edge(pts)
        basis = exact_basis(pts, r)
        C = proximity(pts, pts, r, zero_diagonal=True)
        scale = 50 / C.sum()
        for l in range(basis.n_pairs):
            mc = moran_coefficient(basis.vectors[:, l], C)
            assert mc == pytest.approx(scale * basis.values[l], rel=1e-8)

    def test_orthonormal_columns(self):
        pts = _random_sites(2, 30)
        basis = exact_basis(pts, mst_max_edge(pts))
        gram = basis.vectors.T @ basis.vectors
        np.testing.assert_allclose(gram, np.eye(basis.n_pairs), atol=1e-10)

    def test_values_positive_descending_capped(self):
        pts = _random_sites(3, 120)
        basis = exact_basis(pts, mst_max_edge(pts), max_pairs=5)
        assert basis.n_pairs == 5
        assert basis.values.min() > 0
        assert np.all(np.diff(basis.values) <= 0)

    def test_sign_convention(self):
        pts = _random_sites(4, 60)
        basis = exact_basis(pts, mst_max_edge(pts))
        peaks = basis.vectors[np.argmax(np.abs(basis.vectors), axis=0),
                              np.arange(basis.n_pairs)]
        assert np.all(peaks > 0)

    def test_size_guard(self):
        # the guard fires before the kernel is built
        pts = _random_sites(5, EXACT_SIZE_GUARD + 1)
        with pytest.raises(SizeGuardExceeded):
            exact_basis(pts, 1.0)

    def test_degenerate_kernel(self):
        # a saturated kernel (huge range) has no positive centered eigenvalues
        pts = _random_sites(6, 25)
        with pytest.raises(DegenerateKernel):
            exact_basis(pts, 1e12)


class TestNystromBasis:
    def test_retention_rule(self):
        pts = _random_sites(7, 300)
        r = mst_max_edge(pts)
        knots = kmeans_knots(pts, 100, seed=0)
        unlimited = nystrom_basis(pts, knots, r, max_pairs=None)
        capped = nystrom_basis(pts, knots, r, max_pairs=20)
        assert capped.n_pairs == min(unlimited.n_pairs, 20)
        assert unlimited.values.min() > 0
        np.testing.assert_array_equal(capped.values, unlimited.values[:20])

    def test_eigenvalue_rescaling_formula(self):
        pts = _random_sites(8, 250)
        r = mst_max_edge(pts)
        knots = kmeans_knots(pts, 80, seed=1)
        basis = nystrom_basis(pts, knots, r)
        expect = (80 + 250) / 80 * (basis.knot_values + 1.0) - 1.0
        np.testing.assert_array_equal(basis.values, expect)

    def test_leading_exact_patterns_reproduced(self):
        # each leading exact eigenvector is near-fully reconstructible from
        # the approximated basis (columns themselves can rotate inside
        # near-degenerate eigenvalue clusters, so compare within the span)
        pts = _random_sites(2, 300)
        r = mst_max_edge(pts)
        ex = exact_basis(pts, r)
        knots = kmeans_knots(pts, 100, seed=0)
        ny = nystrom_basis(pts, knots, r)
        Q, _ = np.linalg.qr(ny.vectors)
        cors = []
        for l in range(min(20, ex.n_pairs)):
            e = ex.vectors[:, l]
            recon = Q @ (Q.T @ e)
            cors.append(np.corrcoef(e, recon)[0, 1])
        assert np.mean(cors) >= 0.9

    def test_knot_level_self_consistency(self):
        pts = _random_sites(9, 300)
        r = mst_max_edge(pts)
        knots = kmeans_knots(pts, 100, seed=0)
        ny = nystrom_basis(pts, knots, r)
        rows = basis_at(ny, knots.centers)
        for l in range(ny.n_pairs):
            c = np.corrcoef(rows[:, l], knot_vectors(ny)[:, l])[0, 1]
            assert abs(c) > 0.99

    def test_reproduces_exact_when_knots_are_all_sites(self):
        from fastsvc.geometry import KnotSet

        pts = _random_sites(10, 120)
        r = mst_max_edge(pts)
        ex = exact_basis(pts, r, max_pairs=None)
        knots = KnotSet(centers=pts.copy())
        ny = nystrom_basis(pts, knots, r, max_pairs=None)
        m = min(10, ex.n_pairs)
        for l in range(m):
            diff = min(np.abs(ny.vectors[:, l] - ex.vectors[:, l]).max(),
                       np.abs(ny.vectors[:, l] + ex.vectors[:, l]).max())
            assert diff < 1e-10


class TestBasisAt:
    @pytest.fixture()
    def ny(self):
        pts = _random_sites(11, 200)
        r = mst_max_edge(pts)
        knots = kmeans_knots(pts, 60, seed=0)
        return pts, nystrom_basis(pts, knots, r)

    def test_training_coords_reproduce_stored_vectors(self, ny):
        pts, basis = ny
        np.testing.assert_array_equal(basis_at(basis, pts), basis.vectors)

    def test_coincident_point_row_deterministic(self, ny):
        pts, basis = ny
        row = basis_at(basis, pts[17:18])
        # same location, same formula; only float summation order may differ
        np.testing.assert_allclose(row[0], basis.vectors[17], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(basis_at(basis, pts[17:18]), row)

    def test_matches_from_scratch_formula(self, ny):
        pts, basis = ny
        new = _random_sites(12, 10)
        got = basis_at(basis, new)
        # independent evaluation of the extension formula
        C_l = proximity(basis.knots.centers, basis.knots.centers, basis.range_r,
                        zero_diagonal=True)
        L = basis.knots.count
        colmeans = (C_l + np.eye(L)).mean(axis=0)
        C_new = proximity(new, basis.knots.centers, basis.range_r)
        expect = (C_new - colmeans[None, :]) @ knot_vectors(basis)
        expect /= (basis.knot_values + 1.0)[None, :]
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_exact_basis_rejected(self):
        pts = _random_sites(13, 40)
        ex = exact_basis(pts, mst_max_edge(pts))
        with pytest.raises(MissingKnots):
            basis_at(ex, pts)


class TestMoranCoefficient:
    def test_constant_vector_rejected(self):
        pts = _random_sites(14, 20)
        C = proximity(pts, pts, 1.0, zero_diagonal=True)
        with pytest.raises(ConstantVector):
            moran_coefficient(np.ones(20), C)

    def test_hand_case_matches_scalar_loop(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 2.0)])
        C = proximity(pts, pts, 1.5, zero_diagonal=True)
        y = np.array([0.3, -1.2, 0.5, 2.0])
        assert moran_coefficient(y, C) == pytest.approx(naive_moran(y, C), rel=1e-12)

import numpy as np
import pytest

from fastsvc.compression import SvcDesign, compress
from fastsvc.eigenbasis import EigenBasis, exact_basis
from fastsvc.errors import DimensionMismatch, NonFiniteInput
from fastsvc.geometry import mst_max_edge

from oracles import naive_moments


def _design(seed=0, n=40, k=3, max_pairs=10, flags=None):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2))
    basis = exact_basis(coords, mst_max_edge(coords), max_pairs=max_pairs)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = rng.standard_normal(n)
    if flags is None:
        flags = np.ones(k, dtype=bool)
    return SvcDesign(X=X, y=y, vectors=basis.vectors, values=basis.values,
                     svc_flags=flags)


class TestCompress:
    def test_matches_naive_loops(self):
        design = _design(seed=1, n=40, k=3, max_pairs=10)
        mom = compress(design)
        m00, m0k, mkk, m0, mk, myy = naive_moments(
            design.X, design.vectors, design.y, design.varying)
        k = mom.n_cov
        np.testing.assert_allclose(mom.gram[:k, :k], m00, atol=1e-12 * 40)
        np.testing.assert_allclose(mom.gy[:k], m0, atol=1e-12 * 40)
        assert mom.yty == pytest.approx(myy, rel=1e-12)
        for a in range(mom.k_varying):
            np.testing.assert_allclose(mom.gram[:k, mom.block(a)], m0k[a], atol=1e-10)
            np.testing.assert_allclose(mom.gy[mom.block(a)], mk[a], atol=1e-10)
            for b in range(mom.k_varying):
                np.testing.assert_allclose(mom.gram[mom.block(a), mom.block(b)],
                                           mkk[a][b], atol=1e-10)

    def test_zero_response(self):
        design = _design(seed=2)
        zeroed = SvcDesign(X=design.X, y=np.zeros(design.n_obs),
                           vectors=design.vectors, values=design.values,
                           svc_flags=design.svc_flags)
        mom0 = compress(zeroed)
        mom = compress(design)
        assert np.all(mom0.gy == 0.0)
        assert mom0.yty == 0.0
        np.testing.assert_array_equal(mom0.gram, mom.gram)

    def test_intercept_only_block_is_column_sums(self):
        design = _design(seed=3, n=60, k=1)
        mom = compress(design)
        # X'(1 o E) = column sums of E, which are ~0 for the exact basis
        assert np.abs(mom.gram[:1, mom.block(0)]).max() < 1e-8

    def test_row_permutation_invariance(self):
        design = _design(seed=4, n=150, k=3)
        perm = np.random.default_rng(5).permutation(150)
        permuted = SvcDesign(X=design.X[perm], y=design.y[perm],
                             vectors=design.vectors[perm], values=design.values,
                             svc_flags=design.svc_flags)
        a, b = compress(design), compress(permuted)
        np.testing.assert_allclose(a.gram, b.gram, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.gy, b.gy, rtol=1e-12, atol=1e-12)
        assert a.yty == pytest.approx(b.yty, rel=1e-12)

    def test_chunking_does_not_change_anything(self):
        design = _design(seed=6, n=200, k=2)
        whole = compress(design, chunk=10_000)
        pieces = compress(design, chunk=17)
        np.testing.assert_allclose(whole.gram, pieces.gram, rtol=1e-13, atol=1e-13)

    def test_no_field_scales_with_n(self):
        design = _design(seed=7, n=300, k=3, max_pairs=8)
        mom = compress(design)
        m = mom.n_cov + mom.k_varying * mom.n_basis
        for name in ("gram", "gy", "varying", "values"):
            arr = getattr(mom, name)
            assert max(arr.shape) <= m

    def test_scalar_count_bound(self):
        design = _design(seed=8, n=50, k=3, max_pairs=6)
        mom = compress(design)
        k, L, m = mom.n_cov, mom.n_basis, mom.size
        # distinct Gram entries (it is symmetric), then W'y and y'y
        scalar_count = m * (m + 1) // 2 + m + 1
        assert scalar_count <= k ** 2 * (L + 1) ** 2 + k + 1

    def test_non_varying_columns_excluded(self):
        flags = np.array([True, True, False])
        design = _design(seed=9, k=3, flags=flags)
        mom = compress(design)
        assert mom.k_varying == 2
        assert mom.size == mom.n_cov + 2 * mom.n_basis


class TestSvcDesignValidation:
    def test_dimension_mismatch(self):
        design = _design(seed=10)
        with pytest.raises(DimensionMismatch):
            SvcDesign(X=design.X, y=design.y[:-1], vectors=design.vectors,
                      values=design.values, svc_flags=design.svc_flags)

    def test_non_finite(self):
        design = _design(seed=11)
        bad_y = design.y.copy()
        bad_y[3] = np.nan
        with pytest.raises(NonFiniteInput):
            SvcDesign(X=design.X, y=bad_y, vectors=design.vectors,
                      values=design.values, svc_flags=design.svc_flags)
        bad_e = design.vectors.copy()
        bad_e[5, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            SvcDesign(X=design.X, y=design.y, vectors=bad_e,
                      values=design.values, svc_flags=design.svc_flags)

    def test_first_column_must_be_ones(self):
        design = _design(seed=12)
        X = design.X.copy()
        X[:, 0] = 2.0
        with pytest.raises(ValueError):
            SvcDesign(X=X, y=design.y, vectors=design.vectors,
                      values=design.values, svc_flags=design.svc_flags)

    def test_intercept_must_vary(self):
        design = _design(seed=13, k=2)
        with pytest.raises(ValueError):
            SvcDesign(X=design.X, y=design.y, vectors=design.vectors,
                      values=design.values, svc_flags=np.array([False, True]))


class TestNonFiniteBasisRows:
    """A NaN in one chunk of basis rows raises ``NonFiniteInput``: an array
    at construction, a streamed basis when compress reaches that chunk."""

    def _poisoned(self):
        design = _design(seed=14, n=100)
        E = design.vectors.copy()
        E[57, 2] = np.nan
        return design, E

    def test_array_backed(self):
        design, E = self._poisoned()
        with pytest.raises(NonFiniteInput):
            compress(SvcDesign(X=design.X, y=design.y, vectors=E, values=design.values,
                               svc_flags=design.svc_flags), chunk=20)

    def test_streamed(self):
        design, E = self._poisoned()
        source = EigenBasis(values=design.values, range_r=1.0, kind="exact", stored=E)
        streamed = SvcDesign(X=design.X, y=design.y, vectors=source,
                             values=design.values, svc_flags=design.svc_flags)
        with pytest.raises(NonFiniteInput, match="rows 40:60"):
            compress(streamed, chunk=20)

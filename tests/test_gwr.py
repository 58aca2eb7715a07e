import numpy as np
import pytest

from fastsvc.errors import LocalSingularity, NoValidBandwidth
from fastsvc.gwr import GwrGrid, gwr_fit, gwr_fit_at, gwr_loo_cv, gwr_select_bandwidth
from fastsvc.model import SpatialDataset
from fastsvc.simulation import SimConfig, gen_large, gen_small

from oracles import naive_gwr_site


def _dataset(seed=0, n=60, k=2):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = X @ np.arange(1.0, k + 1.0) + 0.3 * rng.standard_normal(n)
    return SpatialDataset(coords=coords, y=y, X=X, svc_flags=np.ones(k, bool))


def _diameter(coords):
    span = coords.max(axis=0) - coords.min(axis=0)
    return float(np.hypot(span[0], span[1]))


class TestGwrFitAt:
    def test_huge_bandwidth_is_ols(self):
        ds = _dataset(0)
        beta = gwr_fit_at(ds, 1e6 * _diameter(ds.coords))
        bols, *_ = np.linalg.lstsq(ds.X, ds.y, rcond=None)
        assert np.abs(beta - bols[None, :]).max() < 1e-5

    def test_intercept_only_is_weighted_mean(self):
        rng = np.random.default_rng(1)
        n = 40
        coords = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        ds = SpatialDataset(coords=coords, y=y, X=np.ones((n, 1)),
                            svc_flags=np.ones(1, bool))
        b = 0.8
        beta = gwr_fit_at(ds, b)
        from scipy.spatial.distance import cdist

        W = np.exp(-cdist(coords, coords) / b)
        expect = (W @ y) / W.sum(axis=1)
        np.testing.assert_allclose(beta[:, 0], expect, atol=1e-10)

    def test_matches_naive_per_site_wls(self):
        ds = _dataset(2, n=50, k=3)
        b = 0.9
        beta = gwr_fit_at(ds, b)
        from scipy.spatial.distance import cdist

        W = np.exp(-cdist(ds.coords, ds.coords) / b)
        for i in range(50):
            np.testing.assert_allclose(beta[i], naive_gwr_site(ds.X, ds.y, W[i]),
                                       atol=1e-10)

    def test_local_singularity_reported_with_site(self):
        # X has full rank, but at this bandwidth every weight except a site's
        # own underflows to 0, so each local normal matrix has rank 1
        ds = _dataset(3, n=30, k=2)
        with pytest.raises(LocalSingularity) as err:
            gwr_fit_at(ds, 1e-6)
        assert err.value.site == 0


class TestBandwidthSelection:
    def test_constant_coefficients_select_upper_end(self):
        # on this instance the selector lands at the top of the grid
        ds = _dataset(3, n=150, k=2)  # no spatial structure in the truth
        grid = GwrGrid(n_points=10)
        b, _ = gwr_select_bandwidth(ds, grid)
        candidates = grid.resolve(ds.coords)
        assert b >= candidates[-2]

    def test_constant_coefficients_flat_cv_tail(self):
        # without spatial structure the CV curve is flat in the bandwidth for
        # large b, so the upper end is always within a hair of the optimum
        # (the argmin itself can wander on a flat curve)
        for seed in range(3, 6):
            ds = _dataset(seed, n=150, k=2)
            grid = GwrGrid(n_points=10)
            _, score = gwr_select_bandwidth(ds, grid)
            top = float(grid.resolve(ds.coords)[-1])
            assert gwr_loo_cv(ds, top) <= 1.03 * score

    def test_small_scale_variation_selects_below_diameter(self):
        inst = gen_large(SimConfig(n=400, k=2, seed=5, generator="large",
                                   knot_count=400, alpha_large=0.5))
        b, _ = gwr_select_bandwidth(inst.dataset)
        assert b < _diameter(inst.dataset.coords)

    def test_selected_score_beats_grid_neighbors(self):
        inst = gen_small(SimConfig(n=200, k=2, seed=6))
        grid = GwrGrid(n_points=8)
        b, score = gwr_select_bandwidth(inst.dataset, grid)
        candidates = grid.resolve(inst.dataset.coords)
        below = candidates[candidates < b]
        above = candidates[candidates > b]
        if below.size:
            assert score <= gwr_loo_cv(inst.dataset, float(below[-1])) + 1e-9
        if above.size:
            assert score <= gwr_loo_cv(inst.dataset, float(above[0])) + 1e-9

    def test_loo_score_invariant_under_permutation(self):
        ds = _dataset(7, n=80, k=2)
        perm = np.random.default_rng(8).permutation(80)
        shuffled = SpatialDataset(coords=ds.coords[perm], y=ds.y[perm],
                                  X=ds.X[perm], svc_flags=ds.svc_flags)
        assert gwr_loo_cv(ds, 0.7) == pytest.approx(gwr_loo_cv(shuffled, 0.7),
                                                    rel=1e-9)

    def test_no_valid_bandwidth(self):
        # X has full rank, but at every candidate bandwidth the kernel weights
        # of the other sites underflow to 0, so every leave-one-out system is singular
        ds = _dataset(9, n=30, k=2)
        with pytest.raises(NoValidBandwidth):
            gwr_select_bandwidth(ds, GwrGrid(b_min=1e-7, b_max=1e-6))


class TestGwrFit:
    def test_full_fit_reports_selected_bandwidth(self):
        inst = gen_small(SimConfig(n=150, k=2, seed=10))
        res = gwr_fit(inst.dataset)
        assert res.bandwidth > 0
        assert res.beta_surfaces.shape == (150, 3)
        assert np.isfinite(res.beta_surfaces).all()
        assert res.cv_score > 0

    def test_fixed_bandwidth_skips_selection(self):
        ds = _dataset(11, n=60, k=2)
        res = gwr_fit(ds, bandwidth=1.3)
        assert res.bandwidth == 1.3
        np.testing.assert_array_equal(res.beta_surfaces, gwr_fit_at(ds, 1.3))

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastsvc.errors import (AllPointsCoincident, DependentCovariates, FastSvcError,
                            InsufficientData, InvalidKnotCount, NonFiniteInput)
from fastsvc.geometry import kmeans_knots, mst_max_edge
from fastsvc.likelihood import ShrinkageParams, compressed_restricted_loglik, v_diag
from fastsvc.compression import SvcDesign, compress
from fastsvc.model import (
    KNOT_SAMPLE_PER_KNOT,
    FitOptions,
    SpatialDataset,
    add_intercept,
    build_basis,
    fit,
    reconstruct_svc,
)
from fastsvc.simulation import SimConfig, gen_large, gen_small

from oracles import random_instance


def _null_dataset(seed=0, n=2000, k=3):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = X @ np.arange(1.0, k + 1.0) + 0.5 * rng.standard_normal(n)
    return SpatialDataset(coords=coords, y=y, X=X, svc_flags=np.ones(k, bool)), X, y


class TestSpatialDatasetContract:
    @pytest.mark.parametrize("defect,error", [
        ("scaled intercept", ValueError),
        ("fixed intercept", ValueError),
        ("nan covariate", NonFiniteInput),
        ("inf response", NonFiniteInput),
        ("1-D covariates", ValueError),
    ])
    def test_rejected_at_construction(self, defect, error):
        ds, X, y = _null_dataset(seed=13, n=50)
        X, y, flags = X.copy(), y.copy(), ds.svc_flags.copy()
        if defect == "scaled intercept":
            X[:, 0] = 2.0
        elif defect == "fixed intercept":
            flags[0] = False
        elif defect == "nan covariate":
            X[7, 2] = np.nan
        elif defect == "1-D covariates":
            X, flags = X[:, 0], flags[:1]
        else:
            y[11] = np.inf
        with pytest.raises(error):
            SpatialDataset(coords=ds.coords, y=y, X=X, svc_flags=flags)

    @pytest.mark.parametrize("case", ["collinear", "constant", "duplicated"])
    def test_dependent_covariates_named_at_construction(self, case):
        ds, X, y = _null_dataset(seed=14, n=3000)
        x1 = X[:, 1]
        dependent = {"collinear": 2.0 * x1, "constant": np.full(3000, 3.0),
                     "duplicated": x1}[case]
        X = np.column_stack([X, dependent])
        with pytest.raises(DependentCovariates, match=r"\[3\]") as err:
            SpatialDataset(coords=ds.coords, y=y, X=X, svc_flags=np.ones(4, bool))
        assert err.value.columns == (3,)


class TestFit:
    def test_no_spatial_variation_reduces_to_ols(self):
        # at this instance every ratio collapses and the fit is exactly OLS
        ds, X, y = _null_dataset(seed=0)
        res = fit(ds, FitOptions(basis="nystrom", seed=0))
        bols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert res.collapsed.all()
        assert np.abs(res.b_hat - bols).max() < 1e-4
        assert np.abs(res.beta_surfaces - res.b_hat[None, :]).max() == 0.0

    def test_null_data_surfaces_stay_near_constant(self):
        # collapse is a boundary event and need not happen on every draw,
        # but spurious surface variation stays small
        for seed in (1, 2):
            ds, X, y = _null_dataset(seed=seed)
            res = fit(ds, FitOptions(basis="nystrom", seed=0))
            bols, *_ = np.linalg.lstsq(X, y, rcond=None)
            assert np.abs(res.b_hat - bols).max() < 2e-2
            assert np.abs(res.beta_surfaces - res.b_hat[None, :]).max() < 0.25

    def test_deterministic_for_fixed_seed(self):
        inst = gen_small(SimConfig(n=300, k=2, seed=3))
        a = fit(inst.dataset, FitOptions(basis="exact", seed=5))
        b = fit(inst.dataset, FitOptions(basis="exact", seed=5))
        np.testing.assert_array_equal(a.beta_surfaces, b.beta_surfaces)
        np.testing.assert_array_equal(a.b_hat, b.b_hat)
        np.testing.assert_array_equal(a.params.rho, b.params.rho)
        np.testing.assert_array_equal(a.params.alpha, b.params.alpha)
        assert a.loglik == b.loglik and a.sigma2_hat == b.sigma2_hat

    def test_loglik_self_consistency(self):
        inst = gen_small(SimConfig(n=300, k=2, seed=4))
        res = fit(inst.dataset, FitOptions(basis="exact", seed=0))
        design = SvcDesign(X=inst.dataset.X, y=inst.dataset.y,
                           vectors=res.basis.vectors, values=res.basis.values,
                           svc_flags=inst.dataset.svc_flags)
        again = compressed_restricted_loglik(compress(design), res.params)
        assert res.loglik == pytest.approx(again.loglik, rel=1e-10)

    def test_covariate_translation_moves_only_intercept(self):
        inst = gen_small(SimConfig(n=300, k=2, seed=5))
        ds = inst.dataset
        shifted_X = ds.X.copy()
        shifted_X[:, 2] += 0.7
        shifted = SpatialDataset(coords=ds.coords, y=ds.y, X=shifted_X,
                                 svc_flags=ds.svc_flags)
        a = fit(ds, FitOptions(basis="exact", seed=0))
        b = fit(shifted, FitOptions(basis="exact", seed=0))
        assert np.abs(a.beta_surfaces[:, 1] - b.beta_surfaces[:, 1]).max() < 1e-6
        assert np.abs(a.beta_surfaces[:, 2] - b.beta_surfaces[:, 2]).max() < 1e-6

    def test_insufficient_data(self):
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((3, 2))
        X = np.column_stack([np.ones(3), rng.standard_normal((3, 2))])
        ds = SpatialDataset(coords=coords, y=np.zeros(3), X=X,
                            svc_flags=np.ones(3, bool))
        with pytest.raises(InsufficientData):
            fit(ds)

    @pytest.mark.parametrize("basis", ["exact", "nystrom"])
    def test_no_numpy_linalg_call(self, monkeypatch, basis):
        # numpy and scipy load separate OpenBLAS builds, each with its own
        # thread pool; a fit runs on scipy's alone (numpy's @ is outside
        # this check's reach)
        inst = gen_large(SimConfig(n=400, k=2, seed=1, generator="large", knot_count=400))

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"numpy.linalg.{name} called during a fit")
            return call

        for name in ("eigh", "eigvalsh", "svd", "cholesky", "solve", "inv", "qr",
                     "lstsq", "slogdet", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, forbidden(name))
        res = fit(inst.dataset, FitOptions(basis=basis, seed=0))
        assert res.basis.kind == basis and np.isfinite(res.loglik)

    def test_stage_timings_recorded(self):
        inst = gen_small(SimConfig(n=250, k=2, seed=7))
        res = fit(inst.dataset, FitOptions(basis="exact", seed=0))
        assert set(res.timings) == {"basis", "range", "knots", "eigen", "compress",
                                    "estimate", "cache", "search", "reconstruct"}
        assert all(v >= 0 for v in res.timings.values())
        # the range, knots and eigen steps are parts of the basis stage, the
        # cache builds and the searches parts of the estimate stage
        t = res.timings
        assert t["range"] + t["knots"] + t["eigen"] <= t["basis"]
        assert t["cache"] > 0 and t["search"] > 0
        assert t["cache"] + t["search"] <= t["estimate"]


class TestBuildBasis:
    def test_default_knot_count_stops_at_distinct_sites(self, caplog):
        # 1500 observations on 150 sites: 150 knots, not 200
        sites = np.random.default_rng(21).standard_normal((150, 2))
        coords = np.repeat(sites, 10, axis=0)
        with caplog.at_level("WARNING", logger="fastsvc"):
            basis = build_basis(coords, FitOptions(basis="nystrom"))
        assert basis.knots.count == 150 and basis.knots.converged
        assert not caplog.records

    def test_one_sort_serves_the_range_and_the_knot_count(self, monkeypatch):
        coords = np.random.default_rng(26).standard_normal((3000, 2))
        want = mst_max_edge(coords)
        sorts, lexsort = [], np.lexsort

        def counted(keys):
            sorts.append(len(keys[0]))
            return lexsort(keys)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called while building the basis")

        monkeypatch.setattr(np, "lexsort", counted)
        monkeypatch.setattr(np, "unique", refuse)
        basis = build_basis(coords, FitOptions(basis="nystrom"))
        assert sorts == [3000]
        assert basis.range_r == want and basis.knots.count == 200

    @pytest.mark.parametrize("range_r,source", [(None, "spanning tree"), (2.0, "given")])
    def test_debug_line_names_the_range_source(self, range_r, source, caplog):
        coords = np.random.default_rng(24).standard_normal((300, 2))
        with caplog.at_level("DEBUG", logger="fastsvc"):
            basis = build_basis(coords, FitOptions(basis="exact", range_r=range_r))
        [message] = [r.getMessage() for r in caplog.records if "basis:" in r.getMessage()]
        assert message.startswith(f"exact basis: range_r={basis.range_r:.6g} ({source}), ")


#: the same examples on every run, few enough for the fast tier
DETERMINISTIC = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def _degenerate_designs(draw):
    """A dataset on duplicated, collinear or clustered sites, at N = K + 2
    or a little above, with or without a 1e6 offset, and basis options."""
    k = draw(st.integers(2, 3))
    n = draw(st.sampled_from([k + 2, k + 3, 12, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shape = draw(st.sampled_from(["duplicated", "collinear", "clustered"]))
    if shape == "duplicated":
        sites = rng.standard_normal((draw(st.integers(1, 4)), 2))
        coords = sites[rng.integers(0, sites.shape[0], n)]
    elif shape == "collinear":
        coords = np.outer(rng.integers(-6, 7, n), draw(st.sampled_from(
            [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)])))
    else:
        centers = 50.0 * rng.standard_normal((draw(st.integers(1, 3)), 2))
        coords = (centers[rng.integers(0, centers.shape[0], n)]
                  + 1e-3 * rng.standard_normal((n, 2)))
    if draw(st.booleans()):
        coords = coords + 1e6
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    y = X.sum(axis=1) + rng.standard_normal(n)
    ds = SpatialDataset(coords=coords, y=y, X=X, svc_flags=np.ones(k, bool))
    basis = draw(st.sampled_from(["exact", "nystrom"]))
    knots = draw(st.one_of(st.none(), st.integers(1, n))) if basis == "nystrom" else None
    return ds, FitOptions(basis=basis, knot_count=knots, seed=0)


def _basis_and_moments(ds, options):
    basis = build_basis(ds.coords, options)
    design = SvcDesign(X=ds.X, y=ds.y, vectors=basis, values=basis.values,
                       svc_flags=ds.svc_flags)
    return basis, compress(design)


class TestDegenerateSites:
    @DETERMINISTIC
    @given(case=_degenerate_designs())
    def test_repeats_bit_for_bit_or_raises_a_typed_error(self, case):
        ds, options = case
        try:
            basis, moments = _basis_and_moments(ds, options)
        except FastSvcError as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                _basis_and_moments(ds, options)
            return
        again, repeated = _basis_and_moments(ds, options)
        assert np.isfinite(moments.gram).all()
        assert basis.range_r == again.range_r
        assert np.array_equal(basis.values, again.values)
        assert np.array_equal(basis.vectors, again.vectors)
        for name in ("gram", "gy", "yty"):
            assert np.array_equal(getattr(moments, name), getattr(repeated, name))

    def test_one_distinct_site_raises(self):
        with pytest.raises(AllPointsCoincident):
            build_basis(np.full((12, 2), 1e6), FitOptions(basis="nystrom"))


def _near_dependent_dataset(n=300, seed=3):
    """A dataset whose third covariate is the second plus a direction
    orthogonal to the first two, scaled so that the smallest singular value
    of X is about 1.4 times numpy's ``matrix_rank`` tolerance: X has full
    rank at that tolerance, and X'X is singular in double precision."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 10.0, (n, 2))
    x1 = rng.standard_normal(n)
    base = np.column_stack([np.ones(n), x1])
    z = rng.standard_normal(n)
    z -= base @ np.linalg.lstsq(base, z, rcond=None)[0]
    z /= np.linalg.norm(z)
    tol = (np.linalg.svd(np.column_stack([base, x1]), compute_uv=False).max()
           * n * np.finfo(float).eps)
    X = np.column_stack([base, x1 + 2.0 * tol * z])
    assert np.linalg.matrix_rank(X) == 3
    y = X[:, :2].sum(axis=1) + np.sin(coords[:, 0]) + 0.3 * rng.standard_normal(n)
    return SpatialDataset(coords=coords, y=y, X=X, svc_flags=np.ones(3, bool))


class TestNearDependentCovariates:
    @pytest.mark.parametrize("basis", ["exact", "nystrom"])
    def test_fits_bit_for_bit_or_raises_a_typed_error(self, basis):
        ds = _near_dependent_dataset()
        options = FitOptions(basis=basis, seed=0)
        try:
            first = fit(ds, options)
        except FastSvcError as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                fit(ds, options)
            return
        again = fit(ds, options)
        assert first.loglik == again.loglik
        np.testing.assert_array_equal(first.beta_surfaces, again.beta_surfaces)
        np.testing.assert_array_equal(first.params.rho, again.params.rho)
        np.testing.assert_array_equal(first.params.alpha, again.params.alpha)


def _knot_sample(coords, n_knots, seed):
    """The documented sample: KNOT_SAMPLE_PER_KNOT sites per knot, drawn
    without replacement from the seed's first spawned stream, in order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    size = KNOT_SAMPLE_PER_KNOT * n_knots
    return coords[np.sort(rng.choice(coords.shape[0], size=size, replace=False))]


class TestKnotSample:
    def test_all_sites_at_the_bound(self):
        # 5000 sites and 200 knots: exactly at the bound, so k-means gets them all
        coords = np.random.default_rng(31).standard_normal((5000, 2))
        assert 5000 == KNOT_SAMPLE_PER_KNOT * 200
        knots = build_basis(coords, FitOptions(basis="nystrom", seed=3)).knots
        expect = kmeans_knots(coords, 200, seed=3)
        assert np.array_equal(knots.centers, expect.centers)
        assert (knots.sites, knots.passes) == (5000, expect.passes)

    def test_documented_sample_above_the_bound(self):
        coords = np.random.default_rng(32).standard_normal((3000, 2))
        options = FitOptions(basis="nystrom", knot_count=40, seed=5)
        knots = build_basis(coords, options).knots
        expect = kmeans_knots(_knot_sample(coords, 40, 5), 40, seed=5)
        assert np.array_equal(knots.centers, expect.centers)
        assert (knots.sites, knots.passes) == (1000, expect.passes)
        assert knots.converged
        assert np.array_equal(build_basis(coords, options).knots.centers, knots.centers)

    def test_sample_short_of_distinct_sites_takes_all_sites(self):
        # 41 distinct sites, one of them repeated 2960 times: a 1000-site
        # sample holds about 14 of them, too few for 40 knots
        rng = np.random.default_rng(33)
        coords = np.vstack([np.zeros((2960, 2)), rng.standard_normal((40, 2))])
        coords = coords[rng.permutation(3000)]
        assert np.unique(_knot_sample(coords, 40, 0), axis=0).shape[0] < 40
        knots = build_basis(coords, FitOptions(basis="nystrom", knot_count=40)).knots
        assert np.array_equal(knots.centers, kmeans_knots(coords, 40, seed=0).centers)
        assert knots.sites == 3000

    def test_too_few_distinct_sites_still_raises(self):
        coords = np.repeat(np.random.default_rng(34).standard_normal((30, 2)), 100, axis=0)
        with pytest.raises(InvalidKnotCount) as direct:
            kmeans_knots(coords, 40, seed=0)
        with pytest.raises(InvalidKnotCount) as fitted:
            build_basis(coords, FitOptions(basis="nystrom", knot_count=40))
        assert str(fitted.value) == str(direct.value)


class TestReconstruct:
    def test_zero_random_effects_give_constant_columns(self):
        _, basis, design, moments = random_instance(8, n=60, k=2)
        params = ShrinkageParams.constant(2)
        u = np.zeros((2, basis.n_pairs))
        b = np.array([1.5, -2.0])
        beta = reconstruct_svc(basis, b, params, u, design.svc_flags)
        np.testing.assert_array_equal(beta, np.tile(b, (60, 1)))

    def test_zero_ratio_gives_constant_column(self):
        _, basis, design, _ = random_instance(9, n=60, k=2)
        params = ShrinkageParams(np.array([0.5, 0.0]), np.array([1.0, 1.0]))
        u = np.random.default_rng(0).standard_normal((2, basis.n_pairs))
        beta = reconstruct_svc(basis, np.array([0.0, 3.0]), params, u,
                               design.svc_flags)
        np.testing.assert_array_equal(beta[:, 1], np.full(60, 3.0))
        assert beta[:, 0].std() > 0

    def test_column_means_equal_fixed_effects(self):
        _, basis, design, moments = random_instance(10, n=80, k=3)
        params = ShrinkageParams.constant(3, rho=0.8, alpha=1.2)
        u = np.random.default_rng(1).standard_normal((3, basis.n_pairs))
        b = np.array([0.5, -1.0, 2.0])
        beta = reconstruct_svc(basis, b, params, u, design.svc_flags)
        np.testing.assert_allclose(beta.mean(axis=0), b, atol=1e-12)

    def test_nystrom_surfaces_equal_rows_times_coefficients(self):
        rng = np.random.default_rng(25)
        coords = rng.uniform(0.0, 10.0, (2500, 2))
        basis = build_basis(coords, FitOptions(basis="nystrom", knot_count=60))
        flags = np.array([True, False, True])
        params = ShrinkageParams(np.array([0.7, 1.3]), np.array([1.0, 0.5]))
        u = rng.standard_normal((2, basis.n_pairs))
        b = np.array([1.0, -2.0, 0.5])
        beta = reconstruct_svc(basis, b, params, u, flags)
        coef = np.column_stack([v_diag(params.rho[a], params.alpha[a], basis.values) * u[a]
                                for a in range(2)])
        want = np.tile(b, (2500, 1))
        want[:, flags] += basis.vectors @ coef
        assert np.abs(beta - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_array_equal(beta[:, 1], np.full(2500, -2.0))


class TestResidualVariance:
    def test_profiled_formula(self):
        inst = gen_small(SimConfig(n=300, k=2, seed=11))
        res = fit(inst.dataset, FitOptions(basis="exact", seed=0))
        design = SvcDesign(X=inst.dataset.X, y=inst.dataset.y,
                           vectors=res.basis.vectors, values=res.basis.values,
                           svc_flags=inst.dataset.svc_flags)
        d_theta = compressed_restricted_loglik(compress(design), res.params).d_theta
        n, k = inst.dataset.n_obs, inst.dataset.n_cov
        assert res.sigma2_hat == pytest.approx(d_theta / (n - k), rel=1e-10)
        assert res.sigma2_hat > 0

    def test_scale_equivariance(self):
        ds, X, y = _null_dataset(seed=12, n=500)
        res1 = fit(ds, FitOptions(basis="nystrom", seed=0))
        doubled = SpatialDataset(coords=ds.coords, y=2.0 * y, X=X,
                                 svc_flags=ds.svc_flags)
        res2 = fit(doubled, FitOptions(basis="nystrom", seed=0))
        assert res2.sigma2_hat == pytest.approx(4.0 * res1.sigma2_hat, rel=1e-10)

    def test_noise_variance_recovered_on_synthetic_data(self):
        ratios = []
        for seed in range(10):
            inst = gen_small(SimConfig(n=2000, k=2, seed=seed))
            res = fit(inst.dataset, FitOptions(basis="nystrom", seed=0))
            ratios.append(res.sigma2_hat / inst.true_sigma2)
        med = float(np.median(ratios))
        assert abs(med - 1.0) < 0.25


class TestAddIntercept:
    def test_prepends_ones(self):
        X = np.arange(6.0).reshape(3, 2)
        out = add_intercept(X)
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out[:, 0], 1.0)
        np.testing.assert_array_equal(out[:, 1:], X)


def test_every_exported_name_resolves():
    import fastsvc

    missing = [name for name in fastsvc.__all__ if not hasattr(fastsvc, name)]
    assert missing == []

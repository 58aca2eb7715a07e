import numpy as np
import pytest
import scipy.linalg as sla

from fastsvc.compression import SvcDesign, compress
from fastsvc.errors import (
    NegativeResidualNorm,
    NonPositiveEigenvalue,
    PerfectFit,
    SingularP,
)
from fastsvc.likelihood import (
    ShrinkageParams,
    _clamp_cancelled,
    compressed_restricted_loglik,
    direct_restricted_loglik,
    scale_vector,
    v_diag,
)

from oracles import (
    dense_penalized_system,
    ols_reml,
    random_instance,
    random_params,
    sigma_form_reml,
)


class TestVDiag:
    def test_zero_ratio_collapses(self):
        assert np.all(v_diag(0.0, 1.7, np.array([3.0, 1.0])) == 0.0)

    def test_zero_exponent_is_flat(self):
        np.testing.assert_array_equal(v_diag(1.0, 0.0, np.array([4.0, 0.5])),
                                      [1.0, 1.0])

    def test_power_two_returns_values(self):
        np.testing.assert_array_equal(v_diag(1.0, 2.0, np.array([4.0, 1.0])),
                                      [4.0, 1.0])

    def test_positive_eigenvalues_required(self):
        with pytest.raises(NonPositiveEigenvalue):
            v_diag(1.0, 1.0, np.array([2.0, 0.0]))


class TestDirectForm:
    def test_zero_ratios_reduce_to_ols(self):
        _, _, design, _ = random_instance(0, n=70, k=3)
        params = ShrinkageParams(np.zeros(3), np.ones(3))
        res = direct_restricted_loglik(design, params)
        b, rss, ll = ols_reml(design.X, design.y)
        np.testing.assert_allclose(res.b_hat, b, atol=1e-10)
        assert res.d_theta == pytest.approx(rss, rel=1e-10)
        assert res.loglik == pytest.approx(ll, rel=1e-12)
        assert np.all(res.u_hat == 0.0)

    def test_perfect_fit_guard(self):
        _, _, design, _ = random_instance(1, n=50, k=2, noise=0.0)
        params = ShrinkageParams(np.zeros(2), np.ones(2))
        with pytest.raises(PerfectFit):
            direct_restricted_loglik(design, params)

    def test_matches_marginal_covariance_oracle(self):
        for seed in range(4):
            _, _, design, _ = random_instance(seed + 20, n=60, k=2)
            params = random_params(seed, 2)
            res = direct_restricted_loglik(design, params)
            b, rss, ll = sigma_form_reml(design, params)
            assert res.loglik == pytest.approx(ll, rel=1e-9)
            assert res.d_theta == pytest.approx(rss, rel=1e-9)
            np.testing.assert_allclose(res.b_hat, b, atol=1e-8)

    def test_collinear_design_raises(self):
        _, basis, design, _ = random_instance(2, n=50, k=2)
        X = np.column_stack([design.X, design.X[:, 1]])
        bad = SvcDesign(X=X, y=design.y, vectors=design.vectors,
                        values=design.values,
                        svc_flags=np.array([True, True, False]))
        params = ShrinkageParams(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(SingularP):
            direct_restricted_loglik(bad, params)


class TestCompressedForm:
    def test_cross_form_equivalence(self):
        # direct and compressed agree on likelihood and coefficients
        rng = np.random.default_rng(3)
        for seed in range(10):
            n = int(rng.integers(40, 101))
            k = int(rng.integers(1, 5))
            L = int(rng.integers(6, 13))
            _, _, design, moments = random_instance(seed + 40, n=n, k=k, max_pairs=L)
            params = random_params(seed + 99, moments.k_varying)
            d = direct_restricted_loglik(design, params)
            c = compressed_restricted_loglik(moments, params)
            assert c.loglik == pytest.approx(d.loglik, rel=1e-8, abs=1e-8)
            np.testing.assert_allclose(c.b_hat, d.b_hat, atol=1e-8)
            np.testing.assert_allclose(c.u_hat, d.u_hat, atol=1e-8)
            assert c.sigma2_hat == pytest.approx(d.d_theta / (n - k), rel=1e-8)

    @pytest.mark.parametrize("k, collapsed", [(1, ()), (3, ()), (2, (1,)),
                                              (3, (0, 2)), (1, (0,)), (3, (0, 1, 2))])
    def test_two_halves_match_one_dense_factor(self, k, collapsed):
        # the halves cut through a block, or through the fixed block when
        # every coefficient is collapsed; k = 1 with nothing kept but the
        # fixed column leaves the second half empty
        _, _, _, moments = random_instance(70 + k, n=90, k=k, max_pairs=7)
        params = random_params(5, moments.k_varying)
        for a in collapsed:
            params = params.with_entry(a, 0.0, params.alpha[a])
        P, rhs = dense_penalized_system(moments, params)
        z = np.linalg.solve(P, rhs)
        d = moments.yty - z @ rhs
        n, m = moments.n_obs, moments.size
        want = -0.5 * np.linalg.slogdet(P)[1] - (n - k) / 2 * (
            1 + np.log(2 * np.pi * d / (n - k)))
        c = compressed_restricted_loglik(moments, params)
        assert c.loglik == pytest.approx(want, rel=1e-12)
        assert c.d_theta == pytest.approx(d, rel=1e-10)
        got = np.concatenate([c.b_hat, c.u_hat.ravel()])
        np.testing.assert_allclose(got, z, rtol=0, atol=1e-10 * np.abs(z).max())
        for a in collapsed:
            assert np.all(c.u_hat[a] == 0.0)

    def test_zero_ratio_residual_is_ols_rss(self):
        _, _, design, moments = random_instance(4, n=80, k=3)
        params = ShrinkageParams(np.zeros(3), np.ones(3))
        c = compressed_restricted_loglik(moments, params)
        b = c.b_hat
        rss = moments.yty - 2 * b @ moments.gy[:3] + b @ moments.gram[:3, :3] @ b
        _, rss_ols, _ = ols_reml(design.X, design.y)
        assert c.d_theta == pytest.approx(rss, rel=1e-10)
        assert c.d_theta == pytest.approx(rss_ols, rel=1e-10)

    def test_residual_norm_matches_direct_residual(self):
        # the compressed quadratic-form residual equals the actual one
        for seed in range(5):
            _, _, design, moments = random_instance(seed + 60, n=60, k=2)
            params = random_params(seed + 7, 2)
            d = direct_restricted_loglik(design, params)
            c = compressed_restricted_loglik(moments, params)
            direct_eps2 = d.d_theta - float(np.sum(d.u_hat ** 2))
            compressed_eps2 = c.d_theta - float(np.sum(c.u_hat ** 2))
            assert compressed_eps2 == pytest.approx(direct_eps2, rel=1e-8)

    def test_penalized_matrix_symmetric_and_lower_block_pd(self):
        _, _, _, moments = random_instance(5, n=60, k=2)
        params = random_params(11, 2, rho_range=(0.2, 2.0))
        P, _ = dense_penalized_system(moments, params)
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        lower = P[moments.n_cov:, moments.n_cov:]
        sla.cholesky(lower, lower=True)  # raises if not PD

    def test_monotone_shrinkage(self):
        _, basis, design, moments = random_instance(6, n=80, k=2)
        norms = []
        for rho in [1.0, 0.3, 0.1, 0.03, 0.01]:
            params = ShrinkageParams(np.array([0.5, rho]), np.array([1.0, 1.0]))
            res = compressed_restricted_loglik(moments, params)
            vk = v_diag(rho, 1.0, moments.values)
            beta_var = basis.vectors @ (vk * res.u_hat[1])
            norms.append(float(np.linalg.norm(beta_var)))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.05 * norms[0]

    def test_scale_vector_layout(self):
        _, _, _, moments = random_instance(7, n=50, k=2)
        params = ShrinkageParams(np.array([2.0, 3.0]), np.array([0.0, 0.0]))
        v = scale_vector(moments, params)
        k, L = moments.n_cov, moments.n_basis
        assert np.all(v[:k] == 1.0)
        assert np.all(v[k:k + L] == 2.0)
        assert np.all(v[k + L:] == 3.0)


class TestClampCancelled:
    YTY = 250.0

    def test_rounding_below_zero_clamps(self):
        assert _clamp_cancelled(-0.5e-6 * self.YTY, self.YTY, "norm") == 0.0

    def test_gross_negative_raises(self):
        with pytest.raises(NegativeResidualNorm, match="norm"):
            _clamp_cancelled(-2e-6 * self.YTY, self.YTY, "norm")

    def test_positive_passes_unchanged(self):
        for value in (1e-300, 0.0, 3.7, 1e6):
            assert _clamp_cancelled(value, self.YTY, "norm") == value

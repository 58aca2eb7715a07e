import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from fastsvc.errors import InsufficientData, SingularBlock, SingularInnerMatrix
from fastsvc.likelihood import ShrinkageParams, compressed_restricted_loglik
from fastsvc.model import FitOptions, fit
from fastsvc.sequential import (
    ALPHA_BOUNDS,
    RESTARTS,
    RHO_BOUNDS,
    FitTrace,
    bounds_reached,
    build_cache,
    fast_loglik,
    fit_sequential,
    hessian,
    optimize_k,
)
from fastsvc.simulation import SimConfig, gen_large

from oracles import (
    bordered_q,
    dense_penalized_system,
    fd_gradient,
    fd_hessian,
    full_t_block,
    lbfgsb_optimize_k,
    random_instance,
    random_params,
    simplex_optimize_k,
    target_free_system,
    woodbury_coefficients,
)


def _instance(seed, n=60, k=3, L=8):
    _, basis, design, moments = random_instance(seed, n=n, k=k, max_pairs=L)
    params = random_params(seed + 500, moments.k_varying, rho_range=(0.2, 2.0))
    return moments, params


class TestBuildCache:
    def test_independent_of_target_parameters(self):
        moments, params = _instance(0)
        hot = params.with_entry(1, 7.3, 3.1)
        cold = params.with_entry(1, 0.001, 0.2)
        a = build_cache(moments, hot, 1)
        b = build_cache(moments, cold, 1)
        for name in ("r_t", "t_lower", "t_abs_colsum"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.logdet_r == b.logdet_r
        assert a.residual == b.residual

    def test_single_varying_coefficient_degenerate_form(self):
        # only the intercept coefficient varies: R = [[X'X, B], [B', M_tt]]
        # and T is the inverse of its Schur complement, so
        # ln|X'X| = ln|R| + ln|T|
        from fastsvc.compression import SvcDesign, compress

        _, basis, design, _ = random_instance(1, n=60, k=2, max_pairs=8)
        solo = SvcDesign(X=design.X, y=design.y, vectors=design.vectors,
                         values=design.values, svc_flags=np.array([True, False]))
        mom = compress(solo)
        cache = build_cache(mom, ShrinkageParams(np.array([0.8]), np.array([1.0])), 0)
        sign, logdet = np.linalg.slogdet(mom.gram[:mom.n_cov, :mom.n_cov])
        assert sign > 0
        sign_t, logdet_t = np.linalg.slogdet(full_t_block(cache))
        assert sign_t > 0
        assert cache.logdet_r + logdet_t == pytest.approx(logdet, rel=1e-10)

    def test_q_inverse_blocks_match_dense_inversion(self):
        # Q^{-1} = D R^{-1} D with D the off-target scaling (1 on the target)
        # and m = D W'y, so T = Q^{-1}[t, t] and r_t = (Q^{-1} W'y)[t]
        moments, params = _instance(2, k=3, L=6)
        target = 1
        cache = build_cache(moments, params, target)
        Q, _ = bordered_q(moments, params, target)
        dense = np.linalg.inv(Q)
        block = moments.block(target)
        np.testing.assert_allclose(full_t_block(cache), dense[block, block], atol=1e-10)
        np.testing.assert_allclose(cache.r_t, (dense @ moments.gy)[block], atol=1e-10)

    def test_off_target_zero_ratio_drops_its_block(self, monkeypatch):
        # a collapsed off-target coefficient is an identity block with no
        # coupling: the cache build eliminates the fixed block and the other
        # off-target block without it, then factors the target's conditional
        # Gram, and the collapsed block is never factored
        import fastsvc.likelihood as likelihood
        import fastsvc.sequential as sequential

        moments, params = _instance(8)
        frozen = params.with_entry(0, 0.0, 1.0)
        target = 2
        shapes = []
        spd_factor = likelihood.spd_factor

        def recorded(P, error):
            shapes.append(P.shape)
            return spd_factor(P, error=error)

        monkeypatch.setattr(likelihood, "spd_factor", recorded)
        monkeypatch.setattr(sequential, "spd_factor", recorded)
        cache = build_cache(moments, frozen, target)
        m, L = moments.size, moments.n_basis
        assert moments.k_varying == 3
        assert shapes == [(m - 2 * L, m - 2 * L), (L, L)]

        R, rhs = target_free_system(moments, frozen, target)
        dense = np.linalg.inv(R)
        block = moments.block(target)
        np.testing.assert_allclose(full_t_block(cache), dense[block, block], atol=1e-10)
        np.testing.assert_allclose(cache.r_t, (dense @ rhs)[block], atol=1e-10)
        sign, logdet = np.linalg.slogdet(R)
        assert sign > 0
        assert cache.logdet_r == pytest.approx(logdet, rel=1e-10)
        residual = moments.yty - rhs @ np.linalg.solve(R, rhs)
        assert cache.residual == pytest.approx(residual, rel=1e-10)

    def test_insufficient_data_raised_before_any_evaluation(self, monkeypatch):
        import fastsvc.sequential as sequential

        moments, params = _instance(15, k=3)
        short = dataclasses.replace(moments, n_obs=moments.n_cov)
        calls = []
        monkeypatch.setattr(sequential, "fast_loglik",
                            lambda *a: calls.append(a) or fast_loglik(*a))
        with pytest.raises(InsufficientData):
            build_cache(short, params, 0)
        with pytest.raises(InsufficientData):
            fit_sequential(short, params)
        assert calls == []

    def test_cache_size_independent_of_n(self):
        small = _instance(3, n=50)[0]
        big = _instance(3, n=50)[0]  # same layout; N only enters as a scalar
        params = random_params(7, small.k_varying, rho_range=(0.2, 2.0))
        cache = build_cache(small, params, 0)
        L = small.n_basis
        assert cache.r_t.shape == (L,)
        assert cache.t_lower.shape == (L, L)
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        assert all(a.shape[0] != small.size for a in arrays)


class TestSingularBlock:
    @staticmethod
    def _moments(defect):
        from fastsvc.compression import SvcDesign, compress

        _, basis, design, _ = random_instance(17, n=80, k=3, max_pairs=8)
        X, vectors = design.X.copy(), design.vectors.copy()
        if defect == "collinear fixed covariates":
            X[:, 2] = 2.0 * X[:, 1]
        elif defect == "duplicated basis column":
            vectors[:, 1] = vectors[:, 0]
        moments = compress(SvcDesign(X=X, y=design.y, vectors=vectors,
                                     values=design.values, svc_flags=design.svc_flags))
        params = ShrinkageParams.constant(moments.k_varying)
        if defect == "off-target ratio overflow":
            params = params.with_entry(1, 1e9, 4.0)
        return moments, params

    @pytest.mark.parametrize("defect", ["collinear fixed covariates",
                                        "duplicated basis column",
                                        "off-target ratio overflow"])
    def test_singular_off_target_system_raises_singular_block(self, defect):
        # the fixed block, a target block or an off-target block makes the
        # target-free system singular: the standalone build and the fit's
        # tree of eliminations raise the typed error, never LinAlgError
        moments, params = self._moments(defect)
        with pytest.raises(SingularBlock):
            build_cache(moments, params, 0)
        with pytest.raises(SingularBlock):
            fit_sequential(moments, params)


class TestSweepTree:
    @pytest.mark.parametrize("k, seed", [(3, 1), (5, 0)])
    def test_every_leaf_cache_equals_the_standalone_build(self, monkeypatch, k, seed):
        # a sweep's caches come from one tree of eliminations; each step's
        # leaf holds its target's block alone, and its cache is the one the
        # standalone build makes at that step's parameters, also after a
        # coefficient of the first half collapses and is dropped from the
        # second half's elimination
        import fastsvc.sequential as sequential

        moments, params = _instance(seed, k=k)
        built = []

        def recorded(cond, params, target):
            cache = build_cache(cond, params, target)
            built.append((cond, params, target, cache))
            return cache

        monkeypatch.setattr(sequential, "build_cache", recorded)
        _, _, trace = fit_sequential(moments, params, max_sweeps=2)
        assert [target for _, _, target, _ in built] == [s["target"] for s in trace.steps]
        first_half = range(k // 2)
        assert any(s["collapsed"] for s in trace.steps
                   if s["sweep"] == 0 and s["target"] in first_half)
        assert trace.n_sweeps == 2

        L = moments.n_basis
        for (cond, step_params, target, cache), s in zip(built, trace.steps):
            if s["sweep"] == 0:
                assert cond.coefs == (target,) and cond.gram.shape == (L, L)
            want = build_cache(moments, step_params, target)
            for name in ("t_lower", "t_abs_colsum", "r_t"):
                got, ref = getattr(cache, name), getattr(want, name)
                np.testing.assert_allclose(got, ref, rtol=1e-10,
                                           atol=1e-10 * np.abs(ref).max())
            assert cache.logdet_r == pytest.approx(want.logdet_r, rel=1e-10)
            assert cache.residual == pytest.approx(want.residual, rel=1e-10)


class TestFastLoglik:
    def test_matches_compressed_for_every_target(self):
        moments, params = _instance(4)
        ref = compressed_restricted_loglik(moments, params)
        k = moments.n_cov
        for t in range(moments.k_varying):
            cache = build_cache(moments, params, t)
            res = fast_loglik(cache, params.rho[t], params.alpha[t])
            assert res.loglik == pytest.approx(ref.loglik, rel=1e-10)
            assert res.d_theta == pytest.approx(ref.d_theta, rel=1e-10)
            z = woodbury_coefficients(moments, params, t, cache,
                                      params.rho[t], params.alpha[t])
            np.testing.assert_allclose(z[:k], ref.b_hat, atol=1e-9)
            np.testing.assert_allclose(z[k:], ref.u_hat.ravel(), atol=1e-9)

    def test_solve_matches_dense_inverse(self):
        moments, params = _instance(5)
        P, rhs = dense_penalized_system(moments, params)
        z = np.linalg.solve(P, rhs)
        t = 2
        cache = build_cache(moments, params, t)
        res = fast_loglik(cache, params.rho[t], params.alpha[t])
        stacked = woodbury_coefficients(moments, params, t, cache,
                                        params.rho[t], params.alpha[t])
        np.testing.assert_allclose(stacked, z, atol=1e-10)
        assert res.d_theta == pytest.approx(moments.yty - z @ rhs, rel=1e-10)

    def test_logdet_matches_dense_factorization(self):
        moments, params = _instance(6)
        P, _ = dense_penalized_system(moments, params)
        sign, logdet = np.linalg.slogdet(P)
        assert sign > 0
        t = 0
        cache = build_cache(moments, params, t)
        vt = params.rho[t] * moments.values ** (params.alpha[t] / 2)
        inner = full_t_block(cache) + np.diag(vt ** 2)
        got = cache.logdet_r + np.linalg.slogdet(inner)[1]
        assert got == pytest.approx(logdet, rel=1e-10)

    def test_zero_ratio_limit_equals_collapsed_model(self):
        moments, params = _instance(7)
        collapsed = params.with_entry(1, 0.0, params.alpha[1])
        ref = compressed_restricted_loglik(moments, collapsed)
        cache = build_cache(moments, params, 1)
        exact0 = fast_loglik(cache, 0.0, params.alpha[1])
        assert exact0.loglik == pytest.approx(ref.loglik, rel=1e-10)
        near0 = fast_loglik(cache, 1e-8, params.alpha[1])
        assert near0.loglik == pytest.approx(ref.loglik, rel=1e-6)

    def test_off_target_zero_ratio_supported(self):
        # a collapsed non-target coefficient must not break the cache
        moments, params = _instance(8)
        frozen = params.with_entry(0, 0.0, 1.0)
        ref = compressed_restricted_loglik(moments, frozen)
        cache = build_cache(moments, frozen, 2)
        res = fast_loglik(cache, frozen.rho[2], frozen.alpha[2])
        assert res.loglik == pytest.approx(ref.loglik, rel=1e-10)
        assert res.d_theta == pytest.approx(ref.d_theta, rel=1e-10)
        assert np.all(ref.u_hat[0] == 0.0)
        z = woodbury_coefficients(moments, frozen, 2, cache, frozen.rho[2], frozen.alpha[2])
        k = moments.n_cov
        np.testing.assert_allclose(z[:k], ref.b_hat, atol=1e-9)
        np.testing.assert_allclose(z[k:], ref.u_hat.ravel(), atol=1e-9)

    def test_per_eval_time_flat_in_varying_count(self):
        L = 40
        m2, _ = _instance(9, n=100, k=2, L=L)
        m6, _ = _instance(9, n=100, k=6, L=L)
        times = {}
        for mom in (m2, m6):
            params = ShrinkageParams.constant(mom.k_varying)
            cache = build_cache(mom, params, 0)
            fast_loglik(cache, 0.5, 1.0)  # warm up
            samples = []
            for _ in range(30):
                t0 = time.perf_counter()
                fast_loglik(cache, 0.5, 1.0)
                samples.append(time.perf_counter() - t0)
            times[mom.k_varying] = np.median(samples)
        assert times[6] <= 2.0 * times[2] + 1e-4


class TestGradient:
    # interior points, alpha at both box edges, and rho near its lower bound,
    # where the gradient in log rho vanishes like rho^2
    POINTS = ((0.7, 1.3), (3.0, 0.0), (0.05, 4.0), (1e-2, 2.0), (1e-6, 0.0), (2e-6, 4.0))

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_matches_finite_differences(self, seed):
        moments, params = _instance(seed)
        for t in range(moments.k_varying):
            cache = build_cache(moments, params, t)
            for rho, alpha in self.POINTS:
                got = fast_loglik(cache, rho, alpha).grad
                np.testing.assert_allclose(
                    got, fd_gradient(moments, params, t, rho, alpha), rtol=1e-6, atol=1e-7,
                    err_msg=f"target {t} at rho={rho}, alpha={alpha}")


class TestHessian:
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_matches_finite_differences(self, seed):
        moments, params = _instance(seed)
        for t in range(moments.k_varying):
            cache = build_cache(moments, params, t)
            for rho, alpha in TestGradient.POINTS:
                got = hessian(cache, fast_loglik(cache, rho, alpha))
                np.testing.assert_array_equal(got, got.T)
                np.testing.assert_allclose(
                    got, fd_hessian(cache, rho, alpha), rtol=1e-6, atol=1e-7,
                    err_msg=f"target {t} at rho={rho}, alpha={alpha}")


class TestOptimizeK:
    def test_never_worse_than_incoming_optimum(self):
        moments, _ = _instance(10, k=2)
        params = ShrinkageParams.constant(moments.k_varying)
        # first pass to (near) optimum
        cache = build_cache(moments, params, 0)
        rho, alpha, ll, _ = optimize_k(cache, params, 0)
        params = params.with_entry(0, rho, alpha)
        # re-optimizing from the optimum must stay put (up to tolerance)
        cache = build_cache(moments, params, 0)
        _, _, ll2, _ = optimize_k(cache, params, 0)
        assert ll2 >= ll - 1e-6

    @pytest.mark.parametrize("sweep", [0, 1])
    def test_never_below_simplex_reference(self, sweep):
        for seed in range(30, 36):
            moments, params = _instance(seed, k=3)
            for t in range(moments.k_varying):
                cache = build_cache(moments, params, t)
                _, _, ll, n_eval = optimize_k(cache, params, t, sweep=sweep)
                _, _, ref, _ = simplex_optimize_k(cache, params, t)
                assert ll >= ref - 1e-6, f"seed {seed}, target {t}"
                assert n_eval <= 120

    def test_newton_step_matches_lbfgsb_in_fewer_evaluations(self):
        # the later-sweep search from the incoming pair: Newton ends no lower
        # than L-BFGS-B from the same pair, with fewer evaluations in total
        newton_evals = lbfgsb_evals = 0
        for seed in range(30, 36):
            moments, params = _instance(seed, k=3)
            for t in range(moments.k_varying):
                cache = build_cache(moments, params, t)
                step = optimize_k(cache, params, t, sweep=1)
                _, _, ref, n_ref = lbfgsb_optimize_k(cache, params, t)
                assert step.search == "newton"
                assert step[2] >= ref - 1e-6, f"seed {seed}, target {t}"
                newton_evals += step[3]
                lbfgsb_evals += n_ref
        assert newton_evals < lbfgsb_evals

    def test_budget_stops_the_newton_search(self):
        moments, params = _instance(31, k=3)
        cache = build_cache(moments, params, 0)
        assert optimize_k(cache, params, 0, sweep=1)[3] > 3
        step = optimize_k(cache, params, 0, budget=3, sweep=1)
        assert step.search == "newton" and step[3] <= 3

    def test_failed_evaluations_counted_and_survived(self, monkeypatch):
        import fastsvc.sequential as sequential

        moments, params = _instance(16, k=2)
        params = params.with_entry(0, 0.25, 1.0)
        cache = build_cache(moments, params, 0)
        incoming = fast_loglik(cache, 0.25, 1.0).loglik
        raised = []

        def flaky(cache, rho, alpha):
            if rho > 0.3:
                raised.append(rho)
                raise SingularInnerMatrix("injected")
            return fast_loglik(cache, rho, alpha)

        monkeypatch.setattr(sequential, "fast_loglik", flaky)
        failures = {}
        rho, _, ll, _ = optimize_k(cache, params, 0, failures=failures)
        assert raised and failures == {"SingularInnerMatrix": len(raised)}
        assert rho <= 0.3 and ll >= incoming

        raised.clear()
        _, _, trace = fit_sequential(moments, params, max_sweeps=2)
        assert raised and trace.failed == {"SingularInnerMatrix": len(raised)}

    def test_failed_incoming_point_still_searched(self, monkeypatch):
        # after sweep 0 the search starts only from the incoming pair; when
        # that evaluation fails the restarts run, so the step cannot collapse
        # a coefficient with an interior optimum unsearched
        import fastsvc.sequential as sequential

        moments, params = _instance(30, k=3)
        cache = build_cache(moments, params, 1)
        rho, _, ll, _ = optimize_k(cache, params, 1, sweep=1)
        assert rho > 0.0
        incoming = (float(params.rho[1]), float(params.alpha[1]))

        def failing_at_incoming(cache, rho, alpha):
            if (rho, alpha) == incoming:
                raise SingularInnerMatrix("injected")
            return fast_loglik(cache, rho, alpha)

        monkeypatch.setattr(sequential, "fast_loglik", failing_at_incoming)
        rho_f, _, ll_f, _ = optimize_k(cache, params, 1, sweep=1)
        assert rho_f > 0.0 and ll_f >= ll - 1e-6

    def test_start_policy(self, monkeypatch):
        # sweep 0 runs L-BFGS-B from the restarts only; a later sweep runs
        # Newton from the incoming pair, reusing its evaluation, and never
        # calls minimize; a later sweep whose incoming evaluation fails runs
        # L-BFGS-B from the restarts again
        import fastsvc.sequential as sequential

        moments, params = _instance(30, k=3)
        cache = build_cache(moments, params, 1)
        incoming = (float(params.rho[1]), float(params.alpha[1]))
        starts, evaluated, hessians = [], [], []

        def recorded(fun, x0, **kwargs):
            starts.append(tuple(x0))
            return minimize(fun, x0, **kwargs)

        def recorded_loglik(cache, rho, alpha):
            res = fast_loglik(cache, rho, alpha)
            evaluated.append(((rho, alpha), res))
            return res

        def recorded_hessian(cache, res):
            hessians.append(res)
            return hessian(cache, res)

        def failing_at_incoming(cache, rho, alpha):
            if (rho, alpha) == incoming:
                raise SingularInnerMatrix("injected")
            return fast_loglik(cache, rho, alpha)

        def run(sweep):
            starts.clear(), evaluated.clear(), hessians.clear()
            return optimize_k(cache, params, 1, sweep=sweep)

        monkeypatch.setattr(sequential, "minimize", recorded)
        monkeypatch.setattr(sequential, "hessian", recorded_hessian)
        monkeypatch.setattr(sequential, "fast_loglik", recorded_loglik)
        restarts = [(np.log(rho), alpha) for rho, alpha in RESTARTS]
        assert run(0).search == "lbfgsb"
        assert starts == restarts and hessians == []

        step = run(1)
        assert step.search == "newton" and starts == []
        assert evaluated[0][0] == incoming
        assert hessians and hessians[0] is evaluated[0][1]
        assert [point for point, _ in evaluated].count(incoming) == 1

        monkeypatch.setattr(sequential, "fast_loglik", failing_at_incoming)
        assert run(1).search == "lbfgsb"
        assert starts == restarts and hessians == []

    def test_budget_validated(self):
        moments, params = _instance(11, k=2)
        cache = build_cache(moments, params, 0)
        with pytest.raises(ValueError):
            optimize_k(cache, params, 0, budget=0)


class TestFitSequential:
    def test_collapse_returns_the_exact_zero_ratio_loglik(self, monkeypatch):
        # a smooth surface on the intercept only: the other coefficients
        # have no spatial variation, and some of them collapse
        import fastsvc.sequential as sequential
        from fastsvc.compression import compress

        _, basis, design, _ = random_instance(1, n=200, k=3, max_pairs=20, noise=0.5)
        y = design.y + 2.0 * np.sqrt(200) * basis.vectors[:, :3].sum(axis=1)
        moments = compress(dataclasses.replace(design, y=y))
        steps = []

        def recorded(cache, params, target, **kwargs):
            out = optimize_k(cache, params, target, **kwargs)
            steps.append((cache, target, out))
            return out

        monkeypatch.setattr(sequential, "optimize_k", recorded)
        params, _, trace = fit_sequential(moments)
        collapsing = [(cache, target, out) for cache, target, out in steps
                      if out[0] == 0.0]
        assert collapsing
        for cache, _, (_, alpha, ll, _) in collapsing:
            assert ll == fast_loglik(cache, 0.0, alpha).loglik
        assert sorted(t for _, t, _ in collapsing) == list(np.flatnonzero(trace.collapsed))
        np.testing.assert_array_equal(trace.collapsed, params.rho == 0.0)
        assert not trace.collapsed.all()

    def test_no_evaluation_fails_on_the_cli_fixture(self):
        # the first search step used to jump to the (1e6, 4) corner of the
        # box, where two evaluations failed with SingularInnerMatrix
        inst = gen_large(SimConfig(n=250, k=2, seed=7, generator="large",
                                   knot_count=250))
        assert fit(inst.dataset, FitOptions()).trace.failed == {}

    def test_fit_reports_the_box_ends_it_reaches(self, caplog):
        inst = gen_large(SimConfig(n=300, k=2, seed=0, generator="large",
                                   knot_count=200))
        with caplog.at_level("WARNING", logger="fastsvc"):
            res = fit(inst.dataset, FitOptions(basis="exact", seed=0))
        assert res.trace.at_bound == {1: ["alpha_max"]}
        assert res.params.alpha[1] == ALPHA_BOUNDS[1] and res.params.rho[1] > 0.0
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert "varying coefficient 1 ends on alpha_max" in record.getMessage()

    def test_steps_recorded_and_logged(self, caplog):
        moments, _ = _instance(13, k=3)
        with caplog.at_level("DEBUG", logger="fastsvc"):
            params, _, trace = fit_sequential(moments)
        steps = trace.steps
        assert [s["sweep"] for s in steps] == sorted(s["sweep"] for s in steps)
        assert {s["sweep"] for s in steps} == set(range(trace.n_sweeps))
        assert all(1 <= s["n_eval"] <= 120 for s in steps)
        assert {s["search"] for s in steps if s["sweep"] == 0} == {"lbfgsb"}
        assert {s["search"] for s in steps if s["sweep"] > 0} == {"newton"}
        assert sum(s["n_failed"] for s in steps) == sum(trace.failed.values())
        for a in range(moments.k_varying):
            last = [s for s in steps if s["target"] == a][-1]
            assert last["end"] == (params.rho[a], params.alpha[a])
            assert last["collapsed"] == trace.collapsed[a]
            assert len(last["grad"]) == 2
        debug = [r for r in caplog.records if r.levelname == "DEBUG"]
        assert len(debug) == len(steps)

    def test_sweep_records_derive_from_the_steps(self):
        def step(sweep, loglik, n_eval):
            return dict(sweep=sweep, loglik=loglik, n_eval=n_eval)

        trace = FitTrace(steps=[step(0, -np.inf, 3), step(0, -5.0, 7), step(0, -np.inf, 2),
                                step(1, -np.inf, 4), step(2, -4.0, 6)])
        assert trace.n_sweeps == 3
        assert trace.eval_counts == [[3, 7, 2], [4], [6]]
        assert trace.sweep_logliks == [-5.0, -5.0, -4.0]
        assert FitTrace(steps=[step(0, -np.inf, 1)]).sweep_logliks == [-np.inf]
        assert FitTrace().n_sweeps == 0

    def test_later_steps_stop_at_the_loglik_rounding(self):
        # a Newton step whose predicted decrease is below the rounding of the
        # loglik gives up instead of halving down to NEWTON_MIN_T, which on
        # this fit took one later step 23 evaluations
        inst = gen_large(SimConfig(5000, 4, 2000, generator="large", knot_count=500))
        res = fit(inst.dataset, FitOptions(seed=0))
        later = [s["n_eval"] for s in res.trace.steps if s["sweep"] > 0]
        assert later and max(later) <= 10

    def test_bounds_compare_rho_in_log_space(self):
        # the search returns its lower rho end as exp(log(1e-6)), not 1e-6
        rho_min = float(np.exp(np.log(RHO_BOUNDS[0])))
        assert rho_min != RHO_BOUNDS[0]
        params = ShrinkageParams(np.array([rho_min, 0.0, 1.0, RHO_BOUNDS[1], 0.5]),
                                 np.array([1.0, 4.0, 0.0, 4.0, 2.0]))
        collapsed = np.array([False, True, False, False, False])
        assert bounds_reached(params, collapsed) == {
            0: ["rho_min"], 2: ["alpha_min"], 3: ["rho_max", "alpha_max"]}

    def test_single_coefficient_converges_in_two_sweeps(self):
        from fastsvc.compression import SvcDesign, compress

        _, basis, design, _ = random_instance(12, n=80, k=2, max_pairs=8)
        solo = SvcDesign(X=design.X, y=design.y, vectors=design.vectors,
                         values=design.values, svc_flags=np.array([True, False]))
        mom = compress(solo)
        params, final, trace = fit_sequential(mom)
        assert trace.converged
        assert trace.n_sweeps <= 2

    def test_trace_monotone_nondecreasing(self):
        moments, _ = _instance(13, k=3)
        _, _, trace = fit_sequential(moments)
        lls = np.array(trace.sweep_logliks)
        assert np.all(np.diff(lls) >= -1e-8)

    def test_final_result_consistent_with_compressed_form(self):
        moments, _ = _instance(14, k=3)
        params, final, _ = fit_sequential(moments)
        again = compressed_restricted_loglik(moments, params)
        assert final.loglik == pytest.approx(again.loglik, rel=1e-12)

    def test_pure_noise_collapses_every_coefficient(self):
        rng = np.random.default_rng(0)
        n = 2000
        coords = rng.standard_normal((n, 2))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.5 * rng.standard_normal(n)
        from fastsvc.model import SpatialDataset

        ds = SpatialDataset(coords=coords, y=y, X=X, svc_flags=np.ones(3, bool))
        res = fit(ds, FitOptions(basis="nystrom", seed=0))
        assert res.collapsed.all()
        assert np.all(res.params.rho == 0.0)

    def test_alpha_ordering_recovered_on_multiscale_data(self):
        wins = 0
        for seed in range(20):
            inst = gen_large(SimConfig(n=600, k=2, seed=seed, generator="large",
                                       knot_count=600))
            res = fit(inst.dataset, FitOptions(basis="nystrom", seed=0))
            wins += res.params.alpha[0] > res.params.alpha[1]
        assert wins >= 16  # large-scale coefficient gets the larger exponent

"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantities (run with ``pytest tests/test_acceptance.py -v -s`` to
see them live). Thresholds are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from fastsvc.compression import SvcDesign, compress
from fastsvc.eigenbasis import exact_basis, moran_coefficient, nystrom_basis
from fastsvc.geometry import kmeans_knots, mst_max_edge, proximity
from fastsvc.gwr import gwr_fit
from fastsvc.likelihood import (
    ShrinkageParams,
    compressed_restricted_loglik,
    direct_restricted_loglik,
)
from fastsvc.model import FitOptions, fit, reconstruct_svc
from fastsvc.sequential import build_cache, fast_loglik, fit_sequential
from fastsvc.simulation import SimConfig, gen_large, gen_small, rmse

from oracles import (
    dense_penalized_system,
    full_t_block,
    joint_optimize,
    random_instance,
    random_params,
    woodbury_coefficients,
)


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a))


def test_criterion_1_oracle_chain():
    """Direct, compressed, and fast-path likelihoods agree to 1e-8, and so do
    the coefficients and the fast route's residual term."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_ll, worst_coef, worst_d = 0.0, 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(40, 121))
        k = int(rng.choice([2, 3, 4]))
        L = int(rng.integers(6, 13))
        _, _, design, moments = random_instance(1000 + trial, n=n, k=k, max_pairs=L)
        params = random_params(2000 + trial, moments.k_varying)

        d = direct_restricted_loglik(design, params)
        c = compressed_restricted_loglik(moments, params)
        worst_ll = max(worst_ll, _rel(d.loglik, c.loglik))
        worst_coef = max(worst_coef,
                         np.abs(d.b_hat - c.b_hat).max(),
                         np.abs(d.u_hat - c.u_hat).max())
        for t in range(moments.k_varying):
            cache = build_cache(moments, params, t)
            f = fast_loglik(cache, params.rho[t], params.alpha[t])
            # the fast route returns no coefficients: the oracle forms them
            # from the cache's T and r_t by the Woodbury update
            z = woodbury_coefficients(moments, params, t, cache,
                                      params.rho[t], params.alpha[t])
            worst_ll = max(worst_ll, _rel(d.loglik, f.loglik))
            worst_d = max(worst_d, _rel(d.d_theta, f.d_theta))
            worst_coef = max(worst_coef,
                             np.abs(z[:k] - d.b_hat).max(),
                             np.abs(z[k:] - d.u_hat.ravel()).max())
    elapsed = time.perf_counter() - t0
    ok = worst_ll <= 1e-8 and worst_coef <= 1e-8 and worst_d <= 1e-8
    _report(1, ok, f"50 instances, worst loglik rel diff {worst_ll:.2e}, "
                   f"worst coefficient diff {worst_coef:.2e}, "
                   f"worst fast residual term rel diff {worst_d:.2e}", elapsed, 60)


def test_criterion_2_block_identities():
    """Woodbury solve matches dense inversion (1e-10); block determinant
    matches dense factorization (1e-8); the fast residual term matches the
    dense one (1e-8 relative)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_solve, worst_logdet, worst_d = 0.0, 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(40, 121))
        k = int(rng.choice([2, 3, 4]))
        L = int(rng.integers(6, 13))
        _, _, _, moments = random_instance(3000 + trial, n=n, k=k, max_pairs=L)
        params = random_params(4000 + trial, moments.k_varying)
        P, rhs = dense_penalized_system(moments, params)
        z = np.linalg.solve(P, rhs)
        sign, logdet = np.linalg.slogdet(P)
        assert sign > 0
        t = int(rng.integers(moments.k_varying))
        cache = build_cache(moments, params, t)
        res = fast_loglik(cache, params.rho[t], params.alpha[t])
        stacked = woodbury_coefficients(moments, params, t, cache,
                                        params.rho[t], params.alpha[t])
        worst_solve = max(worst_solve, np.abs(stacked - z).max())
        worst_d = max(worst_d, _rel(moments.yty - z @ rhs, res.d_theta))
        vt = params.rho[t] * moments.values ** (params.alpha[t] / 2.0)
        fast_logdet = cache.logdet_r + np.linalg.slogdet(
            full_t_block(cache) + np.diag(vt ** 2))[1]
        worst_logdet = max(worst_logdet, abs(fast_logdet - logdet))
    elapsed = time.perf_counter() - t0
    ok = worst_solve <= 1e-10 and worst_logdet <= 1e-8 and worst_d <= 1e-8
    _report(2, ok, f"50 instances, worst solve diff {worst_solve:.2e}, "
                   f"worst logdet diff {worst_logdet:.2e}, "
                   f"worst residual term rel diff {worst_d:.2e}", elapsed, 60)


def _timing_moments(n: int, seed: int):
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2))
    knots = kmeans_knots(coords, 200, seed=seed)
    basis = nystrom_basis(coords, knots, range_r=1.0, max_pairs=100)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    y = rng.standard_normal(n)
    design = SvcDesign(X=X, y=y, vectors=basis.vectors, values=basis.values,
                       svc_flags=np.ones(4, dtype=bool))
    return compress(design)


def test_criterion_3_likelihood_cost_independent_of_n():
    """1,000 compressed evaluations cost the same (within 20%) whether the
    moments came from 1e3 or 1e5 rows (K=4, L=100)."""
    t0 = time.perf_counter()
    times = {}
    # moderate shrinkage so the same parameters are well-conditioned at both
    # scales (approximated eigenvalues grow with N)
    params = ShrinkageParams(np.array([0.5, 0.3, 0.8, 0.2]),
                             np.array([1.0, 0.5, 1.5, 0.8]))
    for n in (1_000, 100_000):
        moments = _timing_moments(n, seed=5)
        assert moments.n_basis == 100 and moments.n_cov == 4
        for _ in range(5):  # warm up caches and BLAS
            compressed_restricted_loglik(moments, params)
        best = np.inf
        for _ in range(2):  # best-of-two shields against scheduler noise
            t1 = time.perf_counter()
            for _ in range(1000):
                compressed_restricted_loglik(moments, params)
            best = min(best, time.perf_counter() - t1)
        times[n] = best
    ratio = times[100_000] / times[1_000]
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 1.0) < 0.20
    _report(3, ok, f"1000 evals: {times[1_000]:.2f}s at N=1e3 vs "
                   f"{times[100_000]:.2f}s at N=1e5 (ratio {ratio:.3f})",
            elapsed, 300)


def test_criterion_4_stage_scaling():
    """Fit time grows <= 6x from N=10k to N=50k; estimation stage <= 1.5x.

    The sweep count is pinned (tol=0, max_sweeps=3), but that does not fix
    the estimation work: which coefficients collapse in a sweep depends on
    the data, so this setup makes 221 likelihood evaluations and 8 cache
    builds at N=10k against 235 and 10 at N=50k. The time per evaluation
    (cache builds included) is flat in N; the 1.5 bound on the stage ratio
    also absorbs that difference in work.
    """
    t0 = time.perf_counter()
    totals, stages = {}, {}
    options = FitOptions(basis="nystrom", knot_count=200, tol=0.0, max_sweeps=3,
                         seed=0)
    for n in (10_000, 50_000):
        inst = gen_large(SimConfig(n=n, k=4, seed=1, generator="large",
                                   knot_count=500))
        res = fit(inst.dataset, options)
        totals[n] = sum(res.timings[s] for s in ("basis", "compress", "estimate"))
        stages[n] = res.timings
    total_ratio = totals[50_000] / totals[10_000]
    est_ratio = stages[50_000]["estimate"] / stages[10_000]["estimate"]
    elapsed = time.perf_counter() - t0
    ok = total_ratio <= 6.0 and est_ratio <= 1.5
    _report(4, ok,
            f"total {totals[10_000]:.1f}s -> {totals[50_000]:.1f}s "
            f"(ratio {total_ratio:.2f} <= 6), estimation stage "
            f"{stages[10_000]['estimate']:.1f}s -> {stages[50_000]['estimate']:.1f}s "
            f"(ratio {est_ratio:.2f} <= 1.5)", elapsed, 900)


def test_criterion_5_sequential_vs_joint():
    """Surfaces from coordinate ascent match a joint 2K-parameter optimizer
    (median pooled correlation >= 0.99 over 10 seeds)."""
    t0 = time.perf_counter()
    pooled = []
    for seed in range(10):
        inst = gen_small(SimConfig(n=1000, k=4, seed=seed))
        ds = inst.dataset
        basis = exact_basis(ds.coords, mst_max_edge(ds.coords), max_pairs=75)
        design = SvcDesign(X=ds.X, y=ds.y, vectors=basis.vectors,
                           values=basis.values, svc_flags=ds.svc_flags)
        moments = compress(design)
        init = ShrinkageParams.constant(moments.k_varying)

        p_seq, r_seq, _ = fit_sequential(moments, init=init)
        p_joint, _ = joint_optimize(moments, init)
        r_joint = compressed_restricted_loglik(moments, p_joint)

        surf_seq = reconstruct_svc(basis, r_seq.b_hat, p_seq, r_seq.u_hat,
                                   ds.svc_flags)
        surf_joint = reconstruct_svc(basis, r_joint.b_hat, p_joint,
                                     r_joint.u_hat, ds.svc_flags)
        cols = inst.eval_columns
        c = np.corrcoef(surf_seq[:, cols].ravel(), surf_joint[:, cols].ravel())[0, 1]
        pooled.append(c)
    median = float(np.median(pooled))
    elapsed = time.perf_counter() - t0
    ok = median >= 0.99
    _report(5, ok, f"pooled surface correlations {np.round(pooled, 4).tolist()}, "
                   f"median {median:.4f} >= 0.99", elapsed, 600)


@pytest.fixture(scope="module")
def multiscale_runs():
    """Shared N=2000, K=4, alpha=(2,2,0.5,0.5) instances with their fits."""
    runs = []
    options = FitOptions(basis="nystrom", seed=0)
    for seed in range(10):
        inst = gen_large(SimConfig(n=2000, k=4, seed=seed, generator="large",
                                   knot_count=2000))
        res = fit(inst.dataset, options)
        runs.append((inst, res))
    return runs


def _group_cols(inst, alpha):
    return inst.eval_columns[inst.alpha_by_column[inst.eval_columns] == alpha]


def test_criterion_6_svc_recovery(multiscale_runs):
    """Median correlation with the truth: >= 0.90 for large-scale surfaces,
    >= 0.70 for small-scale surfaces (N=2000, 10 seeds).

    Known red: the small-scale threshold exceeds what N=2000 supports under
    this generator. The posterior mean computed with the *true* shrinkage
    parameters and the generator's own basis (the best any estimator can do)
    reaches only ~0.1-0.5 correlation on the alpha=0.5 surfaces here, because
    their amplitude is far below the noise floor tied to total signal
    variance. The threshold is asserted as stated rather than weakened; see
    the large-sample demos for the regime where small-scale recovery works.
    """
    t0 = time.perf_counter()
    cors = {2.0: [], 0.5: []}
    for inst, res in multiscale_runs:
        for alpha in (2.0, 0.5):
            cols = _group_cols(inst, alpha)
            per_col = []
            for j in cols:
                est = res.beta_surfaces[:, j]
                if est.std() == 0:  # collapsed estimate recovers no pattern
                    per_col.append(0.0)
                else:
                    per_col.append(np.corrcoef(inst.true_beta[:, j], est)[0, 1])
            cors[alpha].append(float(np.mean(per_col)))
    med_large = float(np.median(cors[2.0]))
    med_small = float(np.median(cors[0.5]))
    elapsed = time.perf_counter() - t0
    ok = med_large >= 0.90 and med_small >= 0.70
    _report(6, ok, f"median corr large-scale {med_large:.3f} (>= 0.90), "
                   f"small-scale {med_small:.3f} (>= 0.70)", elapsed, 600)


def test_criterion_7_beats_gwr_on_large_scale(multiscale_runs):
    """Median RMSE on large-scale surfaces: eigenbasis SVC strictly below GWR."""
    t0 = time.perf_counter()
    rmse_msvc, rmse_gwr = [], []
    for inst, res in multiscale_runs:
        cols = _group_cols(inst, 2.0)
        gfit = gwr_fit(inst.dataset)
        rmse_msvc.append(rmse(inst.true_beta[:, cols], res.beta_surfaces[:, cols]))
        rmse_gwr.append(rmse(inst.true_beta[:, cols], gfit.beta_surfaces[:, cols]))
    med_msvc = float(np.median(rmse_msvc))
    med_gwr = float(np.median(rmse_gwr))
    elapsed = time.perf_counter() - t0
    ok = med_msvc < med_gwr
    _report(7, ok, f"median large-scale RMSE: svc {med_msvc:.4f} < gwr {med_gwr:.4f}",
            elapsed, 1200)


def test_criterion_8_generator_r_squared():
    """Realized model R^2 of the small-sample generator stays in [0.72, 0.82]."""
    t0 = time.perf_counter()
    r2s = []
    for seed in range(20):
        inst = gen_small(SimConfig(n=1000, k=2, seed=seed))
        signal = np.sum(inst.dataset.X * inst.true_beta, axis=1)
        resid = inst.dataset.y - signal
        r2s.append(1.0 - np.var(resid) / np.var(inst.dataset.y))
    lo, hi = min(r2s), max(r2s)
    elapsed = time.perf_counter() - t0
    ok = lo > 0.72 and hi < 0.82
    _report(8, ok, f"20 seeds, realized R^2 in [{lo:.3f}, {hi:.3f}]", elapsed, 60)


def test_criterion_9_eigen_diagnostics():
    """Exact-basis invariants on 20 random configurations (N <= 200)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_mean, worst_mc = 0.0, 0.0
    for trial in range(20):
        n = int(rng.integers(30, 201))
        coords = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
        r = mst_max_edge(coords)
        basis = exact_basis(coords, r)
        worst_mean = max(worst_mean, float(np.abs(basis.vectors.mean(axis=0)).max()))
        C = proximity(coords, coords, r, zero_diagonal=True)
        scale = n / C.sum()
        for l in range(basis.n_pairs):
            mc = moran_coefficient(basis.vectors[:, l], C)
            expect = scale * basis.values[l]
            worst_mc = max(worst_mc, abs(mc - expect) / abs(expect))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-10 and worst_mc < 1e-8
    _report(9, ok, f"20 configs, worst |column mean| {worst_mean:.2e} (< 1e-10), "
                   f"worst Moran relation rel err {worst_mc:.2e} (< 1e-8)",
            elapsed, 60)

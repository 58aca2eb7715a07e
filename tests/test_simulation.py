import re

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from fastsvc.eigenbasis import moran_coefficient
from fastsvc.errors import ShapeMismatch, SizeGuardExceeded
from fastsvc.geometry import proximity
from fastsvc.simulation import (
    ExperimentSpec,
    REPORT_COLUMNS,
    SimConfig,
    bias,
    corr,
    gen_large,
    gen_small,
    generate,
    rmse,
    run_experiment,
    write_report,
)
from fastsvc.model import FitOptions


class TestGenSmall:
    def test_realized_r_squared_band(self):
        for seed in range(5):
            inst = gen_small(SimConfig(n=1000, k=2, seed=seed))
            ds = inst.dataset
            signal = np.sum(ds.X * inst.true_beta, axis=1)
            r2 = 1.0 - np.var(ds.y - signal) / np.var(ds.y)
            assert 0.72 < r2 < 0.82

    def test_surface_means_near_one(self):
        inst = gen_small(SimConfig(n=2000, k=3, seed=1))
        coords = inst.dataset.coords
        smoother = np.exp(-cdist(coords, coords))
        smoother /= smoother.sum(axis=1, keepdims=True)
        # mean(beta_k) = 1 + (1'C eps)/N with eps standard normal, so its
        # standard error reflects the smoothing, not 1/sqrt(N)
        se = np.linalg.norm(smoother.sum(axis=0)) / len(coords)
        beta = inst.true_beta[:, inst.eval_columns]
        for col in beta.T:
            assert abs(col.mean() - 1.0) < 3 * se

    def test_smoother_row_standardization(self):
        # the moving-average weights used by the generator are row-stochastic
        inst = gen_small(SimConfig(n=100, k=1, seed=2))
        smoother = np.exp(-cdist(inst.dataset.coords, inst.dataset.coords))
        smoother /= smoother.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(smoother.sum(axis=1), 1.0, atol=1e-12)

    def test_intercept_column_prepended(self):
        inst = gen_small(SimConfig(n=50, k=2, seed=3))
        assert inst.dataset.n_cov == 3
        np.testing.assert_array_equal(inst.dataset.X[:, 0], 1.0)
        np.testing.assert_array_equal(inst.true_beta[:, 0], 0.0)
        np.testing.assert_array_equal(inst.eval_columns, [1, 2])

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            gen_small(SimConfig(n=5001, k=2, seed=0))

    def test_deterministic(self):
        a = gen_small(SimConfig(n=80, k=2, seed=4))
        b = gen_small(SimConfig(n=80, k=2, seed=4))
        np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
        np.testing.assert_array_equal(a.true_beta, b.true_beta)
        assert a.true_sigma2 == b.true_sigma2


class TestGenLarge:
    def test_alpha_assignment_and_first_column_constant(self):
        inst = gen_large(SimConfig(n=200, k=5, seed=0, generator="large",
                                   knot_count=200))
        np.testing.assert_array_equal(inst.alpha_by_column, [2.0, 2.0, 2.0, 0.5, 0.5])
        np.testing.assert_array_equal(inst.dataset.X[:, 0], 1.0)
        assert inst.dataset.n_cov == 5

    def test_generator_rank_bounded_by_knots(self):
        inst = gen_large(SimConfig(n=300, k=2, seed=1, generator="large",
                                   knot_count=150))
        # surfaces come from at most knot_count eigenvectors; nothing to see
        # beyond shape and finiteness here
        assert inst.true_beta.shape == (300, 2)
        assert np.isfinite(inst.true_beta).all()

    def test_large_scale_column_more_autocorrelated(self):
        wins = 0
        for seed in range(20):
            inst = gen_large(SimConfig(n=2000, k=2, seed=seed, generator="large",
                                       knot_count=1000))
            C = proximity(inst.dataset.coords, inst.dataset.coords, 1.0,
                          zero_diagonal=True)
            mc_large = moran_coefficient(inst.true_beta[:, 0], C)
            mc_small = moran_coefficient(inst.true_beta[:, 1], C)
            wins += mc_large > mc_small
        assert wins >= 18

    def test_noise_rule(self):
        inst = gen_large(SimConfig(n=400, k=2, seed=2, generator="large",
                                   knot_count=400))
        signal = np.sum(inst.dataset.X * inst.true_beta, axis=1)
        assert inst.true_sigma2 == pytest.approx(0.3 * np.var(signal), rel=1e-12)

    def test_deterministic(self):
        cfg = SimConfig(n=150, k=3, seed=5, generator="large", knot_count=150)
        a, b = gen_large(cfg), gen_large(cfg)
        np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
        np.testing.assert_array_equal(a.true_beta, b.true_beta)


class TestMetrics:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((30, 2))
        assert rmse(x, x) == 0.0
        assert bias(x, x) == 0.0
        assert corr(x, x) == pytest.approx(1.0)

    def test_constant_shift(self):
        x = np.random.default_rng(1).standard_normal(50)
        est = x + 0.7
        assert rmse(x, est) == pytest.approx(0.7)
        assert bias(x, est) == pytest.approx(-0.7)  # truth minus estimate
        assert corr(x, est) == pytest.approx(1.0)

    def test_matches_scalar_loops(self):
        rng = np.random.default_rng(2)
        t, e = rng.standard_normal(40), rng.standard_normal(40)
        want_rmse = np.sqrt(sum((a - b) ** 2 for a, b in zip(t, e)) / 40)
        want_bias = sum(a - b for a, b in zip(t, e)) / 40
        assert rmse(t, e) == pytest.approx(want_rmse, rel=1e-12)
        assert bias(t, e) == pytest.approx(want_bias, rel=1e-12)
        tm, em = t.mean(), e.mean()
        want_corr = (sum((a - tm) * (b - em) for a, b in zip(t, e))
                     / np.sqrt(sum((a - tm) ** 2 for a in t))
                     / np.sqrt(sum((b - em) ** 2 for b in e)))
        assert corr(t, e) == pytest.approx(want_corr, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rmse(np.zeros(3), np.zeros(4))

    def test_unbiased_estimator_bias_shrinks(self):
        rng = np.random.default_rng(3)
        n, reps = 200, 50
        truth = rng.standard_normal((n, reps))
        est = truth + rng.standard_normal((n, reps))
        assert abs(bias(truth, est)) < 3 * rmse(truth, est) / np.sqrt(n * reps)


class TestRunExperiment:
    @pytest.mark.parametrize("field,value,named", [
        ("methods", (), "method, got ()"),
        ("n_values", (), "sample size, got ()"),
        ("reps", 0, "got 0"),
    ], ids=["methods", "n_values", "reps"])
    def test_empty_campaign_rejected_at_construction(self, field, value, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            ExperimentSpec(**{field: value})

    def test_empty_report_is_the_header(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report([], out)
        assert out.read_text().strip() == ",".join(REPORT_COLUMNS)

    def test_unknown_method_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'foo'"):
            ExperimentSpec(methods=("msvc", "foo"))

    @pytest.mark.parametrize("n_values,k", [((100, 2), 2), ((100,), 0)])
    def test_sample_sizes_checked_at_construction(self, n_values, k):
        with pytest.raises(ValueError, match=f"n={min(n_values)}, k={k}"):
            ExperimentSpec(n_values=n_values, k=k)

    def test_row_count_arithmetic(self, tmp_path):
        spec = ExperimentSpec(methods=("msvc",), n_values=(150, 200), k=2, reps=2,
                              seed=0, generator="large", gen_knot_count=150,
                              fit_options=FitOptions(basis="nystrom", seed=0))
        rows = run_experiment(spec)
        # methods x n_values x reps x alpha groups = 1 * 2 * 2 * 2
        assert len(rows) == 8
        for row in rows:
            assert set(row) == set(REPORT_COLUMNS)
        out = tmp_path / "report.csv"
        write_report(rows, out)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(REPORT_COLUMNS)
        assert len(out.read_text().splitlines()) == 9

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(methods=("msvc",), n_values=(150,), k=2, reps=2,
                              seed=3, generator="large", gen_knot_count=150,
                              fit_options=FitOptions(basis="nystrom", seed=0))
        a, b = run_experiment(spec), run_experiment(spec)
        for ra, rb in zip(a, b):
            assert ra["rmse"] == rb["rmse"] and ra["corr"] == rb["corr"]

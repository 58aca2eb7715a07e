import csv
import json
import logging

import numpy as np
import pytest

from fastsvc.cli import main
from fastsvc.gwr import GWR_SIZE_GUARD
from fastsvc.model import FitOptions, build_basis
from fastsvc.simulation import REPORT_COLUMNS


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture()
def sim_prefix(tmp_path):
    prefix = tmp_path / "sim"
    rc = main(["simulate", "--generator", "large", "--n", "250", "--k", "2",
               "--seed", "7", "--knots", "250", "--out", str(prefix)])
    assert rc == 0
    return prefix


def _read_table(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        args = ["simulate", "--generator", "large", "--n", "120", "--k", "2",
                "--seed", "3", "--knots", "120"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for suffix in (".data.csv", ".truth.csv", ".meta.json"):
            assert (a.parent / (a.name + suffix)).read_bytes() == \
                   (b.parent / (b.name + suffix)).read_bytes()

    def test_meta_contents(self, sim_prefix):
        meta = json.loads((sim_prefix.parent / "sim.meta.json").read_text())
        assert meta["n"] == 250 and meta["k"] == 2 and meta["generator"] == "large"
        assert meta["true_sigma2"] > 0
        assert meta["alpha_by_column"] == [2.0, 0.5]


class TestFit:
    def test_surfaces_round_trip_full_precision(self, sim_prefix, tmp_path):
        out = tmp_path / "fitted"
        rc = main(["fit", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                   "--x", "x1", "--coords", "px,py", "--basis", "exact",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        header, data = _read_table(str(out) + ".beta.csv")
        assert header == ["px", "py", "beta_intercept", "beta_x1"]

        # refit in-process on the reloaded table; surfaces must round-trip
        # bit for bit through the 17-digit CSV
        from fastsvc.model import FitOptions, SpatialDataset, fit

        dh, dd = _read_table(str(sim_prefix) + ".data.csv")
        X = np.column_stack([np.ones(dd.shape[0]), dd[:, dh.index("x1")]])
        ds = SpatialDataset(coords=dd[:, [dh.index("px"), dh.index("py")]],
                            y=dd[:, dh.index("y")], X=X,
                            svc_flags=np.ones(2, bool))
        res = fit(ds, FitOptions(basis="exact", seed=0))
        np.testing.assert_array_equal(data[:, 2:], res.beta_surfaces)

        summary = json.loads((tmp_path / "fitted.summary.json").read_text())
        assert summary["loglik"] == pytest.approx(res.loglik)
        assert summary["sigma2"] == pytest.approx(res.sigma2_hat)
        assert summary["failed_evaluations"] == res.trace.failed
        assert summary["evaluations"] == sum(map(sum, res.trace.eval_counts)) > 0
        names = ["intercept", "x1"]
        assert summary["at_bound"] == {names[a]: ends
                                       for a, ends in res.trace.at_bound.items()}
        assert summary["steps"] == [
            {**step, "target": names[step["target"]], "start": list(step["start"]),
             "end": list(step["end"])} for step in res.trace.steps]
        assert set(summary["timings_s"]) == {"basis", "range", "knots", "eigen",
                                             "compress", "estimate", "cache", "search",
                                             "reconstruct", "total"}

    def test_svc_default_all_varying(self, sim_prefix, tmp_path):
        out = tmp_path / "fit2"
        rc = main(["fit", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                   "--x", "x1", "--coords", "px,py", "--basis", "exact",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "fit2.summary.json").read_text())
        assert set(summary["rho"]) == {"intercept", "x1"}
        assert "knots" not in summary

    def test_nystrom_summary_reports_knots(self, sim_prefix, tmp_path):
        out = tmp_path / "nys"
        rc = main(["fit", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                   "--x", "x1", "--coords", "px,py", "--basis", "nystrom",
                   "--knots", "40", "--seed", "0", "--out", str(out)])
        assert rc == 0
        from fastsvc.geometry import kmeans_knots

        dh, dd = _read_table(str(sim_prefix) + ".data.csv")
        knots = kmeans_knots(dd[:, [dh.index("px"), dh.index("py")]], 40, seed=0)
        summary = json.loads((tmp_path / "nys.summary.json").read_text())
        assert summary["knots"] == {"count": 40, "sites": 250, "passes": knots.passes,
                                    "converged": True}
        assert knots.passes > 1

    def test_summary_and_debug_log_report_the_basis(self, sim_prefix, tmp_path, caplog):
        out = tmp_path / "diag"
        with caplog.at_level(logging.DEBUG, logger="fastsvc"):
            rc = main(["fit", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                       "--x", "x1", "--coords", "px,py", "--basis", "nystrom",
                       "--knots", "40", "--seed", "0", "--out", str(out)])
        assert rc == 0
        dh, dd = _read_table(str(sim_prefix) + ".data.csv")
        basis = build_basis(dd[:, [dh.index("px"), dh.index("py")]],
                            FitOptions(basis="nystrom", knot_count=40, seed=0))
        summary = json.loads((tmp_path / "diag.summary.json").read_text())
        assert (summary["n_eigenpairs"], summary["lambda_1"], summary["lambda_L"]) == (
            basis.n_pairs, basis.values[0], basis.values[-1])
        assert basis.values[0] > basis.values[-1] > 0
        lines = [r.getMessage() for r in caplog.records if "basis:" in r.getMessage()]
        knots = basis.knots
        assert lines == [
            f"nystrom basis: range_r={basis.range_r:.6g} (spanning tree), 40 knots from 250 "
            f"sites after {knots.passes} passes (converged=True), L={basis.n_pairs}, "
            f"lambda_1={basis.values[0]:.6g}, lambda_L={basis.values[-1]:.6g}"]

    def test_svc_subset(self, sim_prefix, tmp_path):
        # empty --svc keeps only the (always varying) intercept surface
        out = tmp_path / "fit3"
        rc = main(["fit", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                   "--x", "x1", "--svc", "", "--coords", "px,py",
                   "--basis", "exact", "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "fit3.summary.json").read_text())
        assert set(summary["rho"]) == {"intercept"}
        header, data = _read_table(str(out) + ".beta.csv")
        x1_col = data[:, header.index("beta_x1")]
        assert np.all(x1_col == x1_col[0])  # constant coefficient

    def test_missing_column_exit_2(self, sim_prefix, capsys):
        rc = main(["fit", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                   "--x", "x1", "--coords", "lon,lat"])
        assert rc == 2
        assert "lon" in capsys.readouterr().err

    def test_non_numeric_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["px", "py", "y", "x1"],
                   [[0, 0, 1.0, 2.0], [1, 1, "oops", 0.5], [2, 0, 1.0, 1.0],
                    [0, 2, 0.5, 0.1], [1, 2, 0.2, 0.9]])
        rc = main(["fit", "--input", str(path), "--y", "y", "--x", "x1",
                   "--coords", "px,py"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "'y'" in err

    @pytest.mark.parametrize("column,cell", [("px", "nan"), ("y", "nan"), ("x1", "-inf")])
    def test_non_finite_cell_exit_2(self, tmp_path, capsys, column, cell):
        header = ["px", "py", "y", "x1"]
        rows = [[0, 0, 1.0, 2.0], [1, 1, 0.3, 0.5], [2, 0, 1.0, 1.0],
                [0, 2, 0.5, 0.1], [1, 2, 0.2, 0.9]]
        rows[2][header.index(column)] = cell
        path = tmp_path / "nonfinite.csv"
        _write_csv(path, header, rows)
        rc = main(["fit", "--input", str(path), "--y", "y", "--x", "x1",
                   "--coords", "px,py"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 4" in err and repr(column) in err

    def test_too_few_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        _write_csv(path, ["px", "py", "y", "x1"],
                   [[0, 0, 1.0, 2.0], [1, 1, 0.5, 0.1], [2, 0, 1.0, 1.0]])
        rc = main(["fit", "--input", str(path), "--y", "y", "--x", "x1",
                   "--coords", "px,py"])
        assert rc == 2
        assert "rows" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["collinear", "constant", "duplicated"])
    def test_dependent_covariate_exit_2(self, tmp_path, capsys, case):
        # rejected when the dataset is built, before any basis work
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(40)
        x2 = {"collinear": 2.0 * x1, "constant": np.full(40, 3.0), "duplicated": x1}[case]
        rows = np.column_stack([rng.standard_normal((40, 3)), x1, x2])
        path = tmp_path / "dependent.csv"
        _write_csv(path, ["px", "py", "y", "x1", "x2"], rows.tolist())
        rc = main(["fit", "--input", str(path), "--y", "y", "--x", "x1,x2",
                   "--coords", "px,py", "--basis", "exact"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'x2'" in err and "'x1'" not in err


class TestInvalidOptions:
    @pytest.mark.parametrize("command,flags,named", [
        ("fit", ["--knots", "0"], "got 0"),
        ("fit", ["--max-eigenpairs", "0"], "got 0"),
        ("gwr", ["--bmin", "5", "--bmax", "1"], "got 5.0 and 1.0"),
        ("gwr", ["--bandwidth", "-1"], "got -1.0"),
        ("gwr", ["--bmin", "1e9"], "got 1000000000.0 and"),
        ("simulate", ["--k", "0"], "k=0"),
        ("eigen", ["--range", "0"], "got 0.0"),
        ("eigen", ["--range", "-1"], "got -1.0"),
        ("eigen", ["--range", "nan"], "got nan"),
        ("eigen", ["--range", "inf"], "got inf"),
        ("gwr", ["--grid-points", "0"], "got 0"),
        ("fit", ["--seed", "-1"], "got -1"),
        ("eigen", ["--seed", "-1"], "got -1"),
        ("simulate", ["--k", "1", "--seed", "-1"], "got -1"),
        ("benchmark", ["--seed", "-1"], "got -1"),
        ("benchmark", ["--n", "abc"], "'abc'"),
        ("benchmark", ["--n", ",,"], "sample size, got ()"),
        ("benchmark", ["--methods", ""], "method, got ()"),
        ("benchmark", ["--reps", "0"], "reps must be positive, got 0"),
    ], ids=["fit-knots", "fit-max-eigenpairs", "gwr-bmin-above-bmax", "gwr-bandwidth",
            "gwr-bmin-above-data-default", "simulate-k", "eigen-range-zero",
            "eigen-range-negative", "eigen-range-nan", "eigen-range-inf",
            "gwr-grid-points", "fit-seed", "eigen-seed", "simulate-seed",
            "benchmark-seed", "benchmark-n-not-a-number", "benchmark-n-empty",
            "benchmark-methods-empty", "benchmark-reps-zero"])
    def test_exit_2_naming_the_value(self, tmp_path, capsys, command, flags, named):
        out = str(tmp_path / "out")
        if command in ("simulate", "benchmark"):
            argv = [command, "--n", "50", *flags, "--out", out]
        else:
            path = tmp_path / "d.csv"
            _write_csv(path, ["px", "py", "y", "x1"],
                       [[0, 0, 1.0, 2.0], [1, 1, 0.3, 0.5], [2, 0, 1.0, 1.0],
                        [0, 2, 0.5, 0.1], [1, 2, 0.2, 0.9]])
            columns = [] if command == "eigen" else ["--y", "y", "--x", "x1"]
            argv = [command, "--input", str(path), *columns, *flags, "--out", out]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))


class TestEigen:
    def test_export_round_trip_orthonormal(self, tmp_path):
        prefix = tmp_path / "pts"
        rc = main(["simulate", "--generator", "small", "--n", "100", "--k", "1",
                   "--seed", "1", "--out", str(prefix)])
        assert rc == 0
        out = tmp_path / "eig"
        rc = main(["eigen", "--input", str(prefix) + ".data.csv",
                   "--coords", "px,py", "--basis", "exact", "--out", str(out)])
        assert rc == 0
        header, vectors = _read_table(str(out) + ".vectors.csv")
        E = vectors[:, 2:]
        gram = E.T @ E
        np.testing.assert_allclose(gram, np.eye(E.shape[1]), atol=1e-8)
        vheader, values = _read_table(str(out) + ".values.csv")
        assert vheader == ["lambda"]
        assert values.shape[0] == E.shape[1]
        assert np.all(np.diff(values[:, 0]) <= 0) and values.min() > 0

    def test_streamed_nystrom_export_is_bytes_of_the_basis(self, tmp_path):
        # more sites than one Nystrom evaluation block, so the export streams
        coords = np.random.default_rng(5).standard_normal((9000, 2))
        path = tmp_path / "sites.csv"
        _write_csv(path, ["px", "py"], [[f"{v:.17g}" for v in row] for row in coords])
        out = tmp_path / "eig"
        rc = main(["eigen", "--input", str(path), "--coords", "px,py", "--basis", "nystrom",
                   "--knots", "20", "--max-eigenpairs", "3", "--out", str(out)])
        assert rc == 0
        basis = build_basis(coords, FitOptions(knot_count=20, basis="nystrom",
                                               max_eigenpairs=3))
        want = tmp_path / "want.csv"
        _write_csv(want, ["px", "py", "e1", "e2", "e3"],
                   [[f"{v:.17g}" for v in row]
                    for row in np.column_stack([coords, basis.vectors])])
        assert (tmp_path / "eig.vectors.csv").read_bytes() == want.read_bytes()


class TestGwrCommand:
    def test_outputs(self, sim_prefix, tmp_path):
        out = tmp_path / "g"
        rc = main(["gwr", "--input", str(sim_prefix) + ".data.csv", "--y", "y",
                   "--x", "x1", "--coords", "px,py", "--bandwidth", "1.0",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "g.summary.json").read_text())
        assert summary["bandwidth"] == 1.0
        header, data = _read_table(str(out) + ".beta.csv")
        assert header == ["px", "py", "beta_intercept", "beta_x1"]
        assert np.isfinite(data).all()

    def test_size_guard_exit_3(self, tmp_path, capsys):
        # the guard fires before any kernel work
        n = GWR_SIZE_GUARD + 1
        rng = np.random.default_rng(0)
        path = tmp_path / "big.csv"
        _write_csv(path, ["px", "py", "y", "x1"], rng.standard_normal((n, 4)).tolist())
        rc = main(["gwr", "--input", str(path), "--y", "y", "--x", "x1",
                   "--bandwidth", "1.0", "--out", str(tmp_path / "g")])
        assert rc == 3
        assert "SizeGuardExceeded" in capsys.readouterr().err


class TestBenchmark:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["benchmark", "--methods", "msvc,gwr", "--n", "150,200",
                   "--k", "2", "--reps", "2", "--seed", "0",
                   "--gen-knots", "150", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        # header + methods(2) x sizes(2) x reps(2) x alpha groups(2)
        assert len(rows) == 1 + 16
        assert rows[0] == list(REPORT_COLUMNS)

    def test_unknown_method_exit_2(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["benchmark", "--methods", "msvc,foo", "--n", "100", "--k", "2",
                   "--reps", "1", "--out", str(out)])
        assert rc == 2
        assert "'foo'" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_size_below_k_exit_2(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["benchmark", "--n", "1", "--k", "2", "--reps", "1", "--out", str(out)])
        assert rc == 2
        assert "n=1, k=2" in capsys.readouterr().err
        assert not out.exists()

"""Command-line front end: fit, simulate, benchmark, eigen, gwr.

All tabular I/O is headered CSV with 17-significant-digit floats (exact
round trip for doubles); summaries are JSON. Exit codes: 0 success, 2
malformed input or an invalid option value (message names the offending
column/row or value), 3 numerical or estimation failure (message names the
typed error).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .eigenbasis import DEFAULT_MAX_PAIRS, NYSTROM_CHUNK
from .errors import DependentCovariates, FastSvcError
from .gwr import GwrGrid, gwr_fit
from .model import FitOptions, SpatialDataset, build_basis, fit
from .simulation import ExperimentSpec, SimConfig, generate, run_experiment, write_report

FMT = "%.17g"


class InputError(Exception):
    """Malformed input table or flag value; maps to exit code 2."""


def _checked(fn, **kwargs):
    """Build an options object (or call ``fn``); a value it rejects is an
    input error."""
    try:
        return fn(**kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _fmt(value: float) -> str:
    return FMT % value


def _read_table(path: str):
    """Headered CSV into (column names, float matrix)."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path!r} is empty") from None
        header = [h.strip() for h in header]
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path!r} row {i}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                bad = next(j for j, v in enumerate(row) if not _is_finite(v))
                raise InputError(
                    f"{path!r} row {i}, column {header[bad]!r}: not a finite number: "
                    f"{row[bad]!r}")
            rows.append(values)
    if not rows:
        raise InputError(f"{path!r} has no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def _is_finite(v: str) -> bool:
    try:
        return math.isfinite(float(v))
    except ValueError:
        return False


def _column(header, data, name):
    if name not in header:
        raise InputError(f"missing column {name!r} (have: {', '.join(header)})")
    return data[:, header.index(name)]


def _split_names(arg: str):
    names = [s.strip() for s in arg.split(",") if s.strip()]
    if not names:
        raise InputError(f"empty column list {arg!r}")
    return names


def _coord_names(arg: str):
    names = _split_names(arg)
    if len(names) != 2:
        raise InputError("--coords needs exactly two comma-separated column names")
    return names


def _load_dataset(args):
    header, data = _read_table(args.input)
    px_name, py_name = _coord_names(args.coords)
    coords = np.column_stack([_column(header, data, px_name),
                              _column(header, data, py_name)])
    y = _column(header, data, args.y)
    x_names = _split_names(args.x)
    X = np.column_stack([np.ones(data.shape[0])]
                        + [_column(header, data, nm) for nm in x_names])
    col_names = ["intercept"] + x_names
    if data.shape[0] < X.shape[1] + 2:
        raise InputError(
            f"need at least {X.shape[1] + 2} rows for {X.shape[1]} coefficients, "
            f"got {data.shape[0]}")

    flags = np.ones(X.shape[1], dtype=bool)
    if getattr(args, "svc", None) is not None:
        # empty list means only the intercept coefficient varies
        chosen = {s.strip() for s in args.svc.split(",") if s.strip()}
        unknown = chosen - set(x_names)
        if unknown:
            raise InputError(f"--svc names not among --x columns: {sorted(unknown)}")
        flags = np.array([True] + [nm in chosen for nm in x_names])
    try:
        dataset = SpatialDataset(coords=coords, y=y, X=X, svc_flags=flags)
    except DependentCovariates as exc:
        named = ", ".join(repr(col_names[j]) for j in exc.columns)
        raise InputError(f"covariate column(s) {named} are linear combinations of "
                         "the intercept and the --x columns before them") from exc
    return dataset, col_names, (px_name, py_name)


def _write_surfaces(path, coords, names, surfaces):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["px", "py"] + [f"beta_{nm}" for nm in names])
        for i in range(coords.shape[0]):
            writer.writerow([_fmt(coords[i, 0]), _fmt(coords[i, 1])]
                            + [_fmt(v) for v in surfaces[i]])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_fit(args) -> int:
    options = _checked(FitOptions, knot_count=args.knots, basis=args.basis,
                       seed=args.seed, max_eigenpairs=args.max_eigenpairs)
    dataset, names, _ = _load_dataset(args)
    t0 = time.perf_counter()
    result = fit(dataset, options)
    total = time.perf_counter() - t0
    _write_surfaces(f"{args.out}.beta.csv", dataset.coords, names, result.beta_surfaces)
    varying = [names[j] for j in np.flatnonzero(dataset.svc_flags)]
    summary = {
        "n": dataset.n_obs,
        "k": dataset.n_cov,
        "basis_kind": result.basis.kind,
        "n_eigenpairs": result.basis.n_pairs,
        "lambda_1": float(result.basis.values[0]),
        "lambda_L": float(result.basis.values[-1]),
        "range_r": result.basis.range_r,
        "b_hat": dict(zip(names, result.b_hat.tolist())),
        "rho": dict(zip(varying, result.params.rho.tolist())),
        "alpha": dict(zip(varying, result.params.alpha.tolist())),
        "collapsed": dict(zip(varying, result.collapsed.astype(bool).tolist())),
        "sigma2": result.sigma2_hat,
        "loglik": result.loglik,
        "sweeps": result.trace.n_sweeps,
        "evaluations": sum(map(sum, result.trace.eval_counts)),
        "converged": result.trace.converged,
        "failed_evaluations": result.trace.failed,
        "at_bound": {varying[a]: ends for a, ends in result.trace.at_bound.items()},
        "steps": [{**step, "target": varying[step["target"]]}
                  for step in result.trace.steps],
        "timings_s": {**result.timings, "total": total},
    }
    knots = result.basis.knots
    if knots is not None:
        summary["knots"] = {"count": knots.count, "sites": knots.sites,
                            "passes": knots.passes, "converged": knots.converged}
    _write_json(f"{args.out}.summary.json", summary)
    print(f"fit: N={dataset.n_obs} K={dataset.n_cov} loglik={result.loglik:.6f} "
          f"sigma2={result.sigma2_hat:.6g} -> {args.out}.beta.csv, {args.out}.summary.json")
    return 0


def cmd_simulate(args) -> int:
    config = _checked(SimConfig, n=args.n, k=args.k, seed=args.seed,
                      generator=args.generator, knot_count=min(args.knots, args.n))
    instance = generate(config)
    ds = instance.dataset
    x_names = [f"x{j}" for j in range(1, ds.n_cov)]
    with open(f"{args.out}.data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["px", "py", "y"] + x_names)
        for i in range(ds.n_obs):
            writer.writerow([_fmt(ds.coords[i, 0]), _fmt(ds.coords[i, 1]),
                             _fmt(ds.y[i])] + [_fmt(v) for v in ds.X[i, 1:]])
    _write_surfaces(f"{args.out}.truth.csv", ds.coords,
                    ["intercept"] + x_names, instance.true_beta)
    _write_json(f"{args.out}.meta.json", {
        "generator": config.generator,
        "n": config.n,
        "k": config.k,
        "seed": config.seed,
        "true_sigma2": instance.true_sigma2,
        "alpha_by_column": None if instance.alpha_by_column is None
        else instance.alpha_by_column.tolist(),
    })
    print(f"simulate: wrote {args.out}.data.csv, {args.out}.truth.csv, {args.out}.meta.json")
    return 0


def cmd_benchmark(args) -> int:
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    n_values = _checked(lambda: tuple(int(s) for s in args.n.split(",") if s.strip()))
    options = _checked(FitOptions, basis="nystrom", seed=args.seed)
    spec = _checked(ExperimentSpec, methods=methods, n_values=n_values, k=args.k,
                    reps=args.reps, seed=args.seed, generator=args.generator,
                    gen_knot_count=args.gen_knots, fit_options=options)
    rows = run_experiment(spec)
    write_report(rows, args.out)
    print(f"benchmark: {len(rows)} rows -> {args.out}")
    return 0


def cmd_eigen(args) -> int:
    header, data = _read_table(args.input)
    names = _coord_names(args.coords)
    coords = np.column_stack([_column(header, data, names[0]),
                              _column(header, data, names[1])])
    options = _checked(FitOptions, knot_count=args.knots, basis=args.basis,
                       seed=args.seed, max_eigenpairs=args.max_eigenpairs,
                       range_r=args.range)
    basis = build_basis(coords, options)
    n = coords.shape[0]
    with open(f"{args.out}.vectors.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["px", "py"] + [f"e{l + 1}" for l in range(basis.n_pairs)])
        # blocks of the Nystrom evaluation's own size write the bits of
        # basis.vectors without holding all N rows
        for lo in range(0, n, NYSTROM_CHUNK):
            rows = basis.rows(lo, min(lo + NYSTROM_CHUNK, n))
            for i, row in enumerate(rows, start=lo):
                writer.writerow([_fmt(coords[i, 0]), _fmt(coords[i, 1])]
                                + [_fmt(v) for v in row])
    with open(f"{args.out}.values.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda"])
        for v in basis.values:
            writer.writerow([_fmt(v)])
    print(f"eigen: {basis.kind} basis, {basis.n_pairs} pairs, range={basis.range_r:.6g} "
          f"-> {args.out}.vectors.csv, {args.out}.values.csv")
    return 0


def cmd_gwr(args) -> int:
    if args.bandwidth is not None and not args.bandwidth > 0:
        raise InputError(f"--bandwidth must be > 0, got {args.bandwidth}")
    grid = _checked(GwrGrid, b_min=args.bmin, b_max=args.bmax, n_points=args.grid_points)
    dataset, names, _ = _load_dataset(args)
    if args.bandwidth is None:  # a bound left out defaults from the data
        _checked(grid.resolve, coords=dataset.coords)
    result = gwr_fit(dataset, bandwidth=args.bandwidth, grid=grid)
    _write_surfaces(f"{args.out}.beta.csv", dataset.coords, names, result.beta_surfaces)
    _write_json(f"{args.out}.summary.json", {
        "n": dataset.n_obs,
        "k": dataset.n_cov,
        "bandwidth": result.bandwidth,
        "cv_score": result.cv_score,
    })
    print(f"gwr: bandwidth={result.bandwidth:.6g} cv={result.cv_score:.6g} "
          f"-> {args.out}.beta.csv, {args.out}.summary.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastsvc",
        description="Fast multiscale spatially varying coefficient regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV with a header row")
        p.add_argument("--coords", default="px,py",
                       help="comma-separated coordinate column names (default px,py)")

    p_fit = sub.add_parser("fit", help="fit the eigenbasis SVC model")
    add_io(p_fit)
    p_fit.add_argument("--y", required=True, help="response column")
    p_fit.add_argument("--x", required=True, help="comma-separated covariate columns")
    p_fit.add_argument("--svc", default=None,
                       help="covariates with varying coefficients (default: all)")
    p_fit.add_argument("--knots", type=int, default=None)
    p_fit.add_argument("--basis", choices=("exact", "nystrom", "auto"), default="auto")
    p_fit.add_argument("--max-eigenpairs", type=int, default=DEFAULT_MAX_PAIRS)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", default="fastsvc_fit", help="output file prefix")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="generate synthetic SVC data")
    p_sim.add_argument("--generator", choices=("small", "large"), default="large")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--knots", type=int, default=2000)
    p_sim.add_argument("--out", default="fastsvc_sim", help="output file prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="run the simulation benchmark")
    p_bench.add_argument("--methods", default="msvc", help="comma list: msvc,gwr")
    p_bench.add_argument("--n", required=True, help="comma list of sample sizes")
    p_bench.add_argument("--k", type=int, default=2)
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--generator", choices=("small", "large"), default="large")
    p_bench.add_argument("--gen-knots", type=int, default=2000)
    p_bench.add_argument("--out", default="fastsvc_report.csv")
    p_bench.set_defaults(func=cmd_benchmark)

    p_eig = sub.add_parser("eigen", help="export basis eigenvectors and eigenvalues")
    add_io(p_eig)
    p_eig.add_argument("--basis", choices=("exact", "nystrom", "auto"), default="auto")
    p_eig.add_argument("--knots", type=int, default=None)
    p_eig.add_argument("--max-eigenpairs", type=int, default=DEFAULT_MAX_PAIRS)
    p_eig.add_argument("--range", type=float, default=None,
                       help="kernel range override (default: max MST edge)")
    p_eig.add_argument("--seed", type=int, default=0)
    p_eig.add_argument("--out", default="fastsvc_eigen", help="output file prefix")
    p_eig.set_defaults(func=cmd_eigen)

    p_gwr = sub.add_parser("gwr", help="fit the GWR baseline")
    add_io(p_gwr)
    p_gwr.add_argument("--y", required=True)
    p_gwr.add_argument("--x", required=True)
    p_gwr.add_argument("--bandwidth", type=float, default=None,
                       help="fixed bandwidth (default: LOO-CV selection)")
    p_gwr.add_argument("--bmin", type=float, default=None)
    p_gwr.add_argument("--bmax", type=float, default=None)
    p_gwr.add_argument("--grid-points", type=int, default=12)
    p_gwr.add_argument("--out", default="fastsvc_gwr", help="output file prefix")
    p_gwr.set_defaults(func=cmd_gwr)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FastSvcError as exc:
        print(f"estimation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of ``fastsvc.fit``.

    python3 bench/run.py --workload basis_heavy --seed 1 --seconds 10 --trace 0

One caller in one process runs one fit at a time on datasets generated by
``simulation.gen_large`` from ``--seed``, with the BLAS thread count pinned to
the CPUs this process may use. ``--trace 0`` prints the end-to-end metrics
with no wrapper installed; ``--trace 1`` prints the per-layer metrics of a
separate traced run (see ``spans.py``). Every fit passes the correctness gate
in ``harness.py`` outside the timed region; a failure makes the exit code 1.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Spans of a traced run are written under ``.bench_out/`` in the checkout.
``--tiny`` shrinks every workload so that ``selftest.py`` runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("basis_heavy", "estimate_heavy", "wide_k")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: cold imports timed per run; their median is the import part of setup_s
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny N, for the self-test")
    p.add_argument("--single-thread-layers", action="store_true",
                   help=argparse.SUPPRESS)  # child of a traced run
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    return env


def cold_import_s(threads: int) -> float:
    """Time to import fastsvc (numpy and scipy included) in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import fastsvc; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(threads),
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def single_thread_layers(args) -> dict:
    """Layer times of one traced fit in a child pinned to one BLAS thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "1",
           "--single-thread-layers"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, env=child_env(1), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"single-thread child exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def write_spans(recorder, args):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for sp in recorder.spans:
            fh.write(json.dumps(sp.as_dict()) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fastsvc" / "__init__.py").is_file():
        print(f"error: no fastsvc sources under {SRC}", file=sys.stderr)
        return 2
    threads = 1 if args.single_thread_layers else len(os.sched_getaffinity(0))
    # numpy reads the BLAS thread count once, when it is first imported
    os.environ.update({var: str(threads) for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import fastsvc

    if not Path(fastsvc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported fastsvc from {fastsvc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    wl = harness.workload(args.workload, tiny=args.tiny)
    if args.single_thread_layers:
        ledger, layers = harness.single_thread_layers(wl, args.seed)
        print(json.dumps(layers))
        return 0 if ledger.correct else 1

    print("env " + json.dumps(environment(threads)), flush=True)
    if args.trace:
        ledger, metrics, detail, recorder = harness.run_traced(wl, args.seed, args.seconds)
        single = single_thread_layers(args)
        metrics.update({f"{name}.s_1thread": (secs, "s") for name, secs in single.items()})
        detail["spans_file"] = str(write_spans(recorder, args).relative_to(ROOT))
    else:
        import_s = [cold_import_s(threads) for _ in range(IMPORT_SAMPLES)]
        ledger, metrics, detail = harness.run_end_to_end(wl, args.seed, args.seconds,
                                                          import_s)
    detail.update(workload=args.workload, seed=args.seed, tiny=args.tiny,
                  problems=ledger.problems)
    print("detail " + json.dumps(detail), flush=True)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())

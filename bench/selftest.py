"""Self-test of the benchmark, in seconds:

    python3 bench/selftest.py

1. Runs every workload at tiny N, untraced and traced, and checks that each
   run passes its gate and prints exactly the metrics BENCHMARK.json names,
   with the units it gives.
2. Shows the correctness gate trips when a fit's loglik is perturbed.
3. Shows the benchmark exits non-zero, printing no result, from a directory
   that holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
TIMEOUT_S = 120


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    cmd = [sys.executable, str(RUN), "--tiny", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit code {out.returncode}\n{out.stderr}"]
    result = last_json(out.stdout)
    if result is None:
        return [f"{where}: last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: gate did not pass: {result.get('failed')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{where}: {name} unit {got.get('unit')!r} != {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_gate_trips() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness

    wl = harness.workload("estimate_heavy", tiny=True)
    ledger = harness.Ledger(harness.generate(wl, seed=1, count=1)[0])
    result, _ = ledger.fit(0, wl.fit_options())
    if not ledger.check(0, result):
        return [f"unperturbed fit failed the gate: {ledger.problems}"]
    inst = ledger.instances[0]
    bad = dataclasses.replace(result, loglik=result.loglik * (1.0 + 1e-6))
    problems = []
    if not harness.check_fit(inst, bad):
        problems.append("perturbed loglik passed the oracle checks")
    if not harness.check_fit(inst, bad, reference=result):
        problems.append("perturbed loglik passed the repeat check")
    if ledger.check(0, bad) or ledger.failed != 1:
        problems.append("perturbed fit was not counted as failed")
    return problems


def check_fails_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if out.returncode == 0:
        problems.append("exit code 0 without fastsvc sources")
    if last_json(out.stdout) is not None:
        problems.append("printed a result without fastsvc sources")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    checks = [(f"tiny {w['name']} --trace {t}",
               lambda w=w["name"], t=t: check_run(w, t, expected[t]))
              for w in spec["workloads"] for t in (0, 1)]
    checks += [("gate trips on a perturbed loglik", check_gate_trips),
               ("fails without sources", lambda: check_fails_without_sources(spec))]
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for p in problems:
            print(f"     {p}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness itself, on configs/smoke.cfg.

Usage (from the repository root): python3 benchmark/selftest.py

Runs the ``smoke`` (``cli.run``) and ``smoke_conditions``
(``check-conditions``) workloads untraced and traced, and checks that

* every metric BENCHMARK.json names is printed as ``name value unit`` with
  its unit, and the last line is the result object with exactly the
  metrics of its mode;
* every run is correct and the exact work counts of two traced runs are
  identical;
* the harness exits nonzero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".bench_work" / "selftest-bare"

EXACT_COUNTS = (
    "spaces.transform_calls", "spaces.transform_flops", "spaces.transform_bytes",
    "models.drift_and_split_rate.rows", "models.signed_power.elems",
    "coupling.reflect_active_frac", "integrator.step_coupled.calls",
    "integrator.gen_noise.draws", "integrator.glued_row_frac",
    "integrator.record_bytes", "inequalities.samples",
)


def run_bench(cwd: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def check_output(lines: list, metrics: list, where: str) -> dict:
    problems = []
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = parts[2]
    for m in metrics:
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"{where}: {m['name']} not printed with unit "
                            f"{m['unit']} (got {printed.get(m['name'])})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        problems.append(f"{where}: result metrics differ from BENCHMARK.json")
    for m in metrics:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got.get('unit')}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    for p in problems:
        print("FAIL", p)
    return result if not problems else {}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in ("smoke", "smoke_conditions"):
        code, lines = run_bench(ROOT, "--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", "0")
        ok &= code == 0 and bool(check_output(lines, spec["end_to_end"],
                                              f"{workload} untraced"))
        traced = []
        for _ in range(2):
            code, lines = run_bench(ROOT, "--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", "1")
            ok &= code == 0
            traced.append(check_output(lines, spec["per_layer"],
                                       f"{workload} traced"))
        if all(traced):
            for name in EXACT_COUNTS:
                a, b = (t["metrics"][name]["value"] for t in traced)
                if a != b:
                    print(f"FAIL {workload}: count {name} {a} != {b}")
                    ok = False
        else:
            ok = False
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, BARE / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(BARE, "--workload", spec["workloads"][0]["name"],
                            "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(BARE, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        print(f"FAIL bare directory: exit {code}, printed a result")
        ok = False
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

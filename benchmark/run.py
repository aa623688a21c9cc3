"""spde-reflect benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload porous_accept [--seed N]
                             [--seconds S] [--trace 0|1]

Every run of the package happens in a fresh child process
(``benchmark/child.py``) that drives it through ``cli.parse_config_file``,
the ``cli.build_*`` builders, ``cli.run`` and the ``check-conditions``
subcommand, with ``min(2, nproc)`` worker threads.

``--trace 0`` repeats untraced runs until ``--seconds`` have passed and
reports the medians of the end-to-end metrics.  ``--trace 1`` makes one
untraced run, one traced run and, for the ensemble workloads, one
single-thread run, and reports the per-layer metrics of the traced run.

Each metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
fails when the program exits nonzero, a gated check or condition verdict
is ``fail``, a path overflows, or its output bytes differ from the other
runs of the same seed (traced, untraced, 1 or 2 threads) or, at the
default seed, from the digest pinned in ``benchmark/meta.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0          # the whole run, children included
SETUP_SAMPLES = 15          # setup_s is the median of at least this many

# name -> (kind, config files)
WORKLOADS = {
    "porous_accept": ("ensemble", ("configs/porous_accept.cfg",)),
    "linear_ou": ("ensemble", ("configs/linear_ou.cfg",)),
    "conditions": ("conditions", ("configs/porous_accept.cfg",
                                  "configs/fastdiff_chain.cfg")),
    # used by benchmark/selftest.py only
    "smoke": ("ensemble", ("configs/smoke.cfg",)),
    "smoke_conditions": ("conditions", ("configs/smoke.cfg",)),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "spaces.to_grid.self_s": "s",
    "spaces.from_grid.self_s": "s",
    "spaces.grad_to_grid.self_s": "s",
    "spaces.h_norm.self_s": "s",
    "spaces.transform_calls": "count",
    "spaces.transform_flops": "flop",
    "spaces.transform_bytes": "B",
    "models.drift_and_split_rate.self_s": "s",
    "models.drift_and_split_rate.rows": "rows",
    "models.signed_power.self_s": "s",
    "models.signed_power.elems": "elems",
    "coupling.coupled_diffusion_increments.self_s": "s",
    "coupling.reflect_apply.self_s": "s",
    "coupling.reflect_active_frac": "ratio",
    "coupling.cutoff_h_prime_sup.s": "s",
    "integrator.run_paths.s": "s",
    "integrator.step_coupled.self_s": "s",
    "integrator.step_coupled.calls": "count",
    "integrator.gen_noise.self_s": "s",
    "integrator.gen_noise.draws": "draws",
    "integrator.glued_row_frac": "ratio",
    "integrator.worker_busy_s": "s",
    "integrator.worker_idle_s": "s",
    "integrator.record_bytes": "B",
    "integrator.speedup_nproc": "ratio",
    "experiments.survival_curve.s": "s",
    "experiments.check_lemma31.s": "s",
    "experiments.supermartingale_diagnostic.s": "s",
    "experiments.coupling_tail_bound.s": "s",
    "experiments.prop21_chain.s": "s",
    "experiments.marginal_ou_check.s": "s",
    "inequalities.check_scalar_mean_value.s": "s",
    "inequalities.check_A1prime.s": "s",
    "inequalities.check_A1doubleprime.s": "s",
    "inequalities.check_interpolation_Q.s": "s",
    "inequalities.fit_coercivity.s": "s",
    "inequalities.samples": "samples",
    "cli.parse_config_file.s": "s",
    "spaces.make_space.s": "s",
    "cli.run.self_s": "s",
    "trace_overhead_frac": "ratio",
}


class Bench:
    """One invocation: its children, their results and the failures seen."""

    def __init__(self, workload: str, seed, threads: int):
        self.name = workload
        self.kind, configs = WORKLOADS[workload]
        self.seed = seed
        self.threads = threads
        self.t_start = time.monotonic()
        self.failures: list = []
        self.attempted = 0
        self.configs = [str(ROOT / c) for c in configs]
        self.tag = f"{os.getpid()}"
        self.inputs = WORK / f"inputs-{self.tag}"
        if self.kind == "conditions" and seed is not None:
            self.configs = [self._seeded_config(c, i) for i, c in
                            enumerate(self.configs)]

    def _seeded_config(self, path: str, i: int) -> str:
        """Copy of a config whose condition suite draws from ``seed``."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        at = lines.index("[conditions]") + 1
        lines.insert(at, f"seed = {self.seed}")
        dest = self.inputs / f"{i}-{Path(path).name}"
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(dest)

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def child(self, *, setup_only=False, trace=False, threads=None):
        """Run one child; its result dict (``problems`` says why it failed),
        or None when it left no result."""
        n = self.attempted if not setup_only else "setup"
        work = WORK / f"run-{self.tag}-{n}-{time.monotonic_ns()}"
        spec = {
            "root": str(ROOT), "work": str(work), "kind": self.kind,
            "configs": self.configs, "seed": self.seed,
            "threads": threads or self.threads, "setup_only": setup_only,
            "trace": trace, "spans": str(WORK / f"spans-{self.name}.json"),
            "result": str(work / "result.json"),
        }
        if not setup_only:
            self.attempted += 1
        label = ("setup" if setup_only else "traced" if trace else "run") + \
            f" threads={spec['threads']}"
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=max(1.0, self.remaining()))
            res = json.loads((work / "result.json").read_text(encoding="utf-8")) \
                if proc.returncode == 0 else None
            why = f"child exited {proc.returncode}" if res is None else None
        except subprocess.TimeoutExpired:
            res, why = None, "child killed at the run deadline"
        except (OSError, ValueError) as exc:
            res, why = None, f"no result: {exc}"
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res is not None:
            res["elapsed"] = time.monotonic() - t0
            why = "; ".join(res["problems"]) or None
            if res["missing_sites"]:
                print(f"note: not traced: {', '.join(res['missing_sites'])}",
                      file=sys.stderr)
        if why is not None:
            self.fail(f"{label}: {why}")
            return None if res is None or setup_only else res
        print(f"{label}: wall {res['wall_s']:.3f} s, output sha256 "
              f"{res.get('digest', '-')}", file=sys.stderr)
        return res

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAILED {why}", file=sys.stderr)

    def count_failed(self, runs: list, pins: dict) -> int:
        """Runs that failed, by their problems or by their output bytes.

        Every run of one seed must write the same bytes; at the default
        seed they must also match the pinned digest.
        """
        pin = pins.get(self.name)
        ref = pin["sha256"] if pin and self.seed in (None, pin["seed"]) else None
        failed = 0
        for i, res in enumerate(runs):
            if res is None or res["problems"]:
                failed += 1
            elif ref is None:
                ref = res["digest"]
            elif res["digest"] != ref:
                self.fail(f"run {i}: output sha256 {res['digest']} != {ref}")
                failed += 1
        return failed


def _median(vals):
    return statistics.median(vals) if vals else 0.0


def _throughput(res) -> float:
    """Path-steps per second of run_paths; condition samples per second of
    the suites on the conditions workload, which steps no paths."""
    if res["path_steps"]:
        return res["path_steps"] / res["run_paths_s"]
    return res.get("samples", 0) / (res["wall_s"] - res["setup_s"])


def run_end_to_end(b: Bench, seconds: float, pins: dict):
    """Untraced runs until ``seconds`` have passed; (medians, failed runs)."""
    b.child(setup_only=True)          # warm-up: byte-compile, fill caches
    runs = []
    t0 = time.monotonic()
    while True:
        res = b.child()
        runs.append(res)
        if res is None:
            break
        if time.monotonic() - t0 >= seconds or res["elapsed"] > b.remaining():
            break
    failed = b.count_failed(runs, pins)
    ok = [r for r in runs if r is not None and not r["problems"]]
    setups = [r["setup_s"] for r in ok]
    while len(setups) < SETUP_SAMPLES and b.remaining() > 10.0:
        res = b.child(setup_only=True)
        if res is None:
            break
        setups.append(res["setup_s"])
    if not ok:
        return {}, failed
    return {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median(setups),
        "path_steps_per_s": _median([_throughput(r) for r in ok]),
        "cpu_s": _median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }, failed


def run_traced(b: Bench, pins: dict):
    """One untraced, one traced and one 1-thread run; (layers, failed runs)."""
    b.child(setup_only=True)
    base = [b.child()]
    traced = b.child(trace=True)
    single = None
    if b.kind == "ensemble":
        if base[0] is not None and b.remaining() > 2.5 * base[0]["elapsed"]:
            single = b.child(threads=1)
        else:
            print("note: no time left for the 1-thread run", file=sys.stderr)
    else:
        base += [b.child(), b.child()]
    runs = base + [traced] + ([single] if single is not None else [])
    failed = b.count_failed(runs, pins)
    if traced is None or "layers" not in traced:
        return {}, failed
    out = dict(traced["layers"])
    walls = [r["wall_s"] for r in base if r is not None]
    out["trace_overhead_frac"] = (traced["wall_s"] / _median(walls) - 1.0
                                  if walls else 0.0)
    out["integrator.speedup_nproc"] = (
        single["run_paths_s"] / base[0]["run_paths_s"]
        if single is not None and base[0] is not None else 0.0)
    return out, failed


def provenance() -> dict:
    import platform

    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed (default: the config's own)")
    ap.add_argument("--seconds", type=float, default=25,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spde_reflect" / "cli.py").is_file() or \
            not (ROOT / "configs").is_dir():
        print(f"error: no spde_reflect source tree under {ROOT}",
              file=sys.stderr)
        return 2
    pins = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))["pins"]
    nproc = len(os.sched_getaffinity(0))
    b = Bench(args.workload, args.seed, min(2, nproc))
    for key, val in provenance().items():
        print(f"provenance {key} {val}")
    if args.trace:
        (metrics, failed), units = run_traced(b, pins), PER_LAYER
    else:
        (metrics, failed), units = run_end_to_end(b, args.seconds, pins), END_TO_END
    shutil.rmtree(b.inputs, ignore_errors=True)
    for name, unit in units.items():
        metrics.setdefault(name, 0.0)
        val = metrics[name]
        print(f"{name} {val if isinstance(val, int) else format(val, '.6g')} {unit}")
    print(f"error_rate {failed / max(1, b.attempted):.6g} ratio "
          f"({failed} of {b.attempted} runs)")
    result = {"correct": failed == 0 and not b.failures,
              "attempted": b.attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload in a fresh process; writes a JSON result file.

Usage: python3 benchmark/child.py '<spec json>'

The spec names the workload kind (``ensemble`` runs ``cli.run`` on one
config; ``conditions`` runs the ``check-conditions`` path on each config),
the config files, the seed (``null`` keeps the config's own), the worker
threads, whether to set up only, whether to trace, a scratch directory for
the program's output and the result path.  The clock starts right before
``import spde_reflect``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from run import PER_LAYER
from tracer import ENTRY_SITES, LAYER_SITES, Tracer

_SETUP_SPANS = ("cli.parse_config_file", "cli.build_space", "cli.build_model",
                "cli.build_coupling", "cli.build_sim")


def _ensemble(cli, spec, work: Path) -> dict:
    cfg = cli.parse_config_file(spec["configs"][0])
    if spec["setup_only"]:
        cli.build_space(cfg)
        cli.build_model(cfg)
        cli.build_coupling(cfg)
        cli.build_sim(cfg, spec["seed"])
        return {}
    code = cli.run(cfg, out_dir=str(work), seed=spec["seed"],
                   threads=spec["threads"])
    t_done = time.perf_counter()
    blob = next(work.glob("*/summary.json")).read_bytes()
    summary = json.loads(blob)
    problems = []
    if code != 0:
        problems.append(f"cli.run returned {code}")
    for fail in summary.get("failed_checks", []):
        problems.append(f"gated check failed: {fail}")
    failed_paths = summary["results"].get("ensemble", {}).get("failed_paths", 0)
    if failed_paths:
        problems.append(f"{failed_paths} paths overflowed")
    return {"t_done": t_done, "digest": hashlib.sha256(blob).hexdigest(),
            "problems": problems}


def _conditions(cli, spec, work: Path) -> dict:
    if spec["setup_only"]:
        for path in spec["configs"]:
            cfg = cli.parse_config_file(path)
            cli.build_space(cfg)
            cli.build_model(cfg)
        return {}
    blobs, problems, samples = [], [], 0
    for i, path in enumerate(spec["configs"]):
        out = work / f"suite{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check-conditions", "--config", path,
                             "--out", str(out)])
        blob = (out / "conditions.json").read_bytes()
        blobs.append(blob)
        if code != 0:
            problems.append(f"check-conditions on {path} returned {code}")
        for name, rep in sorted(json.loads(blob).items()):
            samples += rep["sample_count"]
            if rep["verdict"] == "fail":
                problems.append(f"condition {name} of {path}: fail")
    return {"t_done": time.perf_counter(),
            "digest": hashlib.sha256(b"".join(blobs)).hexdigest(),
            "problems": problems, "samples": samples}


def _layers(tracer) -> dict:
    """Per-layer metrics of a traced run (zero where a function never ran).

    ``<span>.self_s`` and ``<span>.s`` are span self and inclusive times,
    other names are counters, except the few derived here.
    ``integrator.speedup_nproc`` and ``trace_overhead_frac`` need other runs
    and are filled in by run.py.
    """
    s = tracer.summary()
    c = tracer.counters

    def span(name, field):
        return s.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    busy, stepping_threads = tracer.thread_cpu("integrator.step_coupled")
    derived = {
        "integrator.step_coupled.calls": span("integrator.step_coupled", "calls"),
        "coupling.reflect_active_frac": ratio("coupling.reflect_rows",
                                              "coupling.increment_rows"),
        "integrator.glued_row_frac": ratio("integrator.glued_row_steps",
                                           "integrator.path_steps"),
        "integrator.worker_busy_s": busy,
        # stepping-thread wall time in run_paths not spent on CPU in a step
        "integrator.worker_idle_s": max(
            0.0, stepping_threads * span("integrator.run_paths", "s") - busy),
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".self_s"):
            out[name] = span(name[:-len(".self_s")], "self_s")
        elif name.endswith(".s"):
            out[name] = span(name[:-len(".s")], "s")
        else:
            out[name] = c.get(name, 0)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import spde_reflect.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install("spde_reflect", LAYER_SITES if spec["trace"] else ENTRY_SITES)
    body = _ensemble if spec["kind"] == "ensemble" else _conditions
    result = {"problems": []}
    try:
        got = body(cli, spec, work)
    except Exception:
        traceback.print_exc()
        got = {"problems": ["exception: " + traceback.format_exc(limit=3)]}
    t_end = got.pop("t_done", time.perf_counter())
    result.update(got)
    summary = tracer.summary()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "import_s": import_s,
        "wall_s": t_end - t0,
        "setup_s": import_s + sum(summary.get(n, {}).get("s", 0.0)
                                  for n in _SETUP_SPANS),
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "run_paths_s": summary.get("integrator.run_paths", {}).get("s", 0.0),
        "path_steps": tracer.counters.get("integrator.path_steps", 0),
        "missing_sites": tracer.missing,
    })
    if spec["trace"] and not spec["setup_only"]:
        result["layers"] = _layers(tracer)
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside tracer: times spde_reflect's public functions without editing them.

The package modules import each other's functions into their own
namespaces (``from .spaces import to_grid``), so a function is wrapped where
its caller looks it up: ``models.to_grid`` for the drift, ``integrator.gen_noise``
for the step loop, and so on.  Every site of one function shares one
wrapper and one span name.

Each call records a span (name, thread, start, end, time covered by child
spans) in an in-memory list; spans are aggregated, and optionally written
out, once at the end of the run.  A thread-local stack gives self time
(duration minus child spans).  Sites marked ``cpu`` also record the
calling thread's CPU time, which is what the worker busy time is built
from.  Work counts are derived only from argument shapes and return
values, so they repeat bit-for-bit whenever the program's outputs do.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass
from math import prod

_perf = time.perf_counter
_thread_cpu = time.thread_time


@dataclass(frozen=True)
class Site:
    """Wrap ``<module>.<attr>`` (the definition) at every module in ``at``."""
    module: str
    attr: str
    span: str
    at: tuple = ()
    count: object = None        # f(args, kwargs, result) -> {counter: int}
    cpu: bool = False           # also record the calling thread's CPU time


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self.spans: list = []
        self.counters: dict = {}
        self.missing: list = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def wrap(self, name: str, fn, count=None, cpu: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            cpu0 = _thread_cpu() if cpu else 0.0
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                tracer.spans.append((name, threading.get_ident(), t0, t1,
                                     frame[0],
                                     _thread_cpu() - cpu0 if cpu else None))
            if count is not None:
                got = count(args, kwargs, result)
                with tracer._lock:
                    for key, val in got.items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + val
            return result

        return traced

    def install(self, package: str, sites) -> None:
        """Patch every site; a name the package no longer has is skipped."""
        for site in sites:
            try:
                home = importlib.import_module(f"{package}.{site.module}")
                fn = getattr(home, site.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{site.module}.{site.attr}")
                continue
            wrapper = self.wrap(site.span, fn, site.count, site.cpu)
            for mod_name in (site.module,) + tuple(site.at):
                try:
                    mod = importlib.import_module(f"{package}.{mod_name}")
                except ImportError:
                    mod = None
                if getattr(mod, site.attr, None) is not fn:
                    self.missing.append(f"{mod_name}.{site.attr}")
                    continue
                setattr(mod, site.attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict = {}
        for name, _tid, t0, t1, child, _cpu in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child
        return out

    def thread_cpu(self, name: str):
        """(CPU seconds, distinct threads) of the spans of one name."""
        cpu = [(tid, c) for n, tid, _a, _b, _c, c in self.spans
               if n == name and c is not None]
        return sum(c for _t, c in cpu), len({t for t, _c in cpu})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "thread", "start", "end",
                                  "child_s", "thread_cpu_s"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# work counts (argument shapes and return values only)

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _rows(a) -> int:
    shape = getattr(a, "shape", ())
    return prod(shape[:-1]) if len(shape) > 1 else 1


def _transform(matrix_attr: str):
    """Dense (rows, K) @ (K, L) product; flops and bytes are computed."""
    def count(args, kwargs, result):
        space = _arg(args, kwargs, 0, "space")
        x = _arg(args, kwargs, 1, "x" if matrix_attr != "proj" else "g")
        mat = getattr(space, matrix_attr)
        rows = _rows(x)
        k, l = mat.shape
        return {"spaces.transform_calls": 1,
                "spaces.transform_flops": 2 * rows * k * l,
                "spaces.transform_bytes": 8 * (rows * k + k * l + rows * l)}
    return count


def _drift_rows(args, kwargs, result):
    return {"models.drift_and_split_rate.rows": _rows(_arg(args, kwargs, 3, "v"))}


def _signed_power_elems(args, kwargs, result):
    s = _arg(args, kwargs, 0, "s")
    return {"models.signed_power.elems": int(getattr(s, "size", 1))}


def _increment_rows(args, kwargs, result):
    return {"coupling.increment_rows": _rows(_arg(args, kwargs, 3, "x"))}


def _reflect_rows(args, kwargs, result):
    return {"coupling.reflect_rows": _rows(_arg(args, kwargs, 1, "u"))}


def _noise_draws(args, kwargs, result):
    n_paths = _arg(args, kwargs, 2, "n_paths")
    n_modes = _arg(args, kwargs, 3, "n_modes")
    channels = _arg(args, kwargs, 5, "channels", (0, 1, 2))
    return {"integrator.gen_noise.draws": len(channels) * n_paths * n_modes}


def _ensemble_record(args, kwargs, result):
    """Glued row-steps and record size of a finished ensemble."""
    import numpy as np
    config = _arg(args, kwargs, 3, "config")
    n_steps = config.n_steps
    out = {"integrator.path_steps": result.n_paths * n_steps,
           "integrator.record_bytes": sum(
               v.nbytes for v in vars(result).values()
               if isinstance(v, np.ndarray))}
    if result.t_n is not None:
        t_n = result.t_n[~np.isnan(result.t_n)]
        glued_at = np.rint(t_n / config.dt).astype(np.int64)
        out["integrator.glued_row_steps"] = int(np.sum(n_steps - glued_at))
    return out


def _check_samples(args, kwargs, result):
    return {"inequalities.samples": int(result.sample_count)}


# ---------------------------------------------------------------------------
# where each function is looked up by its callers

ENTRY_SITES = (
    Site("cli", "parse_config_file", "cli.parse_config_file"),
    Site("cli", "build_space", "cli.build_space"),
    Site("cli", "build_model", "cli.build_model"),
    Site("cli", "build_coupling", "cli.build_coupling"),
    Site("cli", "build_sim", "cli.build_sim"),
    Site("integrator", "run_paths", "integrator.run_paths", at=("cli",),
         count=_ensemble_record),
)

_EXPERIMENTS = ("survival_curve", "check_lemma31", "supermartingale_diagnostic",
                "coupling_tail_bound", "prop21_chain", "marginal_ou_check")
_CHECKS = ("check_scalar_mean_value", "check_A1prime", "check_A1doubleprime",
           "check_interpolation_Q", "fit_coercivity")

LAYER_SITES = ENTRY_SITES + (
    Site("cli", "run", "cli.run"),
    Site("spaces", "make_space", "spaces.make_space", at=("cli",)),
    Site("spaces", "to_grid", "spaces.to_grid", at=("models", "inequalities"),
         count=_transform("sine")),
    Site("spaces", "from_grid", "spaces.from_grid", at=("models",),
         count=_transform("proj")),
    Site("spaces", "grad_to_grid", "spaces.grad_to_grid",
         at=("models", "inequalities"), count=_transform("dsine")),
    Site("spaces", "h_norm", "spaces.h_norm",
         at=("integrator", "coupling", "experiments", "inequalities", "cli")),
    Site("models", "drift_and_split_rate", "models.drift_and_split_rate",
         at=("integrator",), count=_drift_rows),
    Site("models", "signed_power", "models.signed_power",
         at=("inequalities",), count=_signed_power_elems),
    Site("coupling", "coupled_diffusion_increments",
         "coupling.coupled_diffusion_increments", at=("integrator",),
         count=_increment_rows),
    Site("coupling", "reflect_apply", "coupling.reflect_apply",
         count=_reflect_rows),
    Site("coupling", "cutoff_h_prime_sup", "coupling.cutoff_h_prime_sup",
         at=("experiments",)),
    Site("integrator", "step_coupled", "integrator.step_coupled", cpu=True),
    Site("integrator", "gen_noise", "integrator.gen_noise", count=_noise_draws),
) + tuple(Site("experiments", fn, f"experiments.{fn}") for fn in _EXPERIMENTS) \
  + tuple(Site("inequalities", fn, f"inequalities.{fn}", count=_check_samples)
          for fn in _CHECKS)

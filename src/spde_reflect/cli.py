"""Configuration parsing, experiment orchestration, and persistence.

Three commands read a config: ``run`` runs every selected condition check,
then steps the ensembles and runs every selected experiment,
``check-conditions`` runs only the condition checks, and ``oracle`` prints
the Ornstein-Uhlenbeck law.
Config files are flat INI-style sections of ``key = value`` lines with
``#`` comments.  Parsing is total: unknown sections or keys, duplicate
keys and type errors fail with a line-anchored message; the parser then
builds the space, model, coupling and sim objects, whose own checks fail
as ``<section>: <message>``, and each selected experiment and condition
by the rule its own code calls, as ``<section>: <name>: <message>``; it
states only the few rules no object owns.
The effective (default-filled) configuration is canonicalized and hashed;
results land in ``<out>/<config_hash>/`` as

* ``summary.json``   -- every experiment result and condition report,
                        byte-stable for a fixed (config, seed),
* one ``<name>.csv`` per series (time, estimate, std_err; 17 significant
  digits),
* ``paths.csv``      -- with ``[output] dump_paths = true`` and ``csv``
                        among the formats, one row per (path, checkpoint)
                        of the coupled ensemble,
* ``manifest.json``  -- config echo, seed, library versions, and wall
                        time, workers, CPU and peak RSS (not reproducible,
                        so kept out of the summary),
* ``failures.json``  -- machine-readable report when a gated check fails
                        (the process exits nonzero).

Both ``run`` and ``check-conditions`` fork workers (``integrator.run_forked``;
without ``os.fork`` the work runs here in turn): ``run`` for its path
batches, which write into shared pages, and both for the sampled condition
checkers, whose reports come back through pipes; once the mean-value pairs
are drawn, they are split over the workers too, in slab-aligned ranges
whose reports merge exactly.  ``run`` takes the worker count from
``--threads``, else the usable CPUs; ``check-conditions`` always uses the
usable CPUs.  Outputs are independent of the worker count by construction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
try:
    import resource
except ImportError:              # missing on Windows
    resource = None

import numpy as np

from .spaces import SpectralSpace, make_space, h_norm
from .models import (
    ModelSpec, Porous, PLaplace, FastDiff, ZeroDiffusion, LipschitzDiagonal,
    unit_base,
)
from .coupling import CouplingParams
from .integrator import (SimConfig, default_threads, path_batches, run_forked,
                         run_paths)
from . import experiments as xp
from . import inequalities as iq

__all__ = ["RunConfig", "ConfigError", "parse_config", "parse_config_file",
           "config_hash", "run", "main"]


class ConfigError(ValueError):
    """Config rejected; message carries the offending line when known."""


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


def _parse_float_list(s: str):
    return tuple(_parse_float(p) for p in s.split(",") if p.strip())


def _parse_str_list(s: str):
    return tuple(p.strip() for p in s.split(",") if p.strip())


# section -> key -> (parser, default); required keys use _REQUIRED.
# [sim] record_v_norms and [experiments] kappa, holder_epsilons, holder_t
# and holder_direction_mode are parsed and hashed, and nothing reads them:
# config_hash hashes every key, defaults included, so dropping one would
# move every pinned summary.json.  ROADMAP item 1, which re-pins, deletes
# them.
_REQUIRED = object()

_SCHEMA = {
    "space": {
        "n_modes": (int, 16),
        "gamma": (_parse_float, 1.0),
        "q_amp": (_parse_float, 1.0),
        "q_decay": (_parse_float, 0.75),
        "oversample": (int, 4),
    },
    "model": {
        "family": (str, _REQUIRED),
        "r": (_parse_float, None),
        "psi_scale": (_parse_float, 1.0),
        "phi_slope": (_parse_float, 0.0),
        "p": (_parse_float, None),
        "beta0": (_parse_float, 0.0),
        "beta_amp": (_parse_float, 0.0),
        "beta_freq": (_parse_float, 0.0),
        "b_spec": (str, "zero"),
        "c0": (_parse_float, 0.0),
        "b_base_decay": (_parse_float, 1.0),
        "theta": (_parse_float, None),
    },
    "coupling": {
        "n": (int, 10),
        "glue_eps": (_parse_float, 1e-12),
    },
    "sim": {
        "dt": (_parse_float, 1e-4),
        "horizon": (_parse_float, 0.5),
        "n_paths": (int, 1000),
        "master_seed": (int, 12345),
        "scheme": (str, "semi_implicit"),
        "n_checkpoints": (int, 11),
        "checkpoints": (_parse_float_list, None),
        "x0": (_parse_float_list, (1.0,)),
        "y0": (_parse_float_list, (-1.0,)),
        "record_v_norms": (_parse_bool, False),
    },
    "experiments": {
        "which": (_parse_str_list, ()),
        "kappa": (_parse_float, None),
        "lemma31_deltas": (_parse_float_list, (2.0, 4.0, 8.0)),
        "lemma31_t": (_parse_float, None),
        "lemma31_kprime": (_parse_float, None),
        "super_g": (str, "identity"),
        "super_eps": (_parse_float, 0.5),
        "super_kprime": (_parse_float, None),
        "marginal_t": (_parse_float, None),
        "fit_t_min": (_parse_float, 0.0),
        "fit_rate_bound": (_parse_float, None),
        "holder_epsilons": (_parse_float_list, (0.01, 0.02, 0.04)),
        "holder_t": (_parse_float, None),
        "holder_direction_mode": (int, 1),
    },
    "conditions": {
        "which": (_parse_str_list, ()),
        "samples": (int, 10000),
        "kappa": (_parse_float, None),
        "mv_r": (_parse_float_list, (0.25, 0.5, 0.75)),
        "mv_samples": (int, 1000000),
        "nash_m": (_parse_float, None),
        "seed": (int, 777),
    },
    "output": {
        "directory": (str, "results"),
        "formats": (_parse_str_list, ("json", "csv")),
        "dump_paths": (_parse_bool, False),
    },
}

_EXPERIMENTS = ("survival", "lemma31", "supermartingale", "chain",
                "contraction", "marginal_ou")
# the experiments that report a path mean with its standard error
# (survival and lemma31 report frequencies, with binomial ones)
_PATH_MEAN_SE = ("supermartingale", "chain", "contraction", "marginal_ou")
_CONDITIONS = ("meanvalue", "a1prime", "a1doubleprime", "interpolation",
               "spectrum", "nash", "coercivity")
# the spectrum gate of each family, checked next to the Hilbert-Schmidt one
_FAMILY_GATE = {"porous": "*E", "plaplace": "**E", "fastdiff": "SB"}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully validated, default-filled configuration and the objects every
    command runs."""
    values: dict          # section -> key -> parsed value
    space: SpectralSpace
    model: ModelSpec
    coupling: CouplingParams
    sim: SimConfig
    x0: np.ndarray        # initial states, read-only
    y0: np.ndarray

    def __getitem__(self, section: str) -> dict:
        return self.values[section]


def parse_config(text: str) -> RunConfig:
    """Parse and validate the documented key = value format."""
    values: dict = {s: {} for s in _SCHEMA}
    seen: set = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        parser = _SCHEMA[section][key][0]
        try:
            values[section][key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    # fill defaults / check required
    for sec, keys in _SCHEMA.items():
        for key, (_, default) in keys.items():
            if key in values[sec]:
                continue
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{sec}]")
            values[sec][key] = default
    return _validated(values)


def parse_config_file(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _validated(values: dict) -> RunConfig:
    """RunConfig of ``values`` with its objects built and its rules checked."""
    built = {}
    for section, build in (("space", build_space), ("model", build_model),
                           ("coupling", build_coupling), ("sim", build_sim)):
        try:
            built[section] = build(values)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    cfg = RunConfig(values=values, x0=_initial_state(values, "x0"),
                    y0=_initial_state(values, "y0"), **built)
    # each object checks its own section, and each selected experiment and
    # condition its parameters, by the code that reads them, so that a bad
    # one fails before any ensemble is stepped or sample drawn; only rules
    # that no object owns are stated here
    if cfg["model"]["family"] == "plaplace" and cfg["space"]["gamma"] != 1.0:
        raise ConfigError("p-Laplacian runs require space.gamma = 1")
    if "marginal_ou" in cfg["experiments"]["which"]:
        _check_ou_law(cfg, "experiments")
    for section, known, rule in (
            ("experiments", _EXPERIMENTS, _experiment_rule),
            ("conditions", _CONDITIONS, _condition_rule)):
        for w in cfg[section]["which"]:
            if w not in known:
                raise ConfigError(f"unknown {section[:-1]} {w!r}")
            try:
                rule(cfg, w)
            except ValueError as exc:
                raise ConfigError(f"{section}: {w}: {exc}") from None
    for f in cfg["output"]["formats"]:
        if f not in ("json", "csv"):
            raise ConfigError(f"unknown output format {f!r}")
    return cfg


# raises unless experiment w can run on cfg; steps nothing
def _experiment_rule(cfg: RunConfig, w: str) -> None:
    ex = cfg["experiments"]
    if w in _PATH_MEAN_SE:
        xp._two_paths(cfg.sim.n_paths)
    if w == "supermartingale":
        _g_spec_from(ex, _start_distance(cfg), cfg.model.family.r)
    elif w == "contraction":
        xp.fit_window(cfg.sim.checkpoint_times, ex["fit_t_min"],
                      _start_distance(cfg))
    elif w == "marginal_ou" and ex["marginal_t"] is not None:
        xp.checkpoint_index(cfg.sim.checkpoint_times, ex["marginal_t"])
    elif w == "lemma31":
        xp._distinct_pair(_start_distance(cfg))
        xp._positive_deltas(ex["lemma31_deltas"])
        xp.checkpoint_index(cfg.sim.checkpoint_times, 0.0)
        t = ex["lemma31_t"]
        if t is not None and not 0.0 <= t <= cfg.sim.horizon:
            raise ValueError("lemma31_t must lie in [0, sim.horizon]")


# raises unless condition w can be checked on cfg, by the rule its checker
# or gate calls; draws nothing
def _condition_rule(cfg: RunConfig, w: str) -> None:
    co, model = cfg["conditions"], cfg.model
    if w in ("spectrum", "nash"):
        _exact_gate(cfg, w)
        return
    iq._positive_samples(co["mv_samples" if w == "meanvalue" else "samples"])
    if w == "meanvalue":
        if not co["mv_r"]:
            raise ValueError("mv_r must not be empty")
        for rv in co["mv_r"]:
            iq._mean_value_rule(rv)
    elif w == "a1prime":
        iq._a1prime_rule(model, co["kappa"])
    elif w == "a1doubleprime":
        iq._a1doubleprime_rule(model, co["kappa"])
    elif w == "interpolation":
        iq._positive_kappa(co["kappa"])


def _replaced(cfg: RunConfig, section: str, **values) -> RunConfig:
    """``cfg`` with these keys of ``section`` replaced, validated anew."""
    return _validated({**cfg.values, section: {**cfg[section], **values}})


def _check_ou_law(cfg: RunConfig, context: str) -> None:
    """ConfigError unless the model's law is the one ``ou_oracle`` knows."""
    try:
        xp.ou_oracle(cfg.space, cfg.model, cfg.x0, 0.0)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _start_distance(cfg: RunConfig) -> float:
    return float(h_norm(cfg.space, cfg.x0 - cfg.y0))


def config_hash(cfg: RunConfig) -> str:
    """Stable digest of the canonicalized (default-filled) configuration."""
    lines = []
    for sec in sorted(cfg.values):
        for key in sorted(cfg.values[sec]):
            lines.append(f"{sec}.{key}={cfg.values[sec][key]!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


# ---------------------------------------------------------------------------
# builders: each reads its sections by name, from a values dict or a RunConfig

def build_space(cfg):
    sp = cfg["space"]
    weighted = cfg["model"]["family"] != "plaplace"
    return make_space(sp["n_modes"], sp["gamma"], weighted=weighted,
                      q_amp=sp["q_amp"], q_decay=sp["q_decay"],
                      oversample=sp["oversample"])


def build_model(cfg) -> ModelSpec:
    mo = cfg["model"]
    fam_name = mo["family"]
    if fam_name not in ("porous", "plaplace", "fastdiff"):
        raise ValueError(f"family must be porous|plaplace|fastdiff, got {fam_name!r}")
    need = "p" if fam_name == "plaplace" else "r"
    if mo[need] is None:
        raise ValueError(f"the {fam_name} family needs {need}")
    if fam_name == "porous":
        fam = Porous(r=mo["r"], psi_scale=mo["psi_scale"],
                     phi_slope=mo["phi_slope"])
    elif fam_name == "plaplace":
        fam = PLaplace(p=mo["p"])
    else:
        fam = FastDiff(r=mo["r"], beta0=mo["beta0"], beta_amp=mo["beta_amp"],
                       beta_freq=mo["beta_freq"])
    if mo["b_spec"] == "zero":
        b = ZeroDiffusion()
    elif mo["b_spec"] == "lipschitz_diagonal":
        b = LipschitzDiagonal(
            c0=mo["c0"],
            base=unit_base(cfg["space"]["n_modes"], mo["b_base_decay"]))
    else:
        raise ValueError(f"b_spec must be zero or lipschitz_diagonal, "
                         f"got {mo['b_spec']!r}")
    return ModelSpec(family=fam, b_spec=b, theta=mo["theta"])


def build_coupling(cfg) -> CouplingParams:
    return CouplingParams(n=cfg["coupling"]["n"],
                          glue_eps=cfg["coupling"]["glue_eps"])


def build_sim(cfg, seed_override: int | None = None) -> SimConfig:
    sm = cfg["sim"]
    if sm["checkpoints"] is not None:
        cps = tuple(sm["checkpoints"])
    else:
        cps = tuple(np.round(np.linspace(0.0, sm["horizon"],
                                         sm["n_checkpoints"]), 12))
    return SimConfig(
        dt=sm["dt"], horizon=sm["horizon"], n_paths=sm["n_paths"],
        master_seed=seed_override if seed_override is not None
        else sm["master_seed"],
        checkpoint_times=cps, scheme=sm["scheme"])


def _initial_state(cfg, key: str) -> np.ndarray:
    coeffs = cfg["sim"][key]
    n = cfg["space"]["n_modes"]
    if len(coeffs) > n:
        raise ConfigError(f"sim.{key} has more entries than space.n_modes")
    out = np.zeros(n)
    out[:len(coeffs)] = coeffs
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# orchestration

def _mean_value_reports(co, workers: int) -> dict:
    # the pairs do not depend on r: one batch serves every exponent.  Once
    # drawn it is split into _SLAB-aligned ranges, one per worker: the first
    # is checked here and each other in a forked child, which reads the
    # pairs copy-on-write.  The ranges' validation slabs are the whole
    # batch's, and the ranges merge by the rule that merges the slabs, so
    # the merged reports are its reports bit for bit.  The batch is freed
    # on return, before the next checker draws its states
    s1, s2 = iq.mean_value_batch(co["mv_samples"], co["seed"])

    def check(lo, hi):
        return [iq.check_scalar_mean_value(rv, (s1[lo:hi], s2[lo:hi]))
                for rv in co["mv_r"]]

    parts = run_forked([partial(check, lo, hi) for lo, hi
                        in path_batches(len(s1), workers, iq._SLAB)])
    return {f"meanvalue_r{rv:g}": iq._merged_report(reps).as_dict()
            for rv, reps in zip(co["mv_r"], zip(*parts))}


# the reports of the exact gate w, spectrum or nash, decided without
# sampling; the parser calls it too, so that a gate's own refusal of its
# parameters is a config error
def _exact_gate(cfg: RunConfig, w: str) -> dict:
    sp, co, fam = cfg["space"], cfg["conditions"], cfg.model.family
    kappa = co["kappa"]
    if w == "nash":
        m = co["nash_m"] if co["nash_m"] is not None else 1.0 / sp["gamma"]
        rep = iq.nash_exponent_gate(m, fam.r, gamma=sp["gamma"],
                                    delta=sp["q_decay"], kappa=kappa)
        return {"nash": rep.as_dict()}
    params = iq.SpectrumParams(
        gamma=sp["gamma"], delta=sp["q_decay"],
        r=fam.r if fam.kind != "plaplace" else None,
        p=fam.p if fam.kind == "plaplace" else None, kappa=kappa,
        eps=None if kappa is None
        else iq._worked_eps(sp["gamma"], sp["q_decay"], kappa))
    return {f"spectrum_{g}": iq.check_spectrum_condition(g, params).as_dict()
            for g in ("EI", _FAMILY_GATE[fam.kind])}


def _run_conditions(cfg: RunConfig, threads: int | None) -> dict:
    """The selected condition reports, in the order of ``groups`` below.

    Each sampled group is a task.  The first one selected (the mean-value
    group, the largest, when it is) runs in the calling process, and the
    others are dealt in turn over the other workers, ``threads`` or else
    the usable CPUs, each a forked child.  Once the mean-value pairs are
    drawn, they are split over all of those workers, however few groups
    there are (``_mean_value_reports``).  The exact gates run here.  Each
    checker draws from its own Philox stream of ``seed``, so the reports
    do not depend on the worker count.
    """
    space, model = cfg.space, cfg.model
    co = cfg["conditions"]

    def sampled(name, checker, *args):
        return lambda: {name: checker(space, model, *args, co["samples"],
                                      seed=co["seed"]).as_dict()}

    workers = threads if threads is not None else default_threads()
    groups = {
        "meanvalue": lambda: _mean_value_reports(co, workers),
        "a1prime": sampled("a1prime", iq.check_A1prime, co["kappa"]),
        "a1doubleprime": sampled("a1doubleprime", iq.check_A1doubleprime,
                                 co["kappa"]),
        "interpolation": sampled("interpolation", iq.check_interpolation_Q,
                                 co["kappa"]),
        "spectrum": partial(_exact_gate, cfg, "spectrum"),
        "nash": partial(_exact_gate, cfg, "nash"),
        "coercivity": sampled("coercivity", iq.fit_coercivity),
    }
    selected = [g for g in groups if g in co["which"]]
    tasks = [g for g in selected if g not in ("spectrum", "nash")]
    n = min(len(tasks), workers)
    head = 1 if n > 1 else len(tasks)
    deals = [tasks[:head]] + [tasks[head + i::n - 1] for i in range(n - 1)]
    done = {g: groups[g]() for g in selected if g not in tasks}
    for reports in run_forked([lambda d=d: {g: groups[g]() for g in d}
                               for d in deals]):
        done.update(reports)
    return {k: rep for g in selected for k, rep in done[g].items()}


def _writes_paths_csv(cfg: RunConfig) -> bool:
    """A run of cfg writes the coupled ensemble's ``paths.csv``."""
    return cfg["output"]["dump_paths"] and "csv" in cfg["output"]["formats"]


class _TooFewLivePaths(RuntimeError):
    """An ensemble with fewer live paths than its estimators read; its one
    argument is the ensemble's failed ``results`` entry."""


def _ensemble(cfg: RunConfig, which: str, threads, **kw):
    """The ``which`` ensemble; raises ``_TooFewLivePaths`` unless two paths
    live when a selected experiment reports a path mean with its standard
    error, and one otherwise (the rule ``_validated`` applies to n_paths).

    Glued pairs leave the step unless ``marginal_ou`` or ``paths.csv``
    reads a glued path's own x, or the run is a single equation (y0 = x0).
    """
    keep_glued = ("marginal_ou" in cfg["experiments"]["which"]
                  or _writes_paths_csv(cfg)
                  or np.array_equal(cfg.x0, cfg.y0))
    rec = run_paths(cfg.space, cfg.model, cfg.coupling, cfg.sim, which,
                    x0=cfg.x0, y0=cfg.y0, threads=threads,
                    retire_glued=not keep_glued, **kw)
    need = 2 if set(_PATH_MEAN_SE) & set(cfg["experiments"]["which"]) else 1
    if np.count_nonzero(rec.live) < need:
        raise _TooFewLivePaths({"n_paths": int(rec.n_paths),
                                "failed_paths": int(np.sum(rec.failed)),
                                "ok": False})
    return rec


# the selected experiments' results and series; the coupled ensemble's raw
# paths are written to dest here, so that the record is freed on return
def _run_experiments(cfg: RunConfig, threads, dest: Path):
    ex = cfg["experiments"]
    which = ex["which"]
    out: dict = {}
    series: dict = {}
    rec = None
    space, model, sim, x0 = cfg.space, cfg.model, cfg.sim, cfg.x0
    dist0 = _start_distance(cfg)
    # every experiment but contraction reads the coupled ensemble, and
    # lemma31 alone its delta-crossing times
    if set(which) - {"contraction"}:
        deltas = (tuple(m * dist0 for m in ex["lemma31_deltas"])
                  if "lemma31" in which else ())
        rec = _ensemble(cfg, "coupled", threads, delta_grid=deltas)
        out["ensemble"] = {
            "n_paths": int(sim.n_paths),
            "failed_paths": int(np.sum(rec.failed)),
            "glued_fraction": float(np.mean(rec.coupled[rec.live])),
            "tau_n_hit_fraction": float(np.mean(~np.isnan(rec.tau_n[rec.live]))),
        }
    # K' is read only by lemma31 and supermartingale; bounding it from the
    # model evaluates |h'| at 6,002 points of the cutoff band
    kprime = ex["super_kprime"]
    if kprime is None and {"lemma31", "supermartingale"} & set(which):
        kprime = xp.d3_rate_bound(model)
    if "survival" in which:
        times, p, se = xp.survival_curve(rec)
        series["survival"] = (times, p, se)
        out["survival"] = {"times": xp.floats(times),
                           "probability": xp.floats(p),
                           "std_err": xp.floats(se)}
    if "lemma31" in which:
        t31 = ex["lemma31_t"]
        if t31 is None:
            t31 = sim.horizon / 2.0
        k31 = ex["lemma31_kprime"]
        if k31 is None:
            k31 = kprime
        res = xp.check_lemma31(rec, t=t31, kprime=k31)
        res_zero = xp.check_lemma31(rec, t=t31, kprime=0.0)
        out["lemma31"] = res
        out["lemma31_kprime_zero"] = res_zero
    if "supermartingale" in which:
        g = _g_spec_from(ex, dist0, model.family.r)
        res = xp.supermartingale_diagnostic(rec, g, kprime)
        out["supermartingale"] = res
        out["coupling_tail"] = xp.coupling_tail_bound(rec, kprime)
        series["supermartingale"] = (res["times"], res["mean"], res["std_err"])
    if "chain" in which:
        out["chain"] = xp.prop21_chain(rec, space)
    if "marginal_ou" in which:
        t_m = ex["marginal_t"]
        if t_m is None:
            t_m = sim.checkpoint_times[-1]
        out["marginal_ou"] = xp.marginal_ou_check(rec, space, model, x0,
                                                  cfg.y0, t_m)
    if "contraction" in which:
        sync = _ensemble(cfg, "synchronous", threads)
        fit = xp.contraction_fit(sync, t_min=ex["fit_t_min"])
        bound = ex["fit_rate_bound"]
        res = dict(fit)
        if bound is not None:
            half = 0.5 * (fit["ci"][1] - fit["ci"][0])
            res["rate_bound"] = float(bound)
            res["ok"] = bool(fit["rate"] <= bound + half)
        out["contraction"] = res
        series["contraction"] = (sync.checkpoint_times,
                                 *xp.mean_se(sync.h_dist[sync.live] ** 2))
    if rec is not None and _writes_paths_csv(cfg):
        _dump_paths_csv(dest / "paths.csv", rec)
    return out, series


def _aggregate_result(cfg: RunConfig, results: dict, series: dict) -> dict:
    """Everything rolled into one provenance-carrying summary object."""
    rates = {}
    if "contraction" in results:
        fit = results["contraction"]
        rates["contraction"] = (fit["rate"], *fit["ci"])
    return {
        "experiment_id": "run",
        "config_hash": config_hash(cfg),
        "estimates": {name: {"grid": xp.floats(grid), "value": xp.floats(vals),
                             "std_err": xp.floats(errs)}
                      for name, (grid, vals, errs) in series.items()},
        "fitted_rates": {k: {"rate": float(r), "ci_lo": float(lo),
                             "ci_hi": float(hi)}
                         for k, (r, lo, hi) in rates.items()},
        "pass_flags": {name: bool(results[name]["ok"]) for name in _GATED
                       if "ok" in results.get(name, {})},
    }


# the super_g test function, given the parameters its kind reads; r is the
# model's exponent (p - 1 for the p-Laplacian), which log_power reads
def _g_spec_from(ex: dict, dist0: float, r: float) -> xp.GSpec:
    reads = {"power": {"eps": ex["super_eps"]},
             "clipped_linear": {"eps": ex["super_eps"], "delta": 2.0 * dist0},
             "log_power": {"r": r}}
    return xp.GSpec(ex["super_g"], **reads.get(ex["super_g"], {}))


# results whose "ok" flag gates the exit status
_GATED = ("ensemble", "lemma31", "supermartingale", "coupling_tail",
          "chain", "marginal_ou", "contraction")


def collect_failures(results: dict) -> list:
    return ([{"check": name, "flag": "ok"} for name in _GATED
             if results.get(name, {}).get("ok") is False]
            + [{"check": f"condition:{name}", "flag": "verdict"}
               for name, rep in results.get("conditions", {}).items()
               if rep["verdict"] != "pass"])


def _write_json(path: Path, obj) -> None:
    # repr stands in for any value JSON cannot hold
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=repr)
                    + "\n", encoding="utf-8")


def _write_csv(path: Path, times, values, std_errs) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,estimate,std_err\n")
        for t, v, s in zip(times, values, std_errs):
            fh.write(f"{float(t):.17g},{float(v):.17g},{float(s):.17g}\n")


def _dump_paths_csv(path: Path, rec) -> None:
    """Raw per-path dump: one row per (path, checkpoint)."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,time,x_mode1,h_dist,q_dist,tau_n,glued\n")
        for p_idx in range(rec.n_paths):
            tau = rec.tau_n[p_idx]
            for j, t in enumerate(rec.checkpoint_times):
                row = [str(p_idx), f"{float(t):.17g}",
                       f"{float(rec.x_mode1[p_idx, j]):.17g}",
                       f"{float(rec.h_dist[p_idx, j]):.17g}",
                       f"{float(rec.q_dist[p_idx, j]):.17g}",
                       "" if np.isnan(tau) else f"{float(tau):.17g}",
                       str(int(rec.coupled[p_idx]))]
                fh.write(",".join(row) + "\n")


# [CPU s, peak RSS MiB] of this process and of its reaped children (the
# forked path and condition workers; the RSS is the largest child's)
def _usage() -> list:
    return [(ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)
            for ru in map(resource.getrusage,
                          (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))]


def run(cfg: RunConfig, out_dir=None, seed: int | None = None,
        threads: int | None = None) -> int:
    """Execute the configured experiments and persist results.

    Returns the process exit status: 0 on success, 1 when a gated check
    failed (a machine-readable report is written next to the summary).
    """
    t_start = time.perf_counter()
    usage_start = _usage() if resource else None
    # the peak RSS so far at the end of each phase, to show which set it
    phase_rss = {}

    def end_phase(name: str) -> float:
        if resource:
            (_, rss), (_, w_rss) = _usage()
            phase_rss[name] = {"self": rss, "largest_worker": w_rss}
        return time.perf_counter()

    if seed is not None:
        cfg = _replaced(cfg, "sim", master_seed=int(seed))
    digest = config_hash(cfg)
    base = Path(out_dir if out_dir is not None else cfg["output"]["directory"])
    dest = base / digest
    dest.mkdir(parents=True, exist_ok=True)

    # the condition suite reads no ensemble, so it runs first: its
    # mean-value pairs are freed before the path workers fork
    conditions = _run_conditions(cfg, threads)
    t_conditions = end_phase("conditions")
    try:
        results, series = _run_experiments(cfg, threads, dest)
    except _TooFewLivePaths as exc:
        # the estimators are skipped; the failed ensemble is the failed check
        results = {"ensemble": exc.args[0]}
        series = {}
    if conditions:
        results["conditions"] = conditions
    t_experiments = end_phase("experiments")

    failures = collect_failures(results)
    summary = {
        "config_hash": digest,
        "master_seed": int(cfg["sim"]["master_seed"]),
        "results": results,
        "experiment_result": _aggregate_result(cfg, results, series),
        "failed_checks": failures,
    }
    if "json" in cfg["output"]["formats"]:
        _write_json(dest / "summary.json", summary)
    if "csv" in cfg["output"]["formats"]:
        for name, (times, vals, errs) in series.items():
            _write_csv(dest / f"{name}.csv", times, vals, errs)
    t_write = end_phase("write")
    manifest = {
        "config_hash": digest,
        "config": cfg.values,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": time.perf_counter() - t_start,
        # conditions: the condition suite; experiments: the ensembles, the
        # estimators and paths.csv; write: summary.json and the series
        "phase_wall_s": {"conditions": t_conditions - t_start,
                         "experiments": t_experiments - t_conditions,
                         "write": t_write - t_experiments},
        "workers": (len(path_batches(cfg.sim.n_paths, threads))
                    if cfg["experiments"]["which"] else 0),
    }
    if resource:
        (cpu, rss), (w_cpu, w_rss) = _usage()
        manifest["cpu_s"] = {"self": cpu - usage_start[0][0],
                             "workers": w_cpu - usage_start[1][0]}
        manifest["peak_rss_mb"] = {"self": rss, "largest_worker": w_rss}
        manifest["phase_peak_rss_mb"] = phase_rss
    _write_json(dest / "manifest.json", manifest)
    if failures:
        _write_json(dest / "failures.json", {"failed_checks": failures})
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    if args.seed is not None:
        cfg = _replaced(cfg, "sim", master_seed=args.seed)
    code = run(cfg, out_dir=args.out, threads=args.threads)
    print(f"config {config_hash(cfg)}: " + ("FAILED" if code else "ok"))
    return code


def _cmd_check_conditions(args) -> int:
    reports = _run_conditions(parse_config_file(args.config), None)
    if not reports:
        print("no conditions selected in [conditions] which")
        return 0
    wid = max(len(k) for k in reports)
    for name, rep in sorted(reports.items()):
        consts = ", ".join(f"{k}={v:.6g}" for k, v in
                           rep["fitted_constants"].items())
        print(f"{name:<{wid}}  {rep['verdict']:<7} "
              f"violations={rep['violation_count']:<6} "
              f"worst_margin={rep['worst_margin']:.3e}  {consts}")
    if args.out:
        dest = Path(args.out)
        dest.mkdir(parents=True, exist_ok=True)
        _write_json(dest / "conditions.json", reports)
    return 1 if collect_failures({"conditions": reports}) else 0


def _cmd_oracle(args) -> int:
    cfg = parse_config_file(args.config)
    _check_ou_law(cfg, "oracle")
    print("Ornstein-Uhlenbeck analytics per H-mode (linear family, B = 0)")
    for t in cfg.sim.checkpoint_times:
        mean, var = xp.ou_oracle(cfg.space, cfg.model, cfg.x0, t)
        head = ", ".join(f"mode{i+1}: mean={mean[i]:.6g} var={var[i]:.6g}"
                         for i in range(min(4, cfg.space.n_modes)))
        print(f"t={t:.6g}  {head}")
    return 0


def _worker_count(text: str) -> int:
    """The value of ``--threads``: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spde-reflect",
        description="Reflection-coupling simulation laboratory for "
                    "monotone SPDEs on (0, 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_txt in (
            ("run", _cmd_run, "run configured experiments and conditions"),
            ("check-conditions", _cmd_check_conditions,
             "run only the structural-inequality checks"),
            ("oracle", _cmd_oracle, "print Ornstein-Uhlenbeck analytics")):
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--config", required=True, help="path to config file")
        if name != "oracle":         # oracle only prints
            p.add_argument("--out", default=None, help="output directory")
        if name == "run":            # the one command that steps paths
            p.add_argument("--seed", type=int, default=None,
                           help="override sim.master_seed")
            p.add_argument("--threads", type=_worker_count, default=None,
                           help="forked workers for the paths and the "
                                "condition checks, at least 1 "
                                "(default: usable CPUs)")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

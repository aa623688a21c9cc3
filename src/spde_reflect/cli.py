"""Configuration parsing, experiment orchestration, and persistence.

Three commands read a config: ``run`` steps the ensembles and runs every
selected experiment and condition check, ``check-conditions`` runs only
the condition checks, and ``oracle`` prints the Ornstein-Uhlenbeck law.
Config files are flat INI-style sections of ``key = value`` lines with
``#`` comments.  Parsing is total: unknown sections or keys, duplicate
keys and type errors fail with a line-anchored message; the parser then
builds the space, model, coupling and sim objects, whose own checks fail
as ``<section>: <message>``, and checks the few rules no object owns.
The effective (default-filled) configuration is canonicalized and hashed;
results land in ``<out>/<config_hash>/`` as

* ``summary.json``   -- every experiment result and condition report,
                        byte-stable for a fixed (config, seed),
* one ``<name>.csv`` per series (time, estimate, std_err; 17 significant
  digits),
* ``paths.csv``      -- with ``[output] dump_paths = true``, one row per
                        (path, checkpoint) of the coupled ensemble,
* ``manifest.json``  -- config echo, seed, library versions, and wall
                        time, workers, CPU and peak RSS (not reproducible,
                        so kept out of the summary),
* ``failures.json``  -- machine-readable report when a gated check fails
                        (the process exits nonzero).

Workers, forked processes that write into shared pages (without ``os.fork``
the batches run in turn), number ``--threads``, else the usable CPUs;
outputs are independent of the worker count by construction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass
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
from .integrator import SimConfig, path_batches, run_paths
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
# [sim] record_v_norms and [experiments] holder_epsilons, holder_t and
# holder_direction_mode are parsed and hashed, and nothing reads them:
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
    """Fully validated, default-filled configuration and, when made by
    ``parse_config``, the objects every command runs."""
    values: dict          # section -> key -> parsed value
    space: SpectralSpace | None = None
    model: ModelSpec | None = None
    coupling: CouplingParams | None = None
    sim: SimConfig | None = None
    x0: np.ndarray | None = None          # initial states, read-only
    y0: np.ndarray | None = None

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
    bare = RunConfig(values=values)
    built = {}
    for section, build in (("space", build_space), ("model", build_model),
                           ("coupling", build_coupling), ("sim", build_sim)):
        try:
            built[section] = build(bare)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    cfg = RunConfig(values=values, x0=_initial_state(bare, "x0"),
                    y0=_initial_state(bare, "y0"), **built)
    # each object checks its own section; only rules no object owns follow
    sp, mo, ex, co = (cfg["space"], cfg["model"], cfg["experiments"],
                      cfg["conditions"])
    fam = mo["family"]
    if fam == "plaplace" and sp["gamma"] != 1.0:
        raise ConfigError("p-Laplacian runs require space.gamma = 1")
    if "marginal_ou" in ex["which"]:
        _check_ou_law(cfg, "experiments")
    # each selected experiment's parameters are checked by the code that
    # reads them, so that a bad one fails before any ensemble is stepped
    for w in ex["which"]:
        if w not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {w!r}")
        try:
            if w in _PATH_MEAN_SE:
                xp._two_paths(cfg.sim.n_paths)
            if w == "supermartingale":
                _g_spec_from(ex, _start_distance(cfg))
            elif w == "contraction":
                xp.fit_window(cfg.sim.checkpoint_times, ex["fit_t_min"],
                              _start_distance(cfg))
            elif w == "marginal_ou" and ex["marginal_t"] is not None:
                xp.checkpoint_index(cfg.sim.checkpoint_times, ex["marginal_t"])
            elif w == "lemma31":
                if not ex["lemma31_deltas"]:
                    raise ValueError("lemma31_deltas must not be empty")
                if min(ex["lemma31_deltas"]) <= 0.0:
                    raise ValueError("lemma31_deltas entries must be > 0")
                xp._distinct_pair(_start_distance(cfg))
                xp.checkpoint_index(cfg.sim.checkpoint_times, 0.0)
                t = ex["lemma31_t"]
                if t is not None and not 0.0 <= t <= cfg.sim.horizon:
                    raise ValueError("lemma31_t must lie in [0, sim.horizon]")
        except ValueError as exc:
            raise ConfigError(f"experiments: {w}: {exc}") from None
    for w in co["which"]:
        if w not in _CONDITIONS:
            raise ConfigError(f"unknown condition {w!r}")
    for f in cfg["output"]["formats"]:
        if f not in ("json", "csv"):
            raise ConfigError(f"unknown output format {f!r}")
    if co["samples"] < 1 or co["mv_samples"] < 1:
        raise ConfigError("conditions.samples and mv_samples must be >= 1")
    r_eff = cfg.model.family.r
    needs_kappa = {"a1prime", "a1doubleprime", "interpolation", "spectrum"}
    if needs_kappa & set(co["which"]) and not (
            co["kappa"] is not None and co["kappa"] > 0.0):
        raise ConfigError(
            "conditions.kappa > 0 is required for the selected checks")
    if "a1prime" in co["which"]:
        if fam == "fastdiff":
            raise ConfigError("a1prime applies to r >= 1 families")
        if co["kappa"] <= r_eff - 1.0:
            raise ConfigError(
                f"a1prime requires kappa > r - 1 (kappa={co['kappa']}, r={r_eff})")
    if "a1doubleprime" in co["which"] and fam != "fastdiff":
        raise ConfigError("a1doubleprime applies to the fast-diffusion family")
    if "spectrum" in co["which"] and sp["q_decay"] <= 0.5:
        raise ConfigError("the Hilbert-Schmidt gate needs q_decay > 1/2")
    if "nash" in co["which"]:
        if fam != "fastdiff":
            raise ConfigError("the Nash gate applies to the fast-diffusion family")
        if co["nash_m"] is not None and not co["nash_m"] > 0.0:
            raise ConfigError("conditions.nash_m must be > 0")
    if "meanvalue" in co["which"] and not co["mv_r"]:
        raise ConfigError(
            "conditions.mv_r must not be empty when meanvalue is selected")
    for rv in co["mv_r"]:
        if not 0.0 < rv < 1.0:
            raise ConfigError("conditions.mv_r entries must lie in (0, 1)")
    return cfg


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
# builders

def build_space(cfg: RunConfig):
    sp = cfg["space"]
    weighted = cfg["model"]["family"] != "plaplace"
    return make_space(sp["n_modes"], sp["gamma"], weighted=weighted,
                      q_amp=sp["q_amp"], q_decay=sp["q_decay"],
                      oversample=sp["oversample"])


def build_model(cfg: RunConfig) -> ModelSpec:
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


def build_coupling(cfg: RunConfig) -> CouplingParams:
    return CouplingParams(n=cfg["coupling"]["n"],
                          glue_eps=cfg["coupling"]["glue_eps"])


def build_sim(cfg: RunConfig, seed_override: int | None = None) -> SimConfig:
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


def _initial_state(cfg: RunConfig, key: str) -> np.ndarray:
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

def _mean_value_reports(co) -> dict:
    # the pairs do not depend on r: one batch serves every exponent; it is
    # freed on return, before the next checker draws its states
    batch = iq.mean_value_batch(co["mv_samples"], co["seed"])
    return {f"meanvalue_r{rv:g}": iq.check_scalar_mean_value(
        rv, co["mv_samples"], seed=co["seed"], batch=batch).as_dict()
        for rv in co["mv_r"]}


def _run_conditions(cfg: RunConfig) -> dict:
    space, model = cfg.space, cfg.model
    co = cfg["conditions"]
    sp = cfg["space"]
    fam = cfg["model"]["family"]
    r_eff = model.family.r
    out = {}
    if "meanvalue" in co["which"]:
        out.update(_mean_value_reports(co))
    for name, checker in (("a1prime", iq.check_A1prime),
                          ("a1doubleprime", iq.check_A1doubleprime),
                          ("interpolation", iq.check_interpolation_Q)):
        if name in co["which"]:
            out[name] = checker(space, model, co["kappa"], co["samples"],
                                seed=co["seed"]).as_dict()
    if "spectrum" in co["which"]:
        params = iq.SpectrumParams(
            gamma=sp["gamma"], delta=sp["q_decay"], d=1,
            r=r_eff if fam != "plaplace" else None,
            p=model.family.p if fam == "plaplace" else None,
            kappa=co["kappa"], c=sp["q_amp"],
            eps=1.0 - co["kappa"] * sp["q_decay"] / (2.0 * sp["gamma"]))
        for g in ("EI", _FAMILY_GATE[fam]):
            rep = iq.check_spectrum_condition(g, params)
            out[f"spectrum_{g}"] = rep.as_dict()
    if "nash" in co["which"]:
        m_nash = co["nash_m"] if co["nash_m"] is not None else 1.0 / sp["gamma"]
        _, rep = iq.nash_exponent_gate(
            m_nash, r_eff, gamma=sp["gamma"], d=1, delta=sp["q_decay"],
            kappa=co["kappa"])
        out["nash"] = rep.as_dict()
    if "coercivity" in co["which"]:
        rep = iq.fit_coercivity(space, model, co["samples"], seed=co["seed"])
        out["coercivity"] = rep.as_dict()
    return out


class _TooFewLivePaths(RuntimeError):
    """An ensemble with fewer live paths than its estimators read; its one
    argument is the ensemble's failed ``results`` entry."""


def _ensemble(cfg: RunConfig, which: str, threads, **kw):
    """The ``which`` ensemble; raises ``_TooFewLivePaths`` unless two paths
    live when a selected experiment reports a path mean with its standard
    error, and one otherwise (the rule ``_validated`` applies to n_paths)."""
    rec = run_paths(cfg.space, cfg.model, cfg.coupling, cfg.sim, which,
                    x0=cfg.x0, y0=cfg.y0, threads=threads, **kw)
    need = 2 if set(_PATH_MEAN_SE) & set(cfg["experiments"]["which"]) else 1
    if np.count_nonzero(rec.live) < need:
        raise _TooFewLivePaths({"n_paths": int(rec.n_paths),
                                "failed_paths": int(np.sum(rec.failed)),
                                "ok": False})
    return rec


# the selected experiments' results and series; the coupled ensemble's raw
# paths are written to dest here, so that the record is freed on return,
# before the condition suite allocates
def _run_experiments(cfg: RunConfig, threads, dest: Path):
    ex = cfg["experiments"]
    which = ex["which"]
    out: dict = {}
    series: dict = {}
    rec = None
    space, model, sim, x0 = cfg.space, cfg.model, cfg.sim, cfg.x0
    dist0 = _start_distance(cfg)
    needs_coupled = {"survival", "lemma31", "supermartingale", "chain",
                     "marginal_ou"} & set(which)
    if needs_coupled:
        deltas = tuple(m * dist0 for m in ex["lemma31_deltas"])
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
        g = _g_spec_from(ex, dist0)
        res = xp.supermartingale_diagnostic(rec, g, kprime)
        out["supermartingale"] = res
        out["coupling_tail"] = xp.coupling_tail_bound(rec, kprime)
        series["supermartingale"] = (res["times"], res["mean"], res["std_err"])
    if "chain" in which:
        out["chain"] = xp.prop21_chain(rec, xp.canonical_f(space))
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
    if (rec is not None and cfg["output"]["dump_paths"]
            and "csv" in cfg["output"]["formats"]):
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


def _g_spec_from(ex: dict, dist0: float) -> xp.GSpec:
    name = ex["super_g"]
    if name == "identity":
        return xp.GSpec("identity")
    if name == "power":
        return xp.GSpec("power", eps=ex["super_eps"])
    if name == "clipped_linear":
        return xp.GSpec("clipped_linear", eps=ex["super_eps"], delta=2.0 * dist0)
    if name == "log_power":
        return xp.GSpec("log_power", r=1.0)
    if name == "sqrt_log":
        return xp.GSpec("sqrt_log")
    raise ValueError(f"unknown super_g {name!r}")


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
                       f"{float(rec.x_coeffs[p_idx, j, 0]):.17g}",
                       f"{float(rec.h_dist[p_idx, j]):.17g}",
                       f"{float(rec.q_dist[p_idx, j]):.17g}",
                       "" if np.isnan(tau) else f"{float(tau):.17g}",
                       str(int(rec.coupled[p_idx]))]
                fh.write(",".join(row) + "\n")


# [CPU s, peak RSS MiB] of this process and of its reaped children (the
# forked path workers; the RSS is the largest child's)
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
    t_start = time.time()
    usage_start = _usage() if resource else None
    if seed is not None:
        cfg = _replaced(cfg, "sim", master_seed=int(seed))
    digest = config_hash(cfg)
    base = Path(out_dir if out_dir is not None else cfg["output"]["directory"])
    dest = base / digest
    dest.mkdir(parents=True, exist_ok=True)

    try:
        results, series = _run_experiments(cfg, threads, dest)
    except _TooFewLivePaths as exc:
        # the estimators are skipped; the failed ensemble is the failed check
        results = {"ensemble": exc.args[0]}
        series = {}
    conditions = _run_conditions(cfg)
    if conditions:
        results["conditions"] = conditions

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
    manifest = {
        "config_hash": digest,
        "config": cfg.values,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": time.time() - t_start,
        "workers": (len(path_batches(cfg.sim.n_paths, threads))
                    if cfg["experiments"]["which"] else 0),
    }
    if resource:
        (cpu, rss), (w_cpu, w_rss) = _usage()
        manifest["cpu_s"] = {"self": cpu - usage_start[0][0],
                             "workers": w_cpu - usage_start[1][0]}
        manifest["peak_rss_mb"] = {"self": rss, "largest_worker": w_rss}
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
    reports = _run_conditions(parse_config_file(args.config))
    if not reports:
        print("no conditions selected in [conditions] which")
        return 0
    wid = max(len(k) for k in reports)
    bad = 0
    for name, rep in sorted(reports.items()):
        consts = ", ".join(f"{k}={v:.6g}" for k, v in
                           rep["fitted_constants"].items())
        print(f"{name:<{wid}}  {rep['verdict']:<7} "
              f"violations={rep['violation_count']:<6} "
              f"worst_margin={rep['worst_margin']:.3e}  {consts}")
        bad += rep["verdict"] != "pass"
    if args.out:
        dest = Path(args.out)
        dest.mkdir(parents=True, exist_ok=True)
        _write_json(dest / "conditions.json", reports)
    return 1 if bad else 0


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
                           help="forked path workers, at least 1 "
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

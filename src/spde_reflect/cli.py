"""Configuration parsing, experiment orchestration, and persistence.

Config files are flat INI-style sections of ``key = value`` lines with
``#`` comments.  Parsing is total: unknown sections or keys, duplicate
keys and type errors fail with a line-anchored message; the parser then
builds the space, model, coupling and sim objects, whose own checks fail
as ``<section>: <message>``, and checks the few rules no object owns.
The effective (default-filled) configuration is canonicalized and hashed;
results land in ``<out>/<config_hash>/`` as

* ``summary.json``   -- every experiment result and condition report,
                        byte-stable for a fixed (config, seed),
* one ``<name>.csv`` per series (grid, estimate, std_err; 17 significant
  digits),
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


def _parse_float_list(s: str):
    return tuple(float(p) for p in s.split(",") if p.strip())


def _parse_str_list(s: str):
    return tuple(p.strip() for p in s.split(",") if p.strip())


# section -> key -> (parser, default); required keys use _REQUIRED
_REQUIRED = object()

_SCHEMA = {
    "space": {
        "n_modes": (int, 16),
        "gamma": (float, 1.0),
        "q_amp": (float, 1.0),
        "q_decay": (float, 0.75),
        "oversample": (int, 4),
    },
    "model": {
        "family": (str, _REQUIRED),
        "r": (float, None),
        "psi_scale": (float, 1.0),
        "phi_slope": (float, 0.0),
        "p": (float, None),
        "beta0": (float, 0.0),
        "beta_amp": (float, 0.0),
        "beta_freq": (float, 0.0),
        "b_spec": (str, "zero"),
        "c0": (float, 0.0),
        "b_base_decay": (float, 1.0),
        "theta": (float, None),
    },
    "coupling": {
        "n": (int, 10),
        "glue_eps": (float, 1e-12),
    },
    "sim": {
        "dt": (float, 1e-4),
        "horizon": (float, 0.5),
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
        "kappa": (float, None),
        "lemma31_deltas": (_parse_float_list, (2.0, 4.0, 8.0)),
        "lemma31_t": (float, None),
        "lemma31_kprime": (float, None),
        "super_g": (str, "identity"),
        "super_eps": (float, 0.5),
        "super_kprime": (float, None),
        "marginal_t": (float, None),
        "fit_t_min": (float, 0.0),
        "fit_rate_bound": (float, None),
        "holder_epsilons": (_parse_float_list, (0.01, 0.02, 0.04)),
        "holder_t": (float, None),
        "holder_direction_mode": (int, 1),
    },
    "conditions": {
        "which": (_parse_str_list, ()),
        "samples": (int, 10000),
        "kappa": (float, None),
        "mv_r": (_parse_float_list, (0.25, 0.5, 0.75)),
        "mv_samples": (int, 1000000),
        "nash_m": (float, None),
        "seed": (int, 777),
    },
    "output": {
        "directory": (str, "results"),
        "formats": (_parse_str_list, ("json", "csv")),
        "dump_paths": (_parse_bool, False),
    },
}

_EXPERIMENTS = ("survival", "lemma31", "supermartingale", "chain",
                "contraction", "marginal_ou", "holder")
_CONDITIONS = ("meanvalue", "a1prime", "a1doubleprime", "interpolation",
               "spectrum", "nash", "coercivity")


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
    if not 1 <= ex["holder_direction_mode"] <= sp["n_modes"]:
        raise ConfigError(
            "experiments.holder_direction_mode must lie in [1, space.n_modes]")
    if "marginal_ou" in ex["which"]:
        _check_ou_law(cfg, "experiments")
    # each selected experiment's parameters are checked by the code that
    # reads them, so that a bad one fails before any ensemble is stepped
    for w in ex["which"]:
        if w not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {w!r}")
        try:
            if w == "supermartingale":
                _g_spec_from(ex, _start_distance(cfg))
            elif w == "contraction":
                _fit_window(cfg)
            elif w in ("marginal_ou", "holder"):
                t = ex["marginal_t" if w == "marginal_ou" else "holder_t"]
                if t is not None:
                    xp.checkpoint_index(cfg.sim.checkpoint_times, t)
            elif w == "lemma31":
                if not ex["lemma31_deltas"]:
                    raise ValueError("lemma31_deltas must not be empty")
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
    for rv in co["mv_r"]:
        if not 0.0 < rv < 1.0:
            raise ConfigError("conditions.mv_r entries must lie in (0, 1)")
    return cfg


def _with_seed(cfg: RunConfig, seed: int | None) -> RunConfig:
    """``cfg`` with sim.master_seed replaced by ``seed``, when one is given."""
    if seed is None:
        return cfg
    return _validated({**cfg.values,
                       "sim": {**cfg["sim"], "master_seed": int(seed)}})


def _check_ou_law(cfg: RunConfig, context: str) -> None:
    """ConfigError unless the model's law is the one ``ou_oracle`` knows."""
    try:
        xp.ou_oracle(cfg.space, cfg.model, cfg.x0, 0.0)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _start_distance(cfg: RunConfig) -> float:
    return float(h_norm(cfg.space, cfg.x0 - cfg.y0))


def _fit_window(cfg: RunConfig) -> np.ndarray:
    """The contraction fit's checkpoints; raises when no fit can be made."""
    return xp.fit_window(cfg.sim.checkpoint_times,
                         cfg["experiments"]["fit_t_min"], _start_distance(cfg))


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
    seed = co["seed"]
    out = {}
    if "meanvalue" in co["which"] and co["mv_r"]:
        out.update(_mean_value_reports(co))
    if "a1prime" in co["which"]:
        rep = iq.check_A1prime(space, model, co["kappa"], co["samples"], seed=seed)
        out["a1prime"] = rep.as_dict()
    if "a1doubleprime" in co["which"]:
        rep = iq.check_A1doubleprime(space, model, co["kappa"], co["samples"],
                                     seed=seed)
        out["a1doubleprime"] = rep.as_dict()
    if "interpolation" in co["which"]:
        rep = iq.check_interpolation_Q(space, model, co["kappa"], co["samples"],
                                       seed=seed)
        out["interpolation"] = rep.as_dict()
    if "spectrum" in co["which"]:
        params = iq.SpectrumParams(
            gamma=sp["gamma"], delta=sp["q_decay"], d=1,
            r=r_eff if fam != "plaplace" else None,
            p=model.family.p if fam == "plaplace" else None,
            kappa=co["kappa"], c=sp["q_amp"],
            eps=1.0 - co["kappa"] * sp["q_decay"] / (2.0 * sp["gamma"]))
        gates = ["EI"]
        if fam == "porous":
            gates.append("*E")
        elif fam == "plaplace":
            gates.append("**E")
        else:
            gates.append("SB")
        for g in gates:
            rep = iq.check_spectrum_condition(g, params)
            out[f"spectrum_{g}"] = rep.as_dict()
    if "nash" in co["which"]:
        m_nash = co["nash_m"] if co["nash_m"] is not None else 1.0 / sp["gamma"]
        _, rep = iq.nash_exponent_gate(
            m_nash, r_eff, gamma=sp["gamma"], d=1, delta=sp["q_decay"],
            kappa=co["kappa"])
        out["nash"] = rep.as_dict()
    if "coercivity" in co["which"]:
        rep = iq.fit_coercivity(space, model, co["samples"], seed=seed)
        out["coercivity"] = rep.as_dict()
    return out


def _ensemble(cfg: RunConfig, which: str, threads, **kw):
    return run_paths(cfg.space, cfg.model, cfg.coupling, cfg.sim, which,
                     x0=cfg.x0, y0=cfg.y0, threads=threads, **kw)


# the selected experiments' results and series; the coupled ensemble's raw
# paths are written to dest here, so that the record is freed on return,
# before the condition suite allocates
def _run_experiments(cfg: RunConfig, threads, dest: Path):
    ex = cfg["experiments"]
    which = ex["which"]
    out: dict = {}
    series: dict = {}
    rec = None
    if not which:
        return out, series
    space, model, sim, x0 = cfg.space, cfg.model, cfg.sim, cfg.x0
    dist0 = _start_distance(cfg)
    needs_coupled = {"survival", "lemma31", "supermartingale", "chain",
                     "marginal_ou"} & set(which)
    if needs_coupled:
        deltas = tuple(m * dist0 for m in ex["lemma31_deltas"])
        rec = _ensemble(cfg, "coupled", threads, delta_grid=deltas,
                        record_v_norms=cfg["sim"]["record_v_norms"])
        out["ensemble"] = {
            "n_paths": int(sim.n_paths),
            "failed_paths": int(np.sum(rec.failed)),
            "glued_fraction": float(np.mean(rec.coupled[rec.live])),
            "tau_n_hit_fraction": float(np.mean(~np.isnan(rec.tau_n[rec.live]))),
        }
    # K' is read only by lemma31 and supermartingale, and bounding it from
    # the model scans 2,000,001 points
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
    if "holder" in which:
        t_h = ex["holder_t"]
        if t_h is None:
            t_h = sim.checkpoint_times[-1]
        direction = np.zeros(space.n_modes)
        direction[ex["holder_direction_mode"] - 1] = 1.0
        res = xp.holder_ratio_scan(space, model, sim, x0, direction,
                                   ex["holder_epsilons"], t_h,
                                   coupling_params=cfg.coupling,
                                   threads=threads)
        out["holder"] = res
        series["holder"] = ([r["eps"] for r in res["rows"]],
                            [r["estimate"] for r in res["rows"]],
                            [r["std_err"] for r in res["rows"]])
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
    if "holder" in results and np.isfinite(results["holder"]["slope"]):
        s, se = results["holder"]["slope"], results["holder"]["slope_se"]
        rates["holder_exponent"] = (s, s - 2 * se, s + 2 * se)
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
_GATED = ("lemma31", "supermartingale", "coupling_tail", "chain",
          "marginal_ou", "contraction")


def collect_failures(results: dict) -> list:
    return ([{"check": name, "flag": "ok"} for name in _GATED
             if results.get(name, {}).get("ok") is False]
            + [{"check": f"condition:{name}", "flag": "verdict"}
               for name, rep in results.get("conditions", {}).items()
               if rep["verdict"] == "fail"])


def _write_csv(path: Path, grid, values, std_errs, grid_name="grid") -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{grid_name},estimate,std_err\n")
        for g, v, s in zip(grid, values, std_errs):
            fh.write(f"{float(g):.17g},{float(v):.17g},{float(s):.17g}\n")


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
    cfg = _with_seed(cfg, seed)
    digest = config_hash(cfg)
    base = Path(out_dir if out_dir is not None else cfg["output"]["directory"])
    dest = base / digest
    dest.mkdir(parents=True, exist_ok=True)

    results, series = _run_experiments(cfg, threads, dest)
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
        (dest / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    if "csv" in cfg["output"]["formats"]:
        grid_names = {"survival": "time", "supermartingale": "time",
                      "contraction": "time", "holder": "eps"}
        for name, (grid, vals, errs) in series.items():
            _write_csv(dest / f"{name}.csv", grid, vals, errs,
                       grid_name=grid_names.get(name, "grid"))
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
    (dest / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=repr) + "\n",
        encoding="utf-8")
    if failures:
        (dest / "failures.json").write_text(
            json.dumps({"failed_checks": failures}, sort_keys=True, indent=2)
            + "\n", encoding="utf-8")
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _load(args) -> RunConfig:
    return _with_seed(parse_config_file(args.config), args.seed)


def _cmd_run(args) -> int:
    cfg = _load(args)
    code = run(cfg, out_dir=args.out, threads=args.threads)
    print(f"config {config_hash(cfg)}: " + ("FAILED" if code else "ok"))
    return code


def _cmd_check_conditions(args) -> int:
    reports = _run_conditions(_load(args))
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
        bad += rep["verdict"] == "fail"
    if args.out:
        dest = Path(args.out)
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "conditions.json").write_text(
            json.dumps(reports, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    return 1 if bad else 0


def _cmd_couple(args) -> int:
    rec = _ensemble(_load(args), "coupled", args.threads)
    times, p, se = xp.survival_curve(rec)
    print("t, P(tau_n > t), std_err")
    for t, pv, s in zip(times, p, se):
        print(f"{t:.6g}, {pv:.6g}, {s:.6g}")
    print(f"glued fraction: {float(np.mean(rec.coupled[rec.live])):.6g}")
    if args.out:
        dest = Path(args.out)
        dest.mkdir(parents=True, exist_ok=True)
        _write_csv(dest / "survival.csv", times, p, se, grid_name="time")
        _write_csv(dest / "mean_distance.csv", times,
                   *xp.mean_se(rec.h_dist[rec.live]), grid_name="time")
        _dump_paths_csv(dest / "paths.csv", rec)
    return 0


def _cmd_fit_rate(args) -> int:
    cfg = _load(args)
    try:
        _fit_window(cfg)
    except ValueError as exc:
        raise ConfigError(f"fit-rate: {exc}") from None
    rec = _ensemble(cfg, "synchronous", args.threads)
    fit = xp.contraction_fit(rec, t_min=cfg["experiments"]["fit_t_min"])
    print(f"decay rate of log E|X-Y|^2: {fit['rate']:.6g} "
          f"(95% CI [{fit['ci'][0]:.6g}, {fit['ci'][1]:.6g}], "
          f"window {fit['t_window']})")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load(args)
    _check_ou_law(cfg, "oracle")
    print("Ornstein-Uhlenbeck analytics per H-mode (linear family, B = 0)")
    for t in cfg.sim.checkpoint_times:
        mean, var = xp.ou_oracle(cfg.space, cfg.model, cfg.x0, t)
        head = ", ".join(f"mode{i+1}: mean={mean[i]:.6g} var={var[i]:.6g}"
                         for i in range(min(4, cfg.space.n_modes)))
        print(f"t={t:.6g}  {head}")
    return 0


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
            ("couple", _cmd_couple, "simulate the coupled ensemble and "
                                    "print the survival curve"),
            ("fit-rate", _cmd_fit_rate, "fit the contraction rate on a "
                                        "synchronous ensemble"),
            ("oracle", _cmd_oracle, "print Ornstein-Uhlenbeck analytics")):
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override sim.master_seed")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("run", "couple", "fit-rate"):    # the ensemble commands
            p.add_argument("--threads", type=int, default=None,
                           help="forked path workers (default: usable CPUs)")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

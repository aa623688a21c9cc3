import hashlib
import json
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from spde_reflect import cli
from spde_reflect.cli import (
    ConfigError, parse_config, parse_config_file, config_hash, run,
    main, build_space, build_model, build_coupling, build_sim,
)
from spde_reflect.integrator import path_batches


MINIMAL = """
[model]
family = porous
r = 2.0
"""

LINEAR = MINIMAL.replace("r = 2.0", "r = 1.0")

# a short run for the experiment parameter rules
SHORT = "[space]\nn_modes = 4\n[sim]\nhorizon = 0.01\ncheckpoints = 0, 0.01\n"

SMALL_RUN = """
[space]
n_modes = 8
gamma = 2.0
q_decay = 0.75

[model]
family = porous
r = 2.0

[coupling]
n = 20

[sim]
dt = 5e-4
horizon = 0.1
n_paths = 128
master_seed = 404
checkpoints = 0, 0.02, 0.05, 0.1
x0 = 1.2
y0 = -1.2

[experiments]
which = survival, lemma31, supermartingale, chain
lemma31_t = 0.05

[conditions]
which = meanvalue, a1prime
samples = 1000
mv_samples = 20000
kappa = 8.0
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["space"]["n_modes"] == 16
    assert cfg["sim"]["dt"] == 1e-4
    assert cfg["model"]["psi_scale"] == 1.0
    assert cfg["output"]["directory"] == "results"
    assert cfg["experiments"]["which"] == ()


def test_parse_missing_required():
    with pytest.raises(ConfigError, match="family"):
        parse_config("[space]\nn_modes = 8\n")


def test_parse_duplicate_key():
    text = MINIMAL + "\n[sim]\ndt = 1e-3\ndt = 1e-4\n"
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(text)


def test_parse_unknown_key_and_section():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + "\n[sim]\nwibble = 3\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[nonsense]\n")


def test_parse_line_numbers_reported():
    text = "[model]\nfamily = porous\nr = 2.0\nnot a kv line\n"
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(text)


def test_parse_bad_value_type():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(MINIMAL + "\n[sim]\nn_paths = hello\n")


def test_cross_field_kappa_rule():
    text = MINIMAL + "\n[conditions]\nwhich = a1prime\nkappa = 0.5\n"
    with pytest.raises(ConfigError, match="kappa > r - 1"):
        parse_config(text)


def test_cross_field_family_rules():
    with pytest.raises(ConfigError, match="r >= 1"):
        parse_config("[model]\nfamily = porous\nr = 0.5\n")
    with pytest.raises(ConfigError, match="r in \\(0, 1\\)"):
        parse_config("[model]\nfamily = fastdiff\nr = 1.5\n")
    with pytest.raises(ConfigError, match="p >= 2"):
        parse_config("[model]\nfamily = plaplace\np = 1.0\n")
    with pytest.raises(ConfigError, match="gamma = 1"):
        parse_config("[model]\nfamily = plaplace\np = 2.0\n"
                     "[space]\ngamma = 2.0\n")


def test_cross_field_sim_grid_rule():
    # an off-grid horizon or checkpoint is refused, not silently snapped
    with pytest.raises(ConfigError, match="horizon must be a multiple of dt"):
        parse_config(MINIMAL + "\n[sim]\ndt = 0.03\nhorizon = 0.1\n")
    with pytest.raises(ConfigError, match="checkpoint_times must be multiples"):
        parse_config(MINIMAL + "\n[sim]\ndt = 0.01\nhorizon = 0.1\n"
                     "checkpoints = 0, 0.055, 0.1\n")
    # the default checkpoints (an even split of the horizon) are checked too
    with pytest.raises(ConfigError, match="checkpoint_times must be multiples"):
        parse_config(MINIMAL + "\n[sim]\ndt = 0.01\nhorizon = 0.1\n"
                     "n_checkpoints = 4\n")
    with pytest.raises(ConfigError, match="dt <= horizon"):
        parse_config(MINIMAL + "\n[sim]\ndt = 0.2\nhorizon = 0.1\n")


def test_cross_field_glue_rule():
    with pytest.raises(ConfigError, match="glue_eps"):
        parse_config(MINIMAL + "\n[coupling]\nn = 10\nglue_eps = 0.2\n")


# each bad config: (text, the message after "config error: ")
_BAD_CONFIGS = {
    "psi_scale": (MINIMAL + "psi_scale = -1\n",
                  "model: psi_scale must be positive"),
    "c0": (MINIMAL + "b_spec = lipschitz_diagonal\nc0 = -1\n",
           "model: c0 must be nonnegative"),
    "n_modes": (MINIMAL + "[space]\nn_modes = 0\n",
                "space: n_modes must be >= 1"),
    "oversample": (MINIMAL + "[space]\noversample = 2\n",
                   "space: oversample must be >= 4"),
    "coupling_n": (MINIMAL + "[coupling]\nn = 0\n",
                   "coupling: n must be >= 1"),
    "b_spec": (MINIMAL + "b_spec = wibble\n",
               "model: b_spec must be zero or lipschitz_diagonal"),
    "family": ("[model]\nfamily = wibble\nr = 2.0\n",
               "model: family must be porous|plaplace|fastdiff"),
    "missing_r": ("[model]\nfamily = porous\n",
                  "model: the porous family needs r"),
    "missing_p": ("[model]\nfamily = plaplace\n",
                  "model: the plaplace family needs p"),
    "samples": (MINIMAL + "[conditions]\nwhich = coercivity\nsamples = 0\n",
                "conditions: coercivity: n_samples must be >= 1"),
    "mv_samples": (MINIMAL + "[conditions]\nwhich = meanvalue\n"
                   "mv_samples = 0\n",
                   "conditions: meanvalue: n_samples must be >= 1"),
    "x0_too_long": (MINIMAL + "[space]\nn_modes = 2\n[sim]\nx0 = 1, 2, 3\n",
                    "sim.x0 has more entries than space.n_modes"),
    "y0_too_long": (MINIMAL + "[space]\nn_modes = 2\n[sim]\ny0 = 1, 2, 3\n",
                    "sim.y0 has more entries than space.n_modes"),
    # the OU oracle holds only for a linear drift with B = 0
    "marginal_ou_nonlinear": (MINIMAL + "[experiments]\nwhich = marginal_ou\n",
                              "experiments: the OU oracle needs porous r = 1"),
    "marginal_ou_diffusion": (
        LINEAR + "b_spec = lipschitz_diagonal\nc0 = 1\n"
        "[experiments]\nwhich = marginal_ou\n",
        "experiments: the OU oracle needs B = 0"),
    "marginal_ou_growth": (
        LINEAR + "phi_slope = 20\n[experiments]\nwhich = marginal_ou\n",
        "experiments: the OU oracle needs psi_scale * lambda_i > phi_slope"),
    # each selected experiment's parameters are checked before the run
    "super_eps": (MINIMAL + SHORT + "[experiments]\nwhich = supermartingale\n"
                  "super_g = power\nsuper_eps = 1.5\n",
                  "experiments: supermartingale: eps must lie in (0, 1)"),
    "super_g": (MINIMAL + SHORT + "[experiments]\nwhich = supermartingale\n"
                "super_g = wibble\n",
                "experiments: supermartingale: unknown g kind 'wibble'"),
    "marginal_t": (LINEAR + SHORT + "[experiments]\nwhich = marginal_ou\n"
                   "marginal_t = 0.005\n",
                   "experiments: marginal_ou: t = 0.005 is not a recorded "
                   "checkpoint"),
    # the Lipschitz scan by common random numbers is gone
    "holder": (MINIMAL + "[experiments]\nwhich = holder\n",
               "unknown experiment 'holder'"),
    "fit_t_min": (MINIMAL + SHORT + "[experiments]\nwhich = contraction\n"
                  "fit_t_min = 0.02\n",
                  "experiments: contraction: fit window must contain at least "
                  "two checkpoints"),
    "lemma31_t": (MINIMAL + SHORT + "[experiments]\nwhich = lemma31\n"
                  "lemma31_t = 5.0\n",
                  "experiments: lemma31: lemma31_t must lie in [0, sim.horizon]"),
    "lemma31_start": (MINIMAL + SHORT.replace("0, 0.01", "0.005, 0.01")
                      + "[experiments]\nwhich = lemma31\n",
                      "experiments: lemma31: t = 0.0 is not a recorded "
                      "checkpoint"),
    "lemma31_deltas": (MINIMAL + SHORT + "[experiments]\nwhich = lemma31\n"
                       "lemma31_deltas =\n",
                       "experiments: lemma31: needs at least one delta"),
    "contraction_x0_is_y0": (MINIMAL + SHORT + "x0 = 1\ny0 = 1\n"
                             "[experiments]\nwhich = contraction\n",
                             "experiments: contraction: degenerate pair: x = y"),
    # every delta would be m |x - y| = 0, and the escape bound 0 / 0
    "lemma31_x0_is_y0": (MINIMAL + SHORT + "x0 = 1\ny0 = 1\n"
                         "[experiments]\nwhich = lemma31\n",
                         "experiments: lemma31: degenerate pair: x = y"),
    # each selected condition's parameters are checked by its checker's rule
    "nash_m": ("[model]\nfamily = fastdiff\nr = 0.5\n"
               "[conditions]\nwhich = nash\nnash_m = -1\n",
               "conditions: nash: the Nash gate needs m > 0 and r in (0, 1), "
               "the fast-diffusion range (m=-1.0, r=0.5)"),
    "nash_porous": (MINIMAL + "[conditions]\nwhich = nash\n",
                    "conditions: nash: the Nash gate needs m > 0 and r in "
                    "(0, 1), the fast-diffusion range (m=1.0, r=2.0)"),
    "interpolation_kappa": (MINIMAL + "[conditions]\nwhich = interpolation\n"
                            "kappa = 0\n",
                            "conditions: interpolation: needs kappa > 0 "
                            "(kappa=0.0)"),
    "a1prime_fastdiff": ("[model]\nfamily = fastdiff\nr = 0.5\n"
                         "[conditions]\nwhich = a1prime\nkappa = 3\n",
                         "conditions: a1prime: A1' applies to families with "
                         "r >= 1"),
    "a1doubleprime_porous": (MINIMAL + "[conditions]\nwhich = a1doubleprime\n"
                             "kappa = 3\n",
                             "conditions: a1doubleprime: A1'' applies to the "
                             "fast-diffusion family"),
    "mv_r": (MINIMAL + "[conditions]\nwhich = meanvalue\nmv_r = 0.5, 1.5\n",
             "conditions: meanvalue: the mean-value exponent must lie in "
             "(0, 1), got 1.5"),
    "spectrum_kappa": (MINIMAL + "[conditions]\nwhich = spectrum\nkappa = 0\n",
                       "conditions: spectrum: needs kappa > 0 (kappa=0.0)"),
    "spectrum_no_kappa": (MINIMAL + "[conditions]\nwhich = spectrum\n",
                          "conditions: spectrum: *E needs kappa and r"),
    "spectrum_q_decay": (MINIMAL + "[space]\nq_decay = 0\n"
                         "[conditions]\nwhich = spectrum\nkappa = 4\n",
                         "conditions: spectrum: needs delta > 0 (delta=0.0)"),
    # the time grid is SimConfig's: at least one checkpoint, one per step
    "checkpoints_empty": (MINIMAL + "[sim]\ncheckpoints =\n",
                          "sim: checkpoint_times must be nonempty"),
    "checkpoints_same_step": (MINIMAL + "[sim]\ndt = 0.01\nhorizon = 0.1\n"
                              "checkpoints = 0, 0.01, 0.01\n",
                              "sim: checkpoint_times collide after snapping "
                              "to steps"),
    # every float, scalar or list entry, must be finite
    "nonfinite_scalar": (MINIMAL + "[space]\ngamma = nan\n",
                         "line 6: bad value for 'gamma': not a finite "
                         "number: 'nan'"),
    "nonfinite_horizon": (MINIMAL + "[sim]\nhorizon = inf\n",
                          "line 6: bad value for 'horizon': not a finite "
                          "number: 'inf'"),
    "nonfinite_list_entry": (MINIMAL + "[sim]\nx0 = 1, -inf\n",
                             "line 6: bad value for 'x0': not a finite "
                             "number: '-inf'"),
    "formats": (MINIMAL + "[output]\nformats = JSON\n",
                "unknown output format 'JSON'"),
    "lemma31_deltas_zero": (MINIMAL + SHORT + "[experiments]\nwhich = lemma31\n"
                            "lemma31_deltas = 0, 2\n",
                            "experiments: lemma31: every delta must be > 0"),
    "mv_r_empty": (MINIMAL + "[conditions]\nwhich = meanvalue\nmv_r =\n",
                   "conditions: meanvalue: mv_r must not be empty"),
}
# a path mean's standard error needs two paths; one leaves it NaN
_BAD_CONFIGS.update({
    f"one_path_{w}": ((LINEAR if w == "marginal_ou" else MINIMAL) + SHORT
                      + f"n_paths = 1\n[experiments]\nwhich = {w}\n",
                      f"experiments: {w}: a path-mean standard error needs "
                      "n_paths >= 2, got 1")
    for w in ("supermartingale", "chain", "contraction", "marginal_ou")})


@pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
def test_bad_config_is_a_config_error(name, tmp_path, capsys, monkeypatch):
    # refused before any path is stepped or any condition sample drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a path or sample was drawn")

    monkeypatch.setattr(cli, "run_paths", no_draw)
    monkeypatch.setattr(cli.iq, "philox_generator", no_draw)
    text, message = _BAD_CONFIGS[name]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    assert main(["check-conditions", "--config", _write(tmp_path, text)]) == 2
    assert "config error: " + message in capsys.readouterr().err
    # a run is refused before it creates its output directory
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, text), "--out", str(out),
                 "--threads", "1"]) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not out.exists()


# every path of this explicit r = 2 run overflows before its horizon
ALL_FAIL = """
[space]
n_modes = 16
gamma = 2.0

[model]
family = porous
r = 2.0

[sim]
scheme = explicit
dt = 5e-3
horizon = 0.05
n_paths = 8

[experiments]
which = survival, contraction
"""

# seven of these eight paths overflow, and the one left cannot form the
# standard error of a path mean
ONE_LIVE = """
[space]
n_modes = 4
gamma = 1.0
q_amp = 5.0

[model]
family = porous
r = 3.0

[sim]
scheme = explicit
dt = 1e-3
horizon = 0.05
n_paths = 8
master_seed = 2
x0 = 0.5
y0 = -0.5

[experiments]
which = survival, supermartingale, chain
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_ensemble_without_a_live_path_fails_cleanly(tmp_path):
    # no estimator reads an ensemble with fewer live paths than it needs;
    # run reports it as a failed check
    for text, failed in ((ALL_FAIL, 8), (ONE_LIVE, 7)):
        cfg = parse_config(text)
        assert run(cfg, out_dir=tmp_path, threads=1) == 1
        dest = tmp_path / config_hash(cfg)
        written = (dest / "summary.json").read_text()
        assert "NaN" not in written
        summary = json.loads(written)
        assert summary["results"] == {
            "ensemble": {"n_paths": 8, "failed_paths": failed, "ok": False}}
        assert summary["failed_checks"] == [{"check": "ensemble", "flag": "ok"}]
        assert json.loads((dest / "failures.json").read_text()) == {
            "failed_checks": summary["failed_checks"]}


def test_frequencies_accept_one_path(tmp_path):
    # survival and lemma31 report binomial standard errors, which one path
    # defines
    cfg = parse_config(MINIMAL + SHORT + "n_paths = 1\n"
                       "[experiments]\nwhich = survival, lemma31\n")
    assert run(cfg, out_dir=tmp_path, threads=1) == 0


@pytest.mark.parametrize("command", ["run"])
@pytest.mark.parametrize("value", ["0", "-5", "two"])
def test_threads_must_be_a_positive_integer(command, value, tmp_path,
                                            capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_paths was called")

    monkeypatch.setattr(cli, "run_paths", no_run)
    path = _write(tmp_path, SMALL_RUN)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, "--threads", value])
    assert exc.value.code == 2
    assert "argument --threads: " in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"family": "wibble"}, "family must be porous|plaplace|fastdiff"),
    ({"r": None}, "the porous family needs r"),
    ({"b_spec": "wibble"}, "b_spec must be zero or lipschitz_diagonal"),
], ids=["family", "missing_r", "b_spec"])
def test_build_model_rejects_what_it_cannot_build(change, message):
    # the builder itself refuses, instead of falling through to a default
    values = dict(parse_config(MINIMAL).values)
    values["model"] = {**values["model"], **change}
    with pytest.raises(ValueError, match=re.escape(message)):
        build_model(values)


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
    ids=lambda p: p.stem)
def test_shipped_configs_parse_and_build(path):
    cfg = parse_config_file(path)
    assert build_space(cfg).n_modes == cfg["space"]["n_modes"]
    assert build_model(cfg).family.kind == cfg["model"]["family"]
    assert build_coupling(cfg).n == cfg["coupling"]["n"]
    assert build_sim(cfg).n_paths == cfg["sim"]["n_paths"]


def test_config_hash_stable_and_sensitive():
    a = config_hash(parse_config(MINIMAL))
    b = config_hash(parse_config(MINIMAL + "\n# a comment\n"))
    assert a == b
    c = config_hash(parse_config(MINIMAL + "\n[sim]\ndt = 2e-4\n"))
    assert a != c
    # writing a default explicitly does not change the canonical hash
    d = config_hash(parse_config(MINIMAL + "\n[space]\nn_modes = 16\n"))
    assert a == d


def test_builders(porous_space):
    cfg = parse_config(SMALL_RUN)
    sp = build_space(cfg)
    assert sp.n_modes == 8 and sp.weighted
    model = build_model(cfg)
    assert model.family.kind == "porous"
    sim = build_sim(cfg)
    assert sim.checkpoint_times == (0.0, 0.02, 0.05, 0.1)


def test_run_happy_path(tmp_path):
    cfg = parse_config(SMALL_RUN)
    code = run(cfg, out_dir=tmp_path, threads=1)
    assert code == 0
    dest = tmp_path / config_hash(cfg)
    summary = json.loads((dest / "summary.json").read_text())
    assert summary["failed_checks"] == []
    assert summary["results"]["lemma31"]["ok"]
    assert (dest / "survival.csv").exists()
    assert (dest / "manifest.json").exists()
    header = (dest / "survival.csv").read_text().splitlines()[0]
    assert header == "time,estimate,std_err"


@pytest.mark.parametrize("r", ["2.0", "1.0"])
def test_log_power_reads_the_model_exponent(tmp_path, r):
    # log(e + 1/z)^(r/(1+r)) is sqrt_log's integrand exactly when r = 1
    means = {}
    for g in ("log_power", "sqrt_log"):
        text = SMALL_RUN.replace("r = 2.0", f"r = {r}").replace(
            "which = survival, lemma31, supermartingale, chain",
            f"which = supermartingale\nsuper_g = {g}")
        cfg = parse_config(text.split("[conditions]")[0])
        run(cfg, out_dir=tmp_path, threads=1)
        summary = json.loads((tmp_path / config_hash(cfg) / "summary.json")
                             .read_text())
        means[g] = summary["results"]["supermartingale"]["mean"]
    assert (means["log_power"] != means["sqrt_log"]) == (r != "1.0")


def test_run_repeat_is_byte_identical(tmp_path):
    # 529 paths span three noise blocks, so two threads really split the
    # work, and blocks leave the reflection band at different steps
    cfg = parse_config(SMALL_RUN.replace("n_paths = 128", "n_paths = 529"))
    run(cfg, out_dir=tmp_path / "a", threads=1)
    run(cfg, out_dir=tmp_path / "b", threads=2)
    h = config_hash(cfg)
    for name in ("summary.json", "survival.csv", "supermartingale.csv"):
        fa = (tmp_path / "a" / h / name).read_bytes()
        fb = (tmp_path / "b" / h / name).read_bytes()
        assert fa == fb, name
    # the second batch ran in a forked worker, whose CPU shows only in the
    # manifest's children usage
    manifest = json.loads((tmp_path / "b" / h / "manifest.json").read_text())
    assert manifest["workers"] == 2
    assert manifest["cpu_s"]["workers"] > 0
    assert manifest["peak_rss_mb"]["largest_worker"] > 0
    # where the run's time went: the phases are disjoint and lie inside it
    phases = manifest["phase_wall_s"]
    assert set(phases) == {"experiments", "conditions", "write"}
    assert all(v >= 0 for v in phases.values())
    assert phases["experiments"] > 0 and phases["conditions"] > 0
    assert sum(phases.values()) <= manifest["wall_time_s"]
    # the peak RSS so far at the end of each phase, which never falls
    peaks = manifest["phase_peak_rss_mb"]
    assert set(peaks) == set(phases)
    for who in ("self", "largest_worker"):
        seq = [peaks[ph][who] for ph in ("conditions", "experiments", "write")]
        seq.append(manifest["peak_rss_mb"][who])
        assert seq[0] > 0 and seq == sorted(seq), who


def test_run_negative_control_exits_nonzero(tmp_path):
    # a deliberately wrong K' makes the escape bound fail on the vacuous
    # grid point (delta below the initial distance has probability one)
    text = SMALL_RUN.replace("lemma31_t = 0.05",
                             "lemma31_t = 0.1\nlemma31_kprime = -10\n"
                             "lemma31_deltas = 0.5, 2, 4")
    cfg = parse_config(text)
    code = run(cfg, out_dir=tmp_path, threads=1)
    assert code == 1
    dest = tmp_path / config_hash(cfg)
    failures = json.loads((dest / "failures.json").read_text())
    assert {"check": "lemma31", "flag": "ok"} in failures["failed_checks"]


def test_seed_override_changes_hash(tmp_path):
    cfg = parse_config(SMALL_RUN)
    base = config_hash(cfg)
    code = run(cfg, out_dir=tmp_path, seed=777, threads=1)
    assert code == 0
    dirs = [p.name for p in tmp_path.iterdir()]
    assert base not in dirs and len(dirs) == 1


def _write(tmp_path, text):
    p = tmp_path / "cfg.cfg"
    p.write_text(text)
    return str(p)


def test_main_run_subcommand(tmp_path, capsys):
    path = _write(tmp_path, SMALL_RUN)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"),
                 "--threads", "1"])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_main_check_conditions(tmp_path, capsys):
    path = _write(tmp_path, SMALL_RUN)
    code = main(["check-conditions", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "a1prime" in out and "pass" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_kappa_is_a_clean_fail(tmp_path, capsys):
    # the interpolation powers overflow at kappa = 1e-300: the report reads
    # fail with NaN margins, and no overflow warning escapes
    text = (Path(__file__).resolve().parents[1] / "configs" / "smoke.cfg"
            ).read_text()
    text = re.sub(r"(?m)^which = meanvalue, .*$", "which = interpolation", text)
    text = re.sub(r"(?m)^kappa = .*$", "kappa = 1e-300", text)
    out = tmp_path / "out"
    assert main(["check-conditions", "--config", _write(tmp_path, text),
                 "--out", str(out)]) == 1
    rep = json.loads((out / "conditions.json").read_text())["interpolation"]
    assert rep["verdict"] == "fail" and rep["violation_count"] == 2000


# small condition suites and the forks they make at 1, 2 and 3 workers:
# porous (the mean-value group and three state checks), fast diffusion
# (A1'' and the Nash gate), one of exact gates only, and one whose 100,003
# mean-value pairs span several validation slabs, split into one range of
# whole slabs per worker (forks: a worker per group dealt past the first,
# and a range child per range past the first)
COND_SUITES = {
    "porous": (MINIMAL + "[space]\nn_modes = 8\ngamma = 2.0\nq_decay = 0.75\n"
               "[conditions]\nwhich = meanvalue, a1prime, interpolation, "
               "spectrum, coercivity\nsamples = 500\nmv_samples = 5000\n"
               "kappa = 8.0\n", [0, 1, 2]),
    "fastdiff": ("[space]\nn_modes = 8\nq_decay = 0.6\n"
                 "[model]\nfamily = fastdiff\nr = 0.5\n"
                 "[conditions]\nwhich = a1doubleprime, interpolation, "
                 "spectrum, nash, meanvalue\nsamples = 500\n"
                 "mv_samples = 5000\nkappa = 3.0\n", [0, 1, 2]),
    "exact": ("[space]\nq_decay = 0.6\n[model]\nfamily = fastdiff\nr = 0.5\n"
              "[conditions]\nwhich = spectrum, nash\nkappa = 3.0\n",
              [0, 0, 0]),
    "slabs": (MINIMAL + "[space]\nn_modes = 8\ngamma = 2.0\nq_decay = 0.75\n"
              "[conditions]\nwhich = meanvalue, a1prime, interpolation\n"
              "samples = 500\nmv_samples = 100003\nkappa = 8.0\n",
              [min(3, t) - 1 + len(path_batches(100_003, t, cli.iq._SLAB)) - 1
               for t in (1, 2, 3)]),
}


@pytest.mark.parametrize("gamma, delta, kappa", [
    (1.0, 0.6, 3.0), (1.5, 0.6, 2.0), (2.0, 0.9, 3.0), (0.5, 0.3, 1.0)])
def test_nash_and_sb_gates_share_the_worked_eps(monkeypatch, gamma, delta,
                                                kappa):
    # at (1.5, 0.6, 2) the forms 1 - kappa delta / (2 gamma) and
    # (2 gamma - kappa delta) / (2 gamma) differ in the last bit
    cfg = parse_config(f"[space]\ngamma = {gamma}\nq_decay = {delta}\n"
                       "[model]\nfamily = fastdiff\nr = 0.5\n"
                       "[conditions]\nwhich = spectrum, nash\n"
                       f"kappa = {kappa}\n")
    given = []
    check = cli.iq.check_spectrum_condition

    def recorded(which, params):
        given.append((which, params.eps))
        return check(which, params)

    monkeypatch.setattr(cli.iq, "check_spectrum_condition", recorded)
    cli._exact_gate(cfg, "spectrum")
    nash = cli._exact_gate(cfg, "nash")["nash"]
    sb = [eps for which, eps in given if which == "SB"]
    assert sb == [nash["fitted_constants"]["eps"]]


_SUP = "finite iff i-exponent of the supremand is nonpositive"
_SUM = "summable iff i-exponent < -1"
_POROUS_GATES = {
    "spectrum_EI": ("spectrum_EI", 0, {"exponent": -1.5,
                                       "kappa_example_porous": 8.0},
                    0.5, "pass", _SUM),
    "spectrum_*E": ("spectrum_*E", 0, {"exponent": 0.0,
                                       "kappa_example_porous": 8.0},
                    -0.0, "pass", _SUP),
}
_FASTDIFF_KAPPA = {"kappa_interval_hi": 3.3333333333333335,
                   "kappa_interval_lo": 2.777777777777778}
# (config, change, gate) -> {name: (condition_id, violations, constants,
# worst margin, verdict, notes)}: the exact gates' reports on the shipped
# configs, pinned so that an edit of a gate or of its caller keeps each value
_EXACT_GATES = {
    ("porous_accept", None, "spectrum"): _POROUS_GATES,
    ("smoke", None, "spectrum"): _POROUS_GATES,
    ("fastdiff_chain", None, "spectrum"): {
        "spectrum_EI": ("spectrum_EI", 0, {"exponent": -1.2, **_FASTDIFF_KAPPA},
                        0.19999999999999996, "pass", _SUM),
        "spectrum_SB": ("spectrum_SB", 0, {"exponent": 0.0, **_FASTDIFF_KAPPA},
                        -0.0, "pass", _SUP),
    },
    ("porous_accept", "plaplace", "spectrum"): {
        "spectrum_EI": ("spectrum_EI", 0, {"exponent": -1.5,
                                           "kappa_example_plaplace": 4.0},
                        0.5, "pass", _SUM),
        "spectrum_**E": ("spectrum_**E", 1, {"exponent": 0.375,
                                             "kappa_example_plaplace": 4.0},
                         -0.375, "fail", _SUP),
    },
    ("fastdiff_chain", None, "nash"): {
        "nash": ("nash_gate", 0, {"m": 1.0, "bound": 6.0,
                                  "eps": 0.10000000000000009,
                                  "eps_hi": 0.16666666666666666},
                 5.0, "pass", "eps window (0, (1-r) m / (2(1+r))) checked"),
    },
    ("fastdiff_chain", "no_kappa", "nash"): {
        "nash": ("nash_gate", 0, {"m": 1.0, "bound": 6.0}, 5.0, "pass", ""),
    },
}


@pytest.mark.parametrize("name, change, gate", sorted(
    _EXACT_GATES, key=str), ids=str)
def test_exact_gate_reports_frozen(name, change, gate):
    cfg = parse_config_file(Path(__file__).resolve().parents[1] / "configs"
                            / f"{name}.cfg")
    if change == "plaplace":       # reaches **E and kappa_example_plaplace
        cfg = cli._validated({
            **cfg.values, "space": {**cfg["space"], "gamma": 1.0},
            "model": {**cfg["model"], "family": "plaplace", "p": 3.0}})
    elif change == "no_kappa":     # the bound alone, no eps window
        cfg = cli._replaced(cfg, "conditions", which=("nash",), kappa=None)
    keys = ("condition_id", "violation_count", "fitted_constants",
            "worst_margin", "verdict", "notes")
    want = {k: dict(zip(keys, v), sample_count=1)
            for k, v in _EXACT_GATES[name, change, gate].items()}
    assert cli._exact_gate(cfg, gate) == want


@pytest.mark.parametrize("suite", sorted(COND_SUITES))
def test_condition_reports_worker_count_deterministic(suite, monkeypatch):
    # the first sampled group runs in this process and the others are dealt
    # over forked workers; without os.fork they all run here in turn.  The
    # reports, their key order included, are the same at every count
    text, n_forks = COND_SUITES[suite]
    cfg = parse_config(text)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    def report(threads):
        forks.clear()
        out = json.dumps(cli._run_conditions(cfg, threads), indent=2)
        return out, len(forks)

    monkeypatch.setattr(os, "fork", counted_fork)
    got = [report(t) for t in (1, 2, 3)]
    monkeypatch.delattr(os, "fork")
    got.append(report(3))
    assert [n for _, n in got] == n_forks + [0]
    assert all(out == got[0][0] for out, _ in got)
    assert json.loads(got[0][0])


def test_mean_value_ranges_merge_a_violation_and_a_nan(monkeypatch):
    # a pair whose |s1 - s2|^2 rounds up to the least subnormal violates
    # the bound at r = 0.75, and a NaN pair at every r; both sit in the
    # last range, and the merged reports are the whole batch's at every
    # worker count: the counts summed, the NaN margin propagated
    cfg = parse_config(COND_SUITES["slabs"][0])
    draw = cli.iq.mean_value_batch

    def planted(n, seed):
        s1, s2 = draw(n, seed)
        s1[-2:], s2[-2:] = (0.8 * np.sqrt(5e-324), np.nan), (0.0, 1.0)
        return s1, s2

    monkeypatch.setattr(cli.iq, "mean_value_batch", planted)
    pairs = planted(100003, 1234)
    want = {f"meanvalue_r{r:g}": cli.iq.check_scalar_mean_value(r, pairs)
            for r in (0.25, 0.5, 0.75)}
    assert [rep.violation_count for rep in want.values()] == [1, 1, 2]
    assert all(np.isnan(rep.worst_margin) and rep.verdict == "fail"
               for rep in want.values())
    got = [json.dumps(cli._run_conditions(cfg, t), indent=2) for t in (1, 2, 3)]
    assert got[1] == got[0] and got[2] == got[0]
    reports = json.loads(got[0])
    assert json.dumps({k: reports[k] for k in want}) == json.dumps(
        {k: rep.as_dict() for k, rep in want.items()})


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no forked workers")
def test_condition_worker_failure_reaped(monkeypatch):
    # at two workers coercivity runs in a forked child, and so does a range
    # of mean-value pairs: each traceback comes back and no process is
    # left; the mean-value draw runs here, and its own exception takes
    # precedence
    cfg = parse_config(COND_SUITES["porous"][0])

    def fails(*args, **kwargs):
        raise ValueError("checker failed")

    monkeypatch.setattr(cli.iq, "fit_coercivity", fails)
    with pytest.raises(RuntimeError, match="(?s)Traceback.*checker failed"):
        cli._run_conditions(cfg, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # at two workers the second range of the 100,003 mean-value pairs is
    # checked in a child forked after the draw
    parent, check = os.getpid(), cli.iq.check_scalar_mean_value

    def fails_in_a_child(r, pairs):
        if os.getpid() != parent:
            raise ValueError("range check failed")
        return check(r, pairs)

    monkeypatch.setattr(cli.iq, "check_scalar_mean_value", fails_in_a_child)
    with pytest.raises(RuntimeError,
                       match="(?s)Traceback.*range check failed"):
        cli._run_conditions(parse_config(COND_SUITES["slabs"][0]), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(cli.iq, "mean_value_batch", fails)
    with pytest.raises(ValueError, match="checker failed"):
        cli._run_conditions(cfg, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command, option", [
    pytest.param("check-conditions", ["--threads", "2"], id="check-conditions"),
    pytest.param("oracle", ["--threads", "2"], id="oracle"),
    pytest.param("check-conditions", ["--seed", "2"],
                 id="check-conditions-seed"),
    pytest.param("oracle", ["--seed", "2"], id="oracle-seed"),
    pytest.param("oracle", ["--out", "out"], id="oracle-out"),
])
def test_threads_only_on_forking_commands(command, option, tmp_path, capsys):
    # run and check-conditions both fork workers, but only run takes a
    # worker count (check-conditions uses the usable CPUs) and draws path
    # noise; oracle writes no file
    path = _write(tmp_path, SMALL_RUN)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, *option])
    assert exc.value.code == 2
    assert ("unrecognized arguments: " + " ".join(option)
            in capsys.readouterr().err)


def test_run_is_the_only_ensemble_command(tmp_path, capsys):
    # the survival curve, the per-path distances (paths.csv) and the
    # contraction rate all come from run
    path = _write(tmp_path, SMALL_RUN)
    for command in ("couple", "fit-rate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_a_thin_noise_spectrum_fails_the_hilbert_schmidt_gate(tmp_path):
    # sum q_i^2 diverges at q_decay = 0.4: the EI gate reports the failure,
    # while *E, finite at kappa = 4, passes
    text = (MINIMAL + "[space]\nq_decay = 0.4\n"
            "[conditions]\nwhich = spectrum\nkappa = 4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, text), "--out", str(out),
                 "--threads", "1"]) == 1
    failures = json.loads((out / config_hash(parse_config(text))
                           / "failures.json").read_text())
    assert failures["failed_checks"] == [
        {"check": "condition:spectrum_EI", "flag": "verdict"}]


def test_unselected_condition_parameters_are_not_checked():
    for keys in ("which = a1prime\nkappa = 8\nmv_r = 1.5\n",
                 "mv_r = 1.5\nkappa = -1\nnash_m = -1\n",
                 "which = spectrum\nkappa = 8\nmv_r = 1.5\nsamples = 0\n"):
        cfg = parse_config(MINIMAL + "[conditions]\n" + keys)
        assert cfg["conditions"]["mv_r"] == (1.5,)


def test_a_vacuous_condition_fails(tmp_path, capsys):
    # on porous_accept's space and model, kappa = 20 fits theta ~ 6.5e-8:
    # no violation, and a bound that says nothing
    text = (MINIMAL + "[space]\ngamma = 2.0\n[conditions]\nwhich = a1prime\n"
            "kappa = 20\nsamples = 2000\nseed = 1\n")
    assert main(["check-conditions", "--config", _write(tmp_path, text)]) == 1
    assert "vacuous" in capsys.readouterr().out
    cfg = parse_config(text)
    assert run(cfg, out_dir=tmp_path) == 1
    assert json.loads((tmp_path / config_hash(cfg) / "failures.json")
                      .read_text())["failed_checks"] == [
        {"check": "condition:a1prime", "flag": "verdict"}]


def test_main_oracle(tmp_path, capsys):
    assert main(["oracle", "--config", _write(tmp_path, LINEAR)]) == 0
    assert "mode1" in capsys.readouterr().out
    # a nonlinear model has no OU law to print
    assert main(["oracle", "--config", _write(tmp_path, SMALL_RUN)]) == 2
    assert "config error: oracle: the OU oracle" in capsys.readouterr().err


def test_marginal_ou_uses_the_linear_rate(tmp_path):
    # porous r = 1 decays mode i at psi_scale lambda_i - phi_slope, not at
    # lambda_i; the gate must pass a correct run of such a model
    text = (Path(__file__).resolve().parents[1] / "configs"
            / "linear_ou.cfg").read_text()
    text = (text.replace("r = 1.0\n", "r = 1.0\npsi_scale = 2\nphi_slope = 2\n")
            .replace("n_paths = 10000", "n_paths = 2000")
            .replace("dt = 1e-4", "dt = 5e-4"))
    cfg = parse_config(text)
    assert run(cfg, out_dir=tmp_path, threads=2) == 0
    res = json.loads((tmp_path / config_hash(cfg) / "summary.json")
                     .read_text())["results"]["marginal_ou"]
    c0 = 1.2566370614359172 / np.pi       # H coordinate of x0's first mode
    kappa = 2.0 * np.pi ** 2 - 2.0
    assert res["sides"]["x"]["mean_oracle"] == pytest.approx(
        np.exp(-kappa * 0.1) * c0, rel=1e-12)
    assert res["ok"]


def test_run_dump_paths_and_aggregate(tmp_path):
    cfg = parse_config(SMALL_RUN + "\n[output]\ndump_paths = true\n")
    assert run(cfg, out_dir=tmp_path, threads=1) == 0
    dest = tmp_path / config_hash(cfg)
    paths_csv = (dest / "paths.csv").read_text().splitlines()
    assert paths_csv[0] == "path,time,x_mode1,h_dist,q_dist,tau_n,glued"
    assert len(paths_csv) == 1 + 128 * 4   # one row per (path, checkpoint)
    summary = json.loads((dest / "summary.json").read_text())
    agg = summary["experiment_result"]
    assert agg["config_hash"] == config_hash(cfg)
    for name, ser in agg["estimates"].items():
        assert len(ser["value"]) == len(ser["std_err"]) == len(ser["grid"])
    assert agg["pass_flags"]["lemma31"] is True


def test_run_bounds_k_prime_only_for_the_experiments_that_read_it(
        tmp_path, monkeypatch):
    # only lemma31 and supermartingale read K', whose bound evaluates |h'|
    # at 6,002 points of the cutoff band
    def no_scan():
        raise AssertionError("cutoff_h_prime_sup was called")

    monkeypatch.setattr(cli.xp, "cutoff_h_prime_sup", no_scan)
    cfg = parse_config(MINIMAL + SHORT + "n_paths = 16\n"
                       "[experiments]\nwhich = survival\n")
    assert run(cfg, out_dir=tmp_path, threads=1) == 0


def test_run_frees_the_ensemble_before_the_conditions(tmp_path, monkeypatch):
    # the condition suite returns before the first ensemble is stepped, so
    # no ensemble record exists while it runs; paths.csv is still written,
    # and the record is freed once run returns
    events, records = [], []
    run_paths, run_conditions = cli.run_paths, cli._run_conditions

    def kept(*args, **kwargs):
        events.append("run_paths")
        rec = run_paths(*args, **kwargs)
        records.append(weakref.ref(rec))
        return rec

    def conditions(cfg, threads):
        assert not records and not list(tmp_path.glob("*/paths.csv"))
        reports = run_conditions(cfg, threads)
        events.append("conditions")
        return reports

    monkeypatch.setattr(cli, "run_paths", kept)
    monkeypatch.setattr(cli, "_run_conditions", conditions)
    cfg = parse_config(SMALL_RUN + "\n[output]\ndump_paths = true\n")
    assert run(cfg, out_dir=tmp_path, threads=1) == 0
    assert events == ["conditions", "run_paths"]
    assert list(tmp_path.glob("*/paths.csv"))
    assert all(r() is None for r in records)


@pytest.mark.parametrize("text, retire", [
    (MINIMAL + SHORT + "n_paths = 16\n[experiments]\nwhich = survival\n", True),
    (MINIMAL + SHORT + "n_paths = 16\n[experiments]\nwhich = survival\n"
     "[output]\ndump_paths = true\n", False),
    (LINEAR + SHORT + "n_paths = 16\n[experiments]\nwhich = marginal_ou\n",
     False),
    (MINIMAL + SHORT + "n_paths = 16\nx0 = 0.5\ny0 = 0.5\n"
     "[experiments]\nwhich = survival\n", False),
    (MINIMAL + SHORT + "n_paths = 16\n[experiments]\nwhich = survival\n"
     "[output]\ndump_paths = true\nformats = json\n", True),
], ids=["default", "dump_paths", "marginal_ou", "single_equation",
        "dump_paths_json"])
def test_run_retires_glued_pairs_unless_their_x_is_read(tmp_path, monkeypatch,
                                                        text, retire):
    # marginal_ou and paths.csv read a glued path's own x, and a
    # single-equation run is glued from the start; dump_paths without csv
    # among the formats writes no paths.csv
    seen = []
    run_paths = cli.run_paths

    def recorded(*args, **kwargs):
        seen.append(kwargs["retire_glued"])
        return run_paths(*args, **kwargs)

    monkeypatch.setattr(cli, "run_paths", recorded)
    assert run(parse_config(text), out_dir=tmp_path, threads=1) == 0
    assert seen == [retire]


def test_run_builds_the_space_once(tmp_path, monkeypatch):
    # run reuses the objects parse_config built instead of building them again
    calls = []
    make_space = cli.make_space
    monkeypatch.setattr(cli, "make_space",
                        lambda *a, **kw: calls.append(a) or make_space(*a, **kw))
    assert run(parse_config(SMALL_RUN), out_dir=tmp_path, threads=1) == 0
    assert len(calls) == 1


def test_main_config_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "[model]\nfamily = porous\nr = 0.1\n")
    assert main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


# two estimator-heavy runs the benchmark pins do not cover: porous r = 1 with
# every experiment, and r = 2 whose oscillation chain fails (so failures.json
# is written)
FROZEN_R1 = """
[space]
n_modes = 8
gamma = 1.0
q_decay = 0.75

[model]
family = porous
r = 1.0

[coupling]
n = 4

[sim]
dt = 5e-4
horizon = 0.1
n_paths = 600
master_seed = 11
checkpoints = 0, 0.01, 0.02, 0.05, 0.1
x0 = 0.6
y0 = -0.6

[experiments]
which = survival, lemma31, supermartingale, chain, contraction, marginal_ou
lemma31_t = 0.05
super_g = log_power
fit_rate_bound = -15

[output]
dump_paths = true
"""

FROZEN_R2 = """
[space]
n_modes = 8
gamma = 2.0
q_decay = 0.75

[model]
family = porous
r = 2.0

[coupling]
n = 5

[sim]
dt = 5e-4
horizon = 0.1
n_paths = 600
master_seed = 12
checkpoints = 0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1
x0 = 1.2
y0 = -1.2

[experiments]
which = survival, lemma31, supermartingale, chain, contraction
lemma31_t = 0.05
super_g = clipped_linear
"""

FROZEN_DIGESTS = {
    "r1/contraction.csv":
        "937af0265b46f33f4fe6ecaa3de77250d8e928387011f56be8cd9a2ba9807de8",
    "r1/paths.csv":
        "2ea54ce2fbe96b7374a4baa2fb8ac7613aa6a4de84a3b0705d2ec159a65de07e",
    "r1/summary.json":
        "85692434e521e6115e6800ad39c6a2656e852f5bc0fb99fc1e68a9977503203d",
    "r1/supermartingale.csv":
        "92effae8780bb9744bf51308b734dc823d90a079f26b25cea77957003d3b3b44",
    "r1/survival.csv":
        "a5467e12efd209489bfb9c0b01ac58711579cbf904ea3f2b9e106de5a50556b3",
    "r2/contraction.csv":
        "b219837edcc22f03dbfe8dae584df1ef151058684637992a04bd38e609ba6493",
    "r2/failures.json":
        "0462f808493ca4efcbe5fae3d49c2ecb74aecae400a780a1ae95f4040f793642",
    "r2/summary.json":
        "6a3dd9d6a05d8a20f0d031434c318b7d4071057f652161099c8e30936fe938d6",
    "r2/supermartingale.csv":
        "e571567995e83443a97f791f3d8082fbeda309728247d8ba58cb5d7a58d77569",
    "r2/survival.csv":
        "daf0a626151c7e2660eb4219db307d7c5966b48fcf8da27be3aee4ed248976d4",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(dest: Path, tag: str) -> dict:
    """sha256 of every output in ``dest`` but manifest.json (a wall time)."""
    return {f"{tag}/{f.name}": _sha(f.read_bytes())
            for f in sorted(dest.iterdir()) if f.name != "manifest.json"}


# 600 paths span three noise blocks, so two workers fork a second batch
@pytest.mark.parametrize("threads", [1, 2])
def test_estimator_outputs_frozen(threads, tmp_path):
    # pinned-seed self-oracle: the estimators and their writers must keep
    # every output byte
    got = {}
    for tag, text, code in (("r1", FROZEN_R1, 0), ("r2", FROZEN_R2, 1)):
        cfg = parse_config(text)
        assert run(cfg, out_dir=tmp_path / tag, threads=threads) == code
        got.update(_digests(tmp_path / tag / config_hash(cfg), tag))
    assert got == FROZEN_DIGESTS


def test_seed_option_replaces_master_seed(tmp_path):
    text = FROZEN_R1.replace("master_seed = 11", "master_seed = 12")
    assert text != FROZEN_R1
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, text), "--seed", "11",
                 "--out", str(out), "--threads", "1"]) == 0
    # the config with its seed replaced is FROZEN_R1, hash included
    assert _digests(out / config_hash(parse_config(FROZEN_R1)), "r1") == {
        k: v for k, v in FROZEN_DIGESTS.items() if k.startswith("r1/")}

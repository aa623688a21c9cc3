import json
import re
from pathlib import Path

import numpy as np
import pytest

from spde_reflect.cli import (
    ConfigError, RunConfig, parse_config, parse_config_file, config_hash, run,
    main, build_space, build_model, build_coupling, build_sim,
)


MINIMAL = """
[model]
family = porous
r = 2.0
"""

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
    "samples": (MINIMAL + "[conditions]\nsamples = 0\n",
                "conditions.samples and mv_samples must be >= 1"),
    "mv_samples": (MINIMAL + "[conditions]\nmv_samples = 0\n",
                   "conditions.samples and mv_samples must be >= 1"),
    "holder_mode_zero": (MINIMAL + "[experiments]\nholder_direction_mode = 0\n",
                         "experiments.holder_direction_mode must lie in"),
    "holder_mode_high": (MINIMAL + "[space]\nn_modes = 4\n"
                         "[experiments]\nholder_direction_mode = 5\n",
                         "experiments.holder_direction_mode must lie in"),
    "x0_too_long": (MINIMAL + "[space]\nn_modes = 2\n[sim]\nx0 = 1, 2, 3\n",
                    "sim.x0 has more entries than space.n_modes"),
    "y0_too_long": (MINIMAL + "[space]\nn_modes = 2\n[sim]\ny0 = 1, 2, 3\n",
                    "sim.y0 has more entries than space.n_modes"),
}


@pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
def test_bad_config_is_a_config_error(name, tmp_path, capsys):
    text, message = _BAD_CONFIGS[name]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    assert main(["check-conditions", "--config", _write(tmp_path, text)]) == 2
    assert "config error: " + message in capsys.readouterr().err


def test_holder_direction_mode_bounds_are_inclusive():
    text = MINIMAL + "[space]\nn_modes = 4\n[experiments]\n"
    for mode in (1, 4):
        parse_config(text + f"holder_direction_mode = {mode}\n")


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
        build_model(RunConfig(values=values))


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


@pytest.mark.parametrize("command", ["run", "couple", "fit-rate"])
def test_main_bad_thread_env_exit_code(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDE_REFLECT_THREADS", "abc")
    path = _write(tmp_path, SMALL_RUN)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "SPDE_REFLECT_THREADS" in err


def test_main_check_conditions(tmp_path, capsys):
    path = _write(tmp_path, SMALL_RUN)
    code = main(["check-conditions", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "a1prime" in out and "pass" in out


def test_main_oracle(tmp_path, capsys):
    path = _write(tmp_path, SMALL_RUN)
    assert main(["oracle", "--config", path]) == 0
    assert "mode1" in capsys.readouterr().out


def test_main_couple_and_fit_rate(tmp_path, capsys):
    path = _write(tmp_path, SMALL_RUN)
    assert main(["couple", "--config", path, "--threads", "1",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "survival.csv").exists()
    paths_csv = (tmp_path / "c" / "paths.csv").read_text().splitlines()
    assert paths_csv[0] == "path,time,x_mode1,h_dist,q_dist,tau_n,glued"
    assert len(paths_csv) == 1 + 128 * 4   # one row per (path, checkpoint)
    assert main(["fit-rate", "--config", path, "--threads", "1"]) == 0
    assert "decay rate" in capsys.readouterr().out


def test_run_dump_paths_and_aggregate(tmp_path):
    cfg = parse_config(SMALL_RUN + "\n[output]\ndump_paths = true\n")
    assert run(cfg, out_dir=tmp_path, threads=1) == 0
    dest = tmp_path / config_hash(cfg)
    assert (dest / "paths.csv").exists()
    summary = json.loads((dest / "summary.json").read_text())
    agg = summary["experiment_result"]
    assert agg["config_hash"] == config_hash(cfg)
    for name, ser in agg["estimates"].items():
        assert len(ser["value"]) == len(ser["std_err"]) == len(ser["grid"])
    assert agg["pass_flags"]["lemma31"] is True


def test_main_config_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "[model]\nfamily = porous\nr = 0.1\n")
    assert main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err

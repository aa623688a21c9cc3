import copy
import hashlib
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from spde_reflect.spaces import make_space, h_norm, v_norm
from spde_reflect.models import (
    ModelSpec, Porous, PLaplace, LipschitzDiagonal, ZeroDiffusion, unit_base,
)
from spde_reflect import integrator
from spde_reflect.coupling import CouplingParams
from spde_reflect.integrator import (
    SimConfig, gen_noise, noise_block, step_coupled, make_coupling_state,
    run_paths, BLOCK_ROWS, StepBuffers, _split_factors,
)
from conftest import e_k


def glued_step(space, model, config, x, t, step_index, *, noise=None):
    """The single-equation step from t, as run_paths takes it: a synchronous
    step of the pair glued at x, which never enters the band.  ``noise``
    may supply explicit (dW1, dW2); returns the new state, whose x is the
    stepped one."""
    glued = CouplingParams(n=1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    state = replace(make_coupling_state(space, glued, x, x), time=t,
                    step_index=step_index)
    return step_coupled(space, model, glued, config, state, synchronous=True,
                        noise=None if noise is None else (*noise, None))


def test_default_threads_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(integrator.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert integrator.default_threads() == 2


@pytest.mark.parametrize("threads", [0, -5])
def test_path_batches_refuses_fewer_than_one_worker(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        integrator.path_batches(1000, threads)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.2, horizon=0.1, n_paths=1, master_seed=1)
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=0.1, n_paths=1, master_seed=1,
                  checkpoint_times=(0.2,))
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=0.1, n_paths=1, master_seed=1, scheme="ha")
    # horizon and checkpoints must sit on the dt grid, not be snapped to it
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(dt=0.03, horizon=0.1, n_paths=1, master_seed=1)
    with pytest.raises(ValueError, match="checkpoint"):
        SimConfig(dt=0.01, horizon=0.1, n_paths=1, master_seed=1,
                  checkpoint_times=(0.0, 0.055, 0.1))
    with pytest.raises(ValueError, match="checkpoint"):
        SimConfig(dt=2e-4, horizon=0.25, n_paths=1, master_seed=1,
                  checkpoint_times=(0.0, 0.005 + 1e-9))
    # rounding noise of decimal literals is within the tolerance
    cfg = SimConfig(dt=2e-4, horizon=0.25, n_paths=1, master_seed=1,
                    checkpoint_times=(0.0, 0.005, 0.015, 0.1, 0.25))
    assert cfg.n_steps == 1250
    assert cfg.checkpoint_steps() == [0, 25, 75, 500, 1250]
    assert SimConfig(dt=0.1, horizon=0.3, n_paths=1, master_seed=1).n_steps == 3


@pytest.mark.parametrize("change, message", [
    ({"checkpoint_times": ()}, "checkpoint_times must be nonempty"),
    ({"checkpoint_times": (0.0, 0.01, 0.01)},
     "checkpoint_times collide after snapping to steps"),
    ({"horizon": np.inf}, "need 0 < dt <= horizon < inf"),
    ({"horizon": np.nan}, "need 0 < dt <= horizon < inf"),
], ids=["no_checkpoint", "same_step", "infinite_horizon", "nan_horizon"])
def test_sim_config_owns_the_time_grid(change, message):
    kw = {"dt": 0.01, "horizon": 0.1, "n_paths": 1, "master_seed": 1, **change}
    with pytest.raises(ValueError, match=re.escape(message)):
        SimConfig(**kw)


def test_sim_config_default_grid_is_the_horizon():
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=1, master_seed=1)
    assert cfg.checkpoint_times == (0.1,) and cfg.checkpoint_steps() == [10]


def test_noise_deterministic():
    a = gen_noise(42, 3, 10, 8, 1e-3)
    b = gen_noise(42, 3, 10, 8, 1e-3)
    np.testing.assert_array_equal(a, b)
    c = gen_noise(43, 3, 10, 8, 1e-3)
    assert np.any(a != c)
    d = gen_noise(42, 4, 10, 8, 1e-3)
    assert np.any(a != d)


def test_noise_path_purity_across_batch_sizes():
    # path p's draws do not depend on how many paths are requested
    small = gen_noise(42, 0, 3, 8, 1e-3)
    large = gen_noise(42, 0, 2 * BLOCK_ROWS + 7, 8, 1e-3)
    np.testing.assert_array_equal(small, large[:, :3])
    # and a window can be generated standalone
    window = gen_noise(42, 0, 5, 8, 1e-3, path_lo=BLOCK_ROWS - 2)
    np.testing.assert_array_equal(window, large[:, BLOCK_ROWS - 2:BLOCK_ROWS + 3])


def test_noise_moments_and_independence():
    dt = 0.25
    draws = gen_noise(7, 0, 2_000, 500, dt)   # 10^6 per channel
    flat = draws.reshape(3, -1)
    n = flat.shape[1]
    bound = 4.0 / np.sqrt(n) * np.sqrt(dt)
    assert np.all(np.abs(flat.mean(axis=1)) < bound)
    assert np.all(np.abs(flat.var(axis=1) / dt - 1.0) < 0.01)
    for a in range(3):
        for b in range(a + 1, 3):
            corr = np.corrcoef(flat[a], flat[b])[0, 1]
            assert abs(corr) < 4e-3


def test_block_rows_fixed_contract():
    # the determinism contract pins the block layout
    assert BLOCK_ROWS == 256
    blk = noise_block(1, 2, 3, 4, 10, 6)
    assert blk.shape == (10, 6)


def test_split_factors_match_reference(porous_space):
    # reference: the guarded formulas, with z < 1e-12 mapped to the limit 1
    def reference(mu, dt):
        z = porous_space.lambdas * (mu[..., None] * dt)
        tiny = z < 1e-12
        zs = np.where(tiny, 1.0, z)
        return (np.exp(-z), np.where(tiny, 1.0, -np.expm1(-zs) / zs),
                np.where(tiny, 1.0, np.sqrt(-np.expm1(-2.0 * zs) / (2.0 * zs))))
    gen = np.random.default_rng(8)
    mu = gen.uniform(0.0, 50.0, 300)
    # rates that sweep z = lambda_k mu dt across 700..750 in every mode,
    # where exp(-z) leaves its fast path and then underflows to 0
    sweep = np.linspace(700.0, 750.0, 2001)[:, None] / (
        porous_space.lambdas * 2e-4)
    for m in (mu, np.concatenate([mu, [0.0, 1e-300, np.nan]]),
              np.concatenate([sweep.ravel(), [np.inf, np.nan, 1e300]])):
        for got, want in zip(_split_factors(porous_space, 2e-4, m),
                             reference(m, 2e-4)):
            np.testing.assert_array_equal(got, want)
    # a scalar rate gives the (N,) factors of each row of a per-row rate
    for m in (0.0, 1.0, 37.5, np.nan, np.inf):
        got = _split_factors(porous_space, 2e-4, m)
        want = _split_factors(porous_space, 2e-4, np.full(3, m))
        for g, w in zip(got, want):
            assert g.shape == (16,)
            np.testing.assert_array_equal(np.broadcast_to(g, w.shape), w)


@pytest.mark.parametrize("path_lo,n_paths", [
    (0, 3 * BLOCK_ROWS), (100, 2 * BLOCK_ROWS), (BLOCK_ROWS, BLOCK_ROWS + 17),
    (0, 17), (100, 50),
])
def test_gen_noise_matches_noise_block(path_lo, n_paths):
    # drawing in place must give noise_block's values scaled by sqrt(dt),
    # whether a slice starts on a block boundary or inside a block, and
    # for a partial last block
    dt = 3e-4
    got = gen_noise(5, 9, n_paths, 6, dt, channels=(2, 0), path_lo=path_lo,
                    out=np.full((2, n_paths, 6), np.nan))
    for ci, ch in enumerate((2, 0)):
        for p in range(path_lo, path_lo + n_paths):
            b = p // BLOCK_ROWS
            rows = min(path_lo + n_paths - b * BLOCK_ROWS, BLOCK_ROWS)
            row = noise_block(5, 9, ch, b, rows, 6)[p - b * BLOCK_ROWS]
            np.testing.assert_array_equal(got[ci, p - path_lo],
                                          row * np.sqrt(dt))


def test_step_single_deterministic_drift(porous_space, porous_linear):
    dt = 1e-3
    cfg = SimConfig(dt=dt, horizon=1.0, n_paths=1, master_seed=0,
                    scheme="explicit")
    z = np.zeros(16)
    out = glued_step(porous_space, porous_linear, cfg, e_k(16, 1), 0.0, 0,
                     noise=(z, z)).x[0]
    np.testing.assert_allclose(out, (1.0 - np.pi ** 2 * dt) * e_k(16, 1),
                               atol=1e-14)
    cfg2 = SimConfig(dt=dt, horizon=1.0, n_paths=1, master_seed=0,
                     scheme="semi_implicit")
    out2 = glued_step(porous_space, porous_linear, cfg2, e_k(16, 1), 0.0, 0,
                      noise=(z, z)).x[0]
    np.testing.assert_allclose(out2, np.exp(-np.pi ** 2 * dt) * e_k(16, 1),
                               atol=1e-14)


def test_step_single_overflow(porous_space):
    # an overflow is recorded as the program records it: the path is frozen
    # at NaN with its first non-finite mode, and nothing is raised
    m = ModelSpec(Porous(r=3.0))
    cfg = SimConfig(dt=1e-3, horizon=1.0, n_paths=1, master_seed=0,
                    scheme="explicit")
    new = glued_step(porous_space, m, cfg, np.full(16, 1e160), 0.0, 0,
                     noise=(np.zeros(16), np.zeros(16)))
    assert 0 <= new.fail_mode[0] < 16
    assert np.all(np.isnan(new.x)) and np.all(np.isnan(new.y))
    # a step from the horizon is refused
    at_horizon = replace(make_coupling_state(porous_space, CouplingParams(n=1),
                                             np.zeros(16), np.zeros(16)),
                         time=1.0, step_index=1000)
    with pytest.raises(ValueError, match="horizon"):
        step_coupled(porous_space, m, CouplingParams(n=1), cfg, at_horizon)


def test_ou_variance_oracle(porous_space, porous_linear):
    # module-level integration oracle at reduced path count; the acceptance
    # suite pins the full configuration
    t = 0.1
    cfg = SimConfig(dt=1e-4, horizon=t, n_paths=4000, master_seed=31415,
                    checkpoint_times=(0.0, t))
    rec = run_paths(porous_space, porous_linear, CouplingParams(n=1), cfg,
                    "synchronous", x0=np.zeros(16), y0=np.zeros(16), threads=1)
    c1 = rec.x_coeffs[:, 1, 0] / np.pi      # H-mode coordinate
    target = (1.0 - np.exp(-2.0 * np.pi ** 2 * t)) / (2.0 * np.pi ** 2)
    se = target * np.sqrt(2.0 / (cfg.n_paths - 1))
    assert abs(np.var(c1, ddof=1) - target) < 3.0 * se


def test_strong_convergence_order():
    # fixed Brownian refinement: coarse increments are sums of fine ones
    sp = make_space(8, 1.0, weighted=True, q_decay=0.75)
    m = ModelSpec(Porous(r=2.0))
    horizon = 0.05
    levels = [4e-4, 2e-4, 1e-4]
    ref_dt = 2.5e-5
    gen = np.random.default_rng(77)
    n_fine = int(round(horizon / ref_dt))
    fine = gen.standard_normal((n_fine, 8)) * np.sqrt(ref_dt)
    x0 = e_k(8, 1, 1.0)

    def integrate(dt):
        cfg = SimConfig(dt=dt, horizon=horizon, n_paths=1, master_seed=0,
                        scheme="semi_implicit")
        stride = int(round(dt / ref_dt))
        x = x0[None, :]
        steps = int(round(horizon / dt))
        for k in range(steps):
            inc = fine[k * stride:(k + 1) * stride].sum(axis=0)[None, :]
            x = glued_step(sp, m, cfg, x, k * dt, k,
                           noise=(np.zeros((1, 8)), inc)).x
        return x[0]

    ref = integrate(ref_dt)
    errs = [h_norm(sp, integrate(dt) - ref) for dt in levels]
    assert errs[0] > errs[1] > errs[2]
    order = np.log2(errs[0] / errs[2]) / 2.0
    assert order >= 0.5


def test_coupled_glued_from_start(porous_space, porous_linear):
    params = CouplingParams(n=5)
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=1, master_seed=5,
                    checkpoint_times=(0.0, 0.01))
    x0 = e_k(16, 1, 0.3)
    st = make_coupling_state(porous_space, params, x0, x0.copy())
    assert st.coupled.all()
    assert st.tau_n[0] == 0.0 and st.t_n[0] == 0.0
    for k in range(10):
        st = step_coupled(porous_space, porous_linear, params, cfg, st)
        np.testing.assert_array_equal(st.x, st.y)


def test_coupled_synchronous_noise_cancels(porous_space, porous_linear):
    # below the reflection band with B = 0 the difference is deterministic
    params = CouplingParams(n=1)
    dt = 1e-3
    cfg = SimConfig(dt=dt, horizon=0.1, n_paths=1, master_seed=6)
    eps = 0.01
    x0 = e_k(16, 1, eps * np.pi)    # H-distance eps, far below 1/2
    st = make_coupling_state(porous_space, params, x0, np.zeros(16))
    for k in range(100):
        st = step_coupled(porous_space, porous_linear, params, cfg, st)
    # linear contraction of the difference: eps * exp(-pi^2 t)
    expected = eps * np.exp(-np.pi ** 2 * 0.1)
    got = float(h_norm(porous_space, st.x - st.y)[0])
    assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("model", [
    ModelSpec(Porous(r=2.0)),
    ModelSpec(Porous(r=2.0), b_spec=LipschitzDiagonal(0.8, unit_base(16))),
], ids=["porous_r2", "lipschitz_diagonal"])
@pytest.mark.parametrize("path_lo", [0, BLOCK_ROWS])
def test_keyed_noise_matches_explicit(porous_space, model, path_lo):
    # the keyed step draws channel 2 only for blocks with a row inside the
    # reflection band (n |x - y|_H > 1/2); it must equal a step fed all
    # three channels explicitly.  Block 0 lies below the band, block 1
    # straddles it, block 2 lies above it, and the partial block is last.
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=3 * BLOCK_ROWS + 17,
                    master_seed=21)
    p = cfg.n_paths
    gen = np.random.default_rng(3)
    dist = np.empty(p)
    dist[:BLOCK_ROWS] = gen.uniform(0.05, 0.45, BLOCK_ROWS)
    dist[BLOCK_ROWS:2 * BLOCK_ROWS] = np.where(
        np.arange(BLOCK_ROWS) % 3 == 0, gen.uniform(0.55, 0.95, BLOCK_ROWS),
        gen.uniform(0.05, 0.45, BLOCK_ROWS))
    dist[2 * BLOCK_ROWS:3 * BLOCK_ROWS] = gen.uniform(1.2, 2.0, BLOCK_ROWS)
    dist[3 * BLOCK_ROWS:] = gen.uniform(0.3, 0.9, p - 3 * BLOCK_ROWS)
    mid = 0.1 * gen.standard_normal((p, 16)) / porous_space.lambdas
    half = e_k(16, 1, 0.5 * np.pi)[None, :] * dist[:, None]
    st = make_coupling_state(porous_space, params, mid + half, mid - half)
    inside = params.n * st.dist > 0.5
    blocks = [inside[b:b + BLOCK_ROWS] for b in range(0, p, BLOCK_ROWS)]
    assert [bool(np.any(b)) for b in blocks] == [False, True, True, True]
    assert not np.all(blocks[1]) and np.all(blocks[2])
    noise = gen_noise(cfg.master_seed, st.step_index, p, 16, cfg.dt,
                      channels=(0, 1, 2), path_lo=path_lo)
    keyed = step_coupled(porous_space, model, params, cfg, st,
                         path_lo=path_lo)
    explicit = step_coupled(porous_space, model, params, cfg, st,
                            noise=tuple(noise), path_lo=path_lo)
    np.testing.assert_array_equal(keyed.x, explicit.x)
    np.testing.assert_array_equal(keyed.y, explicit.y)
    np.testing.assert_array_equal(keyed.dist, explicit.dist)
    assert not np.array_equal(keyed.x, st.x)


def test_run_paths_driver_transparency(porous_space, porous_linear):
    params = CouplingParams(n=2)
    cfg = SimConfig(dt=1e-3, horizon=0.02, n_paths=1, master_seed=11,
                    checkpoint_times=(0.0, 0.01, 0.02))
    x0 = e_k(16, 1, 0.3 * np.pi)
    y0 = -x0
    rec = run_paths(porous_space, porous_linear, params, cfg, "coupled",
                    x0=x0, y0=y0, threads=1)
    st = make_coupling_state(porous_space, params, x0, y0)
    for k in range(20):
        st = step_coupled(porous_space, porous_linear, params, cfg, st)
        if st.step_index == 10:
            np.testing.assert_array_equal(rec.x_coeffs[0, 1], st.x[0])
    np.testing.assert_array_equal(rec.x_coeffs[0, 2], st.x[0])
    np.testing.assert_array_equal(rec.y_coeffs[0, 2], st.y[0])


def test_run_paths_worker_count_deterministic(porous_space, monkeypatch):
    # every record field travels from the workers through shared pages, so
    # all of them are compared; the explicit scheme past its stability
    # limit fails some paths, whose failure records (times included) are
    # compared too.  Five noise blocks split 3/2 over two workers and
    # 2/2/1 over three; without os.fork the three batches run in turn.
    model = ModelSpec(Porous(r=2.0),
                      b_spec=LipschitzDiagonal(0.8, unit_base(16)))
    x0 = e_k(16, 1, 1.8)
    d0 = float(h_norm(porous_space, 2 * x0))
    # the synchronous run from y0 = x0 is the single-equation run
    for which, y0, scheme in (("coupled", -x0, "explicit"),
                              ("synchronous", x0, "explicit"),
                              ("coupled", -x0, "semi_implicit")):
        cfg = SimConfig(dt=2e-4, horizon=0.008, n_paths=4 * BLOCK_ROWS + 17,
                        master_seed=12, checkpoint_times=(0.0, 0.004, 0.008),
                        scheme=scheme)

        def run(threads):
            return run_paths(porous_space, model, CouplingParams(n=5), cfg,
                             which, x0=x0, y0=y0, delta_grid=(d0, 1.5 * d0),
                             threads=threads)

        recs = [run(t) for t in (1, 2, 3)]
        with monkeypatch.context() as m:
            m.delattr(os, "fork", raising=False)
            recs.append(run(3))
        assert (0 < len(recs[0].failures) < cfg.n_paths) == (scheme == "explicit")
        for rec in recs[1:]:
            for f in fields(rec):
                a, b = getattr(recs[0], f.name), getattr(rec, f.name)
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(a, b, err_msg=f.name)
                else:
                    assert a == b, (which, scheme, f.name)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no forked workers")
def test_run_paths_worker_failure_reaped(porous_space, porous_r2,
                                         monkeypatch):
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=2 * BLOCK_ROWS,
                    master_seed=3, checkpoint_times=(0.0, 0.01))
    x0 = e_k(16, 1, 1.0)
    step = integrator.step_coupled
    fail_from = [BLOCK_ROWS]

    def failing_step(*args, path_lo=0, **kw):
        if path_lo >= fail_from[0]:
            raise ValueError(f"step failed at path_lo {path_lo}")
        return step(*args, path_lo=path_lo, **kw)

    monkeypatch.setattr(integrator, "step_coupled", failing_step)

    def run():
        return run_paths(porous_space, porous_r2, CouplingParams(n=5), cfg,
                         "coupled", x0=x0, y0=-x0, threads=2)

    # the forked batch fails: its traceback comes back, no process is left
    with pytest.raises(RuntimeError, match="step failed at path_lo 256"):
        run()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # both batches fail: the calling process's own exception propagates
    fail_from[0] = 0
    with pytest.raises(ValueError, match="step failed at path_lo 0"):
        run()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_paths_worker_count_deterministic_linear(porous_space,
                                                    porous_linear):
    # the linear family carries one scalar split rate, and every pair
    # starts inside the reflection band (n |x - y|_H = 0.7)
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=1e-3, horizon=0.05, n_paths=3 * BLOCK_ROWS + 17,
                    master_seed=13, checkpoint_times=(0.0, 0.025, 0.05))
    x0 = e_k(16, 1, 0.35 * np.pi)
    y0 = -x0
    rec1 = run_paths(porous_space, porous_linear, params, cfg, "coupled",
                     x0=x0, y0=y0, threads=1)
    rec4 = run_paths(porous_space, porous_linear, params, cfg, "coupled",
                     x0=x0, y0=y0, threads=4)
    assert np.all(params.n * rec1.h_dist[:, 0] > 0.5)
    assert np.any(params.n * rec1.h_dist[:, -1] <= 0.5)
    np.testing.assert_array_equal(rec1.x_coeffs, rec4.x_coeffs)
    np.testing.assert_array_equal(rec1.y_coeffs, rec4.y_coeffs)
    np.testing.assert_array_equal(rec1.tau_n, rec4.tau_n)


@pytest.mark.parametrize("family", ["porous", "plaplace"])
def test_scalar_split_rate_matches_per_row(porous_space, plap_space,
                                           monkeypatch, family):
    # a linear family's split rate is one scalar; a step fed the same rate
    # as a per-row array gives the same bits
    space = porous_space if family == "porous" else plap_space
    model = ModelSpec(Porous(r=1.0, psi_scale=1.5) if family == "porous"
                      else PLaplace(p=2.0))
    params = CouplingParams(n=2)
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=BLOCK_ROWS + 40,
                    master_seed=17)
    p = cfg.n_paths
    gen = np.random.default_rng(9)
    dist = gen.uniform(0.0, 0.8, p)
    mid = 0.1 * gen.standard_normal((p, 16)) / space.lambdas
    half = e_k(16, 2, 1.0)[None, :] * dist[:, None] / h_norm(space, e_k(16, 2))
    st = make_coupling_state(space, params, mid + half, mid - half)
    drift_and_split_rate = integrator.drift_and_split_rate

    def per_row(space, model, t, v, **kw):
        dr, mu = drift_and_split_rate(space, model, t, v, **kw)
        assert np.ndim(mu) == 0
        return dr, np.full(np.shape(v)[:-1], mu)

    scalar = [step_coupled(space, model, params, cfg, st),
              glued_step(space, model, cfg, st.x, 0.0, 0).x]
    monkeypatch.setattr(integrator, "drift_and_split_rate", per_row)
    rows = [step_coupled(space, model, params, cfg, st),
            glued_step(space, model, cfg, st.x, 0.0, 0).x]
    _assert_states_equal(scalar[0], rows[0])
    np.testing.assert_array_equal(scalar[1], rows[1])


def test_run_paths_single_matches_marginal_law(porous_space, porous_linear):
    # Prop-style marginal check: coupled X-component statistics match
    # single-run statistics within Monte Carlo noise
    t = 0.05
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=2e-4, horizon=t, n_paths=4000, master_seed=13,
                    checkpoint_times=(t,))
    x0 = e_k(16, 1, 0.45 * np.pi)
    y0 = -x0
    coupled = run_paths(porous_space, porous_linear, params, cfg, "coupled",
                        x0=x0, y0=y0, threads=1)
    single = run_paths(porous_space, porous_linear, params,
                       SimConfig(dt=2e-4, horizon=t, n_paths=4000,
                                 master_seed=14, checkpoint_times=(t,)),
                       "synchronous", x0=x0, y0=x0, threads=1)
    a = coupled.x_coeffs[:, 0, 0]
    b = single.x_coeffs[:, 0, 0]
    se_mean = np.sqrt(np.var(a) / a.size + np.var(b) / b.size)
    assert abs(a.mean() - b.mean()) < 3.0 * se_mean
    se_var = np.sqrt(2.0) * np.var(a, ddof=1) * np.sqrt(2.0 / (a.size - 1))
    assert abs(np.var(a, ddof=1) - np.var(b, ddof=1)) < 3.0 * se_var


def test_glued_forever_in_ensemble(ex41_space, porous_r2):
    params = CouplingParams(n=20)
    cfg = SimConfig(dt=2e-4, horizon=0.3, n_paths=128, master_seed=15,
                    checkpoint_times=(0.0, 0.1, 0.2, 0.3))
    x0 = e_k(16, 1, 0.15 * np.pi ** 2)
    rec = run_paths(ex41_space, porous_r2, params, cfg, "coupled",
                    x0=x0, y0=-x0, threads=1)
    glued = rec.coupled & rec.live
    assert np.any(glued), "expected some paths to glue in this configuration"
    for j, t in enumerate(rec.checkpoint_times):
        sel = glued & (rec.t_n <= t)
        np.testing.assert_array_equal(rec.x_coeffs[sel, j],
                                      rec.y_coeffs[sel, j])
    # tau_n is never later than the gluing time
    both = ~np.isnan(rec.tau_n) & ~np.isnan(rec.t_n)
    assert np.all(rec.tau_n[both] <= rec.t_n[both])


def test_run_paths_overflow_isolated(porous_space):
    # a deliberately unstable explicit configuration: overflowing paths are
    # reported and frozen, healthy paths keep running
    m = ModelSpec(Porous(r=3.0))
    cfg = SimConfig(dt=0.05, horizon=0.5, n_paths=8, master_seed=16,
                    checkpoint_times=(0.5,), scheme="explicit")
    x0 = e_k(16, 8, 5.0)
    rec = run_paths(porous_space, m, CouplingParams(n=1), cfg, "synchronous",
                    x0=x0, y0=x0, threads=1)
    assert len(rec.failures) > 0
    assert np.sum(rec.failed) == len(rec.failures)
    assert all(isinstance(mode, int) and 0 <= mode < 16
               for _path, _t, mode in rec.failures)


def test_run_paths_coupled_overflow_isolated(porous_space, porous_r2):
    # the explicit scheme past its stability limit: some pairs overflow, one
    # failure is reported per failed path, and the path is frozen at NaN
    # from its failure time on while the healthy paths keep running
    cfg = SimConfig(dt=2e-4, horizon=0.008, n_paths=300, master_seed=16,
                    checkpoint_times=(0.0, 0.004, 0.005, 0.006, 0.008),
                    scheme="explicit")
    x0 = e_k(16, 1, 2.0)
    rec = run_paths(porous_space, porous_r2, CouplingParams(n=2), cfg,
                    "coupled", x0=x0, y0=-x0, threads=2)
    assert 0 < np.sum(rec.failed) < cfg.n_paths
    paths = [f[0] for f in rec.failures]
    assert paths == sorted(set(paths))
    assert set(paths) == set(np.flatnonzero(rec.failed).tolist())
    for path, t, mode in rec.failures:
        assert isinstance(mode, int) and 0 <= mode < 16
        after = rec.checkpoint_times >= t - 1e-12
        assert np.any(after)
        assert np.all(np.isnan(rec.x_coeffs[path, after]))
        assert np.all(np.isnan(rec.y_coeffs[path, after]))
        assert np.all(np.isfinite(rec.x_coeffs[path, ~after]))
    live = ~rec.failed
    assert np.all(np.isfinite(rec.x_coeffs[live]))
    assert np.all(np.isfinite(rec.y_coeffs[live]))


def test_step_coupled_records_first_nonfinite_mode(porous_space, porous_r2):
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=4, master_seed=23)
    x0 = np.tile(e_k(16, 1, 0.1), (4, 1))
    st = make_coupling_state(porous_space, params, x0, -x0)
    noise = np.zeros((3, 4, 16))
    noise[1, 2, 5] = np.inf
    new = step_coupled(porous_space, porous_r2, params, cfg, st,
                       noise=tuple(noise))
    assert new.fail_mode.tolist() == [-1, -1, 5, -1]
    assert np.all(np.isnan(new.x[2])) and np.all(np.isnan(new.y[2]))
    assert np.all(np.isfinite(np.delete(new.x, 2, axis=0)))
    # a failed path stays frozen with its mode
    newer = step_coupled(porous_space, porous_r2, params, cfg, new,
                         noise=tuple(np.zeros((3, 4, 16))))
    assert newer.fail_mode.tolist() == [-1, -1, 5, -1]
    assert np.all(np.isnan(newer.x[2])) and np.all(np.isnan(newer.y[2]))


def _assert_states_equal(a, b):
    for f in fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name),
                                      err_msg=f.name)


def test_step_buffers_reuse_leaks_nothing(porous_space, porous_r2):
    # one buffer set reused for 50 steps gives the bits of fresh buffers,
    # and no returned state shares memory with the buffers: the state a
    # step started from is unchanged afterwards
    params = CouplingParams(n=5)
    cfg = SimConfig(dt=1e-3, horizon=0.05, n_paths=3 * BLOCK_ROWS + 17,
                    master_seed=24)
    p = cfg.n_paths
    gen = np.random.default_rng(5)
    # pairs glued, below, inside and above the reflection band
    dist = gen.choice([0.0, 0.05, 0.15, 0.5], size=p)
    mid = 0.1 * gen.standard_normal((p, 16)) / porous_space.lambdas
    half = e_k(16, 1, 0.5 * np.pi)[None, :] * dist[:, None]
    fresh = reused = make_coupling_state(porous_space, params, mid + half,
                                         mid - half, delta_grid=(0.2, 0.4))
    assert np.any(fresh.coupled)
    work = StepBuffers(porous_space, p)
    for k in range(50):
        kept = copy.deepcopy(reused)
        fresh = step_coupled(porous_space, porous_r2, params, cfg, fresh,
                             path_lo=BLOCK_ROWS)
        stepped = step_coupled(porous_space, porous_r2, params, cfg, reused,
                               path_lo=BLOCK_ROWS, work=work)
        _assert_states_equal(reused, kept)
        _assert_states_equal(stepped, fresh)
        reused = stepped
    assert np.any(np.isfinite(fresh.tau_n) & (fresh.tau_n > 0))


def test_moment_bound_stability_in_modes(porous_r2):
    # the paper's moment bound: int_0^t |X_s|_V^{1+r} ds, integrated by
    # the left-point rule over the single-equation steps, has first and
    # second moments that stay finite and stable as N grows
    moments = {}
    glued = CouplingParams(n=1)
    r_exp = 1.0 + porous_r2.family.r
    for n_modes in (8, 12, 16):
        sp = make_space(n_modes, 1.0, weighted=True, q_decay=0.75)
        cfg = SimConfig(dt=5e-4, horizon=0.2, n_paths=256, master_seed=17)
        x0 = np.tile(e_k(n_modes, 1, 1.0), (cfg.n_paths, 1))
        st = make_coupling_state(sp, glued, x0, x0)
        acc = np.zeros(cfg.n_paths)
        for _ in range(cfg.n_steps):
            acc += cfg.dt * v_norm(sp, st.x, porous_r2.family) ** r_exp
            st = step_coupled(sp, porous_r2, glued, cfg, st, synchronous=True)
        assert not st.failed.any()
        moments[n_modes] = (np.mean(acc), np.mean(acc ** 2))
    for p_idx in (0, 1):
        vals = [moments[n][p_idx] for n in (8, 12, 16)]
        assert all(np.isfinite(vals))
        assert max(vals) <= 1.5 * min(vals)


def _assert_bits_equal(a, b, name=""):
    # +0.0 and -0.0 differ here, unlike in assert_array_equal
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, name
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint8),
                                  np.ascontiguousarray(b).view(np.uint8),
                                  err_msg=name)


def _exact_split_pairs(space, params):
    """Ten pairs: inside and below the reflection band, glued, with signed
    zeros, subnormals, +-1e150, a live NaN, an already failed row and a row
    whose lambda * x overflows; the NaN and failed rows are frozen."""
    gen = np.random.default_rng(31)
    x = 0.1 * gen.standard_normal((10, 16)) / space.lambdas
    y = x.copy()
    unit = e_k(16, 1, np.pi)                    # |e_1 pi|_H = 1
    for row, dist in ((0, 0.4), (1, 0.1), (3, 0.1), (4, 0.1), (5, 0.3),
                      (7, 0.1), (8, 0.1), (9, 0.1)):
        x[row] += 0.5 * dist * unit
        y[row] -= 0.5 * dist * unit
    # row 2 is glued
    x[3, [2, 5]] = y[3, [2, 5]] = -0.0
    x[3, 4] = y[3, 4] = 0.0
    x[4, 6], y[4, 6] = 5e-324, -5e-324
    x[4, 7] = y[4, 7] = -2.5e-310
    x[5, 8] = y[5, 8] = 1e150
    x[5, 9] = y[5, 9] = -1e150
    x[6, 3] = np.nan
    # lambda_16 * 1e306 overflows: the residual is inf - inf there
    x[8, 15] = y[8, 15] = 1e306
    st = make_coupling_state(space, params, x, y)
    st.x[7] = st.y[7] = np.nan
    st.fail_mode[7] = 2
    st.dist[7] = np.nan
    s = params.n * st.dist
    assert s[0] > 0.5 and s[1] < 0.5 and st.coupled.tolist() == [
        False, False, True] + [False] * 7
    return st


@pytest.mark.parametrize("b_spec", [
    ZeroDiffusion(), LipschitzDiagonal(0.8, unit_base(16)),
], ids=["b_zero", "lipschitz_diagonal"])
def test_exact_split_matches_full_formula(porous_space, monkeypatch, b_spec):
    # porous r = 1 with psi_scale = 1 and phi_slope = 0 skips the drift; its
    # coupled, synchronous and single steps must give the bits of the same
    # steps through drift_and_split_rate
    model = ModelSpec(Porous(r=1.0), b_spec=b_spec)
    assert model.exact_split
    params = CouplingParams(n=2)
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=10, master_seed=29)
    st = _exact_split_pairs(porous_space, params)
    noise = gen_noise(cfg.master_seed, 0, 10, 16, cfg.dt)
    # row 3 is -0.0 in mode 6 and below the band, so its increment there is
    # -0.0 as well (q * -0.0, plus b(-0.0) * z1 with z1 > 0): the state is
    # -0.0 + -0.0 unless the +0 residual is added
    noise[1, 3, 5] = -0.0
    noise[0, 3, 5] = 1e-3

    # the single step is the x of a synchronous step of the glued pairs
    glued = replace(st, y=st.x.copy(), coupled=np.ones(10, dtype=bool))

    def steps():
        out = []
        for nz in (None, tuple(noise)):
            for sync in (False, True):
                out.append(step_coupled(porous_space, model, params, cfg, st,
                                        noise=nz, synchronous=sync))
            out.append(step_coupled(porous_space, model, params, cfg, glued,
                                    noise=nz, synchronous=True))
        return out

    exact = steps()
    monkeypatch.setattr(integrator, "_exact_split", lambda model, config: False)
    full = steps()
    for got, want in zip(exact, full):
        for f in fields(got):
            _assert_bits_equal(getattr(got, f.name), getattr(want, f.name),
                               f.name)
    # the cases the test is built for happen: a +0.0 made from -0.0 and
    # -0.0, the overflow row failed, the failed row kept its mode
    for new in full[3:]:
        assert new.x[3, 5] == 0.0 and not np.signbit(new.x[3, 5])
        assert new.fail_mode[6] >= 0 and new.fail_mode[7] == 2
        assert new.fail_mode[8] == 15


@pytest.mark.parametrize("family,scheme", [
    (Porous(r=1.0, psi_scale=1.5), "semi_implicit"),
    (Porous(r=1.0, phi_slope=0.5), "semi_implicit"),
    (Porous(r=1.0), "explicit"),
    (PLaplace(p=2.0), "semi_implicit"),
], ids=["psi_scale", "phi_slope", "explicit", "p2"])
def test_drift_evaluated_unless_exact_split(porous_space, monkeypatch, family,
                                            scheme):
    model = ModelSpec(family)
    params = CouplingParams(n=2)
    cfg = SimConfig(dt=1e-4, horizon=0.01, n_paths=4, master_seed=30,
                    scheme=scheme)
    x0 = np.tile(e_k(16, 1, 0.2 * np.pi), (4, 1))
    st = make_coupling_state(porous_space, params, x0, -x0)
    calls = []
    drift_and_split_rate = integrator.drift_and_split_rate

    def counted(*args, **kw):
        calls.append(1)
        return drift_and_split_rate(*args, **kw)

    monkeypatch.setattr(integrator, "drift_and_split_rate", counted)
    step_coupled(porous_space, model, params, cfg, st)
    step_coupled(porous_space, model, params, cfg, st, synchronous=True)
    glued_step(porous_space, model, cfg, st.x, 0.0, 0)
    assert len(calls) == 5
    exact = ModelSpec(Porous(r=1.0))
    step_coupled(porous_space, exact, params, replace(cfg, scheme="semi_implicit"),
                 st)
    assert len(calls) == 5


@pytest.mark.parametrize("family", [Porous(r=1.0), Porous(r=1.0, psi_scale=1.5)],
                         ids=["exact_split", "split"])
@pytest.mark.parametrize("synchronous", [False, True],
                         ids=["reflection", "synchronous"])
def test_step_coupled_finite_check(porous_space, family, synchronous):
    # the step searches for a first bad mode only where the new distance is
    # not finite.  Row 0 is a finite pair whose distance overflows; row 1
    # holds inf in x, row 2 -inf in y, glued row 3 inf in both.  Under
    # reflection the direction (x - y) / |x - y| of rows 1 and 2 is NaN,
    # so y is NaN from mode 0 on; synchronous rows keep their own mode.
    model = ModelSpec(family)
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=5, master_seed=23)
    x = np.zeros((5, 16))
    y = np.zeros((5, 16))
    x[:, 0], y[:, 0] = 0.1, -0.1
    x[0, 0], y[0, 0] = 1e300, -1e300
    x[1, 5] = np.inf
    y[2, 7] = -np.inf
    st = make_coupling_state(porous_space, params, x, y)
    st.x[3] = st.y[3] = 0.05
    st.x[3, 9] = st.y[3, 9] = np.inf
    st.coupled[3], st.dist[3] = True, 0.0
    assert np.isinf(st.dist[0])
    new = step_coupled(porous_space, model, params, cfg, st,
                       synchronous=synchronous)
    want = [-1, 5, 7, 9, -1] if synchronous else [-1, 0, 0, 9, -1]
    assert new.fail_mode.tolist() == want and new.time == cfg.dt
    assert np.isinf(new.dist[0]) and np.all(np.isfinite(new.x[0]))
    assert np.all(np.isnan(new.x[1:4])) and np.all(np.isnan(new.y[1:4]))
    assert np.all(np.isnan(new.dist[1:4])) and np.isfinite(new.dist[4])
    # rows that failed earlier keep their mode
    newer = step_coupled(porous_space, model, params, cfg, new,
                         synchronous=synchronous)
    assert newer.fail_mode.tolist() == want


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


FROZEN_BITS = {
    "single": {
        "x_coeffs": "7306d3969ece2e5c35d102a8b128ae644f0d0edd8fca8f83ce49e5a74140d020",
        "failed": "02f5faed77fe8bfd93460aecc815b3d62ed0cbfbd67fc91ff40736ff40edd100",
        "failures": "236e0292b741b523da491fbe043131014326b8b7b50342f73577bb56a0a85436",
    },
    "synchronous": {
        "x_coeffs": "0c0e78e97cdf97856600851c7abb6fac6115925a5478eab0994de0a8cbe6d2e3",
        "failed": "9e752bacd368eaab25506d686f64c9b2e46830fb66a9dda58c9f3190be898da1",
        "failures": "22f83e71103af21edb20634b6115b9b0b928ee8425daba98ef90982a7cc5f965",
        "h_dist": "0c0e32a69dbb293cbe5e266dc9a5cc93d2000e24147223816f370c55805c4b71",
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("which", ["single", "synchronous"])
def test_single_and_synchronous_bits_frozen(porous_space, which, threads):
    # no benchmark workload runs these ensembles, so their bits are pinned
    # here: the explicit scheme past its stability limit fails some paths,
    # which are frozen at NaN from then on
    model = ModelSpec(Porous(r=2.0), b_spec=LipschitzDiagonal(0.8, unit_base(16)))
    cfg = SimConfig(dt=2e-4, horizon=0.008, n_paths=600, master_seed=16,
                    checkpoint_times=(0.0, 0.004, 0.006, 0.008),
                    scheme="explicit")
    x0 = e_k(16, 1, 1.8)
    # a single-equation run is the synchronous run of the pair glued at x0
    rec = run_paths(porous_space, model, CouplingParams(n=2), cfg,
                    "synchronous", x0=x0, y0=x0 if which == "single" else -x0,
                    threads=threads)
    got = {"x_coeffs": _sha256(rec.x_coeffs), "failed": _sha256(rec.failed),
           "failures": _sha256(np.array([(p, m) for p, _t, m in rec.failures]))}
    if which == "synchronous":
        got["h_dist"] = _sha256(rec.h_dist)
    assert len(rec.failures) == {"single": 38, "synchronous": 87}[which]
    assert got == FROZEN_BITS[which]


@pytest.mark.parametrize("threads", [1, 2])
def test_glued_pair_record(porous_space, threads):
    # the synchronous run from y0 = x0 is glued at t = 0, so every record
    # field exists and y is x; 600 paths put a second batch in a forked
    # worker at 2 workers, and the explicit scheme fails some paths
    model = ModelSpec(Porous(r=2.0), b_spec=LipschitzDiagonal(0.8, unit_base(16)))
    cfg = SimConfig(dt=2e-4, horizon=0.008, n_paths=600, master_seed=16,
                    checkpoint_times=(0.0, 0.004, 0.006, 0.008),
                    scheme="explicit")
    x0 = e_k(16, 1, 1.8)
    rec = run_paths(porous_space, model, CouplingParams(n=2), cfg,
                    "synchronous", x0=x0, y0=x0, delta_grid=(0.5,),
                    threads=threads)
    assert 0 < len(rec.failures) < cfg.n_paths
    _assert_bits_equal(rec.y_coeffs, rec.x_coeffs, "y_coeffs")
    live = rec.live
    assert np.all(rec.h_dist[live] == 0.0) and np.all(rec.q_dist[live] == 0.0)
    assert rec.coupled.all() and rec.n == 2
    assert np.all(rec.tau_n[live] == 0.0) and np.all(rec.t_n[live] == 0.0)
    assert np.all(rec.dist_at_tau_n[live] == 0.0)
    assert np.all(np.isnan(rec.tau_delta))


def test_run_paths_has_no_single_mode(porous_space, porous_linear):
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=1, master_seed=1,
                    checkpoint_times=(0.01,))
    x0 = e_k(16, 1)
    with pytest.raises(ValueError, match="coupled or synchronous"):
        run_paths(porous_space, porous_linear, CouplingParams(n=1), cfg,
                  "single", x0=x0, y0=x0)

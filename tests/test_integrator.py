import copy
import hashlib
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from spde_reflect.spaces import make_space, h_norm, q_norm, v_norm
from spde_reflect.models import (
    ModelSpec, Porous, PLaplace, LipschitzDiagonal, ZeroDiffusion, unit_base,
)
from spde_reflect import integrator
from spde_reflect.coupling import CouplingParams
from spde_reflect.integrator import (
    SimConfig, gen_noise, noise_block, step_coupled, make_coupling_state,
    run_paths, run_forked, BLOCK_ROWS, StepBuffers, _split_factors,
)
from conftest import e_k


def keyed_step(space, model, params, cfg, st, *, path_lo=0,
               synchronous=False, work=None):
    """The step of st's rows, the first of them path ``path_lo`` (a
    multiple of BLOCK_ROWS), with the keyed noise run_paths draws for them
    when every row is unretired."""
    if work is None:
        work = StepBuffers(space, st.n_paths)
    in_band = None if synchronous else params.n * st.dist > 0.5
    noise = integrator._step_noise(model, cfg, st.step_index, path_lo,
                                   np.ones(st.n_paths, dtype=bool), in_band,
                                   work.noise)
    return step_coupled(space, model, params, cfg, st, noise=noise,
                        synchronous=synchronous, work=work)


def glued_step(space, model, config, x, t, step_index, *, noise=None):
    """The single-equation step from t, as run_paths takes it: a synchronous
    step of the pair glued at x, which never enters the band.  ``noise``
    may supply explicit (dW1, dW2), else the keyed noise is drawn; returns
    the new state, whose x is the stepped one."""
    glued = CouplingParams(n=1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    state = replace(make_coupling_state(space, glued, x, x), time=t,
                    step_index=step_index)
    if noise is None:
        return keyed_step(space, model, glued, config, state, synchronous=True)
    return step_coupled(space, model, glued, config, state, synchronous=True,
                        noise=(*noise, None))


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
    # and a window from a block's first row can be generated standalone
    window = gen_noise(42, 0, 5, 8, 1e-3, path_lo=BLOCK_ROWS)
    np.testing.assert_array_equal(window, large[:, BLOCK_ROWS:BLOCK_ROWS + 5])
    # a window starting inside a block is refused
    with pytest.raises(ValueError, match="path_lo must be a multiple of 256"):
        gen_noise(42, 0, 5, 8, 1e-3, path_lo=BLOCK_ROWS - 2)


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
    (0, 3 * BLOCK_ROWS), (BLOCK_ROWS, BLOCK_ROWS + 17), (0, 17),
])
def test_gen_noise_matches_noise_block(path_lo, n_paths):
    # drawing in place must give noise_block's values scaled by sqrt(dt),
    # for whole blocks and for a partial last block
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


def test_keyed_stream_is_a_fresh_philox():
    # noise_block and gen_noise re-key one shared Philox, so a field of its
    # state that the re-keying missed would carry the last draw over.  Left
    # dirty (its buffer part-used, a 32-bit half cached), the shared
    # generator must still give the stream of a fresh Philox on the same
    # key, and be left in that Philox's state.  The key is a uint64 array:
    # a list of Python ints would round a key of 2^63 or more through
    # float64
    seed, step, ch, block, rows, dt = 2**63 + 5, 5, 2, 3, 17, 3e-4
    key = np.array([seed, integrator._mix(seed, step, 0x10 + ch, block)],
                   dtype=np.uint64)
    assert key.min() >= 2**63
    fresh = np.random.Philox(key=key)
    want = np.random.Generator(fresh).standard_normal((rows, 6))

    def dirty():
        noise_block(1, 2, 3, 4, 17, 6)
        integrator._PHILOX.random_raw(3)
        integrator._KEYED.integers(1000, size=3, dtype=np.uint32)
        state = integrator._PHILOX.state
        assert 0 < state["buffer_pos"] < 4 and state["has_uint32"] == 1

    def flat(state):
        return {k: flat(v) if isinstance(v, dict) else np.asarray(v).tolist()
                for k, v in state.items()}

    dirty()
    np.testing.assert_array_equal(
        noise_block(seed, step, ch, block, rows, 6), want)
    assert flat(integrator._PHILOX.state) == flat(fresh.state)
    dirty()
    got = gen_noise(seed, step, rows, 6, dt, channels=(ch,),
                    path_lo=block * BLOCK_ROWS,
                    out=np.full((1, rows, 6), np.nan))
    np.testing.assert_array_equal(got[0], want * np.sqrt(dt))
    assert flat(integrator._PHILOX.state) == flat(fresh.state)


@pytest.mark.parametrize("diffusion", [True, False],
                         ids=["lipschitz_diagonal", "b_zero"])
def test_step_noise_matches_noise_block(diffusion):
    # run_paths's one draw route, on a batch from path_lo = BLOCK_ROWS: a
    # block with every row drawn and one in the band, a block of retired
    # rows (no row drawn), a block drawn with no row in the band, and a
    # short tail block with one row drawn and one in the band
    b_spec = (LipschitzDiagonal(0.8, unit_base(6)) if diffusion
              else ZeroDiffusion())
    model = ModelSpec(Porous(r=2.0), b_spec=b_spec)
    cfg = SimConfig(dt=3e-4, horizon=0.03, n_paths=1, master_seed=5)
    rows, step = 3 * BLOCK_ROWS + 40, 9
    drawn = np.zeros(rows, dtype=bool)
    in_band = np.zeros(rows, dtype=bool)
    drawn[:BLOCK_ROWS] = True
    drawn[2 * BLOCK_ROWS:3 * BLOCK_ROWS:2] = True
    drawn[3 * BLOCK_ROWS + 11] = True
    in_band[[7, 3 * BLOCK_ROWS + 30]] = True
    # the blocks drawn, of the shared channels and of the reflected one
    shared, band = [True, False, True, True], [True, False, False, True]
    out = np.full((3, rows, 6), np.nan)
    dw = integrator._step_noise(model, cfg, step, BLOCK_ROWS, drawn, in_band,
                                out)
    assert (dw[0] is None) == (not diffusion)
    for ch in (0, 1, 2) if diffusion else (1, 2):
        for j, r0 in enumerate(range(0, rows, BLOCK_ROWS)):
            got = dw[ch][r0:r0 + BLOCK_ROWS]
            if (band if ch == 2 else shared)[j]:
                want = noise_block(cfg.master_seed, step, ch, j + 1,
                                   got.shape[0], 6) * np.sqrt(cfg.dt)
                np.testing.assert_array_equal(got, want)
            else:
                _assert_bits_equal(got, np.zeros_like(got), f"{ch}, {j}")
    if not diffusion:
        assert np.all(np.isnan(out[0]))
    # the synchronous step draws no reflected channel
    sync = integrator._step_noise(model, cfg, step, BLOCK_ROWS, drawn, None,
                                  np.full((3, rows, 6), np.nan))
    assert sync[2] is None


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
        keyed_step(porous_space, m, CouplingParams(n=1), cfg, at_horizon)


def test_ou_variance_oracle(porous_space, porous_linear):
    # module-level integration oracle at reduced path count; the acceptance
    # suite pins the full configuration
    t = 0.1
    cfg = SimConfig(dt=1e-4, horizon=t, n_paths=4000, master_seed=31415,
                    checkpoint_times=(0.0, t))
    rec = run_paths(porous_space, porous_linear, CouplingParams(n=1), cfg,
                    "synchronous", x0=np.zeros(16), y0=np.zeros(16), threads=1)
    c1 = rec.x_mode1[:, 1] / np.pi          # H-mode coordinate
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
        st = keyed_step(porous_space, porous_linear, params, cfg, st)
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
        st = keyed_step(porous_space, porous_linear, params, cfg, st)
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
    keyed = keyed_step(porous_space, model, params, cfg, st, path_lo=path_lo)
    explicit = step_coupled(porous_space, model, params, cfg, st,
                            noise=tuple(noise))
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
        st = keyed_step(porous_space, porous_linear, params, cfg, st)
        if st.step_index == 10:
            assert rec.x_mode1[0, 1] == st.x[0, 0]
            assert rec.h_dist[0, 1] == h_norm(porous_space, st.x - st.y)[0]
    assert rec.x_mode1[0, 2] == st.x[0, 0] and rec.y_mode1[0, 2] == st.y[0, 0]
    np.testing.assert_array_equal(rec.x_final[0], st.x[0])
    np.testing.assert_array_equal(rec.y_final[0], st.y[0])


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
    step_noise = integrator._step_noise
    fail_from = [BLOCK_ROWS]

    # each batch draws its step noise keyed from its first row, path_lo
    def failing_step(model, config, step_index, path_lo, *args):
        if path_lo >= fail_from[0]:
            raise ValueError(f"step failed at path_lo {path_lo}")
        return step_noise(model, config, step_index, path_lo, *args)

    monkeypatch.setattr(integrator, "_step_noise", failing_step)

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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no forked workers")
def test_run_forked_values_larger_than_the_pipe_buffer():
    # each 1 MiB value outgrows a 64 KiB pipe buffer, so both children block
    # on their pipes until the caller drains them in turn
    size = 1 << 17
    values = run_forked([lambda i=i: np.arange(size) * i for i in range(3)])
    for i, v in enumerate(values):
        np.testing.assert_array_equal(v, np.arange(size) * i)
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
    for name in ("x_mode1", "y_mode1", "x_final", "y_final", "h_dist"):
        np.testing.assert_array_equal(getattr(rec1, name),
                                      getattr(rec4, name), err_msg=name)
    np.testing.assert_array_equal(rec1.tau_n, rec4.tau_n)


@pytest.mark.parametrize("which", ["coupled", "synchronous"])
def test_record_holds_no_state_per_checkpoint(porous_space, porous_linear,
                                              which):
    # the record keeps mode 1 of x and y at each checkpoint, each a
    # contiguous (P, C) plane, and one full (P, N) state per path, so it
    # grows as P (C + N), not P C N; the second batch is written by a
    # forked worker
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=2 * BLOCK_ROWS + 5,
                    master_seed=3, checkpoint_times=(0.0, 0.005, 0.01))
    x0 = e_k(16, 1, 0.35 * np.pi)
    rec = run_paths(porous_space, porous_linear, CouplingParams(n=1), cfg,
                    which, x0=x0, y0=-x0, delta_grid=(0.5, 1.0), threads=2)
    p, c, n, d = cfg.n_paths, 3, 16, 2
    for mode1, final, start in ((rec.x_mode1, rec.x_final, x0),
                                (rec.y_mode1, rec.y_final, -x0)):
        assert mode1.shape == (p, c) and mode1.flags.c_contiguous
        assert final.shape == (p, n)
        assert np.all(mode1[:, 0] == start[0])
        assert np.all(np.isfinite(final)) and np.all(mode1[:, -1] != start[0])
        # the horizon is the last checkpoint, and no row retires
        _assert_bits_equal(mode1[:, -1], final[:, 0], "horizon")
    arrays = [v for v in vars(rec).values() if isinstance(v, np.ndarray)]
    assert max(a.ndim for a in arrays) == 2
    # times, four (P, C) planes, two (P, N) states, three float and two
    # bool per-path records, the delta grid and the (P, D) tau_delta
    assert sum(a.nbytes for a in arrays) == (
        8 * (c + 4 * p * c + 2 * p * n + 3 * p + d + p * d) + 2 * p)


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

    scalar = [keyed_step(space, model, params, cfg, st),
              glued_step(space, model, cfg, st.x, 0.0, 0).x]
    monkeypatch.setattr(integrator, "drift_and_split_rate", per_row)
    rows = [keyed_step(space, model, params, cfg, st),
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
    a = coupled.x_mode1[:, 0]
    b = single.x_mode1[:, 0]
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
        np.testing.assert_array_equal(rec.x_mode1[sel, j],
                                      rec.y_mode1[sel, j])
        assert np.all(rec.h_dist[sel, j] == 0.0)
    np.testing.assert_array_equal(rec.x_final[glued], rec.y_final[glued])
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
        for a in (rec.x_mode1, rec.y_mode1, rec.h_dist, rec.q_dist):
            assert np.all(np.isnan(a[path, after]))
        # the distances of a finite pair may overflow before it fails
        for a in (rec.x_mode1, rec.y_mode1):
            assert np.all(np.isfinite(a[path, ~after]))
        assert not np.any(np.isnan(rec.h_dist[path, ~after]))
        assert np.all(np.isnan(rec.x_final[path]))
        assert np.all(np.isnan(rec.y_final[path]))
    live = ~rec.failed
    for a in (rec.x_mode1, rec.y_mode1, rec.x_final, rec.y_final):
        assert np.all(np.isfinite(a[live]))


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
        fresh = keyed_step(porous_space, porous_r2, params, cfg, fresh,
                           path_lo=BLOCK_ROWS)
        stepped = keyed_step(porous_space, porous_r2, params, cfg, reused,
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
            st = keyed_step(sp, porous_r2, glued, cfg, st, synchronous=True)
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

    def step(state, nz, sync):
        if nz is None:
            return keyed_step(porous_space, model, params, cfg, state,
                              synchronous=sync)
        return step_coupled(porous_space, model, params, cfg, state,
                            noise=nz, synchronous=sync)

    def steps():
        out = []
        for nz in (None, tuple(noise)):
            for sync in (False, True):
                out.append(step(st, nz, sync))
            out.append(step(glued, nz, True))
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
    keyed_step(porous_space, model, params, cfg, st)
    keyed_step(porous_space, model, params, cfg, st, synchronous=True)
    glued_step(porous_space, model, cfg, st.x, 0.0, 0)
    assert len(calls) == 5
    exact = ModelSpec(Porous(r=1.0))
    keyed_step(porous_space, exact, params,
               replace(cfg, scheme="semi_implicit"), st)
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
    new = keyed_step(porous_space, model, params, cfg, st,
                     synchronous=synchronous)
    want = [-1, 5, 7, 9, -1] if synchronous else [-1, 0, 0, 9, -1]
    assert new.fail_mode.tolist() == want and new.time == cfg.dt
    assert np.isinf(new.dist[0]) and np.all(np.isfinite(new.x[0]))
    assert np.all(np.isnan(new.x[1:4])) and np.all(np.isnan(new.y[1:4]))
    assert np.all(np.isnan(new.dist[1:4])) and np.isfinite(new.dist[4])
    # rows that failed earlier keep their mode
    newer = keyed_step(porous_space, model, params, cfg, new,
                       synchronous=synchronous)
    assert newer.fail_mode.tolist() == want


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


FROZEN_BITS = {
    "single": {
        "x_mode1": "04b2a5128c594370e2afbccfd948840ddadfbd466c4b812632882d70c32a79b9",
        "x_final": "834f541f0cc887404234bca1a57d2a89d3ff5913ac79a67f43f89363c8abca73",
        "failed": "02f5faed77fe8bfd93460aecc815b3d62ed0cbfbd67fc91ff40736ff40edd100",
        "failures": "236e0292b741b523da491fbe043131014326b8b7b50342f73577bb56a0a85436",
    },
    "synchronous": {
        "x_mode1": "710b25c0c611b7d1998b34af17cf8cc776328bad4edb2c3db9b00faa0fab8df0",
        "x_final": "1debb123f7361f5091c8a27567717cdafc0ee78454eff960b4361efb43721e3a",
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
    got = {"x_mode1": _sha256(rec.x_mode1), "x_final": _sha256(rec.x_final),
           "failed": _sha256(rec.failed),
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
    _assert_bits_equal(rec.y_mode1, rec.x_mode1, "y_mode1")
    _assert_bits_equal(rec.y_final, rec.x_final, "y_final")
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


@pytest.mark.parametrize("shape", [(1, 16), (8,), (2, 16)],
                         ids=["row", "short", "two_rows"])
def test_run_paths_refuses_a_y0_that_is_not_one_vector(porous_space,
                                                       porous_linear, shape):
    # refused before any worker forks, as such an x0 is
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=2 * BLOCK_ROWS,
                    master_seed=1)
    with pytest.raises(ValueError, match="y0 must be a single coefficient"):
        run_paths(porous_space, porous_linear, CouplingParams(n=1), cfg,
                  "coupled", x0=e_k(16, 1), y0=np.zeros(shape), threads=2)


def _every_row_record(space, model, params, cfg, x0, y0, delta_grid=(),
                      synchronous=False):
    """The record fields of a coupled (or ``synchronous``) run whose loop
    steps every row to the horizon, in one batch, with the keyed noise of
    ``keyed_step``; ``x_final`` and ``y_final`` are the states at the
    horizon, and ``x_glued`` and ``y_glued`` those at each pair's gluing
    step (NaN for a pair that never glues)."""
    p = cfg.n_paths
    st = make_coupling_state(space, params, np.tile(x0, (p, 1)),
                             np.tile(y0, (p, 1)), delta_grid=delta_grid)
    work = StepBuffers(space, p)
    cps = cfg.checkpoint_steps()
    out = {"x_mode1": [], "y_mode1": [], "h_dist": [], "q_dist": []}
    fail_time = np.full(p, np.nan)
    x_glued, y_glued = np.full((2, p, space.n_modes), np.nan)
    for k in range(cfg.n_steps + 1):
        now = st.t_n == st.time
        x_glued[now], y_glued[now] = st.x[now], st.y[now]
        if k in cps:
            with np.errstate(invalid="ignore", over="ignore"):
                d = st.x - st.y
                for name, v in zip(out, (st.x[:, 0], st.y[:, 0],
                                         h_norm(space, d), q_norm(space, d))):
                    out[name].append(v)
        if k == cfg.n_steps:
            break
        before = st.failed
        st = keyed_step(space, model, params, cfg, st,
                        synchronous=synchronous, work=work)
        fail_time[st.failed & ~before] = st.time
    out = {name: np.stack(v, axis=1) for name, v in out.items()}
    out.update({name: getattr(st, name) for name in (
        "tau_n", "dist_at_tau_n", "t_n", "coupled", "tau_delta", "failed")})
    out.update(x_final=st.x, y_final=st.y, x_glued=x_glued, y_glued=y_glued)
    out["failures"] = [(int(q), float(fail_time[q]), int(st.fail_mode[q]))
                       for q in np.flatnonzero(st.failed)]
    return out


def _assert_retired_record(rec, ref, retire_glued):
    """rec is ref, except that with ``retire_glued`` a glued pair keeps its
    x and y of its gluing time, in its final state and at every later
    checkpoint.  So each row's final state is ref's at the step it left
    the step, and, the horizon being the last checkpoint, mode 1 there is
    that of the final state."""
    for name in ("tau_n", "dist_at_tau_n", "t_n", "coupled", "tau_delta",
                 "failed", "h_dist", "q_dist"):
        _assert_bits_equal(getattr(rec, name), ref[name], name)
    assert rec.failures == ref["failures"]
    # a row leaves the step at its gluing step when it retires glued, else
    # at the horizon, where a failed row holds the NaN of its failure step
    retired = ~np.isnan(rec.t_n[:, None]) & retire_glued
    glued = (rec.t_n[:, None] <= rec.checkpoint_times) & retire_glued
    for side in "xy":
        final = np.where(retired, ref[side + "_glued"], ref[side + "_final"])
        _assert_bits_equal(getattr(rec, side + "_final"), final,
                           side + "_final")
        _assert_bits_equal(getattr(rec, side + "_mode1"),
                           np.where(glued, final[:, :1], ref[side + "_mode1"]),
                           side + "_mode1")
        _assert_bits_equal(getattr(rec, side + "_final")[:, 0],
                           getattr(rec, side + "_mode1")[:, -1], "horizon")


def _count_step_rows(monkeypatch):
    """The row counts of the steps run in this process, as a list."""
    rows, step = [], integrator.step_coupled

    def counted(space, model, params, config, state, **kw):
        rows.append(state.n_paths)
        return step(space, model, params, config, state, **kw)

    monkeypatch.setattr(integrator, "step_coupled", counted)
    return rows


@pytest.fixture(scope="module")
def gluing_pairs(porous_r2):
    """smoke.cfg's porous r = 2 pair on 1100 paths to t = 0.3, by which
    every pair glues, and the record of a loop stepping every row."""
    sp = make_space(8, 2.0, q_decay=0.75)
    params = CouplingParams(n=20)
    cfg = SimConfig(dt=5e-4, horizon=0.3, n_paths=4 * BLOCK_ROWS + 76,
                    master_seed=99,
                    checkpoint_times=(0.0, 0.1, 0.15, 0.2, 0.25, 0.3))
    x0 = e_k(8, 1, 1.4804406601634037)
    d0 = float(h_norm(sp, 2 * x0))
    ref = _every_row_record(sp, porous_r2, params, cfg, x0, -x0, (d0, 2 * d0))
    return sp, params, cfg, x0, (d0, 2 * d0), ref


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("retire_glued", [False, True],
                         ids=["keep_glued", "retire_glued"])
def test_retired_pairs_keep_every_other_bit(gluing_pairs, porous_r2,
                                            monkeypatch, threads,
                                            retire_glued):
    # four blocks and a 76-row tail, which two workers split 768/332 and
    # three 512/512/76; as pairs glue, the stepped rows are repacked into
    # fewer whole chunks.  The record is that of a loop stepping every row,
    # but for a retired pair's x and y
    sp, params, cfg, x0, deltas, ref = gluing_pairs
    rows = _count_step_rows(monkeypatch)
    rec = run_paths(sp, porous_r2, params, cfg, x0=x0, y0=-x0,
                    delta_grid=deltas, threads=threads,
                    retire_glued=retire_glued)
    assert rec.coupled.all() and not rec.failed.any()
    _assert_retired_record(rec, ref, retire_glued)
    # a retired pair is frozen, not stepped on
    assert np.any(rec.x_final != ref["x_final"]) == retire_glued
    if threads == 1:
        packed = sorted(set(rows), reverse=True)
        if retire_glued:
            assert packed[0] == cfg.n_paths and packed[-1] < 2 * BLOCK_ROWS
            assert all(n % BLOCK_ROWS == 76 for n in packed)
            assert len(rows) < cfg.n_steps
        else:
            assert packed == [cfg.n_paths] and len(rows) == cfg.n_steps


@pytest.mark.parametrize("start, threads", [
    ("reflected", 1), ("glued", 1), ("glued", 2)],
    ids=["reflected", "glued-1", "glued-2"])
def test_batch_with_every_row_retired_stops_stepping(porous_r2, monkeypatch,
                                                      start, threads):
    # smoke.cfg's single block to t = 0.4: every pair glues, no row is left
    # to step, and the later checkpoints read the frozen pairs.  From
    # y0 = x0 every row retires at step 0, here in two blocks and an 88-row
    # tail (two batches, one forked, at two workers), and its records must
    # still be written: x = y = x0 at every checkpoint, glued at t = 0
    sp = make_space(8, 2.0, q_decay=0.75)
    params = CouplingParams(n=20)
    glued = start == "glued"
    cfg = SimConfig(dt=5e-4, horizon=0.4, master_seed=99,
                    n_paths=2 * BLOCK_ROWS + 88 if glued else BLOCK_ROWS,
                    checkpoint_times=(0.0, 0.1, 0.2, 0.3, 0.4))
    x0 = e_k(8, 1, 1.4804406601634037)
    y0 = x0 if glued else -x0
    if glued:
        def never(*args, **kw):
            raise AssertionError("a retired row was stepped")

        # raising, so that a call in a forked worker fails the run too
        monkeypatch.setattr(integrator, "step_coupled", never)
    else:
        ref = _every_row_record(sp, porous_r2, params, cfg, x0, y0)
        rows = _count_step_rows(monkeypatch)
    rec = run_paths(sp, porous_r2, params, cfg, x0=x0, y0=y0,
                    threads=threads, retire_glued=True)
    assert rec.coupled.all()
    if glued:
        _assert_bits_equal(rec.x_mode1, np.full(rec.x_mode1.shape, x0[0]),
                           "x_mode1")
        _assert_bits_equal(rec.y_mode1, rec.x_mode1, "y_mode1")
        for final in (rec.x_final, rec.y_final):
            _assert_bits_equal(final, np.broadcast_to(x0, final.shape),
                               "final")
        assert np.all(rec.h_dist == 0.0) and np.all(rec.q_dist == 0.0)
        assert np.all(rec.t_n == 0.0) and np.all(rec.tau_n == 0.0)
    else:
        last = int(round(np.nanmax(rec.t_n) / cfg.dt))
        assert rows == [BLOCK_ROWS] * last and last < cfg.n_steps
        _assert_retired_record(rec, ref, True)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("which, retire_glued", [
    ("coupled", False), ("coupled", True), ("synchronous", True)],
    ids=["keep_glued", "retire_glued", "synchronous"])
def test_failed_rows_retire_with_their_failure_records(porous_space, porous_r2,
                                                       monkeypatch, threads,
                                                       which, retire_glued):
    # the explicit scheme past its stability limit, as in
    # test_run_paths_coupled_overflow_isolated: 597 of 600 coupled pairs
    # fail between t = 0.00375 and 0.0095, and 543 synchronous pairs from
    # 1.6 e_1 between t = 0.00425 and 0.01, so the failed rows of the first
    # 512 are repacked into one chunk (at three workers each block is a
    # batch of its own); the failures, their times and modes, each row's
    # final state (NaN from its failure step) and every other field are
    # those of a loop stepping every row
    cfg = SimConfig(dt=2.5e-4, horizon=0.01, n_paths=600, master_seed=16,
                    checkpoint_times=(0.0, 0.004, 0.005, 0.006, 0.01),
                    scheme="explicit")
    params = CouplingParams(n=2)
    synchronous = which == "synchronous"
    x0 = e_k(16, 1, 1.6 if synchronous else 2.0)
    ref = _every_row_record(porous_space, porous_r2, params, cfg, x0, -x0,
                            synchronous=synchronous)
    rows = _count_step_rows(monkeypatch)
    rec = run_paths(porous_space, porous_r2, params, cfg, which, x0=x0,
                    y0=-x0, threads=threads, retire_glued=retire_glued)
    assert 0 < len(rec.failures) < cfg.n_paths
    _assert_retired_record(rec, ref, retire_glued)
    if threads == 1:
        assert sorted(set(rows)) == [BLOCK_ROWS + 88, cfg.n_paths]

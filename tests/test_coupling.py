import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spde_reflect import coupling
from spde_reflect.spaces import make_space, h_norm, h_inner
from spde_reflect.coupling import (
    CouplingParams, cutoff_h, cutoff_h_prime, sqrt1mh2, sqrt1mh2_prime,
    cutoff_h_prime_sup, sigma_n_apply, reflect_apply,
    coupled_diffusion_increments, i_n_value, reflection_qv_rate,
    qv_rate_lower_bound,
)
from spde_reflect.models import (
    ModelSpec, Porous, LipschitzDiagonal, unit_base,
)
from conftest import e_k


def test_coupling_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(n=0)
    with pytest.raises(ValueError):
        CouplingParams(n=10, glue_eps=0.1)   # must stay below 1/(2n)
    CouplingParams(n=10, glue_eps=1e-9)


def test_cutoff_branches():
    assert cutoff_h(0.4) == 0.0
    assert cutoff_h(0.0) == 0.0
    assert cutoff_h(1.5) == 1.0
    assert cutoff_h(1.0) == 1.0
    assert cutoff_h(0.75) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def test_cutoff_rejects_negative():
    with pytest.raises(ValueError):
        cutoff_h(-0.1)
    with pytest.raises(ValueError):
        cutoff_h_prime(np.array([0.2, -0.2]))


def test_cutoff_c1_finite_differences():
    # central differences match the analytic derivatives of both h and
    # sqrt(1 - h^2), confirming the C^1_b requirement
    s = np.linspace(0.0, 1.25, 10_000) + 1e-4
    eps = 1e-8
    fd_h = (cutoff_h(s + eps) - cutoff_h(s - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd_h - cutoff_h_prime(s))) < 1e-6
    fd_g = (sqrt1mh2(s + eps) - sqrt1mh2(s - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd_g - sqrt1mh2_prime(s))) < 1e-6


def test_cutoff_prime_sup_value():
    sup = cutoff_h_prime_sup()
    s = np.linspace(0.5, 1.0, 100_001)
    assert sup >= np.max(np.abs(cutoff_h_prime(s)))
    assert 3.0 < sup < 4.5


def test_cutoff_prime_sup_equals_full_scan(monkeypatch):
    # the coarse-then-local scan returns the maximum over every grid point
    monkeypatch.setattr(coupling, "_H_PRIME_SUP", None)
    full = np.max(np.abs(cutoff_h_prime(np.linspace(0.5, 1.0, 2_000_001))))
    assert cutoff_h_prime_sup() == float(full)


def test_cutoff_prime_sup_builds_no_dense_grid(monkeypatch):
    # only the coarse points and the window near the peak are formed
    monkeypatch.setattr(coupling, "_H_PRIME_SUP", None)
    tracemalloc.start()
    try:
        cutoff_h_prime_sup()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 10.0))
def test_cutoff_range_hypothesis(s):
    h = float(cutoff_h(s))
    assert 0.0 <= h <= 1.0
    # h * sqrt(1 - h^2) is well-defined
    assert np.isfinite(h * np.sqrt(max(1.0 - h * h, 0.0)))


def test_sigma_fixes_own_direction(porous_space):
    u = e_k(16, 1)
    v = np.zeros(16)
    w = e_k(16, 1)
    out = sigma_n_apply(porous_space, u, v, 5, w)
    np.testing.assert_allclose(out, w, atol=1e-12)


def test_sigma_kills_orthogonal(porous_space):
    out = sigma_n_apply(porous_space, e_k(16, 1), np.zeros(16), 5, e_k(16, 2))
    np.testing.assert_allclose(out, np.zeros(16), atol=1e-14)


def test_sigma_idempotent(porous_space):
    gen = np.random.default_rng(21)
    u = gen.standard_normal((1000, 16))
    v = gen.standard_normal((1000, 16))
    w = gen.standard_normal((1000, 16))
    once = sigma_n_apply(porous_space, u, v, 7, w)
    twice = sigma_n_apply(porous_space, u, v, 7, once)
    assert np.max(np.abs(twice - once)) < 1e-12


def test_sigma_diagonal_contract(porous_space):
    with pytest.raises(ValueError):
        sigma_n_apply(porous_space, e_k(16, 1), e_k(16, 1), 3, e_k(16, 2))


def test_reflect_parallel_and_orthogonal(porous_space):
    u = e_k(16, 1)
    v = np.zeros(16)
    np.testing.assert_allclose(
        reflect_apply(porous_space, u, v, 5, e_k(16, 1)), -e_k(16, 1),
        atol=1e-12)
    np.testing.assert_allclose(
        reflect_apply(porous_space, u, v, 5, e_k(16, 3)), e_k(16, 3),
        atol=1e-12)


@pytest.mark.parametrize("weighted", [True, False])
def test_reflect_isometry_involution(weighted):
    sp = make_space(16, 1.0, weighted=weighted, q_decay=0.75)
    gen = np.random.default_rng(22)
    u = gen.standard_normal((10_000, 16))
    v = gen.standard_normal((10_000, 16))
    w = gen.standard_normal((10_000, 16))
    for n in (1, 10, 100):
        rw = reflect_apply(sp, u, v, n, w)
        rel = np.abs(h_norm(sp, rw) - h_norm(sp, w)) / h_norm(sp, w)
        assert np.max(rel) < 1e-10
        back = reflect_apply(sp, u, v, n, rw)
        assert np.max(h_norm(sp, back - w) / h_norm(sp, w)) < 1e-10


@pytest.mark.parametrize("weighted", [True, False])
def test_i_n_bound(weighted):
    sp = make_space(16, 1.0, weighted=weighted, q_decay=0.75)
    gen = np.random.default_rng(23)
    v = gen.standard_normal((10_000, 16)) * np.exp(gen.normal(0, 2, (10_000, 1)))
    sup2 = cutoff_h_prime_sup() ** 2
    for n in (1, 10, 100):
        lhs = i_n_value(sp, v, n)
        rhs = 2.0 * sup2 * h_norm(sp, v)
        assert np.all(lhs <= rhs * (1.0 + 1e-10))


@pytest.mark.parametrize("weighted", [True, False])
def test_qv_rate_lower_bound(weighted):
    sp = make_space(16, 1.0, weighted=weighted, q_decay=0.75)
    gen = np.random.default_rng(24)
    v = gen.standard_normal((10_000, 16)) * np.exp(gen.normal(0, 2, (10_000, 1)))
    for n in (1, 10, 100):
        rate = reflection_qv_rate(sp, v, n)
        bound = qv_rate_lower_bound(sp, v, n)
        scale = np.abs(rate) + np.abs(bound)
        assert np.all(rate >= bound - 1e-10 * scale)


def _unit_noise_space():
    return make_space(16, 1.0, weighted=True, q_decay=0.0)


def test_increments_synchronous_below_band(porous_linear):
    sp = _unit_noise_space()
    params = CouplingParams(n=1)
    x = e_k(16, 1, 0.05 * np.pi)   # H-distance 0.1 < 1/2
    y = np.zeros(16)
    gen = np.random.default_rng(25)
    dws = gen.standard_normal((3, 16)) * 0.01
    dx, dy = coupled_diffusion_increments(sp, porous_linear, params,
                                          x, y, *dws)
    np.testing.assert_array_equal(dx, dy)


def test_increments_pure_reflection(porous_linear):
    # full cutoff, difference along e1, unit noise: the mode-1 part of
    # channel 3 flips sign for y
    sp = _unit_noise_space()
    params = CouplingParams(n=1)
    x = e_k(16, 1, 2.0 * np.pi)    # H-distance 2 > 1
    y = np.zeros(16)
    z = np.zeros(16)
    dw3 = e_k(16, 1, 0.3)
    dx, dy = coupled_diffusion_increments(sp, porous_linear, params,
                                          x, y, z, z, dw3)
    np.testing.assert_allclose(dy[0], -dx[0], atol=1e-14)
    np.testing.assert_allclose(dy[1:], dx[1:], atol=1e-14)


def test_increment_variance_matches(porous_space, porous_linear):
    # the reflected channel preserves the per-mode law
    params = CouplingParams(n=2)
    gen = np.random.default_rng(26)
    x = e_k(16, 1, 0.45 * np.pi)   # inside the transition band
    y = -x
    m = 10_000
    dt = 1.0
    dws = gen.standard_normal((3, m, 16)) * np.sqrt(dt)
    dx, dy = coupled_diffusion_increments(
        porous_space, porous_linear, params,
        np.tile(x, (m, 1)), np.tile(y, (m, 1)), *dws)
    vx = np.var(dx, axis=0, ddof=1)
    vy = np.var(dy, axis=0, ddof=1)
    se = vx * np.sqrt(2.0 / (m - 1))
    assert np.all(np.abs(vx - vy) <= 3.0 * np.sqrt(2.0) * se)


def test_increment_variance_weighted_law(porous_space, porous_linear):
    # channel variance of each marginal equals (q_i^2 / w_i) dt exactly in law
    params = CouplingParams(n=2)
    gen = np.random.default_rng(27)
    x = e_k(16, 1, 0.45 * np.pi)
    y = -x
    m = 20_000
    dws = gen.standard_normal((3, m, 16))
    dx, dy = coupled_diffusion_increments(
        porous_space, porous_linear, params,
        np.tile(x, (m, 1)), np.tile(y, (m, 1)), *dws)
    target = porous_space.q_coeffs ** 2 / porous_space.h_weights
    for d in (dx, dy):
        v = np.var(d, axis=0, ddof=1)
        se = target * np.sqrt(2.0 / (m - 1))
        assert np.all(np.abs(v - target) <= 4.0 * se)


def _reference_increments(space, model, params, x, y, dW1, dW2, dW3):
    """The full formula evaluated on every row, whatever its distance."""
    root_w = np.sqrt(space.h_weights)
    z2 = dW2 / root_w
    z3 = dW3 / root_w
    h = cutoff_h(params.n * h_norm(space, x - y))[..., None]
    g = np.sqrt(np.clip(1.0 - h * h, 0.0, None))
    q = space.q_coeffs
    shared = q * g * z2
    dx = shared + q * h * z3
    z3r = np.array(z3, copy=True)
    active = h[..., 0] > 0.0
    if np.any(active):
        z3r[active] = reflect_apply(space, x[active], y[active], params.n,
                                    z3[active])
    dy = shared + q * h * z3r
    if model.has_diffusion:
        z1 = dW1 / root_w
        c0, base = model.b_spec.c0, model.b_spec.base
        dx = dx + c0 * np.tanh(root_w * x) * base * z1
        dy = dy + c0 * np.tanh(root_w * y) * base * z1
    return dx, dy


@pytest.mark.parametrize("model", [
    ModelSpec(Porous(r=2.0)),
    ModelSpec(Porous(r=2.0), b_spec=LipschitzDiagonal(0.8, unit_base(16))),
], ids=["zero_b", "lipschitz_diagonal"])
def test_increments_match_full_formula_bitwise(porous_space, model):
    # only rows inside the band (or with a NaN distance) take the full
    # formula; every other row must get the same bits it gives
    params = CouplingParams(n=4)
    gen = np.random.default_rng(29)
    s = np.concatenate([
        gen.uniform(0.01, 0.49, 40),      # below the band
        [0.5, np.nextafter(0.5, 1.0)],    # at its lower edge
        gen.uniform(0.51, 0.99, 40),      # inside the transition
        gen.uniform(1.0, 3.0, 40),        # above it (h = 1)
    ])
    p = s.size + 6
    mid = 0.1 * gen.standard_normal((p, 16)) / porous_space.lambdas
    direction = gen.standard_normal(16)
    direction /= h_norm(porous_space, direction)
    half = np.zeros((p, 16))
    half[:s.size] = 0.5 * (s / params.n)[:, None] * direction
    x, y = mid + half, mid - half
    # glued rows (x = y) and failed rows (NaN states)
    x[s.size:s.size + 3] = y[s.size:s.size + 3]
    x[s.size + 3:] = y[s.size + 3:] = np.nan
    dws = gen.standard_normal((3, p, 16)) * np.sqrt(1e-3)
    with np.errstate(invalid="ignore"):
        want = _reference_increments(porous_space, model, params, x, y, *dws)
        dist = h_norm(porous_space, x - y)
        in_band = params.n * dist > 0.5
        assert 0 < np.sum(in_band) < p
        # the step passes the distance its boundary update stored, which
        # for a pair glued at that boundary is at most glue_eps, not 0
        stored = dist.copy()
        stored[s.size:s.size + 3] = params.glue_eps
        out = np.empty((2, p, 16))
        # the last two calls go through one reused scratch, which holds the
        # band rows and then channel 1 and the B term
        reused = {"dist": stored, "out": out,
                  "scratch": np.full(4 * p * 16, np.nan)}
        for kw in ({}, {"dist": dist}, {"dist": stored, "out": out},
                   reused, reused):
            got = coupled_diffusion_increments(porous_space, model, params,
                                               x, y, *dws, **kw)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        # a single pair (1-D state) on each side of the band
        for i in (0, s.size - 1):
            got = coupled_diffusion_increments(porous_space, model, params,
                                               x[i], y[i], *dws[:, i])
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w[i])
        # the band rows worked on in one reused scratch array, each subset
        # twice: no, some and every row in the band; every row in the band
        # with failed (NaN) rows among them, which reflect to NaN; glued
        # rows and NaN rows only, so that every band row is a failed one
        band = ~(params.n * stored <= 0.5)
        below = np.flatnonzero(~band[:s.size])
        above = np.flatnonzero(band[:s.size])
        glued = np.arange(s.size, s.size + 3)
        failed = np.arange(s.size + 3, p)
        subsets = {"none": below, "some": np.arange(p), "all": above,
                   "all_and_failed": np.concatenate([above[:30], failed,
                                                     above[30:]]),
                   "glued_and_failed": np.concatenate([glued, failed])}
        n_band = {"none": 0, "some": above.size + failed.size,
                  "all": above.size, "all_and_failed": above.size + failed.size,
                  "glued_and_failed": failed.size}
        scratch = np.full(4 * p * 16, np.nan)
        for name, rows in subsets.items():
            assert np.sum(band[rows]) == n_band[name]
            sub = [a[rows] for a in (x, y, *dws)]
            want_sub = _reference_increments(porous_space, model, params,
                                             sub[0], sub[1], *sub[2:])
            for _ in range(2):
                got = coupled_diffusion_increments(
                    porous_space, model, params, *sub[:2], *sub[2:],
                    dist=stored[rows], out=np.full((2, rows.size, 16), 7.0),
                    scratch=scratch)
                for g, w in zip(got, want_sub):
                    np.testing.assert_array_equal(g, w, err_msg=name)
    assert np.all(np.isnan(want[0][s.size + 3:]))
    assert not np.array_equal(want[0][in_band], want[1][in_band])


@pytest.mark.parametrize("model", [
    ModelSpec(Porous(r=2.0)),
    ModelSpec(Porous(r=2.0), b_spec=LipschitzDiagonal(0.8, unit_base(16))),
], ids=["zero_b", "lipschitz_diagonal"])
def test_band_slabs_keep_every_bit(porous_space, model, monkeypatch):
    # three slabs give the bits of one slab of every band row, for two
    # sets of 2 _BAND_SLAB + 37 band rows: reflected (in the transition or
    # at full cutoff) and failed (NaN) rows shuffled among rows below the
    # band; and every row in the band and reflected, none failed, so that
    # the band rows are every row in order (linear_ou's first steps)
    params = CouplingParams(n=4)
    gen = np.random.default_rng(43)
    n_band = 2 * coupling._BAND_SLAB + 37
    for n_failed, n_below in ((25, 700), (0, 0)):
        s = np.concatenate([gen.uniform(0.51, 3.0, n_band - n_failed),
                            gen.uniform(0.01, 0.49, n_below)])
        p = s.size + n_failed
        mid = 0.1 * gen.standard_normal((p, 16)) / porous_space.lambdas
        direction = gen.standard_normal(16)
        direction /= h_norm(porous_space, direction)
        half = np.zeros((p, 16))
        half[:s.size] = 0.5 * (s / params.n)[:, None] * direction
        x, y = mid + half, mid - half
        x[s.size:] = y[s.size:] = np.nan
        order = gen.permutation(p) if n_below else np.arange(p)
        x, y = x[order], y[order]
        dws = gen.standard_normal((3, p, 16)) * np.sqrt(1e-3)
        with np.errstate(invalid="ignore"):
            dist = h_norm(porous_space, x - y)
            assert np.count_nonzero(~(params.n * dist <= 0.5)) == n_band
            if not n_below:
                assert p == n_band and np.all(cutoff_h(params.n * dist) > 0)

            def increments(**kw):
                return coupled_diffusion_increments(
                    porous_space, model, params, x, y, *dws, dist=dist,
                    **kw)

            slabs = [increments(),
                     increments(scratch=np.full(4 * p * 16, np.nan))]
            with monkeypatch.context() as m:
                m.setattr(coupling, "_BAND_SLAB", p)
                whole = increments()
        for got in slabs:
            for g, w in zip(got, whole):
                np.testing.assert_array_equal(g.view(np.uint64),
                                              w.view(np.uint64))


def test_reflect_apply_scratch_and_out(porous_space):
    # with scratch (even u and v themselves) and out = w, the bits of the
    # allocating call
    gen = np.random.default_rng(31)
    u, v, w = gen.standard_normal((3, 50, 16)) / porous_space.lambdas
    want = reflect_apply(porous_space, u, v, 3, w)
    got = reflect_apply(porous_space, u, v, 3, w.copy(),
                        scratch=np.empty((2, 50, 16)))
    np.testing.assert_array_equal(got, want)
    uu, vv, ww = u.copy(), v.copy(), w.copy()
    got = reflect_apply(porous_space, uu, vv, 3, ww, out=ww, scratch=(uu, vv))
    assert got is ww
    np.testing.assert_array_equal(got, want)

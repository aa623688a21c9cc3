import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spde_reflect.spaces import (
    make_space, h_norm, q_norm, v_norm, to_grid, from_grid, grad_to_grid,
    quad,
)
from spde_reflect.spaces import ROW_CHUNK, rowblock_matmul
from spde_reflect.models import Porous, PLaplace, FastDiff
from conftest import e_k


def test_make_space_validation():
    with pytest.raises(ValueError):
        make_space(0)
    with pytest.raises(ValueError):
        make_space(4, gamma=-1.0)
    with pytest.raises(ValueError):
        make_space(4, oversample=2)


def test_lambdas_increasing(porous_space):
    lam = porous_space.lambdas
    assert lam[0] == pytest.approx(np.pi ** 2)
    assert np.all(np.diff(lam) > 0)


def test_q_tail_summable(porous_space):
    # partial sums of q_i^2 converge numerically for delta > 1/2
    q2 = porous_space.q_coeffs ** 2
    head = np.sum(q2[: len(q2) // 2])
    assert np.sum(q2) - head < 0.5 * head


def test_h_norm_single_mode(porous_space):
    assert h_norm(porous_space, e_k(16, 1)) == pytest.approx(1.0 / np.pi)


def test_h_norm_zero(porous_space):
    assert h_norm(porous_space, np.zeros(16)) == 0.0


def test_h_norm_two_modes(porous_space):
    x = e_k(16, 1) + e_k(16, 2)
    assert h_norm(porous_space, x) == pytest.approx(np.sqrt(5.0) / (2.0 * np.pi))


def test_h_norm_unweighted(plap_space):
    assert h_norm(plap_space, e_k(16, 1)) == pytest.approx(1.0)


def test_q_norm_unit_noise():
    sp = make_space(16, 1.0, weighted=True, q_decay=0.0)
    x = e_k(16, 1)
    assert q_norm(sp, x) == pytest.approx(h_norm(sp, x))


def test_q_norm_power_law(porous_space):
    # q_2 = 2^-0.75, lambda_2 = (2 pi)^2
    assert q_norm(porous_space, e_k(16, 2)) == pytest.approx(
        2.0 ** 0.75 / (2.0 * np.pi))


def test_q_norm_dead_mode_sentinel():
    q = np.ones(8)
    q[1] = 0.0
    sp = dataclasses.replace(make_space(8, 1.0), q_coeffs=q)
    assert q_norm(sp, e_k(8, 2)) == np.inf
    # zero coefficient on the dead mode is fine
    assert np.isfinite(q_norm(sp, e_k(8, 1)))


def test_v_norm_zero(porous_space):
    assert v_norm(porous_space, np.zeros(16), Porous(r=1.0)) == 0.0


def test_v_norm_porous_r1(porous_space):
    assert v_norm(porous_space, e_k(16, 1), Porous(r=1.0)) == pytest.approx(
        1.0, abs=1e-8)


def test_v_norm_porous_r2(porous_space):
    expected = (8.0 * np.sqrt(2.0) / (3.0 * np.pi)) ** (1.0 / 3.0)
    assert v_norm(porous_space, e_k(16, 1), Porous(r=2.0)) == pytest.approx(
        expected, abs=1e-6)


def test_v_norm_plaplace(plap_space):
    # p = 2: |e1|_2 + |grad e1|_2 = 1 + pi
    got = v_norm(plap_space, e_k(16, 1), PLaplace(p=2.0))
    assert got == pytest.approx(1.0 + np.pi, abs=1e-8)


def test_v_norm_fastdiff(porous_space):
    got = v_norm(porous_space, e_k(16, 1), FastDiff(r=0.5))
    lq = quad(porous_space,
              np.abs(to_grid(porous_space, e_k(16, 1))) ** 1.5) ** (1 / 1.5)
    assert got == pytest.approx(lq + 1.0 / np.pi)


def test_to_grid_basis(porous_space):
    g = to_grid(porous_space, e_k(16, 1))
    expected = np.sqrt(2.0) * np.sin(np.pi * porous_space.nodes)
    np.testing.assert_allclose(g, expected, atol=1e-14)


def test_round_trip_identity(porous_space):
    gen = np.random.default_rng(3)
    x = gen.standard_normal((50, 16))
    back = from_grid(porous_space, to_grid(porous_space, x))
    assert np.max(np.abs(back - x)) < 1e-10


def _per_chunk(a, b):
    return np.concatenate([a[lo:lo + ROW_CHUNK] @ b
                           for lo in range(0, a.shape[0], ROW_CHUNK)])


def test_rowblock_matmul_is_per_chunk_product(porous_space):
    # the determinism contract: a large batch gives, row by row, the bits
    # of the same product taken one ROW_CHUNK block at a time, for a matrix
    # or a vector on the right (the non-contiguous dsine.T is the p-Laplace
    # drift's), a partial last chunk, and a non-contiguous left operand
    gen = np.random.default_rng(4)
    sp = porous_space
    cases = ((gen.standard_normal((10 * ROW_CHUNK + 17, 16)), sp.sine),
             (gen.standard_normal((3 * ROW_CHUNK, 66)), sp.proj),
             (gen.standard_normal((5 * ROW_CHUNK + 100, 66)), sp.dsine.T),
             (gen.standard_normal((4 * ROW_CHUNK + 1, 66)), sp.quad_w),
             (gen.standard_normal((6 * ROW_CHUNK + 33, 66)), sp.quad_w),
             (np.asfortranarray(gen.standard_normal((2 * ROW_CHUNK + 5, 16))),
              sp.sine))
    for a, b in cases:
        ref = _per_chunk(a, b)
        np.testing.assert_array_equal(rowblock_matmul(a, b), ref)
        out = np.full(ref.shape, np.nan)
        assert rowblock_matmul(a, b, out) is out
        np.testing.assert_array_equal(out, ref)


def test_quad_is_chunked_product(porous_space):
    # quad takes the per-chunk product, which for these batches is also the
    # unchunked one: OpenBLAS's gemv rounds a row by its place in a 4-row
    # group, and 256-row chunks keep every row's place.  257 rows end in a
    # 1-row chunk, a dot product, which need not round like the 1-row tail
    # of one gemv.
    gen = np.random.default_rng(6)
    w = porous_space.quad_w
    for rows in (1, 255, 256, 257, 1000, 10_000):
        values = gen.standard_normal((rows, w.size)) ** 2
        got = quad(porous_space, values)
        np.testing.assert_array_equal(got, _per_chunk(values, w))
        if rows != 257:
            np.testing.assert_array_equal(got, values @ w)
    values = gen.standard_normal(w.size) ** 2
    np.testing.assert_array_equal(quad(porous_space, values), values @ w)


def test_full_chunks_keep_every_row_bits(ex41_space):
    # run_paths packs a batch's unretired rows into whole
    # ROW_CHUNK-row chunks, padded with zeros or other rows, ahead of the
    # short tail chunk; every row must keep the bits it has in the batch.
    # Short chunks do not keep them, so a BLAS build that rounds a row of a
    # full chunk by its place or neighbours fails here.
    sp = ex41_space
    gen = np.random.default_rng(41)
    head, tail = 10 * ROW_CHUNK, 136
    coeffs = gen.standard_normal((head + tail, sp.n_modes)) / sp.lambdas
    grid = to_grid(sp, coeffs)
    transforms = {
        "to_grid": (lambda a: to_grid(sp, a), coeffs),
        "from_grid": (lambda a: from_grid(sp, a), grid),
        "grad_to_grid": (lambda a: grad_to_grid(sp, a), coeffs),
        # the p-Laplace drift's projection, a non-contiguous right operand
        "dsine.T": (lambda a: rowblock_matmul(a, sp.dsine.T), grid),
        "h_norm": (lambda a: h_norm(sp, a), coeffs),
    }
    for name, (f, batch) in transforms.items():
        ref = f(batch)
        for trial in range(12):
            rows = np.sort(gen.choice(head, size=gen.integers(1, head + 1),
                                      replace=False))
            n_pad = -rows.size % ROW_CHUNK
            if trial % 2:
                pad = batch[gen.choice(head, size=n_pad)]
            else:
                pad = np.zeros((n_pad, batch.shape[1]))
            got = f(np.concatenate([batch[rows], pad, batch[head:]]))
            np.testing.assert_array_equal(
                got[:rows.size].view(np.uint64), ref[rows].view(np.uint64),
                err_msg=f"{name}, {rows.size} rows")
            np.testing.assert_array_equal(
                got[-tail:].view(np.uint64), ref[head:].view(np.uint64),
                err_msg=f"{name}, tail")


@pytest.mark.parametrize("space", ["ex41_space", "plap_space"],
                         ids=["weighted", "unweighted"])
def test_norms_of_a_row_subset_keep_their_bits(space, request):
    # run_paths computes a retiring row's distances on the rows retiring
    # at that step alone, unpadded; each must have the bits of the same row
    # in the whole batch
    sp = request.getfixturevalue(space)
    gen = np.random.default_rng(29)
    batch = gen.standard_normal((2 * ROW_CHUNK + 88, sp.n_modes)) / sp.lambdas
    refs = {f: f(sp, batch) for f in (h_norm, q_norm)}
    for trial in range(50):
        rows = np.sort(gen.choice(batch.shape[0], size=gen.integers(1, 41),
                                  replace=False))
        for f, ref in refs.items():
            np.testing.assert_array_equal(
                f(sp, batch[rows]).view(np.uint64), ref[rows].view(np.uint64),
                err_msg=f"{f.__name__}, {rows.size} rows")


def test_from_grid_zero(porous_space):
    z = from_grid(porous_space, np.zeros(porous_space.nodes.size))
    np.testing.assert_array_equal(z, np.zeros(16))


def test_size_mismatch(porous_space):
    with pytest.raises(ValueError):
        to_grid(porous_space, np.zeros(15))
    with pytest.raises(ValueError):
        from_grid(porous_space, np.zeros(10))


def test_norm_homogeneity(porous_space):
    gen = np.random.default_rng(11)
    x = gen.standard_normal((1000, 16))
    c = gen.standard_normal(1000)
    for norm in (h_norm, q_norm):
        got = norm(porous_space, c[:, None] * x)
        np.testing.assert_allclose(got, np.abs(c) * norm(porous_space, x),
                                   rtol=1e-12)
    fam = Porous(r=2.0)
    got = v_norm(porous_space, c[:, None] * x, fam)
    np.testing.assert_allclose(got, np.abs(c) * v_norm(porous_space, x, fam),
                               rtol=1e-10)


def test_triangle_inequality(porous_space):
    gen = np.random.default_rng(12)
    x = gen.standard_normal((1000, 16))
    y = gen.standard_normal((1000, 16))
    for norm in (h_norm, q_norm):
        lhs = norm(porous_space, x + y)
        rhs = norm(porous_space, x) + norm(porous_space, y)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_q_dominates_h_for_small_q(porous_space):
    # all |q_i| <= 1 here, so the noise-intrinsic norm dominates
    gen = np.random.default_rng(13)
    x = gen.standard_normal((1000, 16))
    assert np.all(q_norm(porous_space, x) >= h_norm(porous_space, x) - 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.integers(1, 16))
def test_h_norm_scaling_hypothesis(c, k):
    sp = make_space(16, 1.0)
    x = e_k(16, k)
    assert h_norm(sp, c * x) == pytest.approx(abs(c) * h_norm(sp, x), abs=1e-12)

import numpy as np
import pytest

from spde_reflect.spaces import make_space, h_norm
from spde_reflect.models import (
    ModelSpec, Porous, PLaplace, FastDiff, ZeroDiffusion, LipschitzDiagonal,
    drift_and_split_rate, pairing_drift_diff, b_diag, b_hs_diff,
    unit_base, signed_power, _row_max,
)
from spde_reflect.inequalities import fit_coercivity
from conftest import e_k


def test_family_validation():
    with pytest.raises(ValueError):
        Porous(r=0.5)
    with pytest.raises(ValueError):
        Porous(r=2.0, psi_scale=0.0)
    with pytest.raises(ValueError):
        PLaplace(p=1.5)
    with pytest.raises(ValueError):
        FastDiff(r=1.0)


def test_drift_linear_porous(porous_space, porous_linear):
    d = drift_and_split_rate(porous_space, porous_linear, 0.0, e_k(16, 1))[0]
    np.testing.assert_allclose(d, -np.pi ** 2 * e_k(16, 1), atol=1e-10)


def test_drift_plaplace_p2(plap_space, plap_p2):
    d = drift_and_split_rate(plap_space, plap_p2, 0.0, e_k(16, 1))[0]
    np.testing.assert_allclose(d, -np.pi ** 2 * e_k(16, 1), atol=1e-9)


def test_drift_porous_r3_analytic(porous_space):
    # (sqrt2 sin)^3 = (3 sqrt2/2) sin(pi x) - (sqrt2/2) sin(3 pi x)
    m = ModelSpec(Porous(r=3.0))
    d = drift_and_split_rate(porous_space, m, 0.0, e_k(16, 1))[0]
    assert d[0] == pytest.approx(-1.5 * np.pi ** 2, rel=1e-12)
    assert d[2] == pytest.approx(0.5 * (3.0 * np.pi) ** 2, rel=1e-12)
    assert np.max(np.abs(d[[1] + list(range(3, 16))])) < 1e-10


def test_drift_quadrature_oracle():
    # oversampled quadrature is the independent route for the projection
    m = ModelSpec(Porous(r=3.0))
    coarse = make_space(12, 1.0, oversample=4)
    fine = make_space(12, 1.0, oversample=64)
    gen = np.random.default_rng(4)
    v = gen.standard_normal(12) * np.arange(1, 13.0) ** -1.5
    d_coarse = drift_and_split_rate(coarse, m, 0.0, v)[0]
    d_fine = drift_and_split_rate(fine, m, 0.0, v)[0]
    np.testing.assert_allclose(d_coarse, d_fine, atol=1e-6)


def test_drift_fastdiff_zero_at_origin(porous_space, fastdiff_half):
    d = drift_and_split_rate(porous_space, fastdiff_half, 0.0, np.zeros(16))[0]
    np.testing.assert_array_equal(d, np.zeros(16))


def test_fastdiff_beta_term(porous_space):
    m = ModelSpec(FastDiff(r=0.5, beta0=2.0))
    base = ModelSpec(FastDiff(r=0.5))
    v = e_k(16, 1, 0.3)
    np.testing.assert_allclose(
        drift_and_split_rate(porous_space, m, 0.0, v)[0]
        - drift_and_split_rate(porous_space, base, 0.0, v)[0],
        2.0 * v, atol=1e-12)


def test_pairing_equal_points(porous_space, porous_r2):
    gen = np.random.default_rng(5)
    v = gen.standard_normal(16)
    assert pairing_drift_diff(porous_space, porous_r2, 0.0, v, v) == 0.0


def test_pairing_linear_porous(porous_space, porous_linear):
    got = pairing_drift_diff(porous_space, porous_linear, 0.0,
                             e_k(16, 1), np.zeros(16))
    assert got == pytest.approx(-1.0, rel=1e-12)


def test_pairing_plaplace_p2(plap_space, plap_p2):
    got = pairing_drift_diff(plap_space, plap_p2, 0.0, e_k(16, 1), np.zeros(16))
    assert got == pytest.approx(-np.pi ** 2, rel=1e-10)


def test_pairing_porous_phi_term(porous_space):
    m = ModelSpec(Porous(r=1.0, phi_slope=2.0))
    d = e_k(16, 1)
    base = pairing_drift_diff(porous_space, ModelSpec(Porous(r=1.0)), 0.0,
                              d, np.zeros(16))
    got = pairing_drift_diff(porous_space, m, 0.0, d, np.zeros(16))
    assert got - base == pytest.approx(2.0 / np.pi ** 2, rel=1e-12)


def test_linear_case_equivalence(plap_space):
    # porous r=1 and p-Laplacian p=2 share the drift on 100 random vectors
    gen = np.random.default_rng(6)
    v = gen.standard_normal((100, 16))
    d1, _ = drift_and_split_rate(plap_space, ModelSpec(Porous(r=1.0)), 0.0, v)
    d2, _ = drift_and_split_rate(plap_space, ModelSpec(PLaplace(p=2.0)), 0.0, v)
    assert np.max(np.abs(d1 - d2)) < 1e-8


@pytest.mark.parametrize("family,weighted", [
    (Porous(r=1.0), True),
    (Porous(r=2.0), True),
    (PLaplace(p=3.0), False),
    (FastDiff(r=0.5), True),
])
def test_monotonicity_sign(family, weighted):
    # pairing of the drift difference admits a one-sided linear bound
    sp = make_space(12, 1.0, weighted=weighted)
    m = ModelSpec(family)
    gen = np.random.default_rng(7)
    v1 = gen.standard_normal((10_000, 12)) * np.arange(1, 13.0) ** -1.0
    v2 = gen.standard_normal((10_000, 12)) * np.arange(1, 13.0) ** -1.0
    pair = pairing_drift_diff(sp, m, 0.0, v1, v2)
    d2 = h_norm(sp, v1 - v2) ** 2
    k_fit = np.max(pair / d2)
    assert k_fit <= 1e-9  # all these families are dissipative (B = 0)


def test_hemicontinuity_surrogate(porous_space, porous_r2):
    # s -> <A(v1 + s v2), v> has no isolated jumps: refining the s-grid
    # halves the largest increment
    gen = np.random.default_rng(8)
    v1 = gen.standard_normal(16) * np.arange(1, 17.0) ** -1.0
    v2 = gen.standard_normal(16) * np.arange(1, 17.0) ** -1.0
    v = gen.standard_normal(16) * np.arange(1, 17.0) ** -1.0

    def values(n_grid):
        s = np.linspace(-1.0, 1.0, n_grid)
        states = v1[None, :] + s[:, None] * v2[None, :]
        d = drift_and_split_rate(porous_space, porous_r2, 0.0, states)[0]
        return d @ v

    coarse = np.max(np.abs(np.diff(values(101))))
    fine = np.max(np.abs(np.diff(values(201))))
    assert fine <= 0.75 * coarse


@pytest.mark.parametrize("family,weighted", [
    (Porous(r=2.0), True),
    (PLaplace(p=3.0), False),
    (FastDiff(r=0.5), True),
])
def test_coercivity_surrogate(family, weighted):
    sp = make_space(12, 1.0, weighted=weighted)
    rep = fit_coercivity(sp, ModelSpec(family), 10_000)
    assert rep.verdict == "pass"


def test_coercivity_with_diffusion():
    sp = make_space(12, 1.0, weighted=True)
    m = ModelSpec(Porous(r=2.0),
                  b_spec=LipschitzDiagonal(1.0, unit_base(12)))
    rep = fit_coercivity(sp, m, 10_000)
    assert rep.verdict == "pass"


def test_apply_B_zero(porous_space, porous_linear):
    gen = np.random.default_rng(9)
    v, w = gen.standard_normal((2, 16))
    np.testing.assert_array_equal(
        b_diag(porous_space, porous_linear, 0.0, v) * w, np.zeros(16))
    assert b_hs_diff(porous_space, porous_linear, 0.0, v, w) == 0.0


def test_b_diag_formula_and_out(porous_space, porous_linear):
    # c0 * tanh(sqrt(w) v) * base, in that order, into out or a fresh array
    m = ModelSpec(Porous(r=1.0), b_spec=LipschitzDiagonal(0.8, unit_base(16)))
    v = np.random.default_rng(12).standard_normal((7, 16))
    want = 0.8 * np.tanh(porous_space.root_h_weights * v) * unit_base(16)
    out = np.full_like(v, np.nan)
    assert b_diag(porous_space, m, 0.0, v, out=out) is out
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(b_diag(porous_space, m, 0.0, v), want)
    assert b_diag(porous_space, porous_linear, 0.0, v, out=out) is out
    np.testing.assert_array_equal(out, np.zeros_like(v))


def test_b_hs_diff_same_point(porous_space):
    m = ModelSpec(Porous(r=1.0), b_spec=LipschitzDiagonal(1.0, unit_base(16)))
    gen = np.random.default_rng(10)
    v = gen.standard_normal(16)
    assert b_hs_diff(porous_space, m, 0.0, v, v) == 0.0


def test_b_hs_lipschitz_property(porous_space):
    c0 = 1.7
    m = ModelSpec(Porous(r=1.0), b_spec=LipschitzDiagonal(c0, unit_base(16)))
    gen = np.random.default_rng(11)
    v1 = gen.standard_normal((10_000, 16))
    v2 = gen.standard_normal((10_000, 16))
    lhs = b_hs_diff(porous_space, m, 0.0, v1, v2)
    rhs = c0 * h_norm(porous_space, v1 - v2)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_exact_split_flag():
    # resolved from the family: A(v) = -L v exactly
    assert ModelSpec(Porous(r=1.0)).exact_split
    assert ModelSpec(Porous(r=1.0), b_spec=LipschitzDiagonal(
        0.5, unit_base(16))).exact_split
    for fam in (Porous(r=1.0, psi_scale=1.5), Porous(r=1.0, phi_slope=0.5),
                Porous(r=2.0), PLaplace(p=2.0), FastDiff(r=0.5)):
        assert not ModelSpec(fam).exact_split
    with pytest.raises(TypeError):
        ModelSpec(Porous(r=1.0), exact_split=False)


def test_signed_power_matches_definition():
    s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(signed_power(s, 3.0), np.abs(s) ** 2 * s)
    np.testing.assert_allclose(signed_power(s, 0.5),
                               np.sign(s) * np.abs(s) ** 0.5)
    # r = 2 has its own branch; it must give the general formula's values
    # exactly (the sign of an exact zero may differ)
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                        1e-160, -1e-160, 1e154, -1e154, 1.3e154, -1.4e154,
                        1e155, -1e155])
    gen = np.random.default_rng(12)
    randoms = gen.standard_normal((64, 66)) * np.exp(gen.uniform(-30, 30, (64, 66)))
    for arr in (special, randoms):
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(signed_power(arr, 2.0),
                                          np.sign(arr) * np.abs(arr) ** 2.0)
    for val in (-3.7, -1e154, -0.0, 0.0, 2.5e-160, 1e200, float("nan")):
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(signed_power(val, 2.0),
                                          np.sign(val) * np.abs(val) ** 2.0)
    # a given |s|, also when it is the output buffer, gives the same bits
    # for r = 2 and for the general formula
    for r in (2.0, 3.0, 0.5, 1.5):
        for arr in (special, randoms):
            with np.errstate(over="ignore", invalid="ignore"):
                want = signed_power(arr, r)
                got = signed_power(arr, r, abs_s=np.abs(arr))
                out = np.empty_like(arr)
                into = signed_power(arr, r, out=out, abs_s=np.abs(arr, out=out))
            assert into is out
            for a in (got, into):
                np.testing.assert_array_equal(a.view(np.uint64),
                                              want.view(np.uint64))


def test_row_max_matches_np_max_bit_for_bit():
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny,
                        -tiny, 1e-310, -1e-310, 1.0, -2.5])
    gen = np.random.default_rng(5)
    rows = gen.choice(special, size=(3000, 66))
    rows[:40] = gen.choice(special[4:6], size=(40, 66))      # only +-0
    rows[40:80] = gen.choice(special[6:10], size=(40, 66))   # subnormals
    rows[80] = -np.nan
    batches = (rows, rows.reshape(50, 60, 66), np.abs(rows), rows[:1],
               rows[:0], rows[0], rows[:, ::2], rows[:, :7])
    for a in batches:
        want = np.max(a, axis=-1)
        out = np.empty(a.shape[:-1])
        got = _row_max(a, out)
        assert got is out and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


def test_unit_base_normalized():
    b = unit_base(16)
    assert np.sum(b * b) == pytest.approx(1.0)

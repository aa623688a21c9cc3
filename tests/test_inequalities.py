import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spde_reflect.spaces import make_space
from spde_reflect.models import ModelSpec, Porous, PLaplace, FastDiff
from spde_reflect.inequalities import (
    check_A1prime, check_A1doubleprime, check_interpolation_Q,
    check_spectrum_condition, check_scalar_mean_value, mean_value_batch,
    nash_exponent_gate,
    kappa_porous_example, kappa_plaplace_example, kappa_fastdiff_interval,
    SpectrumParams, scan_supremand, sample_state_pairs, lipschitz_K_bound,
    fit_coercivity,
)
from spde_reflect import inequalities
from spde_reflect.integrator import philox_generator
from spde_reflect.models import signed_power


# --- scalar mean-value inequality -----------------------------------------

def test_mean_value_worked_examples():
    r = 0.5
    # s1=4, s2=1: lhs 3, rhs 2.25
    lhs = (4 - 1) * (signed_power(4.0, r) - signed_power(1.0, r))
    rhs = r * 9 * 4.0 ** (r - 1)
    assert lhs == pytest.approx(3.0) and rhs == pytest.approx(2.25)
    # s1=1, s2=-1: lhs 4, rhs 2
    lhs = 2 * (signed_power(1.0, r) - signed_power(-1.0, r))
    rhs = r * 4 * 1.0
    assert lhs == pytest.approx(4.0) and rhs == pytest.approx(2.0)


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
def test_mean_value_no_violations(r):
    rep = check_scalar_mean_value(r, 200_000)
    assert rep.verdict == "pass" and rep.violation_count == 0


def test_mean_value_domain():
    with pytest.raises(ValueError):
        check_scalar_mean_value(1.5)


@pytest.mark.parametrize("seed", [1234, 7])
def test_mean_value_shared_batch_matches_own_draw(seed):
    # one batch serves every exponent: each report is the one a call that
    # draws its own pairs gives
    batch = mean_value_batch(20_000, seed)
    for r in (0.25, 0.5, 0.75):
        shared = check_scalar_mean_value(r, 20_000, seed=seed, batch=batch)
        own = check_scalar_mean_value(r, 20_000, seed=seed)
        assert shared.as_dict() == own.as_dict()


def test_mean_value_batch_of_wrong_length_rejected():
    batch = mean_value_batch(1000)
    with pytest.raises(ValueError, match="batch"):
        check_scalar_mean_value(0.5, 999, batch=batch)
    with pytest.raises(ValueError, match="batch"):
        check_scalar_mean_value(0.5, 1000, batch=(batch[0], batch[1][:-1]))


def _mean_value_whole_batch(r, s1, s2):
    """Violations and worst margin by the formula in one whole-batch pass."""
    lhs = (s1 - s2) * (signed_power(s1, r) - signed_power(s2, r))
    mx = np.maximum(np.abs(s1), np.abs(s2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = np.where(mx > 0.0, r * (s1 - s2) ** 2 * mx ** (r - 1.0), 0.0)
    floor = 1e-13 * (np.abs(s1 - s2) * (np.abs(s1) ** r + np.abs(s2) ** r))
    tol = 1e-9 * (np.abs(lhs) + np.abs(rhs)) + floor
    margins = lhs - rhs
    return int(np.sum(margins < -tol)), float(np.min(margins))


def _hand_made_mean_value_batch():
    vals = np.array([1.0, -1.0, 2.5, -3.7, 1e-300, 123.456, -7e5, 1e6, -1e6])
    zeros = np.zeros_like(vals)
    s1 = np.concatenate([zeros, zeros, vals, vals, vals, vals, vals[::-1],
                         np.full(9, 1e6), np.full(9, -1e6)])
    s2 = np.concatenate([zeros, vals, zeros, vals, vals * (1.0 + 1e-9),
                         np.clip(vals * 3e6, -1e6, 1e6), vals,
                         vals, vals])
    return s1, s2


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
def test_mean_value_matches_whole_batch_formula(r):
    # the shared powers and the slabs give exactly the whole-batch verdict
    batches = [mean_value_batch(100_003, seed) for seed in (1234, 7)]
    batches.append(_hand_made_mean_value_batch())
    for s1, s2 in batches:
        rep = check_scalar_mean_value(r, s1.size, batch=(s1, s2))
        assert (rep.violation_count, rep.worst_margin) == \
            _mean_value_whole_batch(r, s1, s2)


def _mean_value_batch_whole(n, seed):
    """The mean-value pairs by the former whole-batch draws."""
    gen = philox_generator(seed, 0x3C)
    t1 = gen.standard_cauchy(n)
    t2 = gen.standard_cauchy(n)
    s1 = np.clip(np.sign(t1) * np.abs(t1) ** 1.5, -1e6, 1e6)
    s2 = np.clip(np.sign(t2) * np.abs(t2) ** 1.5, -1e6, 1e6)
    tie = gen.random(n) < 0.05
    s2[tie] = s1[tie]
    tiny = gen.random(n) < 0.10
    s2[tiny] = s1[tiny] * (1.0 + 1e-9)
    zero = gen.random(n) < 0.02
    s1[zero] = 0.0
    return s1, s2


@pytest.mark.parametrize("n", [1, inequalities._SLAB - 1, inequalities._SLAB,
                               inequalities._SLAB + 1, 100_003])
@pytest.mark.parametrize("seed", [1234, 7])
def test_mean_value_batch_streams_the_whole_batch_draws(n, seed):
    got = mean_value_batch(n, seed)
    want = _mean_value_batch_whole(n, seed)
    for g, w in zip(got, want):
        assert g.shape == (n,) and g.tobytes() == w.tobytes()


# --- (A1') -----------------------------------------------------------------

def _unit_q_space():
    return make_space(16, 1.0, weighted=True, q_coeffs=np.ones(16))


def test_a1prime_analytic_linear():
    # porous r=1, q_i = 1: pairing is -|.|_{L2}^2 and the Q defect with
    # kappa = 2 is exactly theta |.|_H^2, sharp at theta = pi^2
    sp = _unit_q_space()
    m = ModelSpec(Porous(r=1.0))
    rep = check_A1prime(sp, m, 2.0, 10_000, K=0.0, theta=np.pi ** 2)
    assert rep.verdict == "pass" and rep.violation_count == 0


def test_a1prime_sharpness():
    # inflating theta slightly beyond the spectral gap breaks the bound
    sp = _unit_q_space()
    m = ModelSpec(Porous(r=1.0))
    rep = check_A1prime(sp, m, 2.0, 10_000, K=0.0, theta=1.05 * np.pi ** 2)
    assert rep.verdict == "fail"


def test_a1prime_domain_error():
    sp = _unit_q_space()
    with pytest.raises(ValueError):
        check_A1prime(sp, ModelSpec(Porous(r=2.0)), kappa=0.5)
    with pytest.raises(ValueError):
        check_A1prime(sp, ModelSpec(FastDiff(r=0.5)), kappa=2.0)


def test_a1prime_equal_pair_never_violates():
    sp = _unit_q_space()
    m = ModelSpec(Porous(r=1.0))
    # both sides vanish at v1 = v2; the sampler guards the exact diagonal,
    # so check the scalar identity directly
    from spde_reflect.models import pairing_drift_diff
    v = np.ones(16)
    assert pairing_drift_diff(sp, m, 0.0, v, v) == 0.0


def test_a1prime_example_instance(ex41_space, porous_r2):
    rep = check_A1prime(ex41_space, porous_r2, 8.0, 10_000)
    assert rep.verdict == "pass"
    assert rep.fitted_constants["theta"] > 0.0


def test_a1prime_reseed_reproducible(ex41_space, porous_r2):
    a = check_A1prime(ex41_space, porous_r2, 8.0, 10_000, seed=1)
    b = check_A1prime(ex41_space, porous_r2, 8.0, 10_000, seed=2)
    ta, tb = a.fitted_constants["theta"], b.fitted_constants["theta"]
    assert abs(ta - tb) <= 0.2 * max(ta, tb)


def test_a1prime_monotone_in_K(ex41_space, porous_r2):
    rep = check_A1prime(ex41_space, porous_r2, 8.0, 5_000)
    theta = rep.fitted_constants["theta"]
    bigger = check_A1prime(ex41_space, porous_r2, 8.0, 5_000,
                           K=rep.fitted_constants["K"] + 5.0, theta=theta)
    assert bigger.violation_count == 0
    smaller_theta = check_A1prime(ex41_space, porous_r2, 8.0, 5_000,
                                  K=rep.fitted_constants["K"],
                                  theta=0.5 * theta)
    assert smaller_theta.violation_count == 0


# --- (A1'') ----------------------------------------------------------------

def test_a1doubleprime_example(ex63_space, fastdiff_half):
    rep = check_A1doubleprime(ex63_space, fastdiff_half, 3.0, 10_000)
    assert rep.verdict == "pass"
    assert rep.fitted_constants["theta"] > 0.0


def test_a1doubleprime_family_guard(porous_space, porous_r2):
    with pytest.raises(ValueError):
        check_A1doubleprime(porous_space, porous_r2, 3.0)


def test_a1doubleprime_scaling_homogeneity(ex63_space, fastdiff_half):
    # drift part of the LHS and the defect share the c^(1+r) homogeneity
    from spde_reflect.models import pairing_drift_diff
    from spde_reflect.spaces import h_norm, q_norm, v_norm
    gen = philox_generator(99, 5)
    v1, v2 = sample_state_pairs(ex63_space, gen, 64)
    r, kappa = 0.5, 3.0

    def parts(a, b):
        lhs = pairing_drift_diff(ex63_space, fastdiff_half, 0.0, a, b)
        dn = h_norm(ex63_space, a - b)
        dq = q_norm(ex63_space, a - b)
        vmax = np.maximum(v_norm(ex63_space, a, fastdiff_half.family),
                          v_norm(ex63_space, b, fastdiff_half.family))
        return lhs, dn ** (2.0 - kappa) * dq ** kappa / vmax ** (1.0 - r)

    base_lhs, base_defect = parts(v1, v2)
    for c in (0.5, 2.0):
        lhs, defect = parts(c * v1, c * v2)
        np.testing.assert_allclose(lhs, c ** (1 + r) * base_lhs, rtol=1e-9)
        np.testing.assert_allclose(defect, c ** (1 + r) * base_defect,
                                   rtol=1e-9)


# --- interpolation ----------------------------------------------------------

def test_interpolation_single_mode_identity(ex41_space):
    # a one-mode vector makes both sides proportional; fitted constant is
    # finite and the fresh batch passes
    rep = check_interpolation_Q(ex41_space, ModelSpec(Porous(r=2.0)), 8.0,
                                4_000)
    assert rep.verdict == "pass"
    assert np.isfinite(rep.fitted_constants["C"])


def test_interpolation_constant_stable_in_modes():
    fits = []
    for n_modes in (128, 256):
        sp = make_space(n_modes, 2.0, weighted=True, q_decay=0.75)
        rep = check_interpolation_Q(sp, ModelSpec(Porous(r=2.0)), 8.0, 4_000)
        assert rep.verdict == "pass"
        fits.append(rep.fitted_constants["C"])
    assert abs(fits[1] - fits[0]) <= 0.10 * max(fits)


def test_interpolation_fastdiff(ex63_space):
    rep = check_interpolation_Q(ex63_space, ModelSpec(FastDiff(r=0.5)), 3.0,
                                10_000)
    assert rep.verdict == "pass"
    assert rep.fitted_constants["eta"] > 0.0


def test_interpolation_plaplace(plap_space):
    rep = check_interpolation_Q(plap_space, ModelSpec(PLaplace(p=2.0)), 2.5,
                                10_000)
    assert rep.verdict == "pass"


# --- spectrum gates ---------------------------------------------------------

def test_spectrum_star_e_example():
    params = SpectrumParams(gamma=2.0, delta=0.75, r=2.0, kappa=8.0)
    rep = check_spectrum_condition("*E", params)
    assert rep.verdict == "pass"
    assert rep.fitted_constants["exponent"] == pytest.approx(0.0, abs=1e-12)
    assert rep.fitted_constants["kappa_example_porous"] == pytest.approx(8.0)


def test_spectrum_double_star_example():
    params = SpectrumParams(gamma=1.0, delta=0.8, p=2.0, kappa=2.5)
    rep = check_spectrum_condition("**E", params)
    assert rep.verdict == "pass"
    assert rep.fitted_constants["kappa_example_plaplace"] == pytest.approx(2.5)


def test_spectrum_sb_and_ei():
    kappa = 3.0
    gamma, delta = 1.0, 0.6
    eps = 1.0 - kappa * delta / (2.0 * gamma)
    params = SpectrumParams(gamma=gamma, delta=delta, r=0.5, kappa=kappa,
                            eps=eps)
    assert check_spectrum_condition("SB", params).verdict == "pass"
    assert check_spectrum_condition("EI", params).verdict == "pass"
    thin = SpectrumParams(gamma=gamma, delta=0.4, r=0.5, kappa=kappa, eps=eps)
    assert check_spectrum_condition("EI", thin).verdict == "fail"


@pytest.mark.parametrize("which,params,finite", [
    ("*E", SpectrumParams(gamma=2.0, delta=0.75, r=2.0, kappa=8.0), True),
    ("*E", SpectrumParams(gamma=2.0, delta=0.75, r=2.0, kappa=9.0), False),
    ("**E", SpectrumParams(gamma=1.0, delta=0.8, p=2.0, kappa=2.5), True),
    ("**E", SpectrumParams(gamma=1.0, delta=0.8, p=2.0, kappa=4.0), False),
])
def test_spectrum_exponent_matches_brute_force(which, params, finite):
    rep = check_spectrum_condition(which, params)
    assert (rep.verdict == "pass") == finite
    vals = scan_supremand(which, params, i_max=1_000_000)
    growth = vals[-1] / np.max(vals[:1000])
    if finite:
        assert growth <= 1.0 + 1e-9
    else:
        assert growth > 2.0


# --- Nash gate and kappa calculators ---------------------------------------

def test_nash_gate_examples():
    ok, rep = nash_exponent_gate(2.0, 0.5)
    assert ok and rep.fitted_constants["bound"] == pytest.approx(6.0)
    ok, rep = nash_exponent_gate(1.0, 0.5, gamma=1.0, d=1, delta=0.6, kappa=3.0)
    assert ok
    assert rep.fitted_constants["eps"] == pytest.approx(0.1)
    # bound grows without limit as r -> 1
    ok, rep = nash_exponent_gate(50.0, 0.999)
    assert ok


def test_nash_gate_domain():
    with pytest.raises(ValueError):
        nash_exponent_gate(-1.0, 0.5)
    with pytest.raises(ValueError):
        nash_exponent_gate(1.0, 1.5)


def test_kappa_formulas_exact_arithmetic():
    porous_cases = [
        ((2, 2, Fraction(3, 4), 1), Fraction(8)),
        ((1, 3, Fraction(4, 5), 1), Fraction(5)),
        ((3, 2, Fraction(9, 10), 2), Fraction(5)),
    ]
    for (g, r, d, dim), expect in porous_cases:
        got = kappa_porous_example(float(g), float(r), float(d), dim)
        assert got == pytest.approx(float(Fraction(g * (1 + r)) / (d * dim)))
        assert got == pytest.approx(float(expect))
    plap_cases = [((2, Fraction(4, 5)), Fraction(5, 2)),
                  ((3, Fraction(3, 4)), Fraction(4)),
                  ((4, Fraction(1, 2)), Fraction(8))]
    for (p, d), expect in plap_cases:
        assert kappa_plaplace_example(float(p), float(d)) == pytest.approx(
            float(expect))
    fd_cases = [
        ((1, Fraction(1, 2), Fraction(3, 5), 1),
         (Fraction(25, 9), Fraction(10, 3))),
        ((2, Fraction(1, 2), Fraction(3, 4), 1),
         (Fraction(2 * 2 * Fraction(3, 2) - Fraction(1, 2),
                   1) / Fraction(9, 8), Fraction(16, 3))),
        ((1, Fraction(3, 4), Fraction(5, 8), 1),
         (Fraction(2 * Fraction(7, 4) - Fraction(1, 4), 1)
          / (Fraction(5, 8) * Fraction(7, 4)), Fraction(16, 5))),
    ]
    for (g, r, d, dim), (lo_e, hi_e) in fd_cases:
        lo, hi = kappa_fastdiff_interval(float(g), float(r), float(d), dim)
        assert lo == pytest.approx(float(lo_e))
        assert hi == pytest.approx(float(hi_e))


def test_lipschitz_K_bound_families():
    from spde_reflect.models import LipschitzDiagonal, unit_base
    assert lipschitz_K_bound(ModelSpec(Porous(r=2.0))) == 0.0
    assert lipschitz_K_bound(ModelSpec(Porous(r=2.0, phi_slope=1.5))) == 1.5
    m = ModelSpec(PLaplace(p=2.0),
                  b_spec=LipschitzDiagonal(2.0, unit_base(8)))
    assert lipschitz_K_bound(m) == pytest.approx(2.0)
    assert lipschitz_K_bound(ModelSpec(FastDiff(r=0.5, beta0=0.3))) == \
        pytest.approx(0.3)


# --- frozen reports ---------------------------------------------------------

def _frozen_cases(n=2000, n_mv=20000):
    from spde_reflect.models import LipschitzDiagonal, unit_base
    ex41 = make_space(16, 2.0, weighted=True, q_amp=1.0, q_decay=0.75)
    ex63 = make_space(16, 1.0, weighted=True, q_amp=1.0, q_decay=0.6)
    plap = make_space(16, 1.0, weighted=False, q_amp=1.0, q_decay=0.75)
    lip = LipschitzDiagonal(c0=0.5, base=unit_base(16))
    por, por_b = ModelSpec(Porous(r=2.0)), ModelSpec(Porous(r=2.0), lip)
    fd, fd_b = ModelSpec(FastDiff(r=0.5)), ModelSpec(FastDiff(r=0.5), lip)
    s = 5
    return {
        "interp_plaplace": lambda: check_interpolation_Q(
            plap, ModelSpec(PLaplace(p=2.0)), 2.5, n, seed=s),
        "interp_porous": lambda: check_interpolation_Q(ex41, por, 8.0, n,
                                                       seed=s),
        "interp_porous_fail": lambda: check_interpolation_Q(
            ex41, por, 8.0, n, seed=s, safety=1.5),
        "interp_fastdiff": lambda: check_interpolation_Q(ex63, fd, 3.0, n,
                                                         seed=s),
        "a1prime_fit": lambda: check_A1prime(ex41, por, 8.0, n, seed=s),
        "a1prime_given": lambda: check_A1prime(ex41, por, 8.0, n, seed=s,
                                               K=0.5, theta=1.0),
        "a1prime_given_fail": lambda: check_A1prime(ex41, por, 8.0, n, seed=s,
                                                    K=0.0, theta=2000.0),
        "a1prime_given_theta": lambda: check_A1prime(ex41, por_b, 8.0, n,
                                                     seed=s, theta=0.25),
        "a1prime_lipschitz_fit": lambda: check_A1prime(ex41, por_b, 8.0, n,
                                                       seed=s, K=1.0),
        "a1doubleprime_fit": lambda: check_A1doubleprime(ex63, fd, 3.0, n,
                                                         seed=s),
        "a1doubleprime_given": lambda: check_A1doubleprime(
            ex63, fd_b, 3.0, n, seed=s, K=0.2, theta=0.01),
        "coercivity_lipschitz": lambda: fit_coercivity(ex41, por_b, n, seed=s),
        "coercivity_plaplace_lipschitz": lambda: fit_coercivity(
            plap, ModelSpec(PLaplace(p=3.0), lip), n, seed=s),
        "coercivity_fastdiff_theta": lambda: fit_coercivity(
            ex63, fd, n, seed=s, theta=0.1),
        "meanvalue": lambda: check_scalar_mean_value(0.5, n_mv, seed=s),
    }


# (condition_id, sample_count, violation_count, fitted_constants,
#  worst_margin, verdict), recorded before the checkers shared one routine
_FROZEN = {
    "interp_plaplace": ("interpolation_plaplace", 2000, 0,
                        {"C": 0.17709697743675076, "kappa": 2.5},
                        0.00033879183503998146, "pass"),
    "interp_porous": ("interpolation_porous", 2000, 0,
                      {"C": 0.19245184001306828, "kappa": 8.0},
                      2.845671227780118e-07, "pass"),
    "interp_porous_fail": ("interpolation_porous", 2000, 977,
                           {"C": 0.11547110400784098, "kappa": 8.0},
                           -7.4828932585956665, "fail"),
    "interp_fastdiff": ("interpolation_fastdiff", 2000, 0,
                        {"eta": 7.385708729216273, "kappa": 3.0},
                        8.305066569336926e-08, "pass"),
    "a1prime_fit": ("A1prime", 2000, 0,
                    {"K": 0.0, "theta": 532.2461301847754, "kappa": 8.0},
                    2.8231268190987997e-13, "pass"),
    "a1prime_given": ("A1prime", 2000, 0,
                      {"K": 0.5, "theta": 1.0, "kappa": 8.0},
                      1.5238978820609743e-13, "pass"),
    "a1prime_given_fail": ("A1prime", 2000, 277,
                           {"K": 0.0, "theta": 2000.0, "kappa": 8.0},
                           -69136.43648238557, "fail"),
    "a1prime_given_theta": ("A1prime", 2000, 0,
                            {"K": 0.125, "theta": 0.25, "kappa": 8.0},
                            1.523828288371455e-13, "pass"),
    "a1prime_lipschitz_fit": ("A1prime", 2000, 0,
                              {"K": 1.0, "theta": 541.1422837879841,
                               "kappa": 8.0},
                              2.8231294134173374e-13, "pass"),
    "a1doubleprime_fit": ("A1doubleprime", 2000, 0,
                          {"K": 0.0, "theta": 4.736440523029153, "kappa": 3.0},
                          3.8209110905157296e-14, "pass"),
    "a1doubleprime_given": ("A1doubleprime", 2000, 0,
                            {"K": 0.2, "theta": 0.01, "kappa": 3.0},
                            2.892661261671557e-13, "pass"),
    "coercivity_lipschitz": ("coercivity", 2000, 0,
                             {"C": 0.125, "theta": 0.5},
                             0.12500462957889813, "pass"),
    "coercivity_plaplace_lipschitz": ("coercivity", 2000, 0,
                                      {"C": 0.125, "theta": 0.2},
                                      0.12754028321125888, "pass"),
    "coercivity_fastdiff_theta": ("coercivity", 2000, 0,
                                  {"C": 0.0, "theta": 0.1},
                                  0.0016823612329665862, "pass"),
    "meanvalue": ("scalar_mean_value", 20000, 0, {"r": 0.5},
                  -6.697004009205334e-21, "pass"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_reports(name):
    rep = _frozen_cases()[name]().as_dict()
    cid, count, violations, consts, worst, verdict = _FROZEN[name]
    assert (rep["condition_id"], rep["sample_count"], rep["violation_count"],
            rep["verdict"]) == (cid, count, violations, verdict)
    assert list(rep["fitted_constants"]) == list(consts)
    for key, value in consts.items():
        np.testing.assert_allclose(rep["fitted_constants"][key], value,
                                   rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep["worst_margin"], worst, rtol=1e-12, atol=0.0)


def test_slabs_give_the_whole_batch_report(monkeypatch):
    # 2017 samples in slabs of 1000: two full slabs and a partial one
    n = 2017
    checks = _frozen_cases(n, n)
    monkeypatch.setattr(inequalities, "_SLAB", n)
    whole = {name: fn().as_dict() for name, fn in checks.items()}
    monkeypatch.setattr(inequalities, "_SLAB", 1000)
    for name, fn in checks.items():
        assert fn().as_dict() == whole[name], name
    # the failing cases have violations to sum over the slabs
    assert whole["a1prime_given_fail"]["violation_count"] > 0
    assert whole["interp_porous_fail"]["violation_count"] > 0


def test_row_slabs_give_the_whole_batch_report(monkeypatch):
    # 2 * 1024 + 17 states in row slabs of 256: eight full slabs and a
    # partial one, against one slab of the whole batch
    from spde_reflect.spaces import ROW_CHUNK
    assert inequalities._ROW_SLAB % ROW_CHUNK == 0
    n = 2 * 1024 + 17
    checks = {name: fn for name, fn in _frozen_cases(n, n).items()
              if name != "meanvalue"}
    monkeypatch.setattr(inequalities, "_ROW_SLAB", n)
    whole = {name: fn().as_dict() for name, fn in checks.items()}
    monkeypatch.setattr(inequalities, "_ROW_SLAB", 256)
    for name, fn in checks.items():
        assert fn().as_dict() == whole[name], name


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkers_memory_is_set_by_their_states():
    # each checker's traced peak is at most twice that of drawing its
    # states alone: the grid work is done in row slabs
    n, seed = 20_000, 3
    cases = _frozen_cases(n, n)
    ex41 = make_space(16, 2.0, weighted=True, q_amp=1.0, q_decay=0.75)
    pairs = _traced_peak(lambda: sample_state_pairs(
        ex41, philox_generator(seed, 0xA1), n))
    single = _traced_peak(lambda: inequalities.sample_states(
        ex41, philox_generator(seed, 0x1F), n))
    for name, fn in cases.items():
        if name == "meanvalue":
            continue
        states = pairs if name.startswith("a1") else single
        assert _traced_peak(fn) <= 2 * states, name


def test_mean_value_batch_memory_is_its_pairs():
    n = 1_000_000
    assert _traced_peak(lambda: mean_value_batch(n)) <= 16 * n + 2 ** 21


def test_slabs_propagate_a_nan_margin(monkeypatch):
    margins = np.linspace(-1.0, 1.0, 2017)
    margins[1500] = np.nan                 # in the second of three slabs

    def report():
        return inequalities._fit_then_validate(
            "nan", margins.size, lambda: (margins,), None,
            lambda t, c: (t[0], np.ones_like(t[0])), lambda c: {}, given=0.0)

    monkeypatch.setattr(inequalities, "_SLAB", 1000)
    rep = report()
    assert np.isnan(rep.worst_margin) and np.isnan(np.min(margins))
    assert rep.violation_count == int(np.sum(~(margins >= -1e-9)))
    monkeypatch.setattr(inequalities, "_SLAB", margins.size)
    assert rep.violation_count == report().violation_count


def _zero_sample_checks():
    sp = make_space(8, 1.0, weighted=True, q_decay=0.75)
    por, fd = ModelSpec(Porous(r=2.0)), ModelSpec(FastDiff(r=0.5))
    return {
        "meanvalue": lambda n: check_scalar_mean_value(0.5, n),
        "a1prime": lambda n: check_A1prime(sp, por, 8.0, n),
        "a1prime_given": lambda n: check_A1prime(sp, por, 8.0, n, K=0.0,
                                                 theta=1.0),
        "a1doubleprime": lambda n: check_A1doubleprime(sp, fd, 3.0, n),
        "interpolation": lambda n: check_interpolation_Q(sp, por, 8.0, n),
        "coercivity": lambda n: fit_coercivity(sp, por, n),
    }


@pytest.mark.parametrize("name", ["meanvalue", "a1prime", "a1prime_given",
                                  "a1doubleprime", "interpolation",
                                  "coercivity"])
@pytest.mark.parametrize("n", [0, -3])
def test_zero_samples_rejected(name, n):
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        _zero_sample_checks()[name](n)

"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s; the test
outcome carries the same verdict either way).  Heavy ensembles are shared
module-scoped fixtures; every configuration and seed is pinned here.
"""

from fractions import Fraction

import numpy as np
import pytest

from spde_reflect.spaces import make_space, h_norm
from spde_reflect.models import (
    ModelSpec, Porous, PLaplace, FastDiff, LipschitzDiagonal, unit_base,
)
from spde_reflect.coupling import (
    CouplingParams, cutoff_h, cutoff_h_prime, sqrt1mh2, sqrt1mh2_prime,
    cutoff_h_prime_sup, reflect_apply, i_n_value, reflection_qv_rate,
    qv_rate_lower_bound,
)
from spde_reflect.integrator import SimConfig, run_paths
from spde_reflect.experiments import (
    GSpec, survival_curve, check_lemma31, supermartingale_diagnostic,
    contraction_fit, marginal_ou_check, prop21_chain, canonical_f,
    d3_rate_bound, coupling_tail_bound,
)
from spde_reflect.inequalities import (
    check_scalar_mean_value, check_A1prime, check_A1doubleprime,
    check_interpolation_Q, check_spectrum_condition, SpectrumParams,
    scan_supremand, kappa_porous_example, kappa_plaplace_example,
    kappa_fastdiff_interval,
)
from spde_reflect.cli import parse_config, config_hash, run as cli_run


def _check(num: int, name: str, cond: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if cond else 'FAIL'}")
    assert cond, f"criterion {num} failed: {name}"


def _e1(n: int, amp: float) -> np.ndarray:
    out = np.zeros(n)
    out[0] = amp
    return out


# ---------------------------------------------------------------------------
# shared ensembles

@pytest.fixture(scope="module")
def linear_record():
    """Criterion 4/5 ensemble: linear family, gamma=1, q_1=1, M=10^4."""
    sp = make_space(16, 1.0, weighted=True, q_amp=1.0, q_decay=0.75)
    model = ModelSpec(Porous(r=1.0))
    cfg = SimConfig(dt=1e-4, horizon=0.1, n_paths=10_000,
                    master_seed=20260810, checkpoint_times=(0.0, 0.05, 0.1))
    x0 = _e1(16, 0.4 * np.pi)
    rec = run_paths(sp, model, CouplingParams(n=1), cfg, "coupled",
                    x0=x0, y0=-x0, threads=1)
    assert not rec.failures    # stability gate for acceptance configs
    return sp, model, cfg, x0, rec


@pytest.fixture(scope="module")
def porous_record():
    """Criteria 5-8 ensemble: porous r=2 with gamma=2, delta=0.75, n=20."""
    sp = make_space(16, 2.0, weighted=True, q_amp=1.0, q_decay=0.75)
    model = ModelSpec(Porous(r=2.0))
    x0 = _e1(16, 0.15 * np.pi ** 2)    # ||x - y||_H = 0.3
    d0 = 0.3
    cps = (0.0, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.25)
    cfg = SimConfig(dt=2e-4, horizon=0.25, n_paths=5_000,
                    master_seed=424242, checkpoint_times=cps)
    rec = run_paths(sp, model, CouplingParams(n=20), cfg, "coupled",
                    x0=x0, y0=-x0,
                    delta_grid=(2 * d0, 4 * d0, 8 * d0), threads=1)
    assert not rec.failures    # stability gate for acceptance configs
    return sp, model, cfg, x0, rec


@pytest.fixture(scope="module")
def fastdiff_record():
    """Criterion 8 ensemble: fast diffusion r=0.5, gamma=1, delta=0.6."""
    sp = make_space(16, 1.0, weighted=True, q_amp=1.0, q_decay=0.6)
    model = ModelSpec(FastDiff(r=0.5))
    x0 = _e1(16, 0.15 * np.pi)         # ||x - y||_H = 0.3
    cps = (0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.4)
    cfg = SimConfig(dt=2e-4, horizon=0.4, n_paths=5_000,
                    master_seed=636363, checkpoint_times=cps)
    rec = run_paths(sp, model, CouplingParams(n=20), cfg, "coupled",
                    x0=x0, y0=-x0, threads=1)
    assert not rec.failures    # stability gate for acceptance configs
    return sp, model, cfg, x0, rec


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_reflection_isometry_involution():
    ok = True
    for weighted in (True, False):
        sp = make_space(16, 1.0, weighted=weighted, q_decay=0.75)
        gen = np.random.default_rng(1001)
        u = gen.standard_normal((10_000, 16))
        v = gen.standard_normal((10_000, 16))
        w = gen.standard_normal((10_000, 16))
        nw = h_norm(sp, w)
        for n in (1, 10, 100):
            rw = reflect_apply(sp, u, v, n, w)
            ok &= bool(np.max(np.abs(h_norm(sp, rw) - nw) / nw) <= 1e-10)
            back = reflect_apply(sp, u, v, n, rw)
            ok &= bool(np.max(h_norm(sp, back - w) / nw) <= 1e-10)
    _check(1, "reflection isometry and involution (1e-10)", ok)


def test_criterion_02_cutoff_contract():
    s_flat = np.linspace(0.0, 0.5, 1000)
    s_one = np.linspace(1.0, 3.0, 1000)
    ok = bool(np.all(cutoff_h(s_flat) == 0.0) and np.all(cutoff_h(s_one) == 1.0))
    s = np.linspace(0.0, 1.25, 10_000) + 5e-5
    eps = 1e-8
    fd_h = (cutoff_h(s + eps) - cutoff_h(s - eps)) / (2.0 * eps)
    fd_g = (sqrt1mh2(s + eps) - sqrt1mh2(s - eps)) / (2.0 * eps)
    ok &= bool(np.max(np.abs(fd_h - cutoff_h_prime(s))) <= 1e-6)
    ok &= bool(np.max(np.abs(fd_g - sqrt1mh2_prime(s))) <= 1e-6)
    _check(2, "cutoff branches and C1 derivatives (1e-6)", ok)


def test_criterion_03_reflection_drift_and_qv_bounds():
    ok = True
    sup2 = cutoff_h_prime_sup() ** 2
    for weighted in (True, False):
        sp = make_space(16, 1.0, weighted=weighted, q_decay=0.75)
        gen = np.random.default_rng(1003)
        v = gen.standard_normal((10_000, 16)) * \
            np.exp(gen.normal(0.0, 2.0, (10_000, 1)))
        for n in (1, 10, 100):
            lhs = i_n_value(sp, v, n)
            rhs = 2.0 * sup2 * h_norm(sp, v)
            ok &= bool(np.all(lhs <= rhs * (1.0 + 1e-10)))
            rate = reflection_qv_rate(sp, v, n)
            lo = qv_rate_lower_bound(sp, v, n)
            scale = np.abs(rate) + np.abs(lo)
            ok &= bool(np.all(rate >= lo - 1e-10 * scale))
    _check(3, "I_n bound and reflection-variance lower bound", ok)


def test_criterion_04_ou_oracle_marginals(linear_record):
    sp, model, cfg, x0, rec = linear_record
    res = marginal_ou_check(rec, sp, model, x0, -x0, 0.1)
    exact = (1.0 - np.exp(-2.0 * np.pi ** 2 * 0.1)) / (2.0 * np.pi ** 2)
    assert res["sides"]["x"]["var_oracle"] == pytest.approx(exact, rel=1e-12)
    assert exact == pytest.approx(0.043624, abs=1e-6)
    ok = res["sides"]["x"]["ok_var"] and res["sides"]["y"]["ok_var"]
    _check(4, "mode-1 variance of both marginals matches the OU oracle "
              "within 3 SE", bool(ok))


def test_criterion_05_gluing(linear_record, porous_record):
    ok = True
    saw_glued = False
    for _, _, _, _, rec in (linear_record, porous_record):
        glued = rec.coupled & rec.live
        saw_glued |= bool(np.any(glued))
        for j, t in enumerate(rec.checkpoint_times):
            sel = glued & (rec.t_n <= t)
            ok &= bool(np.array_equal(rec.x_coeffs[sel, j],
                                      rec.y_coeffs[sel, j]))
    ok &= saw_glued
    _check(5, "glued paths stay identical at every later checkpoint", ok)


def test_criterion_06_supermartingale(porous_record):
    sp, model, cfg, x0, rec = porous_record
    kprime = d3_rate_bound(model)
    res = supermartingale_diagnostic(rec, GSpec("identity"), kprime)
    ok = res["ok"]
    # the contractive B = 0 drift admits the sharp rate too
    res0 = supermartingale_diagnostic(rec, GSpec("identity"), 0.0)
    ok = ok and res0["ok"]
    tail = coupling_tail_bound(rec, kprime)
    ok = ok and tail["ok"]
    _check(6, "distance supermartingale nonincreasing within 3 SE", bool(ok))


def test_criterion_07_escape_bound(porous_record):
    sp, model, cfg, x0, rec = porous_record
    kprime = d3_rate_bound(model)
    ok = True
    for t in (0.02, 0.05, 0.1):
        ok &= check_lemma31(rec, t=t, kprime=kprime)["ok"]
        ok &= check_lemma31(rec, t=t, kprime=0.0)["ok"]
    _check(7, "escape probability bounded by |x-y| e^(K't)/delta + 3 SE",
           bool(ok))


def test_criterion_08_oscillation_chain(porous_record, fastdiff_record):
    ok = True
    for sp, model, cfg, x0, rec in (porous_record, fastdiff_record):
        res = prop21_chain(rec, canonical_f(sp))
        ok &= res["ok"]
        gated = [r for r in res["rows"] if r["gated"]]
        ok &= len(gated) >= 4
    _check(8, "semigroup difference bounded by osc(f) survival + 4 SE "
              "(porous and fast-diffusion)", bool(ok))


def test_criterion_09_contraction_rate():
    sp = make_space(16, 1.0, weighted=False, q_amp=1.0, q_decay=0.75)
    x0 = _e1(16, 0.05)
    cfg = SimConfig(dt=1e-4, horizon=0.2, n_paths=8, master_seed=909090,
                    checkpoint_times=tuple(np.round(np.linspace(0.0, 0.2, 9), 10)))
    rec = run_paths(sp, ModelSpec(PLaplace(p=2.0)), CouplingParams(n=1), cfg,
                    "synchronous", x0=x0, y0=np.zeros(16), threads=1)
    fit = contraction_fit(rec)
    target = -2.0 * np.pi ** 2
    ok = abs(fit["rate"] - target) <= 0.1 * abs(target)

    m1 = ModelSpec(PLaplace(p=2.0),
                   b_spec=LipschitzDiagonal(1.0, unit_base(16)))
    cfg_b = SimConfig(dt=1e-4, horizon=0.15, n_paths=2048, master_seed=919191,
                      checkpoint_times=tuple(np.round(np.linspace(0.0, 0.15, 7), 10)))
    rec_b = run_paths(sp, m1, CouplingParams(n=1), cfg_b, "synchronous",
                      x0=x0, y0=np.zeros(16), threads=1)
    fit_b = contraction_fit(rec_b)
    bound = -2.0 * (np.pi ** 2 - 0.5)
    half = 0.5 * (fit_b["ci"][1] - fit_b["ci"][0])
    ok = ok and (fit_b["rate"] <= bound + half)
    _check(9, "linear contraction at -2 pi^2 (10%), diffusion case at "
              "least -2(pi^2 - 1/2) within CI", bool(ok))


def test_criterion_10_inequality_suite():
    ok = True
    # scalar mean-value inequality, 10^6 pairs per exponent
    for r in (0.25, 0.5, 0.75):
        rep = check_scalar_mean_value(r, 1_000_000, seed=1010)
        ok &= rep.verdict == "pass"
    # analytic instance: porous r=1, unit noise, kappa=2, theta = pi^2
    sp_unit = make_space(16, 1.0, weighted=True, q_coeffs=np.ones(16))
    rep = check_A1prime(sp_unit, ModelSpec(Porous(r=1.0)), 2.0, 10_000,
                        K=0.0, theta=np.pi ** 2, seed=1010)
    ok &= rep.verdict == "pass"
    # worked porous instance gamma=2, delta=0.75, r=2, kappa=8
    sp41 = make_space(16, 2.0, weighted=True, q_decay=0.75)
    rep = check_A1prime(sp41, ModelSpec(Porous(r=2.0)), 8.0, 10_000, seed=1010)
    ok &= rep.verdict == "pass" and rep.fitted_constants["theta"] > 0.0
    # fast-diffusion instance gamma=1, delta=0.6, kappa=3
    sp63 = make_space(16, 1.0, weighted=True, q_decay=0.6)
    rep = check_A1doubleprime(sp63, ModelSpec(FastDiff(r=0.5)), 3.0, 10_000,
                              seed=1010)
    ok &= rep.verdict == "pass" and rep.fitted_constants["theta"] > 0.0
    rep = check_interpolation_Q(sp63, ModelSpec(FastDiff(r=0.5)), 3.0, 10_000,
                                seed=1010)
    ok &= rep.verdict == "pass"
    # spectrum gates with brute-force scans to i = 10^6
    gates = [
        ("*E", SpectrumParams(gamma=2.0, delta=0.75, r=2.0, kappa=8.0)),
        ("**E", SpectrumParams(gamma=1.0, delta=0.8, p=2.0, kappa=2.5)),
        ("SB", SpectrumParams(gamma=1.0, delta=0.6, r=0.5, kappa=3.0,
                              eps=1.0 - 3.0 * 0.6 / 2.0)),
        ("EI", SpectrumParams(gamma=1.0, delta=0.6)),
    ]
    for which, params in gates:
        rep = check_spectrum_condition(which, params)
        ok &= rep.verdict == "pass"
        vals = scan_supremand(which, params, i_max=1_000_000)
        if which == "EI":
            tail = vals[-1] - vals[len(vals) // 2]
            ok &= bool(tail < 0.1 * vals[len(vals) // 2])
        else:
            ok &= bool(vals[-1] <= np.max(vals[:1000]) * (1.0 + 1e-9))
    _check(10, "inequality suite: zero violations at fitted constants on "
               "fresh batches", bool(ok))


def test_criterion_11_kappa_calculators():
    ok = True
    porous_cases = [((2.0, 2.0, 0.75, 1), Fraction(8)),
                    ((1.0, 3.0, 0.8, 1), Fraction(5)),
                    ((3.0, 2.0, 0.9, 2), Fraction(5))]
    for (g, r, dl, d), expect in porous_cases:
        ok &= kappa_porous_example(g, r, dl, d) == pytest.approx(float(expect))
    plap_cases = [((2.0, 0.8), Fraction(5, 2)),
                  ((3.0, 0.75), Fraction(4)),
                  ((4.0, 0.5), Fraction(8))]
    for (p, dl), expect in plap_cases:
        ok &= kappa_plaplace_example(p, dl) == pytest.approx(float(expect))
    fd_cases = [
        # lo = (2 g (1+r) - d (1-r)) / (d delta (1+r)), hi = 2 g / (d delta)
        ((1.0, 0.5, 0.6, 1), (Fraction(25, 9), Fraction(10, 3))),
        ((2.0, 0.5, 0.75, 1), (Fraction(44, 9), Fraction(16, 3))),
        ((1.0, 0.75, 0.625, 1), (Fraction(104, 35), Fraction(16, 5))),
    ]
    for (g, r, dl, d), (lo_e, hi_e) in fd_cases:
        lo, hi = kappa_fastdiff_interval(g, r, dl, d)
        ok &= lo == pytest.approx(float(lo_e)) and hi == pytest.approx(float(hi_e))
    # the worked fast-diffusion instance admits kappa = 3
    lo, hi = kappa_fastdiff_interval(1.0, 0.5, 0.6, 1)
    ok &= lo < 3.0 < hi and max(lo, 2.0) < 3.0
    _check(11, "kappa calculators reproduce the worked formulas", bool(ok))


_DETERMINISM_CFG = """
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
n_paths = 600
master_seed = 777
checkpoints = 0, 0.02, 0.05, 0.1
x0 = 1.2
y0 = -1.2

[experiments]
which = survival, lemma31, supermartingale, chain
lemma31_t = 0.05

[conditions]
which = meanvalue, a1prime
samples = 2000
mv_samples = 50000
kappa = 8.0
"""


def test_criterion_12_determinism_across_workers(tmp_path):
    cfg = parse_config(_DETERMINISM_CFG)
    assert cli_run(cfg, out_dir=tmp_path / "w1", threads=1) == 0
    assert cli_run(cfg, out_dir=tmp_path / "w4", threads=4) == 0
    h = config_hash(cfg)
    ok = True
    names = ["summary.json", "survival.csv", "supermartingale.csv"]
    for name in names:
        a = (tmp_path / "w1" / h / name).read_bytes()
        b = (tmp_path / "w4" / h / name).read_bytes()
        ok &= a == b
    _check(12, "byte-identical summary for worker counts {1, 4}", bool(ok))

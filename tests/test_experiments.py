import tracemalloc

import numpy as np
import pytest

from spde_reflect.spaces import make_space, h_norm, h_mode_coeffs
from spde_reflect.models import ModelSpec, Porous, PLaplace, LipschitzDiagonal, unit_base
from spde_reflect.coupling import CouplingParams
from spde_reflect.integrator import SimConfig, PathEnsembleRecord, run_paths
from spde_reflect.experiments import (
    GSpec, survival_curve, check_lemma31, supermartingale_diagnostic,
    coupling_tail_bound, contraction_fit, ou_oracle,
    canonical_f, semigroup_difference, prop21_chain, marginal_ou_check,
    d3_rate_bound,
)
from conftest import e_k


@pytest.fixture(scope="module")
def small_coupled(porous_space, porous_linear):
    params = CouplingParams(n=2)
    cfg = SimConfig(dt=2e-4, horizon=0.3, n_paths=512, master_seed=101,
                    checkpoint_times=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3))
    x0 = e_k(16, 1, 0.45 * np.pi)   # H-distance 0.9, inside the band for n=2
    y0 = -x0
    rec = run_paths(porous_space, porous_linear, params, cfg, "coupled",
                    x0=x0, y0=y0, delta_grid=(1.8, 3.6, 9.0), threads=1)
    return rec


@pytest.fixture(scope="module")
def glued_record(porous_space, porous_linear):
    params = CouplingParams(n=2)
    cfg = SimConfig(dt=1e-3, horizon=0.05, n_paths=32, master_seed=102,
                    checkpoint_times=(0.0, 0.025, 0.05))
    x0 = e_k(16, 1, 0.3)
    rec = run_paths(porous_space, porous_linear, params, cfg, "coupled",
                    x0=x0, y0=x0.copy(), threads=1)
    return rec


def test_survival_glued_start(glued_record):
    times, p, se = survival_curve(glued_record)
    assert np.all(p[times > 0] == 0.0)
    # tau_n = 0 at the start: the survival at t = 0 is 0 as well since
    # tau_n > 0 fails
    assert p[0] == 0.0


def test_survival_initial_point(small_coupled):
    times, p, se = survival_curve(small_coupled)
    assert times[0] == 0.0 and p[0] == 1.0   # distance 0.9 > 1/n = 0.5
    assert np.all(np.diff(p) <= 1e-12)       # nonincreasing


def test_survival_stable_under_horizon_refinement(porous_space, porous_linear):
    # extending the horizon re-uses the same per-step noise keys, so the
    # survival estimate at shared checkpoints is unchanged
    params = CouplingParams(n=2)
    x0 = e_k(16, 1, 0.45 * np.pi)
    shared = (0.0, 0.05, 0.1)
    rec_a = run_paths(porous_space, porous_linear, params,
                      SimConfig(dt=2e-4, horizon=0.1, n_paths=256,
                                master_seed=109, checkpoint_times=shared),
                      "coupled", x0=x0, y0=-x0, threads=1)
    rec_b = run_paths(porous_space, porous_linear, params,
                      SimConfig(dt=2e-4, horizon=0.2, n_paths=256,
                                master_seed=109,
                                checkpoint_times=shared + (0.2,)),
                      "coupled", x0=x0, y0=-x0, threads=1)
    _, pa, _ = survival_curve(rec_a)
    _, pb, _ = survival_curve(rec_b)
    np.testing.assert_array_equal(pa, pb[:len(shared)])


def test_lemma31_vacuous_and_bounds(small_coupled):
    kp = 0.0   # linear porous with B = 0 is contractive
    res = check_lemma31(small_coupled, t=0.2, kprime=kp)
    assert res["ok"]
    # delta = 2 dist0: bound 1/2; escape should be much rarer than that
    first = res["rows"][0]
    assert first["bound"] == pytest.approx(0.5)
    assert first["probability"] < 0.1
    # huge delta: escape essentially impossible
    assert res["rows"][-1]["probability"] == 0.0


def test_lemma31_vacuous_flag(small_coupled):
    # every delta of the grid exceeds the start distance 0.9
    res = check_lemma31(small_coupled, t=0.2, kprime=0.0)
    assert [r["delta"] for r in res["rows"]] == [1.8, 3.6, 9.0]
    assert all(not r["vacuous"] for r in res["rows"])


def test_lemma31_refuses_a_degenerate_pair(porous_space, porous_linear):
    # with x = y every delta m |x - y| is 0, and the bound 0 / 0 is undefined
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=8, master_seed=103,
                    checkpoint_times=(0.0, 0.01))
    x0 = e_k(16, 1, 0.3)
    rec = run_paths(porous_space, porous_linear, CouplingParams(n=2), cfg,
                    "coupled", x0=x0, y0=x0, delta_grid=(0.0, 0.0), threads=1)
    with pytest.raises(ValueError, match="degenerate pair: x = y"):
        check_lemma31(rec, t=0.01, kprime=0.0)


def test_lemma31_refuses_a_nonpositive_delta(porous_space, porous_linear):
    cfg = SimConfig(dt=1e-3, horizon=0.01, n_paths=8, master_seed=103,
                    checkpoint_times=(0.0, 0.01))
    x0 = e_k(16, 1, 0.3)
    for deltas in ((0.0, 2.0), (-2.0,)):
        rec = run_paths(porous_space, porous_linear, CouplingParams(n=2), cfg,
                        "coupled", x0=x0, y0=-x0, delta_grid=deltas, threads=1)
        with pytest.raises(ValueError, match="every delta must be > 0"):
            check_lemma31(rec, t=0.01, kprime=0.0)


def test_supermartingale_glued(glued_record):
    res = supermartingale_diagnostic(glued_record, GSpec("identity"), 0.0)
    assert res["ok"]
    assert np.allclose(res["mean"], 0.0)


def test_supermartingale_linear_contractive(small_coupled):
    res = supermartingale_diagnostic(small_coupled, GSpec("identity"), 0.0)
    assert res["ok"]
    means = np.array(res["mean"])
    assert means[-1] < means[0]


def test_supermartingale_power_g(small_coupled):
    res = supermartingale_diagnostic(small_coupled, GSpec("power", eps=0.5),
                                     d3_rate_bound(ModelSpec(Porous(r=1.0))))
    assert res["ok"]


def test_gspec_validation():
    with pytest.raises(ValueError):
        GSpec("power", eps=1.5)
    with pytest.raises(ValueError):
        GSpec("clipped_linear", eps=0.5)          # missing delta
    with pytest.raises(ValueError):
        GSpec("log_power", r=0.0)


def test_gspec_integral_against_dense_quadrature():
    g = GSpec("log_power", r=1.0)
    s = np.array([0.01, 0.1, 0.5, 1.0, 2.0])
    for si in s:
        z = np.linspace(1e-9, si, 200_001)
        ref = np.trapezoid(np.log(np.e + 1.0 / z) ** 0.5, z)
        assert g(np.array([si]))[0] == pytest.approx(ref, rel=1e-4)
    g2 = GSpec("sqrt_log")
    for si in s:
        z = np.linspace(1e-9, si, 200_001)
        ref = np.trapezoid(np.sqrt(np.log(np.e + 1.0 / z)), z)
        assert g2(np.array([si]))[0] == pytest.approx(ref, rel=1e-4)


def test_gspec_monotone_concave_shapes():
    s = np.linspace(0.0, 1.0, 200)
    for g in (GSpec("identity"), GSpec("power", eps=0.5),
              GSpec("clipped_linear", eps=0.5, delta=1.0),
              GSpec("log_power", r=2.0), GSpec("sqrt_log")):
        vals = g(s)
        assert np.all(np.diff(vals) >= -1e-12)   # nondecreasing
        assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_coupling_tail_bound(small_coupled):
    res = coupling_tail_bound(small_coupled, 0.0)
    assert res["ok"]
    assert res["bound"] == pytest.approx(0.5)


def test_contraction_fit_linear_exact(plap_space, plap_p2):
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=1e-4, horizon=0.2, n_paths=8, master_seed=103,
                    checkpoint_times=tuple(np.round(np.linspace(0.0, 0.2, 9), 10)))
    x0 = e_k(16, 1, 0.05)
    rec = run_paths(plap_space, plap_p2, params, cfg, "synchronous",
                    x0=x0, y0=np.zeros(16), threads=1)
    fit = contraction_fit(rec)
    assert fit["rate"] == pytest.approx(-2.0 * np.pi ** 2, rel=0.1)


def test_contraction_fit_degenerate(plap_space, plap_p2):
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=1e-3, horizon=0.05, n_paths=4, master_seed=104,
                    checkpoint_times=(0.0, 0.05))
    x0 = e_k(16, 1, 0.05)
    rec = run_paths(plap_space, plap_p2, params, cfg, "synchronous",
                    x0=x0, y0=x0.copy(), threads=1)
    with pytest.raises(ValueError):
        contraction_fit(rec)


def test_ou_oracle_values(porous_space, porous_linear):
    x0 = e_k(16, 1, 2.0)
    mean0, var0 = ou_oracle(porous_space, porous_linear, x0, 0.0)
    assert var0[0] == 0.0
    assert mean0[0] == pytest.approx(2.0 / np.pi)   # H coordinate
    mean, var = ou_oracle(porous_space, porous_linear, x0, 0.1)
    exact = (1.0 - np.exp(-2.0 * np.pi ** 2 * 0.1)) / (2.0 * np.pi ** 2)
    assert var[0] == pytest.approx(exact, rel=1e-12)
    assert var[0] == pytest.approx(0.043624, abs=1e-6)
    _, var_inf = ou_oracle(porous_space, porous_linear, x0, 50.0)
    np.testing.assert_allclose(
        var_inf, porous_space.q_coeffs ** 2 / (2.0 * porous_space.lambdas),
        rtol=1e-12)


def test_ou_oracle_rates(porous_space, plap_space, plap_p2, porous_r2):
    x0 = e_k(16, 1, 1.0)
    lam = porous_space.lambdas
    shifted = ModelSpec(Porous(r=1.0, psi_scale=2.0, phi_slope=3.0))
    mean, _ = ou_oracle(porous_space, shifted, x0, 0.1)
    assert mean[0] == pytest.approx(np.exp(-(2.0 * lam[0] - 3.0) * 0.1) / np.pi,
                                    rel=1e-12)
    _, var = ou_oracle(plap_space, plap_p2, x0, 0.1)
    np.testing.assert_allclose(
        var, plap_space.q_coeffs ** 2 * -np.expm1(-0.2 * lam) / (2.0 * lam),
        rtol=1e-12)
    # no OU law: a nonlinear drift, a growing mode, a diffusion coefficient
    for model in (porous_r2, ModelSpec(Porous(r=1.0, phi_slope=20.0)),
                  ModelSpec(Porous(r=1.0),
                            b_spec=LipschitzDiagonal(1.0, unit_base(16)))):
        with pytest.raises(ValueError, match="OU oracle"):
            ou_oracle(porous_space, model, x0, 0.1)


def test_marginal_ou_check(small_coupled, porous_space, porous_linear):
    x0 = e_k(16, 1, 0.45 * np.pi)
    res = marginal_ou_check(small_coupled, porous_space, porous_linear,
                            x0, -x0, 0.3)
    assert res["ok"]
    assert res["sides"]["x"]["ok_var"] and res["sides"]["y"]["ok_var"]


def test_prop21_chain_small(ex41_space, porous_r2):
    # needs a configuration that contracts quickly through the 1/n shelf;
    # the degenerate nonlinearity at gamma = 2 does
    params = CouplingParams(n=20)
    cfg = SimConfig(dt=2e-4, horizon=0.2, n_paths=512, master_seed=108,
                    checkpoint_times=(0.0, 0.01, 0.02, 0.05, 0.1, 0.2))
    x0 = e_k(16, 1, 0.15 * np.pi ** 2)
    rec = run_paths(ex41_space, porous_r2, params, cfg, "coupled",
                    x0=x0, y0=-x0, threads=1)
    res = prop21_chain(rec, canonical_f(ex41_space))
    assert res["ok"]


def test_semigroup_difference_shrinks(small_coupled, porous_space):
    sg = semigroup_difference(small_coupled, canonical_f(porous_space))
    assert abs(sg["estimate"][-1]) < abs(sg["estimate"][0])


@pytest.fixture(scope="module")
def failing_record(porous_space, porous_r2):
    # the explicit scheme past its stability limit: some pairs overflow and
    # are NaN from their failure on, the others stay finite
    cfg = SimConfig(dt=2e-4, horizon=0.008, n_paths=300, master_seed=16,
                    checkpoint_times=(0.0, 0.004, 0.005, 0.006, 0.008),
                    scheme="explicit")
    x0 = e_k(16, 1, 2.0)
    rec = run_paths(porous_space, porous_r2, CouplingParams(n=2), cfg,
                    "coupled", x0=x0, y0=-x0, threads=1)
    assert 0 < np.sum(rec.failed) < cfg.n_paths
    assert np.isnan(rec.x_coeffs[rec.failed]).any()
    return rec


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def test_estimators_on_failed_paths_match_the_full_mode_formulas(
        failing_record, porous_space, porous_linear):
    # the estimators read mode 0 of every path and keep the live ones; the
    # reference scales every mode of the live rows' copies first
    rec, space = failing_record, porous_space
    live = rec.live

    def f_ref(coeffs):
        return np.tanh(h_mode_coeffs(space, coeffs)[..., 0])

    d = f_ref(rec.x_coeffs[live]) - f_ref(rec.y_coeffs[live])
    est = np.mean(d, axis=0)
    se = np.std(d, axis=0, ddof=1) / np.sqrt(d.shape[0])
    sg = semigroup_difference(rec, canonical_f(space))
    assert _bits(sg["estimate"]) == _bits(est)
    assert _bits(sg["std_err"]) == _bits(se)

    _, surv, surv_se = survival_curve(rec)
    bound = 2.0 * surv + 4.0 * np.sqrt(se ** 2 + (2.0 * surv_se) ** 2) + 1e-9
    rows = prop21_chain(rec, canonical_f(space))["rows"]
    assert _bits([r["lhs"] for r in rows]) == _bits(np.abs(est))
    assert _bits([r["bound"] for r in rows]) == _bits(bound)

    # the oracle's law is not the record's; only the estimates are compared
    x0 = e_k(16, 1, 2.0)
    res = marginal_ou_check(rec, space, porous_linear, x0, -x0, 0.006)
    j = 3
    for side, coeffs in (("x", rec.x_coeffs), ("y", rec.y_coeffs)):
        c = h_mode_coeffs(space, coeffs[live, j])[:, 0]
        got = res["sides"][side]
        assert got["mean"] == float(np.mean(c))
        assert got["se_mean"] == float(np.std(c, ddof=1) / np.sqrt(c.size))
        var = float(np.var(c, ddof=1))
        assert got["var"] == var
        assert got["se_var"] == float(var * np.sqrt(2.0 / (c.size - 1)))


def _random_record(space, n_paths, times, seed=0) -> PathEnsembleRecord:
    """A record of Gaussian states and stopping times, nothing stepped."""
    gen = np.random.default_rng(seed)
    shape = (n_paths, len(times), space.n_modes)
    tau = np.where(gen.random(n_paths) < 0.5,
                   gen.random(n_paths) * times[-1], np.nan)
    return PathEnsembleRecord(
        checkpoint_times=np.asarray(times, dtype=float),
        x_coeffs=gen.standard_normal(shape), y_coeffs=gen.standard_normal(shape),
        h_dist=gen.random(shape[:2]), q_dist=gen.random(shape[:2]),
        tau_n=tau, dist_at_tau_n=gen.random(n_paths), t_n=tau,
        coupled=np.zeros(n_paths, bool), delta_grid=np.zeros(0),
        tau_delta=np.zeros((n_paths, 0)), failed=np.zeros(n_paths, bool),
        failures=[], n=2)


def test_prop21_chain_copies_no_states(porous_space):
    # f reads one mode, so the chain's transients are (P, C), not (P, C, N)
    rec = _random_record(porous_space, 2048, np.linspace(0.0, 0.1, 11))
    f = canonical_f(porous_space)
    tracemalloc.start()
    try:
        prop21_chain(rec, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * rec.x_coeffs.nbytes


def test_survival_regression_fixture():
    # pinned-seed self-oracle: frozen values from the recorded run
    sp = make_space(12, 2.0, weighted=True, q_amp=1.0, q_decay=0.75)
    m = ModelSpec(Porous(r=2.0))
    x0 = np.zeros(12)
    x0[0] = 0.15 * np.pi ** 2
    cfg = SimConfig(dt=5e-4, horizon=0.1, n_paths=1024, master_seed=55555,
                    checkpoint_times=(0.0, 0.01, 0.02, 0.04, 0.07, 0.1))
    rec = run_paths(sp, m, CouplingParams(n=20), cfg, "coupled",
                    x0=x0, y0=-x0, threads=1)
    _, p, _ = survival_curve(rec)
    frozen = [1.0, 0.4619140625, 0.1171875, 0.0078125, 0.0, 0.0]
    np.testing.assert_allclose(p, frozen, atol=1e-15)


def test_contraction_with_diffusion_bound(plap_space):
    # Lipschitz diagonal diffusion with c0 = 1: decay at least as fast as
    # -2 (pi^2 - 1/2)
    m = ModelSpec(PLaplace(p=2.0), b_spec=LipschitzDiagonal(1.0, unit_base(16)))
    params = CouplingParams(n=1)
    cfg = SimConfig(dt=2e-4, horizon=0.15, n_paths=1024, master_seed=107,
                    checkpoint_times=tuple(np.round(np.linspace(0.0, 0.15, 7), 10)))
    x0 = e_k(16, 1, 0.05)
    rec = run_paths(plap_space, m, params, cfg, "synchronous",
                    x0=x0, y0=np.zeros(16), threads=1)
    fit = contraction_fit(rec)
    bound = -2.0 * (np.pi ** 2 - 0.5)
    half = 0.5 * (fit["ci"][1] - fit["ci"][0])
    assert fit["rate"] <= bound + half

"""Paper-facing estimators built on simulated ensembles.

Survival curves of the coupling time, the escape-probability bound, the
supermartingale diagnostics with the proofs' concave test functions,
contraction-rate fits, and the exact Ornstein-Uhlenbeck oracle for the
linear family.

Per-mode observables (the OU oracle, the oscillation chain's witness f)
are expressed in H-orthonormal coordinates sqrt(w_i) x_i so that the mode-i
marginal of the linear family is the scalar OU process with rate kappa_i
(see ``ou_oracle``) and noise amplitude q_i.

Monte Carlo conventions: every path mean and its standard error come from
``mean_se`` and every frequency and its binomial standard error from
``frequency``; variance estimates use the normal-theory standard error
var * sqrt(2/(M-1)); monotonicity verdicts compare paired per-path
differences of consecutive checkpoints against 3 standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .spaces import SpectralSpace
from .models import ModelSpec
from .coupling import cutoff_h_prime_sup
from .integrator import PathEnsembleRecord
from .inequalities import lipschitz_K_bound

__all__ = [
    "GSpec",
    "survival_curve", "check_lemma31", "supermartingale_diagnostic",
    "coupling_tail_bound", "contraction_fit",
    "ou_oracle", "prop21_chain",
    "marginal_ou_check", "d3_rate_bound",
]


def mean_se(vals):
    """Mean over paths (axis 0) and its standard error; the standard error
    needs two rows (see :func:`_two_paths`)."""
    vals = np.asarray(vals)
    return (np.mean(vals, axis=0),
            np.std(vals, axis=0, ddof=1) / np.sqrt(vals.shape[0]))


def _two_paths(n_paths: int) -> None:
    """Raises when ``n_paths`` is below two, the fewest paths from which
    :func:`mean_se` can form a standard error (one path leaves zero degrees
    of freedom and a NaN standard error)."""
    if n_paths < 2:
        raise ValueError(f"a path-mean standard error needs n_paths >= 2, "
                         f"got {n_paths}")


def frequency(hits):
    """Frequency of the events over the last axis and its binomial SE."""
    p = np.mean(hits, axis=-1)
    return p, np.sqrt(p * (1.0 - p) / hits.shape[-1])


def floats(values) -> list:
    """A flat list of Python floats, as the JSON writers need."""
    return [float(v) for v in np.asarray(values).ravel()]


def checkpoint_index(times, t: float) -> int:
    """Index of checkpoint t in ``times``; raises when t is off the grid."""
    times = np.asarray(times, dtype=float)
    j = int(np.argmin(np.abs(times - t)))
    if abs(times[j] - t) > 1e-9:
        raise ValueError(f"t = {t} is not a recorded checkpoint")
    return j


def _distinct_pair(dist0: float) -> float:
    """The start distance ``dist0``; raises on a degenerate pair, whose
    distance is 0 (x = y), for which no fit or escape bound is defined."""
    if dist0 == 0.0:
        raise ValueError("degenerate pair: x = y")
    return dist0


# raises unless the escape bound's delta grid is nonempty and positive
def _positive_deltas(deltas) -> None:
    if len(deltas) == 0:
        raise ValueError("needs at least one delta")
    if np.any(np.asarray(deltas) <= 0.0):
        raise ValueError("every delta must be > 0")


def d3_rate_bound(model: ModelSpec) -> float:
    """Distance-process drift rate K' = K + 2 sup|h'|^2 from the model data."""
    return lipschitz_K_bound(model) + 2.0 * cutoff_h_prime_sup() ** 2


def survival_curve(record: PathEnsembleRecord):
    """Empirical P(tau_n > t) at the checkpoints, with binomial standard errors.

    Nonincreasing in t by construction.  Paths that never reached 1/n within
    the horizon count as survivors at every checkpoint.
    """
    tau = record.tau_n[record.live]
    if tau.size == 0:
        raise ValueError("no live paths")
    times = record.checkpoint_times
    p, se = frequency(np.isnan(tau) | (tau > times[:, None]))
    return times, p, se


def check_lemma31(record: PathEnsembleRecord, t: float, kprime: float) -> dict:
    """Escape bound P(tau_n ^ t >= tau_{n,delta}) <= |x-y| e^(K't) / delta.

    Uses the recorded delta-crossing times; the empirical probability passes
    when it does not exceed the bound by more than 3 binomial standard
    errors.  Grid points with delta <= |x-y| are vacuous (bound >= 1).
    Raises on x = y at the start, an empty delta grid or a delta <= 0.
    """
    j0 = checkpoint_index(record.checkpoint_times, 0.0)
    live = record.live
    dist0 = _distinct_pair(float(record.h_dist[live][0, j0]))
    _positive_deltas(record.delta_grid)
    td = record.tau_delta[live]                 # (M, deltas)
    tn = record.tau_n[live][:, None]
    p, se = frequency((~np.isnan(td) & (td <= t)
                       & (np.isnan(tn) | (td <= tn))).T)
    bounds = dist0 * np.exp(kprime * t) / record.delta_grid
    rows = [{"delta": float(d), "probability": float(pj), "std_err": float(s),
             "bound": float(b), "margin": float(b + 3.0 * s - pj),
             "vacuous": bool(d <= dist0), "ok": bool(pj <= b + 3.0 * s)}
            for d, pj, s, b in zip(record.delta_grid, p, se, bounds)]
    return {"t": float(t), "kprime": float(kprime), "dist0": dist0,
            "rows": rows, "ok": all(r["ok"] for r in rows)}


@cache
def _gl_rule():
    """64-point Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _gl_primitive(w_fn, s: np.ndarray) -> np.ndarray:
    """int_0^s w_fn(z) dz via 64-point Gauss-Legendre, vectorized in s."""
    nodes, weights = _gl_rule()
    s = np.asarray(s, dtype=float)
    z = s[..., None] * nodes
    with np.errstate(divide="ignore"):
        vals = np.where(z > 0.0, w_fn(np.where(z > 0.0, z, 1.0)), 0.0)
    return s * np.sum(vals * weights, axis=-1)


@dataclass(frozen=True)
class GSpec:
    """Concave test functions used in the decay proofs.

    kinds:
    * ``identity``                      g(s) = s
    * ``clipped_linear`` (eps, delta)   g(s) = s - s^(1+eps) / (4 delta^eps)
    * ``log_power`` (r, the model's)    g(s) = int_0^s log(e + 1/z)^(r/(1+r)) dz
    * ``sqrt_log``                      g(s) = int_0^s sqrt(log(e + 1/z)) dz
    * ``power`` (eps)                   g(s) = s^eps
    """
    kind: str
    eps: float | None = None
    delta: float | None = None
    r: float | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "clipped_linear", "log_power",
                             "sqrt_log", "power"):
            raise ValueError(f"unknown g kind {self.kind!r}")
        if self.kind in ("clipped_linear", "power"):
            if self.eps is None or not 0.0 < self.eps < 1.0:
                raise ValueError("eps must lie in (0, 1)")
        if self.kind == "clipped_linear" and (self.delta is None or self.delta <= 0):
            raise ValueError("clipped_linear needs delta > 0")
        if self.kind == "log_power" and (self.r is None or self.r <= 0):
            raise ValueError("log_power needs r > 0")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "identity":
            return s
        if self.kind == "clipped_linear":
            sc = np.minimum(s, self.delta)
            return sc - sc ** (1.0 + self.eps) / (4.0 * self.delta ** self.eps)
        if self.kind == "power":
            return s ** self.eps
        # log_power or sqrt_log, which is log_power's integrand at r = 1
        # (numpy takes ** 0.5 as sqrt)
        a = 0.5 if self.kind == "sqrt_log" else self.r / (1.0 + self.r)
        return _gl_primitive(lambda z: np.log(np.e + 1.0 / z) ** a, s)

    @property
    def stop_at_tau(self) -> bool:
        return self.kind != "identity"


def supermartingale_diagnostic(record: PathEnsembleRecord, g_spec: GSpec,
                               kprime: float) -> dict:
    """Checkpoint means of e^(-K't) g(|X_t - Y_t|) with monotonicity verdict.

    Non-identity test functions are evaluated on the process stopped at
    tau_n (at the distance recorded there), as in the decay proofs.  The
    verdict is 'nonincreasing within 3 SE' on paired consecutive differences.
    """
    times = record.checkpoint_times
    live = record.live
    dist = record.h_dist[live]                  # (M, C)
    t_eval = np.broadcast_to(times, dist.shape)
    if g_spec.stop_at_tau:
        tau = record.tau_n[live]
        stop_t = np.where(np.isnan(tau), np.inf, tau)
        frozen = times[None, :] >= stop_t[:, None]
        dist = np.where(frozen, record.dist_at_tau_n[live][:, None], dist)
        t_eval = np.where(frozen, stop_t[:, None], t_eval)
    vals = np.exp(-kprime * t_eval) * g_spec(dist)
    means, ses = mean_se(vals)
    gaps = []
    for j in range(len(times) - 1):
        # one 1-D column difference per gap keeps its summation order
        md, sd = floats(mean_se(vals[:, j + 1] - vals[:, j]))
        gaps.append({"t_lo": float(times[j]), "t_hi": float(times[j + 1]),
                     "mean_diff": md, "std_err": sd,
                     "ok": md <= 3.0 * sd + 1e-15})
    return {"times": floats(times), "mean": floats(means),
            "std_err": floats(ses), "kprime": float(kprime),
            "g": g_spec.kind, "gaps": gaps,
            "ok": all(g["ok"] for g in gaps)}


def coupling_tail_bound(record: PathEnsembleRecord, kprime: float) -> dict:
    """Check E[e^(-K't) |X_t - Y_t| ; tau_n <= t] <= 1/n at each checkpoint."""
    times = record.checkpoint_times
    live = record.live
    tau = record.tau_n[live]
    hit = ~np.isnan(tau)[:, None] & (tau[:, None] <= times[None, :])
    means, ses = mean_se(np.exp(-kprime * times)[None, :]
                         * record.h_dist[live] * hit)
    bound = 1.0 / record.n
    return {"times": floats(times), "mean": floats(means),
            "std_err": floats(ses), "bound": bound,
            "ok": bool(np.all(means <= bound + 3.0 * ses))}


def fit_window(times, t_min: float, dist0: float) -> np.ndarray:
    """Mask of the checkpoints >= t_min; raises unless it holds two, and on a
    degenerate pair (see :func:`_distinct_pair`)."""
    _distinct_pair(dist0)
    window = np.asarray(times, dtype=float) >= t_min - 1e-12
    if np.count_nonzero(window) < 2:
        raise ValueError("fit window must contain at least two checkpoints")
    return window


def contraction_fit(record: PathEnsembleRecord, *, t_min: float = 0.0) -> dict:
    """Least-squares decay rate of log E|X_t - Y_t|^2 over checkpoints >= t_min.

    The confidence interval comes from a 200-sample path bootstrap with
    seed 7 (resampling whole paths, so serial correlation along a path is
    respected).  Raises on a degenerate pair (x = y at the start).
    """
    d2 = record.h_dist[record.live] ** 2
    times = record.checkpoint_times
    window = fit_window(times, t_min, float(np.max(d2[:, 0], initial=0.0)))
    tw = times[window]

    def slope_of(mat):
        m2 = np.mean(mat, axis=0)[window]
        if np.any(m2 <= 0.0):
            return np.nan
        return np.polyfit(tw, np.log(m2), 1)[0]

    rate = slope_of(d2)
    gen = np.random.default_rng(7)
    m = d2.shape[0]
    boots = np.array([slope_of(d2[gen.integers(0, m, size=m)])
                      for _ in range(200)])
    boots = boots[np.isfinite(boots)]
    if boots.size:
        lo, hi_ci = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi_ci = np.nan
    return {"rate": float(rate), "ci": (float(lo), float(hi_ci)),
            "t_window": (float(tw[0]), float(tw[-1])), "n_paths": int(m)}


def prop21_chain(record: PathEnsembleRecord, space: SpectralSpace) -> dict:
    """Oscillation bound |P_t f(x) - P_t f(y)| <= osc(f) P(tau_n > t) + noise.

    The witness is f(v) = tanh(sqrt(w_1) v_1), of the first H-mode
    coefficient, with osc(f) = 2; P_t f(x) - P_t f(y) is the paired mean
    over the live pairs.  The Monte Carlo allowance is 4 combined standard
    errors, combining the paired estimator SE and the survival SE scaled by
    osc(f).  A floor of 1e-9 absorbs the sub-statistical residual of
    coupled-but-not-yet-glued paths once every path has crossed 1/n (at
    finite n the exact bound carries an extra Lipschitz tail of order
    e^(K't)/n; the floor is far below it).
    """
    # f is taken of every path, failed ones included, and the live rows kept
    root_w1 = space.root_h_weights[0]
    fx = np.tanh(root_w1 * record.x_mode1)[record.live]
    fy = np.tanh(root_w1 * record.y_mode1)[record.live]
    est, est_se = mean_se(fx - fy)
    times, surv, surv_se = survival_curve(record)
    osc = 2.0
    lhs = np.abs(est)
    comb = np.sqrt(est_se ** 2 + (osc * surv_se) ** 2)
    rhs = osc * surv + 4.0 * comb + 1e-9
    # once every path has crossed 1/n the oscillation term is identically
    # zero and only the finite-n Lipschitz tail remains, which the bound
    # formula does not carry; those checkpoints are reported but not gated
    rows = [{"t": float(t), "lhs": float(a), "bound": float(b),
             "survival": float(s), "gated": bool(s > 0.0),
             "ok": bool(a <= b)}
            for t, a, b, s in zip(times, lhs, rhs, surv)]
    return {"rows": rows, "ok": all(r["ok"] for r in rows if r["gated"])}


def ou_oracle(space: SpectralSpace, model: ModelSpec, x0: np.ndarray,
              t: float):
    """Exact per-mode mean and variance of a linear flow with B = 0.

    Returned in H-orthonormal coordinates: mode i evolves as the scalar OU
    process with decay rate kappa_i and noise amplitude q_i, so the mean is
    e^(-kappa_i t) c_i(0) and the variance q_i^2 (1 - e^(-2 kappa_i t)) /
    (2 kappa_i).  Porous r = 1 has kappa_i = psi_scale lambda_i - phi_slope,
    and p = 2 on a gamma = 1 space has kappa_i = lambda_i.  Raises
    ValueError for any other model, whose law is not OU, and when some
    kappa_i <= 0.
    """
    fam = model.family
    if model.has_diffusion:
        raise ValueError("the OU oracle needs B = 0")
    if fam.kind == "porous" and fam.r == 1.0:
        kappa = fam.psi_scale * space.lambdas - fam.phi_slope
    elif fam.kind == "plaplace" and fam.p == 2.0 and space.gamma == 1.0:
        kappa = space.lambdas
    else:
        raise ValueError("the OU oracle needs porous r = 1, "
                         "or p = 2 on a gamma = 1 space")
    if np.any(kappa <= 0.0):
        raise ValueError("the OU oracle needs psi_scale * lambda_i > "
                         "phi_slope in every mode")
    c0 = space.root_h_weights * np.asarray(x0, dtype=float)
    mean = np.exp(-kappa * t) * c0
    var = space.q_coeffs ** 2 * -np.expm1(-2.0 * kappa * t) / (2.0 * kappa)
    return mean, var


def marginal_ou_check(record: PathEnsembleRecord, space: SpectralSpace,
                      model: ModelSpec, x0: np.ndarray, y0: np.ndarray,
                      t: float) -> dict:
    """Compare coupled-marginal mode statistics against the OU oracle.

    Checks mean and variance of the first H-mode of both marginals at
    checkpoint time t, each within 3 standard errors.  Raises ValueError
    when ``ou_oracle`` does not apply to the model.
    """
    j = checkpoint_index(record.checkpoint_times, t)
    live = record.live
    m = int(np.sum(live))
    out = {"t": float(t), "mode": 0, "n_paths": m, "sides": {}}
    for name, mode1, start in (("x", record.x_mode1, x0),
                               ("y", record.y_mode1, y0)):
        mean_th, var_th = ou_oracle(space, model, start, t)
        # mode 0's H-orthonormal coefficient, on the checkpoint's live rows
        c = space.root_h_weights[0] * mode1[live, j]
        mean_e, se_mean = floats(mean_se(c))
        var_e = float(np.var(c, ddof=1))
        se_var = float(var_e * np.sqrt(2.0 / (m - 1)))
        out["sides"][name] = {
            "mean": mean_e, "mean_oracle": float(mean_th[0]),
            "se_mean": se_mean,
            "ok_mean": bool(abs(mean_e - mean_th[0]) <= 3.0 * se_mean),
            "var": var_e, "var_oracle": float(var_th[0]),
            "se_var": se_var,
            "ok_var": bool(abs(var_e - var_th[0]) <= 3.0 * se_var),
        }
    out["ok"] = all(v["ok_mean"] and v["ok_var"]
                    for v in out["sides"].values())
    return out


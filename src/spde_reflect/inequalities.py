"""Numerical verification of the structural inequalities and spectrum gates.

Every sampled checker runs one protocol, ``_fit_then_validate``: draw a
mixed batch of sample states (smooth, rough, and near-collision pairs,
since the one-sided bounds are tightest near the diagonal), fit the free
constant by minimizing/maximizing over the batch, then confirm zero
violations at a safety-shaved constant on a fresh batch.  Fitting means
optimizing over samples, never proving; reports always carry sample counts
and the worst margin seen.  The terms are formed on slabs of ``_ROW_SLAB``
drawn states (a multiple of ``spaces.ROW_CHUNK``, so grid products chunk
as on the whole batch) and validated in slabs of ``_SLAB`` samples, each
check being elementwise; memory then grows only with the drawn states, and
the report is bit for bit that of one whole-batch pass.  A validation
slab's temporaries, up to 17 arrays of ``_SLAB`` doubles (about 1.1 MB),
fit in a 2 MiB L2 cache.

Spectrum conditions for power-law data q_i = i^-delta, lambda_i =
(pi i)^(2 gamma) are decided exactly by the exponent of i in the
supremand, with a brute-force numeric scan available as a sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import (ROW_CHUNK, SpectralSpace, h_norm, q_norm, v_norm, to_grid,
                     quad, grad_to_grid)
from .models import ModelSpec, pairing_drift_diff, b_hs_diff, beta_sup
from .integrator import philox_generator

__all__ = [
    "ConditionReport", "SpectrumParams",
    "sample_states", "sample_state_pairs",
    "check_A1prime", "check_A1doubleprime", "check_interpolation_Q",
    "check_spectrum_condition", "check_scalar_mean_value",
    "mean_value_batch",
    "nash_exponent_gate", "fit_coercivity",
    "kappa_porous_example", "kappa_plaplace_example", "kappa_fastdiff_interval",
    "scan_supremand", "lipschitz_K_bound",
]

_REL_TOL = 1e-9
_VACUOUS = 1e-6                      # median |fitted term| / median |lhs|
# samples per validation slab: a slab's temporaries, up to 17 arrays of
# 8,192 doubles (1.1 MB), fit in a 2 MiB L2 cache, and they are all the
# memory a check adds to its terms
_SLAB = 8_192
_ROW_SLAB = 4 * ROW_CHUNK            # states per grid slab
_SAFETY = 0.9                        # a fitted constant is shaved by this


@dataclass
class ConditionReport:
    condition_id: str
    sample_count: int
    violation_count: int
    fitted_constants: dict
    worst_margin: float
    verdict: str                     # pass | fail | vacuous
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "sample_count": self.sample_count,
            "violation_count": self.violation_count,
            "fitted_constants": {k: float(v) for k, v in self.fitted_constants.items()},
            "worst_margin": float(self.worst_margin),
            "verdict": self.verdict,
            "notes": self.notes,
        }


def sample_states(space: SpectralSpace, gen: np.random.Generator,
                  n: int) -> np.ndarray:
    """Mixed batch of coefficient vectors: smooth, rough, and rescaled."""
    nm = space.n_modes
    idx = np.arange(1, nm + 1, dtype=float)
    kind = gen.integers(0, 3, size=n)
    out = gen.standard_normal((n, nm))
    out[kind == 0] *= idx ** -2.0          # smooth, few effective modes
    out[kind == 1] *= idx ** -0.6          # rough, slowly decaying
    # kind == 2: flat white coefficients
    scale = np.exp(gen.normal(0.0, 1.0, size=n))
    return out * scale[:, None]


def sample_state_pairs(space: SpectralSpace, gen: np.random.Generator,
                       n: int):
    """Pairs (v1, v2) with a near-collision third (v2 = v1 + eps e_j)."""
    v1 = sample_states(space, gen, n)
    v2 = sample_states(space, gen, n)
    near = gen.random(n) < (1.0 / 3.0)
    k = int(np.sum(near))
    if k:
        eps = 10.0 ** gen.uniform(-6.0, -1.0, size=k)
        j = gen.integers(0, space.n_modes, size=k)
        pert = np.zeros((k, space.n_modes))
        pert[np.arange(k), j] = eps
        v2[near] = v1[near] + pert
    # guard exact collisions
    same = np.all(v1 == v2, axis=-1)
    if np.any(same):
        v2[same, 0] += 1e-8
    return v1, v2


def lipschitz_K_bound(model: ModelSpec) -> float:
    """Model-derived constant K for the one-sided monotonicity bounds."""
    fam = model.family
    c0 = getattr(model.b_spec, "c0", 0.0)
    if fam.kind == "porous":
        base = max(fam.phi_slope, 0.0)
    elif fam.kind == "fastdiff":
        base = max(beta_sup(fam), 0.0)
    else:
        base = 0.0
    return base + 0.5 * c0 * c0


def _by_rows(terms, *states):
    """The per-row arrays ``terms(*states)``, formed on ``_ROW_SLAB``-row slabs."""
    parts = [terms(*(v[lo:lo + _ROW_SLAB] for v in states))
             for lo in range(0, len(states[0]), _ROW_SLAB)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _fit_then_validate(condition_id: str, n_samples: int, sample, fit, check,
                       constants, given=None, fitted_term=None) -> ConditionReport:
    """The protocol every sampled checker shares.

    ``sample()`` draws a fresh batch of ``n_samples`` points and returns
    the inequality's terms on it, a tuple of arrays of that length: formed
    from the drawn states in row slabs (:func:`_by_rows`), or the pairs of
    the streamed :func:`mean_value_batch`.  The free constant is ``given``,
    or else ``fit(terms)`` on one batch.  ``check(terms, const)`` then
    returns the margins, their scale and optionally a ``floor`` on each
    ``_SLAB``-sample slab of a fresh batch; a margin that is NaN or below
    ``-(_REL_TOL * scale + floor)`` is a violation.  The slabs' violations
    are summed and ``worst_margin`` is the least slab minimum, NaN if any
    margin is NaN.  ``constants(const)`` names the constants the report
    carries.  With no violation, a fitted (not ``given``) constant reads
    ``vacuous`` when ``fitted_term(terms, const)``, its term and the lhs,
    has a median ``|term|`` below ``_VACUOUS`` times the median ``|lhs|``.
    """
    _positive_samples(n_samples)
    const = fit(sample()) if given is None else given
    terms = sample()
    bad, lows = 0, []
    for lo in range(0, n_samples, _SLAB):
        margins, scale, *floor = check(tuple(t[lo:lo + _SLAB] for t in terms),
                                       const)
        tol = _REL_TOL * scale
        if floor:
            tol = tol + floor[0]
        bad += int(np.sum(~(margins >= -tol)))
        lows.append(np.min(margins))
    verdict = "pass" if bad == 0 else "fail"
    if bad == 0 and given is None and fitted_term is not None:
        # upper medians by partition: np.median would import numpy.ma
        term, lhs = (np.partition(np.abs(a), n_samples // 2)[n_samples // 2]
                     for a in fitted_term(terms, const))
        if term < _VACUOUS * lhs:
            verdict = "vacuous"
    return ConditionReport(
        condition_id=condition_id,
        sample_count=n_samples,
        violation_count=bad,
        fitted_constants=constants(const),
        worst_margin=float(np.min(lows)),
        verdict=verdict,
    )


def _a1_lhs(space, model, v1, v2):
    # the checks are made at t = 0, which only the fast-diffusion beta(t) reads
    lhs = pairing_drift_diff(space, model, 0.0, v1, v2)
    if model.has_diffusion:
        lhs = lhs + 0.5 * b_hs_diff(space, model, v1, v2) ** 2
    return lhs


def _check_a1(condition_id, stream, defect, space, model, kappa, n_samples,
              seed, K, theta) -> ConditionReport:
    """lhs <= K |v1-v2|^2 - theta defect(v1, v2) with theta fitted unless given."""
    if K is None:
        K = lipschitz_K_bound(model)
    gen = philox_generator(seed, stream)

    def terms(v1, v2):
        d = v1 - v2
        dn = h_norm(space, d)
        # the defect goes through the bounded ratio |v1-v2|_Q / dn
        ratio_k = (q_norm(space, d) / dn) ** kappa
        return _a1_lhs(space, model, v1, v2), K * dn * dn, \
            defect(v1, v2, dn, ratio_k)

    def fit(terms):
        lhs, kdn2, denom = terms
        return max(float(np.min((kdn2 - lhs) / denom)), 0.0) * _SAFETY

    def check(terms, theta):
        lhs, kdn2, denom = terms
        rhs = kdn2 - theta * denom
        return rhs - lhs, np.abs(lhs) + kdn2 + np.abs(rhs)

    return _fit_then_validate(
        condition_id, n_samples,
        lambda: _by_rows(terms, *sample_state_pairs(space, gen, n_samples)),
        fit, check, lambda theta: {"K": K, "theta": theta, "kappa": kappa},
        given=theta, fitted_term=lambda t, theta: (theta * t[2], t[0]))


# The parameter rules of the checkers and gates.  Each checker calls its
# rule before it draws anything, and the config parser calls the same rule
# for each selected condition; no rule samples.

def _positive_samples(n_samples: int) -> None:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


def _positive_kappa(kappa) -> None:
    if kappa is None or not kappa > 0.0:
        raise ValueError(f"needs kappa > 0 (kappa={kappa})")


def _a1prime_rule(model: ModelSpec, kappa) -> None:
    r = model.family.r
    if r < 1.0:
        raise ValueError("A1' applies to families with r >= 1")
    if kappa is None or not kappa > r - 1.0:
        raise ValueError(f"needs kappa > r - 1 (kappa={kappa}, r={r})")


def _a1doubleprime_rule(model: ModelSpec, kappa) -> None:
    if model.family.kind != "fastdiff":
        raise ValueError("A1'' applies to the fast-diffusion family")
    _positive_kappa(kappa)


def _mean_value_rule(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError(f"the mean-value exponent must lie in (0, 1), got {r}")


def _nash_rule(m: float, r: float) -> None:
    if not (m > 0.0 and 0.0 < r < 1.0):
        raise ValueError(f"the Nash gate needs m > 0 and r in (0, 1), the "
                         f"fast-diffusion range (m={m}, r={r})")


def check_A1prime(space: SpectralSpace, model: ModelSpec, kappa: float,
                  n_samples: int = 10_000, *, seed: int = 1234,
                  K: float | None = None, theta: float | None = None) -> ConditionReport:
    """One-sided bound with the Q-norm defect term, r >= 1 regime.

    With user-supplied (K, theta) the batch is checked directly; otherwise
    theta is fitted on one batch (given the model-derived K) and validated
    on a fresh one.
    """
    _a1prime_rule(model, kappa)
    r = model.family.r
    # dn^(r+1-k) dq^k
    return _check_a1("A1prime", 0xA1,
                     lambda v1, v2, dn, ratio_k: dn ** (r + 1.0) * ratio_k,
                     space, model, kappa, n_samples, seed, K, theta)


def check_A1doubleprime(space: SpectralSpace, model: ModelSpec, kappa: float,
                        n_samples: int = 10_000, *, seed: int = 1234,
                        K: float | None = None,
                        theta: float | None = None) -> ConditionReport:
    """Fast-diffusion variant with the V-norm denominator, r in (0, 1)."""
    _a1doubleprime_rule(model, kappa)
    fam = model.family

    def defect(v1, v2, dn, ratio_k):
        vmax = np.maximum(v_norm(space, v1, fam), v_norm(space, v2, fam))
        return dn * dn * ratio_k / vmax ** (1.0 - fam.r)

    return _check_a1("A1doubleprime", 0xA2, defect, space, model, kappa,
                     n_samples, seed, K, theta)


def check_interpolation_Q(space: SpectralSpace, model: ModelSpec, kappa: float,
                          n_samples: int = 10_000, *, seed: int = 1234,
                          safety: float = _SAFETY) -> ConditionReport:
    """Interpolation bounds tying the Q-norm to the H- and V-norms.

    porous:   |x|_Q^2 <= C |x|^(2(k-1-r)/k) |x|_{1+r}^(2(1+r)/k)
    plaplace: |x|_Q^2 <= C |x|^(2(k-p)/k)  m(|grad x|^2)^(p/k)
    fastdiff: |u|_{r+1}^2 |u|^(k-2) >= eta |u|_Q^k

    A kappa so small that these powers overflow gives NaN margins, which
    count as violations.
    """
    _positive_kappa(kappa)
    fam = model.family
    r = fam.r
    gen = philox_generator(seed, 0x1F)

    def terms(x):
        dq = q_norm(space, x)
        dn = h_norm(space, x)
        if fam.kind == "plaplace":
            dg2 = quad(space, grad_to_grid(space, x) ** 2)
            return dq ** 2, dn ** (2.0 * (kappa - fam.p) / kappa) * \
                dg2 ** (fam.p / kappa)
        lq = quad(space, np.abs(to_grid(space, x)) ** (1.0 + r)) ** (1.0 / (1.0 + r))
        if fam.kind == "porous":
            return dq ** 2, dn ** (2.0 * (kappa - 1.0 - r) / kappa) * \
                lq ** (2.0 * (1.0 + r) / kappa)
        return lq ** 2 * dn ** (kappa - 2.0), dq ** kappa

    if fam.kind == "fastdiff":      # lhs >= eta rhs
        name, fitted_term = "eta", lambda lr, c: (c * lr[1], lr[0])
        fit = lambda lr: float(np.min(lr[0] / lr[1])) * safety
        check = lambda lr, c: (lr[0] - c * lr[1], np.abs(lr[0]) + c * lr[1])
    else:                           # lhs <= C rhs
        name, fitted_term = "C", None
        fit = lambda lr: float(np.max(lr[0] / lr[1])) / safety
        check = lambda lr, c: (c * lr[1] - lr[0], np.abs(lr[0]) + c * lr[1])
    with np.errstate(over="ignore", invalid="ignore"):
        return _fit_then_validate(
            f"interpolation_{fam.kind}", n_samples,
            lambda: _by_rows(terms, sample_states(space, gen, n_samples)),
            fit, check, lambda c: {name: c, "kappa": kappa},
            fitted_term=fitted_term)


@dataclass(frozen=True)
class SpectrumParams:
    """Closed-form spectrum data q_i = i^-delta, lambda_i = (pi i)^(2 gamma), d = 1."""
    gamma: float
    delta: float
    r: float | None = None
    p: float | None = None
    kappa: float | None = None
    eps: float | None = None

    # delta <= 0 or a given kappa <= 0 would divide by zero or flip a gate
    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"needs delta > 0 (delta={self.delta})")
        if self.kappa is not None:
            _positive_kappa(self.kappa)


def kappa_porous_example(gamma: float, r: float, delta: float, d: int = 1) -> float:
    return gamma * (1.0 + r) / (delta * d)


def kappa_plaplace_example(p: float, delta: float) -> float:
    return p / delta


def kappa_fastdiff_interval(gamma: float, r: float, delta: float, d: int = 1):
    """Admissible kappa interval (before intersecting with [2, inf))."""
    lo = (2.0 * gamma * (1.0 + r) - d * (1.0 - r)) / (d * delta * (1.0 + r))
    hi = 2.0 * gamma / (d * delta)
    return lo, hi


# each spectrum gate: the parameters it needs, the i-exponent of its
# supremand in closed form, and the supremand over (i, lambda_i, q_i); the
# scan of the supremand is the independent check of the exponent
_SPECTRUM_GATES = {
    "*E": (("kappa", "r"),
           lambda s: -2.0 * s.gamma + 2.0 * s.kappa * s.delta / (1.0 + s.r),
           lambda s, i, lam, q: lam ** -1.0 * q ** (-2.0 * s.kappa / (1.0 + s.r))),
    "**E": (("kappa", "p"),
            lambda s: s.delta - s.p / s.kappa,
            lambda s, i, lam, q: q ** -1.0 * i ** (-s.p / s.kappa)),
    "SB": (("kappa", "eps"),
           lambda s: s.delta + 2.0 * s.gamma * (s.eps - 1.0) / s.kappa,
           lambda s, i, lam, q: np.abs(q) ** -1.0 * lam ** ((s.eps - 1.0) / s.kappa)),
    "EI": ((), lambda s: -2.0 * s.delta, lambda s, i, lam, q: np.cumsum(q * q)),
}


def _spectrum_gate(which: str, params: SpectrumParams):
    """(exponent, supremand) of gate ``which``; raises when ``params`` lacks
    one of its parameters."""
    if which not in _SPECTRUM_GATES:
        raise ValueError(f"unknown spectrum condition {which!r}")
    needs, exponent, supremand = _SPECTRUM_GATES[which]
    if any(getattr(params, k) is None for k in needs):
        raise ValueError(f"{which} needs {' and '.join(needs)}")
    return exponent, supremand


def scan_supremand(which: str, params: SpectrumParams):
    """Numeric scan of the supremand over i <= 10^6 (sanity route)."""
    supremand = _spectrum_gate(which, params)[1]
    i = np.arange(1, 1_000_001, dtype=float)
    return supremand(params, i, (np.pi * i) ** (2.0 * params.gamma),
                     i ** (-params.delta))


def _exact_report(condition_id: str, ok: bool, constants: dict,
                  worst_margin: float, notes: str) -> ConditionReport:
    """The one-sample report of a gate decided exactly, without sampling."""
    return ConditionReport(
        condition_id=condition_id, sample_count=1,
        violation_count=0 if ok else 1, fitted_constants=constants,
        worst_margin=worst_margin, verdict="pass" if ok else "fail",
        notes=notes)


def check_spectrum_condition(which: str, params: SpectrumParams) -> ConditionReport:
    """Exact exponent verdict for the four spectrum gates.

    For the sup-type gates finiteness is equivalent to a nonpositive
    exponent of i; for the Hilbert-Schmidt sum it needs exponent < -1.
    The report also carries the worked kappa formulas where defined.
    """
    exp = _spectrum_gate(which, params)[0](params)
    finite = exp < -1.0 if which == "EI" else exp <= 0.0
    consts = {"exponent": exp}
    if params.r is not None and params.r >= 1.0:
        consts["kappa_example_porous"] = kappa_porous_example(
            params.gamma, params.r, params.delta)
    if params.p is not None:
        consts["kappa_example_plaplace"] = kappa_plaplace_example(
            params.p, params.delta)
    if params.r is not None and 0.0 < params.r < 1.0:
        lo, hi = kappa_fastdiff_interval(params.gamma, params.r, params.delta)
        consts["kappa_interval_lo"] = lo
        consts["kappa_interval_hi"] = hi
    return _exact_report(
        f"spectrum_{which}", finite, consts,
        -exp if which != "EI" else -(exp + 1.0),
        "finite iff i-exponent of the supremand is nonpositive"
        if which != "EI" else "summable iff i-exponent < -1")


def mean_value_batch(n_samples: int, seed: int = 1234):
    """The (s1, s2) pairs :func:`check_scalar_mean_value` checks.

    Heavy-tailed values with sign flips, exact ties, near ties and zeros.
    The batch does not depend on r, so one batch serves every exponent.
    The two Cauchy draws become s1 and s2 in place and each uniform
    section is drawn into one reused buffer, ``_SLAB`` values at a time;
    chunked draws continue the same stream, so the pairs are those of
    whole-batch draws, in about 16 bytes per pair.
    """
    _positive_samples(n_samples)
    gen = philox_generator(seed, 0x3C)
    s1, s2 = gen.standard_cauchy(n_samples), gen.standard_cauchy(n_samples)
    for t in (s1, s2):
        for lo in range(0, n_samples, _SLAB):
            u = t[lo:lo + _SLAB]
            np.clip(np.sign(u) * np.abs(u) ** 1.5, -1e6, 1e6, out=u)
    buf = np.empty(min(n_samples, _SLAB))
    for frac, kind in ((0.05, "tie"), (0.10, "tiny"), (0.02, "zero")):
        for lo in range(0, n_samples, _SLAB):
            a, b = s1[lo:lo + _SLAB], s2[lo:lo + _SLAB]
            hit = gen.random(out=buf[:a.size]) < frac
            if kind == "zero":
                np.copyto(a, 0.0, where=hit)
            elif kind == "tiny":                # a near tie
                np.multiply(a, 1.0 + 1e-9, out=b, where=hit)
            else:                               # an exact tie
                np.copyto(b, a, where=hit)
    return s1, s2


def check_scalar_mean_value(r: float, batch) -> ConditionReport:
    """Pointwise bound (s1-s2)(s1^r - s2^r) >= r |s1-s2|^2 (|s1| v |s2|)^(r-1).

    The pairs are ``batch``, two arrays of equal length such as a
    :func:`mean_value_batch`.  Every exponent is checked on the same pairs,
    so the reports for several r are not independent evidence.  The 0/0
    quotient at s1 = s2 = 0 is taken as 0 by convention.
    """
    _mean_value_rule(r)
    n_samples = len(batch[0])
    if any(np.shape(s) != (n_samples,) for s in batch):
        raise ValueError("batch must hold two arrays of equal length")

    def check(s, r):
        s1, s2 = s
        d = s1 - s2
        a1, a2 = np.abs(s1), np.abs(s2)
        p1, p2 = a1 ** r, a2 ** r
        # sign(s) |s|^r is signed_power's formula for r < 1
        lhs = d * (np.sign(s1) * p1 - np.sign(s2) * p2)
        mx = np.maximum(a1, a2)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = np.where(mx > 0.0, r * d ** 2 * mx ** (r - 1.0), 0.0)
        # near-tie pairs subtract almost equal powers; allow for the
        # cancellation roundoff |s1-s2| * (|s1|^r + |s2|^r) * O(eps)
        return (lhs - rhs, np.abs(lhs) + np.abs(rhs),
                1e-13 * (np.abs(d) * (p1 + p2)))

    return _fit_then_validate("scalar_mean_value", n_samples, lambda: batch,
                              None, check, lambda r: {"r": r}, given=r)


def _worked_eps(gamma: float, delta: float, kappa: float) -> float:
    """The worked eps = (2 gamma - kappa d delta) / (2 gamma), d = 1, of the
    Nash gate and of the SB spectrum gate."""
    return (2.0 * gamma - kappa * delta) / (2.0 * gamma)


def nash_exponent_gate(m: float, r: float, *, gamma: float | None = None,
                       delta: float | None = None,
                       kappa: float | None = None) -> ConditionReport:
    """The report of gate m < 2(1+r)/(1-r), and of the worked eps-window
    when spectrum data is supplied (eps of ``_worked_eps``)."""
    _nash_rule(m, r)
    bound = 2.0 * (1.0 + r) / (1.0 - r)
    ok = m < bound
    consts = {"m": m, "bound": bound}
    notes = ""
    if None not in (gamma, delta, kappa):
        eps = _worked_eps(gamma, delta, kappa)
        eps_hi = (1.0 - r) * m / (2.0 * (1.0 + r))
        consts.update({"eps": eps, "eps_hi": eps_hi})
        ok = ok and (0.0 < eps < eps_hi)
        notes = "eps window (0, (1-r) m / (2(1+r))) checked"
    return _exact_report("nash_gate", ok, consts, bound - m, notes)


def fit_coercivity(space: SpectralSpace, model: ModelSpec,
                   n_samples: int = 10_000, *, seed: int = 1234) -> ConditionReport:
    """Coercivity surrogate <A(v), v> + |B(v)|_HS^2 / 2 <= C(1+|v|^2) - theta |v|_V^(1+r)."""
    fam = model.family
    if model.theta is not None:
        theta = 0.5 * model.theta
    elif fam.kind == "porous":
        theta = 0.5 * fam.psi_scale
    elif fam.kind == "fastdiff":
        theta = 0.5 * fam.r
    else:
        # the V-norm mixes field and gradient; stay below the
        # Poincare-limited coefficient
        theta = 0.2
    gen = philox_generator(seed, 0xC0)

    def terms(v):
        return (_a1_lhs(space, model, v, np.zeros_like(v)),
                v_norm(space, v, fam) ** (1.0 + fam.r), h_norm(space, v) ** 2)

    def fit(terms):
        lhs, vn, hn2 = terms
        c_fit = float(np.max((lhs + theta * vn) / (1.0 + hn2))) / _SAFETY
        # the diffusion part is covered outright by its Lipschitz bound
        return max(c_fit, 0.0) + 0.5 * getattr(model.b_spec, "c0", 0.0) ** 2

    def check(terms, c_fit):
        lhs, vn, hn2 = terms
        return (c_fit * (1.0 + hn2) - theta * vn - lhs,
                np.abs(lhs) + c_fit * (1.0 + hn2) + theta * vn)

    return _fit_then_validate(
        "coercivity", n_samples,
        lambda: _by_rows(terms, sample_states(space, gen, n_samples)),
        fit, check, lambda c_fit: {"C": c_fit, "theta": theta})

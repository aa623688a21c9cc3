"""Drift and diffusion operators for the three nonlinear SPDE families.

Families
--------
* ``Porous(r, psi_scale, phi_slope)``  -- generalized diffusion with
  pointwise nonlinearity Psi(s) = psi_scale * |s|^(r-1) s, r >= 1, plus the
  linear zero-order term phi_slope * s.  Lives on the weighted space.
* ``PLaplace(p)`` -- div(|grad v|^(p-2) grad v), p >= 2, on the unweighted
  (L2) space with gamma = 1.
* ``FastDiff(r, beta0, beta_amp, beta_freq)`` -- Psi(s) = |s|^r sgn(s) with
  r in (0, 1) plus the time coefficient beta(t) = beta0 + beta_amp *
  sin(beta_freq * t).  Weighted space.

``drift_and_split_rate`` returns the Galerkin projection of A(t, v) in sine
coefficients, with the stiffness rate the time step splits off.
``pairing_drift_diff`` evaluates the dual pairing
<A(t,v1) - A(t,v2), v1 - v2> in the family's closed form (quadrature for
the pointwise products, exact spectral inversion of -L for the zero-order
terms); it is the independent route used by the inequality checkers and is
deliberately not derived from ``drift_and_split_rate``.

Diffusion coefficients B are either zero or diagonal Lipschitz maps
b_i(v) = c0 * tanh(c_i(v)) * a_i acting mode by mode, where c_i(v) is the
H-orthonormal coefficient of v (so tanh's 1-Lipschitz bound gives the
Hilbert-Schmidt Lipschitz property in the ambient metric).  B does not
depend on time, so ``b_diag`` and ``b_hs_diff`` take no t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    SpectralSpace, to_grid, from_grid, grad_to_grid, quad,
    h_inner, rowblock_matmul,
)

__all__ = [
    "Porous", "PLaplace", "FastDiff",
    "ZeroDiffusion", "LipschitzDiagonal",
    "ModelSpec", "DriftBuffers", "drift_and_split_rate", "pairing_drift_diff",
    "b_hs_diff", "b_diag", "unit_base",
    "signed_power", "beta_sup",
]


@dataclass(frozen=True)
class Porous:
    r: float
    psi_scale: float = 1.0
    phi_slope: float = 0.0
    kind: str = field(default="porous", init=False, repr=False)

    def __post_init__(self):
        if self.r < 1.0:
            raise ValueError("porous family requires r >= 1")
        if self.psi_scale <= 0.0:
            raise ValueError("psi_scale must be positive")


@dataclass(frozen=True)
class PLaplace:
    p: float
    kind: str = field(default="plaplace", init=False, repr=False)

    def __post_init__(self):
        if self.p < 2.0:
            raise ValueError("p-Laplacian family requires p >= 2")

    @property
    def r(self) -> float:
        return self.p - 1.0


@dataclass(frozen=True)
class FastDiff:
    r: float
    beta0: float = 0.0
    beta_amp: float = 0.0
    beta_freq: float = 0.0
    kind: str = field(default="fastdiff", init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("fast-diffusion family requires r in (0, 1)")


@dataclass(frozen=True)
class ZeroDiffusion:
    """B = 0."""


@dataclass(frozen=True)
class LipschitzDiagonal:
    """Diagonal B with per-mode maps b_i(v) = c0 * tanh(c_i(v)) * base_i.

    ``base`` should satisfy sum base_i^2 = 1 so c0 is the Hilbert-Schmidt
    Lipschitz constant of B.
    """
    c0: float
    base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        if self.c0 < 0:
            raise ValueError("c0 must be nonnegative")


def unit_base(n_modes: int, decay: float = 1.0) -> np.ndarray:
    """Convenience normalized amplitude profile a_i ~ i^-decay."""
    a = np.arange(1, n_modes + 1, dtype=float) ** (-decay)
    return a / np.sqrt(np.sum(a * a))


@dataclass(frozen=True)
class ModelSpec:
    family: Porous | PLaplace | FastDiff
    b_spec: ZeroDiffusion | LipschitzDiagonal = ZeroDiffusion()
    theta: float | None = None
    # resolved once: False means B = 0 and the diffusion channel is unused
    has_diffusion: bool = field(init=False, repr=False, compare=False)
    # resolved once: True when A(v) = -L v, so the exponential split with
    # mu = 1 leaves an exactly zero residual (porous r = 1, psi_scale = 1,
    # phi_slope = 0)
    exact_split: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "has_diffusion",
                           not isinstance(self.b_spec, ZeroDiffusion))
        fam = self.family
        object.__setattr__(self, "exact_split", (
            fam.kind == "porous" and fam.r == 1.0 and fam.psi_scale == 1.0
            and fam.phi_slope == 0.0))


def signed_power(s: np.ndarray, r: float, out: np.ndarray | None = None,
                 abs_s: np.ndarray | None = None):
    """|s|^(r-1) s for r >= 1, |s|^r sgn(s) for r in (0,1); same formula.

    ``out``, which must not overlap ``s``, receives the result.  Without
    it the operator forms let numpy reuse their temporaries for the result.
    ``abs_s``, when given, must hold |s|; it may be ``out``.
    """
    if r == 2.0:
        # same values as the general formula, without a pow per element
        if out is None:
            return s * (np.abs(s) if abs_s is None else abs_s)
        if abs_s is None:
            abs_s = np.abs(s, out=out)
        return np.multiply(s, abs_s, out=out)
    if out is None:
        return np.sign(s) * (np.abs(s) if abs_s is None else abs_s) ** r
    return np.multiply(np.sign(s), (np.abs(s) if abs_s is None else abs_s) ** r,
                       out=out)


def beta_value(family: FastDiff, t: float) -> float:
    return family.beta0 + family.beta_amp * np.sin(family.beta_freq * t)


def beta_sup(family: FastDiff) -> float:
    return family.beta0 + abs(family.beta_amp)


def _row_max(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.max(a, axis=-1, out=out) by one reduceat over a's flat buffer: the
    same values (max is exact; NaN propagates alike) at about half the cost.
    """
    # a reduceat over a copy would not fill ``out``; 1-D or empty input
    # has no rows to split
    if a.ndim < 2 or a.size == 0 or not (a.flags.c_contiguous
                                         and out.flags.c_contiguous):
        return np.max(a, axis=-1, out=out)
    np.maximum.reduceat(a.reshape(-1), np.arange(0, a.size, a.shape[-1]),
                        out=out.reshape(-1))
    return out


class DriftBuffers:
    """Arrays one drift evaluation of (*lead, N) states writes into.

    ``drift`` (*lead, N) receives the result.  The scratch arrays,
    ``scratch`` (*lead, N), ``grid`` and ``grid2`` (*lead, M+2) and ``amp``
    (*lead,), are those of ``shared`` when given: evaluations run one after
    another may share them.
    """
    __slots__ = ("drift", "scratch", "grid", "grid2", "amp")

    def __init__(self, space: SpectralSpace, lead: tuple,
                 shared: DriftBuffers | None = None):
        coeffs = tuple(lead) + (space.n_modes,)
        self.drift = np.empty(coeffs)
        if shared is not None:
            self.scratch, self.grid = shared.scratch, shared.grid
            self.grid2, self.amp = shared.grid2, shared.amp
            return
        grid = tuple(lead) + (space.nodes.size,)
        self.scratch = np.empty(coeffs)
        self.grid = np.empty(grid)
        self.grid2 = np.empty(grid)
        self.amp = np.empty(tuple(lead))


def drift_and_split_rate(space: SpectralSpace, model: ModelSpec, t: float,
                         v: np.ndarray, *, out: DriftBuffers | None = None):
    """Galerkin drift plus the per-path stiffness rate used for splitting.

    The rate mu is the largest pointwise slope of the nonlinearity over the
    realized field values, so that A(v) + mu L v has a non-amplifying
    explicit residual; the exponential integrator treats -mu L exactly.
    For the linear cases (porous r = 1, p = 2) the split is exact, the
    residual vanishes and mu is one scalar (psi_scale, or 1 for p = 2)
    shared by every path; otherwise mu is a fresh (*lead,) array.  The
    drift is written into ``out.drift`` (fresh buffers when ``out`` is
    None).
    """
    fam = model.family
    v = np.asarray(v, dtype=float)
    buf = out if out is not None else DriftBuffers(space, v.shape[:-1])
    dr = buf.drift
    if fam.kind == "plaplace":
        dg = grad_to_grid(space, v, buf.grid)
        if fam.p == 2.0:
            w = dg
            mu = 1.0
        else:
            w = np.multiply(np.abs(dg) ** (fam.p - 2.0), dg, out=buf.grid2)
            mu = (fam.p - 1.0) * _row_max(np.abs(dg), buf.amp) ** (fam.p - 2.0)
        # <A(v), e_i> = -m(w * e_i') by integration by parts
        np.multiply(w, space.quad_w, out=buf.grid2)
        return np.negative(rowblock_matmul(buf.grid2, space.dsine.T, dr),
                           out=dr), mu
    if fam.kind == "porous" and fam.r == 1.0:
        psi = np.multiply(fam.psi_scale, v, out=dr)
        mu = float(fam.psi_scale)
    elif fam.kind in ("porous", "fastdiff"):
        g = to_grid(space, v, buf.grid)
        abs_g = np.abs(g, out=buf.grid2)
        amp = _row_max(abs_g, buf.amp)
        nonlin = signed_power(g, fam.r, out=buf.grid2, abs_s=abs_g)
        if fam.kind == "porous":
            if fam.psi_scale != 1.0:
                np.multiply(fam.psi_scale, nonlin, out=nonlin)
            mu = fam.psi_scale * fam.r * amp ** (fam.r - 1.0)
        else:
            # slope at the largest amplitude; unbounded slopes near zero
            # are cut off by the amplitude itself (drift is bounded there)
            with np.errstate(divide="ignore"):
                mu = np.where(amp > 0.0, fam.r * amp ** (fam.r - 1.0), 0.0)
        psi = from_grid(space, nonlin, dr)
    else:
        raise ValueError(f"unknown family: {fam!r}")
    zero_order = fam.phi_slope if fam.kind == "porous" else beta_value(fam, t)
    # -lambda * psi + zero_order * v
    np.multiply(-space.lambdas, psi, out=dr)
    return np.add(dr, np.multiply(zero_order, v, out=buf.scratch), out=dr), mu


def pairing_drift_diff(space: SpectralSpace, model: ModelSpec, t: float,
                       v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Dual pairing <A(t,v1) - A(t,v2), v1 - v2> in closed form."""
    fam = model.family
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    d = v1 - v2
    if fam.kind == "plaplace":
        dg1 = grad_to_grid(space, v1)
        dg2 = grad_to_grid(space, v2)
        if fam.p == 2.0:
            w1, w2 = dg1, dg2
        else:
            w1 = np.abs(dg1) ** (fam.p - 2.0) * dg1
            w2 = np.abs(dg2) ** (fam.p - 2.0) * dg2
        return -quad(space, (w1 - w2) * (dg1 - dg2))
    g1 = to_grid(space, v1)
    g2 = to_grid(space, v2)
    if fam.kind == "porous":
        psi_term = fam.psi_scale * quad(
            space, (signed_power(g1, fam.r) - signed_power(g2, fam.r)) * (g1 - g2))
        zero_order = fam.phi_slope
    else:  # fastdiff
        psi_term = quad(
            space, (signed_power(g1, fam.r) - signed_power(g2, fam.r)) * (g1 - g2))
        zero_order = beta_value(fam, t)
    # the zero-order term pairs through (-L)^-1, i.e. the weighted metric
    return -psi_term + zero_order * np.sum(d * d / space.lambdas, axis=-1)


def b_diag(space: SpectralSpace, model: ModelSpec, v: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Per-mode diffusion amplitudes b_i(v); zeros for the zero spec.

    ``out``, an array shaped like v, receives the amplitudes.
    """
    spec = model.b_spec
    v = np.asarray(v, dtype=float)
    if not model.has_diffusion:
        if out is None:
            return np.zeros_like(v)
        out.fill(0.0)
        return out
    # c0 * tanh(sqrt(w) v) * base, in that order
    c = np.tanh(np.multiply(space.root_h_weights, v, out=out), out=out)
    return np.multiply(np.multiply(spec.c0, c, out=c), spec.base, out=c)


def b_hs_diff(space: SpectralSpace, model: ModelSpec,
              v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norm of B(v1) - B(v2) at truncation."""
    if not model.has_diffusion:
        v1 = np.asarray(v1, dtype=float)
        return np.zeros(v1.shape[:-1])
    db = b_diag(space, model, v1) - b_diag(space, model, v2)
    return np.sqrt(np.sum(db * db, axis=-1))

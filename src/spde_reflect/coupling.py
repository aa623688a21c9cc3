"""Cutoff, regularized reflection, and the coupled diffusion increments.

The reflection operator used by the coupled system is built from
a = (Q + I/n)^-1 (u - v), acting diagonally on mode coefficients
(mode i of a is (q_i + 1/n)^-1 (u_i - v_i)).  sigma_n is the rank-one
orthogonal projection onto span{a} in the ambient H metric of the active
space, so I - 2 sigma_n is an H-isometric involution and the reflected
noise channel keeps its law.

The cutoff h gates the reflection on the H-distance: h(s) = 0 for
s <= 1/2 and h(s) = 1 for s >= 1.  On the middle interval we use
h(s) = sin(pi/2 * S(2s - 1)) with the smoothstep S(u) = 3u^2 - 2u^3, which
makes both h and sqrt(1 - h^2) continuously differentiable with bounded
derivative (both one-sided derivatives vanish at the seams).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import SpectralSpace, h_inner, h_norm, q_norm

__all__ = [
    "CouplingParams",
    "cutoff_h", "cutoff_h_prime", "sqrt1mh2", "sqrt1mh2_prime",
    "cutoff_h_prime_sup",
    "sigma_n_apply", "reflect_apply", "coupled_diffusion_increments",
    "reflection_direction", "i_n_value", "reflection_qv_rate",
    "qv_rate_lower_bound",
]


@dataclass(frozen=True)
class CouplingParams:
    """Regularization level n and numerical gluing tolerance.

    Reflection is active only while the H-distance exceeds 1/(2n); the
    coupling time tau_n is recorded when it drops to 1/n; trajectories are
    glued once it drops to glue_eps.
    """
    n: int
    glue_eps: float = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.glue_eps < 0.5 / self.n:
            raise ValueError("glue_eps must lie in (0, 1/(2n))")


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_prime(u):
    return 6.0 * u * (1.0 - u)


def cutoff_h(s):
    """Cutoff value h(s); s must be nonnegative (scalar or array)."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("cutoff argument must be nonnegative")
    u = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return np.sin(0.5 * np.pi * _smoothstep(u))


def cutoff_h_prime(s):
    """Derivative h'(s) (zero outside the transition band)."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("cutoff argument must be nonnegative")
    inside = (s > 0.5) & (s < 1.0)
    u = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    val = np.pi * _smoothstep_prime(u) * np.cos(0.5 * np.pi * _smoothstep(u))
    return np.where(inside, val, 0.0)


def sqrt1mh2(s):
    """sqrt(1 - h(s)^2) = cos(pi/2 * S(2s-1)) on the band; C^1 as well."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("cutoff argument must be nonnegative")
    u = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return np.cos(0.5 * np.pi * _smoothstep(u))


def sqrt1mh2_prime(s):
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("cutoff argument must be nonnegative")
    inside = (s > 0.5) & (s < 1.0)
    u = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    val = -np.pi * _smoothstep_prime(u) * np.sin(0.5 * np.pi * _smoothstep(u))
    return np.where(inside, val, 0.0)


def cutoff_h_prime_sup() -> float:
    """Supremum of |h'|, evaluated once on a dense grid (cached)."""
    global _H_PRIME_SUP
    if _H_PRIME_SUP is None:
        s = np.linspace(0.5, 1.0, 2_000_001)
        _H_PRIME_SUP = float(np.max(np.abs(cutoff_h_prime(s))))
    return _H_PRIME_SUP


_H_PRIME_SUP = None


def reflection_direction(space: SpectralSpace, u: np.ndarray, v: np.ndarray,
                         n: int) -> np.ndarray:
    """a = (Q + I/n)^-1 (u - v), mode i scaled by (q_i + 1/n)^-1."""
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    d /= space.q_coeffs + 1.0 / n
    return d


def sigma_n_apply(space: SpectralSpace, u: np.ndarray, v: np.ndarray,
                  n: int, w: np.ndarray) -> np.ndarray:
    """Rank-one H-orthogonal projection of w onto the regularized direction.

    Contract: u != v (the caller gates on the cutoff, which vanishes on the
    diagonal).
    """
    a = reflection_direction(space, u, v, n)
    na2 = h_inner(space, a, a)
    if np.any(na2 == 0.0):
        raise ValueError("sigma_n is undefined on the diagonal u = v")
    coef = h_inner(space, a, np.asarray(w, dtype=float)) / na2
    return np.multiply(np.asarray(coef)[..., None], a, out=a)


def reflect_apply(space: SpectralSpace, u: np.ndarray, v: np.ndarray,
                  n: int, w: np.ndarray) -> np.ndarray:
    """(I - 2 sigma_n(u, v)) w: H-isometric involution."""
    w = np.asarray(w, dtype=float)
    s = sigma_n_apply(space, u, v, n, w)
    return np.subtract(w, np.multiply(2.0, s, out=s), out=s)


def coupled_diffusion_increments(space: SpectralSpace, model, params: CouplingParams,
                                 x: np.ndarray, y: np.ndarray, t: float,
                                 dW1: np.ndarray, dW2: np.ndarray,
                                 dW3: np.ndarray, *, dist: np.ndarray | None = None,
                                 out=None):
    """Noise increments of the coupled pair for one time step.

    ``dW1, dW2, dW3`` are independent N(0, dt) coefficient vectors of the
    three driving channels (length N, leading batch axes allowed).  Returns
    the additive increments received by x and y in sine coefficients:
    channel 2 is shared, channel 3 is reflected for y whenever the cutoff is
    active, and channel 1 passes through the state-dependent diagonal B.
    Below the reflection band (h = 0) channel 3 drops out entirely, so with
    identical B the two increments coincide (synchronous regime); ``dW3``
    is read only on rows inside the band.  Without diffusion
    (``model.has_diffusion`` false) channel 1 is unused and ``dW1`` may be
    None.  ``dist`` is |x - y|_H when the caller already has it; ``out`` is
    an optional pair of arrays that receive (dx, dy).
    """
    from .models import b_diag
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if dist is None:
        dist = h_norm(space, x - y)
    root_w = np.sqrt(space.h_weights)
    q = space.q_coeffs
    dx, dy = out if out is not None else (np.empty(x.shape), np.empty(x.shape))
    # cylindrical increments on H, expressed in sine coefficients.  Where
    # h = 0, q * 1.0 * z2 + (q * 0.0) * z3 is q * z2 to the bit unless
    # q * z2 is -0.0.
    np.multiply(q, np.divide(dW2, root_w, out=dx), out=dx)
    np.copyto(dy, dx)
    s = params.n * np.asarray(dist)
    band = ~(s <= 0.5)               # h > 0, or a NaN distance (failed row)
    if np.any(band):
        # on the band rows, shared + q * h * z3 with shared = q * g * z2;
        # products and sums are formed in place
        h = cutoff_h(s[band])[..., None]
        g = np.sqrt(np.clip(1.0 - h * h, 0.0, None))
        qh = q * h
        shared = np.asarray(dW2, dtype=float)[band]
        np.multiply(q * g, np.divide(shared, root_w, out=shared), out=shared)
        z3 = np.asarray(dW3, dtype=float)[band]
        z3 /= root_w
        dx[band] = shared + qh * z3
        active = h[..., 0] > 0.0
        if np.all(active):
            z3 = reflect_apply(space, x[band], y[band], params.n, z3)
        elif np.any(active):       # NaN (failed) rows are not reflected
            z3[active] = reflect_apply(space, x[band][active],
                                       y[band][active], params.n, z3[active])
        dy[band] = np.add(shared, np.multiply(qh, z3, out=z3), out=z3)
    if model.has_diffusion:
        z1 = np.asarray(dW1, dtype=float) / root_w
        dx += b_diag(space, model, t, x) * z1
        dy += b_diag(space, model, t, y) * z1
    return dx, dy


def _qn_quantities(space: SpectralSpace, v: np.ndarray, n: int):
    v = np.asarray(v, dtype=float)
    w = space.h_weights
    qn_inv = v / (space.q_coeffs + 1.0 / n)          # Q_n^-1 v
    qqn = space.q_coeffs * qn_inv                    # Q Q_n^-1 v
    nv2 = np.sum(w * v * v, axis=-1)
    nqn2 = np.sum(w * qn_inv * qn_inv, axis=-1)
    nqqn2 = np.sum(w * qqn * qqn, axis=-1)
    ip = np.sum(w * qqn * v, axis=-1)                # <Q Q_n^-1 v, v>
    return nv2, nqn2, nqqn2, ip


def i_n_value(space: SpectralSpace, v: np.ndarray, n: int) -> np.ndarray:
    """Drift correction I_n(v) of the reflected distance process.

    Computable form
    2 h(n|v|)^2 / (|v| |Q_n^-1 v|^2) * (|Q Q_n^-1 v|^2 - <Q Q_n^-1 v, v>^2/|v|^2),
    bounded by 2 sup|h'|^2 |v|.
    """
    nv2, nqn2, nqqn2, ip = _qn_quantities(space, v, n)
    nv = np.sqrt(nv2)
    h = cutoff_h(n * nv)
    return 2.0 * h * h / (nv * nqn2) * (nqqn2 - ip * ip / nv2)


def reflection_qv_rate(space: SpectralSpace, v: np.ndarray, n: int) -> np.ndarray:
    """Quadratic-variation rate of the reflection martingale at full cutoff."""
    nv2, nqn2, _, ip = _qn_quantities(space, v, n)
    return 4.0 * ip * ip / (nv2 * nqn2)


def qv_rate_lower_bound(space: SpectralSpace, v: np.ndarray, n: int) -> np.ndarray:
    """Lower bound 2 |v|^2 / |v|_Q^2 - 4/n^2 on the reflection rate."""
    nv = h_norm(space, v)
    nq = q_norm(space, v)
    return 2.0 * (nv / nq) ** 2 - 4.0 / n ** 2

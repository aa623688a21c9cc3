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

The coupled increments work on the rows inside the band only: the step
lends them scratch (the idle grid buffer of its drift) into which those
rows are gathered, and the reflection is applied there in place.
``coupled_diffusion_increments`` forms the cutoff and the row views once
per call, over every band row; its loop over slabs of ``_BAND_SLAB`` rows
then only gathers, multiplies, reflects and scatters.  Every band row is
reflected: h is positive on each finite one, and a failed row (a NaN
distance, which puts it in the band) reflects to NaN.
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
    "i_n_value", "reflection_qv_rate", "qv_rate_lower_bound",
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


def _band(s):
    """u = clip(2s - 1, 0, 1) and the open band 1/2 < s < 1, for s >= 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("cutoff argument must be nonnegative")
    return np.clip(2.0 * s - 1.0, 0.0, 1.0), (s > 0.5) & (s < 1.0)


def cutoff_h(s):
    """Cutoff value h(s); s must be nonnegative (scalar or array)."""
    u, _ = _band(s)
    return np.sin(0.5 * np.pi * _smoothstep(u))


def cutoff_h_prime(s):
    """Derivative h'(s) (zero outside the transition band)."""
    u, inside = _band(s)
    val = np.pi * _smoothstep_prime(u) * np.cos(0.5 * np.pi * _smoothstep(u))
    return np.where(inside, val, 0.0)


def sqrt1mh2(s):
    """sqrt(1 - h(s)^2) = cos(pi/2 * S(2s-1)) on the band; C^1 as well."""
    u, _ = _band(s)
    return np.cos(0.5 * np.pi * _smoothstep(u))


def sqrt1mh2_prime(s):
    u, inside = _band(s)
    val = -np.pi * _smoothstep_prime(u) * np.sin(0.5 * np.pi * _smoothstep(u))
    return np.where(inside, val, 0.0)


def cutoff_h_prime_sup() -> float:
    """Supremum of |h'|: its maximum over a dense grid of the band (cached).

    The grid is ``np.linspace(0.5, 1.0, 2_000_001)``, but only two parts of
    it are evaluated.  |h'| rises and then falls on the band, so the 2,001
    coarse points (every 1000th) locate the peak to within one coarse step,
    and the maximum over the at most 4,001 points within 2000 of that
    coarse maximum is the maximum over the whole grid.
    """
    global _H_PRIME_SUP
    if _H_PRIME_SUP is None:
        coarse = _band_grid(np.arange(0, _GRID_STEPS + 1, 1000, dtype=float))
        peak = 1000 * int(np.argmax(np.abs(cutoff_h_prime(coarse))))
        near = _band_grid(np.arange(max(peak - 2000, 0),
                                    min(peak + 2001, _GRID_STEPS + 1),
                                    dtype=float))
        _H_PRIME_SUP = float(np.max(np.abs(cutoff_h_prime(near))))
    return _H_PRIME_SUP


_H_PRIME_SUP = None
_GRID_STEPS = 2_000_000
_BAND_SLAB = 1_024    # band rows per slab of coupled_diffusion_increments


def _band_grid(k: np.ndarray) -> np.ndarray:
    """Points k of ``np.linspace(0.5, 1.0, _GRID_STEPS + 1)``, formed as
    linspace forms them: k * step + 0.5, and the last point exactly 1.0."""
    s = k * (0.5 / _GRID_STEPS) + 0.5
    s[k == _GRID_STEPS] = 1.0
    return s


def reflection_direction(space: SpectralSpace, u: np.ndarray, v: np.ndarray,
                         n: int, out: np.ndarray | None = None) -> np.ndarray:
    """a = (Q + I/n)^-1 (u - v), mode i scaled by (q_i + 1/n)^-1.

    ``out`` receives a and may be u or v itself.
    """
    d = np.subtract(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                    out=out)
    return np.divide(d, space.q_coeffs + 1.0 / n, out=d)


def sigma_n_apply(space: SpectralSpace, u: np.ndarray, v: np.ndarray,
                  n: int, w: np.ndarray, *, scratch=None) -> np.ndarray:
    """Rank-one H-orthogonal projection of w onto the regularized direction.

    Contract: u != v (the caller gates on the cutoff, which vanishes on the
    diagonal).  ``scratch``, a pair of arrays shaped like w, receives the
    direction (and so the result) and the inner-product terms; the pair
    may be u and v themselves, which are read before either is written.
    """
    a, terms = scratch if scratch is not None else (None, None)
    a = reflection_direction(space, u, v, n, out=a)
    na2 = h_inner(space, a, a, scratch=terms)
    if np.any(na2 == 0.0):
        raise ValueError("sigma_n is undefined on the diagonal u = v")
    coef = h_inner(space, a, np.asarray(w, dtype=float), scratch=terms) / na2
    return np.multiply(np.asarray(coef)[..., None], a, out=a)


def reflect_apply(space: SpectralSpace, u: np.ndarray, v: np.ndarray,
                  n: int, w: np.ndarray, *, out: np.ndarray | None = None,
                  scratch=None) -> np.ndarray:
    """(I - 2 sigma_n(u, v)) w: H-isometric involution.

    ``out`` receives the result and may be w itself; ``scratch`` is as for
    :func:`sigma_n_apply`.
    """
    w = np.asarray(w, dtype=float)
    s = sigma_n_apply(space, u, v, n, w, scratch=scratch)
    return np.subtract(w, np.multiply(2.0, s, out=s),
                       out=s if out is None else out)


def coupled_diffusion_increments(space: SpectralSpace, model, params: CouplingParams,
                                 x: np.ndarray, y: np.ndarray,
                                 dW1: np.ndarray, dW2: np.ndarray,
                                 dW3: np.ndarray | None, *, dist: np.ndarray | None = None,
                                 out=None, scratch: np.ndarray | None = None):
    """Noise increments of the coupled pair for one time step.

    ``dW1, dW2, dW3`` are independent N(0, dt) coefficient vectors of the
    three driving channels (length N, leading batch axes allowed).  Returns
    the additive increments received by x and y in sine coefficients:
    channel 2 is shared, channel 3 is reflected for y whenever the cutoff is
    active, and channel 1 passes through the state-dependent diagonal B.
    Below the reflection band (h = 0) channel 3 drops out entirely, so with
    identical B the two increments coincide (synchronous regime); ``dW3``
    is read only on rows inside the band.  ``dW3`` None means no band (the
    synchronous coupling): channel 3 is dropped on every row and ``dist``
    is not read.  Without diffusion
    (``model.has_diffusion`` false) channel 1 is unused and ``dW1`` may be
    None.  ``dist`` is |x - y|_H when the caller already has it; ``out`` is
    an optional pair of contiguous arrays shaped like x that receive
    (dx, dy).  ``scratch``, a contiguous float array of at least 4 N values
    per row of x, holds the rows inside the band while they are worked on,
    ``_BAND_SLAB`` rows at a time (a fresh array when None), and then
    channel 1 and the B term.  ``y`` None (every pair glued) forms dx only,
    without channel 3.
    """
    from .models import b_diag
    x = np.asarray(x, dtype=float)
    root_w = space.root_h_weights
    q = space.q_coeffs
    dx, dy = out if out is not None else (np.empty(x.shape), np.empty(x.shape))
    y = None if y is None else np.asarray(y, dtype=float)
    if dW3 is None or y is None:
        s = np.zeros(x.shape[:-1])       # no band: h = 0 on every row
    else:
        s = params.n * np.asarray(h_norm(space, x - y) if dist is None else dist)
    band = np.flatnonzero(~(s <= 0.5))   # h > 0, or a NaN distance (failed row)
    if band.size < s.size:
        # cylindrical increments on H, expressed in sine coefficients.
        # Where h = 0, q * 1.0 * z2 + (q * 0.0) * z3 is q * z2 to the bit
        # unless q * z2 is -0.0.
        np.multiply(q, np.divide(dW2, root_w, out=dx), out=dx)
        if y is not None:
            np.copyto(dy, dx)
    if band.size:
        # on the band rows dx = shared + q h z3 and dy = shared + q h
        # (I - 2 sigma_n) z3, with shared = q g z2.  The cutoff and the
        # (-1, N) row views are formed once; the rows are then gathered
        # into four (B, N) slabs of the scratch, _BAND_SLAB at a time, so
        # that the scratch touched stays small.  Each value is row-local
        # and comes from the operations of the full formula, in its order,
        # so the bits do not depend on the slab.
        n_modes = space.n_modes
        xs, ys, dxs, dys, w2, w3 = (np.asarray(a, dtype=float).reshape(
            -1, n_modes) for a in (x, y, dx, dy, dW2, dW3))
        # h lies in (0, 1] on a finite band row (at least 2.3e-31 where
        # n |x - y|_H is the smallest double above 1/2), and is NaN on a
        # failed one, whose increments the reflection leaves NaN
        h = cutoff_h(s.reshape(-1)[band])[:, None]
        g = np.sqrt(1.0 - h * h)
        k = min(band.size, _BAND_SLAB)
        slabs = (np.empty(4 * k * n_modes) if scratch is None else
                 scratch).reshape(-1)[:4 * k * n_modes].reshape(4, k, n_modes)
        for lo in range(0, band.size, k):
            rows, hk, gk = band[lo:lo + k], h[lo:lo + k], g[lo:lo + k]
            shared, z3, u, v = slabs[:, :rows.size]
            # shared = q * g * z2, with z2 = dW2 / root_w held in z3's slab
            z2 = np.divide(np.take(w2, rows, axis=0, out=z3, mode="clip"),
                           root_w, out=z3)
            np.multiply(np.multiply(q, gk, out=shared), z2, out=shared)
            np.divide(np.take(w3, rows, axis=0, out=z3, mode="clip"), root_w,
                      out=z3)
            # dx = shared + q * h * z3
            qhz = np.multiply(np.multiply(q, hk, out=u), z3, out=u)
            dxs[rows] = np.add(shared, qhz, out=qhz)
            reflect_apply(space, np.take(xs, rows, axis=0, out=u, mode="clip"),
                          np.take(ys, rows, axis=0, out=v, mode="clip"),
                          params.n, z3, out=z3, scratch=(u, v))
            # dy = shared + q * h * z3, z3 now reflected
            qhz = np.multiply(np.multiply(q, hk, out=u), z3, out=u)
            dys[rows] = np.add(shared, qhz, out=qhz)
    if model.has_diffusion:
        # the band rows are done, so the scratch holds z1 and the B term
        if scratch is None:
            scratch = np.empty(2 * x.size)
        z1, bz = scratch.reshape(-1)[:2 * x.size].reshape((2,) + x.shape)
        np.divide(dW1, root_w, out=z1)
        dx += np.multiply(b_diag(space, model, x, out=bz), z1, out=bz)
        if y is not None:
            dy += np.multiply(b_diag(space, model, y, out=bz), z1, out=bz)
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

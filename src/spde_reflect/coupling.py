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
    """Supremum of |h'|: its maximum over a dense grid of the band (cached).

    |h'| rises and then falls on the band, so every 1000th grid point
    locates the peak to within one coarse step, and the maximum over the
    2000 grid points on either side of that coarse maximum is the maximum
    over the whole grid.
    """
    global _H_PRIME_SUP
    if _H_PRIME_SUP is None:
        s = np.linspace(0.5, 1.0, 2_000_001)
        peak = 1000 * int(np.argmax(np.abs(cutoff_h_prime(s[::1000]))))
        near = s[max(peak - 2000, 0):peak + 2001]
        _H_PRIME_SUP = float(np.max(np.abs(cutoff_h_prime(near))))
    return _H_PRIME_SUP


_H_PRIME_SUP = None


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
                                 x: np.ndarray, y: np.ndarray, t: float,
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
    per row of x, holds the rows inside the band while they are worked on
    (a fresh array when None), and then channel 1 and the B term.
    """
    from .models import b_diag
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    root_w = space.root_h_weights
    q = space.q_coeffs
    dx, dy = out if out is not None else (np.empty(x.shape), np.empty(x.shape))
    if dW3 is None:
        s = np.zeros(x.shape[:-1])       # no band: h = 0 on every row
    else:
        s = params.n * np.asarray(h_norm(space, x - y) if dist is None else dist)
    band = np.flatnonzero(~(s <= 0.5))   # h > 0, or a NaN distance (failed row)
    if band.size < s.size:
        # cylindrical increments on H, expressed in sine coefficients.
        # Where h = 0, q * 1.0 * z2 + (q * 0.0) * z3 is q * z2 to the bit
        # unless q * z2 is -0.0.
        np.multiply(q, np.divide(dW2, root_w, out=dx), out=dx)
        np.copyto(dy, dx)
    if band.size:
        _band_increments(space, params, x, y, dW2, dW3, s, band, dx, dy,
                         scratch)
    if model.has_diffusion:
        # the band rows are done, so the scratch holds z1 and the B term
        if scratch is None:
            scratch = np.empty(2 * x.size)
        z1, bz = scratch.reshape(-1)[:2 * x.size].reshape((2,) + x.shape)
        np.divide(dW1, root_w, out=z1)
        dx += np.multiply(b_diag(space, model, t, x, out=bz), z1, out=bz)
        dy += np.multiply(b_diag(space, model, t, y, out=bz), z1, out=bz)
    return dx, dy


def _band_increments(space: SpectralSpace, params: CouplingParams, x, y,
                     dW2, dW3, s, rows, dx, dy, scratch) -> None:
    """dx = shared + q h z3 and dy = shared + q h (I - 2 sigma_n) z3, with
    shared = q g z2, on the band rows ``rows`` (flat indices) of dx and dy.

    The rows are gathered into four (B, N) slabs of ``scratch``, the
    products are formed there and the results scattered; when the band
    holds every row and all of them are reflected, the inputs are read and
    the results written in place.  Every value comes from the operations
    of the full formula, in its order.
    """
    n_modes = space.n_modes
    root_w = space.root_h_weights
    q = space.q_coeffs
    x, y, dx, dy = (a.reshape(-1, n_modes) for a in (x, y, dx, dy))
    dW2, dW3 = (np.asarray(a, dtype=float).reshape(-1, n_modes)
                for a in (dW2, dW3))
    h = cutoff_h(s.reshape(-1)[rows])
    active = h > 0.0                 # NaN (failed) rows are not reflected
    n_act = int(np.count_nonzero(active))
    if n_act < rows.size:
        # reflected rows first, so that the reflection works on a prefix
        order = np.argsort(~active, kind="stable")
        rows, h = rows[order], h[order]
    whole = n_act == rows.size == x.shape[0]     # rows is 0, 1, ..., P - 1
    k = rows.size
    if scratch is None:
        scratch = np.empty(4 * k * n_modes)
    shared, z3, u, v = scratch.reshape(-1)[:4 * k * n_modes].reshape(
        4, k, n_modes)

    def gather(a, dst):
        return a if whole else np.take(a, rows, axis=0, out=dst, mode="clip")

    def combine(qhz, dst):
        # dst = shared + qhz, formed in place when every row is in the band
        if whole:
            np.add(shared, qhz, out=dst)
        else:
            dst[rows] = np.add(shared, qhz, out=qhz)

    h = h[:, None]
    g = np.sqrt(np.clip(1.0 - h * h, 0.0, None))
    # shared = q * g * z2, with z2 = dW2 / root_w held in z3's slab
    z2 = np.divide(gather(dW2, z3), root_w, out=z3)
    np.multiply(np.multiply(q, g, out=shared), z2, out=shared)
    np.divide(gather(dW3, z3), root_w, out=z3)
    # dx = shared + q * h * z3
    qhz = np.multiply(np.multiply(q, h, out=u), z3, out=u)
    combine(qhz, dx)
    if n_act:
        a = slice(0, n_act)
        xa, ya = (x, y) if whole else (
            np.take(x, rows[a], axis=0, out=u[a], mode="clip"),
            np.take(y, rows[a], axis=0, out=v[a], mode="clip"))
        reflect_apply(space, xa, ya, params.n, z3[a], out=z3[a],
                      scratch=(u[a], v[a]))
    # dy = shared + q * h * z3, z3 now reflected on the active rows
    qhz = np.multiply(np.multiply(q, h, out=u), z3, out=u)
    combine(qhz, dy)


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

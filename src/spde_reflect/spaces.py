"""Truncated spectral spaces on the unit interval.

Everything downstream works in the Dirichlet sine basis on (0, 1):
e_i(x) = sqrt(2) sin(i pi x), with -L = (-Laplace)^gamma so that the
eigenvalues are lambda_i = (pi i)^(2 gamma).  A state is simply the vector
of its L2 coefficients m(x e_i) in the first N modes (plain float arrays,
batch axes in front).

Two metrics are supported on the coefficient vector:

* weighted   -- the dual-space metric <x, y> = sum lambda_i^-1 x_i y_i
                (generalized diffusion / fast-diffusion setting),
* unweighted -- plain L2 (p-Laplacian setting).

The H-orthonormal coefficient of mode i is sqrt(w_i) x_i with
w_i = lambda_i^-1 (weighted) or 1; per-mode observables such as the
Ornstein-Uhlenbeck oracle are expressed in those coordinates.

Quadrature lives on a uniform grid of M = oversample * N interior points
plus the two boundary nodes, with trapezoidal weights under the normalized
Lebesgue measure.  On sine (and cosine) series of degree <= M the rule is
exact, which is what makes the grid round-trip an identity to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralSpace",
    "make_space",
    "h_norm",
    "h_inner",
    "q_norm",
    "v_norm",
    "to_grid",
    "from_grid",
    "grad_to_grid",
    "quad",
    "ROW_CHUNK",
    "rowblock_matmul",
]

# BLAS matrix products may round differently depending on the overall
# shape; chunking the leading axis on a fixed grid makes every transform
# bit-reproducible regardless of how a path ensemble is batched across
# workers.  The noise-block height ``integrator.BLOCK_ROWS`` is set to it.
ROW_CHUNK = 256


def rowblock_matmul(a: np.ndarray, b: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, one ROW_CHUNK-row chunk of a 2-D ``a`` at a time, into ``out``.

    ``b`` is a matrix or a vector.  The whole chunks go to numpy as one
    batched product over a (chunks, ROW_CHUNK, K) view, which makes the
    same BLAS call for each chunk as the product of that chunk alone; the
    remainder rows are one more product.  When ``a`` or ``out`` is not
    C-contiguous the chunks are multiplied one by one.
    """
    if a.ndim != 2 or a.shape[0] <= ROW_CHUNK:
        return np.matmul(a, b, out=out)
    rows = a.shape[0]
    if out is None:
        out = np.empty((rows,) + b.shape[1:])
    if a.flags.c_contiguous and out.flags.c_contiguous:
        k, rest = divmod(rows, ROW_CHUNK)
        whole = k * ROW_CHUNK
        np.matmul(a[:whole].reshape(k, ROW_CHUNK, a.shape[1]), b,
                  out=out[:whole].reshape((k, ROW_CHUNK) + b.shape[1:]))
        if rest:
            np.matmul(a[whole:], b, out=out[whole:])
    else:
        for lo in range(0, rows, ROW_CHUNK):
            np.matmul(a[lo:lo + ROW_CHUNK], b, out=out[lo:lo + ROW_CHUNK])
    return out


@dataclass(frozen=True)
class SpectralSpace:
    """Immutable container for the truncated eigen-setup.

    Built via :func:`make_space`; do not mutate the arrays.  All operations
    on states are pure functions of (space, coefficients), so instances are
    safe to share across concurrent path workers.
    """

    n_modes: int
    gamma: float
    weighted: bool
    lambdas: np.ndarray       # (N,) eigenvalues of -L, strictly increasing
    q_coeffs: np.ndarray      # (N,) per-mode noise amplitudes q_i
    nodes: np.ndarray         # (M+2,) quadrature nodes incl. both endpoints
    quad_w: np.ndarray        # (M+2,) trapezoid weights, sums to 1
    # derived matrices, filled in make_space
    sine: np.ndarray = field(default=None, repr=False)    # (N, M+2) e_i(x_j)
    dsine: np.ndarray = field(default=None, repr=False)   # (N, M+2) e_i'(x_j)
    proj: np.ndarray = field(default=None, repr=False)    # (M+2, N) weighted transpose
    # (N,) metric weights w_i of the ambient H inner product and sqrt(w_i),
    # derived from lambdas once
    h_weights: np.ndarray = field(init=False, repr=False)
    root_h_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = 1.0 / self.lambdas if self.weighted else np.ones_like(self.lambdas)
        object.__setattr__(self, "h_weights", w)
        object.__setattr__(self, "root_h_weights", np.sqrt(w))


def make_space(n_modes: int, gamma: float = 1.0, *, weighted: bool = True,
               q_amp: float = 1.0, q_decay: float = 0.75,
               oversample: int = 4) -> SpectralSpace:
    """Construct a :class:`SpectralSpace`.

    The noise spectrum is the power law q_i = q_amp * i^(-q_decay).
    ``oversample`` fixes M = oversample * N and must be at least 4 so that
    pointwise nonlinearities up to cubic order are integrated exactly.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if oversample < 4:
        raise ValueError("oversample must be >= 4 (aliasing guard)")
    idx = np.arange(1, n_modes + 1, dtype=float)
    lambdas = (np.pi * idx) ** (2.0 * gamma)
    m = oversample * n_modes
    h = 1.0 / (m + 1)
    nodes = np.linspace(0.0, 1.0, m + 2)
    quad_w = np.full(m + 2, h)
    quad_w[0] = quad_w[-1] = h / 2.0
    arg = np.pi * np.outer(idx, nodes)
    sine = np.sqrt(2.0) * np.sin(arg)
    dsine = np.sqrt(2.0) * (np.pi * idx)[:, None] * np.cos(arg)
    proj = (sine * quad_w).T
    return SpectralSpace(
        n_modes=n_modes, gamma=gamma, weighted=weighted,
        lambdas=lambdas, q_coeffs=q_amp * idx ** (-q_decay),
        nodes=nodes, quad_w=quad_w,
        sine=sine, dsine=dsine, proj=proj,
    )


def h_norm(space: SpectralSpace, x: np.ndarray,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """Ambient H-norm sqrt(sum w_i x_i^2); batches over leading axes.

    ``scratch``, an array shaped like x, receives the terms w_i x_i^2.
    """
    return np.sqrt(h_inner(space, x, x, scratch))


def h_inner(space: SpectralSpace, x: np.ndarray, y: np.ndarray,
            scratch: np.ndarray | None = None) -> np.ndarray:
    """H inner product sum w_i x_i y_i; ``scratch`` receives the terms."""
    terms = np.multiply(space.h_weights, np.asarray(x), out=scratch)
    return np.sum(np.multiply(terms, np.asarray(y), out=terms), axis=-1)


def q_norm(space: SpectralSpace, x: np.ndarray) -> np.ndarray:
    """Intrinsic noise norm sqrt(sum w_i q_i^-2 x_i^2).

    Modes with q_i = 0 (q_amp = 0, or an i^(-q_decay) that underflows) put
    x outside the noise range; the result is then +inf.  A zero coefficient on a dead
    mode contributes nothing.
    """
    x = np.asarray(x, dtype=float)
    q = space.q_coeffs
    dead = q == 0.0
    with np.errstate(divide="ignore"):
        inv_q2 = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, q) ** 2)
    val = np.sqrt(np.sum(space.h_weights * inv_q2 * x * x, axis=-1))
    if np.any(dead):
        hit = np.any((x != 0.0) & dead, axis=-1)
        val = np.where(hit, np.inf, val)
    return val


def to_grid(space: SpectralSpace, x: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the field sum_i x_i e_i at the quadrature nodes."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.n_modes:
        raise ValueError("coefficient vector has wrong length")
    return rowblock_matmul(x, space.sine, out)


def from_grid(space: SpectralSpace, g: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Project grid values back to sine coefficients (exact on span{e_1..e_N})."""
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != space.nodes.size:
        raise ValueError("grid vector has wrong length")
    return rowblock_matmul(g, space.proj, out)


def grad_to_grid(space: SpectralSpace, x: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Spatial derivative of the field at the quadrature nodes (cosine series)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.n_modes:
        raise ValueError("coefficient vector has wrong length")
    return rowblock_matmul(x, space.dsine, out)


def quad(space: SpectralSpace, values: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature of grid values under the normalized measure.

    A 2-D batch is summed ROW_CHUNK rows at a time (:func:`rowblock_matmul`),
    so a row's bits do not depend on the batch size, and each chunk's
    matrix-vector product is small enough for BLAS to run it on the
    calling thread rather than hand it to a helper thread.
    """
    return rowblock_matmul(np.asarray(values), space.quad_w)


def v_norm(space: SpectralSpace, x: np.ndarray, family) -> np.ndarray:
    """V-norm of a state for the given drift family.

    * porous family: L^(1+r) norm,
    * p-Laplacian family: L^p norm of the field plus L^p norm of its gradient,
    * fast-diffusion family: L^(1+r) norm plus the H-norm.

    Quadrature resolution is the space's responsibility (M = oversample*N);
    tolerances in callers assume oversample >= 4.
    """
    kind = getattr(family, "kind", None)
    g = to_grid(space, x)
    if kind == "plaplace":
        p = family.p
        dg = grad_to_grid(space, x)
        return quad(space, np.abs(g) ** p) ** (1.0 / p) + \
            quad(space, np.abs(dg) ** p) ** (1.0 / p)
    if kind not in ("porous", "fastdiff"):
        raise ValueError(f"unknown family: {family!r}")
    s = 1.0 + family.r
    norm = quad(space, np.abs(g) ** s) ** (1.0 / s)
    return norm + h_norm(space, x) if kind == "fastdiff" else norm

"""Euler-Maruyama time stepping for coupled trajectory pairs.

Noise
-----
All randomness comes from counter-based Philox streams keyed by
(master_seed, step_index, channel, path_block):  path p lives in block
p // BLOCK_ROWS, and because numpy fills arrays from the stream in C order,
the draws of path p never depend on how many paths follow it or on how the
work is partitioned.  Worker counts therefore cannot perturb results.

The step takes its noise from its caller: ``run_paths`` draws each step's
keyed blocks through ``gen_noise``, whole blocks from a block-aligned row.
A block's reflected channel (channel 2) is drawn only when some path of
that block starts the step inside the reflection band (n |x - y|_H > 1/2);
elsewhere the cutoff h is 0, the channel is multiplied by zero, and its
rows are left at zero instead of being drawn.  Values that are drawn are
unchanged, because a skipped block perturbs no other key.  The decision is
made per 256-path block and worker batches are block-aligned, so output
bytes stay independent of the worker count.  The diffusion channel
(channel 0) is drawn only when the model has a nonzero B.

Schemes
-------
``explicit``       x' = x + dt A(t, x) + noise
``semi_implicit``  exponential integrator on the stiff diagonal split
                   A = -mu L + (A + mu L): the factor exp(-lambda_i mu dt)
                   is applied exactly, the residual enters through
                   phi1(z) = (1 - e^-z)/z, and the additive noise carries
                   the matching exact Ornstein-Uhlenbeck variance.  For the
                   linear families the per-mode transition is exact in law,
                   which is what the oracle comparisons rely on.

When the drift is exactly -L v (``ModelSpec.exact_split``: porous r = 1,
psi_scale = 1, phi_slope = 0), the split with mu = 1 leaves a residual of
+0.0 wherever lambda_i x_i is finite and NaN where it overflows.  The
semi-implicit step then evaluates no drift and adds lambda x - lambda x,
which is the same, so the output bytes are those of the full formula.

The coupled step advances both components with shared channels per the
reflection construction, then updates stopping-time records at the new step
boundary: tau_n (distance first <= 1/n), tau_{n,delta} (first >= delta), and
the gluing time (first <= glue_eps, after which the pair is evolved as a
single trajectory and mirrored).

Every run goes through that one step and records the pair.  The
synchronous coupling is the step without the reflected channel; a
single-equation run is the synchronous run from y0 = x0, glued at t = 0,
whose steps evaluate and advance x only and copy it to y.  Overflow has one
policy: a path whose new x or y is not finite is frozen at NaN and its
first non-finite mode is recorded in ``CouplingState.fail_mode``; no step
raises on it, and ``run_paths`` reports each failed path with its time.
Its distance is NaN, which no stopping-time or gluing test passes.

Buffers
-------
A coupled step writes its intermediates into a ``StepBuffers`` set: the
keyed noise channels, the two increments, each component's drift with the
shared grid scratch of the nonlinearity, and the split factors (a later
phase of the step takes over the buffers of an earlier one).  The caller
draws the keyed blocks straight into the channel buffers, and the
increments gather the rows inside the reflection band into the grid buffer
of x's drift, which is idle until the drift is evaluated.  A linear family
(porous r = 1, p = 2) has one scalar split rate, so its split factors are
a single (N,) row that broadcasts over the paths; with an exact split
there is no drift, and x's drift buffer holds the zero residual.  At the
end of the step the glued rows are copied to y by index (when every row is
glued, y is copied from x and |x|_H checked) and the distance |x - y|_H is
computed once, in the used-up increment buffers.  It doubles as the finite
check: a non-finite coefficient makes it non-finite, so only the rows with
a non-finite distance are searched for a first bad mode.  ``run_paths``
creates one set per worker batch (and one per repack, see Workers), for
synchronous and coupled runs alike, and reuses it on every step, so the
large intermediates are not allocated and faulted in afresh on each step;
a step called without a set builds a fresh one and runs the same code.
The states a step returns are fresh arrays and alias no buffer.  Output
bytes are those of a step that allocates its temporaries: each value comes
from the same operations in the same order, and the grid transforms keep
their 256-row matmul chunks.

Workers
-------
``run_forked`` is the package's one fork: it runs the first of a list of
tasks here and each other in a forked child that pickles its value back
(without ``os.fork`` all run here in turn).  ``run_paths`` hands it one
block-aligned batch per worker, which writes into shared pages.

A batch steps only its unretired rows: a failed path retires, and with
``run_paths(retire_glued=True)`` so does a glued pair.  A batch holds one
state, of its stepped rows.  A row writes its records when it retires, or
at the horizon: its full x and y, its stopping times, and mode 1 of x and
y and the distances at every later checkpoint.  A checkpoint writes only
the unretired rows, and of their states only mode 1.  When the unretired
rows of the batch's whole 256-row chunks fit in fewer chunks, they are
packed, in batch order, into that many chunks, the last one filled up
with retired rows (stepped, never written, in the band if failed).  The
short tail chunk of the batch's last block keeps its place after them and
its order, because its rows' bits come from its own short product; a full
chunk's rows keep theirs wherever they sit in it (``tests/test_spaces.py``
asserts this of the BLAS build).  Every step draws the keyed channels in
batch layout into the first buffer set's noise grid, for the blocks
holding an unretired row and, for the reflected channel, the blocks
holding a live row in the band; until the first repack batch layout is
the step's, and after it the channels are gathered into the packed rows.
A block whose rows have all retired is not drawn, and no live row's noise
depends on the packing.  At a repack the old buffer set is dropped, but
for that noise grid, before the packed one is built.  The condition suite
in ``cli`` hands it one group of checkers per worker and, once the
mean-value pairs are drawn, one slab-aligned range of them per worker
(split by ``path_batches`` too), which the children read copy-on-write.
Both take the worker count from ``run --threads``, else the usable CPUs
(``check-conditions`` always uses the usable CPUs).
"""

from __future__ import annotations

import mmap
import os
import pickle
import traceback
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby

import numpy as np

from .spaces import ROW_CHUNK, SpectralSpace, h_norm, q_norm
from .models import ModelSpec, DriftBuffers, drift_and_split_rate
from .coupling import CouplingParams, coupled_diffusion_increments

__all__ = [
    "BLOCK_ROWS", "SimConfig", "CouplingState", "PathEnsembleRecord",
    "StepBuffers", "noise_block", "gen_noise", "philox_generator",
    "step_coupled", "make_coupling_state", "run_paths",
    "path_batches", "default_threads", "run_forked",
]

BLOCK_ROWS = ROW_CHUNK        # fixed global noise-block height (determinism contract)
_MIX_CONST = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _MIX_CONST) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _mix(*values: int) -> int:
    acc = 0
    for v in values:
        acc = _splitmix64(acc ^ (int(v) & 0xFFFFFFFFFFFFFFFF))
    return acc


def philox_generator(master_seed: int, *labels: int) -> np.random.Generator:
    """Derived stream for auxiliary sampling (inequality checkers, tests)."""
    key = [int(master_seed) & 0xFFFFFFFFFFFFFFFF, _mix(master_seed, *labels)]
    return np.random.Generator(np.random.Philox(key=key))


# one Philox per process (each forked worker has its own copy), re-keyed
# for every block: this avoids re-seeding entropy per block.  _STATE is a
# snapshot of the fresh construction's state, which no draw writes to, so
# setting it with a new key makes the stream that of a fresh construction
# with that key
_PHILOX = np.random.Philox(key=[0, 0])
_KEYED = np.random.Generator(_PHILOX)
_STATE = _PHILOX.state


def _keyed_generator(key0: int, key1: int) -> np.random.Generator:
    _STATE["state"]["key"][0] = key0
    _STATE["state"]["key"][1] = key1
    _PHILOX.state = _STATE
    return _KEYED


def noise_block(master_seed: int, step: int, channel: int, block: int,
                rows: int, n_modes: int) -> np.ndarray:
    """Standard-normal block, a pure function of its key tuple.

    The reference for the keyed streams; ``gen_noise`` draws the same values.
    """
    gen = _keyed_generator(int(master_seed) & 0xFFFFFFFFFFFFFFFF,
                           _mix(master_seed, step, 0x10 + channel, block))
    return gen.standard_normal((rows, n_modes))


def gen_noise(master_seed: int, step_index: int, n_paths: int, n_modes: int,
              dt: float, channels=(0, 1, 2), path_lo: int = 0,
              out: np.ndarray | None = None) -> np.ndarray:
    """N(0, dt) increments for paths [path_lo, path_lo + n_paths).

    Returns an array of shape (len(channels), n_paths, n_modes), written
    into ``out`` when given.  Each value is a deterministic function of
    (master_seed, path index, step_index, channel); channels are mutually
    independent streams.  The values are those of ``noise_block`` scaled
    by sqrt(dt).  ``path_lo`` must be a multiple of BLOCK_ROWS (else
    ValueError): each whole block is drawn in place into its rows of
    ``out``, which the stream fills in C order, as it fills a fresh block.
    """
    if path_lo % BLOCK_ROWS:
        raise ValueError(f"path_lo must be a multiple of {BLOCK_ROWS}")
    if out is None:
        out = np.empty((len(channels), n_paths, n_modes))
    key0 = int(master_seed) & 0xFFFFFFFFFFFFFFFF
    scale = np.sqrt(dt)
    for ci, ch in enumerate(channels):
        # noise_block's key, _mix(seed, step, 0x10 + ch, block), with the
        # prefix shared by the channel's blocks mixed once
        prefix = _mix(master_seed, step_index, 0x10 + ch)
        for r0 in range(0, n_paths, BLOCK_ROWS):
            dst = out[ci, r0:r0 + BLOCK_ROWS]
            block = (path_lo + r0) // BLOCK_ROWS
            _keyed_generator(key0, _splitmix64(prefix ^ block)).standard_normal(
                out=dst)
            dst *= scale
    return out


def _on_grid(t: float, dt: float) -> bool:
    """t is an integer multiple of dt, up to a relative tolerance of 1e-9."""
    return abs(round(t / dt) * dt - t) <= 1e-9 * max(abs(t), dt)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    n_paths: int
    master_seed: int
    checkpoint_times: tuple | None = None     # None: the horizon alone
    scheme: str = "semi_implicit"

    def __post_init__(self):
        if not 0.0 < self.dt <= self.horizon < np.inf:
            raise ValueError("need 0 < dt <= horizon < inf")
        if not _on_grid(self.horizon, self.dt):
            raise ValueError("horizon must be a multiple of dt")
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError("scheme must be semi_implicit or explicit")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        times = self.checkpoint_times
        cps = tuple(float(t) for t in ((self.horizon,) if times is None else times))
        if not cps:
            raise ValueError("checkpoint_times must be nonempty")
        if any(t < 0.0 or t > self.horizon + 1e-12 for t in cps):
            raise ValueError("checkpoint_times must lie in [0, horizon]")
        if list(cps) != sorted(cps):
            raise ValueError("checkpoint_times must be sorted")
        if not all(_on_grid(t, self.dt) for t in cps):
            raise ValueError("checkpoint_times must be multiples of dt")
        object.__setattr__(self, "checkpoint_times", cps)
        if len(set(self.checkpoint_steps())) < len(cps):
            raise ValueError("checkpoint_times collide after snapping to steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def checkpoint_steps(self) -> list:
        return [int(round(t / self.dt)) for t in self.checkpoint_times]


@dataclass
class CouplingState:
    """Batched coupled-pair state with stopping-time records.

    Arrays carry a leading path axis; a single trajectory pair is the P = 1
    case.  ``coupled`` paths satisfy x = y exactly and stay glued.  A step
    returns a new state and leaves the one it started from unchanged.
    """
    x: np.ndarray
    y: np.ndarray
    time: float
    step_index: int
    coupled: np.ndarray
    tau_n: np.ndarray            # nan until hit
    dist_at_tau_n: np.ndarray
    t_n: np.ndarray              # gluing time, nan until hit
    delta_grid: np.ndarray
    tau_delta: np.ndarray        # (P, D), nan until hit
    fail_mode: np.ndarray        # first non-finite mode once failed, else -1
    dist: np.ndarray             # H-distance at the last step boundary
                                 # (NaN once failed)

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def failed(self) -> np.ndarray:
        return self.fail_mode >= 0


def _boundary_update(params: CouplingParams, state: CouplingState,
                     dist: np.ndarray) -> None:
    """Record stopping times at the current step boundary and glue.

    ``dist`` is the H-distance |x - y|_H of the state.  A failed row's
    distance is NaN, which passes no test here.
    """
    state.dist = dist
    hit = np.isnan(state.tau_n) & (dist <= 1.0 / params.n)
    state.tau_n[hit] = state.time
    state.dist_at_tau_n[hit] = dist[hit]
    for j, delta in enumerate(state.delta_grid):
        hd = np.isnan(state.tau_delta[:, j]) & (dist >= delta)
        state.tau_delta[hd, j] = state.time
    glue = ~state.coupled & (dist <= params.glue_eps)
    if np.any(glue):
        state.y[glue] = state.x[glue]
        state.t_n[glue] = state.time
        state.coupled |= glue


def make_coupling_state(space: SpectralSpace, params: CouplingParams,
                        x0: np.ndarray, y0: np.ndarray,
                        delta_grid=()) -> CouplingState:
    x0 = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    y0 = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    if x0.shape != y0.shape:
        raise ValueError("x0 and y0 must have the same shape")
    p = x0.shape[0]
    d = len(delta_grid)
    state = CouplingState(
        x=x0, y=y0, time=0.0, step_index=0,
        coupled=np.zeros(p, dtype=bool),
        tau_n=np.full(p, np.nan), dist_at_tau_n=np.full(p, np.nan),
        t_n=np.full(p, np.nan),
        delta_grid=np.asarray(delta_grid, dtype=float),
        tau_delta=np.full((p, d), np.nan),
        fail_mode=np.full(p, -1), dist=np.full(p, np.nan),
    )
    with np.errstate(invalid="ignore", over="ignore"):
        _boundary_update(params, state, h_norm(space, x0 - y0))
    return state


class StepBuffers:
    """Arrays one coupled step of ``rows`` paths writes its intermediates into.

    ``run_paths`` creates one set per worker batch and one per repack,
    and passes it to every step of those rows (``step_coupled(...,
    work=)``); a set must not be shared between workers.
    """

    def __init__(self, space: SpectralSpace, rows: int):
        shape = (rows, space.n_modes)
        self.increments = np.empty((2,) + shape)    # dx, dy
        self.drift_x = DriftBuffers(space, (rows,))
        # y's drift is evaluated after x's, so the two share their scratch
        self.drift_y = DriftBuffers(space, (rows,), shared=self.drift_x)
        # The phases of a step run in order (noise and increments, drifts,
        # split factors, update), so later phases take over earlier buffers:
        # the keyed channels live in one grid scratch and the increments'
        # band rows in the other (M + 2 > 4 N values per row, since
        # make_space requires oversample >= 4), and the split factors in
        # the channels and the drift scratch.
        n_noise = 3 * rows * space.n_modes
        self.noise = self.drift_x.grid2.reshape(-1)[:n_noise].reshape((3,) + shape)
        self.band = self.drift_x.grid.reshape(-1)
        self.factors = (*self.noise, self.drift_x.scratch)


def _split_factors(space: SpectralSpace, dt: float, mu, out=None):
    """Exponential-integrator factors (decay, phi1, noise scale) for rate mu.

    mu is a per-path array or, for the linear families, one scalar; the
    factors have shape mu.shape + (N,), so a scalar rate gives (N,)
    factors that broadcast over the rows.  ``out``, four contiguous arrays
    of at least that size, receives the three factors in its first three
    and uses the last as scratch.
    """
    shape = np.shape(mu) + space.lambdas.shape
    if out is None:
        out = np.empty((4,) + shape)
    else:
        size = int(np.prod(shape))
        out = [a.reshape(-1)[:size].reshape(shape) for a in out]
    decay, phi1, nfac, z = out
    np.multiply(space.lambdas, np.asarray(mu)[..., None] * dt, out=z)
    # exp leaves its fast vector path for arguments below about -708, and
    # exp(-z) is 0 for z >= 746: evaluate it at -min(z, 700), then set the
    # entries with z > 700 to 0 and recompute those below 746
    np.exp(np.negative(np.minimum(z, 700.0, out=decay), out=decay), out=decay)
    big = z > 700.0
    if np.any(big):
        decay[big] = 0.0
        mid = big & (z < 746.0)
        decay[mid] = np.exp(-z[mid])
    tiny = z < 1e-12
    any_tiny = np.any(tiny)
    if any_tiny:
        np.copyto(z, 1.0, where=tiny)
    # phi1 = -expm1(-z) / z
    np.expm1(np.negative(z, out=phi1), out=phi1)
    np.divide(np.negative(phi1, out=phi1), z, out=phi1)
    # nfac = sqrt(-expm1(-2 z) / (2 z)); z is not needed afterwards
    np.expm1(np.multiply(-2.0, z, out=nfac), out=nfac)
    np.negative(nfac, out=nfac)
    np.sqrt(np.divide(nfac, np.multiply(2.0, z, out=z), out=nfac), out=nfac)
    if any_tiny:
        phi1[tiny] = 1.0
        nfac[tiny] = 1.0
    return decay, phi1, nfac


def _scheme_factors(space: SpectralSpace, config: SimConfig, mu: np.ndarray,
                    out=None):
    """(decay, dt * phi1, nfac) for the semi-implicit scheme, None for the
    explicit one; ``out`` as for _split_factors."""
    if config.scheme == "explicit":
        return None
    decay, phi1, nfac = _split_factors(space, config.dt, mu, out)
    return decay, np.multiply(config.dt, phi1, out=phi1), nfac


def _exact_split(model: ModelSpec, config: SimConfig) -> bool:
    """The semi-implicit step of a model whose split residual is exactly 0."""
    return model.exact_split and config.scheme == "semi_implicit"


def _step_core(space: SpectralSpace, dt: float, x: np.ndarray,
               dr: np.ndarray | None, mu: np.ndarray, noise: np.ndarray,
               factors, scratch: np.ndarray) -> np.ndarray:
    """The new state as a fresh array; ``dr`` and ``noise`` are overwritten.

    explicit (``factors`` None): x + dt * dr + noise;
    semi-implicit: decay * x + dt * phi1 * resid + nfac * noise with
    resid = dr + lambda * x * mu.

    ``dr`` None is the exact split (A(v) = -L v with mu = 1), where the
    residual formed from the drift is +0 wherever lambda * x is finite and
    NaN where it is not.  resid = lambda * x - lambda * x is the same, and
    so is resid in place of dt * phi1 * resid; it is formed in ``scratch``,
    an array shaped like x.
    """
    new = np.empty_like(x)
    if factors is None:
        np.add(x, np.multiply(dt, dr, out=dr), out=new)
        return np.add(new, noise, out=new)
    decay, dt_phi1, nfac = factors
    if dr is None:
        lx = np.multiply(space.lambdas, x, out=scratch)
        resid = np.subtract(lx, lx, out=lx)
    else:
        np.multiply(np.multiply(space.lambdas, x, out=new),
                    np.asarray(mu)[..., None], out=new)
        resid = np.add(dr, new, out=dr)
        resid = np.multiply(dt_phi1, resid, out=resid)
    np.add(np.multiply(decay, x, out=new), resid, out=new)
    return np.add(new, np.multiply(nfac, noise, out=noise), out=new)


def _step_noise(model: ModelSpec, config: SimConfig, step_index: int,
                path_lo: int, drawn: np.ndarray, in_band: np.ndarray | None,
                out: np.ndarray):
    """Keyed (dW1, dW2, dW3) of one step, written into out[0..2] for the
    rows [path_lo, path_lo + out.shape[1]), path_lo a multiple of
    BLOCK_ROWS.  The shared channels are drawn for the noise blocks holding
    a row of ``drawn``, the reflected one for those holding a row of
    ``in_band``; the rows of every other block are zero.  dW1 is None
    without diffusion, dW3 None when ``in_band`` is (a synchronous step)."""
    rows = out.shape[1]
    edges = [*range(0, rows, BLOCK_ROWS), rows]
    groups = [((0, 1) if model.has_diffusion else (1,), drawn)]
    if in_band is not None:
        groups.append(((2,), in_band))
    for channels, need in groups:
        dst = out[channels[0]:channels[-1] + 1]
        hits = np.logical_or.reduceat(need, edges[:-1])
        # adjacent blocks that need drawing are drawn by one call
        for hit, run in groupby(zip(edges, edges[1:], hits),
                                key=lambda e: e[2]):
            run = list(run)
            a, b = run[0][0], run[-1][1]
            if hit:
                gen_noise(config.master_seed, step_index, b - a, out.shape[2],
                          config.dt, channels=channels, path_lo=path_lo + a,
                          out=dst[:, a:b])
            else:
                dst[:, a:b] = 0.0
    return (out[0] if model.has_diffusion else None, out[1],
            None if in_band is None else out[2])


def step_coupled(space: SpectralSpace, model: ModelSpec,
                 params: CouplingParams, config: SimConfig,
                 state: CouplingState, *, noise,
                 work: StepBuffers | None = None) -> CouplingState:
    """Advance the coupled pair one step and update stopping-time records.

    The step takes its noise from its caller: ``noise`` is the rows'
    (dW1, dW2, dW3), dW1 None without diffusion; dW3 None is the
    synchronous step, which drops the reflected channel.  ``work``
    holds the step's intermediates (a fresh set when None, else one built
    for ``state.n_paths`` rows).  A path whose new x or y is not finite is
    frozen at NaN and its first non-finite mode recorded in ``fail_mode``.
    Raises ValueError when ``state.step_index`` has reached the horizon's
    step.
    """
    if state.step_index >= config.n_steps:
        raise ValueError("state is already at the horizon")
    t = state.time
    if work is None:
        work = StepBuffers(space, state.n_paths)
    dw1, dw2, dw3 = (None if a is None else
                     np.atleast_2d(np.asarray(a, dtype=float)) for a in noise)
    # y is stepped unless every pair is glued; glued rows are copied from x
    both = not state.coupled.all()
    with np.errstate(invalid="ignore", over="ignore"):
        dx_noise, dy_noise = coupled_diffusion_increments(
            space, model, params, state.x, state.y if both else None,
            dw1, dw2, dw3, dist=state.dist, out=work.increments,
            scratch=work.band)
        if _exact_split(model, config):
            # no drift to evaluate; its buffer holds the zero residual
            dr_x = dr_y = None
            mu = 1.0
        else:
            dr_x, mu = drift_and_split_rate(space, model, t, state.x,
                                            out=work.drift_x)
            if both:
                dr_y, mu_y = drift_and_split_rate(space, model, t, state.y,
                                                  out=work.drift_y)
                mu = np.maximum(mu, mu_y)
        factors = _scheme_factors(space, config, mu, work.factors)
        new_x = _step_core(space, config.dt, state.x, dr_x, mu, dx_noise,
                           factors, work.drift_x.drift)
        # the increments are used up, so their buffers serve as scratch
        diff, terms = work.increments
        if both:
            new_y = _step_core(space, config.dt, state.y, dr_y, mu, dy_noise,
                               factors, work.drift_x.drift)
            glued = np.flatnonzero(state.coupled)
            new_y[glued] = np.take(new_x, glued, axis=0,
                                   out=diff[:glued.size], mode="clip")
            diff = np.subtract(new_x, new_y, out=diff)
        else:
            new_y = new_x.copy()
        norm = h_norm(space, diff if both else new_x, terms)
        dist = norm if both else np.zeros(state.n_paths)
    # a non-finite coefficient makes the norm non-finite, so only those rows
    # are searched (a finite row whose norm overflows passes); newly broken
    # paths are frozen at NaN, and so is their distance, instead of
    # aborting the batch; failed paths keep their mode
    fail_mode = state.fail_mode.copy()
    suspect = np.flatnonzero(~np.isfinite(norm) & ~state.failed)
    if suspect.size:
        bad = ~(np.isfinite(new_x[suspect]) & np.isfinite(new_y[suspect]))
        fail_mode[suspect] = np.where(bad.any(axis=-1), np.argmax(bad, axis=-1), -1)
    failed = fail_mode >= 0
    if np.any(failed):
        new_x[failed] = np.nan
        new_y[failed] = np.nan
        dist[failed] = np.nan
    # the records are copied so that the state stepped from stays unchanged
    out = replace(state, x=new_x, y=new_y, time=t + config.dt,
                  step_index=state.step_index + 1, fail_mode=fail_mode,
                  coupled=state.coupled.copy(), tau_n=state.tau_n.copy(),
                  dist_at_tau_n=state.dist_at_tau_n.copy(),
                  t_n=state.t_n.copy(), tau_delta=state.tau_delta.copy())
    _boundary_update(params, out, dist)
    return out


@dataclass
class PathEnsembleRecord:
    """Per-path observables of a Monte Carlo run.

    At each checkpoint the record holds mode 1 of x and y and the H- and
    Q-norms of x - y over all modes.  ``x_final`` and ``y_final`` hold each
    path's full state at the step where it stopped being stepped: the step
    it retired at, else the horizon.  A retired path keeps that state at
    every later checkpoint: NaN once failed, and for a pair retired once
    glued x = y at its gluing time t_n, so that its h_dist and q_dist
    stay 0.
    """
    checkpoint_times: np.ndarray
    x_mode1: np.ndarray                  # (P, C) mode 1 of x
    y_mode1: np.ndarray
    h_dist: np.ndarray                   # (P, C) H-norm of x - y
    q_dist: np.ndarray
    x_final: np.ndarray                  # (P, N) state at the last step
    y_final: np.ndarray
    tau_n: np.ndarray
    dist_at_tau_n: np.ndarray
    t_n: np.ndarray
    coupled: np.ndarray
    delta_grid: np.ndarray
    tau_delta: np.ndarray
    failed: np.ndarray
    failures: list                       # (path, time, first non-finite mode)
    n: int

    @property
    def n_paths(self) -> int:
        return self.x_mode1.shape[0]

    @property
    def live(self) -> np.ndarray:
        return ~self.failed


def default_threads() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def path_batches(n_paths: int, threads: int | None = None,
                 block: int = BLOCK_ROWS) -> list:
    """The (lo, hi) batches of ``n_paths`` rows, one per worker, each a run
    of whole ``block``-row blocks; ``run_paths`` steps its noise blocks
    in these batches.

    Raises ValueError when ``threads`` is given and below 1.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # block-aligned, so neither the noise streams nor a split check's
    # validation slabs depend on the batching
    n_workers = threads if threads is not None else default_threads()
    n_blocks = (n_paths + block - 1) // block
    per = -(-n_blocks // max(1, min(n_workers, n_blocks)))
    return [(b0 * block, min((b0 + per) * block, n_paths))
            for b0 in range(0, n_blocks, per)]


# an array in anonymous MAP_SHARED pages, which forked workers write into
def _shared(shape, dtype=float) -> np.ndarray:
    n = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, n * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, n).reshape(shape)


def run_forked(tasks) -> list:
    """Call every zero-argument task; return their values in task order.

    The first task runs in this process and each of the others in a forked
    child, which pickles its value back through a pipe; without ``os.fork``
    the tasks run here one after another.  A task that raises in a child
    ends, once every child is reaped, in a ``RuntimeError`` that carries its
    traceback; an exception of the first task takes precedence.
    """
    # Python >= 3.12 may warn when a process with BLAS threads forks (not
    # verified: the package is tested on 3.11)
    children = []                    # [pid, read end of its result pipe]
    try:
        for task in tasks[1:] if hasattr(os, "fork") else ():
            r, w = os.pipe()
            children.append([None, r])
            try:
                pid = children[-1][0] = os.fork()
                if pid == 0:
                    try:
                        try:
                            out, status = pickle.dumps(task()), 0
                        except BaseException:
                            out, status = traceback.format_exc().encode(), 1
                        with os.fdopen(w, "wb") as fh:
                            fh.write(out)
                        os._exit(status)
                    finally:
                        os._exit(1)
            finally:
                # a later child must not hold this write end, or the pipe
                # would not reach end-of-file when this child exits
                os.close(w)
        # without os.fork no child was started, and every task runs here
        values = [task() for task in (tasks[:1] if children else tasks)]
    finally:
        # every child is reaped; its pipe is drained first, so a child
        # whose value outgrows the pipe buffer does not block
        outs, errors = [], []
        for pid, r in children:
            with os.fdopen(r, "rb") as fh:
                outs.append(fh.read())
            if pid is not None and os.waitpid(pid, 0)[1]:
                errors.append(outs[-1].decode(errors="replace")
                              or f"worker {pid} ended without a traceback")
    if errors:
        raise RuntimeError("forked worker failed:\n" + "\n".join(errors))
    return values + [pickle.loads(out) for out in outs]


# the per-path arrays of a CouplingState
_PATH_FIELDS = ("x", "y", "coupled", "tau_n", "dist_at_tau_n", "t_n",
                "tau_delta", "fail_mode", "dist")


def run_paths(space: SpectralSpace, model: ModelSpec,
              params: CouplingParams, config: SimConfig,
              which: str = "coupled", *, x0: np.ndarray, y0: np.ndarray,
              delta_grid=(), threads: int | None = None,
              retire_glued: bool = False) -> PathEnsembleRecord:
    """Monte Carlo driver: simulate all pairs and collect observables.

    ``which`` is ``"coupled"`` (reflection) or ``"synchronous"`` (shared
    noise only); ``x0`` and ``y0`` are the initial coefficient vectors of
    every path, and y0 = x0 gives the single-equation run, glued at t = 0.
    Output is a deterministic function of (config, space, model, params)
    regardless of the worker count.

    A path leaves the stepped rows once it has failed, and with
    ``retire_glued`` once it is glued; its record then keeps the state of
    the step it left at, in ``x_final`` and ``y_final`` and at every later
    checkpoint (see ``PathEnsembleRecord``).  A retired pair can no longer
    fail.  Without ``retire_glued`` a glued pair is stepped to the horizon.
    """
    if which not in ("coupled", "synchronous"):
        raise ValueError("which must be coupled or synchronous")
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    for name, v in (("x0", x0), ("y0", y0)):
        if v.shape != (space.n_modes,):
            raise ValueError(f"{name} must be a single coefficient vector")
    cps = config.checkpoint_steps()
    n_paths = config.n_paths
    n_cp = len(cps)
    times = np.array([k * config.dt for k in cps])

    x_out, y_out = _shared((2, n_paths, n_cp))
    h_out, q_out = _shared((2, n_paths, n_cp))
    # each path's final state and CouplingState records, and the time it
    # failed at
    x_fin, y_fin = _shared((2, n_paths, space.n_modes))
    final = {"x": x_fin, "y": y_fin, "fail_mode": _shared(n_paths, int),
             "tau_n": _shared(n_paths), "dist_at_tau_n": _shared(n_paths),
             "t_n": _shared(n_paths), "coupled": _shared(n_paths, bool),
             "tau_delta": _shared((n_paths, len(delta_grid)))}
    fail_time = _shared(n_paths)

    cp_index = {k: i for i, k in enumerate(cps)}

    def retired(s: CouplingState) -> np.ndarray:
        return s.failed | (s.coupled & retire_glued)

    def run_rows(lo: int, hi: int):
        rows = hi - lo
        st = make_coupling_state(space, params, np.tile(x0, (rows, 1)),
                                 np.tile(y0, (rows, 1)), delta_grid=delta_grid)
        # st steps the batch rows ``stepped``: every row in order until the
        # first repack; then the unretired rows of the whole chunks, padded
        # with retired rows to whole chunks, and after them the short tail,
        # whose rows' bits rest on its own short product and which so
        # never moves.  ``live`` marks st's rows whose records are still to
        # be written: every row at first, so that a row retiring at step 0
        # is written too.
        stepped, live = np.arange(rows), np.ones(rows, dtype=bool)
        chunks = rows // ROW_CHUNK
        work = StepBuffers(space, rows)
        # the keyed channels in batch layout: the first set's noise grid,
        # which st's rows read in place until the first repack
        noise = work.noise

        def write(pos, i, done):
            # st's rows ``pos`` into their batch rows' records: mode 1 of x
            # and y, h_dist and q_dist at checkpoint i and, for rows that
            # are ``done``, at every later one and in the final state and
            # records.  A slice reads st's arrays as they are, without a
            # gather
            out = lo + stepped[pos]
            cp = slice(i, None if done else i + 1)
            if i < n_cp:
                x, y = st.x[pos], st.y[pos]
                x_out[out, cp], y_out[out, cp] = x[:, :1], y[:, :1]
                with np.errstate(invalid="ignore", over="ignore"):
                    d = x - y
                    h_out[out, cp] = h_norm(space, d)[:, None]
                    q_out[out, cp] = q_norm(space, d)[:, None]
            if done:
                for name, arr in final.items():
                    arr[out] = getattr(st, name)[pos]

        def rows_of(mask):
            return slice(None) if mask.all() else np.flatnonzero(mask)

        def repack():
            nonlocal st, stepped, live, chunks, work
            whole = chunks * ROW_CHUNK
            kept = np.flatnonzero(live[:whole])
            chunks = -(-kept.size // ROW_CHUNK)
            pad = np.flatnonzero(~live[:whole])[:-kept.size % ROW_CHUNK]
            sel = np.concatenate([kept, pad, np.arange(whole, st.n_paths)])
            stepped, live = stepped[sel], live[sel]
            # the old set is dropped, but for its noise grid, before the
            # packed one is built
            work = None
            st = replace(st, **{f: getattr(st, f)[sel] for f in _PATH_FIELDS})
            work = StepBuffers(space, sel.size)

        def step():
            # the keyed blocks holding an unretired row are drawn in batch
            # layout, and once the batch has repacked gathered into st's
            # rows; the cutoff vanishes outside the band, so the reflected
            # channel is drawn only for blocks with a row inside it.  A
            # synchronous run has no dW3, which makes each step synchronous
            drawn = np.zeros(rows, dtype=bool)
            drawn[stepped[live]] = True
            in_band = None
            if which == "coupled":
                in_band = np.zeros(rows, dtype=bool)
                in_band[stepped] = params.n * st.dist > 0.5
            dw = _step_noise(model, config, st.step_index, lo, drawn,
                             in_band, noise)
            if work.noise is not noise:
                dw = tuple(None if a is None else
                           np.take(a, stepped, axis=0, out=b, mode="clip")
                           for a, b in zip(dw, work.noise))
            return step_coupled(space, model, params, config, st, noise=dw,
                                work=work)

        n_steps = config.n_steps
        for k in range(n_steps + 1):
            # a row that retires at this step boundary, and at the horizon
            # every row still live, writes its records once, here
            gone = live & (retired(st) | (k == n_steps))
            if np.any(gone):
                pos = rows_of(gone)
                write(pos, np.searchsorted(cps, k), True)
                fail_time[lo + stepped[pos][st.failed[pos]]] = st.time
                live[pos] = False
                # repack once a whole chunk can be freed
                n_live = np.count_nonzero(live[:chunks * ROW_CHUNK])
                if k < n_steps and -(-n_live // ROW_CHUNK) < chunks:
                    repack()
            if np.any(live):
                if k in cp_index:
                    write(rows_of(live), cp_index[k], False)
                st = step()

    run_forked([partial(run_rows, lo, hi)
                for lo, hi in path_batches(n_paths, threads)])
    failed = final["fail_mode"] >= 0
    return PathEnsembleRecord(
        checkpoint_times=times,
        x_mode1=x_out, y_mode1=y_out, h_dist=h_out, q_dist=q_out,
        x_final=x_fin, y_final=y_fin,
        tau_n=final["tau_n"], dist_at_tau_n=final["dist_at_tau_n"],
        t_n=final["t_n"], coupled=final["coupled"],
        delta_grid=np.asarray(delta_grid, dtype=float),
        tau_delta=final["tau_delta"], failed=failed,
        failures=[(int(p), float(fail_time[p]), int(final["fail_mode"][p]))
                  for p in np.flatnonzero(failed)],
        n=params.n,
    )

"""Monte Carlo integration of the diffusive collapse process.

The state of a trajectory is the odds ``o = rho00/rho11 = e^{2z}``, so
every physical update is one array kernel of a multiply or an add and
at most one ``exp``:

* **Diffusion** (measurement back-action), strength ``kappa = g*dt``,
  in :func:`_diffuse`.  The finite-step solution is a two-component
  Gaussian mixture for the dimensionless record
  ``u ~ rho00*N(+1, 1/kappa) + rho11*N(-1, 1/kappa)`` followed by
  ``o <- o*e^{2 kappa u}``.  The update composes exactly (two steps of
  kappa equal one step of 2*kappa in distribution) and keeps the
  population a martingale, which is the Born rule in this setting.

* **Relaxation**, exponent ``delta = dt/T1``, in :func:`_relax`:
  ``rho11 <- rho11*e^-delta`` is exactly the affine map
  ``o <- e^delta*o + expm1(delta)``.  The record generator, the
  reconstructor and the Fokker-Planck solver call the same kernel.

The eigenstates are o = +inf (rho00 = 1) and o = 0 (rho00 = 0):
multiplication holds them fixed, and relaxation re-enters from 0 on its
own.  A state at or past ``exp(+-2 Z_CAP)`` snaps onto them
(:func:`_snap`), which is the cap ``|z| >= Z_CAP`` of
:mod:`qtraj.core`.  The stored population is ``rho00 = 1/(1 + 1/o)``
(:func:`_rho`).

:func:`simulate_ensemble` applies them symmetrically (half relaxation,
diffusion, half relaxation), giving O(dt^2) global splitting error; both
sub-steps individually are exact.  That layout is one step loop,
:func:`_evolve`, which the record generator and the reconstructor of
:mod:`qtraj.bayesian` drive too, each passing only its middle update;
this is what makes their trajectories agree bit for bit.  The loop owns
the random draws, the scratch and the tiles; an update is plain physics.

Each kernel updates its odds in place, in scratch the loop owns: every
chunk of trajectories holds its odds, four scratch rows and a tile of
TILE rows, and a step allocates no chunk-sized array.  The ensemble is
row-major, one row per trajectory, so a step's rho00 is a column of
it; each step writes its column into the time-major tile instead, and
every TILE steps the tile goes into the ensemble at once, TILE adjacent
values (64 bytes) per trajectory where a column store would touch one
cache line per value.  Current records go through a second tile the
same way: loaded for the reconstructor, stored for the generator.

Ensembles use the counter-based streams of :mod:`qtraj.rng`: the loop
computes each chunk's trajectory keys once and draws every step's
branch uniforms and noise normals from one step hash.  Every kernel
works on each trajectory alone, so a row's bytes do not depend on the
chunk it runs in: the output is byte-identical for any worker count and
any chunk split.  :func:`_evolve` splits the trajectories into equal
chunks of at most CHUNK, as many as a multiple of the worker count, so
the workers get equal shares.  :func:`simulate_batches` yields the same
rows in blocks, so an ensemble can be written out without ever being
held in memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .core import Z_CAP, ModelParams, TrajectoryEnsemble, _mapped_empty, require_memory
from .rng import SeedSpec, _step_draws, _traj_key

__all__ = ["SeedSpec", "simulate_ensemble", "simulate_batches"]

# Trajectories are processed in chunks of at most this size.  No kernel
# mixes trajectories, so the split never changes an output byte.
CHUNK = 65536
# Steps whose rho00 a chunk holds time-major before storing them in its
# rows: 8 doubles, one cache line per trajectory.
TILE = 8


# Odds at or past these are the eigenstates o = +inf and o = 0: the caps
# z = +-Z_CAP of the log-odds coordinate.
_O_CAP = math.exp(2.0 * Z_CAP)
_O_FLOOR = math.exp(-2.0 * Z_CAP)
# log of the largest double: math.exp overflows past it
_DELTA_MAX = 709.782712893384


def _snap(o, mask=None, lower=True):
    """Snap odds at or past the caps onto the eigenstates, in place:
    ``o >= exp(2 Z_CAP)`` to +inf and, with ``lower``, ``o <= exp(-2
    Z_CAP)`` to 0.  ``mask`` is bool scratch of o's shape (new if None);
    a masked copy of a mostly-false mask costs little."""
    mask = np.greater_equal(o, _O_CAP, out=mask)
    np.copyto(o, np.inf, where=mask)
    if lower:
        np.less_equal(o, _O_FLOOR, out=mask)
        np.copyto(o, 0.0, where=mask)
    return o


def _rho(o, out=None):
    """The population ``rho00 = 1/(1 + 1/o)`` of odds ``o``, into ``out``
    (new if None): exactly 0 at o = 0 and 1 at o = +inf."""
    with np.errstate(divide="ignore", over="ignore"):
        out = np.divide(1.0, o, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _odds(x0: float) -> float:
    """The snapped odds ``x0/(1 - x0)`` of a population in [0, 1]."""
    return float(_snap(np.array([x0 / (1.0 - x0) if x0 < 1.0 else math.inf]))[0])


def _relax(o, delta: float, mask=None):
    """Exact relaxation rho11 -> rho11*e^-delta of the odds ``o``, in
    place: the affine map ``o <- e^delta*o + expm1(delta)``.  o = +inf
    stays put and o = 0 re-enters (rho00 = 0 is not absorbing under
    relaxation); a state pushed past the upper cap snaps to +inf, and
    past exp's range every state does.  ``mask`` is bool scratch for the
    snap."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        return o
    if delta > _DELTA_MAX:
        o.fill(math.inf)
        return o
    np.multiply(o, math.exp(delta), out=o)
    np.add(o, math.expm1(delta), out=o)
    return _snap(o, mask, lower=False)


def _diffuse(o, kappa: float, u, xi, tmp, mask=None):
    """Exact diffusion of the odds ``o`` in place:
    ``o <- o*exp(2 sqrt(kappa) xi - copysign(2 kappa, u - p))`` with
    ``p = rho00``, i.e. the branch +2 kappa when the uniform ``u`` falls
    below p (a draw at p takes the lower branch).  ``xi`` is a standard
    normal; ``xi`` and the float scratch ``tmp`` are overwritten.  The
    eigenstates stay fixed, whatever they draw, and states pushed past
    a cap snap onto it; kappa = 0 leaves every state unchanged."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    _rho(o, out=tmp)
    np.subtract(u, tmp, out=tmp)
    np.copysign(2.0 * kappa, tmp, out=tmp)
    np.multiply(xi, 2.0 * math.sqrt(kappa), out=xi)
    np.subtract(xi, tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.multiply(o, tmp, out=o)
    return _snap(o, mask)


def _evolve(
    n_traj: int,
    n_steps: int,
    dt: float,
    x0: float,
    delta: float,
    n_workers: int,
    update: Callable[..., None],
    master_seed: int | None,
    first: int = 0,
    *,
    load: np.ndarray | None = None,
    store: np.ndarray | None = None,
) -> TrajectoryEnsemble:
    """The one step loop: every trajectory starts at rho00 = x0 and runs
    ``n_steps`` symmetric Trotter steps relax(delta/2), ``update``,
    relax(delta/2), storing rho00 after each.

    Trajectories run in row blocks on up to ``n_workers`` threads: the
    fewest blocks of at most CHUNK rows, rounded up to a multiple of
    ``n_workers``, all of one size but the last, so every worker gets
    an equal share.  Each block's working set is its odds ``o`` and a
    ``work`` array of 4 + TILE float rows the size of the block: the
    scratch rows ``u``, ``xi``, ``tmp`` and the bool ``mask`` of the
    snaps, then the time-major tile.  Step ``s`` writes rho00 into tile
    row ``s % TILE`` after its trailing half relaxation, and after every
    TILE-th and the last step the tile's filled rows go into the block's
    next columns at once.  Every kernel writes into these arrays, so a
    step allocates no block-sized array.

    ``update(o, u, xi, tmp, mask, im)`` applies step ``s``'s middle
    update to ``o`` in place and may overwrite ``u``, ``xi``, ``tmp`` and
    ``mask``.  A step's data comes from the random streams or from the
    loaded records: without ``load``, each block computes its
    trajectories' stream keys once, and before every update ``u`` and
    ``xi`` hold the step's branch uniforms and noise normals of
    ``master_seed``.  With ``load`` or ``store``, (n_traj, n_steps)
    current arrays, ``im`` is the step's row of a second, time-major
    tile of TILE rows: filled from ``load`` every TILE steps, and stored
    into ``store`` with the rho00 tile, so an update reads the step's
    current from ``im`` or writes it there.  Otherwise ``im`` is None.  An update touches only
    its own rows, so the output does not depend on the worker count or
    the blocks.  Row ``i`` is trajectory ``first + i``, so a run split
    into row blocks gives the same rows bit for bit.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_workers < 1:
        raise ValueError(f"n_workers={n_workers} must be >= 1")
    require_memory(n_traj * (n_steps + 1) * 8,
                   f"an ensemble of {n_traj} trajectories x {n_steps + 1} slices")
    out = _mapped_empty((n_traj, n_steps + 1))
    o0 = _odds(x0)
    half = 0.5 * delta

    n_chunks = -(-n_traj // CHUNK)
    n_chunks += -n_chunks % n_workers
    size = -(-n_traj // n_chunks)

    def run(lo: int) -> None:
        rows = slice(lo, min(lo + size, n_traj))
        if load is None:
            key = _traj_key(master_seed, np.arange(first + rows.start, first + rows.stop,
                                                   dtype=np.uint64))
        o = np.full(rows.stop - rows.start, o0)
        work = np.empty((4 + TILE, o.size))
        u, xi, tmp, tile = work[0], work[1], work[2], work[4:]
        mask = work[3].view(np.bool_)[: o.size]
        recs = np.empty((TILE, o.size)) if load is not None or store is not None else None
        block = out[rows]
        block[:, 0] = _rho(o, out=u)
        for s in range(n_steps):
            j = s % TILE
            if load is not None and j == 0:
                n = min(TILE, n_steps - s)
                recs[:n] = load[rows, s : s + n].T
            im = None if recs is None else recs[j]
            _relax(o, half, mask)
            if load is None:
                _step_draws(key, s, u, xi, tmp.view(np.uint64))
            update(o, u, xi, tmp, mask, im)
            _relax(o, half, mask)
            _rho(o, out=tile[j])
            if j == TILE - 1 or s == n_steps - 1:
                block[:, s - j + 1 : s + 2] = tile[: j + 1].T
                if store is not None:
                    store[rows, s - j : s + 1] = recs[: j + 1].T

    starts = range(0, n_traj, size)
    if n_workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return TrajectoryEnsemble(n_traj=n_traj, n_steps=n_steps, dt=dt, values=out,
                              x0=x0, master_seed=master_seed)


def _simulate(params: ModelParams, n_traj: int, seeds: SeedSpec, n_workers: int,
              first: int = 0) -> TrajectoryEnsemble:
    """Rows ``first`` to ``first + n_traj`` of the simulated ensemble:
    :func:`_evolve` with diffusion on the counter streams."""
    kappa = params.kappa
    return _evolve(n_traj, params.n_steps, params.dt, params.x0, params.delta, n_workers,
                   lambda o, u, xi, tmp, mask, im: _diffuse(o, kappa, u, xi, tmp, mask),
                   seeds.master_seed, first)


def simulate_ensemble(
    params: ModelParams,
    n_traj: int,
    seeds: SeedSpec,
    n_workers: int = 1,
) -> TrajectoryEnsemble:
    """Simulate an ensemble of independent trajectories.

    Every trajectory runs ``params.n_steps`` symmetric Trotter steps from
    ``params.x0``.  Output is bit-reproducible for a fixed ``seeds``
    regardless of ``n_workers``; on any failure (including memory
    exhaustion) the exception propagates and no partial ensemble is
    returned.  An ensemble larger than the memory the system reports
    available is refused with a ValueError before any work.

    Parameters
    ----------
    params : ModelParams
    n_traj : int
        Number of trajectories (>= 1).
    seeds : SeedSpec
        Master seed; trajectory i uses the (seed, i, step) substreams.
    n_workers : int
        Thread count for chunk-parallel execution.
    """
    return _simulate(params, n_traj, seeds, n_workers)


def simulate_batches(
    params: ModelParams,
    n_traj: int,
    seeds: SeedSpec,
    n_workers: int = 1,
):
    """``simulate_ensemble(params, n_traj, seeds, n_workers).values`` as
    an iterator over consecutive row blocks of ``n_workers * CHUNK``
    trajectories, each computed when the previous one is taken.

    The blocks are bitwise the rows of the in-memory ensemble, and a
    consumer that drops each block before taking the next holds, for
    any ``n_traj``, one block of ``n_workers * CHUNK * (n_steps + 1)``
    values and each running chunk's working set: its odds, 4 scratch
    rows, TILE tile rows (:func:`_evolve`) and its stream keys.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_workers < 1:
        raise ValueError(f"n_workers={n_workers} must be >= 1")
    batch = n_workers * CHUNK
    return (_simulate(params, min(batch, n_traj - first), seeds, n_workers, first).values
            for first in range(0, n_traj, batch))

"""Monte Carlo integration of the diffusive collapse process.

A step of duration dt splits into two exactly solvable pieces, each an
array kernel over log-odds states ``z``:

* **Diffusion** (measurement back-action), strength ``kappa = g*dt``,
  in :func:`_diffusion_z`.  The finite-step solution is a two-component
  Gaussian mixture for the dimensionless record
  ``u ~ rho00*N(+1, 1/kappa) + rho11*N(-1, 1/kappa)`` followed by
  ``z <- z + kappa*u``.  The update composes exactly (two steps of kappa
  equal one step of 2*kappa in distribution) and keeps the population a
  martingale, which is the Born rule in this setting.

* **Relaxation**, exponent ``delta = dt/T1``, in :func:`_relax_z`:
  ``rho11 <- rho11*e^-delta`` exactly, evaluated in z with log1p/expm1
  so neither tail loses precision.  The record generator, the
  reconstructor and the Fokker-Planck solver call the same kernel.

:func:`simulate_ensemble` applies them symmetrically (half relaxation,
diffusion, half relaxation), giving O(dt^2) global splitting error; both
sub-steps individually are exact.  That layout is one step loop,
:func:`_evolve`, which the record generator and the reconstructor of
:mod:`qtraj.bayesian` drive too, each passing only its middle update;
this is what makes their trajectories agree bit for bit.

Each kernel writes through ``out=`` into arrays its caller owns: in
:func:`_evolve` every chunk of trajectories holds its states and four
scratch rows, and a step allocates no chunk-sized array.  Called without
``out`` the kernels return new arrays with the same bits.

Ensembles use the counter-based streams of :mod:`qtraj.rng` (each
chunk's trajectory keys computed once, one step hash shared by the
branch and noise streams) and run in the fixed trajectory chunks of
:func:`_evolve`, so the output is byte-identical for any worker count.
:func:`simulate_batches` yields the same rows in blocks of whole chunks,
so an ensemble can be written out without ever being held in memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import Z_CAP, ModelParams, TrajectoryEnsemble, require_memory, to_logodds, to_rho
from .rng import SeedSpec, _step_draws, _traj_key

__all__ = ["SeedSpec", "simulate_ensemble", "simulate_batches"]

# Trajectories are processed in fixed chunks of this size.  The chunk
# grid depends only on trajectory indices, never on the worker count,
# which keeps ensemble output byte-identical under any parallel split.
CHUNK = 65536


def _scratch(work, shape, n: int):
    """``n`` float arrays of ``shape`` to compute in: the first ``n`` rows
    of the caller's ``work``, or new ones."""
    return np.empty((n,) + shape) if work is None else work[:n]


def _relax_z(z, delta: float, out=None, work=None):
    """Exact relaxation update in log-odds coordinates (vectorized).

    Implements rho11 -> rho11 * e^-delta, i.e.
    z' = 0.5*log(expm1(delta) + exp(delta + 2 z)), in a form that is
    stable in both tails.  A state at z = +Z_CAP stays put; z = -Z_CAP
    re-enters (rho00 = 0 is not absorbing under relaxation).

    The result goes to ``out`` (a new array by default; ``z`` itself
    updates in place), computed in three rows of ``work``.  At
    ``delta == 0`` with no ``out`` nothing is computed and ``z`` itself
    is returned.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        if out is None:
            return z
        out[...] = z
        return out
    z = np.asarray(z, dtype=float)
    grow, reentry, mask = _scratch(work, z.shape, 3)
    # z >= 0: factor out exp(delta + 2z); z < 0: direct form, both are
    # sums of positive terms (no cancellation).  Both are computed and
    # one is selected: a masked ufunc costs more than the other branch.
    np.multiply(z, -2.0, out=reentry)
    np.exp(reentry, out=reentry)
    np.multiply(reentry, -math.expm1(-delta), out=reentry)
    np.log1p(reentry, out=reentry)
    np.multiply(reentry, 0.5, out=reentry)
    np.add(z, 0.5 * delta, out=grow)
    np.add(grow, reentry, out=grow)
    np.multiply(z, 2.0, out=reentry)
    np.add(reentry, delta, out=reentry)
    np.exp(reentry, out=reentry)
    np.add(reentry, math.expm1(delta), out=reentry)
    np.log(reentry, out=reentry)
    np.multiply(reentry, 0.5, out=reentry)
    _select(z >= 0.0, grow, reentry, mask.view(np.uint64))
    return np.clip(reentry, -Z_CAP, Z_CAP, out=out)


def _select(cond, a, b, tmp):
    """``b <- where(cond, a, b)`` bit for bit on float64 arrays, as a
    blend of bit patterns; ``a`` and the uint64 scratch ``tmp`` are
    overwritten.  ``np.copyto(where=)`` branches per element and costs
    about four times as much on a mask without a pattern, such as the
    sign of z across trajectories."""
    np.copyto(tmp, cond)
    np.negative(tmp, out=tmp)  # 0 or all ones
    a, b = a.view(np.uint64), b.view(np.uint64)
    np.bitwise_xor(a, b, out=a)
    np.bitwise_and(a, tmp, out=a)
    np.bitwise_xor(b, a, out=b)


def _diffusion_z(z, kappa: float, u, xi, out=None, work=None):
    """Exact diffusion update in log-odds coordinates (vectorized).

    ``u`` is a uniform in (0,1) choosing the mixture branch, ``xi`` a
    standard normal.  States at |z| >= Z_CAP are eigenstates and stay
    fixed (their draws are simply unused; counter-based streams make
    that safe).  kappa = 0 leaves every state unchanged.

    The result goes to ``out`` (a new array by default; ``z`` itself
    updates in place), computed in two rows of ``work``.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    z = np.asarray(z, dtype=float)
    znew, tmp = _scratch(work, np.broadcast(z, u, xi).shape, 2)
    np.multiply(z, 2.0, out=tmp)
    expit(tmp, out=tmp)
    # kappa * (+1 if u < p else -1), which is -copysign(kappa, u - p)
    # bit for bit (u - p is +0.0 at u == p), without a data-dependent branch
    np.subtract(u, tmp, out=znew)
    np.copysign(kappa, znew, out=znew)
    np.negative(znew, out=znew)
    np.add(z, znew, out=znew)
    np.multiply(xi, math.sqrt(kappa), out=tmp)
    np.add(znew, tmp, out=znew)
    return _hold_caps(z, znew, tmp, out)


def _hold_caps(z, znew, tmp, out):
    """Write ``znew`` clipped to +-Z_CAP to ``out`` (a new array if
    None), except that states of ``z`` at the cap keep their value:
    eigenstates stay fixed under diffusion and measurement.  ``tmp`` is
    scratch; ``znew`` is overwritten."""
    np.clip(znew, -Z_CAP, Z_CAP, out=znew)
    np.abs(z, out=tmp)
    np.copyto(znew, z, where=tmp >= Z_CAP)
    if out is None:
        out = np.empty_like(znew)
    np.copyto(out, znew)
    return out


def _evolve(
    n_traj: int,
    n_steps: int,
    dt: float,
    x0: float,
    delta: float,
    n_workers: int,
    update: Callable[[slice, np.ndarray, np.ndarray], Callable[[np.ndarray, int], None]],
    master_seed: int | None,
    first: int = 0,
) -> TrajectoryEnsemble:
    """The one step loop: every trajectory starts at rho00 = x0 and runs
    ``n_steps`` symmetric Trotter steps relax(delta/2), ``update``,
    relax(delta/2), storing rho00 after each.

    Trajectories run in fixed CHUNK-sized row blocks on up to
    ``n_workers`` threads.  Each block owns its states ``z`` and a
    scratch ``work`` of four float rows the size of the block; every
    kernel writes through ``out=`` into these, so a step allocates no
    block-sized array.  ``update(rows, traj, work)`` is called once per
    block (a slice of rows, with trajectory indices ``traj``) and
    returns ``step(z, s)``, which applies the middle update of step
    ``s`` to ``z`` in place and may overwrite ``work``; per-block
    constants such as the trajectories' random-stream keys are computed
    there once.  An update touches only its own rows, so the output does
    not depend on the worker count.  Row ``i`` is trajectory
    ``first + i``; with ``first`` a multiple of CHUNK the blocks are
    those of one run over all trajectories, so a run split into row
    blocks gives the same rows bit for bit.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    require_memory(n_traj * (n_steps + 1) * 8,
                   f"an ensemble of {n_traj} trajectories x {n_steps + 1} slices")
    out = np.empty((n_traj, n_steps + 1))
    z0 = to_logodds(x0)
    half = 0.5 * delta

    def run(lo: int) -> None:
        rows = slice(lo, min(lo + CHUNK, n_traj))
        traj = np.arange(first + rows.start, first + rows.stop, dtype=np.uint64)
        z = np.full(traj.size, z0, dtype=float)
        work = np.empty((4, traj.size))
        step = update(rows, traj, work)
        block = out[rows]
        block[:, 0] = to_rho(z, out=work[0])
        for s in range(n_steps):
            _relax_z(z, half, out=z, work=work)
            step(z, s)
            _relax_z(z, half, out=z, work=work)
            block[:, s + 1] = to_rho(z, out=work[0])

    starts = range(0, n_traj, CHUNK)
    if n_workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return TrajectoryEnsemble(n_traj=n_traj, n_steps=n_steps, dt=dt, values=out,
                              x0=x0, master_seed=master_seed)


def _diffusion(params: ModelParams, seeds: SeedSpec):
    """The simulator's middle update: diffusion on the counter streams,
    with each block's trajectory keys computed once and one step hash
    per step shared by the branch and noise streams."""
    seed, kappa = seeds.master_seed, params.kappa

    def block(rows, traj, work):
        key = _traj_key(seed, traj)
        u, xi, tmp = work[0], work[1], work[2].view(np.uint64)

        def diffuse(z, s):
            _step_draws(key, s, u, xi, tmp)
            _diffusion_z(z, kappa, u, xi, out=z, work=work[2:])

        return diffuse

    return block


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
    return _evolve(n_traj, params.n_steps, params.dt, params.x0, params.delta,
                   n_workers, _diffusion(params, seeds), seeds.master_seed)


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
    consumer that drops each block before taking the next holds
    O(n_workers * CHUNK * n_steps) values for any ``n_traj``.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    batch = max(n_workers, 1) * CHUNK
    diffuse = _diffusion(params, seeds)
    return (
        _evolve(min(batch, n_traj - first), params.n_steps, params.dt, params.x0,
                params.delta, n_workers, diffuse, seeds.master_seed, first).values
        for first in range(0, n_traj, batch)
    )

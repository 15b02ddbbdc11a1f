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

Ensembles use the counter-based streams of :mod:`qtraj.rng` and run in
the fixed trajectory chunks of :func:`_evolve`, so the output is
byte-identical for any worker count.  :func:`simulate_batches` yields
the same rows in blocks of whole chunks, so an ensemble can be written
out without ever being held in memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import Z_CAP, ModelParams, TrajectoryEnsemble, require_memory, to_logodds, to_rho
from .rng import STREAM_BRANCH, STREAM_NOISE, SeedSpec, counter_normal, counter_uniform

__all__ = ["SeedSpec", "simulate_ensemble", "simulate_batches"]

# Trajectories are processed in fixed chunks of this size.  The chunk
# grid depends only on trajectory indices, never on the worker count,
# which keeps ensemble output byte-identical under any parallel split.
CHUNK = 65536


def _relax_z(z, delta: float):
    """Exact relaxation update in log-odds coordinates (vectorized).

    Implements rho11 -> rho11 * e^-delta, i.e.
    z' = 0.5*log(expm1(delta) + exp(delta + 2 z)), in a form that is
    stable in both tails.  A state at z = +Z_CAP stays put; z = -Z_CAP
    re-enters (rho00 = 0 is not absorbing under relaxation).
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        return z
    z = np.asarray(z, dtype=float)
    # z >= 0: factor out exp(delta + 2z); z < 0: direct form, both are
    # sums of positive terms (no cancellation).
    grow = z + 0.5 * delta + 0.5 * np.log1p(-math.expm1(-delta) * np.exp(-2.0 * z))
    reentry = 0.5 * np.log(math.expm1(delta) + np.exp(delta + 2.0 * z))
    out = np.where(z >= 0.0, grow, reentry)
    return np.clip(out, -Z_CAP, Z_CAP)


def _diffusion_z(z, kappa: float, u, xi):
    """Exact diffusion update in log-odds coordinates (vectorized).

    ``u`` is a uniform in (0,1) choosing the mixture branch, ``xi`` a
    standard normal.  States at |z| >= Z_CAP are eigenstates and stay
    fixed (their draws are simply unused; counter-based streams make
    that safe).  kappa = 0 leaves every state unchanged.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    z = np.asarray(z, dtype=float)
    branch = np.where(u < expit(2.0 * z), 1.0, -1.0)
    znew = np.clip(z + kappa * branch + math.sqrt(kappa) * xi, -Z_CAP, Z_CAP)
    return np.where(np.abs(z) >= Z_CAP, z, znew)


def _evolve(
    n_traj: int,
    n_steps: int,
    dt: float,
    x0: float,
    delta: float,
    n_workers: int,
    update: Callable[[np.ndarray, int, slice, np.ndarray], np.ndarray],
    master_seed: int | None,
    first: int = 0,
) -> TrajectoryEnsemble:
    """The one step loop: every trajectory starts at rho00 = x0 and runs
    ``n_steps`` symmetric Trotter steps relax(delta/2), ``update``,
    relax(delta/2), storing rho00 after each.

    ``update(z, s, rows, traj)`` returns the states of the trajectories
    ``rows`` (a slice, with indices ``traj``) after the middle update of
    step ``s``.  Trajectories run in fixed CHUNK-sized row slices on up to
    ``n_workers`` threads; an update touches only its own rows, so the
    output does not depend on the worker count.  Row ``i`` is trajectory
    ``first + i``; with ``first`` a multiple of CHUNK the chunks are
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
        out[rows, 0] = to_rho(z)
        for s in range(n_steps):
            z = _relax_z(z, half)
            z = update(z, s, rows, traj)
            z = _relax_z(z, half)
            out[rows, s + 1] = to_rho(z)

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
    """The simulator's middle update: diffusion on the counter streams."""
    seed, kappa = seeds.master_seed, params.kappa

    def diffuse(z, s, rows, traj):
        u = counter_uniform(seed, traj, s, STREAM_BRANCH)
        xi = counter_normal(seed, traj, s, STREAM_NOISE)
        return _diffusion_z(z, kappa, u, xi)

    return diffuse


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

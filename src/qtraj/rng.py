"""Counter-based random streams for reproducible parallel Monte Carlo.

Every variate is a pure function of ``(master_seed, trajectory, step,
stream)``: a chain of SplitMix64 finalizer rounds hashes the counter
tuple to 64 bits, which become a uniform in (0, 1) or, through the
inverse normal CDF, a standard Gaussian.  Because nothing is drawn
sequentially, any partitioning of trajectories over threads or processes
reproduces identical numbers, and absorbed trajectories can simply
ignore their draws without shifting anybody else's stream.

The chain has three links, one round each: the trajectory key
``mix(mix(seed) + PHI*(traj + 1))`` (:func:`_traj_key`), the step hash
``mix(key + PHI*(step + 1))`` (:func:`_step_hash`) and the stream
finalizer ``mix(h + PHI*(stream + 1))`` (:func:`_stream_uniform`).
:func:`counter_uniform` and :func:`counter_normal` compose all three per
call.  The Monte Carlo step loop computes each block's keys once and one
step hash per step, shared by both streams (:func:`_step_draws`), with
the same bits; the links work in place on arrays the caller owns.

Uniforms keep 52 random bits and live in [2^-53, 1 - 2^-53], so the
inverse CDF never sees 0 or 1 (normals are capped near +-8.2 sigma,
a truncation of ~1e-16 probability mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["SeedSpec", "STREAM_BRANCH", "STREAM_NOISE", "counter_uniform", "counter_normal"]

# Stream ids: one uniform (branch/outcome choice) and one Gaussian
# (diffusion noise or record noise) per (trajectory, step).
STREAM_BRANCH = 0
STREAM_NOISE = 1

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_EXP_ONE = np.uint64(0x3FF0000000000000)  # the exponent bits of the double 1.0


@dataclass(frozen=True)
class SeedSpec:
    """Master seed for an ensemble run.

    Trajectory ``i`` consumes the substream keyed by
    ``(master_seed, i, step, stream)``; identical ``(master_seed, i,
    n_steps)`` therefore reproduce an identical trajectory regardless of
    execution order or thread count.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


def _mix(h, tmp):
    """SplitMix64 finalizer (bijective 64-bit scramble) of the uint64
    array ``h``, in place; ``tmp`` is scratch of the same shape."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(h, np.uint64(shift), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
        np.multiply(h, mult, out=h)
    np.right_shift(h, np.uint64(31), out=tmp)
    np.bitwise_xor(h, tmp, out=h)
    return h


def _offset(i: int):
    """``PHI*(i + 1)``, wrapping in uint64: the counter offset of step or
    stream ``i``."""
    with np.errstate(over="ignore"):
        return _PHI * np.uint64(i + 1)


def _traj_key(master_seed: int, traj):
    """Per-trajectory key ``mix(mix(master_seed) + PHI*(traj + 1))``, a
    new uint64 array; it is the same for every step and stream, so a
    block of trajectories computes it once.  The seed is mixed on its
    own first: were it added to the offset unmixed, seeds PHI*k apart
    would share keys with trajectories shifted by k."""
    seed = _mix(np.array([master_seed], dtype=np.uint64), np.empty(1, dtype=np.uint64))
    key = np.array(traj, dtype=np.uint64)
    np.add(key, _ONE, out=key)
    np.multiply(key, _PHI, out=key)
    np.add(key, seed[0], out=key)
    return _mix(key, np.empty_like(key))


def _step_hash(key, step: int, out, tmp):
    """``mix(key + PHI*(step + 1))`` into ``out``: the hash of one step,
    shared by both streams."""
    np.add(key, _offset(step), out=out)
    return _mix(out, tmp)


def _stream_uniform(h, stream: int, out, tmp):
    """Stream finalizer: the uniforms ``mix(h + PHI*(stream + 1))`` of
    step hash ``h``, written to the float64 array ``out`` (which may be
    ``h`` itself in float64 view).  The top 52 bits ``k`` become
    ``(k + 0.5) * 2^-52``, formed without an integer conversion: as the
    mantissa of the double ``1 + k * 2^-52`` in [1, 2), minus ``1 -
    2^-53``, a subtraction Sterbenz's lemma makes exact."""
    bits = out.view(np.uint64)
    np.add(h, _offset(stream), out=bits)
    _mix(bits, tmp)
    np.right_shift(bits, np.uint64(12), out=bits)
    np.bitwise_or(bits, _EXP_ONE, out=bits)
    np.subtract(out, 1.0 - 2.0**-53, out=out)
    return out


def _step_draws(key, step: int, u, xi, tmp):
    """One step's branch uniforms into ``u`` and noise normals into
    ``xi`` (float64 arrays of ``key``'s shape, ``tmp`` scratch): bitwise
    ``counter_uniform(seed, traj, step, STREAM_BRANCH)`` and
    ``counter_normal(seed, traj, step, STREAM_NOISE)`` for the
    trajectories whose :func:`_traj_key` is ``key``."""
    h = _step_hash(key, step, xi.view(np.uint64), tmp)
    _stream_uniform(h, STREAM_BRANCH, u, tmp)
    _stream_uniform(h, STREAM_NOISE, xi, tmp)
    return u, ndtri(xi, out=xi)


def counter_uniform(master_seed: int, traj, step: int, stream: int):
    """Uniform variate(s) in (0, 1) for the given counter tuple.

    ``traj`` may be a scalar or an integer array; the result matches its
    shape.
    """
    key = _traj_key(master_seed, traj)
    tmp = np.empty_like(key)
    u = _stream_uniform(_step_hash(key, step, key, tmp), stream, key.view(np.float64), tmp)
    return u if u.ndim else u[()]


def counter_normal(master_seed: int, traj, step: int, stream: int):
    """Standard normal variate(s) for the given counter tuple."""
    return ndtri(counter_uniform(master_seed, traj, step, stream))

"""Shared domain types for diffusive weak measurement of a single qubit.

The measured qubit carries no coherences that matter here: the dynamics
closes on the diagonal of the density matrix, so the state is a single
number, the ground-state population ``rho00`` (``rho11 = 1 - rho00``).
Every update multiplies the population *ratio* by a likelihood factor,
so the Monte Carlo kernels of :mod:`qtraj.sde` store the odds
``o = rho00/rho11``, and the Fokker-Planck grid and the closed form work
in the log-odds coordinate

    z = atanh(rho00 - rho11) = atanh(2*rho00 - 1) = log(o)/2,

where the likelihood factor is an addition.  Neither loses precision as
the state approaches the eigenstates at rho00 = 0, 1.

z is capped at ``Z_CAP = 30``: tanh(30) differs from 1 by ~1e-26, far
below double-precision resolution of rho00, so a state at |z| = Z_CAP
reports a population of exactly 0 or 1; odds at or past exp(+-2 Z_CAP)
snap to the eigenstates o = +inf and o = 0.  The cap applies to the z
magnitude only; relaxation can re-enter from rho00 = 0 when T1 is
finite.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "Z_CAP",
    "ModelParams",
    "CalibrationParams",
    "TrajectoryEnsemble",
    "DistributionSnapshot",
    "to_logodds",
    "to_rho",
    "build_histogram",
    "check_binning",
    "histogram_counts",
    "histogram_from_counts",
    "available_memory",
    "require_memory",
]

# Absorption cap for the log-odds coordinate. tanh(30) rounds to 1.0 in
# float64, so |z| >= Z_CAP is indistinguishable from an eigenstate.
Z_CAP = 30.0
_HIST_BLOCK = 16384  # values per block of histogram_counts: 128 KiB temporaries


def to_logodds(rho00):
    """Map a population rho00 in [0, 1] to the log-odds coordinate z.

    Parameters
    ----------
    rho00 : float or ndarray
        Ground-state population(s), each in [0, 1].

    Returns
    -------
    float or ndarray
        z = atanh(2*rho00 - 1), clamped to [-Z_CAP, Z_CAP].  Inputs of
        exactly 0 or 1 (or within one representable step of them) map to
        -Z_CAP / +Z_CAP.

    Raises
    ------
    ValueError
        If any input lies outside [0, 1].
    """
    r = np.asarray(rho00, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0) or np.any(np.isnan(r)):
        raise ValueError("rho00 must lie in [0, 1]")
    # log(r) - log1p(-r) keeps full relative accuracy near both ends,
    # unlike atanh(2 r - 1) which loses ~1e-5 relative near r = 0.
    with np.errstate(divide="ignore"):
        z = 0.5 * (np.log(r) - np.log1p(-r))
    z = np.clip(z, -Z_CAP, Z_CAP)
    if np.ndim(rho00) == 0:
        return float(z)
    return z


def to_rho(z):
    """Inverse of :func:`to_logodds`: population view of a z value.

    A z at the cap reports exactly 0.0 or 1.0; otherwise the logistic
    ``expit(2 z)`` is used, which is accurate to full relative precision
    near rho00 = 0 (``(1 + tanh z)/2`` is not).
    """
    zz = np.asarray(z, dtype=float)
    # expit(2 z) rounds to 1.0 from z ~ 18.4 up, but expit(-60) is ~9e-27
    lo = zz <= -Z_CAP
    out = np.empty_like(zz)
    np.multiply(zz, 2.0, out=out)
    expit(out, out=out)
    np.copyto(out, 0.0, where=lo)
    if np.ndim(z) == 0:
        return float(out)
    return out


_MEMINFO = "/proc/meminfo"


def available_memory() -> int | None:
    """``MemAvailable`` of ``/proc/meminfo`` in bytes; None where the
    kernel does not report it."""
    try:
        with open(_MEMINFO, "rb") as f:
            for line in f:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def require_memory(nbytes: int, what: str) -> None:
    """Refuse, with a ValueError naming both sizes, to allocate ``nbytes``
    for ``what`` when the system reports less memory available; this
    replaces a kill by the out-of-memory killer with a message."""
    avail = available_memory()
    if avail is not None and nbytes > avail:
        raise ValueError(
            f"{what} needs {nbytes} bytes of memory but only {avail} bytes are available"
        )


def _mapped_empty(shape) -> np.ndarray:
    """An uninitialised ``<f8`` array of ``shape`` in an anonymous mapping
    of its own, unmapped when the array is freed whatever the C heap
    holds; ``np.empty`` without ``MAP_PRIVATE``.  Private, as a shared
    mapping gets no huge pages, asked for from 4 MiB up as numpy does."""
    nbytes = math.prod(shape) * 8
    if nbytes == 0 or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape, dtype="<f8")
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if nbytes >= 4 << 20 and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype="<f8").reshape(shape)


@dataclass(frozen=True)
class ModelParams:
    """Theory-side simulation parameters.

    Attributes
    ----------
    g : float
        Measurement coupling, units 1/time (finite, >= 0).
    T1 : float
        Excited-state relaxation time; ``math.inf`` disables relaxation.
    dt : float
        Step duration (> 0), same time units as 1/g and T1.
    x0 : float
        Initial population rho00, in [0, 1].
    n_steps : int
        Number of integration steps (>= 0).
    """

    g: float
    T1: float
    dt: float
    x0: float
    n_steps: int

    def __post_init__(self):
        if not (self.g >= 0 and math.isfinite(self.g)):
            raise ValueError("g must be finite and >= 0")
        if not self.T1 > 0:
            raise ValueError("T1 must be > 0 (use math.inf for no relaxation)")
        if not 0.0 < self.dt < math.inf:  # NaN fails too
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0.0 <= self.x0 <= 1.0:
            raise ValueError("x0 must lie in [0, 1]")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")

    @property
    def kappa(self) -> float:
        """Per-step dimensionless diffusion strength g*dt."""
        return self.g * self.dt

    @property
    def delta(self) -> float:
        """Per-step dimensionless relaxation exponent dt/T1."""
        return self.dt / self.T1

    @property
    def tau_total(self) -> float:
        """Dimensionless evolution parameter after all steps, n*g*dt."""
        return self.n_steps * self.kappa


@dataclass(frozen=True)
class CalibrationParams:
    """Experiment-side calibration of the measurement record.

    Attributes
    ----------
    I0, I1 : float
        Eigenstate current centers (finite; arbitrary but common units).
    sigma : float
        Per-step standard deviation of the integrated current (finite,
        > 0).
    dt : float
        Step duration.
    T1 : float
        Relaxation time (``math.inf`` allowed).
    """

    I0: float
    I1: float
    sigma: float
    dt: float
    T1: float = math.inf

    def __post_init__(self):
        for name in ("I0", "I1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)!r} must be finite")
        if not 0.0 < self.sigma < math.inf:  # NaN fails too
            raise ValueError(f"sigma={self.sigma!r} must be finite and > 0")
        if self.I0 == self.I1:
            raise ValueError("I0 and I1 must differ")
        if not 0.0 < self.dt < math.inf:  # NaN fails too
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not self.T1 > 0:
            raise ValueError("T1 must be > 0")

    @property
    def kappa(self) -> float:
        """Per-step measurement strength (I0 - I1)^2 / (4 sigma^2)."""
        return (self.I0 - self.I1) ** 2 / (4.0 * self.sigma**2)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Populations of many trajectories on a shared time grid.

    ``values[i, k]`` is rho00 of trajectory ``i`` at slice ``k``; slice 0
    is the prepared initial state and slice ``n_steps`` the final one.
    The array is frozen (read-only) after construction.
    """

    n_traj: int
    n_steps: int
    dt: float
    values: np.ndarray
    x0: float | None = None
    master_seed: int | None = None

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("ensemble must hold at least one trajectory")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.x0 is not None and not 0.0 <= self.x0 <= 1.0:
            raise ValueError(f"x0 must lie in [0, 1], got {self.x0}")
        v = self.values
        if v.shape != (self.n_traj, self.n_steps + 1):
            raise ValueError(
                f"values shape {v.shape} != (n_traj, n_steps + 1) = "
                f"({self.n_traj}, {self.n_steps + 1})"
            )
        v.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class DistributionSnapshot:
    """Binned distribution of rho00 at one time.

    ``density`` holds the probability *mass* per bin (not per unit
    length); together with the boundary point masses the total is 1.
    Values exactly at the eigenstates are kept out of the bins and
    reported in ``mass0`` / ``mass1``; published histograms may or may
    not do this, so the split is explicit here.
    """

    n_bins: int
    bin_width: float
    density: np.ndarray
    errors: np.ndarray
    mass0: float
    mass1: float
    t: float
    mass0_err: float = 0.0
    mass1_err: float = 0.0

    def __post_init__(self):
        if self.density.shape != (self.n_bins,) or self.errors.shape != (self.n_bins,):
            raise ValueError("density/errors must have shape (n_bins,)")
        self.density.setflags(write=False)
        self.errors.setflags(write=False)

    @property
    def bin_edges(self) -> np.ndarray:
        return np.arange(self.n_bins + 1) * self.bin_width

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_width

    @property
    def total_mass(self) -> float:
        return float(self.density.sum() + self.mass0 + self.mass1)


def build_histogram(
    ensemble: TrajectoryEnsemble,
    slice_index: int,
    n_bins: int = 100,
    bin_width: float = 0.01,
) -> DistributionSnapshot:
    """Histogram one time-slice of an ensemble into a DistributionSnapshot.

    Counts are normalized by the total trajectory number, so the bins plus
    the two boundary masses sum to 1.  Values exactly 0.0 / 1.0 go to
    ``mass0`` / ``mass1``.  The statistical error per bin is
    sqrt(count)/n_traj, with sqrt(1)/n_traj for empty bins so that
    downstream chi-square weights never divide by zero.

    This is :func:`histogram_from_counts` of :func:`histogram_counts`;
    the counts of consecutive row blocks of the slice sum to the counts
    of the whole slice, so a streamed ensemble gives the same snapshot.

    Raises
    ------
    ValueError
        On an invalid slice or a binning that does not cover [0, 1].
    """
    if not 0 <= slice_index <= ensemble.n_steps:
        raise ValueError(f"slice_index {slice_index} out of range")
    counts = histogram_counts(ensemble.values[:, slice_index], n_bins, bin_width)
    return histogram_from_counts(counts, slice_index * ensemble.dt, bin_width)


def check_binning(n_bins: int, bin_width: float) -> None:
    """Raise ValueError unless ``n_bins`` >= 1 bins of a finite positive
    ``bin_width`` cover [0, 1]."""
    if n_bins < 1:
        raise ValueError(f"n_bins={n_bins!r} must be >= 1")
    if not 0.0 < bin_width < math.inf:  # NaN fails too
        raise ValueError(f"bin_width={bin_width!r} must be finite and > 0")
    if n_bins * bin_width < 1.0 - 1e-12:
        raise ValueError("n_bins * bin_width must cover [0, 1]")


def _cell_lookup(n_bins: int, bin_width: float):
    """The cell of each value in [0, 1], as a function of the values:
    cell 0 holds 0.0, cell 1 + k bin k (the last bin everything above
    ``(n_bins - 1)*w``) and cell n_bins + 1 holds 1.0.

    A value v lies in sub-cell ``int(v*L)``, L the least power of two
    >= 2/w: v*L is exact, and each sub-cell holds at most one edge.
    Tables built per call give each sub-cell's cell below that edge and
    the edge itself, the cell at or above it being the next one, so
    ``v >= edge`` adds the step.  0.0 and 1.0 get cells of their own:
    sub-cell L holds only 1.0, and in sub-cell 0 the edge is the least
    subnormal."""
    L = 1
    while L * bin_width < 2.0:
        L *= 2
    edges = np.arange(n_bins + 1) * bin_width
    cell = np.clip(np.searchsorted(edges, np.arange(L + 1) / L, "right") - 1, 0, n_bins - 1) + 1
    cell[0], cell[L] = 0, n_bins + 1
    scaled = edges[1:n_bins] * L
    scaled = scaled[scaled < L]  # the edges below 1; those k >= n_bins stay out (the clip)
    sub = scaled.astype(np.intp)
    edge = np.full(L + 1, math.inf)
    edge[sub] = np.where(sub < scaled, scaled / L, math.inf)  # an edge on j/L is cell[j]'s
    edge[0] = 5e-324

    def cells(v: np.ndarray) -> np.ndarray:
        sub = (v * L).astype(np.intp)
        c = cell.take(sub)
        c += v >= edge.take(sub)
        return c

    return cells


def bin_index(values: np.ndarray, n_bins: int, bin_width: float) -> np.ndarray:
    """Bin of each value through the cells :func:`histogram_counts`
    counts: ``clip(searchsorted(edges, v, "right") - 1, 0, n_bins - 1)``
    for ``edges = arange(n_bins + 1)*w`` and any value that is not NaN,
    values outside [0, 1] going to the end bins."""
    check_binning(n_bins, bin_width)
    idx = _cell_lookup(n_bins, bin_width)(np.clip(values, 0.0, 1.0))
    idx -= 1
    return np.clip(idx, 0, n_bins - 1, out=idx)


def histogram_counts(values: np.ndarray, n_bins: int, bin_width: float) -> np.ndarray:
    """Integer counts of populations ``values``: the ``n_bins`` interior
    bins, bin k holding [k*w, (k+1)*w) for ``w = bin_width`` and the last
    bin everything above, then the values exactly 0.0, then those
    exactly 1.0.

    Each value costs two table lookups and one ``bincount``
    (:func:`_cell_lookup`).  The values are binned ``_HIST_BLOCK`` at a
    time, so no temporary is slice-sized."""
    check_binning(n_bins, bin_width)
    cells = _cell_lookup(n_bins, bin_width)
    counts = np.zeros(n_bins + 2, dtype=np.intp)
    for lo in range(0, len(values), _HIST_BLOCK):
        block = np.ascontiguousarray(values[lo : lo + _HIST_BLOCK])
        if not (block.min() >= 0.0 and block.max() <= 1.0):  # NaN fails both
            raise ValueError("ensemble values outside [0, 1]")
        counts += np.bincount(cells(block), minlength=n_bins + 2)
    return np.concatenate((counts[1:-1], counts[[0, -1]]))


def histogram_from_counts(counts: np.ndarray, t: float, bin_width: float) -> DistributionSnapshot:
    """The snapshot at time ``t`` of :func:`histogram_counts` output,
    normalized by the total count."""
    n = int(counts.sum())
    bins = counts[:-2].astype(float)
    c0, c1 = float(counts[-2]), float(counts[-1])
    return DistributionSnapshot(
        n_bins=bins.size,
        bin_width=bin_width,
        density=bins / n,
        errors=np.sqrt(np.maximum(bins, 1.0)) / n,
        mass0=c0 / n,
        mass1=c1 / n,
        t=t,
        mass0_err=math.sqrt(max(c0, 1.0)) / n,
        mass1_err=math.sqrt(max(c1, 1.0)) / n,
    )

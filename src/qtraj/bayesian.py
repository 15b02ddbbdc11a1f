"""Experiment-side pipeline: records, reconstruction, calibration.

The measured observable is the step-integrated current I_m, Gaussian
around I0 or I1 (per eigenstate) with standard deviation sigma.  A
record multiplies the odds ``o = rho00/rho11`` by the two-hypothesis
Gaussian likelihood ratio (:func:`_meas`):

    o <- o * exp((I0 - I1) * (2*I_m - I0 - I1) / (2 sigma^2)).

Interleaving that with exact relaxation half-steps turns a current
record into a quantum trajectory.  With records drawn from the honest
generative mixture ``rho00*N(I0, sigma^2) + rho11*N(I1, sigma^2)`` the
update is the diffusive collapse step in disguise, with per-step
strength ``kappa = (I0 - I1)^2 / (4 sigma^2)``.

Synthetic generation (:func:`generate_records`) draws the mixture weight
from the state *after* the leading relaxation half-step and advances the
latent state through the identical update.  Generator and reconstructor
both run the simulator's one step loop, :func:`qtraj.sde._evolve`: the
generator has it draw and store each step's current, the reconstructor
has it load them, and both middle updates end in the one :func:`_meas`,
so they are exactly adjoint: reconstructing generated records
reproduces the latent trajectories bit for bit.

Calibration helpers extract (I0, I1, sigma) by closed-form Gaussian ML
fits and T1 from the decay of the ensemble-averaged current of an
excited-state ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Z_CAP,
    CalibrationParams,
    ModelParams,
    TrajectoryEnsemble,
    _mapped_empty,
    require_memory,
)
from .rng import SeedSpec
from .sde import _evolve, _rho, _snap

__all__ = [
    "FitFailureError",
    "RecordSet",
    "GaussianCurrentFit",
    "T1Estimate",
    "reconstruct_ensemble",
    "generate_records",
    "fit_gaussian_current",
    "estimate_T1",
]


class FitFailureError(RuntimeError):
    """A calibration fit could not be performed on the given data."""


@dataclass(frozen=True)
class RecordSet:
    """An ensemble of measurement records with shared calibration.

    Every current must be finite: a NaN would poison its trajectory and
    an infinite one would act as a projective measurement.  The initial
    population ``x0`` must be a finite value in [0, 1].
    """

    currents: np.ndarray  # shape (n_traj, n_steps)
    cal: CalibrationParams
    x0: float
    master_seed: int | None = None

    def __post_init__(self):
        c = self.currents
        if c.ndim != 2:
            raise ValueError("currents must be a 2-D array (n_traj, n_steps)")
        # min and max propagate NaN: no temporary the size of the records
        if c.size and not (np.isfinite(c.min()) and np.isfinite(c.max())):
            i, s = np.argwhere(~np.isfinite(c))[0]
            raise ValueError(
                f"currents must be finite: record {i}, step {s} is {c[i, s]}"
            )
        if not 0.0 <= self.x0 <= 1.0:
            raise ValueError(f"x0 must lie in [0, 1], got {self.x0}")
        c.setflags(write=False)

    @property
    def n_traj(self) -> int:
        return self.currents.shape[0]

    @property
    def n_steps(self) -> int:
        return self.currents.shape[1]

    @property
    def dt(self) -> float:
        return self.cal.dt


@dataclass(frozen=True)
class GaussianCurrentFit:
    center: float
    center_err: float
    sigma: float
    sigma_err: float


@dataclass(frozen=True)
class T1Estimate:
    T1: float
    T1_err: float


def _meas(o, im, i0: float, i1: float, sigma: float, tmp, mask=None):
    """Bayesian update of the odds ``o`` in place for record(s) ``im``
    from eigenstate current distributions N(i0, sigma^2), N(i1, sigma^2):
    ``o <- o*exp((i0 - i1)(2 im - i0 - i1)/(2 sigma^2))``, with float
    scratch ``tmp`` and bool scratch ``mask``.  The exponent is clipped
    to +-4 Z_CAP: a factor that large takes any live state past a cap
    anyway, and a finite nonzero one keeps the eigenstates fixed.  States
    pushed past a cap snap onto it.
    """
    np.multiply(im, 2.0, out=tmp)
    np.subtract(tmp, i0, out=tmp)
    np.subtract(tmp, i1, out=tmp)
    np.multiply(tmp, (i0 - i1) / (2.0 * sigma**2), out=tmp)
    np.clip(tmp, -4.0 * Z_CAP, 4.0 * Z_CAP, out=tmp)
    np.exp(tmp, out=tmp)
    np.multiply(o, tmp, out=o)
    return _snap(o, mask)


def reconstruct_ensemble(records: RecordSet, n_workers: int = 1) -> TrajectoryEnsemble:
    """Reconstruct every record of a RecordSet into a TrajectoryEnsemble.

    Each step is relax(dt/2T1), measurement update, relax(dt/2T1): the
    generator's step loop :func:`qtraj.sde._evolve` with the recorded
    current in the middle.  Deterministic: the same records and
    calibration give bitwise identical trajectories for any worker
    count.
    """
    cal = records.cal

    def measure(o, u, xi, tmp, mask, im):
        _meas(o, im, cal.I0, cal.I1, cal.sigma, tmp, mask)

    return _evolve(records.n_traj, records.n_steps, cal.dt, records.x0, cal.dt / cal.T1,
                   n_workers, measure, records.master_seed, load=records.currents)


def generate_records(
    params: ModelParams,
    cal: CalibrationParams,
    n_traj: int,
    seeds: SeedSpec,
    n_workers: int = 1,
) -> tuple[RecordSet, TrajectoryEnsemble]:
    """Draw synthetic current records plus their latent trajectories.

    Per step the current is sampled from the eigenstate mixture weighted
    by the latent population after the leading relaxation half-step,
    then the latent state is advanced by the same measurement update
    and step loop reconstruction uses, so a reconstruction round trip is
    bitwise exact.

    The calibration must be consistent with the model: the record-implied
    strength (I0-I1)^2/(4 sigma^2) defines g*dt.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if not math.isclose(params.kappa, cal.kappa, rel_tol=1e-9):
        raise ValueError(
            f"params.g*dt = {params.kappa} inconsistent with calibration "
            f"kappa = {cal.kappa}"
        )
    if not math.isclose(params.dt, cal.dt, rel_tol=1e-12):
        raise ValueError("params.dt != cal.dt")
    if not (params.T1 == cal.T1 or math.isclose(params.T1, cal.T1, rel_tol=1e-12)):
        raise ValueError("params.T1 != cal.T1")

    seed = seeds.master_seed
    require_memory(n_traj * (2 * params.n_steps + 1) * 8,
                   f"{n_traj} records of {params.n_steps} steps with their latent ensemble")
    currents = _mapped_empty((n_traj, params.n_steps))

    levels = np.array([cal.I1, cal.I0], dtype=float)

    def record(o, u, xi, tmp, mask, im):
        # im = (I0 if u < rho00 else I1) + sigma * xi
        np.less(u, _rho(o, out=im), out=mask)
        np.take(levels, mask.view(np.uint8), out=im)
        np.multiply(xi, cal.sigma, out=xi)
        np.add(im, xi, out=im)
        _meas(o, im, cal.I0, cal.I1, cal.sigma, tmp, mask)

    latent = _evolve(n_traj, params.n_steps, params.dt, params.x0, params.delta,
                     n_workers, record, seed, store=currents)
    return RecordSet(currents=currents, cal=cal, x0=params.x0, master_seed=seed), latent


def fit_gaussian_current(samples) -> GaussianCurrentFit:
    """Closed-form ML Gaussian fit of current samples.

    Returns the sample mean and unbiased standard deviation with their
    standard errors sigma/sqrt(n) and sigma/sqrt(2n).  Requires at least
    100 samples and nonzero spread.
    """
    s = np.asarray(samples, dtype=float)
    if s.size < 100:
        raise ValueError("need at least 100 samples for a calibration fit")
    if np.all(s == s[0]):
        raise ValueError("degenerate sample set: zero variance")
    sigma = float(s.std(ddof=1))
    n = s.size
    return GaussianCurrentFit(
        center=float(s.mean()),
        center_err=sigma / math.sqrt(n),
        sigma=sigma,
        sigma_err=sigma / math.sqrt(2.0 * n),
    )


def estimate_T1(times, mean_currents, cal: CalibrationParams) -> T1Estimate:
    """Relaxation time from the decay of the ensemble-averaged current.

    Fits <I>(t) = I0 + (I1 - I0) e^{-t/T1} on a series taken from an
    excited-state-initialized ensemble.  The asymptote is held at the
    calibration's I0, the ground-state current measured apart, and only
    the amplitude and T1 are fitted: on a series much shorter than T1 a
    free asymptote trades off against T1 and leaves both, and T1's
    error, ill-determined.  Raises FitFailureError when the series
    carries no decay to fit.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(mean_currents, dtype=float)
    if t.size != y.size or t.size < 4:
        raise ValueError("need matching time/current series of length >= 4")
    spread = float(y.max() - y.min())
    scale = max(abs(y).max(), 1.0)
    if spread < 1e-12 * scale:
        raise FitFailureError("current series is constant; no decay to fit")
    p0 = (cal.I1 - cal.I0, max(cal.T1, t[-1]) if math.isfinite(cal.T1) else t[-1])

    def model(t, b, s):
        return cal.I0 + b * np.exp(-t / s)

    from scipy.optimize import curve_fit  # deferred: a slow import only fits need

    try:
        (b, s), pcov = curve_fit(model, t, y, p0=p0, maxfev=20000, xtol=1e-14, ftol=1e-14)
    except (RuntimeError, ValueError) as exc:
        raise FitFailureError(f"T1 fit did not converge: {exc}") from exc
    s_err = math.sqrt(abs(pcov[-1, -1])) if np.all(np.isfinite(pcov)) else math.inf
    if s <= 0 or not math.isfinite(s) or abs(b) < 1e-9 * scale:
        raise FitFailureError("fitted series does not decay")
    return T1Estimate(T1=float(s), T1_err=float(s_err))


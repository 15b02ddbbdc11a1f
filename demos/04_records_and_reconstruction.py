"""From measurement currents to quantum trajectories and back.

The experiment never sees rho00 directly: each step yields an integrated
current I_m, Gaussian around I0 (ground) or I1 (excited).  Bayes' rule
turns a current record into a trajectory, and because generation and
reconstruction share the same symmetric update layout, reconstructing
synthetic records reproduces the latent trajectories bit for bit.

The calibration workflow is also exercised: Gaussian fits for I0, I1,
sigma; T1 from the decay of the ensemble-averaged current of an
excited-state ensemble.  Two hardware-side steps are shown in plain
numpy and scipy: repairing an early-time amplifier transient in the
I0/I1 series by exponential fits, and the efficiency n_steps*kappa/tau
implied by a fitted tau.

Run:  python demos/04_records_and_reconstruction.py
"""

import numpy as np
from scipy.optimize import curve_fit

from qtraj import (
    CalibrationParams,
    ModelParams,
    SeedSpec,
    estimate_T1,
    fit_gaussian_current,
    generate_records,
    reconstruct_ensemble,
)

cal = CalibrationParams(I0=128.44, I1=127.68, sigma=5.50, dt=0.5, T1=45.0)
print(f"calibration: I0 = {cal.I0}, I1 = {cal.I1}, sigma = {cal.sigma}")
print(f"per-step strength kappa = (I0-I1)^2/(4 sigma^2) = {cal.kappa:.6f}")
print("note how weak this is: the eigenstate current split is ~0.14 sigma\n")

params = ModelParams(g=cal.kappa / cal.dt, T1=45.0, dt=0.5, x0=0.305, n_steps=80)
recs, latent = generate_records(params, cal, 50_000, SeedSpec(17))
rebuilt = reconstruct_ensemble(recs)
print(f"generated {recs.n_traj} records x {recs.n_steps} steps")
print(f"reconstruction bitwise-identical to latent: "
      f"{np.array_equal(rebuilt.values, latent.values)}\n")

ground = generate_records(
    ModelParams(g=cal.kappa / cal.dt, T1=45.0, dt=0.5, x0=1.0, n_steps=1),
    cal, 200_000, SeedSpec(18),
)[0]
fit = fit_gaussian_current(ground.currents[:, 0])
print("eigenstate calibration from a pinned ground-state ensemble:")
print(f"  I0 = {fit.center:.3f} +- {fit.center_err:.3f} (true {cal.I0})")
print(f"  sigma = {fit.sigma:.3f} +- {fit.sigma_err:.3f} (true {cal.sigma})\n")

excited = generate_records(
    ModelParams(g=cal.kappa / cal.dt, T1=45.0, dt=0.5, x0=0.0, n_steps=80),
    cal, 50_000, SeedSpec(19),
)[0]
t_centers = (np.arange(80) + 0.5) * 0.5
est = estimate_T1(t_centers, excited.currents.mean(axis=0), cal)
print(f"T1 from the averaged-current decay: {est.T1:.2f} +- {est.T1_err:.2f} us "
      f"(true 45)\n")

# early-time transient repair: a spurious bump in the first 2 us.  The
# observed values are kept up to 2 us; beyond, I0 is replaced by the
# asymptote of an exponential fit and I1 by that fit taken at 2.5 us.
t = np.arange(80) * 0.25
i0_obs = np.full(80, cal.I0) + 0.6 * np.exp(-t / 0.8)
i1_obs = cal.I0 + (cal.I1 - cal.I0) * np.exp(-t / 45.0)
tail = t > 2.0


def exp_decay(t, a, b, s):
    return a + b * np.exp(-t / s)


def tail_fit(y):
    yt = y[tail]
    p0 = (yt[-1], yt[0] - yt[-1], (t[-1] - 2.0) / 2.0)
    return curve_fit(exp_decay, t[tail], yt, p0=p0, maxfev=20000)[0]


i0_eff = np.where(tail, tail_fit(i0_obs)[0], i0_obs)
i1_eff = np.where(tail, exp_decay(2.5, *tail_fit(i1_obs)), i1_obs)
print("transient preprocessing (first values kept, tail replaced by fits):")
print(f"  I0 effective at t = 5 us: {i0_eff[t == 5.0][0]:.3f} (asymptote {cal.I0})")
print(f"  I1 effective at t = 5 us: {i1_eff[t == 5.0][0]:.3f} "
      f"(fit frozen at 2.5 us)\n")

tau_fitted = params.n_steps * cal.kappa  # ideal synthetic data
print(f"efficiency implied by the fitted tau: "
      f"{params.n_steps * cal.kappa / tau_fitted:.3f} "
      f"(1.0 for an ideal amplifier; real hardware lands well below)")

"""Fitting the whole distribution with one parameter.

The claim under test: the entire trajectory distribution at any time is
described by the single dimensionless parameter tau, independent of the
initial state.  This script builds synthetic datasets for three initial
populations, fits tau slice by slice with a chi-square scan (error bars
from the delta-chi2 = 100 convention), and shows that the fitted tau(t)
is a single straight line through the origin for all of them.

A small systematic-error budget follows: the records are reconstructed
once as measured and once per shifted parameter (x0, T1, I0, I1), and the
per-bin histogram shifts are added in quadrature.

Run:  python demos/05_tau_fitting.py
"""

import math
import os
from dataclasses import replace

import numpy as np

from qtraj import (
    CalibrationParams,
    ModelParams,
    SeedSpec,
    build_histogram,
    fit_tau,
    generate_records,
    make_analytic_model_gen,
    reconstruct_ensemble,
    simulate_ensemble,
)

OUT = os.path.join(os.path.dirname(__file__), "output")

g, dt, n_steps = 0.03, 0.5, 80
slices = list(range(10, 81, 10))
times = np.array(slices) * dt
scan = 0.01 * np.arange(161)

print(f"constant coupling g = {g}/us, slices every 5 us out to 40 us")
results = {}
for x0, seed in ((0.3, 31), (0.5, 32), (0.7, 33)):
    ens = simulate_ensemble(
        ModelParams(g=g, T1=math.inf, dt=dt, x0=x0, n_steps=n_steps),
        100_000,
        SeedSpec(seed),
    )
    observed = [build_histogram(ens, k) for k in slices]
    results[x0] = fit_tau(observed, make_analytic_model_gen(x0, len(slices)), scan)

print(f"\n{'t (us)':>7} " + " ".join(f"x0={x:<11}" for x in results))
for i, t in enumerate(times):
    row = " ".join(
        f"{results[x][i].tau_best:.3f}+-{results[x][i].tau_error:.3f}"
        for x in results
    )
    print(f"{t:7.1f} {row}")
print(f"(true tau = g*t runs {g * times[0]:.2f} ... {g * times[-1]:.2f})")

for x0, fits in results.items():
    tau = np.array([r.tau_best for r in fits])
    slope = float((times * tau).sum() / (times * times).sum())
    r2 = 1.0 - float(((tau - slope * times) ** 2).sum() / ((tau - tau.mean()) ** 2).sum())
    print(f"x0 = {x0}: fitted slope {slope:.5f}/us (true {g}), R^2 = {r2:.6f}")

print("\nsystematic error budget on a reconstructed dataset (shift one")
print("parameter at a time, add histogram shifts in quadrature):")
cal = CalibrationParams(I0=128.44, I1=127.68, sigma=5.50, dt=dt, T1=45.0)
params = ModelParams(g=cal.kappa / dt, T1=45.0, dt=dt, x0=0.305, n_steps=40)
recs, _ = generate_records(params, cal, 20_000, SeedSpec(40))


def histograms(recs):
    """Reconstruct the records; histogram slices 20 and 40."""
    ens = reconstruct_ensemble(recs)
    return [build_histogram(ens, k) for k in (20, 40)]


shifted = [
    replace(recs, x0=recs.x0 + 0.003),
    replace(recs, cal=replace(cal, T1=cal.T1 + 4.0)),
    replace(recs, cal=replace(cal, I0=cal.I0 + 0.02)),
    replace(recs, cal=replace(cal, I1=cal.I1 + 0.03)),
]
for k, base, *moved in zip((20, 40), histograms(recs), *map(histograms, shifted)):
    syst = np.sqrt(sum((h.density - base.density) ** 2 for h in moved))
    print(
        f"  slice {k}: median stat {np.median(base.errors):.2e}, "
        f"median syst {np.median(syst):.2e}, "
        f"largest total {np.sqrt(base.errors**2 + syst**2).max():.2e}"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(OUT, exist_ok=True)
    fig, ax = plt.subplots(figsize=(5.5, 4))
    for x0, fits in results.items():
        tau = [r.tau_best for r in fits]
        err = [r.tau_error for r in fits]
        ax.errorbar(times, tau, yerr=err, fmt="o-", ms=3, capsize=2, label=f"x0 = {x0}")
    ax.plot(times, g * times, "k--", lw=1, label="tau = g t")
    ax.set_xlabel("t (us)")
    ax.set_ylabel("fitted tau")
    ax.legend()
    fig.tight_layout()
    path = os.path.join(OUT, "tau_fitting.png")
    fig.savefig(path, dpi=120)
    print(f"\nfigure written to {path}")
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")

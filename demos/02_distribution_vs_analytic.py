"""The whole trajectory distribution against the closed-form solution.

Without relaxation the distribution of z = atanh(2 rho00 - 1) is a pair
of Gaussians with centers z0 +- tau, common variance tau and areas
(x0, 1 - x0).  Mapped back to the population axis the two branches show
up as a bimodal histogram piling toward the eigenstates as tau grows.
This script simulates 2e5 trajectories, histograms them at several
times, and overlays the exact bin masses.

Run:  python demos/02_distribution_vs_analytic.py
"""

import math
import os

import numpy as np

from qtraj import (
    ModelParams,
    SeedSpec,
    analytic_bin_masses,
    build_histogram,
    simulate_ensemble,
)

OUT = os.path.join(os.path.dirname(__file__), "output")
EDGES = np.arange(101) * 0.01

x0 = 0.305
params = ModelParams(g=0.03, T1=math.inf, dt=0.5, x0=x0, n_steps=80)
ens = simulate_ensemble(params, 200_000, SeedSpec(2))

print(f"x0 = {x0}, g = {params.g}/us: comparing MC histograms to the closed form")
print(f"{'tau':>5} {'TV distance':>12} {'mass near 0':>12} {'mass near 1':>12}")
snaps = []
for k in (10, 40, 80):
    tau = k * params.kappa
    snap = build_histogram(ens, k)
    exact = analytic_bin_masses(x0, tau, EDGES)
    tv = 0.5 * (np.abs(snap.density - exact).sum() + snap.mass0 + snap.mass1)
    low = snap.density[:5].sum() + snap.mass0
    high = snap.density[95:].sum() + snap.mass1
    snaps.append((tau, snap, exact))
    print(f"{tau:5.2f} {tv:12.4f} {low:12.4f} {high:12.4f}")

print(
    "\nThe martingale keeps the mean glued to x0 while the shape"
    " bimodalizes: the measurement gains information without biasing"
    " the ensemble."
)
for k in (0, 40, 80):
    print(f"  mean at slice {k:2d}: {ens.values[:, k].mean():.5f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(OUT, exist_ok=True)
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.2), sharey=True)
    centers = (np.arange(100) + 0.5) * 0.01
    for ax, (tau, snap, exact) in zip(axes, snaps):
        ax.bar(centers, snap.density, width=0.01, alpha=0.5, label="simulated")
        ax.plot(centers, exact, "k-", lw=1.5, label="closed form")
        ax.set_title(f"tau = {tau:.2f}")
        ax.set_xlabel(r"$\rho_{00}$")
    axes[0].set_ylabel("probability per bin")
    axes[0].legend()
    fig.tight_layout()
    path = os.path.join(OUT, "distribution_vs_analytic.png")
    fig.savefig(path, dpi=120)
    print(f"\nfigure written to {path}")
except ImportError:
    print("\nmatplotlib not installed; skipping the figure")

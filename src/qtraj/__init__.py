"""qtraj: diffusive weak-measurement qubit trajectories.

Simulation of the Born-rule-preserving stochastic collapse of a single
measured qubit (with T1 relaxation), deterministic evolution of the
trajectory density, Bayesian reconstruction of trajectories from
measurement-current records, and chi-square fits of the whole
distribution with the single evolution parameter tau.
"""

# The names of the README quick start and the demos; everything else is
# imported from its submodule (qtraj.core, qtraj.fitting, ...).
from .core import CalibrationParams, ModelParams, build_histogram
from .rng import SeedSpec
from .sde import simulate_ensemble
from .fokker_planck import analytic_bin_masses, fp_snapshot_to_bins, solve_fp
from .bayesian import estimate_T1, fit_gaussian_current, generate_records, reconstruct_ensemble
from .fitting import fit_tau, make_analytic_model_gen

__version__ = "0.1.0"

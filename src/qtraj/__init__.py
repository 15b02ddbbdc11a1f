"""qtraj: diffusive weak-measurement qubit trajectories.

Simulation of the Born-rule-preserving stochastic collapse of a single
measured qubit (with T1 relaxation), deterministic evolution of the
trajectory density, Bayesian reconstruction of trajectories from
measurement-current records, and chi-square fits of the whole
distribution with the single evolution parameter tau.
"""

from .core import (
    Z_CAP,
    CalibrationParams,
    DistributionSnapshot,
    ModelParams,
    TrajectoryEnsemble,
    build_histogram,
    to_logodds,
    to_rho,
)
from .rng import SeedSpec
from .sde import simulate_ensemble
from .fokker_planck import (
    DensityGrid,
    FPSolverError,
    analytic_distribution_z,
    fp_snapshot_to_bins,
    solve_fp,
)
from .bayesian import (
    CalibrationSeries,
    FitFailureError,
    RecordSet,
    estimate_T1,
    estimate_efficiency,
    fit_gaussian_current,
    generate_records,
    preparation_uncertainty,
    preprocess_calibration,
    reconstruct_ensemble,
)
from .fitting import (
    ErrorBudget,
    FitResult,
    chi2,
    default_fluctuation_ranges,
    default_tau_scan,
    fit_tau,
    make_analytic_model_gen,
    make_ensemble_model_gen,
    make_fp_model_gen,
    systematic_errors,
)

__version__ = "0.1.0"

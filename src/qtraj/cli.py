"""Command-line pipeline: generate | simulate | solve-fp | reconstruct |
fit | calibrate.

Every run writes a manifest echoing the fully resolved configuration;
rerunning a command with the manifest as its config reproduces the
outputs byte for byte.  Times on this surface are microseconds.  No
environment variable is read.

Every mode checks its keys before it reads or computes, so a bad key
exits 2 and writes nothing.  Two checks need the file and come after
its header is read, still before any output: the slice range of fit
(the file's n_steps) and that the file's x0 suits the model (inside
the z grid for Fokker-Planck, not an eigenstate for the closed form).
Every mode names a time as a slice k, at
t = k * dt_us (simulate's hist_<k>.txt, solve-fp's fp_<k>.txt), and
bins rho00 into n_bins bins of width 1/n_bins.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import chdtrc

from . import bayesian, fitting, io
from .core import (
    CalibrationParams,
    ModelParams,
    histogram_counts,
    histogram_from_counts,
    require_memory,
)
from .fokker_planck import FPSolverError, fp_snapshot_to_bins, solve_fp
from .rng import SeedSpec
from .sde import simulate_batches

__all__ = ["RunConfig", "main"]

USAGE = """\
usage: qtraj MODE [--key=value ...]

modes:
  generate     synthetic measurement records + latent trajectories
  simulate     trajectory ensemble + per-slice histograms
  solve-fp     density snapshots from the Fokker-Planck solver
  reconstruct  trajectories from a record file
  fit          tau scan fit of per-slice histograms, with observed / best-fit /
               no-relaxation overlays
  calibrate    I0/I1/sigma/T1 extraction from eigenstate record files

keys (any key is also a --key=value flag; --config=FILE loads a file first):
  out=DIR seed=INT n_traj=INT n_steps=INT dt_us=F g_per_us=F t1_us=F x0=F
  i0=F i1=F sigma=F n_bins=INT slices=K1,K2,... tau_min=F tau_max=F tau_step=F
  input=FILE ground=FILE excited=FILE n_workers=INT

fit model: closed form at t1_us=inf, Fokker-Planck otherwise
(8192 cells on z in [-12, 12], substep t1_us/100).  solve-fp snapshots
slices k at t = k*dt_us and substeps at t1_us/100 too.
--seed (an integer >= 0) is mandatory for generate and simulate (no silent entropy).
No environment variable is read.
"""


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = ""
    out: str = "."
    seed: int = -1
    n_traj: int = 100000
    n_steps: int = 80
    dt_us: float = 0.5
    g_per_us: float = 0.0
    t1_us: float = math.inf
    x0: float = 0.305
    i0: float = 1.0
    i1: float = -1.0
    sigma: float = 5.0
    n_bins: int = 100
    slices: str = ""
    tau_min: float = 0.0
    tau_max: float = 2.5
    tau_step: float = 0.01
    input: str = ""
    ground: str = ""
    excited: str = ""
    n_workers: int = 1

    def slice_list(self, n_steps: int | None, first: int) -> list[int]:
        """The slices to histogram, each in first..n_steps (default
        n_steps); n_steps None checks only the list's syntax."""
        try:
            slices = [int(s) for s in self.slices.split(",") if s.strip()]
        except ValueError as exc:
            raise UsageError(f"bad slices value: {exc}") from exc
        if not slices:
            if self.slices:
                raise UsageError(f"slices={self.slices!r} names no slice")
            slices = [n_steps]
        for k in slices:
            if slices.count(k) > 1:
                raise UsageError(f"slice {k} given twice")
            if n_steps is not None and not first <= k <= n_steps:
                raise UsageError(f"slice {k} out of range {first}..{n_steps}")
        return slices

    @property
    def bin_width(self) -> float:
        return 1.0 / self.n_bins

    def params(self) -> ModelParams:
        return ModelParams(g=self.g_per_us, T1=self.t1_us, dt=self.dt_us, x0=self.x0,
                           n_steps=self.n_steps)


def config_from_items(items: dict, mode: str) -> RunConfig:
    """The config of ``mode``, one of MODES, from key-value strings,
    each converted to the type of its key's default."""
    cfg = RunConfig()
    names = {f.name for f in fields(cfg)}
    for key, value in items.items():
        if key not in names:
            raise UsageError(f"unknown config key: {key}")
        try:
            setattr(cfg, key, type(getattr(RunConfig, key))(value))
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {value!r}") from exc
    if cfg.mode and cfg.mode != mode:
        raise UsageError(f"config mode {cfg.mode!r} conflicts with command {mode!r}")
    cfg.mode = mode
    if cfg.n_workers < 1:
        raise UsageError(f"n_workers={cfg.n_workers} must be >= 1")
    if cfg.n_bins < 1:
        raise UsageError(f"n_bins={cfg.n_bins} must be >= 1")
    # the sub-cell lookup of every histogram holds two tables of at most
    # 4 n_bins + 1 entries and six arrays of at most n_bins + 1 at once
    require_memory(8 * (2 * (4 * cfg.n_bins + 1) + 6 * (cfg.n_bins + 1)),
                   f"binning into n_bins={cfg.n_bins} bins")
    return cfg


def _write_manifest(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    items = {f.name: str(getattr(cfg, f.name)) for f in fields(cfg)}  # str(float) is repr
    io.write_config(os.path.join(cfg.out, "manifest.txt"), items)


def _require_seed(cfg: RunConfig) -> SeedSpec:
    if cfg.seed == RunConfig.seed:  # the unset default
        raise UsageError(f"--seed is mandatory for {cfg.mode}")
    if not 0 <= cfg.seed < 2**64:
        raise UsageError(f"--seed={cfg.seed} must be >= 0 and < 2**64")
    return SeedSpec(master_seed=cfg.seed)


def _require_input(path: str, what: str) -> str:
    if not path:
        raise UsageError(f"--{what} is required for this mode")
    if not os.path.exists(path):
        raise UsageError(f"{what} file does not exist: {path}")
    return path


# ---------------------------------------------------------------------------
# commands


def _counted(cfg: RunConfig, counts: dict, block: np.ndarray) -> np.ndarray:
    """Add each slice k's histogram counts of the row ``block`` to
    ``counts[k]`` and return the block: integer counts, so their sum over
    a file's row blocks is the whole slice's."""
    for k in counts:
        counts[k] += histogram_counts(block[:, k], cfg.n_bins, cfg.bin_width)
    return block


def cmd_generate(cfg: RunConfig) -> None:
    seeds = _require_seed(cfg)
    cal = CalibrationParams(I0=cfg.i0, I1=cfg.i1, sigma=cfg.sigma, dt=cfg.dt_us, T1=cfg.t1_us)
    g = cal.kappa / cfg.dt_us
    # the records fix g through kappa = (i0 - i1)^2 / (4 sigma^2); 0 derives it
    if cfg.g_per_us != 0.0 and not math.isclose(cfg.g_per_us, g, rel_tol=1e-12):
        raise UsageError(
            f"g_per_us={cfg.g_per_us!r} disagrees with the calibration's "
            f"kappa/dt_us = {g!r}; leave it 0 to derive it"
        )
    params = replace(cfg.params(), g=g)
    recs, latent = bayesian.generate_records(
        params, cal, cfg.n_traj, seeds, n_workers=cfg.n_workers
    )
    _write_manifest(cfg)
    io.write_records(os.path.join(cfg.out, "records.qrec"), recs)
    io.write_ensemble(os.path.join(cfg.out, "latent.qens"), latent)


def cmd_simulate(cfg: RunConfig) -> None:
    seeds = _require_seed(cfg)
    params = cfg.params()
    counts = dict.fromkeys(cfg.slice_list(cfg.n_steps, first=0), 0)
    batches = simulate_batches(params, cfg.n_traj, seeds, n_workers=cfg.n_workers)
    # the ensemble goes to its file one batch at a time: memory holds
    # O(n_workers * CHUNK * n_steps) values for any n_traj
    os.makedirs(cfg.out, exist_ok=True)
    io.write_ensemble_blocks(os.path.join(cfg.out, "ensemble.qens"),
                             map(lambda block: _counted(cfg, counts, block), batches),
                             cfg.n_traj, params.n_steps, params.dt, params.x0, seeds.master_seed)
    _write_manifest(cfg)
    for k, c in counts.items():
        snap = histogram_from_counts(c, k * params.dt, cfg.bin_width)
        io.write_histogram(os.path.join(cfg.out, f"hist_{k:05d}.txt"), snap)


def cmd_solve_fp(cfg: RunConfig) -> None:
    params = cfg.params()
    slices = sorted(cfg.slice_list(params.n_steps, first=0))  # the solver runs forward
    grids = solve_fp(params.x0, params.g, params.T1, [k * params.dt for k in slices])
    _write_manifest(cfg)
    for k, grid in zip(slices, grids):
        snap = fp_snapshot_to_bins(grid, cfg.n_bins, cfg.bin_width)
        io.write_histogram(os.path.join(cfg.out, f"fp_{k:05d}.txt"), snap)


def cmd_reconstruct(cfg: RunConfig) -> None:
    recs = io.read_records(_require_input(cfg.input, "input"))
    ens = bayesian.reconstruct_ensemble(recs, n_workers=cfg.n_workers)
    _write_manifest(cfg)
    io.write_ensemble(os.path.join(cfg.out, "reconstructed.qens"), ens)


def cmd_fit(cfg: RunConfig) -> None:
    """Fit tau to the slices' histograms and write ``fit_report.txt``, then
    one observed / best-fit / no-relaxation (T1 -> infinity) overlay per
    slice.  The keys are checked before the read, except the slice range
    and the x0 in the z grid."""
    scan = fitting.default_tau_scan(cfg.tau_min, cfg.tau_max, cfg.tau_step)
    if not cfg.t1_us > 0:  # -inf and nan too, before the model choice
        raise ValueError("T1 must be > 0")
    # an empty slices key names one slice, the file's last
    fitting._require_scan_memory(len(cfg.slice_list(None, first=1)), scan.size)
    # row blocks of a few MiB, so memory is bounded for any file size
    counts = None
    for block in io.read_ensemble_blocks(_require_input(cfg.input, "input")):
        if counts is None:  # the header is checked with the first block
            counts = dict.fromkeys(cfg.slice_list(block.n_steps, first=1), 0)
        _counted(cfg, counts, block.values)
    slices = list(counts)  # the last block still holds the header's dt and x0
    observed = [histogram_from_counts(c, k * block.dt, cfg.bin_width) for k, c in counts.items()]
    if block.x0 is not None:  # the manifest records the x0 the fit uses
        cfg.x0 = block.x0
    # the closed form takes one snapshot for every slice: the model at T1 = inf
    norelax_gen = fitting.make_analytic_model_gen(cfg.x0, 1, cfg.n_bins, cfg.bin_width)
    gen = norelax_gen if math.isinf(cfg.t1_us) else fitting.make_fp_model_gen(
        cfg.x0, cfg.t1_us, [obs.t for obs in observed], cfg.n_bins, cfg.bin_width)
    results = fitting.fit_tau(observed, gen, scan)
    _write_manifest(cfg)
    io.write_fit_report(os.path.join(cfg.out, "fit_report.txt"), [
        io.FitReportSlice(
            t_us=obs.t,
            tau_best=r.tau_best,
            chi2_min=r.chi2_min,
            tau_err_dchi2_100=r.tau_error,
            tau_err_dchi2_1=r.tau_error_dchi2_1,
            n_bins=r.n_bins,
        )
        for obs, r in zip(observed, results)
    ])
    # flags the report's keys do not carry: on stderr, so no output byte changes
    for k, r in zip(slices, results):
        if r.at_edge:
            print(f"warning: slice {k}: the chi2 minimum tau_best = {r.tau_best!r} is at "
                  "the edge of the tau scan; widen tau_min..tau_max", file=sys.stderr)
        if not r.err_bracketed:
            print(f"warning: slice {k}: chi2 stays below chi2_min + 100 on one side of the "
                  "tau scan, so tau_err_dchi2_100 is not bracketed; widen tau_min..tau_max",
                  file=sys.stderr)
        # n_bins - 1 degrees of freedom: chi2's (at most two) boundary-mass
        # terms are left out of the count, which moves so loose a bound little
        if chdtrc(r.n_bins - 1, r.chi2_min) < 1e-6:
            print(f"warning: slice {k}: chi2_min = {r.chi2_min:.1f} on {r.n_bins} bins has chance "
                  "probability < 1e-6; check t1_us and the tau scan", file=sys.stderr)
    for i, (k, obs, r) in enumerate(zip(slices, observed, results)):
        io.write_overlay(os.path.join(cfg.out, f"report_{k:05d}.txt"), obs, r.tau_best,
                         r.chi2_min, gen(r.tau_best, (i,))[0], norelax_gen(r.tau_best)[0])


def _fit_file(path: str, fit, *args):
    """``fit(*args)`` on data read from ``path``: a ValueError there is
    the file's fault, an input error naming it."""
    try:
        return fit(*args)
    except (ValueError, bayesian.FitFailureError) as exc:
        raise bayesian.FitFailureError(f"{path}: {exc}") from exc


def cmd_calibrate(cfg: RunConfig) -> None:
    paths = _require_input(cfg.ground, "ground"), _require_input(cfg.excited, "excited")
    ground, excited = map(io.read_records, paths)
    g_fit = _fit_file(paths[0], bayesian.fit_gaussian_current, ground.currents.ravel())
    e_fit = _fit_file(paths[1], bayesian.fit_gaussian_current, excited.currents[:, 0])
    times = (np.arange(excited.n_steps) + 0.5) * excited.dt
    # the excited ensemble relaxes toward the ground current
    cal = CalibrationParams(I0=g_fit.center, I1=e_fit.center, sigma=g_fit.sigma, dt=excited.dt)
    t1 = _fit_file(paths[1], bayesian.estimate_T1, times, excited.currents.mean(axis=0), cal)
    _write_manifest(cfg)
    items = {
        "i0": repr(g_fit.center),
        "i0_err": repr(g_fit.center_err),
        "sigma": repr(g_fit.sigma),
        "sigma_err": repr(g_fit.sigma_err),
        "i1": repr(e_fit.center),
        "i1_err": repr(e_fit.center_err),
        "t1_us": repr(t1.T1),
        "t1_err_us": repr(t1.T1_err),
        "kappa": repr(cal.kappa),
    }
    io.write_config(os.path.join(cfg.out, "calibration.txt"), items)


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "solve-fp": cmd_solve_fp,
    "reconstruct": cmd_reconstruct,
    "fit": cmd_fit,
    "calibrate": cmd_calibrate,
}
MODES = tuple(_COMMANDS)


def parse_args(argv: list[str]) -> RunConfig:
    mode = argv[0]
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}\n\n{USAGE}")
    items: dict[str, str] = {}
    config_path = None
    overrides: dict[str, str] = {}
    for tok in argv[1:]:
        if not tok.startswith("--") or "=" not in tok:
            raise UsageError(f"expected --key=value, got {tok!r}")
        key, value = tok[2:].split("=", 1)
        if key == "config":
            config_path = value
        else:
            overrides[key] = value
    if config_path is not None:
        if not os.path.exists(config_path):
            raise UsageError(f"config file does not exist: {config_path}")
        items.update(io.read_config(config_path))
    items.update(overrides)
    return config_from_items(items, mode=mode)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE)
        return 0
    try:
        cfg = parse_args(argv)
        _COMMANDS[cfg.mode](cfg)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (io.FormatError, bayesian.FitFailureError, FPSolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # domain validation from the library layer: a usage problem
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

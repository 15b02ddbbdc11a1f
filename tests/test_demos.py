"""Smoke tests: every demo runs to completion (and prints the values it
pins), and the top-level package exports exactly the names the demos and
the README quick start import."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# lines a demo must print: demo 04 repairs an early-time transient of
# I0/I1 by exponential fits and computes the implied efficiency inline;
# demo 05 assembles the systematic-error budget in a loop
PRINTS = {
    "04_records_and_reconstruction.py": [
        "I0 effective at t = 5 us: 128.440",
        "I1 effective at t = 5 us: 127.721",
        "efficiency implied by the fitted tau: 1.000",
    ],
    "05_tau_fitting.py": [
        "slice 20: median stat 4.91e-04, median syst 9.60e-04, largest total 5.29e-03",
        "slice 40: median stat 6.92e-04, median syst 1.43e-03, largest total 5.86e-03",
    ],
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for line in PRINTS.get(demo, []):
        assert line in proc.stdout


TOP_LEVEL = {
    "ModelParams", "CalibrationParams", "SeedSpec",
    "simulate_ensemble", "build_histogram",
    "analytic_bin_masses", "solve_fp", "fp_snapshot_to_bins",
    "estimate_T1", "fit_gaussian_current",
    "generate_records", "reconstruct_ensemble",
    "fit_tau", "make_analytic_model_gen",
}


def test_top_level_names():
    import qtraj

    public = {n: v for n, v in vars(qtraj).items() if not n.startswith("_")}
    modules = {n for n, v in public.items() if isinstance(v, types.ModuleType)}
    assert set(public) - modules == TOP_LEVEL
    assert all(public[n].__name__ == f"qtraj.{n}" for n in modules)
    assert isinstance(qtraj.__version__, str)

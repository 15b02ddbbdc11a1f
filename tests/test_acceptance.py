"""Acceptance suite: one test per criterion, at the stated scales and
tolerances.  Run with `pytest tests/test_acceptance.py -v -s` to see one
line per criterion.

The big Monte Carlo ensembles are built once (module scope, worker
count 1) and their SHA-256 digests retained so the determinism criterion
can rerun the same pipelines on other thread counts and compare bytes.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy import stats

from qtraj.bayesian import generate_records, reconstruct_ensemble, _meas
from qtraj.cli import main
from qtraj.core import (
    CalibrationParams,
    DistributionSnapshot,
    ModelParams,
    build_histogram,
    histogram_counts,
)
from qtraj.fitting import fit_tau, make_analytic_model_gen
from qtraj.fokker_planck import _Solver, analytic_bin_masses, fp_snapshot_to_bins, solve_fp
from qtraj.rng import STREAM_BRANCH, STREAM_NOISE, SeedSpec, counter_normal, counter_uniform
from qtraj.sde import _diffuse, simulate_batches, simulate_ensemble

SEED_C1 = 20260811
SEED_C2 = 20260812
SEED_C5 = 20260815
SEED_C6 = 2024
SEEDS_C6_PULL = range(1, 13)
SEED_C7 = {0.3: 20260817, 0.5: 20260818, 0.7: 20260819}

EDGES = np.arange(101) * 0.01

PARAMS_C1 = ModelParams(g=0.03, T1=math.inf, dt=0.5, x0=0.305, n_steps=80)
PARAMS_C2 = ModelParams(g=0.03, T1=45.0, dt=0.5, x0=0.305, n_steps=80)

# criterion 6: n_steps * kappa = 0.5 with unit-efficiency calibration
KAPPA_C6 = 0.025
N_STEPS_C6 = 20
CAL_C6 = CalibrationParams(
    I0=1.0, I1=-1.0, sigma=1.0 / math.sqrt(KAPPA_C6), dt=0.5, T1=math.inf
)
PARAMS_C6 = ModelParams(
    g=KAPPA_C6 / 0.5, T1=math.inf, dt=0.5, x0=0.305, n_steps=N_STEPS_C6
)

CAL_WEAK_READOUT = CalibrationParams(I0=128.443, I1=127.856, sigma=5.56, dt=0.5)


def sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def tv_distance(snap_a, snap_b) -> float:
    return 0.5 * (
        np.abs(snap_a.density - snap_b.density).sum()
        + abs(snap_a.mass0 - snap_b.mass0)
        + abs(snap_a.mass1 - snap_b.mass1)
    )


@pytest.fixture(scope="module")
def ens_c1():
    t0 = time.perf_counter()
    ens = simulate_ensemble(PARAMS_C1, 1_000_000, SeedSpec(SEED_C1), n_workers=1)
    elapsed = time.perf_counter() - t0
    return ens, elapsed, sha(ens.values)


@pytest.fixture(scope="module")
def ens_c2():
    ens = simulate_ensemble(PARAMS_C2, 1_000_000, SeedSpec(SEED_C2), n_workers=1)
    return ens, sha(ens.values)


def test_criterion_01_born_rule_martingale(ens_c1):
    """x0 = 0.305, T1 = inf, tau = 1.2, 1e6 trajectories: the mean stays
    on 0.305 to 0.0019 at every slice, in under 60 s."""
    ens, elapsed, _ = ens_c1
    means = ens.values.mean(axis=0)
    worst = float(np.max(np.abs(means - 0.305)))
    assert worst < 0.0019
    assert elapsed < 60.0
    print(
        f"\nCRITERION 1 PASS: martingale |mean-0.305| <= {worst:.2e} "
        f"over 81 slices (limit 1.9e-3); simulation took {elapsed:.1f}s"
    )


def test_criterion_01_example_bimodal_matches_analytic(ens_c1):
    """Companion check at the same scale: the tau = 1.2 histogram matches
    the closed-form two-Gaussian solution within TV 0.01."""
    ens, _, _ = ens_c1
    hist = build_histogram(ens, 80)
    ref = analytic_bin_masses(0.305, 1.2, EDGES)
    tv = 0.5 * (np.abs(hist.density - ref).sum() + hist.mass0 + hist.mass1)
    assert tv < 0.01
    print(f"CRITERION 1 companion: TV(histogram, analytic) = {tv:.4f} < 0.01")


def test_criterion_02_relaxation_mean(ens_c2):
    """Same ensemble with T1 = 45 us: final mean hits the exact
    relaxation ODE value within 4 standard errors."""
    ens, _ = ens_c2
    final = ens.values[:, -1]
    expected = 1.0 - 0.695 * math.exp(-40.0 / 45.0)
    se = float(final.std() / math.sqrt(final.size))
    dev = abs(float(final.mean()) - expected)
    assert dev < 4 * se
    print(
        f"\nCRITERION 2 PASS: relaxed mean off by {dev:.2e} "
        f"(4 SE = {4 * se:.2e}; exact value {expected:.6f})"
    )


def test_criterion_03_fp_analytic_agreement():
    """T1 = inf: solver output within L1 1e-3 of the closed form on 100
    bins for x0 in {0.305, 0.5}, tau in {0.1, 0.5, 1.0, 2.0}; mass
    conserved to 1e-10."""
    g = 0.03
    taus = [0.1, 0.5, 1.0, 2.0]
    worst_l1 = 0.0
    worst_mass = 0.0
    t0 = time.perf_counter()
    for x0 in (0.305, 0.5):
        sols = solve_fp(x0, g, math.inf, [tau / g for tau in taus])
        for tau, sol in zip(taus, sols):
            snap = fp_snapshot_to_bins(sol)
            ref = analytic_bin_masses(x0, tau, EDGES)
            l1 = float(np.abs(snap.density - ref).sum() + snap.mass0 + snap.mass1)
            worst_l1 = max(worst_l1, l1)
            worst_mass = max(worst_mass, abs(sol.total_mass - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst_l1 < 1e-3
    assert worst_mass <= 1e-10
    print(
        f"\nCRITERION 3 PASS: worst L1 = {worst_l1:.2e} (< 1e-3), "
        f"worst mass drift = {worst_mass:.2e} (<= 1e-10), {elapsed:.1f}s for 8 cases"
    )


def test_criterion_04_sde_fp_agreement(ens_c2):
    """T1 = 45 us experiment-style parameters: TV between the 1e6-trajectory
    histogram and the solver below 0.01 at t = 5, 20, 40 us."""
    ens, _ = ens_c2
    sols = solve_fp(0.305, 0.03, 45.0, [5.0, 20.0, 40.0], dt=0.5)
    worst = 0.0
    for k, sol in zip((10, 40, 80), sols):
        hist = build_histogram(ens, k)
        model = fp_snapshot_to_bins(sol)
        worst = max(worst, tv_distance(hist, model))
    assert worst < 0.01
    print(f"\nCRITERION 4 PASS: worst TV(SDE, FP) = {worst:.4f} < 0.01")


# the statistical oracle: g, T1, dt, x0, t of five points, spanning g*T1/100
# from 0.005 to 0.1, g*dt from 0.015 to 0.05, T1 from 5 to 45 and three x0
ORACLE_POINTS = {
    "row1": (0.32, 20.0, 0.125, 0.305, 5.0),
    "row2": (0.4, 20.0, 0.0625, 0.305, 2.5),
    "row3": (0.03, 45.0, 0.5, 0.305, 40.0),
    "row4": (0.1, 5.0, 0.25, 0.7, 10.0),
    "row5": (1.0, 10.0, 0.05, 0.5, 2.0),
}
SEED_ORACLE = 99


@pytest.fixture(scope="module")
def oracle_counts():
    """Counts (100 bins, then rho00 = 0 and 1) of the last slice of 2e5
    trajectories at each oracle point, one batch of rows at a time."""
    counts = {}
    for name, (g, T1, dt, x0, t) in ORACLE_POINTS.items():
        params = ModelParams(g=g, T1=T1, dt=dt, x0=x0, n_steps=round(t / dt))
        counts[name] = sum(histogram_counts(block[:, -1], 100, 0.01) for block in
                           simulate_batches(params, 200_000, SeedSpec(SEED_ORACLE), n_workers=2))
    return counts


def pearson_p(counts, model):
    """Pearson chi-square p value of the counts against a model snapshot:
    the 100 bins and the two boundary masses merged into one cell (the
    grid's top bucket is z > 12, the Monte Carlo's rho00 = 1 lies beyond
    z ~ 18), over the cells whose expected count is above 5."""
    n = counts.sum()
    observed = np.append(counts[:100], counts[100] + counts[101])
    expected = n * np.append(model.density, model.mass0 + model.mass1)
    keep = expected > 5
    x2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    ndf = int(keep.sum()) - 1
    return stats.chi2.sf(x2, ndf), f"chi2 {x2:.1f} on {ndf}"


@pytest.mark.parametrize("point", ORACLE_POINTS)
def test_fp_model_at_the_data_step_matches_monte_carlo(oracle_counts, point):
    """The Fokker-Planck model with the data's own substep agrees with the
    exact discrete process at every oracle point: p > 1e-3."""
    g, T1, dt, x0, t = ORACLE_POINTS[point]
    model = fp_snapshot_to_bins(solve_fp(x0, g, T1, [t], dt=dt)[0])
    p, text = pearson_p(oracle_counts[point], model)
    assert p > 1e-3, text


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the CLI substeps at T1/100, not dt_us")
@pytest.mark.parametrize("point", ["row2", "row5"])
def test_cli_fp_model_matches_monte_carlo(oracle_counts, point, tmp_path):
    """The model `qtraj solve-fp` writes for the point's keys passes the
    same oracle."""
    g, T1, dt, x0, t = ORACLE_POINTS[point]
    n_steps = round(t / dt)
    assert main(["solve-fp", f"--out={tmp_path}", f"--g_per_us={g!r}", f"--t1_us={T1!r}",
                 f"--dt_us={dt!r}", f"--x0={x0!r}", f"--n_steps={n_steps}"]) == 0
    lines = (tmp_path / f"fp_{n_steps:05d}.txt").read_text().splitlines()
    head = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("#"))
    density = np.array([float(ln.split(",")[1]) for ln in lines if not ln.startswith("#")])
    model = DistributionSnapshot(n_bins=100, bin_width=0.01, density=density,
                                 errors=np.zeros(100), mass0=float(head["mass0"]),
                                 mass1=float(head["mass1"]), t=float(head["t_us"]))
    p, text = pearson_p(oracle_counts[point], model)
    assert p > 1e-3, text


def test_criterion_05_strong_measurement_born_weights():
    """x0 = 0.3, tau = 12, 1e5 trajectories: eigenstate fractions carry
    the Born weights 0.300/0.700 within 0.006."""
    params = ModelParams(g=2.0, T1=math.inf, dt=0.5, x0=0.3, n_steps=12)
    ens = simulate_ensemble(params, 100_000, SeedSpec(SEED_C5), n_workers=1)
    final = ens.values[:, -1]
    frac_up = float((final > 0.99).mean())
    frac_dn = float((final < 0.01).mean())
    assert abs(frac_up - 0.300) < 0.006
    assert abs(frac_dn - 0.700) < 0.006
    print(
        f"\nCRITERION 5 PASS: boundary fractions {frac_up:.4f}/{frac_dn:.4f} "
        f"vs 0.300/0.700 (tol 0.006)"
    )


@pytest.fixture(scope="module")
def c6_pipeline():
    recs, latent = generate_records(
        PARAMS_C6, CAL_C6, 1_000_000, SeedSpec(SEED_C6), n_workers=1
    )
    rebuilt = reconstruct_ensemble(recs, n_workers=1)
    digests = (sha(recs.currents), sha(latent.values), sha(rebuilt.values))
    hist = build_histogram(rebuilt, N_STEPS_C6)
    bitwise = np.array_equal(rebuilt.values, latent.values)
    return hist, digests, bitwise


def fit_c6(hist):
    """The criterion-6 fit of one histogram: not at the scan edge, chi2
    in the good-fit range [60, 200] for 100 bins."""
    res = fit_tau([hist], make_analytic_model_gen(0.305, 1), 0.3 + 0.005 * np.arange(81))[0]
    assert not res.at_edge
    assert 60.0 <= res.chi2_min <= 200.0
    return res


def test_criterion_06_end_to_end_tau_round_trip(c6_pipeline):
    """Synthetic records at n*kappa = 0.5, eta = 1, reconstructed and
    fitted: on the 1e6-record draw and on each of the 2e5-record draws
    of SEEDS_C6_PULL, reconstruction gives the latent ensemble bit for
    bit and chi2 lies in [60, 200].  Over those seeds the pulls
    (tau_best - 0.5) / err1, err1 the delta-chi2 = 1 error, have a mean
    within 3/sqrt(n) of 0 and a sample sd between the 0.1% and 99.9%
    quantiles of the sample sd of n unit normals."""
    hist, _, bitwise = c6_pipeline
    assert bitwise
    fit_c6(hist)
    pulls = []
    for seed in SEEDS_C6_PULL:
        recs, latent = generate_records(PARAMS_C6, CAL_C6, 200_000, SeedSpec(seed), n_workers=1)
        rebuilt = reconstruct_ensemble(recs, n_workers=1)
        assert np.array_equal(rebuilt.values, latent.values)
        res = fit_c6(build_histogram(rebuilt, N_STEPS_C6))
        pulls.append((res.tau_best - 0.5) / res.tau_error_dchi2_1)
    n, mean, sd = len(pulls), float(np.mean(pulls)), float(np.std(pulls, ddof=1))
    assert abs(mean) <= 3.0 / math.sqrt(n)
    lo, hi = (math.sqrt(stats.chi2.ppf(q, n - 1) / (n - 1)) for q in (0.001, 0.999))
    assert lo <= sd <= hi
    print(
        f"\nCRITERION 6 PASS: {n} seeds, mean pull {mean:+.2f} (limit 3/sqrt(n) = "
        f"{3.0 / math.sqrt(n):.2f}), sd {sd:.2f} in [{lo:.2f}, {hi:.2f}]"
    )


@pytest.fixture(scope="module")
def c7_fits():
    slices = list(range(10, 81, 10))
    scan = 0.01 * np.arange(161)
    out = {}
    ens_digest = {}
    for x0, seed in SEED_C7.items():
        params = ModelParams(g=0.03, T1=math.inf, dt=0.5, x0=x0, n_steps=80)
        ens = simulate_ensemble(params, 200_000, SeedSpec(seed), n_workers=1)
        ens_digest[x0] = sha(ens.values)
        observed = [build_histogram(ens, k) for k in slices]
        gen = make_analytic_model_gen(x0, len(slices))
        out[x0] = fit_tau(observed, gen, scan)
    times = np.array(slices) * 0.5
    return out, times, ens_digest


def test_criterion_07_initial_state_independence(c7_fits):
    """Constant-g synthetic data: fitted tau(t) is the same straight
    line through the origin for x0 in {0.3, 0.5, 0.7}."""
    fits, times, _ = c7_fits
    xs = sorted(fits)
    n_slices = len(times)
    # pairwise agreement within combined delta-chi2 = 100 error bars
    for i, xa in enumerate(xs):
        for xb in xs[i + 1:]:
            for k in range(n_slices):
                ra, rb = fits[xa][k], fits[xb][k]
                combined = math.hypot(ra.tau_error, rb.tau_error)
                assert abs(ra.tau_best - rb.tau_best) <= combined
    # monotone consistency: tau = g*t is nondecreasing, so later slices
    # must not fit below earlier ones beyond combined errors
    for x0 in xs:
        rs = fits[x0]
        for k in range(n_slices - 1):
            combined = math.hypot(rs[k].tau_error, rs[k + 1].tau_error)
            assert rs[k + 1].tau_best >= rs[k].tau_best - combined
    # linearity through the origin
    worst_r2 = 1.0
    for x0 in xs:
        tau = np.array([r.tau_best for r in fits[x0]])
        slope = float((times * tau).sum() / (times * times).sum())
        resid = tau - slope * times
        r2 = 1.0 - float((resid**2).sum() / ((tau - tau.mean()) ** 2).sum())
        worst_r2 = min(worst_r2, r2)
        assert r2 > 0.999
    print(
        f"\nCRITERION 7 PASS: tau(t) pairwise-consistent for x0 in {xs}, "
        f"linear with R^2 >= {worst_r2:.6f}"
    )


def test_criterion_08_reconstruction_simulation_equivalence():
    """z-increments from the Bayesian record update match the exact
    diffusion step (weak-readout calibration) by a two-sample KS test."""
    cal = CAL_WEAK_READOUT
    kappa = cal.kappa
    assert abs(kappa - 0.002787) < 5e-7
    n = 100_000
    traj = np.arange(n, dtype=np.uint64)
    u = counter_uniform(88, traj, 0, STREAM_BRANCH)
    xi = counter_normal(88, traj, 0, STREAM_NOISE)
    center = np.where(u < 0.5, cal.I0, cal.I1)
    # both start at rho00 = 0.5, odds 1, z = 0: the increments are log(o)/2
    o_bayes = _meas(np.ones(n), center + cal.sigma * xi, cal.I0, cal.I1, cal.sigma, np.empty(n))
    u2 = counter_uniform(89, traj, 0, STREAM_BRANCH)
    xi2 = counter_normal(89, traj, 0, STREAM_NOISE)
    o_diff = _diffuse(np.ones(n), kappa, u2, xi2, np.empty(n))
    dz_bayes, dz_diff = 0.5 * np.log(o_bayes), 0.5 * np.log(o_diff)
    p = stats.ks_2samp(dz_bayes, dz_diff).pvalue
    assert p > 1e-3
    print(
        f"\nCRITERION 8 PASS: KS p = {p:.3f} > 1e-3 at 1e5 samples "
        f"(kappa = {kappa:.6f})"
    )


def test_criterion_09_trotter_convergence():
    """Halving the Trotter step at fixed tau and T1 shrinks the
    distribution distance by ~4x (second order).  Measured on the
    deterministic density evolution, which shares the splitting with the
    Monte Carlo stepper, so the order is not buried under MC noise; the
    fine grid keeps the per-substep deposit smoothing (which grows as
    1/dt) well below the splitting signal."""
    def solve(dt):
        return fp_snapshot_to_bins(_Solver(0.305, 45.0, n_cells=16384, dt=dt).run(0.03, [40.0])[0])

    ref = solve(0.125)

    def err(dt):
        snap = solve(dt)
        return float(
            np.abs(snap.density - ref.density).sum()
            + abs(snap.mass0 - ref.mass0)
            + abs(snap.mass1 - ref.mass1)
        )

    e = {dt: err(dt) for dt in (4.0, 2.0, 1.0)}
    r1 = e[4.0] / e[2.0]
    r2 = e[2.0] / e[1.0]
    assert 2.0 <= r1 <= 6.0
    assert 2.0 <= r2 <= 6.0
    print(
        f"\nCRITERION 9 PASS: error ratios under dt halving: "
        f"{r1:.2f}, {r2:.2f} (target 4, allowed [2, 6])"
    )


def test_criterion_10_determinism_across_thread_counts(
    ens_c1, ens_c2, c6_pipeline, c7_fits
):
    """Rerunning the stochastic pipelines of the other criteria on
    different thread counts reproduces byte-identical arrays."""
    _, _, h1 = ens_c1
    _, h2 = ens_c2
    _, c6_digests, _ = c6_pipeline
    _, _, c7_digests = c7_fits
    checked = 0
    for workers in (2, 4):
        ens = simulate_ensemble(PARAMS_C1, 1_000_000, SeedSpec(SEED_C1), n_workers=workers)
        assert sha(ens.values) == h1
        del ens
        checked += 1
    ens = simulate_ensemble(PARAMS_C2, 1_000_000, SeedSpec(SEED_C2), n_workers=4)
    assert sha(ens.values) == h2
    del ens
    checked += 1
    recs, latent = generate_records(
        PARAMS_C6, CAL_C6, 1_000_000, SeedSpec(SEED_C6), n_workers=4
    )
    rebuilt = reconstruct_ensemble(recs, n_workers=4)
    assert (sha(recs.currents), sha(latent.values), sha(rebuilt.values)) == c6_digests
    del recs, latent, rebuilt
    checked += 3
    params = ModelParams(g=0.03, T1=math.inf, dt=0.5, x0=0.3, n_steps=80)
    ens = simulate_ensemble(params, 200_000, SeedSpec(SEED_C7[0.3]), n_workers=3)
    assert sha(ens.values) == c7_digests[0.3]
    del ens
    checked += 1
    # strong-measurement ensemble of criterion 5
    params5 = ModelParams(g=2.0, T1=math.inf, dt=0.5, x0=0.3, n_steps=12)
    a = simulate_ensemble(params5, 100_000, SeedSpec(SEED_C5), n_workers=1)
    b = simulate_ensemble(params5, 100_000, SeedSpec(SEED_C5), n_workers=4)
    assert np.array_equal(a.values, b.values)
    del a, b
    checked += 1
    # the deterministic solver is seed-free; byte-stability across reruns
    w1 = solve_fp(0.305, 0.03, 45.0, [20.0], dt=0.5)[0]
    w2 = solve_fp(0.305, 0.03, 45.0, [20.0], dt=0.5)[0]
    assert np.array_equal(w1.weights, w2.weights)
    checked += 1
    print(
        f"\nCRITERION 10 PASS: {checked} pipeline reruns byte-identical "
        f"across thread counts 1/2/3/4"
    )

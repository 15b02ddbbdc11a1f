import gc
import math
import re
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.signal import fftconvolve
from scipy.special import expit, ndtr

from qtraj import fokker_planck as fp
from qtraj.core import ModelParams, TrajectoryEnsemble, build_histogram, to_logodds, to_rho
from qtraj.fitting import make_fp_model_gen
from qtraj.fokker_planck import (
    DensityGrid,
    analytic_bin_masses,
    fp_snapshot_to_bins,
    solve_fp,
)
from qtraj.rng import SeedSpec
from qtraj.sde import _relax, simulate_ensemble

EDGES = np.arange(101) * 0.01


def l1_bins(snap, ref_masses):
    return float(
        np.abs(snap.density - ref_masses).sum() + snap.mass0 + snap.mass1
    )


def mixture_cdf(z, x0, tau):
    """Closed form in z: Gaussians at atanh(2 x0 - 1) +- tau, variance tau,
    Born-rule weights x0 and 1 - x0."""
    z0, s = math.atanh(2.0 * x0 - 1.0), math.sqrt(tau)
    return x0 * ndtr((z - z0 - tau) / s) + (1.0 - x0) * ndtr((z - z0 + tau) / s)


def broken_diffusion(fault, fft_only=False):
    """``_Diffusion.apply`` that then takes 1e-6 from the first cell
    ("negative") or adds 1e-6 to the rho00 = 1 bucket ("drift"); with
    ``fft_only``, only where it transforms the window, not where it
    spreads a relaxed start's cells directly."""
    apply = fp._Diffusion.apply

    def broken(self, s, cells=None):
        apply(self, s, cells)
        if fft_only and cells is not None:
            return
        if fault == "negative":
            s.w = s.w.copy()
            s.w[0] -= 1e-6
        else:
            s.mass1 += 1e-6

    return broken


class TestAnalyticZ:
    def test_symmetric_initial_state(self):
        # centers at -1 and +1, weights 1/2: half of the lower branch lies below -1
        m = analytic_bin_masses(0.5, 1.0, [0.0, to_rho(-1.0), 0.5, to_rho(1.0), 1.0])
        assert np.allclose(m, m[::-1], rtol=1e-12, atol=0.0)
        assert math.isclose(m[0], 0.25 + 0.5 * ndtr(-2.0), rel_tol=1e-12)

    def test_offcenter_initial_state(self):
        # centers pinned at atanh(2 * 0.305 - 1) +- 1.2, variance 1.2
        z = to_logodds(EDGES[1:-1])
        s = math.sqrt(1.2)
        cdf = 0.305 * ndtr((z - 0.7881999655213098) / s) + 0.695 * ndtr(
            (z + 1.6118000344786902) / s
        )
        ref = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        m = analytic_bin_masses(0.305, 1.2, EDGES)
        assert np.allclose(m, ref, rtol=1e-10, atol=1e-15)

    def test_tau_zero_delta(self):
        masses = analytic_bin_masses(0.3, 0.0, EDGES)
        assert masses.sum() == 1.0
        assert (masses > 0).sum() == 1
        assert analytic_bin_masses(0.305, 0.0, EDGES)[30] == 1.0

    @pytest.mark.parametrize("on", ["two_digit", "edge"])
    def test_tau_zero_edges_follow_histogram(self, on):
        # x0 = k/100 and x0 = edges[k] (k*0.01, which differs from k/100
        # for some k): the closed form puts the mass in the bin that
        # build_histogram puts a constant ensemble at exactly x0 in
        edges = np.arange(101) * 0.01
        for k in range(1, 100):
            x0 = k / 100 if on == "two_digit" else float(edges[k])
            ens = TrajectoryEnsemble(n_traj=3, n_steps=0, dt=1.0, values=np.full((3, 1), x0))
            snap = build_histogram(ens, 0)
            masses = analytic_bin_masses(x0, 0.0, snap.bin_edges)
            assert np.array_equal(np.flatnonzero(masses), np.flatnonzero(snap.density)), x0
            assert math.isclose(masses.sum(), 1.0, rel_tol=1e-15)

    def test_degenerate_x0(self):
        # an eigenstate stays put: all mass in its edge bin
        up = analytic_bin_masses(1.0, 0.7, EDGES)
        assert up[-1] == 1.0 and up[:-1].sum() < 1e-250
        down = analytic_bin_masses(0.0, 0.7, EDGES)
        assert down[0] == 1.0 and not down[1:].any()

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            analytic_bin_masses(0.5, -0.1, EDGES)
        with pytest.raises(ValueError):
            analytic_bin_masses(1.5, 0.1, EDGES)

    def test_bin_masses_normalized(self):
        for x0, tau in ((0.305, 0.6), (0.5, 2.0), (0.7, 0.1)):
            m = analytic_bin_masses(x0, tau, EDGES)
            assert math.isclose(m.sum(), 1.0, abs_tol=1e-12)
            assert np.all(m >= 0)


def rho_density(x0, tau, lo, hi, n):
    """Density of rho00 on n cells of [lo, hi], from exact bin masses."""
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:]), analytic_bin_masses(x0, tau, edges) / np.diff(edges)


class TestAnalyticRho:
    """The no-relaxation solution seen as a distribution of rho00."""

    def test_symmetry(self):
        z_grid = to_rho(np.linspace(-6.0, 6.0, 121))  # edges uniform in z
        for edges in (EDGES, np.concatenate([[0.0], z_grid, [1.0]])):
            m = analytic_bin_masses(0.5, 0.8, edges)
            assert np.allclose(m, m[::-1], rtol=1e-9, atol=1e-15)

    def test_boundary_limit_zero(self):
        # no mass collects near the eigenstates in finite tau
        m = analytic_bin_masses(0.4, 0.5, [0.0, 1e-6, 1 - 1e-6, 1.0])
        assert m[0] < 1e-15 and m[2] < 1e-15

    def test_modes_match_stationarity_oracle(self):
        # the Jacobian 1/(2 rho (1-rho)) moves the rho-space maxima off
        # the pushed-forward centers: the stationary points solve
        # (z - mu)/tau = 2 tanh z.  At (0.305, 1.2) the solutions sit at
        # z = -4.0102 and +3.1799, far from the centers, so grid argmax
        # is checked against this oracle, not against to_rho(centers).
        from scipy.optimize import brentq

        r, dens = rho_density(0.305, 1.2, 1e-6, 1 - 1e-6, 2_000_000)
        lo_mode = r[np.argmax(np.where(r < 0.5, dens, -1.0))]
        hi_mode = r[np.argmax(np.where(r >= 0.5, dens, -1.0))]
        z0 = to_logodds(0.305)
        for mu, mode in ((z0 - 1.2, lo_mode), (z0 + 1.2, hi_mode)):
            z_star = brentq(
                lambda z: (z - mu) / 1.2 - 2.0 * math.tanh(z),
                2.5 if mu > 0 else -12.0,
                12.0 if mu > 0 else -2.5,
                xtol=1e-14,
            )
            assert abs(mode - to_rho(z_star)) < 1e-4

    def test_modes_match_pushforward_weak_limit(self):
        # for small tau the mode shift is O(tau) and the pushed-forward
        # centers are good to within one 0.01 bin
        r, dens = rho_density(0.305, 0.01, 1e-4, 1 - 1e-4, 500_000)
        mode = r[np.argmax(dens)]
        assert abs(mode - to_rho(to_logodds(0.305) - 0.01)) < 0.01


class TestSolveFP:
    def test_analytic_agreement_no_relaxation(self):
        g = 0.03
        tau = 1.0
        sols = solve_fp(0.305, g, math.inf, [tau / g])
        snap = fp_snapshot_to_bins(sols[0])
        ref = analytic_bin_masses(0.305, tau, EDGES)
        assert l1_bins(snap, ref) < 1e-3
        assert abs(sols[0].total_mass - 1.0) <= 1e-10

    def test_grid_past_the_cap(self):
        # nodes relaxed beyond |z| = Z_CAP land on the cap, as in the Monte
        # Carlo, instead of casting an infinite landing position to a cell:
        # a full step of delta = dt/T1 = 100 sends every node past it
        solver = fp._Solver(0.305, 0.01)
        assert np.all(np.isinf(_relax(np.exp(2.0 * solver.nodes), 100.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full_step = fp._Relaxation(solver, 100.0)
            sol = solve_fp(0.305, 0.1, 0.01, [3.0], dt=1.0)[0]
        assert full_step.alpha.size == 0  # every node lands in the rho00 = 1 bucket
        assert sol.mass1 == 1.0 and sol.mass0 == 0.0 and not sol.weights.any()

    def test_sequential_snapshots_compose(self):
        g = 0.03
        taus = [0.1, 0.5, 1.0]
        sols = solve_fp(0.5, g, math.inf, [t / g for t in taus])
        for tau, sol in zip(taus, sols):
            ref = analytic_bin_masses(0.5, tau, EDGES)
            assert l1_bins(fp_snapshot_to_bins(sol), ref) < 1e-3

    def test_martingale_flat(self):
        g = 0.05
        sols = solve_fp(0.305, g, math.inf, [5.0, 20.0, 40.0])
        for sol in sols:
            assert abs(sol.mean_rho - 0.305) < 1e-6

    def test_pure_drift_moving_delta(self):
        # g = 0: relaxation alone moves a sharp peak along the exact mean
        sols = solve_fp(0.305, 0.0, 45.0, [10.0, 20.0], dt=0.5)
        for sol, t in zip(sols, (10.0, 20.0)):
            expected = 1.0 - 0.695 * math.exp(-t / 45.0)
            assert abs(sol.mean_rho - expected) < 1e-12
            rho = to_rho(sol.nodes)
            inside = np.abs(rho - expected) < 0.02
            assert sol.weights[inside].sum() > 0.999

    def test_mean_evolution_with_relaxation(self):
        g = 0.03
        T1 = 45.0
        sols = solve_fp(0.305, g, T1, [5.0, 20.0, 40.0], dt=0.5)
        for sol, t in zip(sols, (5.0, 20.0, 40.0)):
            expected = 1.0 - 0.695 * math.exp(-t / T1)
            assert abs(sol.mean_rho - expected) / expected < 1e-4
        for sol in sols:
            assert abs(sol.total_mass - 1.0) <= 1e-10
            assert sol.weights.min() >= 0.0

    def test_sde_agreement_with_relaxation(self):
        params = ModelParams(g=0.03, T1=45.0, dt=0.5, x0=0.305, n_steps=40)
        n = 100_000
        ens = simulate_ensemble(params, n, SeedSpec(5150))
        hist = build_histogram(ens, 40)
        sol = solve_fp(0.305, 0.03, 45.0, [20.0], dt=0.5)[0]
        model = fp_snapshot_to_bins(sol)
        tv = 0.5 * (
            np.abs(hist.density - model.density).sum()
            + abs(hist.mass0 - model.mass0)
            + abs(hist.mass1 - model.mass1)
        )
        assert tv < 0.02  # 1e5 trajectories; acceptance runs 1e6 at 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_fp(0.5, -1.0, math.inf, [1.0])
        with pytest.raises(ValueError):
            solve_fp(0.5, 0.1, 0.0, [1.0])
        with pytest.raises(ValueError):
            solve_fp(0.5, 0.1, math.inf, [2.0, 1.0])  # decreasing times
        with pytest.raises(ValueError, match="x0 maps outside the z grid"):
            solve_fp(1e-12, 0.1, math.inf, [1.0])  # z = -13.8, below [-12, 12]
        for g in (math.nan, math.inf):
            with pytest.raises(ValueError, match="g must be finite"):
                solve_fp(0.5, g, 20.0, [1.0])
        with pytest.raises(ValueError, match="n_cells"):
            fp._Solver(0.5, 20.0, n_cells=4)
        for dt in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="dt=.* must be finite and > 0"):
                solve_fp(0.5, 0.1, 20.0, [1.0], dt=dt)
        for t_grid in ([math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError, match="t_grid entries must be finite"):
                solve_fp(0.5, 0.1, 20.0, t_grid)
        with pytest.raises(ValueError, match="nodes and weights must be matching 1-D arrays"):
            DensityGrid(nodes=np.zeros(4), weights=np.zeros(5), mass0=0.0, mass1=0.0, t=0.0)

    @pytest.mark.parametrize("fault, message", [
        ("negative", "negative density -1.000e-06 at t = 1.0"),
        ("drift", "mass drift 1.000e-06 at t = 1.0"),
    ])
    def test_broken_operator_raises(self, monkeypatch, fault, message):
        # each snapshot is checked: a diffusion that leaves a negative cell
        # or creates mass fails the run instead of returning the snapshot.
        # At T1 = inf the one substep from the start is a direct spread of
        # its cells; the one from the snapshot at 0.5 transforms the window
        direct, fft = broken_diffusion(fault), broken_diffusion(fault, fft_only=True)
        for broken, t_grid in ((direct, [1.0]), (fft, [0.5, 1.0])):
            monkeypatch.setattr(fp._Diffusion, "apply", broken)
            with pytest.raises(fp.FPSolverError, match=f"^{message}$"):
                solve_fp(0.305, 0.1, math.inf, t_grid)

    def test_pure_diffusion_ignores_dt(self):
        # at T1 = inf each interval is one substep with zero relaxation
        t_grid = [5.0, 20.0, 40.0]
        ref = solve_fp(0.305, 0.05, math.inf, t_grid)
        for dt in (0.5, 7.0):
            for sol, r in zip(solve_fp(0.305, 0.05, math.inf, t_grid, dt=dt), ref, strict=True):
                assert np.array_equal(sol.weights, r.weights)
                assert (sol.mass0, sol.mass1, sol.t) == (r.mass0, r.mass1, r.t)

    def test_substep_count_refused_before_the_first_substep(self, monkeypatch):
        # T1 = 1e-4 substeps at T1/100 = 1e-6: the first interval (0.5)
        # would take 5e5 substeps; with dt = 0.5 the same call runs at once
        monkeypatch.setattr(fp._Diffusion, "apply", lambda *a: pytest.fail("substep ran"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                "an interval of length 0.5 at T1 = 0.0001 needs 500000 substeps of 1e-06, "
                "more than 100000")):
            solve_fp(0.305, 0.1, 1e-4, [0.5, 1.0])
        assert time.perf_counter() - start < 1.0
        # a later interval is refused before the first one runs, too
        with pytest.raises(ValueError, match="needs 100001 substeps of 1e-06"):
            solve_fp(0.305, 0.1, 1e-4, [1e-6, 1e-6 + 0.100001])
        monkeypatch.undo()
        solve_fp(0.305, 0.1, 1e-4, [0.5, 1.0], dt=0.5)
        assert fp._Solver(0.305, 1e-4).interval(1e5 * 1e-6)[0] == 100_000  # at the limit

    def test_reentry_beyond_the_grid(self, monkeypatch):
        # a full step of delta = 30 re-enters the rho00 = 0 bucket at
        # z = ln(expm1(30))/2 ~ 15, past the grid: its mass (about 2.1e-7
        # after the first diffusion) goes to the rho00 = 1 bucket, and the
        # last half step (delta = 15, re-entry at z ~ 7.5) empties it
        ran = []
        apply = fp._Relaxation.apply

        def watch(self, s, *args):
            if self.delta and self.reentry_above and s.mass0 > 0.0:
                ran.append((self.delta, s.mass0))
            apply(self, s, *args)

        monkeypatch.setattr(fp._Relaxation, "apply", watch)
        (snap,) = solve_fp(0.305, 1.0, 1.0, [60.0], dt=30.0)
        assert len(ran) == 1 and ran[0][0] == 30.0 and 1e-7 < ran[0][1] < 1e-6
        assert snap.mass0 == 0.0
        assert abs(snap.weights.sum() + snap.mass0 + snap.mass1 - 1.0) <= 1e-12

    def test_grid_initial_condition(self):
        # the second snapshot continues from the first one's grid
        cont = solve_fp(0.4, 0.05, math.inf, [4.0, 8.0])
        direct = solve_fp(0.4, 0.05, math.inf, [8.0])
        ref = analytic_bin_masses(0.4, 0.4, EDGES)
        assert l1_bins(fp_snapshot_to_bins(cont[1]), ref) < 1e-3
        assert l1_bins(fp_snapshot_to_bins(direct[0]), ref) < 1e-3


class TestRebinning:
    def test_mass_preserved(self):
        sol = solve_fp(0.305, 0.03, math.inf, [20.0])[0]
        snap = fp_snapshot_to_bins(sol)
        assert abs(snap.total_mass - sol.total_mass) <= 1e-12

    def test_delta_single_bin(self):
        sols = solve_fp(0.305, 0.0, math.inf, [0.0])
        snap = fp_snapshot_to_bins(sols[0])
        assert (snap.density > 1e-15).sum() == 1
        assert snap.density[30] > 0  # 0.305 lives in [0.30, 0.31)
        assert math.isclose(snap.density.sum(), 1.0, abs_tol=1e-12)

    def test_delta_near_bin_edge_may_straddle(self):
        # the two-cell deposit around an x0 on a bin edge can occupy the
        # two adjacent bins, never more
        sols = solve_fp(0.3100001, 0.0, math.inf, [0.0])
        snap = fp_snapshot_to_bins(sols[0])
        assert 1 <= (snap.density > 1e-15).sum() <= 2
        assert math.isclose(snap.density.sum(), 1.0, abs_tol=1e-12)

    def test_rebin_matches_direct_bin_integration(self):
        # cell-integrate the exact mixture on a fine grid, rebin, and
        # compare against the exact rho-bin integrals
        x0, tau = 0.305, 0.6
        n_cells = 32768
        z_edges = np.linspace(-12.0, 12.0, n_cells + 1)
        cdf = mixture_cdf(z_edges, x0, tau)
        nodes = 0.5 * (z_edges[:-1] + z_edges[1:])
        grid = DensityGrid(
            nodes=nodes, weights=np.diff(cdf), mass0=float(cdf[0]), mass1=float(1.0 - cdf[-1]),
            t=0.0,
        )
        snap = fp_snapshot_to_bins(grid)
        with np.errstate(divide="ignore"):  # the end edges map to z = -+inf
            direct = np.diff(mixture_cdf(np.arctanh(2.0 * EDGES - 1.0), x0, tau))
        assert np.max(np.abs(snap.density - direct)) < 1e-6



def diffusion_lengths():
    """(input, kernel) lengths of the transforms `_Diffusion` makes, on
    the whole grid (T1 = inf) and on the window of a 0.2 us substep at
    T1 = 20 us."""
    out = []
    for n_cells, kappa in ((8192, 0.006), (8192, 0.25), (2048, 0.1)):
        s = fp._Solver(0.5, 20.0, n_cells=n_cells)
        for k0 in (0, s.interval(0.2)[2].floor):
            n = n_cells - k0
            k = fp._Diffusion(s, kappa, k0).size - n + 1
            out += [(n, k), (n + k - 1, k)]  # branch spreading; mean correlation
    return out


# six diffusion operators' lengths, then prime lengths, a prime full
# length (1009), one just past a fast length (8193) and equal lengths (a
# one-point "valid" part)
FFT_LENGTHS = diffusion_lengths() + [(8191, 509), (10007, 3), (1000, 10), (8000, 194), (37, 37)]


class TestFFTConvolve:
    """The frequency-domain forms `_Diffusion` builds on: a convolution
    of a row of a zero-padded buffer, and a "valid" correlation through
    the kernel's conjugate spectrum at the input's own fast length."""

    @pytest.mark.parametrize("na, nk", FFT_LENGTHS)
    def test_matches_scipy_signal(self, na, nk):
        rng = np.random.default_rng(na * 7919 + nk)
        a, k = rng.random(na) - 0.25, rng.random(nk)
        n = next_fast_len(na + nk - 1, real=True)
        pad = np.zeros(n)
        pad[:na] = a
        full = irfft(rfft(pad) * rfft(k, n), n)[: na + nk - 1]
        assert np.array_equal(full, fftconvolve(a, k))
        n = next_fast_len(na, real=True)
        corr = irfft(rfft(a, n) * rfft(k, n).conj(), n)[: na - nk + 1]
        valid = fftconvolve(a, k[::-1], mode="valid")
        assert np.max(np.abs(corr - valid)) <= 1e-14 * np.abs(a).sum()

    @pytest.mark.parametrize("na, nk", FFT_LENGTHS)
    def test_two_rows_match_one_row_each(self, na, nk):
        # the diffusion transforms both branches (and both kernels) as
        # the two rows of one array; each row must be the 1-row result
        rng = np.random.default_rng(na * 7919 + nk)
        a, k = rng.random((2, na)) - 0.25, rng.random((2, nk))
        n = next_fast_len(na + nk - 1, real=True)
        spec_a, spec_k = rfft(a, n), rfft(k, n)
        back = irfft(spec_a * spec_k, n)
        for i in range(2):
            assert np.array_equal(spec_a[i], rfft(a[i], n))
            assert np.array_equal(spec_k[i], rfft(k[i], n))
            assert np.array_equal(back[i], irfft(rfft(a[i], n) * rfft(k[i], n), n))


# ---------------------------------------------------------------------------
# per-substep references: the solver as it was before its operators were
# built once per interval.  They rebuild everything on every substep and
# deposit with np.add.at, and they spread the relaxed start's few cells
# directly (ref_spread); the solver must agree with them bitwise.  Three
# earlier diffusions are references too, each run on every substep: the
# window's transform on the first substep as well (ref_diffuse), the
# full-grid one before the window (ref_diffuse_full_grid) and the one
# before its branches shared one inverse transform
# (ref_diffuse_two_inverse).  The solver must match each within 1e-13
# wherever the two schemes' branch weights agree to rounding.


def ref_kernels(s, kappa):
    """Extent (lo, hi) and, per branch (+kappa, -kappa), the kernel and
    its two truncated tails, cell by cell."""
    sig = math.sqrt(kappa)
    lo = int(math.floor((-kappa - fp._KERNEL_TAIL * sig) / s.dz)) - 1
    hi = int(math.ceil((kappa + fp._KERNEL_TAIL * sig) / s.dz)) + 1
    edges_rel = (np.arange(lo, hi + 2) - 0.5) * s.dz
    branches = []
    for shift in (+kappa, -kappa):
        cdf = ndtr((edges_rel - shift) / sig)
        branches.append((np.diff(cdf), float(cdf[0]), float(1.0 - cdf[-1])))
    return lo, hi, branches


def ref_phi_ext(s, lo, hi):
    """phi at the grid indices lo .. n + hi - 1, -+1 past the grid ends."""
    n = s.nodes.size
    pos = np.arange(lo, n + hi)
    return np.where(pos < 0, -1.0, np.where(pos >= n, 1.0, s.phi[np.clip(pos, 0, n - 1)]))


def ref_branch_weights(s, mp, mm, k0=0):
    denom = mp - mm
    with np.errstate(invalid="ignore", divide="ignore"):
        xt = (s.phi[k0:] - mm) / denom
    xt = np.where(np.abs(denom) > 1e-9, xt, expit(2.0 * s.nodes[k0:]))
    return np.clip(xt, 0.0, 1.0)


def ref_land_full(s, full, lo, wp, wm, branches):
    """Put the clamped full-convolution masses, the first landing on grid
    index lo, on the grid and past its ends, plus the truncated tails."""
    assert not np.any(full < fp._NEG_TOL)
    np.maximum(full, 0.0, out=full)
    n = s.nodes.size
    j_lo = max(0, -lo)
    j_hi = min(full.size, n - lo)
    s.w = np.zeros(n)
    s.w[j_lo + lo : j_hi + lo] = full[j_lo:j_hi]
    s.mass0 += float(full[:j_lo].sum())
    s.mass1 += float(full[j_hi:].sum())
    (_, p_lo, p_hi), (_, m_lo, m_hi) = branches
    s.mass0 += float(wp.sum() * p_lo + wm.sum() * m_lo)
    s.mass1 += float(wp.sum() * p_hi + wm.sum() * m_hi)


def ref_scheme(s, kappa, k0):
    """The scheme's transforms on the window [k0, n): the kernels, the
    fast length for the kernels, the branch means and the spreading, and
    the branch weights, whose means are "valid" correlations of the
    kernels with phi through the kernels' conjugate spectra."""
    lo, hi, branches = ref_kernels(s, kappa)
    n = s.nodes.size - k0
    n_fft = next_fast_len(n + hi - lo, real=True)
    phi_spec = rfft(ref_phi_ext(s, k0 + lo, hi), n_fft)
    means = [irfft(phi_spec * rfft(kernel, n_fft).conj(), n_fft)[:n] - t_lo + t_hi
             for kernel, t_lo, t_hi in branches]
    return lo, hi, branches, n_fft, ref_branch_weights(s, *means, k0)


def ref_split(s, kappa, k0, xt):
    """2 sum_j |xt_j - xt'_j| w_j, xt' being the scheme's branch weights
    on the window from k0: the most the two branch splits of this substep
    can move the mass, in L1 over the cells and both buckets.  Every
    substep's operators are positive and conserve the total, so they do
    not grow an earlier difference, and the sum over substeps bounds how
    far the split moves any cell or bucket by the end."""
    xt_scheme = ref_scheme(s, kappa, k0)[-1]
    return 2.0 * float((np.abs(xt[k0:] - xt_scheme) * s.w[k0:]).sum())


def ref_diffuse(s, kappa, k0=0):
    """The scheme on the window [k0, n) of a density that is exactly 0
    below k0: the two branches summed in the frequency domain and
    transformed back once, row by row here."""
    if kappa == 0.0:
        return
    assert not s.w[:k0].any()
    lo, hi, branches, n_fft, xt = ref_scheme(s, kappa, k0)
    specs = [rfft(kernel, n_fft) for kernel, _, _ in branches]
    wp = xt * s.w[k0:]
    wm = s.w[k0:] - wp
    full = irfft(rfft(wp, n_fft) * specs[0] + rfft(wm, n_fft) * specs[1], n_fft)
    ref_land_full(s, full[: wp.size + hi - lo], k0 + lo, wp, wm, branches)


def ref_spread(s, kappa, k0=0):
    """The scheme's first substep from a start that is non-zero in a few
    cells: each cell's two kernels, weighted by the scheme's branch
    weights, added cell by cell in ascending order on the window's reach,
    with no transform; the truncated tails of those cells' branches."""
    if kappa == 0.0:
        return
    lo, hi, branches, _, xt = ref_scheme(s, kappa, k0)
    cells = np.flatnonzero(s.w)
    assert cells.size <= 4 and cells.min(initial=k0) >= k0
    full = np.zeros(s.nodes.size - k0 + hi - lo)  # from grid index k0 + lo
    wp = xt[cells - k0] * s.w[cells]
    wm = s.w[cells] - wp
    (kp, _, _), (km, _, _) = branches
    for i, p, m in zip(cells, wp, wm):
        np.add.at(full, i - k0 + np.arange(kp.size), p * kp + m * km)
    ref_land_full(s, full, k0 + lo, wp, wm, branches)


def ref_diffuse_full_grid(s, kappa, k0):
    """The scheme before the window: ref_diffuse on the whole grid.
    Returns ref_split against the windowed weights."""
    if kappa == 0.0:
        return 0.0
    split = ref_split(s, kappa, k0, ref_scheme(s, kappa, 0)[-1])
    ref_diffuse(s, kappa)
    return split


def ref_diffuse_two_inverse(s, kappa, k0):
    """The scheme before that: reversed kernels for the branch means, and
    each branch convolved, transformed back and clamped on its own, on
    the whole grid.  Returns ref_split against the windowed weights."""
    if kappa == 0.0:
        return 0.0
    lo, hi, branches = ref_kernels(s, kappa)
    phi_ext = ref_phi_ext(s, lo, hi)
    mp, mm = (fftconvolve(phi_ext, kernel[::-1], mode="valid") - t_lo + t_hi
              for kernel, t_lo, t_hi in branches)
    xt = ref_branch_weights(s, mp, mm)
    split = ref_split(s, kappa, k0, xt)
    wp = xt * s.w
    wm = s.w - wp
    (kp, _, _), (km, _, _) = branches
    full = np.maximum(fftconvolve(wp, kp), 0.0) + np.maximum(fftconvolve(wm, km), 0.0)
    ref_land_full(s, full, lo, wp, wm, branches)
    return split


def ref_deposit(s, y, r11_target, mass):
    pos = (y - s.nodes[0]) / s.dz
    k = np.floor(pos).astype(int)
    below = k < 0
    above = k >= s.nodes.size - 1
    mid = ~(below | above)
    if np.any(above):
        s.mass1 += float(mass[above].sum())
    if np.any(below):
        np.add.at(s.w, 0, mass[below].sum())
    km = k[mid]
    denom = s.r11[km] - s.r11[km + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha = (s.r11[km] - r11_target[mid]) / denom
    alpha = np.clip(np.where(denom > 0.0, alpha, 0.5), 0.0, 1.0)
    mm = mass[mid]
    np.add.at(s.w, km, mm * (1.0 - alpha))
    np.add.at(s.w, km + 1, mm * alpha)


def relax_z(z, delta):
    """Relaxation in log-odds coordinates: z' = log(expm1(delta) +
    e^{delta + 2z})/2, evaluated stably on each side of z = 0 (the form
    the solver's odds map must land in the same cells as)."""
    grow = z + 0.5 * delta + 0.5 * np.log1p(-math.expm1(-delta) * np.exp(-2.0 * z))
    reentry = 0.5 * np.log(math.expm1(delta) + np.exp(delta + 2.0 * z))
    return np.where(z >= 0.0, grow, reentry)


@pytest.mark.parametrize("n_cells", [2048, 8192])
def test_relaxation_lands_where_the_log_odds_form_does(n_cells):
    # the odds map e^delta*o + expm1(delta) puts every node in the same
    # cell, with the same split, as the log-odds formula it replaced
    s = fp._Solver(0.305, 20.0, n_cells=n_cells)
    for delta in (1e-9, 0.5 / 90.0, 0.0625 / 20.0, 0.01, 0.1, 2.0):
        k, alpha, above = s.land(relax_z(s.nodes, delta), s.r11 * math.exp(-delta))
        m = above.size - int(above.sum())
        r = fp._Relaxation(s, delta)
        assert r.alpha.size == m
        assert np.array_equal(r.index[: 2 * m], np.concatenate((k[:m], k[:m] + 1)))
        assert np.array_equal(r.alpha, alpha[:m])


def test_relaxation_past_exp_range():
    # past exp's range (delta > 709.78) every node and the rho00 = 0
    # bucket's re-entry go to the rho00 = 1 bucket, as sde._relax sends
    # every state there; the emptied grid stays float
    (snap,) = solve_fp(0.305, 0.1, 1e-4, [0.5], dt=0.5)
    assert (snap.mass0, snap.mass1) == (0.0, 1.0)
    assert snap.weights.dtype == np.float64 and not snap.weights.any()
    s = fp._Solver(0.305, 1e-4)
    r = fp._Relaxation(s, 1000.0)
    assert r.reentry_above and r.alpha.size == 0
    s.w, s.mass0, s.mass1 = 0.75 * s.w0, 0.25, 0.0
    r.apply(s)
    assert s.mass0 == 0.0 and math.isclose(s.mass1, 1.0, rel_tol=1e-15)
    assert s.w.dtype == np.float64 and not s.w.any()


@pytest.mark.parametrize("g", [0.03, 0.4, 2.0])
@pytest.mark.parametrize("dt", [None, 0.0625])
@pytest.mark.parametrize("T1", [20.0, 45.0, 1e3])
def test_window_holds_only_empty_cells(T1, dt, g, monkeypatch):
    # a relaxation with delta > 0 leaves every cell below its floor exactly
    # 0; a diffusion's window starts at or below the floor of the
    # relaxation before it, and it leaves every cell below its own floor
    # 0; a deposit that skips the cells below its f finds them 0 and is
    # bitwise the full deposit
    relax_apply, diffuse_apply = fp._Relaxation.apply, fp._Diffusion.apply
    floors, seen = [], []

    def relax(r, s, f=0, index=None):
        assert not s.w[:f].any()
        full = SimpleNamespace(w=s.w, mass0=s.mass0, mass1=s.mass1, scratch=s.scratch.copy())
        relax_apply(r, full)
        relax_apply(r, s, f, index)
        assert np.array_equal(s.w, full.w) and (s.mass0, s.mass1) == (full.mass0, full.mass1)
        if r.delta > 0.0:
            assert r.floor > 0 and not s.w[: r.floor].any()
        floors.append(r.floor)
        seen.append(f)

    def diffuse(d, s, cells=None):
        assert d.k0 <= floors[-1] and not s.w[: d.k0].any()
        diffuse_apply(d, s, cells)
        assert not s.w[: d.floor].any()
        seen.append(d.k0)

    monkeypatch.setattr(fp._Relaxation, "apply", relax)
    monkeypatch.setattr(fp._Diffusion, "apply", diffuse)
    fp._Solver(0.305, T1, dt=dt).run(g, [0.5, 2.5, 5.0])
    assert max(seen) > 0  # the windows are in use


def ref_relax(s, delta):
    if delta == 0.0:
        return
    w_old = s.w
    s.w = np.zeros_like(w_old)
    live = w_old > 0.0
    y = relax_z(s.nodes[live], delta)
    fac = math.exp(-delta)
    ref_deposit(s, y, s.r11[live] * fac, w_old[live])
    if s.mass0 > 0.0:
        y0 = 0.5 * math.log(math.expm1(delta))
        ref_deposit(s, np.array([y0]), np.array([fac]), np.array([s.mass0]))
        s.mass0 = 0.0


def ref_solve_fp(x0, g, T1, t_grid, n_cells=8192, dt=None, diffuse=ref_diffuse,
                 first=ref_spread):
    """Delta initial condition on ``n_cells`` cells of z in [-12, 12], then
    per-substep diffuse/relax; returns (weights, mass0, mass1) per
    snapshot time.  The first diffusion, on the relaxed start, is
    ``first``, every other one ``diffuse``.  Each diffusion is told the
    window k0 it may take: the cell of the half step's re-entry point
    log(expm1(delta/2))/2, the lowest any of the interval's relaxations
    deposits in (0 below the grid and at T1 = inf)."""
    nodes = -12.0 + (np.arange(n_cells) + 0.5) * (24.0 / n_cells)
    assert np.array_equal(fp._Solver(x0, T1, n_cells=n_cells).nodes, nodes)
    s = SimpleNamespace(nodes=nodes, dz=float(nodes[1] - nodes[0]), r11=expit(-2.0 * nodes),
                        phi=np.tanh(nodes), w=np.zeros(n_cells), mass0=0.0, mass1=0.0)
    ref_deposit(s, np.array([to_logodds(x0)]), np.array([1.0 - x0]), np.array([1.0]))
    t = 0.0
    out = []
    scheme = first  # then diffuse
    for t_next in t_grid:
        span = float(t_next - t)
        if span > 0.0:
            if math.isinf(T1):
                scheme(s, g * span, 0)
                scheme = diffuse
            else:
                sub = dt if dt is not None else min(T1 / 100.0, span)
                n_sub = max(1, int(math.ceil(span / sub - 1e-12)))
                h = span / n_sub
                delta = h / T1
                y0 = 0.5 * math.log(math.expm1(0.5 * delta))
                k0 = min(max(math.floor((y0 - nodes[0]) / s.dz), 0), n_cells - 2)
                ref_relax(s, 0.5 * delta)
                for j in range(n_sub):
                    scheme(s, g * h, k0)
                    scheme = diffuse
                    ref_relax(s, delta if j < n_sub - 1 else 0.5 * delta)
            t = float(t_next)
        out.append((s.w.copy(), s.mass0, s.mass1))
    return out


def ref_rebin(grid, n_bins=100, bin_width=0.01):
    """Per-cell rebinning loop; returns the bin masses."""
    nodes = grid.nodes
    half = 0.5 * float(np.diff(nodes).mean())
    lo_c = nodes - half
    hi_c = nodes + half
    edges = np.arange(n_bins + 1) * bin_width
    b_lo = np.clip(np.searchsorted(edges, to_rho(lo_c), side="right") - 1, 0, n_bins - 1)
    b_hi = np.clip(np.searchsorted(edges, to_rho(hi_c), side="right") - 1, 0, n_bins - 1)
    density = np.zeros(n_bins)
    same = b_lo == b_hi
    np.add.at(density, b_lo[same], grid.weights[same])
    for i in np.nonzero(~same)[0]:
        w = grid.weights[i]
        if w == 0.0:
            continue
        cuts = to_logodds(edges[b_lo[i] + 1 : b_hi[i] + 1])
        fracs = np.clip((cuts - lo_c[i]) / (hi_c[i] - lo_c[i]), 0.0, 1.0)
        parts = np.diff(np.concatenate([[0.0], fracs, [1.0]]))
        density[b_lo[i] : b_hi[i] + 1] += w * parts
    return density


def ref_rebin_edges(grid, n_bins=100, bin_width=0.01):
    """Edge-located rebinning loop: each edge's cell and the fraction of
    it below the edge, every cell added whole in cell order to the bin of
    the last edge at or below it, then the edge parts; returns the bin
    masses."""
    nodes, w = grid.nodes, grid.weights
    half = 0.5 * float(np.diff(nodes).mean())
    lo_c, hi_c = nodes - half, nodes + half
    z = to_logodds(np.minimum(np.arange(n_bins + 1) * bin_width, 1.0))
    k, frac = [], []
    for zb in z:
        j = max(int(np.count_nonzero(lo_c <= zb)) - 1, 0)
        k.append(j)
        frac.append(min(max((zb - lo_c[j]) / (hi_c[j] - lo_c[j]), 0.0), 1.0))
    whole = [0.0] * (n_bins + 1)
    b = 0
    for j in range(nodes.size):
        while b < n_bins and k[b + 1] <= j:
            b += 1
        whole[b] += w[j]
    part = [f * w[j] for j, f in zip(k, frac)]
    return np.array([whole[b] - part[b] + part[b + 1] for b in range(n_bins)])


def assert_rebinned(snap, grid, n_bins=100, bin_width=0.01):
    """``snap`` is bitwise the edge-located loop's binning of ``grid``,
    non-negative, of the grid's mass within 1e-15 relative, and within
    rounding of the per-cell split loop's: the same zero bins, each bin
    within 1e-13 relative or 4e-15 absolute."""
    assert np.array_equal(snap.density, ref_rebin_edges(grid, n_bins, bin_width))
    assert snap.density.min() >= 0.0
    assert abs(snap.density.sum() - grid.weights.sum()) <= 1e-15 * grid.weights.sum()
    split = ref_rebin(grid, n_bins, bin_width)
    assert np.array_equal(snap.density == 0.0, split == 0.0)
    diff = np.abs(snap.density - split)
    assert np.all((diff <= 4e-15) | (diff <= 1e-13 * np.abs(split)))


# (x0, g, T1, t_grid, solver keywords); T1 = 20 with the default substep
# min(T1/100, t) = 0.2, so kappa = 0.2 g.  At g = 2 mass reaches both
# boundary buckets of [-12, 12], and the rho00 = 0 bucket re-enters
# through the relaxation.  At g = 5e-5 on 2048 cells the kernel has 9
# taps.  At T1 = 3e8 with dt = 0.01 the bucket re-enters below the first
# cell (cell -2 at a full step, -10 at a half one), which lands wholly in
# cell 0.
ORACLE_CASES = {
    "fft": (0.305, 0.03, 20.0, [5.0, 10.0, 20.0], dict(n_cells=8192)),
    "coarse": (0.305, 0.03, 20.0, [5.0, 10.0, 20.0], dict(n_cells=2048)),
    "fft-boundary": (0.2, 2.0, 20.0, [2.0, 4.0], dict(n_cells=8192)),
    "coarse-boundary": (0.2, 2.0, 20.0, [2.0, 4.0], dict(n_cells=512)),
    "9-tap": (0.2, 5e-5, 20.0, [2.0, 4.0], dict(n_cells=2048)),
    "reentry-below": (0.2, 2.0, 3e8, [2.0, 4.0], dict(n_cells=512, dt=0.01)),
    "no-relaxation": (0.305, 0.05, math.inf, [5.0, 20.0, 40.0], dict(n_cells=8192)),
}


def oracle_solve(x0, g, T1, t_grid, n_cells, dt=None):
    return fp._Solver(x0, T1, n_cells=n_cells, dt=dt).run(g, t_grid)


def assert_near_earlier_scheme(case, before):
    """The deliberate changes of scheme, ``before`` being the earlier one
    on every substep, move no cell and no boundary mass by more than
    1e-13.  Where mass reaches the grid ends, tanh saturates, mp - mm
    falls towards its 1e-9 cut-off and the branch weights' division
    amplifies the rounding difference of two correlations (another form,
    or another transform length); there the mass moves, in L1, by at
    most the summed split bound plus rounding.  That bound is 8.8e-9 and
    7.3e-9 against the full-grid scheme, and 1.1e-8 and 7.5e-9 against
    the two-inverse one, for fft-boundary and coarse-boundary; against
    the FFT-first one, whose branch weights are the solver's, it is 0."""
    x0, g, T1, t_grid, kw = ORACLE_CASES[case]
    split = []

    def diffuse(s, kappa, k0):
        split.append(before(s, kappa, k0))

    sols = oracle_solve(x0, g, T1, t_grid, **kw)
    refs = ref_solve_fp(x0, g, T1, t_grid, **kw, diffuse=diffuse, first=diffuse)
    for sol, (w, mass0, mass1) in zip(sols, refs):
        if "boundary" in case:
            moved = (np.abs(sol.weights - w).sum() + abs(sol.mass0 - mass0)
                     + abs(sol.mass1 - mass1))
            assert moved <= sum(split) + 1e-12
            assert sum(split) <= 2e-8
        else:
            assert np.max(np.abs(sol.weights - w)) <= 1e-13
            assert abs(sol.mass0 - mass0) <= 1e-13 and abs(sol.mass1 - mass1) <= 1e-13


class TestBitwiseOracle:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_solve_fp_matches_per_substep_reference(self, case, monkeypatch):
        x0, g, T1, t_grid, kw = ORACLE_CASES[case]
        reentries = []
        apply = fp._Relaxation.apply

        def counting_apply(relaxation, s, *window):
            bucket = s.mass0
            apply(relaxation, s, *window)
            reentries.append(bucket > 0.0 and s.mass0 == 0.0)

        monkeypatch.setattr(fp._Relaxation, "apply", counting_apply)
        sols = oracle_solve(x0, g, T1, t_grid, **kw)
        refs = ref_solve_fp(x0, g, T1, t_grid, **kw)
        for sol, (w, mass0, mass1) in zip(sols, refs):
            assert np.array_equal(sol.weights, w)
            assert sol.mass0 == mass0 and sol.mass1 == mass1
            assert_rebinned(fp_snapshot_to_bins(sol), sol)
        if "boundary" in case or case == "reentry-below":
            # rho00 = 0 re-entries: the relaxations that empty the bucket
            assert sum(reentries) > 0
        if "boundary" in case:
            assert sols[-1].mass1 > 0.01
        if case == "9-tap":
            s = fp._Solver(x0, T1, n_cells=kw["n_cells"])
            assert fp._Diffusion(s, g * 0.2, 0).size - s.nodes.size + 1 == 9
        if case == "reentry-below":
            s = fp._Solver(x0, T1, n_cells=kw["n_cells"])
            for delta in (kw["dt"] / T1, 0.5 * kw["dt"] / T1):
                assert 0.5 * math.log(math.expm1(delta)) < s.nodes[0]

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_solve_fp_near_full_grid_scheme(self, case):
        # the window moves no cell and no boundary mass by more than 1e-13
        # (boundary cases: see assert_near_earlier_scheme); without one (no
        # relaxation, or a re-entry below the grid) it is the full-grid
        # scheme, bitwise
        if case in ("no-relaxation", "reentry-below"):
            x0, g, T1, t_grid, kw = ORACLE_CASES[case]
            sols = oracle_solve(x0, g, T1, t_grid, **kw)
            refs = ref_solve_fp(x0, g, T1, t_grid, **kw,
                                diffuse=lambda s, kappa, k0: ref_diffuse(s, kappa))
            for sol, (w, mass0, mass1) in zip(sols, refs):
                assert np.array_equal(sol.weights, w)
                assert sol.mass0 == mass0 and sol.mass1 == mass1
        assert_near_earlier_scheme(case, ref_diffuse_full_grid)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_solve_fp_near_two_inverse_reference(self, case):
        assert_near_earlier_scheme(case, ref_diffuse_two_inverse)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_solve_fp_near_fft_first_substep(self, case):
        # the direct first spread moves no cell and no boundary mass by
        # more than 1e-13 from transforming the window, as every substep
        # after it does; both use the same branch weights (split 0)
        assert_near_earlier_scheme(case, lambda s, kappa, k0: ref_diffuse(s, kappa, k0) or 0.0)

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_relaxed_start_cached_bitwise(self, case, monkeypatch):
        # the start's half step is deposited once per exponent and kept,
        # read-only: it is bitwise the deposit made afresh, and a second
        # run reuses it instead of relaxing the start again
        x0, g, T1, t_grid, kw = ORACLE_CASES[case]
        from_start = []
        apply = fp._Relaxation.apply

        def watch(relaxation, s, *window):
            from_start.append(s.w is s.w0)
            apply(relaxation, s, *window)

        monkeypatch.setattr(fp._Relaxation, "apply", watch)
        solver = fp._Solver(x0, T1, **kw)
        runs = [solver.run(g, t_grid) for _ in range(2)]
        assert sum(from_start) == 1
        ((w, mass0, mass1, cells),) = solver.starts.values()
        assert not w.flags.writeable and 0 < cells.size <= 4
        assert np.array_equal(cells, np.flatnonzero(w))
        fresh = fp._Solver(x0, T1, **kw)
        fresh.w, fresh.mass0, fresh.mass1 = fresh.w0, 0.0, fresh.mass1_0
        fresh.interval(t_grid[0])[2].apply(fresh)
        assert np.array_equal(w, fresh.w) and (mass0, mass1) == (fresh.mass0, fresh.mass1)
        for sol, again in zip(*runs, strict=True):
            assert np.array_equal(sol.weights, again.weights)
            assert (sol.mass0, sol.mass1) == (again.mass0, again.mass1)

    def test_rebin_matches_per_cell_reference(self):
        # a coarse grid whose cells hold several edges each, a fine one, a
        # coarse binning, and bins past rho00 = 1
        for n_cells, n_bins, width in ((16, 50, 0.02), (32768, 100, 0.01),
                                       (8192, 7, 1.0 / 7), (2048, 60, 0.02)):
            nodes = -5.0 + (np.arange(n_cells) + 0.5) * (10.0 / n_cells)
            weights = np.random.default_rng(n_cells).random(n_cells)
            weights[::3] = 0.0
            grid = DensityGrid(nodes=nodes, weights=weights, mass0=0.1, mass1=0.2, t=1.0)
            snap = fp_snapshot_to_bins(grid, n_bins, width)
            assert_rebinned(snap, grid, n_bins, width)
            assert (snap.mass0, snap.mass1, snap.t) == (0.1, 0.2, 1.0)
            k, _, _ = fp._edge_cells(nodes, n_bins, width)
            assert np.any(np.diff(k) == 0) == (n_cells == 16 or n_bins * width > 1.0)
            if n_bins * width > 1.0:
                assert np.all(snap.density[50:] == 0.0)

    def test_rebin_edge_on_cell_boundary(self):
        # on 16 cells of [-5, 5] the boundary of cells 7 and 8 is z = 0
        # exactly, the edge rho00 = 0.5: it sits at the bottom of cell 8
        # with part 0, and bin 24 ends with the part of cell 7 above edge 24
        nodes = -5.0 + (np.arange(16) + 0.5) * (10.0 / 16)
        weights = np.random.default_rng(3).random(16)
        grid = DensityGrid(nodes=nodes, weights=weights, mass0=0.0, mass1=0.0, t=0.0)
        k, frac, cell_bin = fp._edge_cells(nodes, 50, 0.02)
        assert (k[24], k[25], frac[25], cell_bin[7]) == (7, 8, 0.0, 24)
        snap = fp_snapshot_to_bins(grid, 50, 0.02)
        assert snap.density[24] == weights[7] - frac[24] * weights[7]
        assert_rebinned(snap, grid, 50, 0.02)

    @pytest.mark.parametrize("n_cells", [8192, 2048])
    def test_model_gen_matches_solve_and_rebin(self, n_cells):
        times = [0.625, 1.25, 2.5]
        gen = make_fp_model_gen(0.305, 20.0, times, n_cells=n_cells)
        for tau in (0.15, 1.15):
            for t, snap in zip(times, gen(tau)):
                sol = fp._Solver(0.305, 20.0, n_cells=n_cells).run(tau / t, [t])[0]
                ref = fp_snapshot_to_bins(sol)
                assert np.array_equal(snap.density, ref.density)
                assert (snap.mass0, snap.mass1, snap.t) == (ref.mass0, ref.mass1, ref.t)


class TestPlanReuse:
    """What is built once is reused: one solver serves every run on its
    grid, and a model generator runs all its slices and trial tau on one,
    reusing the grid, the start state and the relaxations it caches;
    nothing a run leaves behind may reach the next."""

    TIMES = [0.625, 1.25, 2.5]

    @pytest.mark.parametrize("dt", [None, 0.07])
    def test_any_run_order_matches_fresh_solvers(self, dt):
        runs = [(0.4, [0.625]), (0.4, [0.5, 1.25, 2.5]), (1.2, [2.5]), (0.0, [0.0, 1.0]),
                (1.2, [0.625, 0.625, 3.0]), (0.4, [1.25]), (0.4, [0.5, 1.25, 2.5])]
        solver = fp._Solver(0.305, 20.0, n_cells=2048, dt=dt)
        for i in np.random.default_rng(7 + (dt is None)).permutation(len(runs)):
            g, t_grid = runs[i]
            fresh = fp._Solver(0.305, 20.0, n_cells=2048, dt=dt).run(g, t_grid)
            for sol, ref in zip(solver.run(g, t_grid), fresh, strict=True):
                assert np.array_equal(sol.weights, ref.weights)
                assert (sol.mass0, sol.mass1, sol.t) == (ref.mass0, ref.mass1, ref.t)
                assert sol.nodes is solver.nodes and not sol.nodes.flags.writeable

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_bad_slice_time_rejected_when_built(self, t):
        with pytest.raises(ValueError, match="slice times must be finite and > 0"):
            make_fp_model_gen(0.305, 20.0, [1.0, t], n_cells=2048)

    @pytest.mark.parametrize("n_cells", [8192, 2048])
    @pytest.mark.parametrize("dt", [None, 0.07])  # 0.07: all three slices share h
    def test_any_call_order_matches_fresh_solves(self, n_cells, dt):
        gen = make_fp_model_gen(0.305, 20.0, self.TIMES, n_cells=n_cells, dt=dt)
        scan = [0.15, 0.65, 1.15]
        calls = ([(tau, None) for tau in scan] + [(tau, None) for tau in scan[::-1]]
                 + [(0.65, (2,)), (0.65, (0, 2)), (1.15, (1,)), (0.15, (2, 0, 1)), (0.65, (1, 1))])
        order = np.random.default_rng(n_cells + (dt is None)).permutation(len(calls))
        refs = {}
        for i in order:
            tau, which = calls[i]
            ks = range(len(self.TIMES)) if which is None else which
            snaps = gen(tau, which)
            assert len(snaps) == len(ks)
            for k, snap in zip(ks, snaps):
                if (tau, k) not in refs:
                    t = self.TIMES[k]
                    sol = fp._Solver(0.305, 20.0, n_cells=n_cells, dt=dt).run(tau / t, [t])[0]
                    refs[tau, k] = fp_snapshot_to_bins(sol)
                ref = refs[tau, k]
                assert np.array_equal(snap.density, ref.density)
                assert (snap.mass0, snap.mass1, snap.t) == (ref.mass0, ref.mass1, ref.t)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_bad_tau_rejected(self, tau):
        gen = make_fp_model_gen(0.305, 20.0, self.TIMES, n_cells=2048)
        for which in (None, (1,)):
            with pytest.raises(ValueError, match=r"^g must be finite and >= 0$"):
                gen(tau, which)

    def test_relaxations_built_with_the_generator(self, monkeypatch):
        # every slice's relaxations exist before the first call, so the
        # solves of a fit allocate diffusions only
        built = []
        init = fp._Relaxation.__init__
        monkeypatch.setattr(fp._Relaxation, "__init__",
                            lambda self, s, delta: (built.append(delta), init(self, s, delta))[1])
        gen = make_fp_model_gen(0.305, 20.0, self.TIMES, n_cells=2048)
        n_built = len(built)
        gen(0.5)
        gen(1.2, (2, 0))
        assert n_built == len(set(built)) > 0 and len(built) == n_built

    def test_memory_held_by_generator(self):
        # one shared grid and start state, and per relaxation its landing
        # index and split only: heap held by the fit stage stays resident
        # into the next pass
        make_fp_model_gen(0.305, 20.0, self.TIMES[:1])(0.5)  # lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            gen = make_fp_model_gen(0.305, 20.0, self.TIMES)
            gen(0.5)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 2 * 2**20

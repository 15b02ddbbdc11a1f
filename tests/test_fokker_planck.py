import math

import numpy as np
import pytest
from scipy import integrate

from qtraj.core import ModelParams, build_histogram, to_logodds, to_rho
from qtraj.fokker_planck import (
    DensityGrid,
    analytic_distribution_z,
    fp_snapshot_to_bins,
    solve_fp,
)
from qtraj.rng import SeedSpec
from qtraj.sde import simulate_ensemble

EDGES = np.arange(101) * 0.01


def l1_bins(snap, ref_masses):
    return float(
        np.abs(snap.density - ref_masses).sum() + snap.mass0 + snap.mass1
    )


class TestAnalyticZ:
    def test_symmetric_initial_state(self):
        mix = analytic_distribution_z(0.5, 1.0)
        assert mix.z_plus == 1.0 and mix.z_minus == -1.0
        assert mix.variance == 1.0
        assert mix.weight_plus == 0.5 and mix.weight_minus == 0.5

    def test_offcenter_initial_state(self):
        mix = analytic_distribution_z(0.305, 1.2)
        z0 = 0.5 * math.log(0.305 / 0.695)
        assert math.isclose(mix.z_plus, z0 + 1.2, rel_tol=1e-12)
        assert math.isclose(mix.z_minus, z0 - 1.2, rel_tol=1e-12)
        assert math.isclose(mix.z_plus, 0.7881999655213098, rel_tol=1e-12)
        assert math.isclose(mix.z_minus, -1.6118000344786902, rel_tol=1e-12)
        assert mix.variance == 1.2
        assert mix.weight_plus == 0.305
        assert math.isclose(mix.weight_minus, 0.695, rel_tol=1e-15)

    def test_tau_zero_delta(self):
        mix = analytic_distribution_z(0.3, 0.0)
        assert mix.z_plus == mix.z_minus == to_logodds(0.3)
        assert mix.variance == 0.0
        masses = mix.bin_masses_rho(EDGES)
        assert masses.sum() == 1.0
        assert (masses > 0).sum() == 1

    def test_degenerate_x0(self):
        mix = analytic_distribution_z(1.0, 0.7)
        assert mix.weight_minus == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            analytic_distribution_z(0.5, -0.1)

    def test_bin_masses_normalized(self):
        for x0, tau in ((0.305, 0.6), (0.5, 2.0), (0.7, 0.1)):
            m = analytic_distribution_z(x0, tau).bin_masses_rho(EDGES)
            assert math.isclose(m.sum(), 1.0, abs_tol=1e-12)
            assert np.all(m >= 0)


def rho_density(mix, lo, hi, n):
    """Density of rho00 on n cells of [lo, hi], from exact bin masses."""
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:]), mix.bin_masses_rho(edges) / np.diff(edges)


class TestAnalyticRho:
    """The no-relaxation solution seen as a distribution of rho00."""

    def test_symmetry(self):
        mix = analytic_distribution_z(0.5, 0.8)
        z = np.linspace(-6.0, 6.0, 121)
        assert np.allclose(mix.pdf_z(z), mix.pdf_z(-z), rtol=1e-10)
        m = mix.bin_masses_rho(EDGES)
        assert np.allclose(m, m[::-1], rtol=1e-9, atol=1e-15)

    def test_normalization_quadrature(self):
        mix = analytic_distribution_z(0.305, 0.6)
        val, err = integrate.quad(mix.pdf_z, -np.inf, np.inf, limit=200)
        assert abs(val - 1.0) <= max(1e-8, 10 * err)

    def test_boundary_limit_zero(self):
        # no mass collects near the eigenstates in finite tau
        m = analytic_distribution_z(0.4, 0.5).bin_masses_rho([0.0, 1e-6, 1 - 1e-6, 1.0])
        assert m[0] < 1e-15 and m[2] < 1e-15

    def test_modes_match_stationarity_oracle(self):
        # the Jacobian 1/(2 rho (1-rho)) moves the rho-space maxima off
        # the pushed-forward centers: the stationary points solve
        # (z - mu)/tau = 2 tanh z.  At (0.305, 1.2) the solutions sit at
        # z = -4.0102 and +3.1799, far from the centers, so grid argmax
        # is checked against this oracle, not against to_rho(centers).
        from scipy.optimize import brentq

        mix = analytic_distribution_z(0.305, 1.2)
        r, dens = rho_density(mix, 1e-6, 1 - 1e-6, 2_000_000)
        lo_mode = r[np.argmax(np.where(r < 0.5, dens, -1.0))]
        hi_mode = r[np.argmax(np.where(r >= 0.5, dens, -1.0))]
        for mu, mode in ((mix.z_minus, lo_mode), (mix.z_plus, hi_mode)):
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
        mix = analytic_distribution_z(0.305, 0.01)
        r, dens = rho_density(mix, 1e-4, 1 - 1e-4, 500_000)
        mode = r[np.argmax(dens)]
        assert abs(mode - to_rho(mix.z_minus)) < 0.01


class TestSolveFP:
    def test_analytic_agreement_no_relaxation(self):
        g = 0.03
        tau = 1.0
        sols = solve_fp(0.305, g, math.inf, [tau / g])
        snap = fp_snapshot_to_bins(sols[0])
        ref = analytic_distribution_z(0.305, tau).bin_masses_rho(EDGES)
        assert l1_bins(snap, ref) < 1e-3
        assert abs(sols[0].total_mass - 1.0) <= 1e-10

    def test_sequential_snapshots_compose(self):
        g = 0.03
        taus = [0.1, 0.5, 1.0]
        sols = solve_fp(0.5, g, math.inf, [t / g for t in taus])
        for tau, sol in zip(taus, sols):
            ref = analytic_distribution_z(0.5, tau).bin_masses_rho(EDGES)
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
        with pytest.raises(ValueError):
            # x0 outside the grid's z range
            solve_fp(1e-9, 0.1, math.inf, [1.0], z_min=-4, z_max=4)

    def test_grid_initial_condition(self):
        sols = solve_fp(0.4, 0.05, math.inf, [4.0])
        cont = solve_fp(sols[0], 0.05, math.inf, [8.0])
        direct = solve_fp(0.4, 0.05, math.inf, [8.0])
        ref = analytic_distribution_z(0.4, 0.4).bin_masses_rho(EDGES)
        assert l1_bins(fp_snapshot_to_bins(cont[0]), ref) < 1e-3
        assert l1_bins(fp_snapshot_to_bins(direct[0]), ref) < 1e-3
        with pytest.raises(ValueError):
            # the solver adopts only uniform grids
            solve_fp(
                DensityGrid(
                    nodes=np.linspace(-3.0, 3.0, 16) ** 3,
                    weights=np.full(16, 1 / 16),
                    mass0=0.0,
                    mass1=0.0,
                    t=0.0,
                ),
                0.05,
                math.inf,
                [1.0],
            )


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
        mix = analytic_distribution_z(x0, tau)
        n_cells = 32768
        z_edges = np.linspace(-12.0, 12.0, n_cells + 1)
        weights = mix.cell_masses(z_edges)
        nodes = 0.5 * (z_edges[:-1] + z_edges[1:])
        grid = DensityGrid(
            nodes=nodes, weights=weights,
            mass0=float(mix.cdf_z(-12.0)), mass1=float(1.0 - mix.cdf_z(12.0)),
            t=0.0,
        )
        snap = fp_snapshot_to_bins(grid)
        direct = mix.bin_masses_rho(EDGES)
        assert np.max(np.abs(snap.density - direct)) < 1e-6


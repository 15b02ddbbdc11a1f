import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj import fitting
from qtraj.bayesian import generate_records
from qtraj.core import (
    CalibrationParams,
    DistributionSnapshot,
    ModelParams,
    TrajectoryEnsemble,
    build_histogram,
    to_logodds,
    to_rho,
)
from qtraj.fitting import (
    chi2,
    default_tau_scan,
    fit_tau,
    make_analytic_model_gen,
    make_fp_model_gen,
)
from qtraj.rng import SeedSpec

FIELDS = ("tau_best", "chi2_min", "tau_error", "tau_error_dchi2_1", "n_bins", "at_edge",
          "err_bracketed")


def sample_mixture_hist(x0, tau, n, seed, n_bins=100, bin_width=0.01):
    """Observed histogram drawn straight from the exact solution."""
    rng = np.random.default_rng(seed)
    z0 = to_logodds(x0)
    branch = np.where(rng.random(n) < x0, 1.0, -1.0)
    z = np.clip(z0 + tau * branch + math.sqrt(tau) * rng.standard_normal(n), -30, 30)
    values = to_rho(z)[:, None]
    ens = TrajectoryEnsemble(n_traj=n, n_steps=0, dt=1.0, values=values)
    return build_histogram(ens, 0, n_bins, bin_width)


def snap_with_errors(model_snap, err=1.0):
    return DistributionSnapshot(
        n_bins=model_snap.n_bins,
        bin_width=model_snap.bin_width,
        density=model_snap.density.copy(),
        errors=np.full(model_snap.n_bins, err),
        mass0=model_snap.mass0,
        mass1=model_snap.mass1,
        t=model_snap.t,
    )


class TestChi2:
    def test_self_fit_zero(self):
        snap = sample_mixture_hist(0.5, 0.4, 10_000, 1)
        assert chi2(snap, snap) == 0.0

    def test_unit_residuals(self):
        gen = make_analytic_model_gen(0.5, 1)
        model = gen(0.5)[0]
        obs = DistributionSnapshot(
            n_bins=100,
            bin_width=0.01,
            density=model.density + 1.0,
            errors=np.ones(100),
            mass0=0.0,
            mass1=0.0,
            t=0.0,
        )
        assert math.isclose(chi2(obs, model), 100.0, rel_tol=1e-12)

    def test_binning_mismatch(self):
        a = sample_mixture_hist(0.5, 0.4, 5000, 2, n_bins=100)
        b = sample_mixture_hist(0.5, 0.4, 5000, 3, n_bins=50, bin_width=0.02)
        with pytest.raises(ValueError):
            chi2(a, b)

    def test_zero_errors_rejected(self):
        gen = make_analytic_model_gen(0.5, 1)
        model = gen(0.5)[0]
        with pytest.raises(ValueError, match="observed errors must be positive"):
            chi2(model, model)  # model snapshots carry zero errors
        # a boundary mass on either side enters the sum with the observed
        # mass error, which must then be positive
        obs = snap_with_errors(model)
        for kw in (dict(mass1=0.1), dict(mass0=0.1, mass1_err=1.0)):
            with pytest.raises(ValueError, match="observed errors must be positive"):
                chi2(obs, dataclasses.replace(model, **kw))
            with pytest.raises(ValueError, match="observed errors must be positive"):
                chi2(dataclasses.replace(obs, **kw), model)

    def test_model_errors_not_read(self):
        obs = sample_mixture_hist(0.3, 60.0, 20_000, 4)  # boundary masses on both sides
        model = make_analytic_model_gen(0.3, 1)(60.0)[0]
        noisy = dataclasses.replace(model, errors=np.full(model.n_bins, 0.5), mass0=0.01,
                                    mass1=0.4, mass0_err=0.5, mass1_err=0.5)
        bare = dataclasses.replace(noisy, errors=np.zeros(model.n_bins), mass0_err=0.0,
                                   mass1_err=0.0)
        assert obs.mass0 > 0.0 and obs.mass1 > 0.0
        assert chi2(obs, noisy) == chi2(obs, bare) > 0.0

    def test_sampling_distribution(self):
        # a 1e6-sample histogram against its exact distribution, statistical
        # errors only: chi2 lands around n_bins
        observed = sample_mixture_hist(0.305, 0.8, 1_000_000, 10)
        v = chi2(observed, make_analytic_model_gen(0.305, 1)(0.8)[0])
        assert 60.0 <= v <= 160.0

    def test_boundary_masses_compared(self):
        a = sample_mixture_hist(0.3, 60.0, 20_000, 4)  # heavily absorbed
        b = sample_mixture_hist(0.3, 60.0, 20_000, 5)
        assert a.mass1 > 0.25 and b.mass1 > 0.25
        v_with = chi2(a, b)
        # removing the boundary masses changes the statistic
        b_nomass = DistributionSnapshot(
            n_bins=b.n_bins, bin_width=b.bin_width, density=b.density.copy(),
            errors=b.errors.copy(), mass0=0.0, mass1=0.0, t=b.t,
            mass0_err=b.mass0_err, mass1_err=b.mass1_err,
        )
        assert chi2(a, b_nomass) > v_with

    def test_bin_relabeling_invariance(self):
        a = sample_mixture_hist(0.4, 0.5, 50_000, 6)
        b = sample_mixture_hist(0.4, 0.5, 50_000, 7)
        perm = np.random.default_rng(0).permutation(100)

        def relabel(s):
            return DistributionSnapshot(
                n_bins=100, bin_width=0.01, density=s.density[perm].copy(),
                errors=s.errors[perm].copy(), mass0=s.mass0, mass1=s.mass1, t=s.t,
                mass0_err=s.mass0_err, mass1_err=s.mass1_err,
            )

        assert math.isclose(chi2(a, b), chi2(relabel(a), relabel(b)), rel_tol=1e-12)


class TestFitTau:
    def test_round_trip(self):
        obs = sample_mixture_hist(0.305, 0.5, 100_000, 20)
        gen = make_analytic_model_gen(0.305, 1)
        res = fit_tau([obs], gen, np.arange(30, 71) * 0.01)[0]
        assert not res.at_edge
        assert res.err_bracketed
        assert abs(res.tau_best - 0.5) < 4 * res.tau_error_dchi2_1
        assert res.tau_error_dchi2_1 < res.tau_error
        assert math.isclose(res.tau_error, 10 * res.tau_error_dchi2_1, rel_tol=1e-9)

    def test_self_consistency_exact_zero(self):
        scan = default_tau_scan(0.0, 1.2, 0.01)
        gen = make_analytic_model_gen(0.4, 1)
        target = float(scan[80])
        obs = snap_with_errors(gen(target)[0], err=1.0)
        res = fit_tau([obs], gen, scan)[0]
        assert abs(res.tau_best - target) < 1e-3
        assert abs(res.chi2_min) < 1e-6
        assert res.scan[80, 1] == 0.0

    def test_edge_minimum_flagged(self):
        obs = sample_mixture_hist(0.305, 1.0, 50_000, 21)
        gen = make_analytic_model_gen(0.305, 1)
        res = fit_tau([obs], gen, np.arange(0, 51) * 0.01)[0]  # scan tops at 0.5
        assert res.at_edge

    def test_error_shrinks_with_ensemble_size(self):
        gen = make_analytic_model_gen(0.305, 1)
        scan = np.arange(30, 71) * 0.01
        small = fit_tau([sample_mixture_hist(0.305, 0.5, 10_000, 22)], gen, scan)[0]
        large = fit_tau([sample_mixture_hist(0.305, 0.5, 100_000, 23)], gen, scan)[0]
        assert large.tau_error_dchi2_1 < small.tau_error_dchi2_1

    def test_round_trip_bias(self):
        # over 20 independent synthetic datasets the mean estimate sits
        # within the mean quoted error of the truth
        gen = make_analytic_model_gen(0.305, 1)
        scan = np.arange(30, 71) * 0.01
        bests, errs = [], []
        for i in range(20):
            res = fit_tau([sample_mixture_hist(0.305, 0.5, 20_000, 100 + i)], gen, scan)[0]
            bests.append(res.tau_best)
            errs.append(res.tau_error)
        assert abs(np.mean(bests) - 0.5) < np.mean(errs)

    def test_nonuniform_scan_rejected(self):
        # the parabolic refinement assumes one step size
        obs = sample_mixture_hist(0.305, 0.5, 10_000, 24)
        gen = make_analytic_model_gen(0.305, 1)
        for scan in ([0.0, 0.2, 0.45, 0.5, 0.7, 1.0], [0.5, 0.4, 0.3]):
            with pytest.raises(ValueError, match="uniform"):
                fit_tau([obs], gen, np.array(scan))

    @pytest.mark.parametrize("x0", [0.0, 1.0])
    def test_eigenstate_x0_refused(self, x0):
        # every trajectory stays at the eigenstate whatever tau is
        with pytest.raises(ValueError, match=re.escape(f"x0={x0} is an eigenstate")):
            make_analytic_model_gen(x0, 1)

    def test_model_gen_slice_mismatch(self):
        # every call selects one slice; a generator that ignores the
        # selector returns two snapshots for it
        obs = sample_mixture_hist(0.5, 0.4, 5000, 30)
        gen = make_analytic_model_gen(0.5, 2)
        with pytest.raises(ValueError, match="wrong number of slices"):
            fit_tau([obs], lambda tau, which: gen(tau), np.arange(20, 61) * 0.01)

    def test_degenerate_parabola_gives_infinite_error(self, monkeypatch):
        # chi2 values near the float maximum: the parabola's second
        # difference overflows to -inf, so the minimum stays on its grid
        # point and both errors are infinite rather than a sqrt of a
        # negative curvature
        scan = np.arange(11) * 0.1
        obs = sample_mixture_hist(0.305, 0.5, 1000, 31)
        gen = make_analytic_model_gen(0.305, 1)
        monkeypatch.setattr(fitting, "chi2",
                            lambda o, m: 1e308 * (1.0 + abs(m.t - 0.5)))
        with np.errstate(over="ignore"):
            (res,) = fit_tau([obs], lambda tau, which: [dataclasses.replace(gen(tau)[0], t=tau)],
                             scan)
        assert res.tau_best == scan[5] and res.chi2_min == 1e308
        assert res.tau_error == res.tau_error_dchi2_1 == math.inf
        assert not res.at_edge

    def test_fp_model_gen_matches_analytic_when_t1_infinite(self):
        gen_fp = make_fp_model_gen(0.305, math.inf, [10.0], n_cells=4096)
        gen_an = make_analytic_model_gen(0.305, 1)
        a = gen_fp(0.6)[0]
        b = gen_an(0.6)[0]
        assert np.abs(a.density - b.density).sum() < 1e-3


def full_scan_fit_tau(observed, model_gen, scan):
    """The full-grid scan: every grid point for every slice, argmin
    refinement and bracketing on the complete chi2 column."""
    scan = np.asarray(scan, dtype=float)
    chi = np.array([[chi2(o, m) for o, m in zip(observed, model_gen(float(tau)))]
                    for tau in scan])
    out = []
    for k, c in enumerate(chi.T):
        j = int(np.argmin(c))
        at_edge = j == 0 or j == c.size - 1
        tau_best, chi2_min, a = float(scan[j]), float(c[j]), math.nan
        if not at_edge and c[j - 1] - 2.0 * c[j] + c[j + 1] > 0.0:
            h = float(scan[j + 1] - scan[j])
            d2 = c[j - 1] - 2.0 * c[j] + c[j + 1]
            dx = 0.5 * (c[j - 1] - c[j + 1]) / d2
            tau_best = float(scan[j] + dx * h)
            chi2_min = float(c[j] - 0.25 * (c[j - 1] - c[j + 1]) * dx)
            a = float(d2 / (2.0 * h * h))
        err100 = math.inf if math.isnan(a) else math.sqrt(100.0 / a)
        err1 = math.inf if math.isnan(a) else math.sqrt(1.0 / a)
        thresh = chi2_min + 100.0
        out.append(dict(
            tau_best=tau_best, chi2_min=chi2_min, tau_error=err100, tau_error_dchi2_1=err1,
            n_bins=observed[k].n_bins, at_edge=at_edge, scan=np.column_stack([scan, c]),
            err_bracketed=bool(np.any(c[: j + 1] >= thresh) and np.any(c[j:] >= thresh)),
        ))
    return out


def assert_matches_full_scan(results, oracle):
    for r, o in zip(results, oracle, strict=True):
        for f in FIELDS:
            assert getattr(r, f) == o[f], f
        assert np.array_equal(r.scan[:, 0], o["scan"][:, 0])
        seen = ~np.isnan(r.scan[:, 1])
        assert np.array_equal(r.scan[seen, 1], o["scan"][seen, 1])


class TableGen:
    """Model generator whose chi2 against ``observed()`` is
    ``table[j, k]`` at grid point j, slice k; counts slice evaluations.
    Observed slice k is at time ``times[k]`` (0 for every slice by default)."""

    def __init__(self, table, scan, times=None):
        self.table = np.asarray(table, dtype=float)
        self.index = {float(t): j for j, t in enumerate(scan)}
        self.times = [0.0] * self.table.shape[1] if times is None else list(times)
        self.evals = []

    def observed(self):
        return [DistributionSnapshot(n_bins=1, bin_width=1.0, density=np.zeros(1),
                                     errors=np.ones(1), mass0=0.0, mass1=0.0, t=t)
                for t in self.times]

    def __call__(self, tau, which=None):
        j = self.index[tau]
        ks = range(self.table.shape[1]) if which is None else which
        self.evals.extend((j, k) for k in ks)
        return [DistributionSnapshot(n_bins=1, bin_width=1.0,
                                     density=np.array([math.sqrt(self.table[j, k])]),
                                     errors=np.zeros(1), mass0=0.0, mass1=0.0, t=0.0)
                for k in ks]


@st.composite
def unimodal_tables(draw):
    """Chi2 columns that are non-increasing, then non-decreasing, with
    the minimum first, last or inside, plateaus and ties included; and
    one slice time t >= 0 per column, zeros, ties and any order
    included.  The minima do not follow the times, so a seeded slice
    often starts far from its minimum."""
    n = draw(st.integers(3, 300))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.sampled_from([0, n - 1, None]))
        m = draw(st.integers(1, n - 2)) if m is None else m
        inc = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 30.0, 400.0]),
                                     min_size=n - 1, max_size=n - 1)))
        c = np.full(n, draw(st.floats(0.0, 1e3)))
        c[:m] += inc[:m][::-1].cumsum()[::-1]
        c[m + 1 :] += inc[m:].cumsum()
        cols.append(c)
    times = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 7.5]),
                          min_size=len(cols), max_size=len(cols)))
    return np.column_stack(cols), times


class TestCoarseToFineScan:
    @settings(max_examples=200, deadline=None)
    @given(unimodal_tables())
    def test_unimodal_matches_full_scan(self, table_times):
        table, times = table_times
        scan = 0.01 * np.arange(table.shape[0])
        gen = TableGen(table, scan, times)
        results = fit_tau(gen.observed(), gen, scan)
        evals = list(gen.evals)
        assert len(set(evals)) == len(evals)  # no point evaluated twice
        assert_matches_full_scan(results, full_scan_fit_tau(gen.observed(), gen, scan))
        # one slice at a time in ascending t (ties in index order); a slice
        # after one with t > 0, itself at t > 0, starts at the grid index
        # nearest tau_best * t / t_prev and its neighbours, any other at
        # indices 0, 1 and 2
        order = sorted(range(len(times)), key=times.__getitem__)
        ks = [k for _, k in evals]
        assert [k for i, k in enumerate(ks) if i == 0 or ks[i - 1] != k] == order
        for prev, k in zip([None, *order], order):
            if prev is not None and times[prev] > 0.0 and times[k] > 0.0:
                seed = results[prev].tau_best * times[k] / times[prev]
                j0 = int(np.abs(scan - seed).argmin())
                start = list(range(max(j0 - 1, 0), min(j0 + 2, scan.size)))
            else:
                start = [0, 1, 2]
            assert [j for j, kk in evals if kk == k][: len(start)] == start

    def test_multimodal_falls_back_to_full_scan(self):
        # slice 0 gallops to the shallow dip at index 40; no value there
        # reaches its minimum + 100, so the grid's end is evaluated and
        # shows the deeper dip at 250
        i = np.arange(251.0)
        table = np.column_stack([np.minimum(0.02 * (i - 40) ** 2 + 10.0, (i - 250) ** 2),
                                 (i - 120) ** 2])
        scan = default_tau_scan()
        gen = TableGen(table, scan)
        results = fit_tau(gen.observed(), gen, scan)
        assert not np.isnan(results[0].scan[:, 1]).any()
        assert np.isnan(results[1].scan[:, 1]).any()
        assert sorted(j for j, k in gen.evals if k == 0) == list(range(251))
        assert_matches_full_scan(results, full_scan_fit_tau(gen.observed(), gen, scan))

    def test_default_grid_evaluation_count(self):
        # three slices at tau = 0.25, 0.5, 1.0 (t = 1, 2, 4) on the default
        # 251-point grid: the first starts at its histogram's moment
        # estimate (0.2504), on 0.24, 0.25, 0.26, whose outer two close its
        # error bracket; the other two start at twice the previous
        # tau_best, and both grid ends close their error brackets.  The
        # third's minimum lies on its seed's right edge (1.01); one step
        # out (1.02) rises.  14 slice evaluations; starting the first at
        # 0.0, 0.01, 0.02 took 26, a 17-point coarse pass for it 32, and
        # one for every slice 64
        observed = [dataclasses.replace(sample_mixture_hist(0.305, tau, 100_000, 40 + i),
                                        t=4.0 * tau)
                    for i, tau in enumerate((0.25, 0.5, 1.0))]
        base = make_analytic_model_gen(0.305, 3)
        calls = []

        def counting(tau, ks):
            calls.append((tau, ks))
            return base(tau, ks)

        results = fit_tau(observed, counting, default_tau_scan())
        assert [ks for _, ks in calls] == [(0,)] * 3 + [(1,)] * 5 + [(2,)] * 6
        assert [round(tau, 2) for tau, _ in calls] == [
            0.24, 0.25, 0.26, 0.49, 0.5, 0.51, 0.0, 2.5, 0.99, 1.0, 1.01, 1.02, 0.0, 2.5]
        assert_matches_full_scan(results, full_scan_fit_tau(observed, base, default_tau_scan()))

    def test_fp_three_slices_seeded(self):
        # pipeline_t1's shape: T1 = 20 us, dt = 0.0625 us, kappa = 0.025,
        # slices 10, 20, 40 (t = 0.625, 1.25, 2.5 us, tau = 0.25, 0.5, 1.0)
        # on a 21-point grid.  Starting the first slice at its histogram's
        # moment estimate (0.228, the grid point 0.25) and seeding the
        # later ones takes 11 slice solves; starting it at the grid's low
        # end took 12, a coarse pass for the first 16, and one for every
        # slice 24
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=6.324555320336759, dt=0.0625, T1=20.0)
        params = ModelParams(g=cal.kappa / cal.dt, T1=20.0, dt=0.0625, x0=0.305, n_steps=40)
        _, ens = generate_records(params, cal, 20_000, SeedSpec(2024))
        observed = [build_histogram(ens, k, 100, 0.01) for k in (10, 20, 40)]
        assert [o.t for o in observed] == [0.625, 1.25, 2.5]
        base = make_fp_model_gen(0.305, 20.0, [o.t for o in observed], n_cells=2048)
        calls = []

        def counting(tau, which):
            calls.append((round(tau, 2), which))
            return base(tau, which)

        scan = default_tau_scan(0.15, 1.15, 0.05)
        results = fit_tau(observed, counting, scan)
        assert calls == [(0.2, (0,)), (0.25, (0,)), (0.3, (0,)), (0.45, (1,)), (0.5, (1,)),
                         (0.55, (1,)), (0.95, (2,)), (1.0, (2,)), (1.05, (2,)), (0.15, (2,)),
                         (1.15, (2,))]
        assert_matches_full_scan(results, full_scan_fit_tau(observed, base, scan))
        for r, tau in zip(results, (0.25, 0.5, 1.0)):
            assert abs(r.tau_best - tau) < r.tau_error

    def test_first_slice_without_a_moment_estimate(self):
        # all mass in the boundary buckets: the bins give no estimate, so
        # the first slice starts at the grid's first three points.  Bins
        # past rho00 = 1 are left out of an estimate
        table = ((np.arange(251.0) - 100) ** 2)[:, None]
        scan = default_tau_scan()
        gen = TableGen(table, scan)
        (obs,) = gen.observed()
        obs = dataclasses.replace(obs, mass1=1.0, mass1_err=1.0)
        assert math.isnan(fitting._moment_tau(obs))
        results = fit_tau([obs], gen, scan)
        assert [j for j, _ in gen.evals][:3] == [0, 1, 2]
        assert results[0].tau_best == scan[100]
        wide = sample_mixture_hist(0.305, 0.5, 100_000, 50, n_bins=60, bin_width=0.02)
        assert abs(fitting._moment_tau(wide) - 0.5) < 0.02

    @pytest.mark.parametrize("minimum, gallop, n_evals", [
        (42, [0, 1, 2, 3, 5, 9, 17, 33, 65], 15),
        (14, [0, 1, 2, 3, 5, 9, 17, 33], 12),
    ], ids=["right", "left"])
    def test_lower_side_first(self, minimum, gallop, n_evals):
        # the gallop from index 1 leaves the bracket 17, 33, 65 (the lower
        # bracketing value is 65's) or 9, 17, 33 (9's) around the true
        # minimum.  Bisecting first beside the lower bracketing value
        # takes 15 and 12 evaluations in all; left first took 22 and 14
        table = ((np.arange(251.0) - minimum) ** 2)[:, None]
        scan = default_tau_scan()
        gen = TableGen(table, scan)
        results = fit_tau(gen.observed(), gen, scan)
        assert [j for j, _ in gen.evals][: len(gallop)] == gallop
        assert len(gen.evals) == n_evals
        assert_matches_full_scan(results, full_scan_fit_tau(gen.observed(), gen, scan))

    @pytest.mark.parametrize("minimum, gallop", [(60, [42, 44, 48, 56, 72]),
                                                 (20, [38, 36, 32, 24, 8])],
                             ids=["right", "left"])
    def test_gallop_from_seed_edge(self, minimum, gallop):
        # slice 0 (t = 1) fits tau 0.2, so slice 1 (t = 2) is seeded at
        # indices 39, 40, 41; its minimum lies beyond the seed's edge,
        # which steps out by 1, 2, 4, 8 and 16 points before bisecting
        i = np.arange(251.0)
        table = np.column_stack([(i - 20) ** 2, (i - minimum) ** 2])
        scan = default_tau_scan()
        gen = TableGen(table, scan, times=[1.0, 2.0])
        results = fit_tau(gen.observed(), gen, scan)
        assert [j for j, k in gen.evals if k == 1][:8] == [39, 40, 41] + gallop
        assert results[1].tau_best == scan[minimum]
        assert_matches_full_scan(results, full_scan_fit_tau(gen.observed(), gen, scan))

    @pytest.mark.parametrize("kind", ["analytic", "fp"])
    def test_slice_selector_bitwise(self, kind):
        times = [0.5, 1.0, 2.0]
        gen = {
            "analytic": lambda: make_analytic_model_gen(0.305, 3),
            "fp": lambda: make_fp_model_gen(0.305, 20.0, times, n_cells=512),
        }[kind]()
        full = gen(0.7)
        for which in [(k,) for k in range(3)] + [(2, 0)]:
            part = gen(0.7, which)
            assert len(part) == len(which)
            for snap, k in zip(part, which):
                want = full[k]
                assert np.array_equal(snap.density, want.density)
                assert np.array_equal(snap.errors, want.errors)
                assert (snap.mass0, snap.mass1, snap.t) == (want.mass0, want.mass1, want.t)


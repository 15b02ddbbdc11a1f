import math
import mmap
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from qtraj import core
from qtraj.bayesian import _meas, generate_records
from qtraj.core import (
    Z_CAP,
    CalibrationParams,
    DistributionSnapshot,
    ModelParams,
    TrajectoryEnsemble,
    available_memory,
    bin_index,
    build_histogram,
    check_binning,
    histogram_counts,
    histogram_from_counts,
    require_memory,
    to_logodds,
    to_rho,
)
from qtraj.io import read_records, write_records
from qtraj.rng import SeedSpec
from qtraj.sde import _rho, simulate_ensemble

ULP = np.spacing(1.0)


def make_ensemble(values, dt=0.5):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return TrajectoryEnsemble(
        n_traj=values.shape[0], n_steps=values.shape[1] - 1, dt=dt, values=values
    )


class TestLogOdds:
    def test_symmetry_point(self):
        assert to_logodds(0.5) == 0.0

    def test_initial_state_value(self):
        # oracle: 0.5*ln(x/(1-x)) evaluated two independent ways
        expected = 0.5 * math.log(0.305 / 0.695)
        assert math.isclose(expected, math.atanh(2 * 0.305 - 1), rel_tol=1e-14)
        assert math.isclose(to_logodds(0.305), expected, rel_tol=1e-14)
        assert math.isclose(to_logodds(0.305), -0.41180003447869024, rel_tol=1e-15)

    def test_boundary_clamp(self):
        assert to_logodds(1.0) == Z_CAP
        assert to_logodds(0.0) == -Z_CAP
        assert to_logodds(np.nextafter(1.0, 0.0)) < Z_CAP

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                to_logodds(bad)

    def test_cap_views_exact(self):
        assert to_rho(Z_CAP) == 1.0
        assert to_rho(-Z_CAP) == 0.0
        assert to_rho(to_logodds(1.0)) == 1.0
        assert to_rho(to_logodds(0.0)) == 0.0

    def test_round_trip_property(self):
        # 1e4 random populations over (1e-12, 1-1e-12); tolerance 4 ulp
        # of unity (absolute): a float64 z cannot carry per-value
        # relative ulp accuracy near the ends
        rng = np.random.default_rng(42)
        u = rng.random(10_000)
        rho = 1e-12 + (1 - 2e-12) * u
        rho = np.concatenate([rho, [1e-12, 1 - 1e-12, 0.5, 0.305]])
        back = to_rho(to_logodds(rho))
        assert np.max(np.abs(back - rho)) <= 4 * ULP

    def test_round_trip_relative_accuracy_small(self):
        # the log-based forward map keeps good relative accuracy in the
        # lower tail as well
        for rho in (1e-12, 1e-9, 1e-6):
            back = to_rho(to_logodds(rho))
            assert math.isclose(back, rho, rel_tol=1e-12)

    def test_array_roundtrip_matches_scalar(self):
        rho = np.array([0.1, 0.5, 0.9])
        z_arr = to_logodds(rho)
        assert z_arr.shape == (3,)
        for r, z in zip(rho, z_arr):
            assert to_logodds(float(r)) == z


class TestQubitState:
    """The state is one log-odds float z per trajectory, viewed as rho00."""

    def test_views(self):
        z = to_logodds(0.305)
        assert math.isclose(to_rho(z), 0.305, rel_tol=1e-14)
        assert math.isclose(to_rho(z) + to_rho(-z), 1.0, abs_tol=3e-16)
        assert abs(z) < Z_CAP

    def test_absorbed_flag(self):
        # the update kernels snap states past the caps onto the
        # eigenstates, where rho00 reads exactly 1 and 0
        o = np.exp([2.0 * (Z_CAP - 1.0), -2.0 * (Z_CAP - 1.0)])
        _meas(o, np.array([1e6, -1e6]), 1.0, -1.0, 1.0, np.empty(2))
        assert np.array_equal(o, [np.inf, 0.0])
        assert np.array_equal(_rho(o), [1.0, 0.0])

    def test_population_sum(self):
        z = np.random.default_rng(7).uniform(-25, 25, 200)
        assert np.max(np.abs(to_rho(z) + to_rho(-z) - 1.0)) <= 3e-16

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            to_logodds(math.nan)
        with pytest.raises(ValueError):
            ModelParams(g=0.03, T1=45.0, dt=0.5, x0=math.nan, n_steps=1)


class TestParams:
    def test_model_params(self):
        p = ModelParams(g=0.03, T1=45.0, dt=0.5, x0=0.305, n_steps=80)
        assert math.isclose(p.kappa, 0.015)
        assert math.isclose(p.delta, 0.5 / 45.0)
        assert math.isclose(p.tau_total, 1.2)

    def test_model_params_infinite_t1(self):
        p = ModelParams(g=0.03, T1=math.inf, dt=0.5, x0=0.5, n_steps=10)
        assert p.delta == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(g=-1.0),
            dict(T1=0.0),
            dict(T1=-2.0),
            dict(dt=0.0),
            dict(x0=1.5),
            dict(n_steps=-1),
            dict(g=math.nan),
            dict(g=math.inf),
            dict(dt=math.inf),
            dict(dt=math.nan),
        ],
    )
    def test_model_params_validation(self, kw):
        base = dict(g=0.03, T1=45.0, dt=0.5, x0=0.305, n_steps=80)
        base.update(kw)
        with pytest.raises(ValueError):
            ModelParams(**base)

    def test_calibration_kappa(self):
        # weak-readout calibration scale
        cal = CalibrationParams(I0=128.443, I1=127.856, sigma=5.56, dt=0.5)
        expected = (128.443 - 127.856) ** 2 / (4 * 5.56**2)
        assert math.isclose(cal.kappa, expected, rel_tol=1e-15)
        assert math.isclose(cal.kappa, 0.002787, abs_tol=5e-7)

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            CalibrationParams(I0=1.0, I1=1.0, sigma=1.0, dt=0.5)
        with pytest.raises(ValueError):
            CalibrationParams(I0=1.0, I1=-1.0, sigma=0.0, dt=0.5)
        for key, bad in (("I0", math.inf), ("I1", -math.inf), ("I0", math.nan),
                         ("sigma", math.inf), ("sigma", math.nan)):
            kw = {"I0": 1.0, "I1": -1.0, "sigma": 1.0, "dt": 0.5, key: bad}
            with pytest.raises(ValueError, match=f"^{key}={bad!r} must be finite"):
                CalibrationParams(**kw)
        for dt in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt}$"):
                CalibrationParams(I0=1.0, I1=-1.0, sigma=1.0, dt=dt)
        for T1 in (0.0, -45.0, math.nan):
            with pytest.raises(ValueError, match="^T1 must be > 0$"):
                CalibrationParams(I0=1.0, I1=-1.0, sigma=1.0, dt=0.5, T1=T1)

    def test_ensemble_shape_and_times(self):
        with pytest.raises(ValueError, match=re.escape(
                "values shape (3, 4) != (n_traj, n_steps + 1) = (3, 3)")):
            TrajectoryEnsemble(n_traj=3, n_steps=2, dt=0.5, values=np.zeros((3, 4)))
        ens = TrajectoryEnsemble(n_traj=3, n_steps=3, dt=0.5, values=np.zeros((3, 4)))
        assert ens.times.tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_snapshot_shape(self):
        for density, errors in ((np.zeros(9), np.zeros(10)), (np.zeros(10), np.zeros((10, 1)))):
            with pytest.raises(ValueError, match=re.escape("density/errors must have shape")):
                DistributionSnapshot(n_bins=10, bin_width=0.1, density=density, errors=errors,
                                     mass0=0.0, mass1=0.0, t=0.0)


class TestHistogram:
    @pytest.mark.parametrize("n_bins, bin_width, message", [
        (0, 0.01, "n_bins=0 must be >= 1"),
        (100, 0.0, "bin_width=0.0 must be finite and > 0"),
        (100, math.inf, "bin_width=inf must be finite and > 0"),
        (100, math.nan, "bin_width=nan must be finite and > 0"),
        (10, 0.01, "n_bins * bin_width must cover [0, 1]"),
    ])
    def test_check_binning(self, n_bins, bin_width, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_binning(n_bins, bin_width)
        with pytest.raises(ValueError, match=re.escape(message)):
            histogram_counts(np.array([0.5]), n_bins, bin_width)

    def test_delta_single_bin(self):
        ens = make_ensemble(np.full((50, 1), 0.305))
        snap = build_histogram(ens, 0)
        assert snap.density.max() == 1.0
        # 0.305 sits in the bin whose edges bracket it
        k = int(np.argmax(snap.density))
        edges = snap.bin_edges
        assert edges[k] <= 0.305 < edges[k + 1]
        assert snap.mass0 == 0.0 and snap.mass1 == 0.0

    def test_boundary_values_to_masses(self):
        vals = np.array([[0.0], [1.0], [1.0], [0.5]])
        snap = build_histogram(make_ensemble(vals), 0)
        assert snap.mass0 == 0.25
        assert snap.mass1 == 0.5
        assert snap.density.sum() == 0.25

    def test_conservation(self):
        rng = np.random.default_rng(3)
        vals = rng.random((10_000, 1))
        vals[:100, 0] = 0.0
        vals[100:300, 0] = 1.0
        snap = build_histogram(make_ensemble(vals), 0)
        assert abs(snap.total_mass - 1.0) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.random((5000, 1))
        snap_a = build_histogram(make_ensemble(vals), 0)
        snap_b = build_histogram(make_ensemble(vals[rng.permutation(5000)]), 0)
        assert np.array_equal(snap_a.density, snap_b.density)
        assert np.array_equal(snap_a.errors, snap_b.errors)
        assert snap_a.mass0 == snap_b.mass0 and snap_a.mass1 == snap_b.mass1

    def test_statistical_errors(self):
        vals = np.concatenate([np.full(9, 0.005), [0.5]])[:, None]
        snap = build_histogram(make_ensemble(vals), 0)
        n = 10
        assert snap.errors[0] == math.sqrt(9) / n
        assert snap.errors[50] == math.sqrt(1) / n
        # empty bins get the sqrt(1)/n floor
        assert snap.errors[99] == 1.0 / n

    def test_edge_convention(self):
        # edges are [k*w, (k+1)*w); a value on an edge joins the upper bin
        vals = np.array([[0.01], [0.99], [0.5]])
        snap = build_histogram(make_ensemble(vals), 0)
        edges = snap.bin_edges
        for v in (0.01, 0.99, 0.5):
            k = int(np.searchsorted(edges, v, side="right") - 1)
            assert snap.density[k] > 0

    def test_validation(self):
        ens = make_ensemble(np.full((5, 2), 0.5))
        with pytest.raises(ValueError):
            build_histogram(ens, 5)
        with pytest.raises(ValueError):
            build_histogram(ens, 0, n_bins=10, bin_width=0.01)
        with pytest.raises(ValueError):
            TrajectoryEnsemble(n_traj=0, n_steps=1, dt=0.5, values=np.empty((0, 2)))

    def test_values_frozen(self):
        ens = make_ensemble(np.full((5, 1), 0.5))
        with pytest.raises(ValueError):
            ens.values[0, 0] = 0.1

    def test_row_block_counts_sum_to_snapshot(self):
        # streamed histograms: the integer counts of consecutive row
        # blocks add up to the whole slice's, bit for bit
        rng = np.random.default_rng(5)
        vals = rng.random((1001, 2))
        vals[rng.random(1001) < 0.1, 1] = 0.0
        vals[rng.random(1001) < 0.1, 1] = 1.0
        ens = make_ensemble(vals, dt=0.25)
        for k in (0, 1):
            counts = sum(histogram_counts(vals[lo : lo + 128, k], 100, 0.01)
                         for lo in range(0, 1001, 128))
            assert counts.sum() == 1001
            got, want = histogram_from_counts(counts, k * 0.25, 0.01), build_histogram(ens, k)
            for f in ("density", "errors"):
                assert getattr(got, f).tobytes() == getattr(want, f).tobytes()
            for f in ("n_bins", "bin_width", "mass0", "mass1", "t", "mass0_err", "mass1_err"):
                assert getattr(got, f) == getattr(want, f)

    @pytest.mark.parametrize("bad", [math.nan, 1.2, -0.1])
    def test_out_of_range_values_rejected(self, bad):
        ens = make_ensemble(np.array([[0.5], [bad]]))
        with pytest.raises(ValueError):
            build_histogram(ens, 0)


# Plain allocating forms of the population view and the binning, which
# now write in place and bin without a binary search: the replacements
# must match them bit for bit.
def to_rho_ref(z):
    r = expit(2.0 * z)
    r = np.where(z <= -Z_CAP, 0.0, r)
    return np.where(z >= Z_CAP, 1.0, r)


def bin_index_ref(values, n_bins, bin_width):
    edges = np.arange(n_bins + 1) * bin_width
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, n_bins - 1)


def counts_ref(values, n_bins, bin_width):
    at0, at1 = values == 0.0, values == 1.0
    counts = np.bincount(bin_index_ref(values[~(at0 | at1)], n_bins, bin_width),
                         minlength=n_bins)
    return np.append(counts, [np.count_nonzero(at0), np.count_nonzero(at1)])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# 18.5 and the z just below the cap: expit(2 z) is already 1.0 there
SPECIAL_Z = [Z_CAP, -Z_CAP, 0.0, -0.0, 1e-300, -1e-300, 31.0, -31.0, math.inf, -math.inf,
             18.5, np.nextafter(Z_CAP, 0)]
ORACLE_Z = np.concatenate([
    SPECIAL_Z,
    np.random.default_rng(23).normal(0.0, 8.0, 400).clip(-Z_CAP, Z_CAP),
])
# 1/64 puts every edge on a sub-cell bound and one ulp either side just
# off them (one ulp below, 64 bins end just below 1)
BINNINGS = [(100, 0.01), (7, 0.15), (1000, 0.001), (3, 1 / 3), (13, 1 / 13), (1, 1.0), (10, 0.11),
            (64, 1 / 64), (64, np.nextafter(1 / 64, 1.0)), (64, np.nextafter(1 / 64, 0.0)),
            (1, 5.0), (100_000, 1e-5)]


class TestKernelOracles:
    def test_to_rho(self):
        want = to_rho_ref(ORACLE_Z)
        assert same_bits(to_rho(ORACLE_Z), want)
        for z in SPECIAL_Z:
            assert same_bits(to_rho(float(z)), want[ORACLE_Z == z][0])

    @pytest.mark.parametrize("n_bins, bin_width", BINNINGS)
    def test_bin_index_at_every_edge(self, n_bins, bin_width):
        edges = np.arange(n_bins + 1) * bin_width
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.random.default_rng(4).random(500), [-0.0, -1.0, 2.0, math.inf, -math.inf],
        ])
        assert np.array_equal(bin_index(values, n_bins, bin_width),
                              bin_index_ref(values, n_bins, bin_width))

    @pytest.mark.parametrize("n_bins, bin_width", BINNINGS)
    def test_counts_at_every_edge(self, n_bins, bin_width):
        # every bin edge and every bound j/L of the sub-cells the counts
        # look up (L the least power of two with L*w >= 2), each with its
        # neighbours, the values at and next to 0 and 1, and uniforms
        sub_cells = 1
        while sub_cells * bin_width < 2.0:
            sub_cells *= 2
        bounds = np.concatenate([np.arange(n_bins + 1) * bin_width,
                                 np.arange(sub_cells + 1) / sub_cells])
        values = np.concatenate([bounds, np.nextafter(bounds, -np.inf),
                                 np.nextafter(bounds, np.inf),
                                 [0.0, 0.0, -0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0],
                                 np.random.default_rng(4).random(500)])
        values = values[(values >= 0.0) & (values <= 1.0)]
        strided = np.repeat(values[:, None], 3, axis=1)[:, 1]
        assert np.array_equal(histogram_counts(strided, n_bins, bin_width),
                              counts_ref(values, n_bins, bin_width))

    @pytest.mark.parametrize("n", [1, core._HIST_BLOCK - 1, core._HIST_BLOCK,
                                   2 * core._HIST_BLOCK + 5])
    def test_counts_blocked(self, n):
        # lengths off and on the block size, with exact 0.0, 1.0 and bin
        # edges; a NaN in the last (partial) block is still rejected
        rng = np.random.default_rng(n)
        special = np.concatenate([np.arange(101) * 0.01, [0.0, 1.0]])
        values = np.where(rng.random(n) < 0.3, rng.choice(special, n), rng.random(n))
        values[-1] = 1.0
        strided = np.repeat(values[:, None], 3, axis=1)[:, 1]
        counts = histogram_counts(strided, 100, 0.01)
        assert counts.dtype == np.intp
        assert np.array_equal(counts, counts_ref(values, 100, 0.01))
        values[-1] = math.nan
        with pytest.raises(ValueError, match=r"^ensemble values outside \[0, 1\]$"):
            histogram_counts(values, 100, 0.01)


class TestMemoryGuard:
    def test_reads_mem_available(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  16 kB\nMemFree:   8 kB\nMemAvailable:   4 kB\n")
        monkeypatch.setattr(core, "_MEMINFO", str(meminfo))
        assert available_memory() == 4096
        require_memory(4096, "x")
        with pytest.raises(ValueError, match="ensemble needs 4097 bytes of memory but "
                                             "only 4096 bytes are available"):
            require_memory(4097, "ensemble")

    def test_skipped_without_meminfo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_MEMINFO", str(tmp_path / "absent"))
        assert available_memory() is None
        require_memory(1 << 62, "x")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc only")
    def test_import_leaves_mmap_threshold_dynamic(self):
        """Importing qtraj changes no allocator setting: in a fresh process
        a freed 3 MiB numpy block raises glibc's mmap threshold, as its
        default does, so a 2 MiB array allocated next comes from the heap
        where a threshold fixed below 2 MiB would map it on its own."""
        code = (
            "import ctypes, numpy as np, qtraj, qtraj.cli\n"
            "class MallInfo2(ctypes.Structure):\n"
            "    _fields_ = [(n, ctypes.c_size_t) for n in ('arena', 'ordblks', 'smblks',\n"
            "                'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks',\n"
            "                'keepcost')]\n"
            "mallinfo2 = getattr(ctypes.CDLL(None), 'mallinfo2', None)\n"
            "if mallinfo2 is None:\n"
            "    raise SystemExit(3)\n"
            "mallinfo2.restype = MallInfo2\n"
            "big = np.ones(3 << 17)\n"
            "del big\n"
            "before = mallinfo2()\n"
            "mid = np.ones(2 << 17)\n"
            "after = mallinfo2()\n"
            "print(after.hblkhd - before.hblkhd < mid.nbytes,\n"
            "      after.uordblks - before.uordblks >= mid.nbytes)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        # glibc's own tunables would fix the threshold before qtraj is imported
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 3:
            pytest.skip("no glibc mallinfo2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_large_arrays_get_private_mappings_of_their_own(self, tmp_path):
        """A simulated ensemble, a generated record set and a read file
        body each live in an anonymous private mapping that holds nothing
        else, so freeing one returns it to the system."""
        params = ModelParams(g=0.05, T1=45.0, dt=0.5, x0=0.305, n_steps=8)
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=1.0 / math.sqrt(params.kappa),
                                dt=params.dt, T1=params.T1)
        records, latent = generate_records(params, cal, 1000, SeedSpec(master_seed=3))
        path = str(tmp_path / "records.qrec")
        write_records(path, records)
        arrays = {
            "ensemble": simulate_ensemble(params, 1000, SeedSpec(master_seed=3)).values,
            "records": records.currents,
            "latent": latent.values,
            "read body": read_records(path).currents,
        }
        with open("/proc/self/maps") as f:
            maps = [line.split() for line in f]
        for what, a in arrays.items():
            owner = a
            while isinstance(owner, np.ndarray):
                owner = owner.base
            owner = owner.obj if isinstance(owner, memoryview) else owner
            assert isinstance(owner, mmap.mmap) and len(owner) == a.nbytes, what
            addr = a.ctypes.data
            (entry,) = [m for m in maps
                        if int(m[0].split("-")[0], 16) <= addr < int(m[0].split("-")[1], 16)]
            # perms ending in p: private; inode 0 and no path: anonymous
            assert entry[1].endswith("p") and entry[4] == "0" and len(entry) == 5, (what, entry)

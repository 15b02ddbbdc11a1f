import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qtraj import cli, core, fitting, fokker_planck, io
from qtraj.cli import USAGE, RunConfig, main, parse_args
from qtraj.core import ModelParams, build_histogram
from qtraj.rng import SeedSpec
from qtraj.sde import CHUNK, simulate_ensemble


def run(argv):
    return main(argv)


def histogram_mass(path):
    """Total mass of a histogram file: its density column plus the
    ``# mass0=`` and ``# mass1=`` boundary masses."""
    head = histogram_head(path)
    rows = [ln.split(",") for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return sum(float(r[1]) for r in rows) + float(head["mass0"]) + float(head["mass1"])


def histogram_head(path):
    """The ``# key=value`` header lines of a histogram file."""
    lines = Path(path).read_text().splitlines()
    return dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("#"))


def sigma_for_kappa(kappa, di=2.0):
    return di / (2.0 * math.sqrt(kappa))


def packed_records(currents, x0=0.5, dt=0.5):
    """A hand-packed record file: magic, header (version, n_traj, n_steps,
    dt, I0, I1, sigma, T1, x0, seed), then the currents row-major."""
    body = np.asarray(currents, dtype="<f8")
    head = struct.pack("<IQQddddddQ", io.FORMAT_VERSION, *body.shape, dt, 1.0, -1.0, 2.0,
                       math.inf, x0, 0)
    return io.RECORD_MAGIC + head + body.tobytes()


class TestParsing:
    def test_unknown_mode(self, capsys):
        assert run(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("unknown mode 'frobnicate'\n\nusage:")

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_key_list_matches_config_fields_and_readme(self):
        # the keys `qtraj --help` lists are the RunConfig fields but mode,
        # in order, and README's "Config keys" block is the same list
        block = USAGE.split("\nkeys (", 1)[1].split("\n", 1)[1].split("\n\n", 1)[0]
        keys = [tok.split("=", 1)[0] for tok in block.split()]
        assert keys == [f.name for f in dataclasses.fields(RunConfig) if f.name != "mode"]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        readme_block = readme.split("\nConfig keys", 1)[1].split("```\n", 2)[1]
        assert readme_block.splitlines() == [ln.strip() for ln in block.splitlines()]

    def test_defaults_have_their_annotated_types(self):
        # a key's value is converted with the type of its default
        for f in dataclasses.fields(RunConfig):
            assert type(f.default).__name__ == f.type, f.name

    def test_unknown_key(self, capsys):
        assert run(["simulate", "--bogus=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value(self, capsys):
        assert run(["simulate", "--n_traj=lots"]) == 2

    def test_parameter_out_of_range(self, tmp_path, capsys):
        rc = run(
            [
                "simulate", f"--out={tmp_path}", "--seed=1", "--g_per_us=0.03",
                "--x0=1.5", "--n_traj=10",
            ]
        )
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        for mode in ("simulate", "generate"):
            assert run([mode, f"--out={tmp_path}", "--g_per_us=0.03"]) == 2
            assert f"--seed is mandatory for {mode}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["simulate", "generate"])
    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_seed_out_of_range(self, tmp_path, capsys, mode, seed):
        out = tmp_path / "out"
        assert run([mode, f"--out={out}", f"--seed={seed}"]) == 2
        err = capsys.readouterr().err
        assert f"--seed={seed} must be >= 0 and < 2**64" in err
        assert "mandatory" not in err
        assert not out.exists()

    def test_config_mode_conflict(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("mode = simulate\n")
        with pytest.raises(Exception):
            parse_args(["generate", f"--config={cfg}"])

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "seed=1"], "expected --key=value, got 'seed=1'"),
        (["simulate", "--seed"], "expected --key=value, got '--seed'"),
        (["fit", "--config=/nope/c.txt"], "config file does not exist: /nope/c.txt"),
        (["generate", "--config={mode}"],
         "config mode 'simulate' conflicts with command 'generate'"),
    ])
    def test_argument_errors_exit_2_with_their_message(self, tmp_path, capsys, argv, message):
        mode = tmp_path / "mode.txt"
        mode.write_text(f"mode = simulate\nout = {tmp_path / 'out'}\n")
        assert run([a.format(mode=mode) for a in argv]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()

    def test_modes_are_the_commands(self):
        assert cli.MODES == ("generate", "simulate", "solve-fp", "reconstruct", "fit",
                             "calibrate")
        for mode in cli.MODES:
            assert f"\n  {mode} " in USAGE


class TestSimulate:
    def test_single_frozen_trajectory(self, tmp_path):
        out = tmp_path / "run"
        rc = run(
            [
                "simulate", f"--out={out}", "--seed=7", "--n_traj=1",
                "--g_per_us=0.0", "--n_steps=12", "--x0=0.4",
            ]
        )
        assert rc == 0
        ens = io.read_ensemble(str(out / "ensemble.qens"))
        assert ens.n_traj == 1 and ens.n_steps == 12
        assert np.all(ens.values == ens.values[0, 0])
        assert math.isclose(histogram_mass(out / "hist_00012.txt"), 1.0, abs_tol=1e-12)

    def test_manifest_rerun_byte_identical(self, tmp_path):
        # a run, then a rerun with its manifest as the config: the same files
        gen = tmp_path / "gen"
        assert run(["generate", f"--out={gen}", "--seed=3", "--n_traj=300", "--n_steps=10",
                    "--t1_us=45"]) == 0
        runs = {
            "simulate": ["--seed=42", "--n_traj=500", "--g_per_us=0.03", "--n_steps=10",
                         "--slices=5,10"],
            "reconstruct": [f"--input={gen / 'records.qrec'}", "--n_workers=2"],
            # the Fokker-Planck model, at a finite T1, with its overlays
            "fit": [f"--input={tmp_path / 'reconstruct' / 'reconstructed.qens'}",
                       "--t1_us=45", "--slices=5,10", "--tau_max=1", "--tau_step=0.05"],
        }
        for mode, args in runs.items():
            a, b = tmp_path / mode, tmp_path / f"{mode}_rerun"
            assert run([mode, f"--out={a}", *args]) == 0
            assert run([mode, f"--config={a / 'manifest.txt'}", f"--out={b}"]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert sorted(p.name for p in b.iterdir()) == names
            for name in names:
                want = (a / name).read_bytes()
                if name == "manifest.txt":
                    want = want.replace(str(a).encode(), str(b).encode())
                assert (b / name).read_bytes() == want, (mode, name)


class TestStreamedSimulate:
    """``qtraj simulate`` streams its ensemble in batches of n_workers
    chunks; the files equal those of the in-memory ensemble."""

    N_TRAJ = 2 * CHUNK + 1234
    ARGS = ["--seed=11", f"--n_traj={N_TRAJ}", "--n_steps=3", "--g_per_us=0.05",
            "--t1_us=4", "--slices=0,1,3", "--n_bins=50"]

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("in_memory")
        params = ModelParams(g=0.05, T1=4.0, dt=0.5, x0=0.305, n_steps=3)
        ens = simulate_ensemble(params, self.N_TRAJ, SeedSpec(11))
        io.write_ensemble(str(out / "ensemble.qens"), ens)
        for k in (0, 1, 3):
            io.write_histogram(str(out / f"hist_{k:05d}.txt"),
                               build_histogram(ens, k, 50, 0.02))
        return out

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_files_match_in_memory_ensemble(self, tmp_path, reference, workers):
        out = tmp_path / "run"
        assert run(["simulate", f"--out={out}", f"--n_workers={workers}", *self.ARGS]) == 0
        names = sorted(p.name for p in reference.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names + ["manifest.txt"]
        for name in names:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name


class TestInputChecks:
    """Bad inputs exit 2 with a message before any output file is written
    (an uncaught exception would propagate out of main() here)."""

    SMALL = ["--seed=1", "--n_traj=100", "--n_steps=4"]

    @pytest.mark.parametrize("g", ["nan", "inf"])
    @pytest.mark.parametrize("mode, extra", [("simulate", SMALL), ("solve-fp", ["--slices=1"])])
    def test_nonfinite_coupling(self, tmp_path, capsys, mode, extra, g):
        out = tmp_path / "out"
        assert run([mode, f"--out={out}", f"--g_per_us={g}", *extra]) == 2
        assert "g must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["simulate", "generate"])
    def test_infinite_dt_rejected_before_work(self, tmp_path, capsys, monkeypatch, mode):
        # the parameters are checked before any trajectory is computed
        monkeypatch.setattr(cli.bayesian, "generate_records", None)
        monkeypatch.setattr(cli, "simulate_batches", None)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([mode, f"--out={out}", "--dt_us=inf", *self.SMALL]) == 2
        assert "dt must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--i0=inf", "I0=inf must be finite"),
        ("--i1=nan", "I1=nan must be finite"),
        ("--sigma=inf", "sigma=inf must be finite and > 0"),
    ])
    def test_generate_names_the_nonfinite_current_key(self, tmp_path, capsys, flag, message):
        out = tmp_path / "out"
        assert run(["generate", f"--out={out}", *self.SMALL, flag]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert flag[2:].split("=")[0] in err.lower()  # the key the user set, not g
        assert "g must be finite" not in err
        assert not out.exists()

    @pytest.mark.parametrize("slices", ["2,9", "a", ","])
    def test_simulate_checks_slices_first(self, tmp_path, capsys, slices):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["simulate", f"--out={out}", *self.SMALL, f"--slices={slices}"]) == 2
        assert "slice" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # binning flags and the message each must give: bins are 1/n_bins wide,
    # and a bin_width flag (or an old manifest's line) is not a key
    BAD_BINNING = {
        "--n_bins=0": "n_bins=0 must be >= 1",
        "--n_bins=-5": "n_bins=-5 must be >= 1",
        "--bin_width=inf": "unknown config key: bin_width",
        "--bin_width=nan": "unknown config key: bin_width",
        "--n_bins=-5 --bin_width=-1": "unknown config key: bin_width",
    }

    def test_simulate_checks_binning_first(self, tmp_path, capsys):
        for i, (flag, message) in enumerate(self.BAD_BINNING.items()):
            out = tmp_path / f"out{i}"
            assert run(["simulate", f"--out={out}", *self.SMALL, *flag.split()]) == 2, flag
            assert message in capsys.readouterr().err, flag
            assert not out.exists(), flag

    @pytest.fixture
    def reads(self, monkeypatch):
        """The io readers called in the test, by name, in call order."""
        calls = []
        for name in ("read_ensemble", "read_ensemble_blocks", "read_records"):
            real = getattr(io, name)
            monkeypatch.setattr(io, name,
                                lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        return calls

    def test_reads_sees_the_fit_read(self, tmp_path, reads, ensemble):
        # the spy the key-check cases rely on sees fit's row-block read
        assert run(["fit", f"--out={tmp_path / 'out'}", f"--input={ensemble}"]) == 0
        assert reads == ["read_ensemble_blocks"]

    @pytest.fixture(scope="class")
    def ensemble(self, tmp_path_factory):
        sim = tmp_path_factory.mktemp("sim")
        assert run(["simulate", f"--out={sim}", *self.SMALL, "--g_per_us=0.03"]) == 0
        return sim / "ensemble.qens"

    # flags whose message does not name their first key: the expected message
    # (the Fokker-Planck grid and substep are not config keys)
    NOT_KEYED = {
        "--tau_min=0.5 --tau_max=0.1": "at least 3 points",
        "--tau_min=0.3 --tau_max=0.31 --tau_step=0.01": "at least 3 points",
        "--fp_cells=4 --t1_us=20": "unknown config key: fp_cells",
        "--t1_us=-1": "T1 must be > 0",
        "--t1_us=0": "T1 must be > 0",
        "--t1_us=-inf": "T1 must be > 0",
        "--t1_us=20 --fp_zmin=5 --fp_zmax=-5": "unknown config key: fp_zmin",
        "--fp_dt_us=-1 --t1_us=20": "unknown config key: fp_dt_us",
        "--fp_dt_us=inf --t1_us=20": "unknown config key: fp_dt_us",
        "--fp_dt_us=nan --t1_us=20": "unknown config key: fp_dt_us",
    }

    @pytest.mark.parametrize("flag", [*BAD_BINNING, "--model=bogus", "--tau_step=0",
                                      "--tau_max=inf", "--slices=a", "--tau_min=-0.5",
                                      "--slices=,", *NOT_KEYED])
    @pytest.mark.parametrize("mode", ["fit"])
    def test_fit_and_report_check_keys_first(self, tmp_path, capsys, reads, ensemble, mode, flag):
        out = tmp_path / "out"
        assert run([mode, f"--out={out}", f"--input={ensemble}", *flag.split()]) == 2
        want = {**self.BAD_BINNING, **self.NOT_KEYED}.get(flag, flag[2:].split("=")[0])
        assert want in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_n_bins_checked_before_any_read(self, tmp_path, capsys, reads, ensemble, records,
                                            mode):
        inputs = {"reconstruct": [f"--input={records}"], "fit": [f"--input={ensemble}"],
                  "calibrate": [f"--ground={records}", f"--excited={records}"]}
        out = tmp_path / "out"
        assert run([mode, f"--out={out}", *self.SMALL, *inputs.get(mode, []), "--n_bins=0"]) == 2
        assert capsys.readouterr().err == "n_bins=0 must be >= 1\n"
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_huge_n_bins_refused_before_any_read(self, tmp_path, capsys, monkeypatch, reads,
                                                 ensemble, records, mode):
        # the sub-cell lookup of 10**6 bins holds at most 8 * (2 * (4e6 + 1)
        # + 6 * (1e6 + 1)) bytes: one byte less available exits 2 unread
        inputs = {"reconstruct": [f"--input={records}"], "fit": [f"--input={ensemble}"],
                  "calibrate": [f"--ground={records}", f"--excited={records}"]}
        monkeypatch.setattr(io, "read_ensemble_blocks", lambda *a: pytest.fail("file read"))
        monkeypatch.setattr(core, "available_memory", lambda: 112000063)
        out = tmp_path / "out"
        assert run([mode, f"--out={out}", *self.SMALL, *inputs.get(mode, []),
                    "--n_bins=1000000"]) == 2
        assert capsys.readouterr().err == (
            "usage error: binning into n_bins=1000000 bins needs 112000064 bytes of memory "
            "but only 112000063 bytes are available\n")
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("n_bins", [1000, 16385, 100000])
    def test_n_bins_memory_check_covers_the_lookup(self, monkeypatch, n_bins):
        # 16385 bins take the largest sub-cell table, 4 * 16384 + 1 entries
        tracemalloc.start()
        try:
            core._cell_lookup(n_bins, 1.0 / n_bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(core, "available_memory", lambda: peak - 1)
        with pytest.raises(ValueError, match=f"binning into n_bins={n_bins} bins needs"):
            cli.config_from_items({"n_bins": str(n_bins)}, "simulate")

    def test_model_key_is_gone(self, tmp_path, capsys, reads, ensemble):
        # the model follows t1_us; a --model flag or an old manifest's line exits 2
        out = tmp_path / "out"
        assert run(["fit", f"--out={out}", f"--input={ensemble}", "--model=analytic"]) == 2
        assert "unknown config key: model" in capsys.readouterr().err
        old = tmp_path / "manifest.txt"
        old.write_text(f"mode = fit\ninput = {ensemble}\nmodel = auto\n")
        assert run(["fit", f"--out={out}", f"--config={old}"]) == 2
        assert "unknown config key: model" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_fp_keys_are_gone(self, tmp_path, capsys, reads, ensemble):
        # the solver runs at its defaults; an old manifest's grid lines exit 2
        out = tmp_path / "out"
        old = tmp_path / "manifest.txt"
        old.write_text(f"mode = fit\ninput = {ensemble}\nt1_us = 20.0\nfp_cells = 8192\n"
                       "fp_zmin = -12.0\nfp_zmax = 12.0\nfp_dt_us = 0.0\n")
        assert run(["fit", f"--out={out}", f"--config={old}"]) == 2
        assert "unknown config key: fp_cells" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["simulate", "fit"])
    def test_repeated_slice_rejected(self, tmp_path, capsys, reads, ensemble, mode):
        # one histogram or report block per slice: a repeat is a usage error
        out = tmp_path / "out"
        source = self.SMALL if mode == "simulate" else [f"--input={ensemble}"]
        assert run([mode, f"--out={out}", *source, "--slices=2,4,2"]) == 2
        assert "slice 2 given twice" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fit"])
    def test_default_slice_is_range_checked(self, tmp_path, capsys, mode):
        # the default slice is the file's last one, which a 0-step ensemble
        # does not have (slice 0 is the initial state, never fitted)
        sim = tmp_path / "sim"
        assert run(["simulate", f"--out={sim}", "--seed=1", "--n_traj=200", "--n_steps=0"]) == 0
        out = tmp_path / "out"
        assert run([mode, f"--out={out}", f"--input={sim / 'ensemble.qens'}"]) == 2
        assert "slice 0 out of range 1..0" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_fp_checks_binning_first(self, tmp_path, capsys):
        for i, (flag, message) in enumerate(self.BAD_BINNING.items()):
            out = tmp_path / f"out{i}"
            assert run(["solve-fp", f"--out={out}", "--g_per_us=0.03", "--slices=10,20",
                        *flag.split()]) == 2, flag
            assert message in capsys.readouterr().err, flag
            assert not out.exists(), flag

    @pytest.mark.parametrize("flags", ["--t_grid_us=nan", "--t_grid_us=inf --t1_us=45",
                                       "--t_grid_us=inf"])
    def test_solve_fp_checks_t_grid_first(self, tmp_path, capsys, flags):
        # solve-fp's times are slices of dt_us: a t_grid_us flag (or an old
        # manifest's line) exits 2 before the solver runs
        out = tmp_path / "out"
        assert run(["solve-fp", f"--out={out}", "--g_per_us=0.03", *flags.split()]) == 2
        assert "unknown config key: t_grid_us" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["-1", "inf", "nan"])
    def test_solve_fp_checks_dt_first(self, tmp_path, capsys, monkeypatch, dt):
        monkeypatch.setattr(cli, "solve_fp", None)
        out = tmp_path / "out"
        assert run(["solve-fp", f"--out={out}", "--g_per_us=0.03", "--slices=40",
                    "--t1_us=45", f"--dt_us={dt}"]) == 2
        assert f"dt must be finite and > 0, got {float(dt)}" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_substeps_refused(self, tmp_path, capsys):
        # t1_us = 1e-4 substeps at 1e-6 us: slice 1 (0.5 us) would take 5e5
        out = tmp_path / "out"
        assert run(["solve-fp", f"--out={out}", "--t1_us=1e-4", "--g_per_us=0.1",
                    "--slices=1"]) == 2
        assert "needs 500000 substeps of 1e-06, more than 100000" in capsys.readouterr().err
        assert not out.exists()
        sim = tmp_path / "sim"
        assert run(["simulate", f"--out={sim}", "--seed=1", "--n_traj=100", "--n_steps=1",
                    "--g_per_us=0.1"]) == 0
        assert run(["fit", f"--out={out}", f"--input={sim / 'ensemble.qens'}",
                    "--t1_us=1e-4"]) == 2
        assert "needs 500000 substeps of 1e-06, more than 100000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x0", ["0.0", "1.0"])
    def test_fit_refuses_eigenstate_x0(self, tmp_path, capsys, x0):
        # every trajectory stays at the eigenstate, so the closed form has
        # no tau to fit: exit 2 before any output
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert run(["simulate", f"--out={sim}", "--seed=1", "--n_traj=1000", "--n_steps=10",
                    f"--x0={x0}", "--g_per_us=0.1"]) == 0
        assert run(["fit", f"--out={out}", f"--input={sim / 'ensemble.qens'}"]) == 2
        assert f"x0={x0} is an eigenstate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        ("--slices=81", "slice 81 out of range 0..80"),
        ("--slices=2,4,2", "slice 2 given twice"),
        ("--x0=1.5", "x0 must lie in [0, 1]"),
        ("--n_steps=-1", "n_steps must be >= 0"),
        ("--t1_us=0", "T1 must be > 0"),
    ])
    def test_solve_fp_checks_model_keys_first(self, tmp_path, capsys, monkeypatch, flags,
                                              message):
        # solve-fp checks its keys as simulate does, before the solver runs
        monkeypatch.setattr(cli, "solve_fp", None)
        out = tmp_path / "out"
        assert run(["solve-fp", f"--out={out}", "--g_per_us=0.03", *flags.split()]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        gen = tmp_path_factory.mktemp("gen")
        assert run(["generate", f"--out={gen}", *self.SMALL]) == 0
        return gen / "records.qrec"

    def test_reconstruct_checks_workers_first(self, tmp_path, capsys, reads, records):
        out = tmp_path / "out"
        assert run(["reconstruct", f"--out={out}", f"--input={records}", "--n_workers=0"]) == 2
        assert "n_workers=0 must be >= 1" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_calibrate_checks_inputs_first(self, tmp_path, capsys, reads, records):
        out = tmp_path / "out"
        assert run(["calibrate", f"--out={out}", f"--ground={records}"]) == 2
        assert "--excited is required" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()


class TestPipeline:
    def test_generate_reconstruct_fit_round_trip(self, tmp_path, capsys):
        kappa = 0.025
        n_steps = 20  # n_steps * kappa = 0.5
        gen_dir = tmp_path / "gen"
        rec_dir = tmp_path / "rec"
        fit_dir = tmp_path / "fit"
        sigma = sigma_for_kappa(kappa)
        rc = run(
            [
                "generate", f"--out={gen_dir}", "--seed=2024", "--n_traj=50000",
                f"--n_steps={n_steps}", "--x0=0.305", "--i0=1.0", "--i1=-1.0",
                f"--sigma={sigma!r}",
            ]
        )
        assert rc == 0
        rc = run(
            ["reconstruct", f"--out={rec_dir}", f"--input={gen_dir / 'records.qrec'}"]
        )
        assert rc == 0
        # reconstruction reproduces the latent trajectories bitwise
        latent = io.read_ensemble(str(gen_dir / "latent.qens"))
        rebuilt = io.read_ensemble(str(rec_dir / "reconstructed.qens"))
        assert np.array_equal(latent.values, rebuilt.values)
        rc = run(
            [
                "fit", f"--out={fit_dir}", f"--input={rec_dir / 'reconstructed.qens'}",
                "--tau_min=0.3", "--tau_max=0.7", "--tau_step=0.005",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""  # a trustworthy fit prints no warning
        report = io.read_config(str(fit_dir / "fit_report.txt"))
        assert report["n_slices"] == "1"
        r = {k.removeprefix("slice.0."): float(v) for k, v in report.items()}
        assert abs(r["tau_best"] - 0.5) < 0.03
        assert r["tau_err_dchi2_100"] > r["tau_err_dchi2_1"] > 0
        assert r["t_us"] == n_steps * 0.5

    @pytest.mark.parametrize("mode", ["fit"])
    def test_scan_edge_warns_on_stderr(self, tmp_path, capsys, mode):
        # slice 20 of g = 0.03/us at dt = 0.5 us has tau = 0.3, past the scan's end
        sim = tmp_path / "sim"
        assert run(["simulate", f"--out={sim}", "--seed=5", "--n_traj=2000", "--n_steps=20",
                    "--g_per_us=0.03", "--slices=20"]) == 0
        capsys.readouterr()
        assert run([mode, f"--out={tmp_path / 'fit'}", f"--input={sim / 'ensemble.qens'}",
                    "--slices=10,20", "--tau_min=0.0", "--tau_max=0.2", "--tau_step=0.01"]) == 0
        report = io.read_config(str(tmp_path / "fit" / "fit_report.txt"))
        assert float(report["slice.1.tau_best"]) == 0.2
        assert capsys.readouterr().err.splitlines() == [
            "warning: slice 20: the chi2 minimum tau_best = 0.2 is at the edge of the tau "
            "scan; widen tau_min..tau_max",
            "warning: slice 20: chi2 stays below chi2_min + 100 on one side of the tau scan, "
            "so tau_err_dchi2_100 is not bracketed; widen tau_min..tau_max",
            # a tau held off the minimum misses the data too
            "warning: slice 20: chi2_min = 300.9 on 100 bins has chance probability < 1e-6; "
            "check t1_us and the tau scan",
        ]

    def test_chi2_far_past_chance_warns_on_stderr(self, tmp_path, capsys):
        # T1 = 20 us data fitted at T1 = inf reads chi2_min 11283.6 on 100
        # bins and warns, still exiting 0; the fit at the data's T1 warns not
        gen, rec = tmp_path / "gen", tmp_path / "rec"
        assert run(["generate", f"--out={gen}", "--seed=3", "--n_traj=20000", "--n_steps=40",
                    "--dt_us=0.125", "--t1_us=20"]) == 0
        assert run(["reconstruct", f"--out={rec}", f"--input={gen / 'records.qrec'}"]) == 0
        ens = f"--input={rec / 'reconstructed.qens'}"
        capsys.readouterr()
        assert run(["fit", f"--out={tmp_path / 'inf'}", ens, "--slices=40"]) == 0
        report = io.read_config(str(tmp_path / "inf" / "fit_report.txt"))
        assert round(float(report["slice.0.chi2_min"]), 1) == 11283.6
        assert capsys.readouterr().err.splitlines() == [
            "warning: slice 40: chi2_min = 11283.6 on 100 bins has chance probability < 1e-6; "
            "check t1_us and the tau scan",
        ]
        assert run(["fit", f"--out={tmp_path / 't1'}", ens, "--slices=10,20,40",
                    "--t1_us=20"]) == 0
        report = io.read_config(str(tmp_path / "t1" / "fit_report.txt"))
        chi2 = [round(float(report[f"slice.{i}.chi2_min"]), 1) for i in range(3)]
        assert chi2 == [89.8, 95.7, 123.3]
        assert capsys.readouterr().err == ""

    def test_manifest_records_the_files_x0(self, tmp_path):
        # the fit runs at the x0 in the ensemble's header, so the manifest
        # says that x0 and a rerun from it fits the same
        sim = tmp_path / "sim"
        assert run(["simulate", f"--out={sim}", "--seed=5", "--n_traj=2000", "--n_steps=4",
                    "--g_per_us=0.03", "--x0=0.305"]) == 0
        fit = ["fit", f"--input={sim / 'ensemble.qens'}", "--tau_max=0.5"]
        assert run([*fit, f"--out={tmp_path / 'other'}", "--x0=0.9", "--t1_us=20"]) == 0
        manifest = tmp_path / "other" / "manifest.txt"
        assert io.read_config(str(manifest))["x0"] == "0.305"
        assert run(["fit", f"--config={manifest}", f"--out={tmp_path / 'rerun'}"]) == 0
        report = (tmp_path / "other" / "fit_report.txt").read_bytes()
        assert (tmp_path / "rerun" / "fit_report.txt").read_bytes() == report
        assert run([*fit, f"--out={tmp_path / 'fp'}", "--t1_us=20"]) == 0
        assert (tmp_path / "fp" / "fit_report.txt").read_bytes() == report

    def test_relaxation_past_exp_range(self, tmp_path):
        # dt/T1 = 5000, past math.exp's range: every state relaxes to rho00 = 1
        flags = ["--seed=1", "--t1_us=1e-4", "--n_traj=10", "--n_steps=2"]
        sim, gen, rec = tmp_path / "sim", tmp_path / "gen", tmp_path / "rec"
        assert run(["simulate", f"--out={sim}", *flags]) == 0
        assert histogram_head(sim / "hist_00002.txt")["mass1"] == "1.0"
        assert run(["generate", f"--out={gen}", *flags]) == 0
        latent = io.read_ensemble(str(gen / "latent.qens")).values
        assert np.all(latent[:, 1:] == 1.0)
        assert run(["reconstruct", f"--out={rec}", f"--input={gen / 'records.qrec'}"]) == 0
        assert np.array_equal(io.read_ensemble(str(rec / "reconstructed.qens")).values, latent)

    def test_generate_rejects_inconsistent_g(self, tmp_path, capsys):
        # i0=1, i1=-1, sigma=5 give kappa = 0.04 per 0.5 us step: g = 0.08/us
        argv = ["generate", "--seed=3", "--n_traj=10", "--n_steps=4"]
        assert run(argv + [f"--out={tmp_path / 'bad'}", "--g_per_us=0.2"]) == 2
        assert "g_per_us" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
        for g in ("0", "0.08"):
            assert run(argv + [f"--out={tmp_path / g}", f"--g_per_us={g}"]) == 0
        assert (
            (tmp_path / "0" / "records.qrec").read_bytes()
            == (tmp_path / "0.08" / "records.qrec").read_bytes()
        )

    def test_solve_fp_outputs(self, tmp_path):
        out = tmp_path / "fp"
        rc = run(
            [
                "solve-fp", f"--out={out}", "--g_per_us=0.03", "--x0=0.305",
                "--slices=20,40",
            ]
        )
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fp_00020.txt", "fp_00040.txt", "manifest.txt"]
        for k in (20, 40):
            assert math.isclose(histogram_mass(out / f"fp_{k:05d}.txt"), 1.0, abs_tol=1e-9)
            assert histogram_head(out / f"fp_{k:05d}.txt")["t_us"] == repr(k * 0.5)

    @pytest.mark.parametrize("t1", ["inf", "45"])
    def test_solve_fp_snapshots_the_slices_simulate_histograms(self, tmp_path, t1):
        # the same keys name the same times: hist_<k> and fp_<k> for each
        # slice k, at t = k * dt_us; the slices may come in any order
        keys = ["--seed=3", "--n_traj=2000", "--n_steps=12", "--dt_us=0.25",
                "--g_per_us=0.1", f"--t1_us={t1}", "--n_bins=40", "--slices=12,0,5"]
        for mode in ("simulate", "solve-fp"):
            assert run([mode, f"--out={tmp_path / mode}", *keys]) == 0
        hist = sorted(p.name[5:] for p in (tmp_path / "simulate").glob("hist_*.txt"))
        fp = sorted(p.name[3:] for p in (tmp_path / "solve-fp").glob("fp_*.txt"))
        assert hist == fp == ["00000.txt", "00005.txt", "00012.txt"]
        for name in hist:
            head = histogram_head(tmp_path / "simulate" / f"hist_{name}")
            assert histogram_head(tmp_path / "solve-fp" / f"fp_{name}")["t_us"] == head["t_us"]
            rows = (tmp_path / "solve-fp" / f"fp_{name}").read_text().splitlines()
            assert len([ln for ln in rows if not ln.startswith("#")]) == 40
        assert run(["solve-fp", f"--out={tmp_path / 'sorted'}", *keys[:-1],
                    "--slices=0,5,12"]) == 0
        for name in fp:
            assert ((tmp_path / "sorted" / f"fp_{name}").read_bytes()
                    == (tmp_path / "solve-fp" / f"fp_{name}").read_bytes())

    @pytest.mark.parametrize("mode, args", [
        ("simulate", ["--seed=4", "--n_traj=500", "--n_steps=6", "--g_per_us=0.05",
                      "--n_bins=50", "--slices=3,6"]),
        ("solve-fp", ["--g_per_us=0.05", "--t1_us=20", "--n_bins=50", "--slices=3,6"]),
    ])
    def test_old_manifest_names_bin_width(self, tmp_path, capsys, mode, args):
        # a manifest written before bins were 1/n_bins wide carries
        # bin_width and t_grid_us lines: it exits 2 and writes nothing; with
        # the two lines deleted it reruns to the same bytes
        new = tmp_path / "new"
        assert run([mode, f"--out={new}", *args]) == 0
        lines = (new / "manifest.txt").read_text().splitlines(keepends=True)
        old = []
        for ln in lines:
            old.append(ln)
            if ln.startswith("n_bins = "):
                old.append("bin_width = 0.02\n")
            if ln.startswith("slices = "):
                old.append("t_grid_us = \n")
        (tmp_path / "old.txt").write_text("".join(old))
        rerun = tmp_path / "rerun"
        assert run([mode, f"--config={tmp_path / 'old.txt'}", f"--out={rerun}"]) == 2
        assert capsys.readouterr().err == "unknown config key: bin_width\n"
        assert not rerun.exists()
        kept = [ln for ln in old if not ln.startswith(("bin_width = ", "t_grid_us = "))]
        (tmp_path / "old.txt").write_text("".join(kept))
        assert run([mode, f"--config={tmp_path / 'old.txt'}", f"--out={rerun}"]) == 0
        names = sorted(p.name for p in new.iterdir())
        assert sorted(p.name for p in rerun.iterdir()) == names
        for name in names:
            want = (new / name).read_bytes()
            if name == "manifest.txt":
                want = want.replace(str(new).encode(), str(rerun).encode())
            assert (rerun / name).read_bytes() == want, name

    def test_solve_fp_solver_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # a solver invariant that breaks is an error (exit 1), never an
        # output: no table and no manifest.  At T1 = inf the one substep
        # is the direct spread of the start's cells
        apply = fokker_planck._Diffusion.apply

        def creates_mass(self, s, cells=None):
            assert cells is not None
            apply(self, s, cells)
            s.mass1 += 1e-6

        monkeypatch.setattr(fokker_planck._Diffusion, "apply", creates_mass)
        out = tmp_path / "fp"
        assert run(["solve-fp", f"--out={out}", "--g_per_us=0.2", "--slices=2"]) == 1
        assert capsys.readouterr().err == "error: mass drift 1.000e-06 at t = 1.0\n"
        assert not out.exists()

    def test_report_overlays(self, tmp_path):
        sim_dir = tmp_path / "sim"
        rep_dir = tmp_path / "rep"
        rc = run(
            [
                "simulate", f"--out={sim_dir}", "--seed=5", "--n_traj=2000",
                "--g_per_us=0.03", "--t1_us=45.0", "--n_steps=20", "--x0=0.305",
            ]
        )
        assert rc == 0
        rc = run(
            [
                "fit", f"--out={rep_dir}", f"--input={sim_dir / 'ensemble.qens'}",
                "--t1_us=45.0", "--slices=10,20", "--tau_min=0.0", "--tau_max=1.0",
                "--tau_step=0.05",
            ]
        )
        assert rc == 0
        assert io.read_config(str(rep_dir / "fit_report.txt"))["n_slices"] == "2"
        for k in (10, 20):
            lines = (rep_dir / f"report_{k:05d}.txt").read_text().splitlines()
            head = [ln for ln in lines if ln.startswith("#")]
            rows = [ln for ln in lines if not ln.startswith("#")]
            assert any("tau_best=" in h for h in head)
            assert len(rows) == 100
            # three aligned model columns per bin
            for ln in rows[:3]:
                assert len(ln.split(",")) == 5

    @pytest.mark.parametrize("t1", ["inf", "45"])
    def test_fit_in_row_blocks_writes_the_same_files(self, tmp_path, monkeypatch, t1):
        # blocks of 3 rows, the last one of 2, give the counts of one block
        sim = tmp_path / "sim"
        assert run(["simulate", f"--out={sim}", "--seed=5", "--n_traj=2000", "--n_steps=20",
                    "--g_per_us=0.03", "--t1_us=45"]) == 0
        fit = ["fit", f"--input={sim / 'ensemble.qens'}", f"--t1_us={t1}", "--slices=10,20",
               "--tau_max=1.0", "--tau_step=0.05"]
        assert run([*fit, f"--out={tmp_path / 'one'}"]) == 0
        monkeypatch.setattr(io, "_READ_BLOCK", 3 * 21 * 8)
        blocks = []
        read_blocks = io.read_ensemble_blocks
        monkeypatch.setattr(io, "read_ensemble_blocks",
                            lambda path: (blocks.append(b.n_traj) or b for b in read_blocks(path)))
        assert run([*fit, f"--out={tmp_path / 'rows'}"]) == 0
        assert blocks == [3] * 666 + [2]
        one, rows = tmp_path / "one", tmp_path / "rows"
        for name in ("fit_report.txt", "report_00010.txt", "report_00020.txt"):
            assert (rows / name).read_bytes() == (one / name).read_bytes()

    def test_old_report_manifest(self, tmp_path, capsys):
        # the report mode is gone: fit writes the overlays; an old report
        # manifest conflicts with fit, and with its mode line set to fit it
        # reruns to the files of a fit with the same keys
        sim = tmp_path / "sim"
        assert run(["simulate", f"--out={sim}", "--seed=5", "--n_traj=2000", "--n_steps=20",
                    "--g_per_us=0.03", "--slices=20"]) == 0
        fit = tmp_path / "fit"
        assert run(["fit", f"--out={fit}", f"--input={sim / 'ensemble.qens'}",
                    "--slices=10,20", "--tau_max=1", "--tau_step=0.05"]) == 0
        names = sorted(p.name for p in fit.iterdir())
        assert names == ["fit_report.txt", "manifest.txt", "report_00010.txt",
                         "report_00020.txt"]
        manifest = (fit / "manifest.txt").read_text()
        assert manifest.startswith("mode = fit\n")
        old = tmp_path / "old.txt"
        old.write_text(manifest.replace("mode = fit\n", "mode = report\n", 1))
        capsys.readouterr()
        assert run(["report", f"--out={tmp_path / 'rep'}", f"--config={old}"]) == 2
        assert capsys.readouterr().err.startswith("unknown mode 'report'\n\nusage:")
        assert run(["fit", f"--out={tmp_path / 'rep'}", f"--config={old}"]) == 2
        assert "config mode 'report' conflicts with command 'fit'" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()
        old.write_text(manifest)
        assert run(["fit", f"--out={tmp_path / 'rerun'}", f"--config={old}"]) == 0
        assert sorted(p.name for p in (tmp_path / "rerun").iterdir()) == names
        for name in names:
            want = (fit / name).read_bytes()
            if name == "manifest.txt":
                want = want.replace(str(fit).encode(), str(tmp_path / "rerun").encode())
            assert (tmp_path / "rerun" / name).read_bytes() == want, name

    def test_fit_uses_default_fp_grid(self, tmp_path):
        # at a finite T1 the CLI fits the library's default Fokker-Planck model
        sim_dir = tmp_path / "sim"
        rc = run(
            [
                "simulate", f"--out={sim_dir}", "--seed=5", "--n_traj=2000",
                "--g_per_us=0.03", "--t1_us=45.0", "--n_steps=20", "--x0=0.305",
            ]
        )
        assert rc == 0
        assert run([
            "fit", f"--out={tmp_path / 'fit'}", f"--input={sim_dir / 'ensemble.qens'}",
            "--t1_us=45.0", "--slices=20", "--tau_min=0.0", "--tau_max=1.0", "--tau_step=0.05",
        ]) == 0
        report = io.read_config(str(tmp_path / "fit" / "fit_report.txt"))
        ens = io.read_ensemble(str(sim_dir / "ensemble.qens"))
        gen = fitting.make_fp_model_gen(0.305, 45.0, [10.0])
        (r,) = fitting.fit_tau(
            [build_histogram(ens, 20)], gen, fitting.default_tau_scan(0.0, 1.0, 0.05)
        )
        assert report["n_slices"] == "1"
        assert float(report["slice.0.chi2_min"]) == r.chi2_min
        assert float(report["slice.0.tau_best"]) == r.tau_best

    def test_calibrate(self, tmp_path):
        gdir, edir, cdir = tmp_path / "g", tmp_path / "e", tmp_path / "c"
        common = [
            "--n_traj=3000", "--n_steps=40", "--i0=128.44", "--i1=127.68",
            "--sigma=5.5", "--t1_us=45.0",
        ]
        assert run(["generate", f"--out={gdir}", "--seed=91", "--x0=1.0"] + common) == 0
        assert run(["generate", f"--out={edir}", "--seed=92", "--x0=0.0"] + common) == 0
        rc = run(
            [
                "calibrate", f"--out={cdir}",
                f"--ground={gdir / 'records.qrec'}", f"--excited={edir / 'records.qrec'}",
            ]
        )
        assert rc == 0
        cal = io.read_config(str(cdir / "calibration.txt"))
        # ground: 3000*40 pooled samples; excited I1: 3000 first-step samples
        assert abs(float(cal["i0"]) - 128.44) < 4 * 5.5 / math.sqrt(120_000)
        assert abs(float(cal["i1"]) - 127.68) < 4 * 5.5 / math.sqrt(3000) + 0.01
        assert abs(float(cal["t1_us"]) - 45.0) < 4 * float(cal["t1_err_us"])
        assert float(cal["kappa"]) > 0

    def test_malformed_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.qens"
        bad.write_bytes(b"garbage")
        assert run(["fit", f"--out={tmp_path}", f"--input={bad}"]) == 1
        err = capsys.readouterr().err
        assert "offset" in err or "line" in err
        # record files are binary only: text is not read
        text = tmp_path / "records.txt"
        text.write_text("1,2,2,0.5,1.0,-1.0,2.0,inf,0.5,0\n0.1,0.2\n0.3,0.4\n")
        assert run(["reconstruct", f"--out={tmp_path / 'rec'}", f"--input={text}"]) == 1
        assert "records.txt: bad magic at byte offset 0" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_nonfinite_records_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.qrec"
        bad.write_bytes(packed_records([[0.1, math.nan], [0.3, math.inf]]))
        assert run(["reconstruct", f"--out={tmp_path / 'rec'}", f"--input={bad}"]) == 1
        err = capsys.readouterr().err
        assert "bad.qrec: currents must be finite: record 0, step 1 is nan" in err
        assert not (tmp_path / "rec").exists()

    def test_bad_x0_records_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.qrec"
        bad.write_bytes(packed_records([[0.1, 0.2], [0.3, 0.4]], x0=1.5))
        assert run(["reconstruct", f"--out={tmp_path / 'rec'}", f"--input={bad}"]) == 1
        assert "bad.qrec: x0 must lie in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_infinite_dt_records_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.qrec"
        bad.write_bytes(packed_records([[0.1, 0.2], [0.3, 0.4]], dt=math.inf))
        assert run(["reconstruct", f"--out={tmp_path / 'rec'}", f"--input={bad}"]) == 1
        assert "bad.qrec: dt must be finite and > 0, got inf" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("n_traj, n_slices", [(0, 3), (4, 0)])
    def test_bad_ensemble_header_exit_code(self, tmp_path, capsys, n_traj, n_slices):
        bad = tmp_path / "bad.qens"
        head = struct.pack("<IQQddQ", io.FORMAT_VERSION, n_traj, n_slices, 0.5, 0.305, 0)
        bad.write_bytes(io.ENSEMBLE_MAGIC + head + bytes(8 * n_traj * n_slices))
        assert run(["fit", f"--out={tmp_path / 'fit'}", f"--input={bad}"]) == 1
        assert "bad.qens" in capsys.readouterr().err
        assert not (tmp_path / "fit" / "fit_report.txt").exists()

    def test_memory_refusal_exit_codes(self, tmp_path, capsys, monkeypatch):
        # a computed ensemble, tau grid or set of scan tables that cannot
        # fit is a usage error (exit 2); a file whose body cannot fit is an
        # input error naming it (exit 1), unless it is read in row blocks;
        # 20000 bytes hold the 11264-byte binning lookup of 100 bins
        sim, gen = tmp_path / "sim", tmp_path / "gen"
        assert run(["simulate", f"--out={sim}", "--seed=1", "--n_traj=1000",
                    "--n_steps=4", "--g_per_us=0.03"]) == 0
        assert run(["generate", f"--out={gen}", "--seed=1", "--n_traj=1000",
                    "--n_steps=4"]) == 0
        monkeypatch.setattr(core, "available_memory", lambda: 20000)
        assert run(["simulate", f"--out={tmp_path / 'big'}", "--seed=1", "--n_traj=1000",
                    "--n_steps=4"]) == 2
        assert "needs 40000 bytes of memory but only 20000 bytes" in capsys.readouterr().err
        assert not list((tmp_path / "big").iterdir())
        assert run(["fit", f"--out={tmp_path / 'tau'}", f"--input={sim / 'ensemble.qens'}",
                    "--tau_step=1e-10"]) == 2
        err = capsys.readouterr().err
        assert "a tau grid of 25000000001 points needs 800000000032 bytes" in err
        assert not (tmp_path / "tau").exists()
        # reconstruct reads the whole 32000-byte body of records, which is
        # refused; a fit on a 3-point tau grid (96 bytes) reads its ensemble
        # in row blocks, so its 40000-byte body needs no memory
        assert run(["reconstruct", f"--out={tmp_path / 'rec'}",
                    f"--input={gen / 'records.qrec'}"]) == 1
        err = capsys.readouterr().err
        assert "records.qrec: record body of 1000 x 4 values needs 32000 bytes" in err
        assert not (tmp_path / "rec").exists()
        assert run(["fit", f"--out={tmp_path / 'blocks'}", f"--input={sim / 'ensemble.qens'}",
                    "--tau_max=0.02"]) == 0
        assert (tmp_path / "blocks" / "fit_report.txt").exists()
        capsys.readouterr()
        # four slices' scan tables of the 251-point default grid need 16064
        # bytes: the grid's 8032 would fit, the tables do not, and they are
        # refused before the file is read
        monkeypatch.setattr(core, "available_memory", lambda: 16063)
        read_blocks = io.read_ensemble_blocks
        monkeypatch.setattr(io, "read_ensemble_blocks", lambda *a: pytest.fail("file read"))
        assert run(["fit", f"--out={tmp_path / 'fit'}", f"--input={sim / 'ensemble.qens'}",
                    "--slices=1,2,3,4"]) == 2
        err = capsys.readouterr().err
        assert "a scan of 4 slices at 251 tau points needs 16064 bytes of memory" in err
        assert not (tmp_path / "fit").exists()
        monkeypatch.setattr(io, "read_ensemble_blocks", read_blocks)
        monkeypatch.setattr(core, "available_memory", lambda: 16064)
        assert run(["fit", f"--out={tmp_path / 'fit'}", f"--input={sim / 'ensemble.qens'}",
                    "--slices=1,2,3,4"]) == 0

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 186. GiB")

        monkeypatch.setitem(cli._COMMANDS, "fit", exhausted)
        assert run(["fit", f"--out={tmp_path}"]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 186. GiB\n"

    @pytest.mark.parametrize("bad, shape, message", [
        ("ground", (10, 5), "need at least 100 samples for a calibration fit"),
        ("excited", (200, 3), "need matching time/current series of length >= 4"),
    ])
    def test_calibrate_bad_file_exit_code(self, tmp_path, capsys, bad, shape, message):
        # the keys are fine and the file is at fault: an input error naming it
        rng = np.random.default_rng(5)
        paths = {}
        for which in ("ground", "excited"):
            paths[which] = tmp_path / f"{which}.qrec"
            currents = rng.normal(size=shape if which == bad else (200, 8))
            paths[which].write_bytes(packed_records(currents))
        out = tmp_path / "cal"
        assert run(["calibrate", f"--out={out}", f"--ground={paths['ground']}",
                    f"--excited={paths['excited']}"]) == 1
        assert f"error: {paths[bad]}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_code(self, tmp_path, capsys):
        assert run(["reconstruct", f"--out={tmp_path}", "--input=/nope.qrec"]) == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qtraj.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout


def test_import_loads_no_heavy_scipy_modules():
    # a cold `qtraj` process pays only for the scipy modules its numerics use
    code = (
        "import sys, qtraj, qtraj.cli\n"
        "heavy = ('scipy.signal', 'scipy.optimize', 'scipy.stats', 'scipy.interpolate')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# the README pipeline at CI size: a process's own checks, then its fit reports
SIMD_PIPELINE = """\
import json, sys
import numpy as np
from qtraj import io
from qtraj.cli import main

out = sys.argv[1]
def run(*argv):
    assert main(list(argv)) == 0, argv

run("generate", f"--out={out}/gen", "--seed=2024", "--n_traj=20000", "--n_steps=20",
    "--x0=0.305", "--i0=1", "--i1=-1", "--sigma=6.324555320336759")
run("reconstruct", f"--out={out}/rec", f"--input={out}/gen/records.qrec")
latent = io.read_ensemble(f"{out}/gen/latent.qens").values.view(np.uint64)
rebuilt = io.read_ensemble(f"{out}/rec/reconstructed.qens").values.view(np.uint64)
assert np.array_equal(latent, rebuilt), "reconstructed != latent"
ens = f"--input={out}/rec/reconstructed.qens"
run("fit", f"--out={out}/fit", ens, "--tau_min=0.3", "--tau_max=0.7", "--tau_step=0.005")
run("fit", f"--out={out}/rep", ens, "--slices=10,20")
reports = {name: io.read_config(f"{out}/{name}/fit_report.txt") for name in ("fit", "rep")}
tau, err = (float(reports["fit"][f"slice.0.{k}"]) for k in ("tau_best", "tau_err_dchi2_100"))
assert abs(tau - 0.5) < err, (tau, err)
print(json.dumps(reports))
"""


def _numpy_has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not _numpy_has_avx512(), reason="numpy reports no AVX-512")
def test_readme_pipeline_agrees_across_simd_levels(tmp_path):
    """numpy's exp and log differ in the last bit between its SIMD levels,
    so the bytes are only reproducible on one level; with the AVX-512
    kernels off, the pipeline still passes its checks and fits the same
    numbers to 1e-12 relative."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for level, disabled in (("default", None), ("avx2", "AVX512_ICL AVX512_SPR X86_V4")):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = src
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run(
            [sys.executable, "-c", SIMD_PIPELINE, str(tmp_path / level)], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (level, proc.stderr)
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    default, avx2 = reports
    for name in ("fit", "rep"):
        assert default[name].keys() == avx2[name].keys()
        for key, value in default[name].items():
            assert math.isclose(float(value), float(avx2[name][key]), rel_tol=1e-12), (name, key)

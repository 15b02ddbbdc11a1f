import math
import re
import struct

import numpy as np
import pytest

from qtraj.bayesian import RecordSet
from qtraj.core import CalibrationParams, TrajectoryEnsemble
from qtraj import io


@pytest.fixture
def records():
    rng = np.random.default_rng(1)
    cal = CalibrationParams(I0=128.44, I1=127.68, sigma=5.5, dt=0.5, T1=45.0)
    return RecordSet(
        currents=rng.normal(128.0, 5.5, (7, 11)), cal=cal, x0=0.305, master_seed=99
    )


@pytest.fixture
def ensemble():
    rng = np.random.default_rng(2)
    vals = rng.random((5, 4))
    return TrajectoryEnsemble(
        n_traj=5, n_steps=3, dt=0.5, values=vals, x0=0.4, master_seed=7
    )


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestRecordFiles:
    def test_binary_round_trip(self, tmp_path, records):
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        back = io.read_records(str(p))
        assert np.array_equal(back.currents, records.currents)
        assert back.cal == records.cal
        assert back.x0 == records.x0
        assert back.master_seed == records.master_seed
        # write -> read -> write is byte-identical
        p2 = tmp_path / "r2.qrec"
        io.write_records(str(p2), back)
        assert file_bytes(p) == file_bytes(p2)

    def test_infinite_t1_round_trip(self, tmp_path):
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=2.0, dt=0.5)  # T1 = inf
        recs = RecordSet(currents=np.zeros((2, 3)), cal=cal, x0=0.5, master_seed=0)
        p = tmp_path / "r.qrec"
        io.write_records(str(p), recs)
        assert math.isinf(io.read_records(str(p)).cal.T1)

    def test_text_input_accepted(self, tmp_path, records):
        p = tmp_path / "r.txt"
        head = ",".join(
            [
                "1",
                str(records.n_traj),
                str(records.n_steps),
                repr(records.cal.dt),
                repr(records.cal.I0),
                repr(records.cal.I1),
                repr(records.cal.sigma),
                repr(records.cal.T1),
                repr(records.x0),
                str(records.master_seed),
            ]
        )
        rows = [",".join(repr(float(v)) for v in row) for row in records.currents]
        p.write_text("\n".join([head] + rows) + "\n")
        back = io.read_records(str(p))
        assert np.array_equal(back.currents, records.currents)
        assert back.cal == records.cal

    def test_truncated_binary_diagnostic(self, tmp_path, records):
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        raw = file_bytes(p)
        bad = tmp_path / "bad.qrec"
        bad.write_bytes(raw[:-8])
        with pytest.raises(io.FormatError, match="offset"):
            io.read_records(str(bad))

    def test_malformed_text_diagnostic(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,2,2,0.5,1.0,-1.0,2.0,inf,0.5,0\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(io.FormatError, match="line 3"):
            io.read_records(str(p))

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_nonfinite_current_diagnostic(self, tmp_path, records, value):
        # binary: overwrite record 4, step 6 in place
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        raw = bytearray(file_bytes(p))
        off = len(raw) - records.currents.nbytes + (4 * records.n_steps + 6) * 8
        raw[off : off + 8] = struct.pack("<d", value)
        p.write_bytes(bytes(raw))
        t = tmp_path / "r.txt"
        t.write_text(f"1,2,2,0.5,1.0,-1.0,2.0,inf,0.5,0\n0.1,0.2\n0.3,{value!r}\n")
        for path in (p, t):
            with pytest.raises(io.FormatError, match=f"{path.name}: currents must be finite"):
                io.read_records(str(path))

    @pytest.mark.parametrize("x0", [1.5, -0.25, math.nan])
    def test_bad_x0_diagnostic(self, tmp_path, records, x0):
        # binary: overwrite the header's x0 field (after version, n_traj,
        # n_steps, dt, I0, I1, sigma and T1) in place
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        raw = bytearray(file_bytes(p))
        off = len(io.RECORD_MAGIC) + struct.calcsize("<IQQddddd")
        assert struct.unpack_from("<d", raw, off)[0] == records.x0
        raw[off : off + 8] = struct.pack("<d", x0)
        p.write_bytes(bytes(raw))
        t = tmp_path / "r.txt"
        t.write_text(f"1,2,2,0.5,1.0,-1.0,2.0,inf,{x0!r},0\n0.1,0.2\n0.3,0.4\n")
        for path in (p, t):
            with pytest.raises(io.FormatError, match=f"{path.name}: x0 must lie in"):
                io.read_records(str(path))


@pytest.mark.parametrize("kind", ["record", "ensemble"])
def test_binary_container_diagnostics(tmp_path, records, ensemble, kind):
    # record and ensemble files share one container: magic, header
    # (version u32, n_traj u64, n_cols u64, ...), row-major <f8 body
    write, read, obj, body = {
        "record": (io.write_records, io.read_records, records, records.currents),
        "ensemble": (io.write_ensemble, io.read_ensemble, ensemble, ensemble.values),
    }[kind]
    good = tmp_path / "good.bin"
    write(str(good), obj)
    raw = file_bytes(good)
    magic_end = len(io.RECORD_MAGIC)
    head_end = len(raw) - body.nbytes
    cases = {
        "version": (raw[:magic_end] + struct.pack("<I", 2) + raw[magic_end + 4 :],
                    f"unsupported {kind} format version 2"),
        "short_header": (raw[: head_end - 1],
                         f"truncated header at byte offset {head_end - 1}"),
        "long_body": (raw + bytes(8), f"body has {body.nbytes + 8} bytes at offset "
                      f"{head_end}, expected {body.nbytes}"),
    }
    for name, (data, message) in cases.items():
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(data)
        with pytest.raises(io.FormatError, match=re.escape(f"{bad.name}: {message}")):
            read(str(bad))


class TestEnsembleFiles:
    def test_round_trip(self, tmp_path, ensemble):
        p = tmp_path / "e.qens"
        io.write_ensemble(str(p), ensemble)
        back = io.read_ensemble(str(p))
        assert np.array_equal(back.values, ensemble.values)
        assert back.dt == ensemble.dt and back.x0 == ensemble.x0
        p2 = tmp_path / "e2.qens"
        io.write_ensemble(str(p2), back)
        assert file_bytes(p) == file_bytes(p2)

    @pytest.mark.parametrize("fields, message", [
        ({"n_cols": 0}, "n_steps must be >= 0, got -1"),
        ({"n_traj": 0}, "ensemble must hold at least one trajectory"),
        ({"dt": -0.5}, "dt must be finite and > 0, got -0.5"),
        ({"dt": 0.0}, "dt must be finite and > 0, got 0.0"),
        ({"dt": math.inf}, "dt must be finite and > 0, got inf"),
        ({"dt": math.nan}, "dt must be finite and > 0, got nan"),
        ({"x0": 7.0}, "x0 must lie in [0, 1], got 7.0"),
        ({"x0": -0.25}, "x0 must lie in [0, 1], got -0.25"),
    ])
    def test_bad_header_diagnostic(self, tmp_path, fields, message):
        # hand-packed header: version, n_traj, n_cols (slices), dt, x0, seed
        def packed(n_traj=3, n_cols=2, dt=0.5, x0=0.305):
            head = struct.pack("<IQQddQ", io.FORMAT_VERSION, n_traj, n_cols, dt, x0, 0)
            return io.ENSEMBLE_MAGIC + head + bytes(8 * n_traj * n_cols)

        p = tmp_path / "bad.qens"
        p.write_bytes(packed())
        assert io.read_ensemble(str(p)).x0 == 0.305
        p.write_bytes(packed(**fields))
        with pytest.raises(io.FormatError, match=re.escape(f"{p.name}: {message}")):
            io.read_ensemble(str(p))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "no.qens"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(io.FormatError, match="offset 0"):
            io.read_ensemble(str(p))


class TestHistogramFiles:
    def test_round_trip(self, tmp_path):
        from qtraj.core import build_histogram

        rng = np.random.default_rng(3)
        vals = rng.random((1000, 1))
        vals[:5] = 0.0
        ens = TrajectoryEnsemble(n_traj=1000, n_steps=0, dt=0.5, values=vals)
        snap = build_histogram(ens, 0)
        p = tmp_path / "h.txt"
        io.write_histogram(str(p), snap)
        back = io.read_histogram(str(p))
        assert np.array_equal(back.density, snap.density)
        assert np.array_equal(back.errors, snap.errors)
        assert back.mass0 == snap.mass0 and back.mass1 == snap.mass1
        assert back.t == snap.t and back.bin_width == snap.bin_width
        p2 = tmp_path / "h2.txt"
        io.write_histogram(str(p2), back)
        assert file_bytes(p) == file_bytes(p2)

    def test_missing_header_diagnostic(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("0.005,0.5,0.1\n0.015,0.5,0.1\n")
        with pytest.raises(io.FormatError, match="t_us"):
            io.read_histogram(str(p))

    def test_bad_row_diagnostic(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("# t_us=0.0\n# mass0=0.0\n# mass1=0.0\n0.005,x,0.1\n")
        with pytest.raises(io.FormatError, match="line 4"):
            io.read_histogram(str(p))


class TestFitReportFiles:
    def test_round_trip(self, tmp_path):
        slices = [
            io.FitReportSlice(
                t_us=5.0, tau_best=0.15, chi2_min=103.5,
                tau_err_dchi2_100=0.04, tau_err_dchi2_1=0.004, n_bins=100,
            ),
            io.FitReportSlice(
                t_us=40.0, tau_best=1.2, chi2_min=188.25,
                tau_err_dchi2_100=0.09, tau_err_dchi2_1=0.009, n_bins=100,
            ),
        ]
        p = tmp_path / "fit.txt"
        io.write_fit_report(str(p), slices)
        back = io.read_fit_report(str(p))
        assert back == slices
        p2 = tmp_path / "fit2.txt"
        io.write_fit_report(str(p2), back)
        assert file_bytes(p) == file_bytes(p2)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "fit.txt"
        p.write_text("n_slices = 1\nslice.0.t_us = 5.0\n")
        with pytest.raises(io.FormatError, match="slice.0.tau_best"):
            io.read_fit_report(str(p))

    @pytest.mark.parametrize("key", ["n_slices", "slice.0.tau_best", "slice.0.n_bins"])
    def test_bad_value(self, tmp_path, key):
        p = tmp_path / "fit.txt"
        io.write_fit_report(str(p), [io.FitReportSlice(5.0, 0.15, 103.5, 0.04, 0.004, 100)])
        items = io.read_config(str(p))
        items[key] = "abc"
        io.write_config(str(p), items)
        with pytest.raises(io.FormatError, match=f"fit.txt.*'{key}'"):
            io.read_fit_report(str(p))


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        items = {"mode": "simulate", "seed": "42", "x0": "0.305", "out": "run1"}
        p = tmp_path / "c.txt"
        io.write_config(str(p), items)
        assert io.read_config(str(p)) == items
        p2 = tmp_path / "c2.txt"
        io.write_config(str(p2), io.read_config(str(p)))
        assert file_bytes(p) == file_bytes(p2)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# a comment\n\nseed = 7\n")
        assert io.read_config(str(p)) == {"seed": "7"}

    def test_bad_line_diagnostic(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("seed = 7\nnonsense\n")
        with pytest.raises(io.FormatError, match="line 2"):
            io.read_config(str(p))

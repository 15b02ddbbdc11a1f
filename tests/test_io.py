import io as stdio
import math
import os
import re
import stat
import string
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qtraj.bayesian import RecordSet
from qtraj.core import CalibrationParams, DistributionSnapshot, TrajectoryEnsemble
from qtraj import core, io


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


def read_in_blocks(path):
    """The ensemble of a file read by ``io.read_ensemble_blocks``: the
    blocks' values stacked, and the header the blocks share."""
    blocks = [(b, b.values.copy()) for b in io.read_ensemble_blocks(path)]
    head = blocks[0][0]
    for b, _ in blocks:
        assert (b.n_steps, b.dt, b.x0, b.master_seed) == (head.n_steps, head.dt, head.x0,
                                                          head.master_seed)
    values = np.concatenate([v for _, v in blocks])
    return TrajectoryEnsemble(n_traj=len(values), n_steps=head.n_steps, dt=head.dt,
                              values=values, x0=head.x0, master_seed=head.master_seed)


def read_histogram(path):
    """A histogram file parsed back into a snapshot: ``# key=value``
    header lines, then center,density,error rows.  qtraj writes these
    tables and reads none; the bin width is twice the first center."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    h = {k: float(v) for k, v in (ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))}
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines if not ln.startswith("#")])
    return DistributionSnapshot(n_bins=rows.shape[0], bin_width=2.0 * rows[0, 0],
                                density=rows[:, 1].copy(), errors=rows[:, 2].copy(),
                                mass0=h["mass0"], mass1=h["mass1"], t=h["t_us"],
                                mass0_err=h["mass0_err"], mass1_err=h["mass1_err"])


def read_fit_report(path):
    """The slices of a fit report, read as the config file it is."""
    kv = io.read_config(path)
    return [
        io.FitReportSlice(*(
            (float if f.type == "float" else int)(kv[f"slice.{i}.{f.name}"])
            for f in fields(io.FitReportSlice)
        ))
        for i in range(int(kv["n_slices"]))
    ]


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

    def test_truncated_binary_diagnostic(self, tmp_path, records):
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        raw = file_bytes(p)
        bad = tmp_path / "bad.qrec"
        bad.write_bytes(raw[:-8])
        with pytest.raises(io.FormatError, match="offset"):
            io.read_records(str(bad))

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_nonfinite_current_diagnostic(self, tmp_path, records, value):
        # overwrite record 4, step 6 in place
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        raw = bytearray(file_bytes(p))
        off = len(raw) - records.currents.nbytes + (4 * records.n_steps + 6) * 8
        raw[off : off + 8] = struct.pack("<d", value)
        p.write_bytes(bytes(raw))
        with pytest.raises(io.FormatError, match="r.qrec: currents must be finite"):
            io.read_records(str(p))

    @pytest.mark.parametrize("x0", [1.5, -0.25, math.nan])
    def test_bad_x0_diagnostic(self, tmp_path, records, x0):
        # overwrite the header's x0 field (after version, n_traj,
        # n_steps, dt, I0, I1, sigma and T1) in place
        p = tmp_path / "r.qrec"
        io.write_records(str(p), records)
        raw = bytearray(file_bytes(p))
        off = len(io.RECORD_MAGIC) + struct.calcsize("<IQQddddd")
        assert struct.unpack_from("<d", raw, off)[0] == records.x0
        raw[off : off + 8] = struct.pack("<d", x0)
        p.write_bytes(bytes(raw))
        with pytest.raises(io.FormatError, match="r.qrec: x0 must lie in"):
            io.read_records(str(p))


@pytest.mark.parametrize("kind", ["record", "ensemble", "ensemble blocks"])
def test_binary_container_diagnostics(tmp_path, monkeypatch, records, ensemble, kind):
    # record and ensemble files share one container: magic, header
    # (version u32, n_traj u64, n_cols u64, ...), row-major <f8 body; a
    # read in row blocks (two rows each here) gives the same messages
    monkeypatch.setattr(io, "_READ_BLOCK", 2 * ensemble.values[0].nbytes)
    write, read, obj, body = binary_io(kind, records, ensemble)
    kind = kind.split()[0]
    good = tmp_path / "good.bin"
    write(str(good), obj)
    raw = file_bytes(good)
    magic_end = len(io.RECORD_MAGIC)
    head_end = len(raw) - body.nbytes
    other_magic = io.ENSEMBLE_MAGIC if kind == "record" else io.RECORD_MAGIC
    cases = {
        "magic": (other_magic + raw[magic_end:], "bad magic at byte offset 0"),
        "version": (raw[:magic_end] + struct.pack("<I", 2) + raw[magic_end + 4 :],
                    f"unsupported {kind} format version 2"),
        "short_header": (raw[: head_end - 1],
                         f"truncated header at byte offset {head_end - 1}"),
        "long_body": (raw + bytes(8), f"body has {body.nbytes + 8} bytes at offset "
                      f"{head_end}, expected {body.nbytes}"),
        "short_body": (raw[:-8], f"body has {body.nbytes - 8} bytes at offset "
                       f"{head_end}, expected {body.nbytes}"),
    }
    for name, (data, message) in cases.items():
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(data)
        with pytest.raises(io.FormatError, match=re.escape(f"{bad.name}: {message}")):
            read(str(bad))


@pytest.mark.parametrize("kind", ["record", "ensemble", "ensemble blocks"])
def test_short_body_read(tmp_path, monkeypatch, records, ensemble, kind):
    # a body that reads short of the size fstat gave (a file truncated
    # while it is read) is a format error, not a partly filled array
    monkeypatch.setattr(io, "_READ_BLOCK", 2 * ensemble.values[0].nbytes)
    write, read, obj, body = binary_io(kind, records, ensemble)
    p = tmp_path / "short.bin"
    write(str(p), obj)
    head_end = p.stat().st_size - body.nbytes

    class ShortReader(stdio.BufferedReader):
        def readinto(self, b):
            return super().readinto(memoryview(b).cast("B")[:-8])

    monkeypatch.setattr(io, "open", lambda path, mode: ShortReader(stdio.FileIO(path, mode)),
                        raising=False)
    with pytest.raises(io.FormatError, match=re.escape(
            f"short.bin: body shorter than {body.nbytes} bytes at offset {head_end}")):
        read(str(p))


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
        # the whole-body read and the read in row blocks check alike
        for read in (io.read_ensemble, read_in_blocks):
            p.write_bytes(packed())
            assert read(str(p)).x0 == 0.305
            p.write_bytes(packed(**fields))
            with pytest.raises(io.FormatError, match=re.escape(f"{p.name}: {message}")):
                read(str(p))

    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 6])
    def test_row_blocks(self, tmp_path, monkeypatch, ensemble, rows):
        # blocks of at most _READ_BLOCK bytes and at least one row, whose
        # values stack to the whole body
        p = tmp_path / "e.qens"
        io.write_ensemble(str(p), ensemble)
        row = ensemble.values[0].nbytes
        monkeypatch.setattr(io, "_READ_BLOCK", rows * row + row // 2 if rows > 1 else 1)
        sizes = [b.n_traj for b in io.read_ensemble_blocks(str(p))]
        assert sizes == [min(rows, 5 - lo) for lo in range(0, 5, rows)]
        back = read_in_blocks(str(p))
        assert back.values.tobytes() == ensemble.values.tobytes()
        assert (back.dt, back.x0, back.master_seed) == (0.5, 0.4, 7)

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
        back = read_histogram(str(p))
        assert np.array_equal(back.density, snap.density)
        assert np.array_equal(back.errors, snap.errors)
        assert back.mass0 == snap.mass0 and back.mass1 == snap.mass1
        assert back.t == snap.t and back.bin_width == snap.bin_width
        p2 = tmp_path / "h2.txt"
        io.write_histogram(str(p2), back)
        assert file_bytes(p) == file_bytes(p2)


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
        back = read_fit_report(str(p))
        assert back == slices
        p2 = tmp_path / "fit2.txt"
        io.write_fit_report(str(p2), back)
        assert file_bytes(p) == file_bytes(p2)


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


def binary_io(kind, records, ensemble):
    """(writer, reader, object, body array) of one binary file kind."""
    return {
        "record": (io.write_records, io.read_records, records, records.currents),
        "ensemble": (io.write_ensemble, io.read_ensemble, ensemble, ensemble.values),
        "ensemble blocks": (io.write_ensemble, read_in_blocks, ensemble, ensemble.values),
    }[kind]


class TestSingleCopy:
    """Binary reads and writes hold one copy of the payload."""

    @pytest.mark.parametrize("kind", ["record", "ensemble"])
    def test_traced_peaks(self, tmp_path, kind):
        rng = np.random.default_rng(6)
        cal = CalibrationParams(I0=1.0, I1=-1.0, sigma=2.0, dt=0.5)
        records = RecordSet(currents=rng.normal(size=(8192, 80)), cal=cal, x0=0.3)
        values = rng.random((8192, 81))
        ensemble = TrajectoryEnsemble(n_traj=8192, n_steps=80, dt=0.5, values=values)
        write, read, obj, body = binary_io(kind, records, ensemble)
        p = str(tmp_path / "payload.bin")
        tracemalloc.start()
        try:
            peaks = []
            for step in (lambda: write(p, obj), lambda: read(p)):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = step()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        write_peak, read_peak = peaks
        assert write_peak < 0.01 * body.nbytes
        # the body is read into a mapping of its own, which tracemalloc
        # does not see: any traced copy of it fails
        assert read_peak < 0.05 * body.nbytes
        got = out.currents if kind == "record" else out.values
        assert got.tobytes() == body.tobytes()

    @pytest.mark.parametrize("kind", ["record", "ensemble"])
    def test_body_beyond_available_memory_refused(self, tmp_path, monkeypatch, records,
                                                  ensemble, kind):
        write, read, obj, body = binary_io(kind, records, ensemble)
        p = tmp_path / "big.bin"
        write(str(p), obj)
        n_traj, n_cols = body.shape
        monkeypatch.setattr(core, "available_memory", lambda: body.nbytes - 1)
        message = (f"big.bin: {kind} body of {n_traj} x {n_cols} values needs "
                   f"{body.nbytes} bytes of memory but only {body.nbytes - 1} bytes "
                   f"are available")
        with pytest.raises(io.FormatError, match=re.escape(message)):
            read(str(p))
        monkeypatch.setattr(core, "available_memory", lambda: body.nbytes)
        read(str(p))

    def test_row_blocks_write_the_same_bytes(self, tmp_path, ensemble):
        whole, blocks = tmp_path / "whole.qens", tmp_path / "blocks.qens"
        io.write_ensemble(str(whole), ensemble)
        v = ensemble.values
        io.write_ensemble_blocks(str(blocks), (v[:2], v[2:2], v[2:]), ensemble.n_traj,
                                 ensemble.n_steps, ensemble.dt, ensemble.x0,
                                 ensemble.master_seed)
        assert file_bytes(whole) == file_bytes(blocks)
        for bad in ((v[:2],), (v, v[:1]), (v[:, :2],)):
            with pytest.raises(ValueError, match="row"):
                io.write_ensemble_blocks(str(blocks), bad, ensemble.n_traj,
                                         ensemble.n_steps, ensemble.dt)
        assert file_bytes(whole) == file_bytes(blocks)  # a failed write changes nothing
        assert [q.name for q in tmp_path.iterdir() if q.name.startswith(".")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids="{:03o}".format)
def test_output_mode_follows_umask(tmp_path, ensemble, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "ref", "wb"):
            pass
        io.write_ensemble(str(tmp_path / "e.qens"), ensemble)
        io.write_config(str(tmp_path / "c.txt"), {"a": "1"})
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(tmp_path / "ref").st_mode)
    assert want == 0o666 & ~umask
    for name in ("e.qens", "c.txt"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == want


# ---------------------------------------------------------------------------
# byte-exact write -> read -> write round trips of every format

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
UNIT = st.floats(min_value=0.0, max_value=1.0)
SEEDS = st.integers(0, 2**64 - 1)
ROUND_TRIP = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def record_sets(draw):
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    i0 = draw(FINITE)
    cal = CalibrationParams(I0=i0, I1=draw(FINITE.filter(lambda v: v != i0)),
                            sigma=draw(POSITIVE), dt=draw(POSITIVE),
                            T1=draw(POSITIVE | st.just(math.inf)))
    return RecordSet(currents=draw(arrays(np.float64, shape, elements=FINITE)), cal=cal,
                     x0=draw(UNIT), master_seed=draw(SEEDS))


def assert_same_records(got, want):
    assert got.currents.tobytes() == want.currents.tobytes()
    assert got.currents.shape == want.currents.shape
    assert (got.cal, got.x0, got.master_seed) == (want.cal, want.x0, want.master_seed)


def rewrite(tmp_path, write, read, obj):
    """write obj, read it back, write that; returns (read, first bytes, second bytes)."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write(a, obj)
    back = read(a)
    write(b, back)
    return back, file_bytes(a), file_bytes(b)


class TestRoundTrips:
    @ROUND_TRIP
    @given(recs=record_sets())
    def test_records_binary(self, tmp_path, recs):
        back, first, second = rewrite(tmp_path, io.write_records, io.read_records, recs)
        assert_same_records(back, recs)
        assert first == second

    @ROUND_TRIP
    @given(n_traj=st.integers(1, 4), n_steps=st.integers(0, 4), dt=POSITIVE,
           x0=st.none() | UNIT, seed=st.none() | SEEDS, data=st.data())
    def test_ensemble(self, tmp_path, n_traj, n_steps, dt, x0, seed, data):
        values = data.draw(arrays(np.float64, (n_traj, n_steps + 1), elements=st.floats()))
        ens = TrajectoryEnsemble(n_traj=n_traj, n_steps=n_steps, dt=dt, values=values,
                                 x0=x0, master_seed=seed)
        back, first, second = rewrite(tmp_path, io.write_ensemble, io.read_ensemble, ens)
        assert back.values.tobytes() == values.tobytes()
        assert (back.n_traj, back.n_steps, back.dt, back.x0) == (n_traj, n_steps, dt, x0)
        assert back.master_seed == (seed or 0)
        assert first == second

    @ROUND_TRIP
    @given(n_bins=st.integers(1, 12), bin_width=st.floats(1e-3, 1.0),
           scalars=st.tuples(FINITE, FINITE, FINITE, FINITE, FINITE), data=st.data())
    def test_histogram(self, tmp_path, n_bins, bin_width, scalars, data):
        density, errors = (data.draw(arrays(np.float64, n_bins, elements=FINITE))
                           for _ in range(2))
        mass0, mass1, t, mass0_err, mass1_err = scalars
        snap = DistributionSnapshot(n_bins=n_bins, bin_width=bin_width, density=density,
                                    errors=errors, mass0=mass0, mass1=mass1, t=t,
                                    mass0_err=mass0_err, mass1_err=mass1_err)
        back, first, second = rewrite(tmp_path, io.write_histogram, read_histogram, snap)
        assert back.density.tobytes() == density.tobytes()
        assert back.errors.tobytes() == errors.tobytes()
        assert (back.n_bins, back.bin_width, back.mass0, back.mass1, back.t,
                back.mass0_err, back.mass1_err) == (n_bins, bin_width, *scalars)
        assert first == second

    @ROUND_TRIP
    @given(slices=st.lists(st.builds(io.FitReportSlice, FINITE, FINITE, FINITE, FINITE,
                                     FINITE, st.integers(-10**9, 10**9)), max_size=3))
    def test_fit_report(self, tmp_path, slices):
        back, first, second = rewrite(tmp_path, io.write_fit_report, read_fit_report,
                                      slices)
        assert back == slices
        assert first == second

    @ROUND_TRIP
    @given(items=st.dictionaries(
        st.text(string.ascii_letters + string.digits + "._-", min_size=1),
        st.text(string.printable.translate({ord(c): None for c in "\r\n\x0b\x0c"}))
        .map(str.strip),
        max_size=6,
    ))
    def test_config(self, tmp_path, items):
        back, first, second = rewrite(tmp_path, io.write_config, io.read_config, items)
        assert back == items
        assert first == second

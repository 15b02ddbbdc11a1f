"""File formats for the pipeline: records, ensembles, histograms,
fit reports, report overlays, and config/manifest files.

Record and ensemble files are binary and share one reader; outside data
comes in as a ``RecordSet`` written with :func:`write_records`.

All writes are atomic (temp file in the target directory, then rename)
and all text tables use full round-trip decimal precision.  qtraj reads
records, ensembles and config files (a fit report is one), and for
each of them write -> read -> write is byte-identical.  Binary
reads and writes hold one copy of the payload: the writer sends each
array buffer straight to the file and the reader fills one array, or
one block-sized buffer when it reads in row blocks.
Output files get the mode ``open()`` would give them (0o666 less the
umask).  Times in files are microseconds.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .bayesian import RecordSet
from .core import (CalibrationParams, DistributionSnapshot, TrajectoryEnsemble, _mapped_empty,
                   require_memory)

__all__ = [
    "FormatError",
    "FitReportSlice",
    "write_records",
    "read_records",
    "write_ensemble",
    "write_ensemble_blocks",
    "read_ensemble",
    "read_ensemble_blocks",
    "write_histogram",
    "write_overlay",
    "write_fit_report",
    "write_config",
    "read_config",
    "atomic_write_text",
    "fmt_float",
]

RECORD_MAGIC = b"QTRJREC1"
ENSEMBLE_MAGIC = b"QTRJENS1"
FORMAT_VERSION = 1
# little-endian: version u32, n_traj u64, n_steps u64, dt f64,
# I0 f64, I1 f64, sigma f64, T1 f64, x0 f64, master_seed u64
_REC_HEADER = struct.Struct("<IQQddddddQ")
# little-endian: version u32, n_traj u64, n_slices u64, dt f64, x0 f64,
# master_seed u64
_ENS_HEADER = struct.Struct("<IQQddQ")
_READ_BLOCK = 4 << 20  # bytes of body per row block of read_ensemble_blocks


class FormatError(ValueError):
    """Malformed input file; the message names the byte offset or line."""


@contextmanager
def _atomic_file(path: str):
    """Binary file that replaces ``path`` when the block exits cleanly
    and is removed otherwise.  It is created with mode 0o666, as
    ``open(path, "wb")`` creates one, so the umask applies."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".qtraj-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_file(path) as f:
        f.write(text.encode("utf-8"))


def fmt_float(x: float) -> str:
    """Full round-trip decimal representation."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# binary container shared by record and ensemble files


def _write_binary(path: str, magic: bytes, header: struct.Struct, shape, blocks,
                  *meta) -> None:
    """Magic, header (version, n_traj, n_cols, *meta), row-major <f8 body.

    The body is the consecutive row ``blocks`` of a ``shape`` = (n_traj,
    n_cols) array, each written from its own buffer (a C-contiguous
    float64 block is not copied) and dropped before the next is taken.
    """
    n_rows, n_cols = shape
    with _atomic_file(path) as f:
        f.write(magic + header.pack(FORMAT_VERSION, n_rows, n_cols, *meta))
        for block in blocks:
            body = np.ascontiguousarray(block, dtype="<f8")
            if body.shape[1:] != (n_cols,):
                raise ValueError(f"row block of shape {body.shape} in a {n_cols}-column body")
            f.write(body)
            n_rows -= body.shape[0]
            del block, body
        if n_rows != 0:
            raise ValueError(f"row blocks hold {shape[0] - n_rows} rows, header says {shape[0]}")


def _read_binary(path: str, magic: bytes, header: struct.Struct, kind: str, build,
                 block_bytes: int | None = None):
    """Inverse of :func:`_write_binary`: generate ``build(rows, *header
    fields after n_cols)`` of the body's consecutive row blocks.  By
    default one block, the whole body, is read into one preallocated
    array once the memory check passes; with ``block_bytes`` every block
    of at most that many bytes (and at least one row) is read into one
    reused buffer, so a block holds its values until the next is read.
    A ValueError from ``build`` or the memory check becomes a FormatError
    naming the file."""
    try:
        with open(path, "rb") as f:
            if f.read(len(magic)) != magic:
                raise FormatError(f"{path}: bad magic at byte offset 0")
            off = len(magic)
            head = f.read(header.size)
            if len(head) < header.size:
                raise FormatError(f"{path}: truncated header at byte offset {off + len(head)}")
            version, n_traj, n_cols, *meta = header.unpack(head)
            if version != FORMAT_VERSION:
                raise FormatError(f"{path}: unsupported {kind} format version {version}")
            off += header.size
            size = os.fstat(f.fileno()).st_size - off
            expected = n_traj * n_cols * 8
            if size != expected:
                raise FormatError(
                    f"{path}: body has {size} bytes at offset {off}, expected {expected}"
                )
            if block_bytes is None:
                require_memory(expected, f"{kind} body of {n_traj} x {n_cols} values")
                rows = max(n_traj, 1)
            else:
                rows = max(1, block_bytes // max(8 * n_cols, 1))
            buf = _mapped_empty((min(rows, n_traj), n_cols))
            # an empty body is one empty block, which build rejects
            for lo in range(0, max(n_traj, 1), rows):
                block = buf[: min(rows, n_traj - lo)]
                if f.readinto(block) != block.nbytes:
                    raise FormatError(f"{path}: body shorter than {expected} bytes at offset {off}")
                yield build(block, *meta)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# record files


def write_records(path: str, records: RecordSet) -> None:
    """Write a RecordSet in the binary record format."""
    cal = records.cal
    seed = records.master_seed if records.master_seed is not None else 0
    _write_binary(path, RECORD_MAGIC, _REC_HEADER, records.currents.shape,
                  (records.currents,), cal.dt, cal.I0, cal.I1, cal.sigma, cal.T1,
                  records.x0, seed)


def _build_records(currents, dt, i0, i1, sigma, t1, x0, seed) -> RecordSet:
    cal = CalibrationParams(I0=i0, I1=i1, sigma=sigma, dt=dt, T1=t1)
    return RecordSet(currents=currents, cal=cal, x0=x0, master_seed=seed)


def read_records(path: str) -> RecordSet:
    """Read a record file; values the record model rejects (a non-finite
    current, sigma <= 0, an x0 outside [0, 1]) raise FormatError too, as
    does a body larger than the memory the system reports available."""
    (records,) = _read_binary(path, RECORD_MAGIC, _REC_HEADER, "record", _build_records)
    return records


# ---------------------------------------------------------------------------
# ensemble files


def write_ensemble(path: str, ens: TrajectoryEnsemble) -> None:
    write_ensemble_blocks(path, (ens.values,), ens.n_traj, ens.n_steps, ens.dt,
                          ens.x0, ens.master_seed)


def write_ensemble_blocks(path: str, blocks, n_traj: int, n_steps: int, dt: float,
                          x0: float | None = None, master_seed: int | None = None) -> None:
    """Write the ensemble file of ``n_traj`` trajectories whose values
    arrive as consecutive row blocks (from :func:`qtraj.sde.simulate_batches`,
    say); the bytes equal :func:`write_ensemble`'s of the whole ensemble."""
    x0 = x0 if x0 is not None else math.nan
    seed = master_seed if master_seed is not None else 0
    _write_binary(path, ENSEMBLE_MAGIC, _ENS_HEADER, (n_traj, n_steps + 1), blocks,
                  dt, x0, seed)


def _build_ensemble(values, dt, x0, seed) -> TrajectoryEnsemble:
    return TrajectoryEnsemble(n_traj=values.shape[0], n_steps=values.shape[1] - 1, dt=dt,
                              values=values, x0=None if math.isnan(x0) else x0,
                              master_seed=seed)


def read_ensemble(path: str) -> TrajectoryEnsemble:
    """Read an ensemble file; header values the ensemble model rejects
    (no trajectories or slices, a bad dt or x0) raise FormatError too,
    as does a body larger than the memory the system reports available."""
    (ens,) = _read_binary(path, ENSEMBLE_MAGIC, _ENS_HEADER, "ensemble", _build_ensemble)
    return ens


def read_ensemble_blocks(path: str):
    """Generate the ensemble file's consecutive row blocks, each a
    TrajectoryEnsemble of at most ``_READ_BLOCK`` bytes of values, read
    into one reused buffer: a block's values hold until the next block
    is read.  Memory stays bounded for any file size, so no memory check
    is made; the header and the body size are checked as
    :func:`read_ensemble` checks them."""
    return _read_binary(path, ENSEMBLE_MAGIC, _ENS_HEADER, "ensemble", _build_ensemble,
                        _READ_BLOCK)


# ---------------------------------------------------------------------------
# histogram / density and overlay tables (written, never read)


def _write_table(path: str, header: dict, columns) -> None:
    """'# key=value' header lines, then the columns as CSV rows, floats at full precision."""
    lines = [f"# {k}={v if isinstance(v, str) else fmt_float(v)}" for k, v in header.items()]
    lines += [",".join(map(fmt_float, row)) for row in zip(*columns)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_histogram(path: str, snap: DistributionSnapshot) -> None:
    """Text histogram: '# key=value' header lines, then center,density,error."""
    _write_table(path, {
        "t_us": snap.t, "mass0": snap.mass0, "mass1": snap.mass1,
        "mass0_err": snap.mass0_err, "mass1_err": snap.mass1_err,
    }, (snap.bin_centers, snap.density, snap.errors))


def write_overlay(path: str, observed: DistributionSnapshot, tau_best: float, chi2_min: float,
                  best: DistributionSnapshot, norelax: DistributionSnapshot) -> None:
    """Report overlay: observed histogram, best-fit and no-relaxation models."""
    _write_table(path, {
        "t_us": observed.t, "tau_best": tau_best, "chi2_min": chi2_min,
        "mass0": observed.mass0, "mass1": observed.mass1,
        "columns": "bin_center,observed,error,model_best,model_norelax",
    }, (observed.bin_centers, observed.density, observed.errors, best.density, norelax.density))


# ---------------------------------------------------------------------------
# fit report files


@dataclass(frozen=True)
class FitReportSlice:
    t_us: float
    tau_best: float
    chi2_min: float
    tau_err_dchi2_100: float
    tau_err_dchi2_1: float
    n_bins: int


def write_fit_report(path: str, slices: list[FitReportSlice]) -> None:
    """Config file with ``n_slices`` and one dotted block per slice;
    :func:`read_config` reads it."""
    items = {"n_slices": str(len(slices))}
    for i, s in enumerate(slices):
        for f in fields(FitReportSlice):
            v = getattr(s, f.name)
            items[f"slice.{i}.{f.name}"] = fmt_float(v) if f.type == "float" else str(v)
    write_config(path, items)


# ---------------------------------------------------------------------------
# config / manifest files


def write_config(path: str, items: dict) -> None:
    """Config format: 'key = value' lines in the given order."""
    lines = [f"{k} = {v}" for k, v in items.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_config(path: str) -> dict:
    """Parse a 'key = value' file into an ordered string dict."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for i, ln in enumerate(f):
            s = ln.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise FormatError(f"{path}: line {i + 1}: expected 'key = value'")
            key, val = s.split("=", 1)
            out[key.strip()] = val.strip()
    return out

"""The benchmark's workloads: the qtraj library calls that the CLI modes
make, in the CLI's order and with its defaults, plus the checks that
gate every run.

* ``mc_relax`` stands for ``qtraj simulate`` (without its file output):
  one ensemble with T1 relaxation on two workers, then histograms.
* ``pipeline_t1`` stands for the README pipeline ``generate ->
  reconstruct -> report`` at T1 = 20 us (Fokker-Planck model), with
  real files.

Every call into qtraj goes through :meth:`Iteration.call`, which counts
it as one operation, records a span when the tracer is on, and runs the
check attached to it.  A check returns a list of problems; each
non-empty list counts one failed operation and is kept by name in the
:class:`Ledger`.  Check time is taken out of the stage timers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from qtraj import bayesian, fitting
from qtraj import io as qio
from qtraj.core import CalibrationParams, ModelParams, build_histogram
from qtraj.rng import STREAM_BRANCH, STREAM_NOISE, SeedSpec, counter_normal, counter_uniform
from qtraj.sde import simulate_ensemble


class Abort(Exception):
    """An operation raised; the rest of the iteration cannot run."""


@dataclass
class Ledger:
    """Operations attempted and failed over a whole run."""

    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        self.failures.append((op, message))


class Iteration:
    """One pass over a workload.

    ``stage_s`` maps each stage name to its wall time minus the time
    spent in checks.  With ``checks=False`` (the warm-up) outputs are
    not checked, but exceptions still count as failures.
    """

    def __init__(self, tracer, ledger: Ledger, checks: bool = True):
        self.tracer = tracer
        self.ledger = ledger
        self.checks = checks
        self.stage_s: dict[str, float] = {}
        self._check_s = 0.0

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        c0 = self._check_s
        with self.tracer.span("stage." + name):
            yield
        self.stage_s[name] = time.perf_counter() - t0 - (self._check_s - c0)

    def call(self, op: str, fn, *args, check=None, counts=None, traced=True, **kwargs):
        """Run one operation.  ``counts`` (a dict, or a function of the
        output) is attached to the span; ``traced=False`` leaves the span
        to ``fn`` itself (a model generator the tracer already wraps)."""
        self.ledger.attempted += 1
        try:
            if traced:
                with self.tracer.span(op) as rec:
                    out = fn(*args, **kwargs)
                if rec is not None and counts is not None:
                    rec["counts"].update(counts(out) if callable(counts) else counts)
            else:
                out = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark names every failure and goes on
            traceback.print_exc()
            self.ledger.fail(op, f"raised {type(exc).__name__}: {exc}")
            raise Abort(op) from exc
        if check is not None and self.checks:
            t0 = time.perf_counter()
            problems = check(out)
            self._check_s += time.perf_counter() - t0
            if problems:
                self.ledger.fail(op, "; ".join(problems))
        return out


# ---------------------------------------------------------------------------
# checks and digests


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def _same_ensemble(got, want, what: str) -> list[str]:
    problems = []
    for field in ("n_traj", "n_steps", "dt", "x0", "master_seed"):
        if getattr(got, field) != getattr(want, field):
            problems.append(f"{field} differs from the {what} ensemble")
    if not _same_bits(got.values, want.values):
        problems.append(f"values are not bitwise equal to the {what} ensemble")
    return problems


def _same_records(got, want) -> list[str]:
    problems = []
    for field in ("I0", "I1", "sigma", "dt", "T1"):
        if getattr(got.cal, field) != getattr(want.cal, field):
            problems.append(f"cal.{field} differs from the written records")
    if got.x0 != want.x0 or got.master_seed != want.master_seed:
        problems.append("x0/master_seed differ from the written records")
    if not _same_bits(got.currents, want.currents):
        problems.append("currents are not bitwise equal to the written records")
    return problems


def _relaxation_law(ens, k: int, snap, params: ModelParams) -> list[str]:
    """Slice mean within 5 standard errors of 1 - (1 - x0) e^{-t/T1};
    bins plus boundary masses sum to 1 within 1e-12."""
    problems = []
    v = ens.values[:, k]
    mean = float(v.mean())
    se = float(v.std(ddof=1)) / math.sqrt(v.size)
    expected = 1.0 - (1.0 - params.x0) * math.exp(-k * params.dt / params.T1)
    if not abs(mean - expected) <= 5.0 * se:
        problems.append(
            f"slice {k}: mean rho00 {mean!r} is {abs(mean - expected) / se:.2f} "
            f"standard errors from the relaxation law {expected!r}"
        )
    total = float(snap.density.sum()) + snap.mass0 + snap.mass1
    if not abs(total - 1.0) <= 1e-12:
        problems.append(f"slice {k}: histogram mass {total!r} != 1")
    return problems


def _fit_checks(results, slices, kappa: float) -> list[str]:
    problems = []
    for k, r in zip(slices, results):
        if r.at_edge:
            problems.append(f"slice {k}: minimum on the scan edge")
        if not r.err_bracketed:
            problems.append(f"slice {k}: delta-chi2 = 100 crossings not bracketed")
        if not abs(r.tau_best - k * kappa) <= r.tau_error:
            problems.append(
                f"slice {k}: tau_best {r.tau_best!r} is more than tau_error "
                f"{r.tau_error!r} from {k * kappa!r}"
            )
    return problems


def useful_evals(results) -> int:
    """Scan points with chi2 <= chi2_min + 100 on any slice, plus the
    first point beyond that window on each side of every minimum."""
    useful: set[int] = set()
    for r in results:
        c = r.scan[:, 1]
        thresh = r.chi2_min + 100.0
        useful.update(np.flatnonzero(c <= thresh).tolist())
        j = int(np.argmin(c))
        below = np.flatnonzero(c[:j] > thresh)
        above = np.flatnonzero(c[j + 1 :] > thresh)
        if below.size:
            useful.add(int(below[-1]))
        if above.size:
            useful.add(j + 1 + int(above[0]))
    return len(useful)


def sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _written(path: str):
    return lambda _out: {"bytes_written": os.path.getsize(path)}


def _read(path: str):
    return lambda _out: {"bytes_read": os.path.getsize(path)}


def fp_substeps(t1_us: float, times) -> int:
    """Trotter substeps of one model evaluation, summed over slices,
    at ``solve_fp``'s documented default step min(T1/100, t)."""
    return sum(max(1, math.ceil(t / min(t1_us / 100.0, t) - 1e-12)) for t in times)


def rng_probe(it: Iteration, seed: int, n_traj: int, n_steps: int) -> None:
    """The public counter streams on the tuples of trajectories
    [0, n_traj), steps [0, n_steps) and both streams."""
    traj = np.arange(n_traj, dtype=np.uint64)
    for s in range(n_steps):
        for stream in (STREAM_BRANCH, STREAM_NOISE):
            it.call("rng.counter_uniform", counter_uniform, seed, traj, s, stream,
                    counts={"variates": n_traj})
            it.call("rng.counter_normal", counter_normal, seed, traj, s, stream,
                    counts={"variates": n_traj})


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Scan:
    """Slices and tau grid of one ``report`` stage."""

    slices: tuple
    tau_min: float
    tau_max: float
    tau_step: float


@dataclass(frozen=True)
class MonteCarlo:
    """``qtraj simulate``: one ensemble, then per-slice histograms."""

    name: str
    n_traj: int
    n_steps: int
    g_per_us: float
    dt_us: float
    t1_us: float
    x0: float
    n_workers: int
    slices: tuple
    probe: tuple = (65536, 80)  # rng probe: trajectories, steps
    n_bins: int = 100
    bin_width: float = 0.01

    def params(self) -> ModelParams:
        return ModelParams(g=self.g_per_us, T1=self.t1_us, dt=self.dt_us, x0=self.x0,
                           n_steps=self.n_steps)

    def _simulate(self, it: Iteration, seed: int, n_workers: int, check=None):
        return it.call(
            "sde.simulate_ensemble", simulate_ensemble, self.params(), self.n_traj,
            SeedSpec(seed), n_workers=n_workers, check=check,
            counts=lambda e: {"traj_steps": e.n_traj * e.n_steps,
                              "out_bytes": e.values.nbytes, "workers": n_workers},
        )

    def run(self, it: Iteration, seed: int, workdir: str, digests: dict | None) -> int:
        """One pass; returns the trajectory-steps it computed."""
        params = self.params()
        with it.stage("data"):
            ens = self._simulate(it, seed, self.n_workers)
        with it.stage("fit"):
            for k in self.slices:
                it.call("core.build_histogram", build_histogram, ens, k, self.n_bins,
                        self.bin_width,
                        check=lambda snap, k=k: _relaxation_law(ens, k, snap, params))
        if digests is not None:
            digests["ensemble_values"] = sha256_array(ens.values)
        return self.n_traj * self.n_steps

    def warm_up(self, it: Iteration, workdir: str) -> None:
        tiny = dataclasses.replace(self, n_traj=256, n_steps=2, slices=(2,))
        tiny.run(it, 0, workdir, None)

    def repeat_on_one_worker(self, it: Iteration, seed: int, digest: str) -> None:
        """The simulate call again on one worker, for the scaling
        efficiency; its output must be byte-identical."""
        self._simulate(
            it, seed, 1,
            check=lambda e: [] if sha256_array(e.values) == digest
            else [f"1-worker ensemble differs from the {self.n_workers}-worker one"],
        )


@dataclass(frozen=True)
class Pipeline:
    """``qtraj generate``, ``reconstruct``, then ``report`` (which runs
    the fit) on the reconstructed ensemble."""

    name: str
    n_traj: int
    n_steps: int
    t1_us: float
    report: Scan
    dt_us: float = 0.5
    x0: float = 0.305
    i0: float = 1.0
    i1: float = -1.0
    sigma: float = 6.324555320336759
    n_workers: int = 1
    fp_cells: int = 8192
    probe: tuple = (65536, 80)
    n_bins: int = 100
    bin_width: float = 0.01

    def run(self, it: Iteration, seed: int, workdir: str, digests: dict | None) -> int:
        cal = CalibrationParams(I0=self.i0, I1=self.i1, sigma=self.sigma, dt=self.dt_us,
                                T1=self.t1_us)
        params = ModelParams(g=cal.kappa / self.dt_us, T1=self.t1_us, dt=self.dt_us,
                             x0=self.x0, n_steps=self.n_steps)
        files = {
            "records": os.path.join(workdir, "gen", "records.qrec"),
            "latent": os.path.join(workdir, "gen", "latent.qens"),
            "reconstructed": os.path.join(workdir, "rec", "reconstructed.qens"),
            "report_fit_report": os.path.join(workdir, "rep", "fit_report.txt"),
        }
        for sub in ("gen", "rec", "rep"):
            os.makedirs(os.path.join(workdir, sub), exist_ok=True)
        steps = self.n_traj * self.n_steps

        with it.stage("data"):
            # qtraj generate
            recs, latent = it.call(
                "bayesian.generate_records", bayesian.generate_records, params, cal,
                self.n_traj, SeedSpec(seed), n_workers=self.n_workers,
                counts={"traj_steps": steps},
            )
            it.call("io.write_records", qio.write_records, files["records"], recs,
                    counts=_written(files["records"]))
            it.call("io.write_ensemble", qio.write_ensemble, files["latent"], latent,
                    counts=_written(files["latent"]))
            # qtraj reconstruct
            recs_in = it.call("io.read_records", qio.read_records, files["records"],
                              check=lambda r: _same_records(r, recs),
                              counts=_read(files["records"]))
            del recs
            ens = it.call("bayesian.reconstruct_ensemble", bayesian.reconstruct_ensemble,
                          recs_in, n_workers=self.n_workers,
                          check=lambda e: _same_ensemble(e, latent, "latent"),
                          counts={"traj_steps": steps})
            del recs_in, latent
            it.call("io.write_ensemble", qio.write_ensemble, files["reconstructed"], ens,
                    counts=_written(files["reconstructed"]))

        with it.stage("fit"):
            self._report(it, ens, files["reconstructed"], files["report_fit_report"],
                         self.report, cal.kappa, os.path.join(workdir, "rep"))

        if digests is not None:
            for key, path in files.items():
                digests[key] = sha256_file(path)
        return steps

    def _model(self, it: Iteration, x0: float, dt: float, slices):
        """The model the CLI picks ('auto') at a finite T1, Fokker-Planck,
        wrapped so that every evaluation is a ``fitting.model_eval`` span."""
        times = [k * dt for k in slices]
        gen = it.call("fitting.make_fp_model_gen", fitting.make_fp_model_gen, x0,
                      self.t1_us, times, self.n_bins, self.bin_width,
                      n_cells=self.fp_cells, dt=None)
        return it.tracer.wrap("fitting.model_eval", gen,
                              cell_substeps=self.fp_cells * fp_substeps(self.t1_us, times))

    def _report(self, it, written, path, report_path, scan: Scan, kappa, overlay_dir):
        """``cmd_report``: the fit, its report and the overlay tables."""
        ens = it.call("io.read_ensemble", qio.read_ensemble, path,
                      check=lambda e: _same_ensemble(e, written, "written"),
                      counts=_read(path))
        observed = [
            it.call("core.build_histogram", build_histogram, ens, k, self.n_bins,
                    self.bin_width)
            for k in scan.slices
        ]
        x0 = ens.x0 if ens.x0 is not None else self.x0
        gen = self._model(it, x0, ens.dt, scan.slices)
        grid = it.call("fitting.default_tau_scan", fitting.default_tau_scan,
                       scan.tau_min, scan.tau_max, scan.tau_step)
        results = it.call("fitting.fit_tau", fitting.fit_tau, observed, gen, grid,
                          check=lambda rs: _fit_checks(rs, scan.slices, kappa),
                          counts=lambda rs: {"useful_evals": useful_evals(rs)})
        report = [
            qio.FitReportSlice(t_us=k * ens.dt, tau_best=r.tau_best, chi2_min=r.chi2_min,
                               tau_err_dchi2_100=r.tau_error,
                               tau_err_dchi2_1=r.tau_error_dchi2_1, n_bins=r.n_bins)
            for k, r in zip(scan.slices, results)
        ]
        it.call("io.write_fit_report", qio.write_fit_report, report_path, report,
                counts=_written(report_path))
        fmt = qio.fmt_float
        for i, (k, obs, res) in enumerate(zip(scan.slices, observed, results)):
            best = it.call("fitting.model_eval", gen, res.tau_best, traced=False)[i]
            norelax_gen = it.call("fitting.make_analytic_model_gen",
                                  fitting.make_analytic_model_gen, x0, 1, self.n_bins,
                                  self.bin_width)
            norelax = it.call("fitting.model_eval",
                              it.tracer.wrap("fitting.model_eval", norelax_gen),
                              res.tau_best, traced=False)[0]
            lines = [
                f"# t_us={fmt(k * ens.dt)}",
                f"# tau_best={fmt(res.tau_best)}",
                f"# chi2_min={fmt(res.chi2_min)}",
                f"# mass0={fmt(obs.mass0)}",
                f"# mass1={fmt(obs.mass1)}",
                "# columns=bin_center,observed,error,model_best,model_norelax",
            ]
            for c, d, e, mb, mn in zip(obs.bin_centers, obs.density, obs.errors,
                                       best.density, norelax.density):
                lines.append(f"{fmt(c)},{fmt(d)},{fmt(e)},{fmt(mb)},{fmt(mn)}")
            out = os.path.join(overlay_dir, f"report_{k:05d}.txt")
            it.call("io.atomic_write_text", qio.atomic_write_text, out,
                    "\n".join(lines) + "\n", counts=_written(out))

    def warm_up(self, it: Iteration, workdir: str) -> None:
        def tiny_scan(scan):
            return Scan((2,), scan.tau_min, scan.tau_min + 2 * scan.tau_step, scan.tau_step)

        tiny = dataclasses.replace(self, n_traj=256, n_steps=2, report=tiny_scan(self.report))
        tiny.run(it, 0, workdir, None)


WORKLOADS = {
    w.name: w
    for w in (
        # README quick start (tau = 1.2 at slice 80) at 3/20 of the trajectories
        MonteCarlo("mc_relax", n_traj=150_000, n_steps=80, g_per_us=0.03, dt_us=0.5,
                   t1_us=45.0, x0=0.305, n_workers=2, slices=(20, 40, 60, 80)),
        # README end-to-end example (kappa = 0.025) with T1 = 20 us, reported
        # with the Fokker-Planck model; dt = 0.0625 us keeps t/T1 <= 0.125, so one model evaluation
        # is 24 Trotter substeps on 8192 cells, and a 21-point scan keeps a
        # pass under 2 s (a 0.1 step would bias tau_best towards tau_error)
        Pipeline("pipeline_t1", n_traj=20_000, n_steps=40, t1_us=20.0, dt_us=0.0625,
                 report=Scan((10, 20, 40), 0.15, 1.15, 0.05)),
    )
}

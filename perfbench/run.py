#!/usr/bin/env python3
"""qtraj benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload mc_relax --seed 1 --seconds 30 --trace 0

The qtraj package is imported from ``src/`` of the checkout the script
sits in; without it the script exits with code 2 and prints no result.

``--trace 0`` repeats the workload untraced for ``--seconds`` seconds and
reports the end-to-end times as medians over those passes.
Set-up time is the median of seven set-ups: this process's own and six
fresh processes that only set up.  ``--trace 1`` does the same untraced passes,
then one traced pass plus the rng probe (and, for ``mc_relax``, the
simulate call again on one worker), and reports the per-layer metrics.
Spans go to ``.perfbench_out/``; temporary files live in
``.perfbench_work/`` and are removed before exit.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; lines before it give
the provenance, the output digests and every failed check by name.
See perfbench/README.md for what each metric means.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_CHILDREN = 6
# At most two threads on this two-core class of machine: the mc_relax
# thread pool; native libraries stay single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "traj_steps_per_s": "1/s",
    "data_s": "s",
    "fit_s": "s",
}
LAYER_UNITS = {
    "rng.counter_uniform.ns_per_variate": "ns",
    "rng.counter_normal.ns_per_variate": "ns",
    "sde.simulate_ensemble.ns_per_traj_step": "ns",
    "sde.simulate_ensemble.scaling_eff": "ratio",
    "sde.simulate_ensemble.out_mb": "MiB",
    "core.build_histogram.s": "s",
    "core.build_histogram.calls": "count",
    "bayesian.generate_records.ns_per_traj_step": "ns",
    "bayesian.reconstruct_ensemble.ns_per_traj_step": "ns",
    "io.write_records.mb_per_s": "MB/s",
    "io.read_records.mb_per_s": "MB/s",
    "io.write_ensemble.mb_per_s": "MB/s",
    "io.read_ensemble.mb_per_s": "MB/s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "fitting.fit_tau.self_s": "s",
    "fitting.model_evals": "count",
    "fitting.useful_eval_frac": "ratio",
    "fitting.model_eval.s_p50": "s",
    "fitting.model_eval.s_p75": "s",
    "fokker_planck.ns_per_cell_substep": "ns",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a 64-bit unsigned integer")
    return args


# ---------------------------------------------------------------------------
# provenance


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return ""


def _git_commit(root):
    git = os.path.join(root, ".git")
    head = _read_text(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read_text(os.path.join(git, ref)).strip()
    if sha:
        return sha
    for line in _read_text(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance():
    import numpy
    import scipy

    meminfo = _read_text("/proc/meminfo")
    mem = next((ln.split(":", 1)[1].strip() for ln in meminfo.splitlines()
                if ln.startswith("MemTotal:")), "unknown")
    cpuinfo = _read_text("/proc/cpuinfo")
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total": mem,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(ROOT),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement


def _child_setups(workload, seed):
    """Set-up times of fresh processes that only import and warm up."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def layer_metrics(tracer, w, overhead_s):
    """Per-layer metrics from one traced pass; 0 for a layer the
    workload does not call."""
    def ns_per(spans, key):
        n = sum(s["counts"].get(key, 0) for s in spans)
        return 1e9 * sum(tracer.seconds(s) for s in spans) / n if n else 0.0

    def mb_per_s(name, key):
        secs = tracer.total(name)
        return tracer.count(name, key) / secs / 1e6 if secs else 0.0

    def io_bytes(key):
        return sum(s["counts"].get(key, 0) for s in tracer.spans if s["name"].startswith("io."))

    sims = tracer.named("sde.simulate_ensemble")
    multi = [s for s in sims if s["counts"]["workers"] == w.n_workers]
    single = [s for s in sims if s["counts"]["workers"] == 1]
    scaling = 0.0
    if multi and single and w.n_workers > 1:
        scaling = tracer.seconds(single[0]) / (w.n_workers * tracer.seconds(multi[0]))

    evals = tracer.named("fitting.model_eval")
    scan_s = [tracer.seconds(s) for s in tracer.named("fitting.model_eval", parent="fitting.fit_tau")]
    p50, p75 = statistics.quantiles(scan_s, n=4)[1:] if len(scan_s) > 1 else (0.0, 0.0)
    fp_evals = [s for s in evals if s["counts"].get("cell_substeps")]
    hists = tracer.named("core.build_histogram")

    return {
        "rng.counter_uniform.ns_per_variate": ns_per(tracer.named("rng.counter_uniform"), "variates"),
        "rng.counter_normal.ns_per_variate": ns_per(tracer.named("rng.counter_normal"), "variates"),
        "sde.simulate_ensemble.ns_per_traj_step": ns_per(multi, "traj_steps"),
        "sde.simulate_ensemble.scaling_eff": scaling,
        "sde.simulate_ensemble.out_mb": multi[0]["counts"]["out_bytes"] / 2**20 if multi else 0.0,
        "core.build_histogram.s": float(sum(tracer.self_seconds(s) for s in hists)),
        "core.build_histogram.calls": len(hists),
        "bayesian.generate_records.ns_per_traj_step":
            ns_per(tracer.named("bayesian.generate_records"), "traj_steps"),
        "bayesian.reconstruct_ensemble.ns_per_traj_step":
            ns_per(tracer.named("bayesian.reconstruct_ensemble"), "traj_steps"),
        "io.write_records.mb_per_s": mb_per_s("io.write_records", "bytes_written"),
        "io.read_records.mb_per_s": mb_per_s("io.read_records", "bytes_read"),
        "io.write_ensemble.mb_per_s": mb_per_s("io.write_ensemble", "bytes_written"),
        "io.read_ensemble.mb_per_s": mb_per_s("io.read_ensemble", "bytes_read"),
        "io.bytes_written": io_bytes("bytes_written"),
        "io.bytes_read": io_bytes("bytes_read"),
        "fitting.fit_tau.self_s":
            float(sum(tracer.self_seconds(s) for s in tracer.named("fitting.fit_tau"))),
        "fitting.model_evals": len(evals),
        "fitting.useful_eval_frac":
            tracer.count("fitting.fit_tau", "useful_evals") / len(evals) if evals else 0.0,
        "fitting.model_eval.s_p50": p50,
        "fitting.model_eval.s_p75": p75,
        "fokker_planck.ns_per_cell_substep": ns_per(fp_evals, "cell_substeps"),
        "trace.overhead_s": overhead_s,
    }


def warm_up(w, ledger, workdir):
    """One tiny unchecked pass through every layer the workload uses."""
    import workloads
    from spans import Tracer

    it = workloads.Iteration(Tracer(w.name, "warm-up", enabled=False), ledger, checks=False)
    try:
        w.warm_up(it, os.path.join(workdir, "warm-up"))
    except workloads.Abort:
        pass


def measure(w, seed, seconds, trace, t0):
    """Run one workload; returns (result object, notes printed before it)."""
    import workloads  # imports qtraj: needs src/ on sys.path (main() puts it there)
    from spans import Tracer

    run_id = f"{os.getpid()}-{time.time_ns()}"
    off = Tracer(w.name, run_id, enabled=False)
    ledger = workloads.Ledger()
    passes = []
    digests = {}
    layers = None
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR)
    try:
        warm_up(w, ledger, workdir)
        setup_s = [time.perf_counter() - t0]

        start = time.perf_counter()
        while not ledger.failed:
            it = workloads.Iteration(off, ledger)
            t = time.perf_counter()
            try:
                steps = w.run(it, seed, workdir, None if passes else digests)
            except workloads.Abort:
                break
            passes.append({**it.stage_s, "traj_steps": steps})
            last = time.perf_counter() - t
            if time.perf_counter() - start + last > seconds:
                break

        prov = provenance()
        if trace and passes and not ledger.failed:
            tracer = Tracer(w.name, run_id, enabled=True)
            it = workloads.Iteration(tracer, ledger)
            try:
                w.run(it, seed, workdir, None)
                traced_wall = it.stage_s["data"] + it.stage_s["fit"]
                workloads.rng_probe(it, seed, *w.probe)
                if isinstance(w, workloads.MonteCarlo):
                    w.repeat_on_one_worker(it, seed, digests["ensemble_values"])
            except workloads.Abort:
                pass
            else:
                untraced = statistics.median(p["data"] + p["fit"] for p in passes)
                layers = layer_metrics(tracer, w, traced_wall - untraced)
                os.makedirs(OUT_DIR, exist_ok=True)
                trace_path = os.path.join(OUT_DIR, f"{w.name}-seed{seed}-{run_id}.json")
                tracer.dump(trace_path, {"workload": w.name, "seed": seed, "run": run_id,
                                         "provenance": prov, "digests": digests,
                                         "per_layer": layers})
        if not trace and not ledger.failed:
            setup_s += _child_setups(w.name, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bool(passes) and ledger.failed == 0 and (layers is not None or not trace)
    if trace:
        values = layers or {name: 0.0 for name in LAYER_UNITS}
        metrics = {name: {"value": values[name], "unit": LAYER_UNITS[name]}
                   for name in LAYER_UNITS}
    else:
        med = {key: statistics.median(p[key] for p in passes) if passes else 0.0
               for key in ("data", "fit")}
        wall = statistics.median(p["data"] + p["fit"] for p in passes) if passes else 0.0
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "traj_steps_per_s": passes[0]["traj_steps"] / wall if wall else 0.0,
            "data_s": med["data"],
            "fit_s": med["fit"],
        }
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]}
                   for name in E2E_UNITS}

    attempted = max(ledger.attempted, 1)
    notes = [
        "provenance " + json.dumps(prov),
        "digests " + json.dumps({"workload": w.name, "seed": seed, **digests}),
        f"passes {len(passes)} wall_s "
        + json.dumps([p["data"] + p["fit"] for p in passes]),
        f"setup_s {json.dumps(setup_s)}",
        f"ops attempted={ledger.attempted} failed={ledger.failed} "
        f"ops_failed_frac={ledger.failed / attempted!r}",
    ] + [f"FAILED {op}: {msg}" for op, msg in ledger.failures]
    result = {"correct": correct, "attempted": attempted, "failed": ledger.failed,
              "metrics": metrics}
    return result, notes


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "qtraj", "__init__.py")):
        print(f"perfbench: no qtraj package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("QTRAJ_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        ledger = workloads.Ledger()
        os.makedirs(WORK_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{w.name}-setup-", dir=WORK_DIR)
        try:
            warm_up(w, ledger, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if ledger.failed:
            return 1
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    result, notes = measure(w, args.seed, args.seconds, bool(args.trace), T0)
    for line in notes:
        print("perfbench " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

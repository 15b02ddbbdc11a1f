"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest perfbench -q

Every workload must emit every metric that BENCHMARK.json names, with
its unit, and pass its checks; a corrupted read-back must fail the
gate; and without ``src/`` the benchmark must refuse to run.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import qtraj.io  # noqa: E402
import workloads  # noqa: E402

SMALL_PROBE = (1024, 4)
TINY = {
    "mc_relax": dict(n_traj=4096, probe=SMALL_PROBE),
    "pipeline_t1": dict(n_traj=20_000, fp_cells=2048, probe=SMALL_PROBE,
                        report=workloads.Scan((10, 20, 40), 0.15, 1.15, 0.05)),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, notes = run.measure(tiny(name), 7, 0.0, bool(trace), time.perf_counter())
    failures = [n for n in notes if n.startswith("FAILED")]
    assert result["correct"] and result["failed"] == 0, failures
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_read_back_fails_the_gate(monkeypatch):
    read = qtraj.io.read_ensemble

    def read_one_bit_flipped(path):
        ens = read(path)
        values = ens.values.copy()
        values.view(np.uint64)[0, -1] ^= 1
        return dataclasses.replace(ens, values=values)

    monkeypatch.setattr(qtraj.io, "read_ensemble", read_one_bit_flipped)
    result, notes = run.measure(tiny("pipeline_t1"), 7, 0.0, False, time.perf_counter())
    assert result["failed"] > 0 and not result["correct"]
    assert any(n.startswith("FAILED io.read_ensemble") for n in notes)


def test_refuses_to_run_without_the_sources():
    os.makedirs(run.WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc_relax", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

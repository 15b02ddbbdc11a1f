"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a qtraj layer made from the benchmark's own
code (nothing inside ``src/`` is instrumented).  Each span keeps its
name, start and end (``perf_counter_ns``), the id of the enclosing span,
the workload and the run id, plus the counts recorded at the same
boundary (trajectory-steps, bytes, cell-substeps, ...).  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run.

A disabled tracer records nothing and hands callables back unwrapped,
so untraced runs pay no tracing cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str, run_id: str, enabled: bool):
        self.workload = workload
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span; yields its record (None when disabled) so
        the caller can add counts that are known only afterwards."""
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "run": self.run_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, **counts):
        """``fn`` with every call recorded as a span named ``name``."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name, **counts):
                return fn(*args, **kwargs)

        return traced

    # -- queries -----------------------------------------------------------

    def named(self, name: str, parent: str | None = None) -> list[dict]:
        """Finished spans called ``name``, optionally only those whose
        direct parent span is called ``parent``."""
        out = [s for s in self.spans if s["name"] == name and s["end_ns"] is not None]
        if parent is not None:
            out = [
                s for s in out
                if s["parent"] is not None and self.spans[s["parent"]]["name"] == parent
            ]
        return out

    @staticmethod
    def seconds(span: dict) -> float:
        return (span["end_ns"] - span["start_ns"]) * 1e-9

    def self_seconds(self, span: dict) -> float:
        """Duration minus the time covered by direct children (children
        run one after another on the recording thread, so they do not
        overlap)."""
        kids = sum(self.seconds(s) for s in self.spans if s["parent"] == span["id"])
        return self.seconds(span) - kids

    def total(self, name: str) -> float:
        return sum(self.seconds(s) for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.named(name))

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "spans": self.spans}, f, indent=1)
            f.write("\n")

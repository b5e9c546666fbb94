"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code around each call into a
layer of the engine: name, start, end, parent span and a per-job trace id.
They stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Optional


class Tracer:
    """``enabled=False`` makes ``span`` a no-op, so untraced runs pay
    nothing but one attribute check per call site."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace_id = "setup"

    def new_trace(self, trace_id: str) -> None:
        self._trace_id = trace_id

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "trace": self._trace_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def span_cost_s(batches: int = 9, per_batch: int = 2000) -> tuple[float, float]:
    """Seconds one recorded span costs (open, record, close) as the median
    over ``batches`` timed batches of empty spans nested one deep, the way
    the benchmark nests them; also the batches' spread (interquartile range
    over median)."""
    costs = []
    for _ in range(batches):
        t = Tracer(True)
        t0 = time.perf_counter()
        with t.span("parent"):
            for _ in range(per_batch):
                with t.span("child"):
                    pass
        costs.append((time.perf_counter() - t0) / (per_batch + 1))
    q1, med, q3 = statistics.quantiles(costs, n=4)
    return med, (q3 - q1) / med


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict], trace: Optional[str] = None) -> dict[str, dict]:
    """Per span name: call count, total seconds, and self seconds (duration
    minus the part of the interval its child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, dict] = {}
    for s in spans:
        if trace is not None and s["trace"] != trace:
            continue
        dur = s["end"] - s["start"]
        own = dur - _covered(children.get(s["id"], []))
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += own
    return out

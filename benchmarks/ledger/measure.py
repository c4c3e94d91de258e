"""Statistics and span tracing shared by the ledger's phases."""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the rule ``repro.service.metrics`` uses)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


def quartiles(samples: Sequence[float]) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


@dataclass
class Metric:
    """One reported number plus the spread it was taken from."""

    value: float
    unit: str
    samples: int = 1
    q1: Optional[float] = None
    q3: Optional[float] = None

    def to_dict(self) -> Dict:
        return {"value": self.value, "unit": self.unit, "samples": self.samples,
                "q1": self.q1, "q3": self.q3}


def best_metric(samples: Sequence[float], unit: str, scale: float = 1.0) -> Metric:
    """The fastest sample; the quartiles say how far a typical one is from it.

    The recording hosts are small shared VMs whose speed drifts by a fifth
    from one ten-second window to the next (see the README), always downwards
    from a stable best case, so the median of a run's samples follows the host
    and the fastest sample follows the program.
    """
    q1, _, q3 = quartiles(samples)
    return Metric(min(samples) * scale, unit, len(samples), q1 * scale, q3 * scale)


def geomean_of_best(per_kernel: Dict[str, List[float]], unit: str,
                    scale: float = 1.0) -> Metric:
    """Geomean over kernels of each kernel's fastest sample; quartiles are the
    geomeans of the per-kernel quartiles, samples the total count."""
    if not all(per_kernel.values()):
        raise ValueError(f"no samples for {[k for k, v in per_kernel.items() if not v]}")
    q1s, _, q3s = zip(*(quartiles(samples) for samples in per_kernel.values()))
    return Metric(geomean(min(samples) for samples in per_kernel.values()) * scale, unit,
                  sum(len(s) for s in per_kernel.values()),
                  geomean(q1s) * scale, geomean(q3s) * scale)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
@dataclass
class Span:
    name: str
    layer: str
    op: int
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    thread: int = 0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """In-memory span recorder for the ``--trace 1`` run.

    Spans are opened around the calls the benchmark makes into each layer's
    public functions; a span's parent is the innermost open span on the same
    thread, and every span carries the id of the operation (one kernel run,
    one launch burst, one request) that caused it.  A disabled tracer hands
    out a shared no-op context so the untraced run pays one attribute test.
    """

    enabled: bool = False
    spans: List[Span] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _next_op: int = 0

    def new_op(self) -> int:
        with self._lock:
            self._next_op += 1
            return self._next_op

    @contextmanager
    def span(self, name: str, layer: str, op: int = 0):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span = Span(name, layer, op or (parent.op if parent else 0),
                    time.perf_counter(), parent=parent, thread=threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, layer: str, op: int, start: float, end: float,
            parent: Optional[Span] = None) -> Span:
        """Record a span measured elsewhere (a child process, the daemon)."""
        span = Span(name, layer, op, start, end, parent=parent,
                    thread=parent.thread if parent else 0)
        if parent is not None:
            parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)
        return span

    # -- reports ---------------------------------------------------------------
    def layer_table(self, root_name: str) -> Dict:
        """Self time per layer over every operation rooted at ``root_name``."""
        roots = [s for s in self.spans if s.parent is None and s.name == root_name]
        ops = {s.op for s in roots}
        total = sum(s.duration for s in roots)
        layers: Dict[str, float] = {}
        for span in self.spans:
            if span.op in ops:
                layers[span.layer] = layers.get(span.layer, 0.0) + span.self_time
        return {"operations": len(roots), "operation_time_s": total,
                "self_time_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
                "self_time_sum_s": sum(layers.values())}

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.thread,
                   "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                   "args": {"op": s.op, "parent": s.parent.name if s.parent else None}}
                  for s in sorted(self.spans, key=lambda s: s.start)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

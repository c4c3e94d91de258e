"""Per-request service metrics: latency percentiles, warm-hit rate, errors.

The server records one sample per request (latency, op, tenant, warm/cold,
engine, outcome) into a bounded ring; ``snapshot()`` folds the ring and the
counters into the JSON document the stats endpoint serves:

* ``latency`` — p50/p90/p99/max/mean seconds over the retained window,
* ``throughput_rps`` — completed launches per second since start,
* ``warm_hit_rate`` — fraction of launches whose kernel was already
  compiled server-side (the shared compile-cache amortization tenants buy
  by sharing one daemon),
* per-op and per-tenant request counts, error/degraded/retry totals, and
* the resilience log's action counts (injects, retries, fallbacks,
  degrades, recoveries) so chaos experiments are observable end to end.

All mutation happens under one lock; the snapshot is consistent (taken
under the same lock) and cheap enough to scrape while the server is under load.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

#: retained latency samples (per-request); ~2.4 MB at the default cap.
DEFAULT_WINDOW = 100_000


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample list (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class ServiceMetrics:
    """Thread-safe request metrics with a bounded latency window."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=max(1, window))
        self._started = time.monotonic()
        self._ops: Dict[str, int] = {}
        self._tenants: Dict[str, int] = {}
        self._launches = 0
        self._warm_hits = 0
        self._errors = 0
        self._degraded = 0
        self._retries = 0
        self._compiles = 0
        self._compile_warm_hits = 0

    # -- recording -----------------------------------------------------------
    def record_request(self, op: str, tenant: Optional[str] = None) -> None:
        with self._lock:
            self._ops[op] = self._ops.get(op, 0) + 1
            if tenant is not None:
                self._tenants[tenant] = self._tenants.get(tenant, 0) + 1

    def record_launch(self, latency_s: float, *, warm: bool,
                      error: bool = False, degraded: bool = False,
                      retries: int = 0) -> None:
        with self._lock:
            self._launches += 1
            self._latencies.append(latency_s)
            if warm:
                self._warm_hits += 1
            if error:
                self._errors += 1
            if degraded:
                self._degraded += 1
            self._retries += retries

    def record_compile(self, *, warm: bool) -> None:
        with self._lock:
            self._compiles += 1
            if warm:
                self._compile_warm_hits += 1

    # -- snapshot ------------------------------------------------------------
    def snapshot(self) -> Dict:
        with self._lock:
            samples = list(self._latencies)
            elapsed = max(time.monotonic() - self._started, 1e-9)
            launches = self._launches
            snapshot = {
                "uptime_s": elapsed,
                "launches": launches,
                "throughput_rps": launches / elapsed,
                "warm_hits": self._warm_hits,
                "warm_hit_rate": (self._warm_hits / launches) if launches else 0.0,
                "errors": self._errors,
                "degraded": self._degraded,
                "retries": self._retries,
                "compiles": self._compiles,
                "compile_warm_hits": self._compile_warm_hits,
                "requests_by_op": dict(self._ops),
                "requests_by_tenant": dict(self._tenants),
            }
        snapshot["latency"] = {
            "samples": len(samples),
            "p50_s": percentile(samples, 0.50),
            "p90_s": percentile(samples, 0.90),
            "p99_s": percentile(samples, 0.99),
            "max_s": max(samples) if samples else 0.0,
            "mean_s": (sum(samples) / len(samples)) if samples else 0.0,
        }
        return snapshot


__all__ = ["DEFAULT_WINDOW", "ServiceMetrics", "percentile"]

"""Admission control for the kernel service: bounded concurrency + queue.

A long-running multi-tenant server must not let a traffic spike grow an
unbounded backlog (latency then diverges for *every* tenant).  The
controller enforces two limits:

* at most ``max_inflight`` requests execute concurrently, and
* at most ``queue_depth`` further requests wait for a slot; a request
  arriving beyond that is **rejected immediately** (the client sees a
  ``"rejected"`` response and may retry with backoff), and a queued
  request that cannot get a slot within ``queue_timeout_s`` is rejected
  too (bounded worst-case latency instead of an unbounded tail).

This is classic load shedding: the server's p99 stays a function of its
own capacity, not of the offered load.  Counters feed the stats endpoint.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

DEFAULT_MAX_INFLIGHT = 8
DEFAULT_QUEUE_DEPTH = 256
DEFAULT_QUEUE_TIMEOUT_S = 30.0


class AdmissionController:
    """Bounded-concurrency, bounded-queue request admission.

    ``acquire()`` returns True when the caller may execute (it must pair
    with ``release()``), False when the request is shed.  Thread-safe; all
    counters are mutated under one lock and surfaced via ``snapshot()``.
    """

    def __init__(self, max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 queue_timeout_s: float = DEFAULT_QUEUE_TIMEOUT_S) -> None:
        self.max_inflight = max(1, max_inflight)
        self.queue_depth = max(0, queue_depth)
        self.queue_timeout_s = queue_timeout_s
        self._condition = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self._admitted = 0
        self._rejected_full = 0
        self._rejected_timeout = 0
        self._peak_inflight = 0
        self._peak_waiting = 0

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Admit the caller or shed it; True == admitted (pair with
        ``release``)."""
        deadline_timeout = self.queue_timeout_s if timeout is None else timeout
        with self._condition:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                self._admitted += 1
                self._peak_inflight = max(self._peak_inflight, self._inflight)
                return True
            if self._waiting >= self.queue_depth:
                self._rejected_full += 1
                return False
            self._waiting += 1
            self._peak_waiting = max(self._peak_waiting, self._waiting)
            try:
                granted = self._condition.wait_for(
                    lambda: self._inflight < self.max_inflight,
                    timeout=deadline_timeout)
                if not granted:
                    self._rejected_timeout += 1
                    return False
                self._inflight += 1
                self._admitted += 1
                self._peak_inflight = max(self._peak_inflight, self._inflight)
                return True
            finally:
                self._waiting -= 1

    def release(self) -> None:
        with self._condition:
            self._inflight = max(0, self._inflight - 1)
            self._condition.notify()

    @property
    def inflight(self) -> int:
        with self._condition:
            return self._inflight

    def snapshot(self) -> Dict:
        with self._condition:
            return {
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "queue_timeout_s": self.queue_timeout_s,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "admitted": self._admitted,
                "rejected_queue_full": self._rejected_full,
                "rejected_queue_timeout": self._rejected_timeout,
                "rejected": self._rejected_full + self._rejected_timeout,
                "peak_inflight": self._peak_inflight,
                "peak_waiting": self._peak_waiting,
            }


__all__ = [
    "AdmissionController", "DEFAULT_MAX_INFLIGHT", "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_QUEUE_TIMEOUT_S",
]

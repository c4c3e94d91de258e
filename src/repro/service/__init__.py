"""Kernel-as-a-service: the ``repro serve`` daemon and its client.

Turns the per-process stack (shared compile cache, native artifact tier,
tuning cache, resilience chain) into a long-running
multi-tenant server behind a local socket:

* :mod:`~repro.service.protocol` — framed JSON+binary wire protocol with
  bit-exact ndarray / CostReport round-trips;
* :mod:`~repro.service.admission` — bounded in-flight + bounded queue
  load shedding;
* :mod:`~repro.service.metrics` — per-request latency percentiles,
  warm-hit rate, error/degraded/retry counters;
* :mod:`~repro.service.server` — :class:`KernelServer`: a request runs in
  the handler thread that received it under a per-tenant lock, transient
  launch failures retried, resilience-wrapped execution;
* :mod:`~repro.service.client` — :class:`ServiceClient`: blocking client,
  one connection per concurrent caller.

Start a daemon with ``python -m repro serve --socket /tmp/repro.sock``;
scrape it with ``python -m repro stats --socket /tmp/repro.sock``.
"""

from .admission import AdmissionController
from .client import LaunchResult, ServiceClient, ServiceError, ServiceRejected
from .metrics import ServiceMetrics, percentile
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import KernelServer

__all__ = [
    "AdmissionController", "KernelServer", "LaunchResult", "PROTOCOL_VERSION",
    "ProtocolError", "ServiceClient", "ServiceError", "ServiceMetrics",
    "ServiceRejected", "percentile",
]

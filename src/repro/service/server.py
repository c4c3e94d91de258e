"""The kernel-as-a-service daemon (``repro serve``).

A long-running multi-tenant server that accepts compile+launch requests
from many concurrent clients over a local socket, turning the per-process
kernel infrastructure into shared server state:

* **one shared compile cache** — every tenant's ``compile``/``launch``
  goes through the process-global content-addressed kernel cache
  (:mod:`repro.runtime.cache`, shared mode), the native ``.so`` artifact
  tier and the autotuner's :class:`TuningCache`, so the first tenant to
  compile a kernel pays the pipeline and every other tenant's request is
  a warm hit;
* **per-tenant isolation** — a request runs in the handler thread that
  received it, under its tenant's lock: tenants execute concurrently with
  each other, requests of one tenant execute one at a time in lock order,
  and a tenant's failure (kernel error, injected fault) is answered on
  that request and never blocks or corrupts another tenant;
* **admission control** — a bounded in-flight limit plus a bounded wait
  queue (:mod:`repro.service.admission`); excess load is shed with an
  explicit ``"rejected"`` response instead of growing an unbounded
  backlog;
* **resilience** — server-side execution runs under the engine fallback
  chain (:mod:`repro.runtime.resilience`): a taxonomy failure (real or
  ``REPRO_FAULTS``-injected) degrades *that request* down the chain with
  bit-identical outputs, and a *transient* failure of the launch itself
  (:func:`~repro.runtime.errors.is_transient`, e.g. the ``shim.launch``
  fault site) is retried on freshly decoded arguments under the retry
  policy — a deterministic kernel fault is answered once, not retried;
* **metrics** — per-request latency/warm-hit/error/degraded counters
  (:mod:`repro.service.metrics`) surfaced on the ``stats`` endpoint
  together with admission, per-tenant launch and resilience-log counts.

Transport is a framed-JSON protocol (:mod:`repro.service.protocol`) over
an ``AF_UNIX`` socket by default (TCP on request).  Start from the CLI
(``python -m repro serve --socket /tmp/repro.sock``) or in-process::

    with KernelServer(socket_path=path) as server:
        client = ServiceClient(server.address)
        result = client.launch(SOURCE, "launch", args)
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..frontend import compile_cuda
from ..runtime import XEON_8375C, make_executor, resolve_engine
from ..runtime.cache import global_cache
from ..runtime.resilience import (call_with_retry, global_log, inject,
                                  record_event, retry_policy)
from ..transforms import PipelineOptions
from .admission import (DEFAULT_MAX_INFLIGHT, DEFAULT_QUEUE_DEPTH,
                        DEFAULT_QUEUE_TIMEOUT_S, AdmissionController)
from .metrics import ServiceMetrics
from . import protocol

#: accept() poll interval; bounds shutdown latency without busy-waiting.
_ACCEPT_POLL_S = 0.2

#: floor under ``REPRO_BACKOFF_S`` between attempts of one launch: a handler
#: retrying at once would spend its whole retry budget on one transient
#: condition before any other tenant's request got to run.
_MIN_RETRY_BACKOFF_S = 0.05


def _pipeline_options(spec) -> Optional[PipelineOptions]:
    """Materialize a wire options spec (None / flag string / field dict)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        return PipelineOptions.from_flags(spec)
    if isinstance(spec, dict):
        return PipelineOptions(**spec)
    raise protocol.ProtocolError(f"invalid pipeline options spec {spec!r}")


def options_spec(options: Optional[PipelineOptions]):
    """The wire encoding of a PipelineOptions (inverse of the above)."""
    if options is None:
        return None
    return {name: getattr(options, name)
            for name in PipelineOptions.__dataclass_fields__}


class _ServiceKernel:
    """A compiled kernel handle with per-launch result capture.

    Compiles once through the shared kernel cache (``cache="shared"``:
    the canonical module object, so the engines' per-module compiled
    program caches amortize across all tenants).  :meth:`run` builds one
    executor per launch so every request gets its own CostReport,
    bit-identical to an in-process single run.
    """

    def __init__(self, source: str, entry: str, *,
                 cuda_lower: bool = True,
                 options: Optional[PipelineOptions] = None,
                 noalias: bool = True,
                 engine: Optional[str] = None,
                 workers: Optional[int] = None,
                 machine=XEON_8375C) -> None:
        self.entry = entry
        self.engine = engine
        self.engine_resolved = resolve_engine(engine)
        self.workers = workers
        self.machine = machine
        self.module = compile_cuda(
            source, filename=f"<service:{entry}>", cuda_lower=cuda_lower,
            options=options, noalias=noalias, cache="shared")
        self.content_key = self.module._content_key

    def run(self, arguments: List) -> Tuple[str, Dict]:
        """Run one launch in place on ``arguments``; returns the engine that
        ran it (after any degradation) and the wire-encoded CostReport."""
        executor = make_executor(self.module, engine=self.engine,
                                 machine=self.machine, workers=self.workers)
        executor.run(self.entry, arguments)
        return (getattr(executor, "engine_name", self.engine_resolved),
                protocol.encode_report(executor.report))


class _Tenant:
    """Per-tenant server state: the lock its launches run under and the two
    counters the ``stats`` document reports for it — ``launches`` (attempts
    that took the lock) and ``dispatches`` (attempts handed to an executor;
    fewer when a fault killed the launch first)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.counts = {"launches": 0, "dispatches": 0}


class KernelServer:
    """The daemon: listener + per-connection handler threads.

    ``socket_path`` selects an ``AF_UNIX`` listener (the default transport;
    a fresh path is derived from the pid when omitted), ``host``/``port``
    a TCP listener on localhost.  ``engine=None`` uses the process default
    (``REPRO_ENGINE``); requests may override per launch.
    """

    def __init__(self, socket_path: Optional[str] = None, *,
                 host: Optional[str] = None, port: int = 0,
                 engine: Optional[str] = None,
                 workers: Optional[int] = None,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 queue_timeout_s: float = DEFAULT_QUEUE_TIMEOUT_S) -> None:
        if engine is not None:
            resolve_engine(engine)  # fail fast on a bad engine name
        self.engine = engine
        self.workers = workers
        self.admission = AdmissionController(max_inflight, queue_depth,
                                             queue_timeout_s)
        self.metrics = ServiceMetrics()
        self._lock = threading.Lock()
        self._tenants: Dict[str, _Tenant] = {}
        self._kernels: Dict[Tuple, _ServiceKernel] = {}
        self._connections: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._shutdown = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

        if host is not None:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self.address: object = self._listener.getsockname()
            self.socket_path = None
        else:
            if socket_path is None:
                socket_path = f"/tmp/repro-serve-{os.getpid()}.sock"
            try:
                os.unlink(socket_path)
            except OSError:
                pass
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(socket_path)
            self.socket_path = socket_path
            self.address = socket_path
        self._listener.listen(512)
        self._listener.settimeout(_ACCEPT_POLL_S)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "KernelServer":
        """Start the accept loop in a background thread; returns self."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start and block until a ``shutdown`` request (or ``stop()``)."""
        self.start()
        try:
            while not self._shutdown.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        self.stop()

    def stop(self) -> None:
        """Stop accepting, close every connection, join the handler threads."""
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            connections = list(self._connections)
            threads = list(self._threads)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5.0)
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def __enter__(self) -> "KernelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / per-connection loops ------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            connection.settimeout(None)
            with self._lock:
                self._connections.append(connection)
                thread = threading.Thread(
                    target=self._connection_loop, args=(connection,),
                    name=f"repro-serve-conn{len(self._connections)}",
                    daemon=True)
                self._threads.append(thread)
            thread.start()

    def _connection_loop(self, connection: socket.socket) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    message = protocol.recv_message(connection)
                except (protocol.ProtocolError, OSError):
                    return
                if message is None:
                    return
                header, frames = message
                try:
                    response, response_frames = self._handle(header, frames)
                except protocol.ProtocolError as exc:
                    response, response_frames = (
                        {"status": "error", "error": "ProtocolError",
                         "detail": str(exc)}, [])
                except Exception as exc:  # noqa: BLE001 - never kill the conn loop
                    response, response_frames = (
                        {"status": "error", "error": type(exc).__name__,
                         "detail": str(exc)}, [])
                try:
                    protocol.send_message(connection, response, response_frames)
                except OSError:
                    return
                if header.get("op") == "shutdown":
                    self._shutdown.set()
                    return
        finally:
            try:
                connection.close()
            except OSError:
                pass
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)
                # forgotten with its connection; stop() joins the live ones
                self._threads.remove(threading.current_thread())

    # -- request dispatch --------------------------------------------------------
    def _handle(self, header: Dict, frames: List[bytes]) -> Tuple[Dict, List[bytes]]:
        version = header.get("v", protocol.PROTOCOL_VERSION)
        if version != protocol.PROTOCOL_VERSION:
            return ({"status": "error", "error": "ProtocolError",
                     "detail": f"protocol version {version} != "
                               f"{protocol.PROTOCOL_VERSION}"}, [])
        op = header.get("op")
        tenant = header.get("tenant")
        self.metrics.record_request(str(op), tenant)
        if op == "ping":
            return ({"status": "ok", "pid": os.getpid()}, [])
        if op == "stats":
            return ({"status": "ok", "stats": self.stats()}, [])
        if op == "shutdown":
            return ({"status": "ok", "stopping": True}, [])
        if op == "compile":
            return self._handle_compile(header)
        if op == "launch":
            return self._handle_launch(header, frames)
        return ({"status": "error", "error": "ProtocolError",
                 "detail": f"unknown op {op!r}"}, [])

    # -- compile ---------------------------------------------------------------
    def _kernel_for(self, header: Dict) -> Tuple[_ServiceKernel, bool]:
        """The (memoized) kernel handle for a request + whether it was warm."""
        source = header.get("source")
        entry = header.get("entry")
        if not isinstance(source, str) or not isinstance(entry, str):
            raise protocol.ProtocolError("compile/launch needs string "
                                         "'source' and 'entry' fields")
        engine = header.get("engine", self.engine)
        workers = header.get("workers", self.workers)
        options = _pipeline_options(header.get("options"))
        cuda_lower = bool(header.get("cuda_lower", True))
        noalias = bool(header.get("noalias", True))
        memo_key = (source, entry, cuda_lower, header.get("options") is not None
                    and str(header.get("options")), noalias,
                    engine or "", workers or 0)
        with self._lock:
            kernel = self._kernels.get(memo_key)
        if kernel is not None:
            return kernel, True
        kernel = _ServiceKernel(source, entry, cuda_lower=cuda_lower,
                                options=options, noalias=noalias,
                                engine=engine, workers=workers)
        with self._lock:
            # two tenants racing the same cold compile converge on one
            # handle (and the content-addressed cache below them converged
            # on one module already).
            kernel = self._kernels.setdefault(memo_key, kernel)
        return kernel, False

    def _handle_compile(self, header: Dict) -> Tuple[Dict, List[bytes]]:
        kernel, warm = self._kernel_for(header)
        self.metrics.record_compile(warm=warm)
        return ({"status": "ok", "key": kernel.content_key, "warm": warm,
                 "engine": kernel.engine_resolved}, [])

    # -- launch ----------------------------------------------------------------
    def _tenant_for(self, name: Optional[str]) -> _Tenant:
        tenant_name = name if isinstance(name, str) and name else "default"
        with self._lock:
            tenant = self._tenants.get(tenant_name)
            if tenant is None:
                tenant = _Tenant(tenant_name)
                self._tenants[tenant_name] = tenant
            return tenant

    def _handle_launch(self, header: Dict,
                       frames: List[bytes]) -> Tuple[Dict, List[bytes]]:
        start = time.perf_counter()
        if not self.admission.acquire():
            return ({"status": "rejected", "reason": "admission",
                     "detail": "service at capacity; retry with backoff"}, [])
        try:
            kernel, warm = self._kernel_for(header)
            tenant = self._tenant_for(header.get("tenant"))
            specs = header.get("args", [])
            policy = retry_policy()
            policy = replace(policy, backoff_s=max(policy.backoff_s,
                                                   _MIN_RETRY_BACKOFF_S))
            attempts = 0

            def attempt():
                # fresh arguments: a failed run may have stored into the last
                nonlocal attempts
                attempts += 1
                arguments = protocol.decode_args(specs, frames)
                with tenant.lock:
                    tenant.counts["launches"] += 1
                    inject("shim.launch")
                    tenant.counts["dispatches"] += 1
                    return (arguments, *kernel.run(arguments))

            try:
                arguments, engine_used, report = call_with_retry(
                    "service.launch", attempt, policy=policy,
                    engine=kernel.engine_resolved)
            except protocol.ProtocolError:
                raise  # a malformed request, answered by the connection loop
            except Exception as error:  # noqa: BLE001 - answered, never raised
                latency = time.perf_counter() - start
                retries = attempts - 1
                self.metrics.record_launch(latency, warm=warm, error=True,
                                           retries=retries)
                record_event("service.launch", "degrade",
                             type(error).__name__,
                             f"tenant {tenant.name}: request failed after "
                             f"{retries} retries")
                return ({"status": "error", "error": type(error).__name__,
                         "detail": str(error), "retries": retries,
                         "latency_s": latency, "warm": warm}, [])
            latency = time.perf_counter() - start
            retries = attempts - 1
            if retries:
                record_event("service.launch", "recover",
                             detail=f"tenant {tenant.name}: request succeeded "
                                    f"after {retries} retries",
                             attempt=retries, engine=engine_used)
            degraded = engine_used != kernel.engine_resolved
            self.metrics.record_launch(latency, warm=warm, degraded=degraded,
                                       retries=retries)
            result_specs, result_frames = protocol.encode_args(arguments)
            return ({"status": "ok", "key": kernel.content_key,
                     "report": report, "engine": engine_used,
                     "requested_engine": kernel.engine_resolved,
                     "degraded": degraded, "warm": warm,
                     "retries": retries, "latency_s": latency,
                     "args": result_specs}, result_frames)
        finally:
            self.admission.release()

    # -- stats -----------------------------------------------------------------
    def stats(self) -> Dict:
        """The stats document served by the ``stats`` endpoint."""
        snapshot = self.metrics.snapshot()
        snapshot["admission"] = self.admission.snapshot()
        with self._lock:
            tenants = {name: dict(tenant.counts)
                       for name, tenant in self._tenants.items()}
            kernels = len(self._kernels)
        # ``tasks`` / ``coalesced``: no request is queued or batched, and
        # none ever was on a recorded run; the keys stay for their readers.
        streams = {"tenants": len(tenants), "per_tenant": tenants,
                   "tasks": 0, "coalesced": 0}
        for field in ("launches", "dispatches"):
            streams[field] = sum(counts[field] for counts in tenants.values())
        snapshot["streams"] = streams
        snapshot["kernels"] = kernels
        cache_stats = global_cache().stats
        snapshot["compile_cache"] = {
            "memory_hits": cache_stats.memory_hits,
            "disk_hits": cache_stats.disk_hits,
            "misses": cache_stats.misses,
            "stores": cache_stats.stores,
        }
        snapshot["resilience"] = global_log().counts()
        return snapshot


__all__ = ["KernelServer", "options_spec"]

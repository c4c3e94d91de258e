"""``service_mix``: ``python -m repro serve`` as a subprocess and
``min(nproc, 4)`` closed-loop clients, each with its own stable tenant name.

Per client a seeded schedule in blocks of ``BLOCK`` requests: ~90% warm hits
over six corpus kernels at scale 2, ~10% large-payload matmul (scale 8, three
64 KB frames) and exactly one never-seen source per block (compile + ``cc`` on
the request path).  Wire encode/decode, admission, per-tenant streams and
per-request executor construction dominate; cold compiles beside warm hits are
the "writes beside reads" case.  A client only stops at a block boundary, so
every block has the same composition; a block is also the unit the metrics are
taken over.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import corpus
from context import Context, fingerprint, report_of
from hygiene import ROOT, child_env, nproc
from measure import Metric, best_metric, quartiles

from repro.frontend import compile_cuda
from repro.runtime import make_executor
from repro.service import ServiceClient

BLOCK = 400
LARGE_SHARE = 0.10
ENGINE = "native"
START_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120


@dataclass
class Sample:
    kind: str            # "warm" | "large" | "cold" | "warmup"
    kernel: str
    latency_s: float     # client-observed
    handler_s: float     # LaunchResult.latency_s, the server's own clock; 0 = no answer
    ok: bool             # answered, and the answer matched its reference


@dataclass
class ClientLog:
    samples: List[Sample] = field(default_factory=list)
    #: verified responses per second of each block of BLOCK requests.
    block_rates: List[float] = field(default_factory=list)
    #: (variant serial, output fingerprint, report) of cold responses, verified
    #: after the timed window against an in-process compile of the same source.
    cold_results: List[Tuple] = field(default_factory=list)
    error: str = ""


class Service:
    HEADLINE = "req_warm_p50_ms"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.clients = min(nproc(), 4)
        self.process: subprocess.Popen = None
        self.address = ""
        self.stats: Dict = {}
        self._measured = 0  # measure() calls so far: keeps cold serials unique
        self.mix = ([(name, corpus.SERVICE_SCALE) for name in corpus.SERVICE_SET]
                    + [corpus.SERVICE_LARGE])
        self.reset()

    def reset(self) -> None:
        #: one list of per-client logs per measure() call.
        self.calls: List[List[ClientLog]] = []

    # -- daemon lifecycle ------------------------------------------------------
    def setup(self) -> None:
        if self.clients > nproc():
            raise RuntimeError("service_mix needs a CPU per client thread")
        workdir = self.ctx.workdir
        self.address = workdir.relative(workdir.path / "serve.sock")
        self._stderr = open(workdir.path / "serve.stderr", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.address,
             "--engine", ENGINE],
            env=child_env(workdir.path / "cache"), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=self._stderr)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                with ServiceClient(self.address, timeout=5) as probe:
                    probe.ping()
                break
            except OSError:
                if self.process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.05)
        for name, scale in self.mix + [(corpus.SERVICE_COLD_KERNEL, 1)]:
            self.ctx.reference(name, scale)  # before any client thread needs them
        # warm every (tenant, kernel) pair: tenant streams exist, the shared
        # kernel handles are compiled, the daemon has dlopened every .so.
        for index in range(self.clients):
            with self._client(index) as client:
                for name, scale in self.mix:
                    self._request(client, name, scale, ClientLog(), "warmup")

    def close(self) -> None:
        if self.process is None:
            return
        try:
            with ServiceClient(self.address, timeout=10) as client:
                client.shutdown()
            self.process.wait(timeout=20)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        self._stderr.close()
        self.process = None

    def _client(self, index: int) -> ServiceClient:
        return ServiceClient(self.address, tenant=f"ledger-{index}",
                             timeout=REQUEST_TIMEOUT_S)

    # -- one request -----------------------------------------------------------
    def _request(self, client, name: str, scale: int, log: ClientLog, kind: str,
                 source: str = None, serial: int = -1) -> None:
        kernel = corpus.KERNELS[name]
        arguments = self.ctx.args(name, scale)
        tracer = self.ctx.tracer
        with tracer.span("request.op", "ledger", tracer.new_op()) as root:
            began = time.perf_counter()
            try:
                with tracer.span("ServiceClient.launch", "service.client+wire") as span:
                    result = client.launch(source or kernel.cuda_source, kernel.entry,
                                           arguments, engine=ENGINE)
            except Exception as error:  # noqa: BLE001 - rejection/timeout/error = failed op
                log.samples.append(Sample(kind, name, time.perf_counter() - began, 0.0, False))
                self.ctx.checker.fail(f"service {kind} {name}: {error!r}")
                return
            elapsed = time.perf_counter() - began
        if root is not None:
            tracer.add("server.handler", "service.server", root.op, span.end - result.latency_s,
                       span.end, parent=span)
        outputs = fingerprint(result.args, kernel.outputs)
        if kind == "cold":
            ok = not result.warm and not result.degraded
            log.cold_results.append((serial, outputs, result.report_tuple))
        else:
            ok = (self.ctx.reference(name, scale).matches(outputs, result.report_tuple)
                  and not result.degraded and (result.warm or kind == "warmup"))
        self.ctx.checker.check(ok, f"service {kind}: {name}@{scale} wrong, cold or degraded")
        log.samples.append(Sample(kind, name, elapsed, result.latency_s, ok))

    # -- the closed loop ---------------------------------------------------------
    def _run_client(self, index: int, deadline: float, log: ClientLog,
                    barrier: threading.Barrier) -> None:
        rng = np.random.default_rng([self.ctx.seed, 7919, index])
        cold_name = corpus.SERVICE_COLD_KERNEL
        try:
            with self._client(index) as client:
                barrier.wait()
                block = 0
                while block < 1 or time.perf_counter() < deadline:
                    block_began = time.perf_counter()
                    cold_at = int(rng.integers(0, BLOCK))
                    large = rng.random(BLOCK) < LARGE_SHARE
                    picks = rng.integers(0, len(corpus.SERVICE_SET), size=BLOCK)
                    first = len(log.samples)
                    for step in range(BLOCK):
                        if step == cold_at:
                            serial = ((self._measured - 1) * self.clients + index) * 100 + block
                            self._request(client, cold_name, 1, log, "cold",
                                          corpus.cold_variant(self.ctx.seed, serial), serial)
                        elif large[step]:
                            self._request(client, *corpus.SERVICE_LARGE, log, "large")
                        else:
                            self._request(client, corpus.SERVICE_SET[picks[step]],
                                          corpus.SERVICE_SCALE, log, "warm")
                    samples = [s for s in log.samples[first:] if s.ok]
                    log.block_rates.append(len(samples) / (time.perf_counter() - block_began))
                    block += 1
        except Exception as error:  # noqa: BLE001 - surfaced as a failed run
            log.error = repr(error)

    def measure(self, budget_s: float) -> None:
        """Every client runs whole blocks until the budget is spent."""
        logs = [ClientLog() for _ in range(self.clients)]
        self.calls.append(logs)
        self._measured += 1
        # the timeout: a client that dies before the barrier must not hang the rest.
        barrier = threading.Barrier(self.clients, timeout=START_TIMEOUT_S)
        deadline = time.perf_counter() + budget_s
        threads = [threading.Thread(target=self._run_client,
                                    args=(i, deadline, logs[i], barrier))
                   for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for log in logs:
            if log.error:
                self.ctx.checker.fail(f"service client died: {log.error}")
        self._verify_cold(logs)
        with ServiceClient(self.address, timeout=30) as client:
            self.stats = client.stats()

    def _verify_cold(self, logs: List[ClientLog]) -> None:
        """Cold responses against an in-process compile + run of the same
        variant source (``vectorized``: no second ``cc``)."""
        kernel = corpus.KERNELS[corpus.SERVICE_COLD_KERNEL]
        for log in logs:
            for serial, outputs, report in log.cold_results:
                module = compile_cuda(corpus.cold_variant(self.ctx.seed, serial),
                                      cuda_lower=True, cache=False)
                executor = make_executor(module, engine="vectorized")
                arguments = self.ctx.args(kernel.name, 1)
                executor.run(kernel.entry, arguments)
                self.ctx.checker.check(
                    outputs == fingerprint(arguments, kernel.outputs)
                    and tuple(report) == report_of(executor),
                    f"service cold variant {serial} differs from its in-process run")

    # -- results ---------------------------------------------------------------
    def latencies(self, *kinds: str, handler: bool = False) -> List[float]:
        # a wrong answer is a failed operation, and still a timing sample.
        return [s.handler_s if handler else s.latency_s
                for logs in self.calls for log in logs for s in log.samples
                if s.kind in kinds and s.handler_s]

    def mix_weights(self) -> Dict[str, float]:
        """Share of the warm-hit requests each kernel of the mix gets."""
        weights = {name: (1.0 - LARGE_SHARE) / len(corpus.SERVICE_SET)
                   for name in corpus.SERVICE_SET}
        weights[corpus.SERVICE_LARGE[0]] = LARGE_SHARE
        return weights

    def _median_of_mix(self, latency: Dict[str, float]) -> float:
        """The weighted median over the request mix of a per-kernel latency."""
        weights = self.mix_weights()
        covered = 0.0
        for name in sorted(weights, key=latency.__getitem__):
            covered += weights[name]
            if covered >= 0.5:
                return latency[name]
        raise AssertionError("mix weights do not add up to 1")

    def metrics(self) -> Dict[str, Metric]:
        """Warm latency: the fastest request of each kernel of the mix, then the
        median over the mix — the latency of the median request with nothing
        else in its way (``measure.best_metric`` says why the fastest); the
        quartiles are those of all warm requests.  Cold
        latency: the fastest cold request.  Rate: each client's best block —
        concurrent closed loops, so the service's rate is the sum of the
        clients'."""
        fastest: Dict[str, float] = {}
        for logs in self.calls:
            for log in logs:
                for s in log.samples:
                    if s.handler_s and s.kind in ("warm", "large"):
                        fastest[s.kernel] = min(s.latency_s, fastest.get(s.kernel, s.latency_s))
        warm = self.latencies("warm", "large")
        q1, _, q3 = quartiles(warm)
        per_client: Dict[int, List[float]] = {}
        for logs in self.calls:
            for index, log in enumerate(logs):
                per_client.setdefault(index, []).extend(log.block_rates)
        block_rates = [rate * self.clients for rates in per_client.values() for rate in rates]
        rate_q1, _, rate_q3 = quartiles(block_rates)
        return {
            "req_warm_p50_ms": Metric(self._median_of_mix(fastest) * 1e3, "ms", len(warm),
                                      q1 * 1e3, q3 * 1e3),
            "req_cold_p50_ms": best_metric(self.latencies("cold"), "ms", 1e3),
            "throughput_rps": Metric(sum(max(rates) for rates in per_client.values()), "req/s",
                                     len(block_rates), rate_q1, rate_q3),
        }

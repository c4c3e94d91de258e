"""``launch_stream``: a ``MocCUDASession(engine="native")`` with its default
machine model and async streams issuing tiny (scale 1) launches of six corpus
kernels on two streams, one event dependency per burst.  It uses ``runtime``
the opposite way from ``rodinia_steady`` — thousands of µs-scale dispatches —
so executor construction, argument marshalling, the resilience snapshot and
the stream queue dominate.  Two patterns:

* ``coalesced``   — a burst of 8 launches of one kernel on one stream, which
  the stream may run as one batch; bursts alternate streams and cycle through
  the kernels, and the other stream waits on an event recorded after the burst;
* ``interleaved`` — one launch of each of the six kernels, alternating streams,
  so no two adjacent launches on a stream coalesce, with one event dependency
  half way.

A sample is the wall time from the first enqueue until
``cuda_device_synchronize`` returns, divided by the launches.  A coalesced
sample holds one kernel, so the metric is the mean over the kernels of each
kernel's fastest burst; every interleaved sample holds all six kernels and the
metric is the fastest one (see ``measure.best_metric``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import corpus
from context import Context, fingerprint
from measure import Metric, best_metric, quartiles

from repro.moccuda.shim import MocCUDASession

BURST = 8
PATTERNS = ("coalesced", "interleaved")
#: a coalesced sample times one kernel, an interleaved one all six.
BUDGET_SHARE = {"coalesced": 0.7, "interleaved": 0.3}
MIN_SAMPLES = 12


class Launch:
    HEADLINE = "launch_coalesced_p50_us"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.session: MocCUDASession = None
        self.kernels: Dict = {}
        self.streams: List[int] = []
        self.enqueue_s: List[float] = []
        self.sync_wait_s: List[float] = []
        self.bursts = 0
        self.reset()

    def reset(self) -> None:
        self.coalesced: Dict[str, List[float]] = {name: [] for name in corpus.LAUNCH_SET}
        self.interleaved: List[float] = []

    def setup(self) -> None:
        self.session = MocCUDASession(engine="native")
        self.streams = [self.session.cuda_stream_create().stream_id for _ in range(2)]
        for name in corpus.LAUNCH_SET:
            kernel = corpus.KERNELS[name]
            self.kernels[name] = self.session.compile_kernel(kernel.cuda_source, kernel.entry,
                                                             filename=name)
        for pattern in PATTERNS:  # one untimed pass each: warm-up and first check
            for _ in range(len(corpus.LAUNCH_SET)):
                self._sample(pattern, record=False)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    def _plan(self, pattern: str) -> Sequence[Tuple[str, int]]:
        """[(kernel name, stream id)] of the next sample."""
        names = corpus.LAUNCH_SET
        if pattern == "coalesced":
            self.bursts += 1
            return [(names[self.bursts % len(names)], self.streams[self.bursts % 2])] * BURST
        return [(name, self.streams[j % 2]) for j, name in enumerate(names)]

    def _sample(self, pattern: str, record: bool = True) -> None:
        session, tracer = self.session, self.ctx.tracer
        plan = self._plan(pattern)
        launches = [(name, stream, self.ctx.args(name, 1)) for name, stream in plan]
        event_after = (len(launches) if pattern == "coalesced" else len(launches) // 2) - 1
        with tracer.span("launch.op", "ledger", tracer.new_op()):
            began = time.perf_counter()
            for index, (name, stream, arguments) in enumerate(launches):
                with tracer.span("launch_kernel", "moccuda.shim") as span:
                    session.launch_kernel(self.kernels[name], arguments, stream_id=stream)
                if span is not None and record:
                    self.enqueue_s.append(span.duration)
                if index == event_after:
                    # the other stream's next launch waits for this point.
                    other = self.streams[0] if stream == self.streams[1] else self.streams[1]
                    with tracer.span("event", "moccuda.shim"):
                        event = session.cuda_event_create()
                        session.cuda_event_record(event, stream_id=stream)
                        session.cuda_stream_wait_event(other, event)
            with tracer.span("device_synchronize", "runtime.wait") as span:
                session.cuda_device_synchronize()
            elapsed = time.perf_counter() - began
        if span is not None and record:
            self.sync_wait_s.append(span.duration)
        if record and pattern == "coalesced":
            self.coalesced[plan[0][0]].append(elapsed / len(launches))
        elif record:
            self.interleaved.append(elapsed / len(launches))
        for name, _, arguments in launches:
            self.ctx.checker.check(
                fingerprint(arguments, corpus.KERNELS[name].outputs)
                == self.ctx.reference(name, 1).outputs,
                f"launch {pattern}: {name} differs from its in-process reference")

    def measure(self, budget_s: float) -> None:
        for pattern in PATTERNS:
            deadline = time.perf_counter() + budget_s * BUDGET_SHARE[pattern]
            samples = 0
            while samples < MIN_SAMPLES or time.perf_counter() < deadline:
                self._sample(pattern)
                samples += 1

    def samples(self) -> List[float]:
        """Every sample of both patterns, in no particular order."""
        return [s for burst in self.coalesced.values() for s in burst] + self.interleaved

    def stream_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for stream in self.session.streams.values():
            for key, value in stream.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def metrics(self) -> Dict[str, Metric]:
        bursts = [s for burst in self.coalesced.values() for s in burst]
        q1, _, q3 = quartiles(bursts)
        fastest = [min(burst) for burst in self.coalesced.values()]
        return {
            "launch_coalesced_p50_us": Metric(sum(fastest) / len(fastest) * 1e6, "us",
                                              len(bursts), q1 * 1e6, q3 * 1e6),
            "launch_interleaved_p50_us": best_metric(self.interleaved, "us", 1e6),
        }

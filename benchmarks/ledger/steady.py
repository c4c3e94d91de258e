"""``rodinia_steady``: the 12 corpus kernels at their steady scales, warm
caches, one caller.  ``runtime.native`` / ``codegen_c`` output quality and
OpenMP scaling do the work; frontend, transforms, caches, shim and service do
none.

A kernel's time is the **fastest** of its warm runs, not their median.  On a
2-CPU host the default OpenMP runtime leaves a two-thread team in one of two
states — spread over both CPUs, or stacked on one with each thread spinning
through the other's time slice (the ~7.5 ms plateau in the README) — and which
one a run gets depends on what ran before it, so a median flips between the
two from run to run.  The fastest run is the cost of the generated code; how
often the plateau is hit is reported per layer (``native.plateau_share``)
next to the per-kernel medians.
"""

from __future__ import annotations

import time
from typing import Dict, List

import corpus
from context import Context, report_of, reset_report
from measure import Metric, best_metric, geomean, geomean_of_best

from repro.frontend import compile_cuda
from repro.runtime import make_executor

ENGINES = ("native", "vectorized")
#: back-to-back runs per kernel and round; a vectorized run costs 10-50 ms.
BURST = {"native": 4, "vectorized": 1}
MIN_ROUNDS = 1
SIM_THREADS = 32
SIM_SCALE = 2


class Steady:
    HEADLINE = "steady_geomean_ms"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.executors: Dict = {}
        self.sim_speedup = 0.0
        self.rounds = 0
        self.reset()

    def reset(self) -> None:
        self.samples: Dict[str, Dict[str, List[float]]] = {
            engine: {name: [] for name in corpus.KERNELS} for engine in ENGINES}

    def setup(self) -> None:
        """Build and warm both executors per kernel; the warm-up run is also
        the native-vs-vectorized agreement check at the steady scale."""
        for name, kernel in corpus.KERNELS.items():
            module = self.ctx.module(name)
            for engine in ENGINES:
                executor = make_executor(module, engine=engine)
                arguments = self.ctx.args(name, kernel.steady_scale)
                executor.run(kernel.entry, arguments)
                self.ctx.verify(name, kernel.steady_scale, arguments, report_of(executor),
                                f"steady warm-up {engine}")
                self.executors[name, engine] = executor
        self.sim_speedup = self._simulated_speedup()

    def close(self) -> None:
        pass

    def _simulated_speedup(self) -> float:
        """Fig. 13 (right) as a count: OpenMP-reference cycles ÷ transpiled-CUDA
        cycles at 32 simulated threads, geomean over the corpus.  CostReports
        are engine-independent, so the cheapest engine computes them."""
        ratios = []
        for name, kernel in corpus.KERNELS.items():
            cycles = []
            for source, label in ((kernel.omp_source, "omp"), (kernel.cuda_source, "cuda")):
                module = compile_cuda(source, filename=f"{name}.{label}", cuda_lower=True,
                                      cache="shared")
                executor = make_executor(module, engine="vectorized", threads=SIM_THREADS)
                executor.run(kernel.entry, self.ctx.args(name, SIM_SCALE))
                cycles.append(executor.report.cycles)
            ratios.append(cycles[0] / cycles[1])
        return geomean(ratios)

    def measure(self, budget_s: float) -> None:
        """Rounds over the corpus (order alternates) until the budget is spent."""
        tracer = self.ctx.tracer
        deadline = time.perf_counter() + budget_s
        names = list(corpus.KERNELS)
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for name in (names if self.rounds % 2 == 0 else reversed(names)):
                kernel = corpus.KERNELS[name]
                for engine in ENGINES:
                    executor = self.executors[name, engine]
                    for _ in range(BURST[engine]):
                        arguments = self.ctx.args(name, kernel.steady_scale)
                        reset_report(executor)
                        with tracer.span("steady.op", "ledger", tracer.new_op()):
                            with tracer.span("executor.run", f"runtime.{engine}"):
                                began = time.perf_counter()
                                executor.run(kernel.entry, arguments)
                                elapsed = time.perf_counter() - began
                        self.samples[engine][name].append(elapsed)
                        self.ctx.verify(name, kernel.steady_scale, arguments,
                                        report_of(executor), f"steady {engine}")
            rounds += 1
            self.rounds += 1

    def fastest(self, engine: str) -> Dict[str, float]:
        return {name: min(samples) for name, samples in self.samples[engine].items()}

    def metrics(self) -> Dict[str, Metric]:
        native = self.samples["native"]
        worst = max(native, key=lambda name: min(native[name]))
        return {
            "steady_geomean_ms": geomean_of_best(native, "ms", 1e3),
            "steady_fallback_geomean_ms": geomean_of_best(self.samples["vectorized"],
                                                          "ms", 1e3),
            "steady_worst_ms": best_metric(native[worst], "ms", 1e3),
            "sim_speedup_vs_omp": Metric(self.sim_speedup, "ratio"),
        }

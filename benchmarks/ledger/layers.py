"""Per-layer metrics of the traced run (``--trace 1``).

Every number is taken from outside the program: by timing calls into public
functions, by reading the statistics the program already keeps
(``PassManager.statistics``, ``native_stats``, ``Stream.stats``, the cache
statistics, ``ServiceClient.stats()``), or from the samples the four
measurements collected.  Times of the probes below are the fastest of a few
repeats (see ``steady.py`` for why); ``*.kernel_ms.*`` are medians, so the
difference to the end-to-end metrics shows how far a typical run is from the
fastest.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import corpus
import hygiene
from context import Context, fingerprint
from measure import Metric, geomean, percentile

from repro.frontend import compile_cuda, generate_module, parse, tokenize
from repro.ir import verify
from repro.runtime import NativeEngine, global_cache, global_resilience_log, make_executor
from repro.service import protocol
from repro.transforms import PipelineOptions
from repro.transforms.cpuify import build_pipeline

#: ``Pass.NAME`` -> the class-name label the metric carries.
PASS_LABELS = {
    "lower-gpu": "LowerGPU", "canonicalize": "Canonicalize", "cse": "CSE",
    "parallel-licm": "ParallelLICM", "inline": "Inliner", "licm": "LICM",
    "mem2reg": "Mem2Reg", "loop-unroll": "LoopUnroll",
    "barrier-elimination": "BarrierElimination", "barrier-lowering": "BarrierLowering",
    "dce": "DCE", "collapse-parallel": "Collapse", "inner-serialize": "InnerSerialization",
    "lower-to-openmp": "LowerToOpenMP", "openmp-opt": "OpenMPOpt",
}
#: scale of the compiled / multicore / auto probes: the closure engines take
#: ~100x the native time, so they are sized to cost a second or two in all.
PROBE_SCALE = 2
REPEATS = 3
DISPATCH_REPEATS = 20
PLATEAU_FACTOR = 3.0
#: fallback-chain actions of ``ResilienceLog.counts()``.
FALLBACK_ACTIONS = ("degrade", "fallback")


def _timed(tracer, name: str, layer: str, call: Callable):
    with tracer.span(name, layer):
        began = time.perf_counter()
        result = call()
        return time.perf_counter() - began, result


def _fastest(call: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - began)
    return best


def _count_ops(module) -> int:
    return sum(1 for _ in module.walk())


# ---------------------------------------------------------------------------
# frontend + transforms
# ---------------------------------------------------------------------------
def frontend_and_transforms(ctx: Context) -> Dict[str, Metric]:
    """The steps of ``compile_cuda`` over the corpus, one public call each."""
    tracer = ctx.tracer
    stages: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    pass_seconds: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    pass_changed: Dict[str, int] = defaultdict(int)
    tokens = ir_ops = ir_ops_out = 0
    options = PipelineOptions.all_optimizations()
    for repeat in range(REPEATS):
        for name, kernel in corpus.KERNELS.items():
            with tracer.span("compile.op", "ledger", tracer.new_op()):
                lex_s, token_list = _timed(tracer, "tokenize", "frontend",
                                           lambda: tokenize(kernel.cuda_source, name))
                parse_s, program = _timed(tracer, "parse", "frontend",
                                          lambda: parse(kernel.cuda_source, name))
                irgen_s, module = _timed(tracer, "generate_module", "frontend",
                                         lambda: generate_module(program))
                verify_s, _ = _timed(tracer, "verify", "frontend", lambda: verify(module))
                ops_in = _count_ops(module)
                pipeline = build_pipeline(options)

                def lower():
                    pipeline.run(module)
                    verify(module)
                cpuify_s, _ = _timed(tracer, "cpuify", "transforms", lower)
            for stage, seconds in (("lex", lex_s), ("parse", parse_s), ("irgen", irgen_s),
                                   ("verify", verify_s), ("cpuify", cpuify_s)):
                stages[stage][name].append(seconds)
            per_pass: Dict[str, float] = defaultdict(float)
            for stat in pipeline.statistics:
                per_pass[stat.name] += stat.seconds
                if repeat == 0:
                    pass_changed[stat.name] += int(stat.changed)
            for pass_name, seconds in per_pass.items():
                pass_seconds[pass_name][name].append(seconds)
            if repeat == 0:
                tokens += len(token_list)
                ir_ops += ops_in
                ir_ops_out += _count_ops(module)

    def per_kernel_ms(samples: Dict[str, List[float]]) -> float:
        """Mean over kernels of each kernel's fastest repeat, in ms."""
        return statistics.fmean(min(values) for values in samples.values()) * 1e3

    lex_total_s = sum(min(values) for values in stages["lex"].values())
    metrics = {
        "frontend.lex_ms": Metric(per_kernel_ms(stages["lex"]), "ms"),
        "frontend.parse_ms": Metric(per_kernel_ms(stages["parse"]), "ms"),
        "frontend.irgen_ms": Metric(per_kernel_ms(stages["irgen"]), "ms"),
        "frontend.verify_ms": Metric(per_kernel_ms(stages["verify"]), "ms"),
        "frontend.tokens_per_s": Metric(tokens / lex_total_s, "1/s"),
        "frontend.ir_ops": Metric(ir_ops, "count"),
        "transforms.cpuify_ms": Metric(per_kernel_ms(stages["cpuify"]), "ms"),
        "transforms.ir_ops_out": Metric(ir_ops_out, "count"),
    }
    for pass_name, label in PASS_LABELS.items():
        metrics[f"transforms.pass_ms.{label}"] = Metric(
            per_kernel_ms(pass_seconds[pass_name]) if pass_seconds[pass_name] else 0.0, "ms")
        metrics[f"transforms.pass_changed.{label}"] = Metric(pass_changed[pass_name], "count")
    return metrics


# ---------------------------------------------------------------------------
# runtime.cache
# ---------------------------------------------------------------------------
def cache_tiers(ctx: Context, steady, cache_dir) -> Dict[str, Metric]:
    """``compile_cuda`` against each cache tier.  Runs last: it empties the
    in-memory tier to reach the disk tier."""
    tracer = ctx.tracer
    workload_stats = global_cache().stats
    hits = workload_stats.memory_hits + workload_stats.disk_hits
    misses = workload_stats.misses
    cold, private, shared, disk = [], [], [], []
    # two corpus kernels share backprop.cu, and the cache is keyed by source.
    sources = {kernel.cuda_source: kernel for kernel in corpus.KERNELS.values()}
    for kernel in sources.values():
        name = kernel.name

        def compile_with(cache):
            return compile_cuda(kernel.cuda_source, filename=name, cuda_lower=True,
                                cache=cache)
        with tracer.span("cache.op", "ledger", tracer.new_op()):
            cold.append(_timed(tracer, "compile_cuda(cache=False)", "frontend+transforms",
                               lambda: compile_with(False))[0])
            with tracer.span("compile_cuda(cache=True)", "runtime.cache"):
                private.append(_fastest(lambda: compile_with(True), REPEATS))
            with tracer.span("compile_cuda(cache='shared')", "runtime.cache"):
                shared.append(_fastest(lambda: compile_with("shared"), REPEATS))
    global_cache().clear(disk=False)
    for kernel in sources.values():
        before = global_cache().stats.disk_hits
        with tracer.span("cache.op", "ledger", tracer.new_op()):
            seconds, _ = _timed(
                tracer, "compile_cuda(disk tier)", "runtime.cache",
                lambda: compile_cuda(kernel.cuda_source, filename=kernel.name,
                                     cuda_lower=True))
        ctx.checker.check(global_cache().stats.disk_hits == before + 1,
                          f"cache probe: {kernel.name} did not come from the disk tier")
        disk.append(seconds)
    artifact_hits = sum(stats["artifact_hits"] for stats in _program_stats(steady))
    return {
        "cache.compile_cold_ms": Metric(statistics.fmean(cold) * 1e3, "ms"),
        "cache.compile_warm_private_us": Metric(statistics.fmean(private) * 1e6, "us"),
        "cache.compile_warm_shared_us": Metric(statistics.fmean(shared) * 1e6, "us"),
        "cache.disk_hit_ms": Metric(statistics.fmean(disk) * 1e3, "ms"),
        "cache.kernel_hits": Metric(hits, "count"),
        "cache.kernel_misses": Metric(misses, "count"),
        "cache.artifact_hits": Metric(artifact_hits, "count"),
        "cache.disk_bytes": Metric(ctx.workdir.disk_bytes(cache_dir), "bytes"),
    }


# ---------------------------------------------------------------------------
# runtime.codegen_c + runtime.native, and the wrapper around them
# ---------------------------------------------------------------------------
def _dispatch_times(ctx: Context, build_executor: Callable) -> Dict[str, float]:
    """Fastest warm scale-1 run per kernel: at that size the kernel body is a
    few microseconds, so this is marshal + call + cost fold."""
    times = {}
    for name, kernel in corpus.KERNELS.items():
        executor = build_executor(ctx.module(name))
        executor.run(kernel.entry, ctx.args(name, 1))
        samples = []
        for _ in range(DISPATCH_REPEATS):
            arguments = ctx.args(name, 1)
            began = time.perf_counter()
            executor.run(kernel.entry, arguments)
            samples.append(time.perf_counter() - began)
        ctx.checker.check(
            ctx.reference(name, 1).outputs == fingerprint(arguments, kernel.outputs),
            f"dispatch probe: {name} differs from its reference")
        times[name] = min(samples)
    return times


def _program_stats(steady) -> List[Dict[str, int]]:
    """``native_stats`` of the corpus' native programs, one per source: the
    counters belong to the compiled program, which the two backprop kernels
    (one module, two entry points) share."""
    executors = {kernel.cuda_source: steady.executors[kernel.name, "native"]
                 for kernel in corpus.KERNELS.values()}
    return [executor.native_stats for executor in executors.values()]


def native_and_resilience(ctx: Context, steady, cold, service, build,
                          cache_dir) -> Dict[str, Metric]:
    tracer = ctx.tracer
    stats = _program_stats(steady)
    native = steady.samples["native"]
    fastest = steady.fastest("native")
    plateau = sum(sum(1 for s in samples if s > PLATEAU_FACTOR * fastest[name])
                  for name, samples in native.items())

    def first_run(tier: str, name: str) -> float:
        return statistics.median(d["kernels"][name]["first_run_s"] for d in cold.documents[tier])

    def second_run(tier: str, name: str) -> float:
        return statistics.median(d["kernels"][name]["second_run_s"]
                                 for d in cold.documents[tier])

    with tracer.span("dispatch.op", "ledger", tracer.new_op()):
        with tracer.span("NativeEngine.run", "runtime.native"):
            bare = _dispatch_times(ctx, NativeEngine)
        with tracer.span("make_executor.run", "runtime.resilience+native"):
            wrapped = _dispatch_times(ctx, lambda module: make_executor(module, engine="native"))

    # the same warm steady-scale runs with a one-thread OpenMP team.
    with tracer.span("omp1.op", "ledger", tracer.new_op()):
        document = cold.zygote.run("native", list(corpus.KERNELS), ctx.seed, cache_dir,
                                   steady_rounds=2 * REPEATS, OMP_NUM_THREADS="1")
    omp1 = {}
    for name, result in document["kernels"].items():
        kernel = corpus.KERNELS[name]
        ctx.checker.check(
            tuple(result["outputs"]) == ctx.reference(name, kernel.steady_scale).outputs,
            f"one-thread probe: {name} differs from its reference")
        omp1[name] = result["fastest_s"]

    log_counts = dict(global_resilience_log().counts())
    for action, count in (service.stats.get("resilience") or {}).items():
        log_counts[action] = log_counts.get(action, 0) + count

    metrics = {
        "native.probe_ms": Metric(
            statistics.median(d["probe_s"] for d in cold.documents["empty"]) * 1e3, "ms"),
        "native.plan_emit_ms": Metric(
            statistics.fmean(first_run("diskwarm", n) - second_run("diskwarm", n)
                             for n in corpus.COLD_SET) * 1e3, "ms"),
        "native.cc_s": Metric(
            statistics.fmean(first_run("empty", n) - first_run("diskwarm", n)
                             for n in corpus.COLD_SET), "s"),
        "native.so_bytes": Metric(
            sum(f.stat().st_size for f in (build["dir"] / "native").glob("*.so")), "bytes"),
        "native.native_regions": Metric(sum(s["native_regions"] for s in stats), "count"),
        "native.fallback_regions": Metric(sum(s["fallback_regions"] for s in stats), "count"),
        "native.bailouts": Metric(sum(s["bailouts"] for s in stats), "count"),
        "native.dispatch_us": Metric(geomean(bare.values()) * 1e6, "us"),
        "native.plateau_share": Metric(
            plateau / sum(len(samples) for samples in native.values()), "ratio"),
        "native.omp1_geomean_ms": Metric(geomean(omp1.values()) * 1e3, "ms"),
        "native.parallel_ratio": Metric(
            geomean(omp1.values()) / geomean(fastest.values()), "ratio"),
        "resilience.wrap_overhead_us": Metric(
            statistics.fmean(wrapped[name] - bare[name] for name in bare) * 1e6, "us"),
        "resilience.events": Metric(sum(log_counts.values()), "count"),
        "resilience.fallbacks": Metric(
            sum(log_counts.get(action, 0) for action in FALLBACK_ACTIONS), "count"),
    }
    for engine in ("native", "vectorized"):
        for name, samples in steady.samples[engine].items():
            metrics[f"{engine}.kernel_ms.{name}"] = Metric(
                statistics.median(samples) * 1e3, "ms", len(samples))
    return metrics


# ---------------------------------------------------------------------------
# the other engines
# ---------------------------------------------------------------------------
def _probe_run(ctx: Context, executor, name: str, what: str) -> Tuple[float, float]:
    """(first run, fastest warm run) of ``name`` at the probe scale, verified."""
    kernel = corpus.KERNELS[name]
    arguments = ctx.args(name, PROBE_SCALE)
    began = time.perf_counter()
    executor.run(kernel.entry, arguments)
    first = time.perf_counter() - began
    ctx.checker.check(
        fingerprint(arguments, kernel.outputs) == ctx.reference(name, PROBE_SCALE).outputs,
        f"{what} probe: {name} differs from its reference")
    warm = _fastest(lambda: executor.run(kernel.entry, ctx.args(name, PROBE_SCALE)), REPEATS)
    return first, warm


def other_engines(ctx: Context) -> Dict[str, Metric]:
    tracer = ctx.tracer
    metrics = {}
    for engine, options in (("compiled", {}), ("multicore", {"workers": hygiene.nproc()})):
        with tracer.span(f"{engine}.op", "ledger", tracer.new_op()):
            with tracer.span("executor.run", f"runtime.{engine}"):
                warm = [_probe_run(ctx, make_executor(ctx.module(name), engine=engine,
                                                      **options), name, engine)[1]
                        for name in corpus.KERNELS]
        metrics[f"{engine}.geomean_ms"] = Metric(geomean(warm) * 1e3, "ms")

    tune_s, overhead_s, native_wins = [], [], 0
    with tracer.span("auto.op", "ledger", tracer.new_op()):
        for name in corpus.AUTO_SET:
            module = ctx.module(name)
            with tracer.span("auto.run", "runtime.autotune"):
                auto = make_executor(module, engine="auto")
                first, auto_warm = _probe_run(ctx, auto, name, "auto")
            winner = auto.auto_stats["winner"]
            engine = winner.split("[")[0]
            native_wins += engine == "native"
            with tracer.span("winner.run", f"runtime.{engine}"):
                direct = make_executor(module, engine=engine, workers=hygiene.nproc())
                _, direct_warm = _probe_run(ctx, direct, name, f"auto winner {winner}")
            tune_s.append(first)
            overhead_s.append(auto_warm - direct_warm)
    metrics["auto.cold_tune_s"] = Metric(statistics.fmean(tune_s), "s")
    metrics["auto.warm_overhead_us"] = Metric(statistics.fmean(overhead_s) * 1e6, "us")
    metrics["auto.native_win_share"] = Metric(native_wins / len(corpus.AUTO_SET), "ratio")
    return metrics


# ---------------------------------------------------------------------------
# moccuda.shim
# ---------------------------------------------------------------------------
def shim(ctx: Context, launch) -> Dict[str, Metric]:
    stream = launch.stream_stats()
    dispatches = {"session": 0, "default": 0}
    for name in corpus.LAUNCH_SET:
        kernel = corpus.KERNELS[name]
        for label, options in (("session", {"machine": launch.session.machine}),
                               ("default", {})):
            executor = make_executor(ctx.module(name), engine="native", **options)
            # the counters belong to the compiled program, which executors share.
            before = executor.native_stats["native_dispatches"]
            executor.run(kernel.entry, ctx.args(name, 1))
            dispatches[label] += executor.native_stats["native_dispatches"] - before
    # drift over the run, on the samples that all hold the same six kernels.
    interleaved = launch.interleaved
    quarter = max(1, len(interleaved) // 4)
    groups = launch.samples()
    return {
        "shim.enqueue_us": Metric(statistics.median(launch.enqueue_s) * 1e6, "us",
                                  len(launch.enqueue_s)),
        "shim.sync_wait_ms": Metric(statistics.median(launch.sync_wait_s) * 1e3, "ms",
                                    len(launch.sync_wait_s)),
        "shim.coalesced_share": Metric(stream["coalesced"] / max(1, stream["launches"]), "ratio"),
        "shim.dispatches": Metric(stream["dispatches"], "count"),
        "shim.native_region_share": Metric(
            dispatches["session"] / max(1, dispatches["default"]), "ratio"),
        "shim.launch_p99_us": Metric(percentile(groups, 0.99) * 1e6, "us", len(groups)),
        "shim.drift_ratio": Metric(statistics.median(interleaved[-quarter:])
                                   / statistics.median(interleaved[:quarter]), "ratio"),
    }


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
def service_layers(ctx: Context, service) -> Tuple[Dict[str, Metric], Dict]:
    weights = {(name, scale): service.mix_weights()[name] for name, scale in service.mix}
    encode_s = decode_s = wire_bytes = 0.0
    kernel_s = []  # in-process warm runs of the small requests' kernels
    for (name, scale), weight in weights.items():
        kernel = corpus.KERNELS[name]
        arguments = ctx.args(name, scale)
        specs, frames = protocol.encode_args(arguments)
        encode_s += weight * _fastest(lambda: protocol.encode_args(arguments), DISPATCH_REPEATS)
        decode_s += weight * _fastest(lambda: protocol.decode_args(specs, frames),
                                      DISPATCH_REPEATS)
        header = {"op": "launch", "source": kernel.cuda_source, "entry": kernel.entry,
                  "options": None, "cuda_lower": True, "noalias": True, "args": specs,
                  "engine": "native", "v": protocol.PROTOCOL_VERSION, "tenant": "ledger-0",
                  "frames": [len(frame) for frame in frames]}
        # request header + frames out, the same frames (post-run) back.
        wire_bytes += weight * (len(json.dumps(header)) + 2 * sum(map(len, frames)))
        if (name, scale) != service.mix[-1]:
            executor = make_executor(ctx.module(name), engine="native")
            executor.run(kernel.entry, ctx.args(name, scale))
            kernel_s.append(_fastest(
                lambda: executor.run(kernel.entry, ctx.args(name, scale)), DISPATCH_REPEATS))

    warm = service.latencies("warm", "large")
    handler = service.latencies("warm", "large", handler=True)
    wire = [client - server for client, server in zip(warm, handler)]
    cold_handler = service.latencies("cold", handler=True)
    stats = service.stats
    admission, streams = stats["admission"], stats["streams"]
    handler_p50 = statistics.median(handler)
    metrics = {
        "protocol.encode_us": Metric(encode_s * 1e6, "us"),
        "protocol.decode_us": Metric(decode_s * 1e6, "us"),
        "protocol.bytes_per_req": Metric(wire_bytes, "bytes"),
        "server.handler_p50_ms": Metric(handler_p50 * 1e3, "ms", len(handler)),
        "client.wire_overhead_p50_ms": Metric(statistics.median(wire) * 1e3, "ms", len(wire)),
        "service.req_warm_p90_ms": Metric(percentile(warm, 0.90) * 1e3, "ms", len(warm)),
        "service.req_warm_p99_ms": Metric(percentile(warm, 0.99) * 1e3, "ms", len(warm)),
        "server.cold_compile_p50_ms": Metric(statistics.median(cold_handler) * 1e3, "ms",
                                             len(cold_handler)),
        "admission.peak_inflight": Metric(admission["peak_inflight"], "count"),
        "admission.peak_waiting": Metric(admission["peak_waiting"], "count"),
        "admission.rejected": Metric(admission["rejected"], "count"),
        "server.coalesced": Metric(streams["coalesced"], "count"),
        "server.warm_hit_rate": Metric(stats["warm_hit_rate"], "ratio"),
        "server.degraded": Metric(stats["degraded"], "count"),
        "server.retries": Metric(stats["retries"], "count"),
        "server.tenants": Metric(streams["tenants"], "count"),
    }
    small_p50 = statistics.median(service.latencies("warm"))
    small_handler_p50 = statistics.median(service.latencies("warm", handler=True))
    prediction = {"small_request_p50_ms": small_p50 * 1e3,
                  "small_handler_p50_ms": small_handler_p50 * 1e3,
                  "in_process_kernel_ms": statistics.fmean(kernel_s) * 1e3,
                  "handler_minus_kernel_share":
                      (small_handler_p50 - statistics.fmean(kernel_s)) / small_p50}
    return metrics, prediction


# ---------------------------------------------------------------------------
def probe_layers(ctx: Context, phases: Dict, build: Dict, overhead) -> Tuple[Dict, Dict]:
    """Every per-layer metric, plus the layer self-time tables of the trace."""
    tracer = ctx.tracer
    tracer.enabled = True
    cache_dir = ctx.workdir.path / "cache"
    steady, cold, launch, service = (phases[name] for name in
                                     ("steady", "cold", "launch", "service"))
    import_s = [d["import_s"] for docs in cold.documents.values() for d in docs]
    metrics = {"frontend.import_ms": Metric(statistics.median(import_s) * 1e3, "ms",
                                            len(import_s))}
    metrics.update(frontend_and_transforms(ctx))
    metrics.update(native_and_resilience(ctx, steady, cold, service, build, cache_dir))
    metrics.update(other_engines(ctx))
    metrics.update(shim(ctx, launch))
    service_metrics, service_prediction = service_layers(ctx, service)
    metrics.update(service_metrics)
    metrics.update(cache_tiers(ctx, steady, cache_dir))
    tracer.enabled = False
    metrics.update({
        "trace.overhead_share": Metric(0.0 if overhead is None else overhead, "ratio"),
        "host.nproc": Metric(hygiene.nproc(), "count"),
        "host.omp_threads": Metric(hygiene.omp_threads(), "count"),
        "failed_share": Metric(ctx.checker.failed / max(1, ctx.checker.attempted), "ratio"),
    })

    tables = {root: tracer.layer_table(root)
              for root in ("steady.op", "cold.op", "launch.op", "request.op", "compile.op")}

    def share(root: str, *layers: str) -> float:
        table = tables[root]
        return (sum(table["self_time_s"].get(layer, 0.0) for layer in layers)
                / table["operation_time_s"]) if table["operation_time_s"] else 0.0

    tables["predictions"] = {
        "rodinia_steady: frontend+transforms share of an operation":
            share("steady.op", "frontend", "transforms"),
        "cold_start: kernel share of an operation": share("cold.op", "kernel"),
        "service_mix: (handler - in-process kernel) share of a warm request":
            service_prediction["handler_minus_kernel_share"],
        "service_mix detail": service_prediction,
    }
    return metrics, tables

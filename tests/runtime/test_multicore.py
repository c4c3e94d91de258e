"""Multicore engine unit tests: engine table, shard analysis, knobs.

Output/cost parity with the interpreter over the full Rodinia matrix lives
in ``test_engine_parity.py``; this file pins the engine-specific machinery:
the static engine table, the write-write-safety analysis decisions (what
shards, what must stay in-process), the worker knob and its environment
variable, and the caller-visible output
contract after shared-memory promotion.
"""

import numpy as np
import pytest

from repro.analysis.region import LAUNCH
from repro.frontend import compile_cuda
from repro.rodinia import BENCHMARKS
from repro.runtime import (
    A64FX_CMG,
    Interpreter,
    MulticoreEngine,
    engine_names,
    make_executor,
    multicore_available,
    resolve_engine,
    shutdown_worker_pools,
)
from repro.runtime.compiler import UNLOWERED
from repro.runtime.multicore import (
    WORKERS_ENV_VAR,
    _split_spans,
    default_workers,
)
from repro.transforms import PipelineOptions

needs_pool = pytest.mark.skipif(not multicore_available(),
                                reason="fork/shared memory unavailable")

#: a kernel whose only global store races on one location: every thread
#: writes ``out[0]``, so sequential thread order decides the winner and the
#: engine must refuse to shard it.
RACY_CUDA = """
__global__ void racy(float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    out[0] = 1.0f * tid;
}

void launch(float* d_out, int n) {
    racy<<<(n + 31) / 32, 32>>>(d_out, n);
}
"""

#: the canonical shardable kernel: each thread owns out[tid].
OWNED_CUDA = """
__global__ void scale(float* out, float* in, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        out[tid] = in[tid] * 3.0f;
    }
}

void launch(float* d_out, float* d_in, int n) {
    scale<<<(n + 31) / 32, 32>>>(d_out, d_in, n);
}
"""

#: a racy kernel hiding behind a *two-store* stack cell: the branch is
#: always taken, so j == n - tid and every thread writes out[tid + j]
#: == out[n].  A load of a multi-store cell must classify lane-dirty —
#: treating it as uniform would make tid + j look injective.
TWO_STORE_CELL_CUDA = """
__global__ void twostore(float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    int j = 0;
    if (tid >= 0) { j = n - tid; }
    out[tid + j] = 1.0f * tid;
}

void launch(float* d_out, int n) {
    twostore<<<(n + 31) / 32, 32>>>(d_out, n);
}
"""

#: a racy kernel hiding behind a *control-dependent* single store: threads
#: with tid < n never take the branch, load the zero-initialized cell and
#: collide on out[0].  Only a store that unconditionally dominates the
#: load may hand its descriptor to the load.
COND_STORE_CELL_CUDA = """
__global__ void condstore(float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    int j;
    if (tid >= n) { j = tid; }
    out[j] = 1.0f * tid;
}

void launch(float* d_out, int n) {
    condstore<<<(n + 31) / 32, 32>>>(d_out, n);
}
"""

#: two regions where only the second ships both potentially-aliased
#: buffers: sharding region one alone would already sever the aliasing.
PARTIAL_ALIAS_CUDA = """
__global__ void bump(float* a, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) { a[tid] = a[tid] + 1.0f; }
}

__global__ void combine(float* a, float* b, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) { a[tid] = a[tid] + b[tid]; }
}

void launch(float* x, float* y, int n) {
    bump<<<(n + 31) / 32, 32>>>(x, n);
    combine<<<(n + 31) / 32, 32>>>(x, y, n);
}
"""


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        names = engine_names()
        assert names == ("compiled", "vectorized", "multicore", "native",
                         "interp", "auto")

    def test_resolve_engine_accepts_multicore(self):
        assert resolve_engine("multicore") == "multicore"

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("cuda")

    def test_make_executor_forwards_workers(self):
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        executor = make_executor(module, engine="multicore", workers=3)
        assert executor.engine_name == "multicore"
        assert type(executor.inner) is MulticoreEngine
        assert executor.workers == 3


class TestKnobs:
    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert default_workers() == 7
        module = compile_cuda(OWNED_CUDA)
        assert MulticoreEngine(module).workers == 7

    def test_workers_must_be_positive(self):
        module = compile_cuda(OWNED_CUDA)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            MulticoreEngine(module, workers=0)

    def test_split_spans_contiguous_and_balanced(self):
        assert _split_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert _split_spans(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]


class TestShardAnalysis:
    def test_owned_store_pattern_is_shardable(self):
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        engine = MulticoreEngine(module, workers=2)
        n = 256
        engine.run("launch", [np.zeros(n, dtype=np.float32),
                              np.ones(n, dtype=np.float32), n])
        assert engine.shard_stats["sharded_regions"] >= 1
        assert engine.shard_stats["rejected_regions"] == 0

    def test_racy_store_never_dispatches(self):
        module = compile_cuda(RACY_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        reference = np.zeros(4, dtype=np.float32)
        Interpreter(module).run("launch", [reference, n])
        engine = MulticoreEngine(module, workers=2)
        output = np.zeros(4, dtype=np.float32)
        engine.run("launch", [output, n])
        # the uniform-index store covers no lane dim: the region may compile
        # as "shardable with every dim required singleton" but must never
        # dispatch over a >1-wide space — sequential order decides out[0].
        assert engine.shard_stats["dispatches"] == 0
        np.testing.assert_array_equal(output, reference)

    @pytest.mark.parametrize("source", [TWO_STORE_CELL_CUDA,
                                        COND_STORE_CELL_CUDA],
                             ids=["two-store-cell", "cond-store-cell"])
    def test_racy_stack_cell_patterns_never_dispatch(self, source):
        """Cell loads whose value is not pinned by a single dominating
        top-level store must classify lane-dirty: both kernels collide on
        one output element, so dispatching them would race."""
        module = compile_cuda(source, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        size = n + 32
        reference = np.zeros(size, dtype=np.float32)
        Interpreter(module).run("launch", [reference, n])
        engine = MulticoreEngine(module, workers=2)
        output = np.zeros(size, dtype=np.float32)
        engine.run("launch", [output, n])
        assert engine.shard_stats["dispatches"] == 0
        np.testing.assert_array_equal(output, reference)

    def test_non_dyadic_machine_disables_sharding(self):
        """Kept under its old name; the contract flipped.  A64FX's charges
        lie on the cycle grid, so per-worker costs folded in worker order
        equal the interpreter's sequential sum and the span shards."""
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        interp_args, shard_args = bench.make_inputs(1), bench.make_inputs(1)
        interp = Interpreter(module, machine=A64FX_CMG)
        interp.run(bench.entry, interp_args)
        engine = MulticoreEngine(module, machine=A64FX_CMG, workers=2)
        engine.run(bench.entry, shard_args)
        stats = engine.shard_stats
        assert stats["sharded_regions"] == 1 and stats["rejected_regions"] == 0
        assert stats["dispatches"] + stats["inline_runs"] == 1
        assert stats["dispatches"] == (1 if multicore_available() else 0)
        for index in bench.output_indices:
            np.testing.assert_array_equal(interp_args[index], shard_args[index])
        assert vars(interp.report) == vars(engine.report)

    @needs_pool
    def test_matmul_wsloop_dispatches(self):
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        engine = MulticoreEngine(module, workers=2)
        engine.run(bench.entry, bench.make_inputs(1))
        assert engine.shard_stats["dispatches"] == 1
        assert engine.shard_stats["inline_runs"] == 0

    @needs_pool
    def test_barrier_kernel_dispatches_lowered_only(self):
        """Workers get barrier-free spans: hotspot's ``__syncthreads`` are
        removed by cpuify, and its un-lowered launch stays in-process with
        the refusal named."""
        bench = BENCHMARKS["hotspot"]
        engine = MulticoreEngine(
            bench.compile_cuda(PipelineOptions.all_optimizations()), workers=2)
        engine.run(bench.entry, bench.make_inputs(4))
        assert engine.shard_stats["dispatches"] >= 1

        engine = MulticoreEngine(bench.compile_cuda(cuda_lower=False), workers=2)
        engine.run(bench.entry, bench.make_inputs(4))
        assert engine.shard_stats["dispatches"] == 0
        assert engine.shard_stats["rejected_regions"] == 1
        (region,) = engine.regions
        assert region["tier"] == "interp"
        assert region["refusals"] == [f"multicore: {UNLOWERED[LAUNCH]}"]


class TestExecution:
    def test_workers_one_stays_in_process(self):
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        engine = MulticoreEngine(module, workers=1)
        engine.run(bench.entry, bench.make_inputs(1))
        assert engine.shard_stats["dispatches"] == 0

    @needs_pool
    def test_caller_sees_outputs_after_promotion(self):
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        out = np.zeros(n, dtype=np.float32)
        data = np.arange(n, dtype=np.float32)
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", [out, data, n])
        assert engine.shard_stats["dispatches"] == 1
        np.testing.assert_array_equal(out, data * 3.0)

    @needs_pool
    def test_pool_reused_across_runs(self):
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        engine = MulticoreEngine(module, workers=2)
        engine.run(bench.entry, bench.make_inputs(1))
        engine.run(bench.entry, bench.make_inputs(1))
        assert engine.shard_stats["dispatches"] == 2
        assert len(engine._program.shards.pools) == 1

    @needs_pool
    def test_aliased_arguments_stay_in_process(self):
        """The same ndarray passed as two arguments must keep aliasing:
        promotion into two independent segments would sever it, so such
        runs fall back in-process and match the compiled engine."""
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        shared = np.arange(n, dtype=np.float32)
        expected = shared.copy() * 3.0
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", [shared, shared, n])  # in-place out == in
        assert engine.shard_stats["dispatches"] == 0
        np.testing.assert_array_equal(shared, expected)

    @needs_pool
    def test_partial_aliasing_across_regions_stays_in_process(self):
        """Aliasing is a *run*-level property: the first region ships only
        one of the two aliased buffers, so a per-dispatch check would let
        its promotion sever the aliasing for every later region."""
        module = compile_cuda(PARTIAL_ALIAS_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        reference = np.arange(n, dtype=np.float32)
        Interpreter(module).run("launch", [reference, reference, n])
        shared = np.arange(n, dtype=np.float32)
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", [shared, shared, n])
        assert engine.shard_stats["dispatches"] == 0
        np.testing.assert_array_equal(shared, reference)

    @needs_pool
    def test_promotion_failure_degrades_to_in_process(self, monkeypatch):
        """/dev/shm filling up mid-run (promote raising OSError) must
        demote the run to in-process execution, not abort it."""
        from repro.runtime import sharedmem

        def full_shm(storage):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(sharedmem, "promote", full_shm)
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        out = np.zeros(n, dtype=np.float32)
        data = np.arange(n, dtype=np.float32)
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", [out, data, n])
        assert engine.shard_stats["dispatches"] == 0
        assert engine.shard_stats["inline_runs"] >= 1
        assert engine._program.shards.broken
        assert not engine._program.shards.pools  # idle workers released, not leaked
        np.testing.assert_array_equal(out, data * 3.0)

    @needs_pool
    def test_read_only_input_survives_promotion(self):
        """A read-only input that ships to workers is promoted; the
        end-of-run copy-back must skip it instead of raising."""
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        out = np.zeros(n, dtype=np.float32)
        data = np.arange(n, dtype=np.float32)
        data.setflags(write=False)
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", [out, data, n])
        assert engine.shard_stats["dispatches"] == 1
        np.testing.assert_array_equal(out, np.arange(n, dtype=np.float32) * 3.0)
        assert not data.flags.writeable

    @needs_pool
    def test_write_to_read_only_buffer_raises_like_other_engines(self):
        """A kernel storing into a read-only buffer raises ValueError on
        every in-process engine; sharded workers see a read-only view of
        the promoted segment, so multicore raises too instead of silently
        writing (and then discarding) a shared copy."""
        from repro.runtime import CompiledEngine
        module = compile_cuda(OWNED_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 256
        data = np.arange(n, dtype=np.float32)
        for make in (lambda: CompiledEngine(module),
                     lambda: MulticoreEngine(module, workers=2)):
            out = np.zeros(n, dtype=np.float32)
            out.setflags(write=False)
            with pytest.raises(ValueError):
                make().run("launch", [out, data, n])

    @needs_pool
    def test_worker_segment_caches_evicted_between_runs(self):
        """Each run promotes fresh segments; workers must not pin every
        past run's mappings for the pool's lifetime."""
        from repro.runtime import sharedmem
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        engine = MulticoreEngine(module, workers=2)
        for _ in range(5):
            engine.run(bench.entry, bench.make_inputs(1))
        assert engine.shard_stats["dispatches"] == 5
        # parent-side segments die with their storages (run arguments)
        import gc
        gc.collect()
        assert sharedmem.owned_segment_count() == 0

    @needs_pool
    def test_workers_agree_with_interpreter(self):
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        reference_args = bench.make_inputs(2)
        interpreter = Interpreter(module)
        interpreter.run(bench.entry, reference_args)
        engine_args = bench.make_inputs(2)
        engine = MulticoreEngine(module, workers=2)
        engine.run(bench.entry, engine_args)
        np.testing.assert_array_equal(np.asarray(reference_args[2]),
                                      np.asarray(engine_args[2]))
        assert engine.report.cycles == interpreter.report.cycles
        assert engine.report.dynamic_ops == interpreter.report.dynamic_ops

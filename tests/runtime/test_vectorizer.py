"""Vectorized-engine unit tests: lane semantics, fallback paths, stats.

Differential parity against the interpreter over the whole suite lives in
``test_engine_parity.py``; these tests pin the vectorizer's own behaviour —
which spans vectorize, that a span with an unsupported op (and every
un-lowered region) falls back wholesale while staying bit-identical, a
second machine model, engine selection, and the bulk storage accessors it
is built on.
"""

import numpy as np
import pytest

from repro.analysis.region import LAUNCH, SIMT
from repro.ir import Builder, F32, I32, INDEX, memref, verify
from repro.dialects import arith, func, memref as memref_d, scf
from repro.frontend import compile_cuda
from repro.rodinia import BENCHMARKS
from repro.runtime import (
    A64FX_CMG,
    CompiledEngine,
    Interpreter,
    InterpreterError,
    MemRefStorage,
    UseAfterFreeError,
    VectorizedEngine,
    XEON_8375C,
    make_executor,
)
from repro.runtime.compiler import UNLOWERED
from repro.transforms import PipelineOptions, cpuify

from tests.helpers import (
    build_function,
    build_parallel,
    close_parallel,
    const_index,
    finish_function,
    insert_barrier,
)

from tests.runtime.test_engine_parity import report_fields


def run_both(module, entry, make_args, machine=XEON_8375C, threads=None):
    """Run interpreter + vectorized engine; return (interp, vectorized)."""
    interp_args = make_args()
    vector_args = make_args()
    interpreter = Interpreter(module, machine=machine, threads=threads)
    interpreter.run(entry, interp_args)
    engine = VectorizedEngine(module, machine=machine, threads=threads)
    engine.run(entry, vector_args)
    return (interpreter, interp_args), (engine, vector_args)


class TestRegionSelection:
    def test_matmul_wsloop_vectorizes(self):
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        engine = VectorizedEngine(module)
        engine.run(bench.entry, bench.make_inputs(1))
        stats = engine.vector_stats
        assert stats["vectorized_regions"] >= 1
        assert stats["fallback_regions"] == 0

    @pytest.mark.parametrize("name", ["hotspot", "lud", "pathfinder"])
    def test_single_lane_guard_falls_back(self, name):
        """The vectorizer decides per span: with the thread loops kept
        parallel, cpuify's fission leaves the single-lane ``tid == 0``
        staging phase a span of its own, which goes to the compiled closures
        while the arithmetic phase next to it vectorizes — bit-identical to
        ``interp``, with the reason on ``engine.regions``."""
        bench = BENCHMARKS[name]
        module = bench.compile_cuda(
            PipelineOptions.all_optimizations(inner_serialize=False))
        (interp, interp_args), (engine, vector_args) = run_both(
            module, bench.entry, lambda: bench.make_inputs(1))
        for expected, actual in zip(interp_args, vector_args):
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(expected, actual)
        assert report_fields(interp.report) == report_fields(engine.report)
        guarded = [region for region in engine.regions
                   if "vectorized: single-lane equality guard" in region["refusals"]]
        assert [region["tier"] for region in guarded] == ["closures"]
        assert engine.vector_stats["vectorized_regions"] >= 1

    def test_barrier_under_control_flow_falls_back_wholesale(self):
        """An un-lowered launch is the interpreter's, whatever its phases
        hold: the vectorizer is never offered it."""
        bench = BENCHMARKS["backprop layerforward"]
        module = bench.compile_cuda(cuda_lower=False)
        engine = VectorizedEngine(module)
        engine.run(bench.entry, bench.make_inputs(1))
        assert engine.vector_stats == {"vectorized_regions": 0, "fallback_regions": 1}
        region, = engine.regions
        assert region["tier"] == "interp"
        assert region["refusals"] == [f"vectorized: {UNLOWERED[LAUNCH]}"]

    def test_a64fx_spans_vectorize(self):
        """A64FX's access costs are charged on the cycle grid, so its spans
        vectorize and the analytic totals equal the interpreter's
        sequential sum."""
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        (interp, interp_args), (engine, vector_args) = run_both(
            module, bench.entry, lambda: bench.make_inputs(1),
            machine=A64FX_CMG, threads=12)
        assert engine.vector_stats == {"vectorized_regions": 1, "fallback_regions": 0}
        assert all(not region["refusals"] for region in engine.regions)
        for index in bench.output_indices:
            np.testing.assert_array_equal(interp_args[index], vector_args[index])
        assert report_fields(interp.report) == report_fields(engine.report)


    @pytest.mark.parametrize("depth, trips", [(12, 4), (40, 32)])
    def test_a_nest_deeper_than_ten_levels_vectorizes(self, depth, trips):
        """Alternating ``scf.for`` / ``scf.if`` levels, a value carried
        through each: every op is emitted once, so depth costs nothing (the
        dry-run classifier doubled its work per level and gave up past ten),
        and past CPython's static nesting limit a block is its own function."""
        module, fn, builder = build_function("main", [memref((16,), F32), INDEX],
                                             ["out", "n"])
        out, n = fn.arguments
        loop, inner = build_parallel(builder, 16)
        tid = loop.induction_vars[0]

        def nest(b, depth, acc):
            if depth == 0:
                lane = b.insert(arith.SIToFPOp(tid, F32)).result
                return b.insert(arith.AddFOp(acc, lane)).result
            if depth % 2:
                level = b.insert(scf.ForOp(const_index(b, 0),
                                           const_index(b, 2 if depth % 8 == 1 else 1),
                                           const_index(b, 1), [acc]))
                body = Builder.at_end(level.body)
                body.insert(scf.YieldOp([nest(body, depth - 1, level.iter_args[0])]))
            else:
                cond = b.insert(arith.CmpIOp("lt", tid, n)).result
                level = b.insert(scf.IfOp(cond, [F32]))
                taken = Builder.at_end(level.then_block)
                taken.insert(scf.YieldOp([nest(taken, depth - 1, acc)]))
                Builder.at_end(level.else_block).insert(scf.YieldOp([acc]))
            return level.results[0]

        total = nest(inner, depth, inner.insert(arith.constant_float(0.0)).result)
        inner.insert(memref_d.StoreOp(total, out, [tid]))
        close_parallel(inner)
        finish_function(builder)
        verify(module)

        (interp, interp_args), (engine, vector_args) = run_both(
            module, "main", lambda: [np.zeros(16, dtype=np.float32), 11])
        np.testing.assert_array_equal(interp_args[0], vector_args[0])
        assert interp_args[0][10] == 10.0 * trips and interp_args[0][11] == 0.0
        assert report_fields(interp.report) == report_fields(engine.report)
        assert engine.vector_stats == {"vectorized_regions": 1, "fallback_regions": 0}


class TestFallbackParity:
    def _while_phase_module(self):
        """Barrier region: a vectorizable staging phase, then a phase holding
        an ``scf.while`` (lane-dependent trip count) the analyzer rejects."""
        module, fn, builder = build_function(
            "main", [memref((16,), F32), memref((16,), F32)], ["inp", "out"])
        shared = builder.insert(
            memref_d.AllocaOp(memref((16,), F32, "shared"))).result
        loop, inner = build_parallel(builder, 16)
        tid = loop.induction_vars[0]
        # phase 1 (vectorizable): stage inp into shared memory
        val = inner.insert(memref_d.LoadOp(fn.arguments[0], [tid]))
        inner.insert(memref_d.StoreOp(val.result, shared, [tid]))
        insert_barrier(inner, [tid])
        # phase 2 (unsupported): count up to tid with a data-dependent while
        zero = const_index(inner, 0)
        one = const_index(inner, 1)
        while_op = inner.insert(scf.WhileOp([zero], [INDEX]))
        before = Builder.at_end(while_op.before_block)
        cond = before.insert(arith.CmpIOp(
            arith.CmpPredicate.LT, while_op.before_block.arguments[0], tid))
        before.insert(scf.ConditionOp(cond.result,
                                      [while_op.before_block.arguments[0]]))
        after = Builder.at_end(while_op.after_block)
        bumped = after.insert(arith.AddIOp(while_op.after_block.arguments[0], one))
        after.insert(scf.YieldOp([bumped.result]))
        fifteen = const_index(inner, 15)
        mirrored = inner.insert(arith.SubIOp(fifteen, tid))
        staged = inner.insert(memref_d.LoadOp(shared, [mirrored.result]))
        as_i32 = inner.insert(arith.IndexCastOp(while_op.results[0], I32))
        as_f32 = inner.insert(arith.SIToFPOp(as_i32.result, F32))
        total = inner.insert(arith.AddFOp(staged.result, as_f32.result))
        inner.insert(memref_d.StoreOp(total.result, fn.arguments[1], [tid]))
        close_parallel(inner)
        finish_function(builder)
        verify(module)
        return module

    def test_unsupported_phase_falls_back_bit_identical(self):
        def make_args():
            rng = np.random.default_rng(3)
            return [rng.random(16).astype(np.float32),
                    np.zeros(16, dtype=np.float32)]

        # lowered, each phase is a span of its own: the staging span
        # vectorizes, the one holding the scf.while falls back
        (interp, interp_args), (engine, vector_args) = run_both(
            cpuify(self._while_phase_module()), "main", make_args)
        np.testing.assert_array_equal(interp_args[1], vector_args[1])
        assert report_fields(interp.report) == report_fields(engine.report)
        assert engine.vector_stats == {"vectorized_regions": 1, "fallback_regions": 1}
        assert [(region["tier"], region["refusals"]) for region in engine.regions] == [
            ("vectorized", []),
            ("closures", ["vectorized: op scf.while is not vectorizable"])]

        # un-lowered, the SIMT scf.parallel is refused whole, by name, and
        # still executes as two barrier phases of one region
        (interp, interp_args), (engine, vector_args) = run_both(
            self._while_phase_module(), "main", make_args)
        np.testing.assert_array_equal(interp_args[1], vector_args[1])
        assert report_fields(interp.report) == report_fields(engine.report)
        assert engine.vector_stats == {"vectorized_regions": 0, "fallback_regions": 1}
        region, = engine.regions
        assert region["tier"] == "interp"
        assert region["refusals"] == [f"vectorized: {UNLOWERED[SIMT]}"]
        assert engine.report.simt_phases == 2


class TestVectorSemantics:
    def test_barrier_phase_vectorized_reverse(self):
        """Shared-memory reverse: cpuify splits it at the barrier and both
        phases vectorize."""
        module, fn, builder = build_function(
            "main", [memref((16,), F32), memref((16,), F32)], ["inp", "out"])
        shared = builder.insert(
            memref_d.AllocaOp(memref((16,), F32, "shared"))).result
        loop, inner = build_parallel(builder, 16)
        tid = loop.induction_vars[0]
        val = inner.insert(memref_d.LoadOp(fn.arguments[0], [tid]))
        inner.insert(memref_d.StoreOp(val.result, shared, [tid]))
        insert_barrier(inner, [tid])
        fifteen = const_index(inner, 15)
        mirrored = inner.insert(arith.SubIOp(fifteen, tid))
        other = inner.insert(memref_d.LoadOp(shared, [mirrored.result]))
        inner.insert(memref_d.StoreOp(other.result, fn.arguments[1], [tid]))
        close_parallel(inner)
        finish_function(builder)
        verify(module)

        inp = np.arange(16, dtype=np.float32)
        out = np.zeros(16, dtype=np.float32)
        engine = VectorizedEngine(cpuify(module))
        engine.run("main", [inp, out])
        assert np.allclose(out, inp[::-1])
        assert engine.vector_stats == {"vectorized_regions": 2, "fallback_regions": 0}

    def test_broad_equality_mask_vectorizes(self):
        """The single-lane-guard heuristic keys on lane-index provenance:
        ``if (flag[tid] == 1)`` is a broad data-dependent mask and must
        vectorize, while ``if (tid == 0)`` regions fall back (pinned by the
        Rodinia single-lane-guard tests)."""
        source = """
        __global__ void kernel(int* flag, float* out, float* in, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) {
                if (flag[tid] == 1) { out[tid] = in[tid] * 2.0f; }
                else { out[tid] = in[tid]; }
            }
        }
        void launch(int* flag, float* out, float* in, int n) {
            kernel<<<2, 32>>>(flag, out, in, n);
        }
        """
        module = compile_cuda(source, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())

        def make_args():
            rng = np.random.default_rng(5)
            return [rng.integers(0, 2, 64).astype(np.int64),
                    np.zeros(64, dtype=np.float32),
                    rng.random(64).astype(np.float32), 64]

        (interp, interp_args), (engine, vector_args) = run_both(
            module, "launch", make_args)
        np.testing.assert_array_equal(interp_args[1], vector_args[1])
        assert report_fields(interp.report) == report_fields(engine.report)
        assert engine.vector_stats["vectorized_regions"] == 1
        assert engine.vector_stats["fallback_regions"] == 0

    def test_float_min_max_nan_parity(self):
        """Python min/max do not propagate a NaN second argument
        (``min(1.0, nan) == 1.0``); the vector lanes must match, not
        ``np.minimum``'s NaN propagation."""
        source = """
        __global__ void kernel(float* out, float* in, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) {
                out[tid] = fminf(1.0f, in[tid]) + fmaxf(-1.0f, in[tid]);
            }
        }
        void launch(float* out, float* in, int n) {
            kernel<<<1, 32>>>(out, in, n);
        }
        """
        module = compile_cuda(source, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())

        def make_args():
            data = np.linspace(-2.0, 2.0, 32, dtype=np.float32)
            data[5] = np.nan
            data[17] = np.nan
            return [np.zeros(32, dtype=np.float32), data, 32]

        (interp, interp_args), (engine, vector_args) = run_both(
            module, "launch", make_args)
        assert engine.vector_stats["vectorized_regions"] >= 1
        np.testing.assert_array_equal(interp_args[0], vector_args[0])
        assert report_fields(interp.report) == report_fields(engine.report)

    def test_masked_if_with_results_and_math(self):
        """Data-dependent scf.if with results + math.* in lanes (np.where
        merge + Python-callable map), checked against the interpreter."""
        source = """
        __global__ void kernel(float* out, float* in, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) {
                float x = in[tid];
                float y = 0.0f;
                if (x > 0.5f) {
                    y = sqrtf(x) + 1.0f;
                } else {
                    y = x * 2.0f;
                }
                out[tid] = y;
            }
        }
        void launch(float* out, float* in, int n) {
            kernel<<<(n + 31) / 32, 32>>>(out, in, n);
        }
        """
        module = compile_cuda(source, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())

        def make_args():
            rng = np.random.default_rng(11)
            return [np.zeros(64, dtype=np.float32),
                    rng.random(64).astype(np.float32), 64]

        (interp, interp_args), (engine, vector_args) = run_both(
            module, "launch", make_args)
        np.testing.assert_array_equal(interp_args[0], vector_args[0])
        assert report_fields(interp.report) == report_fields(engine.report)
        assert engine.vector_stats["vectorized_regions"] >= 1


class TestEngineSelection:
    def test_make_executor_vectorized(self):
        module = func.ModuleOp()
        assert type(make_executor(module, engine="vectorized").inner) is VectorizedEngine
        # the vectorized engine *is* a compiled engine (shared machinery)
        assert issubclass(VectorizedEngine, CompiledEngine)
        assert type(make_executor(module, engine="compiled").inner) is CompiledEngine

    def test_env_var_selects_vectorized(self, monkeypatch):
        module = func.ModuleOp()
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        assert type(make_executor(module).inner) is VectorizedEngine

    def test_programs_cached_separately(self):
        """Compiled and vectorized programs coexist on one module."""
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        compiled = CompiledEngine(module)
        vectorized = VectorizedEngine(module)
        assert compiled._program is not vectorized._program
        assert CompiledEngine(module)._program is compiled._program
        assert VectorizedEngine(module)._program is vectorized._program


class TestBulkStorage:
    def test_load_block_gathers_without_boxing(self):
        storage = MemRefStorage.from_numpy(np.arange(8, dtype=np.float32))
        gathered = storage.load_block((np.array([3, 0, 7]),))
        assert gathered.dtype == np.float32
        np.testing.assert_array_equal(gathered, [3.0, 0.0, 7.0])
        np.testing.assert_array_equal(storage.load_block(), storage.array)

    def test_store_block_last_writer_wins(self):
        storage = MemRefStorage.from_numpy(np.zeros(4, dtype=np.int64))
        storage.store_block(np.array([1, 2, 3]), (np.array([1, 1, 2]),))
        np.testing.assert_array_equal(storage.array, [0, 2, 3, 0])

    def test_use_after_free_centralized(self):
        storage = MemRefStorage.from_numpy(np.zeros(4, dtype=np.float32))
        storage.free()
        for access in (lambda: storage.load((0,)),
                       lambda: storage.store(1.0, (0,)),
                       lambda: storage.load_block((np.array([0]),)),
                       lambda: storage.store_block(1.0, (np.array([0]),)),
                       lambda: storage.free(),
                       lambda: storage.check_alive()):
            with pytest.raises(UseAfterFreeError):
                access()
        # use-after-free surfaces as an InterpreterError to every engine
        assert issubclass(UseAfterFreeError, InterpreterError)

    def test_dealloc_then_load_raises_in_all_engines(self):
        module, fn, builder = build_function("main", [memref((4,), F32)], ["buf"])
        alloc = builder.insert(memref_d.AllocOp(memref((4,), F32)))
        builder.insert(memref_d.DeallocOp(alloc.result))
        loaded = builder.insert(memref_d.LoadOp(alloc.result, [const_index(builder, 0)]))
        builder.insert(memref_d.StoreOp(loaded.result, fn.arguments[0],
                                        [const_index(builder, 0)]))
        finish_function(builder)
        verify(module)
        for engine_cls in (Interpreter, CompiledEngine, VectorizedEngine):
            with pytest.raises(InterpreterError, match="use after free"):
                engine_cls(module).run("main", [np.zeros(4, dtype=np.float32)])

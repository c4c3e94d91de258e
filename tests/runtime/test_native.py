"""Native OpenMP engine: codegen coverage, fallback, cache and registry.

The five-engine parity matrix (``test_engine_parity.py``) and the
differential fuzz suite already pin the native engine's outputs and
CostReports bit for bit; this file covers the machinery around them:

* region coverage — the kernels that must compile natively do (including
  ``scf.while`` bodies), the constructs the emitter rejects (nested
  ``omp.parallel``) fall back per region, and un-lowered ``gpu.launch``
  regions are refused by name — barriers are lowered by cpuify, never by
  the emitter;
* the content-addressed artifact cache — warm units skip the C compiler,
  corrupt ``.so`` files recompile instead of crashing the dlopen, and the
  disk tier evicts by access age without touching pinned artifacts;
* dispatch bail-outs — budget runs, read-only outputs and missing
  toolchains degrade to the compiled base plans with identical semantics;
* the registry's lazy-on-lookup engine imports — ``"native" in ENGINES``
  holds before anything imported an engine module, so env-selected engines
  cannot race registration.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.region import LAUNCH
from repro.frontend import compile_cuda
from repro.rodinia import BENCHMARKS
from repro.runtime import (
    A64FX_CMG,
    Interpreter,
    InterpreterError,
    NativeEngine,
    XEON_8375C,
    native_available,
)
from repro.runtime.cache import NativeArtifactCache
from repro.runtime.compiler import UNLOWERED
from repro.runtime.native import CC_ENV_VAR, unit_key
from repro.transforms import PipelineOptions
from tests.helpers import generate_fuzz_kernel, report_fields

ROOT = Path(__file__).resolve().parents[2]
HAVE_CC = native_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working cc -fopenmp")

MATMUL = BENCHMARKS["matmul"]

QUICK_CUDA = """
__global__ void scale(float* out, float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        out[gid] = in[gid] * 2.0f + 1.0f;
    }
}
void launch(float* out, float* in, int n) {
    scale<<<(n + 31) / 32, 32>>>(out, in, n);
}
"""


def _quick_args(n=256):
    rng = np.random.default_rng(7)
    data = rng.random(n).astype(np.float32)
    return [np.zeros(n, dtype=np.float32), data, n]


def _lowered(source):
    return compile_cuda(source, cuda_lower=True,
                        options=PipelineOptions.all_optimizations())


def _assert_native_matches_interp(module, entry, make_args, out_index):
    interp_args = make_args()
    interp = Interpreter(module)
    interp.run(entry, interp_args)
    native_args = make_args()
    engine = NativeEngine(module)
    engine.run(entry, native_args)
    np.testing.assert_array_equal(interp_args[out_index], native_args[out_index])
    assert report_fields(interp.report) == report_fields(engine.report)
    return engine


class TestRegionCoverage:
    @needs_cc
    def test_matmul_compiles_natively(self):
        module = MATMUL.compile_cuda(PipelineOptions.all_optimizations())
        engine = _assert_native_matches_interp(
            module, MATMUL.entry, lambda: MATMUL.make_inputs(1),
            MATMUL.output_indices[0])
        stats = engine.native_stats
        assert stats["native_regions"] >= 1
        assert stats["native_dispatches"] >= 1
        assert stats["compile_errors"] == 0

    @needs_cc
    def test_barrier_kernel_compiles_natively_lowered_only(self):
        """A straight-line __syncthreads kernel reaches C through cpuify's
        barrier lowering; its un-lowered gpu.launch runs the SIMT phases on
        the closure tier, bit-identically, and says why."""
        for seed in range(60):
            kernel = generate_fuzz_kernel(seed)
            if kernel.has_barrier and "reduce=False" in kernel.description:
                break
        else:
            pytest.skip("no straight-line barrier kernel in the seed window")
        engine = _assert_native_matches_interp(
            kernel.compile(), kernel.entry, kernel.make_args, 2)
        assert engine.native_stats["native_dispatches"] >= 1

        engine = _assert_native_matches_interp(
            kernel.compile(cuda_lower=False), kernel.entry, kernel.make_args, 2)
        assert engine.report.simt_phases > 0
        assert engine.native_stats["native_regions"] == 0
        assert engine.native_stats["fallback_regions"] == len(engine.regions) >= 1
        for region in engine.regions:
            assert region["tier"] == "closures"
            assert region["refusals"] == [f"native: {UNLOWERED[LAUNCH]}"]

    @needs_cc
    def test_inlined_device_call_compiles_natively(self):
        """A region containing an un-inlined __device__ call with a result
        must emit valid C: call results are declared outside the inlined
        scope (regression: they used to be assigned after the closing
        brace, failing the whole unit's compile)."""
        source = """
        __device__ float total(float* data, int n) {
            float acc = 0.0f;
            for (int i = 0; i < n; i++) { acc += data[i]; }
            return acc;
        }
        __global__ void scale(float* out, float* in, int n) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            float t = total(in, n);
            if (gid < n) { out[gid] = in[gid] / t; }
        }
        void launch(float* out, float* in, int n) {
            scale<<<(n + 31) / 32, 32>>>(out, in, n);
        }
        """
        module = compile_cuda(  # lowered, the call kept: wsloop + func.call
            source, cuda_lower=True,
            options=PipelineOptions.all_optimizations().with_options(
                inline_device=False))
        engine = _assert_native_matches_interp(module, "launch", _quick_args, 0)
        stats = engine.native_stats
        assert stats["compile_errors"] == 0
        assert stats["native_dispatches"] >= 1

    @needs_cc
    def test_former_fallback_kernels_compile_natively(self):
        """backprop/particlefilter carry ``scf.while`` loops inside their
        cpuified spans — the region class that used to fall back to the
        compiled closures.  They must now run native, bit-identically,
        with zero per-region fallbacks (the full 13/13 gate lives in
        tests/rodinia/test_native_coverage.py)."""
        for name in ("backprop layerforward", "particlefilter"):
            bench = BENCHMARKS[name]
            module = bench.compile_cuda(PipelineOptions.all_optimizations())
            engine = _assert_native_matches_interp(
                module, bench.entry, lambda: bench.make_inputs(1),
                bench.output_indices[0])
            stats = engine.native_stats
            assert stats["fallback_regions"] == 0, name
            assert stats["native_dispatches"] >= 1, name

    def test_non_dyadic_machine_degrades_to_compiled(self):
        """Kept under its old name; the contract flipped.  Every charge lies
        on the cycle grid, so a machine whose own constants do not (A64FX:
        4.0 x 0.45 cycles per global word) runs native like any other."""
        module = _lowered(QUICK_CUDA)
        interp_args, native_args = _quick_args(), _quick_args()
        interp = Interpreter(module, machine=A64FX_CMG)
        interp.run("launch", interp_args)
        engine = NativeEngine(module, machine=A64FX_CMG)
        engine.run("launch", native_args)
        np.testing.assert_array_equal(interp_args[0], native_args[0])
        assert report_fields(interp.report) == report_fields(engine.report)
        stats = engine.native_stats
        assert stats["native_regions"] >= 1
        assert stats["native_dispatches"] >= 1
        assert stats["fallback_regions"] == stats["bailouts"] == 0

    def test_missing_toolchain_degrades_to_compiled(self, monkeypatch):
        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-cc")
        assert not native_available()
        module = _lowered(QUICK_CUDA)
        engine = _assert_native_matches_interp(module, "launch", _quick_args, 0)
        assert engine.native_stats["units_ready"] == 0


class TestNegativeProbe:
    """A failed toolchain probe caches its diagnostics: every later strict
    run raises one clear ToolchainError carrying the probe's actual stderr
    instead of re-probing (or failing with a bare 'unavailable')."""

    def test_missing_compiler_detail_names_the_binary(self, monkeypatch):
        from repro.runtime.errors import ToolchainError
        from repro.runtime.native import probe_detail, require_toolchain

        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-probe-cc")
        assert not native_available()
        assert "not found on PATH" in probe_detail()
        with pytest.raises(ToolchainError, match="nonexistent/repro-probe-cc"):
            require_toolchain()

    def test_failing_compiler_stderr_reaches_the_error(self, tmp_path,
                                                       monkeypatch):
        from repro.runtime.errors import ToolchainError
        from repro.runtime.native import probe_detail, require_toolchain

        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text("#!/bin/sh\n"
                           "echo 'fake-cc: catastrophic internal error' >&2\n"
                           "exit 1\n")
        fake_cc.chmod(0o755)
        monkeypatch.setenv(CC_ENV_VAR, str(fake_cc))
        assert not native_available()
        assert "catastrophic internal error" in probe_detail()
        with pytest.raises(ToolchainError,
                           match="catastrophic internal error") as excinfo:
            require_toolchain()
        assert excinfo.value.detail  # the stderr rides on the error object

    def test_negative_result_is_cached_not_reprobed(self, tmp_path,
                                                    monkeypatch):
        """The probe runs once per command: a flaky wrapper that would pass
        on the second invocation must still report the first failure."""
        from repro.runtime.native import probe_detail

        marker = tmp_path / "invocations"
        flaky = tmp_path / "flaky-cc"
        flaky.write_text("#!/bin/sh\n"
                         f"echo x >> {marker}\n"
                         "echo 'fails only the first time' >&2\n"
                         "exit 1\n")
        flaky.chmod(0o755)
        monkeypatch.setenv(CC_ENV_VAR, str(flaky))
        assert not native_available()
        assert not native_available()
        assert "fails only the first time" in probe_detail()
        assert marker.read_text().count("x") == 1

    @needs_cc
    def test_strict_run_raises_the_cached_error(self, monkeypatch):
        """Under the resilience wrapper a missing toolchain is a taxonomy
        failure, not a silent degrade: the strict engine raises and the
        wrapper owns the fallback (pinned end-to-end in test_chaos.py)."""
        from repro.runtime.errors import ToolchainError

        module = _lowered(QUICK_CUDA)
        engine = NativeEngine(module)
        engine._resilience_strict = True
        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-strict-cc")
        with pytest.raises(ToolchainError, match="not found on PATH"):
            engine.run("launch", _quick_args())


class TestDispatchBailouts:
    @needs_cc
    def test_budget_routes_to_compiled_plans(self):
        """An active max_dynamic_ops budget uses the compiled per-block
        budget check, raising the exact engine error."""
        module = _lowered(QUICK_CUDA)
        engine = NativeEngine(module, max_dynamic_ops=10)
        with pytest.raises(InterpreterError, match="budget"):
            engine.run("launch", _quick_args())
        assert engine.native_stats["bailouts"] >= 1

    @needs_cc
    def test_read_only_output_raises_like_other_engines(self):
        module = _lowered(QUICK_CUDA)
        arguments = _quick_args()
        arguments[0].setflags(write=False)
        engine = NativeEngine(module)
        with pytest.raises(ValueError):
            engine.run("launch", arguments)
        assert engine.native_stats["bailouts"] >= 1

    @needs_cc
    def test_aliased_buffers_stay_exact(self):
        """out aliasing in forces the sequential path; results still match
        the interpreter bit for bit."""
        module = _lowered(QUICK_CUDA)
        n = 256
        rng = np.random.default_rng(3)
        shared_interp = rng.random(n).astype(np.float32)
        shared_native = shared_interp.copy()
        interp = Interpreter(module)
        interp.run("launch", [shared_interp, shared_interp, n])
        engine = NativeEngine(module)
        engine.run("launch", [shared_native, shared_native, n])
        np.testing.assert_array_equal(shared_interp, shared_native)
        assert report_fields(interp.report) == report_fields(engine.report)


    @needs_cc
    def test_bailouts_are_named_per_region(self):
        """Every run-time refusal counts under its reason on the region that
        refused, and the reasons sum to the engine-wide counter."""
        module = _lowered(QUICK_CUDA)
        budget = NativeEngine(module, max_dynamic_ops=10**9)
        budget.run("launch", _quick_args())
        region, = budget.regions
        assert region["bailouts"] == {"budget": 1}

        engine = NativeEngine(module)   # shares the cached program's tallies
        frozen = _quick_args()
        frozen[0].setflags(write=False)
        with pytest.raises(ValueError):
            engine.run("launch", frozen)
        widened = _quick_args()
        widened[1] = widened[1].astype(np.float64)
        engine.run("launch", widened)   # the base plan takes any dtype
        np.testing.assert_array_equal(
            widened[0], (widened[1] * 2.0 + 1.0).astype(np.float32))
        engine.run("launch", _quick_args())
        region, = engine.regions
        assert region["bailouts"] == {"budget": 1, "read-only": 1, "dtype": 1}
        assert engine.native_stats["bailouts"] == 3
        assert engine.native_stats["native_dispatches"] == 1


# ---------------------------------------------------------------------------
# One flag, two loops: which copy of a span's body a dispatch runs
# ---------------------------------------------------------------------------
def _row_module(through_call=False):
    """``main(out, in, hi, hj)``: ``out[i] = in[i] + j`` over ``[0, hi) x
    [0, hj)`` — every ``j`` stores the same cell, so the proof is "dim 1 must
    be a singleton"; with ``through_call`` the store is made by a callee, and
    there is no proof at all."""
    from repro.dialects import arith, func, memref as memref_d, scf
    from repro.ir import INDEX, Builder, FunctionType, memref, verify
    from tests.helpers import (build_function, close_parallel, const_index,
                               finish_function)

    row = memref((128,), INDEX)
    module, fn, b = build_function("main", [row, row, INDEX, INDEX])
    out, source, hi, hj = fn.arguments
    zero, one = const_index(b, 0), const_index(b, 1)
    span = b.insert(scf.ParallelOp([zero, zero], [hi, hj], [one, one]))
    inner = Builder.at_end(span.body)
    i, j = span.induction_vars
    loaded = inner.insert(memref_d.LoadOp(source, [i])).result
    value = inner.insert(arith.AddIOp(loaded, j)).result
    if through_call:
        poke = func.FuncOp("poke", FunctionType((row, INDEX, INDEX), ()), device=True)
        module.add_function(poke)
        callee = Builder.at_end(poke.body_block)
        buffer, index, stored = poke.arguments
        callee.insert(memref_d.StoreOp(stored, buffer, [index]))
        callee.insert(func.ReturnOp())
        inner.insert(func.CallOp("poke", [out, i, value]))
    else:
        inner.insert(memref_d.StoreOp(value, out, [i]))
    close_parallel(inner)
    finish_function(b)
    verify(module)
    return module, span


def _mode_soak():
    """Subprocess entry (``OMP_NUM_THREADS=2``): the dispatches that must run
    the plain loop do, 64 proven units take the team, and every one of them
    equals ``interp`` in outputs and CostReport."""
    from repro.analysis.region import RegionPlans
    from repro.runtime import native

    modes = []
    seal = native.NativeUnit._seal

    def spying_seal(unit):
        seal(unit)
        for symbol, function in list(unit.functions.items()):
            def call(*arguments, function=function):
                modes.append((arguments[8], bool(arguments[9])))
                function(*arguments)
            unit.functions[symbol] = call

    native.NativeUnit._seal = spying_seal
    proven, span = _row_module()
    assert RegionPlans(proven).plan(span).parallel_proof == frozenset({1})
    unproven, span = _row_module(through_call=True)
    assert RegionPlans(unproven).plan(span).parallel_proof is None
    cases = [("64 proven units", proven, 64, 1, False, True),
             ("63 proven units", proven, 63, 1, False, False),
             ("non-singleton required dim", proven, 64, 2, False, False),
             ("aliased live-ins", proven, 64, 1, True, False),
             ("no proof", unproven, 64, 1, False, False)]
    for name, module, hi, hj, aliased, team in cases:
        def arguments():
            out = np.arange(128, dtype=np.int64)
            return [out, out if aliased else 3 * out, hi, hj]

        expected, got = arguments(), arguments()
        interp = Interpreter(module)
        interp.run("main", expected)
        engine = NativeEngine(module)   # a module's program, and stats, are shared
        engine.run("main", got)
        assert modes[-1] == (hi * hj, team), (name, modes[-1])
        np.testing.assert_array_equal(got[0], expected[0], err_msg=name)
        assert report_fields(engine.report) == report_fields(interp.report), name
    for module, dispatches in ((proven, 4), (unproven, 1)):
        stats = NativeEngine(module).native_stats
        assert (stats["native_dispatches"], stats["bailouts"]) == (dispatches, 0)


def _snapshot_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "emitted_snapshot", ROOT / "benchmarks" / "emitted_snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestOneFlagTwoLoops:
    @needs_cc
    def test_only_a_proven_dispatch_of_64_units_takes_the_team(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "from tests.runtime.test_native import _mode_soak; _mode_soak()"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OMP_NUM_THREADS="2",
                     PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)])))
        assert done.returncode == 0, done.stderr[-2000:]

    def test_a_body_is_printed_once_per_loop_that_can_run(self, monkeypatch):
        """A region's body is in its unit twice under a store-safety proof —
        the pragma loop and a plain loop that holds no directive — and once,
        in a function with no directive at all, without one: over the
        snapshot tool's 72 lowered modules (every region of which has a
        proof) and a hand-built span that stores through a callee."""
        from repro.runtime.codegen_c import assemble_unit
        from repro.runtime.compiler import program_for

        tool = _snapshot_tool()
        monkeypatch.setattr(sys, "path", list(sys.path))   # _modules prepends
        monkeypatch.delenv("REPRO_CACHE", raising=False)   # ... and pops this
        modules = [(label, build, entry) for label, build, entry, _ in tool._modules(ROOT)
                   if not tool._unlowered(label)]
        assert len(modules) == 72
        modules.append(("no proof", lambda: _row_module(through_call=True)[0], "main"))
        copies = []
        for label, build, entry in modules:
            module = build()
            program = program_for(module, XEON_8375C, "native")
            program.function(module.lookup(entry))
            plans = [plan for _, plan, tier in program.regions if tier == "native"]
            functions = [source for unit in program.native_units
                         for source in unit.sources]
            assert len(plans) == len(functions) >= 1, label
            unit = assemble_unit(functions)
            assert tool.body_copies(unit) == [
                1 if plan.parallel_proof is None else 2 for plan in plans], label
            copies += tool.body_copies(unit)
            for function in functions:
                *pragma_loops, plain = function.split(tool.SPAN_LOOP)[1:]
                body = plain[:plain.rindex("    }\n    outf[0]")]
                assert unit.count(body) == 1 + len(pragma_loops), label
                assert "#pragma" not in plain, label
                assert function.count("#pragma") == len(pragma_loops), label
            assert program.native_stats["simd_regions"] == sum(
                "parallel for simd" in function for function in functions), label
        assert copies.count(2) == len(copies) - 1 and copies[-1] == 1

    def test_no_mode_bitmask_is_left_in_the_sources(self):
        for path in (ROOT / "src").rglob("*.py"):
            assert "mode & " not in path.read_text(), path


def _freeing_module():
    """``main(out, drop)``: a scratch buffer, freed when ``drop``, then read
    by a parallel loop — the region's live-in is a freed storage."""
    from repro.dialects import memref as memref_d, scf
    from repro.ir import F32, I1, memref, verify
    from tests.helpers import (build_function, build_parallel, close_parallel,
                               finish_function)

    module, fn, builder = build_function(
        "main", [memref((64,), F32), I1], ["out", "drop"])
    scratch = builder.insert(memref_d.AllocOp(memref((64,), F32))).result
    branch = builder.insert(scf.IfOp(fn.arguments[1], with_else=False))
    then = branch.then_block
    then.append(memref_d.DeallocOp(scratch))
    then.append(scf.YieldOp())
    loop, inner = build_parallel(builder, 64)
    index = loop.induction_vars[0]
    loaded = inner.insert(memref_d.LoadOp(scratch, [index])).result
    inner.insert(memref_d.StoreOp(loaded, fn.arguments[0], [index]))
    close_parallel(inner)
    finish_function(builder)
    verify(module)
    return module


TWO_KERNEL_CUDA = """
__global__ void scale(float* out, float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) { out[gid] = in[gid] * 3.0f + 0.125f; }
}
__global__ void blend(float* out, float* a, float* b, int n, float w) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) { out[gid] = a[gid] * w + b[gid]; }
}
void launch_scale(float* out, float* in, int n) {
    scale<<<(n + 31) / 32, 32>>>(out, in, n);
}
void launch_blend(float* out, float* a, float* b, int n, float w) {
    blend<<<(n + 31) / 32, 32>>>(out, a, b, n, w);
}
void launch_both(float* out, float* a, float* b, int n, float w) {
    scale<<<(n + 31) / 32, 32>>>(b, a, n);
    blend<<<(n + 31) / 32, 32>>>(out, a, b, n, w);
}
"""


class TestPackPool:
    """Dispatch writes live-ins into a per-region free list of ctypes packs;
    programs are cached on the module, so threads share the list."""

    @pytest.fixture()
    def packs(self, monkeypatch):
        """Every pack built while the test runs."""
        from repro.runtime import native

        built = []
        new_pack = native._RegionHandle._new_pack

        def counted(handle):
            built.append(new_pack(handle))
            return built[-1]

        monkeypatch.setattr(native._RegionHandle, "_new_pack", counted)
        return built

    @needs_cc
    def test_bailed_dispatch_returns_its_pack(self, packs):
        """A dispatch refused mid-way (scalars written, then a freed buffer)
        puts its pack back: the next dispatches reuse it."""
        module = _freeing_module()
        engine = NativeEngine(module)
        out = np.ones(64, dtype=np.float32)
        engine.run("main", [out, False])
        assert not out.any() and len(packs) == 1
        with pytest.raises(InterpreterError, match="use after free"):
            engine.run("main", [out, True])
        engine.run("main", [out, False])
        region, = engine.regions
        assert region["bailouts"] == {"freed": 1}
        assert engine.native_stats["native_dispatches"] == 2
        assert len(packs) == 1

    @needs_cc
    def test_threads_share_one_program(self, packs):
        """Eight threads x 200 runs, a fresh executor per run as the daemon
        makes them, two kernels, inputs seeded per thread: every output and
        CostReport equals the single-threaded reference, and no thread ever
        sees another's pack (a shared pack would mix their live-ins)."""
        import threading

        from repro.runtime import make_executor

        threads, runs, n = 8, 200, 160
        module = compile_cuda(TWO_KERNEL_CUDA, filename="pack_pool.cu",
                              cuda_lower=True, cache="shared")

        def inputs(seed):
            rng = np.random.default_rng(seed)
            a, b = (rng.random(n).astype(np.float32) for _ in range(2))
            zeros = np.zeros(n, dtype=np.float32)
            return {"launch_scale": [zeros, a, n],
                    "launch_blend": [zeros.copy(), a, b, n, 0.5 + seed]}

        def run(entry, arguments):
            arguments = [a.copy() if isinstance(a, np.ndarray) else a
                         for a in arguments]
            executor = make_executor(module, engine="native")
            executor.run(entry, arguments)
            assert executor.engine_name == "native"
            return arguments[0].tobytes(), report_fields(executor.report)

        references = {seed: {entry: run(entry, arguments)
                             for entry, arguments in inputs(seed).items()}
                      for seed in range(threads)}
        assert len({reference["launch_blend"][0]
                    for reference in references.values()}) == threads
        failures = []

        def worker(seed):
            try:
                mine = inputs(seed)
                for index in range(runs):
                    entry = ("launch_scale", "launch_blend")[index % 2]
                    if run(entry, mine[entry]) != references[seed][entry]:
                        failures.append((seed, index, entry))
            except Exception as exc:  # surfaced by the assertion below
                failures.append((seed, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(seed,))
                    for seed in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert not failures
        # one pack per concurrently dispatching thread per region, at most
        assert 2 <= len(packs) <= 2 * threads

    @needs_cc
    def test_threads_start_cold(self):
        """Nothing compiled when eight threads first launch (two tenants'
        first requests for one kernel): a function's translation unit is
        known to the other threads' up-front seal only once all its regions
        are in it, so no unit seals half-built — every run is native,
        nothing bails out, outputs and CostReports equal the interpreter's."""
        import threading

        from repro.runtime import invalidate_compiled, make_executor

        threads, n = 8, 160
        entries = ("launch_both", "launch_scale", "launch_blend")
        module = compile_cuda(TWO_KERNEL_CUDA, filename="pack_pool.cu",
                              cuda_lower=True, cache="shared")

        def run(entry, engine):
            rng = np.random.default_rng(3)
            a, b = (rng.random(n).astype(np.float32) for _ in range(2))
            arguments = [np.zeros(n, dtype=np.float32), a, b, n, 0.75]
            if entry == "launch_scale":
                del arguments[2], arguments[3:]
            executor = make_executor(module, engine=engine)
            executor.run(entry, arguments)
            assert getattr(executor, "engine_name", engine) == engine
            return ([a.tobytes() for a in arguments[:3]
                     if isinstance(a, np.ndarray)],
                    report_fields(executor.report))

        references = {entry: run(entry, "interp") for entry in entries}
        failures = []
        for _ in range(6):
            invalidate_compiled(module)
            gate = threading.Barrier(threads)

            def worker(seed):
                try:
                    gate.wait(timeout=60)
                    for index in range(6):
                        entry = entries[(seed + index) % 3]
                        if run(entry, "native") != references[entry]:
                            failures.append((seed, index, entry))
                except Exception as exc:  # surfaced by the assertion below
                    failures.append((seed, repr(exc)))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                pool = [threading.Thread(target=worker, args=(seed,),
                                         daemon=True)
                        for seed in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in pool)
            assert not failures
            engine = NativeEngine(module)
            assert engine.native_stats["bailouts"] == 0
            assert {region["tier"] for region in engine.regions} == {"native"}
            assert {region["function"] for region in engine.regions} == set(entries)


class TestArtifactCache:
    @needs_cc
    def test_warm_unit_skips_the_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = NativeEngine(_lowered(QUICK_CUDA))
        first.run("launch", _quick_args())
        assert first.native_stats["units_ready"] == 1
        assert list((tmp_path / "native").glob("*.so"))
        second = NativeEngine(_lowered(QUICK_CUDA))
        second.run("launch", _quick_args())
        stats = second.native_stats
        assert stats["units_ready"] == 1
        assert stats["artifact_hits"] == 1

    @needs_cc
    def test_corrupt_so_recompiles_instead_of_crashing(self, tmp_path, monkeypatch):
        """A corrupted cached artifact (e.g. a partial write from another
        process) must fail the dlopen, be invalidated and recompiled — never
        crash.  The warm artifact is produced by a *separate* process: the
        same process would get its own already-mapped library back from the
        dlopen cache and never touch the corrupt bytes."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        warm = (
            "from repro.frontend import compile_cuda\n"
            "from repro.transforms import PipelineOptions\n"
            "from repro.runtime import NativeEngine\n"
            "import numpy as np\n"
            f"module = compile_cuda({QUICK_CUDA!r}, cuda_lower=True,\n"
            "    options=PipelineOptions.all_optimizations())\n"
            "engine = NativeEngine(module)\n"
            "engine.run('launch', [np.zeros(8, dtype=np.float32),\n"
            "    np.ones(8, dtype=np.float32), 8])\n"
            "assert engine.native_stats['units_ready'] == 1\n"
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        environment["REPRO_CACHE"] = "1"
        environment["REPRO_CACHE_DIR"] = str(tmp_path)
        completed = subprocess.run([sys.executable, "-c", warm],
                                   capture_output=True, env=environment,
                                   timeout=300)
        assert completed.returncode == 0, completed.stderr.decode()
        artifacts = list((tmp_path / "native").glob("*.so"))
        assert artifacts
        for path in artifacts:
            path.write_bytes(b"\x7fELF this is not a shared object")
        module = _lowered(QUICK_CUDA)
        engine = _assert_native_matches_interp(module, "launch", _quick_args, 0)
        stats = engine.native_stats
        assert stats["corrupt_artifacts"] == 1
        assert stats["units_ready"] == 1
        assert stats["native_dispatches"] >= 1

    def test_unit_key_covers_source_and_toolchain(self, monkeypatch):
        key = unit_key("int x;")
        assert unit_key("int x;") == key
        assert unit_key("int y;") != key
        monkeypatch.setenv(CC_ENV_VAR, "cc -O2")
        assert unit_key("int x;") != key

    def test_deterministic_source_across_programs(self):
        """Two programs over identical modules must generate identical C —
        the content-addressed key depends on it."""
        from repro.dialects import omp as omp_d
        from repro.runtime.codegen_c import RegionCodegen
        from repro.runtime.compiler import _FunctionCompiler, program_for

        def region_source():
            module = _lowered(QUICK_CUDA)
            program = program_for(module, XEON_8375C, "native")
            fn = module.lookup("launch")
            compiler = _FunctionCompiler(program, fn)

            def find(block):
                for op in block.operations:
                    if isinstance(op, omp_d.OmpWsLoopOp):
                        return op
                    for region in op.regions:
                        for inner in region.blocks:
                            found = find(inner)
                            if found is not None:
                                return found
                return None

            wsloop = find(fn.body_block)
            codegen = RegionCodegen(program, program.plans.plan(wsloop), "r",
                                    compiler.slot)
            return codegen.emit_span()[0]

        assert region_source() == region_source()


@pytest.fixture
def sealed_units(monkeypatch):
    """The ``(unit key, assembled C source)`` of every native unit sealed
    during the test, in order."""
    from repro.runtime import native

    units = []
    real_unit_key = native.unit_key

    def spy(source):
        units.append((real_unit_key(source), source))
        return units[-1][0]

    monkeypatch.setattr(native, "unit_key", spy)
    return units


class TestMachineIndependentArtifacts:
    """The emitted C holds no machine-model constant (the charges arrive as
    the ``K`` argument), so one ``.so`` per kernel serves every machine."""

    @needs_cc
    @pytest.mark.parametrize("seed", [18, 36])
    def test_charges_that_coincide_on_one_machine_keep_their_own_slot(
            self, seed, sealed_units):
        """Two blocks of these kernels are charged the same on the Xeon and
        differently on the A64FX: one ``K`` slot per charge *site*, or the C
        would depend on the machine through which slots merge."""
        fuzz = generate_fuzz_kernel(seed)
        for machine in (XEON_8375C, A64FX_CMG):
            engine = NativeEngine(fuzz.compile(), machine=machine)
            engine.run(fuzz.entry, fuzz.make_args())
            assert engine.native_stats["native_dispatches"] >= 1
        (_, xeon), (_, a64fx) = sealed_units
        assert xeon == a64fx and "K[1]" in xeon

    @needs_cc
    def test_cache_filled_under_one_machine_is_warm_under_the_other(
            self, tmp_path, monkeypatch, sealed_units):
        # REPRO_CC is part of the unit key, so the same command builds under
        # the first machine and must not be reached under the second.
        forbid = tmp_path / "forbid-cc"
        guard = tmp_path / "guarded-cc"
        guard.write_text(f'#!/bin/sh\n[ -e "{forbid}" ] && exit 97\nexec cc "$@"\n')
        guard.chmod(0o755)
        monkeypatch.setenv(CC_ENV_VAR, str(guard))
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def run_suite(machine):
            del sealed_units[:]
            totals = dict.fromkeys(("units_ready", "artifact_hits", "compile_errors",
                                    "native_dispatches", "bailouts"), 0)
            for name in sorted(BENCHMARKS):
                bench = BENCHMARKS[name]
                engine = NativeEngine(
                    bench.compile_cuda(PipelineOptions.all_optimizations()),
                    machine=machine)
                engine.run(bench.entry, bench.make_inputs(1))
                for counter in totals:
                    totals[counter] += engine.native_stats[counter]
            return [key for key, _ in sealed_units], totals

        cold_keys, cold = run_suite(XEON_8375C)
        assert cold["units_ready"] == len(cold_keys) == len(BENCHMARKS)
        assert cold["artifact_hits"] == 0
        forbid.touch()
        warm_keys, warm = run_suite(A64FX_CMG)
        assert warm_keys == cold_keys
        assert warm["artifact_hits"] == warm["units_ready"] == len(cold_keys)
        assert warm["compile_errors"] == warm["bailouts"] == 0
        assert warm["native_dispatches"] == cold["native_dispatches"] >= len(cold_keys)
        assert len(list((tmp_path / "cache" / "native").glob("*.so"))) == len(cold_keys)


class TestArtifactEviction:
    def _store_dummy(self, cache, key, age):
        path = cache.store(key, lambda temp: temp.write_bytes(b"dummy"))
        os.utime(path, (age, age))
        return path

    def test_evicts_oldest_beyond_capacity(self, tmp_path):
        cache = NativeArtifactCache(capacity=2, directory=tmp_path)
        old = self._store_dummy(cache, "a" * 8, 1_000)
        mid = self._store_dummy(cache, "b" * 8, 2_000)
        new = self._store_dummy(cache, "c" * 8, 3_000)
        cache.evict()
        assert not old.exists()
        assert mid.exists() and new.exists()

    def test_lookup_refreshes_age(self, tmp_path):
        cache = NativeArtifactCache(capacity=2, directory=tmp_path)
        kept = self._store_dummy(cache, "a" * 8, 1_000)
        self._store_dummy(cache, "b" * 8, 2_000)
        assert cache.lookup("a" * 8) is not None  # refreshes mtime
        self._store_dummy(cache, "c" * 8, 3_000)
        cache.evict()
        assert kept.exists()
        assert not cache.path_for("b" * 8).exists()

    def test_pinned_artifacts_survive_eviction(self, tmp_path):
        cache = NativeArtifactCache(capacity=1, directory=tmp_path)
        pinned = self._store_dummy(cache, "a" * 8, 1_000)
        cache.pin("a" * 8)
        self._store_dummy(cache, "b" * 8, 2_000)
        self._store_dummy(cache, "c" * 8, 3_000)
        cache.evict()
        assert pinned.exists()

    def test_invalidate_drops_artifact(self, tmp_path):
        cache = NativeArtifactCache(capacity=4, directory=tmp_path)
        path = self._store_dummy(cache, "a" * 8, 1_000)
        cache.invalidate("a" * 8)
        assert not path.exists()


class TestLazyRegistry:
    def _run(self, code, **env):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.getcwd(), "src"),
             environment.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        environment.update(env)
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, env=environment, timeout=120)

    def test_membership_before_engine_import(self):
        """The engine table is static: importing the package loads no engine
        module, and which names are valid does not depend on which engine
        modules have been imported."""
        code = (
            "import sys\n"
            "import repro.runtime as rt\n"
            "for name in ('engine', 'native', 'compiler', 'vectorizer',\n"
            "             'multicore', 'interpreter', 'autotune'):\n"
            "    assert f'repro.runtime.{name}' not in sys.modules, name\n"
            "assert rt.ENGINE_NATIVE == 'native'\n"
            "assert 'native' in rt.ENGINES\n"
            "assert 'no-such-engine' not in rt.ENGINES\n"
        )
        completed = self._run(code)
        assert completed.returncode == 0, completed.stderr.decode()

    def test_env_selected_engine_resolves_before_registration(self):
        """REPRO_ENGINE=native validates and builds whichever module gets
        imported first — there is no registration to race."""
        code = (
            "import repro.runtime.interpreter\n"
            "import repro.runtime as rt\n"
            "assert rt.engine_names()[:3] == "
            "('compiled', 'vectorized', 'multicore')\n"
            "assert rt.resolve_engine() == 'native'\n"
            "from repro.dialects import func\n"
            "executor = rt.make_executor(func.ModuleOp())\n"
            "assert type(executor.inner).__name__ == 'NativeEngine'\n"
        )
        completed = self._run(code, REPRO_ENGINE="native")
        assert completed.returncode == 0, completed.stderr.decode()

    def test_native_does_not_import_the_fork_pool_engine(self):
        """The store-safety analysis lives in ``repro.analysis``: the engine
        that carries the traffic must not pull in the multicore engine,
        shared memory or multiprocessing to reach it."""
        code = (
            "import sys\n"
            "import repro.runtime.native\n"
            "for name in ('repro.runtime.multicore', 'repro.runtime.sharedmem',\n"
            "             'multiprocessing.shared_memory'):\n"
            "    assert name not in sys.modules, name\n"
        )
        completed = self._run(code)
        assert completed.returncode == 0, completed.stderr.decode()

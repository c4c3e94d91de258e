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
* dispatch bail-outs — read-only outputs, mismatched buffers and missing
  toolchains degrade to the compiled base plans with identical semantics,
  each refusal under its reason, while zero-size, read-only, offset and
  one-byte buffers dispatch natively with the data pointers numpy reports;
* the warm path's Python work, counted in calls rather than timed;
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
from repro.runtime.codegen_c import LANES
from repro.runtime.compiler import UNLOWERED, CompiledEngine
from repro.runtime.errors import ZERO_STEP
from repro.runtime.memory import MemRefStorage
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


#: QUICK_CUDA on a fixed grid: ``n`` reaches the region as it was passed,
#: not through the grid arithmetic.
FIXED_GRID_CUDA = QUICK_CUDA.replace("scale<<<(n + 31) / 32, 32>>>", "scale<<<8, 32>>>")


def _quick_args(n=256):
    rng = np.random.default_rng(7)
    data = rng.random(n).astype(np.float32)
    return [np.zeros(n, dtype=np.float32), data, n]


# live-ins of ``launch(out, in, n)`` that break the contract its C was
# specialized for: each edits ``_quick_args()`` in place.
def _in_as_float64(arguments):
    arguments[1] = arguments[1].astype(np.float64)


def _in_as_matrix(arguments):
    arguments[1] = arguments[1].reshape(16, 16)


def _in_strided(arguments):
    arguments[1] = MemRefStorage(np.repeat(arguments[1], 2)[::2])


def _in_shared(arguments):
    arguments[1] = MemRefStorage(arguments[1], "shared")


def _in_big_endian(arguments):
    arguments[1] = arguments[1].astype(">f4")


def _out_read_only(arguments):
    arguments[0].setflags(write=False)


def _out_as_float64(arguments):
    arguments[0] = arguments[0].astype(np.float64)


def _n_nan(arguments):
    arguments[2] = float("nan")


#: QUICK_CUDA's body as a uniform loop carrying a lane-varying chain: a
#: lane-blocked span.
DAMP_CUDA = QUICK_CUDA.replace(
    "out[gid] = in[gid] * 2.0f + 1.0f;",
    "float acc = 0.0f;\n"
    "        for (int k = 0; k < 4; ++k) acc = acc * 0.5f + in[gid];\n"
    "        out[gid] = acc;")


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
        the interpreter, bit-identically, and says why."""
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
            assert region["tier"] == "interp"
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
        from repro.runtime import resilience
        from repro.runtime.errors import ToolchainError

        module = _lowered(QUICK_CUDA)
        engine = NativeEngine(module)
        engine._resilience_strict = True
        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-strict-cc")
        log = resilience.global_log()
        log.clear()
        with pytest.raises(ToolchainError, match="not found on PATH"):
            engine.run("launch", _quick_args())
        # raised before the entry's unit is built: no unit records a degrade
        assert log.events(op="native.cc") == []
        assert engine._program.native_units == []

    @needs_cc
    def test_a_passed_probe_does_not_vouch_for_another_compiler(self, monkeypatch):
        """After a strict run passed the probe, a strict run of a module with
        no spans (no unit to fail) under a compiler that does not exist
        still raises the probe's error for that compiler."""
        from repro.runtime.errors import ToolchainError

        passing = NativeEngine(_lowered(QUICK_CUDA))
        passing._resilience_strict = True
        passing.run("launch", _quick_args())
        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-spanless-cc")
        module = _lowered("void launch(float* out, int n) { out[0] = 2.0f; }")
        engine = NativeEngine(module)
        engine._resilience_strict = True
        out = np.zeros(4, dtype=np.float32)
        with pytest.raises(ToolchainError, match="repro-spanless-cc"):
            engine.run("launch", [out, 4])
        assert engine._program.native_units == [] and not out.any()


class TestDispatchBailouts:
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
        matrix = NativeEngine(module)
        reshaped = _quick_args()
        _in_as_matrix(reshaped)
        matrix.run("launch", reshaped)
        region, = matrix.regions
        assert region["bailouts"] == {"rank": 1}

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
        assert region["bailouts"] == {"rank": 1, "read-only": 1, "dtype": 1}
        assert engine.native_stats["bailouts"] == 3
        assert engine.native_stats["native_dispatches"] == 1

    @needs_cc
    @pytest.mark.parametrize("source, faults, reason, raises", [
        (QUICK_CUDA, [_in_as_float64], "dtype", None),
        (QUICK_CUDA, [_in_big_endian], "dtype", None),
        (QUICK_CUDA, [_in_as_matrix], "rank", None),
        (QUICK_CUDA, [_in_strided], "layout", None),
        (QUICK_CUDA, [_in_shared], "space", None),
        (QUICK_CUDA, [_out_read_only], "read-only", ValueError),
        (FIXED_GRID_CUDA, [_n_nan], "scalar", None),
        # ``in`` is the first buffer the dispatch checks, so its fault names
        # the refusal whatever ``out``'s is
        (QUICK_CUDA, [_out_read_only, _in_as_float64], "dtype", ValueError),
        (QUICK_CUDA, [_out_as_float64, _in_shared], "space", None),
    ], ids=["dtype", "big-endian", "rank", "layout", "space", "read-only", "scalar",
            "first-of-two-dtype", "first-of-two-space"])
    def test_each_refusal_keeps_its_reason(self, source, faults, reason, raises):
        """The live-ins a test can hand ``launch(out, in, n)`` that break the
        contract its C was specialized for, each counted under its reason
        (one reason per dispatch: the scalars first, then the buffers in the
        order the dispatch checks them), and the base plan's run after it."""
        module = _lowered(source)
        engine = NativeEngine(module)
        engine.run("launch", _quick_args())
        handle, = [region.handle for region in engine._program.regions]
        assert [slot for slot, *_ in handle.contract.buffers] == [1, 0]
        arguments = _quick_args()
        for fault in faults:
            fault(arguments)
        if raises is None:
            engine.run("launch", arguments)
        else:
            with pytest.raises(raises):
                engine.run("launch", arguments)
        region, = engine.regions
        assert region["bailouts"] == {reason: 1}
        assert engine.native_stats["native_dispatches"] == 1

    @staticmethod
    def _assert_refused_at_build(source, detail):
        """A unit that does not build hands its region back to the compiled
        engine at plan time: the plan says why, and no dispatch is refused."""
        engine = _assert_native_matches_interp(_lowered(source), "launch",
                                               _quick_args, 0)
        region, = engine.regions
        assert region["tier"] == "closures"
        refusal, = region["refusals"]
        assert refusal.startswith("native: unit did not build: ") and detail in refusal
        assert "\n" not in refusal
        assert region["bailouts"] == {}
        assert (region["width"], region["opt_level"]) == (None, None)
        stats = engine.native_stats
        assert stats["native_regions"] == stats["native_dispatches"] == 0
        assert stats["fallback_regions"] == 1 and stats["bailouts"] == 0

    @needs_cc
    def test_a_unit_that_failed_to_seal_refuses_by_name(self, monkeypatch):
        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-cc")
        self._assert_refused_at_build(QUICK_CUDA, "not found on PATH")

    @needs_cc
    def test_a_unit_whose_cc_fails_refuses_by_name(self, monkeypatch):
        """The same under an injected permanent ``cc`` failure (a constant of
        its own keeps the unit's artifact cold)."""
        from repro.runtime import resilience

        monkeypatch.setattr(resilience, "DEFAULT_BACKOFF_S", 0.0)
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
        resilience.reset_faults()
        try:
            self._assert_refused_at_build(QUICK_CUDA.replace("1.0f", "1.375f"),
                                          "injected fault at native.cc")
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            resilience.reset_faults()

    @needs_cc
    def test_a_unit_cc_rejects_is_refused_by_its_stderr(self, tmp_path, monkeypatch):
        """A ``REPRO_CC`` that builds the dispatcher but fails every unit:
        the refusal carries the compiler's first line of stderr."""
        cc = tmp_path / "no-units-cc"
        cc.write_text('#!/bin/sh\ncase "$*" in *repro-native-*.c*)\n'
                      '    echo "no units here" >&2; echo "more" >&2; exit 1;;\n'
                      'esac\nexec cc "$@"\n')
        cc.chmod(0o755)
        monkeypatch.setenv(CC_ENV_VAR, str(cc))
        self._assert_refused_at_build(QUICK_CUDA, "native compile failed: no units here")

    @needs_cc
    def test_two_threads_building_one_failing_unit_both_fall_back(self, monkeypatch):
        """Two threads compile one function cold at once, and neither unit
        builds: each failed unit refuses only its own regions, no thread
        raises, and both runs equal the interpreter's."""
        import threading

        from repro.runtime import native

        monkeypatch.setenv(CC_ENV_VAR, "/nonexistent/repro-cc")
        module = _lowered(QUICK_CUDA)
        expected = _quick_args()
        interp = Interpreter(module)
        interp.run("launch", expected)
        together = threading.Barrier(2, timeout=60)
        build = native.NativeUnit.build

        def build_together(unit, fc):
            together.wait()  # both functions compiled, neither published
            build(unit, fc)

        monkeypatch.setattr(native.NativeUnit, "build", build_together)
        engines = [NativeEngine(module) for _ in range(2)]
        results, errors = [None, None], []

        def run(index):
            try:
                arguments = _quick_args()
                engines[index].run("launch", arguments)
                results[index] = (arguments[0].tobytes(),
                                  report_fields(engines[index].report))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == [(expected[0].tobytes(), report_fields(interp.report))] * 2
        rows = engines[0].regions
        assert [(row["tier"], row["width"]) for row in rows] == [("closures", None)] * 2
        stats = engines[0].native_stats
        assert stats["native_regions"] == stats["native_dispatches"] == 0
        assert stats["fallback_regions"] == 2

    @needs_cc
    @pytest.mark.parametrize("case", ["zero-size", "read-only-input", "offset-views",
                                      "bool-and-int8"])
    def test_dispatches_natively_and_exactly(self, case):
        """Buffers the marshalling takes different paths for: zero-size ones
        and a read-only input (whose address is ``ndarray.ctypes.data``, as
        the buffer protocol refuses them), views that start inside their
        base array, and one-byte elements.  Each run dispatches natively and
        equals the interpreter in every argument and in the CostReport."""
        rng = np.random.default_rng(11)
        entry, module = "launch", _lowered(QUICK_CUDA)
        if case == "zero-size":
            def make_args():
                return [np.zeros(0, dtype=np.float32), np.zeros(0, dtype=np.float32), 0]
        elif case == "read-only-input":
            def make_args():
                arguments = _quick_args()
                arguments[1].setflags(write=False)
                return arguments
        elif case == "offset-views":
            data = rng.random(80).astype(np.float32)

            def make_args():
                return [np.zeros(80, dtype=np.float32)[3:67], data.copy()[3:67], 64]
        else:
            entry, module = "main", _byte_module()
            flags = rng.integers(0, 2, 64).astype(np.int8)
            data = rng.integers(-60, 60, 64).astype(np.int8)

            def make_args():
                return [flags.copy(), data.copy(), np.zeros(64, dtype=np.int8)]
        interp_args, native_args = make_args(), make_args()
        interp = Interpreter(module)
        interp.run(entry, interp_args)
        engine = NativeEngine(module)
        engine.run(entry, native_args)
        for expected, got in zip(interp_args, native_args):
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(expected, got)
        assert report_fields(interp.report) == report_fields(engine.report)
        region, = engine.regions
        assert region["bailouts"] == {}
        assert engine.native_stats["native_dispatches"] == 1

    @needs_cc
    def test_c_receives_each_buffers_data_pointer(self):
        """The address C receives for each buffer is ``ndarray.ctypes.data``
        of its array: a writable offset view's and a read-only input's."""
        from tests.region_spy import RegionSpy

        engine = NativeEngine(_lowered(QUICK_CUDA))
        engine.run("launch", _quick_args())
        handle, = [region.handle for region in engine._program.regions]
        buffers = handle.contract.buffers
        spy = RegionSpy()
        spy.wrap(handle.unit, buffers=len(buffers))
        out = np.zeros(80, dtype=np.float32)[3:67]
        data = np.random.default_rng(5).random(64).astype(np.float32)
        data.setflags(write=False)
        engine.run("launch", [out, data, 64])
        by_slot = {0: out, 1: data}
        assert spy.pointers == [[by_slot[slot].ctypes.data for slot, *_ in buffers]]
        np.testing.assert_array_equal(out, data * np.float32(2.0) + np.float32(1.0))

    @needs_cc
    def test_an_int_outside_int64_refuses_as_scalar(self):
        """``bad`` = 2**64 + 196 does not fit the C's int64: the dispatch
        refuses it as ``scalar`` and the base plan runs on the real value,
        equal to ``interp`` on every engine (196, wrapped to 64 bits, would
        hit the last iteration's zero step)."""
        case = (0, 13, 1, 5, 2**64 + 196)
        engine = NativeEngine(_grid_module()[0])
        engine.run("main", _grid_args(case))
        region, = engine.regions
        assert region["bailouts"] == {"scalar": 1}
        _assert_engines_match_interp(_grid_module()[0], case)

    @needs_cc
    def test_an_unconvertible_bound_refuses_before_a_zero_step(self):
        """A zero step in the first dim and an upper bound of 2**64 in the
        second: the dispatch refuses as ``scalar``, since a span's bounds
        that are not constants are also its int live-ins, which it converts
        before any buffer or step."""
        from repro.dialects import memref as memref_d, scf
        from repro.ir import F32, INDEX, Builder, memref, verify
        from tests.helpers import (build_function, close_parallel, const_index,
                                   finish_function)

        row = memref((16,), F32)
        module, fn, b = build_function("main", [row, row, INDEX, INDEX, INDEX])
        out, source, hi, st, hj = fn.arguments
        zero, one = const_index(b, 0), const_index(b, 1)
        span = b.insert(scf.ParallelOp([zero, zero], [hi, hj], [st, one]))
        inner = Builder.at_end(span.body)
        index = span.induction_vars[0]
        inner.insert(memref_d.StoreOp(inner.insert(memref_d.LoadOp(source, [index])).result,
                                      out, [index]))
        close_parallel(inner)
        finish_function(b)
        verify(module)
        engine = NativeEngine(module)
        with pytest.raises(InterpreterError, match=ZERO_STEP):
            engine.run("main", [np.zeros(16, np.float32), np.ones(16, np.float32),
                                13, 0, 2**64])
        region, = engine.regions
        assert region["bailouts"] == {"scalar": 1}

    @pytest.mark.parametrize("case, stored", [
        ((0, 13, 0, 5, -1), None), ((13, 0, -1, 5, -1), 65), ((0, 13, -1, 5, -1), 0)],
        ids=["zero", "negative", "negative-empty"])
    def test_a_span_step_of_any_sign_runs_like_interp(self, case, stored):
        """A zero step on a parallel span raises one typed error on every
        engine (the native dispatch refuses it as ``step``, so C never
        divides by it); a negative one keeps ``range``'s semantics."""
        got = _assert_engines_match_interp(_grid_module()[0], case)
        if stored is None:
            assert got == InterpreterError(ZERO_STEP).args
        else:
            assert int((got != -7).sum()) == stored
        if HAVE_CC and stored is None:
            engine = NativeEngine(_grid_module()[0])
            with pytest.raises(InterpreterError, match=ZERO_STEP):
                engine.run("main", _grid_args(case))
            region, = engine.regions
            assert region["bailouts"] == {"step": 1}


class TestWarmPathGuard:
    """The Python work of one warm native run, counted instead of timed, so a
    change that adds per-dispatch work fails on any host: the calls of
    Python functions and of builtins (``sys.setprofile``) in one warm
    ``NativeEngine.run`` of three small Rodinia kernels, whose runs are
    mostly that work, and the construction of numpy's ``ndarray.ctypes``
    wrapper, which no buffer's address needs."""

    #: calls of one warm scale-1 run (and of the ``lambda`` that makes it):
    #: the run, which folds the counters itself, its lookups of the compiled
    #: entry and of its warm call and the one dispatcher call
    #: (``_dispatch.call``).  Upper bounds, at the counts they were pinned at.
    CALLS = {"nw": 6, "lud": 6, "bfs": 6}

    #: the same of one warm *compiled* run (``CompiledEngine.run``, the path
    #: of a refused call and of a function with host control flow; and of
    #: the ``lambda`` calling it): the run shell, argument wrapping, the
    #: generated host code and one region dispatch (one ``_dispatch.call``)
    #: with its accounting.
    COMPILED_CALLS = {"nw": 34, "lud": 28, "bfs": 41}

    @staticmethod
    def _profiled(run):
        """(calls, ``ndarray.ctypes`` wrappers built) of ``run()``."""
        wrapper = type(np.empty(1).ctypes).__init__.__code__
        calls, wrappers = [], []

        def profile(frame, event, arg):
            if event == "c_call":
                calls.append(arg.__qualname__)
            elif event == "call":
                calls.append(frame.f_code.co_name)
                if frame.f_code is wrapper:
                    wrappers.append(frame)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return calls, len(wrappers)

    @needs_cc
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_a_warm_run_makes_few_python_calls(self, name):
        bench = BENCHMARKS[name]
        engine = NativeEngine(bench.compile_cuda())
        engine.run(bench.entry, bench.make_inputs(1))
        arguments = bench.make_inputs(1)
        calls, wrappers = self._profiled(lambda: engine.run(bench.entry, arguments))
        assert len(calls) <= self.CALLS[name], calls
        assert wrappers == 0
        assert engine.native_stats["bailouts"] == 0
        assert engine.native_stats["native_dispatches"] == 2

    @needs_cc
    def test_a_read_only_input_builds_no_wrapper(self):
        """The counter sees the wrapper (built here once, outside the run),
        and a read-only input — ``nw``'s ``reference`` — is taken through
        the buffer protocol like any other, with no wrapper."""
        bench = BENCHMARKS["nw"]
        engine = NativeEngine(bench.compile_cuda())
        engine.run(bench.entry, bench.make_inputs(1))
        arguments = bench.make_inputs(1)
        arguments[1].setflags(write=False)
        calls, wrappers = self._profiled(lambda: engine.run(bench.entry, arguments))
        assert wrappers == 0 and len(calls) <= self.CALLS["nw"]
        calls, wrappers = self._profiled(
            lambda: CompiledEngine.run(engine, bench.entry, arguments))
        assert wrappers == 0 and len(calls) <= self.COMPILED_CALLS["nw"]
        _, wrappers = self._profiled(lambda: arguments[1].ctypes.data)
        assert wrappers == 1
        assert engine.native_stats["bailouts"] == 0

    @needs_cc
    @pytest.mark.parametrize("name", sorted(COMPILED_CALLS))
    def test_a_warm_compiled_run_makes_few_python_calls(self, name):
        bench = BENCHMARKS[name]
        engine = NativeEngine(bench.compile_cuda())
        engine.run(bench.entry, bench.make_inputs(1))
        arguments = bench.make_inputs(1)
        calls, wrappers = self._profiled(
            lambda: CompiledEngine.run(engine, bench.entry, arguments))
        assert len(calls) <= self.COMPILED_CALLS[name], calls
        assert wrappers == 0
        stats = engine.native_stats
        assert (stats["bailouts"], stats["native_dispatches"]) == (0, 2)


#: ``launch(out, in, n, m)``: the span gets ``n * m``, a host ``arith.muli``
#: (on a fixed grid, so a product that leaves int64 runs no longer).
HOST_MULI_CUDA = QUICK_CUDA.replace(
    "void launch(float* out, float* in, int n) {\n    scale<<<(n + 31) / 32, 32>>>(out, in, n);",
    "void launch(float* out, float* in, int n, int m) {\n    scale<<<8, 32>>>(out, in, n * m);")

#: QUICK_CUDA launched twice from a host loop: an ``scf.for`` outside the span.
HOST_LOOP_CUDA = QUICK_CUDA.replace(
    "    scale<<<(n + 31) / 32, 32>>>(out, in, n);",
    "    for (int r = 0; r < 2; ++r) {\n        scale<<<(n + 31) / 32, 32>>>(out, in, n);\n    }")


def _calling_module():
    """``main(out, in)``: a span copying ``in`` to ``out``, then a call of
    ``poke(out)``, a host function storing 7 into ``out[0]``."""
    from repro.dialects import arith, func, memref as memref_d
    from repro.ir import F32, Builder, FunctionType, memref, verify
    from tests.helpers import (build_function, build_parallel, close_parallel,
                               const_index, finish_function)

    row = memref((64,), F32)
    module, fn, builder = build_function("main", [row, row], ["out", "in"])
    out, source = fn.arguments
    loop, inner = build_parallel(builder, 64)
    index = loop.induction_vars[0]
    inner.insert(memref_d.StoreOp(inner.insert(memref_d.LoadOp(source, [index])).result,
                                  out, [index]))
    close_parallel(inner)
    poke = func.FuncOp("poke", FunctionType((row,), ()))
    module.add_function(poke)
    callee = Builder.at_end(poke.body_block)
    seven = callee.insert(arith.ConstantOp(7.0, F32)).result
    callee.insert(memref_d.StoreOp(seven, poke.arguments[0], [const_index(callee, 0)]))
    callee.insert(func.ReturnOp())
    builder.insert(func.CallOp("poke", [out]))
    finish_function(builder)
    verify(module)
    return module


def _entry_outcome(module, entry, arguments, clean, prepare=None):
    """Run ``entry`` once on ``arguments`` with a new engine over a fresh
    program of ``module``: through the warm call after a run on ``clean()``
    arguments, or (``clean`` None) as the program's first run, the compiled
    run.  ``prepare(engine)`` runs before it.  Returns (the error raised or None,
    the region bailouts, the native dispatches of that run, its entry
    calls, the outputs)."""
    from repro.runtime.compiler import invalidate_compiled

    invalidate_compiled(module)
    engine = NativeEngine(module)
    if clean is not None:
        engine.run(entry, clean())
        run = engine.run
    else:
        engine._program.entry(entry, len(arguments))
        run = lambda *args: CompiledEngine.run(engine, *args)  # noqa: E731
    if prepare is not None:
        prepare(engine)
    before = dict(engine.native_stats)
    error = None
    try:
        run(entry, arguments)
    except Exception as exc:  # noqa: BLE001 - compared below
        error = (type(exc), str(exc))
    stats = engine.native_stats
    return (error, [region["bailouts"] for region in engine.regions],
            stats["native_dispatches"] - before["native_dispatches"],
            stats["entry_calls"] - before["entry_calls"],
            [np.array(argument, copy=True) for argument in arguments
             if isinstance(argument, np.ndarray)])


class TestEntryCall:
    """A warm run of a straight-line entry is one dispatcher call
    (``_dispatch.call``): the arguments as passed are checked once, the host
    function computes the host scalars, and the spans run in order under
    their licences with the Python's counters replayed.  A call it refuses
    runs the compiled run, with its per-region tallies and errors."""

    @needs_cc
    @pytest.mark.parametrize("threads", [1, None], ids=["one-thread", "default"])
    def test_every_rodinia_kernel_takes_the_entry_call(self, threads):
        """Each Rodinia kernel at scales 1 and 2, a new engine per scale:
        every run after the program's first — the first run of the second
        engine too — is one entry call, and the outputs and the CostReport
        of both runs equal ``interp``'s bit for bit."""
        from repro.runtime.compiler import invalidate_compiled

        for name, bench in BENCHMARKS.items():
            module = bench.compile_cuda()
            invalidate_compiled(module)
            runs = 0
            for scale in (1, 2):
                engine = NativeEngine(module, threads=threads)
                oracle = Interpreter(module, threads=threads)
                for _ in range(2):
                    expected, got = bench.make_inputs(scale), bench.make_inputs(scale)
                    oracle.run(bench.entry, expected)
                    engine.run(bench.entry, got)
                    for index in bench.output_indices:
                        np.testing.assert_array_equal(got[index], expected[index],
                                                      err_msg=f"{name} x{scale}")
                    assert engine.native_stats["entry_calls"] == runs, name
                    runs += 1
                assert report_fields(engine.report) == report_fields(oracle.report), name
                assert {row["entry_call"] for row in engine.regions} == {True}, name
                assert engine.native_stats["bailouts"] == 0, name

    @needs_cc
    @pytest.mark.parametrize("source, entry, make_args", [
        (QUICK_CUDA, "launch", lambda: [_read_only(_quick_args()[0]), *_quick_args()[1:]]),
        (QUICK_CUDA, "launch", lambda: [_quick_args()[0],
                                        np.repeat(_quick_args()[1], 2)[::2], 256]),
        (QUICK_CUDA, "launch", lambda: [_quick_args()[0], _freed(_quick_args()[1]), 256]),
        (QUICK_CUDA, "launch", lambda: [_quick_args()[0],
                                        _quick_args()[1].astype(np.float64), 256]),
        (FIXED_GRID_CUDA, "launch", lambda: [*_quick_args()[:2], 2 ** 64 + 5]),
        (HOST_MULI_CUDA, "launch", lambda: [*_quick_args()[:2], 2 ** 62, 4]),
        ("grid", "main", lambda: _grid_args((0, 13, 0, 5, -1))),
    ], ids=["read-only", "non-contiguous", "freed", "dtype", "int-past-int64",
            "host-muli-overflow", "zero-step"])
    def test_a_refused_call_runs_like_a_first_run(self, source, entry, make_args):
        """Each argument the call refuses before any store: the run that
        follows is the compiled run, with the bailout tally, the error, the
        dispatches and the outputs of an engine's first run on it."""
        if source == "grid":
            module, clean = _grid_module()[0], lambda: _grid_args((0, 13, 1, 5, -1))
        else:
            module = _lowered(source)
            clean = (lambda: [*_quick_args()[:2], 2, 4]) if source is HOST_MULI_CUDA \
                else _quick_args
        warm = _entry_outcome(module, entry, make_args(), clean)
        first = _entry_outcome(module, entry, make_args(), None)
        assert warm[3] == first[3] == 0
        assert warm[:3] == first[:3]
        for got, expected in zip(warm[4], first[4]):
            np.testing.assert_array_equal(got, expected)

    @needs_cc
    def test_an_error_in_the_second_span_leaves_what_a_compiled_run_leaves(self):
        """``srad_v1``'s second span reports ``ERR_BAD_STEP`` (a spy's
        trampoline, after the real span's stores): the entry call raises the
        compiled run's error (``CompiledEngine.run``) after the first span's
        stores, with its counters.  No work frame survives the error: the
        run after it, an entry call, adds what a fresh engine's run
        reports."""
        from repro.runtime.compiler import invalidate_compiled
        from tests.region_spy import RegionSpy

        bench, spy = BENCHMARKS["srad_v1"], RegionSpy()
        module = bench.compile_cuda()
        runs = []
        for warm in (True, False):
            invalidate_compiled(module)
            engine = NativeEngine(module)
            if warm:
                engine.run(bench.entry, bench.make_inputs(1))
            else:
                engine._program.entry(bench.entry, 6)
            reset, before = report_fields(engine.report), dict(engine.native_stats)
            unit, = engine._program.native_units
            spy.wrap(unit)
            spy.fail(unit.symbols[1], 1)
            arguments = bench.make_inputs(1)
            run = engine.run if warm else \
                (lambda *args: CompiledEngine.run(engine, *args))  # noqa: E731
            with pytest.raises(InterpreterError, match="scf.for requires a positive step"):
                run(bench.entry, arguments)
            counts = [engine.native_stats[name] - before[name]
                      for name in ("native_dispatches", "entry_calls")]
            failed = report_fields(engine.report)
            spy.fail(unit.symbols[1], 0)
            engine.run(bench.entry, bench.make_inputs(1))
            assert engine.native_stats["entry_calls"] == before["entry_calls"] + warm + 1
            fresh = NativeEngine(module)
            fresh.run(bench.entry, bench.make_inputs(1))
            runs.append((reset, counts, failed, arguments, report_fields(engine.report),
                         report_fields(fresh.report)))
        (reset, warm_counts, warm_failed, warm_args, warm_after, warm_fresh), \
            (_, first_counts, first_failed, first_args, first_after, first_fresh) = runs
        assert (warm_counts, first_counts) == ([1, 1], [1, 0])
        assert not np.array_equal(first_args[0], bench.make_inputs(1)[0])  # stored
        for got, want in zip(warm_args, first_args):
            np.testing.assert_array_equal(got, want)
        # the warm engine's report also holds its clean run: one more
        # addition to each field (``cycles`` moves only at a run's end)
        assert warm_failed == tuple(map(sum, zip(reset, first_failed)))
        assert first_failed[0] == 0.0
        assert warm_after == tuple(map(sum, zip(warm_failed, warm_fresh)))
        assert first_after == tuple(map(sum, zip(first_failed, first_fresh)))

    @needs_cc
    def test_a_fresh_executor_per_run_takes_the_entry_call(self):
        """The kernel server and ``execute`` build one executor per run, a
        strict (resilience-wrapped) engine: once the program has compiled
        the entry, each such run is one entry call, after its engine's one
        toolchain probe."""
        from repro.runtime import make_executor
        from repro.runtime.compiler import invalidate_compiled

        bench = BENCHMARKS["nw"]
        module = bench.compile_cuda()
        invalidate_compiled(module)
        for run in range(4):
            executor = make_executor(module, engine="native")
            got, expected = bench.make_inputs(1), bench.make_inputs(1)
            executor.run(bench.entry, got)
            oracle = Interpreter(module)
            oracle.run(bench.entry, expected)
            for index in bench.output_indices:
                np.testing.assert_array_equal(got[index], expected[index])
            assert report_fields(executor.report) == report_fields(oracle.report)
            assert executor.inner._toolchain_checked
            assert executor.native_stats["entry_calls"] == run

    @needs_cc
    def test_eight_threads_share_one_program_through_the_entry_call(self):
        """Eight threads, one new engine each over one module whose program
        one run compiled, run a lane-blocked straight-line entry together:
        every run, each engine's first too, is one entry call and equals
        ``interp``."""
        import threading

        module = _lowered(LANE_BLEND_CUDA)

        def arguments(seed):
            rng = np.random.default_rng(seed)
            return [np.zeros(256, np.float32), rng.random(256).astype(np.float32),
                    rng.random(256).astype(np.float32), 256, 0.5]

        expected = {}
        for seed in range(8):
            args = arguments(seed)
            Interpreter(module).run("launch_blend", args)
            expected[seed] = args[0]
        NativeEngine(module).run("launch_blend", arguments(8))
        engines = [NativeEngine(module) for _ in range(8)]
        start, errors = threading.Barrier(8, timeout=60), []

        def work(index):
            try:
                start.wait()
                for _ in range(6):
                    args = arguments(index)
                    engines[index].run("launch_blend", args)
                    np.testing.assert_array_equal(args[0], expected[index])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = engines[0].native_stats
        assert stats["entry_calls"] == 8 * 6 and stats["bailouts"] == 0
        assert stats["native_dispatches"] == 8 * 6 + 1

    @needs_cc
    def test_a_promotion_swaps_the_host_function_too(self):
        """A lane-blocked unit's tier-2 library brings its own host function:
        after the swap the warm call runs the ``-O3`` host and spans, and
        stays bit-identical."""
        import ctypes

        from repro.runtime import native

        module = _lowered(DAMP_CUDA.replace("0.5f", "0.3125f"))
        engine = NativeEngine(module)
        engine.run("launch", _quick_args())
        unit, = engine._program.native_units
        assert unit.level == "-O1" and unit.host is not None
        tier_one = unit.host
        unit.promote()
        assert native.await_promotions(timeout=120)
        assert unit.level == "-O3"
        library = unit.libraries[-1]
        assert unit.host == ctypes.cast(getattr(library, unit.host_symbol),
                                        ctypes.c_void_p).value != tier_one
        got, expected = _quick_args(), _quick_args()
        engine.run("launch", got)
        Interpreter(module).run("launch", expected)
        np.testing.assert_array_equal(got[0], expected[0])
        assert engine.native_stats["entry_calls"] == 1

    @needs_cc
    @pytest.mark.parametrize("build, entry, make_args, reason", [
        (lambda: _lowered(HOST_LOOP_CUDA), "launch", _quick_args,
         "entry: scf.for outside a native span"),
        (_calling_module, "main",
         lambda: [np.zeros(64, np.float32), np.arange(64, dtype=np.float32)],
         "entry: host op func.call"),
    ], ids=["host-loop", "host-call"])
    def test_other_functions_keep_the_compiled_run(self, build, entry, make_args, reason):
        """A host ``scf.for`` or ``func.call`` keeps the compiled run, with
        its per-region dispatches; the plan says why."""
        module = build()
        engine = _assert_native_matches_interp(module, entry, make_args, 0)
        engine.run(entry, make_args())
        assert engine.native_stats["entry_calls"] == 0
        assert engine.native_stats["native_dispatches"] > 0
        for row in engine.regions:
            assert row["entry_call"] is False
            assert reason in row["refusals"]


def _read_only(array):
    array.setflags(write=False)
    return array


def _freed(array):
    storage = MemRefStorage(array)
    storage.free()
    return storage

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


def _chained(builder, value):
    """``value`` carried through a one-trip uniform ``scf.for``: a serial
    chain, so the span around it is emitted in lane blocks."""
    from repro.dialects import scf
    from tests.helpers import const_index

    loop = builder.insert(scf.ForOp(const_index(builder, 0), const_index(builder, 1),
                                    const_index(builder, 1), [value]))
    loop.body.append(scf.YieldOp([loop.iter_args[0]]))
    return loop.results[0]


def _spy_dispatches():
    """Route every native function built from now on through a
    :class:`~tests.region_spy.RegionSpy` and return it: its ``calls`` are
    each call's ``(total, mode, width)``; while its ``plain`` is set a call
    runs with ``mode`` 0 and ``width`` 1, the sequential plain path."""
    from repro.runtime import native
    from tests.region_spy import RegionSpy

    spy = RegionSpy()
    build = native.NativeUnit.build

    def spying_build(unit, fc):
        build(unit, fc)
        spy.wrap(unit)

    native.NativeUnit.build = spying_build
    return spy


def _mode_soak():
    """Subprocess entry (``OMP_NUM_THREADS=2``): the dispatches that must run
    the plain loop do, 64 proven units take the team, and every one of them
    equals ``interp`` in outputs and CostReport.  The span carries no chain:
    it is a one-lane span, and every dispatch passes ``width`` 1."""
    from repro.analysis.region import RegionPlans

    spy = _spy_dispatches()
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
        assert spy.calls[-1] == (hi * hj, team, 1), (name, spy.calls[-1])
        np.testing.assert_array_equal(got[0], expected[0], err_msg=name)
        assert report_fields(engine.report) == report_fields(interp.report), name
    for module, dispatches in ((proven, 4), (unproven, 1)):
        stats = NativeEngine(module).native_stats
        assert (stats["native_dispatches"], stats["bailouts"]) == (dispatches, 0)


def _grid_module():
    """``main(out, src, lo, hi, st, hj, bad)``: over ``i`` in ``range(lo, hi,
    st)`` x ``j`` in ``[0, hj)``, ``out[i, j] = v = 16 * src[i] + j`` (``v``
    :func:`_chained`), then an ``scf.for`` whose step is 0 where ``v ==
    bad``.  Every iteration stores its own cell, so the proof is empty, any
    dispatch of 64 units takes the team and every dispatch steps LANES lanes
    at a time."""
    from repro.dialects import arith, memref as memref_d, scf
    from repro.ir import INDEX, Builder, memref, verify
    from tests.helpers import (build_function, close_parallel, const_index,
                               finish_function)

    module, fn, b = build_function(
        "main", [memref((48, 8), INDEX), memref((48,), INDEX)] + [INDEX] * 5)
    out, source, lo, hi, st, hj, bad = fn.arguments
    zero, one = const_index(b, 0), const_index(b, 1)
    span = b.insert(scf.ParallelOp([lo, zero], [hi, hj], [st, one]))
    inner = Builder.at_end(span.body)
    i, j = span.induction_vars
    loaded = inner.insert(memref_d.LoadOp(source, [i])).result
    scaled = inner.insert(arith.MulIOp(loaded, const_index(inner, 16))).result
    value = _chained(inner, inner.insert(arith.AddIOp(scaled, j)).result)
    inner.insert(memref_d.StoreOp(value, out, [i, j]))
    hit = inner.insert(arith.CmpIOp("eq", value, bad)).result
    step = inner.insert(arith.SelectOp(hit, zero, one)).result
    loop = inner.insert(scf.ForOp(zero, one, step))
    loop.body.append(scf.YieldOp())
    close_parallel(inner)
    finish_function(b)
    verify(module)
    return module, span


def _grid_args(case):
    """:func:`_grid_module`'s arguments for ``case`` = ``(lo, hi, st, hj, bad)``."""
    return [np.full((48, 8), -7, dtype=np.int64), np.arange(48, dtype=np.int64), *case]


def _assert_engines_match_interp(module, case):
    """Run :func:`_grid_module` ``case`` on every engine: each stores what
    ``interp`` stores and reports its CostReport, or raises its error.
    Returns ``interp``'s outputs, or its error's args."""
    from repro.runtime import engine_names, make_executor

    def run(engine):
        arguments = _grid_args(case)
        executor = make_executor(module, engine=engine)
        try:
            executor.run("main", arguments)
        except InterpreterError as exc:
            return exc.args
        return arguments[0], report_fields(executor.report)

    expected = run("interp")
    for engine in engine_names():
        got = run(engine)
        if isinstance(expected[0], str):
            assert got == expected, engine
        else:
            np.testing.assert_array_equal(got[0], expected[0], err_msg=engine)
            assert got[1] == expected[1], engine
    return expected if isinstance(expected[0], str) else expected[0]


#: ``(name, lo, hi, st, hj, bad)`` of :func:`_chunk_soak`; ``bad`` is the
#: value of the last iteration in row-major order, or -1 for none.
CHUNK_CASES = (
    ("uneven split, a chunk starts mid-row", 0, 13, 1, 5, -1),
    ("64 units", 0, 16, 1, 4, -1),
    ("zero extent in the inner dim", 0, 13, 1, 0, -1),
    ("zero extent in the outer dim", 7, 7, 1, 5, -1),
    ("nonzero lower bound, step 3", 3, 40, 3, 5, -1),
    ("ERR_BAD_STEP in the last thread's chunk", 0, 13, 1, 5, 16 * 12 + 4),
)


def _chunk_soak():
    """Subprocess entry (run under an ``OMP_NUM_THREADS``): every case of
    the 2-D :func:`_grid_module` equals ``interp`` in outputs and
    CostReport; a dispatch of >= 64 units takes the team, a smaller one the
    plain path.  The case that raises raises interp's error with interp's
    outputs (the bad step is the last iteration and nothing is stored after
    it); at a raise no engine's CostReport is interp's (the counters of the
    failed region are dropped), so its CostReport must equal the plain
    path's instead."""
    from repro.analysis.region import RegionPlans

    spy = _spy_dispatches()
    module, span = _grid_module()
    assert RegionPlans(module).plan(span).parallel_proof == frozenset()

    def run(engine, case):
        arguments = [np.full((48, 8), -7, dtype=np.int64),
                     np.arange(48, dtype=np.int64), *case]
        try:
            engine.run("main", arguments)
            error = None
        except InterpreterError as exc:
            error = str(exc)
        return arguments[0], error, report_fields(engine.report)

    for name, *case in CHUNK_CASES:
        expected, expected_error, expected_report = run(Interpreter(module), case)
        got, error, report = run(NativeEngine(module), case)
        lo, hi, st, hj, _ = case
        units = len(range(lo, hi, st)) * hj
        assert spy.calls[-1] == (units, units >= 64, LANES), (name, spy.calls[-1])
        np.testing.assert_array_equal(got, expected, err_msg=name)
        assert error == expected_error, (name, error)
        if error is None:
            assert report == expected_report, name
        else:
            spy.plain = True
            assert run(NativeEngine(module), case)[1:] == (error, report), name
            spy.plain = False


def _guarded_module():
    """``main(out, a, idx, flag, n)``: over ``i`` in ``[0, n)``, ``if
    (flag[i]) out[i] = a[idx[i]]`` (the loaded value :func:`_chained`).
    Every iteration stores its own cell, so the proof is empty and every
    dispatch steps LANES lanes at a time."""
    from repro.dialects import arith, memref as memref_d, scf
    from repro.ir import F32, INDEX, Builder, memref, verify
    from tests.helpers import (build_function, close_parallel, const_index,
                               finish_function)

    module, fn, b = build_function(
        "main", [memref((96,), F32), memref((96,), F32), memref((96,), INDEX),
                 memref((96,), INDEX), INDEX])
    out, source, idx, flag, n = fn.arguments
    zero, one = const_index(b, 0), const_index(b, 1)
    span = b.insert(scf.ParallelOp([zero], [n], [one]))
    inner = Builder.at_end(span.body)
    i, = span.induction_vars
    flagged = inner.insert(memref_d.LoadOp(flag, [i])).result
    taken = inner.insert(arith.CmpIOp("ne", flagged, const_index(inner, 0))).result
    branch = inner.insert(scf.IfOp(taken, with_else=False))
    then = Builder.at_end(branch.then_block)
    index = then.insert(memref_d.LoadOp(idx, [i])).result
    value = _chained(then, then.insert(memref_d.LoadOp(source, [index])).result)
    then.insert(memref_d.StoreOp(value, out, [i]))
    then.insert(scf.YieldOp())
    close_parallel(inner)
    finish_function(b)
    verify(module)
    return module, span


#: ``(name, lo, hi, st, hj, bad)`` of :func:`_lane_soak` over
#: :func:`_grid_module`; iteration ``(i, j)`` has the value ``16 * i + j``.
LANE_CASES = (
    ("fewer units than lanes", 0, 1, 1, 5, -1),
    ("units no multiple of the lanes", 0, 13, 1, 5, -1),
    ("bad step in the last, partial block", 0, 13, 1, 5, 16 * 12 + 4),
    ("bad step inside a block", 0, 13, 1, 5, 16 * 7),
)


def _lane_soak():
    """Subprocess entry (run under an ``OMP_NUM_THREADS``): a licensed span
    steps LANES lanes at a time, and at the edges of its blocks it equals
    ``interp`` in outputs and CostReport.  The 2-D :func:`_grid_module`
    covers a span shorter than a block, one whose last block is partial
    (and, on a team of three, chunks that start inside a block), and a bad
    step in a block's last lane and in its middle.  interp stops at the bad
    step, the C runs on and raises after the region, so there the error is
    interp's and outputs and CostReport are the one-lane plain path's (the
    last-lane case stores nothing after it: its outputs are interp's too).
    :func:`_guarded_module`'s masked-off lanes hold an index far outside
    ``a``: a load run on one of them would fault this process."""
    from repro.analysis.region import RegionPlans

    spy = _spy_dispatches()
    module, span = _grid_module()
    assert RegionPlans(module).plan(span).parallel_proof == frozenset()

    def run(engine, case):
        arguments = [np.full((48, 8), -7, dtype=np.int64),
                     np.arange(48, dtype=np.int64), *case]
        try:
            engine.run("main", arguments)
            error = None
        except InterpreterError as exc:
            error = str(exc)
        return arguments[0], error, report_fields(engine.report)

    for name, *case in LANE_CASES:
        lo, hi, st, hj, bad = case
        units = len(range(lo, hi, st)) * hj
        expected, expected_error, expected_report = run(Interpreter(module), case)
        got, error, report = run(NativeEngine(module), case)
        assert spy.calls[-1] == (units, units >= 64, LANES), (name, spy.calls[-1])
        assert error == expected_error, (name, error)
        if error is not None:
            spy.plain = True
            sequential, _, expected_report = run(NativeEngine(module), case)
            spy.plain = False
            if bad != 16 * (hi - 1) + hj - 1:
                expected = sequential
        np.testing.assert_array_equal(got, expected, err_msg=name)
        assert report == expected_report, name

    guarded, span = _guarded_module()
    assert RegionPlans(guarded).plan(span).parallel_proof == frozenset()
    for n in (5, 13, 70):
        def arguments():
            flag = (np.arange(96) % 3 != 1).astype(np.int64)
            wild = np.where(flag == 1, np.arange(96) * 7 % 96, 1 << 40)
            return [np.zeros(96, dtype=np.float32),
                    np.linspace(0.5, 9.5, 96, dtype=np.float32), wild, flag, n]

        expected, got = arguments(), arguments()
        interp = Interpreter(guarded)
        interp.run("main", expected)
        engine = NativeEngine(guarded)
        engine.run("main", got)
        assert spy.calls[-1] == (n, n >= 64, LANES), (n, spy.calls[-1])
        np.testing.assert_array_equal(got[0], expected[0], err_msg=str(n))
        assert report_fields(engine.report) == report_fields(interp.report), n


def _affinity_soak():
    """Subprocess entry: loading libgomp and a team dispatch leave this
    process's CPU affinity as it inherited it from its parent, and a thread
    started afterwards gets the same; the team's threads sleep between
    regions (``OMP_WAIT_POLICY``, unset by the parent, is passive) unless
    the user chose a policy."""
    import threading

    spy = _spy_dispatches()
    module, _ = _grid_module()
    NativeEngine(module).run("main", [np.zeros((48, 8), dtype=np.int64),
                                      np.arange(48, dtype=np.int64), 0, 16, 1, 4, -1])
    assert spy.calls == [(64, True, LANES)]
    seen = []
    thread = threading.Thread(target=lambda: seen.append(os.sched_getaffinity(0)))
    thread.start()
    thread.join()
    assert os.sched_getaffinity(0) == seen[0] == os.sched_getaffinity(os.getppid())
    assert os.environ["OMP_WAIT_POLICY"] == os.environ.get("USER_WAIT_POLICY", "passive")


def _soak(entry: str, threads: int, **extra: str) -> None:
    """Run ``tests.runtime.test_native.<entry>()`` in a fresh interpreter
    under ``OMP_NUM_THREADS=threads``, libgomp's default placement and no
    wait policy but ``extra``'s."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("OMP_PROC_BIND", "OMP_PLACES", "OMP_WAIT_POLICY")}
    done = subprocess.run(
        [sys.executable, "-c",
         f"from tests.runtime.test_native import {entry}; {entry}()"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(env, OMP_NUM_THREADS=str(threads), **extra,
                 PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)])))
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.fixture
def c_only(monkeypatch):
    """For a test that only reads the emitted C: a compiled function's
    native unit is not built, so no ``cc`` runs."""
    from repro.runtime import native

    monkeypatch.setattr(native.NativeUnit, "build", lambda unit, fc: None)


def _snapshot_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "emitted_snapshot", ROOT / "benchmarks" / "emitted_snapshot.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_snapshot_tool_takes_only_anywhere():
    """``--only PREFIX`` after ``--cc-time`` restricts the modules instead of
    reaching ``cc`` as a flag."""
    only_first = _snapshot_tool()._only_first
    assert only_first(["--cc-time", "-O1", "--only", "corpus", "-O3"]) == [
        "--only", "corpus", "--cc-time", "-O1", "-O3"]
    assert only_first(["--cc-time", "--only=corpus"]) == ["--only=corpus", "--cc-time"]
    assert only_first(["--cc-time", "-O1"]) == ["--cc-time", "-O1"]


class TestChunkedSpan:
    """The team path splits ``[0, total)`` into one contiguous chunk per
    OpenMP thread, each delinearized once and stepped by odometer."""

    @needs_cc
    @pytest.mark.parametrize("threads", [3, 70], ids=["3-threads", "more-threads-than-units"])
    def test_edge_cases_equal_interp(self, threads):
        _soak("_chunk_soak", threads)

    @needs_cc
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity API")
    def test_a_team_dispatch_leaves_the_cpu_affinity_alone(self):
        """``OMP_PROC_BIND`` would pin the calling thread when libgomp loads
        (README): the engine sets no placement, so the threads and children
        a process starts after its first native run keep every CPU.  It
        sets the wait policy, only where the user did not."""
        _soak("_affinity_soak", 2)
        _soak("_affinity_soak", 2, OMP_WAIT_POLICY="active", USER_WAIT_POLICY="active")


class TestLaneBlocks:
    """A licensed span steps LANES iterations at a time: blocks cut short by
    the span's end or by a team chunk's, a bad step inside one, and masked
    lanes whose loads would fault, against ``interp`` in subprocesses."""

    @needs_cc
    @pytest.mark.parametrize("threads", [1, 3], ids=["1-thread", "3-threads"])
    def test_edge_cases_equal_interp(self, threads):
        _soak("_lane_soak", threads)

    @needs_cc
    def test_a_span_the_blocks_cannot_hold_runs_one_lane(self):
        """A private buffer of 16 KiB fits one lane's stack budget and not
        eight lanes': the span, which carries a chain, is emitted with one
        lane, says why on ``engine.regions``, and equals ``interp``."""
        from repro.dialects import memref as memref_d, scf
        from repro.ir import F32, INDEX, Builder, memref, verify
        from tests.helpers import (build_function, close_parallel, const_index,
                                   finish_function)

        module, fn, b = build_function("main", [memref((64,), F32), memref((64,), F32)])
        out, source = fn.arguments
        zero, one, n = const_index(b, 0), const_index(b, 1), const_index(b, 64)
        span = b.insert(scf.ParallelOp([zero], [n], [one]))
        inner = Builder.at_end(span.body)
        i, = span.induction_vars
        scratch = inner.insert(memref_d.AllocaOp(memref((4096,), F32))).result
        inner.insert(memref_d.StoreOp(
            _chained(inner, inner.insert(memref_d.LoadOp(source, [i])).result),
            scratch, [i]))
        inner.insert(memref_d.StoreOp(inner.insert(memref_d.LoadOp(scratch, [i])).result,
                                      out, [i]))
        close_parallel(inner)
        finish_function(b)
        verify(module)

        def arguments():
            return [np.zeros(64, dtype=np.float32), np.linspace(1, 2, 64, dtype=np.float32)]

        engine = _assert_native_matches_interp(module, "main", arguments, 0)
        region, = engine.regions
        assert region["tier"] == "native" and region["width"] == 1
        assert region["refusals"] == [
            f"lanes: a private buffer of 16384 bytes is too large for {LANES} lanes"]

    def test_every_charge_of_the_snapshot_modules_is_on_the_grid(self, monkeypatch, c_only):
        """The C counts work in int64 grid units, from ``K`` packed with
        ``costmodel.exact_cycles`` checked; no charge of the 72 snapshot
        modules is off the grid, under either machine."""
        from repro.runtime.codegen_c import RegionCodegen
        from repro.runtime.compiler import program_for
        from repro.runtime.costmodel import exact_cycles

        tool = _snapshot_tool()
        monkeypatch.setattr(sys, "path", list(sys.path))   # _modules prepends
        monkeypatch.delenv("REPRO_CACHE", raising=False)   # ... and pops this
        modules = [(label, build, entry) for label, build, entry, _ in tool._modules(ROOT)
                   if not tool._unlowered(label)]
        assert len(modules) == 72
        specs = []
        emit = RegionCodegen.emit_span

        def spying_emit(codegen):
            source, spec = emit(codegen)
            specs.append(spec)
            return source, spec
        monkeypatch.setattr(RegionCodegen, "emit_span", spying_emit)
        for machine in (XEON_8375C, A64FX_CMG):
            del specs[:]
            for label, build, entry in modules:
                module = build()
                program_for(module, machine, "native").function(module.lookup(entry))
            assert len(specs) >= 72
            assert [(spec.symbol, cost) for spec in specs for cost in spec.costs
                    if not exact_cycles(cost)] == []


#: the captured constants of ``_captured_module``, by type: the float ones
#: whose bits a decimal or a slot could lose (the negative ones print with a
#: leading minus, which an ``arith.negf`` puts after its own), the int ones
#: at the edges of int64 and of float64's integers.
CAPTURED_FLOATS = [-0.0, float("inf"), float("-inf"), 5e-324]
CAPTURED_INTS = [-2 ** 63, 2 ** 53 + 1]


def _captured_module(step=1):
    """``main(out_f, out_i, source)``: a span over ``i < 8`` whose body reads
    only constants defined outside it — :data:`CAPTURED_FLOATS` and their
    ``arith.negf`` scaling a load, :data:`CAPTURED_INTS` offset by ``i`` —
    and carries a chain
    through an inner ``scf.for`` whose bounds and ``step`` are captured
    constants too (a lane-blocked span)."""
    from repro.dialects import arith, memref as memref_d, scf
    from repro.ir import F64, INDEX, Builder, memref, verify
    from tests.helpers import build_function, close_parallel, const_index, finish_function

    floats, ints = len(CAPTURED_FLOATS), len(CAPTURED_INTS)
    module, fn, b = build_function("main", [memref((2 * floats + 1, 8), F64),
                                            memref((ints, 8), INDEX), memref((8,), F64)])
    out_f, out_i, source = fn.arguments
    scales = [b.insert(arith.ConstantOp(value, F64)).result for value in CAPTURED_FLOATS]
    offsets = [const_index(b, value) for value in CAPTURED_INTS]
    rows = [const_index(b, row) for row in range(max(2 * floats, ints) + 1)]
    trips, step = const_index(b, 3), const_index(b, step)
    zero, one, n = const_index(b, 0), const_index(b, 1), const_index(b, 8)
    span = b.insert(scf.ParallelOp([zero], [n], [one]))
    inner = Builder.at_end(span.body)
    i, = span.induction_vars
    x = inner.insert(memref_d.LoadOp(source, [i])).result
    negated = [inner.insert(arith.NegFOp(scale)).result for scale in scales]
    for row, scale in zip(rows, scales + negated):
        scaled = inner.insert(arith.MulFOp(x, scale)).result
        inner.insert(memref_d.StoreOp(scaled, out_f, [row, i]))
    for row, offset, value in zip(rows, offsets, CAPTURED_INTS):
        away_from_the_edge = arith.AddIOp if value < 0 else arith.SubIOp
        moved = inner.insert(away_from_the_edge(offset, i)).result
        inner.insert(memref_d.StoreOp(moved, out_i, [row, i]))
    loop = inner.insert(scf.ForOp(zero, trips, step, [x]))
    body = Builder.at_end(loop.body)
    carried = body.insert(arith.MulFOp(loop.iter_args[0], scales[0])).result
    body.insert(scf.YieldOp([body.insert(arith.AddFOp(carried, x)).result]))
    inner.insert(memref_d.StoreOp(loop.results[0], out_f, [rows[2 * floats], i]))
    close_parallel(inner)
    finish_function(b)
    verify(module)

    def arguments():
        return [np.zeros((2 * floats + 1, 8)), np.zeros((ints, 8), dtype=np.int64),
                np.linspace(-2.0, 2.0, 8)]
    return module, arguments


class TestCapturedConstants:
    """A scalar live-in defined by ``arith.constant`` is a C literal, not a
    contract slot."""

    def test_no_contract_slot_of_the_snapshot_modules_holds_a_constant(self, monkeypatch, c_only):
        from repro.dialects import arith
        from repro.runtime.codegen_c import RegionCodegen
        from repro.runtime.compiler import program_for

        tool = _snapshot_tool()
        monkeypatch.setattr(sys, "path", list(sys.path))   # _modules prepends
        monkeypatch.delenv("REPRO_CACHE", raising=False)   # ... and pops this
        modules = [(label, build, entry) for label, build, entry, _ in tool._modules(ROOT)
                   if not tool._unlowered(label)]
        assert len(modules) == 72
        emitted = []
        emit = RegionCodegen.emit_span

        def spying_emit(codegen):
            source, spec = emit(codegen)
            emitted.append((codegen, spec))
            return source, spec
        monkeypatch.setattr(RegionCodegen, "emit_span", spying_emit)
        for label, build, entry in modules:
            module = build()
            program_for(module, XEON_8375C, "native").function(module.lookup(entry))
        assert len(emitted) >= 72
        slotted, literal = [], 0
        for codegen, spec in emitted:
            by_slot = {codegen.slot_of(value): value for value in codegen.plan.live_ins}
            constant = {slot for slot, value in by_slot.items()
                        if isinstance(value.defining_op(), arith.ConstantOp)}
            slotted += [(spec.symbol, slot) for slot in spec.int_slots + spec.float_slots
                        if slot in constant]
            literal += len(constant)
        assert slotted == []
        assert literal > 0  # the census saw captured constants at all

    def test_a_constant_without_an_exact_literal_is_refused(self):
        from repro.runtime.codegen_c import UnsupportedRegion, c_double, c_int

        assert (c_int(-2 ** 63), c_int(2 ** 63 - 1)) == (
            "INT64_MIN", "INT64_C(9223372036854775807)")
        assert (c_double(float("nan")), c_double(-float("nan"))) == ("NAN", "-NAN")
        payload = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]
        for constant in (lambda: c_int(2 ** 63), lambda: c_int(-2 ** 63 - 1),
                         lambda: c_double(payload)):
            with pytest.raises(UnsupportedRegion):
                constant()

    @needs_cc
    def test_edge_constants_are_bit_identical_on_every_engine(self):
        from repro.runtime import engine_names
        from tests.helpers import run_engine_matrix

        module, arguments = _captured_module()
        engine = NativeEngine(module)
        got = arguments()
        engine.run("main", got)
        region, = engine.regions
        assert region["tier"] == "native" and region["width"] == LANES
        assert engine.native_stats["native_dispatches"] == 1   # its unit built
        assert got[1][0].tolist() == [-2 ** 63 + i for i in range(8)]
        assert np.signbit(got[0][0]).tolist() == [False] * 4 + [True] * 4
        assert np.signbit(got[0][len(CAPTURED_FLOATS)]).tolist() == [True] * 4 + [False] * 4
        engines = ("interp", *(name for name in engine_names() if name != "interp"))
        run_engine_matrix(module, "main", arguments, [0, 1], engines=engines,
                          workers=2, label="captured constants")

    def test_a_captured_zero_step_raises_the_same_on_every_engine(self):
        from repro.runtime import engine_names, make_executor

        module, arguments = _captured_module(step=0)
        raised = {}
        for name in engine_names():
            executor = make_executor(module, engine=name, workers=2)
            with pytest.raises(InterpreterError) as info:
                executor.run("main", arguments())
            raised[name] = (type(info.value), info.value.args)
            if name == "native" and HAVE_CC:
                assert [region["tier"] for region in executor.regions] == ["native"]
        assert set(raised.values()) == {
            (InterpreterError, ("scf.for requires a positive step",))}, raised


class TestOneFlagTwoLoops:
    @needs_cc
    def test_only_a_proven_dispatch_of_64_units_takes_the_team(self):
        _soak("_mode_soak", 2)

    def test_a_body_is_printed_once(self, monkeypatch, c_only):
        """Every region's body is in its unit once, in ``<symbol>_span``,
        which holds no directive and calls no libgomp function.  The plain
        path calls it over the whole space; under a store-safety proof the
        exported function also holds one ``#pragma omp parallel`` whose
        threads call it, each over its own chunk.  Over the snapshot tool's
        72 lowered modules (every region of which has a proof) and a
        hand-built span that stores through a callee; no ``simd``, no
        ``collapse`` anywhere."""
        from repro.runtime.codegen_c import assemble_unit
        from repro.runtime.compiler import program_for

        tool = _snapshot_tool()
        monkeypatch.setattr(sys, "path", list(sys.path))   # _modules prepends
        monkeypatch.delenv("REPRO_CACHE", raising=False)   # ... and pops this
        modules = [(label, build, entry) for label, build, entry, _ in tool._modules(ROOT)
                   if not tool._unlowered(label)]
        assert len(modules) == 72
        modules.append(("no proof", lambda: _row_module(through_call=True)[0], "main"))
        pragmas = []
        for label, build, entry in modules:
            module = build()
            program = program_for(module, XEON_8375C, "native")
            program.function(module.lookup(entry))
            plans = [region.plan for region in program.regions
                     if region.tier == "native"]
            functions = [source for unit in program.native_units
                         for source in unit.sources]
            assert len(plans) == len(functions) >= 1, label
            unit = assemble_unit(functions)
            assert tool.body_copies(unit) == [1] * len(plans), label
            assert "simd" not in unit and "collapse" not in unit, label
            for function in functions:
                span, exported = function.split("\nvoid ")
                symbol = exported[:exported.index("(")]
                assert unit.count(span[tool.SPAN_LOOP.search(span).start():]) == 1, label
                assert "#pragma" not in span and "omp_" not in span, label
                width = "width, " if tool.WIDTH_CLAMP.search(exported) else ""
                plain = (f"{symbol}_span(LI, LF, K, LP, LS, RLB, RST, RLEN, "
                         f"0, total, {width}outf, outi);")
                assert exported.endswith(f"\n    {plain}\n}}"), label
                assert exported.count("_span(") == 1 + exported.count("#pragma"), label
                pragmas.append(exported.count("#pragma omp parallel "))
            assert sum(pragmas[-len(plans):]) == sum(
                plan.parallel_proof is not None for plan in plans), label
        assert pragmas == [1] * (len(pragmas) - 1) + [0]

    def test_no_mode_bitmask_is_left_in_the_sources(self):
        for path in (ROOT / "src").rglob("*.py"):
            assert "mode & " not in path.read_text(), path


def _byte_module():
    """``main(flags, src, dst)``: a parallel loop flipping ``i1`` flags in
    place and doubling ``i8`` bytes into ``dst`` (one-byte buffers, which the
    CUDA frontend never makes)."""
    from repro.dialects import arith, memref as memref_d
    from repro.ir import I1, I8, memref, verify
    from tests.helpers import (build_function, build_parallel, close_parallel,
                               finish_function)

    module, fn, builder = build_function(
        "main", [memref((64,), I1), memref((64,), I8), memref((64,), I8)],
        ["flags", "src", "dst"])
    flags, src, dst = fn.arguments
    loop, inner = build_parallel(builder, 64)
    index = loop.induction_vars[0]
    flag = inner.insert(memref_d.LoadOp(flags, [index])).result
    true = inner.insert(arith.ConstantOp(1, I1)).result
    flipped = inner.insert(arith.XOrIOp(flag, true)).result
    inner.insert(memref_d.StoreOp(flipped, flags, [index]))
    byte = inner.insert(memref_d.LoadOp(src, [index])).result
    doubled = inner.insert(arith.AddIOp(byte, byte)).result
    inner.insert(memref_d.StoreOp(doubled, dst, [index]))
    close_parallel(inner)
    finish_function(builder)
    verify(module)
    return module


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


#: TWO_KERNEL_CUDA with ``blend`` as a uniform loop carrying a chain: its
#: unit is lane-blocked and promotes, ``scale``'s does not.
LANE_BLEND_CUDA = TWO_KERNEL_CUDA.replace(
    "if (gid < n) { out[gid] = a[gid] * w + b[gid]; }",
    "if (gid < n) {\n        float acc = b[gid];\n"
    "        for (int k = 0; k < 4; ++k) acc = acc * w + a[gid];\n"
    "        out[gid] = acc;\n    }")


@pytest.fixture
def own_artifact_cache(tmp_path, monkeypatch):
    """A fresh process-wide native artifact cache for one test, the old one
    restored after it: the units the test builds, at either tier, are its
    own, whatever another test in the process published."""
    from repro.runtime import cache

    monkeypatch.setitem(cache._GLOBALS, NativeArtifactCache,
                        NativeArtifactCache(directory=tmp_path))


class TestSharedProgram:
    """Programs are cached on the module, so the daemon's handler threads
    dispatch through one program, and one unit, at once."""

    @needs_cc
    @pytest.mark.usefixtures("own_artifact_cache")
    @pytest.mark.parametrize("source", [TWO_KERNEL_CUDA, LANE_BLEND_CUDA],
                             ids=["one-lane", "promoting"])
    def test_threads_share_one_program(self, source):
        """Eight threads x 200 runs, a fresh executor per run as the daemon
        makes them, two kernels, inputs seeded per thread: every output and
        CostReport equals the single-threaded reference, so no thread ever
        sees another's live-ins.  With
        a lane-blocked ``blend``, its unit promotes during the runs and every
        thread keeps dispatching through the swap, to 20 runs past it."""
        import threading
        import time

        from repro.runtime import make_executor, native

        threads, runs, n = 8, 200, 160
        module = compile_cuda(source, filename="shared_program.cu",
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
        units = [unit for unit in NativeEngine(module)._program.native_units
                 if unit.promotable]
        assert len(units) == (source == LANE_BLEND_CUDA)
        assert all(unit.level == "-O1" for unit in units)
        deadline = time.monotonic() + 60
        failures = []

        def worker(seed):
            try:
                mine = inputs(seed)
                index = past_swap = 0
                while index < runs or (units and past_swap < 20
                                       and time.monotonic() < deadline):
                    entry = ("launch_scale", "launch_blend")[index % 2]
                    if run(entry, mine[entry]) != references[seed][entry]:
                        failures.append((seed, index, entry))
                    past_swap += any(unit.level == "-O3" for unit in units)
                    index += 1
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
        assert native.await_promotions(timeout=60)
        stats = NativeEngine(module).native_stats
        assert stats["promotions"] == len(units)
        assert [unit.level for unit in units] == ["-O3"] * len(units)

    @needs_cc
    def test_threads_start_cold(self):
        """Nothing compiled when eight threads first launch (two tenants'
        first requests for one kernel): a function's translation unit is
        built, and known to the other threads, only once all its regions
        are in it, so no unit builds half-built — every run is native,
        nothing bails out, outputs and CostReports equal the interpreter's."""
        import threading

        from repro.runtime import invalidate_compiled, make_executor

        threads, n = 8, 160
        entries = ("launch_both", "launch_scale", "launch_blend")
        module = compile_cuda(TWO_KERNEL_CUDA, filename="shared_program.cu",
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


#: a span whose every element runs ``m`` steps of a serial chain: one
#: dispatch as long as a test needs.
SPIN_CUDA = """
__global__ void spin(float* out, float* in, int n, int m) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        float acc = 0.0f;
        for (int k = 0; k < m; ++k) acc = acc * 0.5f + in[gid];
        out[gid] = acc;
    }
}
void launch(float* out, float* in, int n, int m) {
    spin<<<(n + 31) / 32, 32>>>(out, in, n, m);
}
"""


class TestDispatcher:
    """The dispatcher extension (``_dispatch.c``): built and imported by the
    toolchain probe, one C call per dispatch."""

    @needs_cc
    def test_a_cut_layout_is_refused_by_name(self):
        """Every prefix of a real entry contract's layout raises the
        dispatcher's ``malformed`` ValueError and stores nothing: the layout
        is read through a bounds-checked cursor, never past its end."""
        from repro.runtime import native

        module = _lowered(QUICK_CUDA)
        engine = NativeEngine(module)
        engine.run("launch", _quick_args())
        unit, = engine._program.native_units
        call = unit.entry.calls.get(engine.threads)
        words = len(call.layout) // 8
        for cut in range(words):
            arguments = _quick_args()
            arguments[0][:] = -1.0
            with pytest.raises(ValueError, match="malformed dispatch contract layout"):
                native._call(unit.functions, unit.host,
                             call._replace(layout=call.layout[:8 * cut]), arguments)
            assert (arguments[0] == -1.0).all()
        assert native._call(unit.functions, unit.host, call, _quick_args()).__class__ is tuple

    @needs_cc
    def test_a_host_without_python_h_degrades(self, monkeypatch):
        """The probe builds the dispatcher against ``Python.h``: without it
        the probe fails naming the header, a direct engine runs its base
        plans bit-identically, and a wrapped one steps down the chain with
        one recorded event — as on a host without ``cc``."""
        from repro.runtime import make_executor, native, resilience

        monkeypatch.setattr(native, "_python_include", lambda: "/nonexistent/repro-include")
        monkeypatch.setattr(native, "_PROBE_RESULTS", {})
        assert not native_available()
        assert "Python.h" in native.probe_detail()
        engine = _assert_native_matches_interp(_lowered(QUICK_CUDA), "launch", _quick_args, 0)
        assert engine.native_stats["units_ready"] == 0
        module = _lowered(FIXED_GRID_CUDA)
        expected = _quick_args()
        Interpreter(module).run("launch", expected)
        log = resilience.global_log()
        log.clear()
        arguments = _quick_args()
        executor = make_executor(module, engine="native")
        executor.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected[0])
        assert executor.engine_name == resilience.fallback_engines("native")[0]
        degrade, = log.events(op="engine.run", action="degrade")
        assert degrade.error == "ToolchainError"
        # the strict run raised before building a unit: none records a degrade
        assert log.events(op="native.cc") == []

    @needs_cc
    def test_a_corrupt_dispatcher_is_rebuilt_once(self, tmp_path):
        """A truncated dispatcher in the disk tier fails its import: it is
        dropped and rebuilt once, and the probe passes; a warm disk tier
        then probes with no ``cc`` at all.  Each probe runs in a fresh
        process (this one has a dispatcher loaded, and an import of a
        loaded path returns the loaded module)."""
        log = tmp_path / "cc-runs"
        counting = tmp_path / "counting-cc"
        counting.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec cc "$@"\n')
        counting.chmod(0o755)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_CACHE="1",
                   REPRO_CACHE_DIR=str(tmp_path / "cache"), REPRO_CC=str(counting))
        code = ("from repro.runtime import global_resilience_log, native\n"
                "assert native.native_available(), native.probe_detail()\n"
                "print(len(global_resilience_log().events(op='cache.read')))\n")

        def probe():
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr[-2000:]
            return int(done.stdout), log.read_text().count("x")

        assert probe() == (0, 1)
        artifact, = (tmp_path / "cache" / "native").glob("*.so")
        built = artifact.read_bytes()
        artifact.write_bytes(built[:len(built) // 3])
        assert probe() == (1, 2)
        assert artifact.read_bytes() == built
        assert probe() == (0, 2)

    @needs_cc
    def test_every_way_out_releases_the_buffers(self):
        """Every buffer the dispatcher takes through the buffer protocol is
        released however the dispatch ends — run natively, refused after
        other buffers were taken (a freed or a read-only one), or run with
        a region that returns ERR_BAD_STEP — so no argument array keeps a
        reference."""
        import gc

        quick = NativeEngine(_lowered(QUICK_CUDA))
        quick.run("launch", _quick_args())
        frozen = _quick_args()
        frozen[0].setflags(write=False)
        runs = [("native", quick, "launch", _quick_args(), None),
                ("read-only", quick, "launch", frozen, ValueError),
                ("freed", NativeEngine(_freeing_module()), "main",
                 [np.ones(64, dtype=np.float32), True], InterpreterError),
                ("ERR_BAD_STEP", NativeEngine(_grid_module()[0]), "main",
                 _grid_args((0, 13, 1, 5, 16 * 12 + 4)), InterpreterError)]
        for name, engine, entry, arguments, raises in runs:
            arrays = [a for a in arguments if isinstance(a, np.ndarray)]
            gc.collect()
            before = [sys.getrefcount(array) for array in arrays]
            failure = None
            try:
                engine.run(entry, arguments)
            except Exception as exc:  # the refused and failing runs raise
                failure = type(exc)
            assert failure is raises or issubclass(failure, raises), name
            gc.collect()
            assert [sys.getrefcount(array) for array in arrays] == before, name
        assert [region["bailouts"] for _, engine, *_ in runs[1:]
                for region in engine.regions] == [{"read-only": 1}, {"freed": 1}, {}]

    @needs_cc
    def test_the_lock_is_released_while_c_runs(self):
        """A Python thread keeps running while a long native dispatch runs:
        the dispatcher calls the region with the interpreter lock released
        (the daemon's handler threads and the tier-2 promoter rely on it)."""
        import threading
        import time

        engine = NativeEngine(_lowered(SPIN_CUDA))

        def arguments(m):
            return [np.zeros(64, dtype=np.float32), np.linspace(0, 1, 64, dtype=np.float32),
                    64, m]

        engine.run("launch", arguments(1))
        gaps, stop = [], threading.Event()

        def count():
            last = time.perf_counter()
            while not stop.is_set():
                now = time.perf_counter()
                if now - last > 0.02:
                    gaps.append((last, now))
                last = now

        thread = threading.Thread(target=count)
        thread.start()
        try:
            time.sleep(0.05)
            began = time.perf_counter()
            engine.run("launch", arguments(4_000_000))
            ended = time.perf_counter()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert engine.native_stats["native_dispatches"] == 2
        assert ended - began > 0.2
        longest = max([min(stop_, ended) - max(start, began) for start, stop_ in gaps
                       if start < ended and stop_ > began], default=0.0)
        assert longest < (ended - began) / 2, (longest, ended - began)


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
    """The ``(unit key, assembled C source)`` of every native unit built
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
        # the units' artifacts, and the dispatcher the probe built under the
        # guarded command
        from repro.runtime import native

        dispatcher = native._dispatcher_key(native._dispatcher_argv([str(guard)]))
        assert {path.stem for path in (tmp_path / "cache" / "native").glob("*.so")} == {
            *cold_keys, dispatcher}


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


def _ledger_corpus():
    """The ledger's frozen corpus package (``benchmarks/ledger/corpus``)."""
    import importlib.util

    corpus = sys.modules.get("ledger_corpus")
    if corpus is None:
        init = ROOT / "benchmarks" / "ledger" / "corpus" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            "ledger_corpus", init, submodule_search_locations=[str(init.parent)])
        corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    return corpus


def _promotion_candidates():
    """``(label, build, entry, make_args)`` of every corpus, Rodinia and
    differential-fuzz module, lowered (the snapshot tool's 72)."""
    corpus = _ledger_corpus()
    options = PipelineOptions.all_optimizations()
    for name, kernel in corpus.KERNELS.items():
        yield (f"corpus/{name}",
               lambda kernel=kernel: compile_cuda(
                   kernel.cuda_source, filename=kernel.name, cuda_lower=True,
                   options=options, cache=False),
               kernel.entry,
               lambda name=name: corpus.make_inputs(name, 1, corpus.DEFAULT_SEED))
    for name in sorted(BENCHMARKS):
        bench = BENCHMARKS[name]
        yield (f"rodinia/{name}", lambda bench=bench: bench.compile_cuda(options),
               bench.entry, lambda bench=bench: bench.make_inputs(1))
    for seed in range(60):
        fuzz = generate_fuzz_kernel(seed)
        yield f"fuzz/{seed}", fuzz.compile, fuzz.entry, fuzz.make_args


def _outputs(arguments):
    return [a.tobytes() for a in arguments if isinstance(a, np.ndarray)]


class TestPromotion:
    """Tier 2: a lane-blocked unit that keeps running is rebuilt from the
    same C at ``-O3`` in the background and swapped in between dispatches;
    outputs and CostReports do not move by a bit."""

    @needs_cc
    def test_every_lane_blocked_unit_runs_bit_identical_across_the_swap(self):
        """Each lane-blocked corpus, Rodinia and fuzz unit, run before and
        after its promotion, against ``interp``.  Before is tier 1, unless
        a unit with the same C (a corpus kernel is a copy of a Rodinia one)
        promoted first: then the unit seals at tier 2 from the cache."""
        from repro.runtime import native

        before = {}
        for label, build, entry, make_args in _promotion_candidates():
            module = build()
            runs = [make_args()]
            engine = NativeEngine(module)
            engine.run(entry, runs[0])
            units = [unit for unit in engine._program.native_units
                     if unit.promotable or unit.level == "-O3"]
            if not units:
                continue
            before[label] = {unit.level for unit in units}
            reports = [report_fields(engine.report)]
            for unit in units:
                unit.promote()
            assert native.await_promotions(timeout=120), label
            assert {unit.level for unit in units} == {"-O3"}, label
            runs.append(make_args())
            engine = NativeEngine(module)
            engine.run(entry, runs[1])
            reports.append(report_fields(engine.report))
            expected = make_args()
            oracle = Interpreter(module)
            oracle.run(entry, expected)
            for arguments, report in zip(runs, reports):
                assert _outputs(arguments) == _outputs(expected), label
                assert report == report_fields(oracle.report), label
            lanes = [region for region in engine.regions if region["width"] == LANES]
            assert lanes and {region["opt_level"] for region in lanes} == {"-O3"}, label
        assert {label.split("/")[1] for label in before
                if not label.startswith("fuzz")} == {
            "matmul", "streamcluster", "myocyte", "backprop_layerforward",
            "backprop layerforward"}
        assert sum(label.startswith("fuzz") for label in before) >= 20
        assert sum(levels == {"-O1"} for levels in before.values()) >= 20

    @needs_cc
    def test_promotes_after_the_count_of_runs_not_dispatches(self, tmp_path,
                                                             monkeypatch):
        """Fuzz kernel 3 dispatches its lane-blocked span four times per run:
        the unit promotes on its PROMOTE_AFTER-th run, never within one."""
        from repro.runtime import native

        monkeypatch.setenv("REPRO_CACHE", "1")  # no tier-2 artifact yet
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        fuzz = generate_fuzz_kernel(3)
        module = fuzz.compile()
        engine = NativeEngine(module)
        for _ in range(native.PROMOTE_AFTER - 1):
            engine.run(fuzz.entry, fuzz.make_args())
        assert native.await_promotions(timeout=120)
        stats = engine.native_stats
        assert stats["native_dispatches"] == 4 * (native.PROMOTE_AFTER - 1)
        assert stats["promotions"] == 0
        assert [region["opt_level"] for region in engine.regions] == ["-O1", None]
        engine.run(fuzz.entry, fuzz.make_args())
        assert native.await_promotions(timeout=120)
        assert engine.native_stats["promotions"] == 1
        assert engine.native_stats["promotion_failures"] == 0
        assert [region["opt_level"] for region in engine.regions] == ["-O3", None]

    @needs_cc
    def test_a_one_lane_unit_never_promotes(self):
        from repro.runtime import native

        module = _lowered(QUICK_CUDA)
        engine = NativeEngine(module)
        for _ in range(native.PROMOTE_AFTER + 1):
            engine.run("launch", _quick_args())
        unit, = engine._program.native_units
        unit.promote()
        assert native.await_promotions(timeout=120)
        assert not unit.promotable and unit.countdown == 0
        assert engine.native_stats["promotions"] == 0
        assert [(region["width"], region["opt_level"])
                for region in engine.regions] == [(1, "-O1")]

    @needs_cc
    def test_a_restarted_process_seals_at_tier_two(self, tmp_path, monkeypatch):
        """The tier-2 artifact is published under its own key: a fresh
        program on the same disk tier loads it instead of the tier-1 one."""
        from repro.runtime import native

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = NativeEngine(_lowered(DAMP_CUDA))
        first.run("launch", _quick_args())
        unit, = first._program.native_units
        unit.promote()
        assert native.await_promotions(timeout=120)
        assert first.native_stats["promotions"] == 1
        assert len(list((tmp_path / "native").glob("*.so"))) == 2
        second = NativeEngine(_lowered(DAMP_CUDA))
        arguments = _quick_args()
        second.run("launch", arguments)
        stats = second.native_stats
        assert stats["artifact_hits"] == stats["units_ready"] == 1
        assert stats["promotions"] == 0
        assert [region["opt_level"] for region in second.regions] == ["-O3"]
        expected = _quick_args()
        Interpreter(_lowered(DAMP_CUDA)).run("launch", expected)
        assert _outputs(arguments) == _outputs(expected)


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

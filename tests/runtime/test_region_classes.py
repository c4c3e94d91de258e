"""Five-engine regression suites for the two formerly-fallback region classes.

The native backend originally rejected (a) ``scf.while`` loops and (b)
barriers under control flow, falling back per region to the compiled
closures.  Both classes now reach C through cpuify — (a) as a structural
loop over the while op's before/after regions with the compiled engine's
exact per-iteration cost charge, (b) because the barrier lowering in the IR
(loop fission, min-cut value caching, interchange) leaves barrier-free spans
only.  These tests pin each class across all five engines lowered —
outputs and CostReports bit-identical to the interpreter — and un-lowered on
the interpreter, which every engine hands the region to; where the
toolchain exists, they assert that the lowered regions really execute
native and that the un-lowered ones are refused by name, not lowered a
second time by the emitter.
"""

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.analysis.region import LAUNCH
from repro.runtime import Interpreter, NativeEngine, native_available
from repro.runtime.compiler import UNLOWERED
from repro.transforms import PipelineOptions
from tests.helpers import report_fields, run_engine_matrix, run_unlowered

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="no working cc -fopenmp")

#: (a, b, out, n) launch signature shared by all kernels here.
OUT = (2,)

# -- class (a): scf.while ----------------------------------------------------
WHILE_SPAN_CUDA = """
__global__ void scale(float* a, float* b, float* out, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        float v = a[gid] + 0.125f;
        float c = 0.0f;
        while (v < 8.0f) {
            v = v * 2.0f;
            c = c + 1.0f;
        }
        out[gid] = v + c * b[gid];
    }
}
void launch(float* a, float* b, float* out, int n) {
    scale<<<(n + 31) / 32, 32>>>(a, b, out, n);
}
"""

DO_WHILE_SPAN_CUDA = """
__global__ void scale(float* a, float* b, float* out, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        float v = a[gid];
        int k = 0;
        do {
            v = v * 0.5f + b[gid];
            k = k + 1;
        } while (k < 3);
        out[gid] = v;
    }
}
void launch(float* a, float* b, float* out, int n) {
    scale<<<(n + 31) / 32, 32>>>(a, b, out, n);
}
"""

# -- class (b): barriers under (uniform) control flow ------------------------
BARRIER_FOR_CUDA = """
__global__ void reduce(float* a, float* b, float* out, int n) {
    int tx = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tx;
    __shared__ float buf[32];
    buf[tx] = a[gid] + b[gid];
    __syncthreads();
    for (int s = 16; s > 0; s = s / 2) {
        if (tx < s) {
            buf[tx] = buf[tx] + buf[tx + s];
        }
        __syncthreads();
    }
    out[gid] = buf[0] + a[gid];
}
void launch(float* a, float* b, float* out, int n) {
    reduce<<<n / 32, 32>>>(a, b, out, n);
}
"""

BARRIER_WHILE_CUDA = """
__global__ void relax(float* a, float* b, float* out, int n) {
    int tx = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tx;
    __shared__ float buf[32];
    buf[tx] = a[gid];
    __syncthreads();
    int rounds = 3;
    while (rounds > 0) {
        float v = buf[(tx + 1) % 32];
        __syncthreads();
        buf[tx] = v * 0.5f + b[gid];
        __syncthreads();
        rounds = rounds - 1;
    }
    out[gid] = buf[tx] + buf[0] * 0.125f;
}
void launch(float* a, float* b, float* out, int n) {
    relax<<<n / 32, 32>>>(a, b, out, n);
}
"""


def _make_args(n=128, seed=3):
    rng = np.random.default_rng(seed)
    a = (rng.random(n, dtype=np.float64).astype(np.float32) + 0.1)
    b = (rng.random(n, dtype=np.float64).astype(np.float32) + 0.1)
    return [a, b, np.zeros(n, dtype=np.float32), n]


def _run_native(source, *, cuda_lower):
    """Native engine vs. interpreter on one module; returns the engine."""
    options = PipelineOptions.all_optimizations() if cuda_lower else None
    module = compile_cuda(source, cuda_lower=cuda_lower, options=options)
    interp_args = _make_args()
    interp = Interpreter(module)
    interp.run("launch", interp_args)
    native_args = _make_args()
    engine = NativeEngine(module)
    engine.run("launch", native_args)
    np.testing.assert_array_equal(interp_args[2], native_args[2])
    assert report_fields(interp.report) == report_fields(engine.report)
    return engine


CLASS_SOURCES = {
    "while-span": WHILE_SPAN_CUDA,
    "do-while-span": DO_WHILE_SPAN_CUDA,
    "barrier-for": BARRIER_FOR_CUDA,
    "barrier-while": BARRIER_WHILE_CUDA,
}


class TestFiveEngineParity:
    """Both region classes, cpuified on five engines; the SIMT oracle on the
    interpreter, which every row delegates to."""

    @pytest.mark.parametrize("name", sorted(CLASS_SOURCES))
    def test_lowered_parity(self, name):
        module = compile_cuda(CLASS_SOURCES[name], cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        run_engine_matrix(module, "launch", _make_args, OUT,
                          workers=2, label=f"{name} [lowered]")

    @pytest.mark.parametrize("name", sorted(CLASS_SOURCES))
    def test_oracle_parity(self, name):
        run_unlowered(compile_cuda(CLASS_SOURCES[name], cuda_lower=False),
                      "launch", _make_args, label=f"{name} [oracle]")


THREAD_VARYING_GUARD_CUDA = """
__global__ void k(float* a, float* b, float* out, int n) {
    int tx = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tx;
    __shared__ float buf[32];
    buf[tx] = a[gid];
    if (tx < 16) {
        __syncthreads();
    }
    out[gid] = buf[0] + b[gid];
}
void launch(float* a, float* b, float* out, int n) {
    k<<<n / 32, 32>>>(a, b, out, n);
}
"""


@needs_cc
class TestNativeCompilesBothClasses:
    @staticmethod
    def _assert_lowered_native(source):
        stats = _run_native(source, cuda_lower=True).native_stats
        assert stats["fallback_regions"] == 0
        assert stats["native_regions"] >= 1
        assert stats["native_dispatches"] >= 1

    def test_while_span_compiles_native(self):
        self._assert_lowered_native(WHILE_SPAN_CUDA)

    def test_do_while_span_compiles_native(self):
        self._assert_lowered_native(DO_WHILE_SPAN_CUDA)

    def test_guarded_barrier_lowered_compiles_native(self):
        self._assert_lowered_native(BARRIER_FOR_CUDA)

    def test_barrier_in_while_lowered_compiles_native(self):
        self._assert_lowered_native(BARRIER_WHILE_CUDA)

    def test_unlowered_classes_are_refused_by_name(self):
        for source in (BARRIER_FOR_CUDA, BARRIER_WHILE_CUDA):
            engine = _run_native(source, cuda_lower=False)
            (region,) = engine.regions
            assert region["kind"] == LAUNCH and region["tier"] == "interp"
            assert region["refusals"] == [f"native: {UNLOWERED[LAUNCH]}"]
            stats = engine.native_stats
            assert stats["native_regions"] == stats["native_dispatches"] == 0
            assert stats["fallback_regions"] == 1

    def test_thread_varying_guard_still_falls_back(self):
        """A barrier under a *thread-varying* branch: the interpreter's SIMT
        scheduling defines it, the interpreter runs it, and no tier tries to
        be cleverer."""
        engine = _run_native(THREAD_VARYING_GUARD_CUDA, cuda_lower=False)
        assert engine.native_stats["fallback_regions"] >= 1
        assert [region["tier"] for region in engine.regions] == ["interp"]

"""Differential tests: compiled/vectorized/multicore/native vs. the interpreter.

Every Rodinia suite kernel (cuda-lowered, OpenMP reference and un-lowered
SIMT oracle variants) plus the quickstart example runs through **all five**
execution engines; outputs must be bit-identical and the simulated-cycle
``CostReport``s must match field for field (``cycles``, ``dynamic_ops``,
phases, traffic, ...).  This is what allows the fast engines to run
everywhere while the interpreter stays the semantic oracle — it pins the
vectorized engine's analytic cost accounting to the interpreter's
sequential accumulation bit for bit, the multicore engine's per-worker
cost folding (and shared-memory in-place stores) to the same sequential
result across two real worker processes, and the native engine's
C-accumulated counters (OpenMP ``reduction(+)`` partial sums) to the same
totals through a real compiled shared object.
"""

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.rodinia import BENCHMARKS
from repro.runtime import (
    A64FX_CMG,
    CompiledEngine,
    Interpreter,
    InterpreterError,
    MachineModel,
    MulticoreEngine,
    NativeEngine,
    VectorizedEngine,
    XEON_8375C,
    engine_names,
    make_executor,
    shutdown_worker_pools,
)
from repro.transforms import PipelineOptions
from tests.helpers import report_fields

ALL_NAMES = sorted(BENCHMARKS)
#: a machine none of whose access costs is a binary fraction, next to the
#: A64FX (4.0 x 0.45): the fast tiers must be exact on any model.
UGLY_MACHINE = MachineModel(name="ugly", cores=12, global_access_cost=3.3,
                            hbm_bandwidth_factor=0.37, local_access_cost=1.7)
OMP_NAMES = sorted(n for n in BENCHMARKS if BENCHMARKS[n].omp_source is not None)
#: barrier-heavy kernels whose oracle runs exercise SIMT phase execution.
ORACLE_NAMES = ["backprop layerforward", "hotspot", "lud", "nw", "particlefilter",
                "pathfinder"]


def _multicore_two_workers(module, **kwargs):
    """Multicore engine pinned at two workers (degrades to in-process when
    fork/shared memory are unavailable — the parity contract still holds)."""
    return MulticoreEngine(module, workers=2, **kwargs)


_multicore_two_workers.__name__ = "MulticoreEngine[workers=2]"

#: the non-interpreter engines checked against the oracle.  The native
#: engine degrades to compiled plans on hosts without ``cc -fopenmp`` —
#: the parity contract holds either way.
FAST_ENGINES = [CompiledEngine, VectorizedEngine, _multicore_two_workers,
                NativeEngine]


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()

QUICKSTART_CUDA = """
__device__ float sum(float* data, int n) {
    float total = 0.0f;
    for (int i = 0; i < n; i++) {
        total += data[i];
    }
    return total;
}

__global__ void normalize(float* out, float* in, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float val = sum(in, n);
    if (tid < n) {
        out[tid] = in[tid] / val;
    }
}

void launch(float* d_out, float* d_in, int n) {
    normalize<<<(n + 31) / 32, 32>>>(d_out, d_in, n);
}
"""


def assert_engines_agree(module, entry, make_args, output_indices, *,
                         machine=XEON_8375C, threads=None):
    oracle_args = make_args()
    interpreter = Interpreter(module, machine=machine, threads=threads)
    interpreter.run(entry, oracle_args)

    engines = {}
    for engine_factory in FAST_ENGINES:
        engine_args = make_args()
        engine = engines[engine_factory.__name__] = engine_factory(
            module, machine=machine, threads=threads)
        engine.run(entry, engine_args)
        for index in output_indices:
            np.testing.assert_array_equal(
                np.asarray(oracle_args[index]), np.asarray(engine_args[index]),
                err_msg=f"output {index} diverged between the interpreter "
                        f"and {engine_factory.__name__}")
        assert report_fields(interpreter.report) == report_fields(engine.report), (
            f"cost reports diverged for {engine_factory.__name__}:"
            f"\n  interp {report_fields(interpreter.report)}"
            f"\n  engine {report_fields(engine.report)}")
    return engines


class TestRodiniaParity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_cuda_lowered_parity(self, name):
        bench = BENCHMARKS[name]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        assert_engines_agree(module, bench.entry, lambda: bench.make_inputs(1),
                             bench.output_indices)

    @pytest.mark.parametrize("machine", [A64FX_CMG, UGLY_MACHINE],
                             ids=lambda machine: machine.name)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_cuda_lowered_parity_second_machine(self, name, machine):
        """The fast tiers run — not fall back — under any machine model."""
        bench = BENCHMARKS[name]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        engines = assert_engines_agree(
            module, bench.entry, lambda: bench.make_inputs(1),
            bench.output_indices, machine=machine)
        regions = engines["NativeEngine"].regions
        assert regions and all(region["tier"] == "native" for region in regions)

    @pytest.mark.parametrize("name", OMP_NAMES)
    def test_openmp_reference_parity(self, name):
        bench = BENCHMARKS[name]
        module = bench.compile_openmp()
        assert_engines_agree(module, bench.entry, lambda: bench.make_inputs(1),
                             bench.output_indices)

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_simt_oracle_parity(self, name):
        bench = BENCHMARKS[name]
        module = bench.compile_cuda(cuda_lower=False)
        assert_engines_agree(module, bench.entry, lambda: bench.make_inputs(1),
                             bench.output_indices)

    def test_opt_disabled_parity(self):
        bench = BENCHMARKS["backprop layerforward"]
        module = bench.compile_cuda(PipelineOptions.opt_disabled())
        assert_engines_agree(module, bench.entry, lambda: bench.make_inputs(1),
                             bench.output_indices)

    @pytest.mark.parametrize("name", ["matmul", "nw", "srad_v1"])
    def test_larger_scale_parity(self, name):
        """Scale-2 inputs: more lanes per vectorized region, same reports."""
        bench = BENCHMARKS[name]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        assert_engines_agree(module, bench.entry, lambda: bench.make_inputs(2),
                             bench.output_indices)


class TestQuickstartParity:
    def _make_args(self):
        n = 128
        rng = np.random.default_rng(0)
        data = rng.random(n).astype(np.float32) + 0.5
        return [np.zeros(n, dtype=np.float32), data, n]

    @pytest.mark.parametrize("lower", [False, True])
    def test_quickstart_parity(self, lower):
        kwargs = ({"cuda_lower": True, "options": PipelineOptions.all_optimizations()}
                  if lower else {})
        module = compile_cuda(QUICKSTART_CUDA, **kwargs)
        assert_engines_agree(module, "launch", self._make_args, (0,), threads=32)

    def test_quickstart_parity_a64fx(self):
        """Machine-model constants are baked into compiled closures per
        machine, and read by the native C from its ``K`` argument."""
        module = compile_cuda(QUICKSTART_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        assert_engines_agree(module, "launch", self._make_args, (0,),
                             machine=A64FX_CMG, threads=12)

    def test_thread_sweep_parity(self):
        """Same compiled module across thread counts (cache reuse path)."""
        module = compile_cuda(QUICKSTART_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        for threads in (1, 4, 32):
            assert_engines_agree(module, "launch", self._make_args, (0,),
                                 threads=threads)


SCALE_CUDA = """
__global__ void scale(float* out, float* in, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        out[gid] = in[gid] * 0.5f + 1.0f;
    }
}

void launch(float* out, float* in, int n) {
    scale<<<(n + 31) / 32, 32>>>(out, in, n);
}
"""


class TestArgumentContracts:
    def test_aliased_live_in_forces_sequential_mode(self):
        """One array passed as both the loaded and the stored argument: the
        engines agree, and the native dispatch's alias check hands the C
        ``mode`` = 0 (no OpenMP team, no SIMD variant: the store-safety
        proof is per buffer) — and ``mode`` bit 0 when nothing aliases."""
        module = compile_cuda(SCALE_CUDA, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        n = 512

        def aliased():
            shared = np.random.default_rng(4).random(n).astype(np.float32)
            return [shared, shared, n]

        engines = assert_engines_agree(module, "launch", aliased, (0,))
        native = engines["NativeEngine"]
        if not native.native_stats["units_ready"]:
            pytest.skip("no working cc -fopenmp")
        modes = []
        for unit in native._program.native_units:
            for symbol, function in list(unit.functions.items()):
                def spy(*arguments, _function=function):
                    modes.append(arguments[9])
                    return _function(*arguments)
                unit.functions[symbol] = spy
        native.run("launch", aliased())
        distinct = aliased()
        distinct[0] = np.zeros(n, dtype=np.float32)
        native.run("launch", distinct)
        assert modes[0] == 0 and modes[1] & 1

    @pytest.mark.parametrize("engine", engine_names())
    def test_non_contiguous_argument_is_rejected(self, engine):
        """A strided view used to be copied by ``np.ascontiguousarray``: the
        kernel wrote the hidden copy and the caller's array kept its zeros,
        with no error, on every engine."""
        bench = BENCHMARKS["matmul"]
        module = bench.compile_cuda(PipelineOptions.all_optimizations())
        arguments = bench.make_inputs(1)
        output, = bench.output_indices
        strided = np.zeros(2 * arguments[output].size,
                           dtype=arguments[output].dtype)[::2]
        arguments[output] = strided
        executor = make_executor(module, engine=engine, workers=2)
        with pytest.raises(InterpreterError,
                           match=rf"argument {output} is not C-contiguous "
                                 rf".*strides \({strided.strides[0]},\)"):
            executor.run(bench.entry, arguments)
        assert not strided.any()
        arguments[output] = np.ascontiguousarray(strided)
        executor.run(bench.entry, arguments)
        assert arguments[output].any()

"""Benchmark registry and runners for the Rodinia-style suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..frontend import compile_cuda
from ..runtime import CostReport, MachineModel, XEON_8375C, make_executor
from ..transforms import PipelineOptions
from . import kernels


@dataclass
class RodiniaBenchmark:
    """One timed kernel region of the suite."""

    name: str
    cuda_source: str
    entry: str
    make_inputs: Callable[[int], List]
    omp_source: Optional[str] = None
    has_barrier: bool = False
    #: indices of the argument list that are outputs worth checking.
    output_indices: Sequence[int] = field(default_factory=tuple)

    def compile_cuda(self, options: Optional[PipelineOptions] = None,
                     cuda_lower: bool = True, cache: object = True):
        """Compile the CUDA variant (through the kernel compile cache).

        ``cache`` is forwarded to :func:`repro.frontend.compile_cuda`:
        ``True`` (default) returns a private copy from the cache,
        ``"shared"`` the canonical cached module (fastest repeated-launch
        path; do not mutate), ``False`` forces a fresh compile.
        """
        return compile_cuda(self.cuda_source, filename=f"{self.name}.cu",
                            cuda_lower=cuda_lower, options=options, cache=cache)

    def compile_openmp(self, cache: object = True):
        if self.omp_source is None:
            return None
        return compile_cuda(self.omp_source, filename=f"{self.name}_omp.c",
                            cuda_lower=True, cache=cache)


def _f32(rng, n):
    return (rng.random(n, dtype=np.float64).astype(np.float32) + 0.1)


def _make_matmul(scale: int) -> List:
    rng = np.random.default_rng(7)
    n = 16 * scale
    return [_f32(rng, n * n), _f32(rng, n * n), np.zeros(n * n, dtype=np.float32), n]


def _make_backprop_forward(scale: int) -> List:
    rng = np.random.default_rng(8)
    in_size = 16 * scale
    hid = 1
    return [_f32(rng, in_size), _f32(rng, in_size * hid + 16), np.zeros(in_size, dtype=np.float32),
            np.zeros(in_size // 16, dtype=np.float32), in_size, hid]


def _make_backprop_adjust(scale: int) -> List:
    rng = np.random.default_rng(9)
    n = 64 * scale
    return [_f32(rng, n), _f32(rng, n), _f32(rng, n), n, 0.3, 0.2]


def _make_bfs(scale: int) -> List:
    rng = np.random.default_rng(10)
    n = 32 * scale
    degree = 4
    row_offsets = np.arange(0, (n + 1) * degree, degree, dtype=np.int64)
    columns = rng.integers(0, n, size=n * degree, dtype=np.int64)
    frontier = np.zeros(n, dtype=np.int64)
    frontier[0] = 1
    next_frontier = np.zeros(n, dtype=np.int64)
    cost = -np.ones(n, dtype=np.int64)
    cost[0] = 0
    return [row_offsets, columns, frontier, next_frontier, cost, n, 0]


def _make_hotspot(scale: int) -> List:
    rng = np.random.default_rng(11)
    n = 32 * scale
    return [_f32(rng, n), np.zeros(n, dtype=np.float32), _f32(rng, n), n, 0.5, 0.1]


def _make_lud(scale: int) -> List:
    rng = np.random.default_rng(12)
    n = max(32, 16 * scale + 1)
    return [_f32(rng, n * n) + 1.0, n, 0]


def _make_nw(scale: int) -> List:
    rng = np.random.default_rng(13)
    n = 32
    score = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    score[: n + 1] = -np.arange(n + 1)
    reference = rng.integers(-2, 3, size=n * n).astype(np.int64)
    return [score, reference, n, min(8 * scale, n), 1]


def _make_pathfinder(scale: int) -> List:
    rng = np.random.default_rng(14)
    cols = 32 * scale
    rows = 4
    wall = rng.integers(0, 10, size=rows * cols).astype(np.int64)
    src = rng.integers(0, 10, size=cols).astype(np.int64)
    dst = np.zeros(cols, dtype=np.int64)
    return [wall, src, dst, cols, 1]


def _make_srad(scale: int) -> List:
    rng = np.random.default_rng(15)
    n = 32 * scale
    return [_f32(rng, n) + 0.5, np.zeros(n, dtype=np.float32), np.zeros(n, dtype=np.float32),
            np.zeros(n, dtype=np.float32), n, 0.5]


def _make_particlefilter(scale: int) -> List:
    rng = np.random.default_rng(16)
    n = 32 * scale
    return [_f32(rng, n) + 0.1, np.zeros(n // 32, dtype=np.float32), n]


def _make_streamcluster(scale: int) -> List:
    rng = np.random.default_rng(17)
    n = 32 * scale
    k, dim = 4, 4
    return [_f32(rng, n * dim), _f32(rng, k * dim), np.zeros(n, dtype=np.float32),
            np.zeros(n, dtype=np.int64), n, k, dim]


def _make_myocyte(scale: int) -> List:
    rng = np.random.default_rng(18)
    n = 16 * scale
    return [_f32(rng, n), _f32(rng, n), n, 8, 0.05]


#: the benchmark registry, keyed by the label used in the paper's figures.
BENCHMARKS: Dict[str, RodiniaBenchmark] = {
    "matmul": RodiniaBenchmark(
        "matmul", kernels.MATMUL_CUDA, "matmul", _make_matmul,
        omp_source=kernels.MATMUL_OMP, output_indices=(2,)),
    "backprop layerforward": RodiniaBenchmark(
        "backprop layerforward", kernels.BACKPROP_CUDA, "backprop_forward",
        _make_backprop_forward, omp_source=kernels.BACKPROP_OMP, has_barrier=True,
        output_indices=(3,)),
    "backprop adjust_weights": RodiniaBenchmark(
        "backprop adjust_weights", kernels.BACKPROP_CUDA, "backprop_adjust",
        _make_backprop_adjust, omp_source=kernels.BACKPROP_OMP, output_indices=(0,)),
    "bfs": RodiniaBenchmark(
        "bfs", kernels.BFS_CUDA, "bfs_step", _make_bfs,
        omp_source=kernels.BFS_OMP, output_indices=(3, 4)),
    "hotspot": RodiniaBenchmark(
        "hotspot", kernels.HOTSPOT_CUDA, "hotspot_step", _make_hotspot,
        omp_source=kernels.HOTSPOT_OMP, has_barrier=True, output_indices=(1,)),
    "lud": RodiniaBenchmark(
        "lud", kernels.LUD_CUDA, "lud_step", _make_lud,
        omp_source=kernels.LUD_OMP, has_barrier=True, output_indices=(0,)),
    "nw": RodiniaBenchmark(
        "nw", kernels.NW_CUDA, "nw_step", _make_nw,
        omp_source=kernels.NW_OMP, has_barrier=True, output_indices=(0,)),
    "pathfinder": RodiniaBenchmark(
        "pathfinder", kernels.PATHFINDER_CUDA, "pathfinder_step", _make_pathfinder,
        omp_source=kernels.PATHFINDER_OMP, has_barrier=True, output_indices=(2,)),
    "srad_v1": RodiniaBenchmark(
        "srad_v1", kernels.SRAD_CUDA, "srad_step", _make_srad,
        omp_source=kernels.SRAD_OMP, output_indices=(0,)),
    "particlefilter": RodiniaBenchmark(
        "particlefilter", kernels.PARTICLEFILTER_CUDA, "particlefilter_normalize",
        _make_particlefilter, omp_source=kernels.PARTICLEFILTER_OMP, has_barrier=True,
        output_indices=(0,)),
    "streamcluster": RodiniaBenchmark(
        "streamcluster", kernels.STREAMCLUSTER_CUDA, "streamcluster_assign",
        _make_streamcluster, omp_source=kernels.STREAMCLUSTER_OMP, output_indices=(2, 3)),
    "myocyte": RodiniaBenchmark(
        "myocyte", kernels.MYOCYTE_CUDA, "myocyte_solve", _make_myocyte,
        omp_source=kernels.MYOCYTE_OMP, output_indices=(0,)),
}

#: the subset used for the Fig. 13/14 style comparisons (everything but the
#: MCUDA matmul kernel, which has its own figure).
FIGURE13_SET = [name for name in BENCHMARKS if name != "matmul"]


def run_module(module, entry: str, arguments: Sequence, *,
               machine: MachineModel = XEON_8375C, threads: Optional[int] = None,
               engine: Optional[str] = None,
               workers: Optional[int] = None) -> CostReport:
    """Execute a compiled benchmark once and return its cost report.

    ``engine`` selects the execution engine (any name in
    :func:`repro.runtime.engine_names`, e.g. "compiled", "auto";
    None = process default) — results and cost reports are
    engine-independent.  ``workers`` sizes the multicore engine's worker
    pool and pins the autotuner's worker-count search (ignored elsewhere).
    """
    executor = make_executor(module, engine=engine, machine=machine,
                             threads=threads, workers=workers)
    executor.run(entry, arguments)
    return executor.report


def run_benchmark(name: str, *, variant: str = "cuda",
                  options: Optional[PipelineOptions] = None,
                  scale: int = 1, machine: MachineModel = XEON_8375C,
                  threads: Optional[int] = None,
                  engine: Optional[str] = None,
                  workers: Optional[int] = None) -> CostReport:
    """Compile and run one benchmark variant ("cuda", "omp" or "oracle")."""
    bench = BENCHMARKS[name]
    arguments = bench.make_inputs(scale)
    # shared cache mode: repeated service-style calls reuse the canonical
    # module object, so the per-module compiled-program caches amortize
    # executor construction too (none of the engines mutate the IR).
    if variant == "cuda":
        module = bench.compile_cuda(options or PipelineOptions.all_optimizations(),
                                    cache="shared")
    elif variant == "omp":
        module = bench.compile_openmp(cache="shared")
        if module is None:
            raise ValueError(f"{name} has no OpenMP reference")
    elif variant == "oracle":
        module = bench.compile_cuda(cuda_lower=False, cache="shared")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return run_module(module, bench.entry, arguments, machine=machine,
                      threads=threads, engine=engine, workers=workers)


def verify_benchmark(name: str, options: Optional[PipelineOptions] = None,
                     scale: int = 1, rtol: float = 1e-4,
                     engine: Optional[str] = None) -> bool:
    """Check that the cpuified CUDA code, run on ``engine``, matches the
    SIMT oracle bit-for-bit (floats: within tolerance) on this benchmark's
    outputs.  The oracle runs on the interpreter, whatever ``engine`` is:
    every engine hands an un-lowered region to it."""
    bench = BENCHMARKS[name]
    oracle_args = bench.make_inputs(scale)
    oracle = bench.compile_cuda(cuda_lower=False)
    make_executor(oracle, engine="interp").run(bench.entry, oracle_args)

    cpu_args = bench.make_inputs(scale)
    lowered = bench.compile_cuda(options or PipelineOptions.all_optimizations())
    make_executor(lowered, engine=engine).run(bench.entry, cpu_args)

    for index in bench.output_indices:
        expected, actual = oracle_args[index], cpu_args[index]
        if np.issubdtype(np.asarray(expected).dtype, np.floating):
            if not np.allclose(actual, expected, rtol=rtol, atol=1e-5):
                return False
        else:
            if not np.array_equal(actual, expected):
                return False
    return True

"""Quickstart: compile the paper's Fig. 1 `normalize` CUDA kernel to the CPU.

Demonstrates the three-step workflow:
  1. compile CUDA-C with the frontend (unified host/device module),
  2. run it with the SIMT oracle to get reference outputs,
  3. run the GPU-to-CPU pipeline (`-cuda-lower`) and execute the OpenMP-style
     result on the simulated multicore, showing the O(N^2) -> O(N) effect of
     parallel loop-invariant code motion on the `sum` call.

Execution uses the default compiled engine (IR translated once to Python
closures); pass REPRO_ENGINE=vectorized to execute whole thread grids as
NumPy array operations, REPRO_ENGINE=multicore (with REPRO_WORKERS=N) to
shard parallel regions across N real worker processes over shared memory,
REPRO_ENGINE=native to emit the parallel regions as OpenMP C and run the
compiled shared object, REPRO_ENGINE=interp to run on the tree-walking
reference interpreter, or REPRO_ENGINE=auto to let the autotuner measure
the engine matrix once per kernel and dispatch to the fastest — outputs
and simulated cycles are identical in every engine.  The registered set
is printed live via ``engine_names()``.  Steps 3–5 demonstrate the
multicore, native, and auto engines explicitly.

Run with:  python examples/quickstart.py
"""

import time

import numpy as np

from repro.frontend import compile_cuda
from repro.runtime import (
    default_engine,
    engine_names,
    make_executor,
    multicore_available,
    native_available,
)
from repro.transforms import PipelineOptions

CUDA_SOURCE = """
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


def main() -> None:
    n = 128
    rng = np.random.default_rng(0)
    data = rng.random(n).astype(np.float32) + 0.5

    # 1. reference execution with genuine GPU (SIMT) semantics
    oracle = compile_cuda(CUDA_SOURCE)
    reference = np.zeros(n, dtype=np.float32)
    make_executor(oracle).run("launch", [reference, data.copy(), n])

    # 2. GPU-to-CPU transpilation, unoptimized vs. fully optimized
    results = {}
    for label, options in [("opt-disabled", PipelineOptions.opt_disabled()),
                           ("optimized", PipelineOptions.all_optimizations())]:
        module = compile_cuda(CUDA_SOURCE, cuda_lower=True, options=options)
        output = np.zeros(n, dtype=np.float32)
        executor = make_executor(module, threads=32)
        executor.run("launch", [output, data.copy(), n])
        assert np.allclose(output, reference, rtol=1e-4), "CPU result diverged from the oracle"
        results[label] = executor.report

    print(f"normalize kernel, n = {n} (engine: {default_engine()}; "
          f"registered: {', '.join(engine_names())})")
    print("  reference sum-normalized output verified against the SIMT oracle")
    for label, report in results.items():
        print(f"  {label:>13}: {report.dynamic_ops:8d} dynamic ops, "
              f"{report.cycles:12.0f} simulated cycles")
    ratio = results["opt-disabled"].dynamic_ops / results["optimized"].dynamic_ops
    print(f"  parallel LICM hoists the O(N) sum() out of the kernel: "
          f"{ratio:.1f}x fewer dynamic operations (O(N^2) -> O(N))")

    # 3. the multicore engine: the same lowered module sharded across two
    #    real worker processes with shared-memory buffers — outputs and
    #    simulated cycles stay bit-identical to the in-process engines.
    if multicore_available():
        module = compile_cuda(CUDA_SOURCE, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        output = np.zeros(n, dtype=np.float32)
        executor = make_executor(module, engine="multicore", threads=32, workers=2)
        executor.run("launch", [output, data.copy(), n])
        assert np.allclose(output, reference, rtol=1e-4)
        assert executor.report.cycles == results["optimized"].cycles
        stats = executor.shard_stats
        print(f"  multicore engine (2 workers): same output and "
              f"{executor.report.cycles:.0f} cycles; "
              f"{stats['dispatches']} region(s) sharded across the pool")
    else:
        print("  multicore engine skipped (no fork/shared memory here)")

    # 4. the native engine: the wsloop emitted as `#pragma omp parallel for`
    #    C, compiled once (cold) and dispatched through the cached shared
    #    object afterwards (warm) — still bit-identical.
    if native_available():
        module = compile_cuda(CUDA_SOURCE, cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        executor = make_executor(module, engine="native", threads=32)
        output = np.zeros(n, dtype=np.float32)
        start = time.perf_counter()
        executor.run("launch", [output, data.copy(), n])   # emits + runs cc
        cold = time.perf_counter() - start
        assert np.allclose(output, reference, rtol=1e-4)
        assert executor.report.cycles == results["optimized"].cycles
        start = time.perf_counter()
        make_executor(module, engine="native", threads=32).run(
            "launch", [np.zeros(n, dtype=np.float32), data.copy(), n])
        warm = time.perf_counter() - start
        # the resilience wrapper names the engine that actually ran
        if executor.engine_name == "native":
            stats = executor.native_stats
            print(f"  native engine: {stats['native_regions']} region(s) as OpenMP C; "
                  f"cold {cold * 1e3:.0f} ms (emit + cc), "
                  f"warm {warm * 1e3:.2f} ms (cached .so)")
        else:
            # the resilience layer degraded the run (e.g. cc failed mid-way
            # or REPRO_FAULTS is armed) — output was still bit-identical.
            print(f"  native engine degraded to '{executor.engine_name}' "
                  f"(toolchain failure); outputs verified identical")
    else:
        print("  native engine skipped (no cc -fopenmp toolchain here)")

    # 5. the auto engine: the first run measures every viable engine on the
    #    real arguments and caches the fastest bit-identical config in the
    #    tuning cache; a fresh executor on the same module + argument shapes
    #    then dispatches straight to the winner with zero measurements.
    module = compile_cuda(CUDA_SOURCE, cuda_lower=True,
                          options=PipelineOptions.all_optimizations())
    cold = make_executor(module, engine="auto", threads=32)
    output = np.zeros(n, dtype=np.float32)
    cold.run("launch", [output, data.copy(), n])
    assert np.allclose(output, reference, rtol=1e-4)
    assert cold.report.cycles == results["optimized"].cycles
    warm = make_executor(module, engine="auto", threads=32)
    warm.run("launch", [np.zeros(n, dtype=np.float32), data.copy(), n])
    print(f"  auto engine: tuned over {len(cold.auto_stats['measurements'])} "
          f"candidate(s), winner '{cold.auto_stats['winner']}'; "
          f"warm executor re-dispatched with "
          f"{len(warm.auto_stats['measurements'])} measurement(s)")

    # 6. the kernel service (`python -m repro serve`): the same request
    #    served over a local socket by a long-running daemon — shared
    #    compile cache across tenants, per-tenant streams, bit-identical
    #    outputs and CostReports.  In-process here; in production the
    #    daemon runs standalone and many clients connect to its socket.
    import tempfile

    from repro.service import KernelServer, ServiceClient

    socket_path = tempfile.mktemp(prefix="repro-quickstart-", suffix=".sock")
    with KernelServer(socket_path=socket_path) as server:
        with ServiceClient(server.address, tenant="quickstart") as client:
            cold_req = client.launch(
                CUDA_SOURCE, "launch",
                [np.zeros(n, dtype=np.float32), data.copy(), n],
                options=PipelineOptions.all_optimizations())
            warm_req = client.launch(
                CUDA_SOURCE, "launch",
                [np.zeros(n, dtype=np.float32), data.copy(), n],
                options=PipelineOptions.all_optimizations())
            assert np.allclose(cold_req.args[0], reference, rtol=1e-4)
            assert cold_req.report["cycles"] == results["optimized"].cycles
            stats = client.stats()
        print(f"  kernel service: served via {server.socket_path} on engine "
              f"'{cold_req.engine}'; cold {cold_req.latency_s * 1e3:.0f} ms, "
              f"warm {warm_req.latency_s * 1e3:.1f} ms (shared-cache hit: "
              f"{warm_req.warm}); p50 latency "
              f"{stats['latency']['p50_s'] * 1e3:.1f} ms over "
              f"{stats['launches']} launches")


if __name__ == "__main__":
    main()

"""repro.runtime — execution engines and the analytic performance model.

Five execution engines share one API (``run(name, args)`` + ``report``),
plus a sixth selection that picks among them per kernel:

* :class:`~repro.runtime.interpreter.Interpreter` — the tree-walking
  reference engine: un-lowered modules run with SIMT (GPU oracle) semantics,
  lowered modules run under the simulated-multicore cost model.  It is the
  correctness and cost-accounting oracle, and the one implementation of
  barrier semantics.
* :class:`~repro.runtime.compiler.CompiledEngine` — the default engine: a
  one-time translation of each function to specialized Python closures with
  SSA slot numbering and lazy iteration spaces.  Bit-identical outputs and
  cost reports, much faster wall clock.
* :class:`~repro.runtime.vectorizer.VectorizedEngine` — the compiled engine
  plus whole-grid NumPy execution of spans (the barrier-free parallel loops
  cpuify produces): SSA registers become lane arrays, loads/stores become
  gathers/scatters; a span the analyzer cannot vectorize falls back to
  compiled closures.
* :class:`~repro.runtime.multicore.MulticoreEngine` — outermost spans
  sharded across a persistent worker-process pool, with memrefs promoted to
  ``multiprocessing.shared_memory`` views (:mod:`repro.runtime.sharedmem`)
  so workers scatter/gather in place, and per-worker costs folded in thread
  order for bit-identical reports.
* :class:`~repro.runtime.native.NativeEngine` — spans transpiled
  to C (:mod:`repro.runtime.codegen_c`), compiled once with the system
  toolchain (``cc -O1 -fopenmp``; ``REPRO_CC``) into content-addressed
  shared objects and dispatched zero-copy by one C call — the paper's
  "GPU kernels as native OpenMP CPU code" artifact.  Degrades per region
  (and wholesale, without a toolchain) to the compiled engine.

  Every compiled engine compiles spans only: ``__syncthreads`` is lowered
  in the IR by cpuify, and an un-lowered region (``gpu.launch``,
  ``scf.parallel`` with barriers — the SIMT oracle) is handed to the
  interpreter under every engine (``Interpreter.run_region``), the tier
  ``"interp"`` and the refusal named in ``engine.regions``.
* :class:`~repro.runtime.autotune.AutoEngine` (``engine="auto"``) — the
  measurement-driven autotuner: the first run of a given
  module/function/argument-shape measures every viable engine configuration
  on the real arguments (warmup + min-of-k, snapshot/restore of writable
  buffers) and caches the fastest config whose outputs and CostReports are
  bit-identical to the interpreter reference in the
  :class:`~repro.runtime.cache.TuningCache` tier; warm runs dispatch
  straight to the cached winner with zero measurements.

Select with :func:`~repro.runtime.engine.make_executor` /
:func:`~repro.runtime.engine.execute`
(``engine="compiled"|"vectorized"|"multicore"|"native"|"interp"|"auto"``,
or the ``REPRO_ENGINE`` environment variable; ``workers=`` /
``REPRO_WORKERS`` sizes the multicore pool).  The engines are the rows of
one static table in :mod:`repro.runtime.engine`, so which names are valid
never depends on what happens to have been imported.  Engine classes and
the selection layer are exported lazily (PEP 562); only the leaf modules
(errors, memory, cost model, cache) load eagerly, and importing the
selection layer loads every engine module with it.

* :mod:`~repro.runtime.costmodel` defines the machine descriptions
  (``XEON_8375C`` for the Rodinia/MCUDA study, ``A64FX_CMG`` for MocCUDA)
  and the per-operation/memory cost tables; every charge lies on one
  2^-8-cycle grid, so every engine is exact under any machine model.
* :class:`~repro.runtime.memory.MemRefStorage` is the numpy-backed buffer
  type shared by all execution modes.
* :mod:`~repro.runtime.cache` is the content-addressed kernel compile
  cache behind :func:`repro.frontend.compile_cuda` (in-process LRU always;
  on-disk tier with ``REPRO_CACHE=1`` / ``REPRO_CACHE_DIR``) plus the
  native engine's ``.so`` artifact tier.
"""

from importlib import import_module

from .errors import (
    CacheCorruptionError,
    DispatchTimeoutError,
    InterpreterError,
    ResilienceError,
    ShmExhaustedError,
    StreamPoisonedError,
    ToolchainError,
    UseAfterFreeError,
    WorkerCrashError,
    is_transient,
)
from .memory import MemRefStorage, dtype_for
from . import resilience
from .resilience import (
    FALLBACK_CHAIN,
    FaultPlan,
    ResilienceEvent,
    ResilienceLog,
    ResilientExecutor,
    RetryPolicy,
    call_with_retry,
    fallback_engines,
    global_log as global_resilience_log,
    reset_faults,
)
from .costmodel import (
    A64FX_CMG,
    CostReport,
    MachineModel,
    OP_COSTS,
    XEON_8375C,
    memory_access_cost,
    op_cost,
)
from .cache import (
    KernelCache,
    NativeArtifactCache,
    TuningCache,
    TuningCacheStats,
    clear_global_cache,
    clear_global_tuning_cache,
    global_cache,
    global_native_cache,
    global_tuning_cache,
    kernel_key,
    pipeline_fingerprint,
)
#: engine-name constants (kept importable without loading any engine module).
ENGINE_COMPILED = "compiled"
ENGINE_INTERP = "interp"
ENGINE_VECTORIZED = "vectorized"
ENGINE_MULTICORE = "multicore"
ENGINE_NATIVE = "native"
ENGINE_AUTO = "auto"
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: lazily exported attribute -> defining submodule (PEP 562).  Touching one
#: of these imports its module — for the selection layer (``engine``), every
#: engine module with it; everything above stays a leaf import.
_LAZY_EXPORTS = {
    "Interpreter": "interpreter",
    "CompiledEngine": "compiler",
    "invalidate_compiled": "compiler",
    "VectorizedEngine": "vectorizer",
    "MulticoreEngine": "multicore",
    "default_workers": "multicore",
    "multicore_available": "multicore",
    "shutdown_worker_pools": "multicore",
    "NativeEngine": "native",
    "native_available": "native",
    "AutoEngine": "autotune",
    "tune_module": "autotune",
    "sharedmem": "sharedmem",
    "ENGINES": "engine",
    "default_engine": "engine",
    "engine_names": "engine",
    "execute": "engine",
    "make_executor": "engine",
    "resolve_engine": "engine",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)
    value = module if name == "sharedmem" else getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "MemRefStorage", "dtype_for", "sharedmem",
    "A64FX_CMG", "CostReport", "MachineModel", "OP_COSTS", "XEON_8375C",
    "memory_access_cost", "op_cost",
    "Interpreter", "InterpreterError", "UseAfterFreeError",
    "CacheCorruptionError", "DispatchTimeoutError", "ResilienceError",
    "ShmExhaustedError", "StreamPoisonedError", "ToolchainError",
    "WorkerCrashError", "is_transient",
    "FALLBACK_CHAIN", "FaultPlan", "ResilienceEvent", "ResilienceLog",
    "ResilientExecutor", "RetryPolicy", "call_with_retry",
    "fallback_engines", "global_resilience_log", "reset_faults",
    "resilience",
    "CompiledEngine", "invalidate_compiled",
    "VectorizedEngine",
    "MulticoreEngine", "default_workers", "multicore_available",
    "shutdown_worker_pools",
    "NativeEngine", "native_available",
    "AutoEngine", "tune_module",
    "KernelCache", "NativeArtifactCache", "TuningCache", "TuningCacheStats",
    "clear_global_cache", "clear_global_tuning_cache",
    "global_cache", "global_native_cache", "global_tuning_cache",
    "kernel_key", "pipeline_fingerprint",
    "engine_names",
    "ENGINE_AUTO", "ENGINE_COMPILED", "ENGINE_ENV_VAR", "ENGINE_INTERP",
    "ENGINE_MULTICORE", "ENGINE_NATIVE", "ENGINE_VECTORIZED", "ENGINES",
    "default_engine", "execute", "make_executor", "resolve_engine",
]

"""repro.transforms — the optimization and lowering passes.

The public entry point is :func:`cpuify`, which mirrors the paper's
``-cuda-lower -cpuify=<opts>`` driver flags; individual passes are exported
for tests, ablations and custom pipelines.
"""

from .pass_manager import Pass, PassManager, PassStatistic, PipelineOptions
from .canonicalize import CanonicalizePass, canonicalize
from .cse import CSEPass, eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .licm import LICMPass, ParallelLICMPass, hoist_loop_invariant_code
from .mem2reg import Mem2RegPass, promote_memory_to_registers
from .inline import InlinerPass, inline_call, inline_functions, remove_dead_functions
from .loop_unroll import LoopUnrollPass, fully_unroll, trip_count, unroll_small_loops
from .barrier_elim import BarrierEliminationPass, eliminate_redundant_barriers
from .loop_split import (
    SplitError,
    expand_crossing_allocas,
    first_splittable_barrier,
    select_values_to_cache,
    split_parallel_at_barrier,
)
from .loop_interchange import (
    InterchangeError,
    barrier_container,
    interchange,
    interchange_for,
    interchange_if,
    interchange_while,
    wrap_with_barriers,
)
from .lower_gpu import LowerGPUPass, convert_launch_to_parallel, lower_host_memory_ops
from .parallel_opts import (
    CollapsePass,
    InnerSerializationPass,
    collapse_parallel_loops,
    serialize_inner_parallel_loops,
    serialize_parallel,
)
from .lower_omp import LowerToOpenMPPass, lower_module_to_omp, lower_parallel_to_omp
from .omp_opt import OpenMPOptPass, fuse_parallel_regions, hoist_parallel_regions
from .cpuify import FALLBACK_ATTR, BarrierLoweringPass, build_pipeline, cpuify

__all__ = [
    "Pass", "PassManager", "PassStatistic", "PipelineOptions",
    "CanonicalizePass", "canonicalize",
    "CSEPass", "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "LICMPass", "ParallelLICMPass", "hoist_loop_invariant_code",
    "Mem2RegPass", "promote_memory_to_registers",
    "InlinerPass", "inline_call", "inline_functions", "remove_dead_functions",
    "LoopUnrollPass", "fully_unroll", "trip_count", "unroll_small_loops",
    "BarrierEliminationPass", "eliminate_redundant_barriers",
    "SplitError", "expand_crossing_allocas", "first_splittable_barrier",
    "select_values_to_cache", "split_parallel_at_barrier",
    "InterchangeError", "barrier_container", "interchange", "interchange_for",
    "interchange_if", "interchange_while", "wrap_with_barriers",
    "LowerGPUPass", "convert_launch_to_parallel", "lower_host_memory_ops",
    "CollapsePass", "InnerSerializationPass", "collapse_parallel_loops",
    "serialize_inner_parallel_loops", "serialize_parallel",
    "LowerToOpenMPPass", "lower_module_to_omp", "lower_parallel_to_omp",
    "OpenMPOptPass", "fuse_parallel_regions", "hoist_parallel_regions",
    "FALLBACK_ATTR", "BarrierLoweringPass", "build_pipeline", "cpuify",
]

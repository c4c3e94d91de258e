"""The GPU-to-CPU pipeline (``-cuda-lower -cpuify=<opts>``).

``cpuify`` is the end-to-end transformation the paper evaluates: starting
from the unified host/device module produced by the frontend it

1. converts ``gpu.launch`` into the nested-parallel representation,
2. inlines ``__device__`` helpers into kernels,
3. runs the generic cleanups (canonicalize, which ends in dead-code
   elimination, and CSE) plus the parallel-specific optimizations controlled
   by :class:`PipelineOptions` (barrier-aware mem2reg, parallel LICM — serial
   LICM only when parallel LICM is ablated away — loop unrolling, barrier
   elimination),
4. lowers the remaining barriers by repeated parallel-loop splitting and
   interchange,
5. restructures the block parallelism (collapse / inner serialization) and
6. lowers to the OpenMP dialect, optionally fusing/hoisting parallel regions.
"""

from __future__ import annotations

from typing import Optional

from ..ir import verify
from ..dialects import scf
from ..dialects.func import FuncOp, ModuleOp
from ..analysis import barriers_in, contains_barrier
from .pass_manager import Pass, PassManager, PipelineOptions
from .canonicalize import CanonicalizePass
from .cse import CSEPass
from .inline import InlinerPass
from .licm import LICMPass, ParallelLICMPass
from .mem2reg import Mem2RegPass
from .loop_unroll import LoopUnrollPass
from .barrier_elim import BarrierEliminationPass
from .loop_split import SplitError, first_splittable_barrier, split_parallel_at_barrier
from .loop_interchange import InterchangeError, barrier_container, interchange, wrap_with_barriers
from .lower_gpu import LowerGPUPass
from .parallel_opts import CollapsePass, InnerSerializationPass
from .lower_omp import LowerToOpenMPPass
from .omp_opt import OpenMPOptPass


FALLBACK_ATTR = "barrier_fallback"
"""Attribute set on parallel loops whose barriers could not be lowered; they
stay ``scf.parallel`` with their barriers, and every engine hands them to
:meth:`repro.runtime.Interpreter.run_region` (region tier ``"interp"``):
correct, but paying the full synchronization cost."""


class BarrierLoweringPass(Pass):
    """Eliminate barriers structurally via loop splitting and interchange."""

    NAME = "barrier-lowering"

    def __init__(self, use_mincut: bool = True, max_iterations: int = 200) -> None:
        self.use_mincut = use_mincut
        self.max_iterations = max_iterations

    def run(self, module: ModuleOp) -> bool:
        changed = False
        for fn in module.functions:
            if not fn.is_declaration:
                changed |= self._run_on_function(fn)
        return changed

    def _run_on_function(self, fn: FuncOp) -> bool:
        changed = False
        for _ in range(self.max_iterations):
            if not barriers_in(fn, immediate_region_only=False):
                break
            if not self._step(fn):
                break
            changed = True
        return changed

    def _step(self, fn: FuncOp) -> bool:
        """Perform one structural rewrite; returns False when stuck."""
        # innermost-first so nested parallel loops resolve their own barriers.
        for parallel in [op for op in fn.walk_post_order() if isinstance(op, scf.ParallelOp)]:
            if parallel.parent_block is None or parallel.get_attr(FALLBACK_ATTR):
                continue
            if not contains_barrier(parallel, immediate_region_only=True):
                continue

            barrier = first_splittable_barrier(parallel)
            if barrier is not None:
                try:
                    split_parallel_at_barrier(parallel, barrier, self.use_mincut)
                    return True
                except SplitError:
                    parallel.set_attr(FALLBACK_ATTR, True)
                    continue

            container = barrier_container(parallel)
            if container is None:
                continue
            from .loop_interchange import pure_siblings
            if pure_siblings(parallel, container) is not None:
                try:
                    interchange(parallel, container)
                    return True
                except InterchangeError:
                    parallel.set_attr(FALLBACK_ATTR, True)
                    continue
            if wrap_with_barriers(parallel, container):
                return True
            parallel.set_attr(FALLBACK_ATTR, True)
        return False


def build_pipeline(options: PipelineOptions, verbose: bool = False) -> PassManager:
    """Assemble the pass pipeline for the given options.

    ``verbose`` turns on the pass manager's live per-pass timing lines; the
    aggregate table is available afterwards via
    :meth:`PassManager.statistics_summary`.
    """
    pm = PassManager(verbose=verbose)
    pm.add(LowerGPUPass())
    pm.add(CanonicalizePass())
    pm.add(CSEPass())
    if options.parallel_licm:
        # Hoist read-only calls (e.g. Fig. 1's sum()) out of the kernel while
        # they are still calls — inlining would dissolve the opportunity.
        pm.add(ParallelLICMPass())
    if options.inline_device:
        pm.add(InlinerPass(device_only=True))
    pm.add(CSEPass())
    if not options.parallel_licm:
        pm.add(LICMPass())
    if options.mem2reg:
        pm.add(Mem2RegPass())
    if options.parallel_licm:
        pm.add(ParallelLICMPass())
    if options.affine:
        pm.add(LoopUnrollPass())
    if options.barrier_elim:
        pm.add(BarrierEliminationPass())
    pm.add(BarrierLoweringPass(use_mincut=options.mincut))
    pm.add(CanonicalizePass())
    pm.add(CSEPass())
    if options.barrier_elim:
        pm.add(BarrierEliminationPass())
    if options.collapse:
        pm.add(CollapsePass())
    if options.inner_serialize:
        pm.add(InnerSerializationPass())
    pm.add(LowerToOpenMPPass(options.num_threads))
    if options.openmp_opt:
        pm.add(OpenMPOptPass())
    pm.add(CanonicalizePass())
    return pm


def cpuify(module: ModuleOp, options: Optional[PipelineOptions] = None,
           verbose: bool = False) -> ModuleOp:
    """Run the full GPU-to-CPU pipeline in place and return the module."""
    options = options or PipelineOptions.all_optimizations()
    pipeline = build_pipeline(options, verbose=verbose)
    pipeline.run(module)
    verify(module)
    return module

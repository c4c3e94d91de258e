"""Naive thread-per-GPU-thread emulation baseline.

The earliest GPU-on-CPU execution strategy (NVIDIA's device-emulation mode,
§VII-A) mapped every GPU thread to one CPU thread.  On a CPU with tens of
cores and kernels with thousands of threads this drowns in scheduling and
synchronization overhead.  We model it by executing the *un-lowered* module
with SIMT semantics — on the interpreter, which every engine hands an
un-lowered region to — and charging the heavy per-phase synchronization cost
of the cost model for every barrier phase of every block.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..frontend import compile_cuda
from ..runtime import CostReport, MachineModel, XEON_8375C, make_executor


def run_thread_per_thread(source: str, entry: str, arguments: Sequence, *,
                          machine: MachineModel = XEON_8375C,
                          threads: Optional[int] = None) -> CostReport:
    """Compile without lowering and execute with one emulated thread per GPU thread."""
    module = compile_cuda(source, cuda_lower=False)
    executor = make_executor(module, engine="interp", machine=machine, threads=threads)
    executor.run(entry, arguments)
    report = executor.report
    # every simulated GPU thread becomes an OS thread: charge a fork per
    # thread-block phase on top of the interpreter's accounting.
    report.cycles += report.simt_phases * machine.fork_cost
    return report

"""Analytic machine and cost model.

The paper's measurements come from an AWS ``c6i.metal`` node (dual Xeon
8375C) for the Rodinia/MCUDA study and a Fugaku A64FX node (4 core-memory
groups with HBM2) for the MocCUDA study.  Neither machine is available to a
pure-Python reproduction, so runtimes are reported in *simulated cycles*
computed from the structure of the executed program:

* every dynamic operation has a base cost (integer ALU 1, FP mul 4,
  division ~20, transcendental ~40, ...);
* memory accesses are charged by memory space and by a locality heuristic
  (sequential vs. strided global traffic, cache-resident shared/local
  buffers, high-bandwidth memory on A64FX);
* forking an OpenMP parallel region costs ``fork_cost`` (much more for
  nested regions), each workshared loop/barrier pays a synchronization cost,
  and nested regions additionally pay a false-sharing penalty on writes;
* a parallel region's wall-clock contribution is its sequential work divided
  by the effective worker count (no speedup for nested regions once the
  outer level already saturates the cores), plus the overheads above — an
  Amdahl-style model that reproduces the paper's qualitative results (inner
  serialization wins, transpiled CUDA scales better than hand-written
  OpenMP) without pretending to predict absolute hardware numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class MachineModel:
    """A simulated multicore CPU."""

    name: str
    cores: int
    #: cycles to fork+join a top-level parallel region (thread wake-up, closure setup).
    fork_cost: float = 2500.0
    #: cycles to fork a *nested* parallel region (oversubscription, contention).
    nested_fork_cost: float = 6000.0
    #: cycles for a team-wide synchronization (wsloop end / omp.barrier).
    sync_cost: float = 400.0
    #: per-phase cost of emulating an un-lowered GPU barrier on the CPU (SIMT fallback).
    simt_phase_cost: float = 20000.0
    #: cycles per global-memory element access (cache-missing traffic).
    global_access_cost: float = 6.0
    #: cycles per shared/local (cache-resident) element access.
    local_access_cost: float = 1.5
    #: multiplier on global traffic when the machine has high-bandwidth memory.
    hbm_bandwidth_factor: float = 1.0
    #: write penalty multiplier for nested parallel regions (false sharing).
    false_sharing_penalty: float = 1.25
    #: fraction of ideal scaling actually achievable per added core (memory BW limits).
    scaling_efficiency: float = 0.97

    def effective_speedup(self, threads: int) -> float:
        """Sub-linear speedup from ``threads`` workers."""
        threads = max(1, threads)
        return sum(self.scaling_efficiency ** i for i in range(threads))


#: the Rodinia / MCUDA evaluation machine (one socket of a c6i.metal).
XEON_8375C = MachineModel(name="xeon-8375c", cores=32)

#: one A64FX core-memory group (12 cores + HBM2) used for the MocCUDA study.
A64FX_CMG = MachineModel(name="a64fx-cmg", cores=12, global_access_cost=4.0,
                         hbm_bandwidth_factor=0.45, fork_cost=3200.0,
                         nested_fork_cost=8000.0)


#: base cycle costs per operation name (anything absent costs DEFAULT_OP_COST).
OP_COSTS: Dict[str, float] = {
    "arith.constant": 0.0,
    "arith.addi": 1.0, "arith.subi": 1.0, "arith.muli": 2.0,
    "arith.divsi": 20.0, "arith.remsi": 20.0,
    "arith.minsi": 1.0, "arith.maxsi": 1.0,
    "arith.andi": 1.0, "arith.ori": 1.0, "arith.xori": 1.0,
    "arith.shli": 1.0, "arith.shrsi": 1.0,
    "arith.addf": 2.0, "arith.subf": 2.0, "arith.mulf": 4.0,
    "arith.divf": 18.0, "arith.remf": 25.0,
    "arith.minf": 2.0, "arith.maxf": 2.0, "arith.negf": 1.0,
    "arith.cmpi": 1.0, "arith.cmpf": 2.0, "arith.select": 1.0,
    "arith.index_cast": 0.5, "arith.intcast": 0.5,
    "arith.sitofp": 2.0, "arith.fptosi": 2.0, "arith.fpcast": 1.0,
    "math.unary": 40.0, "math.powf": 55.0,
    "func.call": 12.0, "func.return": 1.0,
    "scf.yield": 0.0, "scf.condition": 1.0,
    "scf.for": 2.0, "scf.if": 1.0, "scf.while": 2.0,
    "memref.dim": 0.5,
    "polygeist.barrier": 0.0,  # charged by the executor, not per-op
    "omp.barrier": 0.0,
}

DEFAULT_OP_COST = 1.0


def op_cost(op_name: str) -> float:
    return OP_COSTS.get(op_name, DEFAULT_OP_COST)


#: every charge lies on the 2^-8-cycle grid, for every :class:`MachineModel`:
#: the op costs above by construction, a machine's access costs because
#: :func:`memory_access_cost` rounds them to it.  Grid values sum exactly in
#: float64 (far below the 2^53 mantissa budget for any realistic run) and an
#: exact sum does not depend on its grouping — which is what makes the fast
#: tiers' analytic ``cost * count`` accounting (regrouped per lane, OpenMP
#: thread or worker) bit-identical to the interpreter's sequential sum.
CYCLE_GRID = 256.0


def exact_cycles(cost: float) -> bool:
    """True if ``cost`` lies on the :data:`CYCLE_GRID`."""
    scaled = cost * CYCLE_GRID
    return scaled == int(scaled)


@dataclass
class CostReport:
    """Result of one simulated execution."""

    machine: MachineModel
    threads: int
    cycles: float = 0.0
    dynamic_ops: int = 0
    parallel_regions: int = 0
    nested_regions: int = 0
    workshared_loops: int = 0
    barriers: int = 0
    simt_phases: int = 0
    global_bytes: float = 0.0

    @property
    def seconds(self) -> float:
        """Cycles scaled to a nominal 1 GHz clock — a convenience unit only."""
        return self.cycles / 1e9

    def merge(self, other: "CostReport") -> None:
        self.cycles += other.cycles
        self.dynamic_ops += other.dynamic_ops
        self.parallel_regions += other.parallel_regions
        self.nested_regions += other.nested_regions
        self.workshared_loops += other.workshared_loops
        self.barriers += other.barriers
        self.simt_phases += other.simt_phases
        self.global_bytes += other.global_bytes

    def __repr__(self) -> str:
        return (f"CostReport(cycles={self.cycles:.0f}, ops={self.dynamic_ops}, "
                f"regions={self.parallel_regions}, threads={self.threads})")


def memory_access_cost(machine: MachineModel, memory_space: str, element_bytes: int,
                       sequential: bool = True) -> float:
    """Cycles charged for a single element access, on the :data:`CYCLE_GRID`:
    the identity on ``XEON_8375C`` (6.0 and 1.5), while ``A64FX_CMG``'s
    4.0 x 0.45 = 1.8 cycles per global word is charged as 461/256."""
    if memory_space in ("shared", "local"):
        return _on_grid(machine.local_access_cost)
    cost = machine.global_access_cost * machine.hbm_bandwidth_factor
    if not sequential:
        cost *= 2.5
    # wider elements move more bytes through the memory system: whole words.
    # The word's charge is what is rounded, so that generated code scaling it
    # by a run-time width (``optable.access_charge_lines``) charges the same.
    return _on_grid(cost) * max(1.0, element_bytes / 4.0)


def _on_grid(cost: float) -> float:
    return round(cost * CYCLE_GRID) / CYCLE_GRID

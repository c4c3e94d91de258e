"""One description of a parallel region, derived once from the IR alone.

The paper's point is that a single high-level form of a parallel construct
(``scf.parallel`` + ``polygeist.barrier``) serves every consumer unchanged.
The execution engines are four such consumers — closures, NumPy lanes,
emitted OpenMP C, worker shards — and what they need to know about a region
is the same: what kind of region it is, which values it captures, where its
barriers split it into phases, which buffers are block-shared, how each
value of its body depends on the iteration, and whether its iterations may
really run concurrently.  :class:`RegionPlan` answers those questions once
per region op; :class:`RegionPlans` memoises the plans
of one module together with the barrier-reachability walk they share.

Nothing here imports from :mod:`repro.runtime`: the plan states facts about
the IR, the engines decide what to do with them.  The reference interpreter
deliberately does *not* read plans — it is the oracle the engines, and so
this analysis, are checked against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dialects import func as func_d, gpu as gpu_d, memref as memref_d
from ..dialects import omp as omp_d
from ..ir import Operation, Value
from .lanes import LaneFacts
from .store_safety import span_required_dims
from .structure import (BARRIER_OPS, CONTEXT_OPS, contains_barrier,
                        free_values_in, split_executed)

WSLOOP = "wsloop"      # omp.wsloop: a workshared iteration span
PARALLEL = "parallel"  # barrier-free scf.parallel: an iteration span
SIMT = "simt"          # scf.parallel whose barriers span the whole grid
LAUNCH = "launch"      # gpu.launch: a block grid, barriers scoped per block

_UNSET = object()


class RegionPlan:
    """What every engine needs to know about one region op.

    * ``kind`` — :data:`WSLOOP` | :data:`PARALLEL` | :data:`SIMT` |
      :data:`LAUNCH`; the first two are *spans* (``lower_bounds`` /
      ``upper_bounds`` / ``steps`` / ``induction_vars``, as are SIMT
      regions), a launch has ``grid_dims`` / ``block_dims`` / ``block_args``.
    * ``body_ops`` / ``terminator`` — the executed ops of the region body.
    * ``phases`` — ``[(ops, dynamic-op count)]``, one entry per
      barrier-delimited phase, when every barrier sits in straight-line
      position of the body; ``None`` when one sits under control flow.  Every
      op, including the barrier itself, counts toward the phase it ends, and
      the terminator toward the last.  Spans are one phase.
    * ``shared_allocas`` — the launch body's top-level shared-memory
      allocas: one buffer per block, bound before the threads run.
    * ``live_ins`` — the values the region captures: the op's own operands,
      then every outside value its body uses, in first-use order.  This
      order is the argument ABI of the emitted C.
    * ``lanes`` — a span's :class:`~repro.analysis.lanes.LaneFacts`: per
      value of the body, uniform / injective over lane dims / varying, and
      whether it is held per lane.  The vectorizer emits from them
      (scalar or lane array, masked or plain ``scf.if``, the single-lane
      guard), ``parallel_proof`` is the store check over them.  Computed on
      first use, once, whoever asks; spans only.
    * ``parallel_proof`` — a span's store-safety verdict: the dims that
      must have extent 1 for iterations to run concurrently, or ``None``
      when write-write safety cannot be proven — the analysis' reason is
      then recorded as a ``parallel`` refusal.  Un-lowered regions (SIMT,
      launch) are never asked: no tier runs them concurrently.  Computed on
      first use, once, whoever asks (``native``, ``multicore``).
    * ``refusals`` — ``(capability, reason)`` pairs recorded where an
      execution tier declined the region.  Plans are shared by every
      compiled program of the module, so a module run under two machine
      models lists what either was refused.
    """

    def __init__(self, plans: "RegionPlans", op: Operation) -> None:
        self.op = op
        self._module = plans.module
        self.body_ops, self.terminator = split_executed(op.body)
        self.refusals: List[Tuple[str, str]] = []
        self.shared_allocas: List[Operation] = []
        self._live_ins = self._lanes = self._proof = _UNSET
        if isinstance(op, gpu_d.LaunchOp):
            self.kind = LAUNCH
            self.grid_dims = tuple(op.grid_dims)
            self.block_dims = tuple(op.block_dims)
            self.block_args = tuple(op.body.arguments)
            self.shared_allocas = [
                nested for nested in self.body_ops
                if isinstance(nested, memref_d.AllocaOp)
                and memref_d.is_shared_memref(nested.result)]
        else:
            if isinstance(op, omp_d.OmpWsLoopOp):
                self.kind = WSLOOP
            elif contains_barrier(op, immediate_region_only=True):
                self.kind = SIMT
            else:
                self.kind = PARALLEL
            self.lower_bounds = tuple(op.lower_bounds)
            self.upper_bounds = tuple(op.upper_bounds)
            self.steps = tuple(op.steps)
            self.induction_vars = tuple(op.induction_vars)
        self.phases = self._split_phases(plans)

    def _split_phases(self, plans: "RegionPlans"):
        ops = self.body_ops
        tail = 1 if self.terminator is not None else 0
        if self.kind in (WSLOOP, PARALLEL):
            return [(ops, len(ops) + tail)]
        if not all(isinstance(op, BARRIER_OPS) or not plans.op_may_yield(op)
                   for op in ops):
            return None
        phases: List[Tuple[List, int]] = []
        current: List = []
        count = 0
        for op in ops:
            count += 1
            if isinstance(op, BARRIER_OPS):
                phases.append((current, count))
                current, count = [], 0
            else:
                current.append(op)
        phases.append((current, count + tail))
        return phases

    @property
    def live_ins(self) -> List[Value]:
        if self._live_ins is _UNSET:
            unique = {id(value): value
                      for value in (*self.op.operands, *free_values_in(self.op))}
            self._live_ins = list(unique.values())
        return self._live_ins

    @property
    def lanes(self) -> LaneFacts:
        if self._lanes is _UNSET:
            self._lanes = LaneFacts(self.op)
        return self._lanes

    @property
    def parallel_proof(self) -> Optional[FrozenSet[int]]:
        if self._proof is _UNSET:
            if self.kind in (SIMT, LAUNCH):
                self._proof = None
            else:
                self._proof, reason = span_required_dims(
                    self._module, self.op, self.lanes)
                if reason is not None:
                    self.refuse("parallel", reason)
        return self._proof

    def refuse(self, capability: str, reason: str) -> None:
        """Record that the tier ``capability`` declined this region."""
        if (capability, reason) not in self.refusals:
            self.refusals.append((capability, reason))


class RegionPlans:
    """The region plans of one module, and barrier reachability over it."""

    def __init__(self, module: func_d.ModuleOp) -> None:
        self.module = module
        self._plans: Dict[int, RegionPlan] = {}
        self._may_yield: Dict[int, bool] = {}  # id(op) | id(function) -> verdict

    def plan(self, op: Operation) -> RegionPlan:
        plan = self._plans.get(id(op))
        if plan is None:
            plan = self._plans[id(op)] = RegionPlan(self, op)
        return plan

    def op_may_yield(self, op: Operation) -> bool:
        """True if executing ``op`` may surface a barrier to the enclosing body."""
        cached = self._may_yield.get(id(op))
        if cached is None:
            if isinstance(op, BARRIER_OPS):
                cached = True
            elif isinstance(op, CONTEXT_OPS):
                cached = False
            elif isinstance(op, func_d.CallOp):
                callee = self.module.lookup(op.callee)
                cached = (callee is not None and not callee.is_declaration
                          and self.function_may_yield(callee))
            else:
                cached = any(self.op_may_yield(nested)
                             for region in op.regions
                             for block in region.blocks
                             for nested in block.operations)
            self._may_yield[id(op)] = cached
        return cached

    def function_may_yield(self, fn: func_d.FuncOp) -> bool:
        key = id(fn)
        if key not in self._may_yield:
            self._may_yield[key] = True  # conservative while recursing
            self._may_yield[key] = any(self.op_may_yield(op)
                                       for op in fn.body_block.operations)
        return self._may_yield[key]

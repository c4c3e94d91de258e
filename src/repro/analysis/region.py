"""One description of a parallel region, derived once from the IR alone.

The paper's point is that a single high-level form of a parallel construct
(``scf.parallel`` + ``polygeist.barrier``) serves every consumer unchanged.
The execution engines are four such consumers — closures, NumPy lanes,
emitted OpenMP C, worker shards — and what they need to know about a region
is the same: what kind of region it is, which values it captures, how each
value of its body depends on the iteration, and whether its iterations may
really run concurrently.  :class:`RegionPlan` answers those questions once
per region op; :class:`RegionPlans` memoises the plans of one module
together with the barrier-reachability walk the C emitter asks of callees.

Nothing here imports from :mod:`repro.runtime`: the plan states facts about
the IR, the engines decide what to do with them.  The reference interpreter
deliberately does *not* read plans — it is the oracle the engines, and so
this analysis, are checked against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dialects import func as func_d, gpu as gpu_d
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
      :data:`LAUNCH`.  The first two are *spans*, the only regions an
      engine compiles: ``lower_bounds`` / ``upper_bounds`` / ``steps`` /
      ``induction_vars`` and ``body``, the executed ops of the span body
      with their dynamic-op count (terminator included).  Un-lowered
      regions (SIMT, launch) carry no more than ``kind``, ``live_ins`` and
      ``refusals``: every engine hands them to the interpreter.
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
        self.refusals: List[Tuple[str, str]] = []
        self._live_ins = self._lanes = self._proof = _UNSET
        if isinstance(op, gpu_d.LaunchOp):
            self.kind = LAUNCH
        elif isinstance(op, omp_d.OmpWsLoopOp):
            self.kind = WSLOOP
        elif contains_barrier(op, immediate_region_only=True):
            self.kind = SIMT
        else:
            self.kind = PARALLEL
        if self.kind in (LAUNCH, SIMT):
            return
        self.lower_bounds = tuple(op.lower_bounds)
        self.upper_bounds = tuple(op.upper_bounds)
        self.steps = tuple(op.steps)
        self.induction_vars = tuple(op.induction_vars)
        ops, terminator = split_executed(op.body)
        self.body = (ops, len(ops) + (1 if terminator is not None else 0))

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

"""Structural helpers: parallel nests, enclosing ops, defined-outside values."""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from ..ir import Operation, Value
from ..dialects import func as func_d, gpu as gpu_d, omp as omp_d, polygeist, scf

TERMINATORS = (func_d.ReturnOp, scf.YieldOp, scf.ConditionOp)
BARRIER_OPS = (polygeist.PolygeistBarrierOp, gpu_d.BarrierOp)

#: region-owning ops that run their bodies in their own execution context —
#: a barrier nested under one of these never suspends the *enclosing* body.
CONTEXT_OPS = (scf.ParallelOp, gpu_d.LaunchOp, omp_d.OmpParallelOp,
               omp_d.OmpWsLoopOp, omp_d.OmpSingleOp)


def split_executed(block) -> Tuple[List, Optional[Operation]]:
    """Ops of ``block`` that execute, split at the first terminator."""
    body = []
    for op in block.operations:
        if isinstance(op, TERMINATORS):
            return body, op
        body.append(op)
    return body, None


def enclosing_op_of_type(op: Operation, kind) -> Optional[Operation]:
    """The innermost ancestor of ``op`` that is an instance of ``kind``."""
    parent = op.parent_op
    while parent is not None:
        if isinstance(parent, kind):
            return parent
        parent = parent.parent_op
    return None


def enclosing_parallel(op: Operation) -> Optional[scf.ParallelOp]:
    """Innermost ``scf.parallel`` containing ``op``."""
    return enclosing_op_of_type(op, scf.ParallelOp)


def barriers_in(op: Operation, *, immediate_region_only: bool = False) -> List[polygeist.PolygeistBarrierOp]:
    """All ``polygeist.barrier`` ops nested under ``op``.

    With ``immediate_region_only`` the search does not descend into nested
    ``scf.parallel`` ops (their barriers belong to the inner loop).
    """
    found: List[polygeist.PolygeistBarrierOp] = []

    def visit(current: Operation) -> None:
        for region in current.regions:
            for block in region.blocks:
                for nested in block.operations:
                    if isinstance(nested, polygeist.PolygeistBarrierOp):
                        found.append(nested)
                    if immediate_region_only and isinstance(nested, scf.ParallelOp):
                        continue
                    visit(nested)

    visit(op)
    return found


def contains_barrier(op: Operation, *, immediate_region_only: bool = True) -> bool:
    return bool(barriers_in(op, immediate_region_only=immediate_region_only))


def is_defined_inside(value: Value, op: Operation) -> bool:
    """True if ``value`` is defined by an op (or block) nested under ``op``."""
    block = value.owner_block()
    while block is not None:
        parent = block.parent_op
        if parent is None:
            return False
        if parent is op:
            return True
        block = parent.parent_block
    return False


def free_values_in(op: Operation) -> List[Value]:
    """Values used inside ``op``'s regions but defined outside of ``op``.

    These are the values a region implicitly captures; loop splitting and
    interchange must keep them available to the new loops.
    """
    captured: List[Value] = []
    seen: Set[int] = set()
    for nested in op.walk():
        if nested is op:
            continue
        for operand in nested.operands:
            if id(operand) in seen:
                continue
            if not is_defined_inside(operand, op):
                seen.add(id(operand))
                captured.append(operand)
    return captured


def iterate_parallel_nest(parallel: scf.ParallelOp) -> Iterator[scf.ParallelOp]:
    """Yield ``parallel`` and every directly nested ``scf.parallel``."""
    yield parallel
    for op in parallel.body.operations:
        if isinstance(op, scf.ParallelOp):
            yield from iterate_parallel_nest(op)


def uniform_symbols_for(parallel: scf.ParallelOp) -> List[Value]:
    """Values that are uniform across the iterations of ``parallel``.

    Used by the affine barrier refinement: a value defined outside the
    parallel loop has the same value in every thread, so it can appear in an
    injective per-thread access expression without spoiling injectivity.
    Serial-loop induction variables between the parallel loop and the access
    are also uniform (every thread executes the same iteration counts between
    barriers, §III-B2) and are added by the caller when relevant.
    """
    return free_values_in(parallel)

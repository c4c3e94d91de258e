"""Parallel loop interchange (§III-B2).

Barriers that are nested inside control flow (a serial ``for``, an ``if`` or
a ``while``) cannot be split directly.  The interchange patterns move the
parallel loop *inside* the offending construct so that after interchange the
barrier is (closer to being) an immediate child of a parallel loop:

* ``parallel { for { ...barrier... } }``   → ``for { parallel { ... } }``
  (legal because every thread executes the same trip count),
* ``parallel { if(c) { ...barrier... } }`` → ``if(c) { parallel { ... } }``
  when the condition is uniform (defined outside the parallel loop),
* ``parallel { while(c) { ...barrier... } }`` → a ``while`` whose condition is
  evaluated by every thread and communicated through a helper variable
  written by thread 0 (Fig. 8).

When the construct containing the barrier is not the only operation in the
parallel body, :func:`wrap_with_barriers` first brackets it with barriers so
that loop splitting isolates it into its own parallel loop.
"""

from __future__ import annotations

from typing import Optional

from ..ir import Builder, I1, Operation, Value, memref as memref_type
from ..dialects import arith, memref as memref_d, polygeist, scf
from ..analysis import contains_barrier, is_defined_inside


class InterchangeError(RuntimeError):
    """Raised when an interchange pattern's preconditions do not hold."""


def _non_terminator_ops(block) -> list:
    terminator = block.terminator
    return [op for op in block.operations if op is not terminator]


def barrier_container(parallel: scf.ParallelOp) -> Optional[Operation]:
    """The first top-level op of the parallel body that contains a barrier
    (but is not itself a barrier and not a nested parallel loop)."""
    for op in _non_terminator_ops(parallel.body):
        if isinstance(op, (polygeist.PolygeistBarrierOp, scf.ParallelOp)):
            continue
        if contains_barrier(op, immediate_region_only=True):
            return op
    return None


def wrap_with_barriers(parallel: scf.ParallelOp, container: Operation) -> bool:
    """Insert barriers around ``container`` so splitting isolates it.

    Returns True if any barrier was inserted (False when the container is
    already isolated / bracketed).
    """
    block = parallel.body
    index = block.index_of(container)
    ivs = list(parallel.induction_vars)
    inserted = False
    if index > 0 and not isinstance(block.operations[index - 1], polygeist.PolygeistBarrierOp):
        block.insert_before(container, polygeist.PolygeistBarrierOp(ivs))
        inserted = True
    following = block.operations[block.index_of(container) + 1:]
    non_trivial_followers = [op for op in following if not op.IS_TERMINATOR]
    if non_trivial_followers and not isinstance(non_trivial_followers[0],
                                                polygeist.PolygeistBarrierOp):
        block.insert_after(container, polygeist.PolygeistBarrierOp(ivs))
        inserted = True
    return inserted


def _clone_parallel_shell(parallel: scf.ParallelOp) -> scf.ParallelOp:
    return scf.ParallelOp(list(parallel.lower_bounds), list(parallel.upper_bounds),
                          list(parallel.steps), parallel_level=parallel.parallel_level,
                          iv_names=[iv.name_hint for iv in parallel.induction_vars])


def pure_siblings(parallel: scf.ParallelOp, container: Operation) -> Optional[list]:
    """Top-level siblings of ``container`` that may be replicated, else None.

    Interchange does not require the container to be literally alone in the
    parallel body: pure scalar computations (constants, index arithmetic) can
    simply be replicated into the interchanged loop, and loads can be
    replicated as long as neither the container nor any sibling may write the
    location they read (re-executing such a load per iteration observes the
    same value).  Anything else must first be separated out by barrier
    wrapping + splitting.
    """
    from ..analysis import any_conflict, collect_accesses
    from ..dialects import memref as memref_d

    siblings = [op for op in _non_terminator_ops(parallel.body) if op is not container]
    writes = [access for access in collect_accesses(container) if not access.is_read]
    for sibling in siblings:
        writes.extend(access for access in collect_accesses(sibling) if not access.is_read)
    for op in siblings:
        if op.is_pure() and not op.regions:
            continue
        if isinstance(op, memref_d.LoadOp):
            reads = collect_accesses(op)
            if not any_conflict(reads, writes):
                continue
        return None
    return siblings


def ensure_defined_outside(value: Value, parallel: scf.ParallelOp) -> bool:
    """Hoist the computation of ``value`` in front of ``parallel`` if possible.

    Loop bounds and uniform conditions are frequently pure expressions
    (constants, index arithmetic on kernel arguments) that the frontend
    placed inside the kernel body; interchange only needs them to dominate
    the parallel loop, so we move the pure def-chain out when we can.
    Returns True when ``value`` is (now) defined outside the loop.
    """
    if not is_defined_inside(value, parallel):
        return True
    op = value.defining_op()
    if op is None or not op.is_pure() or op.regions:
        return False
    if not all(ensure_defined_outside(operand, parallel) for operand in op.operands):
        return False
    op.move_before(parallel)
    return True


# ---------------------------------------------------------------------------
# for-interchange
# ---------------------------------------------------------------------------
def _clone_preamble(siblings, container, value_map, body_builder) -> None:
    """Replicate pure sibling ops that precede ``container`` into a new body."""
    for op in siblings:
        if op.parent_block is None:
            continue
        if not op.is_before_in_block(container):
            continue
        cloned = body_builder.insert(op.clone(value_map))
        for old_result, new_result in zip(op.results, cloned.results):
            value_map[old_result] = new_result


def interchange_for(parallel: scf.ParallelOp, for_op: scf.ForOp) -> scf.ForOp:
    """``parallel { for { body } }`` → ``for { parallel { body } }``."""
    if for_op.results or for_op.iter_args:
        raise InterchangeError("cannot interchange a for loop with iteration arguments")
    for bound in (for_op.lower_bound, for_op.upper_bound, for_op.step):
        if not ensure_defined_outside(bound, parallel):
            raise InterchangeError("for loop bounds depend on the parallel induction variable")
    siblings = pure_siblings(parallel, for_op)
    if siblings is None:
        raise InterchangeError("for loop shares the parallel body with side-effecting ops")

    new_for = scf.ForOp(for_op.lower_bound, for_op.upper_bound, for_op.step,
                        iv_name=for_op.induction_var.name_hint or "j")
    parallel.parent_block.insert_before(parallel, new_for)

    new_parallel = _clone_parallel_shell(parallel)
    for_builder = Builder.at_end(new_for.body)
    for_builder.insert(new_parallel)
    for_builder.insert(scf.YieldOp())

    value_map = {for_op.induction_var: new_for.induction_var}
    value_map.update({old: new for old, new in zip(parallel.induction_vars,
                                                   new_parallel.induction_vars)})
    body_builder = Builder.at_end(new_parallel.body)
    _clone_preamble(siblings, for_op, value_map, body_builder)
    terminator = for_op.body.terminator
    for op in for_op.body.operations:
        if op is terminator:
            continue
        body_builder.insert(op.clone(value_map))
    body_builder.insert(scf.YieldOp())

    parallel.drop_ref()
    parallel.parent_block.remove(parallel)
    return new_for


# ---------------------------------------------------------------------------
# if-interchange
# ---------------------------------------------------------------------------
def interchange_if(parallel: scf.ParallelOp, if_op: scf.IfOp) -> scf.IfOp:
    """``parallel { if(c) { body } }`` → ``if(c) { parallel { body } }``.

    Requires a uniform condition (defined outside the parallel loop), which
    valid CUDA guarantees for any branch containing ``__syncthreads``.
    """
    if if_op.results:
        raise InterchangeError("cannot interchange an if with results")
    if not ensure_defined_outside(if_op.condition, parallel):
        raise InterchangeError("if condition is not uniform across the parallel loop")
    siblings = pure_siblings(parallel, if_op)
    if siblings is None:
        raise InterchangeError("if shares the parallel body with side-effecting ops")

    new_if = scf.IfOp(if_op.condition, with_else=if_op.has_else)
    parallel.parent_block.insert_before(parallel, new_if)

    def fill(branch_block, source_block) -> None:
        branch_builder = Builder.at_end(branch_block)
        new_parallel = _clone_parallel_shell(parallel)
        branch_builder.insert(new_parallel)
        branch_builder.insert(scf.YieldOp())
        value_map = {old: new for old, new in zip(parallel.induction_vars,
                                                  new_parallel.induction_vars)}
        body_builder = Builder.at_end(new_parallel.body)
        _clone_preamble(siblings, if_op, value_map, body_builder)
        terminator = source_block.terminator
        for op in source_block.operations:
            if op is terminator:
                continue
            body_builder.insert(op.clone(value_map))
        body_builder.insert(scf.YieldOp())

    fill(new_if.then_block, if_op.then_block)
    if if_op.has_else:
        fill(new_if.else_block, if_op.else_block)

    parallel.drop_ref()
    parallel.parent_block.remove(parallel)
    return new_if


# ---------------------------------------------------------------------------
# while-interchange (Fig. 8)
# ---------------------------------------------------------------------------
def interchange_while(parallel: scf.ParallelOp, while_op: scf.WhileOp) -> scf.WhileOp:
    """Interchange a while loop whose body contains a barrier.

    The loop condition must be evaluated by every thread (it may have side
    effects), yet all threads must agree on the iteration count; following
    Fig. 8 a helper variable stores the condition computed by thread 0 and the
    surrounding serial ``while`` reads it back.
    """
    if while_op.results or while_op.init_args:
        raise InterchangeError("cannot interchange a while with carried values")
    siblings = pure_siblings(parallel, while_op)
    if siblings is None:
        raise InterchangeError("while shares the parallel body with side-effecting ops")

    condition_op = while_op.before_block.terminator
    assert isinstance(condition_op, scf.ConditionOp)
    if condition_op.forwarded:
        raise InterchangeError("cannot interchange a while forwarding values to its body")

    builder = Builder.before_op(parallel)
    helper = builder.insert(memref_d.AllocOp(memref_type((), I1))).result

    new_while = scf.WhileOp([])
    parallel.parent_block.insert_before(parallel, new_while)

    # --- before region: evaluate the condition in every thread, thread 0 publishes it.
    before_builder = Builder.at_end(new_while.before_block)
    cond_parallel = _clone_parallel_shell(parallel)
    before_builder.insert(cond_parallel)
    cond_builder = Builder.at_end(cond_parallel.body)
    value_map = {old: new for old, new in zip(parallel.induction_vars,
                                              cond_parallel.induction_vars)}
    _clone_preamble(siblings, while_op, value_map, cond_builder)
    for op in while_op.before_block.operations:
        if op is condition_op:
            continue
        cond_builder.insert(op.clone(value_map))
    condition_value = value_map.get(condition_op.condition, condition_op.condition)
    zero = cond_builder.insert(arith.ConstantOp(0, cond_parallel.induction_vars[0].type))
    is_first = cond_builder.insert(arith.CmpIOp(arith.CmpPredicate.EQ,
                                                cond_parallel.induction_vars[0], zero.result))
    guard = cond_builder.insert(scf.IfOp(is_first.result, with_else=False))
    Builder.at_end(guard.then_block).insert(memref_d.StoreOp(condition_value, helper, []))
    Builder.at_end(guard.then_block).insert(scf.YieldOp())
    cond_builder.insert(scf.YieldOp())
    published = before_builder.insert(memref_d.LoadOp(helper, []))
    before_builder.insert(scf.ConditionOp(published.result))

    # --- after region: the loop body as its own parallel loop.
    after_builder = Builder.at_end(new_while.after_block)
    body_parallel = _clone_parallel_shell(parallel)
    after_builder.insert(body_parallel)
    body_builder = Builder.at_end(body_parallel.body)
    body_map = {old: new for old, new in zip(parallel.induction_vars,
                                             body_parallel.induction_vars)}
    _clone_preamble(siblings, while_op, body_map, body_builder)
    body_terminator = while_op.after_block.terminator
    for op in while_op.after_block.operations:
        if op is body_terminator:
            continue
        body_builder.insert(op.clone(body_map))
    body_builder.insert(scf.YieldOp())
    after_builder.insert(scf.YieldOp())

    parallel.drop_ref()
    parallel.parent_block.remove(parallel)
    return new_while


def interchange(parallel: scf.ParallelOp, container: Operation) -> Operation:
    """Dispatch to the appropriate interchange pattern for ``container``."""
    if isinstance(container, scf.ForOp):
        return interchange_for(parallel, container)
    if isinstance(container, scf.IfOp):
        return interchange_if(parallel, container)
    if isinstance(container, scf.WhileOp):
        return interchange_while(parallel, container)
    raise InterchangeError(f"no interchange pattern for {container.name}")

"""Structural IR verifier.

The verifier checks invariants that every transformation relies on:

* each operation's operands are visible at its position (SSA dominance in the
  structured-control-flow sense: defined earlier in the same block, or a
  block argument / earlier-defined value of an enclosing region; never a
  value of a sibling block or region),
* use lists are consistent with operand lists, in both directions,
* terminators appear only in the last position of a block,
* result / block-argument / parent back-pointers are consistent,
* op-specific ``verify`` hooks pass.

``verify(root)`` raises :class:`VerificationError` with a descriptive
message on the first violation found, in pre-order.

Algorithm and cost.  One pre-order walk carries the dominance scope with
it: a single set of visible value ids, extended by a block's arguments when
the walk enters the block and by an op's results once the walk has passed
the op (so an op's own regions do not see its results), and shrunk again
when the walk leaves the block.  A value's use list is read once, as the
value enters the scope: every use is matched against the operand slot it
names, which settles use-list consistency in both directions (the user's
own operand -> use check becomes a set lookup).  Every block is checked once
(:func:`verify_block`) and every op once, so a call is O(ops + operands +
uses) — the verifier runs after the frontend, after every pass of every
pipeline and on every disk-cache load, and stays on in production because
it is this cheap.  Verifying an op nested in a larger module seeds the scope
from its enclosing blocks (the one :func:`_visible_values` call).

A use that no operand backs ("stale use") is reported only if the walk
finds nothing else: IR that breaks one of the other invariants gets the
same message it always got.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from .core import Block, Operation, Value


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def _visible_values(op: Operation) -> Set[int]:
    """ids of values visible to ``op`` (defined before it, walking outward)."""
    visible: Set[int] = set()
    current: Optional[Operation] = op
    while current is not None:
        block = current.parent_block
        if block is None:
            break
        for arg in block.arguments:
            visible.add(id(arg))
        for earlier in block.operations:
            if earlier is current:
                break
            for result in earlier.results:
                visible.add(id(result))
        current = block.parent_op
    return visible


def _enter(values: Sequence[Value], scope: Set[int], entered: List[int],
           backed: Set[Tuple[Operation, int]], stale: List[str]) -> None:
    """``values`` become visible.  Each of their uses is checked against the
    operand it names: a use an operand backs goes into ``backed`` (the
    operand -> use check of the user is then one lookup), the first one that
    none backs is noted in ``stale``."""
    for value in values:
        scope.add(id(value))
        entered.append(id(value))
        for use in value.uses:
            operands = use.owner._operands
            index = use.operand_index
            if 0 <= index < len(operands) and operands[index] is value:
                backed.add((use.owner, index))
            elif not stale:
                stale.append(f"{value.name}: stale use by {use.owner.name} #{index}")


def _verify(op: Operation, scope: Set[int], backed: Set[Tuple[Operation, int]],
            stale: List[str]) -> None:
    """Check ``op`` against ``scope``, then walk its regions."""
    for region in op.regions:
        if region.parent_op is not op:
            raise VerificationError(f"{op.name}: region does not point back at its op")
        for block in region.blocks:
            if block.parent_region is not region:
                raise VerificationError(f"{op.name}: block does not point back at its region")
            verify_block(block)
    operands = op._operands
    # operand/use consistency (an operand that did not enter the scope on
    # this walk — defined outside the root, or not visible at all — has its
    # use list searched instead)
    for index, operand in enumerate(operands):
        if (op, index) not in backed and not any(
                use.owner is op and use.operand_index == index for use in operand.uses):
            raise VerificationError(
                f"{op.name}: operand #{index} ({operand.name}) does not record this use"
            )
    parent_block = op.parent_block
    if parent_block is not None:
        # dominance
        for index, operand in enumerate(operands):
            if id(operand) not in scope:
                raise VerificationError(
                    f"{op.name}: operand #{index} ({operand.name}: {operand.type}) "
                    "is not visible at its use (dominance violation)"
                )
        # terminator placement
        if op.IS_TERMINATOR and parent_block.operations[-1] is not op:
            raise VerificationError(f"{op.name}: terminator is not the last op of its block")
    # result bookkeeping
    for i, result in enumerate(op.results):
        if result.op is not op or result.index != i:
            raise VerificationError(f"{op.name}: result #{i} has inconsistent owner/index")
    op.verify()
    for region in op.regions:
        for block in region.blocks:
            entered: List[int] = []
            _enter(block.arguments, scope, entered, backed, stale)
            for nested in block.operations:
                _verify(nested, scope, backed, stale)
                _enter(nested.results, scope, entered, backed, stale)
            scope.difference_update(entered)


def verify_block(block: Block) -> None:
    for i, arg in enumerate(block.arguments):
        if arg.block is not block or arg.index != i:
            raise VerificationError(f"block argument #{i} has inconsistent owner/index")
    for op in block.operations:
        if op.parent_block is not block:
            raise VerificationError(f"{op.name}: parent_block does not point at containing block")


def verify(root: Operation) -> None:
    """Verify ``root`` and every nested operation.  Raises on violation."""
    if root.parent_block is not None:
        verify_block(root.parent_block)
    stale: List[str] = []
    _verify(root, _visible_values(root), set(), stale)
    if stale:
        raise VerificationError(stale[0])


def is_valid(root: Operation) -> bool:
    """Boolean convenience wrapper around :func:`verify`."""
    try:
        verify(root)
        return True
    except VerificationError:
        return False

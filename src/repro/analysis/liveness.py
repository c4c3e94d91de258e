"""Liveness across a split point inside a block.

Parallel loop splitting (§III-B1) needs to know which SSA values defined
before the split point are still needed after it.  Because the IR keeps
structured single-block regions, "crossing values" are simply the results of
top-level ops before the split (plus the block arguments) that have at least
one use at or after the split point, where nested uses count for the
top-level op containing them.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..ir import Block, Operation, Value


def _top_level_user_index(block: Block, user: Operation) -> int:
    """Index of the top-level op of ``block`` containing ``user`` (or -1)."""
    node = user
    while node is not None and node.parent_block is not block:
        node = node.parent_op
    if node is None:
        return -1
    return block.index_of(node)


def values_defined_before(block: Block, split_index: int) -> List[Value]:
    """Block arguments and results of ops before ``split_index``."""
    values: List[Value] = list(block.arguments)
    for op in block.operations[:split_index]:
        values.extend(op.results)
    return values


def crossing_values(block: Block, split_index: int) -> List[Value]:
    """Values defined before the split point and used at/after it."""
    crossing: List[Value] = []
    for value in values_defined_before(block, split_index):
        for use in value.uses:
            user_index = _top_level_user_index(block, use.owner)
            if user_index >= split_index:
                crossing.append(value)
                break
    return crossing


def def_use_edges_among(values: Sequence[Value]) -> List[Tuple[int, int]]:
    """``(id(producer), id(consumer))`` pairs restricted to ``values``.

    An edge producer→consumer means the op defining ``consumer`` uses
    ``producer`` as an operand, i.e. recomputing ``consumer`` requires
    ``producer``.
    """
    ids: Set[int] = {id(value) for value in values}
    edges: List[Tuple[int, int]] = []
    for value in values:
        op = value.defining_op()
        if op is None:
            continue
        for operand in op.operands:
            if id(operand) in ids:
                edges.append((id(operand), id(value)))
    return edges

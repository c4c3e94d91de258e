"""Pattern rewriting infrastructure.

Transformations that are naturally expressed as local rewrites (constant
folding, canonicalisation, CSE-like simplifications, barrier elimination of
trivially dead barriers, ...) are written as :class:`RewritePattern`
subclasses and applied to a region with :func:`apply_patterns_greedily`,
mirroring MLIR's greedy pattern driver.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .core import Operation, Value


class Rewriter:
    """Mutation helper handed to patterns.

    Patterns must perform *all* IR mutation through the rewriter so the
    driver can keep its worklist up to date.
    """

    def __init__(self) -> None:
        self.worklist_additions: List[Operation] = []
        self.erased: List[Operation] = []

    # -- insertion ----------------------------------------------------------
    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        anchor.parent_block.insert_before(anchor, op)
        self.worklist_additions.append(op)
        return op

    def insert_after(self, anchor: Operation, op: Operation) -> Operation:
        anchor.parent_block.insert_after(anchor, op)
        self.worklist_additions.append(op)
        return op

    # -- replacement / erasure -------------------------------------------------
    def replace_op(self, op: Operation, new_values: Sequence[Value]) -> None:
        """Replace all results of ``op`` with ``new_values`` and erase it."""
        if len(new_values) != len(op.results):
            raise ValueError(
                f"replace_op: {op.name} has {len(op.results)} results, "
                f"got {len(new_values)} replacements"
            )
        for result, new_value in zip(op.results, new_values):
            # re-enqueue users: they may now fold further
            for user in result.users:
                self.worklist_additions.append(user)
            result.replace_all_uses_with(new_value)
        self.erase_op(op)

    def erase_op(self, op: Operation) -> None:
        for operand in op.operands:
            producer = operand.defining_op()
            if producer is not None:
                self.worklist_additions.append(producer)
        op.erase()
        self.erased.append(op)


class RewritePattern:
    """Base class for rewrite patterns.

    ``match_and_rewrite`` returns True when it changed the IR.  A pattern may
    restrict itself to a specific op class via :attr:`ROOT_OP`.
    """

    #: optional Operation subclass this pattern anchors on (None = any op).
    ROOT_OP = None
    #: higher benefit patterns are tried first.
    BENEFIT: int = 1

    def match_and_rewrite(self, op: Operation, rewriter: Rewriter) -> bool:
        raise NotImplementedError

    def matches_root(self, op: Operation) -> bool:
        return self.ROOT_OP is None or isinstance(op, self.ROOT_OP)


def apply_patterns_greedily(
    root: Operation,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 10_000,
) -> bool:
    """Apply ``patterns`` to every op nested under ``root`` until fixpoint.

    Returns True if any change was made.  The driver re-visits the users and
    producers of rewritten ops so chains of folds converge in one call.
    """
    pattern_list = sorted(patterns, key=lambda pattern: -pattern.BENEFIT)
    worklist: List[Operation] = [op for op in root.walk() if op is not root]
    changed_any = False
    iterations = 0

    while worklist and iterations < max_iterations:
        iterations += 1
        op = worklist.pop()
        if op.parent_block is None:  # already erased / detached
            continue
        for pattern in pattern_list:
            if not pattern.matches_root(op):
                continue
            rewriter = Rewriter()
            if pattern.match_and_rewrite(op, rewriter):
                changed_any = True
                for addition in rewriter.worklist_additions:
                    if addition.parent_block is not None:
                        worklist.append(addition)
                break
    return changed_any

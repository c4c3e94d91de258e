"""IR builder: maintains an insertion point and inserts newly created ops."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .core import Block, Operation


class InsertionPoint:
    """A position inside a block: ops are inserted before ``index``."""

    def __init__(self, block: Block, index: int) -> None:
        self.block = block
        self.index = index

    @classmethod
    def at_end(cls, block: Block) -> "InsertionPoint":
        return cls(block, len(block.operations))

    @classmethod
    def at_start(cls, block: Block) -> "InsertionPoint":
        return cls(block, 0)

    @classmethod
    def before(cls, op: Operation) -> "InsertionPoint":
        return cls(op.parent_block, op.parent_block.index_of(op))

    @classmethod
    def after(cls, op: Operation) -> "InsertionPoint":
        return cls(op.parent_block, op.parent_block.index_of(op) + 1)


class Builder:
    """Creates and inserts operations at a movable insertion point.

    Typical usage::

        builder = Builder.at_end(func.body_block)
        c0 = builder.insert(arith.ConstantOp(0, INDEX)).result
    """

    def __init__(self, insertion_point: Optional[InsertionPoint] = None) -> None:
        self._ip = insertion_point

    # -- constructors -------------------------------------------------------
    @classmethod
    def at_end(cls, block: Block) -> "Builder":
        return cls(InsertionPoint.at_end(block))

    @classmethod
    def at_start(cls, block: Block) -> "Builder":
        return cls(InsertionPoint.at_start(block))

    @classmethod
    def before_op(cls, op: Operation) -> "Builder":
        return cls(InsertionPoint.before(op))

    @classmethod
    def after_op(cls, op: Operation) -> "Builder":
        return cls(InsertionPoint.after(op))

    # -- insertion point management -------------------------------------------
    @property
    def insertion_point(self) -> InsertionPoint:
        if self._ip is None:
            raise ValueError("builder has no insertion point")
        return self._ip

    @property
    def block(self) -> Block:
        return self.insertion_point.block

    @contextmanager
    def at(self, insertion_point: InsertionPoint):
        """Temporarily move the insertion point."""
        saved = self._ip
        self._ip = insertion_point
        try:
            yield self
        finally:
            self._ip = saved

    # -- op creation -----------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        """Insert ``op`` at the insertion point and advance past it."""
        ip = self.insertion_point
        ip.block.insert(ip.index, op)
        ip.index += 1
        return op

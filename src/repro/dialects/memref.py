"""``memref`` dialect: buffer allocation, deallocation, loads and stores.

Memory is the heart of the paper's barrier semantics: barriers are defined by
the reads and writes of surrounding code, and the GPU memory hierarchy is
modelled with memory spaces on :class:`~repro.ir.MemRefType`:

* ``global`` — visible to every thread (host + device global memory),
* ``shared`` — scoped to a GPU thread block (lowered to a per-block stack
  allocation on the CPU),
* ``local``  — thread-private (registers / stack).
"""

from __future__ import annotations

from typing import Sequence

from ..ir import (
    DYNAMIC,
    EffectKind,
    INDEX,
    MemoryEffect,
    MemorySpace,
    MemRefType,
    Operation,
    Value,
)


class AllocOp(Operation):
    """``memref.alloc`` — heap allocation of a (possibly dynamic) buffer.

    Dynamic extents are provided as index operands, one per ``?`` in the
    result type's shape.
    """

    OP_NAME = "memref.alloc"

    def __init__(self, type: MemRefType, dynamic_sizes: Sequence[Value] = (),
                 name_hint: str = "") -> None:
        expected = sum(1 for extent in type.shape if extent == DYNAMIC)
        if expected != len(dynamic_sizes):
            raise ValueError(
                f"memref.alloc: type {type} expects {expected} dynamic sizes, "
                f"got {len(dynamic_sizes)}")
        super().__init__(operands=list(dynamic_sizes), result_types=[type],
                         result_names=[name_hint] if name_hint else [])

    @property
    def memref_type(self) -> MemRefType:
        return self.result.type

    def memory_effects(self):
        return [MemoryEffect(EffectKind.ALLOC, self.result)]


class AllocaOp(AllocOp):
    """``memref.alloca`` — stack allocation.

    In the GPU-to-CPU lowering, shared memory becomes an alloca placed inside
    the *grid-level* parallel loop (one buffer per block), and thread-local
    variables become allocas inside the *block-level* parallel loop.
    """

    OP_NAME = "memref.alloca"


class DeallocOp(Operation):
    """``memref.dealloc`` — free a buffer created by ``memref.alloc``."""

    OP_NAME = "memref.dealloc"

    def __init__(self, memref: Value) -> None:
        super().__init__(operands=[memref])

    @property
    def memref(self) -> Value:
        return self.operands[0]

    def memory_effects(self):
        return [MemoryEffect(EffectKind.FREE, self.memref)]


class LoadOp(Operation):
    """``memref.load`` — read one element of a buffer at index operands."""

    OP_NAME = "memref.load"

    def __init__(self, memref: Value, indices: Sequence[Value] = (), name_hint: str = "") -> None:
        if not isinstance(memref.type, MemRefType):
            raise TypeError(f"memref.load expects a memref operand, got {memref.type}")
        super().__init__(operands=[memref, *indices],
                         result_types=[memref.type.element_type],
                         result_names=[name_hint] if name_hint else [])

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[1:]

    def verify(self) -> None:
        rank = self.memref.type.rank
        if len(self.indices) != rank:
            raise ValueError(
                f"memref.load: expected {rank} indices for {self.memref.type}, "
                f"got {len(self.indices)}")

    def memory_effects(self):
        return [MemoryEffect(EffectKind.READ, self.memref)]


class StoreOp(Operation):
    """``memref.store`` — write one element of a buffer at index operands."""

    OP_NAME = "memref.store"

    def __init__(self, value: Value, memref: Value, indices: Sequence[Value] = ()) -> None:
        if not isinstance(memref.type, MemRefType):
            raise TypeError(f"memref.store expects a memref operand, got {memref.type}")
        super().__init__(operands=[value, memref, *indices])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def memref(self) -> Value:
        return self.operands[1]

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[2:]

    def verify(self) -> None:
        rank = self.memref.type.rank
        if len(self.indices) != rank:
            raise ValueError(
                f"memref.store: expected {rank} indices for {self.memref.type}, "
                f"got {len(self.indices)}")

    def memory_effects(self):
        return [MemoryEffect(EffectKind.WRITE, self.memref)]


class DimOp(Operation):
    """``memref.dim`` — the extent of one dimension of a buffer (pure)."""

    OP_NAME = "memref.dim"
    IS_PURE = True

    def __init__(self, memref: Value, dim: int, name_hint: str = "") -> None:
        super().__init__(operands=[memref], result_types=[INDEX],
                         attributes={"dim": int(dim)},
                         result_names=[name_hint] if name_hint else [])

    @property
    def memref(self) -> Value:
        return self.operands[0]

    @property
    def dim(self) -> int:
        return self.attributes["dim"]


class CopyOp(Operation):
    """``memref.copy`` — bulk copy between equally shaped buffers.

    Used to lower ``cudaMemcpy``; the cost model charges it with the full
    memory traffic of the transfer.
    """

    OP_NAME = "memref.copy"

    def __init__(self, source: Value, destination: Value) -> None:
        super().__init__(operands=[source, destination])

    @property
    def source(self) -> Value:
        return self.operands[0]

    @property
    def destination(self) -> Value:
        return self.operands[1]

    def memory_effects(self):
        return [MemoryEffect(EffectKind.READ, self.source),
                MemoryEffect(EffectKind.WRITE, self.destination)]


def is_shared_memref(value: Value) -> bool:
    """True if ``value`` is a memref in GPU shared memory space."""
    return isinstance(value.type, MemRefType) and value.type.memory_space == MemorySpace.SHARED


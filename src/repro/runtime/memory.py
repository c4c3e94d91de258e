"""Runtime memory: numpy-backed memref storage.

Following the scientific-Python guidance the project's runtime is built on
(contiguous numpy buffers, no per-element Python objects in bulk operations),
every memref is a contiguous ``numpy.ndarray`` of the right dtype.  Memory
spaces are carried alongside the buffer so the cost model can charge global
vs. shared/local accesses differently.

Memory safety is centralized here: every accessor (:meth:`MemRefStorage.load`,
:meth:`~MemRefStorage.store`, the bulk :meth:`~MemRefStorage.load_block` /
:meth:`~MemRefStorage.store_block` used by the vectorized engine,
:meth:`~MemRefStorage.free` and :meth:`~MemRefStorage.copy_from`) raises
:class:`~repro.runtime.errors.UseAfterFreeError` on a freed buffer, so the
engines no longer duplicate the guard in interpreter handlers or generated
prologues — they go through :meth:`~MemRefStorage.check_alive`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..ir import FloatType, IndexType, IntegerType, MemorySpace, MemRefType, Type
from .errors import InterpreterError, UseAfterFreeError


def dtype_for(element_type: Type) -> np.dtype:
    """The numpy dtype backing an IR element type."""
    if isinstance(element_type, FloatType):
        return np.dtype(np.float32) if element_type.width == 32 else np.dtype(np.float64)
    if isinstance(element_type, IndexType):
        return np.dtype(np.int64)
    if isinstance(element_type, IntegerType):
        if element_type.width == 1:
            return np.dtype(np.int8)
        if element_type.width <= 8:
            return np.dtype(np.int8)
        if element_type.width <= 32:
            return np.dtype(np.int32)
        return np.dtype(np.int64)
    raise TypeError(f"no numpy dtype for element type {element_type}")


def wrap_argument(argument, index: int):
    """The ``index``-th argument of a run as every engine sees it: an
    ``ndarray`` becomes a :class:`MemRefStorage` over the caller's own bytes,
    so the caller reads the kernel's stores afterwards; anything else passes.

    A memref is dense row-major, so a strided view would have to be copied
    and its stores copied back.  It is rejected instead: the copy would
    silently break aliasing between arguments, and the caller who wants it
    writes ``np.ascontiguousarray`` and sees the copy.
    """
    if not isinstance(argument, np.ndarray):
        return argument
    if not argument.flags.c_contiguous:
        raise InterpreterError(
            f"argument {index} is not C-contiguous (shape {argument.shape}, "
            f"strides {argument.strides}); pass a contiguous array")
    return MemRefStorage(argument)


class MemRefStorage:
    """A runtime buffer: numpy array + memory space + element type.

    A storage can be *promoted* to a ``multiprocessing.shared_memory``
    backing (:func:`repro.runtime.sharedmem.promote`): ``array`` is swapped
    in place for a view into the shared segment so every alias of the
    storage — and every worker process that attaches the segment by name —
    reads and writes the same bytes.  ``shm_name`` identifies the segment
    (``None`` for ordinary process-local buffers) and ``shm_flags`` is a
    one-byte view of the segment header used to propagate the freed flag
    across processes.
    """

    __slots__ = ("array", "memory_space", "element_type", "freed",
                 "shm_name", "shm_flags", "__weakref__")

    def __init__(self, array: np.ndarray, memory_space: str = MemorySpace.GLOBAL,
                 element_type: Optional[Type] = None) -> None:
        self.array = array
        self.memory_space = memory_space
        self.element_type = element_type
        self.freed = False
        self.shm_name = None
        self.shm_flags = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def allocate(cls, type: MemRefType, dynamic_sizes: Sequence[int] = ()) -> "MemRefStorage":
        shape = []
        dynamic = list(dynamic_sizes)
        for extent in type.shape:
            shape.append(int(dynamic.pop(0)) if extent < 0 else extent)
        array = np.zeros(tuple(shape), dtype=dtype_for(type.element_type))
        return cls(array, type.memory_space, type.element_type)

    @classmethod
    def from_numpy(cls, array: np.ndarray,
                   memory_space: str = MemorySpace.GLOBAL) -> "MemRefStorage":
        return cls(np.ascontiguousarray(array), memory_space)

    # -- liveness --------------------------------------------------------------
    def check_alive(self) -> np.ndarray:
        """The backing array, raising :class:`UseAfterFreeError` when freed.

        This is the single source of truth for the use-after-free guard: the
        interpreter, the compiled engine's generated prologues and the
        vectorized engine's bulk accessors all route through it.
        """
        if self.freed:
            raise UseAfterFreeError("use after free of a memref buffer")
        return self.array

    def free(self) -> None:
        """Mark the buffer freed (double-free raises like any other access).

        For shared-memory-promoted buffers the freed flag is also written
        into the segment header, so a free in one process is observed by
        every other process the next time it decodes the buffer.
        """
        self.check_alive()
        self.freed = True
        if self.shm_flags is not None:
            self.shm_flags[0] = 1

    # -- element access --------------------------------------------------------
    def load(self, indices: Tuple[int, ...]):
        array = self.check_alive()
        value = array[tuple(int(i) for i in indices)] if indices else array[()]
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.integer):
            return int(value)
        return value

    def store(self, value, indices: Tuple[int, ...]) -> None:
        array = self.check_alive()
        if indices:
            array[tuple(int(i) for i in indices)] = value
        else:
            array[()] = value

    # -- bulk access ------------------------------------------------------------
    def load_block(self, indices: Sequence = ()) -> np.ndarray:
        """Bulk gather: elements at (arrays of) indices, without scalar boxing.

        ``indices`` is one index array (or scalar) per memref dimension; they
        broadcast against each other like numpy advanced indexing.  With no
        indices the whole buffer is returned (a rank-0 buffer gathers to a
        0-d array).  Unlike :meth:`load`, elements keep their numpy dtype —
        the vectorized engine widens them itself.
        """
        array = self.check_alive()
        if not len(indices):
            return array
        return array[tuple(indices)]

    def store_block(self, values, indices: Sequence = ()) -> None:
        """Bulk scatter: assign ``values`` at (arrays of) indices.

        Duplicate indices resolve **last-writer-wins in element order**
        (sequential thread order when lanes are laid out in thread order).
        NumPy leaves duplicate-index assignment order unspecified, so the
        tie-break is made explicit: duplicate targets are reduced to their
        last writer before a single duplicate-free assignment.
        """
        array = self.check_alive()
        if not len(indices):
            array[...] = values
            return
        index_arrays = [np.asarray(index) for index in indices]
        if not any(index.ndim for index in index_arrays):
            array[tuple(int(index) for index in index_arrays)] = values
            return
        normalized = []
        for index, extent in zip(index_arrays, array.shape):
            index = np.asarray(index, dtype=np.int64)
            if bool(((index < -extent) | (index >= extent)).any()):
                raise IndexError(
                    f"store_block index out of bounds for extent {extent}")
            normalized.append(np.where(index < 0, index + extent, index))
        flat = np.ravel_multi_index(tuple(normalized), array.shape).reshape(-1)
        spread = np.broadcast_to(np.asarray(values), flat.shape).reshape(-1)
        # last occurrence of each target = first occurrence in the reversal
        last_writers, positions = np.unique(flat[::-1], return_index=True)
        array.reshape(-1)[last_writers] = spread[::-1][positions]

    def copy_from(self, other: "MemRefStorage") -> None:
        np.copyto(self.check_alive().reshape(-1), other.check_alive().reshape(-1))

    # -- properties -------------------------------------------------------------
    @property
    def num_elements(self) -> int:
        return int(self.array.size)

    @property
    def element_bytes(self) -> int:
        return int(self.array.itemsize)

    @property
    def num_bytes(self) -> int:
        return int(self.array.nbytes)

    def __repr__(self) -> str:
        return (f"MemRefStorage(shape={self.array.shape}, dtype={self.array.dtype}, "
                f"space={self.memory_space})")

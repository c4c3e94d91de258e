"""Write-write store safety: when may a span really run in parallel?

The multicore engine (worker shards) and the native engine (OpenMP teams)
execute different iterations of one span concurrently.  That is unobservable
only if no two iterations write the same location, which this check proves —
or refuses to prove — from the span's IR alone, over the lane facts of its
plan (:mod:`~repro.analysis.lanes`: which index is an injective function of
which lane dimension).  It is soundness-critical (it gates genuine data races
in generated OpenMP C), so both engines read the one verdict,
``RegionPlan.parallel_proof``.

A store to a non-private buffer is shard-safe when the union of its indices'
injective dims covers every lane dimension — any two iterations in different
shards then hit different locations.  Dims left uncovered are recorded as
*required-singleton*: the span may still shard at runtime if those dims have
extent 1 (the common collapsed-loop case where only ``bx``/``tx`` really
vary).  Injective indices keep one store apart from itself in another
iteration, not from a second store (``out[i]`` and ``out[i + 1]``): the
stores to one buffer must all use the same index values, or every dim is
required.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..dialects import func as func_d, gpu as gpu_d, memref as memref_d
from .lanes import LaneFacts, injective_dims
from .structure import CONTEXT_OPS, split_executed

_UNSAFE_BODY_OPS = (memref_d.CopyOp, gpu_d.GPUMemcpyOp,
                    memref_d.DeallocOp, gpu_d.GPUDeallocOp,
                    gpu_d.GPUAllocOp)


def span_required_dims(module, op, facts: LaneFacts
                       ) -> Tuple[Optional[FrozenSet[int]], Optional[str]]:
    """``(required-singleton dims, None)`` of an iteration-space region, or
    ``(None, why)`` when write-write safety cannot be proven at all."""
    all_dims = frozenset(range(len(op.induction_vars)))
    required: set = set()
    callee_safe: Dict[int, bool] = {}  # memo of _callee_shard_safe
    stored_at: Dict[int, Tuple[int, ...]] = {}  # id(buffer) -> ids of its store's indices
    for top in split_executed(op.body)[0]:
        for nested in top.walk():
            if isinstance(nested, CONTEXT_OPS):
                return None, f"nested parallel context {nested.name}"
            if isinstance(nested, func_d.CallOp):
                callee = module.lookup(nested.callee)
                if callee is None or callee.is_declaration:
                    return None, f"call to unknown function {nested.callee!r}"
                if not _callee_shard_safe(module, callee, callee_safe):
                    return None, f"call to store-unsafe function {nested.callee!r}"
            elif isinstance(nested, memref_d.StoreOp):
                if id(nested.memref) in facts.private:
                    continue
                if facts.of(nested.memref)[0] != "u":
                    return None, "store through a lane-selected memref"
                covered = [injective_dims(facts.of(index)) or ()
                           for index in nested.indices]
                required |= all_dims.difference(*covered)
                at = tuple(map(id, nested.indices))
                if stored_at.setdefault(id(nested.memref), at) != at:
                    required |= all_dims
            elif isinstance(nested, _UNSAFE_BODY_OPS) and any(
                    id(operand) not in facts.private for operand in nested.operands):
                # bulk copies / deallocations of shared buffers conflict across
                # every iteration pair: only singleton spaces are safe, which
                # the required-singleton mechanism expresses exactly.
                required |= all_dims
    return frozenset(required), None


def _callee_shard_safe(module, fn, cache: Dict[int, bool],
                       _stack: Optional[set] = None) -> bool:
    """Whether a called function only stores into its own local allocas.

    Such a callee cannot create cross-shard write conflicts no matter which
    lane calls it; anything else (stores through argument memrefs, nested
    parallelism, bulk copies) rejects the calling region.  Memoized in
    ``cache`` (one per region analysis, so a mutated module is never judged
    by a stale verdict); recursion is conservatively unsafe.
    """
    key = id(fn)
    if key in cache:
        return cache[key]
    stack = _stack if _stack is not None else set()
    if key in stack:
        return False
    stack.add(key)

    local_allocs = set()

    def scan_allocs(op):
        if isinstance(op, memref_d.AllocOp):
            local_allocs.add(id(op.result))
        for region in op.regions:
            for block in region.blocks:
                for nested in block.operations:
                    scan_allocs(nested)

    def safe(op) -> bool:
        if isinstance(op, CONTEXT_OPS) or isinstance(op, _UNSAFE_BODY_OPS):
            return False
        if isinstance(op, memref_d.StoreOp) and id(op.memref) not in local_allocs:
            return False
        if isinstance(op, func_d.CallOp):
            callee = module.lookup(op.callee)
            if callee is None or callee.is_declaration:
                return False
            if not _callee_shard_safe(module, callee, cache, stack):
                return False
        for region in op.regions:
            for block in region.blocks:
                for nested in block.operations:
                    if not safe(nested):
                        return False
        return True

    for op in fn.body_block.operations:
        scan_allocs(op)
    result = all(safe(op) for op in fn.body_block.operations)
    stack.discard(key)
    cache[key] = result
    return result

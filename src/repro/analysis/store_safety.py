"""Write-write store safety: when may a parallel region really run in parallel?

The multicore engine (worker shards) and the native engine (OpenMP teams)
execute different iterations of one region concurrently.  That is
unobservable only if no two iterations write the same location, which this
analysis proves — or refuses to prove — from the region's IR alone.  It is
soundness-critical (it gates genuine data races in generated OpenMP C), so
both engines share this single implementation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..dialects import arith, func as func_d, gpu as gpu_d
from ..dialects import memref as memref_d, omp as omp_d, scf
from .structure import BARRIER_OPS, CONTEXT_OPS, split_executed

# Value descriptors classify every integer SSA value of a region body by how
# it depends on the sharded ("lane") dimensions:
#
#   ("u", bound)        uniform across lanes; if ``bound`` is an SSA value id
#                       the value is known to lie in [0, bound).
#   ("i", dims, bound)  injective over the lane dimensions in ``dims``: two
#                       iterations differing in any dim of ``dims`` (all
#                       other dims equal) produce different values.
#   ("s", dims, factor) an injective lane value scaled by the uniform SSA
#                       value ``factor`` — the intermediate of the
#                       ``bx*width + tx`` global-index pattern.  When the
#                       factor is a non-zero constant the scaled value is
#                       injective on its own.
#   ("d",)              lane-dependent with no injectivity guarantee.
#
# A store to a non-private buffer is shard-safe when the union of its
# indices' injective dims covers every lane dimension — any two iterations
# in different shards then hit different locations.  Dims left uncovered are
# recorded as *required-singleton*: the region may still shard at runtime if
# those dims have extent 1 (the common collapsed-loop case where only
# ``bx``/``tx`` really vary).

_UNSAFE_BODY_OPS = (memref_d.CopyOp, gpu_d.GPUMemcpyOp,
                    memref_d.DeallocOp, gpu_d.GPUDeallocOp,
                    gpu_d.GPUAllocOp)


class _Unsafe(Exception):
    """The region cannot be proven write-write safe across shards."""


def _const_int(value) -> Optional[int]:
    defining = value.defining_op()
    if isinstance(defining, arith.ConstantOp) and isinstance(defining.value, int):
        return defining.value
    return None


def _is_lane(desc) -> bool:
    return desc[0] in ("i", "s", "d")


_DIRTY = ("d",)
_UNIFORM = ("u", None)


class _StoreSafety:
    """One region's store analysis; raises :class:`_Unsafe` on rejection."""

    def __init__(self, module, num_dims: int) -> None:
        self.module = module
        self.callee_safe: Dict[int, bool] = {}  # memo of _callee_shard_safe
        self.num_dims = num_dims
        self.all_dims = frozenset(range(num_dims))
        self.desc: Dict[int, Tuple] = {}
        self.private: set = set()       # id(memref value) allocated in-region
        self.cell_stores: Dict[int, int] = {}  # rank-0 local cells: #stores
        self.cell_desc: Dict[int, Tuple] = {}
        self.required: set = set()      # dims that must be singleton at runtime
        self.depth = 0                  # nesting depth below the region body

    # -- seeding ---------------------------------------------------------------
    def seed_lane(self, value, dim: int, bound_id: Optional[int]) -> None:
        self.desc[id(value)] = ("i", frozenset((dim,)), bound_id)

    # -- walk ------------------------------------------------------------------
    def run(self, ops: Sequence) -> FrozenSet[int]:
        for op in ops:
            self._prescan(op)
        self._eval_block(ops)
        return frozenset(self.required)

    def _prescan(self, op) -> None:
        if isinstance(op, CONTEXT_OPS):
            raise _Unsafe(f"nested parallel context {op.name}")
        if isinstance(op, memref_d.AllocOp):  # covers AllocaOp
            self.private.add(id(op.result))
            if not op.memref_type.shape and not op.operands:
                self.cell_stores.setdefault(id(op.result), 0)
        if isinstance(op, memref_d.StoreOp):
            key = id(op.memref)
            if key in self.cell_stores:
                self.cell_stores[key] += 1
        if isinstance(op, func_d.CallOp):
            callee = self.module.lookup(op.callee)
            if callee is None or callee.is_declaration:
                raise _Unsafe(f"call to unknown function {op.callee!r}")
            if not _callee_shard_safe(self.module, callee, self.callee_safe):
                raise _Unsafe(f"call to store-unsafe function {op.callee!r}")
        for region in op.regions:
            for block in region.blocks:
                for nested in block.operations:
                    self._prescan(nested)

    # -- descriptor transfer ---------------------------------------------------
    def _get(self, value) -> Tuple:
        return self.desc.get(id(value), _UNIFORM)

    def _set(self, value, desc: Tuple) -> None:
        self.desc[id(value)] = desc

    def _default(self, op) -> None:
        dirty = any(_is_lane(self._get(operand)) for operand in op.operands)
        for result in op.results:
            self._set(result, _DIRTY if dirty else _UNIFORM)

    @staticmethod
    def _join(a: Tuple, b: Tuple) -> Tuple:
        if a == b:
            return a
        if not _is_lane(a) and not _is_lane(b):
            return _UNIFORM
        return _DIRTY

    def _eval_block(self, ops: Sequence) -> None:
        for op in ops:
            self._eval_op(op)

    def _eval_nested_block(self, ops: Sequence) -> None:
        self.depth += 1
        try:
            self._eval_block(ops)
        finally:
            self.depth -= 1

    def _eval_op(self, op) -> None:
        if isinstance(op, BARRIER_OPS) or isinstance(op, omp_d.OmpBarrierOp):
            return
        if isinstance(op, arith.ConstantOp):
            self._set(op.result, _UNIFORM)
            return
        if isinstance(op, arith._CastOp):
            self._set(op.result, self._get(op.input))
            return
        if isinstance(op, arith.AddIOp):
            self._set(op.result, self._add(op.lhs, op.rhs))
            return
        if isinstance(op, arith.SubIOp):
            self._set(op.result, self._sub(op.lhs, op.rhs))
            return
        if isinstance(op, arith.MulIOp):
            self._set(op.result, self._mul(op.lhs, op.rhs))
            return
        if isinstance(op, memref_d.AllocOp):
            return  # memref results carry no integer descriptor
        if isinstance(op, memref_d.LoadOp):
            self._eval_load(op)
            return
        if isinstance(op, memref_d.StoreOp):
            self._eval_store(op)
            return
        if isinstance(op, _UNSAFE_BODY_OPS):
            self._eval_unsafe_memory(op)
            return
        if isinstance(op, scf.ForOp):
            self._eval_for(op)
            return
        if isinstance(op, scf.IfOp):
            self._eval_if(op)
            return
        if isinstance(op, scf.WhileOp):
            self._eval_while(op)
            return
        self._default(op)

    @staticmethod
    def _inj_alone(desc: Tuple) -> Optional[Tuple]:
        """View ``desc`` as injective in isolation, if it provably is."""
        if desc[0] == "i":
            return desc
        if desc[0] == "s":
            constant = _const_int(desc[2])
            if constant is not None and constant != 0:
                return ("i", desc[1], None)
        return None

    def _add(self, lhs, rhs) -> Tuple:
        a, b = self._get(lhs), self._get(rhs)
        for x, y in ((a, b), (b, a)):
            if x[0] == "s":
                # bx*width + tx: the addend lies in [0, width), so distinct
                # (bx, tx) pairs produce distinct sums.
                if y[0] == "u" and y[1] == id(x[2]) and y[1] is not None:
                    return ("i", x[1], None)
                if y[0] == "i" and y[2] == id(x[2]) and y[2] is not None:
                    return ("i", x[1] | y[1], None)
            x_inj = self._inj_alone(x)
            if x_inj is not None and y[0] == "u":
                return ("i", x_inj[1], None)
        if not _is_lane(a) and not _is_lane(b):
            return _UNIFORM
        return _DIRTY

    def _sub(self, lhs, rhs) -> Tuple:
        a, b = self._get(lhs), self._get(rhs)
        a_inj, b_inj = self._inj_alone(a), self._inj_alone(b)
        if a_inj is not None and b[0] == "u":
            return ("i", a_inj[1], None)
        if a[0] == "u" and b_inj is not None:
            return ("i", b_inj[1], None)
        if not _is_lane(a) and not _is_lane(b):
            return _UNIFORM
        return _DIRTY

    def _mul(self, lhs, rhs) -> Tuple:
        a, b = self._get(lhs), self._get(rhs)
        for x, y, y_value in ((a, b, rhs), (b, a, lhs)):
            if x[0] == "i" and y[0] == "u":
                if _const_int(y_value) == 0:
                    return _UNIFORM
                # keep the factor *value*: a later addi can match it against
                # an addend bounded by the same SSA value, and a non-zero
                # constant factor makes the product injective on its own.
                return ("s", x[1], y_value)
        if not _is_lane(a) and not _is_lane(b):
            return _UNIFORM
        return _DIRTY

    def _eval_load(self, op) -> None:
        key = id(op.memref)
        if key in self.cell_stores:
            # a cell load is only as good as its unique dominating store
            # (recorded below); everything else — multiple static stores,
            # a control-dependent store, a load before the store — may
            # observe a different (e.g. zero-initialized) value in some
            # iterations, so it must not pretend to be uniform.
            self._set(op.result, self.cell_desc.get(key, _DIRTY))
            return
        if key in self.private:
            # private rank>0 scratch: contents may mix lane-dependent
            # values across program points, and _default would misread the
            # descriptor-less memref operand as uniform.
            self._set(op.result, _DIRTY)
            return
        self._default(op)

    def _eval_store(self, op) -> None:
        key = id(op.memref)
        if key in self.private:
            if (key in self.cell_stores and self.cell_stores[key] == 1
                    and self.depth == 0):
                # the cell's only static store, top-level in the region
                # body: it unconditionally dominates every later load, so
                # the loaded value is exactly this one.  Stores inside
                # scf.if/scf.for never qualify — a not-taken branch or
                # zero-trip loop would leave later loads reading the
                # zero-initialized cell instead.
                self.cell_desc[key] = self._get(op.value)
            return
        if _is_lane(self._get(op.memref)):
            raise _Unsafe("store through a lane-selected memref")
        covered = set()
        for index in op.indices:
            desc = self._inj_alone(self._get(index))
            if desc is not None:
                covered |= desc[1]
        self.required |= self.all_dims - covered

    def _eval_unsafe_memory(self, op) -> None:
        # bulk copies / deallocations of shared buffers inside the region
        # conflict across every iteration pair: only singleton spaces are
        # safe, which the required-singleton mechanism expresses exactly.
        for operand in op.operands:
            if id(operand) not in self.private:
                self.required |= self.all_dims
                return

    def _eval_for(self, op) -> None:
        bound_descs = [self._get(op.lower_bound), self._get(op.upper_bound),
                       self._get(op.step)]
        if any(_is_lane(desc) for desc in bound_descs):
            iv_desc = _DIRTY
        else:
            lower = _const_int(op.lower_bound)
            step = _const_int(op.step)
            if lower == 0 and step == 1:
                iv_desc = ("u", id(op.upper_bound))
            else:
                iv_desc = _UNIFORM
        self._set(op.induction_var, iv_desc)
        body_ops, term = split_executed(op.body)
        yields = list(term.operands) if isinstance(term, scf.YieldOp) else []
        for arg, init in zip(op.iter_args, op.iter_init):
            self._set(arg, self._get(init))
        for _ in range(4):
            self._eval_nested_block(body_ops)
            changed = False
            for arg, yielded in zip(op.iter_args, yields):
                joined = self._join(self._get(arg), self._get(yielded))
                if joined != self._get(arg):
                    self._set(arg, joined)
                    changed = True
            if not changed:
                break
        else:
            for arg in op.iter_args:
                self._set(arg, _DIRTY)
            self._eval_nested_block(body_ops)
        for result, arg in zip(op.results, op.iter_args):
            self._set(result, self._get(arg))

    def _eval_if(self, op) -> None:
        then_ops, then_term = split_executed(op.then_block)
        self._eval_nested_block(then_ops)
        then_yields = (list(then_term.operands)
                       if isinstance(then_term, scf.YieldOp) else [])
        else_yields: List = []
        if op.else_block is not None:
            else_ops, else_term = split_executed(op.else_block)
            self._eval_nested_block(else_ops)
            else_yields = (list(else_term.operands)
                           if isinstance(else_term, scf.YieldOp) else [])
        for index, result in enumerate(op.results):
            then_desc = (self._get(then_yields[index])
                         if index < len(then_yields) else _DIRTY)
            else_desc = (self._get(else_yields[index])
                         if index < len(else_yields) else _DIRTY)
            self._set(result, self._join(then_desc, else_desc))

    def _eval_while(self, op) -> None:
        # loop-carried values across an unstructured condition: classified
        # dirty wholesale; body stores are still analyzed (with dirty args).
        for block in (op.before_block, op.after_block):
            for arg in block.arguments:
                self._set(arg, _DIRTY)
        before_ops, _ = split_executed(op.before_block)
        after_ops, _ = split_executed(op.after_block)
        self._eval_nested_block(before_ops)
        self._eval_nested_block(after_ops)
        for result in op.results:
            self._set(result, _DIRTY)


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


# The seeding below is soundness-critical — it decides when real parallel
# execution (worker shards here, OpenMP teams in the native engine) is
# unobservable — so both engines share this single implementation.
def span_required_dims(module, op) -> Tuple[Optional[FrozenSet[int]], Optional[str]]:
    """``(required-singleton dims, None)`` of an iteration-space region, or
    ``(None, why)`` when the store analysis cannot prove write-write safety
    at all."""
    analysis = _StoreSafety(module, len(op.induction_vars))
    for dim, induction_var in enumerate(op.induction_vars):
        lower = _const_int(op.lower_bounds[dim])
        step = _const_int(op.steps[dim])
        bound = (id(op.upper_bounds[dim])
                 if lower == 0 and step == 1 else None)
        analysis.seed_lane(induction_var, dim, bound)
    try:
        return analysis.run(split_executed(op.body)[0]), None
    except _Unsafe as exc:
        return None, str(exc)

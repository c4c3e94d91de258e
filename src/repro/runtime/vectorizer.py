"""Vectorized engine: whole-grid NumPy execution of barrier-free spans.

The compiled engine (PR 1) removed per-op dispatch but still runs every
parallel-loop iteration as a separate Python closure call.  This module
exploits the structural invariant the paper's barrier lowering establishes —
*the iterations of a barrier-free parallel loop are independent* (§III-A;
cpuify's loop fission makes every barrier-delimited phase such a loop) — to
execute a span (``omp.wsloop`` / barrier-free ``scf.parallel``) for **all
iterations at once** as NumPy array operations:

* SSA registers that vary between iterations become full-width arrays of
  shape ``(num_lanes,)`` (``float64``/``int64``, matching the interpreter's
  Python-scalar arithmetic bit for bit), the others stay one scalar — which
  is which, and which values derive from a lane index, is read off the
  span's plan (:mod:`repro.analysis.lanes`, the facts the store check also
  reads), so every op is emitted exactly once, at any nesting depth;
* each pure scalar op is the ``lanes`` form of its
  :mod:`~repro.runtime.optable` row (the ``_v_*`` helpers below are what
  those forms call), or its scalar form when no operand varies;
* thread-index induction variables become precomputed index grids
  (broadcast ``arange`` / ``meshgrid`` lane arrays in thread order);
* loads become fancy-indexed gathers (``MemRefStorage.load_block``),
  stores become scatter assignments (``store_block``; duplicate indices
  resolve last-writer-wins in lane order, matching sequential thread
  order);
* thread-local scalar/array ``memref.alloca`` cells become per-lane
  buffers of shape ``(num_lanes, *shape)``;
* ``scf.if`` under a varying condition becomes masked execution
  (full-width boolean masks, ``np.where`` merges for results);
* ``scf.for`` with lane-invariant bounds runs the loop sequentially with a
  vectorized body.

The decision is made *per span*: one containing an unsupported op (nested
parallelism, ``scf.while``, calls, deallocs, lane-varying loop bounds, ...)
falls back wholesale to the compiled closures — correctness never depends
on the emitter being complete — with the reason recorded on the region's
plan (``engine.regions``).  Un-lowered regions (``gpu.launch``,
``scf.parallel`` with barriers) never reach this module: they run on the
closure tier under every engine.

This module is a *body planner* (:func:`lanes`): the region shell in
:mod:`repro.runtime.compiler` hands it a span's plan and runs whatever it
returns inside the same accounting the compiled engine uses.

Cost accounting is computed analytically (per-op static cost × lane count,
the same ``memory_access_cost`` formulas × access count).  Because every
charge lies on the cycle grid (:data:`~repro.runtime.costmodel.CYCLE_GRID`)
on every machine model, float accumulation is associative in exact
arithmetic and the grouped analytic totals are **bit-identical** to the
interpreter's sequential per-iteration accumulation.  ``dynamic_ops`` and
traffic counters are replicated exactly; like the compiled engine, the
``max_dynamic_ops`` budget is checked per block of lanes rather than per
scalar op (the counter itself stays exact).

Known, documented divergences from the interpreter (shared with the spirit
of the compiled engine's): lockstep execution reorders memory operations
*across lanes* within a phase, which is unobservable for race-free programs
(the language model already declares intra-phase cross-thread dependencies
racy), and integer SSA values live in ``int64`` lanes instead of unbounded
Python ints.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.lanes import LaneFacts
from ..dialects import arith, memref as memref_d, scf
from ..ir import MemRefType
from .compiler import (
    _MAX_INLINE_DEPTH,
    CompiledEngine,
    _FunctionCompiler,
    _Region,
    _split_executed,
    closures,
)
from .costmodel import memory_access_cost, op_cost
from .errors import InterpreterError
from .memory import dtype_for
from .optable import (ALLOC_CYCLES, access_charge_lines, cycles, python_expr,
                      row_for)

_U = "u"  # uniform: one Python scalar (or storage) shared by all lanes
_V = "v"  # varying: a full-width (num_lanes,) numpy array


class _Unsupported(Exception):
    """A phase contains an op the vectorizer cannot (profitably) handle."""


# ---------------------------------------------------------------------------
# Runtime helpers captured by generated phase code
# ---------------------------------------------------------------------------
def _v_divf(a, b):
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        return np.where(b != 0.0, np.asarray(a, dtype=np.float64) / b, np.inf)


def _v_divsi(a, b):
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        quotient = np.where(bf != 0.0, af / bf, 0.0)
        return np.trunc(quotient).astype(np.int64)


def _v_remsi(a, b):
    # the interpreter evaluates ``int(math.fmod(a, b))`` — both operands
    # round-trip through float64 (lossy above 2^53) before the C fmod, so
    # the lanes must take the same float path, not exact int64 fmod.
    b64 = np.asarray(b, dtype=np.int64)
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        return np.where(b64 != 0, np.fmod(af, bf), 0.0).astype(np.int64)


def _v_remf(a, b):
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        return np.where(b != 0.0, np.fmod(np.asarray(a, dtype=np.float64), b), np.nan)


def _v_fptosi(values, mask, n):
    """Float-to-int lanes with the interpreter's ``int(value)`` error
    semantics: NaN/inf on an *active* lane raises (inactive lanes may hold
    garbage by design and are excluded from the check)."""
    arr = np.asarray(values, dtype=np.float64)
    active = arr if mask is None else arr[mask]
    if bool(np.isnan(active).any()):
        raise ValueError("cannot convert float NaN to integer")
    if bool(np.isinf(active).any()):
        raise OverflowError("cannot convert float infinity to integer")
    with np.errstate(all="ignore"):
        return arr.astype(np.int64)


def _v_minf(a, b):
    """Python ``min`` semantics per lane: second argument wins only when
    strictly smaller — unlike ``np.minimum``, NaN does not propagate from
    the second position (``min(1.0, nan) == 1.0``)."""
    with np.errstate(all="ignore"):
        return np.where(np.asarray(b) < np.asarray(a), b, a)


def _v_maxf(a, b):
    """Python ``max`` semantics per lane (see :func:`_v_minf`)."""
    with np.errstate(all="ignore"):
        return np.where(np.asarray(b) > np.asarray(a), b, a)


def _v_map(fn, *operands_mask_n):
    """Elementwise Python-function map over active lanes (``py`` parity).

    Called as ``_v_map(fn, values..., mask, n)`` for rows without a lane
    form.  The interpreter evaluates ``math.<fn>`` through the exact Python
    callables in ``UNARY_FUNCTIONS``; numpy's SIMD transcendentals can
    differ in the last ulp, so parity requires the Python loop.  Only
    active lanes are evaluated (inactive lanes may hold garbage that the
    Python functions would reject).
    """
    *operands, mask, n = operands_mask_n
    columns = [np.broadcast_to(np.asarray(values, dtype=np.float64), (n,))
               for values in operands]
    out = np.zeros(n, dtype=np.float64)
    active = slice(None) if mask is None else np.flatnonzero(mask)
    out[active] = [fn(*lane) for lane in
                   zip(*(column[active].tolist() for column in columns))]
    return out


def _v_bcast(value, n, dtype):
    return np.broadcast_to(np.asarray(value, dtype=dtype), (n,))


def _lane_arrays(ranges: Sequence[range]) -> List[np.ndarray]:
    """Flattened row-major index grids, one per dimension, in lane order.

    Lane order equals ``itertools.product(*ranges)`` order, i.e. the
    sequential thread order of the interpreter — which is what makes
    last-writer-wins scatters match sequential stores.
    """
    axes = [np.arange(r.start, r.stop, r.step, dtype=np.int64) for r in ranges]
    grids = np.meshgrid(*axes, indexing="ij")
    return [g.reshape(-1) for g in grids]


class _LaneBuffer:
    """Compile-time record of a per-lane alloca: vector rep ``(N, *shape)``."""

    __slots__ = ("shape", "dtype", "space")

    def __init__(self, shape: Tuple[int, ...], dtype, space: str) -> None:
        self.shape = shape
        self.dtype = dtype
        self.space = space


class _Ctx:
    """Compile-time execution context: active mask + active-lane count expr."""

    __slots__ = ("mask", "count")

    def __init__(self, mask: Optional[str], count: str) -> None:
        self.mask = mask    # name of a full-width boolean mask, or None
        self.count = count  # expression for the active lane count


_BASE_NAMESPACE = {
    "np": np,
    "_IE": InterpreterError,
    "_v_divf": _v_divf,
    "_v_divsi": _v_divsi,
    "_v_remsi": _v_remsi,
    "_v_remf": _v_remf,
    "_v_minf": _v_minf,
    "_v_maxf": _v_maxf,
    "_v_fptosi": _v_fptosi,
    "_v_map": _v_map,
    "_v_map2": _v_map,
    "_v_bcast": _v_bcast,
}


def _np_dtype_name(value) -> str:
    return "np.float64" if value.type.is_float else "np.int64"


# ---------------------------------------------------------------------------
# The region vectorizer: classification + source emission, one parallel region
# ---------------------------------------------------------------------------
class _RegionVectorizer:
    """Emits the body of one span, every op once: which values are uniform
    (one scalar) or varying (a lane array), and which derive from a lane
    index, are the lane facts of the span's plan."""

    def __init__(self, fc: _FunctionCompiler, facts: LaneFacts) -> None:
        self.fc = fc
        self.program = fc.program
        self.facts = facts
        self.lane_bufs: Dict[int, _LaneBuffer] = {}
        # emission state
        self.lines: List[str] = []
        self.ns: Dict[str, object] = dict(_BASE_NAMESPACE)
        self._indent = 2
        self._assign_log: List[int] = []

    # -- shared helpers --------------------------------------------------------
    def slot(self, value) -> int:
        return self.fc.slot(value)

    def kind_of(self, value) -> str:
        if self.slot(value) in self.lane_bufs:
            return "buf"
        return _V if self.facts.varies(value) else _U

    # -- emission primitives ----------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self._indent + line)

    def charge(self, cost: float, ctx: _Ctx) -> None:
        if cost:
            self.emit(f"w[-1] += {cost!r} * {ctx.count}")

    def count_ops(self, nops: int, count: str) -> None:
        if not nops:
            return
        self.emit(f"report.dynamic_ops += {nops} * {count}")
        self.emit("if state.max_ops is not None and report.dynamic_ops > state.max_ops:")
        self.emit("    raise _IE('dynamic operation budget exceeded')")

    def ref(self, value) -> str:
        """R-value expression for an SSA value."""
        return f"regs[{self.slot(value)}]"

    def define(self, value) -> str:
        """L-value expression for an SSA result; records the definition."""
        slot = self.slot(value)
        self._assign_log.append(slot)
        return f"regs[{slot}]"

    # -- phase compilation -------------------------------------------------------
    def vectorize_phase(self, ops: Sequence, nops: int) -> Callable:
        """The span body as ``run(state, regs, n, lanes)`` over all its lanes."""
        ctx = _Ctx(mask=None, count="_N")
        for op in ops:
            self.emit_op(op, ctx)
        count_lines = []
        if nops:
            count_lines = [
                f"    report.dynamic_ops += {nops} * _N",
                "    if state.max_ops is not None and report.dynamic_ops > state.max_ops:",
                "        raise _IE('dynamic operation budget exceeded')",
            ]
        return self.ns[self._function("vphase", "", count_lines)]

    def _function(self, prefix: str, parameters: str, prologue: Sequence[str]) -> str:
        """Finalise the lines emitted so far as one generated function."""
        name = self.fc._name(prefix)
        source = "\n".join([
            f"def {name}(state, regs, _N, _lanes{parameters}):",
            "    report = state.report",
            "    w = state.work",
            *prologue,
            "    with np.errstate(all='ignore'):",
            *(self.lines or ["        pass"])])
        exec(source, self.ns)  # noqa: S102 - compile-time codegen
        return name

    def emit_block(self, ops: Sequence, ctx: _Ctx) -> None:
        """A structured op's child block at the current indent — past
        ``_MAX_INLINE_DEPTH`` levels as its own function, which is called
        here, because CPython bounds static nesting."""
        if self._indent - 2 < _MAX_INLINE_DEPTH:
            for op in ops:
                self.emit_op(op, ctx)
            return
        outer, self.lines, self._indent = (self.lines, self._indent), [], 2
        inner = _Ctx(mask="_mask" if ctx.mask else None, count="_count")
        for op in ops:
            self.emit_op(op, inner)
        name = self._function("vblock", ", _mask, _count", ())
        self.lines, self._indent = outer
        self.emit(f"{name}(state, regs, _N, _lanes, {ctx.mask}, {ctx.count})")

    # -- op emission -------------------------------------------------------------
    def emit_op(self, op, ctx: _Ctx) -> None:
        if isinstance(op, arith.ConstantOp):
            self.fc.template[self.slot(op.result)] = op.value
            return
        if isinstance(op, memref_d.DimOp):
            return self.emit_dim(op, ctx)
        row = row_for(op)
        if row is not None:
            return self.emit_scalar(op, row, ctx)
        if isinstance(op, memref_d.AllocOp):  # covers AllocaOp
            return self.emit_alloc(op, ctx)
        if isinstance(op, memref_d.LoadOp):
            return self.emit_load(op, ctx)
        if isinstance(op, memref_d.StoreOp):
            return self.emit_store(op, ctx)
        if isinstance(op, scf.IfOp):
            return self.emit_if(op, ctx)
        if isinstance(op, scf.ForOp):
            return self.emit_for(op, ctx)
        raise _Unsupported(f"op {op.name} is not vectorizable")

    # -- scalar compute ----------------------------------------------------------
    def emit_scalar(self, op, row, ctx: _Ctx) -> None:
        """Every pure scalar op, rendered from its :mod:`optable` row: the
        lane-array form when any operand varies, the closure engines'
        scalar form (evaluated once for all lanes) otherwise."""
        kinds = [self.kind_of(value) for value in op.operands]
        if "buf" in kinds or isinstance(op.result.type, MemRefType):
            raise _Unsupported(f"{op.name} over memref values")
        varying = _V in kinds
        expr = python_expr(row, [self.ref(value) for value in op.operands],
                           self.ns, self.fc._name, lanes=varying,
                           mask=ctx.mask or "None")
        self.charge(cycles(row), ctx)
        self.emit(f"{self.define(op.result)} = {expr}")

    # -- memory ------------------------------------------------------------------
    def emit_alloc(self, op, ctx: _Ctx) -> None:
        if op.operands:
            raise _Unsupported("dynamically sized per-lane allocation")
        mtype = op.memref_type
        shape = tuple(int(extent) for extent in mtype.shape)
        dtype = dtype_for(mtype.element_type)
        slot = self.slot(op.result)
        self.charge(ALLOC_CYCLES, ctx)
        dt = self.fc._name("dt")
        self.ns[dt] = dtype
        self._assign_log.append(slot)
        self.lane_bufs[slot] = _LaneBuffer(shape, dtype, mtype.memory_space)
        self.emit(f"regs[{slot}] = np.zeros((_N,) + {shape!r}, dtype={dt})")

    def _lane_buf_charge(self, buf: _LaneBuffer, ctx: _Ctx) -> None:
        itemsize = int(np.dtype(buf.dtype).itemsize)
        self.charge(memory_access_cost(self.program.machine, buf.space, itemsize), ctx)
        if buf.space == "global":
            self.emit(f"report.global_bytes += {itemsize} * {ctx.count}")

    def _storage_charge_lines(self, svar: str, ctx: _Ctx) -> None:
        """Runtime-space charge for a uniform storage access (post-access)."""
        for line in access_charge_lines(self.program.machine, f"{svar}.memory_space",
                                        f"{svar}.array.itemsize", ctx.count):
            self.emit(line)

    def _masked(self, expr: str, kind: str, ctx: _Ctx) -> str:
        """Compress a varying operand to active lanes (uniforms pass through)."""
        if kind == _V and ctx.mask is not None:
            return f"{expr}[{ctx.mask}]"
        return expr

    def emit_load(self, op, ctx: _Ctx) -> None:
        mem_kind = self.kind_of(op.memref)
        idx_kinds = [self.kind_of(index) for index in op.indices]
        if "buf" in idx_kinds:
            raise _Unsupported("memref-typed index")
        result_dt = _np_dtype_name(op.result)
        if mem_kind == "buf":
            slot = self.slot(op.memref)
            buf = self.lane_bufs[slot]
            target = self.define(op.result)
            if not buf.shape:
                self.emit(f"{target} = regs[{slot}].astype({result_dt})")
            else:
                sel = ["_lanes" if ctx.mask is None else f"_lanes[{ctx.mask}]"]
                for index, kind in zip(op.indices, idx_kinds):
                    sel.append(self._masked(self.ref(index), kind, ctx))
                gather = f"regs[{slot}][{', '.join(sel)}]"
                if ctx.mask is None:
                    self.emit(f"{target} = {gather}.astype({result_dt})")
                else:
                    tmp = self.fc._name("t")
                    self.emit(f"{tmp} = np.zeros(_N, dtype={result_dt})")
                    self.emit(f"{tmp}[{ctx.mask}] = {gather}")
                    self.emit(f"{target} = {tmp}")
            self._lane_buf_charge(buf, ctx)
            return
        if mem_kind != _U:
            raise _Unsupported("lane-varying memref operand")
        svar = self.fc._name("s")
        self.emit(f"{svar} = {self.ref(op.memref)}")
        if _V not in idx_kinds:
            # lane-invariant access: execute once, charge per lane
            index_tuple = ", ".join(f"int({self.ref(i)})" for i in op.indices)
            target = self.define(op.result)
            self.emit(f"{target} = {svar}.load(({index_tuple}{',' if len(op.indices) == 1 else ''}))")
            self._storage_charge_lines(svar, ctx)
            return
        parts = []
        for index, kind in zip(op.indices, idx_kinds):
            expr = self.ref(index)
            if kind == _U:
                expr = f"int({expr})"
            parts.append(self._masked(expr, kind, ctx))
        gather_call = f"{svar}.load_block(({', '.join(parts)}{',' if len(parts) == 1 else ''}))"
        target = self.define(op.result)
        if ctx.mask is None:
            self.emit(f"{target} = {gather_call}.astype({result_dt})")
        else:
            tmp = self.fc._name("t")
            self.emit(f"{tmp} = np.zeros(_N, dtype={result_dt})")
            self.emit(f"{tmp}[{ctx.mask}] = {gather_call}")
            self.emit(f"{target} = {tmp}")
        self._storage_charge_lines(svar, ctx)

    def emit_store(self, op, ctx: _Ctx) -> None:
        mem_kind = self.kind_of(op.memref)
        value_kind = self.kind_of(op.value)
        idx_kinds = [self.kind_of(index) for index in op.indices]
        if value_kind == "buf" or "buf" in idx_kinds:
            raise _Unsupported("memref-typed store operand")
        if mem_kind == "buf":
            slot = self.slot(op.memref)
            buf = self.lane_bufs[slot]
            value = self._masked(self.ref(op.value), value_kind, ctx)
            if not buf.shape:
                if ctx.mask is None:
                    self.emit(f"regs[{slot}][:] = {value}")
                else:
                    self.emit(f"regs[{slot}][{ctx.mask}] = {value}")
            else:
                sel = ["_lanes" if ctx.mask is None else f"_lanes[{ctx.mask}]"]
                for index, kind in zip(op.indices, idx_kinds):
                    sel.append(self._masked(self.ref(index), kind, ctx))
                self.emit(f"regs[{slot}][{', '.join(sel)}] = {value}")
            self._lane_buf_charge(buf, ctx)
            return
        if mem_kind != _U:
            raise _Unsupported("lane-varying memref operand")
        if _V not in idx_kinds:
            if value_kind == _V:
                # lane-varying value racing into one lane-invariant location:
                # sequential order decides the winner — leave to the closures.
                raise _Unsupported("varying store to a lane-invariant location")
            svar = self.fc._name("s")
            self.emit(f"{svar} = {self.ref(op.memref)}")
            index_tuple = ", ".join(f"int({self.ref(i)})" for i in op.indices)
            self.emit(f"{svar}.store({self.ref(op.value)}, ({index_tuple}{',' if len(op.indices) == 1 else ''}))")
            self._storage_charge_lines(svar, ctx)
            return
        svar = self.fc._name("s")
        self.emit(f"{svar} = {self.ref(op.memref)}")
        parts = []
        for index, kind in zip(op.indices, idx_kinds):
            expr = self.ref(index)
            if kind == _U:
                expr = f"int({expr})"
            parts.append(self._masked(expr, kind, ctx))
        value = self._masked(self.ref(op.value), value_kind, ctx)
        self.emit(f"{svar}.store_block({value}, ({', '.join(parts)}{',' if len(parts) == 1 else ''}))")
        self._storage_charge_lines(svar, ctx)

    def emit_dim(self, op, ctx: _Ctx) -> None:
        mem_kind = self.kind_of(op.memref)
        if mem_kind == "buf":
            buf = self.lane_bufs[self.slot(op.memref)]
            self.emit(f"{self.define(op.result)} = {int(buf.shape[op.dim])}")
            return
        if mem_kind != _U:
            raise _Unsupported("lane-varying memref operand")
        target = self.define(op.result)
        self.emit(f"{target} = int({self.ref(op.memref)}.check_alive().shape[{op.dim}])")

    # -- control flow ------------------------------------------------------------
    def emit_if(self, op, ctx: _Ctx) -> None:
        if op.results and op.else_block is None:
            raise _Unsupported("scf.if with results but no else branch")
        if any(isinstance(result.type, MemRefType) for result in op.results):
            raise _Unsupported("scf.if yielding a memref value")
        #: per branch: its executed ops, their dynamic-op count, what it yields.
        branches = []
        for block in (op.then_block, op.else_block):
            if block is not None:
                ops, term = _split_executed(block)
                branches.append((ops, len(ops) + (1 if term is not None else 0),
                                 list(term.operands) if isinstance(term, scf.YieldOp) else []))

        self.charge(op_cost("scf.if"), ctx)
        if self.kind_of(op.condition) == _U:
            self._emit_uniform_if(op, ctx, branches)
        else:
            self._emit_masked_if(op, ctx, branches)

    def _emit_uniform_if(self, op, ctx, branches) -> None:
        for header, (ops, nops, yielded) in zip(
                (f"if {self.ref(op.condition)}:", "else:"), branches):
            self.emit(header)
            self._indent += 1
            self.count_ops(nops, ctx.count)
            self.emit_block(ops, ctx)
            for result, value in zip(op.results, yielded):
                self.emit(f"{self.define(result)} = {self._as_kind_of(result, value)}")
            if not ops and not op.results and not nops:
                self.emit("pass")
            self._indent -= 1

    def _as_kind_of(self, target, value) -> str:
        """``value`` in the representation of ``target``, which it flows into."""
        if self.kind_of(target) == _V and self.kind_of(value) == _U:
            return f"_v_bcast({self.ref(value)}, _N, {_np_dtype_name(target)})"
        return self.ref(value)

    def _emit_masked_if(self, op, ctx, branches) -> None:
        defining = op.condition.defining_op()
        if (isinstance(defining, arith._CmpOp) and defining.predicate == "eq"
                and ((self.facts.lane_index(defining.lhs)
                      and self.kind_of(defining.rhs) == _U)
                     or (self.facts.lane_index(defining.rhs)
                         and self.kind_of(defining.lhs) == _U))):
            # single-lane guard (``if (tid == c)`` with a lane-index-derived
            # operand against a uniform): masked full-width execution would
            # do O(N) work for O(1) lanes — leave the phase to the compiled
            # closures.  Broad data-dependent equality masks (e.g.
            # ``flag[tid] == 1``) are not lane-index-derived and vectorize.
            raise _Unsupported("single-lane equality guard")
        taken = f"(np.asarray({self.ref(op.condition)}) != 0)"
        mvar, then_tmps = self._emit_masked_branch(op, ctx, taken, *branches[0])
        else_tmps = (self._emit_masked_branch(op, ctx, f"~{mvar}", *branches[1])[1]
                     if len(branches) == 2 else [])
        for result, then_tmp, else_tmp in zip(op.results, then_tmps, else_tmps):
            self.emit(f"{self.define(result)} = np.where({mvar}, {then_tmp}, {else_tmp})")

    def _emit_masked_branch(self, op, ctx, selected: str, ops, nops,
                            yielded) -> Tuple[str, List[str]]:
        """One branch of a masked ``scf.if``, run by the lanes of ``ctx``
        that ``selected`` picks; returns the name of their mask and of the
        temporaries holding what the branch yields.  A branch no lane takes
        binds what it would have assigned to 0 instead, so that the
        full-width expressions reading those registers stay defined."""
        mvar = self.fc._name("m")
        nvar = self.fc._name("n")
        self.emit(f"{mvar} = {selected}" if ctx.mask is None
                  else f"{mvar} = {ctx.mask} & {selected}")
        self.emit(f"{nvar} = int({mvar}.sum())")
        tmps = [self.fc._name("t") for _ in op.results]
        self.count_ops(nops, nvar)
        self.emit(f"if {nvar}:")
        self._indent += 1
        log_start = len(self._assign_log)
        branch_ctx = _Ctx(mask=mvar, count=nvar)
        self.emit_block(ops, branch_ctx)
        for tmp, value in zip(tmps, yielded):
            self.emit(f"{tmp} = {self.ref(value)}")
        if not ops and not tmps:
            self.emit("pass")
        self._indent -= 1
        assigned = list(dict.fromkeys(self._assign_log[log_start:]))
        if assigned or tmps:
            self.emit("else:")
            self._indent += 1
            for slot in assigned:
                self.emit(f"regs[{slot}] = 0")
            for tmp in tmps:
                self.emit(f"{tmp} = 0")
            self._indent -= 1
        return mvar, tmps

    def emit_for(self, op, ctx: _Ctx) -> None:
        for bound in (op.lower_bound, op.upper_bound, op.step):
            if self.kind_of(bound) != _U:
                raise _Unsupported("lane-varying scf.for bounds")
        body_ops, term = _split_executed(op.body)
        body_nops = len(body_ops) + (1 if term is not None else 0)
        yield_vals = list(term.operands) if isinstance(term, scf.YieldOp) else []
        cost = op_cost("scf.for")
        if any(self.kind_of(value) == "buf" for value in (*op.iter_init, *yield_vals)):
            raise _Unsupported("scf.for carrying a memref value")
        self.charge(cost, ctx)
        lb = self.fc._name("lb")
        ub = self.fc._name("ub")
        st = self.fc._name("st")
        iv = self.fc._name("iv")
        self.emit(f"{lb} = int({self.ref(op.lower_bound)})")
        self.emit(f"{ub} = int({self.ref(op.upper_bound)})")
        self.emit(f"{st} = int({self.ref(op.step)})")
        # no zero-active-lane guard is needed: masked contexts only execute
        # inside the positive-count ``if <n>:`` branches _emit_masked_if
        # emits, so ctx.count > 0 whenever these lines run.
        self.emit(f"if {st} <= 0:")
        self.emit("    raise _IE('scf.for requires a positive step')")
        for arg, init in zip(op.iter_args, op.iter_init):
            self.emit(f"regs[{self.slot(arg)}] = {self._as_kind_of(arg, init)}")
        self.emit(f"{iv} = {lb}")
        self.emit(f"while {iv} < {ub}:")
        self._indent += 1
        self.emit(f"{self.define(op.induction_var)} = {iv}")
        self.count_ops(body_nops, ctx.count)
        self.emit_block(body_ops, ctx)
        for arg, value in zip(op.iter_args, yield_vals):
            self.emit(f"regs[{self.slot(arg)}] = {self._as_kind_of(arg, value)}")
        self.emit(f"{iv} += {st}")
        self.emit(f"w[-1] += {cost!r} * {ctx.count}")
        self._indent -= 1
        for result, arg in zip(op.results, op.iter_args):
            self.emit(f"{self.define(result)} = regs[{self.slot(arg)}]")


# ---------------------------------------------------------------------------
# The lane body planner
# ---------------------------------------------------------------------------
def lanes(fc: _FunctionCompiler, region: _Region):
    """The vectorized engine's body planner.

    A span is decided as a whole: when its body vectorizes it runs as one
    whole-grid NumPy function; when the vectorizer declines an op it runs on
    :func:`~repro.runtime.compiler.closures`, the reason recorded on its
    plan.
    """
    program, plan = fc.program, region.plan
    stats = program.vector_stats
    iv_slots = region.index_slots
    try:
        phase = _RegionVectorizer(fc, plan.lanes).vectorize_phase(*plan.phases[0])
    except _Unsupported as exc:
        stats["fallback_regions"] += 1
        plan.refuse("vectorized", str(exc))
        return closures(fc, region)
    stats["vectorized_regions"] += 1
    region.tier = "vectorized"

    def run_span(state, regs, ranges, start, stop):
        # induction-variable grids are the row-major lane arrays sliced to
        # the span, so a sub-span sees exactly the lanes the sequential
        # engines would visit in that interval, in the same order.
        total = 1
        for axis in ranges:
            total *= len(axis)
        end = total if stop is None else stop
        count = end - start
        if count <= 0:
            return
        for dst, grid in zip(iv_slots, _lane_arrays(ranges)):
            regs[dst] = grid[start:end]
        phase(state, regs, count, np.arange(count))
    return run_span


# ---------------------------------------------------------------------------
# Engine front end
# ---------------------------------------------------------------------------
class VectorizedEngine(CompiledEngine):
    """Drop-in engine executing whole thread grids as NumPy array operations.

    Shares the compiled engine's API, caching and cost semantics; spans
    whose every op has a lane form run as full-grid NumPy code, every other
    region runs on the compiled closures.  Outputs and :class:`CostReport`
    fields stay bit-identical to the interpreter.
    """

    ROW = "vectorized"

    @property
    def vector_stats(self) -> Dict[str, int]:
        """Compile-time vectorization counters of the underlying program."""
        return self._program.vector_stats

"""C code generation for the native OpenMP engine (``engine="native"``).

The paper's headline artifact is *transpiled C*: CUDA kernels lowered through
high-level parallel constructs and emitted as OpenMP CPU code that runs at
native speed.  This module closes that gap for the reproduction: it walks a
lowered parallel region — an ``omp.wsloop`` / barrier-free ``scf.parallel``
iteration span, or a ``gpu.launch`` block grid with straight-line barriers —
and emits one C function per region:

* span regions become a loop over the linearized iteration space, executed
  under ``#pragma omp parallel for`` when the write-write store-safety
  analysis (:mod:`repro.analysis.store_safety`) proves the region
  shard-safe (and sequentially otherwise — sequential C is still far faster
  than Python closures); the
  same proof also unlocks ``#pragma omp simd`` on the innermost loop
  (dispatch ``mode`` bit 1), statically disabled when the body calls libm
  functions whose vector variants are not IEEE-exact;
* launch regions become a loop over linearized block ids; inside a block,
  ``__syncthreads`` phase boundaries split the body into *chunks* executed
  thread-by-thread, phase-by-phase — the barrier is realized by finishing a
  chunk's thread loop before the next chunk starts (the per-block equivalent
  of ``#pragma omp barrier`` between worksharing phases).  Barriers under
  control flow compile structurally: every barrier-containing scf.for /
  scf.if / scf.while whose control is provably thread-uniform runs at C
  block scope and drives the per-phase thread loops (§III-B1's structured
  phase chunking), and values crossing a phase boundary are cached in
  per-thread lanes.

Scalar ops are emitted as the ``c`` form of their
:mod:`~repro.runtime.optable` row, and the prelude of every translation
unit is the helpers those forms call.

**Bit-identical cost accounting.**  The generated C accumulates the same
counters the Python engines charge — ``work`` cycles, ``dynamic_ops``,
``global_bytes``, SIMT phases — with every static per-op charge folded into
one constant per block.  On machines whose per-access costs are exact binary
fractions (:func:`repro.runtime.costmodel.machine_vectorizable`), float
accumulation of those charges is associative in exact arithmetic, so the
folded totals (and OpenMP ``reduction(+)`` partial sums) are bit-identical
to the interpreter's sequential accumulation; all double literals are
emitted as C99 hex floats so no decimal round-trip can perturb them.

Anything the emitter cannot prove it can translate exactly — nested
parallel constructs, dynamic-extent private allocas, barriers under
thread-varying control or carrying loop state, recursion — raises
:class:`UnsupportedRegion` and the region falls back to the compiled
engine (per region, never wholesale), keeping correctness independent of
emitter coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.structure import (BARRIER_OPS as _BARRIER_OPS, CONTEXT_OPS,
                                  split_executed)
from ..dialects import arith, func as func_d, gpu as gpu_d
from ..dialects import memref as memref_d, omp as omp_d, scf
from ..ir import MemRefType
from . import optable
from .costmodel import memory_access_cost, op_cost
from .memory import dtype_for

#: ops that must never appear inside a natively compiled region body.
_NESTED_CONTEXT_OPS = CONTEXT_OPS

#: largest private (stack) buffer the emitter will place per iteration.
_MAX_PRIVATE_BYTES = 1 << 16

#: error codes written into ``outi[2]`` by generated code.
ERR_BAD_STEP = 1
ERR_OOM = 2


class UnsupportedRegion(Exception):
    """The region contains a construct the C emitter does not translate."""


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------
def c_double(value: float) -> str:
    """A C99 literal reproducing ``value`` bit for bit (hex float)."""
    value = float(value)
    if value != value:
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "-INFINITY"
    return value.hex()


def c_int(value: int) -> str:
    return f"INT64_C({int(value)})"


_CTYPES = {  # numpy dtype name -> C element type
    "float32": "float", "float64": "double",
    "int8": "int8_t", "int32": "int32_t", "int64": "int64_t",
}


def _element_ctype(element_type) -> str:
    name = dtype_for(element_type).name
    try:
        return _CTYPES[name]
    except KeyError:
        raise UnsupportedRegion(f"no C element type for {element_type}") from None


# ---------------------------------------------------------------------------
# Emitter plumbing
# ---------------------------------------------------------------------------
class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 1

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def open(self, line: str) -> None:
        self.w(line)
        self.indent += 1

    def close(self, line: str = "}") -> None:
        self.indent -= 1
        self.w(line)


@dataclass
class _Buffer:
    """One memref value visible inside the region."""

    name: str                 # C base identifier of the data pointer/array
    ctype: str                # C element type
    rank: int
    extents: List[str]        # C expressions, one per dimension
    space: str                # memory space for cost accounting
    kind: str                 # 'livein' | 'private' | 'shared' | 'threadlocal'
    elem_bytes: int
    freed_var: Optional[str] = None


@dataclass
class BufSpec:
    """Dispatch-side contract for one live-in memref (checked per call)."""

    slot: int
    dtype: str                # numpy dtype name the C code assumes
    rank: int
    space: str                # memory space the cost folding assumed
    stored: bool              # region writes through this buffer


@dataclass
class RegionSpec:
    """Everything the dispatcher needs to call one emitted region."""

    symbol: str
    kind: str                            # 'span' | 'launch'
    int_slots: List[int] = field(default_factory=list)
    float_slots: List[int] = field(default_factory=list)
    buffers: List[BufSpec] = field(default_factory=list)
    num_dims: int = 0                    # span only
    #: span only: the emitted C contains `#pragma omp simd` variants the
    #: dispatcher may select (mode bit 1) when the store-safety/alias proof
    #: holds.  Statically false when the body calls libm functions whose
    #: vector variants are not IEEE-exact, or inlines other functions.
    simd_ok: bool = False


class _Scope(NamedTuple):
    """Where a structured op's C construct stands (``RegionCodegen._STRUCTURED``)."""

    ref: Callable[[object], str]    # reads an operand of the op's header
    child: Callable[[object], None]  # emits one child block
    times: str                      # multiplier on the op's per-iteration charge
    block: bool                     # at block scope, outside any thread loop


class RegionCodegen:
    """Emits one region as a self-contained C function.

    ``plan`` is the region's :class:`~repro.analysis.region.RegionPlan`
    (its ``live_ins`` order is the argument ABI); ``slot_of`` maps an SSA
    value to its register slot in the enclosing compiled function (used to
    describe that ABI to the dispatcher).
    """

    def __init__(self, program, plan, symbol: str, slot_of) -> None:
        self.program = program
        self.plan = plan
        self.op = plan.op
        self.symbol = symbol
        self.slot_of = slot_of
        self.machine = program.machine
        self.out = _Writer()
        self._uid = 0
        self.cexpr: Dict[int, str] = {}          # id(value) -> C expression
        self.buffers: Dict[int, _Buffer] = {}    # id(value) -> buffer
        self.spec = RegionSpec(symbol=symbol, kind="span")
        self._livein_index: Dict[int, str] = {}  # id(value) -> bound C name
        self._stored_buffers: set = set()        # live-in buffer names written
        self._inline_stack: List[int] = []
        # SIMT state (launch regions)
        self.simt = False
        self._toplevel: Dict[int, Tuple[str, int]] = {}  # id -> (kind, index)
        self._n_ti = 0
        self._n_tf = 0
        # phase-crossing bookkeeping: values defined as plain C locals inside
        # one thread-loop chunk are out of scope in later chunks (`ref`
        # checks; _assign_lanes gives every crossing value a lane instead).
        self._chunk_token = 0
        self._local_token: Dict[int, int] = {}   # id(value) -> defining chunk
        self._varying: set = set()               # id(value) -> thread-varying

    def _name(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}{self._uid}"

    # -- live-in binding -------------------------------------------------------
    def _bind_livein(self, value) -> None:
        type_ = value.type
        if isinstance(type_, MemRefType):
            index = len(self.spec.buffers)
            name = f"lp{index}"
            ctype = _element_ctype(type_.element_type)
            shape_base = sum(b.rank for b in self.spec.buffers)
            extents = [f"LS[{shape_base + d}]" for d in range(type_.rank)]
            self.buffers[id(value)] = _Buffer(
                name=name, ctype=ctype, rank=type_.rank, extents=extents,
                space=type_.memory_space, kind="livein",
                elem_bytes=dtype_for(type_.element_type).itemsize)
            self.spec.buffers.append(BufSpec(
                slot=self.slot_of(value), dtype=dtype_for(type_.element_type).name,
                rank=type_.rank, space=type_.memory_space, stored=False))
            self._livein_index[id(value)] = name
        elif type_.is_float:
            index = len(self.spec.float_slots)
            self.spec.float_slots.append(self.slot_of(value))
            self.cexpr[id(value)] = f"lf{index}"
        elif type_.is_integer or type_.is_index:
            index = len(self.spec.int_slots)
            self.spec.int_slots.append(self.slot_of(value))
            self.cexpr[id(value)] = f"li{index}"
        else:
            raise UnsupportedRegion(f"live-in of type {type_}")

    def _emit_livein_prologue(self) -> None:
        w = self.out.w
        for index in range(len(self.spec.int_slots)):
            w(f"const int64_t li{index} = LI[{index}];")
        for index in range(len(self.spec.float_slots)):
            w(f"const double lf{index} = LF[{index}];")
        for index, buf_spec in enumerate(self.spec.buffers):
            ctype = _CTYPES[buf_spec.dtype]
            w(f"{ctype}* const lp{index} = ({ctype}*)LP[{index}];")

    # -- value helpers ---------------------------------------------------------
    def _ctype_of(self, value) -> str:
        if value.type.is_float:
            return "double"
        if value.type.is_integer or value.type.is_index:
            return "int64_t"
        raise UnsupportedRegion(f"SSA value of type {value.type}")

    def ref(self, value) -> str:
        vid = id(value)
        expr = self.cexpr.get(vid)
        if expr is None:
            raise UnsupportedRegion("use of an untranslated value")
        if self._local_token.get(vid, self._chunk_token) != self._chunk_token:
            # a chunk-local C variable of an earlier phase is out of scope
            # here; _assign_lanes gives every such value a lane, so this is
            # a bug in the crossing analysis — fall back, never miscompile.
            raise UnsupportedRegion("phase-crossing value has no lane")
        return expr

    def _lane(self, value, thread: str = " + t") -> Optional[str]:
        """The per-thread lane caching ``value`` across phase boundaries —
        thread ``t``'s, or lane 0 with ``thread=""`` — if it has one."""
        top = self._toplevel.get(id(value))
        if top is None:
            return None
        kind, index = top
        return f"{'TI' if kind == 'i' else 'TF'}[{index} * NT{thread}]"

    def _define(self, value, expr: Optional[str] = None) -> str:
        """Bind ``value`` to its lane or to a fresh C local defined as
        ``expr``; without one the local is only declared — a construct result
        (scf.for / scf.if / scf.while / call) assigned in nested scopes."""
        target = self._lane(value)
        if target is None:
            target = self._name("v")
            if self.simt:
                self._local_token[id(value)] = self._chunk_token
            declaration = f"{self._ctype_of(value)} {target}"
            self.out.w(f"{declaration};" if expr is None else f"{declaration} = {expr};")
        elif expr is not None:
            self.out.w(f"{target} = {expr};")
        self.cexpr[id(value)] = target
        return target

    # -- static cost folding ---------------------------------------------------
    def _access_charge(self, memref_value) -> Tuple[float, float]:
        """(work, global_bytes) charged per access of ``memref_value``.

        Derived from the memref's *static* type; the dispatcher verifies at
        every call that the runtime storage (dtype, memory space) matches
        what this folding assumed, falling back otherwise.
        """
        mtype = memref_value.type
        if not isinstance(mtype, MemRefType):
            raise UnsupportedRegion("memory access through a non-memref value")
        space = mtype.memory_space
        elem_bytes = dtype_for(mtype.element_type).itemsize
        return (memory_access_cost(self.machine, space, elem_bytes),
                float(elem_bytes) if space == "global" else 0.0)

    def _static_charge(self, op) -> Tuple[float, float]:
        """The (work, global_bytes) charged once per execution of ``op``'s
        own straight-line step, excluding anything its nested blocks charge
        per iteration — the op's :mod:`optable` cost class."""
        if (isinstance(op, memref_d.AllocOp)  # covers AllocaOp
                and id(op.result) in self._prebound_shared):
            return 0.0, 0.0
        cost = optable.static_cost(op)
        if cost is None:
            raise UnsupportedRegion(f"op {op.name}")
        if cost is optable.MEMORY:
            return self._access_charge(op.memref)
        return cost, 0.0

    # -- block emission --------------------------------------------------------
    _split = staticmethod(split_executed)

    def _precheck(self, ops: Sequence, *, allow_barriers: bool = False) -> None:
        """Reject whole-region show-stoppers before any text is emitted.

        Launch regions (``allow_barriers``) accept barriers at any structured
        depth — placement validity (only under uniform, carried-value-free
        scf.for/scf.if/scf.while) is checked by the structural analysis.
        """
        for op in ops:
            if isinstance(op, _NESTED_CONTEXT_OPS):
                raise UnsupportedRegion(f"nested parallel construct {op.name}")
            if isinstance(op, omp_d.OmpBarrierOp):
                raise UnsupportedRegion("omp.barrier inside a region body")
            if isinstance(op, _BARRIER_OPS) and not allow_barriers:
                raise UnsupportedRegion("barrier inside the region body")
            if isinstance(op, (gpu_d.GPUAllocOp, gpu_d.GPUDeallocOp,
                               gpu_d.GPUMemcpyOp)):
                raise UnsupportedRegion(f"host-level op {op.name}")
            for region in op.regions:
                for block in region.blocks:
                    self._precheck(list(block.operations),
                                   allow_barriers=allow_barriers)

    def _emit_block(self, block, *, count_ops: bool = True) -> None:
        """Emit one straight-line block: folded static charges + op code."""
        ops, term = self._split(block)
        nops = len(ops) + (1 if term is not None else 0)
        work = gb = 0.0
        for op in ops:
            op_work, op_gb = self._static_charge(op)
            work += op_work
            gb += op_gb
        if count_ops and nops:
            self.out.w(f"OPS += {c_int(nops)};")
        if work:
            self.out.w(f"W += {c_double(work)};")
        if gb:
            self.out.w(f"GB += {c_double(gb)};")
        for op in ops:
            self._emit_op(op)

    # -- op emission -----------------------------------------------------------
    def _scalar_expr(self, op) -> Optional[str]:
        """Pure scalar expression for ``op.result`` — the ``c`` form of the
        op's :mod:`optable` row — or None when ``op`` is not a pure scalar
        computation."""
        row = optable.row_for(op)
        if row is None:
            return None
        if isinstance(op, arith.ConstantOp):
            return (c_double(op.value) if op.result.type.is_float
                    else c_int(op.value))
        if isinstance(op, memref_d.DimOp):
            buffer = self._buffer(op.memref)
            if not (0 <= op.dim < buffer.rank):
                raise UnsupportedRegion("memref.dim out of rank")
            return buffer.extents[op.dim]
        if row.c is None:
            raise UnsupportedRegion(f"no C form for {op.name}")
        return optable.render(row.c, [self.ref(operand) for operand in op.operands])

    def _emit_op(self, op) -> None:
        if isinstance(op, _BARRIER_OPS):
            return  # chunk splitting already realized the phase boundary
        expr = self._scalar_expr(op)
        if expr is not None:
            self._define(op.result, expr)
            return
        if isinstance(op, memref_d.AllocOp):  # covers AllocaOp
            self._emit_alloc(op)
            return
        if isinstance(op, memref_d.DeallocOp):
            self._emit_dealloc(op)
            return
        if isinstance(op, memref_d.LoadOp):
            self._emit_load(op)
            return
        if isinstance(op, memref_d.StoreOp):
            self._emit_store(op)
            return
        if isinstance(op, memref_d.CopyOp):
            self._emit_copy(op)
            return
        if isinstance(op, func_d.CallOp):
            self._emit_call(op)
            return
        structured = self._STRUCTURED.get(type(op))
        if structured is not None:
            structured(self, op, _Scope(self.ref, self._emit_block, "", False))
            return
        raise UnsupportedRegion(f"op {op.name}")

    # -- memory ----------------------------------------------------------------
    def _buffer(self, value) -> _Buffer:
        buffer = self.buffers.get(id(value))
        if buffer is None:
            raise UnsupportedRegion("access to an untranslated memref")
        return buffer

    def _flat_index(self, buffer: _Buffer, indices: Sequence) -> str:
        if buffer.rank == 0:
            base = "0"
        else:
            base = f"(int64_t)({self.ref(indices[0])})"
            for dim in range(1, buffer.rank):
                base = (f"(({base}) * ({buffer.extents[dim]})"
                        f" + (int64_t)({self.ref(indices[dim])}))")
        if buffer.kind == "threadlocal":
            elems = " * ".join(buffer.extents) if buffer.rank else "1"
            return f"((int64_t)t * ({elems}) + ({base}))"
        return base

    def _emit_load(self, op) -> None:
        buffer = self._buffer(op.memref)
        element = f"{buffer.name}[{self._flat_index(buffer, op.indices)}]"
        cast = "double" if op.result.type.is_float else "int64_t"
        self._define(op.result, f"({cast}){element}")

    def _emit_store(self, op) -> None:
        buffer = self._buffer(op.memref)
        if buffer.kind == "livein":
            self._stored_buffers.add(buffer.name)
        element = f"{buffer.name}[{self._flat_index(buffer, op.indices)}]"
        self.out.w(f"{element} = ({buffer.ctype}){self.ref(op.value)};")

    def _private_shape(self, op) -> Tuple[List[int], int]:
        mtype = op.memref_type
        if op.operands:
            raise UnsupportedRegion("dynamic-extent private alloc")
        shape = [int(extent) for extent in mtype.shape]
        elems = 1
        for extent in shape:
            elems *= extent
        return shape, max(1, elems)

    def _emit_alloc(self, op) -> None:
        if id(op.result) in self._prebound_shared:
            return
        existing = self.buffers.get(id(op.result))
        if existing is not None and existing.kind == "threadlocal":
            # prescanned launch-body alloca: zero this thread's lane at the
            # op's execution point (numpy zero-alloc semantics per thread).
            elems = " * ".join(existing.extents) or "1"
            self.out.w(f"memset({existing.name} + (int64_t)t * ({elems}), 0, "
                       f"sizeof({existing.ctype}) * ({elems}));")
            return
        mtype = op.memref_type
        shape, elems = self._private_shape(op)
        ctype = _element_ctype(mtype.element_type)
        elem_bytes = dtype_for(mtype.element_type).itemsize
        if elems * elem_bytes > _MAX_PRIVATE_BYTES:
            raise UnsupportedRegion("private alloc too large for the stack")
        name = self._name("b")
        self.out.w(f"{ctype} {name}[{elems}];")
        self.out.w(f"memset({name}, 0, sizeof {name});")
        self.buffers[id(op.result)] = _Buffer(
            name=name, ctype=ctype, rank=len(shape),
            extents=[str(extent) for extent in shape],
            space=mtype.memory_space, kind="private", elem_bytes=elem_bytes)

    def _emit_dealloc(self, op) -> None:
        buffer = self._buffer(op.memref)
        if buffer.kind == "livein":
            raise UnsupportedRegion("dealloc of a live-in buffer")
        # private buffers have automatic storage; the 2.0-cycle charge is in
        # the block's folded constant.  Double frees cannot be replicated
        # here, so regions that free twice diverge only on already-erroring
        # programs (same contract as the int64 lane divergence).

    def _emit_copy(self, op) -> None:
        source = self._buffer(op.source)
        destination = self._buffer(op.destination)
        if "threadlocal" in (source.kind, destination.kind):
            # flat indexing below has no per-thread lane offset; the
            # pipeline never emits copies of launch-body allocas, so fall
            # back rather than copy thread 0's lane for every thread.
            raise UnsupportedRegion("memref.copy of a thread-local buffer")
        if destination.kind == "livein":
            self._stored_buffers.add(destination.name)
        elems = " * ".join(f"({extent})" for extent in source.extents) or "1"
        count = self._name("n")
        index = self._name("i")
        cost = memory_access_cost(self.machine, "global", source.elem_bytes)
        self.out.w(f"const int64_t {count} = {elems};")
        self.out.open(f"for (int64_t {index} = 0; {index} < {count}; ++{index}) {{")
        self.out.w(f"{destination.name}[{index}] = "
                   f"({destination.ctype}){source.name}[{index}];")
        self.out.close()
        self.out.w(f"W += 2.0 * (double){count} * {c_double(cost)};")
        self.out.w(f"GB += (double)(2 * {count} * {source.elem_bytes});")

    # -- calls -------------------------------------------------------------------
    def _emit_call(self, op) -> None:
        program = self.program
        callee = program.module.lookup(op.callee)
        if callee is None or callee.is_declaration:
            raise UnsupportedRegion(f"call to unknown function {op.callee!r}")
        if program.plans.function_may_yield(callee):
            raise UnsupportedRegion("call to a function containing barriers")
        if id(callee) in self._inline_stack:
            raise UnsupportedRegion("recursive call")
        self._inline_stack.append(id(callee))
        try:
            # results must be declared *outside* the inlined scope: the
            # callee's values go out of C scope at the closing brace.
            results = [self._define(result) for result in op.results]
            self.out.open("{")
            for argument, operand in zip(callee.arguments, op.operands):
                if isinstance(argument.type, MemRefType):
                    self.buffers[id(argument)] = self._buffer(operand)
                else:
                    name = self._name("a")
                    self.cexpr[id(argument)] = name
                    self.out.w(f"const {self._ctype_of(argument)} {name} = "
                               f"{self.ref(operand)};")
            self._emit_block(callee.body_block)
            _, term = self._split(callee.body_block)
            returned = term.operands if isinstance(term, func_d.ReturnOp) else []
            for target, value in zip(results, returned):
                self.out.w(f"{target} = {self.ref(value)};")
            self.out.close()
        finally:
            self._inline_stack.pop()

    # -- structured control flow --------------------------------------------------
    #
    # One emitter per op, for a construct inside one thread (a span iteration,
    # a thread-loop chunk) and for one at block scope driving the thread loops;
    # the :class:`_Scope` says which.  ``_name()`` order is emitted text.
    def _update_carried(self, carried: Sequence[str], values: Sequence) -> None:
        """Two-phase update so permuted yields read pre-update values."""
        temps = []
        for value in values:
            temp = self._name("y")
            temps.append(temp)
            self.out.w(f"{self._ctype_of(value)} {temp} = {self.ref(value)};")
        for temp, name in zip(temps, carried):
            self.out.w(f"{name} = {temp};")

    def _emit_for(self, op, scope: "_Scope") -> None:
        lower = scope.ref(op.lower_bound)
        upper = scope.ref(op.upper_bound)
        step = scope.ref(op.step)
        results = [self._define(result) for result in op.results]
        cost = op_cost("scf.for")
        self.out.open("{")
        ub = self._name("ub")
        st = self._name("st")
        self.out.w(f"const int64_t {ub} = {upper};")
        self.out.w(f"const int64_t {st} = {step};")
        # never *read* ERR here: under reduction(max:ERR) each thread's
        # private copy starts at the max identity (INT64_MIN), not 0.
        self.out.w(f"if ({st} <= 0) ERR = {ERR_BAD_STEP};")
        carried = []
        for init in op.iter_init:
            name = self._name("c")
            carried.append(name)
            self.out.w(f"{self._ctype_of(init)} {name} = {self.ref(init)};")
        iv = self._name("iv")
        self.out.open(f"if ({st} > 0) for (int64_t {iv} = {lower}; {iv} < {ub}; "
                      f"{iv} += {st}) {{")
        self.cexpr[id(op.induction_var)] = iv
        for name, argument in zip(carried, op.iter_args):
            self.cexpr[id(argument)] = name
        scope.child(op.body)
        _, term = self._split(op.body)
        if isinstance(term, scf.YieldOp) and carried:
            self._update_carried(carried, term.operands)
        self.out.w(f"W += {c_double(cost)}{scope.times};")
        self.out.close()
        for result, name in zip(results, carried):
            self.out.w(f"{result} = {name};")
        self.out.close()

    def _emit_if(self, op, scope: "_Scope") -> None:
        if op.results and op.else_block is None:
            raise UnsupportedRegion("scf.if with results but no else branch")
        results = [self._define(result) for result in op.results]
        self.out.open(f"if ({scope.ref(op.condition)}) {{")
        for block in (op.then_block, op.else_block):
            if block is None:
                continue
            if block is op.else_block:
                self.out.close("} else {")
                self.out.indent += 1
            scope.child(block)
            _, term = self._split(block)
            if results and isinstance(term, scf.YieldOp):
                for target, value in zip(results, term.operands):
                    self.out.w(f"{target} = {self.ref(value)};")
        self.out.close()

    def _emit_while(self, op, scope: "_Scope") -> None:
        """``scf.while`` as a C ``for (;;)``, mirroring the compiled engine's
        _c_while charge for charge: ``op_cost("scf.while")`` at the head of
        every iteration (including the final failed check), no entry charge;
        the before block re-runs per iteration, results are the forwarded
        values at exit."""
        _, before_term = self._split(op.before_block)
        if not isinstance(before_term, scf.ConditionOp):
            raise UnsupportedRegion("scf.while without scf.condition")
        results = [self._define(result) for result in op.results]
        cost = op_cost("scf.while")
        # the scope for carried values and the braced exit are text the
        # block-scope form (which carries nothing) never had; emitted C is
        # an artifact key, so each form keeps its own.
        if not scope.block:
            self.out.open("{")
        carried = []
        for init in op.init_args:
            name = self._name("c")
            carried.append(name)
            self.out.w(f"{self._ctype_of(init)} {name} = {self.ref(init)};")
        for name, argument in zip(carried, op.before_block.arguments):
            self.cexpr[id(argument)] = name
        self.out.open("for (;;) {")
        self.out.w(f"W += {c_double(cost)}{scope.times};")
        scope.child(op.before_block)
        condition = scope.ref(before_term.condition)
        forwarded = list(before_term.forwarded)
        if scope.block:
            self.out.w(f"if (!({condition})) break;")
        else:
            self.out.open(f"if (!({condition})) {{")
            for target, value in zip(results, forwarded):
                self.out.w(f"{target} = {self.ref(value)};")
            self.out.w("break;")
            self.out.close()
        for argument, value in zip(op.after_block.arguments, forwarded):
            name = self._name("w")
            self.cexpr[id(argument)] = name
            self.out.w(f"{self._ctype_of(argument)} {name} = {self.ref(value)};")
        scope.child(op.after_block)
        _, after_term = self._split(op.after_block)
        if isinstance(after_term, scf.YieldOp) and carried:
            self._update_carried(carried, after_term.operands)
        elif carried:
            for name, value in zip(carried, forwarded):
                self.out.w(f"{name} = {self.ref(value)};")
        self.out.close()
        if not scope.block:
            self.out.close()

    _STRUCTURED = {scf.ForOp: _emit_for, scf.IfOp: _emit_if, scf.WhileOp: _emit_while}

    def _simd_eligible(self, ops: Sequence) -> bool:
        """No op whose C form is not IEEE-exact under vectorization
        (``Row.simd_exact``: exp, log, sin, pow, ...) and no call."""
        for op in ops:
            row = optable.row_for(op)
            if row is not None and not row.simd_exact:
                return False
            if isinstance(op, func_d.CallOp):
                return False  # inlined callees: not scanned, stay conservative
            for region in op.regions:
                for block in region.blocks:
                    if not self._simd_eligible(list(block.operations)):
                        return False
        return True

    # -- the region function ----------------------------------------------------
    def _function_head(self, *params: str) -> None:
        """Open the region's C function: the live-in ABI every region shares,
        then its own ``params``; the counters; the live-in bindings."""
        self.out.lines += [
            f"void {self.symbol}(const int64_t* LI, const double* LF,",
            "        void* const* LP, const int64_t* LS,",
            *(f"        {line}" for line in params),
            "{"]
        self.out.w("double W = 0.0, GB = 0.0;")
        self.out.w(f"int64_t OPS = 0, {'PH = 0, ' if self.simt else ''}ERR = 0;")
        self._emit_livein_prologue()

    def _function_tail(self) -> str:
        """Write the counters back, close the function; its whole text."""
        self.out.lines += [
            "    outf[0] = W; outf[1] = GB;",
            f"    outi[0] = OPS; outi[1] = {'PH' if self.simt else '0'}; outi[2] = ERR;",
            "}"]
        self._mark_stored()
        return "\n".join(self.out.lines)

    # ------------------------------------------------------------------------
    # Span regions (omp.wsloop / barrier-free scf.parallel)
    # ------------------------------------------------------------------------
    def emit_span(self) -> Tuple[str, RegionSpec]:
        op = self.op
        self._prebound_shared: set = set()
        ops, _ = self._split(op.body)
        self._precheck(ops)
        num_dims = len(op.induction_vars)
        self.spec.kind = "span"
        self.spec.num_dims = num_dims
        self.spec.simd_ok = self._simd_eligible(ops)
        for value in self.plan.live_ins:
            self._bind_livein(value)

        self._function_head("const int64_t* RLB, const int64_t* RST,",
                            "const int64_t* RLEN, int64_t total, int64_t mode,",
                            "double* outf, int64_t* outi)")

        body = _Writer()
        body.indent = 2
        saved = self.out
        self.out = body
        body.w("int64_t rem = lin;")
        for dim in reversed(range(num_dims)):
            body.w(f"const int64_t q{dim} = rem % RLEN[{dim}];")
            if dim:
                body.w(f"rem /= RLEN[{dim}];")
        body.w("(void)rem;")
        for dim, induction_var in enumerate(op.induction_vars):
            # "sv" (span variable), disjoint from the _name() prefixes so a
            # nested scf.for's "iv<uid>" counter can never shadow it.
            name = f"sv{dim}"
            self.cexpr[id(induction_var)] = name
            body.w(f"const int64_t {name} = RLB[{dim}] + q{dim} * RST[{dim}];")
        self._emit_block(op.body)
        self.out = saved

        lines = self.out.lines

        # max-reduction on ERR: error *codes* must not sum across threads.
        # Counter reductions reassociate W/GB/OPS partial sums — exact, and
        # therefore bit-identical, on dyadic machines (module docstring).
        reductions = "reduction(+:W,GB,OPS) reduction(max:ERR)"

        def loop(pragma: Optional[str]) -> List[str]:
            out = []
            if pragma:
                out.append(pragma)
            out.append("    for (int64_t lin = 0; lin < total; ++lin) {")
            out.extend(body.lines)
            out.append("    }")
            return out

        # mode bit 0: OpenMP worksharing (store-safety proof + ≥64 units);
        # mode bit 1: innermost SIMD (same proof, no size threshold).
        if self.spec.simd_ok:
            lines.append("    if ((mode & 1) && (mode & 2)) {")
            lines += loop("#pragma omp parallel for simd schedule(static) "
                          + reductions)
            lines.append("    } else if (mode & 1) {")
            lines += loop("#pragma omp parallel for schedule(static) "
                          + reductions)
            lines.append("    } else if (mode & 2) {")
            lines += loop("#pragma omp simd " + reductions)
            lines.append("    } else {")
            lines += loop(None)
            lines.append("    }")
        else:
            lines.append("    if (mode & 1) {")
            lines += loop("#pragma omp parallel for schedule(static) "
                          + reductions)
            lines.append("    } else {")
            lines += loop(None)
            lines.append("    }")
        return self._function_tail(), self.spec

    # ------------------------------------------------------------------------
    # Launch regions (gpu.launch with structured barriers)
    # ------------------------------------------------------------------------
    #
    # A launch body is a tree of *structural levels*: the top-level block,
    # plus the blocks of every barrier-containing scf.for / scf.if /
    # scf.while (executed once per block at C block scope, under provably
    # thread-uniform control).  Each level splits into items: *chunks* of
    # plain ops (one `for (t)` thread loop each), *barriers* (`PH += 1` —
    # the phase boundary is the end of the preceding thread loop), and
    # nested *structural* ops — written by the same emitters as inside a
    # thread, under the block ``_Scope`` (``_emit_struct``).  Values that
    # cross a phase boundary are cached in per-thread lanes (TI/TF).
    def _level_items(self, ops: Sequence) -> List[Tuple[str, object]]:
        """Split one structural level into chunk / barrier / struct items."""
        items: List[Tuple[str, object]] = []
        chunk: List = []
        for nested in ops:
            if isinstance(nested, _BARRIER_OPS):
                if chunk:
                    items.append(("chunk", chunk))
                    chunk = []
                items.append(("barrier", nested))
            elif self.program.plans.op_may_yield(nested):
                if chunk:
                    items.append(("chunk", chunk))
                    chunk = []
                items.append(("struct", nested))
            else:
                chunk.append(nested)
        if chunk:
            items.append(("chunk", chunk))
        return items

    def _struct_header_operands(self, op) -> List:
        """Validate a barrier-containing structural op; return the scalar
        operands its C header needs at block scope (must be uniform)."""
        if isinstance(op, scf.IfOp):
            if op.results:
                raise UnsupportedRegion("barrier under scf.if with results")
            return [op.condition]
        if isinstance(op, scf.ForOp):
            if list(op.iter_init) or op.results:
                raise UnsupportedRegion("barrier under scf.for with iter_args")
            return [op.lower_bound, op.upper_bound, op.step]
        if isinstance(op, scf.WhileOp):
            _, before_term = self._split(op.before_block)
            if not isinstance(before_term, scf.ConditionOp):
                raise UnsupportedRegion("scf.while without scf.condition")
            if list(op.init_args) or op.results or list(before_term.forwarded):
                raise UnsupportedRegion(
                    "barrier under scf.while with carried values")
            return [before_term.condition]
        raise UnsupportedRegion(f"barrier inside {op.name}")

    def _struct_children(self, op) -> List[Tuple[List, Optional[object]]]:
        if isinstance(op, scf.IfOp):
            children = [self._split(op.then_block)]
            if op.else_block is not None:
                children.append(self._split(op.else_block))
            return children
        if isinstance(op, scf.ForOp):
            return [self._split(op.body)]
        return [self._split(op.before_block), self._split(op.after_block)]

    def _launch_uniformity(self, ops: Sequence) -> set:
        """ids of SSA values that may differ across threads of a block.

        Optimistic monotone fixpoint: everything starts uniform except
        tx/ty/tz; varying-ness propagates through pure ops, loads (unless
        from a *uniform cell* — a non-shared alloca whose every store writes
        a uniform value at uniform indices under uniform control), and
        loop-carried values.  Loads from live-in or shared buffers are
        conservatively varying."""
        launch = self.op
        varying: set = set()
        for index in (3, 4, 5):
            varying.add(id(launch.body.arguments[index]))
        cell_ids: set = set()
        varying_cells: set = set()

        def collect_cells(op) -> None:
            if isinstance(op, memref_d.AllocOp):
                cell_ids.add(id(op.result))
                if memref_d.is_shared_memref(op.result):
                    varying_cells.add(id(op.result))
            for region in op.regions:
                for block in region.blocks:
                    for nested in block.operations:
                        collect_cells(nested)

        for nested in ops:
            collect_cells(nested)

        def uni(value) -> bool:
            return id(value) not in varying

        def mark(value) -> bool:
            if id(value) in varying:
                return False
            varying.add(id(value))
            return True

        def visit(block_ops: Sequence, ctx: bool) -> bool:
            changed = False
            for op in block_ops:
                if isinstance(op, (memref_d.AllocOp, memref_d.DeallocOp)):
                    continue
                if isinstance(op, _BARRIER_OPS):
                    continue
                if isinstance(op, memref_d.StoreOp):
                    target = id(op.memref)
                    if target in cell_ids and target not in varying_cells:
                        if (not ctx or not uni(op.value)
                                or any(not uni(i) for i in op.indices)):
                            varying_cells.add(target)
                            changed = True
                    continue
                if isinstance(op, memref_d.CopyOp):
                    target = id(op.destination)
                    if target in cell_ids and target not in varying_cells:
                        varying_cells.add(target)
                        changed = True
                    continue
                if isinstance(op, memref_d.LoadOp):
                    source = id(op.memref)
                    cell_ok = source in cell_ids and source not in varying_cells
                    if not (cell_ok and all(uni(i) for i in op.indices)):
                        changed |= mark(op.result)
                    continue
                if isinstance(op, scf.ForOp):
                    bounds_ok = (uni(op.lower_bound) and uni(op.upper_bound)
                                 and uni(op.step))
                    if not bounds_ok:
                        changed |= mark(op.induction_var)
                    body_ops, body_term = self._split(op.body)
                    yields = (list(body_term.operands)
                              if isinstance(body_term, scf.YieldOp) else [])
                    for arg, init in zip(op.iter_args, op.iter_init):
                        if not uni(init):
                            changed |= mark(arg)
                    for arg, yielded in zip(op.iter_args, yields):
                        if not uni(yielded):
                            changed |= mark(arg)
                    for result, arg in zip(op.results, op.iter_args):
                        if not uni(arg):
                            changed |= mark(result)
                    changed |= visit(body_ops, ctx and bounds_ok)
                    continue
                if isinstance(op, scf.IfOp):
                    cond_ok = uni(op.condition)
                    then_ops, then_term = self._split(op.then_block)
                    changed |= visit(then_ops, ctx and cond_ok)
                    yields = [(list(then_term.operands)
                               if isinstance(then_term, scf.YieldOp) else [])]
                    if op.else_block is not None:
                        else_ops, else_term = self._split(op.else_block)
                        changed |= visit(else_ops, ctx and cond_ok)
                        yields.append(list(else_term.operands)
                                      if isinstance(else_term, scf.YieldOp)
                                      else [])
                    for index, result in enumerate(op.results):
                        operands = [branch[index] for branch in yields
                                    if index < len(branch)]
                        if (not cond_ok or len(operands) < len(yields)
                                or any(not uni(v) for v in operands)):
                            changed |= mark(result)
                    continue
                if isinstance(op, scf.WhileOp):
                    before_ops, before_term = self._split(op.before_block)
                    after_ops, after_term = self._split(op.after_block)
                    cond_ok = (isinstance(before_term, scf.ConditionOp)
                               and uni(before_term.condition))
                    forwarded = (list(before_term.forwarded)
                                 if isinstance(before_term, scf.ConditionOp)
                                 else [])
                    for arg, init in zip(op.before_block.arguments,
                                         op.init_args):
                        if not uni(init):
                            changed |= mark(arg)
                    if isinstance(after_term, scf.YieldOp):
                        for arg, yielded in zip(op.before_block.arguments,
                                                after_term.operands):
                            if not uni(yielded):
                                changed |= mark(arg)
                    for arg, value in zip(op.after_block.arguments, forwarded):
                        if not uni(value):
                            changed |= mark(arg)
                    for result, value in zip(op.results, forwarded):
                        if not uni(value):
                            changed |= mark(result)
                    inner = ctx and cond_ok
                    changed |= visit(before_ops, inner)
                    changed |= visit(after_ops, inner)
                    continue
                if isinstance(op, func_d.CallOp):
                    for result in op.results:
                        changed |= mark(result)
                    for operand in op.operands:
                        if (id(operand) in cell_ids
                                and id(operand) not in varying_cells):
                            varying_cells.add(id(operand))
                            changed = True
                    continue
                # pure scalar ops (constants, arith, math, dim)
                if op.results and any(not uni(v) for v in op.operands):
                    for result in op.results:
                        changed |= mark(result)
            return changed

        while visit(ops, True):
            pass
        return varying

    def _assign_lanes(self, ops: Sequence) -> None:
        """Decide which launch-body values get per-thread TI/TF lanes.

        Walks the structural level tree once, collecting phase-cut
        candidates (scalar results of ops sitting directly at structural
        levels); a candidate gets a lane when it crosses an item boundary or
        a structural C header reads it at block scope (lane 0; uniformity is
        validated on the way).  That set is a valid value cut by
        construction, and since crossing values are forced into any cut it
        is also the minimum one (:mod:`repro.analysis.mincut`), so no cut is
        computed."""
        candidates: List = []
        def_pos: Dict[int, Tuple[int, int]] = {}
        crossing: set = set()
        needed: set = set()
        counter = [0]

        def visit_uses(operation, frames: Dict[int, int]) -> None:
            for operand in operation.operands:
                position = def_pos.get(id(operand))
                if position is not None and frames.get(position[0]) != position[1]:
                    crossing.add(id(operand))
            for region in operation.regions:
                for block in region.blocks:
                    for nested in block.operations:
                        visit_uses(nested, frames)

        def walk(level_ops: Sequence, frames: Dict[int, int]) -> None:
            level_id = counter[0]
            counter[0] += 1
            for item_id, (kind, payload) in enumerate(self._level_items(level_ops)):
                sub = dict(frames)
                sub[level_id] = item_id
                if kind == "chunk":
                    for nested in payload:
                        visit_uses(nested, sub)
                        for result in nested.results:
                            if isinstance(result.type, MemRefType):
                                continue
                            candidates.append(result)
                            def_pos[id(result)] = (level_id, item_id)
                elif kind == "struct":
                    for value in self._struct_header_operands(payload):
                        if id(value) in self._varying:
                            raise UnsupportedRegion(
                                "barrier under thread-varying control flow")
                        needed.add(id(value))
                    for child_ops, _child_term in self._struct_children(payload):
                        walk(child_ops, sub)

        walk(ops, {})
        lanes = crossing | (needed & def_pos.keys())
        for value in candidates:
            if id(value) not in lanes:
                continue
            if value.type.is_float:
                self._toplevel[id(value)] = ("f", self._n_tf)
                self._n_tf += 1
            else:
                self._toplevel[id(value)] = ("i", self._n_ti)
                self._n_ti += 1

    def _struct_ref(self, value) -> str:
        """A C expression for ``value`` readable at block scope (outside any
        thread loop): lane 0 of a cut value — uniform, so any lane works —
        or a scope-free expression (live-in, block builtin, constant)."""
        lane = self._lane(value, thread="")
        if lane is not None:
            return lane
        expr = self.cexpr.get(id(value))
        if expr is not None and self._local_token.get(id(value)) is None:
            return expr
        raise UnsupportedRegion("structural operand unavailable at block scope")

    def _prescan_threadlocal(self, ops: Sequence) -> List[Tuple[str, str, int]]:
        """Register per-thread scratch for every alloca sitting directly at a
        structural level (its buffer must survive phase boundaries)."""
        scratch: List[Tuple[str, str, int]] = []

        def walk(level_ops: Sequence) -> None:
            for kind, payload in self._level_items(level_ops):
                if kind == "chunk":
                    for nested in payload:
                        if (isinstance(nested, memref_d.AllocOp)
                                and id(nested.result) not in self._prebound_shared):
                            shape, elems = self._private_shape(nested)
                            mtype = nested.memref_type
                            ctype = _element_ctype(mtype.element_type)
                            name = self._name("tb")
                            scratch.append((name, ctype, elems))
                            self.buffers[id(nested.result)] = _Buffer(
                                name=name, ctype=ctype, rank=len(shape),
                                extents=[str(extent) for extent in shape],
                                space=mtype.memory_space, kind="threadlocal",
                                elem_bytes=dtype_for(mtype.element_type).itemsize)
                elif kind == "struct":
                    for child_ops, _term in self._struct_children(payload):
                        walk(child_ops)

        walk(ops)
        return scratch

    def emit_launch(self) -> Tuple[str, RegionSpec]:
        op = self.op
        self.simt = True
        self.spec.kind = "launch"
        ops, term = self._split(op.body)
        self._precheck(ops, allow_barriers=True)
        # prebound shared allocas (one buffer per block, charged nothing)
        shared_allocas = self.plan.shared_allocas
        self._prebound_shared = {id(alloca.result) for alloca in shared_allocas}
        # structural analysis: uniformity, phase-crossing values and their lanes
        self._varying = self._launch_uniformity(ops)
        self._assign_lanes(ops)
        scratch_buffers = self._prescan_threadlocal(ops)
        for value in self.plan.live_ins:
            self._bind_livein(value)

        self._function_head("const int64_t* GRID, const int64_t* BLOCK,",
                            "int64_t par_ok, double* outf, int64_t* outi)")
        self.out.w("const int64_t NT = BLOCK[0] * BLOCK[1] * BLOCK[2];")
        self.out.w("const int64_t nblocks = GRID[0] * GRID[1] * GRID[2];")

        body = _Writer()
        body.indent = 2
        saved = self.out
        self.out = body
        body.w("const int64_t bx = lin % GRID[0];")
        body.w("const int64_t by = (lin / GRID[0]) % GRID[1];")
        body.w("const int64_t bz = lin / (GRID[0] * GRID[1]);")
        body.w("(void)bx; (void)by; (void)bz;")
        arguments = op.body.arguments
        builtin = ["bx", "by", "bz", "tx", "ty", "tz",
                   "GRID[0]", "GRID[1]", "GRID[2]",
                   "BLOCK[0]", "BLOCK[1]", "BLOCK[2]"]
        for argument, expr in zip(arguments, builtin):
            self.cexpr[id(argument)] = expr
        # per-thread scratch: SSA lane arrays + thread-local alloca buffers
        scratch = [("TI", "int64_t", self._n_ti) if self._n_ti else None,
                   ("TF", "double", self._n_tf) if self._n_tf else None]
        scratch = [entry for entry in scratch if entry is not None]
        scratch += scratch_buffers
        body.w("int alloc_ok = 1;")
        for name, ctype, count in scratch:
            body.w(f"{ctype}* {name} = ({ctype}*)malloc(sizeof({ctype}) * "
                   f"{count} * (size_t)NT);")
            body.w(f"if (!{name}) alloc_ok = 0;")
        body.open("if (alloc_ok) {")
        # per-block shared buffers
        for alloca in shared_allocas:
            shape, elems = self._private_shape(alloca)
            mtype = alloca.memref_type
            ctype = _element_ctype(mtype.element_type)
            if elems * dtype_for(mtype.element_type).itemsize > _MAX_PRIVATE_BYTES:
                # same stack cap as private allocas: an oversized automatic
                # array would overflow the OpenMP thread stack instead of
                # falling back.
                raise UnsupportedRegion("shared alloca too large for the stack")
            name = self._name("sh")
            body.w(f"{ctype} {name}[{elems}];")
            body.w(f"memset({name}, 0, sizeof {name});")
            self.buffers[id(alloca.result)] = _Buffer(
                name=name, ctype=ctype, rank=len(shape),
                extents=[str(extent) for extent in shape],
                space=mtype.memory_space, kind="shared",
                elem_bytes=dtype_for(mtype.element_type).itemsize)
        # structural phase execution: each level folds its static charges
        # once (×NT — all threads execute it, control is uniform), thread
        # loops realize chunks, `PH += 1` realizes each dynamic barrier
        # (+1 for the entry phase, matching the SIMT rounds count).
        body.w("PH += 1;")
        self._emit_level(op.body)
        body.close(f"}} else ERR = {ERR_OOM};")
        for name, _, _ in scratch:
            body.w(f"free({name});")
        self.out = saved

        lines = self.out.lines
        lines.append("    if (NT > 0) {")
        lines.append("    if (par_ok) {")
        # max-reduction on ERR: error *codes* must not sum across threads.
        lines.append("#pragma omp parallel for schedule(static) "
                     "reduction(+:W,GB,OPS,PH) reduction(max:ERR)")
        lines.append("    for (int64_t lin = 0; lin < nblocks; ++lin) {")
        lines.extend(body.lines)
        lines.append("    }")
        lines.append("    } else {")
        lines.append("    for (int64_t lin = 0; lin < nblocks; ++lin) {")
        lines.extend(body.lines)
        lines.append("    }")
        lines.append("    }")
        lines.append("    }")
        return self._function_tail(), self.spec

    def _emit_level(self, block) -> None:
        """Emit one structural level: folded per-level charges (×NT), then
        its items in order."""
        ops, term = self._split(block)
        nops = len(ops) + (1 if term is not None else 0)
        work = gb = 0.0
        for nested in ops:
            op_work, op_gb = self._static_charge(nested)
            work += op_work
            gb += op_gb
        if nops:
            self.out.w(f"OPS += {c_int(nops)} * NT;")
        if work:
            self.out.w(f"W += {c_double(work)} * (double)NT;")
        if gb:
            self.out.w(f"GB += {c_double(gb)} * (double)NT;")
        for kind, payload in self._level_items(ops):
            if kind == "barrier":
                self.out.w("PH += 1;")
            elif kind == "chunk":
                self._emit_thread_chunk(payload)
            else:
                self._emit_struct(payload)

    def _emit_thread_chunk(self, chunk: Sequence) -> None:
        self._chunk_token += 1
        self.out.open("for (int64_t t = 0; t < NT; ++t) {")
        self.out.w("const int64_t tx = t % BLOCK[0];")
        self.out.w("const int64_t ty = (t / BLOCK[0]) % BLOCK[1];")
        self.out.w("const int64_t tz = t / (BLOCK[0] * BLOCK[1]);")
        self.out.w("(void)tx; (void)ty; (void)tz;")
        for nested in chunk:
            self._emit_op(nested)
        self.out.close()

    def _emit_struct(self, op) -> None:
        """A barrier-containing scf.for / scf.if / scf.while at block scope:
        every thread executes it with the same (uniform) control decisions,
        so one C-level construct drives the per-level thread loops, reads
        its operands from lane 0 and charges for all ``NT`` threads
        (``_struct_header_operands`` validated it carries no values)."""
        self._STRUCTURED[type(op)](self, op, _Scope(
            self._struct_ref, self._emit_level, " * (double)NT", True))

    def _mark_stored(self) -> None:
        for index, buf_spec in enumerate(self.spec.buffers):
            if f"lp{index}" in self._stored_buffers:
                buf_spec.stored = True


# ---------------------------------------------------------------------------
# Translation-unit assembly
# ---------------------------------------------------------------------------
PRELUDE_HEAD = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Scalar semantics mirror the Python engines exactly: doubles for float
 * arithmetic (f32 rounds only on store), int64 lanes for integers, and the
 * interpreter's guarded versions of division, shifts and libm calls. */

"""


def assemble_unit(functions: Sequence[str]) -> str:
    """One self-contained C translation unit from emitted region functions."""
    return (PRELUDE_HEAD + optable.c_prelude_helpers() + "\n\n"
            + "\n\n".join(functions) + "\n")

"""C code generation for the native OpenMP engine (``engine="native"``).

The paper's headline artifact is *transpiled C*: CUDA kernels lowered through
high-level parallel constructs and emitted as OpenMP CPU code that runs at
native speed.  This module closes that gap for the reproduction: it walks a
lowered *span* — an ``omp.wsloop`` or a barrier-free ``scf.parallel`` — and
emits one C function per region: a loop over the linearized iteration
space, executed under ``#pragma omp parallel for`` when the write-write
store-safety analysis (:mod:`repro.analysis.store_safety`) proves the region
shard-safe (and sequentially otherwise — sequential C is still far faster
than Python closures).  The pragma sits on that linearized span loop and
reads ``parallel for simd`` unless the body calls libm functions whose
vector variants are not IEEE-exact; the dispatcher's ``mode`` flag selects
it or the plain copy of the loop, and a span without a proof is emitted as
the plain loop alone.

Spans are all there is to emit: ``__syncthreads`` is removed in the IR by
cpuify (parallel-loop fission, min-cut value caching, interchange — the
paper's §III-B), so this module holds no barrier lowering of its own, and
un-lowered regions (``gpu.launch``, ``scf.parallel`` with barriers) run on
the closure tier (``compiler._FunctionCompiler._unlowered``).

Scalar ops are emitted as the ``c`` form of their
:mod:`~repro.runtime.optable` row, and the prelude of every translation
unit is the helpers those forms call.

**Bit-identical cost accounting.**  The generated C accumulates the same
counters the Python engines charge — ``work`` cycles, ``dynamic_ops``,
``global_bytes`` — with every static per-op charge folded into
one constant per block.  Every charge lies on the cycle grid
(:data:`repro.runtime.costmodel.CYCLE_GRID`), whatever the machine model, so
float accumulation is associative in exact arithmetic and the folded totals
(and OpenMP ``reduction(+)`` partial sums) are bit-identical to the
interpreter's sequential accumulation; all double literals are emitted as
C99 hex floats so no decimal round-trip can perturb them.

**Machine-independent C.**  The folded charges are the only place the
machine model enters a region, so they are not printed: they are collected
in :attr:`RegionSpec.costs` and the C reads ``K[j]``, an argument the
dispatcher fills from the spec, into a prologue local ``k<j>`` — one cached
``.so`` serves every :class:`~repro.runtime.costmodel.MachineModel`.

Anything the emitter cannot prove it can translate exactly — nested
parallel constructs, dynamic-extent private allocas, recursion — raises
:class:`UnsupportedRegion` and the region falls back to the compiled
engine (per region, never wholesale), keeping correctness independent of
emitter coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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

#: error code written into ``outi[1]`` by generated code.
ERR_BAD_STEP = 1


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
    kind: str                 # 'livein' | 'private'
    elem_bytes: int


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
    int_slots: List[int] = field(default_factory=list)
    float_slots: List[int] = field(default_factory=list)
    buffers: List[BufSpec] = field(default_factory=list)
    num_dims: int = 0
    #: the machine-dependent cycle charges the C reads as ``K[j]``.
    costs: List[float] = field(default_factory=list)
    #: the emitted C's team loop is `parallel for simd`.  Statically false
    #: when the span has no store-safety proof (it has no team loop at all),
    #: when the body calls libm functions whose vector variants are not
    #: IEEE-exact, or when it inlines other functions.
    simd_ok: bool = False


class RegionCodegen:
    """Emits one span as a self-contained C function.

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
        self.spec = RegionSpec(symbol=symbol)
        self._livein_index: Dict[int, str] = {}  # id(value) -> bound C name
        self._stored_buffers: set = set()        # live-in buffer names written
        self._inline_stack: List[int] = []

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
        for index in range(len(self.spec.costs)):
            w(f"const double k{index} = K[{index}];")
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
        expr = self.cexpr.get(id(value))
        if expr is None:
            raise UnsupportedRegion("use of an untranslated value")
        return expr

    def _define(self, value, expr: Optional[str] = None) -> str:
        """Bind ``value`` to a fresh C local defined as ``expr``; without one
        the local is only declared — a construct result (scf.for / scf.if /
        scf.while / call) assigned in nested scopes."""
        target = self._name("v")
        declaration = f"{self._ctype_of(value)} {target}"
        self.out.w(f"{declaration};" if expr is None else f"{declaration} = {expr};")
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

    def _cost(self, cycles: float) -> str:
        """The prologue local holding the charge ``cycles``.  One slot per
        site: values that coincide on this machine need not on another."""
        self.spec.costs.append(cycles)
        return f"k{len(self.spec.costs) - 1}"

    def _static_charge(self, op) -> Tuple[float, float]:
        """The (work, global_bytes) charged once per execution of ``op``'s
        own straight-line step, excluding anything its nested blocks charge
        per iteration — the op's :mod:`optable` cost class."""
        cost = optable.static_cost(op)
        if cost is None:
            raise UnsupportedRegion(f"op {op.name}")
        if cost is optable.MEMORY:
            return self._access_charge(op.memref)
        return cost, 0.0

    # -- block emission --------------------------------------------------------
    _split = staticmethod(split_executed)

    def _precheck(self, ops: Sequence) -> None:
        """Reject whole-region show-stoppers before any text is emitted."""
        for op in ops:
            if isinstance(op, _NESTED_CONTEXT_OPS):
                raise UnsupportedRegion(f"nested parallel construct {op.name}")
            if isinstance(op, omp_d.OmpBarrierOp):
                raise UnsupportedRegion("omp.barrier inside a region body")
            if isinstance(op, _BARRIER_OPS):
                raise UnsupportedRegion("barrier inside the region body")
            if isinstance(op, (gpu_d.GPUAllocOp, gpu_d.GPUDeallocOp,
                               gpu_d.GPUMemcpyOp)):
                raise UnsupportedRegion(f"host-level op {op.name}")
            for region in op.regions:
                for block in region.blocks:
                    self._precheck(list(block.operations))

    def _emit_block(self, block) -> None:
        """Emit one straight-line block: folded static charges + op code."""
        ops, term = self._split(block)
        nops = len(ops) + (1 if term is not None else 0)
        work = gb = 0.0
        for op in ops:
            op_work, op_gb = self._static_charge(op)
            work += op_work
            gb += op_gb
        if nops:
            self.out.w(f"OPS += {c_int(nops)};")
        if work:
            self.out.w(f"W += {self._cost(work)};")
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
            structured(self, op)
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
            return "0"
        base = f"(int64_t)({self.ref(indices[0])})"
        for dim in range(1, buffer.rank):
            base = (f"(({base}) * ({buffer.extents[dim]})"
                    f" + (int64_t)({self.ref(indices[dim])}))")
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
        self.out.w(f"W += 2.0 * (double){count} * {self._cost(cost)};")
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
    # One emitter per op; ``_name()`` order is emitted text.
    def _update_carried(self, carried: Sequence[str], values: Sequence) -> None:
        """Two-phase update so permuted yields read pre-update values."""
        temps = []
        for value in values:
            temp = self._name("y")
            temps.append(temp)
            self.out.w(f"{self._ctype_of(value)} {temp} = {self.ref(value)};")
        for temp, name in zip(temps, carried):
            self.out.w(f"{name} = {temp};")

    def _emit_for(self, op) -> None:
        lower = self.ref(op.lower_bound)
        upper = self.ref(op.upper_bound)
        step = self.ref(op.step)
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
        self._emit_block(op.body)
        _, term = self._split(op.body)
        if isinstance(term, scf.YieldOp) and carried:
            self._update_carried(carried, term.operands)
        self.out.w(f"W += {c_double(cost)};")
        self.out.close()
        for result, name in zip(results, carried):
            self.out.w(f"{result} = {name};")
        self.out.close()

    def _emit_if(self, op) -> None:
        if op.results and op.else_block is None:
            raise UnsupportedRegion("scf.if with results but no else branch")
        results = [self._define(result) for result in op.results]
        self.out.open(f"if ({self.ref(op.condition)}) {{")
        for block in (op.then_block, op.else_block):
            if block is None:
                continue
            if block is op.else_block:
                self.out.close("} else {")
                self.out.indent += 1
            self._emit_block(block)
            _, term = self._split(block)
            if results and isinstance(term, scf.YieldOp):
                for target, value in zip(results, term.operands):
                    self.out.w(f"{target} = {self.ref(value)};")
        self.out.close()

    def _emit_while(self, op) -> None:
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
        self.out.open("{")
        carried = []
        for init in op.init_args:
            name = self._name("c")
            carried.append(name)
            self.out.w(f"{self._ctype_of(init)} {name} = {self.ref(init)};")
        for name, argument in zip(carried, op.before_block.arguments):
            self.cexpr[id(argument)] = name
        self.out.open("for (;;) {")
        self.out.w(f"W += {c_double(cost)};")
        self._emit_block(op.before_block)
        forwarded = list(before_term.forwarded)
        self.out.open(f"if (!({self.ref(before_term.condition)})) {{")
        for target, value in zip(results, forwarded):
            self.out.w(f"{target} = {self.ref(value)};")
        self.out.w("break;")
        self.out.close()
        for argument, value in zip(op.after_block.arguments, forwarded):
            name = self._name("w")
            self.cexpr[id(argument)] = name
            self.out.w(f"{self._ctype_of(argument)} {name} = {self.ref(value)};")
        self._emit_block(op.after_block)
        _, after_term = self._split(op.after_block)
        if isinstance(after_term, scf.YieldOp) and carried:
            self._update_carried(carried, after_term.operands)
        elif carried:
            for name, value in zip(carried, forwarded):
                self.out.w(f"{name} = {self.ref(value)};")
        self.out.close()
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
    def emit_span(self) -> Tuple[str, RegionSpec]:
        op = self.op
        ops, _ = self._split(op.body)
        self._precheck(ops)
        num_dims = len(op.induction_vars)
        self.spec.num_dims = num_dims
        for value in self.plan.live_ins:
            self._bind_livein(value)

        body = _Writer()
        body.indent = 2
        header = self.out
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
        self.out = header
        proven = self.plan.parallel_proof is not None
        self.spec.simd_ok = proven and self._simd_eligible(ops)

        # the live-in ABI and the body's charges, then the span's bounds
        self.out.lines += [
            f"void {self.symbol}(const int64_t* LI, const double* LF,",
            "        const double* K, void* const* LP, const int64_t* LS,",
            "        const int64_t* RLB, const int64_t* RST,",
            "        const int64_t* RLEN, int64_t total, int64_t mode,",
            "        double* outf, int64_t* outi)",
            "{"]
        self.out.w("double W = 0.0, GB = 0.0;")
        self.out.w("int64_t OPS = 0, ERR = 0;")
        self._emit_livein_prologue()

        lines = self.out.lines

        # max-reduction on ERR: error *codes* must not sum across threads.
        # Counter reductions reassociate W/GB/OPS partial sums — exact, and
        # therefore bit-identical, on the cycle grid (module docstring).
        reductions = "reduction(+:W,GB,OPS) reduction(max:ERR)"

        def loop(pragma: Optional[str]) -> List[str]:
            out = []
            if pragma:
                out.append(pragma)
            out.append("    for (int64_t lin = 0; lin < total; ++lin) {")
            out.extend(body.lines)
            out.append("    }")
            return out

        # The body is printed at most twice: once under the pragma (`mode`,
        # the dispatcher's store-safety/alias proof and >= 64 units) and once
        # plain; a span with no proof is the plain loop alone.  One body under
        # `if(parallel: mode) if(simd: mode)` compiles faster still and was
        # rejected: an unproven or aliased dispatch must execute a loop that
        # carries NO OpenMP directive (a false `if(simd:)` only lowers the
        # preferred simdlen, the safelen assertion stays on the loop), and
        # GOMP_parallel on every small dispatch costs about 10 us a launch.
        if not proven:
            lines += loop(None)
        else:
            simd = " simd" if self.spec.simd_ok else ""
            lines.append("    if (mode) {")
            lines += loop(f"#pragma omp parallel for{simd} schedule(static) "
                          + reductions)
            lines.append("    } else {")
            lines += loop(None)
            lines.append("    }")
        lines += ["    outf[0] = W; outf[1] = GB;",
                  "    outi[0] = OPS; outi[1] = ERR;",
                  "}"]
        for index, buf_spec in enumerate(self.spec.buffers):
            buf_spec.stored = f"lp{index}" in self._stored_buffers
        return "\n".join(lines), self.spec


# ---------------------------------------------------------------------------
# Translation-unit assembly
# ---------------------------------------------------------------------------
PRELUDE_HEAD = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* Scalar semantics mirror the Python engines exactly: doubles for float
 * arithmetic (f32 rounds only on store), int64 lanes for integers, and the
 * interpreter's guarded versions of division, shifts and libm calls. */

"""


def assemble_unit(functions: Sequence[str]) -> str:
    """One self-contained C translation unit from emitted region functions,
    under the :mod:`optable` helpers they call."""
    body = "\n\n".join(functions)
    return PRELUDE_HEAD + optable.c_prelude_helpers(body) + "\n\n" + body + "\n"

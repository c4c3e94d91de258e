"""C code generation for the native OpenMP engine (``engine="native"``).

The paper's headline artifact is *transpiled C*: CUDA kernels lowered through
high-level parallel constructs and emitted as OpenMP CPU code that runs at
native speed.  This module closes that gap for the reproduction: it walks a
lowered *span* — an ``omp.wsloop`` or a barrier-free ``scf.parallel`` — and
emits two C functions per region.  ``<symbol>_span(lo, hi, width)`` holds the
body, printed once, in a loop over the iterations ``[lo, hi)`` of the
row-major iteration space: it reads the extents once, delinearizes ``lo``
once and then steps the indices like an odometer (innermost first, carrying
outward), so no iteration divides.  The exported ``<symbol>`` (the region
ABI) calls it over ``[0, total)`` — the plain path, which carries no OpenMP
directive and makes no libgomp call — or, when the dispatcher's ``mode``
flag is set, from a ``#pragma omp parallel`` team in which each thread
takes one contiguous static chunk.  ``mode`` requires the write-write
store-safety analysis (:mod:`repro.analysis.store_safety`) to prove the
region shard-safe, and a span without a proof has no team path at all
(sequential C is still far faster than Python closures).  Nothing is
``simd`` and no directive steers the C compiler's unrolling.

**Lane blocks.**  A span in which a uniform-bound ``scf.for`` carries a
lane-varying value (a serial chain: ``acc += a * b`` over a uniform ``k``)
is emitted in lane blocks: ``<symbol>_span(lo, hi, width)`` advances
``width`` consecutive iterations ("lanes") per step, up to :data:`LANES`,
so that the lanes' chains are independent chains the CPU overlaps.  The
dispatcher passes ``width = LANES`` only when it holds the same licence the
team path needs (a proof, its required dims singletons, no live-in
overlap), and ``1`` otherwise, which runs exactly the sequential order.
Which values differ between lanes is the span's lane analysis
(:attr:`RegionPlan.lanes <repro.analysis.region.RegionPlan.lanes>`, the
facts the vectorizer emits from): a lane-uniform value is one C scalar, a
uniform-bound ``scf.for`` or a uniform ``scf.if`` is scalar control, and
lane-varying values live in ``[LANES]`` arrays written by ``for (l = 0; l <
m; ++l)`` lane loops — one per straight-line stretch of the block.  A value
read only inside the lane loop defining it stays a local.  A varying
``scf.if`` runs its branches as *masked* lane loops over a per-lane mask,
each branch only when one of its lanes is active; every op in it — loads
included, whose masked-off lanes may hold any index — runs on the active
lanes only, and its charges count them.  What the blocked form does not
express — a lane-varying ``scf.for`` bound, ``scf.while``, a call or copy
touching per-lane data — runs as a per-lane scalar island inside one lane
loop.  Every other span, and one the blocks cannot hold (a private buffer
too large for :data:`LANES` copies, the reason recorded on its plan as a
``lanes`` refusal), is a *one-lane* span: ``<symbol>_span(lo, hi)`` runs
one iteration at a time as plain scalar C, and the exported function
ignores ``width`` (``engine.regions`` reports each region's ``width``).

Spans are all there is to emit: ``__syncthreads`` is removed in the IR by
cpuify (parallel-loop fission, min-cut value caching, interchange — the
paper's §III-B), so this module holds no barrier lowering of its own, and
un-lowered regions (``gpu.launch``, ``scf.parallel`` with barriers) run on
the interpreter (``compiler._FunctionCompiler._interpreted``).

Scalar ops are emitted as the ``c`` form of their
:mod:`~repro.runtime.optable` row, and the prelude of every translation
unit is the helpers those forms call.

**Captured constants.**  A scalar live-in defined by an ``arith.constant``
outside the span — the ``0``, ``1`` and block size of a thread loop's
bounds, a ``0.5`` — is printed, in parentheses, as the literal an
in-region constant gets (:func:`c_int`, :func:`c_double`, bit-exact) and
takes no ``LI`` / ``LF`` slot, so the C compiler sees constant trip counts, folds the step guards
and drops trip-1 loops.  The slots (:attr:`RegionSpec.int_slots` /
``float_slots``) hold only the scalars known at run time.

**Bit-identical cost accounting.**  The generated C accumulates the same
counters the Python engines charge — ``work`` cycles, ``dynamic_ops``,
``global_bytes`` — with every static per-op charge folded into one constant
per block, charged once per block step times its active lanes.  Every
charge lies on the cycle grid (:data:`repro.runtime.costmodel.CYCLE_GRID`),
whatever the machine model, so the C counts ``work`` as an ``int64`` number
of grid units and converts it to a double once per call.  Integer sums do
not depend on their grouping, and a grid sum below 2^53 grid units (2^45
cycles) is also what the interpreter's sequential float accumulation
computes exactly — past that limit neither is exact and the two may differ.
All double literals are emitted as C99 hex floats so no decimal round-trip
can perturb them.

**Machine-independent C.**  The folded charges are the only place the
machine model enters a region, so they are not printed: they are collected
in :attr:`RegionSpec.costs` and the C reads ``K[j]`` (grid units), an
argument the dispatcher fills from the spec, into a prologue local ``k<j>``
— one cached ``.so`` serves every
:class:`~repro.runtime.costmodel.MachineModel`.

Anything the emitter cannot prove it can translate exactly — nested
parallel constructs, dynamic-extent private allocas, recursion — raises
:class:`UnsupportedRegion` and the region falls back to the compiled
engine (per region, never wholesale), keeping correctness independent of
emitter coverage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.structure import (BARRIER_OPS as _BARRIER_OPS, CONTEXT_OPS,
                                  split_executed)
from ..dialects import arith, func as func_d, gpu as gpu_d
from ..dialects import memref as memref_d, omp as omp_d, scf
from ..ir import MemRefType
from . import optable
from .costmodel import CYCLE_GRID, exact_cycles, memory_access_cost, op_cost
from .memory import dtype_for

#: ops that must never appear inside a natively compiled region body.
_NESTED_CONTEXT_OPS = CONTEXT_OPS

#: largest private (stack) buffer the emitter will place per step, all
#: lanes' copies together.
_MAX_PRIVATE_BYTES = 1 << 16

#: iterations a licensed span advances per step (module docstring).
LANES = 8

#: error code written into ``outi[1]`` by generated code.
ERR_BAD_STEP = 1

#: the bits of C's ``NAN`` (and CPython's ``float("nan")``), sign aside.
_QUIET_NAN = 0x7FF8000000000000


class UnsupportedRegion(Exception):
    """The region contains a construct the C emitter does not translate."""


class NarrowRegion(UnsupportedRegion):
    """The span cannot be emitted in lane blocks; it is emitted with one lane."""


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------
def c_double(value: float) -> str:
    """A C99 literal reproducing ``value`` bit for bit (hex float)."""
    value = float(value)
    if value != value:
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        if bits & ~(1 << 63) != _QUIET_NAN:
            raise UnsupportedRegion(f"NaN payload {bits:#x} has no C literal")
        return "-NAN" if bits >> 63 else "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "-INFINITY"
    return value.hex()


def c_int(value: int) -> str:
    """A C literal of the int64 ``value``; a value outside int64 (the Python
    engines hold it unbounded) has none."""
    value = int(value)
    if not -2 ** 63 <= value < 2 ** 63:
        raise UnsupportedRegion(f"integer constant {value} is outside int64")
    # INT64_C(-9223372036854775808) negates a literal too large for int64_t
    return "INT64_MIN" if value == -2 ** 63 else f"INT64_C({value})"


def grid_units(cycles: float) -> int:
    """``cycles`` as a whole number of :data:`CYCLE_GRID` units."""
    if not exact_cycles(cycles):
        raise UnsupportedRegion(f"charge {cycles!r} is off the cycle grid")
    return int(cycles * CYCLE_GRID)


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
    def __init__(self, indent: int = 1) -> None:
        self.lines: List[str] = []
        self.indent = indent

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
    lane: bool = False        # one copy per lane: ``name[l]`` is this lane's


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
    #: the most iterations ``<symbol>_span`` advances per step (1: a
    #: one-lane span, which ignores the dispatcher's ``width``).
    width: int = 1


# how an op of a lane-blocked block is emitted (``RegionCodegen._kinds``)
_PURE = "pure"        # no per-lane operand, no effect, or a private buffer: before the lane loop
_LANE = "lane"        # inside a lane loop (a structured op: a per-lane scalar island)
_SPLIT = "split"      # a varying scf.if: its masks in the lane loop, its branches after
_EFFECT = "effect"    # no per-lane operand, touches memory: once, between lane loops
_CONTROL = "control"  # uniform scalar control, between lane loops
_NOP = "nop"          # emits nothing


def _ancestor_in(op, block):
    """The op of ``block`` that is ``op`` or contains it (``None``: none)."""
    while op is not None and op.parent_block is not block:
        op = op.parent_op
    return op


def _carried_in_memory(facts, loop) -> bool:
    """Whether ``loop`` both loads and stores a private buffer allocated
    outside it: a value one iteration leaves for the next."""
    inside, loaded, stored = set(), set(), set()
    for nested in loop.walk():
        if isinstance(nested, memref_d.AllocOp):  # covers AllocaOp
            inside.add(id(nested.result))
        elif isinstance(nested, (memref_d.LoadOp, memref_d.StoreOp)):
            key = id(nested.memref)
            if key in facts.private:
                (loaded if isinstance(nested, memref_d.LoadOp) else stored).add(key)
    return bool((loaded & stored) - inside)


def _carries_a_chain(facts, ops: Sequence) -> bool:
    """Whether a uniform-bound ``scf.for`` among ``ops``, or in the branches
    and uniform-bound loops of them, carries a lane-varying value — as an
    iter-arg, or in a private buffer: the serial chain lane blocks
    overlap."""
    for op in ops:
        if isinstance(op, scf.ForOp):
            if any(map(facts.varies, (op.lower_bound, op.upper_bound, op.step))):
                continue  # a per-lane island in a blocked span
            blocks = [op.body]
            if any(map(facts.varies, op.iter_args)) or _carried_in_memory(facts, op):
                return True
        elif isinstance(op, scf.IfOp):
            blocks = [op.then_block, op.else_block]
        else:
            continue
        if any(_carries_a_chain(facts, split_executed(block)[0])
               for block in blocks if block is not None):
            return True
    return False


class RegionCodegen:
    """Emits one span as a self-contained C function.

    ``plan`` is the region's :class:`~repro.analysis.region.RegionPlan`
    (its ``live_ins`` order is the argument ABI); ``slot_of`` maps an SSA
    value to its register slot in the enclosing compiled function (used to
    describe that ABI to the dispatcher).  ``lanes`` is how many iterations
    a step may advance: by default :data:`LANES` when a uniform loop of the
    span carries a chain, else 1 (module docstring).
    """

    def __init__(self, program, plan, symbol: str, slot_of,
                 lanes: Optional[int] = None) -> None:
        self.program = program
        self.plan = plan
        self.op = plan.op
        self.symbol = symbol
        self.slot_of = slot_of
        self.machine = program.machine
        if lanes is None:
            chained = _carries_a_chain(plan.lanes, split_executed(plan.op.body)[0])
            lanes = LANES if chained else 1
        self.lanes = lanes
        self.out = _Writer()
        self._uid = 0
        self.cexpr: Dict[int, str] = {}          # id(value) -> C expression
        self.buffers: Dict[int, _Buffer] = {}    # id(value) -> buffer
        self.spec = RegionSpec(symbol=symbol, width=lanes)
        self._livein_index: Dict[int, str] = {}  # id(value) -> bound C name
        self._stored_buffers: set = set()        # live-in buffer names written
        self._inline_stack: List[int] = []
        # -- lane-block state ----------------------------------------------------
        self.facts = None          # the plan's LaneFacts, when blocked
        self.blocked = False       # emitting a block in lane-blocked form
        self.count = "m"           # lanes the code being emitted runs for
        self.mask: Optional[str] = None   # their mask array (None: all m)
        self.held: Set[int] = set()       # values with one copy per lane ...
        self.arrays: Set[int] = set()     # ... of which these are [lanes] arrays
        self.lane_values: Set[int] = set()  # results of lane ops
        self.spilled: Set[int] = set()      # ... read outside their lane loop
        self.run: Optional[int] = None      # the open lane loop
        self.run_of: Dict[int, int] = {}    # lane-loop locals -> their loop
        self.outer: Optional[_Writer] = None  # the block around the open loop
        self._runs = 0

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
            extents = [f"ls{shape_base + d}" for d in range(type_.rank)]
            self.buffers[id(value)] = _Buffer(
                name=name, ctype=ctype, rank=type_.rank, extents=extents,
                space=type_.memory_space, kind="livein",
                elem_bytes=dtype_for(type_.element_type).itemsize)
            self.spec.buffers.append(BufSpec(
                slot=self.slot_of(value), dtype=dtype_for(type_.element_type).name,
                rank=type_.rank, space=type_.memory_space, stored=False))
            self._livein_index[id(value)] = name
        elif isinstance(value.defining_op(), arith.ConstantOp):
            # a captured constant is a C literal, not a slot: cc propagates
            # it (constant trip counts, dead step guards, trip-1 loops).
            # Parenthesised: a leading minus must not merge with an
            # operator before it ("(-{a})" of -0.5 is no "(--0x1p-1)")
            self.cexpr[id(value)] = f"({self._scalar_expr(value.defining_op())})"
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
            w(f"const int64_t k{index} = K[{index}];")
        for index, buf_spec in enumerate(self.spec.buffers):
            ctype = _CTYPES[buf_spec.dtype]
            w(f"{ctype}* const lp{index} = ({ctype}*)LP[{index}];")
        for index in range(sum(buf_spec.rank for buf_spec in self.spec.buffers)):
            w(f"const int64_t ls{index} = LS[{index}];")

    # -- value helpers ---------------------------------------------------------
    def _ctype_of(self, value) -> str:
        if value.type.is_float:
            return "double"
        if value.type.is_integer or value.type.is_index:
            return "int64_t"
        raise UnsupportedRegion(f"SSA value of type {value.type}")

    def ref(self, value) -> str:
        key = id(value)
        expr = self.cexpr.get(key)
        if expr is None:
            raise UnsupportedRegion("use of an untranslated value")
        if key in self.held:
            if self.run is None:
                raise NarrowRegion("a per-lane value is read outside a lane loop")
            if key in self.arrays:
                return f"{expr}[l]"
            if self.run_of[key] != self.run:
                raise NarrowRegion("a lane-loop local is read in another lane loop")
        return expr

    def _define(self, value, expr: Optional[str] = None) -> str:
        """Bind ``value`` to a fresh C local defined as ``expr``; without one
        the local is only declared — a construct result (scf.for / scf.if /
        scf.while / call) assigned in nested scopes.  Returns the lvalue.  A
        lane op's result is one per lane: a local of its lane loop, or an
        array declared around the loop when it is read outside it."""
        target = self._name("v")
        key = id(value)
        self.cexpr[key] = target
        ctype = self._ctype_of(value)
        if key in self.lane_values:
            self.held.add(key)
            if key in self.spilled:
                self.arrays.add(key)
                self.outer.w(f"{ctype} {target}[{self.lanes}];")
                if expr is not None:
                    self.out.w(f"{target}[l] = {expr};")
                return f"{target}[l]"
            self.run_of[key] = self.run
        self.out.w(f"{ctype} {target};" if expr is None else f"{ctype} {target} = {expr};")
        return target

    def _declare(self, value, lane: bool) -> str:
        """Declare a construct result at block scope: one scalar, or one
        array slot per lane."""
        target = self._name("v")
        key = id(value)
        self.cexpr[key] = target
        if lane:
            self.held.add(key)
            self.arrays.add(key)
            self.out.w(f"{self._ctype_of(value)} {target}[{self.lanes}];")
        else:
            self.out.w(f"{self._ctype_of(value)} {target};")
        return target

    def _times(self, amount: str) -> str:
        """``amount`` charged once per active lane of the code being emitted."""
        return amount if self.count == "1" else f"{amount} * {self.count}"

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

    def _emit_block(self, block, tail: Optional[Callable[[], None]] = None) -> None:
        """Emit one block: its folded static charges, then its ops — in lane
        loops when blocked, where ``tail`` writes lane-loop lines after the
        last op (the block's yields)."""
        ops, term = self._split(block)
        nops = len(ops) + (1 if term is not None else 0)
        work = gb = 0.0
        for op in ops:
            op_work, op_gb = self._static_charge(op)
            work += op_work
            gb += op_gb
        if nops:
            self.out.w(f"OPS += {self._times(c_int(nops))};")
        if work:
            self.out.w(f"W += {self._times(self._cost(work))};")
        if gb:
            self.out.w(f"GB += {self._times(c_int(gb))};")
        if not self.blocked:
            for op in ops:
                self._emit_op(op)
            return
        for op, kind in zip(ops, self._kinds(block, ops, term if tail else None)):
            if kind is _PURE:
                self._hoisted(op)
            elif kind is _LANE:
                self._lane_open()
                self._island(op, "1")
            elif kind is _SPLIT:
                self._emit_masked_if(op)
            elif kind is _EFFECT:
                self._lane_close()
                self._island(op, self.count)
            elif kind is _CONTROL:
                self._lane_close()
                (self._emit_for_lanes if isinstance(op, scf.ForOp)
                 else self._emit_if_lanes)(op)
            else:
                self._emit_op(op)
        if tail is not None:
            self._lane_open()
            tail()
        self._lane_close()

    # -- lane blocks -----------------------------------------------------------
    def _kind(self, op, held: Callable) -> str:
        """How ``op`` of a blocked block is emitted; ``held(value)``: whether
        ``value`` has one copy per lane."""
        if isinstance(op, memref_d.DeallocOp):
            return _NOP
        if isinstance(op, memref_d.AllocOp):  # covers AllocaOp
            return _PURE
        if isinstance(op, scf.IfOp):
            return _SPLIT if held(op.condition) else _CONTROL
        if isinstance(op, scf.ForOp):
            bounds = (op.lower_bound, op.upper_bound, op.step)
            return _LANE if any(map(held, bounds)) else _CONTROL
        if isinstance(op, (scf.WhileOp, memref_d.CopyOp)):
            return _LANE
        if isinstance(op, memref_d.DimOp):
            return _PURE
        lane = any(held(value) or id(value) in self.facts.private
                   for value in op.operands)
        if isinstance(op, (func_d.CallOp, memref_d.LoadOp, memref_d.StoreOp)):
            return _LANE if lane else _EFFECT
        if optable.row_for(op) is None:
            raise UnsupportedRegion(f"op {op.name}")
        return _LANE if lane else _PURE

    def _kinds(self, block, ops: Sequence, term) -> List[str]:
        """Each op's :meth:`_kind`; and which lane-op results are read
        outside the lane loop that defines them (``spilled``: they become
        arrays).  Consecutive lane ops share a lane loop: pure ops are
        emitted before it and do not end it, a varying ``scf.if`` computes
        its masks in it and ends it, effects and control end it.  ``term``
        is the terminator when the block's yields run in its last lane
        loop."""
        local: Set[int] = set()

        def held(value) -> bool:
            return id(value) in self.held or id(value) in local

        kinds = []
        for op in ops:
            kind = self._kind(op, held)
            kinds.append(kind)
            if kind in (_LANE, _SPLIT):
                local.update(id(result) for result in op.results)
            elif kind is _CONTROL:
                local.update(id(result) for result in op.results
                             if self.facts.varies(result))
        loop, loop_of = 0, {}
        for op, kind in zip(ops, kinds):
            if kind in (_LANE, _SPLIT):  # a split's own use is its condition
                loop_of[id(op)] = loop
            if kind in (_SPLIT, _EFFECT, _CONTROL):
                loop += 1
        if term is not None:
            loop_of[id(term)] = loop

        def read_in(use) -> Optional[int]:
            """The lane loop ``use`` reads its value in (None: none)."""
            if loop_of.get(id(use.owner)) is not None and use.owner.parent_block is block:
                return loop_of[id(use.owner)]
            owner = _ancestor_in(use.owner, block)
            return None if kinds_of.get(id(owner)) is _SPLIT else loop_of.get(id(owner))

        kinds_of = {id(op): kind for op, kind in zip(ops, kinds)}
        for op, kind in zip(ops, kinds):
            if kind is not _LANE:
                continue
            for result in op.results:
                self.lane_values.add(id(result))
                if any(read_in(use) != loop_of[id(op)] for use in result.uses):
                    self.spilled.add(id(result))
        return kinds

    def _lane_open(self) -> None:
        """Start a lane loop, unless one is open; its text is written ahead
        of it on close, so declarations and pure ops land before it."""
        if self.run is not None:
            return
        self._runs += 1
        self.run = self._runs
        self.outer, self.out = self.out, _Writer(self.out.indent + 1)

    def _lane_close(self) -> None:
        if self.run is None:
            return
        lines, self.out, self.run = self.out.lines, self.outer, None
        guard = f" if ({self.mask}[l])" if self.mask else ""
        self.out.w(f"for (int64_t l = 0; l < m; ++l){guard} {{")
        self.out.lines += lines
        self.out.w("}")

    def _hoisted(self, op) -> None:
        """A pure lane-uniform op: one scalar, before the open lane loop."""
        if self.run is None:
            return self._emit_op(op)
        inner, run = self.out, self.run
        self.out, self.run = self.outer, None
        try:
            self._emit_op(op)
        finally:
            self.out, self.run = inner, run

    def _island(self, op, count: str) -> None:
        """``op`` as scalar code: per lane inside a lane loop (``count`` 1),
        or once for all ``count`` active lanes."""
        saved = self.blocked, self.count
        self.blocked, self.count = False, count
        try:
            self._emit_op(op)
        finally:
            self.blocked, self.count = saved

    def _assign_lanes(self, pairs) -> Callable[[], None]:
        """Lane-loop lines assigning each ``(target, value)`` pair."""
        def lines() -> None:
            for target, value in pairs:
                self.out.w(f"{self.ref(target)} = {self.ref(value)};")
        return lines

    def _emit_for_lanes(self, op) -> None:
        """A uniform-bound ``scf.for``: scalar control around a blocked body;
        a carried value that varies is one array slot per lane, updated in
        the body's last lane loop."""
        for argument, result in zip(op.iter_args, op.results):
            self.cexpr[id(result)] = self._declare(argument, self.facts.varies(argument))
            if id(argument) in self.arrays:
                self.held.add(id(result))
                self.arrays.add(id(result))
        self.out.open("{")
        ub, st = self._loop_bounds(op)
        inits = list(zip(op.iter_args, op.iter_init))
        for argument, init in inits:
            if id(argument) not in self.arrays:
                self.out.w(f"{self.cexpr[id(argument)]} = {self.ref(init)};")
        lane = [pair for pair in inits if id(pair[0]) in self.arrays]
        if lane:
            self._lane_open()
            self._assign_lanes(lane)()
            self._lane_close()
        self._loop_open(op, ub, st)
        _, term = self._split(op.body)
        yielded = list(term.operands) if isinstance(term, scf.YieldOp) else []
        pairs = list(zip(op.iter_args, yielded))
        lane = [pair for pair in pairs if id(pair[0]) in self.arrays]

        def update() -> None:  # two-phase: permuted yields read pre-update values
            temps = []
            for _, value in lane:
                temps.append(self._name("y"))
                self.out.w(f"{self._ctype_of(value)} {temps[-1]} = {self.ref(value)};")
            for (argument, _), temp in zip(lane, temps):
                self.out.w(f"{self.ref(argument)} = {temp};")
        self._emit_block(op.body, update if lane else None)
        scalar = [pair for pair in pairs if id(pair[0]) not in self.arrays]
        if scalar:
            self._update_carried([self.cexpr[id(argument)] for argument, _ in scalar],
                                 [value for _, value in scalar])
        self._loop_close()
        self.out.close()

    def _emit_if_lanes(self, op) -> None:
        """A uniform ``scf.if``: a C ``if`` around blocked branches."""
        if op.results and op.else_block is None:
            raise UnsupportedRegion("scf.if with results but no else branch")
        for result in op.results:
            self._declare(result, self.facts.varies(result))
        self.out.open(f"if ({self.ref(op.condition)}) {{")
        for block in (op.then_block, op.else_block):
            if block is None:
                continue
            if block is op.else_block:
                self.out.close("} else {")
                self.out.indent += 1
            self._emit_branch(op, block)
        self.out.close()

    def _emit_masked_if(self, op) -> None:
        """A varying ``scf.if``: the open lane loop splits its lanes into one
        mask per branch, and each branch a lane takes runs after it as lane
        loops masked to the lanes that take it."""
        if op.results and op.else_block is None:
            raise UnsupportedRegion("scf.if with results but no else branch")
        branches = [block for block in (op.then_block, op.else_block) if block is not None]
        masks = [self._name("mk") for _ in branches]
        counts = [self._name("na") for _ in branches]
        self._lane_open()
        scope = self.outer
        for result in op.results:
            self.cexpr[id(result)] = name = self._name("v")
            self.held.add(id(result))
            self.arrays.add(id(result))
            scope.w(f"{self._ctype_of(result)} {name}[{self.lanes}];")
        zero = " = {0}" if self.mask else ""  # the lanes masked off here take neither branch
        scope.w("unsigned char "
                + ", ".join(f"{mask}[{self.lanes}]{zero}" for mask in masks) + ";")
        scope.w(f"int64_t {counts[0]} = 0;")
        self.out.w(f"const int hit = ({self.ref(op.condition)} != 0);")
        self.out.w(f"{masks[0]}[l] = hit; {counts[0]} += hit;")
        if len(masks) == 2:
            self.out.w(f"{masks[1]}[l] = !hit;")
        self._lane_close()
        if len(counts) == 2:
            self.out.w(f"const int64_t {counts[1]} = {self.count} - {counts[0]};")
        for block, mask, count in zip(branches, masks, counts):
            self.out.open(f"if ({count}) {{")
            saved = self.mask, self.count
            self.mask, self.count = mask, count
            self._emit_branch(op, block)
            self.mask, self.count = saved
            self.out.close()

    def _emit_branch(self, op, block) -> None:
        _, term = self._split(block)
        yielded = (list(term.operands) if op.results and isinstance(term, scf.YieldOp)
                   else [])
        pairs = list(zip(op.results, yielded))
        lane = [pair for pair in pairs if id(pair[0]) in self.arrays]
        self._emit_block(block, self._assign_lanes(lane) if lane else None)
        for result, value in pairs:
            if id(result) not in self.arrays:
                self.out.w(f"{self.cexpr[id(result)]} = {self.ref(value)};")

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

    def _base(self, buffer: _Buffer) -> str:
        """The C array holding this lane's elements of ``buffer``."""
        if not buffer.lane:
            return buffer.name
        if self.run is None:
            raise NarrowRegion("a per-lane buffer is accessed outside a lane loop")
        return f"{buffer.name}[l]"

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
        element = f"{self._base(buffer)}[{self._flat_index(buffer, op.indices)}]"
        cast = "double" if op.result.type.is_float else "int64_t"
        self._define(op.result, f"({cast}){element}")

    def _emit_store(self, op) -> None:
        buffer = self._buffer(op.memref)
        if buffer.kind == "livein":
            self._stored_buffers.add(buffer.name)
        element = f"{self._base(buffer)}[{self._flat_index(buffer, op.indices)}]"
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
        """A private buffer; in a blocked block one copy per lane, all
        zeroed per step."""
        mtype = op.memref_type
        shape, elems = self._private_shape(op)
        ctype = _element_ctype(mtype.element_type)
        elem_bytes = dtype_for(mtype.element_type).itemsize
        copies = self.lanes if self.blocked else 1
        if copies * elems * elem_bytes > _MAX_PRIVATE_BYTES:
            if copies > 1:
                raise NarrowRegion(f"a private buffer of {elems * elem_bytes} bytes "
                                   f"is too large for {copies} lanes")
            raise UnsupportedRegion("private alloc too large for the stack")
        name = self._name("b")
        lanes = f"[{copies}]" if self.blocked else ""
        self.out.w(f"{ctype} {name}{lanes}[{elems}] = {{0}};")
        self.buffers[id(op.result)] = _Buffer(
            name=name, ctype=ctype, rank=len(shape),
            extents=[str(extent) for extent in shape],
            space=mtype.memory_space, kind="private", elem_bytes=elem_bytes,
            lane=self.blocked)

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
        self.out.w(f"{self._base(destination)}[{index}] = "
                   f"({destination.ctype}){self._base(source)}[{index}];")
        self.out.close()
        self.out.w(f"W += {self._times(f'2 * {count} * {self._cost(cost)}')};")
        self.out.w(f"GB += {self._times(f'2 * {count} * {source.elem_bytes}')};")

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

    # -- structured control flow, as scalar code --------------------------------
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

    def _loop_bounds(self, op) -> Tuple[str, str]:
        """An ``scf.for``'s upper bound and step as locals, and its bad-step
        check; ``(ub, st)``."""
        ub = self._name("ub")
        st = self._name("st")
        self.out.w(f"const int64_t {ub} = {self.ref(op.upper_bound)};")
        self.out.w(f"const int64_t {st} = {self.ref(op.step)};")
        self.out.w(f"if ({st} <= 0) ERR = {ERR_BAD_STEP};")
        return ub, st

    def _loop_open(self, op, ub: str, st: str) -> None:
        iv = self._name("iv")
        self.out.open(f"if ({st} > 0) for (int64_t {iv} = {self.ref(op.lower_bound)}; "
                      f"{iv} < {ub}; {iv} += {st}) {{")
        self.cexpr[id(op.induction_var)] = iv

    def _loop_close(self) -> None:
        self.out.w(f"W += {self._times(c_int(grid_units(op_cost('scf.for'))))};")
        self.out.close()

    def _emit_for(self, op) -> None:
        results = [self._define(result) for result in op.results]
        self.out.open("{")
        ub, st = self._loop_bounds(op)
        carried = []
        for init in op.iter_init:
            name = self._name("c")
            carried.append(name)
            self.out.w(f"{self._ctype_of(init)} {name} = {self.ref(init)};")
        self._loop_open(op, ub, st)
        for name, argument in zip(carried, op.iter_args):
            self.cexpr[id(argument)] = name
        self._emit_block(op.body)
        _, term = self._split(op.body)
        if isinstance(term, scf.YieldOp) and carried:
            self._update_carried(carried, term.operands)
        self._loop_close()
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
        cost = grid_units(op_cost("scf.while"))
        self.out.open("{")
        carried = []
        for init in op.init_args:
            name = self._name("c")
            carried.append(name)
            self.out.w(f"{self._ctype_of(init)} {name} = {self.ref(init)};")
        for name, argument in zip(carried, op.before_block.arguments):
            self.cexpr[id(argument)] = name
        self.out.open("for (;;) {")
        self.out.w(f"W += {self._times(c_int(cost))};")
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

    # -- the region function ----------------------------------------------------
    def emit_span(self) -> Tuple[str, RegionSpec]:
        """Two C functions: ``<symbol>_span`` runs the iterations ``[lo, hi)``
        of the row-major iteration space, ``width`` lanes per step in lane
        blocks, and holds the body, once; the exported ``<symbol>`` (the
        region ABI) calls it over ``[0, total)``, or, when ``mode`` is set,
        once per OpenMP thread over one contiguous chunk.  A span the lane
        blocks cannot express is a one-lane span, the reason a ``lanes``
        refusal on its plan."""
        try:
            return self._emit_span()
        except NarrowRegion as exc:
            if self.lanes == 1:
                raise
            self.plan.refuse("lanes", str(exc))
            return RegionCodegen(self.program, self.plan, self.symbol, self.slot_of,
                                 lanes=1).emit_span()

    def _emit_span(self) -> Tuple[str, RegionSpec]:
        op = self.op
        ops, _ = self._split(op.body)
        self._precheck(ops)
        num_dims = len(op.induction_vars)
        self.spec.num_dims = num_dims
        for value in self.plan.live_ins:
            self._bind_livein(value)
        # grid names ("q" index, "len" extent, "lb" / "step" bounds, "sv"
        # value, "l" / "m" lane and lane count) are disjoint from the _name()
        # prefixes, so nothing the body declares can shadow them (a
        # memref.copy's count is "n<uid>").
        dims = range(num_dims)
        blocked = self.lanes > 1
        for dim, induction_var in enumerate(op.induction_vars):
            self.cexpr[id(induction_var)] = f"sv{dim}"
            if blocked:
                self.held.add(id(induction_var))
                self.arrays.add(id(induction_var))
        # the odometer: step the innermost index, carry outward
        step = "++q0;" if num_dims else ""
        for dim in range(1, num_dims):
            step = f"if (++q{dim} == len{dim}) {{ q{dim} = 0; {step} }}"

        body = _Writer(2)
        header = self.out
        self.out = body
        if blocked:
            body.w("const int64_t m = hi - lin < width ? hi - lin : width;")
            if num_dims:
                body.w("int64_t " + ", ".join(f"sv{dim}[{self.lanes}]" for dim in dims)
                       + ";")
                body.open("for (int64_t l = 0; l < m; ++l) {")
                for dim in dims:
                    body.w(f"sv{dim}[l] = lb{dim} + q{dim} * step{dim};")
                body.w(step)
                body.close()
            self.facts = self.plan.lanes
            self.blocked = True
            self._emit_block(op.body)
        else:
            for dim in dims:
                body.w(f"const int64_t sv{dim} = lb{dim} + q{dim} * step{dim};")
            self.count = "1"
            self._emit_block(op.body)
            body.w(step)
        self.out = header

        abi = ("const int64_t* LI, const double* LF,\n"
               "        const int64_t* K, void* const* LP, const int64_t* LS,\n"
               "        const int64_t* RLB, const int64_t* RST,\n"
               "        const int64_t* RLEN, ")
        width = "width, " if blocked else ""
        lines = self.out.lines
        lines += [f"static __attribute__((noinline)) void {self.symbol}_span({abi}"
                  f"int64_t lo, int64_t hi,{' int64_t width,' if blocked else ''}",
                  "        double* outf, int64_t* outi)",
                  "{"]
        self.out.w("int64_t W = 0, GB = 0, OPS = 0, ERR = 0;")
        self._emit_livein_prologue()
        for dim in dims:
            self.out.w(f"const int64_t len{dim} = RLEN[{dim}], lb{dim} = RLB[{dim}],"
                       f" step{dim} = RST[{dim}];")
        # a zero extent makes the space empty: return before dividing by it
        self.out.w("if (hi <= lo) { outf[0] = outf[1] = 0.0; "
                   "outi[0] = outi[1] = 0; return; }")
        self.out.w("int64_t rem = lo;")
        for dim in reversed(dims):
            self.out.w(f"int64_t q{dim} = rem % len{dim}; rem /= len{dim};")
        self.out.w(f"for (int64_t lin = lo; lin < hi; {'lin += width' if blocked else '++lin'}) {{")
        lines += body.lines
        # W counts grid units: exact while below 2^53 of them (module docstring)
        lines += ["    }",
                  f"    outf[0] = (double)W * {c_double(1.0 / CYCLE_GRID)};"
                  " outf[1] = (double)GB;",
                  "    outi[0] = OPS; outi[1] = ERR;",
                  "}",
                  "",
                  f"void {self.symbol}({abi}int64_t total, int64_t mode, int64_t width,",
                  "        double* outf, int64_t* outi)",
                  "{"]
        if blocked:
            lines.append(f"    if (width < 1 || width > {self.lanes}) width = 1;")
        call = f"{self.symbol}_span(LI, LF, K, LP, LS, RLB, RST, RLEN, "
        if self.plan.parallel_proof is not None:
            # `mode`: the dispatcher's store-safety/alias proof held and there
            # are >= 64 units.  Any other dispatch takes the plain path, which
            # carries no OpenMP directive and makes no libgomp call.  The
            # max-reduction keeps ERR a code; the counter reductions
            # reassociate partial sums — exact on the cycle grid (module
            # docstring).
            lines += [
                "    if (mode) {",
                "        double W = 0.0, GB = 0.0;",
                "        int64_t OPS = 0, ERR = 0;",
                "#pragma omp parallel reduction(+:W,GB,OPS) reduction(max:ERR)",
                "        {",
                "            const int64_t team = omp_get_num_threads(), "
                "rank = omp_get_thread_num();",
                "            const int64_t share = total / team, extra = total % team;",
                "            const int64_t lo = rank * share + (rank < extra ? rank : extra);",
                "            double f[2];",
                "            int64_t e[2];",
                f"            {call}lo, lo + share + (rank < extra), {width}f, e);",
                "            W += f[0]; GB += f[1]; OPS += e[0]; ERR = e[1];",
                "        }",
                "        outf[0] = W; outf[1] = GB;",
                "        outi[0] = OPS; outi[1] = ERR;",
                "        return;",
                "    }"]
        lines += [f"    {call}0, total, {width}outf, outi);", "}"]
        for index, buf_spec in enumerate(self.spec.buffers):
            buf_spec.stored = f"lp{index}" in self._stored_buffers
        return "\n".join(lines), self.spec


# ---------------------------------------------------------------------------
# The host function of a straight-line entry
# ---------------------------------------------------------------------------
#: host integer ops whose result may leave int64: each refuses the call
#: through its ``__builtin_*_overflow`` (Python's ints are unbounded).
_HOST_OVERFLOW = {arith.AddIOp: "add", arith.SubIOp: "sub", arith.MulIOp: "mul"}

#: the other host ops, whose row's ``c`` form computes on every int64 /
#: double operand what its ``py`` computes on the same Python values;
#: ``divsi`` divides exact doubles only, so an operand past 2^53 refuses.
#: Not here, so no straight-line entry: the shifts and ``fptosi`` (``py``
#: raises where C does not), ``remf`` and the ``math`` rows (``py`` raises,
#: or returns an int).
_HOST_EXACT = (arith.DivSIOp, arith.RemSIOp, arith.MinSIOp, arith.MaxSIOp,
               arith.AndIOp, arith.OrIOp, arith.XOrIOp, arith.CmpIOp, arith.CmpFOp,
               arith.IndexCastOp, arith.IntCastOp, arith.SIToFPOp, arith.FPCastOp,
               arith.AddFOp, arith.SubFOp, arith.MulFOp, arith.DivFOp, arith.MinFOp,
               arith.MaxFOp, arith.NegFOp, arith.SelectOp)

#: the largest int64 a double holds exactly, with every smaller one.
_EXACT_DOUBLE = 2 ** 53


@dataclass
class HostSpec:
    """The scalars of a straight-line entry: the host function computes
    ``VI[j]`` / ``VF[j]`` for the values ``ints[j]`` / ``floats[j]``, the
    parameters among them filled in by the dispatcher first."""

    symbol: str
    ints: List = field(default_factory=list)
    floats: List = field(default_factory=list)
    #: id(value) -> ("VI" or "VF", its index there).
    where: Dict[int, Tuple[str, int]] = field(default_factory=dict)

    def place(self, value) -> str:
        """Give ``value`` the next slot of its kind; its C lvalue."""
        type_ = value.type
        if type_.is_float:
            array, values = "VF", self.floats
        elif type_.is_integer or type_.is_index:
            array, values = "VI", self.ints
        else:
            raise UnsupportedRegion(f"host value of type {type_}")
        self.where[id(value)] = array, len(values)
        values.append(value)
        return f"{array}[{len(values) - 1}]"

    def ref(self, value) -> str:
        """The C lvalue of a placed ``value``."""
        try:
            return "%s[%d]" % self.where[id(value)]
        except KeyError:
            raise UnsupportedRegion("an operand is not a host scalar") from None


def emit_host(symbol: str, scalars: Sequence, ops: Sequence) -> Tuple[str, HostSpec]:
    """The host function ``int <symbol>(int64_t* VI, double* VF)`` of a
    straight-line entry: the scalar parameters ``scalars`` are in ``VI`` /
    ``VF`` on entry, and it computes the pure scalar ``ops`` outside the
    spans, in order, into the slots after them.  It returns 1 — the call
    refused, before any store — where an op's C would not compute what the
    Python engines compute: an integer ``+ - *`` leaving int64, a ``divsi``
    operand past 2^53.  Raises :class:`UnsupportedRegion` for an op without
    such a form."""
    spec = HostSpec(symbol)
    for value in scalars:
        spec.place(value)
    lines = [f"int {symbol}(int64_t* VI, double* VF)", "{"]
    for op in ops:
        if isinstance(op, arith.ConstantOp):
            literal = c_double(op.value) if op.result.type.is_float else c_int(op.value)
            lines.append(f"    {spec.place(op.result)} = {literal};")
            continue
        operands = [spec.ref(operand) for operand in op.operands]
        target = spec.place(op.result)
        builtin = _HOST_OVERFLOW.get(type(op))
        if builtin is not None:
            lines.append(f"    if (__builtin_{builtin}_overflow({operands[0]}, {operands[1]}, "
                         f"&{target})) return 1;")
            continue
        if not isinstance(op, _HOST_EXACT):
            raise UnsupportedRegion(f"host op {op.name} has no exact C form")
        if isinstance(op, arith.DivSIOp):
            bound = c_int(_EXACT_DOUBLE)
            lines.append("    if (" + " || ".join(f"{operand} < -{bound} || {operand} > {bound}"
                                                  for operand in operands) + ") return 1;")
        lines.append(f"    {target} = {optable.render(optable.row_for(op).c, operands)};")
    lines += ["    return 0;", "}"]
    return "\n".join(lines), spec


# ---------------------------------------------------------------------------
# Translation-unit assembly
# ---------------------------------------------------------------------------
PRELUDE_HEAD = r"""
#include <stdint.h>
#include <math.h>
#include <omp.h>

/* Scalar semantics mirror the Python engines exactly: doubles for float
 * arithmetic (f32 rounds only on store), int64 lanes for integers, and the
 * interpreter's guarded versions of division, shifts and libm calls. */

"""


def assemble_unit(functions: Sequence[str]) -> str:
    """One self-contained C translation unit from emitted region functions,
    under the :mod:`optable` helpers they call."""
    body = "\n\n".join(functions)
    return PRELUDE_HEAD + optable.c_prelude_helpers(body) + "\n\n" + body + "\n"

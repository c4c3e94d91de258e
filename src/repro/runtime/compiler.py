"""Compiled execution engine: one-time translation of IR to generated Python.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` re-dispatches
on the operation type for every dynamic operation and copies the whole
environment dictionary per loop iteration and per SIMT thread.  This module
removes that hot-path overhead by *compiling* each function once:

* **SSA value numbering** — every SSA value of a function gets a flat integer
  slot in a per-invocation register list.  Loop iterations reuse slots in
  place (SSA dominance guarantees dead values are never read), so the
  per-iteration ``dict(env)`` copy disappears entirely; SIMT threads take a
  flat ``regs[:]`` list copy instead of a dict copy.
* **whole-function generation** — every op compiles to source lines with
  operand slots, cost constants and type coercions resolved at compile time,
  and a structured op (``scf.for`` / ``scf.if`` / ``scf.while``) is one
  emitter that writes its header and splices its child blocks' lines one
  indent deeper (the ``generate_ast``-style "lower once, execute many"
  idiom), so a function body, a region phase or an ``omp`` body is *one*
  generated Python function finalised by one ``exec``: a loop iteration or
  a branch costs no Python call.  Pure scalar ops are rendered from their
  :mod:`~repro.runtime.optable` row; the ops that run once per region
  (allocation, the ``gpu.*`` host ops, ``omp.*``, the region shells) stay
  bound closures the text calls.  A barrier is the line ``yield _B`` where it
  stands, so a function is a generator exactly when its text contains one.
  Past ``_MAX_INLINE_DEPTH`` nested structured ops a child block becomes its
  own function, because CPython bounds static nesting.
* **lazy iteration spaces** — ``scf.parallel`` / ``omp.wsloop`` iteration
  spaces are ``itertools.product`` streams, never materialized lists.
* **compiled barrier phases** — bodies whose barriers sit in straight-line
  position compile to an explicit list of *phase functions* executed
  phase-by-phase over all threads with no generators at all; bodies with
  barriers under control flow fall back to one compiled *generator* function
  per thread, scheduled by the same barrier-phase loop the interpreter uses.

Cost accounting is replicated charge-for-charge in the interpreter's
execution order, so a compiled run produces a bit-identical
:class:`~repro.runtime.costmodel.CostReport` (the differential tests in
``tests/runtime/test_engine_parity.py`` pin this).  Two deliberate
differences, both only observable on malformed IR or exhausted budgets: the
``max_dynamic_ops`` budget is checked per *block* instead of per op (the
dynamic-op counter itself stays exact), and use-before-def reads surface as
``None`` values instead of a "use of undefined value" error.

This module also hosts what the four compiled engines share: the one
function compiler, whose *region shell* compiles every parallel region from
its :class:`~repro.analysis.region.RegionPlan`, and the table of engine
rows (``_ROWS``) naming the body planner and the dispatcher the shell
composes — :func:`closures` here, ``lanes`` in the vectorizer, ``native``
and ``shards`` in the native and multicore engines.  Planners and
dispatchers see *spans* only (``omp.wsloop``, barrier-free
``scf.parallel``): barriers are lowered in the IR by cpuify, so an
un-lowered region (``gpu.launch``, ``scf.parallel`` with barriers) runs on
:func:`closures` under every row, with the refusal named on its plan.

Compiled programs are cached on the module object itself, keyed by the
engine row and the machine model (cost constants are baked into the
generated text), next to the module's region plans.  The cache
assumes the module is not mutated after its first compiled run — call
:func:`invalidate_compiled` after transforming an already-executed module.
"""

from __future__ import annotations

from functools import partial
from importlib import import_module
from inspect import isgeneratorfunction
from itertools import islice, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.region import LAUNCH, SIMT, RegionPlan, RegionPlans
from ..analysis.structure import (BARRIER_OPS as _BARRIER_OPS,
                                  split_executed as _split_executed)
from ..dialects import arith, func as func_d, gpu as gpu_d, memref as memref_d
from ..dialects import omp as omp_d, scf
from .costmodel import (CostReport, MachineModel, XEON_8375C,
                        memory_access_cost, op_cost)
from .errors import InterpreterError
from .memory import MemRefStorage, wrap_argument
from .optable import (ALLOC_CYCLES, access_charge_lines, cycles, python_expr,
                      row_for)

_BARRIER = object()  # yielded by generated generator functions at barriers

#: how many structured ops nest their child blocks inline in one generated
#: function; a child block deeper than this is finalised as its own function
#: and called.  CPython (3.11) refuses more than 20 statically nested loops
#: and 100 indentation levels, and every structured op costs one of each.
_MAX_INLINE_DEPTH = 16

#: attribute used to cache compiled programs on the module operation.
_CACHE_ATTR = "_compiled_programs"


class _BarrierEscape(Exception):
    """A barrier executed in a context that cannot suspend (compiled code)."""


class _State:
    """Mutable per-run execution state shared by all compiled code.

    ``shard`` is the multicore engine's dispatch context (worker pool +
    worker count); it is ``None`` for the compiled/vectorized engines and
    inside worker processes, which makes every shard-capable region runner
    fall through to plain in-process execution.
    """

    __slots__ = ("report", "threads", "work", "max_ops", "program", "shard")

    def __init__(self, report: CostReport, threads: int, work: List[float],
                 max_ops: Optional[int], program: "_Program",
                 shard=None) -> None:
        self.report = report
        self.threads = threads
        self.work = work
        self.max_ops = max_ops
        self.program = program
        self.shard = shard


class _CompiledFunction:
    """One compiled function: register template + body runner, a generator
    function (``is_gen``) exactly when the IR function may reach a barrier."""

    __slots__ = ("template", "arg_slots", "return_slots", "runner", "is_gen")

    def __init__(self, template: List, arg_slots: List[int],
                 return_slots: List[int], runner: Callable, is_gen: bool) -> None:
        self.template = template
        self.arg_slots = arg_slots
        self.return_slots = return_slots
        self.runner = runner
        self.is_gen = is_gen


#: the four engines as fixed rows: which *body planner* turns a span's body
#: into a runner, which *dispatcher* (if any) may take a whole span
#: elsewhere, with the shell's in-process run as its fallback, and the
#: ``(stats, counter)`` in which the row counts a region its fast tier
#: declined.  Both callables are handed spans only (``_unlowered``).  Named
#: ``module:function`` and resolved on first use, because those modules
#: import this one.
_ROWS = {
    "compiled": ("compiler:closures", None, None),
    "vectorized": ("vectorizer:lanes", None,
                   ("vector_stats", "fallback_regions")),
    "native": ("compiler:closures", "native:native",
               ("native_stats", "fallback_regions")),
    "multicore": ("compiler:closures", "multicore:shards",
                  ("shard_stats", "rejected_regions")),
}

#: why every fast tier declines an un-lowered region, by plan kind.
UNLOWERED = {
    LAUNCH: ("un-lowered gpu.launch region: barriers are lowered by cpuify "
             "(compile with cuda_lower=True)"),
    SIMT: ("un-lowered scf.parallel region with barriers: barriers are "
           "lowered by cpuify (compile with cuda_lower=True)"),
}


def _resolve(name: Optional[str]) -> Optional[Callable]:
    if name is None:
        return None
    module, _, attribute = name.partition(":")
    return getattr(import_module(f".{module}", __package__), attribute)


class _Program:
    """All compiled functions of one module for one machine model and row."""

    def __init__(self, module: func_d.ModuleOp, machine: MachineModel,
                 row: str, plans: RegionPlans) -> None:
        self.module = module
        self.machine = machine
        self.row = row
        self.plans = plans
        planner, dispatcher, self.declined = _ROWS[row]
        self.planner = _resolve(planner)
        self.dispatcher = _resolve(dispatcher)
        self._functions: Dict[int, _CompiledFunction] = {}
        self._speedups: Dict[int, float] = {}
        #: one ``(function, plan, tier)`` per compiled region, in compile order.
        self.regions: List[Tuple[str, RegionPlan, str]] = []
        #: ``id(plan)`` -> the dispatches the region's native code refused at
        #: run time, by reason (the native dispatcher's live tally).
        self.bailouts: Dict[int, Dict[str, int]] = {}
        #: compile-time counters, filled as functions are first compiled
        #: (``bailouts`` / ``native_dispatches`` / ``dispatches`` /
        #: ``inline_runs`` and the unit counters move at run time).
        self.vector_stats = {"vectorized_regions": 0, "fallback_regions": 0}
        self.native_stats = {
            "native_regions": 0, "fallback_regions": 0, "native_dispatches": 0,
            "simd_regions": 0, "bailouts": 0, "units_ready": 0,
            "artifact_hits": 0, "compile_errors": 0, "corrupt_artifacts": 0,
        }
        self.shard_stats = {
            "sharded_regions": 0,   # compile-time: regions proven shardable
            "rejected_regions": 0,  # compile-time: analysis said no
            "dispatches": 0,        # runtime: pool dispatches performed
            "inline_runs": 0,       # runtime: shardable regions run in-process
        }
        #: the multicore dispatcher's region registry and worker pools
        #: (:class:`repro.runtime.multicore._Shards`), made at its first region.
        self.shards = None
        #: the native dispatcher's translation units, one per compiled
        #: function that offered it a region (a strict run seals them all).
        self.native_units: List = []

    def function(self, fn: func_d.FuncOp) -> _CompiledFunction:
        compiled = self._functions.get(id(fn))
        if compiled is None:
            fc = _FunctionCompiler(self, fn)
            compiled = fc.compile()
            # programs are shared by threads: a unit becomes reachable (here,
            # and through the runner) only once every region is in it.
            if fc.dispatch_state is not None:
                self.native_units.append(fc.dispatch_state)
            self._functions[id(fn)] = compiled
        return compiled

    def speedup(self, threads: int) -> float:
        cached = self._speedups.get(threads)
        if cached is None:
            cached = self._speedups[threads] = self.machine.effective_speedup(threads)
        return cached


def program_for(module: func_d.ModuleOp, machine: MachineModel,
                row: str = "compiled") -> _Program:
    """The (cached) compiled program of ``module`` for ``machine``.

    ``row`` names the engine (a key of :data:`_ROWS`); each row caches its
    own program per machine model, and all of them share the module's
    :class:`~repro.analysis.region.RegionPlans`, which lives in the same
    cache so :func:`invalidate_compiled` drops both.
    """
    cache = getattr(module, _CACHE_ATTR, None)
    if cache is None:
        cache = {"plans": RegionPlans(module)}
        setattr(module, _CACHE_ATTR, cache)
    prog = cache.get((row, machine))
    if prog is None:
        prog = cache[(row, machine)] = _Program(module, machine, row, cache["plans"])
    return prog


def invalidate_compiled(module: func_d.ModuleOp) -> None:
    """Drop the compiled-program cache (call after mutating a run module)."""
    if hasattr(module, _CACHE_ATTR):
        delattr(module, _CACHE_ATTR)


def build_launch_thread_regs(regs, arg_slots, bx, by, bz, grid, block):
    """Per-thread register lists for one ``gpu.launch`` block.

    Thread order is tz outermost / tx innermost, matching the interpreter's
    env construction.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = arg_slots
    g0, g1, g2 = grid
    b0, b1, b2 = block
    block_regs = regs[:]
    thread_regs = []
    append = thread_regs.append
    for tz in range(b2):
        for ty in range(b1):
            for tx in range(b0):
                per_thread = block_regs[:]
                per_thread[a0] = bx
                per_thread[a1] = by
                per_thread[a2] = bz
                per_thread[a3] = tx
                per_thread[a4] = ty
                per_thread[a5] = tz
                per_thread[a6] = g0
                per_thread[a7] = g1
                per_thread[a8] = g2
                per_thread[a9] = b0
                per_thread[a10] = b1
                per_thread[a11] = b2
                append(per_thread)
    return thread_regs


def bind_shared_allocas(shared_allocas, thread_regs):
    """Allocate each prebound shared buffer once and bind it in every thread."""
    allocate = MemRefStorage.allocate
    for dst, mtype in shared_allocas:
        storage = allocate(mtype, [])
        for per_thread in thread_regs:
            per_thread[dst] = storage


def build_parallel_thread_regs(regs, iv_slots, iterations):
    """Per-thread register lists for a SIMT ``scf.parallel`` iteration space."""
    thread_regs = []
    for point in iterations:
        per_thread = regs[:]
        for dst, value in zip(iv_slots, point):
            per_thread[dst] = value
        thread_regs.append(per_thread)
    return thread_regs


def _iteration_space(regs, lb_slots, ub_slots, st_slots) -> Tuple[List[range], int]:
    """Read a region's (ranges, total points) from its bound slots."""
    ranges = [range(int(regs[lb]), int(regs[ub]), int(regs[st]))
              for lb, ub, st in zip(lb_slots, ub_slots, st_slots)]
    total = 1
    for axis in ranges:
        total *= len(axis)
    return ranges, total


def _span_points(ranges, start: int, stop: Optional[int]):
    """Row-major iteration points of ``[start, stop)`` within the space.

    ``start == 0`` with ``stop=None`` is the whole space (no islice
    wrapper on the sequential hot path); a proper sub-span streams through
    ``itertools.islice`` — shard spans are contiguous in the same
    sequential order, which is what keeps worker-order cost aggregation
    equal to the interpreter's single sequential accumulation.
    """
    points = product(*ranges)
    if start == 0 and stop is None:
        return points
    return islice(points, start, stop)


class _Region:
    """One parallel region while it is being compiled (compile time only).

    The shell fills it in as it goes — the plan and the slots it resolved
    (``bounds``: lower / upper / step slot lists of a span, grid / block
    slot lists of a launch; ``index_slots``: the induction variables, or the
    launch body's twelve id / dim arguments; ``shared``: ``(slot, type)`` per
    prebound shared alloca) — and, for a span, the planner's ``body``, the
    in-process ``base`` run and the accounting around it (``count``,
    ``finish``, ``message``), which it hands to the row's planner and
    dispatcher; they name the ``tier`` that took the region.
    """

    __slots__ = ("plan", "bounds", "index_slots", "shared", "body", "base",
                 "count", "finish", "message", "tier")

    def __init__(self, plan: RegionPlan, bounds: Tuple, index_slots: List[int]) -> None:
        self.plan = plan
        self.bounds = bounds
        self.index_slots = index_slots
        self.shared: List[Tuple[int, object]] = []
        self.body = self.base = self.count = self.finish = None
        self.message = self.tier = None


# ---------------------------------------------------------------------------
# Function compilation
# ---------------------------------------------------------------------------
def _counted(block) -> Tuple[List, int]:
    """A block's executed ops and its dynamic-op count (terminator included)."""
    ops, term = _split_executed(block)
    return ops, len(ops) + (1 if term is not None else 0)


def _copy(dst_slots: Sequence[int], src_slots: Sequence[int]) -> List[str]:
    """The line binding each ``dst`` register to its ``src`` — one
    simultaneous assignment, so permuted loop-carried values read their
    pre-update registers — or nothing for no pairs."""
    pairs = list(zip(dst_slots, src_slots))
    if not pairs:
        return []
    return [", ".join(f"regs[{dst}]" for dst, _ in pairs) + " = "
            + ", ".join(f"regs[{src}]" for _, src in pairs)]


class _FunctionCompiler:
    """Translates one function to slot-addressed generated Python.

    Every op compiles to source lines (``compile_op``); a structured op's
    lines contain its child blocks' lines one indent deeper, and an op that
    runs once per region binds a closure whose call is its line.  The lines
    of a function body, a region phase or an ``omp`` body are finalised by
    one ``exec`` each (:func:`_build_runner`).
    """

    def __init__(self, program: _Program, fn: func_d.FuncOp) -> None:
        self.program = program
        self.fn = fn
        self._slots: Dict[int, int] = {}
        self.template: List = []
        self._prebound: set = set()  # result ids of launch-prebound shared allocas
        self._uid = 0  # unique suffix for names bound or assigned by generated source
        #: globals of every function generated for ``fn``: the callables and
        #: step closures its source names.
        self.ns: Dict[str, object] = {"_IE": InterpreterError, "_B": _BARRIER}
        #: structured ops enclosing the block being emitted, within the
        #: generated function being emitted.
        self._depth = 0
        #: regions offered to the row's dispatcher so far: names the emitted C
        #: symbol and keys the shard registry, so it must count in compile
        #: order (a body's nested regions before the region itself).
        self.offered = 0
        #: the dispatcher's per-function state (native: its translation unit).
        self.dispatch_state = None

    def _name(self, prefix: str) -> str:
        self._uid += 1
        return f"_{prefix}{self._uid}"

    # -- slot allocation ------------------------------------------------------
    def slot(self, value) -> int:
        key = id(value)
        existing = self._slots.get(key)
        if existing is None:
            existing = self._slots[key] = len(self.template)
            self.template.append(None)
        return existing

    def slots(self, values) -> List[int]:
        return [self.slot(v) for v in values]

    def compile(self) -> _CompiledFunction:
        arg_slots = self.slots(self.fn.arguments)
        is_gen = self.program.plans.function_may_yield(self.fn)
        runner = self._function_of(*_counted(self.fn.body_block), suspends=is_gen)
        _, term = _split_executed(self.fn.body_block)
        return_slots = self.slots(term.operands) if isinstance(term, func_d.ReturnOp) else []
        return _CompiledFunction(self.template, arg_slots, return_slots, runner, is_gen)

    # -- block compilation ----------------------------------------------------
    def compile_block(self, ops: Sequence, nops: int) -> List[str]:
        """Source of one block execution.  Its dynamic-op count is batched
        into a single increment (every op of a block executes exactly once
        per block execution), then come the ops' lines in order."""
        lines = []
        if nops:
            lines = [f"report.dynamic_ops += {nops}",
                     "if max_ops is not None and report.dynamic_ops > max_ops:",
                     "    raise _IE('dynamic operation budget exceeded')"]
        for op in ops:
            lines.extend(self.compile_op(op))
        return lines

    def _function_of(self, ops: Sequence, nops: int,
                     suspends: Optional[bool]) -> Callable:
        """A block finalised as its own generated function."""
        outer, self._depth = self._depth, 0
        lines = self.compile_block(ops, nops)
        self._depth = outer
        return _build_runner(lines, self.ns, self._name("run"), suspends)

    def compile_phase(self, ops: Sequence, nops: int) -> Callable:
        """Compile one barrier-delimited phase (``RegionPlan.phases`` entry)."""
        return self._function_of(ops, nops, suspends=False)

    def _nested(self, block) -> List[str]:
        """A structured op's child block, one indent deeper than the op."""
        ops, nops = _counted(block)
        self._depth += 1
        lines = (self.compile_block(ops, nops) if self._depth <= _MAX_INLINE_DEPTH
                 else self._spill(ops, nops))
        self._depth -= 1
        return [f"    {line}" for line in lines or ["pass"]]

    def _spill(self, ops: Sequence, nops: int) -> List[str]:
        """The call of a child block too deep to inline (``_MAX_INLINE_DEPTH``)."""
        run = self._function_of(ops, nops, suspends=None)
        call, = self._bound(run)
        return [f"yield from {call}" if isgeneratorfunction(run) else call]

    def _bound(self, step: Callable) -> List[str]:
        """The line calling ``step(state, regs)``, the closure of an op that
        runs once per region."""
        name = self._name("s")
        self.ns[name] = step
        return [f"{name}(state, regs)"]

    # -- op compilation --------------------------------------------------------
    def compile_op(self, op) -> List[str]:
        """The source lines of one op; none for an op with no runtime action."""
        if isinstance(op, _BARRIER_OPS):
            return ["yield _B"]
        emitter = _EMITTERS.get(type(op))
        if emitter is not None:
            return emitter(self, op)
        row = row_for(op)
        if row is not None:
            return self._c_scalar(op, row)
        message = f"no interpretation for op {op.name}"
        return [f"raise _IE({message!r})"]

    def _c_constant(self, op) -> List[str]:
        self.template[self.slot(op.result)] = op.value
        return []

    def _c_scalar(self, op, row) -> List[str]:
        """Every pure scalar op, rendered from its :mod:`optable` row."""
        operands = [f"regs[{self.slot(value)}]" for value in op.operands]
        target = self.slot(op.result)
        expr = python_expr(row, operands, self.ns, self._name)
        return [f"w[-1] += {cycles(row)!r}", f"regs[{target}] = {expr}"]

    # -- memory ops -------------------------------------------------------------
    def _c_alloc(self, op) -> List[str]:
        if id(op.result) in self._prebound:
            return []
        size_slots = self.slots(op.operands)
        ds = self.slot(op.result)
        mtype = op.memref_type
        allocate = MemRefStorage.allocate
        def step(state, regs):
            sizes = [int(regs[s]) for s in size_slots]
            storage = allocate(mtype, sizes)
            state.work[-1] += ALLOC_CYCLES
            regs[ds] = storage
        return self._bound(step)

    def _c_dealloc(self, op) -> List[str]:
        ms = self.slot(op.memref)
        def step(state, regs):
            regs[ms].free()  # raises on double free (centralized in storage)
            state.work[-1] += ALLOC_CYCLES
        return self._bound(step)

    def _access_lines(self, memref_slot: int) -> List[str]:
        """Shared prologue of a load/store: liveness check + access charge.

        Leaves the storage in ``_s`` and its array in ``_a``; the
        use-after-free guard is centralized in ``MemRefStorage.check_alive``,
        and the charge is rendered over run-time expressions (memory space
        and element width are runtime properties of the buffer).
        """
        return [f"_s = regs[{memref_slot}]",
                "_a = _s.check_alive()",
                "_sp = _s.memory_space",
                *access_charge_lines(self.program.machine, "_sp", "_a.itemsize")]

    @staticmethod
    def _index_expr(idx_slots: Sequence[int]) -> str:
        return ", ".join(f"int(regs[{s}])" for s in idx_slots)

    def _c_load(self, op) -> List[str]:
        ms = self.slot(op.memref)
        idx_slots = self.slots(op.indices)
        ds = self.slot(op.result)
        if not idx_slots:
            access = f"regs[{ds}] = _a.item()"
        elif len(idx_slots) == 1:
            access = f"regs[{ds}] = _a.item({self._index_expr(idx_slots)})"
        else:
            access = f"regs[{ds}] = _a.item(({self._index_expr(idx_slots)}))"
        return [*self._access_lines(ms), access]

    def _c_store(self, op) -> List[str]:
        vs = self.slot(op.value)
        ms = self.slot(op.memref)
        idx_slots = self.slots(op.indices)
        target = self._index_expr(idx_slots) if idx_slots else "()"
        return [*self._access_lines(ms), f"_a[{target}] = regs[{vs}]"]

    def _c_dim(self, op) -> List[str]:
        ms, ds = self.slot(op.memref), self.slot(op.result)
        return [f"regs[{ds}] = int(regs[{ms}].check_alive().shape[{op.dim}])"]

    def _c_copy(self, op) -> List[str]:
        ss, ds = self.slot(op.source), self.slot(op.destination)
        machine = self.program.machine
        def step(state, regs):
            source = regs[ss]
            destination = regs[ds]
            destination.copy_from(source)  # checks both buffers' liveness
            state.work[-1] += (2.0 * int(source.array.size) * memory_access_cost(
                machine, "global", int(source.array.itemsize)))
            state.report.global_bytes += 2 * int(source.array.nbytes)
        return self._bound(step)

    # -- functions ---------------------------------------------------------------
    def _c_call(self, op) -> List[str]:
        program = self.program
        callee = program.module.lookup(op.callee)
        if callee is None or callee.is_declaration:
            message = f"call to unknown function {op.callee!r}"
            return [f"raise _IE({message!r})"]
        arg_slots = tuple(self.slots(op.operands))
        res_slots = tuple(self.slots(op.results))
        # compiled at the first call, so that recursion terminates
        enter = self._name("fn")
        self.ns[enter] = partial(program.function, callee)
        run = "_f.runner(state, _in)"
        if program.plans.function_may_yield(callee):
            run = f"yield from {run}"
        return [f"_f = {enter}()",
                f"w[-1] += {op_cost('func.call')!r}",
                "_in = _f.template[:]",
                f"for _dst, _src in zip(_f.arg_slots, {arg_slots!r}):",
                "    _in[_dst] = regs[_src]",
                run,
                f"for _dst, _src in zip({res_slots!r}, _f.return_slots):",
                "    regs[_dst] = _in[_src]"]

    # -- structured control flow ---------------------------------------------------
    #
    # One emitter per op.  Loop-carried values live in the registers of the
    # block arguments they are bound to: written on entry and again at the
    # end of every iteration, read once more for the op's results.
    def _c_for(self, op) -> List[str]:
        lb, ub, st = self.slot(op.lower_bound), self.slot(op.upper_bound), self.slot(op.step)
        iv_slot = self.slot(op.induction_var)
        init_slots = self.slots(op.iter_init)
        iter_slots = self.slots(op.iter_args)
        result_slots = self.slots(op.results)
        body = self._nested(op.body)
        _, term = _split_executed(op.body)
        yield_slots = (self.slots(term.operands)
                       if isinstance(term, scf.YieldOp) and result_slots else init_slots)
        cost = op_cost("scf.for")
        iv, upper, step = self._name("iv"), self._name("ub"), self._name("st")
        return [f"w[-1] += {cost!r}",
                f"{iv} = int(regs[{lb}])",
                f"{upper} = int(regs[{ub}])",
                f"{step} = int(regs[{st}])",
                f"if {step} <= 0:",
                "    raise _IE('scf.for requires a positive step')",
                *_copy(iter_slots, init_slots),
                f"while {iv} < {upper}:",
                f"    regs[{iv_slot}] = {iv}",
                *body,
                *(f"    {line}" for line in _copy(iter_slots, yield_slots)),
                f"    {iv} += {step}",
                f"    w[-1] += {cost!r}",
                *_copy(result_slots, iter_slots)]

    def _branch(self, op, block) -> List[str]:
        """One ``scf.if`` branch: its block, then the op's results bound to
        the values it yields."""
        lines = self._nested(block)
        _, term = _split_executed(block)
        if op.results and isinstance(term, scf.YieldOp):
            lines += (f"    {line}" for line in
                      _copy(self.slots(op.results), self.slots(term.operands)))
        return lines

    def _c_if(self, op) -> List[str]:
        lines = [f"w[-1] += {op_cost('scf.if')!r}",
                 f"if regs[{self.slot(op.condition)}]:",
                 *self._branch(op, op.then_block)]
        if op.else_block is not None:
            lines += ["else:", *self._branch(op, op.else_block)]
        elif op.results:
            lines += ["else:",
                      "    raise _IE('scf.if with results requires an else branch')"]
        return lines

    def _c_while(self, op) -> List[str]:
        init_slots = self.slots(op.init_args)
        before_args = self.slots(op.before_block.arguments)
        before = self._nested(op.before_block)
        _, before_term = _split_executed(op.before_block)
        lines = [*_copy(before_args, init_slots),
                 "while True:",
                 f"    w[-1] += {op_cost('scf.while')!r}",
                 *before]
        if not isinstance(before_term, scf.ConditionOp):
            return lines + ["    raise _IE('scf.while before-region did not "
                            "reach scf.condition')"]
        cond_slot = self.slot(before_term.condition)
        fwd_slots = self.slots(before_term.forwarded)
        after_args = self.slots(op.after_block.arguments)
        after = self._nested(op.after_block)
        _, after_term = _split_executed(op.after_block)
        yield_slots = (self.slots(after_term.operands)
                       if isinstance(after_term, scf.YieldOp) else fwd_slots)
        return [*lines,
                f"    if not regs[{cond_slot}]:",
                *(f"        {line}" for line in _copy(self.slots(op.results), fwd_slots)),
                "        break",
                *(f"    {line}" for line in _copy(after_args, fwd_slots)),
                *after,
                *(f"    {line}" for line in _copy(before_args, yield_slots))]

    # -- parallel regions -------------------------------------------------------
    #
    # One shell per region kind.  The shell owns what every engine shares —
    # the slots, the report counter, the work frame, the barrier-escape
    # message and the wall-clock epilogue.  For a *span* it composes the two
    # callables of the program's row (``_ROWS``): the *body planner* builds
    # ``run_span(state, regs, ranges, start, stop)``, which executes any
    # contiguous sub-span (what the multicore dispatcher ships to its
    # workers), and the *dispatcher*, if the row has one, may return a runner
    # that takes the whole span elsewhere and falls back to the shell's
    # ``base``.  An un-lowered region is never offered to either: its body is
    # always :func:`closures` (``_unlowered``).  Run closures capture what
    # they need as locals: no plan or region object is read at run time.
    def _region(self, op) -> _Region:
        plan = self.program.plans.plan(op)
        if plan.kind == LAUNCH:
            bounds = (self.slots(plan.grid_dims), self.slots(plan.block_dims))
            region = _Region(plan, bounds, self.slots(plan.block_args))
            region.shared = [(self.slot(alloca.result), alloca.memref_type)
                             for alloca in plan.shared_allocas]
        else:
            bounds = (self.slots(plan.lower_bounds), self.slots(plan.upper_bounds),
                      self.slots(plan.steps))
            region = _Region(plan, bounds, self.slots(plan.induction_vars))
        return region

    def _dispatched(self, region: _Region) -> List[str]:
        """Offer a planned region to the row's dispatcher; ``base`` otherwise."""
        dispatcher = self.program.dispatcher
        run = None
        if dispatcher is not None:
            self.offered += 1
            run = dispatcher(self, region)
        self.program.regions.append((self.fn.sym_name, region.plan, region.tier))
        return self._bound(region.base if run is None else run)

    def _span_shell(self, op, count: Callable, message: str,
                    finish: Callable) -> List[str]:
        """``omp.wsloop`` and barrier-free ``scf.parallel``: they differ in
        the report counter, the escape message and the epilogue only."""
        region = self._region(op)
        region.count, region.message, region.finish = count, message, finish
        lb_slots, ub_slots, st_slots = region.bounds
        run_span = region.body = self.program.planner(self, region)

        def base(state, regs):
            ranges, total = _iteration_space(regs, lb_slots, ub_slots, st_slots)
            count(state)
            work_stack = state.work
            work_stack.append(0.0)
            try:
                run_span(state, regs, ranges, 0, None)
            except _BarrierEscape:
                raise InterpreterError(message) from None
            work = work_stack.pop()
            finish(state, total, work)
        region.base = base
        return self._dispatched(region)

    def _parallel_accounting(self) -> Callable:
        """The barrier-free ``scf.parallel`` wall-clock epilogue: ``finish``
        takes the region's summed work — from the shell's own run, the native
        call or the folded worker shards — and charges the enclosing frame."""
        fork_cost = self.program.machine.fork_cost

        def finish(state, total, work):
            threads = min(state.threads, max(1, total))
            state.work[-1] += fork_cost + work / state.program.speedup(threads)
        return finish

    def _c_scf_parallel(self, op) -> List[str]:
        if self.program.plans.plan(op).kind == SIMT:
            return self._c_scf_parallel_simt(op)

        def count(state):
            state.report.parallel_regions += 1
        return self._span_shell(
            op, count, "unexpected barrier in barrier-free parallel loop",
            self._parallel_accounting())

    def _unlowered(self, region: _Region) -> Callable:
        """The body of a region cpuify has not lowered, under every row: the
        closure tier keeps full ``gpu.launch`` / SIMT semantics, and a row
        with a faster tier says by name (``UNLOWERED``) why it did not run."""
        program, plan = self.program, region.plan
        if program.declined is not None:
            stats, counter = program.declined
            getattr(program, stats)[counter] += 1
            plan.refuse(program.row, UNLOWERED[plan.kind])
        body = closures(self, region)
        program.regions.append((self.fn.sym_name, plan, region.tier))
        return body

    def _c_scf_parallel_simt(self, op) -> List[str]:
        region = self._region(op)
        lb_slots, ub_slots, st_slots = region.bounds
        machine = self.program.machine
        fork_cost = machine.fork_cost
        phase_cost = machine.simt_phase_cost
        run_grid = self._unlowered(region)

        def run(state, regs):
            ranges, total = _iteration_space(regs, lb_slots, ub_slots, st_slots)
            state.report.parallel_regions += 1
            work_stack = state.work
            work_stack.append(0.0)
            phases = run_grid(state, regs, ranges)
            state.report.simt_phases += phases
            work = work_stack.pop()
            threads = min(state.threads, max(1, total))
            wall = (fork_cost + work / state.program.speedup(threads)
                    + phases * phase_cost)
            work_stack[-1] += wall
        return self._bound(run)

    def _c_gpu_launch(self, op) -> List[str]:
        region = self._region(op)
        grid_slots, block_slots = region.bounds
        saved_prebound = self._prebound
        self._prebound = saved_prebound | {
            id(alloca.result) for alloca in region.plan.shared_allocas}
        try:
            run_blocks = self._unlowered(region)
        finally:
            self._prebound = saved_prebound

        def run(state, regs):
            run_blocks(state, regs, [int(regs[s]) for s in grid_slots],
                       [int(regs[s]) for s in block_slots])
        return self._bound(run)

    def _c_gpu_alloc(self, op) -> List[str]:
        size_slots = self.slots(op.operands)
        ds = self.slot(op.result)
        mtype = op.result.type
        allocate = MemRefStorage.allocate
        def step(state, regs):
            regs[ds] = allocate(mtype, [int(regs[s]) for s in size_slots])
        return self._bound(step)

    def _c_gpu_dealloc(self, op) -> List[str]:
        ms = self.slot(op.memref)
        def step(state, regs):
            regs[ms].free()  # raises on double free (centralized in storage)
        return self._bound(step)

    def _c_gpu_memcpy(self, op) -> List[str]:
        ds, ss = self.slot(op.destination), self.slot(op.source)
        def step(state, regs):
            regs[ds].copy_from(regs[ss])  # checks both buffers' liveness
        return self._bound(step)

    # -- OpenMP -------------------------------------------------------------------
    def _c_omp_parallel(self, op) -> List[str]:
        nested = op.nest_level > 0
        body = self._function_of(*_counted(op.body), suspends=False)
        machine = self.program.machine
        fork = machine.nested_fork_cost if nested else machine.fork_cost
        penalty = machine.false_sharing_penalty

        def run(state, regs):
            report = state.report
            report.parallel_regions += 1
            if nested:
                report.nested_regions += 1
            work_stack = state.work
            work_stack.append(0.0)
            try:
                body(state, regs)
            except _BarrierEscape:
                raise InterpreterError("GPU barrier inside an OpenMP region") from None
            work = work_stack.pop()
            if nested:
                work *= penalty
            work_stack[-1] += fork + work
        return self._bound(run)

    @staticmethod
    def _static_team(op) -> Tuple[bool, bool, Optional[int]]:
        """(has_parallel_parent, parent_is_nested, parent_num_threads)."""
        parent = op.parent_op
        while parent is not None and not isinstance(parent, omp_d.OmpParallelOp):
            parent = parent.parent_op
        if parent is None:
            return False, False, None
        return True, parent.nest_level > 0, parent.num_threads

    def _wsloop_accounting(self, op) -> Callable:
        """The ``omp.wsloop`` wall-clock epilogue (see _parallel_accounting)."""
        has_parent, parent_nested, parent_threads = self._static_team(op)
        nowait = op.nowait
        sync_cost = self.program.machine.sync_cost

        def finish(state, total, work):
            if not has_parent or parent_nested:
                team_size = 1
            else:
                team_size = parent_threads or state.threads
            team = min(team_size, max(1, total))
            wall = work / state.program.speedup(team)
            if not nowait:
                wall += sync_cost
            state.work[-1] += wall
        return finish

    def _c_omp_wsloop(self, op) -> List[str]:
        def count(state):
            state.report.workshared_loops += 1
        return self._span_shell(op, count, "GPU barrier inside a workshared loop",
                                self._wsloop_accounting(op))

    def _c_omp_barrier(self, op) -> List[str]:
        sync_cost = self.program.machine.sync_cost
        def step(state, regs):
            state.report.barriers += 1
            state.work[-1] += sync_cost
        return self._bound(step)

    def _c_omp_single(self, op) -> List[str]:
        body = self._function_of(*_counted(op.body), suspends=False)
        def run(state, regs):
            try:
                body(state, regs)
            except _BarrierEscape:
                raise InterpreterError("GPU barrier inside omp.single") from None
        return self._bound(run)


#: the op arms of :meth:`_FunctionCompiler.compile_op`, by exact op type like
#: the interpreter's handler table (pure scalar ops go through their
#: :mod:`optable` row instead).
_EMITTERS = {
    arith.ConstantOp: _FunctionCompiler._c_constant,
    memref_d.AllocOp: _FunctionCompiler._c_alloc,
    memref_d.AllocaOp: _FunctionCompiler._c_alloc,
    memref_d.DeallocOp: _FunctionCompiler._c_dealloc,
    memref_d.LoadOp: _FunctionCompiler._c_load,
    memref_d.StoreOp: _FunctionCompiler._c_store,
    memref_d.DimOp: _FunctionCompiler._c_dim,
    memref_d.CopyOp: _FunctionCompiler._c_copy,
    func_d.CallOp: _FunctionCompiler._c_call,
    scf.ForOp: _FunctionCompiler._c_for,
    scf.IfOp: _FunctionCompiler._c_if,
    scf.WhileOp: _FunctionCompiler._c_while,
    scf.ParallelOp: _FunctionCompiler._c_scf_parallel,
    gpu_d.LaunchOp: _FunctionCompiler._c_gpu_launch,
    gpu_d.GPUAllocOp: _FunctionCompiler._c_gpu_alloc,
    gpu_d.GPUDeallocOp: _FunctionCompiler._c_gpu_dealloc,
    gpu_d.GPUMemcpyOp: _FunctionCompiler._c_gpu_memcpy,
    omp_d.OmpParallelOp: _FunctionCompiler._c_omp_parallel,
    omp_d.OmpWsLoopOp: _FunctionCompiler._c_omp_wsloop,
    omp_d.OmpBarrierOp: _FunctionCompiler._c_omp_barrier,
    omp_d.OmpSingleOp: _FunctionCompiler._c_omp_single,
}


# ---------------------------------------------------------------------------
# The closure body planner
# ---------------------------------------------------------------------------
def _simt_driver(fc: _FunctionCompiler, plan: RegionPlan) -> Callable:
    """A SIMT body as a phase driver ``run_simt(state, thread_regs) -> phases``:
    one closure per phase, run phase-by-phase over all threads, when barriers
    are straight-line; compiled generator closures scheduled by the
    interpreter's barrier-phase loop otherwise."""
    if plan.phases is not None:
        chunks = [fc.compile_phase(ops, nops) for ops, nops in plan.phases]

        def run_simt(state, thread_regs, _chunks=chunks):
            if not thread_regs:
                return 0
            for chunk in _chunks:
                for regs in thread_regs:
                    chunk(state, regs)
            return len(_chunks)
    else:
        body = fc._function_of(*_counted(plan.op.body), suspends=True)

        def run_simt(state, thread_regs, _body=body):
            live = [_body(state, regs) for regs in thread_regs]
            phases = 0
            while live:
                phases += 1
                survivors = []
                keep = survivors.append
                for thread in live:
                    try:
                        next(thread)
                    except StopIteration:
                        continue
                    keep(thread)
                live = survivors
            return phases
    return run_simt


def closures(fc: _FunctionCompiler, region: _Region) -> Callable:
    """The compiled engine's body planner, and every row's for an un-lowered
    region: every thread / iteration runs the region's phases as Python
    closures over its own register list.  Returns ``run_span(state, regs,
    ranges, start, stop)`` for a span, ``run_grid(state, regs, ranges) ->
    phases`` for a SIMT ``scf.parallel``, ``run_blocks(state, regs, grid,
    block)`` for a launch."""
    plan = region.plan
    region.tier = "closures"
    index_slots = region.index_slots
    if plan.kind == LAUNCH:
        run_simt = _simt_driver(fc, plan)
        shared_allocas = region.shared

        def run_blocks(state, regs, grid, block):
            g0, g1, g2 = grid
            report = state.report
            for linear in range(g0 * g1 * g2):
                bx = linear % g0
                by = (linear // g0) % g1
                bz = linear // (g0 * g1)
                thread_regs = build_launch_thread_regs(
                    regs, index_slots, bx, by, bz, grid, block)
                bind_shared_allocas(shared_allocas, thread_regs)
                phases = run_simt(state, thread_regs)
                report.simt_phases += phases
        return run_blocks
    if plan.kind == SIMT:
        run_simt = _simt_driver(fc, plan)

        def run_grid(state, regs, ranges):
            return run_simt(state, build_parallel_thread_regs(
                regs, index_slots, product(*ranges)))
        return run_grid
    body = fc.compile_phase(*plan.phases[0])

    def run_span(state, regs, ranges, start, stop):
        for point in _span_points(ranges, start, stop):
            for dst, value in zip(index_slots, point):
                regs[dst] = value
            body(state, regs)
    return run_span


# ---------------------------------------------------------------------------
# Function finalisation
# ---------------------------------------------------------------------------
def _escaping(body: Callable) -> Callable:
    """Run the generator function ``body`` where nothing can suspend: its
    first barrier escapes to the enclosing shell (the interpreter's
    ``for _ in self._execute_ops(...): raise``)."""
    def run(state, regs):
        for _ in body(state, regs):
            raise _BarrierEscape()
    return run


def _build_runner(lines: Sequence[str], namespace: Dict[str, object], name: str,
                  suspends: Optional[bool]) -> Callable:
    """Finalise the lines of one function body with one ``exec``.

    Whether the function is a generator is a property of its text — it
    yields at the barriers it contains.  ``suspends`` says what the caller
    does with it: ``True``, it drives a generator (a SIMT thread, a callee
    that may yield), so a body without a reachable barrier is still made
    one; ``False``, it cannot suspend, so a body that does yield is driven
    to its first barrier, which escapes; ``None``, it takes either.
    """
    body = [*lines, "if False:", "    yield"] if suspends else lines or ["pass"]
    source = "\n".join([f"def {name}(state, regs):",
                        "    report = state.report",
                        "    max_ops = state.max_ops",
                        "    w = state.work",
                        *(f"    {line}" for line in body)])
    exec(source, namespace)  # noqa: S102 - compile-time codegen
    run = namespace[name]
    if suspends is False and isgeneratorfunction(run):
        return _escaping(run)
    return run


# ---------------------------------------------------------------------------
# Engine front end
# ---------------------------------------------------------------------------
class CompiledEngine:
    """Drop-in replacement for :class:`Interpreter` backed by compiled closures.

    The first :meth:`run` of a function triggers its one-time translation;
    subsequent runs (same module, same machine) reuse the compiled program,
    including across engine instances.
    """

    #: the engine's row of ``_ROWS``; subclasses name theirs.
    ROW = "compiled"

    #: a taxonomy (:class:`~repro.runtime.errors.ResilienceError`) failure is
    #: raised before the run's first store or not at all, so the resilience
    #: wrapper need not snapshot the arguments to re-run them elsewhere.
    FAILS_BEFORE_FIRST_STORE = True

    def __init__(self, module: func_d.ModuleOp, machine: MachineModel = XEON_8375C,
                 threads: Optional[int] = None, collect_cost: bool = True,
                 max_dynamic_ops: Optional[int] = None) -> None:
        self.module = module
        self.machine = machine
        self.threads = threads if threads is not None else machine.cores
        self.collect_cost = collect_cost
        self.max_dynamic_ops = max_dynamic_ops
        self.report = CostReport(machine=machine, threads=self.threads)
        self._program = program_for(module, machine, self.ROW)
        self._work: List[float] = [0.0]

    def _preflight(self) -> None:
        """Hook, called with the entry function compiled and no argument
        written yet: the last point a taxonomy error may be raised
        (``FAILS_BEFORE_FIRST_STORE``; the native engine seals here)."""

    def _make_state(self) -> _State:
        """Per-run execution state hook (the multicore engine attaches its
        shard-dispatch context here)."""
        return _State(self.report, self.threads, self._work,
                      self.max_dynamic_ops, self._program)

    def run(self, function_name: str, arguments: Sequence = ()) -> List:
        """Execute ``function_name`` with the given arguments (Interpreter API)."""
        fn = self.module.lookup(function_name)
        if fn is None or fn.is_declaration:
            raise InterpreterError(f"no function body for {function_name!r}")
        if len(arguments) != len(fn.arguments):
            raise InterpreterError(
                f"{fn.sym_name}: expected {len(fn.arguments)} arguments, got {len(arguments)}")
        compiled = self._program.function(fn)
        self._preflight()
        runner = _escaping(compiled.runner) if compiled.is_gen else compiled.runner
        state = self._make_state()
        regs = compiled.template[:]
        for index, slot in enumerate(compiled.arg_slots):
            regs[slot] = self._wrap_argument(arguments[index], index)
        try:
            runner(state, regs)
        except _BarrierEscape:
            raise InterpreterError("barrier executed outside a parallel context") from None
        results = [regs[s] for s in compiled.return_slots]
        if self.collect_cost:
            self.report.cycles += self._work[0]
        self._work[0] = 0.0
        return results

    #: hook: the multicore engine tracks the storages it may promote.
    _wrap_argument = staticmethod(wrap_argument)

    @property
    def regions(self) -> List[Dict]:
        """Per region compiled so far: its function, its kind, the tier that
        took it, the reason each faster tier of this engine gave for
        declining it (compile-time facts) and, by reason, the dispatches its
        native code refused at run time (``bailouts``; they sum to
        ``native_stats["bailouts"]``)."""
        program = self._program
        asked = ((self.ROW, "parallel") if program.dispatcher is not None
                 else (self.ROW,))
        return [{"function": function, "kind": plan.kind, "tier": tier,
                 "refusals": [f"{capability}: {reason}"
                              for capability, reason in plan.refusals
                              if capability in asked],
                 "bailouts": dict(program.bailouts.get(id(plan), ()))}
                for function, plan, tier in program.regions]

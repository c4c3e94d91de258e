"""Compiled execution engine: one-time translation of IR to generated Python.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` re-dispatches
on the operation type for every dynamic operation and copies the whole
environment dictionary per loop iteration.  This module
removes that hot-path overhead by *compiling* each function once:

* **SSA value numbering** — every SSA value of a function gets a flat integer
  slot in a per-invocation register list.  Loop iterations reuse slots in
  place (SSA dominance guarantees dead values are never read), so the
  per-iteration ``dict(env)`` copy disappears entirely.
* **whole-function generation** — every op compiles to source lines with
  operand slots, cost constants and type coercions resolved at compile time,
  and a structured op (``scf.for`` / ``scf.if`` / ``scf.while``) is one
  emitter that writes its header and splices its child blocks' lines one
  indent deeper (the ``generate_ast``-style "lower once, execute many"
  idiom), so a function body, a span body or an ``omp`` body is *one*
  generated Python function finalised by one ``exec``: a loop iteration or
  a branch costs no Python call.  Pure scalar ops are rendered from their
  :mod:`~repro.runtime.optable` row; the ops that run once per region
  (allocation, the ``gpu.*`` host ops, ``omp.*``, the region shells) stay
  bound closures the text calls.  A barrier is the line ``raise _BE()``:
  every context shell catches it and raises the interpreter's message
  naming the context.  Past ``_MAX_INLINE_DEPTH`` nested structured ops a
  child block becomes its own function, because CPython bounds static
  nesting.  No generated function is a generator.
* **lazy iteration spaces** — ``scf.parallel`` / ``omp.wsloop`` iteration
  spaces are ``itertools.product`` streams, never materialized lists.

Cost accounting is replicated charge-for-charge in the interpreter's
execution order, so a compiled run produces a bit-identical
:class:`~repro.runtime.costmodel.CostReport` (the differential tests in
``tests/runtime/test_engine_parity.py`` pin this).  One deliberate
difference, only observable on malformed IR: use-before-def reads surface as
``None`` values instead of a "use of undefined value" error.

This module also hosts what the four compiled engines share: the one
function compiler, whose *region shell* compiles every parallel region from
its :class:`~repro.analysis.region.RegionPlan`, and the table of engine
rows (``_ROWS``) naming the body planner and the dispatcher the shell
composes — :func:`closures` here, ``lanes`` in the vectorizer, ``native``
and ``shards`` in the native and multicore engines.  Planners and
dispatchers see *spans* only (``omp.wsloop``, barrier-free
``scf.parallel``): barriers are lowered in the IR by cpuify, so an
un-lowered region (``gpu.launch``, ``scf.parallel`` with barriers) is one
step that runs the interpreter on it (:meth:`Interpreter.run_region`) under
every row, with the refusal named on its plan.

Compiled programs are cached on the module object itself, keyed by the
engine row and the machine model (cost constants are baked into the
generated text), next to the module's region plans.  The cache
assumes the module is not mutated after its first compiled run — call
:func:`invalidate_compiled` after transforming an already-executed module.
"""

from __future__ import annotations

from functools import partial
from importlib import import_module
from itertools import islice, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.region import LAUNCH, SIMT, RegionPlan, RegionPlans
from ..analysis.structure import (BARRIER_OPS as _BARRIER_OPS,
                                  split_executed as _split_executed)
from ..dialects import arith, func as func_d, gpu as gpu_d, memref as memref_d
from ..dialects import omp as omp_d, scf
from .costmodel import (CostReport, MachineModel, XEON_8375C,
                        memory_access_cost, op_cost, resolve_threads)
from .errors import ZERO_STEP, InterpreterError, arity_error
from .interpreter import Interpreter
from .memory import MemRefStorage, is_memref_parameter, wrap_argument
from .optable import (ALLOC_CYCLES, access_charge_lines, cycles, python_expr,
                      row_for)

#: how many structured ops nest their child blocks inline in one generated
#: function; a child block deeper than this is finalised as its own function
#: and called.  CPython (3.11) refuses more than 20 statically nested loops
#: and 100 indentation levels, and every structured op costs one of each.
_MAX_INLINE_DEPTH = 16

#: attribute used to cache compiled programs on the module operation.
_CACHE_ATTR = "_compiled_programs"


class _BarrierEscape(Exception):
    """A barrier reached in compiled code; the enclosing context shell names
    the context in the interpreter's words."""


class _State:
    """Mutable per-run execution state shared by all compiled code.

    ``shard`` is the multicore engine's dispatch context (worker pool +
    worker count); it is ``None`` for the compiled/vectorized engines and
    inside worker processes, which makes every shard-capable region runner
    fall through to plain in-process execution.
    """

    __slots__ = ("report", "threads", "work", "program", "shard")

    def __init__(self, report: CostReport, threads: int, work: List[float],
                 program: "_Program", shard=None) -> None:
        self.report = report
        self.threads = threads
        self.work = work
        self.program = program
        self.shard = shard


#: the kinds of a fold step, numbered as ``_dispatch.c`` numbers them.
STEP_OPS, STEP_CHARGE, STEP_OPEN, STEP_CLOSE, STEP_BARRIER, STEP_SPAN = range(6)


class Fold:
    """How a run of one function folds its counters: the steps
    :class:`_FunctionCompiler` records as it emits the host accounting (a
    span body's go to a fold nothing reads), for a straight-line entry's
    warm call to replay in C (``native._Entry``).  ``steps`` are
    ``(STEP_*, argument)``, the argument a block's op count or an index
    into ``charges`` (pure scalar ops' cycles) or ``spans`` (regions, with
    their epilogue's ``team`` and ``nowait``); ``ops`` are the host's
    constants and pure scalar ops; ``refusal`` names the first host op no
    step replays.  ``Fold(region)`` is one region dispatch's fold."""

    def __init__(self, *spans: "_Region") -> None:
        self.steps: List[Tuple[int, int]] = []
        self.charges: List[float] = []
        self.ops: List = []
        self.spans: List[_Region] = []
        self.refusal: Optional[str] = None
        self.depth = 0  # the omp.parallel frames open at the op being emitted
        for region in spans:
            self.span(region)

    def step(self, kind: int, argument: int = 0) -> None:
        self.steps.append((kind, argument))

    def host_op(self, op, charge: Optional[float] = None) -> None:
        """A constant, or a pure scalar op and its charge."""
        self.ops.append(op)
        if charge is not None:
            self.step(STEP_CHARGE, len(self.charges))
            self.charges.append(charge)

    def span(self, region: "_Region") -> None:
        self.step(STEP_SPAN, len(self.spans))
        self.spans.append(region)

    def words(self, base: int) -> List[int]:
        """The steps as layout words, a charge's index counted from ``base``."""
        return [word for kind, argument in self.steps
                for word in (kind, argument + base if kind == STEP_CHARGE else argument)]

    def refuse(self, op, reason: Optional[str] = None) -> None:
        """The first host op no step replays, and why."""
        if self.refusal is None:
            self.refusal = reason or (f"{op.name} outside a native span" if op.regions
                                      else f"host op {op.name}")


class _CompiledFunction:
    """One compiled function: register template + body runner, and the kind
    of each parameter (``memrefs``: a buffer, else a scalar) a run checks
    its arguments against."""

    __slots__ = ("fn", "template", "arg_slots", "memrefs", "return_slots",
                 "runner", "dispatch_state")

    def __init__(self, fn: func_d.FuncOp, template: List, arg_slots: List[int],
                 return_slots: List[int], runner: Callable) -> None:
        self.fn = fn
        self.template = template
        self.arg_slots = arg_slots
        self.memrefs = tuple(map(is_memref_parameter, fn.arguments))
        self.return_slots = return_slots
        self.runner = runner
        #: the row dispatcher's per-function state (native: its unit), built.
        self.dispatch_state = None


#: the four engines as fixed rows: which *body planner* turns a span's body
#: into a runner, which *dispatcher* (if any) may take a whole span
#: elsewhere, with the shell's in-process run as its fallback, and the
#: ``(stats, counter)`` in which the row counts a region its fast tier
#: declined.  Both callables are handed spans only (``_interpreted``).  Named
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
        #: every compiled region, in compile order (``engine.regions``).
        self.regions: List[_Region] = []
        #: ``id(plan)`` -> the dispatches the region's native code refused at
        #: run time, by reason (the native dispatcher's live tally).
        self.bailouts: Dict[int, Dict[str, int]] = {}
        #: compile-time counters, filled as functions are first compiled
        #: (``bailouts`` / ``native_dispatches`` / ``entry_calls`` /
        #: ``dispatches`` / ``inline_runs`` and the promotion counters move at
        #: run time).
        self.vector_stats = {"vectorized_regions": 0, "fallback_regions": 0}
        self.native_stats = {
            "native_regions": 0, "fallback_regions": 0, "native_dispatches": 0,
            "bailouts": 0, "entry_calls": 0, "units_ready": 0,
            "artifact_hits": 0, "compile_errors": 0, "corrupt_artifacts": 0,
            "promotions": 0, "promotion_failures": 0,
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
        #: function that offered it a region, each built with its function,
        #: and the failure of the first one that did not build.
        self.native_units: List = []
        self.unit_failure = None
        #: entry name -> its compiled function, looked up once (the module is
        #: not mutated after its first compiled run; see invalidate_compiled).
        self.entries: Dict[str, _CompiledFunction] = {}

    def function(self, fn: func_d.FuncOp) -> _CompiledFunction:
        compiled = self._functions.get(id(fn))
        if compiled is None:
            fc = _FunctionCompiler(self, fn)
            compiled = fc.compile()
            # programs are shared by threads: a unit is built, and becomes
            # reachable (here, and through the runner), once every region
            # is in it.
            unit = compiled.dispatch_state = fc.dispatch_state
            if unit is not None:
                unit.build(fc)
                self.native_units.append(unit)
            self._functions[id(fn)] = compiled
        return compiled

    def entry(self, name: str, count: int) -> _CompiledFunction:
        """The compiled function a run of ``name`` with ``count`` arguments
        calls; raises when ``name`` has no body or takes another count."""
        compiled = self.entries.get(name)
        if compiled is None:
            fn = self.module.lookup(name)
            if fn is None or fn.is_declaration:
                raise InterpreterError(f"no function body for {name!r}")
            if count != len(fn.arguments):
                raise arity_error(fn, count)
            compiled = self.entries[name] = self.function(fn)
        elif count != len(compiled.memrefs):
            raise arity_error(compiled.fn, count)
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


def _iteration_space(regs, lb_slots, ub_slots, st_slots) -> Tuple[List[range], int]:
    """Read a region's (ranges, total points) from its bound slots."""
    steps = [int(regs[st]) for st in st_slots]
    if 0 in steps:
        raise InterpreterError(ZERO_STEP)
    ranges = [range(int(regs[lb]), int(regs[ub]), step)
              for lb, ub, step in zip(lb_slots, ub_slots, steps)]
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
    """One region of a compiled ``function``: filled in while it is
    compiled, then its row of ``engine.regions``.

    The shell fills it in as it goes — the plan and the slots it resolved
    (``bounds``: the lower / upper / step slot lists; ``index_slots``: the
    induction variables) — and the planner's ``body``, the in-process
    ``base`` run and the accounting around it (``count``, ``finish``, the
    ``team`` and ``nowait`` of that epilogue, ``message``), which it hands
    to the row's planner and dispatcher; they name the ``tier`` that took
    the region, and the native dispatcher its ``handle``.  The function's
    generated code calls the region's run by ``name`` (a global of its
    ``ns``).
    """

    __slots__ = ("function", "plan", "bounds", "index_slots", "body", "base", "count",
                 "finish", "team", "nowait", "message", "tier", "name", "handle")

    def __init__(self, function: str, plan: RegionPlan, bounds: Tuple = (),
                 index_slots: Sequence[int] = ()) -> None:
        self.function = function
        self.plan = plan
        self.bounds = bounds
        self.index_slots = index_slots
        self.body = self.base = self.count = self.finish = self.team = None
        self.nowait = self.message = self.tier = self.name = self.handle = None


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
    of a function body, a span body or an ``omp`` body are finalised by
    one ``exec`` each (:func:`_build_runner`).  As it emits the host
    accounting it records the fold (:class:`Fold`): the one place that
    decides the order a straight-line entry's warm call replays.
    """

    def __init__(self, program: _Program, fn: func_d.FuncOp) -> None:
        self.program = program
        self.fn = fn
        self._slots: Dict[int, int] = {}
        self.template: List = []
        self._uid = 0  # unique suffix for names bound or assigned by generated source
        #: globals of every function generated for ``fn``: the callables and
        #: step closures its source names.
        self.ns: Dict[str, object] = {"_IE": InterpreterError, "_BE": _BarrierEscape}
        #: structured ops enclosing the block being emitted, within the
        #: generated function being emitted.
        self._depth = 0
        #: regions offered to the row's dispatcher so far: names the emitted C
        #: symbol and keys the shard registry, so it must count in compile
        #: order (a body's nested regions before the region itself).
        self.offered = 0
        #: the dispatcher's per-function state (native: its translation
        #: unit), ``build(fc)`` once the function is compiled.
        self.dispatch_state = None
        self.fold = Fold()

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
        # numbered first, the parameters hold slots 0 .. n - 1
        arg_slots = self.slots(self.fn.arguments)
        runner = self.function_of(*_counted(self.fn.body_block))
        _, term = _split_executed(self.fn.body_block)
        if term is None or term.operands:
            self.fold.refuse(term, "the function returns a value")
        return_slots = self.slots(term.operands) if isinstance(term, func_d.ReturnOp) else []
        return _CompiledFunction(self.fn, self.template, arg_slots, return_slots,
                                 runner)

    # -- block compilation ----------------------------------------------------
    def compile_block(self, ops: Sequence, nops: int) -> List[str]:
        """Source of one block execution.  Its dynamic-op count is batched
        into a single increment (every op of a block executes exactly once
        per block execution), then come the ops' lines in order."""
        self.fold.step(STEP_OPS, nops)
        lines = [f"report.dynamic_ops += {nops}"] if nops else []
        for op in ops:
            lines.extend(self.compile_op(op))
        return lines

    def function_of(self, ops: Sequence, nops: int) -> Callable:
        """A block (``nops``: its dynamic-op count) finalised as its own
        generated function ``run(state, regs)``."""
        outer, self._depth = self._depth, 0
        lines = self.compile_block(ops, nops)
        self._depth = outer
        return _build_runner(lines, self.ns, self._name("run"))

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
        return self._bound(self.function_of(ops, nops))

    def _bound(self, step: Callable, name: Optional[str] = None) -> List[str]:
        """The line calling ``step(state, regs)``, the closure of an op that
        runs once per region, bound as ``name`` (a fresh one by default)."""
        name = name or self._name("s")
        self.ns[name] = step
        return [f"{name}(state, regs)"]

    # -- op compilation --------------------------------------------------------
    def compile_op(self, op) -> List[str]:
        """The source lines of one op; none for an op with no runtime action."""
        emitter = _EMITTERS.get(type(op))
        row = None if emitter is not None else row_for(op)
        if emitter not in _OWN_STEPS and row is None:
            self.fold.refuse(op)
        if isinstance(op, _BARRIER_OPS):
            return ["raise _BE()"]
        if emitter is not None:
            return emitter(self, op)
        if row is not None:
            return self._c_scalar(op, row)
        message = f"no interpretation for op {op.name}"
        return [f"raise _IE({message!r})"]

    def _c_constant(self, op) -> List[str]:
        self.template[self.slot(op.result)] = op.value
        self.fold.host_op(op)
        return []

    def _c_scalar(self, op, row) -> List[str]:
        """Every pure scalar op, rendered from its :mod:`optable` row."""
        operands = [f"regs[{self.slot(value)}]" for value in op.operands]
        target = self.slot(op.result)
        expr = python_expr(row, operands, self.ns, self._name)
        self.fold.host_op(op, cycles(row))
        return [f"w[-1] += {cycles(row)!r}", f"regs[{target}] = {expr}"]

    # -- memory ops -------------------------------------------------------------
    def _c_alloc(self, op) -> List[str]:
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
        return [f"_f = {enter}()",
                f"w[-1] += {op_cost('func.call')!r}",
                "_in = _f.template[:]",
                f"for _dst, _src in zip(_f.arg_slots, {arg_slots!r}):",
                "    _in[_dst] = regs[_src]",
                "_f.runner(state, _in)",
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
    # One shell per span kind.  The shell owns what every engine shares —
    # the slots, the report counter, the work frame, the barrier-escape
    # message and the wall-clock epilogue.  For a *span* it composes the two
    # callables of the program's row (``_ROWS``): the *body planner* builds
    # ``run_span(state, regs, ranges, start, stop)``, which executes any
    # contiguous sub-span (what the multicore dispatcher ships to its
    # workers), and the *dispatcher*, if the row has one, may return a runner
    # that takes the whole span elsewhere and falls back to the shell's
    # ``base``.  An un-lowered region is never offered to either: the
    # interpreter runs it (``_interpreted``).  Run closures capture what
    # they need as locals: no plan or region object is read at run time.
    def _region(self, op) -> _Region:
        plan = self.program.plans.plan(op)
        bounds = (self.slots(plan.lower_bounds), self.slots(plan.upper_bounds),
                  self.slots(plan.steps))
        return _Region(self.fn.sym_name, plan, bounds, self.slots(plan.induction_vars))

    def _dispatched(self, region: _Region) -> List[str]:
        """Offer a planned region to the row's dispatcher; ``base`` otherwise."""
        dispatcher = self.program.dispatcher
        run = None
        if dispatcher is not None:
            self.offered += 1
            run = dispatcher(self, region)
        if run is None:
            self.fold.refuse(region.plan.op)
        else:
            self.fold.span(region)
        self.program.regions.append(region)
        region.name = self._name("s")
        return self._bound(region.base if run is None else run, region.name)

    def _span_shell(self, op, count: Callable, message: str,
                    accounting: Tuple[Callable, int, bool]) -> List[str]:
        """``omp.wsloop`` and barrier-free ``scf.parallel``: they differ in
        the report counter, the escape message and the epilogue only."""
        region = self._region(op)
        finish, region.team, region.nowait = accounting
        region.count, region.message, region.finish = count, message, finish
        lb_slots, ub_slots, st_slots = region.bounds
        fold, self.fold = self.fold, Fold()  # a span body's steps are not the host's
        run_span = region.body = self.program.planner(self, region)
        self.fold = fold

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

    def _parallel_accounting(self) -> Tuple[Callable, int, bool]:
        """The barrier-free ``scf.parallel`` wall-clock epilogue: ``finish``
        takes the region's summed work — from the shell's own run, the native
        call or the folded worker shards — and charges the enclosing frame;
        with its team (-1: the run's threads, after a fork) and ``nowait``."""
        fork_cost = self.program.machine.fork_cost

        def finish(state, total, work):
            threads = min(state.threads, max(1, total))
            state.work[-1] += fork_cost + work / state.program.speedup(threads)
        return finish, -1, False

    def _c_scf_parallel(self, op) -> List[str]:
        if self.program.plans.plan(op).kind == SIMT:
            return self._interpreted(op)

        def count(state):
            state.report.parallel_regions += 1
        return self._span_shell(
            op, count, "unexpected barrier in barrier-free parallel loop",
            self._parallel_accounting())

    def _interpreted(self, op) -> List[str]:
        """A region cpuify has not lowered (``gpu.launch``, ``scf.parallel``
        with barriers), under every row: one step that runs the interpreter
        on the op, its env built from the plan's live-ins, against this run's
        report, work stack and threads.  A row with a faster tier
        says by name (``UNLOWERED``) why it did not run."""
        self.fold.refuse(op)
        program = self.program
        plan = program.plans.plan(op)
        if program.declined is not None:
            stats, counter = program.declined
            getattr(program, stats)[counter] += 1
            plan.refuse(program.row, UNLOWERED[plan.kind])
        region = _Region(self.fn.sym_name, plan)
        region.tier = "interp"
        program.regions.append(region)
        live_ins = [(id(value), self.slot(value)) for value in plan.live_ins]
        module, machine = program.module, program.machine

        def step(state, regs):
            env = {key: regs[slot] for key, slot in live_ins}
            # one interpreter per execution: run_region binds the run's state
            # to it, and a program is shared by threads
            Interpreter(module, machine).run_region(
                op, env, state.report, state.work, state.threads)
        return self._bound(step)

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
        nested, fold = op.nest_level > 0, self.fold
        if nested or fold.depth:
            fold.refuse(op)
        fold.step(STEP_OPEN)
        fold.depth += 1
        body = self.function_of(*_counted(op.body))
        fold.depth -= 1
        fold.step(STEP_CLOSE)
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

    def _wsloop_accounting(self, op) -> Tuple[Callable, int, bool]:
        """The ``omp.wsloop`` wall-clock epilogue (see _parallel_accounting):
        its team is 1 outside an ``omp.parallel`` or in a nested one, its
        ``num_threads``, or 0 — the run's threads."""
        parent = op.parent_op
        while parent is not None and not isinstance(parent, omp_d.OmpParallelOp):
            parent = parent.parent_op
        fixed = 1 if parent is None or parent.nest_level > 0 else parent.num_threads or 0
        nowait = op.nowait
        sync_cost = self.program.machine.sync_cost

        def finish(state, total, work):
            team = min(fixed or state.threads, max(1, total))
            wall = work / state.program.speedup(team)
            if not nowait:
                wall += sync_cost
            state.work[-1] += wall
        return finish, fixed, nowait

    def _c_omp_wsloop(self, op) -> List[str]:
        def count(state):
            state.report.workshared_loops += 1
        return self._span_shell(op, count, "GPU barrier inside a workshared loop",
                                self._wsloop_accounting(op))

    def _c_omp_barrier(self, op) -> List[str]:
        sync_cost = self.program.machine.sync_cost
        self.fold.step(STEP_BARRIER)
        def step(state, regs):
            state.report.barriers += 1
            state.work[-1] += sync_cost
        return self._bound(step)

    def _c_omp_single(self, op) -> List[str]:
        body = self.function_of(*_counted(op.body))
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
    gpu_d.LaunchOp: _FunctionCompiler._interpreted,
    gpu_d.GPUAllocOp: _FunctionCompiler._c_gpu_alloc,
    gpu_d.GPUDeallocOp: _FunctionCompiler._c_gpu_dealloc,
    gpu_d.GPUMemcpyOp: _FunctionCompiler._c_gpu_memcpy,
    omp_d.OmpParallelOp: _FunctionCompiler._c_omp_parallel,
    omp_d.OmpWsLoopOp: _FunctionCompiler._c_omp_wsloop,
    omp_d.OmpBarrierOp: _FunctionCompiler._c_omp_barrier,
    omp_d.OmpSingleOp: _FunctionCompiler._c_omp_single,
}

#: the emitters that record their own fold step or refusal; every other
#: host op, pure scalar ops aside, is refused by ``compile_op``.
_OWN_STEPS = {_FunctionCompiler._c_constant, _FunctionCompiler._c_scf_parallel,
              _FunctionCompiler._interpreted, _FunctionCompiler._c_omp_parallel,
              _FunctionCompiler._c_omp_wsloop, _FunctionCompiler._c_omp_barrier}


# ---------------------------------------------------------------------------
# The closure body planner
# ---------------------------------------------------------------------------
def closures(fc: _FunctionCompiler, region: _Region) -> Callable:
    """The compiled engine's body planner: every iteration runs the span's
    body as one generated function over the shell's register list.  Returns
    ``run_span(state, regs, ranges, start, stop)``."""
    region.tier = "closures"
    index_slots = region.index_slots
    body = fc.function_of(*region.plan.body)

    def run_span(state, regs, ranges, start, stop):
        for point in _span_points(ranges, start, stop):
            for dst, value in zip(index_slots, point):
                regs[dst] = value
            body(state, regs)
    return run_span


# ---------------------------------------------------------------------------
# Function finalisation
# ---------------------------------------------------------------------------
def _build_runner(lines: Sequence[str], namespace: Dict[str, object],
                  name: str) -> Callable:
    """Finalise the lines of one function body with one ``exec``."""
    source = "\n".join([f"def {name}(state, regs):",
                        "    report = state.report",
                        "    w = state.work",
                        *(f"    {line}" for line in lines or ["pass"])])
    exec(source, namespace)  # noqa: S102 - compile-time codegen
    return namespace[name]


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

    #: set on an engine the resilience wrapper runs (``ResilientExecutor``).
    _resilience_strict = False

    #: besides its row, the capabilities whose refusals ``regions`` shows
    #: when the row has a dispatcher.
    _SHOWN: Tuple[str, ...] = ("parallel", "lanes")

    #: a taxonomy (:class:`~repro.runtime.errors.ResilienceError`) failure is
    #: raised before the run's first store or not at all, so the resilience
    #: wrapper need not snapshot the arguments to re-run them elsewhere.
    FAILS_BEFORE_FIRST_STORE = True

    def __init__(self, module: func_d.ModuleOp, machine: MachineModel = XEON_8375C,
                 threads: Optional[int] = None) -> None:
        self.module = module
        self.machine = machine
        self.threads = resolve_threads(machine, threads)
        self.report = CostReport(machine=machine, threads=self.threads)
        self._program = program_for(module, machine, self.ROW)

    def _entry(self, name: str, count: int) -> _CompiledFunction:
        """Hook: the compiled function a run of ``name`` calls, looked up
        (compiled the first time) with no argument written yet — the last
        point a taxonomy error may be raised (``FAILS_BEFORE_FIRST_STORE``;
        the native engine raises a missing toolchain or a failed unit's
        build here)."""
        return self._program.entry(name, count)

    def _make_state(self) -> _State:
        """Per-run execution state hook (the multicore engine attaches its
        shard-dispatch context here), on the run's own work frames: a run
        that raises leaves none behind."""
        return _State(self.report, self.threads, [0.0], self._program)

    def run(self, function_name: str, arguments: Sequence = ()) -> List:
        """Execute ``function_name`` with the given arguments (Interpreter API)."""
        count = len(arguments)
        compiled = self._entry(function_name, count)
        state = self._make_state()
        regs = compiled.template[:]
        # the parameters hold the first slots (``_FunctionCompiler.compile``)
        regs[:count] = map(self._wrap_argument, arguments, range(count),
                           compiled.memrefs)
        try:
            compiled.runner(state, regs)
        except _BarrierEscape:
            raise InterpreterError("barrier executed outside a parallel context") from None
        return_slots = compiled.return_slots
        results = [regs[s] for s in return_slots] if return_slots else []
        self.report.cycles += state.work[0]
        return results

    #: hook: the multicore engine tracks the storages it may promote.
    _wrap_argument = staticmethod(wrap_argument)

    @property
    def regions(self) -> List[Dict]:
        """Per region compiled so far: its function, its kind, the tier that
        took it, the reason each faster tier of this engine gave for
        declining it (compile-time facts), the iterations its native code
        steps at once (``width``), the ``-O`` level its native dispatches
        run at (``opt_level``: ``"-O1"``, or ``"-O3"`` once its unit
        promoted; both ``None`` off the native tier), whether a warm run of
        its function is one dispatcher call (``entry_call``; ``None`` off
        the native tier, and the plan's ``entry`` refusal says why not) and,
        by reason, the dispatches its native code refused at run time
        (``bailouts``; they sum to ``native_stats["bailouts"]``)."""
        program = self._program
        asked = ((self.ROW, *self._SHOWN) if program.dispatcher is not None
                 else (self.ROW,))
        rows = []
        for region in program.regions:
            plan, handle = region.plan, region.handle
            rows.append({"function": region.function, "kind": plan.kind,
                         "tier": region.tier,
                         "refusals": [f"{capability}: {reason}"
                                      for capability, reason in plan.refusals
                                      if capability in asked],
                         "width": None if handle is None else handle.width,
                         "opt_level": None if handle is None else handle.unit.level,
                         "entry_call": (None if handle is None
                                        else handle.unit.entry is not None),
                         "bailouts": dict(program.bailouts.get(id(plan), ()))})
        return rows

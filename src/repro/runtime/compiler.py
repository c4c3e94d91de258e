"""Compiled execution engine: one-time translation of IR to Python closures.

The tree-walking :class:`~repro.runtime.interpreter.Interpreter` re-dispatches
on the operation type for every dynamic operation and copies the whole
environment dictionary per loop iteration and per SIMT thread.  This module
removes that hot-path overhead by *compiling* each function once:

* **SSA value numbering** — every SSA value of a function gets a flat integer
  slot in a per-invocation register list.  Loop iterations reuse slots in
  place (SSA dominance guarantees dead values are never read), so the
  per-iteration ``dict(env)`` copy disappears entirely; SIMT threads take a
  flat ``regs[:]`` list copy instead of a dict copy.
* **specialized closures** — each operation compiles to a small closure with
  operand slots, cost constants and type coercions resolved at compile time;
  straight-line block bodies are stitched into generated straight-line code
  (the ``generate_ast``-style "lower once, execute many" idiom).  Pure
  scalar ops are rendered from their :mod:`~repro.runtime.optable` row.
* **lazy iteration spaces** — ``scf.parallel`` / ``omp.wsloop`` iteration
  spaces are ``itertools.product`` streams, never materialized lists.
* **compiled barrier phases** — bodies whose barriers sit in straight-line
  position compile to an explicit list of *phase closures* executed
  phase-by-phase over all threads with no generators at all; bodies with
  barriers under control flow fall back to compiled *generator* closures
  scheduled by the same barrier-phase loop the interpreter uses.

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
and ``shards`` in the native and multicore engines.

Compiled programs are cached on the module object itself, keyed by the
engine row and the machine model (cost constants are baked into the
closures), next to the module's region plans.  The cache
assumes the module is not mutated after its first compiled run — call
:func:`invalidate_compiled` after transforming an already-executed module.
"""

from __future__ import annotations

from importlib import import_module
from itertools import islice, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.region import LAUNCH, SIMT, RegionPlan, RegionPlans
from ..analysis.structure import (BARRIER_OPS as _BARRIER_OPS,
                                  split_executed as _split_executed)
from ..dialects import arith, func as func_d, gpu as gpu_d, memref as memref_d
from ..dialects import omp as omp_d, scf
from .costmodel import (CostReport, MachineModel, XEON_8375C,
                        machine_vectorizable, op_cost)
from .errors import InterpreterError
from .memory import MemRefStorage
from .optable import ALLOC_CYCLES, cycles, python_expr, row_for

_BARRIER = object()  # yielded by compiled generator closures at barriers

#: attribute used to cache compiled programs on the module operation.
_CACHE_ATTR = "_compiled_programs"


class _BarrierEscape(Exception):
    """A barrier executed in a context that cannot suspend (compiled code)."""


class _State:
    """Mutable per-run execution state shared by all compiled closures.

    ``shard`` is the multicore engine's dispatch context (worker pool +
    worker count); it is ``None`` for the compiled/vectorized engines and
    inside worker processes, which makes every shard-capable region runner
    fall through to plain in-process execution.

    ``strict`` is set by the resilience layer
    (:class:`~repro.runtime.resilience.ResilientExecutor`): strict runs
    raise their taxonomy error instead of silently degrading, so the
    fallback chain owns the degradation decision.  It lives here rather
    than on the program because programs are cached on the module and
    shared across engine instances.
    """

    __slots__ = ("report", "threads", "work", "max_ops", "program", "shard",
                 "strict")

    def __init__(self, report: CostReport, threads: int, work: List[float],
                 max_ops: Optional[int], program: "_Program",
                 shard=None, strict: bool = False) -> None:
        self.report = report
        self.threads = threads
        self.work = work
        self.max_ops = max_ops
        self.program = program
        self.shard = shard
        self.strict = strict


class _CompiledFunction:
    """One function lowered to closures: register template + body runner."""

    __slots__ = ("name", "template", "arg_slots", "return_slots", "runner", "is_gen")

    def __init__(self, name: str, template: List, arg_slots: List[int],
                 return_slots: List[int], runner: Callable, is_gen: bool) -> None:
        self.name = name
        self.template = template
        self.arg_slots = arg_slots
        self.return_slots = return_slots
        self.runner = runner
        self.is_gen = is_gen


#: the four engines as fixed rows: which *body planner* turns a region's
#: phases into a runner, and which *dispatcher* (if any) may take a whole
#: region elsewhere, with the shell's in-process run as its fallback.  Named
#: ``module:function`` and resolved on first use, because those modules
#: import this one.
_ROWS = {
    "compiled": ("compiler:closures", None),
    "vectorized": ("vectorizer:lanes", None),
    "native": ("compiler:closures", "native:native"),
    "multicore": ("compiler:closures", "multicore:shards"),
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
        planner, dispatcher = _ROWS[row]
        self.planner = _resolve(planner)
        self.dispatcher = _resolve(dispatcher)
        self._functions: Dict[Tuple[int, bool], _CompiledFunction] = {}
        self._speedups: Dict[int, float] = {}
        # cost constants baked into memory-access closures
        self.local_cost = machine.local_access_cost
        self.global_base = machine.global_access_cost * machine.hbm_bandwidth_factor
        #: lanes, emitted C and worker shards all charge analytically
        #: (cost x count, regrouped per lane / thread / worker), which equals
        #: the interpreter's sequential sum only for dyadic access costs.
        self.exact_costs = machine_vectorizable(machine)
        #: one ``(function, plan, tier)`` per compiled region, in compile order.
        self.regions: List[Tuple[str, RegionPlan, str]] = []
        #: compile-time counters, filled as functions are first compiled
        #: (``bailouts`` / ``native_dispatches`` / ``dispatches`` /
        #: ``inline_runs`` and the unit counters move at run time).
        self.vector_stats = {
            "vectorized_regions": 0, "mixed_regions": 0, "fallback_regions": 0,
            "vectorized_phases": 0, "closure_phases": 0,
        }
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

    def function(self, fn: func_d.FuncOp, gen: bool) -> _CompiledFunction:
        key = (id(fn), gen)
        compiled = self._functions.get(key)
        if compiled is None:
            compiled = self._functions[key] = _FunctionCompiler(self, fn, gen).compile()
        return compiled

    def speedup(self, threads: int) -> float:
        cached = self._speedups.get(threads)
        if cached is None:
            cached = self._speedups[threads] = self.machine.effective_speedup(threads)
        return cached

    def exact_or_refuse(self, plan: RegionPlan) -> bool:
        """Whether this row's analytic charging is exact on this machine;
        records the refusal on ``plan`` when it is not."""
        if not self.exact_costs:
            plan.refuse(self.row, "machine model is not dyadic")
        return self.exact_costs


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
    env construction; shared by the compiled SIMT path and the vectorized
    engine's mixed-mode launch runner so the register layout cannot diverge.
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
    prebound shared alloca), then the planner's ``body``, the in-process
    ``base`` run and the accounting around it (``count``, ``finish``,
    ``message``) — and hands it to the row's planner and dispatcher, which
    name the ``tier`` that took the region.
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
class _FunctionCompiler:
    """Translates one function body to slot-addressed closures."""

    def __init__(self, program: _Program, fn: func_d.FuncOp, gen: bool) -> None:
        self.program = program
        self.may_yield = program.plans.op_may_yield
        self.fn = fn
        self.gen_mode = gen
        self._slots: Dict[int, int] = {}
        self.template: List = []
        self._prebound: set = set()  # result ids of launch-prebound shared allocas
        self._uid = 0  # unique suffix for names captured by generated source
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
        runner = self.compile_block(self.fn.body_block, gen=self.gen_mode)
        _, term = _split_executed(self.fn.body_block)
        return_slots = self.slots(term.operands) if isinstance(term, func_d.ReturnOp) else []
        return _CompiledFunction(self.fn.sym_name, self.template, arg_slots,
                                 return_slots, runner, self.gen_mode)

    # -- block compilation ----------------------------------------------------
    def compile_block(self, block, gen: bool) -> Callable:
        """Compile a block to a runner closure (generator closure if ``gen``)."""
        ops, term = _split_executed(block)
        nops = len(ops) + (1 if term is not None else 0)
        items = []
        for op in ops:
            item = self.compile_op(op, gen)
            if item is not None:
                items.append(item)
        return _build_runner(items, nops, gen)

    def compile_phase(self, ops: Sequence, nops: int) -> Callable:
        """Compile one barrier-delimited phase (``RegionPlan.phases`` entry)."""
        steps = [item for item in (self.compile_op(op, gen=False) for op in ops)
                 if item is not None]
        return _build_runner(steps, nops, gen=False)

    # -- op compilation --------------------------------------------------------
    def compile_op(self, op, gen: bool):
        """Compile one op to an item ``(kind, closure)`` with kind ``'p'``
        (plain step), ``'g'`` (generator step) or ``'b'`` (barrier yield);
        returns ``None`` for ops with no runtime action (constants)."""
        if isinstance(op, _BARRIER_OPS):
            if gen:
                return ("b", None)
            def barrier(state, regs):
                raise _BarrierEscape()
            return ("p", barrier)
        if isinstance(op, arith.ConstantOp):
            self.template[self.slot(op.result)] = op.value
            return None
        if isinstance(op, memref_d.DimOp):
            return ("p", self._c_dim(op))
        row = row_for(op)
        if row is not None:
            return self._c_scalar(op, row)
        if isinstance(op, memref_d.AllocOp):  # covers AllocaOp
            if id(op.result) in self._prebound:
                return None
            return ("p", self._c_alloc(op))
        if isinstance(op, memref_d.DeallocOp):
            return ("p", self._c_dealloc(op))
        if isinstance(op, memref_d.LoadOp):
            return self._c_load(op)
        if isinstance(op, memref_d.StoreOp):
            return self._c_store(op)
        if isinstance(op, memref_d.CopyOp):
            return ("p", self._c_copy(op))
        if isinstance(op, func_d.CallOp):
            return self._c_call(op, gen)
        if isinstance(op, scf.ForOp):
            if gen and self.may_yield(op):
                return ("g", self._c_for(op, gen=True))
            return ("p", self._c_for(op, gen=False))
        if isinstance(op, scf.IfOp):
            if gen and self.may_yield(op):
                return ("g", self._c_if(op, gen=True))
            return ("p", self._c_if(op, gen=False))
        if isinstance(op, scf.WhileOp):
            if gen and self.may_yield(op):
                return ("g", self._c_while(op, gen=True))
            return ("p", self._c_while(op, gen=False))
        if isinstance(op, scf.ParallelOp):
            return ("p", self._c_scf_parallel(op))
        if isinstance(op, gpu_d.LaunchOp):
            return ("p", self._c_gpu_launch(op))
        if isinstance(op, gpu_d.GPUAllocOp):
            return ("p", self._c_gpu_alloc(op))
        if isinstance(op, gpu_d.GPUDeallocOp):
            return ("p", self._c_gpu_dealloc(op))
        if isinstance(op, gpu_d.GPUMemcpyOp):
            return ("p", self._c_gpu_memcpy(op))
        if isinstance(op, omp_d.OmpParallelOp):
            return ("p", self._c_omp_parallel(op))
        if isinstance(op, omp_d.OmpWsLoopOp):
            return ("p", self._c_omp_wsloop(op))
        if isinstance(op, omp_d.OmpBarrierOp):
            return ("p", self._c_omp_barrier(op))
        if isinstance(op, omp_d.OmpSingleOp):
            return ("p", self._c_omp_single(op))
        message = f"no interpretation for op {op.name}"
        def unsupported(state, regs):
            raise InterpreterError(message)
        return ("p", unsupported)

    # -- scalar ops (inlined into the generated block source) -------------------
    def _c_scalar(self, op, row):
        """Every pure scalar op, rendered from its :mod:`optable` row."""
        ns = {}
        operands = [f"regs[{self.slot(value)}]" for value in op.operands]
        target = self.slot(op.result)
        expr = python_expr(row, operands, ns, self._name)
        return ("src", [f"w[-1] += {cycles(row)!r}",
                        f"regs[{target}] = {expr}"], ns)

    # -- memory ops -------------------------------------------------------------
    def _c_alloc(self, op):
        size_slots = self.slots(op.operands)
        ds = self.slot(op.result)
        mtype = op.memref_type
        allocate = MemRefStorage.allocate
        def step(state, regs):
            sizes = [int(regs[s]) for s in size_slots]
            storage = allocate(mtype, sizes)
            state.work[-1] += ALLOC_CYCLES
            regs[ds] = storage
        return step

    def _c_dealloc(self, op):
        ms = self.slot(op.memref)
        def step(state, regs):
            regs[ms].free()  # raises on double free (centralized in storage)
            state.work[-1] += ALLOC_CYCLES
        return step

    def _mem_cost_prefix(self):
        return self.program.local_cost, self.program.global_base

    def _access_lines(self, memref_slot: int) -> List[str]:
        """Shared prologue of a load/store: liveness check + access charge.

        Leaves the storage in ``_s`` and its array in ``_a``; the
        use-after-free guard is centralized in ``MemRefStorage.check_alive``,
        and the cost and traffic accounting replicates ``memory_access_cost``
        exactly (memory space and element width are runtime properties of the
        buffer).
        """
        local_cost, global_base = self._mem_cost_prefix()
        return [
            f"_s = regs[{memref_slot}]",
            "_a = _s.check_alive()",
            "_sp = _s.memory_space",
            "if _sp == 'shared' or _sp == 'local':",
            f"    w[-1] += {local_cost!r}",
            "else:",
            "    _eb = _a.itemsize",
            f"    w[-1] += {global_base!r} * max(1.0, _eb / 4.0)",
            "    if _sp == 'global':",
            "        report.global_bytes += _eb",
        ]

    @staticmethod
    def _index_expr(idx_slots: Sequence[int]) -> str:
        return ", ".join(f"int(regs[{s}])" for s in idx_slots)

    def _c_load(self, op):
        ms = self.slot(op.memref)
        idx_slots = self.slots(op.indices)
        ds = self.slot(op.result)
        if not idx_slots:
            access = f"regs[{ds}] = _a.item()"
        elif len(idx_slots) == 1:
            access = f"regs[{ds}] = _a.item({self._index_expr(idx_slots)})"
        else:
            access = f"regs[{ds}] = _a.item(({self._index_expr(idx_slots)}))"
        return ("src", [*self._access_lines(ms), access], {})

    def _c_store(self, op):
        vs = self.slot(op.value)
        ms = self.slot(op.memref)
        idx_slots = self.slots(op.indices)
        target = self._index_expr(idx_slots) if idx_slots else "()"
        access = f"_a[{target}] = regs[{vs}]"
        return ("src", [*self._access_lines(ms), access], {})

    def _c_dim(self, op):
        ms, ds = self.slot(op.memref), self.slot(op.result)
        dim = op.dim
        def step(state, regs):
            regs[ds] = int(regs[ms].check_alive().shape[dim])
        return step

    def _c_copy(self, op):
        ss, ds = self.slot(op.source), self.slot(op.destination)
        _, global_base = self._mem_cost_prefix()
        def step(state, regs):
            source = regs[ss]
            destination = regs[ds]
            destination.copy_from(source)  # checks both buffers' liveness
            element_bytes = int(source.array.itemsize)
            state.work[-1] += (2.0 * int(source.array.size)
                               * (global_base * max(1.0, element_bytes / 4.0)))
            state.report.global_bytes += 2 * int(source.array.nbytes)
        return step

    # -- functions ---------------------------------------------------------------
    def _c_call(self, op, gen: bool):
        program = self.program
        callee = program.module.lookup(op.callee)
        if callee is None or callee.is_declaration:
            message = f"call to unknown function {op.callee!r}"
            def unknown(state, regs):
                raise InterpreterError(message)
            return ("p", unknown)
        use_gen = gen and program.plans.function_may_yield(callee)
        arg_slots = self.slots(op.operands)
        res_slots = self.slots(op.results)
        cost = op_cost("func.call")
        cell: List[Optional[_CompiledFunction]] = [None]
        if use_gen:
            def step(state, regs):
                compiled = cell[0]
                if compiled is None:
                    compiled = cell[0] = program.function(callee, True)
                state.work[-1] += cost
                inner = compiled.template[:]
                for dst, src in zip(compiled.arg_slots, arg_slots):
                    inner[dst] = regs[src]
                yield from compiled.runner(state, inner)
                for dst, src in zip(res_slots, compiled.return_slots):
                    regs[dst] = inner[src]
            return ("g", step)
        def step(state, regs):
            compiled = cell[0]
            if compiled is None:
                compiled = cell[0] = program.function(callee, False)
            state.work[-1] += cost
            inner = compiled.template[:]
            for dst, src in zip(compiled.arg_slots, arg_slots):
                inner[dst] = regs[src]
            compiled.runner(state, inner)
            for dst, src in zip(res_slots, compiled.return_slots):
                regs[dst] = inner[src]
        return ("p", step)

    # -- structured control flow ---------------------------------------------------
    def _c_for(self, op, gen: bool):
        lb, ub, st = self.slot(op.lower_bound), self.slot(op.upper_bound), self.slot(op.step)
        iv_slot = self.slot(op.induction_var)
        init_slots = self.slots(op.iter_init)
        iter_slots = self.slots(op.iter_args)
        result_slots = self.slots(op.results)
        body = self.compile_block(op.body, gen=gen and self.may_yield(op))
        _, term = _split_executed(op.body)
        yield_slots = (self.slots(term.operands)
                       if isinstance(term, scf.YieldOp) and result_slots else None)
        cost = op_cost("scf.for")
        if gen:
            def run(state, regs):
                work = state.work
                work[-1] += cost
                lower = int(regs[lb])
                upper = int(regs[ub])
                step = int(regs[st])
                if step <= 0:
                    raise InterpreterError("scf.for requires a positive step")
                carried = [regs[s] for s in init_slots]
                iv = lower
                while iv < upper:
                    regs[iv_slot] = iv
                    for dst, value in zip(iter_slots, carried):
                        regs[dst] = value
                    yield from body(state, regs)
                    if yield_slots is not None:
                        carried = [regs[s] for s in yield_slots]
                    iv += step
                    work[-1] += cost
                for dst, value in zip(result_slots, carried):
                    regs[dst] = value
            return run
        if not iter_slots:
            def run(state, regs):
                work = state.work
                work[-1] += cost
                lower = int(regs[lb])
                upper = int(regs[ub])
                step = int(regs[st])
                if step <= 0:
                    raise InterpreterError("scf.for requires a positive step")
                iv = lower
                while iv < upper:
                    regs[iv_slot] = iv
                    body(state, regs)
                    iv += step
                    work[-1] += cost
            return run
        def run(state, regs):
            work = state.work
            work[-1] += cost
            lower = int(regs[lb])
            upper = int(regs[ub])
            step = int(regs[st])
            if step <= 0:
                raise InterpreterError("scf.for requires a positive step")
            carried = [regs[s] for s in init_slots]
            iv = lower
            while iv < upper:
                regs[iv_slot] = iv
                for dst, value in zip(iter_slots, carried):
                    regs[dst] = value
                body(state, regs)
                if yield_slots is not None:
                    carried = [regs[s] for s in yield_slots]
                iv += step
                work[-1] += cost
            for dst, value in zip(result_slots, carried):
                regs[dst] = value
        return run

    def _branch_copy_pairs(self, op, block):
        """(result_slot, yielded_slot) pairs for one scf.if branch."""
        if block is None or not op.results:
            return None
        _, term = _split_executed(block)
        if not isinstance(term, scf.YieldOp):
            return []
        return list(zip(self.slots(op.results), self.slots(term.operands)))

    def _c_if(self, op, gen: bool):
        cs = self.slot(op.condition)
        has_results = bool(op.results)
        then_gen = gen and any(self.may_yield(o) for o in op.then_block.operations)
        then_run = self.compile_block(op.then_block, gen=then_gen)
        then_copy = self._branch_copy_pairs(op, op.then_block) or []
        else_block = op.else_block
        if else_block is not None:
            else_gen = gen and any(self.may_yield(o) for o in else_block.operations)
            else_run = self.compile_block(else_block, gen=else_gen)
            else_copy = self._branch_copy_pairs(op, else_block) or []
        else:
            else_run = None
            else_copy = []
        cost = op_cost("scf.if")
        if gen:
            def run(state, regs):
                state.work[-1] += cost
                if regs[cs]:
                    result = then_run(state, regs)
                    if result is not None:
                        yield from result
                    for dst, src in then_copy:
                        regs[dst] = regs[src]
                elif else_run is not None:
                    result = else_run(state, regs)
                    if result is not None:
                        yield from result
                    for dst, src in else_copy:
                        regs[dst] = regs[src]
                elif has_results:
                    raise InterpreterError("scf.if with results requires an else branch")
            return run
        def run(state, regs):
            state.work[-1] += cost
            if regs[cs]:
                then_run(state, regs)
                for dst, src in then_copy:
                    regs[dst] = regs[src]
            elif else_run is not None:
                else_run(state, regs)
                for dst, src in else_copy:
                    regs[dst] = regs[src]
            elif has_results:
                raise InterpreterError("scf.if with results requires an else branch")
        return run

    def _c_while(self, op, gen: bool):
        init_slots = self.slots(op.init_args)
        before_args = self.slots(op.before_block.arguments)
        before_gen = gen and any(self.may_yield(o)
                                 for o in op.before_block.operations)
        before_run = self.compile_block(op.before_block, gen=before_gen)
        _, before_term = _split_executed(op.before_block)
        if isinstance(before_term, scf.ConditionOp):
            cond_slot = self.slot(before_term.condition)
            fwd_slots = self.slots(before_term.forwarded)
        else:
            cond_slot = None
            fwd_slots = []
        after_args = self.slots(op.after_block.arguments)
        after_gen = gen and any(self.may_yield(o)
                                for o in op.after_block.operations)
        after_run = self.compile_block(op.after_block, gen=after_gen)
        _, after_term = _split_executed(op.after_block)
        yield_slots = self.slots(after_term.operands) if isinstance(after_term, scf.YieldOp) else None
        result_slots = self.slots(op.results)
        cost = op_cost("scf.while")
        if gen:
            def run(state, regs):
                work = state.work
                carried = [regs[s] for s in init_slots]
                while True:
                    work[-1] += cost
                    for dst, value in zip(before_args, carried):
                        regs[dst] = value
                    result = before_run(state, regs)
                    if result is not None:
                        yield from result
                    if cond_slot is None:
                        raise InterpreterError(
                            "scf.while before-region did not reach scf.condition")
                    proceed = regs[cond_slot]
                    forwarded = [regs[s] for s in fwd_slots]
                    if not proceed:
                        for dst, value in zip(result_slots, forwarded):
                            regs[dst] = value
                        return
                    for dst, value in zip(after_args, forwarded):
                        regs[dst] = value
                    result = after_run(state, regs)
                    if result is not None:
                        yield from result
                    carried = ([regs[s] for s in yield_slots]
                               if yield_slots is not None else forwarded)
            return run
        def run(state, regs):
            work = state.work
            carried = [regs[s] for s in init_slots]
            while True:
                work[-1] += cost
                for dst, value in zip(before_args, carried):
                    regs[dst] = value
                before_run(state, regs)
                if cond_slot is None:
                    raise InterpreterError(
                        "scf.while before-region did not reach scf.condition")
                proceed = regs[cond_slot]
                forwarded = [regs[s] for s in fwd_slots]
                if not proceed:
                    for dst, value in zip(result_slots, forwarded):
                        regs[dst] = value
                    return
                for dst, value in zip(after_args, forwarded):
                    regs[dst] = value
                after_run(state, regs)
                carried = ([regs[s] for s in yield_slots]
                           if yield_slots is not None else forwarded)
        return run

    # -- parallel regions -------------------------------------------------------
    #
    # One shell per region kind.  The shell owns what every engine shares —
    # the slots, the report counter, the work frame, the barrier-escape
    # message and the wall-clock epilogue — and composes the two callables of
    # the program's row (``_ROWS``).  The *body planner* builds the runner of
    # the region body: ``run_span(state, regs, ranges, start, stop)`` for
    # spans, ``run_grid(state, regs, ranges, total) -> phases`` for SIMT
    # regions, ``run_blocks(state, regs, grid, block, start, stop)`` for
    # launches; the start/stop forms execute any contiguous sub-span, which
    # is what the multicore dispatcher ships to its workers.  The
    # *dispatcher*, if the row has one, may return a runner that takes the
    # whole region elsewhere and falls back to the shell's ``base``.  Run
    # closures capture what they need as locals: no plan or region object is
    # read at run time.
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

    def _dispatched(self, region: _Region) -> Callable:
        """Offer a planned region to the row's dispatcher; ``base`` otherwise."""
        dispatcher = self.program.dispatcher
        run = None
        if dispatcher is not None:
            self.offered += 1
            run = dispatcher(self, region)
        self.program.regions.append((self.fn.sym_name, region.plan, region.tier))
        return region.base if run is None else run

    def _span_shell(self, op, count: Callable, message: str,
                    finish: Callable) -> Callable:
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

    def _c_scf_parallel(self, op):
        if self.program.plans.plan(op).kind == SIMT:
            return self._c_scf_parallel_simt(op)

        def count(state):
            state.report.parallel_regions += 1
        return self._span_shell(
            op, count, "unexpected barrier in barrier-free parallel loop",
            self._parallel_accounting())

    def _c_scf_parallel_simt(self, op):
        # grid-wide barrier phases always run in this process: there is no
        # dispatcher to offer them to (a cross-worker phase join would be
        # needed, and the C emitter scopes barriers per block).
        region = self._region(op)
        lb_slots, ub_slots, st_slots = region.bounds
        machine = self.program.machine
        fork_cost = machine.fork_cost
        phase_cost = machine.simt_phase_cost
        run_grid = self.program.planner(self, region)
        self.program.regions.append((self.fn.sym_name, region.plan, region.tier))

        def run(state, regs):
            ranges, total = _iteration_space(regs, lb_slots, ub_slots, st_slots)
            state.report.parallel_regions += 1
            work_stack = state.work
            work_stack.append(0.0)
            phases = run_grid(state, regs, ranges, total)
            state.report.simt_phases += phases
            work = work_stack.pop()
            threads = min(state.threads, max(1, total))
            wall = (fork_cost + work / state.program.speedup(threads)
                    + phases * phase_cost)
            work_stack[-1] += wall
        return run

    def _c_gpu_launch(self, op):
        region = self._region(op)
        region.message = "barrier executed outside a parallel context"
        grid_slots, block_slots = region.bounds
        saved_prebound = self._prebound
        self._prebound = saved_prebound | {
            id(alloca.result) for alloca in region.plan.shared_allocas}
        try:
            run_blocks = region.body = self.program.planner(self, region)
        finally:
            self._prebound = saved_prebound

        def base(state, regs):
            grid = [int(regs[s]) for s in grid_slots]
            block = [int(regs[s]) for s in block_slots]
            run_blocks(state, regs, grid, block, 0, grid[0] * grid[1] * grid[2])
        region.base = base
        return self._dispatched(region)

    def _c_gpu_alloc(self, op):
        size_slots = self.slots(op.operands)
        ds = self.slot(op.result)
        mtype = op.result.type
        allocate = MemRefStorage.allocate
        def step(state, regs):
            regs[ds] = allocate(mtype, [int(regs[s]) for s in size_slots])
        return step

    def _c_gpu_dealloc(self, op):
        ms = self.slot(op.memref)
        def step(state, regs):
            regs[ms].free()  # raises on double free (centralized in storage)
        return step

    def _c_gpu_memcpy(self, op):
        ds, ss = self.slot(op.destination), self.slot(op.source)
        def step(state, regs):
            regs[ds].copy_from(regs[ss])  # checks both buffers' liveness
        return step

    # -- OpenMP -------------------------------------------------------------------
    def _c_omp_parallel(self, op):
        nested = op.nest_level > 0
        body = self.compile_block(op.body, gen=False)
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
        return run

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

    def _c_omp_wsloop(self, op):
        def count(state):
            state.report.workshared_loops += 1
        return self._span_shell(op, count, "GPU barrier inside a workshared loop",
                                self._wsloop_accounting(op))

    def _c_omp_barrier(self, op):
        sync_cost = self.program.machine.sync_cost
        def step(state, regs):
            state.report.barriers += 1
            state.work[-1] += sync_cost
        return step

    def _c_omp_single(self, op):
        body = self.compile_block(op.body, gen=False)
        def run(state, regs):
            try:
                body(state, regs)
            except _BarrierEscape:
                raise InterpreterError("GPU barrier inside omp.single") from None
        return run


# ---------------------------------------------------------------------------
# The closure body planner
# ---------------------------------------------------------------------------
def _simt_driver(fc: _FunctionCompiler, plan: RegionPlan,
                 chunks: Optional[List[Callable]]) -> Callable:
    """A SIMT body as a phase driver ``run_simt(state, thread_regs) -> phases``:
    one closure per phase, run phase-by-phase over all threads, when barriers
    are straight-line; compiled generator closures scheduled by the
    interpreter's barrier-phase loop otherwise."""
    if plan.phases is not None:
        if chunks is None:
            chunks = [fc.compile_phase(ops, nops) for ops, nops in plan.phases]

        def run_simt(state, thread_regs, _chunks=chunks):
            if not thread_regs:
                return 0
            for chunk in _chunks:
                for regs in thread_regs:
                    chunk(state, regs)
            return len(_chunks)
    else:
        body = fc.compile_block(plan.op.body, gen=True)

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


def closures(fc: _FunctionCompiler, region: _Region,
             chunks: Optional[List[Callable]] = None) -> Callable:
    """The compiled engine's body planner: every thread / iteration runs the
    region's phases as Python closures over its own register list.

    ``chunks`` are the plan's phases already compiled by a planner that
    tried something faster first and fell back here, so that no body is
    translated twice.
    """
    plan = region.plan
    region.tier = "closures"
    index_slots = region.index_slots
    if plan.kind == LAUNCH:
        run_simt = _simt_driver(fc, plan, chunks)
        shared_allocas = region.shared

        def run_blocks(state, regs, grid, block, start, stop):
            g0, g1 = grid[0], grid[1]
            report = state.report
            for linear in range(start, stop):
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
        run_simt = _simt_driver(fc, plan, chunks)

        def run_grid(state, regs, ranges, total):
            return run_simt(state, build_parallel_thread_regs(
                regs, index_slots, product(*ranges)))
        return run_grid
    body, = chunks or [fc.compile_phase(*plan.phases[0])]

    def run_span(state, regs, ranges, start, stop):
        for point in _span_points(ranges, start, stop):
            for dst, value in zip(index_slots, point):
                regs[dst] = value
            body(state, regs)
    return run_span


# ---------------------------------------------------------------------------
# Block-runner code generation
# ---------------------------------------------------------------------------
def _build_runner(items: Sequence[Tuple], nops: int, gen: bool) -> Callable:
    """Stitch compiled items into one straight-line block runner.

    The runner batches the block's dynamic-op count into a single increment
    (every op of a block executes exactly once per block execution), splices
    inlined op source (``src`` items) directly into the generated body, and
    invokes the remaining step closures without any per-op dispatch.  ``gen``
    blocks become generator functions yielding at barriers.
    """
    namespace = {"_IE": InterpreterError, "_B": _BARRIER}
    lines = [
        "def run(state, regs):",
        "    report = state.report",
        f"    report.dynamic_ops += {nops}",
        "    if state.max_ops is not None and report.dynamic_ops > state.max_ops:",
        "        raise _IE('dynamic operation budget exceeded')",
        "    w = state.work",
    ]
    needs_yield = False
    for index, item in enumerate(items):
        kind = item[0]
        if kind == "src":
            _, src_lines, ns = item
            namespace.update(ns)
            lines.extend(f"    {line}" for line in src_lines)
        elif kind == "p":
            namespace[f"s{index}"] = item[1]
            lines.append(f"    s{index}(state, regs)")
        elif kind == "g":
            namespace[f"s{index}"] = item[1]
            lines.append(f"    yield from s{index}(state, regs)")
            needs_yield = True
        else:  # barrier
            lines.append("    yield _B")
            needs_yield = True
    if gen and not needs_yield:
        lines.append("    if False:")
        lines.append("        yield None")
    exec("\n".join(lines), namespace)  # noqa: S102 - compile-time codegen
    return namespace["run"]


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

    def _make_state(self) -> _State:
        """Per-run execution state hook (the multicore engine attaches its
        shard-dispatch context here)."""
        return _State(self.report, self.threads, self._work,
                      self.max_dynamic_ops, self._program,
                      strict=getattr(self, "_resilience_strict", False))

    def run(self, function_name: str, arguments: Sequence = ()) -> List:
        """Execute ``function_name`` with the given arguments (Interpreter API)."""
        fn = self.module.lookup(function_name)
        if fn is None or fn.is_declaration:
            raise InterpreterError(f"no function body for {function_name!r}")
        if len(arguments) != len(fn.arguments):
            raise InterpreterError(
                f"{fn.sym_name}: expected {len(fn.arguments)} arguments, got {len(arguments)}")
        compiled = self._program.function(fn, gen=False)
        state = self._make_state()
        regs = compiled.template[:]
        for slot, argument in zip(compiled.arg_slots, arguments):
            regs[slot] = self._wrap_argument(argument)
        try:
            compiled.runner(state, regs)
        except _BarrierEscape:
            raise InterpreterError("barrier executed outside a parallel context") from None
        results = [regs[s] for s in compiled.return_slots]
        if self.collect_cost:
            self.report.cycles += self._work[0]
        self._work[0] = 0.0
        return results

    @staticmethod
    def _wrap_argument(argument):
        if isinstance(argument, np.ndarray):
            return MemRefStorage.from_numpy(argument)
        return argument

    @property
    def regions(self) -> List[Dict]:
        """Per region compiled so far: its function, its kind, the tier that
        took it and the reason each faster tier of this engine gave for
        declining it (compile-time facts; run-time bailouts stay counters)."""
        asked = ((self.ROW, "parallel") if self._program.dispatcher is not None
                 else (self.ROW,))
        return [{"function": function, "kind": plan.kind, "tier": tier,
                 "refusals": [f"{capability}: {reason}"
                              for capability, reason in plan.refusals
                              if capability in asked]}
                for function, plan, tier in self._program.regions]

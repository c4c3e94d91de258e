"""IR interpreter with cost accounting.

One interpreter covers both execution modes the evaluation needs:

* **reference (oracle) execution** — a module straight out of the frontend,
  still containing ``gpu.launch``, runs with genuine SIMT semantics: every
  block executes its threads in barrier-delimited phases, so
  ``__syncthreads`` behaves exactly as on a GPU.  This is the correctness
  oracle every transformed module is compared against, and the only SIMT
  executor: the compiled engines run an un-lowered region through
  :meth:`Interpreter.run_region`.
* **simulated CPU execution** — a module lowered by ``cpuify`` runs its
  ``omp.parallel`` / ``omp.wsloop`` structure under the analytic cost model
  of :mod:`repro.runtime.costmodel`, producing a :class:`CostReport` whose
  ``cycles`` are the "runtime" all benchmarks report.

Memory behaviour is always executed exactly (numpy buffers), so outputs can
be compared bit-for-bit (or within float tolerance) between the two modes.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence

from ..ir import Operation, Value
from ..dialects import func as func_d, gpu as gpu_d, memref as memref_d
from ..dialects import omp as omp_d, polygeist, scf
from .costmodel import (
    CostReport,
    MachineModel,
    XEON_8375C,
    memory_access_cost,
    op_cost,
    resolve_threads,
)
from .errors import ZERO_STEP, InterpreterError, arity_error
from .memory import MemRefStorage, is_memref_parameter, wrap_argument
from .optable import ALLOC_CYCLES, cycles, row_for

_BARRIER = object()  # sentinel yielded by the execution generator at barriers


class Interpreter:
    """Executes a module and accounts simulated cycles."""

    def __init__(self, module: func_d.ModuleOp, machine: MachineModel = XEON_8375C,
                 threads: Optional[int] = None) -> None:
        self.module = module
        self.machine = machine
        self.threads = resolve_threads(machine, threads)
        self.report = CostReport(machine=machine, threads=self.threads)
        self._work_stack: List[float] = [0.0]

    # ------------------------------------------------------------------ API --
    def run(self, function_name: str, arguments: Sequence = ()) -> List:
        """Execute ``function_name`` with the given arguments.

        numpy arrays are wrapped into :class:`MemRefStorage` automatically (and
        modified in place, so callers can inspect outputs afterwards).
        """
        fn = self.module.lookup(function_name)
        if fn is None or fn.is_declaration:
            raise InterpreterError(f"no function body for {function_name!r}")
        params = fn.arguments
        if len(arguments) != len(params):
            raise arity_error(fn, len(arguments))
        runtime_args = [wrap_argument(argument, index, is_memref_parameter(param))
                        for index, (argument, param) in enumerate(zip(arguments, params))]
        # the run's own work frames: a run that raises leaves none behind
        work = self._work_stack = [0.0]
        results = self._call_function(fn, runtime_args)
        self.report.cycles += work[0]
        return results

    def run_region(self, op: Operation, env: Dict[int, object], report: CostReport,
                   work: List[float], threads: int) -> None:
        """Execute one un-lowered region op (``gpu.launch``, ``scf.parallel``
        with barriers) inside another engine's run: ``env`` binds the values
        it captures, counters go to that run's ``report``, charges to
        ``work[-1]``, under its ``threads``.  The caller has
        already counted ``op`` itself.  This is the one implementation of
        barrier semantics every engine uses."""
        self.report, self._work_stack = report, work
        self.threads = threads
        for _ in self._handlers[type(op)](self, op, env):
            pass  # a region handler runs its own barrier phases: none escapes

    # -------------------------------------------------------------- internals --
    def _charge(self, cycles: float) -> None:
        self._work_stack[-1] += cycles

    def _call_function(self, fn: func_d.FuncOp, arguments: Sequence) -> List:
        if len(arguments) != len(fn.arguments):
            raise arity_error(fn, len(arguments))
        env: Dict[int, object] = {id(arg): value for arg, value in zip(fn.arguments, arguments)}
        result: List = []
        for signal in self._execute_ops(fn.body_block.operations, env, result_sink=result):
            if signal is _BARRIER:
                raise InterpreterError("barrier executed outside a parallel context")
        return result

    # The core execution routine is a generator so that SIMT phase execution
    # can suspend a "thread" at each barrier.
    def _execute_ops(self, ops: Sequence[Operation], env: Dict[int, object],
                     result_sink: Optional[List] = None):
        for op in list(ops):
            self.report.dynamic_ops += 1
            if isinstance(op, (polygeist.PolygeistBarrierOp, gpu_d.BarrierOp)):
                yield _BARRIER
                continue
            if isinstance(op, func_d.ReturnOp):
                if result_sink is not None:
                    result_sink.extend(self._value(env, operand) for operand in op.operands)
                return
            if isinstance(op, (scf.YieldOp, scf.ConditionOp)):
                # handled by the enclosing construct
                env["__terminator__"] = op
                return
            handler = self._handlers.get(type(op))
            if handler is not None:
                yield from handler(self, op, env)
                continue
            row = row_for(op)
            if row is None:
                raise InterpreterError(f"no interpretation for op {op.name}")
            self._exec_scalar(op, env, row)

    def _value(self, env: Dict[int, object], value: Value):
        try:
            return env[id(value)]
        except KeyError:
            raise InterpreterError(f"use of undefined value {value.name}") from None

    def _bind(self, env: Dict[int, object], value: Value, concrete) -> None:
        env[id(value)] = concrete

    @staticmethod
    def _child_env(env: Dict[int, object]) -> Dict[int, object]:
        """A copy of ``env`` for a nested scope, with the terminator cleared.

        The ``__terminator__`` sentinel is only meaningful within the block
        that set it; without clearing it a stale ``scf.yield`` copied via
        ``dict(env)`` could be misread as the current block's terminator
        (e.g. an ``scf.if`` whose chosen branch has no terminator).
        """
        child = dict(env)
        child.pop("__terminator__", None)
        return child

    # -- scalar ops ------------------------------------------------------------
    def _exec_scalar(self, op, env, row) -> None:
        """Every pure scalar op: the row's ``py`` *is* the reference
        semantics (:mod:`repro.runtime.optable`)."""
        if row.py is None:  # arith.constant: defined by its attribute
            self._bind(env, op.result, op.value)
            return
        operands = [self._value(env, operand) for operand in op.operands]
        if row.float_args:
            operands = [float(operand) for operand in operands]
        self._charge(cycles(row))
        result = row.py(*operands)
        self._bind(env, op.result, int(result) if row.int_result else result)

    # -- memory ops --------------------------------------------------------------
    def _storage(self, env, value: Value) -> MemRefStorage:
        storage = self._value(env, value)
        if not isinstance(storage, MemRefStorage):
            raise InterpreterError(f"value {value.name} is not a memref at runtime")
        # delegate the use-after-free guard to the storage layer here, before
        # any cost accounting, so a freed-buffer access raises without
        # charging (matching the compiled engine's prologue ordering).
        storage.check_alive()
        return storage

    def _exec_alloc(self, op: memref_d.AllocOp, env):
        if id(op.result) in env:
            # pre-bound shared-memory buffer (one per GPU block): do not
            # re-allocate it per thread.
            return
        sizes = [int(self._value(env, operand)) for operand in op.operands]
        storage = MemRefStorage.allocate(op.memref_type, sizes)
        self._charge(ALLOC_CYCLES)
        self._bind(env, op.result, storage)
        return
        yield  # pragma: no cover

    def _exec_dealloc(self, op: memref_d.DeallocOp, env):
        self._storage(env, op.memref).free()
        self._charge(ALLOC_CYCLES)
        return
        yield  # pragma: no cover

    def _exec_load(self, op: memref_d.LoadOp, env):
        storage = self._storage(env, op.memref)
        indices = tuple(int(self._value(env, index)) for index in op.indices)
        self._charge(memory_access_cost(self.machine, storage.memory_space, storage.element_bytes))
        if storage.memory_space == "global":
            self.report.global_bytes += storage.element_bytes
        self._bind(env, op.result, storage.load(indices))
        return
        yield  # pragma: no cover

    def _exec_store(self, op: memref_d.StoreOp, env):
        storage = self._storage(env, op.memref)
        indices = tuple(int(self._value(env, index)) for index in op.indices)
        self._charge(memory_access_cost(self.machine, storage.memory_space, storage.element_bytes))
        if storage.memory_space == "global":
            self.report.global_bytes += storage.element_bytes
        storage.store(self._value(env, op.value), indices)
        return
        yield  # pragma: no cover

    def _exec_dim(self, op: memref_d.DimOp, env):
        storage = self._storage(env, op.memref)
        self._bind(env, op.result, int(storage.check_alive().shape[op.dim]))
        return
        yield  # pragma: no cover

    def _exec_copy(self, op: memref_d.CopyOp, env):
        source = self._storage(env, op.source)
        destination = self._storage(env, op.destination)
        destination.copy_from(source)
        self._charge(2.0 * source.num_elements
                     * memory_access_cost(self.machine, "global", source.element_bytes))
        self.report.global_bytes += 2 * source.num_bytes
        return
        yield  # pragma: no cover

    # -- functions ------------------------------------------------------------------
    def _exec_call(self, op: func_d.CallOp, env):
        callee = self.module.lookup(op.callee)
        if callee is None or callee.is_declaration:
            raise InterpreterError(f"call to unknown function {op.callee!r}")
        self._charge(op_cost("func.call"))
        arguments = [self._value(env, operand) for operand in op.operands]
        inner_env: Dict[int, object] = {
            id(arg): value for arg, value in zip(callee.arguments, arguments)}
        results: List = []
        yield from self._execute_ops(callee.body_block.operations, inner_env, result_sink=results)
        for result_value, concrete in zip(op.results, results):
            self._bind(env, result_value, concrete)

    # -- structured control flow -------------------------------------------------------
    def _exec_for(self, op: scf.ForOp, env):
        self._charge(op_cost("scf.for"))
        lower = int(self._value(env, op.lower_bound))
        upper = int(self._value(env, op.upper_bound))
        step = int(self._value(env, op.step))
        if step <= 0:
            raise InterpreterError("scf.for requires a positive step")
        carried = [self._value(env, value) for value in op.iter_init]
        iv = lower
        while iv < upper:
            body_env = self._child_env(env)
            self._bind(body_env, op.induction_var, iv)
            for arg, value in zip(op.iter_args, carried):
                self._bind(body_env, arg, value)
            yield from self._execute_ops(op.body.operations, body_env)
            terminator = body_env.get("__terminator__")
            if isinstance(terminator, scf.YieldOp):
                carried = [self._value(body_env, value) for value in terminator.operands]
            iv += step
            self._charge(op_cost("scf.for"))
        for result, value in zip(op.results, carried):
            self._bind(env, result, value)

    def _exec_if(self, op: scf.IfOp, env):
        self._charge(op_cost("scf.if"))
        condition = self._value(env, op.condition)
        block = op.then_block if condition else op.else_block
        if block is None:
            if op.results:
                raise InterpreterError("scf.if with results requires an else branch")
            return
        body_env = self._child_env(env)
        yield from self._execute_ops(block.operations, body_env)
        terminator = body_env.get("__terminator__")
        if op.results and isinstance(terminator, scf.YieldOp):
            for result, value in zip(op.results,
                                     [self._value(body_env, v) for v in terminator.operands]):
                self._bind(env, result, value)

    def _exec_while(self, op: scf.WhileOp, env):
        carried = [self._value(env, value) for value in op.init_args]
        while True:
            self._charge(op_cost("scf.while"))
            before_env = self._child_env(env)
            for arg, value in zip(op.before_block.arguments, carried):
                self._bind(before_env, arg, value)
            yield from self._execute_ops(op.before_block.operations, before_env)
            condition_op = before_env.get("__terminator__")
            if not isinstance(condition_op, scf.ConditionOp):
                raise InterpreterError("scf.while before-region did not reach scf.condition")
            proceed = self._value(before_env, condition_op.condition)
            forwarded = [self._value(before_env, value) for value in condition_op.forwarded]
            if not proceed:
                for result, value in zip(op.results, forwarded):
                    self._bind(env, result, value)
                return
            after_env = self._child_env(env)
            for arg, value in zip(op.after_block.arguments, forwarded):
                self._bind(after_env, arg, value)
            yield from self._execute_ops(op.after_block.operations, after_env)
            terminator = after_env.get("__terminator__")
            if isinstance(terminator, scf.YieldOp):
                carried = [self._value(after_env, value) for value in terminator.operands]
            else:
                carried = forwarded

    # -- parallel constructs ----------------------------------------------------------------
    def _iteration_space(self, env, lower_bounds, upper_bounds, steps):
        """Lazy row-major iteration space: ``(point_iterator, point_count)``.

        The Cartesian product is streamed by ``itertools.product`` instead of
        being materialized as nested list-comprehension copies, so large
        iteration spaces cost O(num_dims) memory instead of O(points).
        """
        lowers = [int(self._value(env, value)) for value in lower_bounds]
        uppers = [int(self._value(env, value)) for value in upper_bounds]
        strides = [int(self._value(env, value)) for value in steps]
        if 0 in strides:
            raise InterpreterError(ZERO_STEP)
        axes = [range(low, high, stride)
                for low, high, stride in zip(lowers, uppers, strides)]
        count = 1
        for axis in axes:
            count *= len(axis)
        return product(*axes), count

    def _run_simt(self, body_ops, per_thread_envs) -> int:
        """Run thread generators in barrier-delimited phases; returns #phases."""
        generators = [self._execute_ops(body_ops, thread_env) for thread_env in per_thread_envs]
        live = list(generators)
        phases = 0
        while live:
            phases += 1
            still_running = []
            for generator in live:
                try:
                    signal = next(generator)
                    while signal is not _BARRIER:
                        signal = next(generator)
                    still_running.append(generator)
                except StopIteration:
                    pass
            live = still_running
        return phases

    def _exec_scf_parallel(self, op: scf.ParallelOp, env):
        from ..analysis import contains_barrier

        iterations, num_points = self._iteration_space(
            env, op.lower_bounds, op.upper_bounds, op.steps)
        self.report.parallel_regions += 1
        self._work_stack.append(0.0)
        has_barrier = contains_barrier(op, immediate_region_only=True)
        phases = 0
        if has_barrier:
            per_thread_envs = []
            for point in iterations:
                thread_env = self._child_env(env)
                for iv, value in zip(op.induction_vars, point):
                    self._bind(thread_env, iv, value)
                per_thread_envs.append(thread_env)
            phases = self._run_simt(op.body.operations, per_thread_envs)
            self.report.simt_phases += phases
        else:
            for point in iterations:
                body_env = self._child_env(env)
                for iv, value in zip(op.induction_vars, point):
                    self._bind(body_env, iv, value)
                for _ in self._execute_ops(op.body.operations, body_env):
                    raise InterpreterError("unexpected barrier in barrier-free parallel loop")
        work = self._work_stack.pop()
        threads = min(self.threads, max(1, num_points))
        wall = (self.machine.fork_cost
                + work / self.machine.effective_speedup(threads)
                + phases * self.machine.simt_phase_cost)
        self._charge(wall)
        return
        yield  # pragma: no cover

    def _exec_gpu_launch(self, op: gpu_d.LaunchOp, env):
        grid = [int(self._value(env, value)) for value in op.grid_dims]
        block = [int(self._value(env, value)) for value in op.block_dims]
        for bz in range(grid[2]):
            for by in range(grid[1]):
                for bx in range(grid[0]):
                    per_thread_envs = []
                    block_env = self._child_env(env)
                    # shared allocas are part of the body and re-created per
                    # thread env copy; to share them within a block we execute
                    # them once here is unnecessary: the frontend emits shared
                    # allocas as the first ops of the body, so we pre-execute
                    # them in a common env that thread envs inherit.
                    for tz in range(block[2]):
                        for ty in range(block[1]):
                            for tx in range(block[0]):
                                thread_env = dict(block_env)
                                values = [bx, by, bz, tx, ty, tz,
                                          grid[0], grid[1], grid[2],
                                          block[0], block[1], block[2]]
                                for arg, value in zip(op.body.arguments, values):
                                    self._bind(thread_env, arg, value)
                                per_thread_envs.append(thread_env)
                    # shared memory: allocate once per block and share across
                    # thread envs by pre-binding shared allocas.
                    self._share_block_allocas(op, per_thread_envs)
                    phases = self._run_simt(op.body.operations, per_thread_envs)
                    self.report.simt_phases += phases
        return
        yield  # pragma: no cover

    def _share_block_allocas(self, op: gpu_d.LaunchOp, per_thread_envs) -> None:
        """Pre-bind shared-memory allocas so all threads of a block see one buffer."""
        for nested in op.body.operations:
            if isinstance(nested, memref_d.AllocaOp) and memref_d.is_shared_memref(nested.result):
                storage = MemRefStorage.allocate(nested.memref_type, [])
                for thread_env in per_thread_envs:
                    thread_env[id(nested.result)] = storage

    def _exec_gpu_alloc(self, op: gpu_d.GPUAllocOp, env):
        sizes = [int(self._value(env, operand)) for operand in op.operands]
        self._bind(env, op.result, MemRefStorage.allocate(op.result.type, sizes))
        return
        yield  # pragma: no cover

    def _exec_gpu_dealloc(self, op: gpu_d.GPUDeallocOp, env):
        self._storage(env, op.memref).free()
        return
        yield  # pragma: no cover

    def _exec_gpu_memcpy(self, op: gpu_d.GPUMemcpyOp, env):
        self._storage(env, op.destination).copy_from(self._storage(env, op.source))
        return
        yield  # pragma: no cover

    # -- OpenMP ------------------------------------------------------------------------------
    def _exec_omp_parallel(self, op: omp_d.OmpParallelOp, env):
        nested = op.nest_level > 0
        self.report.parallel_regions += 1
        if nested:
            self.report.nested_regions += 1
        self._work_stack.append(0.0)
        body_env = self._child_env(env)
        for _ in self._execute_ops(op.body.operations, body_env):
            raise InterpreterError("GPU barrier inside an OpenMP region")
        work = self._work_stack.pop()
        if nested:
            work *= self.machine.false_sharing_penalty
            fork = self.machine.nested_fork_cost
        else:
            fork = self.machine.fork_cost
        self._charge(fork + work)
        return
        yield  # pragma: no cover

    def _effective_team(self, op: omp_d.OmpWsLoopOp) -> int:
        parent = op.parent_op
        while parent is not None and not isinstance(parent, omp_d.OmpParallelOp):
            parent = parent.parent_op
        if parent is None:
            return 1
        if parent.nest_level > 0:
            return 1  # the outer level already saturates the cores
        return parent.num_threads or self.threads

    def _exec_omp_wsloop(self, op: omp_d.OmpWsLoopOp, env):
        self.report.workshared_loops += 1
        iterations, num_points = self._iteration_space(
            env, op.lower_bounds, op.upper_bounds, op.steps)
        self._work_stack.append(0.0)
        for point in iterations:
            body_env = self._child_env(env)
            for iv, value in zip(op.induction_vars, point):
                self._bind(body_env, iv, value)
            for _ in self._execute_ops(op.body.operations, body_env):
                raise InterpreterError("GPU barrier inside a workshared loop")
        work = self._work_stack.pop()
        # a workshared loop cannot use more workers than it has iterations —
        # this is exactly why preserving the kernel's full (collapsed)
        # parallelism matters once block counts are small.
        team = min(self._effective_team(op), max(1, num_points))
        wall = work / self.machine.effective_speedup(team)
        if not op.nowait:
            wall += self.machine.sync_cost
        self._charge(wall)
        return
        yield  # pragma: no cover

    def _exec_omp_barrier(self, op: omp_d.OmpBarrierOp, env):
        self.report.barriers += 1
        self._charge(self.machine.sync_cost)
        return
        yield  # pragma: no cover

    def _exec_omp_single(self, op: omp_d.OmpSingleOp, env):
        body_env = self._child_env(env)
        for _ in self._execute_ops(op.body.operations, body_env):
            raise InterpreterError("GPU barrier inside omp.single")
        return
        yield  # pragma: no cover

    # handler dispatch table -------------------------------------------------------------------
    _handlers = {
        memref_d.AllocOp: _exec_alloc,
        memref_d.AllocaOp: _exec_alloc,
        memref_d.DeallocOp: _exec_dealloc,
        memref_d.LoadOp: _exec_load,
        memref_d.StoreOp: _exec_store,
        memref_d.DimOp: _exec_dim,
        memref_d.CopyOp: _exec_copy,
        func_d.CallOp: _exec_call,
        scf.ForOp: _exec_for,
        scf.IfOp: _exec_if,
        scf.WhileOp: _exec_while,
        scf.ParallelOp: _exec_scf_parallel,
        gpu_d.LaunchOp: _exec_gpu_launch,
        gpu_d.GPUAllocOp: _exec_gpu_alloc,
        gpu_d.GPUDeallocOp: _exec_gpu_dealloc,
        gpu_d.GPUMemcpyOp: _exec_gpu_memcpy,
        omp_d.OmpParallelOp: _exec_omp_parallel,
        omp_d.OmpWsLoopOp: _exec_omp_wsloop,
        omp_d.OmpBarrierOp: _exec_omp_barrier,
        omp_d.OmpSingleOp: _exec_omp_single,
    }


# NOTE: the module-level ``execute`` convenience wrapper lives in
# :mod:`repro.runtime.engine` so that every entry point goes through the
# engine-selection layer (``engine="compiled"|"interp"``, REPRO_ENGINE).

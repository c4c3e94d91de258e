"""Multicore execution engine: shard parallel regions across worker processes.

The paper's deliverable is GPU kernels that *actually* run in parallel on
CPU cores; until now every engine executed in one Python process and the
``threads=`` knob only scaled the analytic cost model.  This engine makes
thread scaling a measured quantity: a persistent ``multiprocessing`` worker
pool (forked once per compiled program) receives contiguous sub-spans of
each outermost span (``omp.wsloop`` / barrier-free ``scf.parallel``; barriers
are lowered in the IR by cpuify, and un-lowered regions run in-process on
the interpreter), executes them with the very
closures the compiled engine runs in-process (the engine's row is the
``closures`` body planner plus the :func:`shards` dispatcher below — the
region shell, the plans and the accounting live in
:mod:`repro.runtime.compiler`), and writes results in place through :mod:`repro.runtime.sharedmem`-backed
:class:`~repro.runtime.memory.MemRefStorage` buffers (the workers' loads
and stores go through the unchanged ``load``/``store_block`` API — only the
ndarray's backing differs).

Determinism and bit-identical parity with the interpreter rest on three
invariants:

* **write-write safety** — a compile-time store analysis
  (:mod:`repro.analysis.store_safety`, read off the region's
  :class:`~repro.analysis.region.RegionPlan`) only permits sharding when
  every store to a shared buffer lands at an index
  *injective in the sharded dimensions* (e.g. ``C[bx*n + tx]`` with
  ``tx ∈ [0, n)``), so no two workers ever write the same location;
  anything unprovable falls back to in-process execution.  Cross-worker
  read-write interleavings within a region are unobservable for the same
  race-free programs the vectorized engine already reorders.
* **deterministic reductions** — each worker accumulates its own simulated
  work and cost counters; after the join the parent folds them in worker
  (= thread) order.  On machines whose per-access charges are exact binary
  fractions (the same dyadic gate the vectorized engine uses) float
  accumulation is exact, so regrouping per worker equals the interpreter's
  single sequential sum bit for bit.  Regions containing *nested* parallel
  regions would contribute non-dyadic wall terms (division by the
  ``effective_speedup``), so they are never sharded.
* **no barrier crosses a shard** — only barrier-free spans are sharded, so
  workers never synchronize with each other and join at the region
  boundary.

Knob: ``workers=`` / ``REPRO_WORKERS`` selects the pool width (default: the
CPU affinity count).  With one worker, on machines without ``fork``/shared
memory, or for regions the analysis rejects, the engine degrades to plain
in-process execution and stays bit-identical.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .compiler import (
    CompiledEngine,
    _BarrierEscape,
    _FunctionCompiler,
    _Region,
    _State,
    _iteration_space,
)
from .costmodel import CostReport, MachineModel, XEON_8375C
from .errors import (DispatchTimeoutError, InterpreterError, UseAfterFreeError,
                     WorkerCrashError)
from .memory import MemRefStorage, wrap_argument
from . import resilience
from . import sharedmem

#: environment variable selecting the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: minimum iterations per worker for a dispatch to be
#: worth the IPC round trip; below this the region runs in-process.
MIN_UNITS_PER_WORKER = 2

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def available_cpus() -> int:
    """The CPUs actually available to this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """The default pool width: ``REPRO_WORKERS`` or the CPU affinity count."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return available_cpus()


def multicore_available() -> bool:
    """Whether worker-pool sharding can run here (fork + shared memory)."""
    return _FORK_AVAILABLE and sharedmem.shared_memory_available()


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()
_ERROR_TYPES = {
    "InterpreterError": InterpreterError,
    "UseAfterFreeError": UseAfterFreeError,
    "WorkerCrashError": WorkerCrashError,
    "DispatchTimeoutError": DispatchTimeoutError,
    "IndexError": IndexError,
    "ValueError": ValueError,
    "OverflowError": OverflowError,
    "ZeroDivisionError": ZeroDivisionError,
}


def _worker_main(conn, program, index: int) -> None:  # pragma: no cover - child
    """Worker loop: decode → execute a shard → reply; exits on EOF/stop.

    Runs in a forked child that inherits the parent's compiled program, so
    region runners resolve by key without shipping any code; ``os._exit``
    skips inherited atexit hooks (pool shutdown, segment unlink) that only
    the parent may run.
    """
    sharedmem.mark_worker_process()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            if message[0] == "exit":
                # injected worker crash (REPRO_FAULTS multicore.worker_exit)
                os._exit(23)
            if message[0] == "hang":
                # injected worker hang (REPRO_FAULTS multicore.hang); the
                # parent's watchdog kills the pool long before this wakes.
                time.sleep(float(message[1]))
                continue
            try:
                result = _execute_shard(program, *message[1:])
                conn.send(("ok", result))
            except BaseException as exc:  # noqa: BLE001 - relayed to parent
                conn.send(("err", type(exc).__name__, str(exc)))
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)


def _execute_shard(program, key, live_ins, start: int, stop: int,
                   threads: int) -> Dict:
    """Run one contiguous shard of a registered region in this process."""
    regions = program.shards.regions
    region = regions.get(key)
    if region is None:
        fn = program.module.lookup(key[0])
        if fn is None:
            raise InterpreterError(f"worker cannot resolve function {key[0]!r}")
        program.function(fn)  # deterministic recompile fills the registry
        region = regions.get(key)
        if region is None:
            raise InterpreterError(f"worker cannot resolve shard region {key!r}")
    regs = region["template"][:]
    segment_names = [payload[0] for tag, payload in live_ins.values() if tag == "m"]
    sharedmem.retain_only(segment_names)  # evict segments of finished runs
    for slot, (tag, payload) in live_ins.items():
        regs[slot] = sharedmem.decode(payload) if tag == "m" else payload
    report = CostReport(machine=program.machine, threads=threads)
    state = _State(report, threads, [0.0], program)
    try:
        ranges, _ = _iteration_space(regs, *region["bounds"])
        region["run"](state, regs, ranges, start, stop)
    except _BarrierEscape:
        raise InterpreterError(region["barrier_message"]) from None
    return {
        "work": state.work[0],
        "dynamic_ops": report.dynamic_ops,
        "parallel_regions": report.parallel_regions,
        "nested_regions": report.nested_regions,
        "workshared_loops": report.workshared_loops,
        "barriers": report.barriers,
        "simt_phases": report.simt_phases,
        "global_bytes": report.global_bytes,
    }


class _WorkerPool:
    """A fixed set of forked worker processes fed over pipes.

    Forked lazily at the first dispatch of a program (so children inherit
    the compiled region registry), reused for every later shard of that
    program, shut down when the program is garbage collected or at
    interpreter exit.
    """

    def __init__(self, program, num_workers: int) -> None:
        context = multiprocessing.get_context("fork")
        self.num_workers = num_workers
        self.workers = []
        self._closed = False
        for index in range(num_workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child_conn, program, index),
                daemon=True, name=f"repro-shard-{index}")
            process.start()
            child_conn.close()
            self.workers.append((process, parent_conn))
        _LIVE_POOLS.add(self)

    def alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p, _ in self.workers)

    def run(self, tasks: Sequence,
            timeout_s: Optional[float] = None) -> List[Dict]:
        """Dispatch one task per worker; returns results in worker order.

        All replies are drained before any error is raised, so a failing
        shard cannot leave stale messages in a sibling's pipe.  With
        ``timeout_s`` a watchdog bounds the whole dispatch: a worker that
        does not reply by the deadline raises :class:`DispatchTimeoutError`
        and the pool is killed (hung workers cannot be reused).  Worker
        death surfaces as :class:`WorkerCrashError`; deterministic program
        errors relayed from a worker take precedence over both, since
        retrying those is pointless.
        """
        pairs = list(zip(self.workers, tasks))
        sent = []
        for (process, conn), task in pairs:
            try:
                conn.send(task)
                sent.append(True)
            except (OSError, ValueError):
                sent.append(False)
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        replies = []
        hung = False
        for ((process, conn), task), was_sent in zip(pairs, sent):
            if not was_sent:
                replies.append(("err", "WorkerCrashError",
                                "multicore worker pipe closed before dispatch"))
                continue
            try:
                if deadline is not None:
                    budget = deadline - time.monotonic()
                    if budget <= 0 or not conn.poll(budget):
                        hung = True
                        replies.append((
                            "err", "DispatchTimeoutError",
                            f"multicore worker did not reply within "
                            f"{timeout_s:g}s"))
                        continue
                replies.append(conn.recv())
            except (EOFError, OSError):
                replies.append(("err", "WorkerCrashError",
                                "multicore worker died during a shard"))
        if hung:
            self.kill()
        results = []
        infrastructure_error = None
        for reply in replies:
            if reply[0] == "err":
                error_cls = _ERROR_TYPES.get(reply[1])
                if error_cls is None:
                    raise InterpreterError(f"{reply[1]}: {reply[2]}")
                if issubclass(error_cls, (WorkerCrashError,
                                          DispatchTimeoutError)):
                    if infrastructure_error is None:
                        infrastructure_error = error_cls(reply[2])
                    continue
                raise error_cls(reply[2])
            results.append(reply[1])
        if infrastructure_error is not None:
            raise infrastructure_error
        return results

    def kill(self) -> None:
        """Terminate the pool immediately (watchdog/crash path).

        Unlike :meth:`shutdown` this never talks to the workers — they may
        be hung or dead — it terminates, joins and closes.
        """
        if self._closed:
            return
        self._closed = True
        for process, conn in self.workers:
            if process.is_alive():
                process.terminate()
        for process, conn in self.workers:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - unkillable worker
                process.kill()
            try:
                conn.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for process, conn in self.workers:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for process, conn in self.workers:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
            try:
                conn.close()
            except OSError:
                pass


def _shutdown_pools(pools: Dict[int, _WorkerPool]) -> None:
    for pool in list(pools.values()):
        pool.shutdown()
    pools.clear()


@atexit.register
def _shutdown_all_pools() -> None:  # pragma: no cover - exercised at shutdown
    for pool in list(_LIVE_POOLS):
        pool.shutdown()


def shutdown_worker_pools() -> None:
    """Terminate every live worker pool (tests / explicit teardown)."""
    _shutdown_all_pools()


# ---------------------------------------------------------------------------
# Per-program shard state
# ---------------------------------------------------------------------------
class _Shards:
    """A program's worker-side region registry and its worker pools
    (``program.shards``; made when the dispatcher takes its first region)."""

    def __init__(self) -> None:
        #: (function name, ordinal) -> worker-side region record.
        self.regions: Dict[Tuple, Dict] = {}
        self.pools: Dict[int, _WorkerPool] = {}
        self._finalizer = weakref.finalize(self, _shutdown_pools, self.pools)
        self.broken = False

    def ensure_pool(self, program, num_workers: int) -> Optional[_WorkerPool]:
        if self.broken:
            return None
        pool = self.pools.get(num_workers)
        refork = False
        if pool is not None and not pool.alive():
            pool.shutdown()
            pool = None
            self.pools.pop(num_workers, None)
            refork = True
        if pool is None:
            try:
                pool = _WorkerPool(program, num_workers)
            except OSError:  # pragma: no cover - fork/pipe exhaustion
                self.broken = True
                return None
            self.pools[num_workers] = pool
            if refork:
                resilience.record_event(
                    "multicore.pool", "recover",
                    detail=f"re-forked dead {num_workers}-worker pool",
                    engine="multicore")
        return pool


# ---------------------------------------------------------------------------
# Shard dispatch
# ---------------------------------------------------------------------------
class _ShardContext:
    """Runtime dispatch context attached to the engine's execution state.

    ``pool()`` gates every dispatch on the run-level aliasing verdict: two
    *distinct* storage objects viewing overlapping memory (the caller
    passed the same/overlapping ndarray as two arguments) would promote
    into two independent shared segments, permanently severing the
    aliasing the in-process engines preserve — for every later region of
    the run, not just the one being dispatched.  Such runs therefore never
    shard at all.  The verdict is computed lazily on the first dispatch
    attempt (all arguments are wrapped by then) and cached for the run.
    """

    __slots__ = ("program", "workers", "engine", "_aliased")

    def __init__(self, program, workers: int, engine) -> None:
        self.program = program
        self.workers = workers
        self.engine = engine
        self._aliased: Optional[bool] = None

    def pool(self) -> Optional[_WorkerPool]:
        if self._aliased is None:
            self._aliased = self.engine._arguments_alias()
        if self._aliased:
            return None
        return self.program.shards.ensure_pool(self.program, self.workers)


def _inject_pool_faults(pool: _WorkerPool) -> None:
    """Parent-side fault injection: crash or hang a worker pre-dispatch.

    ``REPRO_FAULTS`` counters live in (and decrement in) the parent, so a
    count-mode fault fires exactly once no matter how many times the pool
    is re-forked — the retry after the re-fork runs clean.  The poisoned
    worker processes the control message before its shard task: ``exit``
    kills it mid-dispatch (EOF → :class:`WorkerCrashError`), ``hang``
    stalls it into the watchdog (:class:`DispatchTimeoutError`).
    """
    if not resilience.faults_configured():
        return
    if resilience.fault_fires("multicore.worker_exit"):
        try:
            pool.workers[0][1].send(("exit",))
        except (OSError, ValueError):
            pass
    if resilience.fault_fires("multicore.hang"):
        try:
            pool.workers[0][1].send(("hang", 3600.0))
        except (OSError, ValueError):
            pass


def _split_spans(total: int, num_workers: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced spans of ``[0, total)`` in worker order."""
    base, remainder = divmod(total, num_workers)
    spans = []
    start = 0
    for index in range(num_workers):
        size = base + (1 if index < remainder else 0)
        spans.append((start, start + size))
        start += size
    return spans


def _dispatch_shards(program, state, pool, key, regs, live_in_slots,
                     spans: Sequence[Tuple[int, int]]) -> Optional[List[Dict]]:
    """Ship the live-ins and run one span per worker; ``None`` = degrade.

    Shared-memory promotion can fail mid-run (``/dev/shm`` filling up
    under large buffers) long after the 1-byte availability probe
    passed; that must demote the run to in-process execution — which
    is always correct — rather than abort it, so a failed promotion
    marks the program's promotion machinery broken (no later region
    retries) and returns ``None`` for the caller to run its base plan.

    Worker crashes and watchdog timeouts are *transient*: sharded
    stores are injective, so killing the pool, re-forking and
    re-dispatching the same shards is idempotent.  The dispatch
    retries up to ``resilience.DEFAULT_RETRIES`` times before degrading
    in-process.  Setting ``REPRO_TIMEOUT_S`` arms a watchdog that
    bounds each dispatch; it is off by default so a legitimately
    long dispatch (large shards, loaded machine) is never killed —
    arm it explicitly when injecting ``multicore.hang``.
    """
    if pool is None:
        # the pool died between the width check and the dispatch and
        # could not be re-forked: degrade rather than crash.
        return None
    live_ins = {}
    shipped = []
    try:
        for slot in live_in_slots:
            value = regs[slot]
            if isinstance(value, MemRefStorage):
                live_ins[slot] = ("m", sharedmem.encode(value))
                shipped.append(value)
            else:
                live_ins[slot] = ("v", value)
    except OSError as exc:
        program.shards.broken = True
        _shutdown_pools(program.shards.pools)  # no dispatch will ever retry
        resilience.record_event("sharedmem.promote", "degrade",
                                type(exc).__name__, str(exc),
                                engine="multicore")
        return None
    tasks = [("shard", key, live_ins, start, stop, state.threads)
             for start, stop in spans]
    policy = resilience.retry_policy()
    attempt = 0
    while True:
        _inject_pool_faults(pool)
        program.shard_stats["dispatches"] += 1
        try:
            results = pool.run(tasks, timeout_s=policy.watchdog_timeout)
            break
        except (WorkerCrashError, DispatchTimeoutError) as exc:
            pool.kill()
            if attempt >= policy.retries:
                resilience.record_event(
                    "multicore.dispatch", "degrade", type(exc).__name__,
                    f"{exc}; running region in-process",
                    engine="multicore")
                return None
            resilience.record_event("multicore.dispatch", "retry",
                                    type(exc).__name__, str(exc),
                                    attempt + 1, "multicore")
            policy.sleep("multicore.dispatch", attempt)
            attempt += 1
            pool = (state.shard.pool()
                    if state.shard is not None else None)
            if pool is None:
                resilience.record_event(
                    "multicore.dispatch", "degrade", type(exc).__name__,
                    "pool re-fork unavailable; running region in-process",
                    engine="multicore")
                return None
    for storage in shipped:
        sharedmem.refresh_freed(storage)
    return results


def _fold_results(state, results: Sequence[Dict]) -> float:
    """Fold worker results in worker (= thread) order; returns the work."""
    report = state.report
    work = 0.0
    for result in results:
        work += result["work"]
        report.dynamic_ops += result["dynamic_ops"]
        report.parallel_regions += result["parallel_regions"]
        report.nested_regions += result["nested_regions"]
        report.workshared_loops += result["workshared_loops"]
        report.barriers += result["barriers"]
        report.simt_phases += result["simt_phases"]
        report.global_bytes += result["global_bytes"]
    return work


def _shard_width(state, total: int) -> int:
    shard = state.shard
    if shard is None or total < 2:
        return 0
    width = min(shard.workers, max(1, total // MIN_UNITS_PER_WORKER))
    return width if width >= 2 else 0


def shards(fc: _FunctionCompiler, region: _Region):
    """The multicore engine's dispatcher: when the store analysis proves the
    span's iterations write-write independent, register its body
    runner for the workers and return a runner that splits each execution
    into contiguous spans, one per worker, folding their costs back in
    worker order; the shell's in-process ``base`` run takes every execution
    that is too small, needs a singleton dim it does not have, or cannot
    reach a pool.  ``None`` when the analysis says no.

    The body a worker runs is the body ``base`` runs — only the dispatch
    differs.
    """
    program, plan = fc.program, region.plan
    stats = program.shard_stats
    proof = plan.parallel_proof
    if proof is None:
        stats["rejected_regions"] += 1
        return None
    stats["sharded_regions"] += 1
    region.tier = "multicore"
    if program.shards is None:
        program.shards = _Shards()
    key = (fc.fn.sym_name, fc.offered)
    bounds = region.bounds
    program.shards.regions[key] = {
        "run": region.body,
        "template": fc.template,
        "bounds": bounds,
        "barrier_message": region.message,
    }
    live_in_slots = sorted({fc.slot(value) for value in plan.live_ins})
    singleton = sorted(proof)  # dims that must have extent 1
    base, count, finish = region.base, region.count, region.finish

    def run(state, regs):
        ranges, total = _iteration_space(regs, *bounds)
        results = None
        width = _shard_width(state, total)
        if width and all(len(ranges[dim]) == 1 for dim in singleton):
            pool = state.shard.pool()
            if pool is not None:
                results = _dispatch_shards(
                    program, state, pool, key, regs, live_in_slots,
                    _split_spans(total, width))
        if results is None:
            stats["inline_runs"] += 1
            return base(state, regs)
        count(state)
        finish(state, total, _fold_results(state, results))
    return run


# ---------------------------------------------------------------------------
# Engine front end
# ---------------------------------------------------------------------------
class MulticoreEngine(CompiledEngine):
    """Drop-in engine executing sharded regions on a worker-process pool.

    Outputs and :class:`CostReport`s stay bit-identical to the interpreter
    (pinned by ``tests/runtime/test_engine_parity.py``); only wall-clock
    time changes with the worker count.  ``workers=1``, unavailable
    fork/shared memory, non-dyadic machines and regions the store analysis
    cannot prove safe all degrade to in-process execution of the compiled
    closures — the same ones the workers run.
    """

    ROW = "multicore"

    #: a worker can crash, hang or run out of shared memory after earlier
    #: shards stored: the resilience wrapper snapshots before these runs.
    FAILS_BEFORE_FIRST_STORE = False

    def __init__(self, module, machine: MachineModel = XEON_8375C,
                 threads: Optional[int] = None,
                 workers: Optional[int] = None) -> None:
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self._arg_sync: List[Tuple[np.ndarray, MemRefStorage]] = []
        self._run_storages: List[MemRefStorage] = []
        super().__init__(module, machine=machine, threads=threads)

    def _make_state(self) -> _State:
        state = super()._make_state()
        if self.workers >= 2 and multicore_available():
            state.shard = _ShardContext(self._program, self.workers, self)
        return state

    def _wrap_argument(self, argument, index, memref):
        if isinstance(argument, np.ndarray) and memref:
            storage = wrap_argument(argument, index, memref)
            self._run_storages.append(storage)
            # promotion to shared memory swaps the backing array out from
            # under the caller's ndarray; remember the pair so the caller
            # still observes every write after the run.
            self._arg_sync.append((argument, storage))
            return storage
        return wrap_argument(argument, index, memref)

    def _arguments_alias(self) -> bool:
        """Whether any two of this run's wrapped arguments share memory.

        Checked once per run, over *all* arguments and before any
        promotion: promoting even one of two aliased storages severs the
        aliasing for the rest of the run, so a hit disables sharding for
        the whole run (see :class:`_ShardContext`), not just for regions
        that happen to ship both buffers.
        """
        storages = self._run_storages
        for index, first in enumerate(storages):
            for second in storages[index + 1:]:
                if np.shares_memory(first.array, second.array):
                    return True
        return False

    def run(self, function_name: str, arguments: Sequence = ()) -> List:
        self._arg_sync = []
        self._run_storages = []
        try:
            return super().run(function_name, arguments)
        finally:
            for original, storage in self._arg_sync:
                # a read-only input cannot have been mutated in a
                # parity-preserving run, and copying back into it raises.
                if storage.shm_name is not None and original.flags.writeable:
                    np.copyto(original, storage.array)
            self._arg_sync = []
            self._run_storages = []

    @property
    def shard_stats(self) -> Dict[str, int]:
        """Compile-time + dispatch counters of the underlying program."""
        return self._program.shard_stats

    def shutdown(self) -> None:
        """Tear down this program's worker pools (tests / explicit cleanup)."""
        if self._program.shards is not None:
            _shutdown_pools(self._program.shards.pools)

"""Native OpenMP C backend: ``engine="native"`` / ``REPRO_ENGINE=native``.

This is the reproduction's answer to the paper's headline artifact — the
transpiled CUDA kernel running as compiled OpenMP CPU code.  The engine's
row is the compiled engine's ``closures`` body planner plus the
:func:`native` dispatcher below; the region shell that calls it, and whose
in-process run is every dispatch's fallback, lives in
:mod:`repro.runtime.compiler`:

* at translation time each span (``omp.wsloop`` / barrier-free
  ``scf.parallel``) is handed to :mod:`repro.runtime.codegen_c`; all
  regions of a function are assembled into one C translation unit.
  Un-lowered regions (``gpu.launch``, ``scf.parallel`` with barriers) are
  never offered: cpuify lowers barriers in the IR, and a module compiled
  without it runs those regions on the closure tier, the refusal named on
  the plan;
* the unit is compiled once with the system C compiler (``cc -O3 -fopenmp``;
  override with ``REPRO_CC``) into a shared object keyed by the SHA-256 of
  the generated source in the content-addressed artifact cache
  (:class:`repro.runtime.cache.NativeArtifactCache`) — warm launches skip
  the C compiler entirely, and with ``REPRO_CACHE=1`` warm *processes* do
  too.  The source holds no machine-model constant (charges arrive as the
  ``K`` argument), so one ``.so`` per kernel serves every machine model;
* at run time the dispatcher checks the region's live-in scalars and
  ``MemRefStorage`` buffers against the contract the C was specialized for
  and writes them zero-copy (data pointers + shapes) into a pooled ctypes
  pack, calls the compiled function, and folds the counters it returns
  (work cycles, dynamic ops, global traffic) through the same
  accounting epilogues the compiled engine uses — so outputs *and*
  :class:`~repro.runtime.costmodel.CostReport`\\ s stay bit-identical to the
  interpreter (pinned by the five-engine parity matrix and the differential
  fuzz suite);
* real parallelism (``#pragma omp parallel for`` across iterations)
  is enabled per region only when the write-write store-safety analysis
  (:mod:`repro.analysis.store_safety`, asked once per region through its
  :class:`~repro.analysis.region.RegionPlan`) proves shards independent
  (required-singleton dims are re-checked per dispatch, as is runtime
  buffer aliasing); unproven regions still run as *sequential* C.

Anything the emitter cannot translate — nested parallel constructs,
dynamic-extent private allocas, recursion — falls back **per region** to
the compiled closures, with the emitter's reason recorded on the plan
(``engine.regions``); a missing or broken C
toolchain degrades the whole engine to compiled execution (same graceful
contract as the multicore engine on hosts without ``fork``).  An active
``max_dynamic_ops`` budget also routes regions to the compiled plans, whose
per-block budget checks are part of the documented engine semantics.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cache import PUBLISH_TIMEOUT_S, _unlink_quietly, global_native_cache
from .codegen_c import (
    ERR_BAD_STEP,
    RegionCodegen,
    UnsupportedRegion,
    assemble_unit,
)
from .compiler import CompiledEngine, _FunctionCompiler, _Region, _iteration_space
from .errors import InterpreterError, ToolchainError
from .memory import MemRefStorage
from . import resilience

#: environment knob.
CC_ENV_VAR = "REPRO_CC"

#: bump when the generated-code contract (ABI, counters) changes; part of
#: the artifact cache key so stale shared objects can never be dlopened.
#: 3: span `par_ok` became a `mode` bitmask (bit 0 parallel, bit 1 simd).
#: 4: block charges come in through the `K` argument instead of literals
#: (machine-independent C); `outi` lost its dead SIMT-phase slot.
#: 5: `mode` is one flag and a span body is printed at most twice (the
#: pragma loop and the plain loop; the plain loop alone without a proof);
#: the prelude holds only the helpers the unit calls, no `<stdlib.h>`.
NATIVE_FORMAT = 5

#: minimum iterations before a span is worth an OpenMP team.
_MIN_PARALLEL_UNITS = 64


def compiler_command() -> List[str]:
    """The C compiler argv prefix (``REPRO_CC`` may hold a full command)."""
    return os.environ.get(CC_ENV_VAR, "cc").split()


def compiler_flags() -> List[str]:
    """Flags for building region shared objects.

    ``-O3`` is the lowest level whose kernels stay inside the spread of
    ``-O3``'s own runs (README, "The ``-O`` level is measured"): ``-O1``
    builds the emitted C twice as fast and runs ``pathfinder`` 7-11% and
    ``streamcluster`` 6% slower, ``-O2`` runs ``pathfinder`` 3-4% slower.
    ``-ffp-contract=off`` matters for bit-identical outputs: GCC contracts
    ``a*b+c`` into fused multiply-adds by default at ``-O3``, which rounds
    differently from the Python engines' separate multiply and add.
    """
    return ["-O3", "-fPIC", "-shared", "-fopenmp", "-ffp-contract=off"]


_PROBE_LOCK = threading.Lock()
#: command -> (ok, failure detail).  The *negative* result is cached with
#: the probe's actual stderr, so every later ``engine="native"`` strict run
#: raises one clear :class:`ToolchainError` instead of re-probing.
_PROBE_RESULTS: Dict[Tuple[str, ...], Tuple[bool, str]] = {}

_PROBE_SOURCE = """
#include <omp.h>
int repro_probe(void) {
    int n = 0;
    #pragma omp parallel for reduction(+:n)
    for (int i = 0; i < 4; ++i) n += 1;
    return n;
}
"""


def native_available() -> bool:
    """Whether a working ``cc -fopenmp`` toolchain exists (probed once)."""
    return _probe_cached()[0]


def _probe_cached() -> Tuple[bool, str]:
    command = tuple(compiler_command())
    cached = _PROBE_RESULTS.get(command)
    if cached is None:
        with _PROBE_LOCK:
            cached = _PROBE_RESULTS.get(command)
            if cached is None:
                cached = _probe_toolchain(list(command))
                _PROBE_RESULTS[command] = cached
    return cached


def probe_detail() -> str:
    """Why the toolchain probe failed (empty string when it passed)."""
    return _probe_cached()[1]


def toolchain_error() -> ToolchainError:
    """A :class:`ToolchainError` carrying the cached probe diagnostics."""
    command = " ".join(compiler_command())
    detail = probe_detail()
    message = f"native toolchain unavailable ({command!r})"
    if detail:
        message = f"{message}: {detail}"
    return ToolchainError(message, detail=detail)


def require_toolchain() -> None:
    """Raise the cached :class:`ToolchainError` when the probe failed."""
    if not native_available():
        raise toolchain_error()


def _probe_toolchain(command: List[str]) -> Tuple[bool, str]:
    if not command or shutil.which(command[0]) is None:
        name = command[0] if command else "<empty>"
        return False, f"C compiler {name!r} not found on PATH"
    with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as temp:
        source = os.path.join(temp, "probe.c")
        output = os.path.join(temp, "probe.so")
        with open(source, "w") as handle:
            handle.write(_PROBE_SOURCE)
        try:
            completed = subprocess.run(
                [*command, *compiler_flags(), source, "-o", output],
                capture_output=True, timeout=60)
        except (OSError, subprocess.SubprocessError) as exc:
            return False, f"probe invocation failed: {exc}"
        if completed.returncode != 0:
            stderr = completed.stderr.decode(errors="replace").strip()
            return False, (f"probe compile exited {completed.returncode}: "
                           f"{stderr[:2000]}")
        try:
            library = ctypes.CDLL(output)
        except OSError as exc:
            return False, f"probe dlopen failed: {exc}"
        if int(library.repro_probe()) != 4:
            return False, "probe ran but returned an unexpected result"
        return True, ""


_TEMP_ARTIFACT_LOCK = threading.Lock()
#: unpublished per-process ``.so`` files (cache-publish failure path);
#: nothing else references them, so they are unlinked at process exit.
_TEMP_ARTIFACTS: List[str] = []


def _register_temp_artifact(path: str) -> None:
    with _TEMP_ARTIFACT_LOCK:
        _TEMP_ARTIFACTS.append(path)


def _discard_temp_artifacts() -> None:
    with _TEMP_ARTIFACT_LOCK:
        paths, _TEMP_ARTIFACTS[:] = list(_TEMP_ARTIFACTS), []
    for path in paths:
        _unlink_quietly(path)


atexit.register(_discard_temp_artifacts)


def unit_key(source: str) -> str:
    """Content-addressed key of one translation unit (source x toolchain)."""
    hasher = hashlib.sha256()
    hasher.update(f"native-format:{NATIVE_FORMAT}\n".encode())
    hasher.update(" ".join(compiler_command() + compiler_flags()).encode())
    hasher.update(b"\x00")
    hasher.update(source.encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Translation units
# ---------------------------------------------------------------------------
class NativeUnit:
    """All native regions of one compiled function, built as one ``.so``.

    Regions are added during function translation; sealing the unit
    assembles the C source, compiles it (or fetches it warm from the
    artifact cache) and dlopens it.  A corrupt cached artifact fails the
    dlopen, is invalidated and recompiled once; a failed compile disables
    the unit (every region runs its compiled-engine base plan) and records
    a ``native.cc`` degrade event.

    When a unit seals is what makes the native engine fail before its first
    store or not at all: a strict (resilience-wrapped) run seals every unit
    its program knows — the entry function's included — before it writes an
    argument, and raises the failed one's :class:`ToolchainError` there.  A
    unit first met mid-run (a callee's, compiled at its first call) seals at
    its first dispatch; if that fails the run finishes on the bit-identical
    base plans, and it is the *next* run that raises and degrades.
    """

    def __init__(self, program) -> None:
        self.program = program
        self.sources: List[str] = []
        self.symbols: List[str] = []
        self.status = "open"          # open -> ready | failed
        self.library = None
        self.functions: Dict[str, object] = {}
        self.key: Optional[str] = None
        #: why the unit failed (strict resilience runs raise this up front
        #: instead of silently running the compiled base plans).
        self.failure: Optional[ToolchainError] = None
        self._lock = threading.Lock()

    def add(self, source: str, symbol: str) -> None:
        self.sources.append(source)
        self.symbols.append(symbol)

    def ready(self) -> bool:
        if self.status == "ready":
            return True
        if self.status == "failed":
            return False
        with self._lock:
            if self.status == "open":
                self._seal()
        return self.status == "ready"

    # -- sealing ---------------------------------------------------------------
    def _seal(self) -> None:
        stats = self.program.native_stats
        if not self.sources:
            self.status = "failed"
            return
        if not native_available():
            self.status = "failed"
            self.failure = toolchain_error()
            resilience.record_event("native.cc", "degrade", "ToolchainError",
                                    str(self.failure)[:500], engine="native")
            return
        source = assemble_unit(self.sources)
        self.key = unit_key(source)
        cache = global_native_cache()
        path = cache.lookup(self.key)
        if path is None:
            path, failure = self._compile(cache, source)
            if path is None:
                self._fail(failure, stats, "compile_errors")
                return
        else:
            stats["artifact_hits"] += 1
        library = self._load(path)
        if library is None:
            # corrupt artifact: drop it and rebuild once before giving up.
            cache.invalidate(self.key)
            stats["corrupt_artifacts"] += 1
            resilience.record_event(
                "cache.read", "fallback", "CacheCorruptionError",
                f"corrupt native artifact {self.key[:12]}…; recompiling",
                engine="native")
            path, failure = self._compile(cache, source)
            library = self._load(path) if path is not None else None
            if library is None:
                self._fail(failure or ToolchainError(
                    "recompiled native artifact failed to load"), stats)
                return
        try:
            for symbol in self.symbols:
                function = getattr(library, symbol)
                function.restype = None
                function.argtypes = _ARGTYPES
                self.functions[symbol] = function
        except AttributeError as exc:
            cache.invalidate(self.key)
            self._fail(ToolchainError(
                f"native artifact is missing symbol: {exc}"), stats)
            return
        cache.pin(self.key)
        self.library = library
        self.status = "ready"
        stats["units_ready"] += 1

    def _fail(self, failure: Optional[ToolchainError], stats,
              counter: Optional[str] = None) -> None:
        self.status = "failed"
        self.failure = failure or ToolchainError("native unit compile failed")
        if counter is not None:
            stats[counter] += 1
        resilience.record_event("native.cc", "degrade",
                                type(self.failure).__name__,
                                str(self.failure)[:500], engine="native")

    def _compile(self, cache, source: str):
        """``(path, None)`` on success, ``(None, ToolchainError)`` on failure.

        The ``cc`` invocation is a ``native.cc`` fault-injection site and
        runs under the retry policy: injected/spawn-level transient
        failures retry with backoff, a real non-zero compiler exit is
        permanent and carries the stderr.  When the artifact cache cannot
        publish (disk full, injected ``cache.write`` fault) the unit is
        built into an unpublished per-process temp ``.so`` instead — the
        engine still runs native, only warm starts lose the artifact.
        """
        def build(path):
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".c", prefix="repro-native-",
                    delete=False) as handle:
                handle.write(source)
                source_path = handle.name
            try:
                def invoke():
                    resilience.inject("native.cc")
                    completed = subprocess.run(
                        [*compiler_command(), *compiler_flags(), source_path,
                         "-o", str(path)],
                        capture_output=True, timeout=PUBLISH_TIMEOUT_S)
                    if completed.returncode != 0:
                        stderr = completed.stderr.decode(
                            errors="replace")[:2000]
                        raise ToolchainError(
                            f"native compile failed:\n{stderr}",
                            detail=stderr, transient=False)

                resilience.call_with_retry("native.cc", invoke,
                                           engine="native")
            finally:
                _unlink_quietly(source_path)

        try:
            return cache.store(self.key, build), None
        except ToolchainError as exc:
            return None, exc
        except subprocess.SubprocessError as exc:
            return None, ToolchainError(f"native compile failed: {exc}",
                                        detail=str(exc))
        except OSError as exc:
            resilience.record_event(
                "cache.write", "fallback", type(exc).__name__,
                "native artifact unpublished; building temp .so",
                engine="native")
            fd, temp_so = tempfile.mkstemp(prefix="repro-native-",
                                           suffix=".so")
            os.close(fd)
            try:
                build(temp_so)
            except ToolchainError as exc2:
                _unlink_quietly(temp_so)
                return None, exc2
            except (OSError, subprocess.SubprocessError) as exc2:
                _unlink_quietly(temp_so)
                return None, ToolchainError(
                    f"native compile failed: {exc2}", detail=str(exc2))
            _register_temp_artifact(temp_so)
            return temp_so, None

    @staticmethod
    def _load(path):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            return None


# ---------------------------------------------------------------------------
# Region dispatchers
# ---------------------------------------------------------------------------
#: the region ABI (``codegen_c``): eight arrays, ``total`` and ``mode`` by
#: value, two output arrays.  Arrays travel as addresses of pack members.
_ARGTYPES = ((ctypes.c_void_p,) * 8 + (ctypes.c_int64,) * 2
             + (ctypes.c_void_p,) * 2)


def _region_error(code: int) -> InterpreterError:
    """The engine error for a nonzero native error code (codes combine
    across OpenMP threads with a ``max`` reduction, so they stay semantic)."""
    if code == ERR_BAD_STEP:
        return InterpreterError("scf.for requires a positive step")
    return InterpreterError(f"native region failed (code {code})")


class _RegionHandle:
    """Checks one region's live-ins against the contract its C code was
    specialized for, writes them into a pooled pack and calls the function."""

    def __init__(self, unit: NativeUnit, spec, required_dims) -> None:
        self.unit = unit
        self.spec = spec
        #: dims that must have extent 1 for parallel execution, or ``None``
        #: when the store analysis rejected parallelism outright.
        self.required_dims = required_dims
        #: the machine's charges, packed once (``K`` of the region ABI).
        self.costs = (ctypes.c_double * max(1, len(spec.costs)))(*spec.costs)
        self.buffers = [(buf.slot, np.dtype(buf.dtype), buf.rank, buf.space,
                         buf.stored) for buf in spec.buffers]
        #: free packs.  Programs are cached on the module and shared by the
        #: daemon's handler threads: ``list.pop`` / ``append`` are atomic, so
        #: a pack is in one dispatch at a time and the pool grows to one pack
        #: per concurrently dispatching thread.
        self.pool: List[Tuple] = []

    def _new_pack(self) -> Tuple:
        """The ctypes arrays of one dispatch, allocated once: the nine the
        dispatch writes or reads, then their addresses in ABI order around
        ``total`` and ``mode`` (the pack owns the arrays, so they stay valid)."""
        spec, i64, f64 = self.spec, ctypes.c_int64, ctypes.c_double
        li, lf, lp, ls, lbs, steps, lens, outf, outi = arrays = [
            (ctype * max(1, length))() for ctype, length in (
                (i64, len(spec.int_slots)), (f64, len(spec.float_slots)),
                (ctypes.c_void_p, len(spec.buffers)),
                (i64, sum(buf.rank for buf in spec.buffers)),
                (i64, spec.num_dims), (i64, spec.num_dims),
                (i64, spec.num_dims), (f64, 2), (i64, 2))]
        head = tuple(map(ctypes.addressof, (li, lf, self.costs, lp, ls, lbs,
                                            steps, lens)))
        return (*arrays, head, tuple(map(ctypes.addressof, (outf, outi))))

    def dispatch(self, regs, bounds):
        """``(total, work, global_bytes, ops, error)`` of one native run, or
        the reason (a ``str``) the dispatch is refused: a live-in violated
        the contract the C code was specialized against (``scalar``: one of
        the wrong kind altogether), and the caller runs its compiled base
        plan instead, which either executes correctly or raises the exact
        engine error.  ``regs`` keeps the buffers alive across the call."""
        try:
            pack = self.pool.pop()
        except IndexError:
            pack = self._new_pack()
        (li, lf, pointers, shapes, lbs, steps, lens, outf, outi, head,
         tail) = pack
        try:
            spec = self.spec
            try:
                for index, slot in enumerate(spec.int_slots):
                    li[index] = int(regs[slot])
                for index, slot in enumerate(spec.float_slots):
                    lf[index] = float(regs[slot])
            except (TypeError, ValueError):
                return "scalar"
            intervals: List[Tuple[int, int, bool]] = []
            cursor = 0
            for index, (slot, dtype, rank, space, stored) in enumerate(
                    self.buffers):
                storage = regs[slot]
                if not isinstance(storage, MemRefStorage):
                    return "scalar"
                if storage.freed:
                    return "freed"
                array = storage.array
                if array.dtype != dtype:
                    return "dtype"
                if array.ndim != rank:
                    return "rank"
                flags = array.flags
                if not flags.c_contiguous:
                    return "layout"
                if storage.memory_space != space:
                    return "space"
                if stored and not flags.writeable:
                    return "read-only"
                address = array.ctypes.data
                pointers[index] = address
                for extent in array.shape:
                    shapes[cursor] = extent
                    cursor += 1
                intervals.append((address, address + array.nbytes, stored))
            ranges, total = _iteration_space(regs, *bounds)
            # the pragma loop needs the store-safety proof to hold for these
            # live-ins and enough units to amortize a team; anything else runs
            # the plain loop, which carries no OpenMP directive.
            required = self.required_dims
            mode = (required is not None
                    and total >= _MIN_PARALLEL_UNITS
                    and not self._overlapping(intervals)
                    and all(len(ranges[dim]) == 1 for dim in required))
            for index, axis in enumerate(ranges):
                lbs[index] = axis.start
                steps[index] = axis.step
                lens[index] = len(axis)
            self.unit.functions[spec.symbol](*head, total, mode, *tail)
            return total, outf[0], outf[1], outi[0], outi[1]
        finally:
            self.pool.append(pack)

    @staticmethod
    def _overlapping(intervals) -> bool:
        """True if any written buffer overlaps another live-in buffer.

        The store-safety analysis proves injectivity per buffer; two
        *aliasing* live-ins would let a store through one race a load
        through the other across OpenMP threads, so aliasing runs force
        the sequential path (which is exact for any aliasing).
        """
        for index in range(len(intervals)):
            start, stop, stored = intervals[index]
            if start == stop:
                continue
            for other in range(index + 1, len(intervals)):
                other_start, other_stop, other_stored = intervals[other]
                if not stored and not other_stored:
                    continue
                if start < other_stop and other_start < stop:
                    return True
        return False


# ---------------------------------------------------------------------------
# The native dispatcher
# ---------------------------------------------------------------------------
def native(fc: _FunctionCompiler, region: _Region):
    """The native engine's dispatcher: emit the span as C into the
    function's translation unit and return a runner that calls it, with the
    shell's in-process ``base`` run for every dispatch the C code cannot
    take; ``None`` (and the reason, on the plan) when the region cannot be
    emitted at all."""
    program, plan = fc.program, region.plan
    stats = program.native_stats
    unit = fc.dispatch_state
    if unit is None:
        # ``_Program.function`` registers it once the function is compiled.
        unit = fc.dispatch_state = NativeUnit(program)
    sanitized = "".join(ch if ch.isalnum() else "_" for ch in fc.fn.sym_name)
    symbol = f"repro_{sanitized}_p{fc.offered}"
    try:
        source, spec = RegionCodegen(program, plan, symbol, fc.slot).emit_span()
    except UnsupportedRegion as exc:
        stats["fallback_regions"] += 1
        plan.refuse("native", str(exc))
        return None
    stats["native_regions"] += 1
    if spec.simd_ok:
        stats["simd_regions"] += 1
    unit.add(source, symbol)
    region.tier = "native"
    proof = plan.parallel_proof
    handle = _RegionHandle(unit, spec,
                           None if proof is None else tuple(sorted(proof)))
    tally = program.bailouts.setdefault(id(plan), {})
    base, count, finish = region.base, region.count, region.finish
    bounds = region.bounds

    def run(state, regs):
        if state.max_ops is not None:
            outcome = "budget"
        elif not unit.ready():
            # a unit first met mid-run that failed to seal: this run stays
            # on the bit-identical base plan, the next strict run raises.
            outcome = "unit not ready"
        else:
            outcome = handle.dispatch(regs, bounds)
        if isinstance(outcome, str):
            stats["bailouts"] += 1
            tally[outcome] = tally.get(outcome, 0) + 1
            return base(state, regs)
        total, work, global_bytes, ops, error = outcome
        count(state)
        if error:
            raise _region_error(error)
        stats["native_dispatches"] += 1
        report = state.report
        report.dynamic_ops += ops
        report.global_bytes += global_bytes
        finish(state, total, work)
    return run


# ---------------------------------------------------------------------------
# Engine front end
# ---------------------------------------------------------------------------
class NativeEngine(CompiledEngine):
    """The compiled engine with parallel regions emitted as OpenMP C.

    Construction is cheap; the C compiler runs once per function at the
    first dispatch (warm runs come from the content-addressed artifact
    cache).  On hosts without a working ``cc -fopenmp`` every region
    transparently runs its compiled-engine base plan, so behaviour degrades
    but never breaks.
    """

    ROW = "native"

    def _preflight(self) -> None:
        # Strict (resilience-wrapped) runs raise a toolchain failure — the
        # *cached* probe's, or a known unit's failed compile (see NativeUnit)
        # — here; direct construction keeps the graceful degrade.
        if getattr(self, "_resilience_strict", False):
            require_toolchain()
            for unit in self._program.native_units:
                if not unit.ready() and unit.failure is not None:
                    raise unit.failure

    @property
    def native_stats(self) -> Dict[str, int]:
        """Region-level telemetry: native vs. fallback regions, dispatches,
        artifact-cache hits, compile failures."""
        return dict(self._program.native_stats)

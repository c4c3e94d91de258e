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
* at run time the dispatcher marshals the region's live-in scalars and
  ``MemRefStorage`` buffers zero-copy through ctypes (data pointers +
  shapes), calls the compiled function, and folds the counters it returns
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
NATIVE_FORMAT = 4

#: minimum iterations before a span is worth an OpenMP team.
_MIN_PARALLEL_UNITS = 64


def compiler_command() -> List[str]:
    """The C compiler argv prefix (``REPRO_CC`` may hold a full command)."""
    return os.environ.get(CC_ENV_VAR, "cc").split()


def compiler_flags() -> List[str]:
    """Flags for building region shared objects.

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

    Regions are added during function translation; the first dispatch seals
    the unit: the C source is assembled, compiled (or fetched warm from the
    artifact cache) and dlopened.  A corrupt cached artifact fails the
    dlopen, is invalidated and recompiled once; a failed compile disables
    the unit (every region runs its compiled-engine base plan).
    """

    def __init__(self, program) -> None:
        self.program = program
        self.sources: List[str] = []
        self.symbols: List[str] = []
        self.status = "open"          # open -> ready | failed
        self.library = None
        self.functions: Dict[str, object] = {}
        self.key: Optional[str] = None
        #: why the unit failed (strict resilience runs raise this instead
        #: of silently running the compiled base plans).
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

    def function(self, symbol: str):
        return self.functions[symbol]

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
_I64_2 = ctypes.c_int64 * 2
_F64_2 = ctypes.c_double * 2


def _region_error(code: int) -> InterpreterError:
    """The engine error for a nonzero native error code (codes combine
    across OpenMP threads with a ``max`` reduction, so they stay semantic)."""
    if code == ERR_BAD_STEP:
        return InterpreterError("scf.for requires a positive step")
    return InterpreterError(f"native region failed (code {code})")


class _RegionHandle:
    """Marshals one region's live-ins and calls its compiled function."""

    def __init__(self, unit: NativeUnit, spec, required_dims) -> None:
        self.unit = unit
        self.spec = spec
        #: dims that must have extent 1 for parallel execution, or ``None``
        #: when the store analysis rejected parallelism outright.
        self.required_dims = required_dims
        #: the machine's charges, packed once (``K`` of the region ABI).
        self.costs = (ctypes.c_double * max(1, len(spec.costs)))(*spec.costs)

    def ready(self) -> bool:
        return self.unit.ready()

    def marshal(self, regs):
        """(li, lf, lp, ls, storages, par_precondition) or ``None``.

        ``None`` means a live-in violated the contract the C code was
        specialized against (dtype, rank, space, writability, liveness) —
        the caller runs its compiled base plan instead, which either
        executes correctly or raises the exact engine error.
        """
        spec = self.spec
        try:
            li = [int(regs[slot]) for slot in spec.int_slots]
            lf = [float(regs[slot]) for slot in spec.float_slots]
        except (TypeError, ValueError):
            return None
        pointers: List[int] = []
        shapes: List[int] = []
        arrays = []
        intervals: List[Tuple[int, int, bool]] = []
        for buf in spec.buffers:
            storage = regs[buf.slot]
            if not isinstance(storage, MemRefStorage) or storage.freed:
                return None
            array = storage.array
            if (array.dtype.name != buf.dtype or array.ndim != buf.rank
                    or not array.flags["C_CONTIGUOUS"]
                    or storage.memory_space != buf.space):
                return None
            if buf.stored and not array.flags["WRITEABLE"]:
                return None
            address = array.ctypes.data
            pointers.append(address)
            shapes.extend(int(extent) for extent in array.shape)
            arrays.append(array)
            intervals.append((address, address + array.nbytes, buf.stored))
        par_ok = not self._overlapping(intervals)
        return li, lf, pointers, shapes, arrays, par_ok

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

    @staticmethod
    def _pack(li, lf, pointers, shapes):
        pack_i = (ctypes.c_int64 * max(1, len(li)))(*li)
        pack_f = (ctypes.c_double * max(1, len(lf)))(*lf)
        pack_p = (ctypes.c_void_p * max(1, len(pointers)))(*pointers)
        pack_s = (ctypes.c_int64 * max(1, len(shapes)))(*shapes)
        return pack_i, pack_f, pack_p, pack_s

    def call_span(self, marshalled, ranges, total: int):
        li, lf, pointers, shapes, arrays, no_alias = marshalled
        # one store-safety/alias proof gates both execution modes: OpenMP
        # teams additionally need enough units to amortize, SIMD needs the
        # emitter to have proven the inner loop serializable-exact.
        proof = (no_alias and self.required_dims is not None
                 and all(len(ranges[dim]) == 1 for dim in self.required_dims))
        mode = ((1 if proof and total >= _MIN_PARALLEL_UNITS else 0)
                | (2 if proof and getattr(self.spec, "simd_ok", False) else 0))
        pack_i, pack_f, pack_p, pack_s = self._pack(li, lf, pointers, shapes)
        ndim = len(ranges)
        lbs = (ctypes.c_int64 * max(1, ndim))(*[r.start for r in ranges])
        steps = (ctypes.c_int64 * max(1, ndim))(*[r.step for r in ranges])
        lens = (ctypes.c_int64 * max(1, ndim))(*[len(r) for r in ranges])
        outf = _F64_2()
        outi = _I64_2()
        self.unit.function(self.spec.symbol)(
            pack_i, pack_f, self.costs, pack_p, pack_s, lbs, steps, lens,
            ctypes.c_int64(total), ctypes.c_int64(mode),
            outf, outi)
        del arrays  # keep buffers alive across the call
        return outf[0], outf[1], outi[0], outi[1]


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
    base, count, finish = region.base, region.count, region.finish
    bounds = region.bounds

    def run(state, regs):
        if state.max_ops is not None:
            stats["bailouts"] += 1
            return base(state, regs)
        if not handle.ready():
            failure = handle.unit.failure
            if failure is not None and state.strict:
                raise failure
            stats["bailouts"] += 1
            return base(state, regs)
        marshalled = handle.marshal(regs)
        if marshalled is None:
            stats["bailouts"] += 1
            return base(state, regs)
        ranges, total = _iteration_space(regs, *bounds)
        count(state)
        work, global_bytes, ops, error = handle.call_span(
            marshalled, ranges, total)
        if error:
            raise _region_error(error)
        stats["native_dispatches"] += 1
        report = state.report
        report.dynamic_ops += int(ops)
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

    def run(self, function_name: str, arguments=()):
        # Strict (resilience-wrapped) runs surface the *cached* toolchain
        # failure as one clear ToolchainError up front — before any
        # argument is written — so the fallback chain can rebuild on the
        # next engine.  Direct construction keeps the historical graceful
        # degrade (every region runs its compiled base plan).
        if getattr(self, "_resilience_strict", False):
            require_toolchain()
        return super().run(function_name, arguments)

    @property
    def native_stats(self) -> Dict[str, int]:
        """Region-level telemetry: native vs. fallback regions, dispatches,
        artifact-cache hits, compile failures."""
        return dict(self._program.native_stats)

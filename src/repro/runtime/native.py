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
  without it runs those regions on the interpreter, the refusal named on
  the plan;
* once its function is translated, the unit is compiled with the system
  C compiler (``cc -O1 -fopenmp``; override with ``REPRO_CC``) into a
  shared object keyed by the SHA-256 of the generated source and the flags
  in the content-addressed artifact cache
  (:class:`repro.runtime.cache.NativeArtifactCache`) — warm launches skip
  the C compiler entirely, and with ``REPRO_CACHE=1`` warm *processes* do
  too.  Every artifact (the dispatcher and a unit at either tier) is
  loaded through one path, :func:`_artifact`.  A unit that does not build
  hands its regions back to the compiled engine, each refused by name
  (``native: unit did not build: ...``) on its plan.  The source holds no
  machine-model constant (charges arrive as the ``K`` argument), so one
  ``.so`` per kernel serves every machine model.  It does hold the IR
  constants a span captures, as literals, so two kernels that differ only
  in such a constant build two ``.so`` files;
* a lane-blocked unit (one holding a span with ``width > 1``) that keeps
  running is built again from the same source at :data:`PROMOTED_LEVEL`
  (tier 2): after :data:`PROMOTE_AFTER` runs the process' one promotion
  worker (:class:`_Promoter`) builds, publishes and dlopens it in the
  background and swaps ``unit.functions`` (and ``unit.host``) in one
  assignment each.  A unit whose
  tier-2 artifact is published (a restarted process) builds at tier 2.  Only
  lane-blocked units promote: ``-O3``'s gain is gcc peeling the ``[8]``
  lane loops; one-lane units have none, and promoting them too raised the
  cold-start metrics without moving the steady ones (README, "The ``-O``
  level is measured").  A failed
  promotion records one ``native.promote`` event and leaves the unit at
  tier 1; it never fails the unit and never raises.

  :data:`PROMOTE_AFTER` is 16, by a rule fixed before any reading was
  taken: promotion is for a unit that keeps running, and a one-shot use
  must never pay for a ``cc`` it cannot use.  The most runs a one-shot use
  makes of one unit is four — a daemon's warm-up sends one request per
  client, at most four clients; a cold process runs a kernel twice (its
  first run and one warm re-run), a cold request once — and the count is
  that times four, so no one-shot use comes near it.  Its cost to the
  steady state is the ``-O1`` runs before it: with the worker at idle
  priority, the ``cc`` itself takes only CPU time nothing else wanted.  A
  run counts once however many times it dispatches the unit (a host loop
  around a span), so a unit that runs once never promotes; each
  lane-blocked corpus kernel makes exactly one dispatch per run;
* at run time the function's generated code calls the region's handle
  (``_RegionHandle.dispatch``) directly, and the handle makes one C call:
  ``call`` of the dispatcher extension (``_dispatch.c``, one hand-written
  CPython extension that the toolchain probe builds into the artifact
  cache once and imports) checks the region's run-time live-in scalars and
  ``MemRefStorage`` buffers against the contract the C was specialized
  for, takes each buffer's data pointer and shape through the buffer
  protocol (zero-copy), reads the iteration space, decides the licence
  below, calls the compiled function with the interpreter lock released
  and folds the counters it returns (work cycles — counted in C as int64
  grid units, exact below 2^53 of them —, dynamic ops, global traffic) as
  the compiled engine's accounting epilogues do, addition for addition —
  so outputs *and* :class:`~repro.runtime.costmodel.CostReport`\\ s stay
  bit-identical to the interpreter (pinned by the five-engine parity
  matrix and the differential fuzz suite);
* a warm run of a *straight-line entry* (:class:`_Entry`: outside its
  spans, only pure scalar ops with an exact C form, non-nested
  ``omp.parallel``, ``omp.barrier`` and a void ``func.return``; every span
  native) enters no Python between the caller's arguments and the kernel:
  its unit also holds a *host function* that computes the host scalars,
  and :meth:`NativeEngine.run` makes one C call, ``call`` of the
  dispatcher, on the arguments as passed (ndarrays or ``MemRefStorage``\\ s).
  It checks each parameter once, runs the host function, decides every
  span's licence — all before the first store — and then runs the spans in
  order with the interpreter lock released once, replaying the generated
  Python's counters addition for addition, in the steps the function
  compiler recorded as it emitted them (:class:`~repro.runtime.compiler.Fold`).
  A call it refuses (an argument of another kind or dtype, a host integer
  op that leaves int64, a zero step, ...) stores nothing, and the compiled
  run follows with its per-region tallies and errors.  A span's error is
  raised after the counters so far; as in every run, its work frames end
  with it, so the next run is an entry call again.  The call is read from
  the program, which every engine of the module and machine shares, so a
  fresh engine's first run takes it too; the program's first run of an
  entry compiles it, and is a compiled run;
* real parallelism (a ``#pragma omp parallel`` team, one static chunk of
  the iterations per thread) is enabled per region only when the
  write-write store-safety analysis
  (:mod:`repro.analysis.store_safety`, asked once per region through its
  :class:`~repro.analysis.region.RegionPlan`) proves shards independent
  (required-singleton dims are re-checked per dispatch, as is runtime
  buffer aliasing); unproven regions still run as *sequential* C.  The
  same licence lets a lane-blocked span (one whose uniform loop carries a
  chain) step :data:`~repro.runtime.codegen_c.LANES` iterations at a time
  (``width``), so the serial chains of neighbouring iterations overlap;
  without it ``width`` is 1, the sequential order.  A one-lane span
  ignores ``width``.

Anything the emitter cannot translate — nested parallel constructs,
dynamic-extent private allocas, recursion — falls back **per region** to
the compiled closures, with the emitter's reason recorded on the plan
(``engine.regions``); a missing or broken C
toolchain — no ``cc``, no ``-fopenmp``, no ``Python.h`` to build the
dispatcher with — degrades the whole engine to compiled execution (same
graceful contract as the multicore engine on hosts without ``fork``).
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import signal
import struct
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..ir import MemRefType
from .cache import PUBLISH_TIMEOUT_S, _unlink_quietly, global_native_cache
from .codegen_c import (
    ERR_BAD_STEP,
    RegionCodegen,
    UnsupportedRegion,
    assemble_unit,
    emit_host,
    grid_units,
)
from .compiler import CompiledEngine, Fold, _FunctionCompiler, _Region
from .errors import InterpreterError, ToolchainError
from .memory import MemRefStorage, dtype_for
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
#: 6: the body is printed once, in `<symbol>_span(lo, hi)`: an odometer
#: index delinearized once per call (no division per iteration), called
#: over `[0, total)` or, under `mode`, once per OpenMP thread over one
#: static chunk; no `simd`.
#: 7: lane blocks: `<symbol>_span(lo, hi, width)` steps `width` iterations
#: at a time through lane loops over `[LANES]` arrays and masked branches;
#: `K` holds int64 grid units, the counters are int64 and `W` becomes a
#: double once per call.
#: 8: a captured `arith.constant` is a C literal, not an `LI`/`LF` slot;
#: integer `+ - *` wrap through `uint64_t` (no signed-overflow UB).
#: 9: a straight-line entry's unit also holds its host function,
#: `int <symbol>(int64_t* VI, double* VF)`, after the span functions, which
#: are unchanged.
NATIVE_FORMAT = 9

#: the ``-O`` level of every unit's first build (tier 1) and of a
#: lane-blocked unit's rebuild once it keeps running (tier 2).
BUILD_LEVEL = "-O1"
PROMOTED_LEVEL = "-O3"

#: runs of a lane-blocked unit before its tier-2 build starts (the rule that
#: picked it is in the module docstring).
PROMOTE_AFTER = 16


def compiler_command() -> List[str]:
    """The C compiler argv prefix (``REPRO_CC`` may hold a full command)."""
    return os.environ.get(CC_ENV_VAR, "cc").split()


def compiler_flags(level: str = BUILD_LEVEL) -> List[str]:
    """Flags for building region shared objects at the ``-O`` ``level``.

    The ``-O`` rule (README, "The ``-O`` level is measured") picks ``-O3``
    for the steady state and ``-O1`` for the cold start, and tiering meets
    both: every unit is built at :data:`BUILD_LEVEL` first, and a
    lane-blocked unit that keeps running is rebuilt at
    :data:`PROMOTED_LEVEL` in the background.  ``-O3`` runs the lane-blocked
    kernels up to a quarter faster because it completely peels every lane
    loop, which doubles their code and their ``cc`` time — a cold start at
    ``-O3`` (``req_cold_p50_ms``) read 200 ms against ``-O1``'s 105.  The
    slowest one-lane kernels read faster at ``-O1``.
    ``-ffp-contract=off`` matters for bit-identical outputs at every level:
    GCC contracts ``a*b+c`` into fused multiply-adds by default at ``-O3``,
    which rounds differently from the Python engines' separate multiply and
    add.
    """
    return [level, "-fPIC", "-shared", "-fopenmp", "-ffp-contract=off"]


_PROBE_LOCK = threading.Lock()
#: command -> (ok, failure detail).  The *negative* result is cached with
#: the probe's actual stderr, so every later ``engine="native"`` strict run
#: raises one clear :class:`ToolchainError` instead of re-probing.
_PROBE_RESULTS: Dict[Tuple[str, ...], Tuple[bool, str]] = {}

#: the dispatcher extension's source (module docstring), built by the probe.
_DISPATCH_SOURCE = Path(__file__).with_name("_dispatch.c")
_DISPATCH_MODULE = f"{__package__}._dispatch"

#: ``_dispatch.call`` of the last probe that passed (``None`` before one):
#: every unit that built was built after a probe passed.
_call: Optional[Callable] = None


def native_available() -> bool:
    """Whether a working ``cc -fopenmp`` toolchain exists that also builds
    the dispatcher against ``Python.h`` (probed once per command)."""
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


def _dlopen(path, load: Callable = ctypes.CDLL):
    """Load a shared object linked with libgomp (``load(path)``: a unit's
    library, or the dispatcher's import).  libgomp's default keeps a
    finished team's threads spinning, and a native run dispatches regions
    back to back: beside a request mix the spinning starves whatever else
    runs, a cold kernel's ``cc`` first (README, "it sets the wait policy").
    So, unless the user chose a policy, this puts ``OMP_WAIT_POLICY=passive``
    in ``os.environ`` — for the whole process and every child it starts,
    and for any other OpenMP runtime loaded after it.  libgomp reads the
    variable once, when it loads: if another library loaded it first, this
    has no effect.  A truncated ELF file raises OSError: mapping one can
    kill the process with SIGBUS instead of failing the load."""
    if _truncated(path):
        raise OSError(f"{path}: truncated shared object")
    os.environ.setdefault("OMP_WAIT_POLICY", "passive")
    return load(str(path))


def _truncated(path) -> bool:
    """Whether ``path`` is an ELF file cut short of its section header table,
    the last thing the linker writes."""
    with open(path, "rb") as handle:
        header = handle.read(64)
        size = os.fstat(handle.fileno()).st_size
    if header[:4] != b"\x7fELF":
        return False
    wide = header[4:5] == b"\x02"
    if len(header) < (64 if wide else 52):
        return True
    order = "<" if header[5:6] == b"\x01" else ">"
    offset, = struct.unpack_from(order + ("Q" if wide else "I"), header, 40 if wide else 32)
    entry, count = struct.unpack_from(order + "HH", header, 58 if wide else 46)
    return size < offset + entry * count


def _python_include() -> str:
    """The directory holding ``Python.h`` for this interpreter."""
    return sysconfig.get_path("include")


def _dispatcher_argv(command: List[str]) -> List[str]:
    """The ``cc`` command line that builds the dispatcher (output last)."""
    return [*command, *compiler_flags(), f"-I{_python_include()}",
            str(_DISPATCH_SOURCE), "-o"]


def _dispatcher_key(argv: List[str]) -> str:
    """The dispatcher artifact's key: its source, the interpreter's
    extension ABI and the command line."""
    hasher = hashlib.sha256()
    hasher.update(f"dispatcher:{sysconfig.get_config_var('EXT_SUFFIX')}\n".encode())
    hasher.update(" ".join(argv).encode())
    hasher.update(b"\x00")
    hasher.update(_DISPATCH_SOURCE.read_bytes())
    return hasher.hexdigest()


def _import_dispatcher(path):
    """The dispatcher module at ``path`` (ImportError when it does not load)."""
    loader = importlib.machinery.ExtensionFileLoader(_DISPATCH_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(_DISPATCH_MODULE, str(path),
                                                  loader=loader)
    return _dlopen(path, lambda _: importlib.util.module_from_spec(spec))


def _build_dispatcher(argv: List[str], output) -> None:
    try:
        completed = subprocess.run([*argv, str(output)], capture_output=True,
                                   timeout=PUBLISH_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ToolchainError(f"probe invocation failed: {exc}") from None
    if completed.returncode != 0:
        stderr = completed.stderr.decode(errors="replace").strip()[:2000]
        raise ToolchainError(f"probe compile exited {completed.returncode}: {stderr}",
                             detail=stderr, transient=False)


def _probe_toolchain(command: List[str]) -> Tuple[bool, str]:
    """Build (or find in the artifact cache), import and run the dispatcher:
    a host without ``cc``, ``-fopenmp`` or ``Python.h`` fails here."""
    global _call
    if not command or shutil.which(command[0]) is None:
        name = command[0] if command else "<empty>"
        return False, f"C compiler {name!r} not found on PATH"
    argv = _dispatcher_argv(command)
    try:
        module = _artifact(_dispatcher_key(argv), _import_dispatcher,
                           lambda output: _build_dispatcher(argv, output))
    except ToolchainError as exc:
        return False, str(exc)
    except (ImportError, OSError) as exc:
        return False, f"dispatcher import failed: {exc}"
    if module.probe() != 4:
        return False, "probe ran but returned an unexpected result"
    _call = module.call
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


def _store(cache, key: str, build: Callable):
    """Publish ``build(output)``'s artifact under ``key`` and return its path.
    When the cache cannot publish (disk full, injected ``cache.write``
    fault) the artifact is built into an unpublished per-process temp
    ``.so`` instead — only warm starts lose it.  A failed build raises
    :class:`ToolchainError`."""
    try:
        return cache.store(key, build)
    except subprocess.SubprocessError as exc:
        raise ToolchainError(f"native compile failed: {exc}", detail=str(exc)) from None
    except OSError as exc:
        resilience.record_event(
            "cache.write", "fallback", type(exc).__name__,
            "native artifact unpublished; building temp .so", engine="native")
    fd, temp_so = tempfile.mkstemp(prefix="repro-native-", suffix=".so")
    os.close(fd)
    try:
        build(temp_so)
    except ToolchainError:
        _unlink_quietly(temp_so)
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        _unlink_quietly(temp_so)
        raise ToolchainError(f"native compile failed: {exc}", detail=str(exc)) from None
    _register_temp_artifact(temp_so)
    return temp_so


def _artifact(key: str, load: Callable, build: Optional[Callable] = None,
              stats: Optional[Dict[str, int]] = None):
    """``load(path)`` of the artifact under ``key``, pinned: the one path
    every native artifact — the dispatcher, a unit at either tier — is
    loaded through.  A cached artifact that does not load (OSError,
    ImportError, a missing symbol's AttributeError) is dropped; then, as
    for a missing one, ``build(output)`` publishes it (:func:`_store`) and
    it is loaded once more.  Without ``build`` a missing artifact is
    ``None`` and a corrupt one raises its load error.  A failed build
    raises :class:`ToolchainError`, a rebuilt artifact that does not load
    its load error.  ``stats`` counts ``artifact_hits`` and the dropped
    ``corrupt_artifacts`` that were rebuilt."""
    cache = global_native_cache()
    path = cache.lookup(key)
    if path is not None:
        try:
            loaded = load(path)
        except (ImportError, OSError, AttributeError):
            cache.invalidate(key)
            if build is None:
                raise
            path = None
            if stats is not None:
                stats["corrupt_artifacts"] += 1
            resilience.record_event(
                "cache.read", "fallback", "CacheCorruptionError",
                f"corrupt native artifact {key[:12]}…; rebuilding", engine="native")
        else:
            if stats is not None:
                stats["artifact_hits"] += 1
    if path is None:
        if build is None:
            return None
        loaded = load(_store(cache, key, build))
    cache.pin(key)
    return loaded


def unit_key(source: str) -> str:
    """Content-addressed key of one translation unit's first build (source x
    toolchain x flags)."""
    return _unit_key(source, BUILD_LEVEL)


def _unit_key(source: str, level: str) -> str:
    hasher = hashlib.sha256()
    hasher.update(f"native-format:{NATIVE_FORMAT}\n".encode())
    hasher.update(" ".join(compiler_command() + compiler_flags(level)).encode())
    hasher.update(b"\x00")
    hasher.update(source.encode())
    return hasher.hexdigest()


def _popen(argv: List[str]) -> subprocess.Popen:
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _run_cc(source: str, output, level: str, spawn=_popen) -> None:
    """Build ``source`` into the shared object ``output`` at ``level``.

    A ``native.cc`` fault-injection site.  ``spawn(argv)`` starts the
    compiler process; a non-zero exit raises a permanent
    :class:`ToolchainError` carrying the stderr.
    """
    with tempfile.NamedTemporaryFile(
            "w", suffix=".c", prefix="repro-native-", delete=False) as handle:
        handle.write(source)
        source_path = handle.name
    try:
        resilience.inject("native.cc")
        process = spawn([*compiler_command(), *compiler_flags(level),
                         source_path, "-o", str(output)])
        try:
            _, stderr = process.communicate(timeout=PUBLISH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise
        if process.returncode != 0:
            stderr = stderr.decode(errors="replace")[:2000]
            # the stderr's first line ends the message's first line, which
            # a unit that does not build is refused by (``engine.regions``).
            raise ToolchainError(f"native compile failed: {stderr}",
                                 detail=stderr, transient=False)
    finally:
        _unlink_quietly(source_path)


# ---------------------------------------------------------------------------
# Translation units
# ---------------------------------------------------------------------------
class NativeUnit:
    """All native regions of one compiled function, built as one ``.so``.

    Regions are added while the function is translated, and the unit is
    built once, when the translation ends (:meth:`build`, before the
    compiled function is published to other threads): the C source is
    assembled, compiled — or fetched warm from the artifact cache — and
    loaded through :func:`_artifact`, which drops a corrupt cached
    artifact and rebuilds it once.  A unit that does not build (no
    toolchain, a failed compile, an artifact that does not load) records a
    ``native.cc`` degrade event and hands each of its regions back to the
    compiled engine's base plan, refused by name on the plan.

    When a unit builds is what makes the native engine fail before its first
    store or not at all: the entry function's unit is built when the entry
    is compiled, and a strict (resilience-wrapped) run raises a failed
    unit's :class:`ToolchainError` before it writes an argument.  A unit
    first met mid-run (a callee's, compiled at its first call) that does not
    build leaves the run on the bit-identical base plans, and it is the
    *next* strict run that raises and degrades.

    A lane-blocked unit builds at tier 2 when its :data:`PROMOTED_LEVEL`
    artifact is published, and otherwise promotes after
    :data:`PROMOTE_AFTER` runs (module docstring); nothing about a promotion
    touches ``failure``.
    """

    def __init__(self, program) -> None:
        self.program = program
        self.sources: List[str] = []
        self.symbols: List[str] = []
        #: the regions added, until the unit is built (compile time only).
        self.regions: List[_Region] = []
        #: every library the unit loaded: the tier-1 one stays referenced
        #: after the swap, since a dispatch may still be inside it.
        self.libraries: List[ctypes.CDLL] = []
        #: symbol -> the address of its region function (the region ABI).
        self.functions: Dict[str, int] = {}
        #: a straight-line entry's host function: its symbol and address,
        #: and the warm call the dispatcher makes of the entry (``None``:
        #: not a straight-line entry, the reason an ``entry`` refusal on the
        #: plans of the unit's regions).
        self.host_symbol: Optional[str] = None
        self.host: Optional[int] = None
        self.entry: Optional[_Entry] = None
        self.key: Optional[str] = None
        self.source: Optional[str] = None
        #: the ``-O`` level the functions were built at.
        self.level: Optional[str] = None
        #: whether a tier-2 build may still be tried: the unit holds a
        #: lane-blocked span and no promotion of it has failed.
        self.promotable = False
        #: runs left before the promotion (0: none due).
        self.countdown = 0
        #: the run counted last (``_State``): a run counts once, however many
        #: times it dispatches the unit.
        self.last_run = None
        #: why the unit did not build (strict resilience runs raise this up
        #: front instead of silently running the compiled base plans).
        self.failure: Optional[ToolchainError] = None
        self._lock = threading.Lock()

    def add(self, source: str, symbol: str, width: int, region: _Region) -> None:
        self.sources.append(source)
        self.symbols.append(symbol)
        self.regions.append(region)
        self.promotable |= width > 1

    # -- building ---------------------------------------------------------------
    def build(self, fc: _FunctionCompiler) -> None:
        """Build the unit, once its function ``fc`` is translated.  If it
        does not build, each of its regions runs its ``base`` plan: the
        name the function's generated code calls is rebound in ``fc.ns``,
        and the plan says why (``engine.regions``)."""
        regions, self.regions = self.regions, []
        if not regions:
            return
        try:
            entry = _Entry(fc)
        except UnsupportedRegion as exc:
            entry = None
            for region in regions:
                region.plan.refuse("entry", str(exc))
        else:
            self.sources.append(entry.source)
            self.host_symbol = entry.symbol
        try:
            self._build()
        except ToolchainError as exc:
            self.failure = exc
            if self.program.unit_failure is None:
                self.program.unit_failure = exc
            resilience.record_event("native.cc", "degrade", type(exc).__name__,
                                    str(exc)[:500], engine="native")
            self._fall_back(fc, regions)
            return
        self.entry = entry
        self.program.native_stats["units_ready"] += 1

    def _build(self) -> None:
        """Load the unit's library, building it if no artifact is cached;
        raises :class:`ToolchainError` when it does not build.  The ``cc``
        invocation is a ``native.cc`` fault-injection site and runs under
        the retry policy: a transient failure retries with backoff, a real
        non-zero compiler exit is permanent and carries the stderr."""
        stats = self.program.native_stats
        require_toolchain()
        source = self.source = assemble_unit(self.sources)
        self.key = unit_key(source)
        if self.promotable:
            # tier 2 when an earlier build published it; a corrupt tier-2
            # artifact is dropped and the unit builds at tier 1.
            try:
                promoted = _artifact(_unit_key(source, PROMOTED_LEVEL), self._load,
                                     stats=stats)
            except (OSError, AttributeError) as exc:
                promoted = None
                self._stay(exc)
            if promoted is not None:
                self._install(*promoted, PROMOTED_LEVEL)
                return

        def build(output):
            resilience.call_with_retry(
                "native.cc", lambda: _run_cc(source, output, BUILD_LEVEL),
                engine="native")

        try:
            built = _artifact(self.key, self._load, build, stats)
        except ToolchainError:
            stats["compile_errors"] += 1
            raise
        except (OSError, AttributeError) as exc:
            raise ToolchainError(f"rebuilt native artifact does not load: {exc}") from None
        self._install(*built, BUILD_LEVEL)
        self.countdown = PROMOTE_AFTER if self.promotable else 0

    def _fall_back(self, fc: _FunctionCompiler, regions: List[_Region]) -> None:
        program = self.program
        first_line = str(self.failure).partition("\n")[0]
        reason = f"unit did not build: {first_line}"
        for region in regions:
            fc.ns[region.name] = region.base
            region.plan.refuse("native", reason)
            region.tier, region.handle = "closures", None
        program.native_stats["native_regions"] -= len(regions)
        program.native_stats["fallback_regions"] += len(regions)

    def _load(self, path) -> Tuple[ctypes.CDLL, Dict[str, int], Optional[int]]:
        """The library at ``path``, the addresses of the unit's region
        functions in it and of its host function (AttributeError when one is
        missing)."""
        library = _dlopen(path)

        def address(symbol: str) -> int:
            return ctypes.cast(getattr(library, symbol), ctypes.c_void_p).value
        return (library, {symbol: address(symbol) for symbol in self.symbols},
                None if self.host_symbol is None else address(self.host_symbol))

    def _install(self, library, functions, host, level: str) -> None:
        self.libraries.append(library)
        # one assignment each: the swap between dispatches (a call that reads
        # one tier's spans and the other's host function runs the same code)
        self.functions = functions
        self.host = host
        self.level = level

    # -- promotion (tier 2) ----------------------------------------------------
    def count_run(self, state) -> None:
        """Count the run ``state`` belongs to, once per run, while a promotion
        is due; queue the promotion on the :data:`PROMOTE_AFTER`-th."""
        with self._lock:
            if state is self.last_run or self.countdown <= 0:
                return
            self.last_run = state
            self.countdown -= 1
            if self.countdown:
                return
            self.last_run = None
        _PROMOTER.submit(self)

    def promote(self) -> None:
        """Queue the tier-2 build now, whatever the count (a no-op unless a
        promotion is due: a one-lane unit never promotes)."""
        with self._lock:
            due, self.countdown, self.last_run = self.countdown > 0, 0, None
        if due:
            _PROMOTER.submit(self)

    def _promote(self, spawn) -> None:
        """Build, publish, load and swap in the tier-2 library (the promotion
        worker's thread); on any failure the unit stays at tier 1."""
        try:
            promoted = _artifact(
                _unit_key(self.source, PROMOTED_LEVEL), self._load,
                lambda output: _run_cc(self.source, output, PROMOTED_LEVEL, spawn))
        except (ToolchainError, OSError, AttributeError) as exc:
            self._stay(exc)
            return
        self._install(*promoted, PROMOTED_LEVEL)
        self.program.native_stats["promotions"] += 1

    def _stay(self, exc: Exception) -> None:
        """A failed promotion: one event, and the unit never tries again."""
        self.promotable = False
        self.program.native_stats["promotion_failures"] += 1
        resilience.record_event(
            "native.promote", "fallback", type(exc).__name__,
            f"unit {self.key[:12]}… stays at {BUILD_LEVEL}: {exc}"[:500],
            engine="native")


class _Promoter:
    """The process' one promotion worker: a daemon thread, started by the
    first promotion, that builds one unit at a time.  It runs at the lowest
    CPU priority (``nice`` 19, inherited by its ``cc``), so the build takes
    only CPU time nothing else wants, and holds no lock while ``cc`` runs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: units queued or in flight, oldest first.
        self._queue: List[NativeUnit] = []
        self._thread: Optional[threading.Thread] = None
        self._process: Optional[subprocess.Popen] = None
        self._stopping = False

    def submit(self, unit: NativeUnit) -> None:
        with self._lock:
            if self._stopping:
                return
            self._queue.append(unit)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._work, name="repro-native-promote", daemon=True)
                self._thread.start()
            self._changed.notify_all()

    def _work(self) -> None:
        try:
            # Linux: a thread's nice value is its own, and its children inherit it.
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        except (AttributeError, OSError):
            pass
        while True:
            with self._lock:
                self._changed.wait_for(lambda: self._queue or self._stopping)
                if self._stopping:
                    return
                unit = self._queue[0]
            try:
                unit._promote(self._spawn)
            except Exception as exc:  # noqa: BLE001 - the worker outlives one unit
                unit._stay(exc)
            with self._lock:
                self._queue.pop(0)
                self._changed.notify_all()

    def _spawn(self, argv: List[str]) -> subprocess.Popen:
        """Start a tier-2 ``cc`` in its own process group, which exit ends."""
        with self._lock:
            if self._stopping:
                raise ToolchainError("process exiting: promotion abandoned")
            self._process = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                start_new_session=True)
            return self._process

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Whether every queued promotion finished within ``timeout``."""
        with self._lock:
            return self._changed.wait_for(lambda: not self._queue, timeout)

    def stop(self) -> None:
        """At exit: end an in-flight ``cc`` (its whole process group), wait
        for it, and let the worker unlink its temp files."""
        with self._lock:
            self._stopping = True
            process, thread = self._process, self._thread
            self._changed.notify_all()
        if process is not None and process.poll() is None:
            for signum in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(process.pid, signum)
                    process.wait(timeout=5)
                    break
                except (OSError, subprocess.TimeoutExpired):
                    continue
        if thread is not None:
            thread.join(timeout=10)


_PROMOTER = _Promoter()


def await_promotions(timeout: Optional[float] = None) -> bool:
    """Block until every queued promotion has swapped in or failed (tests)."""
    return _PROMOTER.wait(timeout)


def _new_promoter_in_child() -> None:
    # a forked child has no worker thread, and may hold a copy of a lock
    # another thread held at the fork.
    global _PROMOTER
    _PROMOTER = _Promoter()


atexit.register(lambda: _PROMOTER.stop())
os.register_at_fork(after_in_child=_new_promoter_in_child)


# ---------------------------------------------------------------------------
# Region dispatchers
# ---------------------------------------------------------------------------
def _region_error(code: int) -> InterpreterError:
    """The engine error for a nonzero native error code (codes combine
    across OpenMP threads with a ``max`` reduction, so they stay semantic)."""
    if code == ERR_BAD_STEP:
        return InterpreterError("scf.for requires a positive step")
    return InterpreterError(f"native region failed (code {code})")


#: the refusal ``_dispatch.call`` returns, by its code (``REFUSE_*`` there):
#: a scalar that does not convert or fit in int64 (or a buffer slot holding
#: no buffer), then the buffer checks in the order it makes them, then a
#: zero step, which the base plan raises on.
_REFUSALS = ("scalar", "freed", "dtype", "rank", "layout", "space", "read-only", "step")

_FORMATS: Dict[np.dtype, Tuple[bytes, ...]] = {}


def _formats(dtype: np.dtype) -> Tuple[bytes, ...]:
    """The buffer formats of the arrays whose dtype equals ``dtype``
    (``int64`` exports as ``l`` or ``q``; a non-native byte order as
    neither)."""
    formats = _FORMATS.get(dtype)
    if formats is None:
        found = set()
        for code in np.typecodes["All"]:
            for order in "<>=":
                try:
                    candidate = np.dtype(order + code)
                    if candidate == dtype:
                        found.add(memoryview(np.empty(0, candidate)).format.encode())
                except (TypeError, ValueError):
                    continue
        formats = _FORMATS[dtype] = tuple(sorted(found))
    return formats


#: parameter kinds of a call's layout (``PARAM_*`` in ``_dispatch.c``).
_PARAM_INT, _PARAM_FLOAT, _PARAM_BUFFER = range(3)


class _Call(NamedTuple):
    """What one ``_dispatch.call`` checks its arguments against, runs and
    folds the counters of (its layout is ``_dispatch.c``'s)."""

    storage: type
    array: type
    #: int64 words: header, parameters, gathers, spans, steps.
    layout: bytes
    #: doubles: the sync and fork costs, speedup(1..n), the steps' charges.
    charges: bytes
    symbols: Tuple[str, ...]
    #: per buffer parameter: its accepted formats and its memory space.
    formats: Tuple[Tuple[bytes, ...], ...]
    spaces: Tuple[str, ...]


class _Contract(NamedTuple):
    """What one span's C code was specialized for: the live-ins a dispatch
    checks, by register slot, and the constants it passes on."""

    #: ``K`` of the region ABI: the machine's charges in grid units, int64.
    costs: bytes
    #: iterations a licensed dispatch advances per step.
    width: int
    #: the dims whose extent must be 1 for the licence, or ``None`` when the
    #: store analysis rejected it outright.
    required: Optional[Tuple[int, ...]]
    ints: Tuple[int, ...]
    floats: Tuple[int, ...]
    #: the lower, upper and step slots, one flat tuple.
    bounds: Tuple[int, ...]
    #: per buffer: (slot, accepted formats, rank, memory space, stored).
    buffers: Tuple[Tuple[int, Tuple[bytes, ...], int, str, bool], ...]
    #: the buffer pairs an alias could race: one of the two is stored.
    pairs: Tuple[Tuple[int, int], ...]


class _Calls:
    """The parts of a call that do not depend on a run's threads, and its
    :class:`_Call` per thread count.  ``params`` are ``(kind, index, rank,
    stored, position)``: the argument at ``position`` checked — converted
    as ``int()`` / ``float()`` would unless ``exact`` — into ``VI`` /
    ``VF`` / the buffer table at ``index``.  ``fold`` is the compiler's
    record of the steps the call replays (:class:`~repro.runtime.compiler.Fold`),
    and ``spans`` are, per span of it, ``(contract, ints, floats, bounds,
    buffers)``: its :class:`_Contract` and where its live-ins are in those
    tables; ``symbols`` name the spans' functions.  ``arity`` is the
    argument count a call requires (-1: any)."""

    def __init__(self, program, params, fold: Fold, spans, n_ints: int, n_floats: int,
                 formats, spaces, symbols, *, exact: bool, arity: int) -> None:
        self.program = program
        self.symbols = tuple(symbols)
        gathered: List[List[int]] = [[], [], []]
        records, extents, self.teams = [], 0, 1
        for region, (contract, ints, floats, bounds, buffers) in zip(fold.spans, spans):
            self.teams = max(self.teams, region.team)
            required = contract.required
            records += [contract.width, region.team, int(region.nowait),
                        len(gathered[0]), len(gathered[1]), len(gathered[0]) + len(ints),
                        len(bounds) // 3, len(gathered[2]), len(buffers), extents,
                        len(contract.costs) // 8,
                        *np.frombuffer(contract.costs, np.int64).tolist(),
                        -1 if required is None else len(required), *(required or ()),
                        len(contract.pairs), *(index for pair in contract.pairs
                                               for index in pair)]
            gathered[0] += [*ints, *bounds]
            gathered[1] += floats
            gathered[2] += buffers
            extents += sum(buffer[2] for buffer in contract.buffers)
        self.head = [len(params), n_ints, n_floats, len(formats), len(spans), len(fold.steps)]
        self.sizes = [*map(len, gathered), extents, int(exact), arity]
        self.body = [*(word for param in params for word in param),
                     *(word for words in gathered for word in words), *records]
        self.fold = fold
        self.formats, self.spaces = tuple(formats), tuple(spaces)
        self.contracts: Dict[int, _Call] = {}

    def get(self, threads: int) -> _Call:
        """The call under ``threads`` (built once per count): the speedups
        of every team a span may get, ``1..max(threads, the widest fixed
        team)``."""
        call = self.contracts.get(threads)
        if call is not None:
            return call
        teams = max(threads, self.teams)
        program = self.program
        charges = [program.machine.sync_cost, program.machine.fork_cost,
                   *map(program.speedup, range(1, teams + 1)), *self.fold.charges]
        layout = [*self.head, threads, teams, *self.sizes, *self.body, *self.fold.words(2 + teams)]
        call = self.contracts[threads] = _Call(
            MemRefStorage, np.ndarray, np.array(layout, dtype=np.int64).tobytes(),
            np.array(charges, dtype=np.float64).tobytes(), self.symbols, self.formats,
            self.spaces)
        return call


class _RegionHandle:
    """One native region's runner (:meth:`dispatch`): the live-in contract
    its C code was specialized for, and the shell's accounting and
    in-process ``base`` run."""

    def __init__(self, unit: NativeUnit, spec, required_dims, region: _Region,
                 program) -> None:
        self.unit = unit
        self.symbol = spec.symbol
        self.width = spec.width
        buffers = spec.buffers
        # a charge off the grid raises UnsupportedRegion, which refuses the
        # region by name where the int64 would truncate it.
        contract = self.contract = _Contract(
            np.array([grid_units(cost) for cost in spec.costs], dtype=np.int64).tobytes(),
            spec.width, required_dims, tuple(spec.int_slots), tuple(spec.float_slots),
            tuple(slot for slots in region.bounds for slot in slots),
            tuple((buf.slot, _formats(np.dtype(buf.dtype)), buf.rank, buf.space, buf.stored)
                  for buf in buffers),
            tuple((first, second)
                  for first, one in enumerate(buffers)
                  for second, other in enumerate(buffers)
                  if first < second and (one.stored or other.stored)))
        # the live-ins in the order a dispatch checks them: the ints, the
        # floats, the buffers, then per dim its lower, upper and step bound
        ints, dims = len(contract.ints), len(contract.bounds) // 3
        params = [*((_PARAM_INT, index, 0, 0, slot) for index, slot in enumerate(contract.ints)),
                  *((_PARAM_FLOAT, index, 0, 0, slot)
                    for index, slot in enumerate(contract.floats)),
                  *((_PARAM_BUFFER, index, rank, int(stored), slot)
                    for index, (slot, _, rank, _, stored) in enumerate(contract.buffers)),
                  *((_PARAM_INT, ints + at, 0, 0, contract.bounds[at])
                    for dim in range(dims) for at in (dim, dims + dim, 2 * dims + dim))]
        span = (contract, range(ints), range(len(contract.floats)),
                range(ints, ints + 3 * dims), range(len(contract.buffers)))
        self.calls = _Calls(program, params, Fold(region), [span],
                            ints + 3 * dims, len(contract.floats),
                            [buffer[1] for buffer in contract.buffers],
                            [buffer[3] for buffer in contract.buffers], [self.symbol],
                            exact=False, arity=-1)
        self.base = region.base
        self.stats = program.native_stats
        self.tally = program.bailouts.setdefault(id(region.plan), {})

    def dispatch(self, state, regs) -> None:
        """Run the region natively, or refuse and run its ``base`` plan.

        One C call (``_dispatch.call``) checks the live-ins against the
        contract the C was specialized for and, when they keep it, runs the
        region's function on them zero-copy with the interpreter lock
        released, and folds its counters as the shell's accounting would;
        the first failed check names the refusal.  ``unit.functions`` is
        read on every dispatch, so a tier-2 swap takes effect at the next
        one."""
        unit = self.unit
        call = self.calls.contracts.get(state.threads) or self.calls.get(state.threads)
        result = _call(unit.functions, None, call, regs)
        if result.__class__ is int:
            return self._refuse(_REFUSALS[result], state, regs)
        work, ops, global_bytes, regions, loops, _, _, error = result
        report = state.report
        report.parallel_regions += regions
        report.workshared_loops += loops
        if error:
            raise _region_error(error)
        self.stats["native_dispatches"] += 1
        if unit.countdown:
            unit.count_run(state)
        report.dynamic_ops += ops
        report.global_bytes += global_bytes
        state.work[-1] += work

    def _refuse(self, reason: str, state, regs) -> None:
        """Count a refused dispatch under its reason; run the base plan."""
        self.stats["bailouts"] += 1
        tally = self.tally
        tally[reason] = tally.get(reason, 0) + 1
        self.base(state, regs)


# ---------------------------------------------------------------------------
# Straight-line entries
# ---------------------------------------------------------------------------
class _Entry:
    """The warm call of a *straight-line entry*: a function whose ops outside
    its spans are pure scalar ops with an exact C form
    (:func:`~repro.runtime.codegen_c.emit_host`), non-nested
    ``omp.parallel`` ops, ``omp.barrier`` and a ``func.return`` of nothing,
    and whose spans all went native in the unit being built.  Its host
    function's ``source`` joins the unit; ``calls`` is what
    ``_dispatch.call`` runs the function by: its parameters checked exactly
    as passed, each span's live-ins as slots of the host scalars and buffer
    parameters, and the steps the function compiler recorded (``fc.fold``).
    Raises :class:`UnsupportedRegion` naming what makes the function
    something else."""

    def __init__(self, fc: _FunctionCompiler) -> None:
        fold = fc.fold
        if fold.refusal is not None:
            raise UnsupportedRegion(fold.refusal)
        arguments = fc.fn.arguments
        buffers = [value for value in arguments if isinstance(value.type, MemRefType)]
        sanitized = "".join(ch if ch.isalnum() else "_" for ch in fc.fn.sym_name)
        self.symbol = f"repro_{sanitized}_host"
        self.source, host = emit_host(
            self.symbol, [value for value in arguments
                          if not isinstance(value.type, MemRefType)], fold.ops)
        # every live-in of a span is a host scalar or a buffer parameter
        scalar = {fc.slot(value): host.where[id(value)] for value in host.ints + host.floats}
        buffer = {fc.slot(value): index for index, value in enumerate(buffers)}

        def indices(wanted: str, slots) -> List[int]:
            found = [scalar.get(slot, (None, 0)) for slot in slots]
            if any(kind != wanted for kind, _ in found):
                raise UnsupportedRegion("a span live-in is not a host scalar")
            return [index for _, index in found]

        records, stored = [], set()
        for region in fold.spans:
            contract = region.handle.contract
            if any(slot not in buffer for slot, *_ in contract.buffers):
                raise UnsupportedRegion("a span live-in buffer is not a parameter")
            owned = [buffer[slot] for slot, *_ in contract.buffers]
            stored.update(index for index, (*_, written) in zip(owned, contract.buffers)
                          if written)
            records.append((contract, indices("VI", contract.ints),
                            indices("VF", contract.floats), indices("VI", contract.bounds),
                            owned))
        params = []
        for position, value in enumerate(arguments):
            if isinstance(value.type, MemRefType):
                index = buffer[fc.slot(value)]
                params.append((_PARAM_BUFFER, index, value.type.rank, int(index in stored),
                               position))
            else:
                kind, index = host.where[id(value)]
                params.append((_PARAM_INT if kind == "VI" else _PARAM_FLOAT, index, 0, 0,
                               position))
        self.calls = _Calls(
            fc.program, params, fold, records, len(host.ints), len(host.floats),
            [_formats(dtype_for(value.type.element_type)) for value in buffers],
            [value.type.memory_space for value in buffers],
            [region.handle.symbol for region in fold.spans], exact=True,
            arity=len(arguments))
        self.calls.get(fc.program.machine.cores)  # the default team's, at plan time


# ---------------------------------------------------------------------------
# The native dispatcher
# ---------------------------------------------------------------------------
def native(fc: _FunctionCompiler, region: _Region):
    """The native engine's dispatcher: emit the span as C into the
    function's translation unit and return the region handle's
    :meth:`~_RegionHandle.dispatch`, which runs it, with the shell's
    in-process ``base`` run for every dispatch the C code cannot take;
    ``None`` (and the reason, on the plan) when the region cannot be
    emitted at all."""
    program, plan = fc.program, region.plan
    stats = program.native_stats
    unit = fc.dispatch_state
    if unit is None:
        # ``_Program.function`` builds and registers it once the function
        # is compiled.
        unit = fc.dispatch_state = NativeUnit(program)
    sanitized = "".join(ch if ch.isalnum() else "_" for ch in fc.fn.sym_name)
    symbol = f"repro_{sanitized}_p{fc.offered}"
    try:
        source, spec = RegionCodegen(program, plan, symbol, fc.slot).emit_span()
        proof = plan.parallel_proof
        handle = _RegionHandle(unit, spec,
                               None if proof is None else tuple(sorted(proof)),
                               region, program)
    except UnsupportedRegion as exc:
        stats["fallback_regions"] += 1
        plan.refuse("native", str(exc))
        return None
    stats["native_regions"] += 1
    unit.add(source, symbol, spec.width, region)
    region.tier, region.handle = "native", handle
    return handle.dispatch


# ---------------------------------------------------------------------------
# Engine front end
# ---------------------------------------------------------------------------
class NativeEngine(CompiledEngine):
    """The compiled engine with parallel regions emitted as OpenMP C.

    Construction is cheap; the C compiler runs once per function, when the
    function is first compiled (warm runs come from the content-addressed
    artifact cache).  On hosts without a working ``cc -fopenmp`` every region
    transparently runs its compiled-engine base plan, so behaviour degrades
    but never breaks.
    """

    ROW = "native"
    _SHOWN = ("parallel", "lanes", "entry")

    #: whether a strict run of this engine found the toolchain working.
    _toolchain_checked = False

    def run(self, function_name: str, arguments=()) -> List:
        """A run of a straight-line entry whose program has compiled it is
        one dispatcher call (``_dispatch.call``) on the arguments as passed,
        on any engine over the program (a strict one probes the toolchain
        first, once), its counters folded as the compiled run folds them and
        a span's error raised after them; the program's first run, a refused
        call and every other function take the compiled engine's run."""
        program = self._program
        compiled = program.entries.get(function_name)
        unit = None if compiled is None else compiled.dispatch_state
        entry = None if unit is None else unit.entry
        if entry is not None and program.unit_failure is None:
            if self._resilience_strict and not self._toolchain_checked:
                self._probe_toolchain()
            calls = entry.calls
            contract = calls.contracts.get(self.threads) or calls.get(self.threads)
            folded = _call(unit.functions, unit.host, contract, arguments)
            if folded.__class__ is tuple:
                work, ops, global_bytes, regions, loops, barriers, dispatches, error = folded
                report = self.report
                report.dynamic_ops += ops
                report.global_bytes += global_bytes
                report.parallel_regions += regions
                report.workshared_loops += loops
                report.barriers += barriers
                program.native_stats["native_dispatches"] += dispatches
                program.native_stats["entry_calls"] += 1
                if dispatches and unit.countdown:
                    unit.count_run(folded)  # a new tuple per run: it counts once
                if error:
                    raise _region_error(error)
                report.cycles += work
                return []
        return super().run(function_name, arguments)

    def _entry(self, name: str, count: int):
        # Strict (resilience-wrapped) runs raise a toolchain failure — the
        # *cached* probe's, before a unit is built, or the build of a unit of
        # the program (see NativeUnit) — here; direct construction keeps the
        # graceful degrade.  Once the probe passed, a unit built under a
        # compiler that fails carries its own failure.
        program = self._program
        if not self._resilience_strict:
            return program.entry(name, count)
        if not self._toolchain_checked:
            self._probe_toolchain()
        compiled = program.entry(name, count)
        if program.unit_failure is not None:
            raise program.unit_failure
        return compiled

    def _probe_toolchain(self) -> None:
        """A strict engine's one toolchain check, before its first store:
        raises the cached probe's failure."""
        require_toolchain()
        self._toolchain_checked = True

    @property
    def native_stats(self) -> Dict[str, int]:
        """Region-level telemetry: native vs. fallback regions, dispatches,
        artifact-cache hits, compile failures, and the units swapped to tier
        2 (``promotions``) or left at tier 1 by a failed promotion
        (``promotion_failures``)."""
        return dict(self._program.native_stats)

"""Content-addressed kernel compile cache: memory LRU + optional disk tier.

The paper's MocCUDA layer (§V-B) compiles each intercepted CUDA kernel once
and replays the compiled artifact on every subsequent launch; this module
gives the reproduction the same amortization for *every* entry point that
goes through :func:`repro.frontend.compile_cuda` (the Rodinia suite, the
figure harnesses, the MocCUDA shim, user code).

A cache entry is keyed by the *content* of the compilation request:

* the SHA-256 of the CUDA-C source text,
* whether the GPU-to-CPU pipeline runs (``cuda_lower``),
* the full :class:`~repro.transforms.PipelineOptions` configuration,
* a fingerprint of the pass pipeline those options assemble (pass names and
  their constructor state, in order), so editing the pipeline invalidates
  old entries, and
* the frontend ``noalias`` assumption.

Three tiers — :class:`KernelCache` (pickled modules, ``<dir>/<key>.pkl``),
:class:`NativeArtifactCache` (``<dir>/native/<key>.so``) and
:class:`TuningCache` (``<dir>/tuning/<key>.json``) — share one disk store
(:class:`_DiskStore`) and differ only in payload and in what they keep in
memory.  The optional disk tier is enabled with ``REPRO_CACHE=1`` and
located at ``REPRO_CACHE_DIR`` (default ``~/.cache/repro-kernel-cache``),
surviving process restarts.  Corrupt, truncated or stale entries (format or
key mismatch after a pipeline change) silently fall back to a fresh compile
and are rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..transforms import PipelineOptions
from . import resilience

#: bump when the pickle payload layout (not the IR) changes.
CACHE_FORMAT = 1

#: bump when the tuning-record layout changes (old records become stale).
#: 2: configs are (engine, workers) only — a record naming a deleted
#:    candidate (``native[simd=0]``, ``multicore[w=1]``) must re-tune.
TUNING_FORMAT = 2

#: environment knobs.
DISK_ENV_VAR = "REPRO_CACHE"
DISK_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: entries the in-process LRU keeps / artifacts the ``.so`` tier keeps on
#: disk, unless the constructor is given a ``capacity``.
_DEFAULT_CAPACITY = 256

#: name prefix of a publish in flight (a writer between ``mkstemp`` and
#: ``os.replace``); never a published entry.
_TEMP_PREFIX = ".tmp-"

#: the longest a writer may legitimately sit between ``mkstemp`` and
#: ``os.replace`` — the native tier's ``cc`` timeout.  An in-flight file
#: older than this is the orphan of a killed writer.
PUBLISH_TIMEOUT_S = 300.0


# ---------------------------------------------------------------------------
# Key computation
# ---------------------------------------------------------------------------
_FINGERPRINTS: Dict[PipelineOptions, str] = {}
_FINGERPRINT_LOCK = threading.Lock()


def _pass_state(pass_) -> str:
    """A stable rendering of a pass's constructor state (simple attrs only)."""
    items = []
    for name in sorted(vars(pass_)):
        value = getattr(pass_, name)
        if isinstance(value, (bool, int, float, str, type(None))):
            items.append(f"{name}={value!r}")
    return ",".join(items)


def pipeline_fingerprint(options: PipelineOptions) -> str:
    """Fingerprint of the pass pipeline ``options`` assembles.

    Covers the ordered pass names and each pass's simple constructor state,
    so a change to :func:`repro.transforms.cpuify.build_pipeline` (or to a
    pass default) keys differently and old cache entries become stale.
    """
    with _FINGERPRINT_LOCK:
        cached = _FINGERPRINTS.get(options)
    if cached is not None:
        return cached
    from ..transforms.cpuify import build_pipeline

    pm = build_pipeline(options)
    text = ";".join(f"{p.NAME}({_pass_state(p)})" for p in pm.passes)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    with _FINGERPRINT_LOCK:
        _FINGERPRINTS[options] = digest
    return digest


def kernel_key(source: str, *, cuda_lower: bool = False,
               options: Optional[PipelineOptions] = None,
               noalias: bool = True) -> str:
    """The content-addressed cache key for one ``compile_cuda`` request."""
    parts = [f"format:{CACHE_FORMAT}", f"noalias:{noalias}",
             f"cuda_lower:{cuda_lower}"]
    if cuda_lower:
        resolved = options or PipelineOptions.all_optimizations()
        parts.append(f"options:{resolved!r}")
        parts.append(f"pipeline:{pipeline_fingerprint(resolved)}")
    hasher = hashlib.sha256("\n".join(parts).encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# The one disk store
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Counters for one tier's behavior (reset with ``reset_stats``)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_stores: int = 0
    disk_errors: int = 0
    #: kernel tier: modules that could not be pickled.
    uncacheable: int = 0
    #: tuning tier: records dropped because their winner degraded.
    invalidations: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


#: the tuning tier counts with the same dataclass.
TuningCacheStats = CacheStats


def _unlink_quietly(path) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


class _DiskStore:
    """One directory of content-addressed, crash-safely published entries.

    Base of the three tiers: where the directory is, the publish, the
    corrupt-entry-dropping read, the enumeration of published entries and
    the counters are each decided here, once.  ``location`` (the tiers'
    ``disk_dir`` / ``directory``) pins an explicit directory, ``False``
    disables the disk tier, and ``None`` (the process-global caches)
    consults the ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` environment on every
    operation, so tests, services and benchmark children can set them after
    ``import repro``.
    """

    #: sub-directory of the environment-configured root (``None`` = the root).
    SUBDIR: Optional[str] = None
    #: file-name suffix of a published entry.
    SUFFIX = ""

    def __init__(self, location: object) -> None:
        self._location = location
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = CacheStats()

    def disk_path(self) -> Optional[Path]:
        """The active disk-tier directory, or ``None`` when disabled."""
        if self._location is False:
            return None
        if self._location is not None:
            return Path(self._location)
        if os.environ.get(DISK_ENV_VAR, "").strip().lower() not in ("1", "true", "yes", "on"):
            return None
        configured = os.environ.get(DISK_DIR_ENV_VAR)
        root = Path(configured) if configured else Path.home() / ".cache" / "repro-kernel-cache"
        return root / self.SUBDIR if self.SUBDIR else root

    def path_for(self, key: str) -> Optional[Path]:
        directory = self.disk_path()
        return None if directory is None else directory / f"{key}{self.SUFFIX}"

    def _publish(self, key: str, write: Callable[[Path], None]) -> Optional[Path]:
        """Crash-safe publish: ``write(temp_path)`` creates the payload in a
        tempfile in the cache directory, which is fsynced and then atomically
        renamed over the final name — a killed process can never leave a
        torn entry, and concurrent writers of the same key converge on one
        valid file.  Failures unlink the tempfile and propagate; returns
        ``None`` when the disk tier is off.
        """
        path = self.path_for(key)
        if path is None:
            return None
        resilience.inject("cache.write")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=str(path.parent),
                                         prefix=_TEMP_PREFIX, suffix=self.SUFFIX)
        os.close(fd)
        try:
            write(Path(temp_name))
            sync_fd = os.open(temp_name, os.O_RDONLY)
            try:
                os.fsync(sync_fd)
            finally:
                os.close(sync_fd)
            os.replace(temp_name, path)
        except BaseException:
            _unlink_quietly(temp_name)
            raise
        self._count("disk_stores")
        return path

    def _publish_or_skip(self, key: str, write: Callable[[Path], None]) -> None:
        """:meth:`_publish` for the tiers whose memory tier serves when the
        disk cannot (full disk, injected fault, unencodable payload)."""
        try:
            self._publish(key, write)
        except (OSError, TypeError, ValueError) as exc:
            self._count("disk_errors")
            resilience.record_event("cache.write", "fallback",
                                    type(exc).__name__,
                                    "disk store skipped; memory tier serves")

    def _read(self, key: str, load: Callable[[Path], object]):
        """``load(path)`` of the published entry, or ``None`` on a miss."""
        path = self.path_for(key)
        if path is None:
            return None
        try:
            resilience.inject("cache.read")
            return load(path)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # corrupt/stale/unreadable entry: drop it and rebuild — the
            # rewrite repairs the disk tier on the very next publish.
            self._count("disk_errors")
            resilience.record_event("cache.read", "fallback",
                                    type(exc).__name__,
                                    f"{path.name}: dropping entry, rebuilding")
            _unlink_quietly(path)
            return None

    def _published(self) -> List[Path]:
        """Every published entry.  ``glob`` also matches another process's
        in-flight ``.tmp-*`` file, and unlinking that fails the writer's
        ``os.replace``: in-flight files are skipped — and removed once older
        than :data:`PUBLISH_TIMEOUT_S` (orphans of killed writers)."""
        directory = self.disk_path()
        if directory is None or not directory.is_dir():
            return []
        published = []
        for path in directory.glob(f"*{self.SUFFIX}"):
            if not path.name.startswith(_TEMP_PREFIX):
                published.append(path)
                continue
            try:
                if time.time() - path.stat().st_mtime > PUBLISH_TIMEOUT_S:
                    path.unlink()
            except OSError:
                pass
        return published

    def _clear_disk(self) -> None:
        for path in self._published():
            _unlink_quietly(path)


# ---------------------------------------------------------------------------
# Kernel tier (pickled modules)
# ---------------------------------------------------------------------------
@dataclass
class _Entry:
    blob: bytes
    #: the retained canonical module, materialized on first shared lookup.
    shared_module: object = field(default=None, repr=False)


class KernelCache(_DiskStore):
    """Two-tier (memory LRU + optional disk) cache of compiled modules.

    The in-process LRU holds the **pickled** module bytes.  A hit is
    deserialized into a private module copy by default (callers may mutate
    it freely, ~100x faster than a cold compile), or returned as the
    retained *shared* canonical object with ``shared=True`` — the mode the
    MocCUDA stream executor uses so the per-module compiled-program caches
    (:mod:`repro.runtime.compiler`) amortize executor construction too.
    Shared modules must not be mutated (same contract as
    :func:`repro.runtime.invalidate_compiled`).
    """

    SUFFIX = ".pkl"

    def __init__(self, capacity: Optional[int] = None,
                 disk_dir: object = None) -> None:
        super().__init__(disk_dir)
        self.capacity = max(1, _DEFAULT_CAPACITY if capacity is None else capacity)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()

    def lookup(self, key: str, *, shared: bool = False):
        """Return a module for ``key`` or ``None``.

        ``shared=False`` deserializes a private copy the caller owns;
        ``shared=True`` returns the retained canonical object (do not
        mutate it).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.memory_hits += 1
        disk_module = None
        if entry is None:
            loaded = self._read(key, lambda path: self._load(key, path))
            if loaded is None:
                self._count("misses")
                return None
            # the disk load already deserialized (and verified) one module:
            # hand that very object out instead of unpickling again.
            entry, disk_module = loaded
            with self._lock:
                self.stats.disk_hits += 1
                self._entries[key] = entry
                self._evict_locked()
        if not shared:
            return disk_module if disk_module is not None else pickle.loads(entry.blob)
        with self._lock:
            if entry.shared_module is None:
                entry.shared_module = (disk_module if disk_module is not None
                                       else pickle.loads(entry.blob))
            return entry.shared_module

    def insert(self, key: str, module, *, shared: bool = False) -> None:
        """Store a freshly compiled module under ``key`` (both tiers).

        ``shared=True`` additionally retains ``module`` as the canonical
        shared object, so the very caller that compiled it keeps receiving
        the same object from later ``shared`` lookups.  Copy-mode inserts
        leave it out: the compiling caller owns (and may mutate) its
        module, while the pristine pickled blob serves every later hit.
        """
        try:
            blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._count("uncacheable")
            return
        with self._lock:
            self._entries[key] = _Entry(blob, module if shared else None)
            self._entries.move_to_end(key)
            self._evict_locked()
            self.stats.stores += 1
        payload = {"format": CACHE_FORMAT, "key": key, "blob": blob}
        self._publish_or_skip(key, lambda temp: temp.write_bytes(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @staticmethod
    def _load(key: str, path: Path) -> tuple:
        """``(entry, verified_module)``; the module is the one
        deserialization the caller should hand out."""
        payload = pickle.loads(path.read_bytes())
        if (not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT
                or payload.get("key") != key):
            raise ValueError("stale or foreign cache entry")
        blob = payload["blob"]
        # materialize + verify so a corrupt entry can never hand out a
        # structurally broken module.
        from ..ir import verify
        module = pickle.loads(blob)
        verify(module)
        return _Entry(blob), module

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and, with ``disk=True``, the disk tier)."""
        with self._lock:
            self._entries.clear()
        if disk:
            self._clear_disk()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# Native artifact tier (compiled .so files for the native engine)
# ---------------------------------------------------------------------------
class NativeArtifactCache(_DiskStore):
    """Content-addressed shared objects for :mod:`repro.runtime.native`.

    The native engine hashes each generated C translation unit (plus the
    compiler command and flags) and keys the compiled ``.so`` here, so warm
    launches skip the C compiler entirely:

    * without the disk tier, artifacts live in a per-process temporary
      directory (in-process reuse; cleaned up with the process);
    * with ``REPRO_CACHE=1`` they live in a ``native/`` subdirectory of the
      kernel cache (``REPRO_CACHE_DIR``) and survive process restarts.

    Eviction keeps at most ``capacity`` artifacts by access time (a lookup
    refreshes the file's mtime); artifacts the current process has dlopened
    are pinned via :meth:`pin` and never evicted out from under a loaded
    handle.  A corrupt artifact (truncated write, foreign file) surfaces as
    a dlopen failure in the engine, which calls :meth:`invalidate` and
    recompiles — never a crash.
    """

    SUBDIR = "native"
    SUFFIX = ".so"

    def __init__(self, capacity: Optional[int] = None,
                 directory: object = None) -> None:
        super().__init__(directory)
        self.capacity = max(1, _DEFAULT_CAPACITY if capacity is None else capacity)
        self._temp_dir: Optional[str] = None
        self._pinned: set = set()

    def disk_path(self) -> Path:
        """Never ``None``: the per-process temp dir when the disk tier is off."""
        path = super().disk_path()
        if path is None:
            with self._lock:
                if self._temp_dir is None:
                    self._temp_dir = tempfile.mkdtemp(prefix="repro-native-")
            path = Path(self._temp_dir)
        return path

    def directory(self) -> Path:
        """The active artifact directory (created on demand)."""
        path = self.disk_path()
        path.mkdir(parents=True, exist_ok=True)
        return path

    def lookup(self, key: str) -> Optional[Path]:
        """The artifact path for ``key`` if present (refreshes its LRU age)."""
        def touch(path: Path) -> Path:
            try:
                os.utime(path)
            except PermissionError:
                pass  # read-only shared directory: the artifact still loads
            return path

        path = self._read(key, touch)
        self._count("misses" if path is None else "disk_hits")
        return path

    def store(self, key: str, build) -> Path:
        """Build an artifact via ``build(temp_path)`` and publish atomically.

        ``build`` must create the shared object at the temporary path it is
        given; a failed build (exception) propagates after cleanup.
        """
        path = self._publish(key, build)
        self.evict()
        return path

    def pin(self, key: str) -> None:
        """Protect a dlopened artifact from eviction for this process."""
        with self._lock:
            self._pinned.add(key)

    def invalidate(self, key: str) -> None:
        """Drop a corrupt artifact so the next request recompiles."""
        _unlink_quietly(self.path_for(key))

    def evict(self) -> None:
        """Trim the directory to ``capacity`` artifacts, oldest-access first.

        Pinned (dlopened) artifacts neither count against the capacity nor
        get removed — evicting them would strand the next process on a
        recompile while this one still maps the file.
        """
        with self._lock:
            pinned = set(self._pinned)
        try:
            entries = sorted((path for path in self._published()
                              if path.stem not in pinned),
                             key=lambda path: path.stat().st_mtime)
        except OSError:
            return
        excess = len(entries) - self.capacity
        for path in entries:
            if excess <= 0:
                break
            if _unlink_quietly(path):
                excess -= 1

    def clear(self) -> None:
        self._clear_disk()


# ---------------------------------------------------------------------------
# Tuning tier (persisted autotuner winners for engine="auto")
# ---------------------------------------------------------------------------
class TuningCache(_DiskStore):
    """Persisted autotuner winners, the third cache tier.

    One record per (module content-address x function x argument-shape/dtype
    signature x execution parameters) key — the key is computed by
    :func:`repro.runtime.autotune.tuning_key`; this class only stores and
    retrieves.  A record is a small JSON-able dict::

        {"config": {"engine": "native", "workers": None},
         "host": {"cpus": 4, "toolchain": true, ...},
         "seconds": 0.00045, "measurements": {...}}

    The ``host`` fingerprint is stored *inside* the record and checked by
    the autotuner on lookup: a record tuned on a different host (CPU count,
    toolchain, numpy version) is treated as a miss and re-tuned, which also
    overwrites the stale record in place.

    Tiers mirror :class:`KernelCache`: an in-process dict always, plus the
    crash-safe on-disk JSON tier under ``<cache-dir>/tuning/`` when
    ``REPRO_CACHE=1``.  Corrupt, truncated or stale disk records fall back
    to a re-tune and are rewritten.
    """

    SUBDIR = "tuning"
    SUFFIX = ".json"

    def __init__(self, disk_dir: object = None) -> None:
        super().__init__(disk_dir)
        self._records: Dict[str, dict] = {}
        #: bumped on every mutation (insert/invalidate/clear); lets callers
        #: stamp derived state (the autotuner's resolved-config memo) and
        #: drop it the moment the underlying records change.
        self.generation = 0

    def lookup(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or ``None`` (a private copy)."""
        with self._lock:
            record = self._records.get(key)
            if record is not None:
                self.stats.memory_hits += 1
                return dict(record)
        record = self._read(key, lambda path: self._load(key, path))
        if record is None:
            self._count("misses")
            return None
        with self._lock:
            self.stats.disk_hits += 1
            self._records[key] = record
        return dict(record)

    def insert(self, key: str, record: dict) -> None:
        """Store (and crash-safely publish) a freshly tuned record."""
        with self._lock:
            self._records[key] = dict(record)
            self.stats.stores += 1
            self.generation += 1
        payload = {"format": TUNING_FORMAT, "key": key, "record": record}
        self._publish_or_skip(
            key, lambda temp: temp.write_text(json.dumps(payload)))

    def invalidate(self, key: str) -> None:
        """Drop a record whose winner degraded; the next run re-tunes."""
        with self._lock:
            existed = self._records.pop(key, None) is not None
            self.generation += 1
        path = self.path_for(key)
        if path is not None and _unlink_quietly(path):
            existed = True
        if existed:
            self._count("invalidations")

    @staticmethod
    def _load(key: str, path: Path) -> dict:
        payload = json.loads(path.read_text())
        if (not isinstance(payload, dict)
                or payload.get("format") != TUNING_FORMAT
                or payload.get("key") != key
                or not isinstance(payload.get("record"), dict)):
            raise ValueError("stale or foreign tuning record")
        return payload["record"]

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and, with ``disk=True``, the disk tier)."""
        with self._lock:
            self._records.clear()
            self.generation += 1
        if disk:
            self._clear_disk()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# ---------------------------------------------------------------------------
# Process-global cache
# ---------------------------------------------------------------------------
_GLOBAL_LOCK = threading.Lock()
_GLOBALS: Dict[type, _DiskStore] = {}


def _global(tier: type):
    with _GLOBAL_LOCK:
        if tier not in _GLOBALS:
            _GLOBALS[tier] = tier()
        return _GLOBALS[tier]


def global_cache() -> KernelCache:
    """The process-wide kernel cache used by ``compile_cuda``."""
    return _global(KernelCache)


def global_native_cache() -> NativeArtifactCache:
    """The process-wide native artifact cache used by the native engine."""
    return _global(NativeArtifactCache)


def global_tuning_cache() -> TuningCache:
    """The process-wide tuning cache used by ``engine="auto"``."""
    return _global(TuningCache)


def clear_global_cache(disk: bool = False) -> None:
    """Drop the process-wide cache (used by tests and benchmarks)."""
    cache = global_cache()
    cache.clear(disk=disk)
    cache.reset_stats()


def clear_global_tuning_cache(disk: bool = False) -> None:
    """Drop the process-wide tuning cache (used by tests and benchmarks)."""
    cache = global_tuning_cache()
    cache.clear(disk=disk)
    cache.reset_stats()


__all__ = [
    "CACHE_FORMAT", "DISK_DIR_ENV_VAR", "DISK_ENV_VAR",
    "PUBLISH_TIMEOUT_S", "TUNING_FORMAT",
    "CacheStats", "KernelCache", "NativeArtifactCache", "TuningCache",
    "TuningCacheStats", "clear_global_cache", "clear_global_tuning_cache",
    "global_cache", "global_native_cache", "global_tuning_cache",
    "kernel_key", "pipeline_fingerprint",
]

"""Runtime error types shared by the execution engines and the memory layer.

``InterpreterError`` historically lived in :mod:`repro.runtime.interpreter`
(and is still re-exported from there); it moved here so that
:mod:`repro.runtime.memory` can raise engine-compatible errors without a
circular import — the use-after-free guard is centralized in
:class:`~repro.runtime.memory.MemRefStorage` and must surface as an
``InterpreterError`` to every engine.

On top of the interpreter errors this module defines the **failure
taxonomy** consumed by :mod:`repro.runtime.resilience`: every
infrastructure failure the runtime can encounter mid-run maps to one of
the :class:`ResilienceError` subclasses below, each tagged transient
(worth retrying under the configured :class:`~repro.runtime.resilience.
RetryPolicy`) or permanent (degrade through the engine fallback chain).
The classes keep their historical base types — ``WorkerCrashError`` and
``DispatchTimeoutError`` are ``InterpreterError``s, ``ShmExhaustedError``
is an ``OSError`` — so the pre-taxonomy ``except`` clauses in the engines
keep catching them.
"""

from __future__ import annotations

import errno


class InterpreterError(RuntimeError):
    """Raised on malformed IR or unsupported runtime situations."""


class UseAfterFreeError(InterpreterError):
    """Raised when a freed memref buffer is accessed (load/store/free/copy)."""


#: every engine's error for a parallel span stepping by zero.
ZERO_STEP = "scf.parallel requires a nonzero step"


def arity_error(fn, count: int) -> InterpreterError:
    """The error of a call to ``fn`` (a ``func.func``) with ``count`` arguments."""
    return InterpreterError(
        f"{fn.sym_name}: expected {len(fn.arguments)} arguments, got {count}")


# ---------------------------------------------------------------------------
# Failure taxonomy (see runtime/resilience.py for the policy layer)
# ---------------------------------------------------------------------------
class ResilienceError(Exception):
    """Mixin base for the structured failure taxonomy.

    ``transient`` tags whether retrying the *same* operation can plausibly
    succeed (crashed worker → re-fork, hiccuping I/O) as opposed to a
    deterministic environment fact (no C toolchain on the box).  The class
    default can be overridden per instance for borderline cases — e.g. an
    injected ``ToolchainError`` standing in for a flaky compiler invocation
    is transient while a real non-zero ``cc`` exit is not.
    """

    TRANSIENT = False

    def __init__(self, *args, transient=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.transient = self.TRANSIENT if transient is None else bool(transient)


class ToolchainError(ResilienceError, RuntimeError):
    """The C toolchain is missing or a ``cc`` invocation failed.

    Permanent by default (a box without ``cc`` stays without ``cc``);
    raised transient for spawn-level hiccups and injected compiler faults.
    Carries the probe/compile ``stderr`` in ``detail`` when available.
    """

    def __init__(self, message, *, detail="", transient=None):
        super().__init__(message, transient=transient)
        self.detail = detail


class WorkerCrashError(ResilienceError, InterpreterError):
    """A multicore worker process died mid-shard (EOF on its pipe).

    Transient: sharded stores are injective, so killing the pool,
    re-forking and re-dispatching the same shards is idempotent.
    """

    TRANSIENT = True


class DispatchTimeoutError(ResilienceError, InterpreterError):
    """A multicore shard dispatch exceeded the ``REPRO_TIMEOUT_S`` watchdog.

    Transient: the watchdog kills the hung pool; a re-fork gets a clean
    slate for the retry.
    """

    TRANSIENT = True


class ShmExhaustedError(ResilienceError, OSError):
    """``/dev/shm`` cannot hold a shared-memory promotion (``ENOSPC``).

    Permanent for the run: the engines demote the affected pool to
    in-process execution rather than hammering a full filesystem.
    Subclasses ``OSError`` so the pre-taxonomy demotion paths
    (``except OSError``) keep working.
    """

    def __init__(self, message, *, transient=None):
        OSError.__init__(self, errno.ENOSPC, message)
        self.transient = False if transient is None else bool(transient)


class CacheCorruptionError(ResilienceError, RuntimeError):
    """A disk-cache entry failed to load or verify.

    Transient in the retry sense that the corrupt entry is unlinked and a
    recompile rewrites it — the *next* attempt through the same code path
    succeeds.
    """

    TRANSIENT = True


class StreamPoisonedError(RuntimeError):
    """A launch was submitted to a poisoned MocCUDA stream.

    After an asynchronous batch fails, the stream refuses further launches
    (chaining the original worker-thread failure via ``__cause__``) until
    ``synchronize()`` re-raises and clears it.  Not part of the fallback
    taxonomy: it is the *surfacing* of an earlier failure, not a new one.
    """


#: every taxonomy class, in documentation order.
TAXONOMY = (ToolchainError, WorkerCrashError, ShmExhaustedError,
            CacheCorruptionError, DispatchTimeoutError)


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is tagged worth retrying (taxonomy-aware)."""
    return bool(getattr(error, "transient", False))


__all__ = [
    "CacheCorruptionError", "DispatchTimeoutError", "InterpreterError",
    "ResilienceError", "ShmExhaustedError", "StreamPoisonedError",
    "TAXONOMY", "ToolchainError", "UseAfterFreeError", "WorkerCrashError",
    "is_transient",
]

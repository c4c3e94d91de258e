"""Fault-tolerant execution layer: retry policy, fault injection, fallback.

The paper's portability guarantee — every kernel has a semantically
identical lower-tier execution strategy — doubles as an *availability*
guarantee: when infrastructure fails mid-run (a ``cc`` invocation, a
worker process, ``/dev/shm``, a disk-cache entry), the runtime can retry
the transient failures and degrade the permanent ones through the engine
fallback chain without changing a single output bit.  This module is the
policy layer that makes that an enforced invariant instead of ad-hoc
``except`` clauses:

* :class:`RetryPolicy` — ``REPRO_RETRIES`` / ``REPRO_TIMEOUT_S`` /
  ``REPRO_BACKOFF_S`` with deterministic jittered exponential backoff.
* :class:`ResilienceLog` — a queryable in-process record of every
  injection, retry, fallback, degradation and recovery
  (:func:`global_log`).
* :class:`FaultPlan` — the deterministic fault-injection harness behind
  ``REPRO_FAULTS``.  Grammar (comma-separated)::

      REPRO_FAULTS="native.cc:2,cache.read:0.3@seed7,multicore.worker_exit:1"

  ``site:N`` fires the first ``N`` times the site is reached; ``site:P``
  with ``P`` in ``[0,1)`` fires with probability ``P`` from a seeded RNG
  (``@seedS`` picks the seed, default 0), so a given spec produces the
  same firing sequence on every run.  ``site:*`` always fires.  Sites:
  ``native.cc`` (compiler invocation), ``cache.read`` / ``cache.write``
  (disk-cache I/O), ``multicore.worker_exit`` / ``multicore.hang``
  (worker crash / hang, parent-side), ``sharedmem.promote`` (shm
  exhaustion), ``shim.launch`` (asynchronous stream batch failure).
* :func:`call_with_retry` — wrap one transient operation in the policy.
* :class:`ResilientExecutor` — wraps an engine executor and, when a
  taxonomy error escapes ``run()``, rebuilds on the next engine of
  :data:`FALLBACK_CHAIN` (``native → multicore → vectorized → compiled →
  interp``) and re-runs, preserving bit-identical outputs and
  CostReports.  :func:`maybe_resilient` wraps every engine
  ``make_executor`` builds that has a tier below it.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    CacheCorruptionError,
    ShmExhaustedError,
    ToolchainError,
    WorkerCrashError,
    is_transient,
)

#: environment knobs.
FAULTS_ENV_VAR = "REPRO_FAULTS"
RETRIES_ENV_VAR = "REPRO_RETRIES"
TIMEOUT_ENV_VAR = "REPRO_TIMEOUT_S"
BACKOFF_ENV_VAR = "REPRO_BACKOFF_S"

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.05

#: engine fallback order, strongest first; a permanent failure on one
#: engine degrades to the next.  Every transition preserves bit-identical
#: outputs and CostReports (pinned by tests/runtime/test_engine_parity.py).
FALLBACK_CHAIN = ("native", "multicore", "vectorized", "compiled", "interp")


def faults_configured() -> bool:
    """Whether ``REPRO_FAULTS`` names any injection site."""
    return bool(os.environ.get(FAULTS_ENV_VAR, "").strip())


def fallback_engines(engine: str) -> Tuple[str, ...]:
    """The engines below ``engine`` in the fallback chain (may be empty)."""
    try:
        index = FALLBACK_CHAIN.index(engine)
    except ValueError:
        return ()
    return FALLBACK_CHAIN[index + 1:]


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient operation.

    ``timeout_s`` is the opt-in dispatch watchdog deadline: ``None``
    (the default, i.e. ``REPRO_TIMEOUT_S`` unset) disables it.  No fixed
    wall-clock cap is both safe for a legitimately long dispatch (large
    shards, loaded machine) and tight enough to matter for a hung
    worker, so hang detection is armed explicitly, not by default.
    """

    retries: int = DEFAULT_RETRIES
    timeout_s: Optional[float] = None
    backoff_s: float = DEFAULT_BACKOFF_S

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        def read(var, default, conv):
            raw = os.environ.get(var, "").strip()
            if not raw:
                return default
            try:
                return conv(raw)
            except ValueError:
                return default

        return cls(retries=max(0, read(RETRIES_ENV_VAR, DEFAULT_RETRIES, int)),
                   timeout_s=read(TIMEOUT_ENV_VAR, None, float),
                   backoff_s=read(BACKOFF_ENV_VAR, DEFAULT_BACKOFF_S, float))

    @property
    def watchdog_timeout(self) -> Optional[float]:
        """The dispatch watchdog deadline in seconds (``None`` = disabled)."""
        if self.timeout_s is None or self.timeout_s <= 0:
            return None
        return self.timeout_s

    def backoff_delay(self, op: str, attempt: int) -> float:
        """Jittered exponential backoff before retry ``attempt`` of ``op``.

        The jitter is drawn from an RNG seeded on ``(op, attempt)`` so the
        delay sequence is deterministic — reruns of a faulted test take the
        same wall-clock path.
        """
        if self.backoff_s <= 0:
            return 0.0
        base = self.backoff_s * (2 ** attempt)
        jitter = random.Random(f"{op}:{attempt}").random()  # in [0, 1)
        return base * (0.5 + 0.5 * jitter)

    def sleep(self, op: str, attempt: int) -> None:
        delay = self.backoff_delay(op, attempt)
        if delay > 0:
            time.sleep(delay)


def retry_policy() -> RetryPolicy:
    """The environment-configured policy (re-read on every call; cheap)."""
    return RetryPolicy.from_env()


# ---------------------------------------------------------------------------
# Resilience log
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceEvent:
    """One recorded resilience action.

    ``action`` is one of ``"inject"`` (a configured fault fired),
    ``"retry"`` (a transient failure is being retried), ``"fallback"``
    (an alternate same-tier path was taken, e.g. corrupt cache entry →
    recompile), ``"degrade"`` (capability lost for the rest of the
    run/process, e.g. pool demoted in-process, native unit failed, engine
    chain stepped down) or ``"recover"`` (a degraded resource was
    restored, e.g. poisoned stream cleared, pool re-forked).
    """

    op: str
    action: str
    error: str = ""
    detail: str = ""
    attempt: int = 0
    engine: str = ""


class ResilienceLog:
    """Bounded, thread-safe, queryable record of resilience events.

    The deque of events is bounded (oldest evicted past ``capacity``), but
    the per-action totals are **persistent counters** maintained in
    ``record()`` under the same lock — so ``counts()`` is an O(actions)
    snapshot that stays correct for a long-running process even after
    millions of events have rotated out of the window, and is cheap enough
    for per-stream worker threads and the service's stats endpoint to call
    concurrently with recording.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._events: "deque[ResilienceEvent]" = deque(maxlen=max(1, capacity))
        self._totals: Dict[str, int] = {}
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, op: str, action: str, error: str = "", detail: str = "",
               attempt: int = 0, engine: str = "") -> ResilienceEvent:
        event = ResilienceEvent(op=op, action=action, error=error,
                                detail=detail, attempt=attempt, engine=engine)
        with self._lock:
            self._events.append(event)
            self._totals[action] = self._totals.get(action, 0) + 1
            self._recorded += 1
        return event

    def events(self, *, op: Optional[str] = None, action: Optional[str] = None,
               error: Optional[str] = None) -> List[ResilienceEvent]:
        """Retained events in arrival order, filtered by any of
        op/action/error (at most ``capacity`` — the newest)."""
        with self._lock:
            snapshot = list(self._events)
        return [event for event in snapshot
                if (op is None or event.op == op)
                and (action is None or event.action == action)
                and (error is None or event.error == error)]

    def counts(self) -> Dict[str, int]:
        """Event count per action since construction (or the last
        ``clear``) — *not* bounded by the event window."""
        with self._lock:
            return dict(self._totals)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (>= ``len(log)`` once the window rotates)."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._totals.clear()
            self._recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


_GLOBAL_LOG = ResilienceLog()


def global_log() -> ResilienceLog:
    """The process-wide resilience log."""
    return _GLOBAL_LOG


def record_event(op: str, action: str, error: str = "", detail: str = "",
                 attempt: int = 0, engine: str = "") -> ResilienceEvent:
    """Record on the global log (convenience for the engine hook points)."""
    return _GLOBAL_LOG.record(op, action, error, detail, attempt, engine)


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------
class _FaultSpec:
    """One parsed ``site:spec`` entry with its firing state."""

    def __init__(self, site: str, *, remaining: Optional[int] = None,
                 probability: Optional[float] = None, seed: int = 0,
                 always: bool = False) -> None:
        self.site = site
        self.remaining = remaining
        self.probability = probability
        self.always = always
        self._rng = random.Random(seed) if probability is not None else None

    def fires(self) -> bool:
        if self.always:
            return True
        if self.remaining is not None:
            if self.remaining <= 0:
                return False
            self.remaining -= 1
            return True
        return self._rng.random() < self.probability


class FaultPlan:
    """The parsed ``REPRO_FAULTS`` plan; stateful (counters, seeded RNGs)."""

    def __init__(self, text: str) -> None:
        self.text = text
        self._specs: Dict[str, _FaultSpec] = {}
        self._lock = threading.Lock()
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            site, _, spec = entry.rpartition(":")
            if not site or not spec:
                raise ValueError(
                    f"malformed {FAULTS_ENV_VAR} entry {entry!r}; expected "
                    "'site:count', 'site:prob@seedN' or 'site:*'")
            self._specs[site] = self._parse_spec(site, spec)

    @staticmethod
    def _parse_spec(site: str, spec: str) -> _FaultSpec:
        if spec == "*":
            return _FaultSpec(site, always=True)
        seed = 0
        if "@" in spec:
            spec, _, seed_text = spec.partition("@")
            if not seed_text.startswith("seed"):
                raise ValueError(
                    f"malformed {FAULTS_ENV_VAR} seed {seed_text!r} for "
                    f"{site!r}; expected '@seedN'")
            seed = int(seed_text[4:])
        try:
            if "." in spec or "e" in spec.lower():
                probability = float(spec)
                if not 0.0 <= probability <= 1.0:
                    raise ValueError
                return _FaultSpec(site, probability=probability, seed=seed)
            count = int(spec)
            if count < 0:
                raise ValueError
            return _FaultSpec(site, remaining=count)
        except ValueError:
            raise ValueError(
                f"malformed {FAULTS_ENV_VAR} spec {spec!r} for {site!r}; "
                "expected a count, a probability in [0, 1] or '*'") from None

    def sites(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def fires(self, site: str) -> bool:
        spec = self._specs.get(site)
        if spec is None:
            return False
        with self._lock:
            return spec.fires()


_PLAN_LOCK = threading.Lock()
_PLAN: Optional[FaultPlan] = None


def _current_plan() -> Optional[FaultPlan]:
    """The plan for the *current* ``REPRO_FAULTS`` value.

    Keyed on the raw env text: monkeypatching the variable mid-process
    installs a fresh plan with fresh counters; clearing it drops the plan.
    """
    global _PLAN
    text = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if not text:
        with _PLAN_LOCK:
            _PLAN = None
        return None
    with _PLAN_LOCK:
        if _PLAN is None or _PLAN.text != text:
            _PLAN = FaultPlan(text)
        return _PLAN


def reset_faults() -> None:
    """Drop the cached plan so the env spec re-arms with fresh counters."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = None


def fault_fires(site: str) -> bool:
    """Whether the configured plan injects a fault at ``site`` right now.

    A firing is recorded on the global log as an ``"inject"`` event.  Used
    directly by hook points whose fault is an *action* (e.g. the multicore
    dispatcher crashing a worker) rather than an exception.
    """
    plan = _current_plan()
    if plan is None or not plan.fires(site):
        return False
    record_event(site, "inject", detail=f"fault injected at {site}")
    return True


def _fault_error(site: str) -> Exception:
    if site == "native.cc":
        return ToolchainError(
            f"injected fault at {site}: cc invocation failed ({FAULTS_ENV_VAR})",
            transient=True)
    if site == "cache.read":
        return CacheCorruptionError(
            f"injected fault at {site}: corrupt cache entry ({FAULTS_ENV_VAR})")
    if site == "cache.write":
        return OSError(errno.ENOSPC,
                       f"injected fault at {site}: cache write failed "
                       f"({FAULTS_ENV_VAR})")
    if site == "sharedmem.promote":
        return ShmExhaustedError(
            f"injected fault at {site}: /dev/shm exhausted ({FAULTS_ENV_VAR})")
    if site == "shim.launch":
        return WorkerCrashError(
            f"injected fault at {site}: asynchronous stream task failed "
            f"({FAULTS_ENV_VAR})")
    return RuntimeError(f"injected fault at {site} ({FAULTS_ENV_VAR})")


def inject(site: str) -> None:
    """Raise the site's taxonomy error if the configured plan fires."""
    if fault_fires(site):
        raise _fault_error(site)


# ---------------------------------------------------------------------------
# Retry wrapper
# ---------------------------------------------------------------------------
def call_with_retry(op: str, fn: Callable, *, policy: Optional[RetryPolicy] = None,
                    retryable: Optional[tuple] = None,
                    log: Optional[ResilienceLog] = None, engine: str = ""):
    """Run ``fn()`` under the retry policy.

    Retries up to ``policy.retries`` times when the failure is eligible:
    by default any taxonomy error tagged transient (:func:`is_transient`);
    ``retryable`` (an exception-class tuple) *replaces* that test — a
    matching instance retries even without a transient tag (widening to
    e.g. plain ``OSError``), a non-matching transient does not (narrowing).
    Every retry sleeps the deterministic jittered backoff and records a
    ``"retry"`` event.  The last failure propagates unchanged.
    """
    policy = policy or retry_policy()
    # explicit None check: an *empty* ResilienceLog is falsy (__len__)
    log = global_log() if log is None else log
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as exc:
            if retryable is not None:
                eligible = isinstance(exc, retryable)
            else:
                eligible = is_transient(exc)
            if not eligible or attempt >= policy.retries:
                raise
            log.record(op, "retry", type(exc).__name__, str(exc),
                       attempt + 1, engine)
            policy.sleep(op, attempt)
            attempt += 1


# ---------------------------------------------------------------------------
# Engine fallback chain
# ---------------------------------------------------------------------------
class ResilientExecutor:
    """Engine executor wrapper implementing the fallback chain.

    Runs on the requested engine; when a :mod:`~repro.runtime.errors`
    taxonomy error escapes ``run()``, rebuilds the executor on the next
    engine in :data:`FALLBACK_CHAIN` and re-runs on pristine inputs.  The
    wrapped engines run *strict* (``_resilience_strict``): instead of
    silently degrading they raise their taxonomy error so the wrapper owns
    — and logs — every degradation decision.

    The invariant that keeps the inputs pristine: an in-process engine
    (``native``, ``vectorized``, ``compiled``) raises a taxonomy error
    before its first store or not at all, and says so with a class
    attribute, ``FAILS_BEFORE_FIRST_STORE`` (the native engine seals its
    translation units up front; a ``cc`` failure met mid-run finishes that
    run on the base plans and degrades the *next* one).  The snapshot of
    the writable ``ndarray`` arguments exists for engines that cannot
    promise that — ``multicore``, whose workers can die after earlier
    shards stored, and anything that does not declare the attribute — and
    is taken lazily, right before the first such engine runs, while the
    arguments are still as the caller passed them.

    Everything else (``report``, ``shutdown``, engine-specific stats)
    delegates to the innermost live executor.
    """

    def __init__(self, executor, engine: str, rebuild: Callable[[str], object],
                 *, log: Optional[ResilienceLog] = None) -> None:
        self._inner = executor
        self._rebuild = rebuild
        self._log = global_log() if log is None else log
        self._engine_chain = (engine,) + fallback_engines(engine)
        self._engine_index = 0
        executor._resilience_strict = True

    @property
    def engine_name(self) -> str:
        """The engine currently executing (after any degradations)."""
        return self._engine_chain[self._engine_index]

    @property
    def inner(self):
        return self._inner

    def run(self, function_name: str, arguments=()):
        from .errors import ResilienceError

        snapshot = None
        while True:
            if snapshot is None and not getattr(
                    self._inner, "FAILS_BEFORE_FIRST_STORE", False):
                snapshot = self._snapshot(arguments)
            try:
                return self._inner.run(function_name, arguments)
            except ResilienceError as exc:
                next_index = self._engine_index + 1
                if next_index >= len(self._engine_chain):
                    raise
                current = self._engine_chain[self._engine_index]
                target = self._engine_chain[next_index]
                self._log.record(
                    "engine.run", "degrade", type(exc).__name__,
                    f"{current} -> {target}: {exc}", engine=target)
                self._restore(arguments, snapshot)
                self._replace_inner(target)
                self._engine_index = next_index

    def _replace_inner(self, engine: str) -> None:
        old = self._inner
        self._inner = self._rebuild(engine)
        self._inner._resilience_strict = True
        shutdown = getattr(old, "shutdown", None)
        if callable(shutdown):
            try:
                shutdown()
            except Exception:
                pass

    @staticmethod
    def _snapshot(arguments):
        """Pre-run copies of every writable ``ndarray`` argument.

        Armed for every engine that may fail after a store, not only under
        ``REPRO_FAULTS``: a *real* taxonomy failure can strike mid-run (a
        worker dying after earlier shards stored into writable buffers),
        and the fallback engine must re-run on pristine inputs to keep
        outputs bit-identical.  The clean-path cost is one copy per
        writable array per wrapped run of such an engine.
        """
        return [(index, argument.copy())
                for index, argument in enumerate(arguments)
                if isinstance(argument, np.ndarray) and argument.flags.writeable]

    @staticmethod
    def _restore(arguments, snapshot) -> None:
        if not snapshot:
            return
        for index, saved in snapshot:
            np.copyto(arguments[index], saved)

    @property
    def report(self):
        return self._inner.report

    def __getattr__(self, name):
        return getattr(self._inner, name)


def maybe_resilient(executor, engine: str, rebuild: Callable[[str], object]):
    """Wrap ``executor`` in the fallback chain, unless the engine has no
    fallback tier below it (the interpreter is the chain's floor)."""
    if not fallback_engines(engine):
        return executor
    return ResilientExecutor(executor, engine, rebuild)


__all__ = [
    "BACKOFF_ENV_VAR", "DEFAULT_BACKOFF_S", "DEFAULT_RETRIES",
    "FALLBACK_CHAIN", "FAULTS_ENV_VAR", "FaultPlan",
    "RETRIES_ENV_VAR", "ResilienceEvent",
    "ResilienceLog", "ResilientExecutor", "RetryPolicy", "TIMEOUT_ENV_VAR",
    "call_with_retry", "fallback_engines", "fault_fires", "faults_configured",
    "global_log", "inject", "maybe_resilient", "record_event",
    "reset_faults", "retry_policy",
]

"""Measurement-driven autotuner: per-kernel engine dispatch (``engine="auto"``).

The paper's claim is that one IR can reach the best CPU execution strategy
per kernel — but *which* engine wins varies per kernel: NumPy vectorization
dominates barrier-free grids, compiled closures win tiny spans, and the
native OpenMP backend wins big parallel loops (the per-engine
``kernel_ms`` rows of ``benchmarks/ledger``).  A process-global
``REPRO_ENGINE`` therefore leaves large speedups on the table for any
mixed workload.  This module closes that gap with a sixth first-class
engine selection::

    executor = make_executor(module, engine="auto")   # or REPRO_ENGINE=auto
    executor.run("launch", args)

On the first (cold) run of a given (module, function, argument-signature)
the tuner searches the configuration space by **measurement on the real
arguments**:

* every engine of the table (:data:`repro.runtime.engine.ENGINES`, minus ``auto`` itself),
* the multicore engine at ``workers ∈ {2, 4, cpu_count}`` (clamped to the
  CPUs actually available; an explicit ``workers=`` pins it; a width below
  2 attaches no shard context and *is* the compiled engine, so it is never
  a candidate),
* the native engine only where the ``cc -fopenmp`` toolchain probe passes.

Each candidate is built *bare* (no resilience wrapper — the tuner wants the
engine's true failure and true speed) and measured with the shared
warmup + min-of-k loop (:mod:`repro.runtime.measure`,
``REPRO_TUNE_WARMUP`` / ``REPRO_TUNE_REPEATS``), restoring every writable
``ndarray`` argument from pristine snapshots between runs — the same
mechanism :class:`~repro.runtime.resilience.ResilientExecutor` uses.  A
candidate only qualifies if its outputs **and** CostReport are bit-identical
to the tree-walking interpreter reference; a candidate that errors or
diverges is rejected (and logged), never selected.

The winner is persisted in the :class:`~repro.runtime.cache.TuningCache`
tier keyed by the module's content address (source x PipelineOptions x pass
fingerprint, attached by ``compile_cuda``) x the argument shape/dtype
signature x the execution parameters, with the **host fingerprint**
(cpu count, toolchain probe, python/numpy versions) stored in the record —
warm runs skip measurement entirely and dispatch straight to the cached
winner; a record from a different host re-tunes.  With ``REPRO_CACHE=1``
records additionally persist on disk under ``<cache-dir>/tuning/``
(crash-safe tempfile + fsync + rename publishes, like the other tiers);
``clear_global_tuning_cache()`` forgets the winners (to measure the tuner).

Dispatch composes with the resilience layer: the chosen winner runs under
``maybe_resilient`` exactly as a hand-picked engine would, so a taxonomy
failure mid-run degrades down :data:`~repro.runtime.resilience.FALLBACK_CHAIN`
with bit-identical outputs — and a tuned winner that *did* degrade
invalidates its tuning record, so the next cold run re-tunes against the
world as it now is.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cache import global_tuning_cache
from .costmodel import CostReport, MachineModel, XEON_8375C, resolve_threads
from .measure import measure_best
from .engine import ENGINES, build_engine
from .resilience import ResilientExecutor, maybe_resilient, record_event

#: environment knobs.
TUNE_REPEATS_ENV_VAR = "REPRO_TUNE_REPEATS"
TUNE_WARMUP_ENV_VAR = "REPRO_TUNE_WARMUP"

DEFAULT_TUNE_REPEATS = 3
DEFAULT_TUNE_WARMUP = 1

#: multicore pool widths searched (intersected with the available CPUs).
WORKER_CANDIDATES = (2, 4)


def tune_repeats() -> int:
    """Min-of-k repeats per candidate (``REPRO_TUNE_REPEATS``, default 3)."""
    try:
        return max(1, int(os.environ.get(TUNE_REPEATS_ENV_VAR, DEFAULT_TUNE_REPEATS)))
    except ValueError:
        return DEFAULT_TUNE_REPEATS


def tune_warmup() -> int:
    """Warmup runs per candidate (``REPRO_TUNE_WARMUP``, default 1)."""
    try:
        return max(0, int(os.environ.get(TUNE_WARMUP_ENV_VAR, DEFAULT_TUNE_WARMUP)))
    except ValueError:
        return DEFAULT_TUNE_WARMUP


# ---------------------------------------------------------------------------
# Configurations and keys
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TuningConfig:
    """One point of the search space: an engine plus the multicore pool
    width (``workers``; ``None`` for the other engines)."""

    engine: str
    workers: Optional[int] = None

    @property
    def label(self) -> str:
        if self.workers is not None:
            return f"{self.engine}[w={self.workers}]"
        return self.engine

    def to_dict(self) -> dict:
        return {"engine": self.engine, "workers": self.workers}

    @classmethod
    def from_dict(cls, data: dict) -> "TuningConfig":
        workers = data.get("workers")
        return cls(engine=str(data["engine"]),
                   workers=None if workers is None else int(workers))


def module_content_key(module) -> str:
    """The module's content address.

    ``compile_cuda`` attaches the kernel-cache key (source x PipelineOptions
    x pass fingerprint x noalias) to every module it produces; hand-built
    modules fall back to a SHA-256 of the printed IR.  Either way the key is
    memoized on the module object, so warm dispatches never re-hash.
    """
    key = getattr(module, "_content_key", None)
    if key is None:
        from ..ir import print_op

        key = "ir:" + hashlib.sha256(print_op(module).encode("utf-8")).hexdigest()
        try:
            module._content_key = key
        except (AttributeError, TypeError):  # pragma: no cover - exotic module
            pass
    return key


def _argument_facts(arguments: Sequence) -> Tuple:
    """Per argument, what a tuning key depends on — the one place that
    decides it.  Arrays contribute dtype, shape and writability (the tuner's
    snapshot and parity sets); scalars contribute their value, because
    integer scalars typically size the iteration space and therefore shift
    the engine break-even points; anything else only its type.  The key
    text (:func:`argument_signature`) renders these facts and the auto
    engine's steady-state path compares them, so the two cannot disagree.
    """
    return tuple(
        (argument.dtype, argument.shape, argument.flags.writeable)
        if isinstance(argument, np.ndarray)
        else (type(argument).__name__, repr(argument))
        if isinstance(argument, (bool, int, float, np.integer, np.floating))
        else (type(argument).__name__,)
        for argument in arguments)


def _signature_text(facts: Tuple) -> str:
    parts: List[str] = []
    for fact in facts:
        if len(fact) == 3:
            dtype, shape, writeable = fact
            parts.append(f"nd[{dtype.str}:{'x'.join(str(dim) for dim in shape)}:"
                         f"{'w' if writeable else 'r'}]")
        else:
            parts.append(":".join(fact))
    return ",".join(parts)


def argument_signature(arguments: Sequence) -> str:
    """A stable rendering of the argument shapes/dtypes (plus scalar values)."""
    return _signature_text(_argument_facts(arguments))


def host_fingerprint() -> dict:
    """What the tuned winner's validity depends on, host-side.

    A record tuned under a different fingerprint (CPU count changed, the
    toolchain appeared/disappeared, numpy or python upgraded) is stale: the
    measured ranking may no longer hold, so the autotuner re-tunes.
    """
    import platform

    from .multicore import available_cpus, multicore_available
    from .native import native_available

    return {
        "cpus": available_cpus(),
        "toolchain": bool(native_available()),
        "multicore": bool(multicore_available()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _key_suffix(machine: MachineModel, threads: Optional[int],
                workers: Optional[int]) -> str:
    """The lines of a tuning key fixed by the execution parameters (an
    :class:`AutoEngine` computes them once): ``threads`` as the engines
    resolve it, so ``None`` and ``machine.cores`` share a record."""
    return "\n".join([
        f"machine:{machine.name}",
        f"threads:{resolve_threads(machine, threads)}",
        f"workers:{workers}",
    ])


def _build_key(module, function_name: str, facts: Tuple, suffix: str) -> str:
    text = (f"module:{module_content_key(module)}\n"
            f"function:{function_name}\n"
            f"args:{_signature_text(facts)}\n{suffix}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tuning_key(module, function_name: str, arguments: Sequence, *,
               machine: MachineModel = XEON_8375C,
               threads: Optional[int] = None,
               workers: Optional[int] = None) -> str:
    """The TuningCache key for one dispatch site.

    Content address x function x argument signature x the execution
    parameters that change either the measured ranking or the candidate
    set.  The host fingerprint is *not* hashed in — it is stored inside the
    record and compared on lookup, so a stale record is found (and
    invalidated in place) instead of lingering under a dead key.
    """
    return _build_key(module, function_name, _argument_facts(arguments),
                      _key_suffix(machine, threads, workers))


def candidate_configs(*, workers: Optional[int] = None) -> List[TuningConfig]:
    """The configurations the tuner measures (gated by host capabilities).

    ``workers`` pins the multicore pool width when the caller passed one
    explicitly; otherwise the search covers ``{2, 4, cpu_count}`` clamped
    to the CPUs available.  Widths below 2 are dropped either way:
    ``MulticoreEngine`` attaches a shard context only from 2 workers up, so
    width 1 would duplicate the compiled candidate.  The interpreter is not
    listed here — it is always measured as the (mandatory) reference run and
    competes with its reference timing.
    """
    from .multicore import available_cpus, multicore_available
    from .native import native_available

    configs: List[TuningConfig] = []
    for name in ENGINES:
        if name in ("auto", "interp"):
            continue
        if name == "native" and not native_available():
            continue  # toolchain probe failed: native would degrade anyway
        if name == "multicore":
            if not multicore_available():
                continue
            if workers is not None:
                widths = [workers]
            else:
                cpus = available_cpus()
                widths = sorted({min(width, cpus) for width in (*WORKER_CANDIDATES, cpus)})
            configs.extend(TuningConfig("multicore", workers=width)
                           for width in widths if width >= 2)
            continue
        configs.append(TuningConfig(name))
    return configs


# ---------------------------------------------------------------------------
# The measurement-driven search
# ---------------------------------------------------------------------------
def _report_fields(report: CostReport) -> Tuple:
    """The CostReport fields pinned bit-for-bit across engines."""
    return (report.cycles, report.dynamic_ops, report.parallel_regions,
            report.nested_regions, report.workshared_loops, report.barriers,
            report.simt_phases, report.global_bytes)


def _writable_arrays(arguments: Sequence) -> List[Tuple[int, np.ndarray]]:
    return [(index, argument) for index, argument in enumerate(arguments)
            if isinstance(argument, np.ndarray) and argument.flags.writeable]


@dataclass
class TuningResult:
    """The outcome of one cold tuning run."""

    config: TuningConfig
    seconds: float
    #: candidate label -> best measured seconds (includes ``interp``).
    measurements: Dict[str, float] = field(default_factory=dict)
    #: candidate label -> why it was discarded (error or parity divergence).
    rejected: Dict[str, str] = field(default_factory=dict)

    def to_record(self, *, function_name: str, signature: str) -> dict:
        return {
            "config": self.config.to_dict(),
            "host": host_fingerprint(),
            "function": function_name,
            "signature": signature,
            "seconds": self.seconds,
            "measurements": dict(self.measurements),
            "rejected": dict(self.rejected),
        }


def tune_module(module, function_name: str, arguments: Sequence, *,
                machine: MachineModel = XEON_8375C,
                threads: Optional[int] = None,
                workers: Optional[int] = None,
                repeats: Optional[int] = None,
                warmup: Optional[int] = None) -> TuningResult:
    """Measure every candidate on the real ``arguments``; return the winner.

    The interpreter runs first and is the dual reference: its outputs and
    CostReport are the bit-identity bar every candidate must clear, and its
    wall clock competes as the ``interp`` candidate.  Writable ``ndarray``
    arguments are snapshot before anything runs and restored before every
    candidate run (and once more before returning), so tuning is invisible
    to the caller's buffers.
    """
    repeats = tune_repeats() if repeats is None else max(1, repeats)
    warmup = tune_warmup() if warmup is None else max(0, warmup)

    def build(name: str, pool: Optional[int]):
        return build_engine(name, module, machine=machine, threads=threads,
                            workers=pool)

    pristine = ResilientExecutor._snapshot(arguments)

    def restore() -> None:
        ResilientExecutor._restore(arguments, pristine)

    # 1. interpreter reference: semantic + cost oracle, and a candidate.
    reference = build("interp", None)
    start = perf_counter()
    reference.run(function_name, arguments)
    reference_seconds = perf_counter() - start
    reference_outputs = [(index, array.copy())
                         for index, array in _writable_arrays(arguments)]
    reference_report = _report_fields(reference.report)

    measurements: Dict[str, float] = {"interp": reference_seconds}
    rejected: Dict[str, str] = {}
    best_label, best_seconds = "interp", reference_seconds
    best_config = TuningConfig("interp")

    for config in candidate_configs(workers=workers):
        label = config.label
        try:
            executor = build(config.engine, config.workers)
            # correctness probe (untimed, fresh single-run report): outputs
            # and CostReport must be bit-identical to the reference.
            restore()
            executor.run(function_name, arguments)
            probe_report = _report_fields(executor.report)
            divergence = None
            if probe_report != reference_report:
                divergence = (f"CostReport diverged: {probe_report} != "
                              f"{reference_report}")
            else:
                for index, expected in reference_outputs:
                    actual = arguments[index]
                    if (actual.dtype != expected.dtype
                            or actual.shape != expected.shape
                            or actual.tobytes() != expected.tobytes()):
                        divergence = f"output {index} diverged bit-wise"
                        break
            if divergence is not None:
                rejected[label] = divergence
                record_event("autotune.parity", "fallback", "ParityError",
                             f"{label}: {divergence}", engine=config.engine)
                continue
            seconds = measure_best(
                lambda: executor.run(function_name, arguments),
                repeats=repeats, warmup=warmup, setup=restore)
        except Exception as exc:
            rejected[label] = f"{type(exc).__name__}: {exc}"
            record_event("autotune.measure", "fallback", type(exc).__name__,
                         f"{label}: candidate discarded: {exc}",
                         engine=config.engine)
            continue
        measurements[label] = seconds
        if seconds < best_seconds:
            best_label, best_seconds, best_config = label, seconds, config

    restore()
    record_event("autotune.tune", "recover", "",
                 f"{function_name}: tuned winner {best_label} "
                 f"({best_seconds * 1e3:.3f} ms over {len(measurements)} "
                 f"candidates)", engine=best_config.engine)
    return TuningResult(config=best_config, seconds=best_seconds,
                        measurements=measurements, rejected=rejected)


# ---------------------------------------------------------------------------
# The auto engine
# ---------------------------------------------------------------------------
#: fully validated (record found, host fingerprint matched) configs, keyed
#: by tuning key and stamped with the TuningCache generation at validation
#: time.  This is the warm-dispatch fast path shared by all AutoEngine
#: instances: it skips the record copy + host-fingerprint comparison on
#: every run, and any cache mutation (insert, invalidate, clear) bumps the
#: generation and so busts every stale memo entry.
_RESOLVED_MEMO: Dict[str, Tuple[int, TuningConfig]] = {}


class AutoEngine:
    """The ``engine="auto"`` executor: tune once, dispatch the cached winner.

    Each ``run`` resolves its :func:`tuning_key`; a TuningCache hit (same
    process or, with the disk tier, any prior process on this host)
    dispatches straight to the recorded winner with **zero measurement
    runs**.  A miss — cold kernel, corrupt/stale record, host-fingerprint
    mismatch, or a winner engine that is no longer registered — runs
    :func:`tune_module` once and publishes the new record.

    Dispatch always goes through :func:`~repro.runtime.resilience.maybe_resilient`,
    so the tuned winner degrades down the fallback chain on taxonomy
    failures exactly like a hand-picked engine — and when that happens the
    tuning record is invalidated (the measured ranking is evidently stale).

    The dispatch executor (winner engine + resilience wrapper) is built
    once and reused while the tuning key, chosen config and TuningCache
    generation stay unchanged — warm steady-state dispatch is one comparison
    of the arguments' key facts plus the inner engine's own run.  The cost report accumulates
    across ``run`` calls like every other engine: :attr:`report` combines
    the live inner executor's accumulating report with the folded totals of
    any retired inner executors, bit-identical to the same sequence of runs
    on any single engine (the cost model's sums are dyadic-exact).
    ``auto_stats`` describes the last run: winner, cache hit/miss,
    measurements, invalidation.
    """

    def __init__(self, module, *, machine: MachineModel = XEON_8375C,
                 threads: Optional[int] = None,
                 workers: Optional[int] = None) -> None:
        self._module = module
        self._machine = machine
        self._threads = resolve_threads(machine, threads)
        self._workers = workers
        #: totals of retired inner executors (config/key changes are rare).
        self._base_report = CostReport(machine=machine, threads=self._threads)
        self._inner = None
        self._inner_key: Optional[str] = None
        self._inner_fastsig: Optional[Tuple] = None
        self._inner_config: Optional[TuningConfig] = None
        self._inner_generation = -1
        self._key_suffix = _key_suffix(machine, self._threads, workers)
        self.auto_stats: dict = {"runs": 0, "tuned": 0, "cache_hits": 0,
                                 "invalidated": 0, "winner": None,
                                 "measurements": {}}

    # -- internals -------------------------------------------------------------
    def _build(self, engine: str, workers: Optional[int]):
        return build_engine(engine, self._module, machine=self._machine,
                            threads=self._threads, workers=workers)

    def _resolve_config(self, key: str, function_name: str,
                        arguments: Sequence) -> Tuple[TuningConfig, bool, Dict[str, float]]:
        """The config to dispatch: (config, tuned-this-run, measurements)."""
        cache = global_tuning_cache()
        record = cache.lookup(key)
        if record is not None:
            stale = None
            if record.get("host") != host_fingerprint():
                stale = "host fingerprint changed"
            else:
                try:
                    config = TuningConfig.from_dict(record["config"])
                except (KeyError, TypeError, ValueError):
                    config, stale = None, "malformed record"
                else:
                    if config.engine not in ENGINES:
                        stale = f"winner engine {config.engine!r} unregistered"
            if stale is None:
                return config, False, {}
            cache.invalidate(key)
            record_event("autotune.lookup", "fallback", "StaleRecord",
                         f"{function_name}: {stale}; re-tuning")
        result = tune_module(
            self._module, function_name, arguments, machine=self._machine,
            threads=self._threads, workers=self._workers)
        cache.insert(key, result.to_record(
            function_name=function_name,
            signature=argument_signature(arguments)))
        return result.config, True, result.measurements

    # -- engine API ------------------------------------------------------------
    @property
    def report(self) -> CostReport:
        """Accumulated cost across all runs (retired + live inner executor)."""
        combined = CostReport(machine=self._base_report.machine,
                              threads=self._base_report.threads)
        combined.merge(self._base_report)
        if self._inner is not None:
            combined.merge(self._inner.report)
        return combined

    def run(self, function_name: str, arguments: Sequence = ()):
        cache = global_tuning_cache()
        # comparing the key's own facts: the steady state builds no key text
        # and hashes nothing.
        fastsig = (function_name, _argument_facts(arguments))
        if (self._inner is not None and fastsig == self._inner_fastsig
                and self._inner_generation == cache.generation):
            # steady state: same kernel/shapes, no cache mutation since the
            # inner executor was built — dispatch straight into it.
            config, tuned, measurements = self._inner_config, False, {}
            executor = self._inner
            key = self._inner_key
        else:
            key = _build_key(self._module, function_name, fastsig[1],
                             self._key_suffix)
            memo = _RESOLVED_MEMO.get(key)
            if memo is not None and memo[0] == cache.generation:
                config, tuned, measurements = memo[1], False, {}
            else:
                config, tuned, measurements = self._resolve_config(
                    key, function_name, arguments)
                _RESOLVED_MEMO[key] = (cache.generation, config)
            pool = (config.workers if config.workers is not None
                    else self._workers)
            executor = maybe_resilient(
                self._build(config.engine, pool), config.engine,
                lambda name: self._build(name, pool))
            if self._inner is not None:
                self._base_report.merge(self._inner.report)
            self._inner = executor
            self._inner_key = key
            self._inner_fastsig = fastsig
            self._inner_config = config
            self._inner_generation = cache.generation

        result = executor.run(function_name, arguments)

        final_engine = getattr(executor, "engine_name", config.engine)
        invalidated = False
        if final_engine != config.engine:
            # the tuned winner degraded through the fallback chain: its
            # measured ranking no longer describes this host — re-tune next
            # time instead of re-dispatching into the same failure.  The
            # generation bump also retires this inner executor on the next
            # run.
            cache.invalidate(key)
            invalidated = True
            record_event("autotune.dispatch", "degrade", "DegradedWinner",
                         f"{function_name}: tuned winner {config.engine} "
                         f"degraded to {final_engine}; tuning record "
                         "invalidated", engine=final_engine)

        stats = self.auto_stats
        stats["runs"] += 1
        stats["tuned"] += 1 if tuned else 0
        stats["cache_hits"] += 0 if tuned else 1
        stats["invalidated"] += 1 if invalidated else 0
        stats["winner"] = config.label
        stats["measurements"] = measurements
        return result

    def shutdown(self) -> None:
        shutdown = getattr(self._inner, "shutdown", None)
        if callable(shutdown):
            shutdown()

    def __getattr__(self, name):
        # engine-specific surfaces (shard_stats, native_stats, ...) of the
        # current dispatch executor; AttributeError before any run.
        inner = object.__getattribute__(self, "_inner")
        if inner is None:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r} before the first run")
        return getattr(inner, name)


__all__ = [
    "AutoEngine", "DEFAULT_TUNE_REPEATS", "DEFAULT_TUNE_WARMUP",
    "TUNE_REPEATS_ENV_VAR", "TUNE_WARMUP_ENV_VAR", "TuningConfig",
    "TuningResult", "WORKER_CANDIDATES", "argument_signature",
    "candidate_configs", "host_fingerprint", "module_content_key",
    "tune_module", "tune_repeats", "tune_warmup", "tuning_key",
]

"""Execution-engine selection: interp, compiled, vectorized, multicore, native, auto.

Every runtime entry point (harnesses, the Rodinia suite, the MocCUDA shim,
benchmarks) goes through this layer and accepts an ``engine`` knob:

* ``"compiled"`` — the default: one-time translation of each function to
  specialized Python closures (:mod:`repro.runtime.compiler`).
* ``"vectorized"`` — the compiled engine plus whole-grid NumPy execution of
  barrier-delimited phases (:mod:`repro.runtime.vectorizer`).
* ``"multicore"`` — the compiled/vectorized span runners sharded across a
  worker-process pool with shared-memory buffers
  (:mod:`repro.runtime.multicore`).  ``workers=`` (or ``REPRO_WORKERS``)
  picks the pool width.
* ``"native"`` — parallel regions transpiled to C, compiled with the system
  toolchain (``cc -O3 -fopenmp``, ``REPRO_CC`` override) and executed as
  OpenMP shared objects through ctypes (:mod:`repro.runtime.native`);
  degrades to compiled execution without a working toolchain.
* ``"interp"`` — the reference tree-walking
  :class:`~repro.runtime.interpreter.Interpreter`, kept as the correctness
  and cost-accounting oracle.
* ``"auto"`` — measurement-driven per-kernel dispatch
  (:mod:`repro.runtime.autotune`): on the first run of a given
  module/function/argument-shape the tuner measures every viable engine
  configuration on the real arguments and caches the fastest bit-identical
  winner (the :class:`~repro.runtime.cache.TuningCache` tier); warm runs
  dispatch straight to it with zero measurements.

All engines produce bit-identical outputs and :class:`CostReport`s (pinned
by ``tests/runtime/test_engine_parity.py``); only wall-clock speed differs.
The process-wide default can be overridden with the ``REPRO_ENGINE``
environment variable.

Engines self-register in :mod:`repro.runtime.registry` at import time
(name → factory); this module imports the engine modules for their
registration side effect and derives the selection tables from the
registry, so adding a fifth engine means adding one module with one
``register_engine`` call — no tables to edit here.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from .costmodel import CostReport, MachineModel, XEON_8375C
from .registry import ENGINES_VIEW, engine_factory, engine_names
from .resilience import maybe_resilient

# imported for their register_engine() side effect (and re-exported names);
# the registry also resolves these lazily on lookup, so env-selected engines
# validate even before this module is imported.
from .compiler import CompiledEngine, invalidate_compiled  # noqa: F401
from .interpreter import Interpreter, InterpreterError  # noqa: F401
from .vectorizer import VectorizedEngine  # noqa: F401
from .multicore import MulticoreEngine  # noqa: F401
from .native import NativeEngine  # noqa: F401
from .autotune import AutoEngine  # noqa: F401

# engine-name constants (incl. ENGINE_ENV_VAR, the REPRO_ENGINE override)
# have one definition in the package __init__, importable without loading
# any engine module; re-exported here for the traditional import path.
from . import (  # noqa: F401
    ENGINE_AUTO,
    ENGINE_COMPILED,
    ENGINE_ENV_VAR,
    ENGINE_INTERP,
    ENGINE_MULTICORE,
    ENGINE_NATIVE,
    ENGINE_VECTORIZED,
)

Executor = object  # any registered engine: run(name, args) + .report


def _engines() -> tuple:
    return engine_names()


#: all registered engine names, registry-ordered.  A *live* sequence view
#: (:class:`repro.runtime.registry.EngineNamesView`), not a snapshot: it
#: re-reads the registry on every access, so engines registered after this
#: module is imported show up in existing references too.
ENGINES = ENGINES_VIEW


def default_engine() -> str:
    """The process-wide default engine name (``REPRO_ENGINE`` or compiled)."""
    return os.environ.get(ENGINE_ENV_VAR, ENGINE_COMPILED)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize and validate an engine name (``None`` = process default)."""
    name = engine if engine is not None else default_engine()
    if name not in _engines():
        raise ValueError(f"unknown engine {name!r}; expected one of {_engines()}")
    return name


def make_executor(module, *, engine: Optional[str] = None,
                  machine: MachineModel = XEON_8375C,
                  threads: Optional[int] = None,
                  collect_cost: bool = True,
                  max_dynamic_ops: Optional[int] = None,
                  workers: Optional[int] = None) -> Executor:
    """Build an executor through the registered engine factory.

    All engines share the same API: ``run(function_name, arguments)`` plus a
    ``report`` attribute accumulating the simulated-cycle cost model.
    ``workers`` is forwarded to the factory (only the multicore engine uses
    it; the in-process engines ignore it).

    The executor is wrapped in the resilience layer
    (:mod:`repro.runtime.resilience`): taxonomy failures that escape a run
    rebuild the executor on the next engine of the fallback chain (``native
    → multicore → vectorized → compiled → interp``) and re-run with
    bit-identical outputs and CostReports.
    """
    name = resolve_engine(engine)

    def build(engine_name: str):
        return engine_factory(engine_name)(
            module, machine=machine, threads=threads,
            collect_cost=collect_cost, max_dynamic_ops=max_dynamic_ops,
            workers=workers)

    return maybe_resilient(build(name), name, build)


def execute(module, function_name: str, arguments: Sequence = (), *,
            engine: Optional[str] = None, machine: MachineModel = XEON_8375C,
            threads: Optional[int] = None,
            workers: Optional[int] = None) -> CostReport:
    """Run a function on the selected engine and return its cost report."""
    executor = make_executor(module, engine=engine, machine=machine,
                             threads=threads, workers=workers)
    executor.run(function_name, arguments)
    return executor.report

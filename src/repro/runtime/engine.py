"""Execution-engine selection: interp, compiled, vectorized, multicore, native, auto.

Every runtime entry point (harnesses, the Rodinia suite, the MocCUDA shim,
benchmarks) goes through this layer and accepts an ``engine`` knob:

* ``"compiled"`` — the default: one-time translation of each function to
  specialized Python closures (:mod:`repro.runtime.compiler`).
* ``"vectorized"`` — the compiled engine plus whole-grid NumPy execution of
  barrier-delimited phases (:mod:`repro.runtime.vectorizer`).
* ``"multicore"`` — the compiled engine's span runners sharded across a
  worker-process pool with shared-memory buffers
  (:mod:`repro.runtime.multicore`).  ``workers=`` (or ``REPRO_WORKERS``)
  picks the pool width.
* ``"native"`` — parallel regions transpiled to C, compiled with the system
  toolchain (``cc -O1 -fopenmp``, ``REPRO_CC`` override) and executed as
  OpenMP shared objects, one C call per dispatch (:mod:`repro.runtime.native`);
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

An engine is a row of the table below: the class that fronts it and the
module it lives in.  What distinguishes the four compiled engines from one
another is a second, equally fixed table in :mod:`repro.runtime.compiler`
(``_ROWS``): a body planner plus an optional dispatcher.

The package exports this module lazily and this module loads every engine
when it is imported (see the end of the file): ``import repro.runtime`` and
``import repro.runtime.native`` stay light, while whoever imports
``make_executor`` — a daemon at start-up, a fork zygote — pays the engine
imports once, up front, rather than inside its first request per engine.
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import Optional, Sequence, Tuple

from .costmodel import CostReport, MachineModel, XEON_8375C
from .resilience import maybe_resilient

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

#: engine name -> (module, class, whether the constructor takes ``workers=``),
#: in the order names are listed in error messages and docs.  By name, not by
#: class: the autotuner is a row of the table and imports this module.
_TABLE = {
    ENGINE_COMPILED: ("compiler", "CompiledEngine", False),
    ENGINE_VECTORIZED: ("vectorizer", "VectorizedEngine", False),
    ENGINE_MULTICORE: ("multicore", "MulticoreEngine", True),
    ENGINE_NATIVE: ("native", "NativeEngine", False),
    ENGINE_INTERP: ("interpreter", "Interpreter", False),
    ENGINE_AUTO: ("autotune", "AutoEngine", True),
}

#: all engine names, in table order.
ENGINES: Tuple[str, ...] = tuple(_TABLE)

Executor = object  # any engine of the table: run(name, args) + .report


def engine_names() -> Tuple[str, ...]:
    """All engine names, in table order."""
    return ENGINES


def default_engine() -> str:
    """The process-wide default engine name (``REPRO_ENGINE`` or compiled)."""
    return os.environ.get(ENGINE_ENV_VAR, ENGINE_COMPILED)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize and validate an engine name (``None`` = process default)."""
    name = engine if engine is not None else default_engine()
    if name not in _TABLE:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    return name


def build_engine(name: str, module, *, machine: MachineModel = XEON_8375C,
                 threads: Optional[int] = None,
                 workers: Optional[int] = None) -> Executor:
    """Construct the bare (unwrapped) engine ``name`` over ``module``.

    ``workers`` reaches the engines that size a worker pool (multicore, and
    auto for its multicore candidates); the others take no such argument.
    """
    module_name, class_name, takes_workers = _TABLE[resolve_engine(name)]
    engine_class = getattr(import_module(f".{module_name}", __package__), class_name)
    pool = {"workers": workers} if takes_workers else {}
    return engine_class(module, machine=machine, threads=threads, **pool)


def make_executor(module, *, engine: Optional[str] = None,
                  machine: MachineModel = XEON_8375C,
                  threads: Optional[int] = None,
                  workers: Optional[int] = None) -> Executor:
    """Build an executor for the named engine (``None`` = process default).

    All engines share the same API: ``run(function_name, arguments)`` plus a
    ``report`` attribute accumulating the simulated-cycle cost model.
    ``workers`` sizes the multicore pool (see :func:`build_engine`).

    The executor is wrapped in the resilience layer
    (:mod:`repro.runtime.resilience`): taxonomy failures that escape a run
    rebuild the executor on the next engine of the fallback chain (``native
    → multicore → vectorized → compiled → interp``) and re-run with
    bit-identical outputs and CostReports.
    """
    name = resolve_engine(engine)

    def build(engine_name: str):
        return build_engine(engine_name, module, machine=machine,
                            threads=threads, workers=workers)

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


# Load every engine now (module docstring).  The performance ledger's cold
# tiers fork from a process that has imported ``make_executor``: loading an
# engine at its first executor instead would move that import into every
# timed child, +20% on ``cold_nocc_geomean_s`` with nothing made slower.
for _module, _, _ in _TABLE.values():
    import_module(f".{_module}", __package__)

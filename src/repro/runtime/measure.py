"""Wall-clock measurement loop: warmup + min-of-k steady state.

The autotuner (:mod:`repro.runtime.autotune`) times candidate engines
against each other on the real arguments to pick the per-kernel winner of
``engine="auto"``.  It calls :func:`measure_best`: optional untimed
per-iteration ``setup`` (fresh arguments, pristine buffer restore),
``warmup`` untimed-for-scoring runs that trigger the one-time translations
(compiled closures, worker-pool forks, the native engine's ``cc``
invocation), then the minimum wall clock over ``repeats`` timed runs.
Min-of-k is the standard steady-state estimator for a deterministic
workload: the minimum is the run least disturbed by scheduler noise.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["measure_best"]


def measure_best(run: Callable[[], object], *, repeats: int,
                 warmup: int = 0,
                 setup: Optional[Callable[[], object]] = None) -> float:
    """Best (minimum) wall-clock seconds of ``run()`` over ``repeats`` runs.

    ``setup()`` is invoked before every run — warmup and timed alike — and
    is *never* included in the measurement; use it to rebuild arguments or
    restore buffers a run mutates.  ``warmup`` runs execute first and do
    not score, so one-time costs (code generation, pool forks, toolchain
    invocations) amortize out of the steady-state number.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(max(0, warmup)):
        if setup is not None:
            setup()
        run()
    best = float("inf")
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best

"""Chaos suite: whole engines under deterministic ``REPRO_FAULTS`` injection.

``test_resilience.py`` pins the policy layer over stubs; this file reruns
*real* kernels — including the differential fuzz grammar — while each
failure class of the taxonomy is injected at its hook point, and asserts
the resilience invariant end to end: outputs and CostReports stay
bit-identical to the clean run, every recovery is recorded in the global
:class:`ResilienceLog`, no exception escapes, and removing the injection
restores the fast path.

Knobs mirror the fuzz suite: ``REPRO_CHAOS_COUNT`` (fuzz kernels per
sweep, default 6) and ``REPRO_CHAOS_SEED`` (base seed, default 0).  The
sweep draws seeds from 10000 upward so its kernels never share native
artifact cache keys with the main fuzz suite's seeds.
"""

import os

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.runtime import (
    DispatchTimeoutError,
    Interpreter,
    MulticoreEngine,
    clear_global_cache,
    make_executor,
    multicore_available,
    native_available,
    resilience,
    shutdown_worker_pools,
)
from repro.runtime.resilience import reset_faults
from repro.transforms import PipelineOptions
from tests.helpers import generate_fuzz_kernel, report_fields, run_engine_matrix

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="no working cc -fopenmp")
needs_pool = pytest.mark.skipif(not multicore_available(),
                                reason="fork/shared memory unavailable")

CHAOS_COUNT = max(1, int(os.environ.get("REPRO_CHAOS_COUNT", "6")))
CHAOS_SEED = 10_000 + int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SEEDS = list(range(CHAOS_SEED, CHAOS_SEED + CHAOS_COUNT))

#: the combined sweep plan: every fault class, seeded probabilities, so a
#: run interleaves retries, in-tier fallbacks and chain degradations.
SWEEP_FAULTS = ("native.cc:0.5@seed3,cache.read:0.3@seed7,"
                "sharedmem.promote:0.4@seed1,multicore.worker_exit:0.3@seed5")

#: each test formats its own constant into the kernel so its native unit
#: key is cold — a warm artifact would skip the injected compile entirely.
CHAOS_CUDA = """
__global__ void chaos(float* out, float* in, int n) {{
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {{
        out[gid] = in[gid] * {factor}f + 0.5f;
    }}
}}

void launch(float* out, float* in, int n) {{
    chaos<<<(n + 31) / 32, 32>>>(out, in, n);
}}
"""


def _module(factor: str):
    return compile_cuda(CHAOS_CUDA.format(factor=factor), cuda_lower=True,
                        options=PipelineOptions.all_optimizations())


def _args(n: int = 192):
    rng = np.random.default_rng(11)
    data = rng.random(n).astype(np.float32)
    return [np.zeros(n, dtype=np.float32), data, n]


def _reference(module, args):
    """Clean interpreter run: the oracle outputs and report fields."""
    interp = Interpreter(module)
    interp.run("launch", args)
    return args[0].copy(), report_fields(interp.report)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


@pytest.fixture(autouse=True)
def _clean_resilience(monkeypatch):
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")  # fault runs never sleep
    reset_faults()
    resilience.global_log().clear()
    yield
    reset_faults()
    resilience.global_log().clear()


class TestFaultMatrix:
    """One test per taxonomy class: inject, recover, stay bit-identical."""

    @needs_cc
    def test_transient_cc_failure_recovers_by_retry(self, monkeypatch):
        """``native.cc:2`` exhausts inside the default retry budget: the
        unit compiles on the third attempt and the run stays native."""
        module = _module("1.25")
        expected, fields = _reference(module, _args())
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:2")
        reset_faults()
        arguments = _args()
        executor = make_executor(module, engine="native")
        executor.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(executor.report) == fields
        assert executor.engine_name == "native"
        assert executor.native_stats["units_ready"] == 1
        log = resilience.global_log()
        assert len(log.events(op="native.cc", action="inject")) == 2
        assert [e.attempt for e in log.events(op="native.cc",
                                              action="retry")] == [1, 2]

    def test_permanent_cc_failure_degrades_down_the_chain(self, monkeypatch):
        """``native.cc:*`` outlives every retry: the wrapper steps
        native -> multicore and reproduces the clean outputs."""
        module = _module("2.75")
        expected, fields = _reference(module, _args())
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
        reset_faults()
        arguments = _args()
        executor = make_executor(module, engine="native")
        executor.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(executor.report) == fields
        assert executor.engine_name == "multicore"
        degrades = resilience.global_log().events(op="engine.run",
                                                  action="degrade")
        assert degrades and degrades[0].error == "ToolchainError"

    def test_cache_corruption_and_full_disk_fall_back_in_tier(
            self, monkeypatch, tmp_path):
        """Injected disk-cache faults on both tiers (read corruption,
        ENOSPC on write) recompile in memory without surfacing."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULTS", "cache.read:*,cache.write:*")
        reset_faults()
        clear_global_cache()
        module = _module("3.5")        # store attempt -> injected ENOSPC
        clear_global_cache()           # force the disk-read path next
        module = _module("3.5")        # read attempt -> injected corruption
        expected, fields = _reference(module, _args())
        arguments = _args()
        executor = make_executor(module, engine="compiled")
        executor.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(executor.report) == fields
        log = resilience.global_log()
        assert log.events(op="cache.write", action="fallback")
        assert log.events(op="cache.read", action="fallback")

    @needs_pool
    def test_shm_exhaustion_demotes_the_run_in_process(self, monkeypatch):
        module = _module("4.125")
        expected, fields = _reference(module, _args())
        monkeypatch.setenv("REPRO_FAULTS", "sharedmem.promote:*")
        reset_faults()
        arguments = _args()
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(engine.report) == fields
        assert engine.shard_stats["dispatches"] == 0
        assert engine.shard_stats["inline_runs"] >= 1
        events = resilience.global_log().events(op="sharedmem.promote",
                                                action="degrade")
        assert events and events[0].error == "ShmExhaustedError"

    @needs_pool
    def test_worker_crash_refors_the_pool_and_redispatches(self, monkeypatch):
        """A worker killed mid-dispatch is transient: the pool is killed,
        re-forked, and the same shards re-dispatch idempotently."""
        module = _module("5.25")
        expected, fields = _reference(module, _args())
        monkeypatch.setenv("REPRO_FAULTS", "multicore.worker_exit:1")
        reset_faults()
        arguments = _args()
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(engine.report) == fields
        assert engine.shard_stats["dispatches"] == 2  # crashed + clean retry
        log = resilience.global_log()
        retries = log.events(op="multicore.dispatch", action="retry")
        assert retries and retries[0].error == "WorkerCrashError"
        assert log.events(op="multicore.pool", action="recover")

    @needs_pool
    def test_watchdog_kills_hung_pool_and_refors(self, monkeypatch):
        """Satellite regression: a hung worker trips the ``REPRO_TIMEOUT_S``
        watchdog, the dead pool re-forks, and the engine keeps dispatching
        on later runs instead of staying demoted."""
        module = _module("6.5")
        expected, fields = _reference(module, _args())
        monkeypatch.setenv("REPRO_FAULTS", "multicore.hang:1")
        monkeypatch.setenv("REPRO_TIMEOUT_S", "2")
        reset_faults()
        arguments = _args()
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(engine.report) == fields
        assert engine.shard_stats["dispatches"] == 2
        log = resilience.global_log()
        retries = log.events(op="multicore.dispatch", action="retry")
        assert retries and retries[0].error == "DispatchTimeoutError"
        assert log.events(op="multicore.pool", action="recover")
        # the re-forked pool is live: a second (fault-exhausted) run
        # dispatches normally through it.
        second = _args()
        engine.run("launch", second)
        np.testing.assert_array_equal(second[0], expected)
        assert engine.shard_stats["dispatches"] == 3
        pools = list(engine._program.shards.pools.values())
        assert len(pools) == 1 and pools[0].alive()

    @needs_pool
    def test_watchdog_exhaustion_degrades_in_process(self, monkeypatch):
        """Every retry hangs: the dispatcher gives up and runs the region
        in-process with identical results."""
        module = _module("7.125")
        expected, fields = _reference(module, _args())
        monkeypatch.setenv("REPRO_FAULTS", "multicore.hang:*")
        monkeypatch.setenv("REPRO_TIMEOUT_S", "1")
        monkeypatch.setenv("REPRO_RETRIES", "1")
        reset_faults()
        arguments = _args()
        engine = MulticoreEngine(module, workers=2)
        engine.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(engine.report) == fields
        degrades = resilience.global_log().events(op="multicore.dispatch",
                                                  action="degrade")
        assert degrades and degrades[0].error == "DispatchTimeoutError"

    def test_watchdog_exhaustion_error_class(self):
        assert issubclass(DispatchTimeoutError, Exception)


class TestFuzzSweep:
    """The differential fuzz grammar under the combined fault plan."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_parity_under_combined_faults(self, seed, monkeypatch):
        kernel = generate_fuzz_kernel(seed)
        module = kernel.compile(cuda_lower=True)  # compiles before injection
        monkeypatch.setenv("REPRO_FAULTS", SWEEP_FAULTS)
        reset_faults()
        run_engine_matrix(module, kernel.entry, kernel.make_args, (2,),
                          workers=2, label="chaos " + kernel.description)


class TestCleanPathRestored:
    @needs_cc
    def test_no_faults_no_events_native_fast_path(self, monkeypatch):
        """Removing the injection restores the fast path: units compile
        natively, nothing degrades, the log stays empty."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        reset_faults()
        module = _module("8.25")
        arguments = _args()
        executor = make_executor(module, engine="native")
        executor.run("launch", arguments)
        assert executor.engine_name == "native"
        assert executor.native_stats["units_ready"] == 1
        assert executor.native_stats["native_dispatches"] >= 1
        assert len(resilience.global_log()) == 0


#: ``launch`` owns one region and, when ``both``, calls ``stage``, which owns
#: another: two translation units, the callee's first met mid-run (a callee
#: compiles at its first call).  ``out`` is read and written, so a re-run on
#: inputs that were not pristine would show.
TWO_UNIT_CUDA = """
__global__ void first(float* tmp, float* in, int n) {{
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {{ tmp[gid] = in[gid] * {factor}f; }}
}}

__global__ void second(float* out, float* tmp, int n) {{
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {{ out[gid] = out[gid] + tmp[gid] + 0.25f; }}
}}

void stage(float* out, float* tmp, int n) {{
    second<<<(n + 31) / 32, 32>>>(out, tmp, n);
}}

void launch(float* out, float* tmp, float* in, int n, int both) {{
    first<<<(n + 31) / 32, 32>>>(tmp, in, n);
    if (both) {{ stage(out, tmp, n); }}
}}
"""


class _CountedCopies(np.ndarray):
    """An argument that counts the ``ndarray.copy`` calls made on it."""

    copies = 0

    def copy(self, *args, **kwargs):
        _CountedCopies.copies += 1
        return super().copy(*args, **kwargs)


class TestFailBeforeFirstStore:
    """The invariant the lazy snapshot rests on: an in-process engine raises
    a taxonomy error before its first store or not at all."""

    @staticmethod
    def _two_unit_args(both: int, n: int = 192):
        rng = np.random.default_rng(5)
        return [rng.random(n).astype(np.float32), np.zeros(n, dtype=np.float32),
                rng.random(n).astype(np.float32), n, both]

    @needs_cc
    def test_mid_run_cc_failure_degrades_the_next_run(self, monkeypatch):
        module = compile_cuda(TWO_UNIT_CUDA.format(factor="9.375"),
                              cuda_lower=True,
                              options=PipelineOptions.all_optimizations())
        executor = make_executor(module, engine="native")
        log = resilience.global_log()

        def run_both(both, interp):
            """One run on each side; a report accumulates over the runs of
            one engine, so ``interp`` lives as long as the executor's."""
            expected, arguments = (self._two_unit_args(both) for _ in range(2))
            interp.run("launch", expected)
            executor.run("launch", arguments)
            for want, got in zip(expected[:2], arguments[:2]):
                np.testing.assert_array_equal(got, want)
            assert report_fields(executor.report) == report_fields(interp.report)

        oracle = Interpreter(module)
        run_both(0, oracle)   # seals the entry's unit; the callee is unmet
        assert executor.native_stats["units_ready"] == 1
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
        reset_faults()
        # run 1 meets the callee's unit mid-run, after `first` stored into
        # tmp: cc fails, the region runs its base plan, the run stays native.
        run_both(1, oracle)
        assert executor.engine_name == "native"
        assert len(log.events(op="native.cc", action="degrade")) == 1
        assert not log.events(op="engine.run")
        assert [region["bailouts"] for region in executor.regions] == [
            {}, {"unit not ready": 1}]
        assert executor.native_stats["bailouts"] == 1
        # run 2 raises the unit's error up front and lands on the next engine.
        run_both(1, Interpreter(module))
        assert executor.engine_name == "multicore"
        degrade, = log.events(op="engine.run", action="degrade")
        assert degrade.error == "ToolchainError"
        assert len(log.events(op="native.cc", action="degrade")) == 1

    @pytest.mark.parametrize("engine, copies", [
        ("native", 0), ("vectorized", 0), ("compiled", 0), ("multicore", 2)])
    def test_only_engines_that_may_fail_late_are_snapshotted(self, engine, copies):
        """``out`` and ``in`` are writable: a wrapped multicore run copies
        both before it starts, the in-process engines copy nothing."""
        module = _module("10.5")
        expected, fields = _reference(module, _args())
        arguments = [argument.view(_CountedCopies)
                     if isinstance(argument, np.ndarray) else argument
                     for argument in _args()]
        executor = make_executor(module, engine=engine, workers=2)
        _CountedCopies.copies = 0
        executor.run("launch", arguments)
        assert _CountedCopies.copies == copies
        assert executor.engine_name == engine
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(executor.report) == fields

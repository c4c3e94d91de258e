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
import subprocess
import sys
from pathlib import Path

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
ROOT = Path(__file__).resolve().parents[2]

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
    monkeypatch.setattr(resilience, "DEFAULT_BACKOFF_S", 0.0)  # fault runs never sleep
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
        monkeypatch.setattr(resilience, "DEFAULT_RETRIES", 1)
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


#: CHAOS_CUDA with a uniform loop carrying a chain: a lane-blocked unit,
#: which promotes to tier 2.
CHAOS_LANE_CUDA = CHAOS_CUDA.replace(
    "out[gid] = in[gid] * {factor}f + 0.5f;",
    "float acc = 0.5f;\n"
    "        for (int k = 0; k < 4; ++k) {{ acc = acc * {factor}f + in[gid]; }}\n"
    "        out[gid] = acc;")

#: a ``REPRO_CC`` that builds tier 1 and refuses every ``-O3`` build.
NO_O3_CC = """#!/bin/sh
case " $* " in *" -O3 "*) echo "tier 2 refused" >&2; exit 3;; esac
exec cc "$@"
"""


class TestPromotionFailures:
    """A tier-2 build that fails in any way leaves the unit at tier 1: the
    runs stay native and bit-identical, one ``native.promote`` event is
    recorded, and a strict (``ResilientExecutor``) run raises nothing."""

    @staticmethod
    def _lane_module(factor: str):
        return compile_cuda(CHAOS_LANE_CUDA.format(factor=factor), cuda_lower=True,
                            options=PipelineOptions.all_optimizations())

    @staticmethod
    def _unit(executor):
        unit, = executor.inner._program.native_units
        return unit

    def _assert_stays_at_tier_one(self, module, expected, fields):
        from repro.runtime import native

        arguments = _args()
        executor = make_executor(module, engine="native")
        executor.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(executor.report) == fields
        assert executor.engine_name == "native"
        unit = self._unit(executor)
        unit.promote()
        assert native.await_promotions(timeout=120)
        assert unit.failure is None
        assert unit.level == "-O1" and not unit.promotable
        stats = executor.native_stats
        assert stats["promotions"] == 0 and stats["promotion_failures"] == 1
        assert [region["opt_level"] for region in executor.regions] == ["-O1"]
        event, = resilience.global_log().events(op="native.promote")
        assert event.action == "fallback"
        return event

    def _at_tier_one(self, factor):
        """A fresh lane-blocked module, run once (its unit sealed at tier 1),
        and its ``interp`` outputs and report fields."""
        module = self._lane_module(factor)
        expected, fields = _reference(module, _args())
        executor = make_executor(module, engine="native")
        executor.run("launch", _args())
        assert self._unit(executor).level == "-O1"
        return module, expected, fields

    @needs_cc
    def test_injected_cc_fault(self, monkeypatch):
        module, expected, fields = self._at_tier_one("0.625")
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:1")
        reset_faults()
        event = self._assert_stays_at_tier_one(module, expected, fields)
        assert event.error == "ToolchainError"
        assert [(e.op, e.action) for e in resilience.global_log().events()] == [
            ("native.cc", "inject"), ("native.promote", "fallback")]

    @needs_cc
    def test_compiler_that_fails_only_at_o3(self, tmp_path, monkeypatch):
        cc = tmp_path / "no-o3-cc"
        cc.write_text(NO_O3_CC)
        cc.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(cc))
        module, expected, fields = self._at_tier_one("0.375")
        event = self._assert_stays_at_tier_one(module, expected, fields)
        assert event.error == "ToolchainError" and "tier 2 refused" in event.detail
        assert len(resilience.global_log()) == 1

    @needs_cc
    def test_corrupt_tier_two_artifact_found_at_seal(self, tmp_path, monkeypatch):
        from repro.runtime import native

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        module, expected, fields = self._at_tier_one("0.875")
        source = self._unit(make_executor(module, engine="native")).source
        corrupt = (tmp_path / "native"
                   / f"{native._unit_key(source, native.PROMOTED_LEVEL)}.so")
        corrupt.write_bytes(b"not a shared object")
        # a fresh program seals from the disk tier: tier 2 first.
        module = self._lane_module("0.875")
        arguments = _args()
        executor = make_executor(module, engine="native")
        executor.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], expected)
        assert report_fields(executor.report) == fields
        unit = self._unit(executor)
        assert unit.failure is None and unit.level == "-O1"
        assert unit.countdown == 0 and not unit.promotable
        assert executor.native_stats["artifact_hits"] == 1
        assert executor.native_stats["promotion_failures"] == 1
        assert not corrupt.exists()
        event, = resilience.global_log().events()
        assert (event.op, event.action, event.error) == (
            "native.promote", "fallback", "OSError")

    @needs_cc
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_no_cc_outlives_its_process(self, tmp_path):
        """A process that exits mid-promotion terminates its ``cc`` — the
        whole process group, so the compiler's own children too — waits for
        it and unlinks the build's temp ``.c`` and ``.so``."""
        pidfile = tmp_path / "grandchild.pid"
        cc = tmp_path / "slow-o3-cc"
        cc.write_text(f"""#!/bin/sh
case " $* " in *" -O3 "*) sleep 60 & echo $! > "{pidfile}"; wait; exit 1;; esac
exec cc "$@"
""")
        cc.chmod(0o755)
        temp = tmp_path / "tmp"
        temp.mkdir()
        script = f"""
import time
from pathlib import Path
import numpy as np
from repro.frontend import compile_cuda
from repro.runtime import NativeEngine, native
from repro.transforms import PipelineOptions
module = compile_cuda({CHAOS_LANE_CUDA.format(factor="0.125")!r}, cuda_lower=True,
                      options=PipelineOptions.all_optimizations())
engine = NativeEngine(module)
engine.run("launch", [np.zeros(64, np.float32), np.ones(64, np.float32), 64])
unit, = engine._program.native_units
unit.promote()
pidfile, deadline = Path({str(pidfile)!r}), time.monotonic() + 60
while not (pidfile.exists() and pidfile.read_text().strip()):
    assert time.monotonic() < deadline, "the tier-2 cc never started"
    time.sleep(0.01)
print(native._PROMOTER._process.pid, flush=True)
"""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_CC=str(cc),
                   REPRO_CACHE="1", REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   TMPDIR=str(temp))
        env.pop("REPRO_FAULTS", None)
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        pids = [int(done.stdout.split()[-1]), int(pidfile.read_text())]
        assert not [pid for pid in pids if _alive(pid)]
        assert not list(temp.glob("repro-native-*"))
        # the tier-1 unit and the dispatcher the probe built, nothing half-written
        from repro.runtime import native

        dispatcher = native._dispatcher_key(native._dispatcher_argv([str(cc)]))
        artifacts = sorted(path.name for path in (tmp_path / "cache" / "native").iterdir()
                           if path.name != f"{dispatcher}.so")
        assert len(artifacts) == 1 and not artifacts[0].startswith(".tmp-")


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


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
        run_both(0, oracle)   # builds the entry's unit; the callee is unmet
        assert executor.native_stats["units_ready"] == 1
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
        reset_faults()
        # run 1 meets the callee's unit mid-run, after `first` stored into
        # tmp: cc fails as the callee compiles, its region runs its base
        # plan, refused by name, and the run stays native.
        run_both(1, oracle)
        assert executor.engine_name == "native"
        assert len(log.events(op="native.cc", action="degrade")) == 1
        assert not log.events(op="engine.run")
        regions = executor.regions
        assert [region["tier"] for region in regions] == ["native", "closures"]
        assert regions[1]["refusals"][0].startswith("native: unit did not build: ")
        assert [region["bailouts"] for region in regions] == [{}, {}]
        stats = executor.native_stats
        assert stats["bailouts"] == 0 and stats["fallback_regions"] == 1
        assert stats["native_dispatches"] == 2   # `first`, in runs 0 and 1
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

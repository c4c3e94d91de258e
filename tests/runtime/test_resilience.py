"""Resilience layer unit tests: taxonomy, fault plans, retry, fallback.

The chaos suite (``test_chaos.py``) drives whole engines under injected
faults; this file pins the policy layer itself — the failure taxonomy's
transient/permanent tagging, the deterministic ``REPRO_FAULTS`` grammar,
the env-configured :class:`RetryPolicy` with its jittered-but-repeatable
backoff, the queryable :class:`ResilienceLog`, and the
:class:`ResilientExecutor` fallback chain over stub engines and through
``make_executor``.
"""

import errno
import threading

import numpy as np
import pytest

from repro.runtime import resilience
from repro.runtime.errors import (
    CacheCorruptionError,
    DispatchTimeoutError,
    InterpreterError,
    ResilienceError,
    ShmExhaustedError,
    StreamPoisonedError,
    ToolchainError,
    WorkerCrashError,
    is_transient,
)
from repro.runtime.resilience import (
    FALLBACK_CHAIN,
    FaultPlan,
    ResilienceLog,
    ResilientExecutor,
    RetryPolicy,
    call_with_retry,
    fallback_engines,
    fault_fires,
    inject,
    reset_faults,
)


@pytest.fixture(autouse=True)
def _clean_resilience():
    reset_faults()
    resilience.global_log().clear()
    yield
    reset_faults()
    resilience.global_log().clear()


class TestTaxonomy:
    def test_transient_defaults(self):
        assert is_transient(WorkerCrashError("worker died"))
        assert is_transient(DispatchTimeoutError("watchdog"))
        assert is_transient(CacheCorruptionError("bad entry"))
        assert not is_transient(ToolchainError("cc exploded"))
        assert not is_transient(ShmExhaustedError("/dev/shm full"))

    def test_transient_override(self):
        assert is_transient(ToolchainError("flaky cc", transient=True))
        assert not is_transient(WorkerCrashError("poisoned", transient=False))

    def test_non_taxonomy_errors_are_permanent(self):
        assert not is_transient(ValueError("plain"))
        assert not is_transient(OSError(errno.ENOSPC, "full"))

    def test_inheritance_preserves_legacy_handlers(self):
        """Existing ``except`` clauses keep catching the new taxonomy."""
        assert isinstance(WorkerCrashError("x"), InterpreterError)
        assert isinstance(DispatchTimeoutError("x"), InterpreterError)
        assert isinstance(ToolchainError("x"), RuntimeError)
        assert isinstance(CacheCorruptionError("x"), RuntimeError)
        shm = ShmExhaustedError("no space")
        assert isinstance(shm, OSError)
        assert shm.errno == errno.ENOSPC

    def test_all_taxonomy_errors_are_resilience_errors(self):
        for cls in (ToolchainError, WorkerCrashError, ShmExhaustedError,
                    CacheCorruptionError, DispatchTimeoutError):
            assert issubclass(cls, ResilienceError)
        # stream poisoning is a caller-contract error, not a fallback trigger
        assert not issubclass(StreamPoisonedError, ResilienceError)


class TestFaultPlan:
    def test_count_spec_fires_exactly_n_times(self):
        plan = FaultPlan("native.cc:2")
        assert [plan.fires("native.cc") for _ in range(4)] == [
            True, True, False, False]

    def test_always_spec(self):
        plan = FaultPlan("cache.read:*")
        assert all(plan.fires("cache.read") for _ in range(5))

    def test_probability_spec_is_deterministic(self):
        first = FaultPlan("cache.read:0.3@seed7")
        second = FaultPlan("cache.read:0.3@seed7")
        sequence = [first.fires("cache.read") for _ in range(50)]
        assert sequence == [second.fires("cache.read") for _ in range(50)]
        assert any(sequence) and not all(sequence)

    def test_distinct_seeds_distinct_sequences(self):
        one = FaultPlan("cache.read:0.5@seed1")
        two = FaultPlan("cache.read:0.5@seed2")
        assert ([one.fires("cache.read") for _ in range(40)]
                != [two.fires("cache.read") for _ in range(40)])

    def test_multiple_sites_parse_independently(self):
        plan = FaultPlan("native.cc:1, cache.read:*")
        assert set(plan.sites()) == {"native.cc", "cache.read"}
        assert plan.fires("native.cc") and not plan.fires("native.cc")
        assert plan.fires("cache.read")
        assert not plan.fires("unknown.site")

    @pytest.mark.parametrize("text", [
        "native.cc", ":2", "native.cc:", "native.cc:abc",
        "native.cc:1.5", "native.cc:-1", "cache.read:0.3@sd7",
    ])
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan(text)


class TestEnvironmentPlan:
    def test_inject_raises_mapped_taxonomy_error(self, monkeypatch):
        cases = [
            ("native.cc", ToolchainError),
            ("cache.read", CacheCorruptionError),
            ("sharedmem.promote", ShmExhaustedError),
            ("shim.launch", WorkerCrashError),
        ]
        for site, error_cls in cases:
            monkeypatch.setenv("REPRO_FAULTS", f"{site}:1")
            reset_faults()
            with pytest.raises(error_cls):
                inject(site)
            inject(site)  # count exhausted: the second call is a no-op

    def test_cache_write_fault_is_enospc(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.write:1")
        with pytest.raises(OSError) as excinfo:
            inject("cache.write")
        assert excinfo.value.errno == errno.ENOSPC

    def test_firing_records_inject_event(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:1")
        assert fault_fires("native.cc")
        events = resilience.global_log().events(op="native.cc",
                                                action="inject")
        assert len(events) == 1

    def test_no_env_no_fire(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not fault_fires("native.cc")
        assert not resilience.faults_configured()

    def test_changing_env_rearms_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:1")
        assert fault_fires("native.cc")
        assert not fault_fires("native.cc")
        # a *different* spec text installs a fresh plan with fresh counters
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:1,other.site:0")
        assert fault_fires("native.cc")

    def test_reset_faults_rearms_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "native.cc:1")
        assert fault_fires("native.cc")
        reset_faults()
        assert fault_fires("native.cc")


class TestRetryPolicy:
    def test_env_overrides_and_defaults(self, monkeypatch):
        for var in ("REPRO_RETRIES", "REPRO_TIMEOUT_S", "REPRO_BACKOFF_S"):
            monkeypatch.delenv(var, raising=False)
        assert RetryPolicy.from_env() == RetryPolicy()
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_TIMEOUT_S", "1.5")
        monkeypatch.setenv("REPRO_BACKOFF_S", "0")
        policy = RetryPolicy.from_env()
        assert (policy.retries, policy.timeout_s, policy.backoff_s) == (5, 1.5, 0.0)

    def test_invalid_env_falls_back_to_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "many")
        monkeypatch.setenv("REPRO_TIMEOUT_S", "soon")
        policy = RetryPolicy.from_env()
        assert policy.retries == RetryPolicy().retries
        assert policy.timeout_s == RetryPolicy().timeout_s

    def test_negative_retries_clamp_to_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "-3")
        assert RetryPolicy.from_env().retries == 0

    def test_watchdog_disabled_by_default(self, monkeypatch):
        """No REPRO_TIMEOUT_S means no dispatch deadline: a legitimate
        long dispatch must never be killed by a default wall-clock cap."""
        monkeypatch.delenv("REPRO_TIMEOUT_S", raising=False)
        assert RetryPolicy().watchdog_timeout is None
        assert RetryPolicy.from_env().watchdog_timeout is None
        monkeypatch.setenv("REPRO_TIMEOUT_S", "2.5")
        assert RetryPolicy.from_env().watchdog_timeout == 2.5

    def test_watchdog_disabled_by_nonpositive_timeout(self):
        assert RetryPolicy(timeout_s=0).watchdog_timeout is None
        assert RetryPolicy(timeout_s=-1).watchdog_timeout is None
        assert RetryPolicy(timeout_s=2.0).watchdog_timeout == 2.0

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.1)
        for attempt in range(4):
            delay = policy.backoff_delay("native.cc", attempt)
            assert delay == policy.backoff_delay("native.cc", attempt)
            base = 0.1 * (2 ** attempt)
            assert 0.5 * base <= delay <= base
        assert (policy.backoff_delay("native.cc", 0)
                != policy.backoff_delay("cache.read", 0))

    def test_zero_backoff_means_zero_delay(self):
        assert RetryPolicy(backoff_s=0).backoff_delay("op", 3) == 0.0


class TestCallWithRetry:
    def _flaky(self, failures, error):
        calls = {"count": 0}

        def fn():
            calls["count"] += 1
            if calls["count"] <= failures:
                raise error
            return "ok"

        return fn, calls

    def test_transient_error_retried_to_success(self):
        log = ResilienceLog()
        fn, calls = self._flaky(2, WorkerCrashError("worker died"))
        policy = RetryPolicy(retries=2, backoff_s=0)
        assert call_with_retry("op", fn, policy=policy, log=log) == "ok"
        assert calls["count"] == 3
        retries = log.events(op="op", action="retry")
        assert [event.attempt for event in retries] == [1, 2]
        assert retries[0].error == "WorkerCrashError"

    def test_permanent_error_never_retried(self):
        log = ResilienceLog()
        fn, calls = self._flaky(5, ToolchainError("cc: syntax error"))
        with pytest.raises(ToolchainError):
            call_with_retry("op", fn, policy=RetryPolicy(retries=3, backoff_s=0),
                            log=log)
        assert calls["count"] == 1
        assert len(log) == 0

    def test_exhaustion_raises_last_error(self):
        fn, calls = self._flaky(10, WorkerCrashError("still dead"))
        with pytest.raises(WorkerCrashError, match="still dead"):
            call_with_retry("op", fn, policy=RetryPolicy(retries=2, backoff_s=0),
                            log=ResilienceLog())
        assert calls["count"] == 3  # initial call + 2 retries

    def test_retryable_narrows_eligibility(self):
        fn, calls = self._flaky(5, WorkerCrashError("crash"))
        with pytest.raises(WorkerCrashError):
            call_with_retry("op", fn, policy=RetryPolicy(retries=3, backoff_s=0),
                            retryable=(CacheCorruptionError,),
                            log=ResilienceLog())
        assert calls["count"] == 1

    def test_retryable_widens_past_the_taxonomy(self):
        """``retryable`` replaces the transient test: a plain OSError
        (no transient tag) retries when its class is listed."""
        fn, calls = self._flaky(1, OSError(errno.EIO, "flaky disk"))
        assert call_with_retry(
            "op", fn, policy=RetryPolicy(retries=2, backoff_s=0),
            retryable=(OSError,), log=ResilienceLog()) == "ok"
        assert calls["count"] == 2


class TestResilienceLog:
    def test_filters_and_counts(self):
        log = ResilienceLog()
        log.record("native.cc", "retry", "ToolchainError", attempt=1)
        log.record("native.cc", "retry", "ToolchainError", attempt=2)
        log.record("engine.run", "degrade", "ToolchainError")
        log.record("cache.read", "fallback", "CacheCorruptionError")
        assert len(log) == 4
        assert len(log.events(op="native.cc")) == 2
        assert len(log.events(action="degrade")) == 1
        assert len(log.events(error="ToolchainError")) == 3
        assert len(log.events(op="native.cc", action="degrade")) == 0
        assert log.counts() == {"retry": 2, "degrade": 1, "fallback": 1}

    def test_clear_and_capacity_bound(self):
        log = ResilienceLog(capacity=4)
        for index in range(10):
            log.record("op", "retry", attempt=index)
        assert len(log) == 4
        assert [event.attempt for event in log.events()] == [6, 7, 8, 9]
        log.clear()
        assert len(log) == 0
        assert log.counts() == {}
        assert log.total_recorded == 0

    def test_counts_survive_window_rotation(self):
        """Action totals are persistent counters, not a fold over the
        bounded deque — a long-running daemon's stats must not undercount
        once old events rotate out of the window."""
        log = ResilienceLog(capacity=4)
        for _ in range(100):
            log.record("op", "retry")
        log.record("op", "degrade")
        assert len(log) == 4  # window rotated
        assert log.counts() == {"retry": 100, "degrade": 1}
        assert log.total_recorded == 101

    def test_concurrent_hammer(self):
        """Many threads recording/reading concurrently: no lost counts, no
        corrupted window, consistent totals (the per-stream worker threads
        and the service's handler threads all share ``global_log()``)."""
        log = ResilienceLog(capacity=64)
        threads = 8
        per_thread = 500
        actions = ("retry", "degrade", "fallback", "recover")
        barrier = threading.Barrier(threads + 2)

        def writer(thread_index):
            barrier.wait()
            for index in range(per_thread):
                log.record(f"op{thread_index}", actions[index % len(actions)],
                           attempt=index)

        def reader():
            barrier.wait()
            for _ in range(200):
                counts = log.counts()
                assert all(value >= 0 for value in counts.values())
                assert len(log.events()) <= 64
                len(log)

        workers = [threading.Thread(target=writer, args=(index,))
                   for index in range(threads)]
        workers += [threading.Thread(target=reader) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        counts = log.counts()
        assert sum(counts.values()) == threads * per_thread
        assert log.total_recorded == threads * per_thread
        expected_each = threads * per_thread // len(actions)
        assert counts == {action: expected_each for action in actions}
        assert len(log) == 64


class TestFallbackChain:
    def test_chain_order_matches_engine_strength(self):
        assert FALLBACK_CHAIN == ("native", "multicore", "vectorized",
                                  "compiled", "interp")

    def test_fallback_engines(self):
        assert fallback_engines("native") == ("multicore", "vectorized",
                                              "compiled", "interp")
        assert fallback_engines("compiled") == ("interp",)
        assert fallback_engines("interp") == ()
        assert fallback_engines("no-such-engine") == ()


class _StubEngine:
    """A run()-able stand-in that can fail a fixed number of times."""

    def __init__(self, name, error=None, mutate=False):
        self.name = name
        self.error = error
        self.mutate = mutate
        self.runs = 0
        self.report = f"report:{name}"
        self.workers = 3

    def run(self, function_name, arguments=()):
        self.runs += 1
        if self.mutate and len(arguments) and isinstance(arguments[0], np.ndarray):
            arguments[0][:] = -1.0  # partial progress before the failure
        if self.error is not None:
            raise self.error
        return f"ok:{self.name}"


def _stub_rebuild(plan):
    """A rebuild callable serving stubs from ``plan`` (engine name -> stub)."""
    built = []

    def rebuild(engine_name):
        stub = plan[engine_name]
        built.append(engine_name)
        return stub

    return rebuild, built


class TestResilientExecutor:
    def test_degrades_through_the_chain(self):
        log = ResilienceLog()
        plan = {
            "multicore": _StubEngine("multicore", WorkerCrashError("dead")),
            "vectorized": _StubEngine("vectorized", ShmExhaustedError("full")),
            "compiled": _StubEngine("compiled"),
        }
        rebuild, built = _stub_rebuild(plan)
        executor = ResilientExecutor(plan["multicore"], "multicore", rebuild,
                                     log=log)
        assert executor.run("main", []) == "ok:compiled"
        assert built == ["vectorized", "compiled"]
        assert executor.engine_name == "compiled"
        degrades = log.events(op="engine.run", action="degrade")
        assert [event.engine for event in degrades] == ["vectorized", "compiled"]
        assert executor.report == "report:compiled"

    def test_chain_exhaustion_reraises(self):
        plan = {name: _StubEngine(name, WorkerCrashError(name))
                for name in ("compiled", "interp")}
        rebuild, _ = _stub_rebuild(plan)
        executor = ResilientExecutor(plan["compiled"], "compiled", rebuild,
                                     log=ResilienceLog())
        with pytest.raises(WorkerCrashError, match="interp"):
            executor.run("main", [])

    def test_non_taxonomy_errors_pass_through(self):
        stub = _StubEngine("native", ValueError("user bug"))
        rebuild, built = _stub_rebuild({})
        executor = ResilientExecutor(stub, "native", rebuild,
                                     log=ResilienceLog())
        with pytest.raises(ValueError, match="user bug"):
            executor.run("main", [])
        assert built == []  # no fallback for deterministic program errors

    def test_snapshot_restores_inputs_between_attempts(self):
        """A failed attempt's partial stores must not leak into the retry:
        writable ndarrays snapshot before every wrapped run — with *no*
        fault injection configured, exactly like a real mid-run failure —
        and restore before the fallback engine reruns."""
        observed = {}

        class _Checker(_StubEngine):
            def run(self, function_name, arguments=()):
                observed["value"] = arguments[0].copy()
                return super().run(function_name, arguments)

        plan = {"interp": _Checker("interp")}
        rebuild, _ = _stub_rebuild(plan)
        broken = _StubEngine("compiled", WorkerCrashError("dead"), mutate=True)
        executor = ResilientExecutor(broken, "compiled", rebuild,
                                     log=ResilienceLog())
        data = np.arange(4, dtype=np.float32)
        assert executor.run("main", [data]) == "ok:interp"
        np.testing.assert_array_equal(observed["value"],
                                      np.arange(4, dtype=np.float32))

    def test_snapshot_is_taken_when_a_late_failing_engine_is_reached(self):
        """``native`` declares it fails before its first store: no copy is
        made for its run, and when it degrades the snapshot is taken right
        then, before ``multicore`` (which declares nothing) mutates and
        fails — so the third engine still sees what the caller passed."""
        snapshots = []

        class _Lazy(ResilientExecutor):
            @staticmethod
            def _snapshot(arguments):
                snapshots.append(list(built))  # the engines reached so far
                return ResilientExecutor._snapshot(arguments)

        class _Checker(_StubEngine):
            def run(self, function_name, arguments=()):
                self.seen = arguments[0].copy()
                return super().run(function_name, arguments)

        class _FailsEarly(_StubEngine):
            FAILS_BEFORE_FIRST_STORE = True

        plan = {"multicore": _StubEngine("multicore", WorkerCrashError("dead"),
                                         mutate=True),
                "vectorized": _Checker("vectorized")}
        rebuild, built = _stub_rebuild(plan)
        executor = _Lazy(_FailsEarly("native", ToolchainError("no cc")),
                         "native", rebuild, log=ResilienceLog())
        data = np.arange(4, dtype=np.float32)
        assert executor.run("main", [data]) == "ok:vectorized"
        assert built == ["multicore", "vectorized"]
        assert snapshots == [["multicore"]]
        np.testing.assert_array_equal(plan["vectorized"].seen,
                                      np.arange(4, dtype=np.float32))
        # a clean run of an engine that declares the invariant copies nothing
        executor = _Lazy(_FailsEarly("native"), "native", rebuild,
                         log=ResilienceLog())
        assert executor.run("main", [data]) == "ok:native"
        assert len(snapshots) == 1

    def test_snapshot_copies_only_writable_ndarrays(self):
        frozen = np.zeros(3, dtype=np.float32)
        frozen.flags.writeable = False
        snapshot = ResilientExecutor._snapshot([np.zeros(4), frozen, 7])
        assert [index for index, _ in snapshot] == [0]

    def test_wrapper_is_transparent(self):
        stub = _StubEngine("native")
        rebuild, _ = _stub_rebuild({})
        executor = ResilientExecutor(stub, "native", rebuild,
                                     log=ResilienceLog())
        assert type(executor) is ResilientExecutor
        assert executor.workers == 3  # __getattr__ delegation
        assert executor.inner is stub
        assert stub._resilience_strict  # wrapped engines run strict


class TestMakeExecutorIntegration:
    @pytest.fixture()
    def module(self):
        from repro.frontend import compile_cuda
        from repro.transforms import PipelineOptions

        source = """
        __global__ void scale(float* out, float* in, int n) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            if (gid < n) { out[gid] = in[gid] * 2.0f; }
        }
        void launch(float* out, float* in, int n) {
            scale<<<(n + 31) / 32, 32>>>(out, in, n);
        }
        """
        return compile_cuda(source, cuda_lower=True,
                            options=PipelineOptions.all_optimizations())

    def test_wrapped_by_default(self, module):
        from repro.runtime import make_executor

        executor = make_executor(module, engine="compiled")
        assert type(executor) is ResilientExecutor

    def test_chain_floor_is_never_wrapped(self, module):
        from repro.runtime import Interpreter, make_executor

        executor = make_executor(module, engine="interp")
        assert type(executor) is Interpreter

    def test_permanent_toolchain_failure_degrades_bit_identically(
            self, module, monkeypatch):
        """``native.cc:*`` fails every compile attempt: the wrapper must
        step native -> multicore and produce the clean-run outputs."""
        from repro.runtime import make_executor

        n = 64
        data = np.arange(n, dtype=np.float32)
        expected = np.zeros(n, dtype=np.float32)
        make_executor(module, engine="compiled").run(
            "launch", [expected, data.copy(), n])

        monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
        monkeypatch.setenv("REPRO_BACKOFF_S", "0")
        reset_faults()
        out = np.zeros(n, dtype=np.float32)
        executor = make_executor(module, engine="native")
        executor.run("launch", [out, data.copy(), n])
        np.testing.assert_array_equal(out, expected)
        assert executor.engine_name == "multicore"
        log = resilience.global_log()
        assert log.events(op="engine.run", action="degrade")
        assert log.events(op="native.cc", action="retry")
        assert log.events(action="inject")

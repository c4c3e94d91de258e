"""Stream/event semantics under the thread-backed executor.

Pins the MocCUDA shim's asynchrony contract: per-stream FIFO order,
host-overlapping execution, cross-stream ordering through CUDA events,
``synchronize()`` task counting, error propagation at sync, and launch
batching (coalesced dispatches produce tensors bit-identical to unbatched
launches while issuing fewer executor dispatches)."""

import threading
import time

import numpy as np
import pytest

from repro import moccuda as mc
from repro.moccuda import CudaEvent, MocCUDASession
from repro.runtime import StreamPoisonedError, WorkerCrashError, resilience
from repro.runtime.resilience import reset_faults


@pytest.fixture()
def session():
    with MocCUDASession() as live_session:
        yield live_session


def _nll_inputs(seed=4, batch=8, classes=10):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((batch, classes)).astype(np.float32)
    log_probs = np.log(mc.softmax(logits))
    targets = rng.integers(0, classes, size=batch)
    return log_probs, targets


def _launch_args(log_probs, targets, batch, classes):
    losses = np.zeros(32, dtype=np.float32)
    total = np.zeros(1, dtype=np.float32)
    return [np.ascontiguousarray(log_probs.reshape(-1)),
            targets.astype(np.int64), losses, total, batch, classes], total


class TestFifoOrder:
    def test_tasks_execute_in_submission_order(self, session):
        stream = session.cuda_stream_create()
        order = []
        for index in range(20):
            stream.enqueue(lambda index=index: order.append(index))
        executed = session.cuda_stream_synchronize(stream.stream_id)
        assert executed == 20
        assert order == list(range(20))

    def test_fifo_holds_under_interleaved_sleeps(self, session):
        """A slow head task must not let later tasks overtake it."""
        stream = session.cuda_stream_create()
        order = []
        stream.enqueue(lambda: (time.sleep(0.05), order.append("slow")))
        stream.enqueue(lambda: order.append("fast"))
        stream.synchronize()
        assert order == ["slow", "fast"]

    def test_streams_run_concurrently_with_host(self, session):
        """The queue starts executing before synchronize is called."""
        stream = session.cuda_stream_create()
        started = threading.Event()
        release = threading.Event()
        stream.enqueue(lambda: (started.set(), release.wait(5)))
        assert started.wait(5), "task did not start until synchronize()"
        release.set()
        stream.synchronize()


class TestSynchronizeCounts:
    def test_counts_reset_between_synchronizes(self, session):
        stream = session.cuda_stream_create()
        for _ in range(3):
            stream.enqueue(lambda: None)
        assert stream.synchronize() == 3
        assert stream.synchronize() == 0
        stream.enqueue(lambda: None)
        assert stream.synchronize() == 1

    def test_device_synchronize_drains_all_streams(self, session):
        streams = [session.cuda_stream_create() for _ in range(3)]
        for index, stream in enumerate(streams):
            for _ in range(index + 1):
                stream.enqueue(lambda: None)
        assert session.cuda_device_synchronize() == 1 + 2 + 3

    def test_task_errors_surface_at_synchronize(self, session):
        stream = session.cuda_stream_create()

        def boom():
            raise ValueError("async launch failure")

        stream.enqueue(boom)
        with pytest.raises(ValueError, match="async launch failure"):
            stream.synchronize()

    def test_synchronize_drains_past_a_failing_task(self, session):
        """An error must not abandon queued work: after a caught error the
        stream is idle and later work has actually completed."""
        stream = session.cuda_stream_create()
        ran = []

        def boom():
            raise ValueError("first task fails")

        stream.enqueue(boom)
        stream.enqueue(lambda: (time.sleep(0.03), ran.append("late")))
        with pytest.raises(ValueError, match="first task fails"):
            stream.synchronize()
        assert ran == ["late"]       # the queue drained before raising
        assert stream.synchronize() == 0  # counter was reset, stream idle


class TestEvents:
    def test_unrecorded_event_is_complete(self, session):
        event = session.cuda_event_create()
        assert session.cuda_event_query(event)
        session.cuda_event_synchronize(event)  # returns immediately

    def test_record_resets_until_queue_reaches_marker(self, session):
        stream = session.cuda_stream_create()
        release = threading.Event()
        stream.enqueue(lambda: release.wait(5))
        event = session.cuda_event_create()
        session.cuda_event_record(event, stream.stream_id)
        assert not session.cuda_event_query(event)
        release.set()
        session.cuda_event_synchronize(event)
        assert session.cuda_event_query(event)
        stream.synchronize()

    def test_cross_stream_event_ordering(self, session):
        """B's work after wait_event must observe A's work before record."""
        stream_a = session.cuda_stream_create()
        stream_b = session.cuda_stream_create()
        event = session.cuda_event_create()
        log = []
        stream_a.enqueue(lambda: (time.sleep(0.05), log.append("a")))
        session.cuda_event_record(event, stream_a.stream_id)
        session.cuda_stream_wait_event(stream_b.stream_id, event)
        stream_b.enqueue(lambda: log.append("b"))
        stream_b.synchronize()
        stream_a.synchronize()
        assert log == ["a", "b"]

    def test_wait_event_blocks_stream_not_host(self, session):
        stream = session.cuda_stream_create()
        event = CudaEvent(99)
        event._reset()  # recorded somewhere, not yet fired
        stream.wait_event(event)
        ran = []
        stream.enqueue(lambda: ran.append(1))
        time.sleep(0.05)
        assert ran == []  # the stream is parked behind the event...
        event._fire()    # ...but the host was never blocked
        stream.synchronize()
        assert ran == [1]

    def test_wait_event_timeout_raises_at_sync(self, session):
        stream = session.cuda_stream_create()
        event = CudaEvent(100)
        event._reset()
        stream.wait_event(event, timeout=0.05)
        with pytest.raises(RuntimeError, match="timed out"):
            stream.synchronize()

    def test_rerecord_supersedes_previous_record(self, session):
        """Only the *latest* record point may fire the event: a marker left
        in an earlier stream's queue must not release waiters early."""
        fast, slow = session.cuda_stream_create(), session.cuda_stream_create()
        event = session.cuda_event_create()
        release = threading.Event()
        session.cuda_event_record(event, fast.stream_id)   # superseded below
        slow.enqueue(lambda: release.wait(5))
        session.cuda_event_record(event, slow.stream_id)   # the record that counts
        fast.synchronize()  # fast's stale marker has definitely run by now
        assert not session.cuda_event_query(event)
        release.set()
        slow.synchronize()
        assert session.cuda_event_query(event)

    def test_chained_events_across_three_streams(self, session):
        streams = [session.cuda_stream_create() for _ in range(3)]
        events = [session.cuda_event_create() for _ in range(2)]
        log = []
        streams[0].enqueue(lambda: (time.sleep(0.03), log.append(0)))
        session.cuda_event_record(events[0], streams[0].stream_id)
        session.cuda_stream_wait_event(streams[1].stream_id, events[0])
        streams[1].enqueue(lambda: (time.sleep(0.02), log.append(1)))
        session.cuda_event_record(events[1], streams[1].stream_id)
        session.cuda_stream_wait_event(streams[2].stream_id, events[1])
        streams[2].enqueue(lambda: log.append(2))
        streams[2].synchronize()
        session.cuda_device_synchronize()
        assert log == [0, 1, 2]


class TestLaunchBatching:
    def test_batched_launches_match_unbatched(self, session):
        log_probs, targets = _nll_inputs()
        kernel = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss",
                                        filename="nll_loss.cu")

        # unbatched reference: one launch, one synchronize, repeated.
        reference = []
        for _ in range(4):
            args, total = _launch_args(log_probs, targets, 8, 10)
            session.launch_kernel(kernel, args)
            session.cuda_stream_synchronize(0)
            reference.append(total.copy())

        # batched: park the stream so back-to-back launches coalesce.
        stream = session.cuda_stream_create()
        release = threading.Event()
        stream.enqueue(lambda: release.wait(5))
        totals = []
        for _ in range(4):
            args, total = _launch_args(log_probs, targets, 8, 10)
            session.launch_kernel(kernel, args, stream_id=stream.stream_id)
            totals.append(total)
        release.set()
        stream.synchronize()
        assert stream.stats["launches"] == 4
        assert stream.stats["coalesced"] >= 1
        assert stream.stats["dispatches"] + stream.stats["coalesced"] == 4
        for total, expected in zip(totals, reference):
            np.testing.assert_array_equal(total, expected)

    def test_batch_counts_as_single_task(self, session):
        log_probs, targets = _nll_inputs(seed=7)
        kernel = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        stream = session.cuda_stream_create()
        release = threading.Event()
        stream.enqueue(lambda: release.wait(5))
        for _ in range(3):
            args, _ = _launch_args(log_probs, targets, 8, 10)
            session.launch_kernel(kernel, args, stream_id=stream.stream_id)
        release.set()
        executed = stream.synchronize()
        # the parked task plus exactly one coalesced dispatch.
        assert executed == 1 + stream.stats["dispatches"]
        assert stream.stats["dispatches"] == 1
        assert stream.stats["coalesced"] == 2

    def test_interleaved_task_breaks_coalescing_window(self, session):
        log_probs, targets = _nll_inputs(seed=8)
        kernel = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        stream = session.cuda_stream_create()
        release = threading.Event()
        stream.enqueue(lambda: release.wait(5))
        args1, _ = _launch_args(log_probs, targets, 8, 10)
        args2, _ = _launch_args(log_probs, targets, 8, 10)
        session.launch_kernel(kernel, args1, stream_id=stream.stream_id)
        stream.enqueue(lambda: None)  # e.g. a memcpy between launches
        session.launch_kernel(kernel, args2, stream_id=stream.stream_id)
        release.set()
        stream.synchronize()
        assert stream.stats["dispatches"] == 2
        assert stream.stats["coalesced"] == 0

    def test_event_record_breaks_coalescing_window(self, session):
        """An event between launches must not let the second launch ride
        the first dispatch (the event would cover too much work)."""
        log_probs, targets = _nll_inputs(seed=9)
        kernel = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        stream = session.cuda_stream_create()
        release = threading.Event()
        stream.enqueue(lambda: release.wait(5))
        args1, _ = _launch_args(log_probs, targets, 8, 10)
        args2, _ = _launch_args(log_probs, targets, 8, 10)
        session.launch_kernel(kernel, args1, stream_id=stream.stream_id)
        event = session.cuda_event_create()
        session.cuda_event_record(event, stream.stream_id)
        session.launch_kernel(kernel, args2, stream_id=stream.stream_id)
        release.set()
        stream.synchronize()
        assert stream.stats["dispatches"] == 2

    def test_nll_loss_through_async_stream_matches_numpy(self, session):
        log_probs, targets = _nll_inputs(seed=11)
        expected = mc.nll_loss(log_probs, targets)
        actual = session.nll_loss(log_probs, targets)
        assert actual == pytest.approx(expected, rel=1e-4)
        assert "cudaLaunchKernel" in session.call_log


class TestPoisonedStream:
    """Sticky-error semantics: a failed kernel launch batch poisons the
    stream — later work is rejected with the original cause chained —
    until ``synchronize()`` surfaces the original error and clears it,
    like a sticky CUDA error cleared at ``cudaStreamSynchronize``."""

    @pytest.fixture(autouse=True)
    def _clean_resilience(self):
        reset_faults()
        resilience.global_log().clear()
        yield
        reset_faults()
        resilience.global_log().clear()

    def _poison(self, session, stream, monkeypatch, *, seed=21):
        """Drive the stream into the poisoned state via one injected
        launch-batch failure; returns the (healthy again) kernel handle."""
        kernel = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        monkeypatch.setenv("REPRO_FAULTS", "shim.launch:1")
        reset_faults()
        args, _ = _launch_args(*_nll_inputs(seed=seed), 8, 10)
        session.launch_kernel(kernel, args, stream_id=stream.stream_id)
        deadline = time.monotonic() + 5
        while stream.poisoned is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert stream.poisoned is not None, "injected batch failure never landed"
        return kernel

    def test_failed_batch_fails_its_whole_coalesced_window(
            self, session, monkeypatch):
        """The injected failure precedes every launch of the batch: none of
        the coalesced windows' outputs may be written."""
        kernel = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        stream = session.cuda_stream_create()
        release = threading.Event()
        stream.enqueue(lambda: release.wait(5))
        monkeypatch.setenv("REPRO_FAULTS", "shim.launch:1")
        reset_faults()
        totals = []
        for _ in range(3):
            args, total = _launch_args(*_nll_inputs(seed=20), 8, 10)
            session.launch_kernel(kernel, args, stream_id=stream.stream_id)
            totals.append(total)
        release.set()
        with pytest.raises(WorkerCrashError, match="injected fault"):
            stream.synchronize()
        assert stream.stats["dispatches"] == 1
        assert stream.stats["coalesced"] == 2
        for total in totals:
            np.testing.assert_array_equal(total, np.zeros(1, dtype=np.float32))

    def test_poisoned_stream_rejects_work_with_cause_chained(
            self, session, monkeypatch):
        stream = session.cuda_stream_create()
        kernel = self._poison(session, stream, monkeypatch)
        original = stream.poisoned
        args, _ = _launch_args(*_nll_inputs(seed=22), 8, 10)
        with pytest.raises(StreamPoisonedError, match="poisoned") as excinfo:
            session.launch_kernel(kernel, args, stream_id=stream.stream_id)
        assert excinfo.value.__cause__ is original  # worker traceback intact
        with pytest.raises(StreamPoisonedError) as excinfo:
            stream.enqueue(lambda: None)
        assert excinfo.value.__cause__ is original
        assert stream.poisoned is not None  # still poisoned until synchronize
        with pytest.raises(WorkerCrashError):
            stream.synchronize()

    def test_synchronize_raises_original_and_clears_poison(
            self, session, monkeypatch):
        stream = session.cuda_stream_create()
        kernel = self._poison(session, stream, monkeypatch)
        original = stream.poisoned
        with pytest.raises(WorkerCrashError) as excinfo:
            stream.synchronize()
        assert excinfo.value is original   # the original error object
        assert stream.poisoned is None     # ...and the poison is cleared
        log = resilience.global_log()
        assert log.events(op="shim.launch", action="degrade")
        assert log.events(op="shim.launch", action="recover")
        # the stream is healthy again: the same kernel launches and the
        # result matches the library oracle.
        log_probs, targets = _nll_inputs(seed=23)
        args, total = _launch_args(log_probs, targets, 8, 10)
        session.launch_kernel(kernel, args, stream_id=stream.stream_id)
        stream.synchronize()
        expected = mc.nll_loss(log_probs, targets)
        assert total[0] == pytest.approx(expected, rel=1e-4)

    def test_plain_task_failure_does_not_poison(self, session):
        """Legacy contract pinned: host-task errors surface at synchronize
        but never reject queued work in between."""
        stream = session.cuda_stream_create()

        def boom():
            raise ValueError("host task failure")

        stream.enqueue(boom)
        with pytest.raises(ValueError, match="host task failure"):
            stream.synchronize()
        assert stream.poisoned is None
        ran = []
        stream.enqueue(lambda: ran.append(1))  # not rejected
        assert stream.synchronize() == 1
        assert ran == [1]


class TestSessionLifecycle:
    def test_close_is_idempotent(self):
        session = MocCUDASession()
        session.nll_loss(*_nll_inputs(seed=12))
        session.close()
        session.close()

    def test_kernel_handles_are_memoized(self, session):
        first = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        second = session.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
        assert first is second
        assert first.module is second.module

    def test_same_entry_different_source_distinct_handles(self, session):
        """Handle memoization is by (source, entry): two kernels that share
        an entry-point name must not collide."""
        template = """
__global__ void k(float* out, int n) {{
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {{ out[gid] = {value}f; }}
}}

void launch(float* out, int n) {{
    k<<<1, 4>>>(out, n);
}}
"""
        kernel_two = session.compile_kernel(template.format(value="2.0"), "launch")
        kernel_three = session.compile_kernel(template.format(value="3.0"), "launch")
        assert kernel_two is not kernel_three
        out_two = np.zeros(4, dtype=np.float32)
        out_three = np.zeros(4, dtype=np.float32)
        session.launch_kernel(kernel_two, [out_two, 4])
        session.launch_kernel(kernel_three, [out_three, 4])
        session.cuda_stream_synchronize(0)
        np.testing.assert_array_equal(out_two, np.full(4, 2.0, dtype=np.float32))
        np.testing.assert_array_equal(out_three, np.full(4, 3.0, dtype=np.float32))

    def test_sessions_share_cached_modules(self):
        with MocCUDASession() as one, MocCUDASession() as two:
            kernel_one = one.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
            kernel_two = two.compile_kernel(mc.NLL_LOSS_CUDA, "nll_loss")
            # the content-addressed cache hands both sessions the same
            # canonical module (shared mode) — compile once, replay forever.
            assert kernel_one.module is kernel_two.module

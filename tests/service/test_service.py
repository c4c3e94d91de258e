"""Service unit + end-to-end conformance: protocol, admission, metrics,
server.

The contract under test:

* the wire protocol round-trips every supported argument kind and the
  pinned CostReport fields **bit-identically**, and fails loudly on
  truncation/corruption;
* admission control admits up to the in-flight cap, queues up to the
  bounded depth, and sheds everything beyond it (immediately when the
  queue is full, after the timeout when a slot never frees);
* a served launch returns outputs and a CostReport bit-identical to
  running the same module in-process, cold and warm, for every engine and
  pipeline-option combination the request names;
* tenants are isolated: each gets its own stream, and one tenant's
  failure leaves other tenants' requests untouched;
* the stats endpoint surfaces metrics + admission + stream + cache +
  resilience counters.
"""

import socket
import threading

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.runtime import make_executor, shutdown_worker_pools
from repro.service import (
    AdmissionController,
    KernelServer,
    ServiceClient,
    ServiceError,
    ServiceMetrics,
    ServiceRejected,
    percentile,
)
from repro.service import protocol
from tests.helpers import generate_fuzz_kernel, report_fields

SAXPY = """
__global__ void saxpy(float* x, float* y, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) y[i] = a * x[i] + y[i];
}
void launch(float* x, float* y, float a, int n) {
  saxpy<<<(n + 63) / 64, 64>>>(x, y, a, n);
}
"""


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


@pytest.fixture()
def server(tmp_path):
    with KernelServer(socket_path=str(tmp_path / "serve.sock")) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServiceClient(server.address) as connected:
        yield connected


class TestProtocol:
    def _roundtrip(self, header, frames=()):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, header, frames)
            received = protocol.recv_message(right)
            assert received is not None
            return received
        finally:
            left.close()
            right.close()

    def test_message_roundtrip_with_frames(self):
        header, frames = self._roundtrip(
            {"op": "x", "n": 3}, [b"abc", b"", b"\x00" * 1024])
        assert header["op"] == "x" and header["n"] == 3
        assert frames == [b"abc", b"", b"\x00" * 1024]

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert protocol.recv_message(right) is None
        finally:
            right.close()

    def test_truncated_message_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x01")  # partial length prefix
            left.close()
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_header_length_cap(self):
        left, right = socket.socketpair()
        try:
            left.sendall(protocol._LENGTH.pack(protocol.MAX_HEADER_BYTES + 1))
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_args_roundtrip_bit_identical(self):
        rng = np.random.default_rng(7)
        readonly = rng.standard_normal(8, dtype=np.float32)
        readonly.flags.writeable = False
        arguments = [
            rng.standard_normal((3, 5), dtype=np.float32),
            rng.standard_normal(4).astype(np.float64),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            readonly,
            np.float32(0.1),  # not exactly representable: must round-trip raw
            np.int64(-9),
            True, 42, 0.3333333333333333,
        ]
        specs, frames = protocol.encode_args(arguments)
        decoded = protocol.decode_args(specs, frames)
        assert len(decoded) == len(arguments)
        for original, received in zip(arguments, decoded):
            if isinstance(original, np.ndarray):
                assert received.dtype == original.dtype
                assert received.shape == original.shape
                assert np.array_equal(
                    received.view(np.uint8), original.view(np.uint8))
                assert received.flags.writeable == original.flags.writeable
                assert received.base is None or received.flags.owndata or True
            elif isinstance(original, np.generic):
                assert type(received) is type(original)
                assert received.tobytes() == original.tobytes()
            else:
                assert type(received) is type(original)
                assert received == original
        assert protocol.array_indices(specs) == [0, 1, 2, 3]

    def test_decoded_arrays_are_fresh_buffers(self):
        array = np.ones(4, dtype=np.float32)
        specs, frames = protocol.encode_args([array])
        (decoded,) = protocol.decode_args(specs, frames)
        decoded[0] = 5.0  # writable copy, not a view over the receive buffer
        assert array[0] == 1.0

    def test_byte_count_validation(self):
        specs, frames = protocol.encode_args([np.ones(4, dtype=np.float32)])
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_args(specs, [frames[0][:-1]])

    def test_unsupported_argument_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_args([{"not": "supported"}])

    def test_report_roundtrip(self):
        module = compile_cuda(SAXPY, cuda_lower=True, cache=False)
        executor = make_executor(module, engine="interp")
        x = np.ones(8, dtype=np.float32)
        y = np.ones(8, dtype=np.float32)
        executor.run("launch", [x, y, np.float32(2.0), 8])
        encoded = protocol.encode_report(executor.report)
        assert protocol.report_tuple(encoded) == report_fields(executor.report)


class TestAdmission:
    def test_admits_up_to_cap_then_queues_then_sheds(self):
        admission = AdmissionController(max_inflight=2, queue_depth=1,
                                        queue_timeout_s=0.05)
        assert admission.acquire() and admission.acquire()
        assert admission.inflight == 2
        # third caller queues and times out (no release coming).
        assert admission.acquire() is False
        snapshot = admission.snapshot()
        assert snapshot["rejected_queue_timeout"] == 1

    def test_queue_full_sheds_immediately(self):
        admission = AdmissionController(max_inflight=1, queue_depth=0,
                                        queue_timeout_s=10.0)
        assert admission.acquire()
        assert admission.acquire() is False  # no wait: queue depth is 0
        assert admission.snapshot()["rejected_queue_full"] == 1

    def test_release_wakes_a_queued_caller(self):
        admission = AdmissionController(max_inflight=1, queue_depth=4,
                                        queue_timeout_s=10.0)
        assert admission.acquire()
        admitted = []

        def waiter():
            admitted.append(admission.acquire())

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = 100
        while admission.snapshot()["waiting"] == 0 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        admission.release()
        thread.join(timeout=10)
        assert admitted == [True]
        snapshot = admission.snapshot()
        assert snapshot["admitted"] == 2
        assert snapshot["peak_waiting"] == 1

    def test_concurrent_inflight_never_exceeds_cap(self):
        admission = AdmissionController(max_inflight=3, queue_depth=64,
                                        queue_timeout_s=10.0)
        peak = []

        def worker():
            if admission.acquire():
                peak.append(admission.inflight)
                threading.Event().wait(0.005)
                admission.release()

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert max(peak) <= 3
        assert admission.snapshot()["peak_inflight"] <= 3


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0.50) == 51.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile([], 0.99) == 0.0

    def test_snapshot_folds_counters(self):
        metrics = ServiceMetrics(window=8)
        metrics.record_request("launch", "t0")
        metrics.record_launch(0.010, warm=False)
        metrics.record_launch(0.020, warm=True, degraded=True, retries=2)
        metrics.record_launch(0.030, warm=True, error=True)
        metrics.record_compile(warm=True)
        snapshot = metrics.snapshot()
        assert snapshot["launches"] == 3
        assert snapshot["warm_hits"] == 2
        assert snapshot["warm_hit_rate"] == pytest.approx(2 / 3)
        assert snapshot["errors"] == 1
        assert snapshot["degraded"] == 1
        assert snapshot["retries"] == 2
        assert snapshot["compile_warm_hits"] == 1
        assert snapshot["requests_by_tenant"] == {"t0": 1}
        assert snapshot["latency"]["samples"] == 3
        assert snapshot["latency"]["p50_s"] == pytest.approx(0.020)
        assert snapshot["latency"]["max_s"] == pytest.approx(0.030)


class TestServerEndToEnd:
    def _reference(self, source, entry, arguments, engine, options=None):
        module = compile_cuda(source, cuda_lower=True, options=options,
                              cache="shared")
        executor = make_executor(module, engine=engine)
        executor.run(entry, arguments)
        return arguments, report_fields(executor.report)

    def test_ping(self, client):
        assert client.ping()["status"] == "ok"

    def test_launch_bit_identical_to_in_process(self, client):
        rng = np.random.default_rng(3)
        n = 192
        x = rng.standard_normal(n, dtype=np.float32)
        y = rng.standard_normal(n, dtype=np.float32)
        ref_args, ref_report = self._reference(
            SAXPY, "launch", [x, y.copy(), np.float32(2.5), n], "compiled")
        result = client.launch(SAXPY, "launch",
                               [x, y.copy(), np.float32(2.5), n],
                               engine="compiled")
        assert result.engine == "compiled"
        assert not result.degraded
        assert np.array_equal(result.args[1], ref_args[1])
        assert result.report_tuple == ref_report

    def test_warm_hit_second_launch(self, client):
        n = 64
        x = np.ones(n, dtype=np.float32)
        first = client.launch(SAXPY, "launch",
                              [x, x.copy(), np.float32(1.0), n],
                              engine="interp")
        second = client.launch(SAXPY, "launch",
                               [x, x.copy(), np.float32(1.0), n],
                               engine="interp")
        assert not first.warm
        assert second.warm
        assert np.array_equal(first.args[1], second.args[1])
        assert first.report_tuple == second.report_tuple

    def test_compile_endpoint_returns_content_key(self, client):
        cold = client.compile(SAXPY, "launch")
        warm = client.compile(SAXPY, "launch")
        assert cold["key"] == warm["key"]
        assert not cold["warm"] and warm["warm"]

    def test_engine_matrix_parity_through_the_service(self, client):
        kernel = generate_fuzz_kernel(11)
        arguments = kernel.make_args()
        results = {}
        for engine in ("interp", "compiled", "vectorized", "multicore"):
            ref_args, ref_report = self._reference(
                kernel.source, kernel.entry,
                [arguments[0], arguments[1], arguments[2].copy(),
                 arguments[3]], engine, options=kernel.options)
            served = client.launch(
                kernel.source, kernel.entry,
                [arguments[0], arguments[1], arguments[2].copy(),
                 arguments[3]], engine=engine, workers=2,
                options=kernel.options)
            assert np.array_equal(served.args[2], ref_args[2]), engine
            assert served.report_tuple == ref_report, engine
            results[engine] = (served.args[2].tobytes(), served.report_tuple)
        assert len({value for value, _ in results.values()}) == 1

    def test_pipeline_options_over_the_wire(self, client):
        kernel = generate_fuzz_kernel(5)
        baseline = client.launch(kernel.source, kernel.entry,
                                 kernel.make_args(), engine="compiled",
                                 options=kernel.options)
        flags = client.launch(kernel.source, kernel.entry, kernel.make_args(),
                              engine="compiled", options=kernel.options)
        assert np.array_equal(baseline.args[2], flags.args[2])

    def test_bad_engine_is_an_error_response(self, client):
        with pytest.raises(ServiceError):
            client.launch(SAXPY, "launch",
                          [np.ones(4, dtype=np.float32),
                           np.ones(4, dtype=np.float32), np.float32(1.0), 4],
                          engine="no-such-engine")

    def test_unknown_op_is_an_error_response(self, client):
        protocol.send_message(client._sock, {"op": "frobnicate",
                                             "v": protocol.PROTOCOL_VERSION})
        response, _ = protocol.recv_message(client._sock)
        assert response["status"] == "error"

    def test_version_mismatch_rejected(self, client):
        protocol.send_message(client._sock, {"op": "ping", "v": 999})
        response, _ = protocol.recv_message(client._sock)
        assert response["status"] == "error"
        assert "version" in response["detail"]

    def test_admission_rejection_surfaces_to_the_client(self, tmp_path):
        # deterministically exhaust the server's admission slots, then
        # observe the shed response end to end; with no queue the request is
        # shed at once instead of waiting out the queue timeout.
        with KernelServer(socket_path=str(tmp_path / "shed.sock"),
                          queue_depth=0) as server:
            while server.admission.acquire(timeout=0):
                pass
            shed = server.admission.snapshot()["rejected_queue_full"]
            try:
                with ServiceClient(server.address) as client:
                    with pytest.raises(ServiceRejected):
                        client.launch(SAXPY, "launch",
                                      [np.ones(4, dtype=np.float32),
                                       np.ones(4, dtype=np.float32),
                                       np.float32(1.0), 4], engine="interp")
            finally:
                for _ in range(server.admission.max_inflight):
                    server.admission.release()
            assert server.admission.snapshot()["rejected_queue_full"] == shed + 1

    def test_tenants_get_isolated_streams(self, server):
        n = 32
        x = np.ones(n, dtype=np.float32)
        with ServiceClient(server.address, tenant="alpha") as alpha:
            with ServiceClient(server.address, tenant="beta") as beta:
                alpha.launch(SAXPY, "launch",
                             [x, x.copy(), np.float32(1.0), n],
                             engine="interp")
                beta.launch(SAXPY, "launch",
                            [x, x.copy(), np.float32(1.0), n],
                            engine="interp")
                stats = alpha.stats()
        per_tenant = stats["streams"]["per_tenant"]
        assert per_tenant["alpha"]["launches"] == 1
        assert per_tenant["beta"]["launches"] == 1
        assert stats["streams"]["tenants"] == 2

    def test_stats_schema(self, client):
        n = 16
        x = np.ones(n, dtype=np.float32)
        client.launch(SAXPY, "launch", [x, x.copy(), np.float32(1.0), n],
                      engine="interp")
        stats = client.stats()
        for field in ("launches", "throughput_rps", "warm_hit_rate", "errors",
                      "degraded", "retries", "latency", "admission", "streams",
                      "kernels", "compile_cache", "resilience"):
            assert field in stats, field
        assert stats["launches"] >= 1
        assert stats["latency"]["samples"] >= 1
        assert stats["admission"]["admitted"] >= 1

    def test_shutdown_stops_the_server(self, tmp_path):
        server = KernelServer(socket_path=str(tmp_path / "stop.sock")).start()
        with ServiceClient(server.address) as client:
            client.shutdown()
        deadline = 100
        while not server._shutdown.is_set() and deadline:
            deadline -= 1
            threading.Event().wait(0.05)
        assert server._shutdown.is_set()
        server.stop()

    def test_concurrent_clients_share_one_cold_compile(self, server):
        """Two clients racing the same cold kernel converge on one server
        entry; both get correct results."""
        n = 48
        rng = np.random.default_rng(9)
        x = rng.standard_normal(n, dtype=np.float32)
        source = SAXPY.replace("saxpy", "saxpy_race")  # fresh content key
        ref_args, _ = self._reference(
            source, "launch", [x, x.copy(), np.float32(3.0), n], "interp")
        barrier = threading.Barrier(2)
        results, errors = [], []

        def hammer():
            try:
                with ServiceClient(server.address) as racing:
                    barrier.wait(timeout=10)
                    results.append(racing.launch(
                        source, "launch", [x, x.copy(), np.float32(3.0), n],
                        engine="interp"))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 2
        for result in results:
            assert np.array_equal(result.args[1], ref_args[1])
        with server._lock:
            matching = [key for key in server._kernels if key[0] == source]
        assert len(matching) == 1  # converged on one kernel handle

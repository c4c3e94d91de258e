"""A request runs where it arrives: what the per-tenant stream used to
provide — one tenant's launches never overlap, tenants run concurrently, a
transient launch failure is retried — pinned through the handler-thread path,
plus what the stream cost and the new path must not: a second thread per
tenant, the ``repro.moccuda`` import, retries of a deterministic kernel fault
and a handler thread kept per connection ever accepted.
"""

import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.runtime import make_executor, resilience
from repro.service import KernelServer, ServiceClient, protocol
from repro.service import server as server_module
from tests.helpers import report_fields
from tests.service.test_service import SAXPY

#: every thread stores 100 elements past a 32-element buffer.
OUT_OF_BOUNDS = """
__global__ void kernel(float* out, float* in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i + 100] = in[i]; }
}
void launch(float* out, float* in, int n) { kernel<<<1, 32>>>(out, in, n); }
"""


def _saxpy_args(n=32):
    x = np.arange(n, dtype=np.float32)
    return [x, np.ones(n, dtype=np.float32), np.float32(2.0), n]


@pytest.fixture
def server(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    resilience.reset_faults()
    resilience.global_log().clear()
    with KernelServer(socket_path=str(tmp_path / "path.sock")) as running:
        yield running
    resilience.reset_faults()


def test_no_stream_thread_per_tenant(server):
    for tenant in ("alpha", "beta", "gamma"):
        with ServiceClient(server.address, tenant=tenant) as client:
            client.launch(SAXPY, "launch", _saxpy_args(), engine="interp")
    assert server.stats()["streams"]["tenants"] == 3
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("moccuda-stream")]


def test_service_does_not_import_the_shim():
    src = Path(__file__).resolve().parents[2] / "src"
    probe = ("import sys; import repro.service; "
             "print(sorted(m for m in sys.modules if m.startswith('repro.moccuda')))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_one_tenant_serializes_and_two_tenants_overlap(server, monkeypatch):
    """Two connections of one tenant never overlap inside the executor; two
    tenants do.  The patched run holds each launch long enough for every
    handler that is allowed in to get in."""
    intervals = []
    real_run = server_module._ServiceKernel.run

    def slow_run(self, arguments):
        begin = time.monotonic()
        result = real_run(self, arguments)
        time.sleep(0.2)
        intervals.append((threading.current_thread().name, begin,
                          time.monotonic()))
        return result

    monkeypatch.setattr(server_module._ServiceKernel, "run", slow_run)

    def launch_concurrently(tenants):
        del intervals[:]
        barrier = threading.Barrier(len(tenants))
        errors = []

        def worker(tenant):
            try:
                with ServiceClient(server.address, tenant=tenant) as client:
                    barrier.wait(timeout=30)
                    client.launch(SAXPY, "launch", _saxpy_args(),
                                  engine="interp")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(tenant,))
                   for tenant in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "wedged"
        assert not errors, errors
        (_, begin_a, end_a), (_, begin_b, end_b) = sorted(
            intervals, key=lambda interval: interval[1])
        return begin_b < end_a  # the later one began before the earlier ended

    assert not launch_concurrently(["same", "same"])
    assert launch_concurrently(["left", "right"])


def test_deterministic_kernel_fault_is_answered_once(server):
    arguments = [np.zeros(32, dtype=np.float32),
                 np.ones(32, dtype=np.float32), 32]
    with ServiceClient(server.address, tenant="oob") as client:
        specs, frames = protocol.encode_args(arguments)
        protocol.send_message(
            client._sock,
            {"op": "launch", "v": protocol.PROTOCOL_VERSION, "tenant": "oob",
             "source": OUT_OF_BOUNDS, "entry": "launch", "engine": "compiled",
             "args": specs}, frames)
        response, _ = protocol.recv_message(client._sock)
        stats = client.stats()
    assert response["status"] == "error"
    assert response["error"] == "IndexError"
    assert response["retries"] == 0
    assert stats["errors"] == 1
    assert stats["retries"] == 0
    assert stats["streams"]["per_tenant"]["oob"] == {"launches": 1,
                                                     "dispatches": 1}
    assert not resilience.global_log().events(action="retry")


def test_transient_launch_fault_is_retried_once(server, monkeypatch):
    module = compile_cuda(SAXPY, cuda_lower=True, cache="shared")
    expected = _saxpy_args()
    executor = make_executor(module, engine="compiled")
    executor.run("launch", expected)

    monkeypatch.setenv("REPRO_FAULTS", "shim.launch:1")
    resilience.reset_faults()
    with ServiceClient(server.address, tenant="flaky") as client:
        result = client.launch(SAXPY, "launch", _saxpy_args(),
                               engine="compiled")
        stats = client.stats()
    assert result.retries == 1
    assert result.args[1].tobytes() == expected[1].tobytes()
    assert result.report_tuple == report_fields(executor.report)
    assert stats["errors"] == 0
    assert stats["retries"] == 1
    assert stats["streams"]["per_tenant"]["flaky"] == {"launches": 2,
                                                       "dispatches": 1}
    log = resilience.global_log()
    assert len(log.events(op="service.launch", action="retry")) == 1
    assert len(log.events(op="service.launch", action="recover")) == 1


def test_request_timeout_knob_is_gone(tmp_path):
    with pytest.raises(TypeError):
        KernelServer(socket_path=str(tmp_path / "knob.sock"),
                     request_timeout_s=1.0)


def test_handler_threads_are_forgotten_with_their_connections(server):
    for _ in range(50):
        with ServiceClient(server.address) as client:
            assert client.ping()
    deadline = time.monotonic() + 10
    while len(server._threads) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)  # the last handler may still be in its finally
    with server._lock:
        assert len(server._threads) <= len(server._connections) + 1

"""Chaos under load: injected faults stay confined to the tenant they hit.

Scenario 1 (engine-fault isolation): with ``REPRO_FAULTS=native.cc:*``
every native compile fails, so the tenant requesting ``engine="native"``
must be *degraded* down the fallback chain — and still answer with
bit-identical outputs — while concurrent tenants on healthy engines see
zero errors, zero degradations and unchanged results.

Scenario 2 (stream-fault recovery): with a bounded ``shim.launch:N``
fault the first N launch batches are killed before dispatch, poisoning
their streams; the server must drain + clear the poison and retry under
the retry policy, so every concurrent client still gets a correct
response (retries visible in the stats, errors still zero).

Both scenarios run many clients concurrently — the point is that recovery
happens *under load*, not on an idle server.
"""

import threading

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.runtime import make_executor, shutdown_worker_pools
from repro.runtime import resilience
from repro.runtime.cache import global_native_cache
from repro.service import KernelServer, ServiceClient
from tests.helpers import generate_fuzz_kernel, report_fields

HEALTHY_ENGINES = ("compiled", "vectorized")
REQUESTS_PER_CLIENT = 6
HEALTHY_CLIENTS = 4

#: the policy's backoff as shipped, before a fixture zeroes it.
SHIPPED_BACKOFF_S = resilience.DEFAULT_BACKOFF_S


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


@pytest.fixture(autouse=True)
def _fresh_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setattr(resilience, "DEFAULT_BACKOFF_S", 0.0)
    resilience.reset_faults()
    resilience.global_log().clear()
    yield
    resilience.reset_faults()


def _reference(kernel, engine):
    module = compile_cuda(kernel.source, cuda_lower=True,
                          options=kernel.options, cache="shared")
    arguments = kernel.make_args()
    executor = make_executor(module, engine=engine)
    executor.run(kernel.entry, arguments)
    return arguments[2].tobytes(), report_fields(executor.report)


def test_native_fault_degrades_only_the_faulted_tenant(tmp_path, monkeypatch):
    kernels = [generate_fuzz_kernel(seed) for seed in range(3)]
    # the native.cc fault only fires on a cold cc invocation: drop any
    # artifacts earlier tests compiled for these kernels, or the chaos
    # tenant would hit the warm .so and run genuinely native instead of
    # degrading (unlinking is safe for already-dlopened handles).
    global_native_cache().clear()
    healthy_refs = {(kernel.seed, engine): _reference(kernel, engine)
                    for kernel in kernels for engine in HEALTHY_ENGINES}
    # what the faulted tenant *should* still produce: outputs bit-identical
    # to any healthy engine (all engines agree), merely degraded.
    monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
    resilience.reset_faults()

    server = KernelServer(socket_path=str(tmp_path / "chaos.sock")).start()
    healthy_failures, chaos_failures, errors = [], [], []
    barrier = threading.Barrier(HEALTHY_CLIENTS + 1)

    def healthy_worker(index):
        try:
            with ServiceClient(server.address,
                               tenant=f"healthy-{index}") as client:
                barrier.wait(timeout=30)
                for step in range(REQUESTS_PER_CLIENT):
                    kernel = kernels[step % len(kernels)]
                    engine = HEALTHY_ENGINES[step % len(HEALTHY_ENGINES)]
                    result = client.launch(
                        kernel.source, kernel.entry, kernel.make_args(),
                        engine=engine, options=kernel.options)
                    expected_bytes, expected_report = healthy_refs[
                        (kernel.seed, engine)]
                    if (result.degraded or result.retries
                            or result.args[2].tobytes() != expected_bytes
                            or result.report_tuple != expected_report):
                        healthy_failures.append((index, step, engine))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(("healthy", index, repr(exc)))

    def chaos_worker():
        try:
            with ServiceClient(server.address, tenant="chaos") as client:
                barrier.wait(timeout=30)
                for step in range(REQUESTS_PER_CLIENT):
                    kernel = kernels[step % len(kernels)]
                    result = client.launch(
                        kernel.source, kernel.entry, kernel.make_args(),
                        engine="native", options=kernel.options)
                    expected_bytes, _ = healthy_refs[
                        (kernel.seed, HEALTHY_ENGINES[0])]
                    if (not result.degraded or result.engine == "native"
                            or result.args[2].tobytes() != expected_bytes):
                        chaos_failures.append((step, result.engine,
                                               result.degraded))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(("chaos", 0, repr(exc)))

    threads = [threading.Thread(target=healthy_worker, args=(index,))
               for index in range(HEALTHY_CLIENTS)]
    threads.append(threading.Thread(target=chaos_worker))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads), "wedged"
        with ServiceClient(server.address) as client:
            stats = client.stats()
    finally:
        server.stop()

    assert not errors, errors[:5]
    assert not healthy_failures, (
        f"healthy tenants were affected by the chaos tenant's faults: "
        f"{healthy_failures[:5]}")
    assert not chaos_failures, (
        f"faulted tenant did not degrade as expected: {chaos_failures[:5]}")
    assert stats["errors"] == 0
    assert stats["degraded"] == REQUESTS_PER_CLIENT  # only the chaos tenant
    assert stats["resilience"].get("inject", 0) >= REQUESTS_PER_CLIENT
    assert stats["resilience"].get("degrade", 0) >= 1
    per_tenant = stats["streams"]["per_tenant"]
    assert per_tenant["chaos"]["launches"] == REQUESTS_PER_CLIENT
    for index in range(HEALTHY_CLIENTS):
        assert per_tenant[f"healthy-{index}"]["launches"] == \
            REQUESTS_PER_CLIENT


def test_stream_fault_recovers_under_concurrent_load(tmp_path, monkeypatch):
    kernel = generate_fuzz_kernel(1)
    expected_bytes, expected_report = _reference(kernel, "compiled")
    clients = 4
    # the first few launch *batches* are killed before dispatch; the server
    # must clear each poisoned stream and retry the stranded requests.  The
    # backoff between a launch's attempts is what lets the other tenants'
    # batches reach the fault site before one handler spends all its retries.
    monkeypatch.setattr(resilience, "DEFAULT_BACKOFF_S", SHIPPED_BACKOFF_S)
    monkeypatch.setenv("REPRO_FAULTS", "shim.launch:3")
    resilience.reset_faults()

    server = KernelServer(socket_path=str(tmp_path / "poison.sock")).start()
    failures, errors = [], []
    barrier = threading.Barrier(clients)

    def worker(index):
        try:
            with ServiceClient(server.address,
                               tenant=f"tenant-{index}") as client:
                barrier.wait(timeout=30)
                for _ in range(REQUESTS_PER_CLIENT):
                    result = client.launch(
                        kernel.source, kernel.entry, kernel.make_args(),
                        engine="compiled", options=kernel.options)
                    if (result.args[2].tobytes() != expected_bytes
                            or result.report_tuple != expected_report):
                        failures.append(index)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((index, repr(exc)))

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(clients)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads), "wedged"
        with ServiceClient(server.address) as client:
            stats = client.stats()
    finally:
        server.stop()

    assert not errors, errors[:5]
    assert not failures
    assert stats["errors"] == 0
    assert stats["launches"] == clients * REQUESTS_PER_CLIENT
    assert stats["retries"] >= 1  # the killed batches were actually retried
    assert stats["resilience"].get("inject", 0) == 3
    assert stats["resilience"].get("recover", 0) >= 1


def test_unretryable_tenant_error_does_not_poison_neighbours(tmp_path,
                                                             monkeypatch):
    """A tenant whose *every* launch batch is killed (``shim.launch:*``)
    exhausts its retries and gets error responses — while tenants whose
    requests coalesce onto other streams keep succeeding, and the failed
    tenant's next request after the fault plan clears succeeds too (the
    stream was recovered, not wedged)."""
    kernel = generate_fuzz_kernel(2)
    expected_bytes, _ = _reference(kernel, "interp")
    monkeypatch.setattr(resilience, "DEFAULT_RETRIES", 1)
    monkeypatch.setenv("REPRO_FAULTS", "shim.launch:*")
    resilience.reset_faults()

    server = KernelServer(socket_path=str(tmp_path / "alway.sock")).start()
    try:
        with ServiceClient(server.address, tenant="doomed") as client:
            from repro.service import ServiceError

            with pytest.raises(ServiceError):
                client.launch(kernel.source, kernel.entry, kernel.make_args(),
                              engine="interp", options=kernel.options)
        # fault plan cleared: the same tenant's stream must be usable again.
        monkeypatch.delenv("REPRO_FAULTS")
        resilience.reset_faults()
        with ServiceClient(server.address, tenant="doomed") as client:
            result = client.launch(kernel.source, kernel.entry,
                                   kernel.make_args(), engine="interp",
                                   options=kernel.options)
            assert result.args[2].tobytes() == expected_bytes
        with ServiceClient(server.address) as client:
            stats = client.stats()
        assert stats["errors"] == 1
        assert stats["launches"] == 2
    finally:
        server.stop()

"""Multi-client differential soak: served == in-process, bit for bit.

N client threads hammer one daemon with fuzz-grammar kernels across mixed
engines, each client as its own tenant (own connection, own server-side
stream).  Every response — output buffers *and* CostReport fields — must
be bit-identical to running the same (kernel, engine, options) in-process,
no matter how requests interleave, coalesce into launch batches, or race
cold compiles in the shared caches.

Knobs:

* ``REPRO_SOAK_COUNT``  — kernels in the corpus (default 12; CI smoke
  uses a reduced count),
* ``REPRO_SOAK_CLIENTS`` — concurrent client threads (default 8),
* ``REPRO_SOAK_SEED``   — base fuzz seed (default 0),
* ``REPRO_SERVICE_SOCKET`` — connect to an externally started daemon at
  this path instead of spawning one in-process (the CI ``service-smoke``
  job starts ``python -m repro serve`` and points the soak at it).
"""

import os
import threading

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.runtime import make_executor, shutdown_worker_pools
from repro.service import KernelServer, ServiceClient
from tests.helpers import generate_fuzz_kernel, report_fields

SOAK_COUNT = max(1, int(os.environ.get("REPRO_SOAK_COUNT", "12")))
SOAK_CLIENTS = max(2, int(os.environ.get("REPRO_SOAK_CLIENTS", "8")))
SOAK_SEED = int(os.environ.get("REPRO_SOAK_SEED", "0"))
EXTERNAL_SOCKET = os.environ.get("REPRO_SERVICE_SOCKET", "").strip()

#: engines mixed across requests; every (kernel, engine) pair is compared
#: against its own in-process reference.
ENGINES = ("compiled", "vectorized", "interp")


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


def _references(kernels):
    """In-process reference (output bytes, report tuple) per
    (seed, engine)."""
    references = {}
    for kernel in kernels:
        module = compile_cuda(kernel.source, cuda_lower=True,
                              options=kernel.options, cache="shared")
        for engine in ENGINES:
            arguments = kernel.make_args()
            executor = make_executor(module, engine=engine)
            executor.run(kernel.entry, arguments)
            references[(kernel.seed, engine)] = (
                arguments[2].tobytes(), report_fields(executor.report))
    return references


def test_concurrent_soak_bit_identical(tmp_path):
    kernels = [generate_fuzz_kernel(seed)
               for seed in range(SOAK_SEED, SOAK_SEED + SOAK_COUNT)]
    references = _references(kernels)

    server = None
    if EXTERNAL_SOCKET:
        address = EXTERNAL_SOCKET
    else:
        server = KernelServer(
            socket_path=str(tmp_path / "soak.sock")).start()
        address = server.address
    mismatches = []
    errors = []
    barrier = threading.Barrier(SOAK_CLIENTS)

    def client_worker(client_index):
        try:
            with ServiceClient(address,
                               tenant=f"soak-{client_index}") as client:
                barrier.wait(timeout=30)
                # each client walks the corpus from its own offset, so at
                # any instant different clients hit different kernels (and
                # the same kernel back-to-back coalesces per tenant).
                for step in range(len(kernels) * len(ENGINES)):
                    kernel = kernels[(client_index + step) % len(kernels)]
                    engine = ENGINES[step % len(ENGINES)]
                    result = client.launch(
                        kernel.source, kernel.entry, kernel.make_args(),
                        engine=engine, workers=2, options=kernel.options)
                    expected_bytes, expected_report = references[
                        (kernel.seed, engine)]
                    if (result.args[2].tobytes() != expected_bytes
                            or result.report_tuple != expected_report):
                        mismatches.append(
                            (client_index, kernel.description, engine))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((client_index, repr(exc)))

    threads = [threading.Thread(target=client_worker, args=(index,))
               for index in range(SOAK_CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not any(thread.is_alive() for thread in threads), \
            "soak clients wedged"
    finally:
        if server is not None:
            stats = server.stats()
            server.stop()

    assert not errors, errors[:5]
    assert not mismatches, (
        f"{len(mismatches)} served responses diverged from the in-process "
        f"reference; first: {mismatches[0]}")
    if server is not None:
        # every request was served (none failed, none was shed), and racing
        # cold compiles converged on one handle per (kernel, engine)
        assert stats["errors"] == 0, stats
        assert stats["admission"]["rejected"] == 0, stats["admission"]
        assert stats["launches"] == SOAK_CLIENTS * SOAK_COUNT * len(ENGINES)
        assert stats["kernels"] == SOAK_COUNT * len(ENGINES)

"""MocCUDA runtime shim: CUDART/cuDNN interception and transpiled kernels.

The real MocCUDA is an ``LD_PRELOAD`` library that intercepts PyTorch's CUDA
calls (§V-B): CUDART queries answer from a dumped GeForce RTX 2080 Ti device
descriptor, streams map onto a Grand-Central-Dispatch-style task queue, cuDNN
convolutions dispatch to the HBM-friendly OpenMP kernels, cuBLAS goes to the
CPU BLAS, and PyTorch's *custom* CUDA kernels (NLL loss — which uses
``__syncthreads`` — softmax, element-wise ops) are transpiled by Polygeist.

This module reproduces that structure: an interception table, an emulated
device, *asynchronous* stream queues, and the NLL-loss CUDA kernel compiled
through :func:`repro.frontend.compile_cuda` and executed on the simulated
CPU.

Streams are truly asynchronous (GCD-style): each :class:`Stream` owns a
single worker thread, so enqueued tasks and kernel launches run in FIFO
order *concurrently with the host thread* and with other streams.
:class:`CudaEvent` objects (``record`` / ``query`` / ``synchronize`` plus
``Stream.wait_event``) provide cross-stream ordering, exactly like
``cudaEventRecord`` / ``cudaStreamWaitEvent``.  Back-to-back launches of the
same compiled kernel on one stream are *coalesced*: while a dispatch is
still queued, further launches of the same :class:`CompiledKernel` append
to it and the whole batch executes as one executor dispatch.

Kernels compile once per session through the content-addressed kernel cache
(:mod:`repro.runtime.cache`, shared mode), so the warm launch path is a
cache lookup + dispatch rather than parse + pass pipeline + engine
construction.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..frontend import compile_cuda
from ..runtime import A64FX_CMG, MachineModel, make_executor, resolve_engine
from ..runtime import resilience
from ..runtime.errors import StreamPoisonedError
from ..transforms import PipelineOptions

#: ceiling on any single blocking wait inside the shim; a cross-stream
#: dependency cycle then raises instead of deadlocking the test suite.
DEFAULT_WAIT_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# Emulated device (the "dumped" GPU properties MocCUDA replays)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceProperties:
    """The subset of cudaDeviceProp PyTorch inspects."""

    name: str = "NVIDIA GeForce RTX 2080 Ti (MocCUDA emulation)"
    total_global_mem: int = 11 * 1024 ** 3
    multi_processor_count: int = 68
    warp_size: int = 32
    max_threads_per_block: int = 1024
    compute_capability: tuple = (7, 5)


# ---------------------------------------------------------------------------
# Events (cudaEvent_t analogue)
# ---------------------------------------------------------------------------
class CudaEvent:
    """A CUDA event: a completion marker recorded into a stream.

    Mirrors CUDART semantics: an event that has never been recorded counts
    as complete; ``record`` resets it until the recording stream's queue
    reaches the marker.  ``query`` never blocks; ``synchronize`` blocks the
    host; ``Stream.wait_event`` blocks a *stream* (not the host) until the
    event fires, giving cross-stream ordering.
    """

    def __init__(self, event_id: int = 0) -> None:
        self.event_id = event_id
        self._fired = threading.Event()
        self._fired.set()  # never recorded == complete (CUDART behavior)
        self._lock = threading.Lock()
        self._generation = 0

    def _reset(self) -> int:
        """Start a new recording; only the marker of the *latest* record may
        fire the event (CUDART: re-recording supersedes the old record)."""
        with self._lock:
            self._generation += 1
            self._fired.clear()
            return self._generation

    def _fire(self, generation: Optional[int] = None) -> None:
        with self._lock:
            if generation is not None and generation != self._generation:
                return  # a stale marker from a superseded record
            self._fired.set()

    def query(self) -> bool:
        """True when every task enqueued before the last ``record`` ran."""
        return self._fired.is_set()

    def synchronize(self, timeout: Optional[float] = DEFAULT_WAIT_TIMEOUT) -> None:
        """Block the host until the event fires."""
        if not self._fired.wait(timeout):
            raise RuntimeError(
                f"timed out after {timeout}s waiting for event {self.event_id}")

    def record(self, stream: "Stream") -> "CudaEvent":
        """Record this event into ``stream`` (convenience mirror of
        :meth:`Stream.record_event`)."""
        stream.record_event(self)
        return self


# ---------------------------------------------------------------------------
# Streams (GCD-style task queues with a real worker thread)
# ---------------------------------------------------------------------------
class _LaunchBatch:
    """A pending dispatch: one kernel, one or more coalesced launches."""

    __slots__ = ("kernel", "arg_lists", "started")

    def __init__(self, kernel: "CompiledKernel", args: Sequence) -> None:
        self.kernel = kernel
        self.arg_lists: List[Sequence] = [args]
        self.started = False


class Stream:
    """A CUDA stream emulated as an in-order asynchronous task queue.

    The stream is backed by a dedicated worker thread: tasks start
    executing as soon as they are enqueued, in FIFO order, overlapping with
    the host and with other streams — ``synchronize`` only *waits*.

    ``synchronize`` returns the number of queue tasks completed since the
    previous synchronize (a coalesced launch batch counts as a single
    task); per-kind counters live in :attr:`stats`.

    **Poisoned-stream semantics**: when a queued *kernel launch batch*
    fails, the stream is *poisoned* — the failure fails the whole
    coalesced window with the original worker-thread traceback, and every
    later ``launch``/``enqueue`` raises :class:`StreamPoisonedError`
    chained (``from``) to the original failure — until ``synchronize()``
    re-raises the original error and clears the poison, exactly like a
    sticky CUDA error cleared at the next ``cudaStreamSynchronize``.
    Plain host tasks keep the legacy contract (their error surfaces at the
    next synchronize without rejecting queued work in between).
    """

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending: List[Future] = []
        self._completed_since_sync = 0
        self._tail_batch: Optional[_LaunchBatch] = None
        self._poisoned: Optional[BaseException] = None
        self.stats: Dict[str, int] = {
            "tasks": 0, "launches": 0, "dispatches": 0, "coalesced": 0}

    @property
    def poisoned(self) -> Optional[BaseException]:
        """The failure currently poisoning the stream (``None`` = healthy)."""
        with self._lock:
            return self._poisoned

    def _check_poisoned(self) -> None:
        with self._lock:
            poison = self._poisoned
        if poison is not None:
            raise StreamPoisonedError(
                f"stream {self.stream_id} is poisoned by an earlier "
                f"asynchronous failure ({type(poison).__name__}); call "
                f"synchronize() to surface and clear it") from poison

    # -- submission machinery ---------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"moccuda-stream{self.stream_id}")
        return self._executor

    def _poison(self, error: BaseException) -> None:
        """Mark the stream poisoned by ``error`` (first failure wins)."""
        with self._lock:
            fresh = self._poisoned is None
            if fresh:
                self._poisoned = error
        if fresh:
            resilience.record_event(
                "shim.launch", "degrade", type(error).__name__,
                f"stream {self.stream_id} poisoned: {error}")

    def _submit(self, work: Callable[[], None]) -> None:
        """Queue one unit of work, counted once on completion."""
        def run() -> None:
            try:
                work()
            finally:
                with self._lock:
                    self._completed_since_sync += 1

        with self._lock:
            executor = self._ensure_executor()
            self._pending.append(executor.submit(run))

    # -- public queue API --------------------------------------------------------
    def enqueue(self, task: Callable[[], None]) -> None:
        """Enqueue an arbitrary host task (runs on the stream, FIFO)."""
        self._check_poisoned()
        with self._lock:
            self._tail_batch = None  # an interleaved task ends the coalescing window
            self.stats["tasks"] += 1
        self._submit(task)

    def launch(self, kernel: "CompiledKernel", args: Sequence) -> None:
        """Enqueue a kernel launch, coalescing with a still-queued dispatch
        of the same kernel."""
        self._check_poisoned()
        with self._lock:
            self.stats["launches"] += 1
            tail = self._tail_batch
            if tail is not None and tail.kernel is kernel and not tail.started:
                tail.arg_lists.append(args)
                self.stats["coalesced"] += 1
                return
            batch = _LaunchBatch(kernel, args)
            self._tail_batch = batch
            self.stats["dispatches"] += 1

        def run_batch() -> None:
            with self._lock:
                batch.started = True
                if self._tail_batch is batch:
                    self._tail_batch = None
                arg_lists = list(batch.arg_lists)
            # an injected (or real) failure here fails the whole coalesced
            # window before any launch of it runs, poisoning the stream:
            # later launch/enqueue calls are rejected until the next
            # synchronize() surfaces the original traceback and clears it.
            try:
                resilience.inject("shim.launch")
                kernel._dispatch(arg_lists)
            except BaseException as error:  # noqa: BLE001 - poisons the stream
                self._poison(error)
                raise

        self._submit(run_batch)

    def record_event(self, event: CudaEvent) -> CudaEvent:
        """Record ``event``: it fires when the queue reaches this point."""
        generation = event._reset()
        with self._lock:
            self._tail_batch = None
            self.stats["tasks"] += 1
        self._submit(lambda: event._fire(generation))
        return event

    def wait_event(self, event: CudaEvent,
                   timeout: Optional[float] = DEFAULT_WAIT_TIMEOUT) -> None:
        """Make all *subsequent* work on this stream wait for ``event``
        (blocks the stream's worker, never the host)."""
        with self._lock:
            self._tail_batch = None
            self.stats["tasks"] += 1

        def wait() -> None:
            if not event._fired.wait(timeout):
                raise RuntimeError(
                    f"stream {self.stream_id} timed out after {timeout}s "
                    f"waiting for event {event.event_id}")

        self._submit(wait)

    def synchronize(self) -> int:
        """Wait until the queue is empty; returns tasks completed since the
        last synchronize.  The first exception raised by queued work
        re-raises here (like ``cudaStreamSynchronize`` surfacing async
        launch errors) — but only after the whole queue has drained, so a
        caught error leaves the stream idle, not still executing."""
        first_error: Optional[BaseException] = None
        while True:
            with self._lock:
                pending, self._pending = self._pending, []
            if not pending:
                break
            for future in pending:
                try:
                    # no timeout: sync means *wait* — long kernels and
                    # coalesced batches are legitimate.  Deadlock guards
                    # live inside event waits, which time out on the
                    # worker and surface here as task errors.
                    future.result()
                except BaseException as error:  # noqa: BLE001
                    if first_error is None:
                        first_error = error
        with self._lock:
            executed = self._completed_since_sync
            self._completed_since_sync = 0
            poison, self._poisoned = self._poisoned, None
        if poison is not None:
            resilience.record_event(
                "shim.launch", "recover", type(poison).__name__,
                f"stream {self.stream_id} poison cleared at synchronize")
            if first_error is None:
                first_error = poison
        if first_error is not None:
            # the original task exception, worker-thread traceback intact.
            raise first_error
        return executed

    def close(self) -> None:
        """Drain the queue and release the worker thread."""
        self.synchronize()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


# ---------------------------------------------------------------------------
# Compiled kernel handles
# ---------------------------------------------------------------------------
class CompiledKernel:
    """A kernel compiled once (through the kernel cache) and replayed.

    Holds the canonical *shared* cached module, so repeated dispatches reuse
    the per-module compiled-program caches of the execution engines; the
    module is never mutated.  A batch of coalesced launches runs through one
    executor, back to back.
    """

    def __init__(self, source: str, entry: str, *,
                 filename: str = "<moccuda-kernel>",
                 options: Optional[PipelineOptions] = None,
                 engine: Optional[str] = None,
                 machine: MachineModel = A64FX_CMG,
                 workers: Optional[int] = None) -> None:
        self.entry = entry
        self.engine = engine
        self.machine = machine
        self.workers = workers
        self.module = compile_cuda(source, filename=filename, cuda_lower=True,
                                   options=options or PipelineOptions.all_optimizations(),
                                   cache="shared")

    def _dispatch(self, arg_lists: Sequence[Sequence]) -> None:
        """Run one coalesced batch of launches through a single executor."""
        executor = make_executor(self.module, engine=self.engine,
                                 machine=self.machine, workers=self.workers)
        for args in arg_lists:
            executor.run(self.entry, args)


# ---------------------------------------------------------------------------
# The transpiled NLL-loss kernel (ClassNLLCriterion_updateOutput analogue)
# ---------------------------------------------------------------------------
NLL_LOSS_CUDA = """
__global__ void nll_loss_kernel(float* log_probs, int* targets, float* losses,
                                float* total, int batch, int classes) {
    __shared__ float partial[32];
    int tid = threadIdx.x;
    if (tid < batch) {
        int target = targets[tid];
        losses[tid] = 0.0f - log_probs[tid * classes + target];
        partial[tid] = losses[tid];
    } else {
        partial[tid] = 0.0f;
    }
    __syncthreads();
    for (int s = 16; s > 0; s = s / 2) {
        if (tid < s) {
            partial[tid] += partial[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        total[0] = partial[0] / (1.0f * batch);
    }
}

void nll_loss(float* log_probs, int* targets, float* losses, float* total,
              int batch, int classes) {
    nll_loss_kernel<<<1, 32>>>(log_probs, targets, losses, total, batch, classes);
}
"""


class MocCUDASession:
    """The interception layer: call registry + device + streams + kernels.

    ``engine`` selects the execution engine for transpiled kernels (any
    name in :func:`repro.runtime.engine_names`, including ``"auto"`` for
    per-kernel autotuned dispatch; ``None`` = process default) and
    ``workers`` sizes the multicore engine's pool when that engine is
    selected (and pins the autotuner's worker-count search; ignored by the
    other engines) — on the multicore engine the transpiled NLL-loss
    launch is sharded across real CPU cores, and on the native engine it
    runs as compiled OpenMP C, which is the closest this reproduction gets
    to MocCUDA's actual many-core A64FX execution.  ``machine`` defaults to
    ``A64FX_CMG``; every engine is exact under it (its access costs are
    charged on the cost model's 2^-8-cycle grid), and the native ``.so`` of
    a kernel is the one any other machine model uses.
    """

    def __init__(self, options: Optional[PipelineOptions] = None,
                 engine: Optional[str] = None,
                 workers: Optional[int] = None,
                 machine: MachineModel = A64FX_CMG) -> None:
        self.device = DeviceProperties()
        self.streams: Dict[int, Stream] = {0: Stream(0)}
        self.events: List[CudaEvent] = []
        self.call_log: List[str] = []
        self.options = options or PipelineOptions.all_optimizations()
        if engine is not None:
            resolve_engine(engine)  # fail fast on a bad engine name
        self.engine = engine
        self.workers = workers
        self.machine = machine
        self._kernels: Dict[tuple, CompiledKernel] = {}

    # -- CUDART surface -------------------------------------------------------
    def cuda_get_device_properties(self) -> DeviceProperties:
        self.call_log.append("cudaGetDeviceProperties")
        return self.device

    def cuda_stream_create(self) -> Stream:
        stream = Stream(len(self.streams))
        self.streams[stream.stream_id] = stream
        self.call_log.append("cudaStreamCreate")
        return stream

    def cuda_stream_synchronize(self, stream_id: int = 0) -> int:
        self.call_log.append("cudaStreamSynchronize")
        return self.streams[stream_id].synchronize()

    def cuda_device_synchronize(self) -> int:
        """Synchronize every stream; returns total tasks drained."""
        self.call_log.append("cudaDeviceSynchronize")
        return sum(stream.synchronize() for stream in self.streams.values())

    def cuda_event_create(self) -> CudaEvent:
        event = CudaEvent(len(self.events))
        self.events.append(event)
        self.call_log.append("cudaEventCreate")
        return event

    def cuda_event_record(self, event: CudaEvent, stream_id: int = 0) -> CudaEvent:
        self.call_log.append("cudaEventRecord")
        return self.streams[stream_id].record_event(event)

    def cuda_event_query(self, event: CudaEvent) -> bool:
        self.call_log.append("cudaEventQuery")
        return event.query()

    def cuda_event_synchronize(self, event: CudaEvent) -> None:
        self.call_log.append("cudaEventSynchronize")
        event.synchronize()

    def cuda_stream_wait_event(self, stream_id: int, event: CudaEvent) -> None:
        self.call_log.append("cudaStreamWaitEvent")
        self.streams[stream_id].wait_event(event)

    def cuda_malloc(self, num_bytes: int) -> np.ndarray:
        self.call_log.append("cudaMalloc")
        return np.zeros(num_bytes // 4, dtype=np.float32)

    def cuda_memcpy(self, destination: np.ndarray, source: np.ndarray) -> None:
        self.call_log.append("cudaMemcpy")
        np.copyto(destination.reshape(-1), np.asarray(source, dtype=destination.dtype).reshape(-1))

    # -- cuBLAS → CPU BLAS -------------------------------------------------------
    def cublas_sgemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Intercepted cuBLAS GEMM dispatched to the CPU BLAS (numpy/SSL2 stand-in)."""
        self.call_log.append("cublasSgemm")
        return a @ b

    # -- transpiled custom kernels --------------------------------------------------
    def compile_kernel(self, source: str, entry: str, *,
                       filename: str = "<moccuda-kernel>") -> CompiledKernel:
        """Compile (or fetch from the kernel cache) a custom CUDA kernel.

        Handles are memoized per session by (source, entry) — two kernels
        sharing an entry-point name stay distinct — and the underlying
        module is content-addressed process-wide, so repeated sessions pay
        the pass pipeline once.
        """
        memo_key = (entry, source)
        handle = self._kernels.get(memo_key)
        if handle is None:
            handle = CompiledKernel(source, entry, filename=filename,
                                    options=self.options, engine=self.engine,
                                    machine=self.machine, workers=self.workers)
            self._kernels[memo_key] = handle
        return handle

    def launch_kernel(self, kernel: CompiledKernel, args: Sequence, *,
                      stream_id: int = 0) -> None:
        """Asynchronously launch a compiled kernel on a stream (coalesces
        with a still-queued launch of the same kernel)."""
        self.call_log.append("cudaLaunchKernel")
        self.streams[stream_id].launch(kernel, args)

    def _nll_loss_kernel(self) -> CompiledKernel:
        return self.compile_kernel(NLL_LOSS_CUDA, "nll_loss",
                                   filename="nll_loss.cu")

    def nll_loss(self, log_probs: np.ndarray, targets: np.ndarray) -> float:
        """Run the Polygeist-transpiled ClassNLLCriterion kernel on the CPU.

        The launch goes through the default stream's asynchronous queue and
        is synchronized before the scalar loss is read back — the same
        launch / sync shape PyTorch produces through CUDART.
        """
        self.call_log.append("ClassNLLCriterion_updateOutput")
        batch, classes = log_probs.shape
        if batch > 32:
            raise ValueError("the transpiled kernel handles one warp (<=32 samples) per launch")
        losses = np.zeros(32, dtype=np.float32)
        total = np.zeros(1, dtype=np.float32)
        self.launch_kernel(self._nll_loss_kernel(),
                           [np.ascontiguousarray(log_probs.reshape(-1)),
                            targets.astype(np.int64), losses, total, batch, classes])
        self.cuda_stream_synchronize(0)
        return float(total[0])

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Drain and release every stream's worker thread."""
        for stream in self.streams.values():
            stream.close()

    def __enter__(self) -> "MocCUDASession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

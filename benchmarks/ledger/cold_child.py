"""A fresh process that takes corpus kernels from source text to a result.

``cold_start`` runs this once per round and tier (the tier is decided by the
parent through the environment: an empty or a populated cache directory), as
a fork of one ``--serve`` process; the build step runs it one-shot.  It
prints one JSON object:
per kernel the seconds from source text to the first finished run, the
seconds of a second (warm) run, digests of the outputs and the CostReport for
the parent to verify, and — with ``--trace 1`` — the stage spans.

Timing starts just after ``import repro``; the import itself is reported as
``import_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

_T0 = time.perf_counter()

from hygiene import bootstrap, die_with_parent  # noqa: E402

bootstrap()

import repro  # noqa: E402,F401
from repro.frontend import compile_cuda, generate_module, parse  # noqa: E402
from repro.ir import verify  # noqa: E402
from repro.runtime import global_cache, kernel_key, make_executor  # noqa: E402
from repro.service.protocol import encode_report, report_tuple  # noqa: E402
from repro.transforms import PipelineOptions, cpuify  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import corpus  # noqa: E402


def digest(arguments, indices):
    return [hashlib.sha256(arguments[i].tobytes()).hexdigest() for i in indices]


def compile_traced(kernel, spans):
    """``compile_cuda``'s steps, one span each, from the same public functions."""
    def timed(name, layer, call):
        began = time.perf_counter()
        result = call()
        spans.append({"name": name, "layer": layer, "start": began,
                      "end": time.perf_counter()})
        return result

    options = PipelineOptions.all_optimizations()
    key = kernel_key(kernel.cuda_source, cuda_lower=True, options=options)
    module = timed("cache.lookup", "runtime.cache", lambda: global_cache().lookup(key))
    if module is None:
        program = timed("parse", "frontend", lambda: parse(kernel.cuda_source, kernel.name))
        module = timed("generate_module", "frontend", lambda: generate_module(program))
        timed("verify", "frontend", lambda: verify(module))
        timed("cpuify", "transforms", lambda: cpuify(module, options))
        timed("cache.insert", "runtime.cache", lambda: global_cache().insert(key, module))
    module._content_key = key
    return module


def cold_run(kernel, engine, seed, trace):
    arguments = corpus.make_inputs(kernel.name, 1, seed)
    warm_arguments = corpus.copy_args(arguments)
    spans = []
    began = time.perf_counter()
    if trace:
        module = compile_traced(kernel, spans)
    else:
        module = compile_cuda(kernel.cuda_source, filename=kernel.name, cuda_lower=True)
    planned = time.perf_counter()
    executor = make_executor(module, engine=engine)
    built = time.perf_counter()
    executor.run(kernel.entry, arguments)
    finished = time.perf_counter()
    report = list(report_tuple(encode_report(executor.report)))  # accumulates over runs
    executor.run(kernel.entry, warm_arguments)
    warm_finished = time.perf_counter()
    if trace:
        layer = f"runtime.{engine}"
        spans += [{"name": "make_executor", "layer": layer, "start": planned, "end": built},
                  {"name": "first_run", "layer": layer, "start": built, "end": finished}]
        for span in spans:
            span["start"] -= began
            span["end"] -= began
    return {"total_s": finished - began, "compile_s": planned - began,
            "first_run_s": finished - built, "second_run_s": warm_finished - finished,
            "engine_used": getattr(executor, "engine_name", engine),
            "native_stats": getattr(executor, "native_stats", None),
            "outputs": digest(arguments, kernel.outputs),
            "report": report,
            "spans": spans}


def steady_run(kernel, engine, seed, rounds):
    """Warm runs at the kernel's steady scale (the one-thread probe)."""
    module = compile_cuda(kernel.cuda_source, filename=kernel.name, cuda_lower=True,
                          cache="shared")
    executor = make_executor(module, engine=engine)
    arguments = corpus.make_inputs(kernel.name, kernel.steady_scale, seed)
    samples = []
    for _ in range(rounds + 1):
        fresh = corpus.copy_args(arguments)
        began = time.perf_counter()
        executor.run(kernel.entry, fresh)
        samples.append(time.perf_counter() - began)
    return {"median_s": statistics.median(samples[1:]), "fastest_s": min(samples[1:]),
            "outputs": digest(fresh, kernel.outputs)}


def run(engine: str, names, seed: int, trace: bool, steady_rounds: int) -> dict:
    probe_s = 0.0
    if engine == "native":
        from repro.runtime import native_available

        began = time.perf_counter()
        native_available()
        probe_s = time.perf_counter() - began

    results = {}
    for name in names:
        kernel = corpus.KERNELS[name]
        if steady_rounds:
            results[name] = steady_run(kernel, engine, seed, steady_rounds)
        else:
            results[name] = cold_run(kernel, engine, seed, trace)
    return {"import_s": _IMPORT_S, "probe_s": probe_s, "kernels": results}


def serve() -> int:
    """Answer one request per line of stdin, each in a process forked at this
    point: ``repro`` imported, nothing else run — the state a fresh process is
    in when its timing starts — without paying the import again.  A request is
    ``{"env": {...}, "engine", "kernels", "seed", "trace", "steady_rounds"}``;
    the answer is the one-shot mode's JSON document on one line.  An empty
    line ends the service.  Neither this process nor a fork outlives its
    parent."""
    die_with_parent()
    for line in sys.stdin:
        if not line.strip():
            break  # an empty line ends the service: workers the parent forked
            # later hold the pipe open, so end-of-file may never come.
        request = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                die_with_parent()
                os.close(read_fd)
                sys.stdout = sys.stderr  # this process' stdout carries the answers
                os.environ.update(request["env"])
                document = run(request["engine"], request["kernels"], request["seed"],
                               request["trace"], request["steady_rounds"])
                with os.fdopen(write_fd, "w") as sink:
                    json.dump(document, sink)
                status = 0
            finally:
                os._exit(status)  # never fall back into the parent's loop
        os.close(write_fd)
        with os.fdopen(read_fd) as source:
            answer = source.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not answer:
            answer = json.dumps({"error": f"forked child ended with wait status {status}"})
        print(answer, flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", action="store_true",
                        help="fork one child per JSON request line on stdin")
    parser.add_argument("--engine")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()
    if args.serve:
        return serve()
    # one shot, the whole corpus: the build step.
    json.dump(run(args.engine, list(corpus.KERNELS), args.seed, False, 0), sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

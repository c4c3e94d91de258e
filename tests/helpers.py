"""Shared helpers: test IR fragments, engine-parity assertions and the
seeded random CUDA-kernel generator used by the differential fuzz suite."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir import Builder, F32, FunctionType, INDEX, MemorySpace, Type, memref
from repro.dialects import arith, func, memref as memref_d, polygeist, scf
from repro.transforms import PipelineOptions


def build_function(name: str, arg_types: Sequence[Type], arg_names: Sequence[str] = (),
                   noalias: bool = True) -> Tuple[func.ModuleOp, func.FuncOp, Builder]:
    """Create a module with one empty function and a builder at its end."""
    module = func.ModuleOp()
    fn = func.FuncOp(name, FunctionType(tuple(arg_types), ()), arg_names=list(arg_names))
    fn.set_attr("arg_noalias", noalias)
    module.add_function(fn)
    return module, fn, Builder.at_end(fn.body_block)


def finish_function(builder: Builder) -> None:
    builder.insert(func.ReturnOp())


def const_index(builder: Builder, value: int):
    return builder.insert(arith.ConstantOp(value, INDEX)).result


def build_parallel(builder: Builder, extent: int, level: str = scf.ParallelOp.LEVEL_BLOCK,
                   num_dims: int = 1) -> Tuple[scf.ParallelOp, Builder]:
    """Insert a 1D (or nD) ``scf.parallel`` from 0 to ``extent`` step 1."""
    zero = const_index(builder, 0)
    upper = const_index(builder, extent)
    one = const_index(builder, 1)
    loop = builder.insert(scf.ParallelOp([zero] * num_dims, [upper] * num_dims,
                                         [one] * num_dims, parallel_level=level))
    inner = Builder.at_end(loop.body)
    return loop, inner


def close_parallel(inner_builder: Builder) -> None:
    inner_builder.insert(scf.YieldOp())


def alloc_global(builder: Builder, shape, element_type=F32):
    return builder.insert(memref_d.AllocOp(memref(shape, element_type))).result


def alloc_shared(builder: Builder, shape, element_type=F32):
    return builder.insert(
        memref_d.AllocaOp(memref(shape, element_type, MemorySpace.SHARED))).result


def insert_barrier(builder: Builder, thread_ivs) -> polygeist.PolygeistBarrierOp:
    return builder.insert(polygeist.PolygeistBarrierOp(list(thread_ivs)))


# ---------------------------------------------------------------------------
# Cross-engine parity assertions (shared by parity, fuzz and cache tests)
# ---------------------------------------------------------------------------
def report_fields(report) -> Tuple:
    """The CostReport fields pinned bit-for-bit across engines."""
    return (report.cycles, report.dynamic_ops, report.parallel_regions,
            report.nested_regions, report.workshared_loops, report.barriers,
            report.simt_phases, report.global_bytes)


def run_engine_matrix(module, entry: str, make_args: Callable[[], List],
                      output_indices: Sequence[int], *,
                      engines: Sequence[str] = ("interp", "compiled",
                                                "vectorized", "multicore",
                                                "native"),
                      machine=None, threads: Optional[int] = None,
                      workers: Optional[int] = None,
                      label: str = "") -> None:
    """Run ``module`` through every engine; assert bit-identical outputs and
    CostReports against the first engine in the list (the oracle)."""
    from repro.runtime import XEON_8375C, make_executor

    machine = machine or XEON_8375C
    oracle_name = engines[0]
    oracle_args = make_args()
    oracle = make_executor(module, engine=oracle_name, machine=machine,
                           threads=threads, workers=workers)
    oracle.run(entry, oracle_args)
    for engine_name in engines[1:]:
        engine_args = make_args()
        engine = make_executor(module, engine=engine_name, machine=machine,
                               threads=threads, workers=workers)
        engine.run(entry, engine_args)
        for index in output_indices:
            np.testing.assert_array_equal(
                np.asarray(oracle_args[index]), np.asarray(engine_args[index]),
                err_msg=(f"{label}: output {index} diverged between "
                         f"{oracle_name} and {engine_name}"))
        assert report_fields(oracle.report) == report_fields(engine.report), (
            f"{label}: cost reports diverged between {oracle_name} and "
            f"{engine_name}:\n  {oracle_name} {report_fields(oracle.report)}"
            f"\n  {engine_name} {report_fields(engine.report)}")


def run_unlowered(module, entry: str, make_args: Callable[[], List], *,
                  machine=None, threads: Optional[int] = None,
                  label: str = "") -> None:
    """The engine matrix of an un-lowered module: one interpreter run, plus
    the check that every compiled row hands each region of ``entry`` to the
    interpreter (``tier == "interp"``) — the rows then run the same code,
    so comparing them would compare the interpreter with itself."""
    from repro.runtime import Interpreter, XEON_8375C
    from repro.runtime.compiler import _ROWS, program_for

    machine = machine or XEON_8375C
    for row in _ROWS:
        program = program_for(module, machine, row)
        program.function(module.lookup(entry))
        tiers = [region.tier for region in program.regions]
        assert tiers and set(tiers) == {"interp"}, f"{label}: {row} ran {tiers}"
    Interpreter(module, machine=machine, threads=threads).run(entry, make_args())


# ---------------------------------------------------------------------------
# Seeded random CUDA-kernel generator (the differential fuzzer's front half)
# ---------------------------------------------------------------------------
#: pipeline configurations the fuzzer samples, by name (the name goes into
#: the kernel's description so failures reproduce from the seed alone).
FUZZ_PIPELINES = {
    "all": PipelineOptions.all_optimizations(),
    "innerpar": PipelineOptions.all_optimizations(inner_serialize=False),
    "disabled": PipelineOptions.opt_disabled(),
    "mincut+openmpopt": PipelineOptions.from_flags("mincut,openmpopt"),
}


def pipeline_corpus(fuzz_seeds: int = 60):
    """(label, CUDA source) of every Rodinia benchmark and the first
    ``fuzz_seeds`` fuzz kernels: the modules the per-pass tests walk."""
    from repro.rodinia import BENCHMARKS

    for name in sorted(BENCHMARKS):
        yield name, BENCHMARKS[name].cuda_source
    for seed in range(fuzz_seeds):
        yield f"fuzz/{seed}", generate_fuzz_kernel(seed).source


@dataclass
class FuzzKernel:
    """One generated CUDA kernel plus everything needed to execute it."""

    seed: int
    source: str
    entry: str
    total_threads: int
    n: int
    block_size: int
    dims: int
    has_barrier: bool
    guarded: bool
    pipeline: str
    has_while: bool = False
    barrier_loop: bool = False
    description: str = field(default="")

    def make_args(self) -> List:
        rng = np.random.default_rng(self.seed)
        size = self.total_threads
        a = (rng.random(size, dtype=np.float64).astype(np.float32) + 0.1)
        b = (rng.random(size, dtype=np.float64).astype(np.float32) + 0.1)
        out = np.zeros(size, dtype=np.float32)
        return [a, b, out, self.n]

    @property
    def options(self) -> PipelineOptions:
        return FUZZ_PIPELINES[self.pipeline]

    def compile(self, cuda_lower: bool = True):
        from repro.frontend import compile_cuda

        return compile_cuda(self.source, filename=f"fuzz_{self.seed}.cu",
                            cuda_lower=cuda_lower,
                            options=self.options if cuda_lower else None)


class _KernelGrammar:
    """Grammar over arith exprs / memref accesses / for / if / barriers."""

    def __init__(self, rng: random.Random, n_name: str = "n") -> None:
        self.rng = rng
        self.n_name = n_name

    def index(self, extra: Sequence[str] = ()) -> str:
        """A random in-bounds flat index expression (memref access)."""
        roll = self.rng.random()
        if extra and roll < 0.35:
            ivar = self.rng.choice(list(extra))
            return f"(gid + {ivar}) % {self.n_name}"
        if roll < 0.6:
            return "gid"
        if roll < 0.8:
            return f"(gid + {self.rng.randint(1, 7)}) % {self.n_name}"
        # gid may exceed n-1 in guarded kernels: reduce *before* mirroring
        # so the index never goes negative.
        return f"({self.n_name} - 1 - gid % {self.n_name})"

    def atom(self, locals_: Sequence[str], loop_vars: Sequence[str]) -> str:
        roll = self.rng.random()
        if roll < 0.35:
            return f"a[{self.index(loop_vars)}]"
        if roll < 0.6:
            return f"b[{self.index(loop_vars)}]"
        if locals_ and roll < 0.8:
            return self.rng.choice(list(locals_))
        return f"{self.rng.uniform(0.125, 2.0):.4f}f"

    def expr(self, locals_: Sequence[str] = (), loop_vars: Sequence[str] = (),
             depth: int = 2) -> str:
        """A random float expression over loads, locals and literals."""
        if depth <= 0 or self.rng.random() < 0.3:
            return self.atom(locals_, loop_vars)
        op = self.rng.choice(["+", "-", "*", "+", "*", "/"])
        lhs = self.expr(locals_, loop_vars, depth - 1)
        if op == "/":
            # divisor is a load plus a constant > 1, so it is always in
            # [1.6, 2.6): no division by zero, no overflow, engine-exact.
            rhs = f"(b[{self.index(loop_vars)}] + 1.5f)"
        else:
            rhs = self.expr(locals_, loop_vars, depth - 1)
        return f"({lhs} {op} {rhs})"


def generate_fuzz_kernel(seed: int) -> FuzzKernel:
    """Generate one deterministic random CUDA kernel for ``seed``.

    The grammar covers the constructs the engines must agree on: arith
    expression DAGs, memref loads/stores with wrapped indices, uniform
    ``for`` loops (``scf.for``), data-dependent ``if``/``else`` (``scf.if``),
    optional ``__shared__`` staging with ``__syncthreads`` (including a
    tree reduction and a uniform ``while`` loop *containing* barriers — the
    guarded-barrier region class), ``while``/``do-while`` loops over local
    counters (``scf.while``), 1D and 2D grids, and guarded stores.  Inputs
    are bounded away from zero so every operation is exact-arithmetic-safe
    and all five engines must match bit for bit.
    """
    rng = random.Random(seed)
    g = _KernelGrammar(rng)

    dims = 2 if rng.random() < 0.35 else 1
    grid_x = rng.choice([1, 2, 3, 4])
    grid_y = rng.choice([1, 2]) if dims == 2 else 1
    block_size = rng.choice([4, 8, 16, 32])
    total = grid_x * grid_y * block_size
    has_barrier = rng.random() < 0.4
    barrier_kind = rng.random()
    barrier_reduce = has_barrier and barrier_kind < 0.4 and block_size >= 4
    barrier_loop = has_barrier and not barrier_reduce and barrier_kind < 0.7
    has_loop = rng.random() < 0.55
    has_branch = rng.random() < 0.55
    has_while = rng.random() < 0.35
    do_while = has_while and rng.random() < 0.4
    guarded = rng.random() < 0.3
    n = total - rng.randint(1, block_size - 1) if guarded else total
    n = max(n, 1)
    pipeline = rng.choice(sorted(FUZZ_PIPELINES))

    body: List[str] = []
    body.append("    int bx = blockIdx.x;")
    body.append("    int tx = threadIdx.x;")
    if dims == 2:
        body.append("    int by = blockIdx.y;")
        body.append("    int gid = (by * gridDim.x + bx) * blockDim.x + tx;")
    else:
        body.append("    int gid = bx * blockDim.x + tx;")
    body.append(f"    float acc = {g.expr(depth=2)};")
    locals_ = ["acc"]
    if rng.random() < 0.5:
        body.append(f"    float aux = {g.expr(locals_, depth=2)};")
        locals_.append("aux")

    if has_branch:
        kind = rng.choice(["parity", "threshold", "data"])
        if kind == "parity":
            condition = "gid % 2 == 0"
        elif kind == "threshold":
            condition = f"tx < {max(1, block_size // 2)}"
        else:
            condition = f"a[gid] < b[{g.index()}]"
        body.append(f"    if ({condition}) {{")
        body.append(f"        acc = acc + {g.expr(locals_, depth=1)};")
        if rng.random() < 0.7:
            body.append("    } else {")
            body.append(f"        acc = (acc * 0.5f) - {g.expr(locals_, depth=1)};")
        body.append("    }")

    if has_loop:
        trip = rng.randint(2, 5)
        body.append(f"    for (int i = 0; i < {trip}; i++) {{")
        body.append(f"        acc = acc + {g.expr(locals_, ['i'], depth=1)};")
        body.append("    }")

    if has_while:
        trip = rng.randint(2, 5)
        body.append("    int k = 0;")
        if do_while:
            body.append("    do {")
            body.append(f"        acc = acc * 0.5f + {g.expr(locals_, ['k'], depth=1)};")
            body.append("        k = k + 1;")
            body.append(f"    }} while (k < {trip});")
        else:
            body.append(f"    while (k < {trip}) {{")
            body.append(f"        acc = acc + {g.expr(locals_, ['k'], depth=1)};")
            body.append("        k = k + 1;")
            body.append("    }")

    if has_barrier:
        body.append(f"    __shared__ float buf[{block_size}];")
        body.append("    buf[tx] = acc;")
        body.append("    __syncthreads();")
        if barrier_reduce:
            body.append(f"    for (int s = {block_size // 2}; s > 0; s = s / 2) {{")
            body.append("        if (tx < s) {")
            body.append("            buf[tx] += buf[tx + s];")
            body.append("        }")
            body.append("        __syncthreads();")
            body.append("    }")
            body.append("    acc = acc + buf[0] * 0.125f;")
        elif barrier_loop:
            # barriers inside a uniform while loop (backprop's shape): the
            # round counter is a per-thread local updated identically by
            # every thread, so the loop condition is block-uniform and each
            # shared-buffer write is barrier-separated from the next read.
            rounds = rng.randint(2, 4)
            body.append(f"    int rounds = {rounds};")
            body.append("    while (rounds > 0) {")
            body.append(f"        float v = buf[(tx + 1) % {block_size}];")
            body.append("        __syncthreads();")
            body.append("        buf[tx] = v * 0.5f + acc;")
            body.append("        __syncthreads();")
            body.append("        rounds = rounds - 1;")
            body.append("    }")
            body.append("    acc = acc + buf[0] * 0.125f;")
        else:
            body.append(f"    acc = acc + buf[(tx + 1) % {block_size}] * 0.25f;")

    store = "out[gid] = acc;"
    if guarded:
        body.append("    if (gid < n) {")
        body.append(f"        {store}")
        body.append("    }")
    else:
        body.append(f"    {store}")

    launch_lines: List[str] = []
    if dims == 2:
        launch_lines.append(f"    dim3 grid({grid_x}, {grid_y});")
        launch_lines.append(
            f"    fuzz_kernel<<<grid, {block_size}>>>(a, b, out, n);")
    else:
        launch_lines.append(
            f"    fuzz_kernel<<<{grid_x}, {block_size}>>>(a, b, out, n);")

    source = "\n".join([
        "__global__ void fuzz_kernel(float* a, float* b, float* out, int n) {",
        *body,
        "}",
        "",
        "void launch(float* a, float* b, float* out, int n) {",
        *launch_lines,
        "}",
        "",
    ])
    description = (f"seed={seed} dims={dims} grid={grid_x}x{grid_y} "
                   f"block={block_size} barrier={has_barrier} "
                   f"reduce={barrier_reduce} bloop={barrier_loop} "
                   f"loop={has_loop} branch={has_branch} "
                   f"while={has_while} dowhile={do_while} guarded={guarded} "
                   f"pipeline={pipeline}")
    return FuzzKernel(seed=seed, source=source, entry="launch",
                      total_threads=total, n=n, block_size=block_size,
                      dims=dims, has_barrier=has_barrier, guarded=guarded,
                      pipeline=pipeline, has_while=has_while,
                      barrier_loop=barrier_loop, description=description)

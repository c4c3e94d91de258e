"""RegionPlan: one analysis per region, the facts every engine consumes.

The plan replaces what each engine used to derive for itself, so its facts
are checked against *independent* derivations, never against an engine that
reads the plan: the interpreter's own phase counts, a copy of the capture
walk ``codegen_c`` used to carry (its order is the C argument ABI), and the
store-safety entry point called directly.  The remaining tests pin what
the refactor is for: a region is analysed once whoever asks, a tier that
declines a region says why, the engine tower stays one function
compiler with one definition of each region entry point — and what cpuify
hands the engines is barrier-free ``omp.wsloop`` spans only, the traffic
claim that lets the fast tiers hold no barrier lowering of their own.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import contains_barrier
from repro.analysis.region import LAUNCH, PARALLEL, SIMT, WSLOOP, RegionPlans
from repro.analysis.lanes import LaneFacts
from repro.analysis.store_safety import span_required_dims
from repro.analysis.structure import split_executed
from repro.dialects import func as func_d, gpu as gpu_d, omp as omp_d, scf
from repro.frontend import compile_cuda
from repro.moccuda import MocCUDASession
from repro.rodinia import BENCHMARKS
from repro.runtime import (A64FX_CMG, XEON_8375C, Interpreter, MulticoreEngine,
                           NativeEngine, VectorizedEngine,
                           clear_global_tuning_cache, make_executor,
                           native_available, shutdown_worker_pools)
from repro.runtime.codegen_c import RegionCodegen, UnsupportedRegion
from repro.runtime.compiler import UNLOWERED, invalidate_compiled, program_for
from repro.runtime.vectorizer import _RegionVectorizer
from repro.transforms import PipelineOptions
from tests.helpers import FUZZ_PIPELINES, generate_fuzz_kernel

ROOT = Path(__file__).resolve().parents[2]
REGION_OPS = (scf.ParallelOp, gpu_d.LaunchOp, omp_d.OmpWsLoopOp)
FUZZ_SEEDS = 60

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="no working cc -fopenmp")


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


def _rodinia(variant):
    for name in sorted(BENCHMARKS):
        bench = BENCHMARKS[name]
        module = (bench.compile_cuda(cuda_lower=False) if variant == "oracle"
                  else bench.compile_cuda(PipelineOptions.all_optimizations()))
        yield f"{name} [{variant}]", module, bench.entry, bench.make_inputs(1)


def _fuzz():
    for seed in range(FUZZ_SEEDS):
        kernel = generate_fuzz_kernel(seed)
        yield f"fuzz/{seed}", kernel.compile(), kernel.entry, kernel.make_args()
        if kernel.has_barrier:
            yield (f"fuzz-oracle/{seed}", kernel.compile(cuda_lower=False),
                   kernel.entry, kernel.make_args())


def _region_ops(module, entry):
    """Region ops of ``entry`` and of every function it (transitively) calls:
    the two backprop benchmarks share one source, so each module also holds
    the other's kernel, which its entry never reaches."""
    ops, pending, seen = [], [module.lookup(entry)], set()
    while pending:
        fn = pending.pop()
        if fn is None or fn.is_declaration or id(fn) in seen:
            continue
        seen.add(id(fn))
        for op in fn.walk():
            if isinstance(op, REGION_OPS):
                ops.append(op)
            elif isinstance(op, func_d.CallOp):
                pending.append(module.lookup(op.callee))
    return ops


def _captured_values(op):
    """The capture walk ``codegen_c`` carried before the plan existed, kept
    here as the reference for ``live_ins`` (its order is the C ABI)."""
    defined = set()

    def collect(operation):
        defined.update(id(result) for result in operation.results)
        for region in operation.regions:
            for block in region.blocks:
                defined.update(id(argument) for argument in block.arguments)
                for nested in block.operations:
                    collect(nested)

    collect(op)
    order, seen = [], set()

    def visit(operation):
        for operand in operation.operands:
            if id(operand) not in defined and id(operand) not in seen:
                seen.add(id(operand))
                order.append(operand)
        for region in operation.regions:
            for block in region.blocks:
                for nested in block.operations:
                    visit(nested)

    visit(op)
    return order


class _PhaseCountingInterpreter(Interpreter):
    """Records ``(body ops, threads, phases)`` of every SIMT execution."""

    def __init__(self, module):
        super().__init__(module)
        self.simt_runs = []

    def _run_simt(self, ops, envs):
        phases = super()._run_simt(ops, envs)
        self.simt_runs.append((ops, len(envs), phases))
        return phases


def _check_plans(label, module, entry, arguments):
    """Every plan fact of ``module`` against its independent derivation;
    returns the number of regions checked."""
    plans = RegionPlans(module)
    program = program_for(module, XEON_8375C, "native")
    ops = _region_ops(module, entry)
    for op in ops:
        plan = plans.plan(op)
        where = f"{label}: {op.name}"
        if isinstance(op, gpu_d.LaunchOp):
            assert plan.kind == LAUNCH, where
            direct = None  # un-lowered: no tier runs it concurrently
        elif isinstance(op, omp_d.OmpWsLoopOp):
            assert plan.kind == WSLOOP, where
            direct, _ = span_required_dims(module, op, LaneFacts(op))
        elif contains_barrier(op, immediate_region_only=True):
            assert plan.kind == SIMT, where
            direct = None
        else:
            assert plan.kind == PARALLEL, where
            direct, _ = span_required_dims(module, op, LaneFacts(op))
        assert plan.parallel_proof == direct, where

        captured = _captured_values(op)
        assert [id(v) for v in plan.live_ins] == [id(v) for v in captured], where
        if plan.kind in (WSLOOP, PARALLEL):
            slots = {}
            codegen = RegionCodegen(program, plan, "r",
                                    lambda v: slots.setdefault(id(v), len(slots)))
            try:
                _, spec = codegen.emit_span()
            except UnsupportedRegion:
                pass
            else:
                bound = (spec.int_slots + spec.float_slots
                         + [buffer.slot for buffer in spec.buffers])
                assert sorted(bound) == sorted(slots[id(v)] for v in captured), where

    interpreter = _PhaseCountingInterpreter(module)
    interpreter.run(entry, arguments)
    by_body = {id(op.body.operations): plans.plan(op) for op in ops}
    for body_ops, threads, phases in interpreter.simt_runs:
        plan = by_body[id(body_ops)]
        if plan.phases is not None and threads:
            assert phases == len(plan.phases), f"{label}: {plan.kind}"
    return len(ops)


class TestPlanFacts:
    @pytest.mark.parametrize("variant", ["cuda", "oracle"])
    def test_rodinia_regions(self, variant):
        regions = sum(_check_plans(*case) for case in _rodinia(variant))
        assert regions == 13  # the same census as test_native_coverage

    def test_fuzz_corpus(self):
        assert sum(_check_plans(*case) for case in _fuzz()) >= FUZZ_SEEDS

    def test_phase_counts_include_barrier_and_terminator(self):
        module = BENCHMARKS["pathfinder"].compile_cuda(cuda_lower=False)
        (launch,) = _region_ops(module, BENCHMARKS["pathfinder"].entry)
        plan = RegionPlans(module).plan(launch)
        assert plan.phases is not None and len(plan.phases) > 1
        assert sum(count for _, count in plan.phases) == len(plan.body_ops) + 1
        assert all(alloca.result.type.memory_space == "shared"
                   for alloca in plan.shared_allocas) and plan.shared_allocas

    def test_plans_are_shared_and_dropped_with_the_programs(self):
        module = BENCHMARKS["matmul"].compile_cuda(PipelineOptions.all_optimizations())
        compiled = program_for(module, XEON_8375C)
        assert program_for(module, XEON_8375C, "native").plans is compiled.plans
        assert program_for(module, A64FX_CMG, "vectorized").plans is compiled.plans
        invalidate_compiled(module)
        assert program_for(module, XEON_8375C).plans is not compiled.plans


class TestLoweredTraffic:
    """The claim that licenses the fast tiers to hold no barrier lowering of
    their own: every region cpuify hands an engine is a barrier-free
    ``omp.wsloop`` span.  A pass change that starts leaving ``launch`` /
    ``simt`` / ``parallel`` regions (e.g. a ``barrier_fallback`` SIMT loop)
    fails here, by name, instead of quietly losing the fast tiers."""

    @staticmethod
    def _spans(label, module):
        plans = RegionPlans(module)
        regions = [op for op in module.walk() if isinstance(op, REGION_OPS)]
        for op in regions:
            plan = plans.plan(op)
            assert plan.kind == WSLOOP, f"{label}: cpuify left a {plan.kind} region"
            assert len(plan.phases) == 1, label
            assert not contains_barrier(op, immediate_region_only=False), label
        return len(regions)

    #: regions in the 12 Rodinia modules per pipeline (the two backprop
    #: benchmarks share one source, so each module holds both kernels).
    @pytest.mark.parametrize("pipeline, expected", [
        ("all", 15), ("innerpar", 43), ("disabled", 54), ("mincut+openmpopt", 51)])
    def test_rodinia_lowers_to_barrier_free_wsloops(self, pipeline, expected):
        assert set(FUZZ_PIPELINES) == {"all", "innerpar", "disabled",
                                       "mincut+openmpopt"}
        regions = sum(
            self._spans(f"{name} [{pipeline}]",
                        BENCHMARKS[name].compile_cuda(FUZZ_PIPELINES[pipeline]))
            for name in sorted(BENCHMARKS))
        assert regions == expected

    def test_fuzz_corpus_lowers_to_barrier_free_wsloops(self):
        kernels = [generate_fuzz_kernel(seed) for seed in range(FUZZ_SEEDS)]
        assert sum(kernel.has_barrier for kernel in kernels) == 24
        regions = sum(self._spans(f"fuzz/{kernel.seed} [{kernel.pipeline}]",
                                  kernel.compile()) for kernel in kernels)
        assert regions == 146


@needs_cc
class TestAnalysedOnce:
    def test_auto_runs_the_lane_pass_once_per_span(self, monkeypatch):
        """``auto`` builds the vectorized, the native and the multicore
        program of a module; the first reads the lane facts to emit lanes,
        the others ask for the proof over them, the pass runs once."""
        runs = []
        real_init = LaneFacts.__init__

        def counting_init(self, op):
            runs.append(op)
            real_init(self, op)

        monkeypatch.setattr(LaneFacts, "__init__", counting_init)
        regions = 0
        for name in sorted(BENCHMARKS):
            bench = BENCHMARKS[name]
            module = bench.compile_cuda(PipelineOptions.all_optimizations())
            clear_global_tuning_cache()
            executor = make_executor(module, engine="auto", workers=2)
            executor.run(bench.entry, bench.make_inputs(1))
            measured = executor.auto_stats["measurements"]
            for row in ("vectorized", "native", "multicore"):
                assert any(tag.startswith(row) for tag in measured), (name, row)
            regions += len(_region_ops(module, bench.entry))
        assert regions == 13
        assert len(runs) == regions


UNINLINED_CALL_CUDA = """
__device__ void put(float* out, int i, float v) { out[i] = v; }
__global__ void k(float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) { put(out, tid, 1.0f * tid); }
}
void launch(float* out, int n) { k<<<(n + 31) / 32, 32>>>(out, n); }
"""

VARYING_BARRIER_CUDA = """
__global__ void k(float* a, float* out, int n) {
    int tx = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tx;
    __shared__ float buf[32];
    buf[tx] = a[gid];
    if (tx < 16) {
        __syncthreads();
    }
    out[gid] = buf[0];
}
void launch(float* a, float* out, int n) { k<<<n / 32, 32>>>(a, out, n); }
"""

OWNED_CUDA = """
__global__ void k(float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) { out[tid] = 1.0f * tid; }
}
void launch(float* out, int n) { k<<<(n + 31) / 32, 32>>>(out, n); }
"""


#: lowered, but ``put`` stays a ``func.call`` inside the span.
KEEP_CALLS = PipelineOptions.all_optimizations().with_options(inline_device=False)


def _refusals(engine_cls, source, arguments, *, lower,
              options=PipelineOptions.all_optimizations(), **kwargs):
    module = compile_cuda(source, cuda_lower=lower, options=options)
    engine = engine_cls(module, **kwargs)
    engine.run("launch", arguments)
    assert engine.regions
    return [(region["tier"], region["refusals"]) for region in engine.regions]


class TestRefusalReasons:
    """One test per place a tier says no; each used to drop the reason."""

    @needs_cc
    def test_native_reports_the_emitters_reason(self):
        # opt_disabled keeps the thread loop parallel: the block-level span
        # holds an omp.parallel the emitter does not translate.
        regions = _refusals(NativeEngine, OWNED_CUDA, [np.zeros(64, np.float32), 64],
                            lower=True, options=PipelineOptions.opt_disabled())
        assert ("closures", ["native: nested parallel construct omp.parallel"]) in regions

    def test_vectorizer_reports_the_declined_phase(self):
        ((tier, refusals),) = _refusals(VectorizedEngine, UNINLINED_CALL_CUDA,
                                        [np.zeros(64, np.float32), 64],
                                        lower=True, options=KEEP_CALLS)
        assert tier == "closures"
        assert refusals == ["vectorized: op func.call is not vectorizable"]

    def test_vectorizer_reports_barriers_under_control_flow(self):
        self._unlowered_launch_is_refused_by_name(VectorizedEngine)

    @pytest.mark.parametrize("engine_cls", [MulticoreEngine, NativeEngine])
    def test_dispatchers_report_an_unlowered_launch(self, engine_cls):
        self._unlowered_launch_is_refused_by_name(engine_cls)

    @staticmethod
    def _unlowered_launch_is_refused_by_name(engine_cls):
        """Barriers are cpuify's job: a ``gpu.launch`` that kept its
        ``__syncthreads`` runs on the closure tier and every faster tier
        says so, instead of lowering it a second time."""
        arguments = [np.ones(64, np.float32), np.zeros(64, np.float32), 64]
        ((tier, refusals),) = _refusals(engine_cls, VARYING_BARRIER_CUDA,
                                        arguments, lower=False)
        assert tier == "closures"
        assert refusals == [f"{engine_cls.ROW}: {UNLOWERED[LAUNCH]}"]
        assert "cuda_lower=True" in UNLOWERED[LAUNCH]

    def test_unproven_store_safety_is_reported(self):
        ((tier, refusals),) = _refusals(MulticoreEngine, UNINLINED_CALL_CUDA,
                                        [np.zeros(64, np.float32), 64],
                                        lower=True, options=KEEP_CALLS, workers=2)
        assert tier == "closures"
        assert refusals == ["parallel: call to store-unsafe function 'put'"]

    @pytest.mark.parametrize("engine_cls", [VectorizedEngine, MulticoreEngine,
                                            NativeEngine])
    def test_a64fx_refuses_no_tier(self, engine_cls):
        """Every charge lies on the cycle grid, whatever the machine's own
        constants: A64FX spans run on the tier asked for, nothing reported."""
        ((tier, refusals),) = _refusals(engine_cls, OWNED_CUDA,
                                        [np.zeros(64, np.float32), 64],
                                        lower=True, machine=A64FX_CMG)
        assert tier == engine_cls.ROW
        assert refusals == []

    def test_moccuda_default_machine_no_longer_refuses_silently(self):
        """``MocCUDASession(engine="native")`` used to run every launch on
        the compiled closures (the ledger's ``shim.native_region_share = 0``
        lead) because its default A64FX model is not dyadic.  It no longer
        refuses at all: every region of the session's kernel is native."""
        with MocCUDASession(engine="native") as session:
            log_probs = np.log(np.full((8, 4), 0.25, dtype=np.float32))
            session.nll_loss(log_probs, np.zeros(8, dtype=np.int32))
            (kernel,) = session._kernels.values()
        regions = make_executor(kernel.module, engine="native",
                                machine=session.machine).regions
        assert regions
        for region in regions:
            assert region["function"] and region["kind"] and region["tier"] == "native"
            assert not any(refusal.startswith("native:") for refusal in region["refusals"])


class TestTowerCensus:
    """The lattice this refactor removed must not grow back unnoticed."""

    RUNTIME = ROOT / "src" / "repro" / "runtime"
    HOOKS = ("_c_omp_wsloop", "_c_scf_parallel", "_c_scf_parallel_simt",
             "_c_gpu_launch", "_wsloop_span_plan", "_parallel_span_plan",
             "_launch_plan")

    def _sources(self):
        return {path.name: path.read_text() for path in self.RUNTIME.glob("*.py")}

    def test_each_region_hook_is_defined_at_most_once(self):
        text = "\n".join(self._sources().values())
        for hook in self.HOOKS:
            assert len(re.findall(rf"def {hook}\(", text)) <= 1, hook
        for entry in self.HOOKS[:4]:
            assert len(re.findall(rf"def {entry}\(", text)) == 1, entry

    def test_one_emitter_per_structured_op(self):
        """PR 15: a structured op is written once per back end.  The closure
        engine's emitters return source lines (no closure twins, no item
        kinds); the C emitter has one loop header of each kind."""
        compiler = ast.parse(self._sources()["compiler.py"])
        methods = {node.name: node for node in ast.walk(compiler)
                   if isinstance(node, ast.FunctionDef)}
        for name, allowed in (("_c_for", 0), ("_c_if", 0), ("_c_while", 0),
                              ("_c_call", 1)):
            nested = [node for node in ast.walk(methods[name])
                      if isinstance(node, ast.FunctionDef)][1:]
            assert len(nested) <= allowed, (name, [node.name for node in nested])
        # no closure delegates to a generator twin; the generated text does
        # in two places (a callee that may reach a barrier, the depth spill)
        assert not [node for node in ast.walk(compiler) if isinstance(node, ast.YieldFrom)]
        assert len(re.findall(r'f"yield from ', self._sources()["compiler.py"])) <= 2
        returns = [node.value for node in ast.walk(methods["compile_op"])
                   if isinstance(node, ast.Return)]
        assert returns and not [value for value in returns
                                if isinstance(value, ast.Tuple)]  # no ('g', ...) items
        codegen = self._sources()["codegen_c.py"]
        assert codegen.count("for (int64_t {iv}") == 1
        assert codegen.count("for (;;) {") == 1

    def test_one_function_compiler_no_mixins(self):
        classes = re.findall(r"^class (\w+)", "\n".join(self._sources().values()),
                             flags=re.MULTILINE)
        assert [name for name in classes if name.endswith("FunctionCompiler")] \
            == ["_FunctionCompiler"]
        assert [name for name in classes if name.endswith("Program")] == ["_Program"]
        assert not [name for name in classes if name.endswith("Mixin")]

    def test_region_facts_are_read_from_the_plan(self):
        sources = self._sources()
        callers = {name for name, text in sources.items()
                   if "is_shared_memref(" in text}
        assert callers == {"interpreter.py"}
        assert not any("straight = all(" in text for text in sources.values())

    def test_one_lane_analysis(self):
        """The lane lattice and its transfer functions live in one module;
        the vectorizer reads them off the plan instead of classifying by
        dry-run emission."""
        package = ROOT / "src" / "repro"
        holders = {path.relative_to(package).as_posix()
                   for layer in ("analysis", "runtime")
                   for path in (package / layer).glob("*.py")
                   if re.search(r"isinstance\(op, arith\.(AddI|SubI|MulI)Op\)",
                                path.read_text())}
        # affine.py: the pre-lowering affine forms cpuify's own passes read
        assert holders == {"analysis/lanes.py", "analysis/affine.py"}
        vectorizer = self._sources()["vectorizer.py"]
        for gone in ("_snapshot", "_restore", "lane_taint", "taint_bufs",
                     "_MAX_NESTING", "_join_branch_kinds", "_bind_iter_kinds",
                     "require_exact"):
            assert gone not in vectorizer, gone
        for reader in ("native.py", "multicore.py"):
            assert "plan.parallel_proof" in self._sources()[reader]
            assert ".lanes" not in self._sources()[reader].replace("vectorizer:lanes", "")

    def test_the_vectorizer_emits_each_op_once(self, monkeypatch):
        """Kinds come from the plan, not from dry runs: over Rodinia ×
        ``all_optimizations`` a vectorized span costs one ``emit_op`` per
        executed op (up to 7.7 per op before), a declined one fewer."""
        def executed(op):
            return 1 + sum(executed(nested) for region in op.regions
                           for block in region.blocks
                           for nested in split_executed(block)[0])

        spans = []  # [vectorizer, ops in its span, emit_op calls]
        real_phase = _RegionVectorizer.vectorize_phase
        real_emit = _RegionVectorizer.emit_op

        def vectorize_phase(self, ops, nops):
            spans.append([self, sum(map(executed, ops)), 0])
            return real_phase(self, ops, nops)

        def emit_op(self, op, ctx):
            assert spans[-1][0] is self
            spans[-1][2] += 1
            return real_emit(self, op, ctx)

        monkeypatch.setattr(_RegionVectorizer, "vectorize_phase", vectorize_phase)
        monkeypatch.setattr(_RegionVectorizer, "emit_op", emit_op)
        vectorized = 0
        for name in sorted(BENCHMARKS):
            bench = BENCHMARKS[name]
            engine = VectorizedEngine(
                bench.compile_cuda(PipelineOptions.all_optimizations()))
            engine.run(bench.entry, bench.make_inputs(1))
            tiers = [region["tier"] for region in engine.regions]
            assert len(spans) == len(tiers) and tiers, name
            for tier, (_, ops, calls) in zip(tiers, spans):
                assert calls == ops if tier == "vectorized" else calls < ops, name
            vectorized += tiers.count("vectorized")
            del spans[:]
        assert vectorized == 10  # 9 of the 12 kernels; srad_v1 holds two spans

    def test_analysis_and_transforms_do_not_import_the_runtime(self):
        for package in ("analysis", "transforms"):
            for path in (ROOT / "src" / "repro" / package).glob("*.py"):
                assert not re.search(r"^\s*(from|import) .*\bruntime\b",
                                     path.read_text(), flags=re.MULTILINE), path

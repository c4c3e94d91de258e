"""The native-coverage gate: all 13 Rodinia parallel regions execute native.

This is the CI acceptance bar for the native backend's construct coverage —
the paper's headline artifact is the transpiled kernel running as compiled
OpenMP C, so every Rodinia region that falls back to the compiled closures
is a hole in the reproduction.  The two compilation paths are held to
opposite bars:

* ``cuda`` (cpuified): 12 benchmarks lower to spans, barriers removed in the
  IR; backprop and particlefilter carry ``scf.while`` loops inside theirs.
  All 13 regions must compile to C, none may fall back;
* ``oracle`` (SIMT): 12 benchmarks keep ``gpu.launch`` regions with their
  ``__syncthreads``.  The native engine has no barrier lowering of its own:
  all 13 must run on the closure tier, each saying so by name.

Either way outputs and CostReports must stay bit-identical to the
interpreter, and the total region count is pinned so a silently-skipped
region (or a benchmark regression that stops emitting one) fails loudly
rather than shrinking the denominator.
"""

import numpy as np
import pytest

from repro.rodinia import BENCHMARKS
from repro.analysis.region import LAUNCH
from repro.runtime import Interpreter, NativeEngine, native_available
from repro.runtime.compiler import UNLOWERED
from repro.transforms import PipelineOptions
from tests.helpers import report_fields

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="no working cc -fopenmp")

ALL_NAMES = sorted(BENCHMARKS)

#: Rodinia parallel regions per compilation path (srad_v1 has two kernels,
#: the other 11 benchmarks one each).  Update deliberately, never downward.
EXPECTED_REGIONS = 13


def _compile(bench, variant):
    # fresh (non-shared) modules: the two backprop benchmarks share one CUDA
    # source, and a shared module would share one program whose region stats
    # accumulate across both entries, double-counting the total.
    if variant == "oracle":
        return bench.compile_cuda(cuda_lower=False)
    return bench.compile_cuda(PipelineOptions.all_optimizations())


def _run_against_interp(name, variant):
    """One benchmark on ``native``, outputs and CostReport checked against
    the interpreter; returns the engine."""
    bench = BENCHMARKS[name]
    module = _compile(bench, variant)

    interp_args = bench.make_inputs(1)
    interp = Interpreter(module)
    interp.run(bench.entry, interp_args)

    native_args = bench.make_inputs(1)
    engine = NativeEngine(module)
    engine.run(bench.entry, native_args)

    for index in bench.output_indices:
        np.testing.assert_array_equal(
            interp_args[index], native_args[index],
            err_msg=f"{name} [{variant}] output {index}")
    assert report_fields(interp.report) == report_fields(engine.report), (
        f"{name} [{variant}]: CostReport diverged")
    return engine


@needs_cc
class TestNativeCoverage:
    @pytest.mark.parametrize("variant", ["cuda"])
    def test_all_rodinia_regions_execute_native(self, variant):
        regions = 0
        for name in ALL_NAMES:
            stats = _run_against_interp(name, variant).native_stats
            assert stats["fallback_regions"] == 0, (
                f"{name} [{variant}]: {stats['fallback_regions']} region(s) "
                "fell back out of the native engine")
            assert stats["compile_errors"] == 0, f"{name} [{variant}]"
            assert stats["native_dispatches"] >= 1, f"{name} [{variant}]"
            regions += stats["native_regions"]
        assert regions == EXPECTED_REGIONS, (
            f"{variant}: {regions}/{EXPECTED_REGIONS} regions compiled native")

    def test_all_rodinia_oracle_regions_are_refused_by_name(self):
        regions = 0
        for name in ALL_NAMES:
            engine = _run_against_interp(name, "oracle")
            for region in engine.regions:
                assert region["kind"] == LAUNCH and region["tier"] == "closures", name
                assert region["refusals"] == [f"native: {UNLOWERED[LAUNCH]}"], name
            stats = engine.native_stats
            assert stats["native_regions"] == stats["native_dispatches"] == 0, name
            assert stats["fallback_regions"] == len(engine.regions), name
            regions += stats["fallback_regions"]
        assert regions == EXPECTED_REGIONS

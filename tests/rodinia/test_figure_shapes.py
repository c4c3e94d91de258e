"""Figure shapes: the paper's qualitative claims for Figs. 12–14, checked on
the simulated-cycle harnesses at reduced sizes.

The cost model is deterministic, so each experiment runs once and its
orderings are asserted directly; the constants of the paper are not."""

from repro.harness import fig12_mcuda, fig13_rodinia, fig14_scaling
from repro.harness.tables import geomean


def test_fig12_mcuda_comparison():
    """Fig. 12: inner serialization beats MCUDA; InnerPar does not."""
    results = fig12_mcuda.run(threads=(1, 4, 16, 32), scales=(1, 2))

    keys = list(results["MCUDA"])
    ser_speedup = geomean([results["MCUDA"][key] / results["PolygeistInnerSer"][key]
                           for key in keys])
    par_ratio = geomean([results["MCUDA"][key] / results["PolygeistInnerPar"][key]
                         for key in keys])
    # Paper: InnerSer is ~15% faster than MCUDA overall, and InnerPar is the
    # slowest Polygeist variant (nested-region overhead).  At the scaled-down
    # sizes the nested overhead is exaggerated, so the orderings are asserted
    # rather than the constants.
    assert ser_speedup > 1.0
    assert par_ratio < 1.15          # InnerPar does not beat MCUDA
    ser_vs_par = geomean([results["PolygeistInnerPar"][key] / results["PolygeistInnerSer"][key]
                          for key in keys])
    assert ser_vs_par > 1.0          # serializing the inner loop helps
    # more threads must help every configuration
    for series in results.values():
        assert series[(32, 16)] < series[(1, 16)]


def test_fig13_ablation():
    """Fig. 13 (left): each cumulative optimization level holds its gain."""
    subset = ["backprop layerforward", "particlefilter", "pathfinder", "lud", "srad_v1"]
    results = fig13_rodinia.run_ablation(subset, threads=32, scale=1)

    def series_geomean(series_name):
        return geomean([results[name]["Opt Disabled"] / results[name][series_name]
                        for name in results])

    mincut = series_geomean("mincut")
    openmpopt = series_geomean("openmpopt")
    innerser = series_geomean("innerser")
    assert mincut >= 0.95
    assert openmpopt >= mincut * 0.98
    assert innerser >= 1.05
    # the barrier-heavy backprop layerforward benefits the most from the
    # affine/unrolling + barrier-elimination combination (paper: 2.6x).
    backprop_affine = (results["backprop layerforward"]["Opt Disabled"]
                       / results["backprop layerforward"]["affine"])
    assert backprop_affine > 1.1


def test_fig13_speedup_over_openmp():
    """Fig. 13 (right): transpiled CUDA beats the OpenMP references overall."""
    # scale=8 gives 8 thread blocks per kernel; the thread count is scaled
    # down with it so the blocks-per-core occupancy stays representative of
    # the paper's full-size runs on 32 cores.
    results = fig13_rodinia.run_speedup_over_openmp(threads=8, scale=8)
    speedups = {name: series["OpenMP"] / series["CUDA-OpenMP"]
                for name, series in results.items()}

    # Paper: 1.76x geomean (1.437x without inner serialization).
    assert geomean(list(speedups.values())) > 1.0
    # kernels that stage data through shared memory or duplicate work per
    # block (hotspot, lud) do not win...
    assert speedups["hotspot"] < 1.1
    assert speedups["lud"] < 1.1
    # ...while kernels whose OpenMP reference forks per step or serializes
    # part of the work win.
    assert speedups["myocyte"] > 1.0
    assert speedups["srad_v1"] > 1.0


def test_fig14_scaling():
    """Fig. 14: transpiled CUDA scales at least as well as the OpenMP references."""
    subset = ["streamcluster", "srad_v1", "backprop adjust_weights", "myocyte"]
    results = fig14_scaling.run(subset, threads=(1, 4, 16, 32), scale=2)
    scaled = fig14_scaling.speedups(results)

    cuda = [variants["CUDA-OpenMP"][32] for variants in scaled.values()]
    omp = [variants["OpenMP"][32] for variants in scaled.values() if "OpenMP" in variants]
    cuda_geomean = geomean(cuda)
    assert cuda_geomean > 2.0
    assert cuda_geomean >= geomean(omp) * 0.95
    # scaling is monotonically non-decreasing in threads for CUDA codes
    for variants in scaled.values():
        series = variants["CUDA-OpenMP"]
        assert series[32] >= series[4] >= series[1] * 0.99

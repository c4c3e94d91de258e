"""Cross-engine differential fuzzing: generated kernels, four engines.

``tests/helpers.generate_fuzz_kernel`` draws random CUDA kernels from a
grammar over arith expressions, memref loads/stores, ``scf.for`` loops,
``scf.if`` branches, optional ``__syncthreads`` (staging and tree
reductions), 1D/2D grids and guarded stores, across four pipeline
configurations.  Every cpuified kernel runs through all five engines;
outputs and CostReports must be bit-identical — this extends
``test_engine_parity.py`` from the hand-picked Rodinia kernels to
generated coverage.  A barrier kernel's un-lowered module runs once, on the
interpreter, which every engine row hands its regions to.

Knobs: ``REPRO_FUZZ_COUNT`` (kernel count, default 60) and
``REPRO_FUZZ_SEED`` (base seed, default 0).  Every
failure message carries the kernel's full description, so a divergence
reproduces from the seed alone.
"""

import os

import pytest

from repro.runtime import shutdown_worker_pools
from tests.helpers import (FuzzKernel, generate_fuzz_kernel, run_engine_matrix,
                           run_unlowered)

FUZZ_COUNT = max(1, int(os.environ.get("REPRO_FUZZ_COUNT", "60")))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
SEEDS = list(range(FUZZ_SEED, FUZZ_SEED + FUZZ_COUNT))

#: output buffer index in the generated launch signature (a, b, out, n).
OUT_INDEX = (2,)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


def _check_kernel(kernel: FuzzKernel) -> None:
    module = kernel.compile(cuda_lower=True)
    run_engine_matrix(module, kernel.entry, kernel.make_args, OUT_INDEX,
                      workers=2, label=kernel.description)
    if kernel.has_barrier:
        run_unlowered(kernel.compile(cuda_lower=False), kernel.entry,
                      kernel.make_args, label=kernel.description + " [oracle]")


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_kernel_engine_parity(seed):
    _check_kernel(generate_fuzz_kernel(seed))


class TestGeneratorCoverage:
    """The grammar must actually exercise the constructs it claims to."""

    def test_determinism(self):
        first = generate_fuzz_kernel(12345)
        second = generate_fuzz_kernel(12345)
        assert first.source == second.source
        assert first.description == second.description
        import numpy as np
        for left, right in zip(first.make_args(), second.make_args()):
            np.testing.assert_array_equal(np.asarray(left), np.asarray(right))

    def test_corpus_covers_grammar(self):
        corpus = [generate_fuzz_kernel(seed) for seed in range(80)]
        assert any(k.has_barrier for k in corpus)
        assert any(not k.has_barrier for k in corpus)
        assert any(k.dims == 2 for k in corpus)
        assert any(k.guarded for k in corpus)
        assert any(k.has_while for k in corpus)
        assert any(k.barrier_loop for k in corpus)
        assert any("for (int i" in k.source for k in corpus)
        assert any("if (" in k.source for k in corpus)
        assert any("__syncthreads" in k.source for k in corpus)
        assert any("do {" in k.source for k in corpus)
        assert any("while (rounds > 0)" in k.source for k in corpus)
        assert len({k.pipeline for k in corpus}) >= 3

    def test_distinct_seeds_distinct_kernels(self):
        sources = {generate_fuzz_kernel(seed).source for seed in range(40)}
        assert len(sources) >= 30  # near-unique; collisions would weaken coverage

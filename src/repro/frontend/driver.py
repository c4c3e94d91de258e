"""Clang-style driver: compile CUDA-C source to IR, optionally cpuify it.

``compile_cuda`` mirrors the paper's usage model (§III-C): Polygeist is a
drop-in replacement for the CUDA compiler, with two extra flags —
``-cuda-lower`` to request GPU-to-CPU translation and ``-cpuify=<opts>`` to
select the lowering method / optimization set.

Every call goes through the content-addressed kernel cache
(:mod:`repro.runtime.cache`): the first compile of a (source, options,
pipeline) combination pays parse + pipeline, repeats are a cache lookup —
in-process always, across processes when ``REPRO_CACHE=1`` enables the
disk tier.  Downstream, the native engine applies the same discipline one
level lower: the parallel regions of a compiled module are emitted as C
and the resulting shared objects are content-addressed in the cache's
``.so`` artifact tier, so a warm process never runs the C compiler either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dialects.func import ModuleOp
from ..ir import verify
from ..runtime.cache import global_cache, kernel_key
from ..transforms import PipelineOptions, cpuify
from .parser import parse
from .codegen import generate_module


@dataclass
class CompileResult:
    """The outcome of a frontend invocation."""

    module: ModuleOp
    options: Optional[PipelineOptions]


def compile_cuda(source: str, filename: str = "<cuda>", *,
                 cuda_lower: bool = False,
                 cpuify_options: Optional[str] = None,
                 options: Optional[PipelineOptions] = None,
                 noalias: bool = True,
                 cache: object = True) -> ModuleOp:
    """Compile CUDA-C source text into an IR module.

    Parameters
    ----------
    cuda_lower:
        run the GPU-to-CPU pipeline (``-cuda-lower``).  When False the module
        keeps its ``gpu.launch`` form and can be executed by the SIMT oracle.
    cpuify_options:
        a ``-cpuify=`` flag string such as ``"mincut,openmpopt,affine,innerser"``.
    options:
        a fully-formed :class:`PipelineOptions`; overrides ``cpuify_options``.
    noalias:
        treat distinct pointer arguments as non-aliasing (the calling contexts
        of the bundled benchmarks guarantee this, matching §IV-A).
    cache:
        ``True`` (default) consults the process-wide kernel cache and returns
        a private module copy on a hit; ``"shared"`` returns the retained
        canonical module object (fastest warm path — executor construction is
        amortized too — but the module must not be mutated); ``False``
        bypasses the cache entirely (e.g. to time the real pipeline).
        Anything else raises ``ValueError``.

    The module is verified after IR generation, and after every pass.
    """
    if not (cache is True or cache is False or cache == "shared"):
        raise ValueError(f"cache must be True, False or 'shared', got {cache!r}")
    pipeline_options: Optional[PipelineOptions] = None
    if cuda_lower:
        pipeline_options = options
        if pipeline_options is None:
            pipeline_options = (PipelineOptions.from_flags(cpuify_options)
                                if cpuify_options else PipelineOptions.all_optimizations())
    # the content address doubles as the module identity downstream (the
    # autotuner's TuningCache key), so it is computed even with cache=False.
    key = kernel_key(source, cuda_lower=cuda_lower,
                     options=pipeline_options, noalias=noalias)
    if cache:
        cached = global_cache().lookup(key, shared=(cache == "shared"))
        if cached is not None:
            cached._content_key = key
            return cached
    program = parse(source, filename)
    module = generate_module(program, noalias=noalias)
    verify(module)
    if cuda_lower:
        cpuify(module, pipeline_options)
    module._content_key = key
    if cache:
        global_cache().insert(key, module, shared=(cache == "shared"))
    return module

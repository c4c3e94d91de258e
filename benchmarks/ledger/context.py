"""What every phase of a run shares: the seed, the tracer, the work directory,
the compiled corpus, the references and the pass/fail ledger."""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

import corpus
from hygiene import Workdir
from measure import Tracer

from repro.frontend import compile_cuda
from repro.runtime import make_executor
from repro.service.protocol import REPORT_FIELDS, encode_report, report_tuple

#: float outputs of the un-lowered SIMT oracle and of the lowered module may
#: differ in the last place (cpuify re-associates on four corpus kernels);
#: integers must be equal.
ORACLE_RTOL = 1e-6


def fingerprint(arguments: Sequence, indices: Sequence[int]) -> Tuple[str, ...]:
    return tuple(hashlib.sha256(np.ascontiguousarray(arguments[i]).tobytes()).hexdigest()
                 for i in indices)


def report_of(executor) -> Tuple:
    return report_tuple(encode_report(executor.report))


def reset_report(executor) -> None:
    """Zero the pinned CostReport fields so the next run's report stands alone
    (a report accumulates over an executor's runs, and a difference of two
    float ``cycles`` readings is not exact)."""
    report = executor.report
    for name in REPORT_FIELDS:
        setattr(report, name, type(getattr(report, name))(0))


@dataclass
class Reference:
    outputs: Tuple[str, ...]
    report: Tuple

    def matches(self, outputs, report) -> bool:
        return tuple(outputs) == self.outputs and tuple(report) == self.report


@dataclass
class Checker:
    """Counts operations attempted and failed; a failure is any mismatch with
    a reference, exception, rejection or timeout."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)  # client threads share it

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)


@dataclass
class Context:
    seed: int
    tracer: Tracer
    workdir: Workdir
    checker: Checker = field(default_factory=Checker)
    references: Dict[Tuple[str, int], Reference] = field(default_factory=dict)
    inputs: Dict[Tuple[str, int], List] = field(default_factory=dict)
    corrupt_reference: bool = False

    def module(self, name: str):
        """The kernel's lowered module — the canonical shared object the
        process-wide cache retains, as the shim and the service use it."""
        kernel = corpus.KERNELS[name]
        return compile_cuda(kernel.cuda_source, filename=name, cuda_lower=True,
                            cache="shared")

    def args(self, name: str, scale: int) -> List:
        """A fresh copy of the seeded inputs for (kernel, scale)."""
        key = (name, scale)
        if key not in self.inputs:
            self.inputs[key] = corpus.make_inputs(name, scale, self.seed)
        return corpus.copy_args(self.inputs[key])

    def reference(self, name: str, scale: int) -> Reference:
        """The expected outputs + CostReport of (kernel, scale), from an engine
        the measured ones do not share code with: ``interp`` at scale 1 (also
        checked against the un-lowered SIMT oracle), ``vectorized`` above it
        (where ``native``, an independent C back end, is what gets measured)."""
        key = (name, scale)
        if key not in self.references:
            kernel = corpus.KERNELS[name]
            arguments = self.args(name, scale)
            executor = make_executor(self.module(name),
                                     engine="interp" if scale == 1 else "vectorized")
            executor.run(kernel.entry, arguments)
            if scale == 1:
                self._check_oracle(kernel, arguments)
            outputs = fingerprint(arguments, kernel.outputs)
            if self.corrupt_reference:
                outputs = tuple("0" * 64 for _ in outputs)
            self.references[key] = Reference(outputs, report_of(executor))
        return self.references[key]

    def _check_oracle(self, kernel, lowered_arguments) -> None:
        simt = compile_cuda(kernel.cuda_source, filename=kernel.name, cuda_lower=False,
                            cache="shared")
        arguments = self.args(kernel.name, 1)
        make_executor(simt, engine="interp").run(kernel.entry, arguments)
        ok = True
        for index in kernel.outputs:
            expected, actual = arguments[index], lowered_arguments[index]
            if np.issubdtype(expected.dtype, np.floating):
                ok &= bool(np.allclose(actual, expected, rtol=ORACLE_RTOL, atol=0.0))
            else:
                ok &= bool(np.array_equal(actual, expected))
        self.checker.check(ok, f"SIMT oracle disagrees with lowered interp on {kernel.name}")

    def verify(self, name: str, scale: int, arguments, report, what: str) -> bool:
        kernel = corpus.KERNELS[name]
        return self.checker.check(
            self.reference(name, scale).matches(fingerprint(arguments, kernel.outputs), report),
            f"{what}: {name}@{scale} differs from its reference")

"""Pass infrastructure: passes, the pass manager and pipeline options.

The clang-style driver exposes the same knobs as the paper's ``-cpuify=XX``
flag (§III-C): each optimization studied in the Fig. 13 ablation (``mincut``,
``openmpopt``, ``affine``, ``innerser``) is a :class:`PipelineOptions` field
so the experiment harness can sweep them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..dialects.func import ModuleOp


class Pass:
    """A module-level transformation.

    ``run`` returns True when the pass changed the IR, enabling fixpoint
    iteration of pass groups.
    """

    NAME = "pass"

    def run(self, module: ModuleOp) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.NAME}>"


class FunctionPass(Pass):
    """Convenience base class: run over every function with a body."""

    def run(self, module: ModuleOp) -> bool:
        changed = False
        for fn in module.functions:
            if not fn.is_declaration:
                changed |= self.run_on_function(fn, module)
        return changed

    def run_on_function(self, fn, module: ModuleOp) -> bool:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class PassStatistic:
    """One pass execution: what ran, whether it changed the IR, how long
    the pass took and how long verifying its output took (0.0 when the
    manager does not verify)."""

    name: str
    changed: bool
    seconds: float
    verify_seconds: float = 0.0


class PassManager:
    """Runs an ordered list of passes, optionally verifying after each.

    Every run records a :class:`PassStatistic` per pass (wall-clock time of
    the pass and of the verification after it, and whether the IR changed);
    with ``verbose=True`` each pass additionally prints a live timing line —
    the Rodinia harness exposes this under its ``--pass-stats`` flag.
    """

    def __init__(self, passes: Sequence[Pass] = (), verify_each: bool = True,
                 verbose: bool = False) -> None:
        self.passes: List[Pass] = list(passes)
        self.verify_each = verify_each
        self.verbose = verbose
        self.statistics: List[PassStatistic] = []

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: ModuleOp) -> bool:
        from ..ir import verify

        changed_any = False
        for pass_ in self.passes:
            start = time.perf_counter()
            changed = pass_.run(module)
            elapsed = time.perf_counter() - start
            changed_any |= changed
            verify_elapsed = 0.0
            try:
                if self.verify_each:
                    start = time.perf_counter()
                    verify(module)
                    verify_elapsed = time.perf_counter() - start
            finally:
                # recorded (and printed) also when the pass broke the IR:
                # the last line names the pass the error belongs to.
                self.statistics.append(
                    PassStatistic(pass_.NAME, changed, elapsed, verify_elapsed))
                if self.verbose:
                    status = "changed" if changed else "no-op"
                    print(f"  [pass] {pass_.NAME:<22} {status:<8} {elapsed * 1e3:8.2f} ms"
                          f"   verify {verify_elapsed * 1e3:6.2f} ms")
        return changed_any

    def statistics_summary(self) -> str:
        """Per-pass aggregate table: runs, IR changes, total wall-clock time,
        and under it the time spent verifying after the passes."""
        totals: Dict[str, List[float]] = {}
        order: List[str] = []
        for stat in self.statistics:
            if stat.name not in totals:
                totals[stat.name] = [0, 0, 0.0]
                order.append(stat.name)
            entry = totals[stat.name]
            entry[0] += 1
            entry[1] += int(stat.changed)
            entry[2] += stat.seconds
        lines = [f"{'pass':<24} {'runs':>5} {'changed':>8} {'total ms':>10}"]
        for name in sorted(order, key=lambda n: -totals[n][2]):
            runs, changed, seconds = totals[name]
            lines.append(f"{name:<24} {runs:>5d} {changed:>8d} {seconds * 1e3:>10.2f}")
        total = sum(stat.seconds for stat in self.statistics)
        lines.append(f"{'total':<24} {len(self.statistics):>5d} "
                     f"{sum(int(s.changed) for s in self.statistics):>8d} "
                     f"{total * 1e3:>10.2f}")
        verified = [s.verify_seconds for s in self.statistics if s.verify_seconds]
        lines.append(f"{'verify':<24} {len(verified):>5d} {'':>8} "
                     f"{sum(verified) * 1e3:>10.2f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PipelineOptions:
    """Options of the GPU-to-CPU pipeline, mirroring ``-cpuify=<flags>``.

    * ``mincut``          — minimize cached values when splitting loops (§III-B1),
    * ``barrier_elim``    — memory-semantics barrier elimination (§IV-A),
    * ``mem2reg``         — barrier-aware load/store forwarding (§IV-B),
    * ``parallel_licm``   — parallel loop-invariant code motion (§IV-C),
    * ``openmp_opt``      — OpenMP region fusion/hoisting (§IV-D, Fig. 10/11),
    * ``affine``          — raise + unroll small serial loops before barrier
      lowering (the Fig. 13 "affine" series),
    * ``inner_serialize`` — serialize the thread-level (inner) parallel loops
      ("PolygeistInnerSer" / the Fig. 13 "innerser" series),
    * ``inline_device``   — inline ``__device__`` callees into kernels,
    * ``collapse``        — collapse grid×block parallelism into one loop when
      no shared memory is used.
    """

    mincut: bool = True
    barrier_elim: bool = True
    mem2reg: bool = True
    parallel_licm: bool = True
    openmp_opt: bool = True
    affine: bool = True
    inner_serialize: bool = True
    inline_device: bool = True
    collapse: bool = True
    num_threads: Optional[int] = None

    # -- named configurations used throughout the evaluation -----------------
    @classmethod
    def all_optimizations(cls, inner_serialize: bool = True) -> "PipelineOptions":
        return cls(inner_serialize=inner_serialize)

    @classmethod
    def opt_disabled(cls) -> "PipelineOptions":
        """The Fig. 13(left) "Opt Disabled" baseline: barriers are lowered
        (correctness requires it) but every optional optimization is off."""
        return cls(mincut=False, barrier_elim=False, mem2reg=False,
                   parallel_licm=False, openmp_opt=False, affine=False,
                   inner_serialize=False, collapse=False)

    def with_options(self, **kwargs) -> "PipelineOptions":
        return replace(self, **kwargs)

    @classmethod
    def from_flags(cls, flags: str) -> "PipelineOptions":
        """Parse a ``-cpuify=`` style comma-separated flag list.

        Example: ``"mincut,openmpopt,affine,innerser"``.  Unknown flags raise.
        """
        options = cls.opt_disabled()
        mapping = {
            "mincut": {"mincut": True, "barrier_elim": True, "mem2reg": True},
            "openmpopt": {"openmp_opt": True},
            "affine": {"affine": True},
            "innerser": {"inner_serialize": True},
            "licm": {"parallel_licm": True},
            "mem2reg": {"mem2reg": True},
            "barrier-elim": {"barrier_elim": True},
            "collapse": {"collapse": True},
            "all": {},
        }
        updates = {}
        for flag in filter(None, (part.strip() for part in flags.split(","))):
            if flag == "all":
                return cls.all_optimizations()
            if flag not in mapping:
                raise ValueError(f"unknown -cpuify flag {flag!r}")
            updates.update(mapping[flag])
        return options.with_options(**updates)

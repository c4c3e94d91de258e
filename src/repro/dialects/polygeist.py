"""``polygeist`` dialect: the paper's custom operations.

The central operation is :class:`PolygeistBarrierOp`, the high-level barrier
whose semantics are defined *entirely* by memory behaviour (§III-A): rather
than acting as an opaque optimization fence, the barrier reports the union of
the read and write effects of the code before and after it within the
enclosing parallel region — minus accesses whose address is an injective
function of the thread index ("the hole" that lets mem2reg and load/store
forwarding keep working across barriers).

The effect computation itself lives in
:mod:`repro.analysis.barrier_effects`; the op here only stores the structural
information (which parallel induction variables it synchronizes over).
"""

from __future__ import annotations

from typing import Sequence

from ..ir import EffectKind, MemoryEffect, Operation, Value


class PolygeistBarrierOp(Operation):
    """``polygeist.barrier`` — block-level synchronization point.

    Operands are the induction variables of the ``scf.parallel`` loop(s) this
    barrier synchronizes (the thread-level loop ivs).  The operands both
    document which parallel dimension the barrier belongs to and keep the
    barrier "attached" to its loop under code motion.

    Standing alone, the op conservatively reports unknown read+write effects;
    passes that understand barriers query
    :func:`repro.analysis.barrier_effects.barrier_memory_effects` for the
    refined, context-dependent effects.
    """

    OP_NAME = "polygeist.barrier"

    def __init__(self, thread_ivs: Sequence[Value] = ()) -> None:
        super().__init__(operands=list(thread_ivs))

    @property
    def thread_ivs(self) -> Sequence[Value]:
        return self.operands

    def memory_effects(self):
        return [MemoryEffect(EffectKind.READ, None), MemoryEffect(EffectKind.WRITE, None)]

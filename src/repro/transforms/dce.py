"""Dead code elimination.

Erases operations whose results are unused and whose execution has no
externally visible effect.  Ops with recursive side effects (loops, ifs)
are removed when their bodies contain no effects and none of their results
are used; allocations whose result is never used are also removed.

It runs as the tail of every :class:`~repro.transforms.CanonicalizePass`;
the pipeline has no separate DCE pass.
"""

from __future__ import annotations

from ..ir import EffectKind, Operation
from ..dialects import func as func_d, memref as memref_d


def _only_allocates_itself(op: Operation) -> bool:
    effects = op.memory_effects()
    return all(effect.kind is EffectKind.ALLOC and effect.value in op.results
               for effect in effects)


def _is_removable(op: Operation) -> bool:
    if any(result.has_uses for result in op.results):
        return False
    if op.IS_TERMINATOR or isinstance(op, (func_d.FuncOp, func_d.ModuleOp)):
        return False
    if op.is_pure():
        return True
    if isinstance(op, (memref_d.AllocOp, memref_d.AllocaOp)) and _only_allocates_itself(op):
        return True
    if op.HAS_RECURSIVE_EFFECTS:
        # e.g. an scf.if whose branches became empty after other cleanups.
        return not op.memory_effects()
    return False


def eliminate_dead_code(root: Operation) -> bool:
    """Iteratively erase dead ops until a fixpoint; returns True if changed."""
    changed_any = False
    while True:
        dead = [op for op in root.walk_post_order() if op is not root and _is_removable(op)]
        if not dead:
            return changed_any
        for op in dead:
            if op.parent_block is not None and not any(r.has_uses for r in op.results):
                op.erase()
                changed_any = True

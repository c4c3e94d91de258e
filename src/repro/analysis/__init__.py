"""repro.analysis — the analyses behind the paper's parallel optimizations.

* :mod:`~repro.analysis.alias`      — memref alias analysis,
* :mod:`~repro.analysis.affine`     — affine access extraction and
  thread-injectivity (the §III-A refinement),
* :mod:`~repro.analysis.effects`    — memory-access collection, conflict
  tests and interprocedural read-only summaries,
* :mod:`~repro.analysis.barriers`   — barrier memory semantics and the
  elimination/motion legality conditions,
* :mod:`~repro.analysis.mincut`     — the min-cut choice of values to cache
  across a parallel loop split,
* :mod:`~repro.analysis.liveness`   — crossing values at a split point,
* :mod:`~repro.analysis.structure`  — parallel-nest structural helpers,
* :mod:`~repro.analysis.lanes`      — the lane facts of a span: how every
  value of its body depends on the iteration (uniform, injective over lane
  dims, varying; held per lane or not), one forward pass with control
  dependence in its transfer functions.  Read by the vectorizer (what to
  emit) and by
* :mod:`~repro.analysis.store_safety` — the store check over those facts:
  write-write safety of a span (what licenses real parallel execution in
  the ``native`` and ``multicore`` engines),
* :mod:`~repro.analysis.region`     — ``RegionPlan``, where both are
  computed once per region (``plan.lanes``, ``plan.parallel_proof``).
"""

from .alias import AliasResult, alias, is_allocation, may_alias, must_alias
from .affine import (
    AffineExpr,
    access_equivalent,
    access_is_injective_in,
    extract_access,
    extract_affine,
)
from .effects import (
    MemoryAccess,
    accesses_conflict,
    any_conflict,
    collect_accesses,
    function_effects,
    function_is_read_only,
    op_is_speculatable,
)
from .barriers import (
    accesses_on_side,
    barrier_can_move_to,
    barrier_is_redundant,
    barrier_memory_effects,
    barrier_thread_ivs,
)
from .mincut import FlowNetwork, minimum_value_cut, validate_cut
from .liveness import crossing_values, def_use_edges_among, values_defined_before
from .structure import (
    barriers_in,
    contains_barrier,
    enclosing_op_of_type,
    enclosing_parallel,
    free_values_in,
    is_defined_inside,
    iterate_parallel_nest,
    uniform_symbols_for,
)

__all__ = [
    "AliasResult", "alias", "is_allocation", "may_alias", "must_alias",
    "AffineExpr", "access_equivalent", "access_is_injective_in", "extract_access", "extract_affine",
    "MemoryAccess", "accesses_conflict", "any_conflict", "collect_accesses",
    "function_effects", "function_is_read_only", "op_is_speculatable",
    "accesses_on_side", "barrier_can_move_to", "barrier_is_redundant",
    "barrier_memory_effects", "barrier_thread_ivs",
    "FlowNetwork", "minimum_value_cut", "validate_cut",
    "crossing_values", "def_use_edges_among", "values_defined_before",
    "barriers_in", "contains_barrier", "enclosing_op_of_type",
    "enclosing_parallel", "free_values_in", "is_defined_inside", "iterate_parallel_nest",
    "uniform_symbols_for",
]

"""Lane facts: how every value of a span body depends on the iteration.

The iterations ("lanes") of a span — ``omp.wsloop``, barrier-free
``scf.parallel`` — are independent, and two consumers need to know how a
value differs between them: the store check that licenses running them
concurrently (:mod:`~repro.analysis.store_safety`) and the vectorizer, which
runs them all at once as NumPy lanes.  :class:`LaneFacts` is the one forward
pass over a span body that answers both, once, on the region's plan
(:attr:`RegionPlan.lanes <repro.analysis.region.RegionPlan.lanes>`).

Every value the body defines, block arguments included, gets one descriptor:

  ("u", bound, fixed)  uniform: the same in every lane that reaches the
                       definition in the same loop iterations; in
                       ``[0, bound)`` when ``bound`` is an SSA value id;
                       ``fixed`` when it is also the same in every iteration
                       of the sequential loops around it (always, outside
                       them) — only then may it offset an injective index,
                       since lanes do not run their loops in step.
  ("i", bound, dims)   injective over the lane dimensions ``dims``: two
                       lanes differing in one of them never hold the same
                       value, whatever loop iterations they are in.
  ("s", factor, dims)  an injective value times the fixed uniform SSA value
                       ``factor`` — the intermediate of ``bx*width + tx``;
                       injective on its own for a non-zero constant factor.
  ("v",)               varying: lane-dependent, nothing else known.

Control dependence is part of the transfer functions: an ``scf.if`` result
varies when its condition does, an ``scf.for``'s induction variable,
iter-args and results vary when a bound does, and nothing computed from a
lane-dependent operand is uniform.  Loads assume what the language model
grants (no lane reads what another writes within a span); stores assume
nothing.

Beside the descriptor, ``varies`` is the vectorizer's representation bit (a
lane array rather than one scalar: induction variables, loads from in-region
buffers, anything computed from either — a descriptor that is not uniform
implies it), ``private`` the buffers allocated in the body, and a rank-0
private cell carries the descriptor of its only store when that store is
top-level, so it dominates every later load.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from ..dialects import arith, memref as memref_d, scf
from .structure import split_executed

VARYING = ("v",)
FIXED = ("u", None, True)


def const_int(value) -> Optional[int]:
    defining = value.defining_op()
    if isinstance(defining, arith.ConstantOp) and isinstance(defining.value, int):
        return defining.value
    return None


def injective_dims(desc: Tuple) -> Optional[FrozenSet[int]]:
    """The lane dims ``desc`` is provably injective over, taken on its own."""
    if desc[0] == "i" or (desc[0] == "s" and const_int(desc[1])):
        return desc[2]
    return None


def _yielded(term) -> Sequence:
    return list(term.operands) if isinstance(term, scf.YieldOp) else []


class LaneFacts:
    """The lane facts of one span ``op`` (module docstring)."""

    def __init__(self, op) -> None:
        self.desc: Dict[int, Tuple] = {}
        self.per_lane: Set[int] = set()
        self.private: Set[int] = set()   # id(memref value) allocated in the body
        self.cells: Dict[int, Tuple] = {}
        self._stores: Dict[int, int] = {}  # rank-0 private cell -> static stores
        self._loops = self._depth = 0      # enclosing loops / structured ops
        body = split_executed(op.body)[0]
        for top in body:
            for nested in top.walk():
                if isinstance(nested, memref_d.AllocOp):  # covers AllocaOp
                    self.private.add(id(nested.result))
                    if not nested.memref_type.shape and not nested.operands:
                        self._stores[id(nested.result)] = 0
                elif (isinstance(nested, memref_d.StoreOp)
                      and id(nested.memref) in self._stores):
                    self._stores[id(nested.memref)] += 1
        for dim, induction_var in enumerate(op.induction_vars):
            unit = (const_int(op.lower_bounds[dim]) == 0
                    and const_int(op.steps[dim]) == 1)
            self._set(induction_var, ("i", id(op.upper_bounds[dim]) if unit else None,
                                      frozenset((dim,))), True)
        for top in body:
            self._op(top)

    # -- what the consumers read -------------------------------------------------
    def of(self, value) -> Tuple:
        """The descriptor of ``value``; one defined outside the span is fixed."""
        return self.desc.get(id(value), FIXED)

    def varies(self, value) -> bool:
        return id(value) in self.per_lane

    def lane_index(self, value) -> bool:
        """Whether ``value`` is a lane index, offset or scaled by uniforms."""
        return self.of(value)[0] in ("i", "s")

    # -- the pass ----------------------------------------------------------------
    def _set(self, value, desc: Tuple, per_lane: bool) -> None:
        self.desc[id(value)] = desc
        if per_lane:
            self.per_lane.add(id(value))

    @staticmethod
    def _join(*descs: Tuple) -> Tuple:
        """Of a value computed from, or merged by control flow out of,
        ``descs``: lane-dependent inputs never stay injective (``iv`` or
        ``iv + 1``, by branch or iteration, collides)."""
        if any(desc[0] != "u" for desc in descs):
            return VARYING
        return ("u", None, all(desc[2] for desc in descs))

    def _nested(self, ops: Sequence, loops: int = 0) -> None:
        self._depth += 1
        self._loops += loops
        for op in ops:
            self._op(op)
        self._depth -= 1
        self._loops -= loops

    def _op(self, op) -> None:
        if isinstance(op, scf.ForOp):
            return self._for(op)
        if isinstance(op, scf.IfOp):
            return self._if(op)
        if op.regions:  # scf.while, nested parallel contexts: all lane-dependent
            for region in op.regions:
                for block in region.blocks:
                    for argument in block.arguments:
                        self._set(argument, VARYING, True)
                    self._nested(split_executed(block)[0], loops=1)
            desc, per_lane = VARYING, True
        elif isinstance(op, memref_d.AllocOp):
            return None  # a memref: see ``private``
        elif isinstance(op, memref_d.StoreOp):
            key = id(op.memref)
            if self._stores.get(key) == 1 and not self._depth:
                # the cell's only static store, unconditional: every later
                # load reads exactly this value.  A store under scf.if /
                # scf.for never qualifies — a branch not taken or a zero-trip
                # loop leaves the zero-initialised cell behind.
                self.cells[key] = self.of(op.value)
            return None
        elif isinstance(op, memref_d.LoadOp) and id(op.memref) in self.private:
            # a cell is as good as its dominating store; other private
            # scratch mixes lane-dependent values across program points
            desc, per_lane = self.cells.get(id(op.memref), VARYING), True
        else:
            per_lane = any(self.varies(operand) for operand in op.operands)
            if isinstance(op, arith._CastOp):
                desc = self.of(op.input)
            elif isinstance(op, arith.AddIOp):
                desc = self._add(self.of(op.lhs), self.of(op.rhs))
            elif isinstance(op, arith.SubIOp):
                desc = self._offset(self.of(op.lhs), self.of(op.rhs))
            elif isinstance(op, arith.MulIOp):
                desc = self._mul(op.lhs, op.rhs)
            else:
                desc = self._join(*map(self.of, op.operands))
        for result in op.results:
            self._set(result, desc, per_lane)

    def _add(self, a: Tuple, b: Tuple) -> Tuple:
        for x, y in ((a, b), (b, a)):
            if x[0] == "s" and y[0] in ("u", "i") and y[1] == id(x[1]):
                # bx*width + tx: the addend lies in [0, width), so distinct
                # (bx, tx) pairs produce distinct sums.
                return ("i", None, x[2] | y[2] if y[0] == "i" else x[2])
        return self._offset(a, b)

    def _offset(self, a: Tuple, b: Tuple) -> Tuple:
        """An injective value plus or minus a fixed uniform one stays so."""
        for x, y in ((a, b), (b, a)):
            if injective_dims(x) is not None and y[0] == "u" and y[2]:
                return ("i", None, injective_dims(x))
        return self._join(a, b)

    def _mul(self, lhs, rhs) -> Tuple:
        a, b = self.of(lhs), self.of(rhs)
        for x, y, factor in ((a, b, rhs), (b, a, lhs)):
            if x[0] == "i" and y[0] == "u" and y[2]:
                # keep the factor *value*: a later addi can match it against
                # an addend bounded by the same SSA value, and a non-zero
                # constant factor makes the product injective on its own.
                return ("s", factor, x[2])
        return self._join(a, b)

    def _for(self, op) -> None:
        bounds = (op.lower_bound, op.upper_bound, op.step)
        uniform = all(self.of(bound)[0] == "u" for bound in bounds)
        lanes = any(self.varies(bound) for bound in bounds)
        unit = const_int(op.lower_bound) == 0 and const_int(op.step) == 1
        self._set(op.induction_var,
                  ("u", id(op.upper_bound) if unit else None, False)
                  if uniform else VARYING, lanes)
        body, term = split_executed(op.body)
        state = []
        for init in op.iter_init:
            desc = self.of(init)
            state.append((("u", None, False) if uniform and desc[0] == "u"
                          else VARYING, lanes or self.varies(init)))
        for attempt in range(5):
            for argument, fact in zip(op.iter_args, state):
                self._set(argument, *fact)
            self._nested(body, loops=1)
            carried = [(self._join(desc, self.of(value)), per_lane or self.varies(value))
                       for (desc, per_lane), value in zip(state, _yielded(term))]
            if carried == state:
                break
            state = carried if attempt < 3 else [(VARYING, True)] * len(state)
        for result, (desc, per_lane) in zip(op.results, state):
            if desc[0] == "u":  # one value per run of the loop: fixed outside loops
                desc = ("u", None, not self._loops)
            self._set(result, desc, per_lane)

    def _if(self, op) -> None:
        yields = []
        for block in (op.then_block, op.else_block):
            if block is not None:
                ops, term = split_executed(block)
                self._nested(ops)
                yields.append(_yielded(term))
        for index, result in enumerate(op.results):
            values = [branch[index] for branch in yields if index < len(branch)]
            self._set(result,
                      self._join(self.of(op.condition), *map(self.of, values))
                      if len(values) == 2 else VARYING,
                      self.varies(op.condition)
                      or any(self.varies(value) for value in values))

"""Affine access analysis.

The barrier semantics of §III-A can be refined when memory accesses can be
*raised into linear (affine) forms* over the thread identifiers: an access
whose address is an injective function of the thread id always happens in
program order within one thread, so the barrier does not need to capture it
("the hole" that keeps mem2reg and store-to-load forwarding working across
barriers, Fig. 5).

:class:`AffineExpr` represents ``sum(coeff_i * symbol_i) + constant`` where
symbols are SSA values (thread induction variables, serial loop induction
variables, kernel arguments...).  :func:`extract_affine` walks defining
operations (constants, add, sub, mul-by-constant, index casts) to build the
expression; anything it cannot handle yields ``None`` (non-affine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import Value
from ..dialects import arith


@dataclass
class AffineExpr:
    """A linear expression over SSA-value symbols plus an integer constant."""

    coefficients: Dict[int, int] = field(default_factory=dict)  # id(value) -> coeff
    symbols: Dict[int, Value] = field(default_factory=dict)     # id(value) -> value
    constant: int = 0

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_constant(cls, value: int) -> "AffineExpr":
        return cls(constant=int(value))

    @classmethod
    def from_symbol(cls, value: Value) -> "AffineExpr":
        return cls(coefficients={id(value): 1}, symbols={id(value): value})

    # -- algebra ---------------------------------------------------------------
    def _merged_symbols(self, other: "AffineExpr") -> Dict[int, Value]:
        merged = dict(self.symbols)
        merged.update(other.symbols)
        return merged

    def add(self, other: "AffineExpr") -> "AffineExpr":
        coeffs = dict(self.coefficients)
        for key, coeff in other.coefficients.items():
            coeffs[key] = coeffs.get(key, 0) + coeff
        coeffs = {key: coeff for key, coeff in coeffs.items() if coeff != 0}
        symbols = {key: value for key, value in self._merged_symbols(other).items() if key in coeffs}
        return AffineExpr(coeffs, symbols, self.constant + other.constant)

    def negate(self) -> "AffineExpr":
        return AffineExpr({key: -coeff for key, coeff in self.coefficients.items()},
                          dict(self.symbols), -self.constant)

    def sub(self, other: "AffineExpr") -> "AffineExpr":
        return self.add(other.negate())

    def scale(self, factor: int) -> "AffineExpr":
        if factor == 0:
            return AffineExpr.from_constant(0)
        return AffineExpr({key: coeff * factor for key, coeff in self.coefficients.items()},
                          dict(self.symbols), self.constant * factor)

    # -- queries ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coefficients

    def coefficient_of(self, value: Value) -> int:
        return self.coefficients.get(id(value), 0)

    def equivalent(self, other: "AffineExpr") -> bool:
        """Structural equality: same symbols, coefficients and constant."""
        if self.constant != other.constant:
            return False
        return self.coefficients == other.coefficients

    def __repr__(self) -> str:
        terms = [f"{coeff}*{self.symbols[key].name}" for key, coeff in self.coefficients.items()]
        terms.append(str(self.constant))
        return " + ".join(terms)


def extract_affine(value: Value, max_depth: int = 32) -> Optional[AffineExpr]:
    """Try to express ``value`` as an affine function of SSA symbols.

    Returns ``None`` when the value is built from operations the analysis
    does not model (loads, divisions, calls, ...) — in that case the value
    itself becomes an opaque symbol only if it is a "leaf" (no defining op we
    understand); a partially-affine expression is never returned.
    """
    if max_depth <= 0:
        return None

    op = value.defining_op()
    if op is None:
        return AffineExpr.from_symbol(value)
    if isinstance(op, arith.ConstantOp):
        if isinstance(op.value, float):
            return None
        return AffineExpr.from_constant(op.value)
    if isinstance(op, (arith.IndexCastOp, arith.IntCastOp)):
        return extract_affine(op.input, max_depth - 1)
    if isinstance(op, arith.AddIOp):
        lhs = extract_affine(op.lhs, max_depth - 1)
        rhs = extract_affine(op.rhs, max_depth - 1)
        return lhs.add(rhs) if lhs is not None and rhs is not None else None
    if isinstance(op, arith.SubIOp):
        lhs = extract_affine(op.lhs, max_depth - 1)
        rhs = extract_affine(op.rhs, max_depth - 1)
        return lhs.sub(rhs) if lhs is not None and rhs is not None else None
    if isinstance(op, arith.MulIOp):
        lhs = extract_affine(op.lhs, max_depth - 1)
        rhs = extract_affine(op.rhs, max_depth - 1)
        if lhs is None or rhs is None:
            return None
        if rhs.is_constant:
            return lhs.scale(rhs.constant)
        if lhs.is_constant:
            return rhs.scale(lhs.constant)
        return None
    # Unknown defining op: treat the value itself as an opaque symbol.  This
    # is sound because the symbol identity still distinguishes "same value"
    # from "different value".
    return AffineExpr.from_symbol(value)


def extract_access(indices: Sequence[Value]) -> Optional[Tuple[AffineExpr, ...]]:
    """Affine access function for a load/store's index operands (or None)."""
    exprs: List[AffineExpr] = []
    for index in indices:
        expr = extract_affine(index)
        if expr is None:
            return None
        exprs.append(expr)
    return tuple(exprs)


def access_equivalent(a: Sequence[AffineExpr], b: Sequence[AffineExpr]) -> bool:
    """True if two access functions are index-by-index identical."""
    if len(a) != len(b):
        return False
    return all(x.equivalent(y) for x, y in zip(a, b))


def access_is_injective_in(access: Sequence[AffineExpr], thread_ivs: Sequence[Value],
                           uniform_symbols: Optional[Sequence[Value]] = None) -> bool:
    """Is the access address an injective function of the thread ids?

    Sufficient condition used here (and adequate for the kernels in the
    suite): every thread induction variable that the access *uses* appears
    with a non-zero coefficient in some index expression, at least one of
    them does, and every other symbol appearing in the expression is
    "uniform" across threads — i.e. it is one of ``uniform_symbols`` (values
    defined outside the thread-parallel loop) or a serial-loop induction
    variable shared by all threads.  Under these conditions two distinct
    thread ids can never produce the same address for accesses with the same
    expression.
    """
    if not thread_ivs:
        return False
    uniform_ids = {id(value) for value in (uniform_symbols or [])}
    thread_ids = {id(iv) for iv in thread_ivs}

    uses_thread_iv = False
    for expr in access:
        for key in expr.coefficients:
            if key in thread_ids:
                uses_thread_iv = True
            elif key not in uniform_ids:
                # symbol that may differ per thread in a way we cannot model.
                return False
    return uses_thread_iv

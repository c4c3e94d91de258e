"""``arith`` dialect: constants, integer/float arithmetic, comparisons, casts.

All operations in this dialect are pure (no memory effects); they are the
bread-and-butter of CSE, constant folding, LICM and the min-cut
recompute-vs-cache decision in parallel loop splitting.
"""

from __future__ import annotations


from ..ir import F32, I1, FloatType, IndexType, IntegerType, Operation, Type, Value


class ConstantOp(Operation):
    """``arith.constant`` — a compile-time constant of integer/float/index type."""

    OP_NAME = "arith.constant"
    IS_PURE = True

    def __init__(self, value, type: Type, name_hint: str = "") -> None:
        if isinstance(type, (IntegerType, IndexType)):
            value = int(value)
        elif isinstance(type, FloatType):
            value = float(value)
        else:
            raise TypeError(f"arith.constant does not support type {type}")
        super().__init__(result_types=[type], attributes={"value": value},
                         result_names=[name_hint] if name_hint else [])

    @property
    def value(self):
        return self.attributes["value"]


class BinaryOp(Operation):
    """Base class for pure binary arithmetic ops (same-typed operands/result)."""

    IS_PURE = True
    PY_FUNC = None  # set by subclasses; used by the interpreter and folder

    def __init__(self, lhs: Value, rhs: Value, name_hint: str = "") -> None:
        super().__init__(operands=[lhs, rhs], result_types=[lhs.type],
                         result_names=[name_hint] if name_hint else [])

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def verify(self) -> None:
        if self.lhs.type != self.rhs.type:
            raise ValueError(f"{self.name}: operand types differ "
                             f"({self.lhs.type} vs {self.rhs.type})")


# -- integer / index arithmetic ------------------------------------------------
class AddIOp(BinaryOp):
    OP_NAME = "arith.addi"
    PY_FUNC = staticmethod(lambda a, b: a + b)


class SubIOp(BinaryOp):
    OP_NAME = "arith.subi"
    PY_FUNC = staticmethod(lambda a, b: a - b)


class MulIOp(BinaryOp):
    OP_NAME = "arith.muli"
    PY_FUNC = staticmethod(lambda a, b: a * b)


class DivSIOp(BinaryOp):
    OP_NAME = "arith.divsi"
    PY_FUNC = staticmethod(lambda a, b: int(a / b) if b != 0 else 0)


class RemSIOp(BinaryOp):
    OP_NAME = "arith.remsi"
    PY_FUNC = staticmethod(lambda a, b: int(__import__("math").fmod(a, b)) if b != 0 else 0)


class MinSIOp(BinaryOp):
    OP_NAME = "arith.minsi"
    PY_FUNC = staticmethod(min)


class MaxSIOp(BinaryOp):
    OP_NAME = "arith.maxsi"
    PY_FUNC = staticmethod(max)


class AndIOp(BinaryOp):
    OP_NAME = "arith.andi"
    PY_FUNC = staticmethod(lambda a, b: int(a) & int(b))


class OrIOp(BinaryOp):
    OP_NAME = "arith.ori"
    PY_FUNC = staticmethod(lambda a, b: int(a) | int(b))


class XOrIOp(BinaryOp):
    OP_NAME = "arith.xori"
    PY_FUNC = staticmethod(lambda a, b: int(a) ^ int(b))


class ShLIOp(BinaryOp):
    OP_NAME = "arith.shli"
    PY_FUNC = staticmethod(lambda a, b: int(a) << int(b))


class ShRSIOp(BinaryOp):
    OP_NAME = "arith.shrsi"
    PY_FUNC = staticmethod(lambda a, b: int(a) >> int(b))


# -- float arithmetic -----------------------------------------------------------
class AddFOp(BinaryOp):
    OP_NAME = "arith.addf"
    PY_FUNC = staticmethod(lambda a, b: a + b)


class SubFOp(BinaryOp):
    OP_NAME = "arith.subf"
    PY_FUNC = staticmethod(lambda a, b: a - b)


class MulFOp(BinaryOp):
    OP_NAME = "arith.mulf"
    PY_FUNC = staticmethod(lambda a, b: a * b)


class DivFOp(BinaryOp):
    OP_NAME = "arith.divf"
    PY_FUNC = staticmethod(lambda a, b: a / b if b != 0.0 else float("inf"))


class RemFOp(BinaryOp):
    OP_NAME = "arith.remf"
    PY_FUNC = staticmethod(lambda a, b: __import__("math").fmod(a, b) if b != 0.0 else float("nan"))


class MinFOp(BinaryOp):
    OP_NAME = "arith.minf"
    PY_FUNC = staticmethod(min)


class MaxFOp(BinaryOp):
    OP_NAME = "arith.maxf"
    PY_FUNC = staticmethod(max)


class NegFOp(Operation):
    """``arith.negf`` — floating point negation."""

    OP_NAME = "arith.negf"
    IS_PURE = True

    def __init__(self, operand: Value, name_hint: str = "") -> None:
        super().__init__(operands=[operand], result_types=[operand.type],
                         result_names=[name_hint] if name_hint else [])


# -- comparisons ------------------------------------------------------------------
class CmpPredicate:
    """Comparison predicate names shared by ``cmpi`` and ``cmpf``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    ALL = (EQ, NE, LT, LE, GT, GE)

    _FUNCS = {
        EQ: lambda a, b: a == b,
        NE: lambda a, b: a != b,
        LT: lambda a, b: a < b,
        LE: lambda a, b: a <= b,
        GT: lambda a, b: a > b,
        GE: lambda a, b: a >= b,
    }

    @classmethod
    def evaluate(cls, predicate: str, lhs, rhs) -> int:
        return 1 if cls._FUNCS[predicate](lhs, rhs) else 0


class _CmpOp(Operation):
    IS_PURE = True

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name_hint: str = "") -> None:
        if predicate not in CmpPredicate.ALL:
            raise ValueError(f"unknown comparison predicate {predicate!r}")
        super().__init__(operands=[lhs, rhs], result_types=[I1],
                         attributes={"predicate": predicate},
                         result_names=[name_hint] if name_hint else [])

    @property
    def predicate(self) -> str:
        return self.attributes["predicate"]

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class CmpIOp(_CmpOp):
    OP_NAME = "arith.cmpi"


class CmpFOp(_CmpOp):
    OP_NAME = "arith.cmpf"


class SelectOp(Operation):
    """``arith.select`` — ternary select between two same-typed values."""

    OP_NAME = "arith.select"
    IS_PURE = True

    def __init__(self, condition: Value, true_value: Value, false_value: Value,
                 name_hint: str = "") -> None:
        super().__init__(operands=[condition, true_value, false_value],
                         result_types=[true_value.type],
                         result_names=[name_hint] if name_hint else [])

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]

    def verify(self) -> None:
        if self.true_value.type != self.false_value.type:
            raise ValueError("arith.select: branch value types differ")


# -- casts ----------------------------------------------------------------------------
class _CastOp(Operation):
    IS_PURE = True

    def __init__(self, operand: Value, result_type: Type, name_hint: str = "") -> None:
        super().__init__(operands=[operand], result_types=[result_type],
                         result_names=[name_hint] if name_hint else [])

    @property
    def input(self) -> Value:
        return self.operands[0]


class IndexCastOp(_CastOp):
    """``arith.index_cast`` — cast between integer and index types."""

    OP_NAME = "arith.index_cast"


class SIToFPOp(_CastOp):
    """``arith.sitofp`` — signed integer to floating point."""

    OP_NAME = "arith.sitofp"


class FPToSIOp(_CastOp):
    """``arith.fptosi`` — floating point to signed integer (truncation)."""

    OP_NAME = "arith.fptosi"


class FPCastOp(_CastOp):
    """``arith.fpcast`` — f32 <-> f64 conversion."""

    OP_NAME = "arith.fpcast"


class IntCastOp(_CastOp):
    """``arith.intcast`` — integer width conversion (ext/trunc)."""

    OP_NAME = "arith.intcast"


def constant_float(value: float, type: FloatType = F32, name_hint: str = "") -> ConstantOp:
    return ConstantOp(value, type, name_hint)


"""The scalar-op table: one row per pure scalar op, read by every engine.

The paper's thesis is that one representation lets every transformation
apply without modification; this module is that idea one level down.  What
``arith.divsi`` *means* is written once — the dialect's own Python function,
referenced here as the row's ``py`` — and next to it sit the three forms the
backends render and the cost class they charge:

========== ==============================================================
``py``      reference semantics on Python scalars (the dialect's
            ``PY_FUNC`` / ``UNARY_FUNCTIONS`` / ``CmpPredicate``).  The
            interpreter calls it; the constant folder in
            ``transforms/canonicalize.py`` reaches the same function through
            the dialect; every other column is checked against it by
            ``tests/runtime/test_optable.py``.
``inline``  Python expression the closure engines (compiled, and the
            vectorized engine on lane-invariant operands) splice into
            generated block source; ``None`` = call ``py`` through a bound
            name ``{f}``.
``lanes``   NumPy expression over ``(num_lanes,)`` ``float64``/``int64``
            arrays — an operator, or a ``_v_*`` helper of the vectorizer
            where NumPy's own semantics differ from ``py``; ``None`` = map
            ``py`` over the active lanes (``_v_map``: last-ulp parity with
            libm-backed Python functions needs the Python loop).
``c``       C expression over ``double`` / ``int64_t`` operands, plus
            ``helper``: the prelude text defining what it calls.
``cost``    key into :data:`~repro.runtime.costmodel.OP_COSTS`.
========== ==============================================================

Templates name their operands ``{a}``, ``{b}``, ``{c}`` in operand order.
Adding an op is one dialect class plus one row here; no engine module
changes (``tests/runtime/test_optable.py::test_one_row_is_enough``).

Two rows are defined by an attribute rather than by operands and keep a
short arm in each backend: ``arith.constant`` (closure engines preload it
into the register template and emit nothing) and ``memref.dim`` (reads a
buffer extent through the backend's memref handling).  They are rows
because their purity and cost class are consulted like any other op's.

:data:`STATIC_COST` completes the cost side for the non-scalar ops whose
charge the C emitter folds per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..dialects import arith, func as func_d, gpu as gpu_d, math as math_d
from ..dialects import memref as memref_d, polygeist, scf
from .costmodel import MachineModel, memory_access_cost, op_cost


@dataclass(frozen=True)
class Row:
    """One scalar op's semantics, forms and cost class (module docstring)."""

    cost: Optional[str]
    py: Optional[Callable]
    inline: Optional[str] = None
    lanes: Optional[str] = None
    c: Optional[str] = None
    helper: str = ""
    #: the result is coerced with ``int()`` (integer/index arithmetic whose
    #: ``py`` may pass through a float, e.g. ``int(a / b)``).
    int_result: bool = False
    #: operands are coerced with ``float()`` before ``py`` sees them.
    float_args: bool = False


_SHLI_HELPER = """\
static inline int64_t repro_shli(int64_t a, int64_t b) {
    if (b < 0 || b >= 64) return 0;
    return (int64_t)((uint64_t)a << (uint64_t)b);
}
"""
_SHRSI_HELPER = """\
static inline int64_t repro_shrsi(int64_t a, int64_t b) {
    if (b < 0) return 0;
    if (b >= 64) return a < 0 ? -1 : 0;
    return a >> b;
}
"""
_POWF_HELPER = """\
static inline double repro_powf(double a, double b) {
    double r = pow(a, b);
    /* CPython raises OverflowError for finite operands overflowing to inf;
     * PowFOp.evaluate turns that into NaN. */
    if (isinf(r) && isfinite(a) && isfinite(b) && a != 0.0) return NAN;
    return r;
}
"""

#: (class, inline Python, lane-array form, C form[, C helper]).  Only the
#: ops with an ``inline`` are spliced into closure-engine source; the rest
#: call ``PY_FUNC`` — their guards (zero divisors, float round trips) are
#: not worth restating as expressions.  The C forms of ``+ - *`` wrap
#: through ``uint64_t`` as ``repro_shli`` does: defined behaviour where a
#: signed ``int64_t`` overflow would be undefined.
_INT_BINARIES = (
    (arith.AddIOp, "({a} + {b})", "({a} + {b})",
     "((int64_t)((uint64_t){a} + (uint64_t){b}))"),
    (arith.SubIOp, "({a} - {b})", "({a} - {b})",
     "((int64_t)((uint64_t){a} - (uint64_t){b}))"),
    (arith.MulIOp, "({a} * {b})", "({a} * {b})",
     "((int64_t)((uint64_t){a} * (uint64_t){b}))"),
    (arith.DivSIOp, None, "_v_divsi({a}, {b})",
     "(({b} != 0) ? (int64_t)((double){a} / (double){b}) : 0)"),
    (arith.RemSIOp, None, "_v_remsi({a}, {b})",
     "(({b} != 0) ? (int64_t)fmod((double){a}, (double){b}) : 0)"),
    (arith.MinSIOp, "min({a}, {b})", "np.minimum({a}, {b})",
     "(({b} < {a}) ? {b} : {a})"),
    (arith.MaxSIOp, "max({a}, {b})", "np.maximum({a}, {b})",
     "(({b} > {a}) ? {b} : {a})"),
    (arith.AndIOp, None, "({a} & {b})", "({a} & {b})"),
    (arith.OrIOp, None, "({a} | {b})", "({a} | {b})"),
    (arith.XOrIOp, None, "({a} ^ {b})", "({a} ^ {b})"),
    (arith.ShLIOp, None, "({a} << {b})", "repro_shli({a}, {b})", _SHLI_HELPER),
    (arith.ShRSIOp, None, "({a} >> {b})", "repro_shrsi({a}, {b})", _SHRSI_HELPER),
)
_FLOAT_BINARIES = (
    (arith.AddFOp, "({a} + {b})", "({a} + {b})", "({a} + {b})"),
    (arith.SubFOp, "({a} - {b})", "({a} - {b})", "({a} - {b})"),
    (arith.MulFOp, "({a} * {b})", "({a} * {b})", "({a} * {b})"),
    (arith.DivFOp, "({a} / {b} if {b} != 0.0 else float('inf'))",
     "_v_divf({a}, {b})", "(({b} != 0.0) ? ({a} / {b}) : INFINITY)"),
    (arith.RemFOp, None, "_v_remf({a}, {b})",
     "(({b} != 0.0) ? fmod({a}, {b}) : NAN)"),
    (arith.MinFOp, "min({a}, {b})", "_v_minf({a}, {b})",
     "(({b} < {a}) ? {b} : {a})"),
    (arith.MaxFOp, "max({a}, {b})", "_v_maxf({a}, {b})",
     "(({b} > {a}) ? {b} : {a})"),
)

#: comparison predicate -> operator, the same in Python, NumPy and C.
_CMP_OPERATOR = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: libm call of each ``math.<fn>`` (guards mirror ``UNARY_FUNCTIONS``).
_MATH_C = {
    "exp": "exp(x)",
    "exp2": "pow(2.0, x)",
    "log": "x > 0.0 ? log(x) : -INFINITY",
    "log2": "x > 0.0 ? log2(x) : -INFINITY",
    "log10": "x > 0.0 ? log10(x) : -INFINITY",
    "sqrt": "x >= 0.0 ? sqrt(x) : NAN",
    "rsqrt": "x > 0.0 ? 1.0 / sqrt(x) : INFINITY",
    "fabs": "fabs(x)",
    "sin": "sin(x)",
    "cos": "cos(x)",
    "tan": "tan(x)",
    "tanh": "tanh(x)",
    "floor": "floor(x)",
    "ceil": "ceil(x)",
    "erf": "erf(x)",
    "round": "rint(x)",
}

_TO_INT = dict(py=int, inline="int({a})", c="(int64_t)({a})")
_TO_FLOAT = dict(py=float, inline="float({a})", c="(double)({a})",
                 lanes="np.asarray({a}).astype(np.float64)")


def _build_rows() -> Dict[object, Row]:
    rows: Dict[object, Row] = {}
    for integer, group in ((True, _INT_BINARIES), (False, _FLOAT_BINARIES)):
        for cls, inline, lanes, c, *helper in group:
            rows[cls] = Row(cls.OP_NAME, cls.PY_FUNC, inline, lanes, c,
                            "".join(helper), int_result=integer)
    for cls in (arith.CmpIOp, arith.CmpFOp):
        for predicate, operator in _CMP_OPERATOR.items():
            rows[cls, predicate] = Row(
                cls.OP_NAME, partial(arith.CmpPredicate.evaluate, predicate),
                inline=f"1 if {{a}} {operator} {{b}} else 0",
                lanes=f"({{a}} {operator} {{b}}).astype(np.int64)",
                c=f"(({{a}} {operator} {{b}}) ? 1 : 0)")
    int_lanes = "np.asarray({a}).astype(np.int64)"
    rows[arith.IndexCastOp] = Row("arith.index_cast", lanes=int_lanes, **_TO_INT)
    rows[arith.IntCastOp] = Row("arith.intcast", lanes=int_lanes, **_TO_INT)
    # int(value) raises on NaN/inf: the lane form checks the active lanes.
    rows[arith.FPToSIOp] = Row("arith.fptosi",
                               lanes="_v_fptosi({a}, {mask}, _N)", **_TO_INT)
    rows[arith.SIToFPOp] = Row("arith.sitofp", **_TO_FLOAT)
    rows[arith.FPCastOp] = Row("arith.fpcast", **_TO_FLOAT)
    rows[arith.NegFOp] = Row("arith.negf", lambda a: -a,
                             inline="-{a}", lanes="-{a}", c="(-{a})")
    rows[arith.SelectOp] = Row(
        "arith.select", lambda a, b, c: b if a else c,
        inline="{b} if {a} else {c}",
        lanes="np.where(np.asarray({a}) != 0, {b}, {c})",
        c="(({a}) ? {b} : {c})")
    for fn, evaluate in math_d.UNARY_FUNCTIONS.items():
        body = _MATH_C[fn]
        rows[math_d.UnaryMathOp, fn] = Row(
            "math.unary", evaluate, c=f"repro_{fn}({{a}})",
            helper=f"static inline double repro_{fn}(double x) {{ return {body}; }}\n",
            float_args=True)
    rows[math_d.PowFOp] = Row("math.powf", math_d.PowFOp.evaluate,
                              c="repro_powf({a}, {b})", helper=_POWF_HELPER)
    # attribute-defined rows (module docstring).  ``memref.dim`` has an
    # OP_COSTS entry no engine has ever charged; ``cost=None`` keeps it so.
    rows[arith.ConstantOp] = Row("arith.constant", None)
    rows[memref_d.DimOp] = Row(None, None)
    return rows


#: the table.  Keys are op classes, or ``(class, attribute value)`` for the
#: classes in :data:`KEY_ATTRIBUTE`.
ROWS: Dict[object, Row] = _build_rows()

#: classes whose rows are selected by an attribute (predicate / function).
KEY_ATTRIBUTE = {arith.CmpIOp: "predicate", arith.CmpFOp: "predicate",
                 math_d.UnaryMathOp: "fn"}


def row_for(op) -> Optional[Row]:
    """The row of ``op``, or ``None`` when ``op`` is not a pure scalar op."""
    cls = type(op)
    row = ROWS.get(cls)
    if row is None and cls in KEY_ATTRIBUTE:
        row = ROWS.get((cls, op.attributes[KEY_ATTRIBUTE[cls]]))
    return row


def cycles(row: Row) -> float:
    """The cycles one execution of the row's op is charged."""
    return op_cost(row.cost) if row.cost is not None else 0.0


def render(template: str, operands: Sequence[str], **names: str) -> str:
    """Fill a row template with rendered operand expressions."""
    return template.format(**dict(zip("abc", operands)), **names)


def python_expr(row: Row, operands: Sequence[str], namespace: Dict[str, object],
                new_name: Callable[[str], str], *, lanes: bool = False,
                mask: str = "None") -> str:
    """Python source of the row's op over rendered ``operands``.

    ``lanes`` selects the lane-array form (at least one operand is a lane
    array; ``mask`` names the active-lane mask) over the scalar one.  A form
    that calls ``py`` binds it in ``namespace`` under ``new_name("f")``.
    """
    template = row.lanes if lanes else row.inline
    if template is None:  # call py: once per active lane, or once
        letters = "abc"[:len(operands)]
        if lanes:
            template = "_v_map%s({f}, %s, {mask}, _N)" % (
                "" if len(operands) == 1 else "2",
                ", ".join("{%s}" % letter for letter in letters))
        else:
            wrap = "float({%s})" if row.float_args else "{%s}"
            template = "{f}(%s)" % ", ".join(wrap % letter for letter in letters)
    names = {"mask": mask}
    if "{f}" in template:
        names["f"] = new_name("f")
        namespace[names["f"]] = row.py
    expr = render(template, operands, **names)
    return f"int({expr})" if row.int_result and not lanes else expr


# ---------------------------------------------------------------------------
# Static cost classes of the non-scalar ops
# ---------------------------------------------------------------------------
#: cycles charged for an alloc / alloca / dealloc by every engine.
ALLOC_CYCLES = 2.0

#: cost class of an access charged by memory space and element width
#: (:func:`~repro.runtime.costmodel.memory_access_cost`).
MEMORY = object()

#: what one execution of a non-scalar op's *own* step is charged, excluding
#: anything its nested blocks charge per iteration: cycles, an ``OP_COSTS``
#: key, or :data:`MEMORY`.
STATIC_COST = {
    memref_d.AllocOp: ALLOC_CYCLES, memref_d.AllocaOp: ALLOC_CYCLES,
    memref_d.DeallocOp: ALLOC_CYCLES,
    memref_d.LoadOp: MEMORY, memref_d.StoreOp: MEMORY,
    memref_d.CopyOp: 0.0,  # charged at runtime (size-dependent)
    func_d.CallOp: "func.call",
    scf.ForOp: "scf.for", scf.IfOp: "scf.if",
    # scf.while charges per iteration (at the head, including the final
    # failed check), never on entry.
    scf.WhileOp: 0.0,
    polygeist.PolygeistBarrierOp: 0.0, gpu_d.BarrierOp: 0.0,
}


def static_cost(op):
    """Cycles (or :data:`MEMORY`) charged once per execution of ``op``'s own
    straight-line step; ``None`` for an op with no static cost class."""
    row = row_for(op)
    if row is not None:
        return cycles(row)
    entry = STATIC_COST.get(type(op))
    return op_cost(entry) if isinstance(entry, str) else entry


def access_charge_lines(machine: MachineModel, space: str, itemsize: str,
                        count: str = "") -> List[str]:
    """Generated-Python lines charging :data:`MEMORY` accesses of a buffer
    whose memory space and element width are only known at run time:
    :func:`~repro.runtime.costmodel.memory_access_cost` over the expressions
    ``space`` and ``itemsize``, times ``count`` accesses (one when empty).
    The two constants are the cost of a 4-byte element, whose width factor
    is exactly 1.0."""
    times = f" * {count}" if count else ""
    return [f"if {space} == 'shared' or {space} == 'local':",
            f"    w[-1] += {memory_access_cost(machine, 'local', 4)!r}{times}",
            "else:",
            f"    w[-1] += {memory_access_cost(machine, 'global', 4)!r}"
            f" * max(1.0, {itemsize} / 4.0){times}",
            f"    if {space} == 'global':",
            f"        report.global_bytes += {itemsize}{times}"]


def c_prelude_helpers(functions: str) -> str:
    """The C definitions the rows' ``c`` forms call, in row order: those of
    the rows the emitted text ``functions`` uses (a row with a helper has
    the ``c`` form ``<helper name>(...)``)."""
    return "".join(dict.fromkeys(
        row.helper for row in ROWS.values()
        if row.helper and row.c.partition("(")[0] + "(" in functions))

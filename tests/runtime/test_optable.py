"""The scalar-op table, enumerated: every row × a fixed edge-operand list
through every engine, with the operand lane-varying and lane-invariant.

The parity and fuzz suites *sample* op semantics through whole kernels;
this file enumerates them.  For each row of :mod:`repro.runtime.optable` a
one-op kernel is built with the IR builder — two ``scf.parallel`` regions in
one function, the first reading its operands at the thread index (lane
arrays in the vectorized engine), the second reading them at a sequential
loop index inside the region (lane-invariant scalars) — and run on
``interp``, ``compiled``, ``vectorized`` and (where a toolchain exists)
``native``.  Outputs must be bit-identical (``tobytes``: NaN payloads and
zero signs count) and so must the CostReports.  Operand combinations on
which the reference raises run one at a time: every engine must raise too.

What the enumeration found is either fixed in the row or entered in
:data:`KNOWN_DIVERGENCES` with its reason; nothing is skipped silently.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.dialects import arith, math as math_d, memref as memref_d, scf
from repro.ir import F32, F64, I1, I32, I64, INDEX, Builder, Operation, memref, verify
from repro.runtime import (CompiledEngine, Interpreter, NativeEngine,
                           VectorizedEngine, dtype_for, native_available, optable)
from repro.runtime.costmodel import OP_COSTS
from repro.runtime.vectorizer import _BASE_NAMESPACE
from tests.helpers import (build_function, build_parallel, close_parallel,
                           const_index, finish_function, report_fields)

INT_EDGES = [0, 1, -1, 7, -7, 2 ** 31, 2 ** 53 + 1, -2 ** 62]
SHIFT_COUNTS = [0, 1, 63]
FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 7.0, -7.0, float("inf"), float("-inf"),
               float("nan"), 5e-324, 1e308]
CONDITIONS = [0, 1, -1, 7]
INT64 = range(-2 ** 63, 2 ** 63)

#: What the enumeration found at the parent commit and this PR did not fix,
#: by class: the engines that diverge from the interpreter, and why.  The
#: tests below route every operand combination of a class away from exactly
#: those engines, and ``test_known_divergences_still_diverge`` fails for an
#: entry that is no longer needed.  Fixing any of them changes emitted
#: source (and so every ``.so`` key); that is a change of its own.
KNOWN_DIVERGENCES = {
    "int64": (("vectorized", "native"),
              "result outside int64: integer SSA values live in int64 lanes / "
              "C int64_t and wrap, where the reference's unbounded Python int "
              "raises OverflowError at the store (documented in vectorizer.py "
              "and codegen_c.py)"),
    "raises": (("native",),
               "py raises (int(nan), math.exp(1e308), sin(inf), floor(inf), "
               "fmod(inf, y), a complex (-1.0) ** 0.5 ...): C has no "
               "exceptions and yields a value; programs that already error are "
               "outside the native engine's contract"),
    "remf-inf": (("vectorized",),
                 "arith.remf with an infinite dividend on lane arrays: "
                 "math.fmod raises ValueError (domain error), np.fmod in "
                 "_v_remf returns NaN; the lane-invariant form calls py and "
                 "raises"),
    "powf-complex": (("vectorized",),
                     "math.powf of a negative base and a fractional exponent "
                     "is a complex number in Python; storing it raises "
                     "TypeError — except through store_block of a "
                     "lane-invariant value, which casts (ComplexWarning) and "
                     "stores the real part"),
    "divsi-rounding": (("vectorized", "native"),
                       "arith.divsi with an operand float64 cannot represent "
                       "(2**53 + 1): Python's int / int is correctly rounded "
                       "from the exact quotient, the lane and C forms round "
                       "each operand to float64 first — the truncated quotient "
                       "differs on -2**62 / (2**53 + 1): -511 vs -512"),
    "zero-sign": (("native",),
                  "math.floor / ceil / round return a Python int, which has no "
                  "-0: floor(-0.0), ceil(-0.5), round(-0.5) store +0.0 where C "
                  "floor / ceil / rint return -0.0 (equal as values)"),
}
ZERO_SIGN_ROWS = {(math_d.UnaryMathOp, fn) for fn in ("floor", "ceil", "round")}

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="no working cc -fopenmp")


# ---------------------------------------------------------------------------
# One-op kernels
# ---------------------------------------------------------------------------
class _Spec(NamedTuple):
    """How to build, feed and read one row's op."""

    operand_types: list
    domains: list
    result_type: object
    build: Callable


def _spec_for(key) -> _Spec:
    cls, attribute = key if isinstance(key, tuple) else (key, None)
    row = optable.ROWS[key]
    if issubclass(cls, arith.BinaryOp):
        if row.int_result:
            counts = SHIFT_COUNTS if cls in (arith.ShLIOp, arith.ShRSIOp) else INT_EDGES
            return _Spec([I64, I64], [INT_EDGES, counts], I64, cls)
        return _Spec([F64, F64], [FLOAT_EDGES] * 2, F64, cls)
    if cls is arith.CmpIOp:
        return _Spec([I64, I64], [INT_EDGES] * 2, I1,
                     lambda a, b: cls(attribute, a, b))
    if cls is arith.CmpFOp:
        return _Spec([F64, F64], [FLOAT_EDGES] * 2, I1,
                     lambda a, b: cls(attribute, a, b))
    if cls is arith.IndexCastOp:
        return _Spec([I64], [INT_EDGES], INDEX, lambda a: cls(a, INDEX))
    if cls is arith.IntCastOp:
        return _Spec([I32], [[v for v in INT_EDGES if abs(v) < 2 ** 31]], I64,
                     lambda a: cls(a, I64))
    if cls is arith.SIToFPOp:
        return _Spec([I64], [INT_EDGES], F64, lambda a: cls(a, F64))
    if cls is arith.FPToSIOp:
        return _Spec([F64], [FLOAT_EDGES + [2.5, -2.5]], I64, lambda a: cls(a, I64))
    if cls is arith.FPCastOp:
        return _Spec([F32], [FLOAT_EDGES], F64, lambda a: cls(a, F64))
    if cls is arith.NegFOp:
        return _Spec([F64], [FLOAT_EDGES], F64, cls)
    if cls is arith.SelectOp:
        return _Spec([I1, F64, F64], [CONDITIONS, FLOAT_EDGES, FLOAT_EDGES], F64, cls)
    if cls is math_d.UnaryMathOp:
        return _Spec([F64], [FLOAT_EDGES + [0.5, -0.5, 2.5]], F64,
                     lambda a: cls(attribute, a))
    if cls is math_d.PowFOp:
        return _Spec([F64, F64], [FLOAT_EDGES + [0.5]] * 2, F64, cls)
    raise AssertionError(f"no test spec for row {key!r}")


MODES = ("varying", "uniform")


def _build_kernel(spec: _Spec, count: int, modes=MODES):
    """``k(operands..., out_varying, out_uniform)``: the ``varying`` region
    applies the op at the thread index, the ``uniform`` region at a
    sequential loop index (the same operand for both lanes of the region)."""
    types = [memref((count,), t) for t in spec.operand_types]
    types += [memref((count,), spec.result_type), memref((2, count), spec.result_type)]
    module, fn, builder = build_function("k", types)
    *inputs, out_varying, out_uniform = fn.arguments

    def apply(target: Builder, index):
        loaded = [target.insert(memref_d.LoadOp(buffer, [index])).result
                  for buffer in inputs]
        return target.insert(spec.build(*loaded)).result

    if "varying" in modes:
        region, inner = build_parallel(builder, count)
        lane = region.induction_vars[0]
        inner.insert(memref_d.StoreOp(apply(inner, lane), out_varying, [lane]))
        close_parallel(inner)
    if "uniform" in modes:
        region, inner = build_parallel(builder, 2)
        lane = region.induction_vars[0]
        loop = inner.insert(scf.ForOp(const_index(inner, 0), const_index(inner, count),
                                      const_index(inner, 1)))
        body = Builder.at_end(loop.body)
        body.insert(memref_d.StoreOp(apply(body, loop.induction_var), out_uniform,
                                     [lane, loop.induction_var]))
        body.insert(scf.YieldOp())
        close_parallel(inner)
    finish_function(builder)
    verify(module)
    return module


def _make_args(spec: _Spec, combos):
    columns = list(zip(*combos)) if combos else [[] for _ in spec.operand_types]
    with np.errstate(all="ignore"):
        arguments = [np.array(column, dtype=dtype_for(type_))
                     for column, type_ in zip(columns, spec.operand_types)]
    result_dtype = dtype_for(spec.result_type)
    arguments.append(np.zeros(len(combos), dtype=result_dtype))
    arguments.append(np.zeros((2, len(combos)), dtype=result_dtype))
    return arguments


def _reference(row, operands):
    """The row's ``py`` applied the way the interpreter applies it; the
    exception instead of the value where it (or the store of its result:
    ``(-1.0) ** 0.5`` is a complex number in Python) raises."""
    try:
        if row.float_args:
            operands = [float(operand) for operand in operands]
        result = row.py(*operands)
        if isinstance(result, complex):
            raise TypeError("complex result cannot be stored")
        return int(result) if row.int_result else result
    except Exception as exc:  # noqa: BLE001 - the class under test
        return exc


def _classify(key, spec: _Spec):
    """Operand combinations by class: ``agree`` (every engine must match the
    interpreter bit for bit), ``raises`` (the reference raises), and the
    value classes of :data:`KNOWN_DIVERGENCES`."""
    row = optable.ROWS[key]
    classes = {"agree": [], "raises": [], "int64": [], "divsi-rounding": []}
    for combo in itertools.product(*spec.domains):
        # what the kernel actually loads (f32 inputs round on the way in)
        with np.errstate(all="ignore"):
            loaded = [np.array(value, dtype=dtype_for(type_)).item()
                      for value, type_ in zip(combo, spec.operand_types)]
        expected = _reference(row, loaded)
        if isinstance(expected, Exception):
            classes["raises"].append(combo)
        elif spec.result_type != F64 and expected not in INT64:
            classes["int64"].append(combo)
        elif (key is arith.DivSIOp and combo[1] not in (0, 1, -1)
              and any(int(float(v)) != v for v in combo)):
            classes["divsi-rounding"].append(combo)
        else:
            classes["agree"].append(combo)
    return classes


ENGINES = {
    "interp": Interpreter, "compiled": CompiledEngine,
    "vectorized": VectorizedEngine, "native": NativeEngine,
}


def _run(engine_name, module, arguments, regions=len(MODES)):
    engine = ENGINES[engine_name](module)
    try:
        engine.run("k", arguments)
    finally:  # also when the run raises: it must raise in the form under test
        if engine_name == "vectorized":
            stats = engine.vector_stats
            assert (stats["vectorized_regions"] == regions
                    and not stats["fallback_regions"]), (
                f"the lane forms were not exercised: {stats}")
        if engine_name == "native":
            stats = engine.native_stats
            assert (stats["native_regions"] == regions and not stats["fallback_regions"]
                    and not stats["compile_errors"]), (
                f"the C forms were not exercised: {stats}")
    return engine.report


def _bits(array, ignore_zero_sign: bool) -> bytes:
    return (array + 0.0 if ignore_zero_sign else array).tobytes()


def _assert_engines_agree(key, spec, combos, engines):
    module = _build_kernel(spec, len(combos))
    oracle_args = _make_args(spec, combos)
    oracle_report = _run("interp", module, oracle_args)
    # the uniform region computes what the varying one does, twice
    for half in oracle_args[-1]:
        assert half.tobytes() == oracle_args[-2].tobytes()
    for engine_name in engines:
        arguments = _make_args(spec, combos)
        report = _run(engine_name, module, arguments)
        relaxed = engine_name == "native" and key in ZERO_SIGN_ROWS
        for which, expected, actual in (("varying", oracle_args[-2], arguments[-2]),
                                        ("uniform", oracle_args[-1][0], arguments[-1][0]),
                                        ("uniform", oracle_args[-1][1], arguments[-1][1])):
            if _bits(expected, relaxed) != _bits(actual, relaxed):
                lanes = [i for i in range(len(combos))
                         if _bits(expected[i:i + 1], relaxed) != _bits(actual[i:i + 1], relaxed)]
                detail = ", ".join(
                    f"{combos[i]!r}: interp {expected[i]!r} vs {actual[i]!r}"
                    for i in lanes[:8])
                raise AssertionError(
                    f"{_row_id(key)} [{which} operands] {engine_name} diverges "
                    f"from interp on {len(lanes)} of {len(combos)} operand "
                    f"combinations: {detail}")
        assert report_fields(report) == report_fields(oracle_report), (
            f"{_row_id(key)}: CostReport of {engine_name} diverges from interp")


def _row_id(key) -> str:
    if isinstance(key, tuple):
        return f"{key[0].OP_NAME}.{key[1]}"
    return key.OP_NAME


def _vectorized_yields_a_value(key, mode, combo):
    """The KNOWN_DIVERGENCES class under which the vectorized engine
    computes a value where the reference raises, or None."""
    if key is arith.RemFOp and mode == "varying" and abs(combo[0]) == float("inf"):
        return "remf-inf"
    if key is math_d.PowFOp and mode == "uniform" and isinstance(
            _reference(optable.ROWS[key], list(combo)), TypeError):
        return "powf-complex"
    return None


SCALAR_KEYS = [key for key in optable.ROWS
               if key not in (arith.ConstantOp, memref_d.DimOp)]


@pytest.mark.parametrize("key", SCALAR_KEYS, ids=_row_id)
class TestEveryRow:
    def test_python_engines_agree(self, key):
        spec = _spec_for(key)
        classes = _classify(key, spec)
        assert classes["agree"], "no operand combination left to compare"
        _assert_engines_agree(key, spec, classes["agree"], ["vectorized"])
        # the closure engine shares the reference's Python ints
        _assert_engines_agree(key, spec, classes["agree"] + classes["divsi-rounding"],
                              ["compiled"])
        for combo in classes["int64"][:4]:
            for engine_name in ("interp", "compiled"):
                with pytest.raises(OverflowError):
                    _run(engine_name, _build_kernel(spec, 1), _make_args(spec, [combo]))

    @needs_cc
    def test_native_agrees(self, key):
        spec = _spec_for(key)
        _assert_engines_agree(key, spec, _classify(key, spec)["agree"], ["native"])

    @pytest.mark.parametrize("mode", MODES)
    def test_raising_operands_raise(self, key, mode):
        spec = _spec_for(key)
        row = optable.ROWS[key]
        for combo in _classify(key, spec)["raises"]:
            module = _build_kernel(spec, 1, modes=(mode,))
            expected = type(_reference(row, list(combo)))
            for engine_name in ("interp", "compiled", "vectorized"):
                arguments = _make_args(spec, [combo])
                if engine_name == "vectorized" \
                        and _vectorized_yields_a_value(key, mode, combo):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # ComplexWarning
                        _run(engine_name, module, arguments, regions=1)
                    continue  # still a value: the entry is still needed
                with pytest.raises(expected):
                    _run(engine_name, module, arguments, regions=1)


class TestKnownDivergencesStillDiverge:
    """An entry of KNOWN_DIVERGENCES that no longer diverges must go."""

    def test_every_class_has_members(self):
        totals = {name: 0 for name in ("raises", "int64", "divsi-rounding")}
        for key in SCALAR_KEYS:
            for name, combos in _classify(key, _spec_for(key)).items():
                if name in totals:
                    totals[name] += len(combos)
        assert all(totals.values()), totals
        # the other three are pinned by the test that routes around them
        assert set(KNOWN_DIVERGENCES) == set(totals) | {
            "remf-inf", "powf-complex", "zero-sign"}

    def test_divsi_rounding(self):
        spec = _spec_for(arith.DivSIOp)
        combos = _classify(arith.DivSIOp, spec)["divsi-rounding"]
        with pytest.raises(AssertionError, match="diverges from interp"):
            _assert_engines_agree(arith.DivSIOp, spec, combos, ["vectorized"])

    @needs_cc
    def test_zero_sign(self, monkeypatch):
        key = (math_d.UnaryMathOp, "floor")
        monkeypatch.setattr(sys.modules[__name__], "ZERO_SIGN_ROWS", set())
        with pytest.raises(AssertionError, match="diverges from interp"):
            _assert_engines_agree(key, _spec_for(key), [(-0.0,)], ["native"])


#: the C compiler command under which signed overflow stops the process.
UBSAN_CC = "cc -fsanitize=undefined -fno-sanitize-recover=all"
#: the exit code of :func:`_wrap_child` where that command builds no unit.
NO_UBSAN = 77
WRAP_CUDA = """
__global__ void k(int* out, int a, int b) { int i = threadIdx.x; out[i] = a * (b + i); }
void launch(int* out, int a, int b) { k<<<1, 4>>>(out, a, b); }
"""


def _wrap_child() -> None:
    """Subprocess entry (``REPRO_CC`` = :data:`UBSAN_CC`): the "int64" class
    on the native engine — ``a * (b + i)`` past int64 wraps, natively."""
    from repro.frontend import compile_cuda

    if not native_available():
        sys.exit(NO_UBSAN)
    out, a, b = np.zeros(4, dtype=np.int64), 2 ** 62, 4
    engine = NativeEngine(compile_cuda(WRAP_CUDA, cuda_lower=True))
    engine.run("launch", [out, a, b])
    assert engine.native_stats["native_dispatches"] == 1
    assert out.tolist() == [(a * (b + i) + 2 ** 63) % 2 ** 64 - 2 ** 63 for i in range(4)]


def test_int64_wrapping_is_defined_behaviour_in_c():
    """The C forms of ``+ - *`` wrap through ``uint64_t``: under UBSan with
    no recovery a signed overflow would end the process."""
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c",
         "from tests.runtime.test_optable import _wrap_child; _wrap_child()"],
        cwd=root, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, REPRO_CC=UBSAN_CC,
                 PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)])))
    if done.returncode == NO_UBSAN:
        pytest.skip(f"{UBSAN_CC!r} builds no native unit here")
    assert done.returncode == 0 and "runtime error" not in done.stderr, done.stderr[-2000:]


# ---------------------------------------------------------------------------
# The two attribute-defined rows
# ---------------------------------------------------------------------------
def _constant_and_dim_kernel():
    values = [(v, I64) for v in INT_EDGES] + [(v, F64) for v in FLOAT_EDGES]
    types = [memref((len(INT_EDGES),), I64), memref((len(FLOAT_EDGES),), F64),
             memref((3, 5), I64)]
    module, fn, builder = build_function("k", types)
    out_int, out_float, out_dims = fn.arguments
    region, inner = build_parallel(builder, 2)
    lane = region.induction_vars[0]
    slots = {I64: 0, F64: 0}
    for value, type_ in values:
        constant = inner.insert(arith.ConstantOp(value, type_)).result
        target = out_int if type_ == I64 else out_float
        inner.insert(memref_d.StoreOp(constant, target,
                                      [const_index(inner, slots[type_])]))
        slots[type_] += 1
    for dim in (0, 1):
        extent = inner.insert(memref_d.DimOp(out_dims, dim)).result
        inner.insert(memref_d.StoreOp(extent, out_dims, [lane, const_index(inner, dim)]))
    close_parallel(inner)
    finish_function(builder)
    verify(module)

    def make_args():
        return [np.zeros(len(INT_EDGES), dtype=np.int64),
                np.zeros(len(FLOAT_EDGES), dtype=np.float64),
                np.zeros((3, 5), dtype=np.int64)]
    return module, make_args


@pytest.mark.parametrize("engine_name", ["compiled", "vectorized",
                                         pytest.param("native", marks=needs_cc)])
def test_constant_and_dim_rows(engine_name):
    module, make_args = _constant_and_dim_kernel()
    expected, actual = make_args(), make_args()
    oracle = Interpreter(module)
    oracle.run("k", expected)
    assert expected[0].tolist() == INT_EDGES
    assert expected[1].tobytes() == np.array(FLOAT_EDGES).tobytes()
    assert expected[2][:2, :2].tolist() == [[3, 5], [3, 5]]
    engine = ENGINES[engine_name](module)
    engine.run("k", actual)
    for want, got in zip(expected, actual):
        assert want.tobytes() == got.tobytes()
    assert report_fields(engine.report) == report_fields(oracle.report)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------
def _pure_scalar_classes():
    found = []
    for dialect in (arith, math_d):
        for value in vars(dialect).values():
            if (isinstance(value, type) and issubclass(value, Operation)
                    and value.IS_PURE and "OP_NAME" in vars(value)):
                found.append(value)
    return found


class TestCensus:
    def test_every_pure_scalar_op_class_has_exactly_one_row(self):
        classes = _pure_scalar_classes()
        assert len(classes) == 19 + 2 + 5 + 1 + 1 + 1 + 2  # binaries cmp casts negf select constant math
        for cls in classes:
            attribute = optable.KEY_ATTRIBUTE.get(cls)
            if attribute is None:
                assert cls in optable.ROWS, f"{cls.__name__} has no row"
                continue
            assert cls not in optable.ROWS
            selectors = [key[1] for key in optable.ROWS
                         if isinstance(key, tuple) and key[0] is cls]
            wanted = (math_d.UNARY_FUNCTIONS if attribute == "fn"
                      else arith.CmpPredicate.ALL)
            assert sorted(selectors) == sorted(wanted), cls.__name__
        row_classes = {key[0] if isinstance(key, tuple) else key for key in optable.ROWS}
        assert row_classes == set(classes) | {memref_d.DimOp}

    def test_rows_reference_the_dialects_own_functions(self):
        assert optable.ROWS[arith.DivSIOp].py is arith.DivSIOp.PY_FUNC
        assert (optable.ROWS[math_d.UnaryMathOp, "sqrt"].py
                is math_d.UNARY_FUNCTIONS["sqrt"])
        assert optable.ROWS[math_d.PowFOp].py is math_d.PowFOp.evaluate

    def test_every_c_helper_a_row_names_is_in_the_prelude(self):
        import re
        from repro.runtime.codegen_c import assemble_unit
        bare = assemble_unit([])
        for key, row in optable.ROWS.items():
            for called in re.findall(r"\b(repro_\w+)\(", row.c or ""):
                assert re.search(rf"\b{called}\(", row.helper), (
                    f"{_row_id(key)}: {called} is not defined by the row's helper")
            if row.helper:  # in the prelude of a unit that uses the row, only
                assert row.helper not in bare
                assert row.helper in assemble_unit([optable.render(row.c, "xyz")])

    def test_every_lane_helper_a_row_names_exists(self):
        import re
        for key, row in optable.ROWS.items():
            for called in re.findall(r"\b(_v_\w+)\(", row.lanes or ""):
                assert called in _BASE_NAMESPACE, f"{_row_id(key)}: {called}"

    def test_every_cost_key_exists(self):
        for key, row in optable.ROWS.items():
            assert row.cost is None or row.cost in OP_COSTS, _row_id(key)
        for cls, entry in optable.STATIC_COST.items():
            assert not isinstance(entry, str) or entry in OP_COSTS, cls.__name__


# ---------------------------------------------------------------------------
# Adding an op is one class + one row
# ---------------------------------------------------------------------------
class _MulAddOp(Operation):
    """``test.muladd`` — a * b + c, unknown to every engine module."""

    OP_NAME = "test.muladd"
    IS_PURE = True

    def __init__(self, a, b, c) -> None:
        super().__init__(operands=[a, b, c], result_types=[a.type])


@pytest.mark.parametrize("engines", [["compiled", "vectorized"],
                                     pytest.param(["native"], marks=needs_cc)],
                         ids=["python", "native"])
def test_one_row_is_enough(monkeypatch, engines):
    monkeypatch.setitem(optable.ROWS, _MulAddOp, optable.Row(
        "arith.mulf", lambda a, b, c: a * b + c,
        lanes="({a} * {b} + {c})", c="test_muladd({a}, {b}, {c})",
        helper="static inline double test_muladd(double a, double b, double c)"
               " { return a * b + c; }\n"))
    spec = _Spec([F64] * 3, [FLOAT_EDGES[:7]] * 3, F64, _MulAddOp)
    combos = list(itertools.product(*spec.domains))
    _assert_engines_agree(_MulAddOp, spec, combos, engines)

"""Compiled-engine unit tests: semantics, engine selection, caching, errors.

Differential parity against the interpreter is covered by
``test_engine_parity.py``; these tests pin the compiled engine's own
behaviour — correct execution of every construct family, the
``make_executor`` selection layer, the per-module compile cache and its
invalidation, and error reporting.
"""


import numpy as np
import pytest

from repro.ir import Builder, F32, FunctionType, I32, INDEX, memref, verify
from repro.dialects import arith, func, gpu as gpu_d, memref as memref_d, scf
from repro.runtime import (
    CompiledEngine,
    Interpreter,
    InterpreterError,
    XEON_8375C,
    invalidate_compiled,
    make_executor,
    resolve_engine,
)
from repro.runtime import optable
from repro.runtime.compiler import program_for

from tests.helpers import (
    build_function,
    build_parallel,
    close_parallel,
    const_index,
    finish_function,
    insert_barrier,
)


def _store_result_module(build):
    module = func.ModuleOp()
    fn = func.FuncOp("main", FunctionType((memref((16,), F32),), ()), arg_names=["buf"])
    fn.set_attr("arg_noalias", True)
    module.add_function(fn)
    builder = Builder.at_end(fn.body_block)
    build(fn, builder)
    builder.insert(func.ReturnOp())
    verify(module)
    return module


class TestCompiledSemantics:
    def test_for_loop_with_iter_args(self):
        def build(fn, builder):
            zero = const_index(builder, 0)
            ten = const_index(builder, 10)
            one = const_index(builder, 1)
            init = builder.insert(arith.ConstantOp(0.0, F32))
            loop = builder.insert(scf.ForOp(zero, ten, one, [init.result]))
            inner = Builder.at_end(loop.body)
            as_float = inner.insert(arith.SIToFPOp(
                inner.insert(arith.IndexCastOp(loop.induction_var, I32)).result, F32))
            total = inner.insert(arith.AddFOp(loop.iter_args[0], as_float.result))
            inner.insert(scf.YieldOp([total.result]))
            builder.insert(memref_d.StoreOp(loop.results[0], fn.arguments[0], [zero]))
        module = _store_result_module(build)
        data = np.zeros(16, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(45.0)

    def test_while_loop(self):
        def build(fn, builder):
            counter = builder.insert(memref_d.AllocaOp(memref((), I32))).result
            init = builder.insert(arith.ConstantOp(0, I32))
            builder.insert(memref_d.StoreOp(init.result, counter, []))
            while_op = builder.insert(scf.WhileOp([]))
            before = Builder.at_end(while_op.before_block)
            current = before.insert(memref_d.LoadOp(counter, []))
            limit = before.insert(arith.ConstantOp(5, I32))
            cond = before.insert(arith.CmpIOp(arith.CmpPredicate.LT, current.result, limit.result))
            before.insert(scf.ConditionOp(cond.result))
            after = Builder.at_end(while_op.after_block)
            value = after.insert(memref_d.LoadOp(counter, []))
            one = after.insert(arith.ConstantOp(1, I32))
            incremented = after.insert(arith.AddIOp(value.result, one.result))
            after.insert(memref_d.StoreOp(incremented.result, counter, []))
            after.insert(scf.YieldOp())
            final = builder.insert(memref_d.LoadOp(counter, []))
            as_float = builder.insert(arith.SIToFPOp(final.result, F32))
            builder.insert(memref_d.StoreOp(as_float.result, fn.arguments[0], [const_index(builder, 0)]))
        module = _store_result_module(build)
        data = np.zeros(16, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(5.0)

    def test_if_with_results_and_select(self):
        def build(fn, builder):
            a = builder.insert(arith.ConstantOp(5, I32))
            b = builder.insert(arith.ConstantOp(3, I32))
            cond = builder.insert(arith.CmpIOp(arith.CmpPredicate.GT, a.result, b.result))
            if_op = builder.insert(scf.IfOp(cond.result, [F32]))
            then = Builder.at_end(if_op.then_block)
            then.insert(scf.YieldOp([then.insert(arith.ConstantOp(1.0, F32)).result]))
            otherwise = Builder.at_end(if_op.else_block)
            otherwise.insert(scf.YieldOp([otherwise.insert(arith.ConstantOp(-1.0, F32)).result]))
            picked = builder.insert(arith.SelectOp(cond.result, if_op.results[0],
                                                   if_op.results[0]))
            builder.insert(memref_d.StoreOp(picked.result, fn.arguments[0], [const_index(builder, 0)]))
        module = _store_result_module(build)
        data = np.zeros(16, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(1.0)

    def test_call_returns_value(self):
        module = func.ModuleOp()
        callee = func.FuncOp("square", FunctionType((F32,), (F32,)), device=True, arg_names=["x"])
        module.add_function(callee)
        cb = Builder.at_end(callee.body_block)
        squared = cb.insert(arith.MulFOp(callee.arguments[0], callee.arguments[0]))
        cb.insert(func.ReturnOp([squared.result]))
        main = func.FuncOp("main", FunctionType((memref((4,), F32),), ()), arg_names=["buf"])
        module.add_function(main)
        mb = Builder.at_end(main.body_block)
        c = mb.insert(arith.ConstantOp(3.0, F32))
        result = mb.insert(func.CallOp("square", [c.result], [F32]))
        mb.insert(memref_d.StoreOp(result.result, main.arguments[0],
                                   [mb.insert(arith.ConstantOp(0, INDEX)).result]))
        mb.insert(func.ReturnOp())
        data = np.zeros(4, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(9.0)

    def test_simt_barrier_phases(self):
        """Shared-memory reverse needs real barrier semantics and phase counts."""
        module, fn, builder = build_function("main", [memref((16,), F32), memref((16,), F32)],
                                             ["inp", "out"], noalias=True)
        shared = builder.insert(memref_d.AllocaOp(memref((16,), F32, "shared"))).result
        loop, inner = build_parallel(builder, 16)
        tid = loop.induction_vars[0]
        val = inner.insert(memref_d.LoadOp(fn.arguments[0], [tid]))
        inner.insert(memref_d.StoreOp(val.result, shared, [tid]))
        insert_barrier(inner, [tid])
        fifteen = const_index(inner, 15)
        mirrored = inner.insert(arith.SubIOp(fifteen, tid))
        other = inner.insert(memref_d.LoadOp(shared, [mirrored.result]))
        inner.insert(memref_d.StoreOp(other.result, fn.arguments[1], [tid]))
        close_parallel(inner)
        finish_function(builder)

        inp = np.arange(16, dtype=np.float32)
        out = np.zeros(16, dtype=np.float32)
        engine = CompiledEngine(module)
        engine.run("main", [inp, out])
        assert np.allclose(out, inp[::-1])
        assert engine.report.simt_phases == 2  # straight-line body → 2 phase chunks

    def test_gpu_launch_shared_memory_reduction(self):
        """Barriers under a loop take the compiled-generator SIMT path."""
        module = func.ModuleOp()
        n_blocks, block_size = 2, 8
        n = n_blocks * block_size
        fn = func.FuncOp("host", FunctionType((memref((n,), F32), memref((n_blocks,), F32)), ()),
                         arg_names=["data", "out"])
        fn.set_attr("arg_noalias", True)
        module.add_function(fn)
        builder = Builder.at_end(fn.body_block)
        grid = builder.insert(arith.ConstantOp(n_blocks, INDEX)).result
        block = builder.insert(arith.ConstantOp(block_size, INDEX)).result
        one = builder.insert(arith.ConstantOp(1, INDEX)).result
        launch = builder.insert(gpu_d.LaunchOp([grid, one, one], [block, one, one]))
        body = Builder.at_end(launch.body)
        bx, tx = launch.block_ids[0], launch.thread_ids[0]
        bdim = launch.block_dim_args[0]
        shared = body.insert(memref_d.AllocaOp(memref((block_size,), F32, "shared"))).result
        gid = body.insert(arith.AddIOp(body.insert(arith.MulIOp(bx, bdim)).result, tx))
        val = body.insert(memref_d.LoadOp(fn.arguments[0], [gid.result]))
        body.insert(memref_d.StoreOp(val.result, shared, [tx]))
        body.insert(gpu_d.BarrierOp())
        zero = body.insert(arith.ConstantOp(0, INDEX)).result
        three = body.insert(arith.ConstantOp(3, INDEX)).result
        four = body.insert(arith.ConstantOp(4, INDEX)).result
        loop = body.insert(scf.ForOp(zero, three, one, iv_name="step"))
        lb = Builder.at_end(loop.body)
        stride = lb.insert(arith.ShRSIOp(four, loop.induction_var))
        cond = lb.insert(arith.CmpIOp(arith.CmpPredicate.LT, tx, stride.result))
        guard = lb.insert(scf.IfOp(cond.result, with_else=False))
        then = Builder.at_end(guard.then_block)
        partner = then.insert(arith.AddIOp(tx, stride.result))
        mine = then.insert(memref_d.LoadOp(shared, [tx]))
        other = then.insert(memref_d.LoadOp(shared, [partner.result]))
        then.insert(memref_d.StoreOp(then.insert(arith.AddFOp(mine.result, other.result)).result,
                                     shared, [tx]))
        then.insert(scf.YieldOp())
        lb.insert(gpu_d.BarrierOp())
        lb.insert(scf.YieldOp())
        is_first = body.insert(arith.CmpIOp(arith.CmpPredicate.EQ, tx, zero))
        write = body.insert(scf.IfOp(is_first.result, with_else=False))
        wb = Builder.at_end(write.then_block)
        total = wb.insert(memref_d.LoadOp(shared, [zero]))
        wb.insert(memref_d.StoreOp(total.result, fn.arguments[1], [bx]))
        wb.insert(scf.YieldOp())
        body.insert(scf.YieldOp())
        builder.insert(func.ReturnOp())
        verify(module)

        rng = np.random.default_rng(0)
        data = rng.standard_normal(n).astype(np.float32)
        out = np.zeros(n_blocks, dtype=np.float32)
        CompiledEngine(module).run("host", [data.copy(), out])
        assert np.allclose(out, data.reshape(n_blocks, -1).sum(axis=1), rtol=1e-5)


class TestInlineTemplates:
    """The inline source templates must stay in lockstep with the ops'
    ``PY_FUNC`` / ``CmpPredicate`` evaluations they shortcut."""

    BOUNDARY_PAIRS = [(0, 0), (0, 1), (1, 0), (-3, 2), (7, -2), (-5, -5),
                      (0.0, 0.0), (1.5, -2.5), (-0.75, 0.25), (3.0, 0.0)]

    @pytest.mark.parametrize("op_class", sorted(
        (key for key, row in optable.ROWS.items()
         if isinstance(key, type) and issubclass(key, arith.BinaryOp) and row.inline),
        key=lambda c: c.__name__))
    def test_binary_templates_match_py_func(self, op_class):
        template = optable.ROWS[op_class].inline
        for a, b in self.BOUNDARY_PAIRS:
            expected = op_class.PY_FUNC(a, b)
            actual = eval(template.format(a=repr(a), b=repr(b)))
            assert actual == expected or (actual != actual and expected != expected), (
                f"{op_class.__name__}: template {template!r} diverges from "
                f"PY_FUNC on ({a}, {b}): {actual!r} != {expected!r}")

    @pytest.mark.parametrize("predicate", sorted(arith.CmpPredicate.ALL))
    def test_cmp_templates_match_predicates(self, predicate):
        template = optable.ROWS[arith.CmpIOp, predicate].inline
        for a, b in self.BOUNDARY_PAIRS:
            expected = arith.CmpPredicate.evaluate(predicate, a, b)
            actual = eval(template.format(a=repr(a), b=repr(b)))
            assert actual == expected

    def test_every_predicate_has_a_template(self):
        for cls in (arith.CmpIOp, arith.CmpFOp):
            assert ({key[1] for key in optable.ROWS
                     if isinstance(key, tuple) and key[0] is cls}
                    == set(arith.CmpPredicate.ALL))


class TestEngineSelection:
    def test_make_executor_types(self):
        module = func.ModuleOp()
        # interp is the floor of the fallback chain and is never wrapped
        assert type(make_executor(module, engine="interp")) is Interpreter
        assert type(make_executor(module, engine="compiled").inner) is CompiledEngine
        assert type(make_executor(module).inner) is CompiledEngine  # default

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("jit")

    def test_env_var_overrides_default(self, monkeypatch):
        module = func.ModuleOp()
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        assert type(make_executor(module)) is Interpreter
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        assert type(make_executor(module).inner) is CompiledEngine


class TestCompileCache:
    def _constant_store_module(self):
        module, fn, builder = build_function("main", [memref((4,), F32)], ["buf"])
        constant = builder.insert(arith.ConstantOp(2.0, F32))
        builder.insert(memref_d.StoreOp(constant.result, fn.arguments[0],
                                        [const_index(builder, 0)]))
        finish_function(builder)
        return module, constant

    def test_program_cached_per_module_and_machine(self):
        module, _ = self._constant_store_module()
        assert program_for(module, XEON_8375C) is program_for(module, XEON_8375C)

    def test_invalidate_compiled_recompiles(self):
        module, constant = self._constant_store_module()
        data = np.zeros(4, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(2.0)

        # mutating an already-executed module requires explicit invalidation
        constant.attributes["value"] = 5.0
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(2.0)  # stale by design (documented)
        invalidate_compiled(module)
        CompiledEngine(module).run("main", [data])
        assert data[0] == pytest.approx(5.0)


class TestErrors:
    def test_unknown_function(self):
        with pytest.raises(InterpreterError, match="no function body"):
            CompiledEngine(func.ModuleOp()).run("missing", [])

    def test_argument_arity(self):
        module, fn, builder = build_function("main", [memref((4,), F32)], ["buf"])
        finish_function(builder)
        with pytest.raises(InterpreterError, match="expected 1 arguments, got 0"):
            CompiledEngine(module).run("main", [])

    def test_barrier_outside_parallel(self):
        module, fn, builder = build_function("main", [memref((4,), F32)], ["buf"])
        insert_barrier(builder, [])
        finish_function(builder)
        with pytest.raises(InterpreterError, match="outside a parallel context"):
            CompiledEngine(module).run("main", [np.zeros(4, dtype=np.float32)])

    def test_dynamic_op_budget(self):
        module, fn, builder = build_function("main", [memref((64,), F32)], ["buf"])
        loop, inner = build_parallel(builder, 64)
        tid = loop.induction_vars[0]
        as_float = inner.insert(arith.SIToFPOp(
            inner.insert(arith.IndexCastOp(tid, I32)).result, F32))
        inner.insert(memref_d.StoreOp(as_float.result, fn.arguments[0], [tid]))
        close_parallel(inner)
        finish_function(builder)
        with pytest.raises(InterpreterError, match="budget exceeded"):
            CompiledEngine(module, max_dynamic_ops=10).run(
                "main", [np.zeros(64, dtype=np.float32)])

    def test_collect_cost_disabled(self):
        module, fn, builder = build_function("main", [memref((8,), F32)], ["buf"])
        loop, inner = build_parallel(builder, 8)
        tid = loop.induction_vars[0]
        as_float = inner.insert(arith.SIToFPOp(
            inner.insert(arith.IndexCastOp(tid, I32)).result, F32))
        inner.insert(memref_d.StoreOp(as_float.result, fn.arguments[0], [tid]))
        close_parallel(inner)
        finish_function(builder)
        engine = CompiledEngine(module, collect_cost=False)
        engine.run("main", [np.zeros(8, dtype=np.float32)])
        assert engine.report.cycles == 0.0
        assert engine.report.dynamic_ops > 0

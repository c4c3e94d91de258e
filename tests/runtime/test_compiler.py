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
from repro.dialects import arith, func, gpu as gpu_d, memref as memref_d, omp as omp_d, scf
from repro.runtime import (
    CompiledEngine,
    Interpreter,
    InterpreterError,
    NativeEngine,
    VectorizedEngine,
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
    run_engine_matrix,
    run_unlowered,
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
        """Shared-memory reverse needs real barrier semantics and phase counts:
        the compiled engine hands the SIMT region to the interpreter."""
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
        assert engine.report.simt_phases == 2
        assert [region["tier"] for region in engine.regions] == ["interp"]

    def test_gpu_launch_shared_memory_reduction(self):
        """Barriers under a loop: the launch runs on the interpreter."""
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


def _bump(builder, buf, index):
    """``buf[index] += 1.0`` — the innermost body of the nests below."""
    old = builder.insert(memref_d.LoadOp(buf, [index]))
    one = builder.insert(arith.ConstantOp(1.0, F32))
    builder.insert(memref_d.StoreOp(
        builder.insert(arith.AddFOp(old.result, one.result)).result, buf, [index]))


def _nest_for(builder, depth, innermost):
    for level in range(depth):
        loop = builder.insert(scf.ForOp(
            const_index(builder, 0), const_index(builder, 2 if level % 8 == 0 else 1),
            const_index(builder, 1)))
        Builder.at_end(loop.body).insert(scf.YieldOp())
        builder = Builder.before_op(loop.body.terminator)
    innermost(builder)


def _nest_while(builder, depth, innermost):
    """Each level carries a counter through init → before → after → yield."""
    for level in range(depth):
        loop = builder.insert(scf.WhileOp([const_index(builder, 0)]))
        before = Builder.at_end(loop.before_block)
        count = loop.before_block.arguments[0]
        more = before.insert(arith.CmpIOp(
            arith.CmpPredicate.LT, count, const_index(before, 2 if level % 8 == 0 else 1)))
        before.insert(scf.ConditionOp(more.result, [count]))
        after = Builder.at_end(loop.after_block)
        bumped = after.insert(arith.AddIOp(loop.after_block.arguments[0],
                                           const_index(after, 1)))
        after.insert(scf.YieldOp([bumped.result]))
        builder = Builder.before_op(bumped)
    innermost(builder)


def _nest_if(builder, depth, innermost):
    true = builder.insert(arith.CmpIOp(arith.CmpPredicate.EQ, const_index(builder, 0),
                                       const_index(builder, 0))).result
    for _ in range(depth):
        branch = builder.insert(scf.IfOp(true, with_else=False))
        Builder.at_end(branch.then_block).insert(scf.YieldOp())
        builder = Builder.before_op(branch.then_block.terminator)
    innermost(builder)


class TestWholeFunctionGeneration:
    """A compiled function is one generated Python function; these pin what
    that could break, against the interpreter (outputs and CostReport)."""

    @pytest.mark.parametrize("nest,depth", [(_nest_for, 25), (_nest_while, 25),
                                            (_nest_if, 110)])
    def test_nests_deeper_than_cpython_allows_inline(self, nest, depth):
        """CPython refuses >20 statically nested loops and >100 indentation
        levels: a naive whole-function emitter dies with SyntaxError here."""
        module, fn, builder = build_function("main", [memref((4,), F32)], ["buf"])
        loop, inner = build_parallel(builder, 4)
        nest(inner, depth, lambda b: _bump(b, fn.arguments[0], loop.induction_vars[0]))
        close_parallel(inner)
        finish_function(builder)
        verify(module)
        run_engine_matrix(module, "main", lambda: [np.zeros(4, dtype=np.float32)], [0],
                          engines=("interp", "compiled", "vectorized"), label=nest.__name__)

    def test_for_iter_args_with_permuted_yields(self):
        """``yield %b, %a``: every carried value reads its pre-update register."""
        def build(fn, builder):
            a = builder.insert(arith.ConstantOp(1.0, F32))
            b = builder.insert(arith.ConstantOp(2.0, F32))
            loop = builder.insert(scf.ForOp(const_index(builder, 0), const_index(builder, 3),
                                            const_index(builder, 1), [a.result, b.result]))
            inner = Builder.at_end(loop.body)
            grown = inner.insert(arith.AddFOp(loop.iter_args[0], loop.iter_args[1]))
            inner.insert(scf.YieldOp([loop.iter_args[1], grown.result]))
            for index, result in enumerate(loop.results):
                builder.insert(memref_d.StoreOp(result, fn.arguments[0],
                                                [const_index(builder, index)]))
        module = _store_result_module(build)
        run_engine_matrix(module, "main", lambda: [np.zeros(16, dtype=np.float32)], [0],
                          engines=("interp", "compiled"))
        data = np.zeros(16, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert list(data[:2]) == [5.0, 8.0]  # (1,2) -> (2,3) -> (3,5) -> (5,8)

    def test_while_forwarding_values(self):
        """Results are what ``scf.condition`` forwards at exit, and the after
        region receives them — more values than the one the loop carries."""
        def build(fn, builder):
            loop = builder.insert(scf.WhileOp([const_index(builder, 0)], [INDEX, INDEX]))
            before = Builder.at_end(loop.before_block)
            count = loop.before_block.arguments[0]
            more = before.insert(arith.CmpIOp(arith.CmpPredicate.LT, count,
                                              const_index(before, 4)))
            tenfold = before.insert(arith.MulIOp(count, const_index(before, 10)))
            before.insert(scf.ConditionOp(more.result, [count, tenfold.result]))
            after = Builder.at_end(loop.after_block)
            index, value = loop.after_block.arguments
            seen = after.insert(arith.SIToFPOp(
                after.insert(arith.IndexCastOp(value, I32)).result, F32))
            after.insert(memref_d.StoreOp(seen.result, fn.arguments[0], [index]))
            after.insert(scf.YieldOp([after.insert(arith.AddIOp(
                index, const_index(after, 1))).result]))
            last = builder.insert(arith.SIToFPOp(builder.insert(arith.IndexCastOp(
                loop.results[1], I32)).result, F32))
            builder.insert(memref_d.StoreOp(last.result, fn.arguments[0], [loop.results[0]]))
        module = _store_result_module(build)
        run_engine_matrix(module, "main", lambda: [np.zeros(16, dtype=np.float32)], [0],
                          engines=("interp", "compiled"))
        data = np.zeros(16, dtype=np.float32)
        CompiledEngine(module).run("main", [data])
        assert list(data[:5]) == [0.0, 10.0, 20.0, 30.0, 40.0]

    @staticmethod
    def _simt_module(build_body, callee=None):
        """``out[tid] = f(inp)`` over 8 SIMT threads sharing one buffer."""
        module, fn, builder = build_function(
            "main", [memref((8,), F32), memref((8,), F32)], ["inp", "out"])
        if callee is not None:
            module.add_function(callee)
        shared = builder.insert(memref_d.AllocaOp(memref((8,), F32, "shared"))).result
        loop, inner = build_parallel(builder, 8)
        build_body(fn, inner, shared, loop.induction_vars[0])
        close_parallel(inner)
        finish_function(builder)
        verify(module)
        return module

    @staticmethod
    def _agree_simt(module):
        """Every row delegates the SIMT region; the interpreter's output."""
        out = np.zeros(8, dtype=np.float32)
        run_unlowered(module, "main", lambda: [np.arange(8, dtype=np.float32), out])
        return out

    def test_if_with_results_around_a_barrier(self):
        """The barrier sits under ``scf.if``, and the branch yields a value
        across the suspension: no compiled function suspends, so no row
        compiles the region."""
        def build_body(fn, inner, shared, tid):
            mine = inner.insert(memref_d.LoadOp(fn.arguments[0], [tid]))
            inner.insert(memref_d.StoreOp(mine.result, shared, [tid]))
            always = inner.insert(arith.CmpIOp(arith.CmpPredicate.EQ, const_index(inner, 0),
                                               const_index(inner, 0)))
            branch = inner.insert(scf.IfOp(always.result, [F32]))
            then = Builder.at_end(branch.then_block)
            insert_barrier(then, [tid])
            mirrored = then.insert(arith.SubIOp(const_index(then, 7), tid))
            then.insert(scf.YieldOp([then.insert(
                memref_d.LoadOp(shared, [mirrored.result])).result]))
            otherwise = Builder.at_end(branch.else_block)
            otherwise.insert(scf.YieldOp([mine.result]))
            inner.insert(memref_d.StoreOp(branch.results[0], fn.arguments[1], [tid]))
        module = self._simt_module(build_body)
        assert list(self._agree_simt(module)) == list(range(7, -1, -1))
        engine = CompiledEngine(module)
        engine.run("main", [np.arange(8, dtype=np.float32), np.zeros(8, dtype=np.float32)])
        assert engine.report.simt_phases == 2

    @pytest.mark.parametrize("barrier_in_callee", [True, False])
    def test_call_from_a_simt_body(self, barrier_in_callee):
        """A SIMT body calling a callee that may reach a barrier, or not:
        the region is the interpreter's under every row either way."""
        shared_type = memref((8,), F32, "shared")
        callee = func.FuncOp("exchange", FunctionType((shared_type, INDEX, F32), (F32,)),
                             device=True, arg_names=["shared", "tid", "x"])
        cb = Builder.at_end(callee.body_block)
        shared_arg, tid_arg, x = callee.arguments
        cb.insert(memref_d.StoreOp(x, shared_arg, [tid_arg]))
        if barrier_in_callee:
            insert_barrier(cb, [])
            tid_arg = cb.insert(arith.SubIOp(const_index(cb, 7), tid_arg)).result
        cb.insert(func.ReturnOp([cb.insert(memref_d.LoadOp(shared_arg, [tid_arg])).result]))

        def build_body(fn, inner, shared, tid):
            mine = inner.insert(memref_d.LoadOp(fn.arguments[0], [tid]))
            got = inner.insert(func.CallOp("exchange", [shared, tid, mine.result], [F32]))
            # the region's own barrier, under control flow
            always = inner.insert(arith.CmpIOp(arith.CmpPredicate.EQ, const_index(inner, 0),
                                               const_index(inner, 0)))
            guard = inner.insert(scf.IfOp(always.result, with_else=False))
            then = Builder.at_end(guard.then_block)
            insert_barrier(then, [tid])
            then.insert(scf.YieldOp())
            inner.insert(memref_d.StoreOp(got.result, fn.arguments[1], [tid]))
        module = self._simt_module(build_body, callee)
        out = self._agree_simt(module)
        assert list(out) == list(range(7, -1, -1) if barrier_in_callee else range(8))


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


def _barrier_between_stores(placement):
    """``buf[i] = 1``, a barrier, ``buf[i] = 2`` where cpuify would never
    leave one — ``i`` is 0, or the workshared loop's index."""
    module, fn, builder = build_function("main", [memref((4,), F32)], ["buf"])

    def stores_around_a_barrier(b, buf, index):
        b.insert(memref_d.StoreOp(b.insert(arith.ConstantOp(1.0, F32)).result, buf, [index]))
        insert_barrier(b, [])
        b.insert(memref_d.StoreOp(b.insert(arith.ConstantOp(2.0, F32)).result, buf, [index]))

    buf = fn.arguments[0]
    if placement == "function body":
        stores_around_a_barrier(builder, buf, const_index(builder, 0))
    else:
        team = Builder.at_end(builder.insert(omp_d.OmpParallelOp()).body)
        if placement == "omp.parallel":
            stores_around_a_barrier(team, buf, const_index(team, 0))
        elif placement == "omp.wsloop":
            loop = team.insert(omp_d.OmpWsLoopOp(
                [const_index(team, 0)], [const_index(team, 4)], [const_index(team, 1)]))
            stores_around_a_barrier(Builder.at_end(loop.body), buf, loop.induction_vars[0])
        elif placement == "omp.single":
            single = Builder.at_end(team.insert(omp_d.OmpSingleOp()).body)
            stores_around_a_barrier(single, buf, const_index(single, 0))
        else:  # a callee reached from omp.parallel
            callee = func.FuncOp("put", FunctionType((memref((4,), F32),), ()),
                                 device=True, arg_names=["buf"])
            module.add_function(callee)
            body = Builder.at_end(callee.body_block)
            stores_around_a_barrier(body, callee.arguments[0], const_index(body, 0))
            body.insert(func.ReturnOp())
            team.insert(func.CallOp("put", [buf], []))
    finish_function(builder)
    return module


class TestBarrierEscapes:
    """A barrier in a context that does not suspend is the line ``raise
    _BE()`` in compiled code; every context shell names the context with
    the interpreter's exact message, and what was stored before the barrier
    is what the interpreter stored."""

    @pytest.mark.parametrize("engine_cls", [CompiledEngine, VectorizedEngine, NativeEngine])
    @pytest.mark.parametrize("placement, message", [
        ("function body", "barrier executed outside a parallel context"),
        ("omp.parallel", "GPU barrier inside an OpenMP region"),
        ("omp.wsloop", "GPU barrier inside a workshared loop"),
        ("omp.single", "GPU barrier inside omp.single"),
        ("callee of omp.parallel", "GPU barrier inside an OpenMP region"),
    ])
    def test_same_message_and_stores_as_the_interpreter(self, placement, message,
                                                        engine_cls):
        module = _barrier_between_stores(placement)
        results = []
        for engine in (Interpreter(module), engine_cls(module)):
            buf = np.zeros(4, dtype=np.float32)
            with pytest.raises(InterpreterError) as raised:
                engine.run("main", [buf])
            results.append((str(raised.value), list(buf)))
        assert results[0] == results[1] == (message, [1.0, 0.0, 0.0, 0.0])

"""Lane facts and the store check over them: soundness, attacked directly.

``RegionPlan.parallel_proof == frozenset()`` licenses running a span's
iterations concurrently, in emitted OpenMP C and across worker processes.
These tests build spans by hand — the shapes the frontend never emits are
where the analysis was wrong — and hold the proof to what it claims: a span
whose iterations store to a common location is refused (by name, or with a
dim that must be singleton), every parallel engine then equals ``interp``,
and over random span bodies an empty proof implies pairwise-disjoint
per-iteration store-address sets.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.lanes import FIXED, VARYING, LaneFacts
from repro.analysis.region import RegionPlans
from repro.dialects import arith, memref as memref_d, scf
from repro.ir import INDEX, Builder, memref, verify
from repro.runtime import make_executor, native_available, shutdown_worker_pools
from tests.helpers import (build_function, close_parallel, const_index,
                           finish_function)

ROOT = Path(__file__).resolve().parents[2]
EXTENT = 256     # two OpenMP threads under schedule(static): lanes 0-127, 128-255
BOUNDARY = 128   # the first lane of the second thread


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


def _span(body, extent=EXTENT, size=2 * EXTENT):
    """``main(out: memref<size x index>, u: index, lo: index, hi: index)``
    holding one ``scf.parallel`` over ``[0, extent)`` — over ``[lo, hi)`` when
    ``extent`` is None — whose body ``body(builder, iv, out, u)`` emits."""
    module, fn, b = build_function("main", [memref((size,), INDEX), INDEX, INDEX, INDEX])
    out, u, lo, hi = fn.arguments
    if extent is not None:
        lo, hi = const_index(b, 0), const_index(b, extent)
    span = b.insert(scf.ParallelOp([lo], [hi], [const_index(b, 1)]))
    inner = Builder.at_end(span.body)
    body(inner, span.induction_vars[0], out, u)
    close_parallel(inner)
    finish_function(b)
    verify(module)
    return module, span


def _for(b, upper, inits=()):
    """An ``scf.for`` from 0 to ``upper`` step 1 and a builder in its body."""
    loop = b.insert(scf.ForOp(const_index(b, 0), upper, const_index(b, 1), list(inits)))
    return loop, Builder.at_end(loop.body)


def _add(b, lhs, rhs):
    return b.insert(arith.AddIOp(lhs, rhs)).result


def _store(b, value, out, index):
    b.insert(memref_d.StoreOp(value, out, [index]))


# -- the racy spans: each stores to one location from two lanes --------------------
def _if_result(b, iv, out, u):
    """``out[iv + r]``, ``r = (iv == 128) ? 0 : 1``: lanes 127 and 128 meet."""
    cond = b.insert(arith.CmpIOp("eq", iv, const_index(b, BOUNDARY))).result
    branch = b.insert(scf.IfOp(cond, [INDEX]))
    for block, value in ((branch.then_block, 0), (branch.else_block, 1)):
        inner = Builder.at_end(block)
        inner.insert(scf.YieldOp([const_index(inner, value)]))
    _store(b, iv, out, _add(b, iv, branch.results[0]))


def _trip_count(b, iv, out, u):
    """``out[iv - k]``, ``k`` counted by a loop of ``iv`` trips: all meet at 0."""
    loop, inner = _for(b, iv, [const_index(b, 0)])
    inner.insert(scf.YieldOp([_add(inner, loop.iter_args[0], const_index(inner, 1))]))
    _store(b, iv, out, b.insert(arith.SubIOp(iv, loop.results[0])).result)


def _loop_offset(b, iv, out, u):
    """``for j in 0..2: out[iv + j]``: lane 127 at j = 1 meets lane 128 at j = 0."""
    loop, inner = _for(b, const_index(b, 2))
    _store(inner, iv, out, _add(inner, iv, loop.induction_var))
    inner.insert(scf.YieldOp())


def _carried_index(b, iv, out, u):
    """The same addresses, the index carried as an iter-arg ``iv, iv + 1``."""
    loop, inner = _for(b, const_index(b, 2), [iv])
    _store(inner, iv, out, loop.iter_args[0])
    inner.insert(scf.YieldOp([_add(inner, loop.iter_args[0], const_index(inner, 1))]))


def _two_stores(b, iv, out, u):
    """``out[iv + 1]`` then ``out[iv]``: each injective, lane 127's first is
    lane 128's second."""
    _store(b, iv, out, _add(b, iv, const_index(b, 1)))
    _store(b, iv, out, iv)


RACY = {"if_result": _if_result, "trip_count": _trip_count,
        "loop_offset": _loop_offset, "carried_index": _carried_index,
        "two_stores": _two_stores}


def _run(module, engine, **kwargs):
    out = np.zeros(2 * EXTENT, dtype=np.int64)
    make_executor(module, engine=engine, **kwargs).run("main", [out, 3, 0, 0])
    return out


def _native_soak(runs=200):
    """Subprocess entry (``OMP_NUM_THREADS=2``): every racy span, ``runs``
    times on ``native``, against ``interp``."""
    for name, body in RACY.items():
        module, _ = _span(body)
        expected = _run(module, "interp")
        executor = make_executor(module, engine="native")
        wrong = 0
        for _ in range(runs):
            out = np.zeros(2 * EXTENT, dtype=np.int64)
            executor.run("main", [out, 3, 0, 0])
            wrong += not np.array_equal(out, expected)
        assert executor.native_stats["native_dispatches"] == runs, name
        assert not wrong, f"{name}: {wrong} of {runs} native runs differ from interp"


class TestRacySpansAreRefused:
    @pytest.mark.parametrize("name", sorted(RACY))
    def test_proof_is_not_the_empty_set(self, name):
        module, span = _span(RACY[name])
        plan = RegionPlans(module).plan(span)
        proof = plan.parallel_proof
        assert proof != frozenset(), "licensed to run in parallel"
        assert proof == frozenset({0}) or (
            proof is None and [cap for cap, _ in plan.refusals] == ["parallel"])

    @pytest.mark.parametrize("name", sorted(RACY))
    def test_multicore_equals_interp(self, name):
        module, _ = _span(RACY[name])
        expected = _run(module, "interp")
        for _ in range(10):  # sharded, about every second run differed
            np.testing.assert_array_equal(_run(module, "multicore", workers=2), expected)

    @pytest.mark.skipif(not native_available(), reason="no working cc -fopenmp")
    def test_native_equals_interp_on_two_threads(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "from tests.analysis.test_lane_facts import _native_soak; _native_soak()"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OMP_NUM_THREADS="2",
                     PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)])))
        assert done.returncode == 0, done.stderr[-2000:]


class TestTransferFunctions:
    def _facts(self, body):
        values = {}
        _, span = _span(lambda b, iv, out, u: values.update(body(b, iv, out, u)))
        facts = LaneFacts(span)
        return {name: (facts.of(value), facts.varies(value))
                for name, value in values.items()}

    def test_control_dependence(self):
        def body(b, iv, out, u):
            _if_result(b, iv, out, u)
            _trip_count(b, iv, out, u)
            branch, loop = [op for op in b.block.operations
                            if isinstance(op, (scf.IfOp, scf.ForOp))]
            return {"if": branch.results[0], "iv": loop.induction_var,
                    "arg": loop.iter_args[0], "for": loop.results[0]}

        assert set(self._facts(body).values()) == {(VARYING, True)}

    def test_uniform_values_are_fixed_outside_loops_only(self):
        def body(b, iv, out, u):
            loop, inner = _for(b, u, [u])
            offset = _add(inner, loop.induction_var, u)
            lane_offset = _add(inner, iv, offset)
            inner.insert(scf.YieldOp([offset]))
            return {"j": loop.induction_var, "j + u": offset, "arg": loop.iter_args[0],
                    "result": loop.results[0], "iv + j": lane_offset,
                    "iv + result": _add(b, iv, loop.results[0])}

        facts = self._facts(body)
        (kind, bound, fixed), per_lane = facts["j"]
        assert (kind, bound is not None, fixed, per_lane) == ("u", True, False, False)
        assert facts["j + u"] == facts["arg"] == (("u", None, False), False)
        assert facts["result"] == (FIXED, False)
        assert facts["iv + j"] == (VARYING, True)
        assert facts["iv + result"] == (("i", None, frozenset({0})), True)

    def test_nothing_computed_from_a_lane_is_uniform(self):
        """``iv * 0`` used to be called uniform; Canonicalize folds it."""
        def body(b, iv, out, u):
            return {"iv * 0": b.insert(arith.MulIOp(iv, const_index(b, 0))).result}

        (desc, per_lane), = self._facts(body).values()
        assert desc[0] == "s" and per_lane

    def test_a_cell_is_as_good_as_its_dominating_store(self):
        def body(b, iv, out, u):
            cells = [b.insert(memref_d.AllocaOp(memref((), INDEX))).result
                     for _ in range(3)]
            b.insert(memref_d.StoreOp(u, cells[0], []))
            b.insert(memref_d.StoreOp(iv, cells[1], []))
            cond = b.insert(arith.CmpIOp("lt", iv, u)).result
            inner = Builder.at_end(b.insert(scf.IfOp(cond, with_else=False)).then_block)
            inner.insert(memref_d.StoreOp(u, cells[2], []))
            inner.insert(scf.YieldOp())
            return {name: b.insert(memref_d.LoadOp(cell, [])).result
                    for name, cell in zip(("uniform", "lane", "guarded"), cells)}

        facts = self._facts(body)
        assert facts["uniform"] == (FIXED, True)  # one value, held per lane
        assert facts["lane"][0][0] == "i"
        assert facts["guarded"] == (VARYING, True)


# -- property: an empty proof means disjoint per-iteration store sets -------------
LANES = 6
SIZE, BIAS = 1 << 16, 1 << 15


class _RandomBody:
    """A span body drawn from a seed: stores ``out[E + BIAS]`` under
    ``scf.for`` / ``scf.if``, ``E`` over ``iv``, constants, the uniform
    argument, ``addi`` / ``subi`` / ``muli``, rank-0 cells, ``scf.if`` results
    and ``scf.for`` iter-args.  The same seed builds the same body twice."""

    def __init__(self, seed):
        self.seed = seed

    def __call__(self, b, iv, out, u):
        self.out, self.pick = out, random.Random(self.seed).randrange
        self.small = [iv, u] + [const_index(b, value) for value in range(4)]
        self.statements(b, list(self.small), depth=2)

    def expr(self, b, env, depth):
        kind = self.pick(9) if depth else 0
        if kind < 2:
            return env[self.pick(len(env))]
        if kind < 5:
            op = (arith.AddIOp, arith.SubIOp, arith.MulIOp)[kind - 2]
            pool = self.small if op is arith.MulIOp else None  # products stay small
            operands = [pool[self.pick(len(pool))] if pool else self.expr(b, env, depth - 1)
                        for _ in range(2)]
            return b.insert(op(*operands)).result
        if kind == 5:  # a rank-0 cell, stored at once or under a condition
            cell = b.insert(memref_d.AllocaOp(memref((), INDEX))).result
            value, target = self.expr(b, env, depth - 1), b
            if self.pick(3) == 0:
                branch = b.insert(scf.IfOp(self.cond(b, env, depth), with_else=False))
                target = Builder.at_end(branch.then_block)
            target.insert(memref_d.StoreOp(value, cell, []))
            if target is not b:
                target.insert(scf.YieldOp())
            return b.insert(memref_d.LoadOp(cell, [])).result
        if kind == 6:
            branch = b.insert(scf.IfOp(self.cond(b, env, depth), [INDEX]))
            for block in (branch.then_block, branch.else_block):
                inner = Builder.at_end(block)
                inner.insert(scf.YieldOp([self.expr(inner, env, depth - 1)]))
            return branch.results[0]
        return self.loop(b, env, depth, with_stores=False).results[0]

    def cond(self, b, env, depth):
        return b.insert(arith.CmpIOp(("eq", "lt")[self.pick(2)],
                                     self.expr(b, env, depth - 1),
                                     self.expr(b, env, depth - 1))).result

    def loop(self, b, env, depth, with_stores):
        loop, inner = _for(b, self.small[self.pick(len(self.small))],
                           [self.expr(b, env, depth - 1)])
        if with_stores:
            self.statements(inner, env + [loop.induction_var, loop.iter_args[0]], depth - 1)
        step = self.expr(inner, self.small + [loop.induction_var], 1)  # sums stay small
        inner.insert(scf.YieldOp([_add(inner, loop.iter_args[0], step)]))
        return loop

    def statements(self, b, env, depth):
        for _ in range(1 + (self.pick(3) == 0)):
            kind = self.pick(5) if depth else 0
            if kind < 3:  # half of them the analysis' own idiom, iv +- E
                index = self.expr(b, env, 2)
                if self.pick(2):
                    index = b.insert((arith.AddIOp, arith.SubIOp)[self.pick(2)](
                        self.small[0], index)).result
                index = _add(b, index, const_index(b, BIAS))
                _store(b, self.small[3], self.out, index)  # the constant 1
            elif kind == 3:
                self.loop(b, env, depth, with_stores=True)
            else:
                branch = b.insert(scf.IfOp(self.cond(b, env, depth), with_else=False))
                inner = Builder.at_end(branch.then_block)
                self.statements(inner, env, depth - 1)
                inner.insert(scf.YieldOp())


def test_empty_proof_implies_disjoint_store_sets():
    licensed = []

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.integers(0, 1 << 32), st.integers(0, LANES - 1))
    def check(seed, uniform):
        module, span = _span(_RandomBody(seed), extent=LANES, size=SIZE)
        if RegionPlans(module).plan(span).parallel_proof != frozenset():
            return
        licensed.append(seed)
        module, _ = _span(_RandomBody(seed), extent=None, size=SIZE)
        interp = make_executor(module, engine="interp")
        written = np.zeros(SIZE, dtype=bool)
        for lane in range(LANES):
            out = np.zeros(SIZE, dtype=np.int64)
            interp.run("main", [out, uniform, lane, lane + 1])
            addresses = np.flatnonzero(out)
            assert ((addresses > SIZE // 4) & (addresses < 3 * SIZE // 4)).all()  # no wrap
            assert not written[addresses].any(), f"lane {lane} stores where another did"
            written[addresses] = True

    check()
    assert len(licensed) >= 30  # not vacuous

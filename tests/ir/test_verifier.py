"""The IR verifier against its predecessor, on real and on broken IR.

``repro.ir.verifier.verify`` is one scoped pre-order walk.  The quadratic
implementation it replaced is kept here verbatim as ``_reference_verify``
(test-only oracle): both must give the same verdict — pass, or the same
exception type and message — after every pass of every named pipeline over
the Rodinia and fuzz corpora, and on a sweep of mutations that each break
one invariant of a valid lowered module.  The one check the reference does
not have (a use no operand backs) is reported only on IR the reference
accepts, and has its own mutations.
"""

from typing import Optional, Set, Tuple

import pytest

from repro.frontend import compile_cuda
from repro.dialects import arith, func, omp, scf
from repro.ir import (
    Block,
    Builder,
    F32,
    FunctionType,
    INDEX,
    Operation,
    Region,
    Use,
    VerificationError,
    verifier,
    verify,
)
from repro.rodinia import BENCHMARKS
from repro.transforms.cpuify import build_pipeline
from tests.helpers import FUZZ_PIPELINES, generate_fuzz_kernel

FUZZ_SEEDS = 60


# ---------------------------------------------------------------------------
# The parent commit's verifier, verbatim (names prefixed, nothing else)
# ---------------------------------------------------------------------------
def _reference_visible_values(op: Operation) -> Set[int]:
    """ids of values visible to ``op`` (defined before it, walking outward)."""
    visible: Set[int] = set()
    current: Optional[Operation] = op
    while current is not None:
        block = current.parent_block
        if block is None:
            break
        for arg in block.arguments:
            visible.add(id(arg))
        for earlier in block.operations:
            if earlier is current:
                break
            for result in earlier.results:
                visible.add(id(result))
        current = block.parent_op
    return visible


def _reference_verify_op(op: Operation) -> None:
    """Verify a single operation (not its children)."""
    # operand/use consistency
    for index, operand in enumerate(op.operands):
        if not any(use.owner is op and use.operand_index == index for use in operand.uses):
            raise VerificationError(
                f"{op.name}: operand #{index} ({operand.name}) does not record this use"
            )
    # dominance
    if op.parent_block is not None:
        visible = _reference_visible_values(op)
        for index, operand in enumerate(op.operands):
            if id(operand) not in visible:
                raise VerificationError(
                    f"{op.name}: operand #{index} ({operand.name}: {operand.type}) "
                    "is not visible at its use (dominance violation)"
                )
    # terminator placement
    if op.IS_TERMINATOR and op.parent_block is not None:
        if op.parent_block.operations[-1] is not op:
            raise VerificationError(f"{op.name}: terminator is not the last op of its block")
    # result bookkeeping
    for i, result in enumerate(op.results):
        if result.op is not op or result.index != i:
            raise VerificationError(f"{op.name}: result #{i} has inconsistent owner/index")
    op.verify()


def _reference_verify_block(block: Block) -> None:
    for i, arg in enumerate(block.arguments):
        if arg.block is not block or arg.index != i:
            raise VerificationError(f"block argument #{i} has inconsistent owner/index")
    for op in block.operations:
        if op.parent_block is not block:
            raise VerificationError(f"{op.name}: parent_block does not point at containing block")


def _reference_verify(root: Operation) -> None:
    """Verify ``root`` and every nested operation.  Raises on violation."""
    for op in root.walk():
        if op.parent_block is not None:
            _reference_verify_block(op.parent_block)
        for region in op.regions:
            if region.parent_op is not op:
                raise VerificationError(f"{op.name}: region does not point back at its op")
            for block in region.blocks:
                if block.parent_region is not region:
                    raise VerificationError(f"{op.name}: block does not point back at its region")
                _reference_verify_block(block)
        _reference_verify_op(op)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
Verdict = Optional[Tuple[str, str]]


def _verdict(check, root: Operation) -> Verdict:
    """None when ``check(root)`` passes, else (exception type, message) —
    op ``verify`` hooks raise ``ValueError``, the verifier its own type."""
    try:
        check(root)
    except (VerificationError, ValueError) as error:
        return type(error).__name__, str(error)
    return None


def _assert_agree(root: Operation, label: str) -> Verdict:
    expected = _verdict(_reference_verify, root)
    assert _verdict(verify, root) == expected, label
    return expected


#: lowers (pipeline "all") to omp.parallel > omp.wsloop > {scf.for, scf.if
#: with both branches}: every region kind the sweep breaks one invariant of.
SOURCE = """
__global__ void k(float* out, float* in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int j = 0; j < n; j++) { acc = acc + in[(i + j) % n]; }
    if (i < n) { out[i] = acc; } else { out[0] = 1.0f; }
}
void launch(float* out, float* in, int n) { k<<<(n + 31) / 32, 32>>>(out, in, n); }
"""


class _Lowered:
    """A fresh lowered module of ``SOURCE`` and handles on its parts."""

    def __init__(self) -> None:
        self.module = compile_cuda(SOURCE, cuda_lower=True, cache=False)
        self.fn = self.module.lookup("launch")
        self.parallel = self._only(omp.OmpParallelOp)
        self.wsloop = self._only(omp.OmpWsLoopOp)
        self.loop = self._only(scf.ForOp)
        self.branch = self._only(scf.IfOp)
        self.body = self.wsloop.regions[0].block

    def _only(self, kind):
        (op,) = [op for op in self.module.walk() if isinstance(op, kind)]
        return op

    def first(self, kind, block: Block):
        return next(op for op in block.operations if isinstance(op, kind))


def _use(value) -> Operation:
    """An op of no dialect (no ``verify`` hook) that only uses ``value``."""
    return Operation([value])


# ---------------------------------------------------------------------------
# (ii) one broken invariant at a time
# ---------------------------------------------------------------------------
def _use_before_def(m: _Lowered) -> None:
    mul = m.first(arith.MulIOp, m.body)
    user = mul.result.uses[0].owner
    assert user.parent_block is m.body
    user.move_before(mul)


def _leak_from_if(m: _Lowered) -> None:
    m.body.insert_after(m.branch, _use(m.branch.then_block.operations[0].result))


def _leak_from_for(m: _Lowered) -> None:
    m.body.insert_after(m.loop, _use(m.first(arith.AddFOp, m.loop.body).result))


def _leak_from_for_argument(m: _Lowered) -> None:
    m.body.insert_after(m.loop, _use(m.loop.body.arguments[0]))


def _leak_from_parallel(m: _Lowered) -> None:
    mul = m.first(arith.MulIOp, m.body)
    m.fn.body_block.insert_after(m.parallel, _use(mul.result))


def _sibling_region(m: _Lowered) -> None:
    m.branch.else_block.insert(0, _use(m.branch.then_block.operations[0].result))


def _sibling_block(m: _Lowered) -> None:
    first, second = Block(), Block()
    constant = first.append(arith.ConstantOp(1.0, F32))
    second.append(_use(constant.result))
    m.body.insert_before(m.loop, Operation(regions=[Region([first, second])]))


def _own_result_inside_region(m: _Lowered) -> None:
    holder = Operation(result_types=[F32], regions=[Region([Block()])])
    holder.regions[0].blocks[0].append(_use(holder.results[0]))
    m.body.insert_before(m.loop, holder)


def _operand_swapped(m: _Lowered) -> None:
    add = m.first(arith.AddIOp, m.loop.body)
    assert add._operands[0] is not add._operands[1]
    add._operands.reverse()


def _operand_replaced(m: _Lowered) -> None:
    add = m.first(arith.AddIOp, m.loop.body)
    add._operands[1] = add._operands[0]


def _terminator_moved_up(m: _Lowered) -> None:
    block = m.branch.else_block
    block.terminator.move_before(block.operations[0])


def _terminator_in_the_middle(m: _Lowered) -> None:
    m.fn.body_block.insert_before(m.parallel, func.ReturnOp([]))


def _wrong_parent_block(m: _Lowered) -> None:
    m.loop.body.operations[1].parent_block = m.body


def _wrong_parent_region(m: _Lowered) -> None:
    m.loop.body.parent_region = m.branch.regions[0]


def _wrong_parent_op(m: _Lowered) -> None:
    m.branch.regions[1].parent_op = m.loop


def _wrong_result_index(m: _Lowered) -> None:
    m.first(arith.AddFOp, m.loop.body).result.index = 1


def _wrong_result_owner(m: _Lowered) -> None:
    m.first(arith.AddFOp, m.loop.body).result.op = m.loop


def _wrong_argument_index(m: _Lowered) -> None:
    m.body.arguments[2].index = 0


def _wrong_argument_owner(m: _Lowered) -> None:
    m.loop.body.arguments[0].block = m.body


def _hook_rejects(m: _Lowered) -> None:
    m.loop.body.terminator.erase()


MUTATIONS = [
    (_use_before_def, "dominance violation"),
    (_leak_from_if, "dominance violation"),
    (_leak_from_for, "dominance violation"),
    (_leak_from_for_argument, "dominance violation"),
    (_leak_from_parallel, "dominance violation"),
    (_sibling_region, "dominance violation"),
    (_sibling_block, "dominance violation"),
    (_own_result_inside_region, "dominance violation"),
    (_operand_swapped, "does not record this use"),
    (_operand_replaced, "does not record this use"),
    (_terminator_moved_up, "terminator is not the last op"),
    (_terminator_in_the_middle, "terminator is not the last op"),
    (_wrong_parent_block, "parent_block does not point at containing block"),
    (_wrong_parent_region, "block does not point back at its region"),
    (_wrong_parent_op, "region does not point back at its op"),
    (_wrong_result_index, "inconsistent owner/index"),
    (_wrong_result_owner, "inconsistent owner/index"),
    (_wrong_argument_index, "block argument #2 has inconsistent owner/index"),
    (_wrong_argument_owner, "block argument #0 has inconsistent owner/index"),
    (_hook_rejects, "scf.for: body must end with scf.yield"),
]


class TestMutationSweep:
    def test_unbroken_module_passes_both(self):
        assert _assert_agree(_Lowered().module, "unbroken") is None

    @pytest.mark.parametrize("mutate, fragment", MUTATIONS,
                             ids=[mutate.__name__.lstrip("_") for mutate, _ in MUTATIONS])
    def test_one_broken_invariant(self, mutate, fragment):
        lowered = _Lowered()
        mutate(lowered)
        verdict = _assert_agree(lowered.module, mutate.__name__)
        assert verdict is not None and fragment in verdict[1], verdict

    def test_first_violation_wins_in_pre_order(self):
        lowered = _Lowered()
        _leak_from_if(lowered)          # later in the walk
        _wrong_result_index(lowered)    # inside the scf.for, earlier
        verdict = _assert_agree(lowered.module, "two violations")
        assert "inconsistent owner/index" in verdict[1]

    def test_is_valid_follows_verify(self):
        lowered = _Lowered()
        assert verifier.is_valid(lowered.module)
        _sibling_region(lowered)
        assert not verifier.is_valid(lowered.module)


class TestStaleUse:
    """The use -> operand direction: new, so the reference accepts all three."""

    def _stale(self, lowered: _Lowered) -> str:
        assert _verdict(_reference_verify, lowered.module) is None
        with pytest.raises(VerificationError) as raised:
            verify(lowered.module)
        return str(raised.value)

    def test_operand_rewritten_without_set_operand(self):
        lowered = _Lowered()
        add = lowered.first(arith.AddIOp, lowered.loop.body)
        old, new = add._operands
        add._operands[0] = new
        new.add_use(add, 0)             # the pass remembered one half only
        assert self._stale(lowered) == f"{old.name}: stale use by arith.addi #0"

    def test_use_index_out_of_range(self):
        lowered = _Lowered()
        add = lowered.first(arith.AddIOp, lowered.loop.body)
        argument = lowered.loop.body.arguments[0]
        argument.uses.append(Use(add, 2))
        assert self._stale(lowered) == f"{argument.name}: stale use by arith.addi #2"
        argument.uses[-1].operand_index = -1    # would wrap around to operand #1
        assert self._stale(lowered) == f"{argument.name}: stale use by arith.addi #-1"

    def test_reported_only_when_nothing_else_is_wrong(self):
        lowered = _Lowered()
        add = lowered.first(arith.AddIOp, lowered.loop.body)
        add._operands[0].uses.append(Use(add, 1))
        _leak_from_if(lowered)
        verdict = _assert_agree(lowered.module, "stale use + dominance")
        assert "dominance violation" in verdict[1]


# ---------------------------------------------------------------------------
# (iii) verifying one function of a module
# ---------------------------------------------------------------------------
class TestNestedRoot:
    def _module(self, constant_first: bool):
        module = func.ModuleOp()
        fn = func.FuncOp("f", FunctionType((F32,), (F32,)), arg_names=["x"])
        constant = arith.ConstantOp(2.0, F32)
        for op in (constant, fn) if constant_first else (fn, constant):
            module.body.append(op)
        builder = Builder.at_end(fn.body_block)
        scaled = builder.insert(arith.MulFOp(fn.arguments[0], constant.result))
        builder.insert(func.ReturnOp([scaled.result]))
        return module, fn

    def test_function_sees_module_level_value(self):
        module, fn = self._module(constant_first=True)
        assert _assert_agree(fn, "function") is None
        assert _assert_agree(module, "module") is None

    def test_function_does_not_see_later_module_level_value(self):
        module, fn = self._module(constant_first=False)
        for root in (fn, module):
            verdict = _assert_agree(root, root.name)
            assert verdict is not None and "dominance violation" in verdict[1]

    def test_enclosing_block_of_the_root_is_checked(self):
        module, fn = self._module(constant_first=True)
        module.body.operations[0].parent_block = None
        verdict = _assert_agree(fn, "function")
        assert "parent_block does not point at containing block" in verdict[1]


# ---------------------------------------------------------------------------
# (i) every module every pipeline produces, after every pass
# ---------------------------------------------------------------------------
def _corpus():
    for name in sorted(BENCHMARKS):
        yield name, BENCHMARKS[name].cuda_source
    for seed in range(FUZZ_SEEDS):
        yield f"fuzz/{seed}", generate_fuzz_kernel(seed).source


@pytest.mark.parametrize("pipeline", sorted(FUZZ_PIPELINES))
def test_agrees_with_reference_after_every_pass(pipeline):
    checked = 0
    for name, source in _corpus():
        module = compile_cuda(source, cuda_lower=False, cache=False)
        assert _assert_agree(module, f"{name}: frontend") is None
        for position, pass_ in enumerate(build_pipeline(FUZZ_PIPELINES[pipeline]).passes):
            pass_.run(module)
            label = f"{name} [{pipeline}] after #{position} {pass_.NAME}"
            assert _assert_agree(module, label) is None, label
            checked += 1
    assert checked >= 72 * 15


# ---------------------------------------------------------------------------
# Cost: counted, not timed
# ---------------------------------------------------------------------------
class _CountingUses(list):
    """A use list that counts how often it is read from the start."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def _nest(block: Block, depth: int, width: int, value, hot) -> None:
    """``width`` scf.for loops per level, ``depth`` levels, arithmetic on
    ``hot`` (one value used at every level) between them."""
    zero = block.append(arith.ConstantOp(0, INDEX)).result
    one = block.append(arith.ConstantOp(1, INDEX)).result
    for _ in range(width):
        value = block.append(arith.AddIOp(value, hot)).result
        if depth:
            loop = block.append(scf.ForOp(zero, value, one))
            _nest(loop.body, depth - 1, width, loop.body.arguments[0], hot)
            scf.ensure_terminator(loop.body)
        value = block.append(arith.MulIOp(value, hot)).result


def test_one_walk_one_check_per_block_one_read_per_use_list(monkeypatch):
    module = func.ModuleOp()
    fn = module.add_function(func.FuncOp("deep", FunctionType((INDEX,), ())))
    hot = fn.arguments[0]
    _nest(fn.body_block, depth=6, width=3, value=hot, hot=hot)
    fn.body_block.append(func.ReturnOp([]))

    ops = list(module.walk())
    blocks = [block for op in ops for region in op.regions for block in region.blocks]
    deepest = max(sum(1 for _ in op.ancestors()) for op in ops)
    assert len(ops) >= 4000 and deepest >= 6 + 2 and len(hot.uses) >= 2000

    seen, scope_builds = [], []
    hot.uses = _CountingUses(hot.uses)
    block_check, scope_build = verifier.verify_block, verifier._visible_values
    monkeypatch.setattr(verifier, "verify_block",
                        lambda block: (seen.append(id(block)), block_check(block)))
    monkeypatch.setattr(verifier, "_visible_values",
                        lambda op: (scope_builds.append(op), scope_build(op))[1])
    verify(module)
    assert sorted(seen) == sorted(id(block) for block in blocks)
    assert len(scope_builds) <= 1
    # not once per user: the quadratic term of a much-used value
    assert hot.uses.reads == 1

    # one function of it: its own blocks once, plus the block it sits in
    del seen[:], scope_builds[:]
    verify(fn)
    assert sorted(seen) == sorted(id(block) for block in blocks)
    assert scope_builds == [fn]
    assert hot.uses.reads == 2

"""The cycle grid: every per-access charge is a multiple of 2^-8 cycles.

This is the property the fast tiers' analytic accounting stands on (the
one statement of it is next to ``costmodel.CYCLE_GRID``): grid values sum
exactly in float64, so ``cost * count`` regrouped per lane, OpenMP thread or
worker equals the interpreter's sequential sum on *any* machine model, not
only on those whose constants happen to be dyadic.
"""

import random

from repro.runtime import A64FX_CMG, MachineModel, XEON_8375C, memory_access_cost
from repro.runtime.costmodel import DEFAULT_OP_COST, OP_COSTS, exact_cycles
from repro.runtime.optable import ALLOC_CYCLES

SPACES = ("global", "shared", "local", "constant")
WIDTHS = (1, 2, 4, 8, 16)


def _before_the_grid(machine, memory_space, element_bytes, sequential=True):
    """``memory_access_cost`` as it was while inexact machines were refused."""
    if memory_space in ("shared", "local"):
        return machine.local_access_cost
    cost = machine.global_access_cost * machine.hbm_bandwidth_factor
    if not sequential:
        cost *= 2.5
    return cost * max(1.0, element_bytes / 4.0)


def _sweep():
    return [(space, width, sequential) for space in SPACES for width in WIDTHS
            for sequential in (True, False)]


def test_arbitrary_machines_charge_on_the_grid():
    rng = random.Random(18)
    for _ in range(200):
        machine = MachineModel(
            name="swept", cores=rng.randint(1, 64),
            global_access_cost=rng.uniform(0.1, 40.0),
            local_access_cost=rng.uniform(0.1, 10.0),
            hbm_bandwidth_factor=rng.uniform(0.05, 2.0))
        for space, width, sequential in _sweep():
            cost = memory_access_cost(machine, space, width, sequential)
            assert exact_cycles(cost), (machine, space, width, sequential, cost)
            # rounding moves a word's charge by at most half a grid step
            before = _before_the_grid(machine, space, width, sequential)
            assert abs(cost - before) <= max(1.0, width / 4.0) / 512.0
            # generated Python scales the word's charge by a run-time element
            # width (``optable.access_charge_lines``): same value, or the
            # closure tier and the interpreter part ways on float64 buffers
            word = memory_access_cost(machine, space, 4, sequential)
            assert cost == (word if space in ("shared", "local")
                            else word * max(1.0, width / 4.0))


def test_the_grid_is_the_identity_on_the_xeon():
    for space, width, sequential in _sweep():
        assert (memory_access_cost(XEON_8375C, space, width, sequential)
                == _before_the_grid(XEON_8375C, space, width, sequential))


def test_a64fx_global_word_is_461_grid_steps():
    assert memory_access_cost(A64FX_CMG, "global", 4) == 1.80078125 == 461 / 256
    assert memory_access_cost(A64FX_CMG, "shared", 4) == A64FX_CMG.local_access_cost


def test_every_op_cost_is_on_the_grid():
    """What the vectorizer's per-charge "non-dyadic op cost" refusal used to
    guard at run time: no engine checks a static charge any more."""
    assert all(exact_cycles(cost) for cost in OP_COSTS.values())
    assert exact_cycles(DEFAULT_OP_COST) and exact_cycles(ALLOC_CYCLES)

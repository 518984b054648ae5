"""An optimality yardstick: exact per-output minima on 4 inputs.

In the synthesized shape the gates on output line j, read as cubes, form
an XOR cover of output j. So no correct circuit has fewer raw gates than
the sum over outputs of minESOP, the fewest cubes in any XOR cover of that
output. On 4 inputs minESOP is known for all 65,536 functions, by a
breadth-first search from the constant 0 over the 81 cubes. A raw gate
count below the bound means a wrong cover.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from revhash import corpus
from revhash.esop import from_pla, minimize
from revhash.pla import Cube, PlaFunction, int_to_bits
from revhash.synth import synthesize


@functools.cache
def min_esop4() -> bytearray:
    """minESOP of every 4-input function, indexed by truth table: bit x is f(x)."""
    cubes = [sum(1 << x for x in range(16) if x & care == value)
             for care in range(16) for value in range(16) if not value & ~care]
    cost = bytearray([255]) * (1 << 16)
    cost[0] = 0
    frontier, k = [0], 0
    while frontier:
        k, nxt = k + 1, []
        for f in frontier:
            for c in cubes:
                if cost[f ^ c] == 255:
                    cost[f ^ c] = k
                    nxt.append(f ^ c)
        frontier = nxt
    return cost


def raw_gates_and_bound(f: PlaFunction) -> tuple[int, int]:
    """The raw gate count of the minimized circuit, and Σ_j minESOP(f_j)."""
    cover = from_pla(f)  # the disjoint minterm cover: one cube per true state
    tables = [0] * f.m
    for cu in cover.cubes:
        for j in range(f.m):
            tables[j] |= (cu.output_mask >> j & 1) << cu.value_mask
    return len(synthesize(minimize(cover)).gates), sum(min_esop4()[t] for t in tables)


def test_min_esop4_table():
    cost = min_esop4()
    assert cost.count(255) == 0 and max(cost) == 6
    assert cost.count(0) == 1 and cost.count(1) == 81
    assert cost[0b0110_1001_1001_0110] == 4  # x0 ^ x1 ^ x2 ^ x3: one cube per variable


def test_raw_gates_reach_at_least_the_per_output_minimum():
    # Today's raw counts are 24, 29 and 8: gaps of 9, 14 and 4 gates.
    functions = dict(corpus.corpus_functions(), demo_hash4=corpus.demo_hash4_pla())
    for name, bound in (("aes4_sbox", 15), ("present_sbox", 15), ("demo_hash4", 4)):
        raw, got = raw_gates_and_bound(functions[name])
        assert got == bound, name
        assert raw >= bound, name


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.integers(0, (1 << m) - 1), min_size=16, max_size=16).map(lambda t: (m, t))))
def test_raw_gates_bounded_below_on_drawn_tables(case):
    m, table = case
    f = PlaFunction(n=4, m=m, cubes=tuple(Cube(int_to_bits(x, 4), int_to_bits(y, m)) for x, y in enumerate(table)))
    raw, bound = raw_gates_and_bound(f)
    assert raw >= bound

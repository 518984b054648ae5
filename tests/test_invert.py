import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revhash.analyze import avalanche_check, collision_scan
from revhash.circuit import Circuit, Gate
from revhash.errors import ResourceLimitError
from revhash.esop import EsopCover, from_pla, minimize
from revhash.invert import preimage_one, preimages_bruteforce, preimages_deduce
from revhash.pla import Cube, PlaFunction, int_to_bits, parse_pla, write_pla
from revhash.sim import EXHAUSTIVE_LIMIT, run
from revhash.synth import synthesize

from revhash import corpus, invert

from conftest import CNOT, NOT, benchmark_circuits, covers, oracle_leaf, random_truth_table

AND_PLA = ".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e"


def and_circuit():
    return synthesize(from_pla(parse_pla(AND_PLA)))


def demo_circuit():
    return synthesize(minimize(from_pla(corpus.demo_hash4_pla())))


def const_zero_circuit():
    return Circuit(num_inputs=1, num_outputs=1)


# -- brute force -------------------------------------------------------------

def test_bruteforce_and_targets():
    f = parse_pla(AND_PLA)
    assert preimages_bruteforce(f, "1").preimages == ("11",)
    assert preimages_bruteforce(f, "0").preimages == ("00", "01", "10")


def test_bruteforce_lists_every_preimage_at_n18():
    f = PlaFunction(n=18, m=1, cubes=(Cube("-" * 18, "1"),))
    result = preimages_bruteforce(f, "1")
    assert result.preimages == tuple(format(x, "018b") for x in range(1 << 18))


def test_bruteforce_demo_hash():
    result = preimages_bruteforce(corpus.demo_hash4_pla(), "1001")
    assert result.preimages == ("0110",)
    assert result.method == "bruteforce"


def test_bruteforce_bijection_unique_everywhere():
    f = dict(corpus.corpus_functions())["aes4_sbox"]
    seen = set()
    for y in range(16):
        result = preimages_bruteforce(f, format(y, "04b"))
        assert len(result.preimages) == 1
        seen.add(result.preimages[0])
    assert len(seen) == 16  # preimages over all targets cover every input


def test_bruteforce_bijective_8bit_spot_targets():
    f = dict(corpus.corpus_functions())["aes_sbox"]
    for y in ("00000000", "01100011", "11111111"):
        assert len(preimages_bruteforce(f, y).preimages) == 1


def test_bruteforce_accepts_cover_and_circuit():
    f = parse_pla(AND_PLA)
    cover = from_pla(f)
    circ = synthesize(cover)
    for y in ("0", "1"):
        expected = preimages_bruteforce(f, y).preimages
        assert preimages_bruteforce(cover, y).preimages == expected
        assert preimages_bruteforce(circ, y).preimages == expected


def test_bruteforce_rejects_bad_target():
    f = parse_pla(AND_PLA)
    with pytest.raises(ValueError):
        preimages_bruteforce(f, "11")
    for fn in (f, from_pla(f), synthesize(from_pla(f))):
        with pytest.raises(ValueError, match="not a bit vector"):
            preimages_bruteforce(fn, "x")
    with pytest.raises(TypeError):
        preimages_bruteforce("0110", "1")


def test_bruteforce_sorted_output():
    f = parse_pla(AND_PLA)
    assert list(preimages_bruteforce(f, "0").preimages) == sorted(["00", "01", "10"])


# -- deduction ---------------------------------------------------------------

def test_deduce_demo_hash_worked_example():
    result = preimages_deduce(demo_circuit(), "1001")
    assert result.preimages == ("0110",)
    assert result.method == "deduction"
    assert result.branches == 0  # pure propagation, no search


def test_deduce_and_target_one_forces_controls():
    result = preimages_deduce(and_circuit(), "1")
    assert result.preimages == ("11",)
    assert result.branches == 0


def test_deduce_unsatisfiable_target():
    result = preimages_deduce(const_zero_circuit(), "1")
    assert result.preimages == ()


def test_deduce_matches_bruteforce_small(small_corpus):
    for name, f in small_corpus.items():
        circ = synthesize(minimize(from_pla(f)))
        for y in range(1 << f.m):
            ys = int_to_bits(y, f.m)
            assert (
                preimages_deduce(circ, ys).preimages
                == preimages_bruteforce(f, ys).preimages
            ), (name, ys)


def test_deduce_on_unminimized_circuit():
    f = dict(corpus.corpus_functions())["present_sbox"]
    circ = synthesize(from_pla(f))
    for y in ("0000", "0110", "1111"):
        assert preimages_deduce(circ, y).preimages == preimages_bruteforce(f, y).preimages


def test_deduce_deterministic_stats():
    circ = demo_circuit()
    a = preimages_deduce(circ, "0101")
    b = preimages_deduce(circ, "0101")
    assert (a.branches, a.propagations) == (b.branches, b.propagations)


def forward_preimages(c, y, init):
    """Every input whose forward run from output state `init` ends at y."""
    n = c.num_inputs
    inputs = (int_to_bits(i, n) for i in range(1 << n))
    return tuple(sorted(x for x in inputs if run(c, x + init)[n:] == y))


def xor_bits(a: str, b: str) -> str:
    return "".join("01"[p != q] for p, q in zip(a, b, strict=True))


def test_deduce_nonzero_initialization():
    # Output lines that start at init end at init XOR what they end at from 0.
    circ = demo_circuit()
    init = "1010"
    y = run(circ, "0110" + init)[4:]
    result = preimages_deduce(circ, xor_bits(y, init))
    assert "0110" in result.preimages
    assert result.preimages == forward_preimages(circ, y, init)


@st.composite
def synthesized_shape(draw, max_n=7):
    """A circuit laid out as synthesis lays it out, a target and an init.

    Every gate targets an output line; its controls, positive and negative
    mixed, sit on input lines, and a gate with none is a plain NOT.
    """
    n, m = draw(st.integers(1, max_n)), draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        controls = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        split = draw(st.integers(0, len(controls)))
        gates.append(Gate(target=n + draw(st.integers(0, m - 1)),
                          positive_controls=controls[:split],
                          negative_controls=controls[split:]))
    bits = st.text("01", min_size=m, max_size=m)
    return Circuit(num_inputs=n, num_outputs=m, gates=gates), draw(bits), draw(bits)


@settings(max_examples=200, deadline=None)
@given(synthesized_shape())
def test_deduce_matches_forward_runs(case):
    c, y, init = case
    expected = forward_preimages(c, y, init)
    # At the default every case (n <= 7) is one leaf; 0 and 3 run the
    # propagating search above the leaves too.
    for leaf_vars in (0, 3, invert.LEAF_VARS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invert, "LEAF_VARS", leaf_vars)
            assert preimages_deduce(c, xor_bits(y, init)).preimages == expected, leaf_vars
            assert preimage_one(c, xor_bits(y, init)) == (expected[0] if expected else None), leaf_vars


def deduce_both_ways(c, y):
    """What a full search and a first-only search report, and all they found."""
    full = preimages_deduce(c, y)
    first = invert._Search(c, y, EXHAUSTIVE_LIMIT, first_only=True)
    first.solve()
    return (full.preimages, full.branches, full.propagations, preimage_one(c, y),
            first.solutions, first.branches, first.propagations)


# Output = x0 ^ x8: branching on x0 pins x8, so at n = 10 and LEAF_VARS 8
# the leaf's free variables, and so its block, skip x8.
X0_XOR_X8 = Circuit(num_inputs=10, num_outputs=1, gates=(CNOT(0, 10), CNOT(8, 10)))


@settings(max_examples=100, deadline=None)
@given(synthesized_shape(max_n=10))
@example((X0_XOR_X8, "1", "0"))
# The circuit of test_deduce_above_limit_prunes_before_leaves: propagation
# pins x5 once x4 is set, below LEAF_VARS 8.
@example((Circuit(num_inputs=12, num_outputs=1, gates=(Gate(12, {3, 4}), Gate(12, {3, 5}))), "1", "0"))
def test_blocked_leaves_match_oracle(case):
    # At 0 and 3 a leaf is smaller than a block, at 4 at most one block;
    # at 5 and 8 it walks variables above its block.
    c, y, init = case
    y = xor_bits(y, init)
    for leaf_vars in (0, 3, 4, 5, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invert, "LEAF_VARS", leaf_vars)
            got = deduce_both_ways(c, y)
            mp.setattr(invert._Search, "_leaf", oracle_leaf)
            assert got == deduce_both_ways(c, y), leaf_vars


def test_deduce_repeated_gate_and_shared_cube():
    # x0&x1 twice on line 0 cancels; x1&~x2 on lines 0 and 1 is one predicate.
    repeated = Gate(target=3, positive_controls={0, 1})
    shared = (Gate(target=3, positive_controls={1}, negative_controls={2}),
              Gate(target=4, positive_controls={1}, negative_controls={2}))
    circuits = (
        Circuit(num_inputs=3, num_outputs=2, gates=(repeated, NOT(4), repeated, CNOT(2, 4))),
        Circuit(num_inputs=3, num_outputs=2, gates=(*shared, CNOT(0, 3))),
    )
    for c in circuits:
        for y in ("00", "01", "10", "11"):
            expected = forward_preimages(c, y, "00")
            assert preimages_deduce(c, y).preimages == expected, (c, y)
            assert preimage_one(c, y) == (expected[0] if expected else None), (c, y)


def test_deduce_table_memo_follows_circuit():
    # Alternating circuits and reusing one for another target must never
    # answer from the other circuit's table or the last target's state.
    a, b = demo_circuit(), and_circuit()
    for _ in range(2):
        assert preimages_deduce(a, "1001").preimages == ("0110",)
        assert preimages_deduce(b, "1").preimages == ("11",)
        assert preimage_one(a, "1001") == "0110"
        assert preimage_one(b, "0") == "00"
    y = run(a, "0110" + "0000")[4:]
    assert preimages_deduce(a, xor_bits(y, "1010")).preimages == forward_preimages(a, y, "1010")
    assert preimages_deduce(a, "1001").preimages == ("0110",)


def test_alternating_circuits_build_each_table_once(monkeypatch):
    built = []
    build = invert._PredicateTable
    monkeypatch.setattr(invert, "_PredicateTable", lambda c: built.append(c) or build(c))
    a, b = demo_circuit(), and_circuit()
    for _ in range(3):
        assert preimages_deduce(a, "1001").preimages == ("0110",)
        assert preimage_one(b, "1") == "11"
    assert len(built) == 2 and built[0] is a and built[1] is b
    # A rewrite is a new circuit, with a table of its own.
    assert preimages_deduce(a.with_gates(a.gates), "1001").preimages == ("0110",)
    assert len(built) == 3


# -- the predicate table from a circuit's cover --------------------------------

def gates_only(c):
    """The same gates without the cover `synthesize` keeps."""
    return Circuit(num_inputs=c.num_inputs, num_outputs=c.num_outputs, gates=c.gates)


def table_fields(c):
    t = invert._PredicateTable(c)
    return t.flips, t.pred_pos, t.pred_neg, t.lines, t.occ, t.survive


@st.composite
def xor_covers(draw):
    """A `covers()` cover with rows added that repeat an input key, the
    all-dash one among them, under other outputs or under none."""
    n, m, cubes = draw(covers())
    keys = st.sampled_from([cu.inputs for cu in cubes] + ["-" * n])
    outputs = st.text("01", min_size=m, max_size=m) | st.just("0" * m)
    cubes += [Cube(i, o) for i, o in draw(st.lists(st.tuples(keys, outputs), max_size=8))]
    return EsopCover(n, m, tuple(draw(st.permutations(cubes))))


@settings(max_examples=100, deadline=None)
@given(xor_covers())
# A zero-output row ahead of its key's first gate must not move that key.
@example(EsopCover(3, 2, (Cube("01-", "00"), Cube("1-0", "10"), Cube("---", "01"), Cube("1-0", "11"),
                          Cube("---", "11"), Cube("01-", "01"), Cube("1-0", "00"))))
def test_table_from_cover_equals_table_from_gates(cover):
    c = synthesize(cover)
    assert c.cover is cover
    bare = gates_only(c)
    assert table_fields(c) == table_fields(bare)
    # Below LEAF_VARS 8 every case is one leaf; 0 runs the search above them.
    for leaf_vars in (0, invert.LEAF_VARS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invert, "LEAF_VARS", leaf_vars)
            for y in range(1 << cover.m):
                y = int_to_bits(y, cover.m)
                assert deduce_both_ways(c, y) == deduce_both_ways(bare, y), (leaf_vars, y)


def test_table_from_cover_on_benchmark_circuits():
    for _, c in benchmark_circuits():
        assert c.cover is not None
        assert table_fields(c) == table_fields(gates_only(c))


def test_deduce_after_gate_drop_follows_the_gates():
    # The mutated circuit has no cover, so deduction must answer for its
    # gates; the cover it came from would give the S-box's preimages.
    c = synthesize(minimize(from_pla(dict(corpus.corpus_functions())["aes4_sbox"])))
    mutated = c.with_gates(c.gates[:5] + c.gates[6:])
    assert mutated.cover is None
    changed = 0
    for y in range(16):
        y = int_to_bits(y, 4)
        got = preimages_deduce(mutated, y).preimages
        assert got == preimages_bruteforce(mutated, y).preimages, y
        changed += got != preimages_deduce(c, y).preimages
    assert changed


def one_cnot_circuit(n):
    """Output = input 0; every other input is free."""
    return Circuit(num_inputs=n, num_outputs=1, gates=(CNOT(0, n),))


def test_deduce_budget_raises():
    with pytest.raises(ResourceLimitError, match="exceed limit 2\\^10"):
        preimages_deduce(one_cnot_circuit(14), "1", limit=10)
    # No preimage, but only inputs 12 and 13 show it, so the search walks
    # the inputs before them first.
    c = Circuit(num_inputs=14, num_outputs=2,
                gates=(CNOT(12, 14), CNOT(13, 14), CNOT(12, 15), CNOT(13, 15)))
    for deduce in DEDUCERS:
        with pytest.raises(ResourceLimitError, match="exceed limit 2\\^10"):
            deduce(c, "10", limit=10)
    assert preimage_one(c, "10") is None
    # With n <= limit the bound is never reached.
    assert len(preimages_deduce(one_cnot_circuit(14), "1", limit=14).preimages) == 1 << 13


def test_deduce_above_limit_prunes_before_leaves():
    # Output = x3 & (x4 ^ x5). Propagation drops the x3 = 0 states, so only
    # the x3 = 1 leaves count against the budget (2^11 assignments at
    # limit 11); walked unpropagated, the x3 = 0 leaves would pass it.
    c = Circuit(num_inputs=12, num_outputs=1, gates=(Gate(12, {3, 4}), Gate(12, {3, 5})))
    result = preimages_deduce(c, "1", limit=11)
    assert len(result.preimages) == 1024
    assert result.preimages == preimages_bruteforce(c, "1", limit=12).preimages
    assert preimage_one(c, "1", limit=11) == result.preimages[0]


# Both entry points share the input checks.
DEDUCERS = (preimages_deduce, preimage_one)


def test_deduce_rejects_bad_arity():
    for deduce in DEDUCERS:
        with pytest.raises(ValueError, match="target length"):
            deduce(demo_circuit(), "10101")


def test_deduce_rejects_input_line_targets():
    # A negative control written as a NOT sandwich, as in a .real file.
    expanded = Circuit(num_inputs=1, num_outputs=1, gates=(NOT(0), CNOT(0, 1), NOT(0)))
    circuits = (
        Circuit(num_inputs=2, num_outputs=1, gates=(NOT(0),)),
        Circuit(num_inputs=2, num_outputs=1, gates=(CNOT(1, 0),)),
        expanded,
    )
    for deduce in DEDUCERS:
        for c in circuits:
            with pytest.raises(ValueError, match="targets on output lines"):
                deduce(c, "1")


def test_deduce_rejects_output_line_controls():
    circuits = (
        Circuit(num_inputs=1, num_outputs=2, gates=(CNOT(1, 2),)),
        Circuit(num_inputs=1, num_outputs=2, gates=(Gate(target=1, negative_controls={0, 2}),)),
    )
    for deduce in DEDUCERS:
        for c in circuits:
            with pytest.raises(ValueError, match="controls on input lines"):
                deduce(c, "11")


def test_deduce_forward_check_rejects_unsound_search(monkeypatch):
    # With propagation that never prunes and leaves that accept every
    # assignment, the search offers inputs that are not preimages; the
    # forward check must refuse the first one.
    def accept_all(self, alive, free, value):
        sub = 0
        while True:
            self._record(value | sub)
            if sub == free:
                return
            sub = (sub - free) & free  # next subset of free, in counting order

    monkeypatch.setattr(invert._Search, "_propagate", lambda self, *state: state)
    monkeypatch.setattr(invert._Search, "_leaf", accept_all)
    with pytest.raises(RuntimeError, match="fails forward evaluation"):
        preimages_deduce(and_circuit(), "1")


def test_deduce_json_shape():
    doc = preimages_deduce(and_circuit(), "1").to_json_dict()
    assert set(doc) == {"target", "preimages", "method", "branches", "propagations", "elapsed"}
    assert doc["preimages"] == ["11"]


# -- first-solution mode ------------------------------------------------------

def test_preimage_one_demo():
    assert preimage_one(demo_circuit(), "1001") == "0110"


def test_preimage_one_absent():
    assert preimage_one(const_zero_circuit(), "1") is None


def test_preimage_one_lexicographic_order():
    assert preimage_one(and_circuit(), "0") == "00"
    # Always the lexicographically smallest member of the full set.
    rng = random.Random(31)
    for _ in range(50):
        f = PlaFunction(
            n=3, m=2,
            cubes=tuple(
                Cube(format(x, "03b"), format(rng.randrange(4), "02b"))
                for x in range(8)
            ),
        )
        circ = synthesize(minimize(from_pla(f)))
        for y in ("00", "01", "10", "11"):
            full = preimages_bruteforce(f, y).preimages
            one = preimage_one(circ, y)
            assert one == (min(full) if full else None)


def test_deduce_random_functions_match_bruteforce():
    rng = random.Random(32)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        f = PlaFunction(
            n=n, m=m,
            cubes=tuple(
                Cube(format(x, f"0{n}b"),
                     format(rng.randrange(1 << m), f"0{m}b"))
                for x in range(1 << n)
            ),
        )
        circ = synthesize(minimize(from_pla(f)))
        for y in range(1 << m):
            ys = int_to_bits(y, m)
            assert (
                preimages_deduce(circ, ys).preimages
                == preimages_bruteforce(f, ys).preimages
            )


def test_table_cache_holds_no_strong_reference():
    c = synthesize(from_pla(random_truth_table(random.Random(9), 4, 2)))
    preimages_deduce(c, "01")
    r = weakref.ref(c)
    del c
    gc.collect()
    assert r() is None


@settings(max_examples=60, deadline=None)
@given(covers(max_m=4))
def test_cached_evaluation_matches_fresh_objects(case):
    # Brute force and analysis from one object, which reuses its words, must
    # answer as from a fresh parse each time and as deduction does.
    n, m, cubes = case
    text = write_pla(PlaFunction(n=n, m=m, cubes=tuple(cubes)))
    f = parse_pla(text)
    targets = [int_to_bits(y, m) for y in range(1 << m)]
    from_one = [preimages_bruteforce(f, y).preimages for y in targets]
    reports = avalanche_check(f), collision_scan(f)
    assert from_one == [preimages_bruteforce(parse_pla(text), y).preimages for y in targets]
    c = synthesize(minimize(from_pla(f)))
    assert from_one == [preimages_deduce(c, y).preimages for y in targets]
    assert reports == (avalanche_check(parse_pla(text)), collision_scan(parse_pla(text)))
    # Alternating with another live cover must never answer from its words.
    ones = PlaFunction(n=n, m=m, cubes=(Cube("-" * n, "1" * m),))
    everything = tuple(sorted(int_to_bits(x, n) for x in range(1 << n)))
    for y, want in zip(targets, from_one):
        assert preimages_bruteforce(ones, y).preimages == (everything if y == "1" * m else ())
        assert preimages_bruteforce(f, y).preimages == want

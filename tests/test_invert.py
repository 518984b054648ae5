import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash.circuit import CNOT, NOT, Circuit, Gate
from revhash.errors import ResourceLimitError
from revhash.esop import from_pla, minimize
from revhash.invert import preimage_one, preimages_bruteforce, preimages_deduce
from revhash.pla import Cube, PlaFunction, int_to_bits, parse_pla
from revhash.sim import run
from revhash.synth import expand_negative_controls, synthesize

from revhash import corpus, invert

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
    with pytest.raises(ValueError):
        preimages_bruteforce(parse_pla(AND_PLA), "11")
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


def test_deduce_nonzero_initialization():
    circ = demo_circuit()
    init = "1010"
    y = run(circ, "0110" + init)[4:]
    result = preimages_deduce(circ, y, output_init=init)
    assert "0110" in result.preimages
    assert result.preimages == forward_preimages(circ, y, init)


@st.composite
def synthesized_shape(draw):
    """A circuit laid out as synthesis lays it out, a target and an init.

    Every gate targets an output line; its controls, positive and negative
    mixed, sit on input lines, and a gate with none is a plain NOT.
    """
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 3))
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
            assert preimages_deduce(c, y, output_init=init).preimages == expected, leaf_vars
            assert preimage_one(c, y, output_init=init) == (expected[0] if expected else None), leaf_vars


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
    # Alternating circuits and reusing one with another initialization must
    # never answer from the other circuit's table or the last target's state.
    a, b = demo_circuit(), and_circuit()
    for _ in range(2):
        assert preimages_deduce(a, "1001").preimages == ("0110",)
        assert preimages_deduce(b, "1").preimages == ("11",)
        assert preimage_one(a, "1001") == "0110"
        assert preimage_one(b, "0") == "00"
    init = "1010"
    y = run(a, "0110" + init)[4:]
    assert preimages_deduce(a, y, output_init=init).preimages == forward_preimages(a, y, init)
    assert preimages_deduce(a, "1001").preimages == ("0110",)


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


# Both entry points share the input checks.
DEDUCERS = (preimages_deduce, preimage_one)


def test_deduce_rejects_bad_arity():
    for deduce in DEDUCERS:
        with pytest.raises(ValueError, match="target length"):
            deduce(demo_circuit(), "10101")
        with pytest.raises(ValueError, match="initialization length"):
            deduce(demo_circuit(), "1001", output_init="10")


def test_deduce_rejects_input_line_targets():
    expanded = expand_negative_controls(
        Circuit(num_inputs=1, num_outputs=1, gates=(Gate(target=1, negative_controls={0}),))
    )
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

import copy
import hashlib
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash import corpus
from revhash.circuit import (
    Circuit,
    Gate,
    read_circuit_json,
    write_circuit_json,
)
from revhash.esop import EsopCover, from_pla, minimize
from revhash.pla import Cube, PlaFunction, int_to_bits, parse_pla
from revhash.sim import run
from revhash.synth import CircuitStats, read_real, reverse, stats, synthesize, write_real

from conftest import CNOT, NOT, benchmark_circuits, circuits, covers

AND_PLA = ".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e"


def and_circuit():
    return synthesize(from_pla(parse_pla(AND_PLA)))


def test_gate_validation():
    with pytest.raises(ValueError, match="target line 0 is also a control"):
        Gate(target=0, positive_controls={0})
    with pytest.raises(ValueError, match="target line 1 is also a control"):
        Gate(target=1, negative_controls={1, 2})
    with pytest.raises(ValueError, match="a line cannot be both a positive and a negative control"):
        Gate(target=2, positive_controls={0}, negative_controls={0})
    for bad in (dict(target=-1), dict(target=1, positive_controls={-1}),
                dict(target=1, negative_controls={0, -2})):
        with pytest.raises(ValueError, match="negative line"):
            Gate(**bad)


def test_gate_control_count():
    assert NOT(0).control_count == 0
    assert CNOT(0, 1).control_count == 1
    assert Gate(target=3, positive_controls={0, 1}, negative_controls={2}).control_count == 3


def test_gate_value_semantics():
    g = Gate(target=3, positive_controls=[0, 1], negative_controls=(2,))
    assert g == Gate(3, frozenset({0, 1}), frozenset({2})) and hash(g) == hash(Gate(3, {0, 1}, {2}))
    assert g != Gate(3, {0, 1})
    assert repr(g) == "Gate(target=3, positive_controls=frozenset({0, 1}), negative_controls=frozenset({2}))"
    assert (g.positive_mask, g.negative_mask, g.control_count) == (0b011, 0b100, 3)


@st.composite
def gate_lines(draw):
    """(n, m, target, positive, negative): disjoint control lists over the n
    inputs, in any order, and a target among the m outputs."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    controls = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    split = draw(st.integers(0, len(controls)))
    return n, m, n + draw(st.integers(0, m - 1)), controls[:split], controls[split:]


@settings(max_examples=200, deadline=None)
@given(gate_lines())
def test_gate_from_lines_equals_gate_from_cube(case):
    n, m, target, pos, neg = case
    inputs = "".join("1" if i in pos else "0" if i in neg else "-" for i in range(n))
    outputs = "".join("1" if n + j == target else "0" for j in range(m))
    (made,) = synthesize(EsopCover(n, m, (Cube(inputs, outputs),))).gates
    g = Gate(target, pos, neg)
    assert g == made and hash(g) == hash(made) and repr(g) == repr(made)
    for gate in (g, made):
        assert gate.positive_controls == frozenset(pos) and gate.negative_controls == frozenset(neg)
        assert gate.control_count == len(pos) + len(neg)


def test_gate_is_immutable():
    g = Gate(target=3, positive_controls={0, 1}, negative_controls={2})
    views = (g.positive_controls, g.negative_controls)
    for name in ("target", "positive_controls", "negative_controls", "positive_mask",
                 "negative_mask", "control_count", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.positive_controls, g.negative_controls) == views
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and repr(twin) == repr(g) and twin.control_count == 3


def synthesize_by_scanning(c: EsopCover) -> list[tuple]:
    """Each gate of synthesize(c) as (target, positive, negative, positive
    mask, negative mask, control count), made by scanning the strings of
    every cube character by character, with no Gate."""
    gates = []
    for cu in c.cubes:
        pos = frozenset(i for i, ch in enumerate(cu.inputs) if ch == "1")
        neg = frozenset(i for i, ch in enumerate(cu.inputs) if ch == "0")
        for j, ch in enumerate(cu.outputs):
            if ch == "1":
                gates.append((c.n + j, pos, neg, sum(1 << i for i in pos), sum(1 << i for i in neg),
                              len(pos) + len(neg)))
    return gates


@settings(max_examples=150, deadline=None)
@given(covers())
def test_synthesize_matches_scanning_oracle(case):
    n, m, cubes = case
    # As an XOR cover its dash rows give gates with fewer controls.
    for cover in (EsopCover(n, m, tuple(cubes)), from_pla(PlaFunction(n, m, tuple(cubes)))):
        got = [(g.target, g.positive_controls, g.negative_controls, g.positive_mask, g.negative_mask,
                g.control_count) for g in synthesize(cover).gates]
        assert got == synthesize_by_scanning(cover)


def test_synthesize_and():
    c = and_circuit()
    assert len(c.gates) == 1
    g = c.gates[0]
    assert g.target == 2
    assert g.positive_controls == {0, 1} and not g.negative_controls


def test_synthesize_negative_control():
    cover = EsopCover(n=2, m=1, cubes=(Cube("0-", "1"),))
    c = synthesize(cover)
    g = c.gates[0]
    assert g.target == 2
    assert g.negative_controls == {0} and not g.positive_controls


def test_synthesize_all_dash_is_plain_not():
    cover = EsopCover(n=2, m=1, cubes=(Cube("--", "1"),))
    g = synthesize(cover).gates[0]
    assert g.control_count == 0 and g.target == 2


def test_synthesize_gate_count_and_order():
    cover = EsopCover(n=2, m=2, cubes=(Cube("11", "11"), Cube("0-", "01")))
    c = synthesize(cover)
    # One gate per 1-bit in each cube's outputs, cube order then output order.
    assert [g.target for g in c.gates] == [2, 3, 3]
    assert len(c.gates) == sum(cu.output_mask.bit_count() for cu in cover.cubes)


def test_synthesize_never_targets_inputs(small_corpus):
    for f in small_corpus.values():
        c = synthesize(from_pla(f))
        assert all(g.target >= c.num_inputs for g in c.gates)


def real_gates(c: Circuit) -> list[str]:
    """The gate lines of write_real(c), after checking that reading the file
    back gives a circuit that computes what c computes."""
    text = write_real(c)
    back = read_real(text)
    for state in range(1 << c.width):
        s = int_to_bits(state, c.width)
        assert run(back, s) == run(c, s)
    return [line for line in text.splitlines() if line.startswith("t")]


def test_expand_negative_controls_sandwich():
    c = Circuit(num_inputs=1, num_outputs=1, gates=(Gate(target=1, negative_controls={0}),))
    assert real_gates(c) == ["t1 x0", "t2 x0 y0", "t1 x0"]
    c = Circuit(num_inputs=3, num_outputs=1, gates=(Gate(3, positive_controls={1}, negative_controls={0, 2}),))
    assert real_gates(c) == ["t1 x0", "t1 x2", "t4 x0 x1 x2 y0", "t1 x0", "t1 x2"]


def test_expand_no_negatives_unchanged():
    assert real_gates(and_circuit()) == ["t3 x0 x1 y0"]
    c = Circuit(num_inputs=2, num_outputs=2, gates=(CNOT(1, 2), NOT(3), Gate(3, {0, 1})))
    assert real_gates(c) == ["t2 x1 y0", "t1 y1", "t3 x0 x1 y1"]


def test_expand_then_cleanup_cancels_interior_pair():
    c = Circuit(num_inputs=1, num_outputs=2, gates=(
        Gate(target=1, negative_controls={0}),
        Gate(target=2, negative_controls={0}),
    ))
    assert real_gates(c) == ["t1 x0", "t2 x0 y0", "t2 x0 y1", "t1 x0"]  # 4 NOTs before cleanup


def test_remove_nots_involution():
    assert real_gates(Circuit(num_inputs=1, num_outputs=1, gates=(NOT(0), NOT(0)))) == []
    assert real_gates(Circuit(num_inputs=1, num_outputs=1, gates=(NOT(1), NOT(1), NOT(1)))) == ["t1 y0"]


def test_remove_nots_blocked_by_touching_gate():
    # A gate blocks the cancel by a control on the line or by targeting it.
    c = Circuit(num_inputs=1, num_outputs=2, gates=(
        NOT(0), CNOT(0, 1), NOT(0), NOT(0), CNOT(0, 2), NOT(0),
    ))
    assert real_gates(c) == ["t1 x0", "t2 x0 y0", "t2 x0 y1", "t1 x0"]
    c = Circuit(num_inputs=1, num_outputs=1, gates=(NOT(1), CNOT(0, 1), NOT(1)))
    assert real_gates(c) == ["t1 y0", "t2 x0 y0", "t1 y0"]


def test_remove_nots_cancels_across_untouching_gate():
    c = Circuit(num_inputs=2, num_outputs=1, gates=(NOT(0), CNOT(1, 2), NOT(0)))
    assert real_gates(c) == ["t2 x1 y0"]
    # The closing NOTs of one sandwich cancel the opening NOTs of the next.
    c = Circuit(num_inputs=3, num_outputs=2, gates=(Gate(3, {1}, {0}), CNOT(2, 4), Gate(4, {1}, {0})))
    assert real_gates(c) == ["t1 x0", "t3 x0 x1 y0", "t2 x2 y1", "t3 x0 x1 y1", "t1 x0"]


def test_reverse_order_and_involution():
    g1, g2, g3 = NOT(0), CNOT(0, 1), NOT(1)
    c = Circuit(num_inputs=1, num_outputs=1, gates=(g1, g2, g3))
    r = reverse(c)
    assert r.gates == (g3, g2, g1)
    assert reverse(r).gates == c.gates
    single = Circuit(num_inputs=1, num_outputs=1, gates=(g1,))
    assert reverse(single).gates == single.gates


def test_stats_and():
    st = stats(and_circuit())
    assert st.total == 1
    assert st.by_controls == {2: 1}


def test_stats_empty():
    st = stats(Circuit(num_inputs=1, num_outputs=1))
    assert st.total == 0 and st.by_controls == {}


def test_stats_counts_expanded_nots():
    c = Circuit(num_inputs=1, num_outputs=1,
                gates=(Gate(target=1, negative_controls={0}),))
    st = stats(c)
    assert st.total == 3  # NOT, CNOT, NOT
    assert st.by_controls == {0: 2, 1: 1}
    assert st.raw_gates == 1


@settings(max_examples=300, deadline=None)
@given(circuits(max_width=5))
def test_stats_counts_the_expanded_cleaned_circuit(c):
    # Few lines and plain NOTs make NOT pairs open, cancel and get blocked.
    # A t<k> line is a gate with k - 1 controls.
    kinds = [line.split()[0] for line in write_real(c).splitlines() if line.startswith("t")]
    counts = Counter(int(kind[1:]) - 1 for kind in kinds)
    assert stats(c) == CircuitStats(total=len(kinds), by_controls=dict(sorted(counts.items())),
                                    raw_gates=len(c.gates))


# sha256 prefixes of write_real's text for each corpus function compiled as
# `revhash synth` compiles it, and for the benchmark's perm10 and compress12
# circuits: (forward, reversed).
REAL_DIGESTS = {
    "aes4_sbox": ("13e2f2bd55aff261", "4371d502139e98ad"),
    "present_sbox": ("5996c775240e8917", "2fa77dfbdc18ea17"),
    "des_sbox1": ("ba7d2dc84fb36759", "bc02b13d9729a40a"),
    "des_sbox2": ("7e5cfb03faa2ef7e", "bab010a7416a1244"),
    "des_sbox3": ("e30f6fcf6ce77a77", "d6ac52b0fbe61118"),
    "des_sbox4": ("f9ae76f2d3dd6ca2", "b77dbcf374d41d32"),
    "des_sbox5": ("2769462e0a63db23", "753c483959e39fd6"),
    "des_sbox6": ("7e1f123d2b5fd7f2", "5636c3cc132c8535"),
    "des_sbox7": ("dbc04ceaf2b92254", "a7993133cc7bb636"),
    "des_sbox8": ("8501f98ede89bf05", "707b564199ef8421"),
    "aes_sbox": ("dab9a263621a4195", "6bcfd4d19ccdcf33"),
    "aes_inv_sbox": ("03e2da2f9511ae61", "9a8522939466ff06"),
    "hash8_avalanche": ("ddcb4f76b600530d", "770f0f5747008e02"),
    "perm10": ("bd2454938fde2b07", "1c406f722477a3dc"),
    "compress12": ("99faa19cfa1d26f5", "e4d59236a1861c86"),
}


def test_real_files_are_pinned():
    compiled = [(name, synthesize(minimize(from_pla(f)), name=name)) for name, f in corpus.corpus_functions()]
    digests = {name: tuple(hashlib.sha256(write_real(d).encode()).hexdigest()[:16] for d in (c, reverse(c)))
               for name, c in compiled + benchmark_circuits()}
    assert digests == REAL_DIGESTS


def test_real_roundtrip_preserves_gates():
    # Every corpus file, minimized or not, forward and reversed: the file holds
    # the circuit `stats` counts, and the reader gives back the exact gates.
    for name, f in corpus.corpus_functions() + [("demo_hash4", corpus.demo_hash4_pla())]:
        cover = from_pla(f)
        for forward in (synthesize(minimize(cover), name=name), synthesize(cover, name=name)):
            for c in (forward, reverse(forward)):
                text = write_real(c)
                assert read_real(text) == c
                assert sum(line.startswith("t") for line in text.splitlines()) == stats(c).total


@settings(max_examples=300, deadline=None)
@given(circuits(max_width=5))
def test_real_roundtrip_computes_the_same_function(c):
    # The strategy also draws targets and NOTs on input lines and negative
    # controls on output lines, which no synthesized circuit has.
    back = read_real(write_real(c))
    for s in range(1 << c.width):
        state = int_to_bits(s, c.width)
        assert run(back, state) == run(c, state)


def test_real_requires_role_comment():
    c = and_circuit()
    text = "\n".join(l for l in write_real(c).splitlines() if not l.startswith("#"))
    with pytest.raises(ValueError):
        read_real(text)


def test_read_real_errors_name_their_line():
    head = "# revhash inputs=2 outputs=1\n.numvars 3\n.variables x0 x1 y0\n.begin\n"
    cases = (
        # "²".isdigit() holds, but int() refuses it.
        (head.replace(".numvars 3", ".numvars \u00b2") + "t2 x0 y0\n.end\n",
         "line 2: malformed .numvars line: '.numvars \u00b2'"),
        (head + "t\u00b2 x0 y0\n.end\n", "line 5: unsupported .real gate: 't\u00b2 x0 y0'"),
        (head + "t2 z9 y0\n.end\n", "line 5: gate names a line not in .variables: 't2 z9 y0'"),
        (head + "t2 y0 y0\n.end\n", "line 5: gate names a line twice: 't2 y0 y0'"),
        (head.replace("inputs=2", "inputs=x") + "t2 x0 y0\n.end\n",
         "line 1: role comment needs decimal inputs= and outputs=: '# revhash inputs=x outputs=1'"),
    )
    for text, message in cases:
        with pytest.raises(ValueError) as exc:
            read_real(text)
        assert str(exc.value) == message


def test_real_output_shape():
    text = write_real(and_circuit())
    assert ".numvars 3" in text
    assert "t3 x0 x1 y0" in text
    assert text.index(".begin") < text.index("t3") < text.index(".end")


def test_json_roundtrip():
    cover = EsopCover(n=2, m=1, cubes=(Cube("0-", "1"), Cube("11", "1")))
    c = synthesize(cover, name="demo")
    back = read_circuit_json(write_circuit_json(c))
    assert back == c


def test_synthesize_keeps_its_cover_and_rewrites_drop_it():
    cover = minimize(from_pla(corpus.demo_hash4_pla()))
    c = synthesize(cover, name="demo")
    assert c.cover is cover
    bare = Circuit(c.num_inputs, c.num_outputs, c.gates, c.name)
    assert bare.cover is None
    # The cover is no part of the circuit's value or of its files.
    assert bare == c and hash(bare) == hash(c) and repr(bare) == repr(c)
    assert write_real(bare) == write_real(c) and write_circuit_json(bare) == write_circuit_json(c)
    with pytest.raises(TypeError):
        Circuit(c.num_inputs, c.num_outputs, c.gates, cover=cover)
    rewritten = (reverse(c), c.with_gates(c.gates),
                 read_real(write_real(c)), read_circuit_json(write_circuit_json(c)))
    assert [r.cover for r in rewritten] == [None] * 4


def test_circuit_width_validation():
    with pytest.raises(ValueError, match="gate on line 5 exceeds width 2"):
        Circuit(num_inputs=1, num_outputs=1, gates=(NOT(5),))
    # The highest offending line is named, whichever gate holds it.
    with pytest.raises(ValueError, match="gate on line 5 exceeds width 3"):
        Circuit(num_inputs=2, num_outputs=1,
                gates=[Gate(target=4), CNOT(0, 1), Gate(target=0, negative_controls={5})])
    with pytest.raises(ValueError, match="gate on line 3 exceeds width 3"):
        Circuit(num_inputs=2, num_outputs=1, gates=[CNOT(3, 2)])
    assert Circuit(num_inputs=2, num_outputs=1, gates=[Gate(2, {0}, {1})]).width == 3

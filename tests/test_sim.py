import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash.analyze import avalanche_check, collision_scan
from revhash.circuit import CNOT, NOT, Circuit, Gate
from revhash.cli import ENV_LIMIT, build_parser
from revhash.errors import ResourceLimitError
from revhash.esop import EsopCover, evaluate_esop, from_pla, minimize
from revhash.invert import preimage_one, preimages_bruteforce, preimages_deduce
from revhash.pla import Cube, PlaFunction, evaluate_pla, int_to_bits, parse_pla
from revhash.sim import (
    EXHAUSTIVE_LIMIT,
    VerifyMode,
    apply_gate,
    forward_words,
    run,
    truth_table,
    verify_against_spec,
    verify_identity,
)
from revhash.synth import reverse, synthesize

from revhash import corpus

from conftest import circuits, gates_on

AND_PLA = ".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e"


def and_circuit():
    return synthesize(from_pla(parse_pla(AND_PLA)))


def demo_circuit():
    return synthesize(minimize(from_pla(corpus.demo_hash4_pla())))


def test_apply_gate_toffoli():
    g = Gate(target=2, positive_controls={0, 1})
    assert apply_gate("111", g) == "110"
    assert apply_gate("101", g) == "101"


def test_apply_gate_cnot():
    assert apply_gate("10", CNOT(0, 1)) == "11"
    assert apply_gate("00", CNOT(0, 1)) == "00"


def test_apply_gate_not():
    assert apply_gate("0", NOT(0)) == "1"


def test_apply_gate_negative_control():
    g = Gate(target=1, negative_controls={0})
    assert apply_gate("00", g) == "01"
    assert apply_gate("10", g) == "10"


def test_run_demo_hash_pair():
    c = demo_circuit()
    assert run(c, "01100000") == "01101001"


def test_run_empty_circuit():
    c = Circuit(num_inputs=2, num_outputs=1)
    assert run(c, "101") == "101"


def test_run_reversal_restores_random_states():
    c = demo_circuit()
    r = reverse(c)
    rng = random.Random(11)
    for _ in range(100):
        s = int_to_bits(rng.getrandbits(8), 8)
        assert run(r, run(c, s)) == s


def test_run_width_check():
    with pytest.raises(ValueError):
        run(and_circuit(), "11")


def test_truth_table_and():
    assert truth_table(and_circuit()) == {"00": "0", "01": "0", "10": "0", "11": "1"}


def test_truth_table_demo_contains_worked_pair():
    assert truth_table(demo_circuit())["0110"] == "1001"


def test_truth_table_empty_circuit():
    c = Circuit(num_inputs=2, num_outputs=2)
    assert all(v == "00" for v in truth_table(c).values())


def test_truth_table_limit():
    c = Circuit(num_inputs=5, num_outputs=1)
    with pytest.raises(ResourceLimitError):
        truth_table(c, limit=4)


def test_verify_identity_exhaustive_pass():
    c = demo_circuit()
    report = verify_identity(c, reverse(c))
    assert report.passed and report.states_checked == 256
    assert report.counterexample is None


def test_verify_identity_and_circuit():
    c = and_circuit()
    report = verify_identity(c, reverse(c))
    assert report.passed and report.states_checked == 8


def test_verify_identity_detects_mutation():
    c = demo_circuit()
    r = reverse(c)
    mutated = c.with_gates(c.gates[1:])
    report = verify_identity(mutated, r)
    assert not report.passed
    assert report.counterexample is not None
    # The counterexample really does witness the failure.
    s = report.counterexample
    assert run(r, run(mutated, s)) != s


def test_verify_identity_width_mismatch():
    with pytest.raises(ValueError):
        verify_identity(and_circuit(), reverse(demo_circuit()))


def test_verify_identity_exhaustive_limit():
    c = Circuit(num_inputs=12, num_outputs=12)
    with pytest.raises(ResourceLimitError):
        verify_identity(c, c, width_limit=20)


def test_verify_identity_sampled():
    c = demo_circuit()
    report = verify_identity(c, reverse(c), mode=VerifyMode.SAMPLED, samples=500, seed=42)
    assert report.passed and report.states_checked == 500 and report.seed == 42


def test_verify_identity_sampled_detects_mutation():
    c = demo_circuit()
    mutated = c.with_gates(c.gates[1:])
    r = reverse(c)
    report = verify_identity(mutated, r, mode=VerifyMode.SAMPLED, samples=500, seed=1)
    assert not report.passed
    s = report.counterexample
    assert run(r, run(mutated, s)) != s


def test_report_json_shape():
    c = and_circuit()
    doc = verify_identity(c, reverse(c)).to_json_dict()
    assert doc == {"mode": "exhaustive", "states_checked": 8, "pass": True}


def test_verify_against_spec_pass():
    f = parse_pla(AND_PLA)
    assert verify_against_spec(synthesize(from_pla(f)), f).passed


def test_verify_against_spec_unequal_arities():
    f = dict(corpus.corpus_functions())["des_sbox1"]
    c = synthesize(minimize(from_pla(f)))
    report = verify_against_spec(c, f)
    assert report.passed and report.states_checked == 64


def test_verify_against_spec_detects_dropped_gate():
    f = corpus.corpus_functions()[0][1]
    c = synthesize(minimize(from_pla(f)))
    mutated = c.with_gates(c.gates[:-1])
    report = verify_against_spec(mutated, f)
    assert not report.passed and report.counterexample is not None
    x = report.counterexample
    assert run(mutated, x + "0" * f.m)[f.n:] != evaluate_pla(f, x)


def test_verify_against_spec_arity_mismatch():
    f = parse_pla(AND_PLA)
    with pytest.raises(ValueError):
        verify_against_spec(demo_circuit(), f)


def _random_circuit(rng, width=6, max_gates=12):
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        target = rng.randrange(width)
        others = [l for l in range(width) if l != target]
        rng.shuffle(others)
        k = rng.randint(0, min(3, len(others)))
        chosen = others[:k]
        split = rng.randint(0, len(chosen))
        gates.append(Gate(target=target,
                          positive_controls=frozenset(chosen[:split]),
                          negative_controls=frozenset(chosen[split:])))
    return Circuit(num_inputs=width - 1, num_outputs=1, gates=tuple(gates))


def test_gate_application_is_involution():
    rng = random.Random(21)
    for _ in range(500):
        c = _random_circuit(rng)
        s = int_to_bits(rng.getrandbits(c.width), c.width)
        for g in c.gates:
            assert apply_gate(apply_gate(s, g), g) == s


def test_commuting_disjoint_gates():
    rng = random.Random(22)
    for _ in range(200):
        width = 6
        used = list(range(width))
        rng.shuffle(used)
        g1 = Gate(target=used[0], positive_controls=frozenset(used[1:2]))
        g2 = Gate(target=used[2], positive_controls=frozenset(used[3:4]))
        c12 = Circuit(num_inputs=width, num_outputs=0, gates=(g1, g2))
        c21 = Circuit(num_inputs=width, num_outputs=0, gates=(g2, g1))
        s = int_to_bits(rng.getrandbits(width), width)
        assert run(c12, s) == run(c21, s)


def test_batch_matches_single_state():
    rng = random.Random(23)
    for _ in range(30):
        c = _random_circuit(rng)
        table = truth_table(c)
        for x, out in table.items():
            assert run(c, x + "0" * c.num_outputs)[c.num_inputs:] == out


@st.composite
def covers(draw):
    """A cover with dashes, n <= 6 inputs and m <= 3 outputs."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rows = st.tuples(st.text("01-", min_size=n, max_size=n), st.text("01", min_size=m, max_size=m))
    return n, m, [Cube(i, o) for i, o in draw(st.lists(rows, max_size=8))]


def _word_bits(words, s):
    return "".join("1" if (w >> s) & 1 else "0" for w in words)


@settings(max_examples=150, deadline=None)
@given(covers())
def test_forward_words_matches_cover_evaluation(case):
    n, m, cubes = case
    f, cover = PlaFunction(n=n, m=m, cubes=cubes), EsopCover(n=n, m=m, cubes=cubes)
    or_words, xor_words = forward_words(f), forward_words(cover)
    for s in range(1 << n):
        x = int_to_bits(s, n)
        assert _word_bits(or_words, s) == evaluate_pla(f, x)
        assert _word_bits(xor_words, s) == evaluate_esop(cover, x)


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_forward_words_matches_single_state_run(c):
    words = forward_words(c)
    for s in range(1 << c.num_inputs):
        x = int_to_bits(s, c.num_inputs)
        assert _word_bits(words, s) == run(c, x + "0" * c.num_outputs)[c.num_inputs:]


def test_one_exhaustive_limit(monkeypatch):
    defaults = {
        fn.__name__: inspect.signature(fn).parameters[param].default
        for fn, param in ((forward_words, "limit"), (truth_table, "limit"),
                          (verify_identity, "width_limit"), (verify_against_spec, "limit"),
                          (preimages_bruteforce, "limit"), (preimages_deduce, "limit"),
                          (preimage_one, "limit"), (avalanche_check, "limit"),
                          (collision_scan, "limit"))
    }
    monkeypatch.delenv(ENV_LIMIT, raising=False)
    defaults["--exhaustive-limit"] = build_parser().parse_args(["analyze", "f.pla"]).exhaustive_limit
    assert defaults == dict.fromkeys(defaults, EXHAUSTIVE_LIMIT)


def _lowest_failing_state(forward, rev):
    for s in range(1 << forward.width):
        state = int_to_bits(s, forward.width)
        if run(rev, run(forward, state)) != state:
            return state
    return None


@settings(max_examples=200, deadline=None)
@given(circuits(max_width=7), st.sampled_from(["same", "drop", "add"]), st.data())
def test_verify_identity_matches_single_state_oracle(c, variant, data):
    gates = list(reverse(c).gates)
    if variant == "drop" and gates:
        del gates[data.draw(st.integers(0, len(gates) - 1))]
    elif variant == "add":
        gates.insert(data.draw(st.integers(0, len(gates))), data.draw(gates_on(c.width)))
    rev = c.with_gates(gates)
    report = verify_identity(c, rev)
    failing = _lowest_failing_state(c, rev)
    assert report.passed == (failing is None)
    assert report.counterexample == failing
    assert report.states_checked == 1 << c.width


def test_verify_identity_fails_on_unread_line():
    # No gate reads any line, so only the all-zero state is swept.
    report = verify_identity(Circuit(num_inputs=2, num_outputs=1, gates=[NOT(2)]),
                             Circuit(num_inputs=2, num_outputs=1))
    assert not report.passed and report.counterexample == "000"
    assert report.states_checked == 8


def test_verify_identity_gateless_wide_circuit():
    c = Circuit(num_inputs=8, num_outputs=8)
    report = verify_identity(c, c)
    assert report.passed and report.states_checked == 65536


def test_verify_identity_counterexample_on_read_lines():
    # Lines 1 and 3 are read; the gate fires when line 3 is 1 and line 1 is 0.
    forward = Circuit(num_inputs=4, num_outputs=2,
                      gates=[Gate(target=5, positive_controls=[3], negative_controls=[1])])
    report = verify_identity(forward, forward.with_gates([]))
    assert not report.passed and report.counterexample == "000100"
    assert report.states_checked == 64

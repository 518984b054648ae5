import gc
import inspect
import random
import time
import weakref
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revhash.analyze import avalanche_check, collision_scan
from revhash.circuit import Circuit, Gate
from revhash.cli import build_parser
from revhash.errors import ResourceLimitError
from revhash.esop import EsopCover, from_pla, minimize
from revhash.invert import preimage_one, preimages_bruteforce, preimages_deduce
from revhash.pla import Cube, PlaFunction, int_to_bits, parse_pla
from revhash.sim import (
    EXHAUSTIVE_LIMIT,
    VerifyMode,
    _line_patterns,
    forward_words,
    run,
    verify_against_spec,
    verify_identity,
)
from revhash.synth import reverse, synthesize

from revhash import corpus, sim

from conftest import (
    CNOT,
    NOT,
    apply_gate,
    circuits,
    covers,
    evaluate_esop,
    evaluate_pla,
    gates_on,
    random_truth_table,
    truth_table,
)

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


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_identity_sampled_needs_a_sample(samples):
    c = demo_circuit()
    with pytest.raises(ValueError, match="samples"):
        verify_identity(c, reverse(c), mode=VerifyMode.SAMPLED, samples=samples)


def test_verify_identity_sample_count_limit():
    c = demo_circuit()
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="sampled states"):
        verify_identity(c, reverse(c), mode=VerifyMode.SAMPLED, samples=1 << 40)
    assert time.perf_counter() - start < 0.5


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


def _word_bits(words, s):
    return "".join("1" if (w >> s) & 1 else "0" for w in words)


@settings(max_examples=150, deadline=None)
@given(covers())
# Minterm rows next to a dash row: 01 twice (no change under OR, dropped as
# an equal pair by EsopCover), and two rows on 11 that cancel bitwise under XOR.
@example((2, 2, [Cube("1-", "10"), Cube("01", "11"), Cube("01", "11"), Cube("11", "01"), Cube("11", "11")]))
def test_forward_words_matches_cover_evaluation(case):
    n, m, cubes = case
    f, cover = PlaFunction(n=n, m=m, cubes=cubes), EsopCover(n=n, m=m, cubes=cubes)
    for fold in (True, False):  # minterm rows folded per state, or taken alone
        with mock.patch.object(sim, "_fold_pays", lambda *_: fold):
            or_words, xor_words = forward_words(f), forward_words(cover)
        for s in range(1 << n):
            x = int_to_bits(s, n)
            assert _word_bits(or_words, s) == evaluate_pla(f, x)
            assert _word_bits(xor_words, s) == evaluate_esop(cover, x)


def test_minterm_rows_fold_only_when_many():
    rng = random.Random(5)
    sparse = [Cube(int_to_bits(rng.getrandbits(18), 18), "1" * 8) for _ in range(100)]
    sparse.append(Cube("-" * 18, "10000000"))
    table = corpus.table_to_pla("t", 10, 10, lambda x: x ^ 0x155)
    assert not sim._fold_pays(sum(1 + cu.output_mask.bit_count() for cu in sparse[:-1]), 18, 8)
    assert sim._fold_pays(sum(1 + cu.output_mask.bit_count() for cu in table.cubes), 10, 10)
    assert not sim._fold_pays(0, 1, 1)
    words = forward_words(PlaFunction(n=18, m=8, cubes=tuple(sparse)))
    assert words[0] == (1 << (1 << 18)) - 1
    assert words[1] == sum({1 << cu.value_mask for cu in sparse[:-1]})


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_forward_words_matches_single_state_run(c):
    words = forward_words(c)
    for s in range(1 << c.num_inputs):
        x = int_to_bits(s, c.num_inputs)
        assert _word_bits(words, s) == run(c, x + "0" * c.num_outputs)[c.num_inputs:]


def test_one_exhaustive_limit():
    defaults = {
        fn.__name__: inspect.signature(fn).parameters[param].default
        for fn, param in ((forward_words, "limit"), (truth_table, "limit"),
                          (verify_identity, "width_limit"), (verify_against_spec, "limit"),
                          (preimages_bruteforce, "limit"), (preimages_deduce, "limit"),
                          (preimage_one, "limit"), (avalanche_check, "limit"),
                          (collision_scan, "limit"))
    }
    defaults["--exhaustive-limit"] = build_parser().parse_args(["analyze", "f.pla"]).exhaustive_limit
    assert defaults == dict.fromkeys(defaults, EXHAUSTIVE_LIMIT)


def test_line_patterns_match_state_bits():
    for n in range(11):
        patterns = _line_patterns(n)
        assert patterns == [sum(1 << s for s in range(1 << n) if (s >> i) & 1) for i in range(n)]


def test_all_dash_sweep_at_and_over_limit():
    def all_ones(n):
        cube = [Cube("-" * n, "1")]
        return (PlaFunction(n=n, m=1, cubes=cube), EsopCover(n=n, m=1, cubes=cube),
                Circuit(num_inputs=n, num_outputs=1, gates=(NOT(n),)))

    for fn in all_ones(12):
        assert forward_words(fn, limit=12) == [(1 << 4096) - 1]
    for fn in all_ones(13):
        with pytest.raises(ResourceLimitError):
            forward_words(fn, limit=12)


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


def _assert_identity(forward, rev, passes):
    for mode in VerifyMode:
        report = verify_identity(forward, rev, mode=mode, samples=200, seed=5)
        assert report.passed == passes, (mode, rev.gates)
        if mode is VerifyMode.EXHAUSTIVE:
            assert report.counterexample == _lowest_failing_state(forward, rev)
        elif not passes:
            s = report.counterexample
            assert run(rev, run(forward, s)) != s


@pytest.mark.parametrize("n, gate, inverse", [
    (1, Gate(1, negative_controls={0}), CNOT(0, 1)),
    (2, Gate(2, negative_controls={0, 1}), Gate(2, {0}, {1})),
], ids=["one-control", "two-controls"])
def test_verify_identity_reversed_half_reads_a_targeted_line(n, gate, inverse):
    # The NOT leaves line 0 off its start pattern for the rest of the run,
    # the reversed gates included: they must AND line 0's word, not take a cube.
    forward = Circuit(num_inputs=n, num_outputs=1, gates=[NOT(0), gate])
    assert truth_table(forward)["1" + "0" * (n - 1)] == "1"
    _assert_identity(forward, reverse(forward), True)
    _assert_identity(forward, forward.with_gates([NOT(0), inverse]), True)
    _assert_identity(forward, forward.with_gates(reverse(forward).gates[:1]), False)


def test_verify_identity_uncontrolled_not_fires_everywhere():
    # Starts and ends with an uncontrolled NOT on a read input line; in a
    # sampled run, where no line is on the cube path, it must fire on every sample.
    forward = Circuit(num_inputs=2, num_outputs=1,
                      gates=[NOT(0), Gate(2, positive_controls={0, 1}), NOT(1)])
    inverse = [Gate(2, positive_controls={0}, negative_controls={1}), NOT(0), NOT(1)]
    _assert_identity(forward, reverse(forward), True)
    _assert_identity(forward, forward.with_gates(inverse), True)
    _assert_identity(forward, forward.with_gates(inverse[:2]), False)


def _masks(g):
    return g.positive_mask, g.negative_mask


@pytest.mark.parametrize("name, minimized", [("aes4_sbox", False), ("des_sbox1", True)])
def test_dropping_any_gate_fails_both_checks(name, minimized):
    f = dict(corpus.corpus_functions())[name]
    cover = from_pla(f)
    c = synthesize(minimize(cover) if minimized else cover)
    # Some drops fall inside a run of gates that share one fire word.
    assert max(len(list(same)) for _, same in groupby(c.gates, _masks)) >= 3
    r = reverse(c)
    assert verify_identity(c, r).passed and verify_against_spec(c, f).passed
    for k in range(len(c.gates)):
        mutated = c.with_gates(c.gates[:k] + c.gates[k + 1:])
        assert not verify_identity(mutated, r).passed, k
        assert not verify_against_spec(mutated, f).passed, k


@st.composite
def gate_runs(draw, max_width=7):
    """A circuit drawn as runs, each one control set on 1-4 targets in a row:
    uncontrolled NOTs, a target twice in one run (the pair cancels), and
    controls on lines an earlier run targeted, which the kernel must AND."""
    n = draw(st.integers(1, min(6, max_width - 1)))
    m = draw(st.integers(1, min(3, max_width - n)))
    lines, gates, targeted = range(n + m), [], []
    for _ in range(draw(st.integers(0, 5))):
        controls = draw(st.lists(st.sampled_from(lines), unique=True, max_size=min(3, n + m - 2)))
        if targeted and draw(st.booleans()) and targeted[-1] not in controls:
            controls.append(targeted[-1])
        split = draw(st.integers(0, len(controls)))
        others = [line for line in lines if line not in controls]
        for t in draw(st.lists(st.sampled_from(others), min_size=1, max_size=4)):
            gates.append(Gate(t, controls[:split], controls[split:]))
            targeted.append(t)
    return Circuit(num_inputs=n, num_outputs=m, gates=gates)


@settings(max_examples=200, deadline=None)
@given(gate_runs())
@example(Circuit(num_inputs=2, num_outputs=2, gates=[NOT(2), NOT(3), NOT(2), CNOT(2, 0), CNOT(2, 3)]))
@example(Circuit(num_inputs=3, num_outputs=2, gates=[
    Gate(3, {0}, {1}), Gate(4, {0}, {1}), Gate(3, {0}, {1}), Gate(1, {3}), Gate(2, {3})]))
def test_forward_words_shares_fire_words_across_runs(c):
    words = forward_words(c)
    for s in range(1 << c.num_inputs):
        x = int_to_bits(s, c.num_inputs)
        assert _word_bits(words, s) == run(c, x + "0" * c.num_outputs)[c.num_inputs:]


@settings(max_examples=200, deadline=None)
@given(gate_runs(), st.sampled_from(["same", "drop", "insert"]), st.data())
def test_verify_identity_shares_fire_words_across_runs(c, variant, data):
    gates = list(reverse(c).gates)
    # A gate that shares its masks with a neighbour is inside a run.
    inside = [k for k, g in enumerate(gates)
              if any(_masks(g) == _masks(h) for h in gates[max(k - 1, 0):k] + gates[k + 1:k + 2])]
    if variant != "same" and gates:
        k = data.draw(st.sampled_from(inside or range(len(gates))))
        if variant == "drop":
            del gates[k]
        else:
            g = gates[k]
            lines = g.positive_controls | g.negative_controls | {g.target}
            t = data.draw(st.sampled_from(sorted(set(range(c.width)) - lines) or [g.target]))
            gates.insert(k + data.draw(st.integers(0, 1)),
                         Gate(t, g.positive_controls, g.negative_controls))
    rev = c.with_gates(gates)
    failing = _lowest_failing_state(c, rev)
    exhaustive = verify_identity(c, rev)
    assert (exhaustive.passed, exhaustive.counterexample) == (failing is None, failing)
    # At seed 3, 4096 samples draw every state of a width <= 7, so the verdicts agree.
    sampled = verify_identity(c, rev, mode=VerifyMode.SAMPLED, samples=4096, seed=3)
    assert sampled.passed == (failing is None)
    if failing is not None:
        s = sampled.counterexample
        assert run(rev, run(c, s)) != s


# -- one evaluation per cover ---------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """The covers `sim._cover_words` evaluates from now on, in order."""
    built, build = [], sim._cover_words
    monkeypatch.setattr(sim, "_cover_words", lambda fn: built.append(fn) or build(fn))
    return built


def test_cover_cache_checks_the_limit_on_a_hit(built):
    f = random_truth_table(random.Random(5), 6, 2)
    assert forward_words(f) == forward_words(f) and built == [f]
    with pytest.raises(ResourceLimitError):
        forward_words(f, limit=5)
    with pytest.raises(ResourceLimitError):
        preimages_bruteforce(f, "01", limit=5)
    assert built == [f]


def test_cover_cache_gives_each_call_its_own_list():
    f = random_truth_table(random.Random(6), 5, 3)
    words = forward_words(f)
    want = list(words)
    words[0] ^= 1
    words.append(7)
    assert forward_words(f) == want


def test_cover_cache_holds_no_strong_reference():
    f = random_truth_table(random.Random(7), 5, 2)
    forward_words(f)
    r = weakref.ref(f)
    del f
    gc.collect()
    assert r() is None


def test_one_evaluation_serves_every_exhaustive_reader(built):
    f = random_truth_table(random.Random(8), 6, 3)
    c = synthesize(minimize(from_pla(f)))
    assert verify_against_spec(c, f).passed
    avalanche_check(f)
    collision_scan(f)
    for y in range(1 << f.m):
        preimages_bruteforce(f, int_to_bits(y, f.m))
    assert len(built) == 1 and built[0] is f


def test_alternating_covers_evaluate_each_once(built):
    f = random_truth_table(random.Random(9), 5, 2)
    g = from_pla(f)
    for _ in range(3):
        assert preimages_bruteforce(f, "01").preimages == preimages_bruteforce(g, "01").preimages
    assert len(built) == 2 and built[0] is f and built[1] is g
    # A circuit's words are not kept: each call sweeps its gates again.
    c = synthesize(g)
    assert forward_words(c) == forward_words(g) and len(built) == 2

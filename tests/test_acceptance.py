"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
and the informational gate-count comparison.
"""

import random
import time

import pytest

from revhash import corpus
from revhash.circuit import Circuit, Gate
from revhash.esop import EsopCover, from_pla, minimize
from revhash.invert import preimages_bruteforce, preimages_deduce
from revhash.pla import (
    Cube,
    PlaFunction,
    int_to_bits,
    parse_pla,
    write_pla,
)
from revhash.sim import run, verify_identity
from revhash.synth import read_real, reverse, stats, synthesize, write_real
from revhash.analyze import collision_scan

from conftest import evaluate_esop, evaluate_pla, random_truth_table, truth_table


def _verdict(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def pipelines():
    """name -> (function, minimized circuit, unminimized circuit), built once."""
    built = {}
    for name, f in corpus.corpus_functions():
        cover = from_pla(f)
        minimized = minimize(cover)
        built[name] = (f, synthesize(minimized, name=name), synthesize(cover, name=name),
                       len(cover.cubes), len(minimized.cubes))
    return built


def test_criterion_1_worked_example():
    t0 = time.process_time()
    f = parse_pla(write_pla(corpus.demo_hash4_pla()))
    circuit = synthesize(minimize(from_pla(f)))
    final = run(circuit, "0110" + "0000")
    assert final == "01101001", "forward simulation of 0110 must yield 1001"
    result = preimages_deduce(circuit, "1001")
    assert result.preimages == ("0110",), "inversion of 1001 must yield exactly {0110}"
    elapsed = time.process_time() - t0
    assert elapsed < 1.0
    _verdict(1, f"0110 -> 1001 forward, 1001 -> {{0110}} inverse, {elapsed:.3f}s < 1s")


def test_criterion_2_identity_validation(pipelines):
    t0 = time.process_time()
    states = 0
    for name, (f, circuit, raw_circuit, *_rest) in pipelines.items():
        width = circuit.width
        assert 8 <= width <= 16, name
        report = verify_identity(circuit, reverse(circuit))
        assert report.passed, f"{name}: counterexample {report.counterexample}"
        assert report.states_checked == 1 << width
        states += report.states_checked
    elapsed = time.process_time() - t0
    assert elapsed < 10.0
    _verdict(2, f"13 functions, {states} states total, 0 counterexamples, {elapsed:.2f}s < 10s")


def test_criterion_3_specification_equivalence(pipelines):
    checked = 0
    for name, (f, circuit, *_rest) in pipelines.items():
        reference = _reference_fn(name)
        table = truth_table(circuit)
        for x in range(1 << f.n):
            xs = format(x, f"0{f.n}b")
            assert table[xs] == format(reference(x), f"0{f.m}b"), (name, xs)
            checked += 1
    _verdict(3, f"{checked} input/output pairs against independent tables, 0 mismatches")


def _reference_fn(name):
    if name == "aes4_sbox":
        return lambda x: corpus.aes4_sbox()[x]
    if name == "present_sbox":
        return lambda x: corpus.PRESENT_SBOX[x]
    if name.startswith("des_sbox"):
        return corpus.des_sbox(int(name[-1]))
    if name == "aes_sbox":
        return lambda x: corpus.aes_sbox()[x]
    if name == "aes_inv_sbox":
        return lambda x: corpus.aes_inv_sbox()[x]
    if name == "hash8_avalanche":
        return corpus.hash8
    raise KeyError(name)


def test_criterion_4_inversion_oracle_agreement(pipelines):
    t0 = time.process_time()
    targets = 0
    for name, (f, circuit, *_rest) in pipelines.items():
        for y in range(1 << f.m):
            ys = int_to_bits(y, f.m)
            deduced = preimages_deduce(circuit, ys)
            oracle = preimages_bruteforce(f, ys)
            assert deduced.preimages == oracle.preimages, (name, ys)
            targets += 1
    elapsed = time.process_time() - t0
    assert elapsed < 60.0
    _verdict(4, f"{targets} targets across 13 functions, 0 mismatches, {elapsed:.1f}s < 60s")


# Published no-minimization gate counts, for the informational comparison.
_PUBLISHED_NO_MIN = {
    "aes4_sbox": 60, "present_sbox": 60,
    "des_sbox1": 246, "des_sbox2": 246, "des_sbox3": 246, "des_sbox4": 249,
    "des_sbox5": 246, "des_sbox6": 246, "des_sbox7": 246, "des_sbox8": 248,
    "aes_sbox": 1532, "aes_inv_sbox": 1532, "hash8_avalanche": 1532,
}


def test_criterion_5_minimization_gains(pipelines):
    lines = []
    for name, (f, circuit_min, circuit_raw, cubes_before, cubes_after) in pipelines.items():
        g_min = stats(circuit_min).total
        g_raw = stats(circuit_raw).total
        assert cubes_after <= cubes_before, name
        assert g_min <= g_raw, name
        if f.n == 8:
            assert g_min < g_raw, f"{name}: 8-bit functions need a strict gate reduction"
        published = _PUBLISHED_NO_MIN[name]
        deviation = 100.0 * (g_raw - published) / published
        within = "within" if abs(deviation) <= 25.0 else "OUTSIDE"
        lines.append(f"    {name}: gates {g_raw} -> {g_min}; published no-min {published} "
                     f"({deviation:+.1f}%, {within} ±25%, informational)")
    _verdict(5, "minimized <= unminimized everywhere, strict for 8-bit functions\n"
                + "\n".join(lines))


def test_criterion_6_desk_scale_timing():
    f = dict(corpus.corpus_functions())["aes_sbox"]
    text = write_pla(f)
    t0 = time.process_time()
    parsed = parse_pla(text)
    cover = minimize(from_pla(parsed))
    circuit = synthesize(cover)
    reversed_circuit = reverse(circuit)
    report = verify_identity(circuit, reversed_circuit)
    elapsed = time.process_time() - t0
    assert report.passed
    assert elapsed < 5.0, f"8-bit pipeline took {elapsed:.2f}s (soft bound: investigate)"
    _verdict(6, f"8-input/8-output parse->minimize->synthesize->reverse->verify "
                f"in {elapsed:.2f}s < 5s CPU")


# -- criterion 7: randomized property suites, 10^4 cases each -----------------

_SEED = 20240811


def _random_gate(rng, width):
    target = rng.randrange(width)
    others = [l for l in range(width) if l != target]
    rng.shuffle(others)
    k = rng.randint(0, min(3, len(others)))
    split = rng.randint(0, k)
    return Gate(target=target,
                positive_controls=frozenset(others[:split]),
                negative_controls=frozenset(others[split:k]))


def _random_circuit(rng, width, max_gates=8):
    gates = tuple(_random_gate(rng, width) for _ in range(rng.randint(1, max_gates)))
    return Circuit(num_inputs=width - 1, num_outputs=1, gates=gates)


def test_criterion_7_property_suites():
    cases = 10_000
    rng = random.Random(_SEED)

    # Gate involution: applying any gate twice restores any state.
    from revhash.sim import _apply_gate_int
    for _ in range(cases):
        width = rng.randint(2, 8)
        g = _random_gate(rng, width)
        s = rng.getrandbits(width)
        assert _apply_gate_int(_apply_gate_int(s, g), g) == s

    # Reversal double application is the identity on the gate list.
    for _ in range(cases):
        c = _random_circuit(rng, rng.randint(2, 6), max_gates=5)
        assert reverse(reverse(c)).gates == c.gates

    # The .real rewrite (NOT sandwiches, NOT-pair cleanup) preserves semantics.
    checked = 0
    while checked < cases:
        c = _random_circuit(rng, rng.randint(2, 6))
        written = read_real(write_real(c))
        for _ in range(40):
            s = int_to_bits(rng.getrandbits(c.width), c.width)
            assert run(written, s) == run(c, s)
            checked += 1

    # Expansion soundness: the XOR cover from_pla builds evaluates, under
    # XOR, to the OR evaluation of the dashed cover it came from.
    checked = 0
    while checked < cases:
        f = _random_dashed_function(rng)
        g = from_pla(f)
        for x in range(1 << f.n):
            xs = int_to_bits(x, f.n)
            assert evaluate_esop(g, xs) == evaluate_pla(f, xs)
            checked += 1

    # Minimizer: equivalence and cube-count monotonicity.
    for _ in range(cases):
        cover = _random_cover(rng)
        result = minimize(cover)
        assert len(result.cubes) <= len(cover.cubes)
        assert _esop_table(result) == _esop_table(cover)

    # Collision groups partition the input space.
    for _ in range(cases):
        f = random_truth_table(rng, rng.randint(1, 4), rng.randint(1, 3))
        report = collision_scan(f)
        assert sum(len(xs) for xs in report.buckets.values()) == 1 << f.n

    _verdict(7, f"6 property suites x {cases} cases, seed={_SEED}, 0 failures")


def _random_dashed_function(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 2)
    cubes = tuple(
        Cube("".join(rng.choice("01-") for _ in range(n)),
             "".join(rng.choice("01") for _ in range(m)))
        for _ in range(rng.randint(0, 4))
    )
    return PlaFunction(n=n, m=m, cubes=cubes)


def _random_cover(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 2)
    cubes = tuple(
        Cube("".join(rng.choice("01-") for _ in range(n)),
             "".join(rng.choice("01") for _ in range(m)))
        for _ in range(rng.randint(0, 6))
    )
    return EsopCover(n=n, m=m, cubes=cubes)


def _esop_table(cover):
    rows = []
    for x in range(1 << cover.n):
        rows.append(evaluate_esop(cover, int_to_bits(x, cover.n)))
    return rows


def test_criterion_8_exclusions_documented():
    # Not reproduced, by design: the published minimizer-specific gate
    # counts and CPU times (different minimizer, different machine), and
    # the unpublished custom 8-bit hash's exact rows. The no-minimization
    # counts are compared informationally under criterion 5.
    _verdict(8, "excluded reproductions documented (minimizer-specific counts, "
                "machine timings, unpublished 8-bit hash rows)")

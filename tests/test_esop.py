import hashlib
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash import esop
from revhash.esop import (
    CoverCost,
    EsopCover,
    cost,
    from_pla,
    minimize,
    read_cover,
    write_esop,
)
from revhash.errors import ResourceLimitError
from revhash.pla import Cube, PlaFunction, int_to_bits, parse_pla

from conftest import covers, evaluate_esop, evaluate_pla, random_function

AND_PLA = ".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e"


def brute_table(cover: EsopCover) -> list[str]:
    """Reference evaluation: per-input cube matching, no shared code path."""
    out = []
    for x in range(1 << cover.n):
        xs = int_to_bits(x, cover.n)
        acc = [0] * cover.m
        for c in cover.cubes:
            if all(ch == "-" or ch == xs[i] for i, ch in enumerate(c.inputs)):
                for j, ch in enumerate(c.outputs):
                    acc[j] ^= ch == "1"
        out.append("".join(str(int(b)) for b in acc))
    return out


def test_from_pla_and_single_cube():
    cover = from_pla(parse_pla(AND_PLA))
    assert [(c.inputs, c.outputs) for c in cover.cubes] == [("11", "1")]
    for x, expect in (("00", "0"), ("01", "0"), ("10", "0"), ("11", "1")):
        assert evaluate_esop(cover, x) == expect


def test_from_pla_or_function():
    f = PlaFunction(n=2, m=1, cubes=(
        Cube("01", "1"), Cube("10", "1"), Cube("11", "1"),
    ))
    cover = from_pla(f)
    assert {(c.inputs, c.outputs) for c in cover.cubes} == {("01", "1"), ("10", "1"), ("11", "1")}
    for x in ("00", "01", "10", "11"):
        assert evaluate_esop(cover, x) == evaluate_pla(f, x)


def test_from_pla_constant_zero():
    f = PlaFunction(n=2, m=1, cubes=(Cube("1-", "0"),))
    assert from_pla(f).cubes == ()


def test_from_pla_overlap_is_or():
    # Two overlapping rows must OR together before XOR reinterpretation.
    f = PlaFunction(n=2, m=1, cubes=(Cube("1-", "1"), Cube("-1", "1")))
    cover = from_pla(f)
    for x in ("00", "01", "10", "11"):
        assert evaluate_esop(cover, x) == evaluate_pla(f, x)


def test_from_pla_budget(monkeypatch):
    # One all-dash row at n = 21 spans 2^21 minterms, past the 2^20 limit:
    # refused before any is expanded, where building them took seconds.
    monkeypatch.setattr(esop, "Cube", mock.Mock(side_effect=AssertionError("a cube was built")))
    f = PlaFunction(n=21, m=1, cubes=(Cube("-" * 21, "1"),))
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="exceed limit 2\\^20"):
        from_pla(f)
    assert time.perf_counter() - t0 < 0.5


def minterm_cubes(n: int, m: int, cubes) -> tuple[Cube, ...]:
    """The disjoint minterm cover built anew, one Cube per state in input
    order, its output the OR over the rows that match it."""
    out = []
    for x in range(1 << n):
        acc = 0
        for cu in cubes:
            if x & cu.care_mask == cu.value_mask:
                acc |= cu.output_mask
        if acc:
            out.append(Cube(int_to_bits(x, n), int_to_bits(acc, m)))
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(covers())
def test_from_pla_equals_minterms_built_anew(case):
    n, m, cubes = case
    got = from_pla(PlaFunction(n=n, m=m, cubes=tuple(cubes))).cubes
    want = minterm_cubes(n, m, cubes)
    assert got == want
    # Cube equality goes by the masks and widths; compare the masks outright too.
    masks = [[(c.care_mask, c.value_mask, c.output_mask) for c in cs] for cs in (got, want)]
    assert masks[0] == masks[1]


def test_from_pla_keeps_minterm_rows_as_read():
    f = parse_pla(".i 2\n.o 2\n00 01\n01 00\n10 11\n11 10\n.e")
    kept = from_pla(f).cubes
    assert len(kept) == 3 and all(c is row for c, row in zip(kept, f.cubes[:1] + f.cubes[2:]))
    # 00 is overlapped by a dash row and 11 repeated with another output:
    # their states' outputs are ORs that no row holds, so no row is kept.
    rows = (Cube("00", "10"), Cube("0-", "01"), Cube("11", "10"), Cube("11", "01"))
    cubes = from_pla(PlaFunction(n=2, m=2, cubes=rows)).cubes
    assert cubes == (Cube("00", "11"), Cube("01", "01"), Cube("11", "11"))
    assert not any(c is row for c in cubes for row in rows)
    # A row whose output already is the OR is that state's cube, so it is kept.
    rows = (Cube("10", "11"), Cube("1-", "01"))
    cubes = from_pla(PlaFunction(n=2, m=2, cubes=rows)).cubes
    assert cubes == (Cube("10", "11"), Cube("11", "01")) and cubes[0] is rows[0]


def test_duplicate_cubes_cancel_at_construction():
    cover = EsopCover(n=2, m=1, cubes=(Cube("11", "1"), Cube("11", "1")))
    assert cover.cubes == ()
    tripled = EsopCover(n=2, m=1, cubes=(Cube("11", "1"),) * 3)
    assert len(tripled.cubes) == 1


def test_duplicate_cancel_keeps_first_appearance_order():
    a, b, c, d = Cube("11", "1"), Cube("0-", "1"), Cube("10", "1"), Cube("-1", "1")
    # a first appears before d and last appears after it.
    cover = EsopCover(n=2, m=1, cubes=(a, b, c, b, d, Cube("11", "1"), Cube("11", "1"), c))
    assert cover.cubes == (a, d)
    assert cover.cubes[0] is a
    assert EsopCover(n=2, m=1, cubes=(d, b, c)).cubes == (d, b, c)


def test_minimize_cancels_identical_pair():
    cover = EsopCover(n=2, m=1, cubes=(Cube("11", "1"), Cube("11", "1")))
    assert minimize(cover).cubes == ()


def test_minimize_absorb():
    cover = EsopCover(n=2, m=1, cubes=(Cube("1-", "1"), Cube("11", "1")))
    result = minimize(cover)
    # x ^ xy == x & ~y
    assert [(c.inputs, c.outputs) for c in result.cubes] == [("10", "1")]


def test_minimize_or_cover():
    cover = EsopCover(n=2, m=1, cubes=(Cube("01", "1"), Cube("10", "1"), Cube("11", "1")))
    result = minimize(cover)
    assert len(result.cubes) <= 3
    assert brute_table(result) == brute_table(cover)


def test_minimize_merges_adjacent_minterms():
    cover = EsopCover(n=3, m=1, cubes=(Cube("000", "1"), Cube("001", "1")))
    result = minimize(cover)
    assert [(c.inputs, c.outputs) for c in result.cubes] == [("00-", "1")]


def test_minimize_folds_same_inputs():
    cover = EsopCover(n=2, m=2, cubes=(Cube("10", "11"), Cube("10", "01")))
    result = minimize(cover)
    assert [(c.inputs, c.outputs) for c in result.cubes] == [("10", "10")]


def test_cost_examples():
    assert cost(EsopCover(n=2, m=1, cubes=(Cube("11", "1"),))) == CoverCost(1, 2, 1)
    assert cost(EsopCover(n=2, m=1, cubes=())) == CoverCost(0, 0, 0)
    assert cost(EsopCover(n=2, m=1, cubes=(Cube("1-", "1"), Cube("-1", "1")))) == CoverCost(2, 2, 2)


def test_evaluate_empty_cover():
    cover = EsopCover(n=3, m=2, cubes=())
    assert evaluate_esop(cover, "101") == "00"


def test_evaluate_arity_check():
    cover = EsopCover(n=2, m=1, cubes=(Cube("11", "1"),))
    with pytest.raises(ValueError):
        evaluate_esop(cover, "1")


def _random_cover(rng, n_max=4, cubes_max=7):
    f = random_function(rng, n=rng.randint(1, n_max), max_cubes=cubes_max)
    return EsopCover(n=f.n, m=f.m, cubes=f.cubes)


def test_minimize_preserves_function_and_count():
    rng = random.Random(404)
    for _ in range(500):
        cover = _random_cover(rng)
        result = minimize(cover)
        assert brute_table(result) == brute_table(cover)
        assert len(result.cubes) <= len(cover.cubes)


def test_minimize_idempotent():
    rng = random.Random(505)
    for _ in range(200):
        cover = _random_cover(rng)
        once = minimize(cover)
        twice = minimize(once)
        assert len(twice.cubes) == len(once.cubes)


def test_from_pla_soundness_random():
    rng = random.Random(606)
    for _ in range(300):
        f = random_function(rng)
        cover = from_pla(f)
        for x in range(1 << f.n):
            xs = int_to_bits(x, f.n)
            assert evaluate_esop(cover, xs) == evaluate_pla(f, xs)


def test_minimize_small_corpus(small_corpus):
    for name, f in small_corpus.items():
        cover = from_pla(f)
        result = minimize(cover)
        assert len(result.cubes) <= len(cover.cubes), name
        assert brute_table(result) == brute_table(cover), name


def test_esop_pla_serialization_roundtrip():
    cover = EsopCover(n=2, m=1, cubes=(Cube("1-", "1"), Cube("01", "1")))
    text = write_esop(cover, name="demo")
    assert "# esop" in text
    back = read_cover(text)
    assert isinstance(back, EsopCover) and back.cubes == cover.cubes
    assert from_pla(back) is back


def test_read_cover_unmarked_is_pla_function():
    # The same rows without the marker are an OR cover: 1 at 11, not 0.
    f = read_cover(".i 2\n.o 1\n-- 1\n11 1\n.e\n")
    assert isinstance(f, PlaFunction) and evaluate_pla(f, "11") == "1"
    marked = read_cover("# esop\n.i 2\n.o 1\n-- 1\n11 1\n.e\n")
    assert isinstance(marked, EsopCover) and evaluate_esop(marked, "11") == "0"


def all_pairs_sweep(live, n):
    """Reference for `esop._reshape_sweep`: the all-pairs scan it replaced.

    Tests every snapshot pair (ia < ib) in order; the indexed sweep must
    make the same rewrite attempts in the same order. Keys are packed as
    `care << n | value`, as `esop._Live` holds them.
    """
    snapshot = list(live.items())
    changed = False
    for ia in range(len(snapshot)):
        a, out_a = snapshot[ia]
        if live.get(a) != out_a:
            continue
        for ib in range(ia + 1, len(snapshot)):
            b, out_b = snapshot[ib]
            if live.get(b) != out_b:
                continue
            if live.get(a) != out_a:
                break
            diff = esop._diff(a, b, n)
            d = diff.bit_count()
            if d == 1 and out_a != out_b:
                options = esop._rewrite_d1(a, out_a, b, out_b, diff, n)
            elif d == 2 and out_a == out_b:
                options = esop._rewrite_d2(a, b, out_a, diff, n)
            else:
                continue
            if esop._try_rewrite(live, n, (a, out_a), (b, out_b), options):
                changed = True
    return changed


def d1_neighbours(key, n):
    """(key, merged_key) for the 2n packed keys at input distance 1 from `key`.

    Positions ascend; at each come the other two literals, in the order 0,
    1, dash, and each merges with the cube into the other one's literal.
    """
    out = []
    for i in range(n):
        others = [(1, 0), (1, 1), (0, 0)]  # (care, value) of 0, 1 and dash
        others.remove((key >> (n + i) & 1, key >> i & 1))
        base = key & ~(1 << (n + i) | 1 << i)
        x, y = (base | care << (n + i) | value << i for care, value in others)
        out += [(x, y), (y, x)]
    return out


def probe_d1_partner(live, n, key, out):
    """Reference for `esop._d1_partner`: probe the 2n keys at distance 1 in order."""
    for pkey, merged in d1_neighbours(key, n):
        if live.get(pkey) == out:
            return pkey, merged
    return None


@st.composite
def live_lookups(draw):
    """A live cover with n <= 7 inputs and m <= 3 outputs, and cubes to look up.

    With one output bit the equal-output bucket often holds more than 4n
    cubes, so both lookup paths run. Half the lookups sit at
    distance 1 from a live cube, so that partners are found.
    """
    n, m = draw(st.integers(1, 7)), draw(st.sampled_from((1, 2, 3)))
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)).map(
        lambda cv: cv[0] << n | cv[0] & cv[1])
    outs = st.integers(1, (1 << m) - 1)
    size = draw(st.integers(0, min(40, 3 ** n // 2)))
    live = esop._Live()
    for key, out in draw(st.dictionaries(keys, outs, min_size=size, max_size=60)).items():
        live.add(key, out)
    lookups = []
    for _ in range(draw(st.integers(1, 8))):
        if live and draw(st.booleans()):
            key, _ = draw(st.sampled_from(d1_neighbours(draw(st.sampled_from(sorted(live))), n)))
        else:
            key = draw(keys)
        lookups.append((key, draw(outs)))
    return n, live, lookups


@settings(max_examples=300, deadline=None)
@given(live_lookups())
def test_indexed_d1_partner_matches_probe(case):
    n, live, lookups = case
    for key, out in lookups:
        assert esop._d1_partner(live, n, key, out) == probe_d1_partner(live, n, key, out)


def minimize_all_pairs(cover: EsopCover) -> EsopCover:
    with mock.patch.object(esop, "_reshape_sweep", all_pairs_sweep):
        return minimize(cover)


@st.composite
def xor_covers(draw):
    """An XOR cover with dashes, n <= 7 inputs and m <= 3 outputs."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    rows = st.tuples(st.text("01-", min_size=n, max_size=n), st.text("01", min_size=m, max_size=m))
    return EsopCover(n=n, m=m, cubes=tuple(Cube(i, o) for i, o in draw(st.lists(rows, max_size=40))))


@settings(max_examples=300, deadline=None)
@given(xor_covers())
def test_indexed_sweep_matches_all_pairs(cover):
    assert minimize(cover) == minimize_all_pairs(cover)


def test_indexed_sweep_matches_all_pairs_on_corpus(corpus_funcs):
    for name, f in corpus_funcs.items():
        cover = from_pla(f)
        assert minimize(cover) == minimize_all_pairs(cover), name


def test_minimize_aes_cube_counts(corpus_funcs):
    assert len(minimize(from_pla(corpus_funcs["aes_sbox"])).cubes) == 240
    assert len(minimize(from_pla(corpus_funcs["aes_inv_sbox"])).cubes) == 236


def test_minimize_pins_perm10_cover():
    """The perm10 workload's bijection: 10 bits shuffled by random.Random(1).

    Any change in which rewrites are tried, or in what order, shows here as
    a different digest, where the benchmark would show only a gate count.
    """
    table = list(range(1 << 10))
    random.Random(1).shuffle(table)
    f = PlaFunction(n=10, m=10, cubes=tuple(
        Cube(format(x, "010b"), format(y, "010b")) for x, y in enumerate(table)))
    result = minimize(from_pla(f))
    assert (cost(result).cube_count, cost(result).literal_count) == (990, 7355)
    assert hashlib.sha256(write_esop(result).encode()).hexdigest() == (
        "e590a136a8a53ab6dd65c5e67b96fa63f97b1d632c852187824fd0b7c428f850")


def test_minimize_pins_single_output_cover():
    """Output bit 0 of the perm10 bijection alone: 512 minterms with one output.

    Its one equal-output bucket starts at 512 cubes, far more than 4n, so a
    pinned cover runs `_d1_partner`'s probe side; it ends at 197.
    """
    table = list(range(1 << 10))
    random.Random(1).shuffle(table)
    f = PlaFunction(n=10, m=1, cubes=tuple(
        Cube(format(x, "010b"), format(y, "010b")[0]) for x, y in enumerate(table)))
    result = minimize(from_pla(f))
    assert (cost(result).cube_count, cost(result).literal_count) == (197, 1535)
    assert hashlib.sha256(write_esop(result).encode()).hexdigest() == (
        "fa5c5d549fba6a458c71693260c0ff4b10e7c97c884bdf6d04c1565adde04d11")

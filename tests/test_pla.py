import random
import re

import pytest

from revhash.errors import PlaLexicalError, PlaParseError, PlaStructureError
from revhash.esop import EsopCover
from revhash.pla import (
    Cube,
    PlaFunction,
    bits_to_int,
    int_to_bits,
    parse_pla,
    write_pla,
)

from conftest import evaluate_esop, evaluate_pla, random_function, same_cover

AND_PLA = ".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e"


def test_cube_literal_view():
    c = Cube("01-", "1")
    assert c.num_literals == 2
    # Character i is bit i: positions 0 and 1 are cared for, position 1 reads 1.
    assert (c.care_mask, c.value_mask) == (0b011, 0b010)


def test_function_rejects_nonconforming_cube():
    with pytest.raises(ValueError):
        PlaFunction(n=2, m=1, cubes=(Cube("111", "1"),))
    with pytest.raises(ValueError):
        PlaFunction(n=0, m=1, cubes=())


def test_parse_and_cover():
    f = parse_pla(AND_PLA)
    assert (f.n, f.m, len(f.cubes)) == (2, 1, 3)
    assert [(c.inputs, c.outputs) for c in f.cubes] == [("0-", "0"), ("-0", "0"), ("11", "1")]


def test_parse_single_minterm():
    f = parse_pla(".i 1\n.o 1\n1 1\n.e")
    assert (f.n, f.m, len(f.cubes)) == (1, 1, 1)


def test_parse_row_length_error_carries_line():
    with pytest.raises(PlaParseError) as exc:
        parse_pla(".i 2\n.o 1\n01 1 1\n.e")
    assert exc.value.line == 3


def test_parse_missing_directives():
    with pytest.raises(PlaStructureError):
        parse_pla("11 1\n.e")
    with pytest.raises(PlaStructureError):
        parse_pla(".i 2\n11 1\n.e")


def test_parse_lexical_error():
    cases = (
        (".i 2\n.o 1\n1x 1\n.e", "invalid input character(s) ['x']", 3),
        (".i 2\n.o 1\n~1 1\n.e", "invalid input character(s) ['~']", 3),  # '~' is output-only
        (".i 2\n.o 2\n11 01\n\n1y x2\n.e", "invalid input character(s) ['y']", 5),  # inputs first
        (".i 2\n.o 2\n11 -x\n.e", "invalid output character(s) ['x']", 3),
    )
    for text, message, line in cases:
        with pytest.raises(PlaLexicalError, match=re.escape(message)) as exc:
            parse_pla(text)
        assert exc.value.line == line
    with pytest.raises(ValueError, match=re.escape("invalid input literal(s) ['2'] in '1-2'")):
        Cube("1-2", "1")


def test_parse_row_count_mismatch():
    with pytest.raises(PlaStructureError):
        parse_pla(".i 1\n.o 1\n.p 2\n1 1\n.e")


def test_parse_duplicate_arity_directive():
    with pytest.raises(PlaStructureError):
        parse_pla(".i 1\n.i 1\n.o 1\n1 1\n.e")


def test_output_dontcare_normalized_with_warning():
    f = parse_pla(".i 1\n.o 2\n1 1-\n0 ~1\n.e")
    assert [c.outputs for c in f.cubes] == ["10", "01"]
    assert any("normalized" in w for w in f.warnings)


def test_unsupported_directive_warns():
    f = parse_pla(".i 1\n.o 1\n.phase 1\n1 1\n.e")
    assert any(".phase" in w for w in f.warnings)


def test_missing_terminator_warns():
    f = parse_pla(".i 1\n.o 1\n1 1")
    assert any(".e" in w for w in f.warnings)


def test_comments_recorded():
    f = parse_pla("# esop\n.i 1\n.o 1\n1 1\n.e")
    assert "esop" in f.comments


def test_labels_roundtrip():
    f = parse_pla(".i 2\n.o 1\n.ilb a b\n.ob r\n11 1\n.e")
    assert f.input_labels == ("a", "b")
    g = parse_pla(write_pla(f))
    assert g.input_labels == ("a", "b") and g.output_labels == ("r",)


def test_write_contains_required_directives():
    f = PlaFunction(n=2, m=1, cubes=(Cube("11", "1"),))
    text = write_pla(f)
    for needle in (".i 2", ".o 1", ".p 1", "11 1", ".e"):
        assert needle in text


def test_write_empty_cover():
    f = PlaFunction(n=1, m=1, cubes=())
    text = write_pla(f)
    assert ".p 0" in text
    assert same_cover(parse_pla(text), f)


def test_roundtrip_fig_cover():
    f = parse_pla(AND_PLA)
    assert same_cover(parse_pla(write_pla(f)), f)


def test_roundtrip_random_functions():
    rng = random.Random(101)
    for _ in range(300):
        f = random_function(rng)
        assert same_cover(parse_pla(write_pla(f)), f)


def test_evaluate_or_semantics():
    f = parse_pla(AND_PLA)
    assert evaluate_pla(f, "11") == "1"
    assert evaluate_pla(f, "01") == "0"


def test_evaluate_xor_three_matches():
    cubes = (Cube("1-", "1"), Cube("-1", "1"), Cube("11", "1"))
    f, cover = PlaFunction(n=2, m=1, cubes=cubes), EsopCover(n=2, m=1, cubes=cubes)
    assert evaluate_esop(cover, "11") == "1"  # 1 ^ 1 ^ 1
    assert evaluate_pla(f, "11") == "1"  # 1 | 1 | 1
    assert evaluate_esop(cover, "10") == "1"
    assert evaluate_esop(cover, "00") == "0"


def test_evaluate_arity_check():
    f = parse_pla(AND_PLA)
    with pytest.raises(ValueError):
        evaluate_pla(f, "111")


def test_bits_packing_roundtrip():
    assert bits_to_int("0110") == 6
    assert int_to_bits(6, 4) == "0110"
    for v in range(32):
        assert bits_to_int(int_to_bits(v, 5)) == v
    assert bits_to_int("") == 0 and int_to_bits(0, 0) == ""
    for bad in ("2", " 1", "1_0", "+1"):  # int() would accept the last three
        with pytest.raises(ValueError):
            bits_to_int(bad)


def test_disjoint_cover_semantics_agree():
    rng = random.Random(303)
    for _ in range(200):
        f = random_function(rng, allow_dash=False)  # minterms never overlap
        seen = set()
        cubes = tuple(c for c in f.cubes if c.inputs not in seen and not seen.add(c.inputs))
        f = PlaFunction(n=f.n, m=f.m, cubes=cubes)
        for x in range(1 << f.n):
            xs = int_to_bits(x, f.n)
            assert evaluate_pla(f, xs) == evaluate_esop(EsopCover(n=f.n, m=f.m, cubes=f.cubes), xs)

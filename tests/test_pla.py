import copy
import pickle
import random
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash.cli import main
from revhash.errors import PlaLexicalError, PlaParseError, PlaStructureError, ResourceLimitError
from revhash.esop import EsopCover
from revhash.pla import (
    Cube,
    PlaFunction,
    bits_to_int,
    int_to_bits,
    parse_pla,
    write_pla,
)
from revhash.synth import read_real

from conftest import evaluate_esop, evaluate_pla, random_function, same_cover

AND_PLA = ".i 2\n.o 1\n0- 0\n-0 0\n11 1\n.e"


def test_cube_literal_view():
    c = Cube("01-", "1")
    assert c.num_literals == 2
    # Character i is bit i: positions 0 and 1 are cared for, position 1 reads 1.
    assert (c.care_mask, c.value_mask) == (0b011, 0b010)


rows = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.text("01-", min_size=n, max_size=n), st.integers(1, 6).flatmap(lambda m: st.text("01", min_size=m, max_size=m))))


@settings(max_examples=200, deadline=None)
@given(rows)
def test_cube_is_a_value_of_its_masks_and_widths(row):
    inputs, outputs = row
    c = Cube(inputs, outputs)
    masks = (c.care_mask, c.value_mask, c.output_mask)
    twin = Cube.from_masks(*masks, len(inputs), len(outputs))
    assert c == twin and hash(c) == hash(twin) and (c.n, c.m) == (len(inputs), len(outputs))
    assert (c.inputs, c.outputs) == (inputs, outputs) and Cube(c.inputs, c.outputs) == c
    # One more dash or one more 0 output leaves the masks as they are.
    for wider in (Cube(inputs + "-", outputs), Cube(inputs, outputs + "0")):
        assert (wider.care_mask, wider.value_mask, wider.output_mask) == masks
        assert wider != c and len({wider, c}) == 2
    for name in ("care_mask", "value_mask", "output_mask", "n", "m", "inputs", "outputs", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(c, name)
    assert c == twin
    for copied in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert copied == c and hash(copied) == hash(c) and repr(copied) == repr(c)


def test_cubes_of_other_widths_differ():
    assert Cube("0-", "1") != Cube("0", "1") and len({Cube("0-", "1"), Cube("0", "1")}) == 2
    assert repr(Cube("0-", "1")) == "Cube(inputs='0-', outputs='1')"


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


def test_parse_label_counts_in_any_directive_order():
    cases = (
        (".ilb a b c\n.i 2\n.o 1\n11 1\n.e", ".ilb names 3 inputs, .i says 2", 1),
        (".i 2\n.o 1\n.ilb a b c\n11 1\n.e", ".ilb names 3 inputs, .i says 2", 3),
        (".i 2\n.ob r s\n.o 1\n11 1\n.e", ".ob names 2 outputs, .o says 1", 2),
        (".i 2\n.o 1\n\n.ob r s\n11 1\n.e", ".ob names 2 outputs, .o says 1", 4),
    )
    for text, message, line in cases:
        with pytest.raises(PlaStructureError, match=re.escape(f"line {line}: {message}")) as exc:
            parse_pla(text)
        assert exc.value.line == line


def test_parse_directive_argument_is_decimal():
    # "²".isdigit() holds, but int() refuses it.
    for text, line in ((".i \u00b2\n.o 1\n.e", 1), (".i 1\n.o \u00b9\n.e", 2), (".i 1\n.o 1\n.p \u00b3\n.e", 3)):
        directive = text.splitlines()[line - 1].split()[0]
        with pytest.raises(PlaStructureError, match=re.escape(f"line {line}: {directive} needs one integer argument")):
            parse_pla(text)


def test_overlong_count_is_a_resource_limit(tmp_path, capsys):
    # int() refuses strings of over 4300 digits with a message naming no line.
    digits = "7" * 5000
    for text, what in ((f".i {digits}\n.o 1\n.e", "line 1: .i"), (f".i 1\n.o {digits}\n.e", "line 2: .o")):
        with pytest.raises(ResourceLimitError, match=re.escape(f"{what} of 5000 digits exceeds limit 2^20")):
            parse_pla(text)
    real = f"# revhash inputs=2 outputs=1\n.numvars {digits}\n.variables x0 x1 y0\n.begin\n.end\n"
    with pytest.raises(ResourceLimitError, match=re.escape("line 2: .numvars of 5000 digits exceeds")):
        read_real(real)
    for name, text, argv, what in (("wide.pla", f".i {digits}\n.o 1\n.e\n", ["synth"], "line 1: .i"),
                                   ("wide.real", real, ["simulate", "--input", "01"], "line 2: .numvars")):
        (tmp_path / name).write_text(text)
        assert main([argv[0], str(tmp_path / name), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"resource limit: {what} of 5000 digits")
    # A row count has no bound, so an over-long .p is told apart by its text; leading zeros do not count.
    with pytest.raises(PlaStructureError, match=re.escape(f".p declares {digits} rows but 1 parsed")):
        parse_pla(f".i 1\n.o 1\n.p {digits}\n1 1\n.e")
    assert len(parse_pla(f".i 1\n.o 1\n.p {'0' * 5000}1\n1 1\n.e").cubes) == 1


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

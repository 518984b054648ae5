"""Mutation fuzzing of the file readers through the command line.

Each example takes a valid `.pla` (plain or marked `# esop`), `.real` or
circuit JSON document, applies a few character inserts, deletes or
replacements, and runs the CLI on it. Whatever the damage, every command
must end with exit 0, 1 or 2 and let no exception escape.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revhash import corpus, esop, synth
from revhash.circuit import write_circuit_json
from revhash.cli import main
from revhash.pla import write_pla

DEMO = corpus.demo_hash4_pla()
COVER = esop.minimize(esop.from_pla(DEMO))
CIRCUIT = synth.synthesize(COVER, name="demo")

TABLES = (write_pla(DEMO), esop.write_esop(COVER, name="demo"))
TABLE_COMMANDS = (["synth"], ["analyze"], ["verify"], ["invert", "--target", "1001"])
CIRCUIT_COMMANDS = (["simulate", "--input", "0110"], ["invert", "--target", "1001"])

# Row symbols (which often keep a document valid), characters that carry
# meaning in one of the formats, and anything else.
SYNTAX = "01-~ \n\t.#=:,[]{}\"ieopxytvarbgnd" + "0123456789"
chars = st.one_of(st.sampled_from("01-"), st.sampled_from(SYNTAX),
                  st.characters(blacklist_categories=("Cs",)))
edits = st.lists(st.tuples(st.sampled_from("idr"), st.integers(0, 10_000), chars), min_size=1, max_size=4)


def mutate(text: str, ops) -> str:
    for kind, pos, ch in ops:
        i = pos % (len(text) + 1)
        if kind == "i":
            text = text[:i] + ch + text[i:]
        elif i < len(text):
            text = text[:i] + ("" if kind == "d" else ch) + text[i + 1:]
    return text


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_commands(path, commands, reverse_to=None):
    for cmd in commands:
        assert run_cli([cmd[0], str(path), *cmd[1:]]) in (0, 1, 2), cmd
    if reverse_to is not None:
        assert run_cli(["reverse", str(path), "-o", str(reverse_to)]) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(TABLES), ops=edits)
def test_fuzz_pla_reader(workdir, text, ops):
    path = workdir / "table.pla"
    path.write_text(mutate(text, ops), encoding="utf-8")
    check_commands(path, TABLE_COMMANDS)


@settings(max_examples=200, deadline=None)
@given(ops=edits)
def test_fuzz_real_reader(workdir, ops):
    path = workdir / "circuit.real"
    path.write_text(mutate(synth.write_real(CIRCUIT), ops), encoding="utf-8")
    check_commands(path, CIRCUIT_COMMANDS, reverse_to=workdir / "reversed.real")


@settings(max_examples=200, deadline=None)
@given(ops=edits)
def test_fuzz_circuit_json_reader(workdir, ops):
    path = workdir / "circuit.json"
    path.write_text(mutate(write_circuit_json(CIRCUIT), ops), encoding="utf-8")
    check_commands(path, CIRCUIT_COMMANDS, reverse_to=workdir / "reversed.json")

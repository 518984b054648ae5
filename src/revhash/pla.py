"""Parsing and writing of .pla two-level function covers.

A .pla file describes a function f: B^n -> B^m as a list of cubes. Each row
carries n input literals over {0,1,-} and m output bits; '-' in an input
means the row matches either value at that position. Directives handled:
.i .o .p .ilb .ob .type .e — anything else is skipped with a warning.
Output-field '-' and '~' are normalized to '0' at parse time (a hash table
ought to be fully specified), also with a warning. A row is held as a `Cube`
of masks, which the parser computes once, after its own checks.

Bit-vector convention used throughout the package: strings of '0'/'1'
where index 0 is the leftmost character and names variable/line 0. When
such a vector is packed into an int, bit i of the int is character i.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter

from .errors import (
    EXHAUSTIVE_LIMIT, PlaLexicalError, PlaParseError, PlaStructureError, check_limit, checked_count)

_INPUT_CHARS = frozenset("01-")
_OUTPUT_CHARS = frozenset("01-~")
_CARE = str.maketrans("01-", "110")


class _Frozen:
    """Base of the slotted value types `Cube` and `circuit.Gate`: fields are set
    once, through the slots' setters; equality and hash go by `_key`; copies
    and pickles are rebuilt by `from_masks` from the public slots, in order."""

    __slots__ = ()

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.from_masks, tuple(getattr(self, slot) for slot in self.__slots__ if slot[0] != "_")


class Cube(_Frozen):
    """One cover row on n inputs and m outputs, stored as masks: bit i of
    `care_mask` is set iff input i is not '-', of `value_mask` iff it is '1',
    and of `output_mask` iff output bit i is 1. `Cube(inputs, outputs)` checks
    the row's strings, `Cube.from_masks` trusts its caller, and `inputs` and
    `outputs` are built on each read. Equality and hash go by the masks and
    the widths: `Cube("0-", "1")` and `Cube("0", "1")` share their masks."""

    __slots__ = ("care_mask", "value_mask", "output_mask", "n", "m")
    _key = attrgetter(*__slots__)

    def __new__(cls, inputs: str, outputs: str):
        if inputs.strip("01-"):
            raise ValueError(f"invalid input literal(s) {sorted(set(inputs) - _INPUT_CHARS)} in {inputs!r}")
        rev = inputs[::-1] or "0"  # holds only 01-, so int() reads the masks as is
        care, value = int(rev.translate(_CARE), 2), int(rev.replace("-", "0"), 2)
        return cls.from_masks(care, value, bits_to_int(outputs), len(inputs), len(outputs))

    @classmethod
    def from_masks(cls, care_mask: int, value_mask: int, output_mask: int, n: int, m: int) -> Cube:
        """The cube with these masks, unchecked: value_mask within care_mask < 2^n, output_mask < 2^m."""
        cube = _new(cls)
        _set_care(cube, care_mask)
        _set_value(cube, value_mask)
        _set_output(cube, output_mask)
        _set_n(cube, n)
        _set_m(cube, m)
        return cube

    @property
    def inputs(self) -> str:
        values = int_to_bits(self.value_mask, self.n)
        return values if self.care_mask.bit_count() == self.n else "".join(  # a minterm has no dash
            v if c == "1" else "-" for c, v in zip(int_to_bits(self.care_mask, self.n), values))

    @property
    def outputs(self) -> str:
        return int_to_bits(self.output_mask, self.m)

    @property
    def num_literals(self) -> int:
        """Number of non-don't-care input positions."""
        return self.care_mask.bit_count()

    def __repr__(self):
        return f"Cube(inputs={self.inputs!r}, outputs={self.outputs!r})"


# Slot setters bypass the frozen __setattr__.
_new = object.__new__
_set_care, _set_value, _set_output, _set_n, _set_m = (getattr(Cube, slot).__set__ for slot in Cube.__slots__)


@dataclass(frozen=True)
class PlaFunction:
    """A parsed .pla cover: arities, cubes in file order, and parse metadata."""

    n: int
    m: int
    cubes: tuple[Cube, ...]
    name: str | None = None
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None
    comments: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        check_cubes(self.n, self.m, self.cubes)


def check_cubes(n: int, m: int, cubes) -> None:
    """Raise ValueError unless n, m >= 1 and every cube has n inputs and m outputs,
    and ResourceLimitError past 2^EXHAUSTIVE_LIMIT lines, before anything shifts by n."""
    if n < 1 or m < 1:
        raise ValueError(f"arities must be >= 1, got n={n} m={m}")
    check_limit(n + m, EXHAUSTIVE_LIMIT, f"the {n} + {m} lines of a cover")
    for c in cubes:
        if c.n != n or c.m != m:
            raise ValueError(f"cube {c.inputs} {c.outputs} does not conform to n={n} m={m}")


def bits_to_int(bits: str) -> int:
    """Pack a '0'/'1' string; character i becomes bit i of the result."""
    if bits.strip("01"):  # int() would also take '_', spaces and a sign
        raise ValueError(f"not a bit vector: {bits!r}")
    return int(bits[::-1] or "0", 2)


def int_to_bits(value: int, width: int) -> str:
    """Inverse of bits_to_int: the low `width` bits, bit i as character i."""
    return format(value, f"0{width}b")[:-width - 1:-1]


def parse_pla(text: str) -> PlaFunction:
    """Parse a .pla document.

    Raises PlaStructureError when .i/.o are missing or inconsistent,
    PlaLexicalError for characters outside the row alphabet, and
    PlaParseError (with line number) for malformed rows.
    """
    n = m = None
    declared_rows = None
    cubes: list[Cube] = []
    make = Cube.from_masks
    input_labels = output_labels = None
    label_lines = {}  # .ilb/.ob -> line number
    comments: list[str] = []
    warnings: list[str] = []
    normalized_outputs = 0
    saw_end = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line, _, comment = raw.partition("#")
        if comment:
            comments.append(comment.strip())
        tokens = line.split()
        if not tokens:
            continue

        if tokens[0].startswith("."):
            directive = tokens[0]
            if directive == ".i":
                if n is not None:
                    raise PlaStructureError("duplicate .i directive", lineno)
                n = checked_count(_directive_arg(directive, tokens, lineno), f"line {lineno}: .i")
            elif directive == ".o":
                if m is not None:
                    raise PlaStructureError("duplicate .o directive", lineno)
                m = checked_count(_directive_arg(directive, tokens, lineno), f"line {lineno}: .o")
            elif directive == ".p":
                declared_rows = _directive_arg(directive, tokens, lineno)  # no bound: compared as text
            elif directive == ".ilb":
                input_labels, label_lines[directive] = tuple(tokens[1:]), lineno
            elif directive == ".ob":
                output_labels, label_lines[directive] = tuple(tokens[1:]), lineno
            elif directive == ".type":
                if len(tokens) > 1 and tokens[1] != "fd":
                    warnings.append(f"line {lineno}: .type {tokens[1]} treated as fd")
            elif directive == ".e":
                saw_end = True
                break
            else:
                warnings.append(f"line {lineno}: unsupported directive {directive} skipped")
            continue

        # Cube row.
        if n is None or m is None:
            raise PlaStructureError("cube row before .i/.o directives", lineno)
        row = "".join(tokens)
        if len(row) != n + m:
            raise PlaParseError(f"row has {len(row)} symbols, expected {n + m}", lineno)
        inp, out = row[:n], row[n:]
        if inp.strip("01-"):
            raise PlaLexicalError(f"invalid input character(s) {sorted(set(inp) - _INPUT_CHARS)}", lineno)
        if out.strip("01"):
            bad = set(out) - _OUTPUT_CHARS
            if bad:
                raise PlaLexicalError(f"invalid output character(s) {sorted(bad)}", lineno)
            normalized_outputs += out.count("-") + out.count("~")
            out = out.replace("-", "0").replace("~", "0")
        rev = inp[::-1] or "0"  # the masks as Cube() computes them, once
        care, value = int(rev.translate(_CARE), 2), int(rev.replace("-", "0"), 2)
        cubes.append(make(care, value, int(out[::-1] or "0", 2), n, m))

    if n is None or m is None:
        raise PlaStructureError("missing .i/.o directives")
    if input_labels is not None and len(input_labels) != n:
        raise PlaStructureError(f".ilb names {len(input_labels)} inputs, .i says {n}", label_lines[".ilb"])
    if output_labels is not None and len(output_labels) != m:
        raise PlaStructureError(f".ob names {len(output_labels)} outputs, .o says {m}", label_lines[".ob"])
    if declared_rows is not None and declared_rows != str(len(cubes)):
        raise PlaStructureError(f".p declares {declared_rows} rows but {len(cubes)} parsed")
    if not saw_end:
        warnings.append("missing .e terminator")
    if normalized_outputs:
        warnings.append(f"{normalized_outputs} output don't-care(s) normalized to 0")

    return PlaFunction(
        n=n,
        m=m,
        cubes=tuple(cubes),
        input_labels=input_labels,
        output_labels=output_labels,
        comments=tuple(comments),
        warnings=tuple(warnings),
    )


def _directive_arg(directive: str, tokens: list[str], lineno: int) -> str:
    """The directive's one decimal argument, without leading zeros."""
    if len(tokens) != 2 or not tokens[1].isdecimal():
        raise PlaStructureError(f"{directive} needs one integer argument", lineno)
    return tokens[1].lstrip("0") or "0"


def write_pla(f: PlaFunction) -> str:
    """Serialize back to .pla text; parse_pla(write_pla(f)) reproduces the cover."""
    lines = []
    if f.name:
        lines.append(f"# {f.name}")
    for c in f.comments:
        lines.append(f"# {c}")
    lines.append(f".i {f.n}")
    lines.append(f".o {f.m}")
    if f.input_labels:
        lines.append(".ilb " + " ".join(f.input_labels))
    if f.output_labels:
        lines.append(".ob " + " ".join(f.output_labels))
    lines.append(f".p {len(f.cubes)}")
    for c in f.cubes:
        lines.append(f"{c.inputs} {c.outputs}")
    lines.append(".e")
    return "\n".join(lines) + "\n"

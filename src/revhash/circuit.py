"""Gate and circuit types for reversible NOT/CNOT/Toffoli networks.

A gate flips its target line iff every positive control reads 1 and every
negative control reads 0. It is stored as masks: bit k of `positive_mask`
(`negative_mask`) is set iff line k is a positive (negative) control. Its
line sets, `positive_controls`, `negative_controls` and `lines`, are
frozensets derived from the masks on first read. Circuits carry n input
lines (0..n-1) followed by m output lines (n..n+m-1); both are plain lines,
the role split only records how synthesis laid them out. Gates and circuits
are immutable; every rewrite returns a new one.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, dataclass, field, replace

from .esop import EsopCover


def mask_lines(mask: int) -> list[int]:
    """The positions of the 1-bits of a non-negative mask, ascending."""
    return [line for line, bit in enumerate(reversed(bin(mask))) if bit == "1"]


class Gate:
    """A NOT (no controls), CNOT (one), Toffoli (two) or generalized Toffoli gate.

    `Gate(target, positive_controls, negative_controls)` takes any iterables of
    lines and checks them; `Gate.from_masks` trusts its caller. Equality and
    hash go by target and masks, of which the line sets are a function.
    """

    # The line sets are properties over private slots: a __getattr__ filling
    # empty slots would make every attribute read, the masks' too, 2x slower.
    __slots__ = ("target", "positive_mask", "negative_mask", "control_count",
                 "_positive", "_negative", "_lines")

    def __new__(cls, target: int, positive_controls=frozenset(), negative_controls=frozenset()):
        pos, neg = frozenset(positive_controls), frozenset(negative_controls)
        try:  # a negative line is a negative shift count
            pmask, nmask = sum(map((1).__lshift__, pos)), sum(map((1).__lshift__, neg))
            on_control = (pmask | nmask) >> target & 1
        except ValueError:
            raise ValueError(f"gate on negative line {min(pos | neg | {target})}") from None
        if on_control:
            raise ValueError(f"target line {target} is also a control")
        if pmask & nmask:
            raise ValueError("a line cannot be both a positive and a negative control")
        return cls.from_masks(target, pmask, nmask, len(pos) + len(neg))

    @classmethod
    def from_masks(cls, target: int, positive_mask: int, negative_mask: int, control_count: int) -> Gate:
        """The gate with these masks, unchecked: the caller guarantees disjoint
        masks without the target's bit, and control_count as their 1-bit count."""
        gate = _new(cls)
        _set_target(gate, target)
        _set_pmask(gate, positive_mask)
        _set_nmask(gate, negative_mask)
        _set_count(gate, control_count)
        return gate

    @property
    def positive_controls(self) -> frozenset[int]:
        try:
            return self._positive
        except AttributeError:
            _set_positive(self, view := frozenset(mask_lines(self.positive_mask)))
            return view

    @property
    def negative_controls(self) -> frozenset[int]:
        try:
            return self._negative
        except AttributeError:
            _set_negative(self, view := frozenset(mask_lines(self.negative_mask)))
            return view

    @property
    def lines(self) -> frozenset[int]:
        try:
            return self._lines
        except AttributeError:
            _set_lines(self, view := self.positive_controls | self.negative_controls | {self.target})
            return view

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.target, self.positive_mask, self.negative_mask) == (
            other.target, other.positive_mask, other.negative_mask)

    def __hash__(self):
        return hash((self.target, self.positive_mask, self.negative_mask))

    def __repr__(self):
        return (f"Gate(target={self.target!r}, positive_controls={self.positive_controls!r}, "
                f"negative_controls={self.negative_controls!r})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Gate.from_masks, (self.target, self.positive_mask, self.negative_mask, self.control_count)


# Slot setters bypass the frozen __setattr__.
_new = object.__new__
_set_target, _set_pmask, _set_nmask, _set_count, _set_positive, _set_negative, _set_lines = (
    getattr(Gate, slot).__set__ for slot in Gate.__slots__)


@dataclass(frozen=True)
class Circuit:
    """Gates on num_inputs input lines followed by num_outputs output lines.

    `cover` is the XOR cover `synth.synthesize` built the gates from, the
    same object, or None. It is no part of equality, hash, repr or any file
    format, the constructor does not take it, and every rewrite drops it.
    """

    num_inputs: int
    num_outputs: int
    gates: tuple[Gate, ...] = ()
    name: str | None = None
    cover: EsopCover | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_inputs < 0 or self.num_outputs < 0 or self.width < 1:
            raise ValueError("circuit needs at least one line")
        # Targets are compared, never shifted: a huge one must not build a word.
        controls, top = 0, -1
        for g in self.gates:
            controls |= g.positive_mask | g.negative_mask
            if g.target > top:
                top = g.target
        top = max(top, controls.bit_length() - 1)
        if top >= self.width:
            raise ValueError(f"gate on line {top} exceeds width {self.width}")

    @property
    def width(self) -> int:
        return self.num_inputs + self.num_outputs

    def with_gates(self, gates, name: str | None = None) -> "Circuit":
        return replace(self, gates=tuple(gates), name=name or self.name)


def line_name(c: Circuit, line: int) -> str:
    if line < c.num_inputs:
        return f"x{line}"
    return f"y{line - c.num_inputs}"


def to_json_doc(c: Circuit) -> dict:
    return {
        "name": c.name,
        "width": c.width,
        "inputs": c.num_inputs,
        "outputs": c.num_outputs,
        "gates": [
            {
                "target": g.target,
                "positive": mask_lines(g.positive_mask),
                "negative": mask_lines(g.negative_mask),
            }
            for g in c.gates
        ],
    }


def write_circuit_json(c: Circuit) -> str:
    return json.dumps(to_json_doc(c), indent=2) + "\n"


def read_circuit_json(text: str) -> Circuit:
    """Parse a circuit document; a malformed one raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("gates"), list):
        raise ValueError('circuit JSON must be an object with a "gates" list')
    gates = []
    for g in doc["gates"]:
        if not isinstance(g, dict):
            raise ValueError(f"circuit JSON gate {g!r} is not an object")
        pos, neg = g.get("positive", []), g.get("negative", [])
        if not isinstance(pos, list) or not isinstance(neg, list):
            raise ValueError(f"circuit JSON gate {g!r}: controls must be lists")
        _check_ints([g.get("target"), *pos, *neg], f"gate {g!r}")
        gates.append(Gate(target=g["target"], positive_controls=frozenset(pos),
                          negative_controls=frozenset(neg)))
    _check_ints([doc.get("inputs"), doc.get("outputs")], "inputs/outputs")
    return Circuit(
        num_inputs=doc["inputs"],
        num_outputs=doc["outputs"],
        gates=tuple(gates),
        name=doc.get("name"),
    )


def _check_ints(values: list, where: str) -> None:
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"circuit JSON {where}: {v!r} is not a line number or count")

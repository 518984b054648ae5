"""Gate and circuit types for reversible NOT/CNOT/Toffoli networks.

A gate flips its target line iff every positive control reads 1 and every
negative control reads 0. It is stored as masks: bit k of `positive_mask`
(`negative_mask`) is set iff line k is a positive (negative) control. Its
control sets, `positive_controls` and `negative_controls`, are frozensets
derived from the masks on first read. Circuits carry n input
lines (0..n-1) followed by m output lines (n..n+m-1); both are plain lines,
the role split only records how synthesis laid them out. Gates and circuits
are immutable; every rewrite returns a new one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .errors import EXHAUSTIVE_LIMIT, check_limit
from .esop import EsopCover
from .pla import _Frozen, _new


def mask_lines(mask: int) -> list[int]:
    """The positions of the 1-bits of a non-negative mask, ascending."""
    return [line for line, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _view(slot: str, build) -> property:
    """A property over the private `slot`, which `build(gate)` fills on first read."""
    def read(gate):
        try:
            return getattr(gate, slot)
        except AttributeError:
            object.__setattr__(gate, slot, view := build(gate))
            return view
    return property(read)


class Gate(_Frozen):
    """A NOT (no controls), CNOT (one), Toffoli (two) or generalized Toffoli gate.

    `Gate(target, positive_controls, negative_controls)` takes any iterables of
    lines and checks them; `Gate.from_masks` trusts its caller. Equality and
    hash go by target and masks, of which the control sets are a function.
    """

    # The control sets are properties over private slots: a __getattr__ filling
    # empty slots would make every attribute read, the masks' too, 2x slower.
    __slots__ = ("target", "positive_mask", "negative_mask", "control_count",
                 "_positive", "_negative")
    _key = attrgetter("target", "positive_mask", "negative_mask")

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

    positive_controls = _view("_positive", lambda g: frozenset(mask_lines(g.positive_mask)))
    negative_controls = _view("_negative", lambda g: frozenset(mask_lines(g.negative_mask)))

    def __repr__(self):
        return (f"Gate(target={self.target!r}, positive_controls={self.positive_controls!r}, "
                f"negative_controls={self.negative_controls!r})")


_set_target, _set_pmask, _set_nmask, _set_count = (getattr(Gate, slot).__set__ for slot in Gate.__slots__[:4])


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
        check_limit(self.width, EXHAUSTIVE_LIMIT, f"the {self.width} lines of a circuit")
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

    def with_gates(self, gates) -> "Circuit":
        return replace(self, gates=tuple(gates))


def write_circuit_json(c: Circuit) -> str:
    doc = {
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
    return json.dumps(doc, indent=2) + "\n"


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
    width, name = doc.get("width", doc["inputs"] + doc["outputs"]), doc.get("name")
    if type(width) is not int or width != doc["inputs"] + doc["outputs"]:
        raise ValueError(f"circuit JSON width {width!r} is not inputs + outputs")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"circuit JSON name {name!r} is not a string or null")
    return Circuit(
        num_inputs=doc["inputs"],
        num_outputs=doc["outputs"],
        gates=tuple(gates),
        name=name,
    )


def _check_ints(values: list, where: str) -> None:
    for v in values:
        if type(v) is not int:  # a JSON true or false is a bool, which is an int
            raise ValueError(f"circuit JSON {where}: {v!r} is not a line number or count")

"""Gate and circuit types for reversible NOT/CNOT/Toffoli networks.

A gate flips its target line iff every positive control reads 1 and every
negative control reads 0. Circuits carry n input lines (0..n-1) followed
by m output lines (n..n+m-1); both are plain lines, the role split only
records how synthesis laid them out. Circuits are immutable; every rewrite
returns a new one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace


@dataclass(frozen=True, slots=True)
class Gate:
    target: int
    positive_controls: frozenset[int] = frozenset()
    negative_controls: frozenset[int] = frozenset()
    # Bit k set iff line k is a positive (negative) control.
    positive_mask: int = field(init=False, repr=False, compare=False)
    negative_mask: int = field(init=False, repr=False, compare=False)
    # 0 = NOT, 1 = CNOT, 2 = Toffoli, 3+ = generalized Toffoli.
    control_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Allow construction from any iterable.
        pos, neg = frozenset(self.positive_controls), frozenset(self.negative_controls)
        object.__setattr__(self, "positive_controls", pos)
        object.__setattr__(self, "negative_controls", neg)
        try:  # a negative line is a negative shift count
            pmask, nmask = sum(map((1).__lshift__, pos)), sum(map((1).__lshift__, neg))
            on_control = (pmask | nmask) >> self.target & 1
        except ValueError:
            raise ValueError(f"gate on negative line {min(self.lines)}") from None
        if on_control:
            raise ValueError(f"target line {self.target} is also a control")
        if pmask & nmask:
            raise ValueError("a line cannot be both a positive and a negative control")
        object.__setattr__(self, "positive_mask", pmask)
        object.__setattr__(self, "negative_mask", nmask)
        object.__setattr__(self, "control_count", len(pos) + len(neg))

    @property
    def lines(self) -> frozenset[int]:
        return self.positive_controls | self.negative_controls | {self.target}


def NOT(target: int) -> Gate:
    return Gate(target=target)


def CNOT(control: int, target: int) -> Gate:
    return Gate(target=target, positive_controls=frozenset({control}))


@dataclass(frozen=True)
class Circuit:
    num_inputs: int
    num_outputs: int
    gates: tuple[Gate, ...] = ()
    name: str | None = None

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
                "positive": sorted(g.positive_controls),
                "negative": sorted(g.negative_controls),
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

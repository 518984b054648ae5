"""Cube-to-gate synthesis, NOT-pair cleanup, and gate-order reversal.

Each cube of an XOR cover becomes one gate per 1-bit in its output row:
input literal 1 -> positive control, literal 0 -> negative control, dash ->
no control; the target is the output line for that bit. Inputs are never
targets, so they pass through unchanged and the circuit stays reversible.

Reversing a circuit is just emitting its gate list backwards: every gate in
this gateset is an involution, so the reversed circuit is the inverse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .circuit import Circuit, Gate, mask_lines
from .errors import checked_count
from .esop import EsopCover


def synthesize(c: EsopCover, name: str | None = None) -> Circuit:
    """Map a cover to a reversible circuit over n input + m output lines.

    Gates appear in cube order, then ascending output bit within a cube.
    The gate total equals the number of 1-bits across all cube outputs.
    A cube's masks are already a valid gate's, so no gate is checked again.
    The circuit keeps `c` as its `cover`.
    """
    n, make, gates = c.n, Gate.from_masks, []
    lines = {out: [n + j for j in mask_lines(out)] for out in {cu.output_mask for cu in c.cubes}}
    for cu in c.cubes:
        pos, neg, k = cu.value_mask, cu.care_mask ^ cu.value_mask, cu.care_mask.bit_count()
        gates += [make(target, pos, neg, k) for target in lines[cu.output_mask]]
    circuit = Circuit(num_inputs=n, num_outputs=c.m, gates=tuple(gates), name=name)
    object.__setattr__(circuit, "cover", c)
    return circuit


def reverse(c: Circuit) -> Circuit:
    """Same gates in reversed order; line roles unchanged."""
    return c.with_gates(reversed(c.gates))


@dataclass(frozen=True)
class CircuitStats:
    """Gate totals after negative-control expansion and NOT cleanup."""

    total: int
    by_controls: dict[int, int]
    raw_gates: int  # before expansion, negative controls still native

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "by_controls": {str(k): v for k, v in sorted(self.by_controls.items())},
            "raw_gates": self.raw_gates,
        }


def stats(c: Circuit) -> CircuitStats:
    """Count the gate lines `write_real` writes for c.

    One pass, building no gate: `pending` has a bit per line whose last
    gate so far is a kept NOT, which the next NOT on that line cancels.
    """
    counts = Counter(g.control_count for g in c.gates if g.control_count)
    nots = pending = 0
    for g in c.gates:
        flips = g.negative_mask if g.control_count else 1 << g.target
        nots += flips.bit_count() - 2 * (flips & pending).bit_count()
        pending ^= flips
        if g.control_count:  # it clears its lines; the closing NOTs stay open
            pending = pending & ~(g.positive_mask | 1 << g.target) | flips
            nots += flips.bit_count()
    if nots:
        counts[0] = nots
    return CircuitStats(total=sum(counts.values()), by_controls=dict(sorted(counts.items())),
                        raw_gates=len(c.gates))


def write_real(c: Circuit) -> str:
    """Serialize to RevLib-style .real text.

    The gate lines (`t<k> <controls...> <target>`) carry positive controls
    only: a gate's negative controls become positive ones between a NOT on
    each of those lines before and after it. A NOT cancels the open NOT on
    its line, the last NOT written there if no gate since touched the line,
    and neither is written. So the file holds the gates `stats` counts. A
    leading comment records the input/output split so the file round-trips.
    """
    names = [f"x{line}" for line in range(c.num_inputs)] + [f"y{j}" for j in range(c.num_outputs)]
    lines: list[str | None] = [f"# revhash inputs={c.num_inputs} outputs={c.num_outputs}"]
    if c.name:
        lines.append(f"# {c.name}")
    lines.append(".version 2.0")
    lines.append(f".numvars {c.width}")
    lines.append(".variables " + " ".join(names))
    lines.append(".begin")
    open_nots: dict[int, int] = {}  # line -> index in lines of its open NOT

    def flip(line):
        if line in open_nots:
            lines[open_nots.pop(line)] = None
        else:
            open_nots[line] = len(lines)
            lines.append(f"t1 {names[line]}")

    for g in c.gates:
        if not g.control_count:
            flip(g.target)
            continue
        negatives = mask_lines(g.negative_mask)
        for line in negatives:
            flip(line)
        involved = mask_lines(g.positive_mask | g.negative_mask) + [g.target]
        for line in involved:
            open_nots.pop(line, None)
        lines.append(f"t{len(involved)} " + " ".join(names[i] for i in involved))
        for line in negatives:
            flip(line)
    lines.append(".end")
    return "\n".join(line for line in lines if line is not None) + "\n"


def read_real(text: str) -> Circuit:
    """Read the .real subset produced by write_real.

    A malformed directive or gate raises ValueError naming its line; a count
    of more digits than any line limit allows raises ResourceLimitError.
    """
    num_inputs = num_outputs = numvars = None
    index: dict[str, int] | None = None  # line name -> line
    gates: list[Gate] = []
    in_body = False
    name = None

    def bad(message):  # the line being read, named in the error
        return ValueError(f"line {lineno}: {message}: {line!r}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("revhash inputs="):
                fields = dict(part.partition("=")[::2] for part in comment.split()[1:])
                roles = fields.get("inputs", ""), fields.get("outputs", "")
                if not (roles[0].isdecimal() and roles[1].isdecimal()):
                    raise bad("role comment needs decimal inputs= and outputs=")
                num_inputs, num_outputs = (checked_count(r, f"line {lineno}: a role count") for r in roles)
            elif name is None and comment:
                name = comment
            continue
        if line.startswith(".version"):
            continue
        if line.startswith(".numvars"):
            fields = line.split()
            if len(fields) != 2 or not fields[1].isdecimal():
                raise bad("malformed .numvars line")
            numvars = checked_count(fields[1], f"line {lineno}: .numvars")
            continue
        if line.startswith(".variables"):
            names = line.split()[1:]
            index = {v: i for i, v in enumerate(names)}
            if len(index) != len(names):
                raise bad(".variables names a line more than once")
            continue
        if line == ".begin":
            in_body = True
            continue
        if line == ".end":
            break
        if in_body:
            kind, *args = line.split()
            if not kind.startswith("t") or not kind[1:].isdecimal():
                raise bad("unsupported .real gate")
            if not args or kind[1:].lstrip("0") != str(len(args)):
                raise bad("gate arity mismatch")
            if index is None:
                raise bad(".variables must precede gate lines")
            idx = [index.get(a) for a in args]
            if None in idx:
                raise bad("gate names a line not in .variables")
            if len(set(idx)) < len(idx):
                raise bad("gate names a line twice")
            gates.append(Gate(target=idx[-1], positive_controls=frozenset(idx[:-1])))
    if index is None:
        raise ValueError("missing .variables header")
    if numvars is not None and numvars != len(index):
        raise ValueError(f".numvars {numvars} does not match {len(index)} .variables")
    if num_inputs is None or num_outputs is None:
        raise ValueError("missing '# revhash inputs=… outputs=…' role comment")
    if num_inputs + num_outputs != len(index):
        raise ValueError("role comment does not match .variables count")
    return Circuit(num_inputs=num_inputs, num_outputs=num_outputs,
                   gates=_fold_input_nots(gates, num_inputs), name=name)


def _fold_input_nots(gates: list[Gate], num_inputs: int) -> list[Gate]:
    """Fold NOTs on input lines into negative controls of the gates between.

    A NOT on line L commutes past a gate that targets L, and past a gate
    controlled by L once that control's polarity flips, so the result computes
    the same function. A line still flipped at the end gets its NOT back there.
    The gates, as read_real builds them, have positive controls only. For a
    circuit write_real cleaned, whose input lines are never targets, this
    gives back the gates it was written from.
    """
    out: list[Gate] = []
    flipped = 0  # bit L set iff an odd number of NOTs on input line L so far
    for g in gates:
        if g.control_count == 0 and g.target < num_inputs:
            flipped ^= 1 << g.target
            continue
        neg = g.positive_mask & flipped
        out.append(Gate.from_masks(g.target, g.positive_mask ^ neg, neg, g.control_count))
    out.extend(Gate.from_masks(line, 0, 0, 0) for line in mask_lines(flipped))
    return out

"""Bit-exact simulation of reversible circuits and identity verification.

States are bit strings (index 0 = line 0). Exhaustive sweeps do not loop
over states one at a time: each line is held as one big integer whose bit s
is that line's value in state s, so a gate application is a handful of
bitwise operations regardless of how many states are in flight. Semantics
are defined by the single-state rule; batching is only an evaluation
strategy, and the two agree bit for bit.

Every exhaustive check in the package runs on one kernel, `forward_words`:
it evaluates a `.pla` cover (rows OR-ed), an XOR cover or a circuit over
all 2^n inputs and returns one such word per output. A cover's minterm
rows, when enough of them for `_fold_pays`, fold into one output row per
state, which `_columns` transposes into words. Every other word a sweep
starts from is built by `_cube_word`, the set of states s with s & care ==
value, by doubling one state once per don't-care position: a cover row's
match word (a minterm's too, when not folded), a line's start word (the
cube of that line at 1), and the fire word of a gate with controls that all
still hold their start words (swept lines no earlier gate has targeted):
the AND of those words is the cube of the gate's control polarities, a few
passes over a word where the AND takes one or two per control. Other gates
AND the words of the lines in their masks. Synthesis emits a cube's gates,
one per output 1-bit, as a run with equal masks: the kernel builds a run's
fire word once and XORs it into each target. `errors.check_limit` bounds
each sweep at 2^`errors.EXHAUSTIVE_LIMIT` states before any word is built.
A cover is evaluated once: its words are kept in its instance `__dict__`,
as `functools.cached_property` keeps a value, and each call checks its
limit and gets its own list. A circuit's words are not kept.

The exhaustive identity check sweeps only the lines R that some gate reads
as a control, 2^|R| states, with every other line starting at 0. Its
verdict still covers all 2^width states: R's lines evolve from R's start
values alone, and every other line ends at its start value XOR fire words
that depend only on R. `width_limit` still bounds the circuit's width.
"""

from __future__ import annotations

import enum
import operator
import random
from dataclasses import dataclass
from itertools import repeat

from .circuit import Circuit, Gate, mask_lines
from .errors import EXHAUSTIVE_LIMIT, check_limit
from .esop import EsopCover
from .pla import PlaFunction, bits_to_int, int_to_bits


class VerifyMode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class VerificationReport:
    mode: VerifyMode
    states_checked: int
    passed: bool
    counterexample: str | None = None
    seed: int | None = None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "mode": self.mode.value,
            "states_checked": self.states_checked,
            "pass": self.passed,
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.detail is not None:
            doc["detail"] = self.detail
        return doc


def _apply_gate_int(s: int, gate: Gate) -> int:
    if (s & gate.positive_mask) == gate.positive_mask and (s & gate.negative_mask) == 0:
        s ^= 1 << gate.target
    return s


def run(c: Circuit, state: str) -> str:
    """Apply the circuit's gates in order to one state."""
    if len(state) != c.width:
        raise ValueError(f"state length {len(state)} != circuit width {c.width}")
    s = bits_to_int(state)
    for g in c.gates:
        s = _apply_gate_int(s, g)
    return int_to_bits(s, c.width)


def _cube_word(care: int, value: int, n: int) -> int:
    """The word whose bit s is set iff s & care == value, for s in 0..2^n-1.

    Starts from state 0, doubles the set once per don't-care position (a
    shift by that position's weight sets the bit), then shifts it to `value`.
    """
    word, free = 1, ((1 << n) - 1) & ~care
    while free:
        low = free & -free
        free ^= low
        word |= word << low
    return word << value


def _check_sweep(n: int, limit: int) -> None:
    check_limit(1 << n, limit, f"the 2^{n} states of a sweep")


def _line_patterns(n: int) -> list[int]:
    """The start words of a sweep over all 2^n states, one per line."""
    return [_cube_word(1 << line, 1 << line, n) for line in range(n)]


def _run_words(gates, words: list[int], mask: int, lanes: int, n: int) -> list[int]:
    """Apply gates in order, one fire word per run of gates with equal masks.

    Lines 0..lanes-1 start at `_line_patterns(n)`. No gate targets its own
    controls, so a run changes neither their words nor their freshness.
    """
    words, fresh, pos, neg = list(words), (1 << lanes) - 1, None, None
    for g in gates:
        if g.positive_mask != pos or g.negative_mask != neg:  # a run starts
            pos, neg = g.positive_mask, g.negative_mask
            if (controls := pos | neg) and controls & fresh == controls:
                fire = _cube_word(controls, pos, n)
            else:
                fire = mask
                for line in mask_lines(pos):
                    fire &= words[line]
                for line in mask_lines(neg):
                    fire &= ~words[line]
        words[g.target] ^= fire
        fresh &= ~(1 << g.target)
    return words


def forward_words(fn, limit: int = EXHAUSTIVE_LIMIT) -> list[int]:
    """Evaluate fn over all 2^n inputs; bit s of word j is output j at input s.

    fn is a PlaFunction (matching rows OR-ed), an EsopCover (XOR-ed) or a
    Circuit (input lines driven, output lines starting at 0).
    """
    if not isinstance(fn, (Circuit, PlaFunction, EsopCover)):
        raise TypeError(f"cannot evaluate {type(fn).__name__} forward")
    n = fn.num_inputs if isinstance(fn, Circuit) else fn.n
    _check_sweep(n, limit)
    if isinstance(fn, Circuit):
        start = _line_patterns(n) + [0] * fn.num_outputs
        return _run_words(fn.gates, start, (1 << (1 << n)) - 1, n, n)[n:]
    memo = fn.__dict__
    if "_forward_words" not in memo:
        memo["_forward_words"] = _cover_words(fn)
    return list(memo["_forward_words"])


def _cover_words(fn: PlaFunction | EsopCover) -> list[int]:
    op, full = operator.xor if isinstance(fn, EsopCover) else operator.or_, (1 << fn.n) - 1
    cubes = [cu for cu in fn.cubes if cu.output_mask]
    steps = sum(1 + cu.output_mask.bit_count() for cu in cubes if cu.care_mask == full)
    rows = [0] * (1 << fn.n) if _fold_pays(steps, fn.n, fn.m) else None
    words = [0] * fn.m
    for cu in cubes:
        if rows is not None and cu.care_mask == full:  # fold a minterm into its state's row
            rows[cu.value_mask] = op(rows[cu.value_mask], cu.output_mask)
            continue
        match, out = _cube_word(cu.care_mask, cu.value_mask, fn.n), cu.output_mask
        while out:
            j = (out & -out).bit_length() - 1
            out &= out - 1
            words[j] = op(words[j], match)
    return words if rows is None else list(map(op, words, _columns(rows, fn.m)))


def _fold_pays(steps: int, n: int, m: int) -> bool:
    """Whether to fold minterm rows whose count plus output 1-bits is `steps`.

    Alone, each step costs a fixed Python step, worth about 2^15 states, plus
    a pass over the 2^n-state word; the fold costs that fixed step once per
    state and four times per output. Measured on Python 3.11.7 for even
    n = 6..20 and m = 2, 8, 20, the two break even at 0.45-1.5 times the
    steps where this rule starts to fold.
    """
    return steps * ((1 << 15) + (1 << n)) > (1 << 15) * ((1 << n) + 4 * m)


def _mismatch(got: list[int], want: list[int]) -> tuple[int, int | None]:
    """The states where any word differs, and the lowest of them (None if none)."""
    bad = 0
    for a, b in zip(got, want, strict=True):
        bad |= a ^ b
    return bad, ((bad & -bad).bit_length() - 1 if bad else None)


# _BIT_CHARS[b] maps a byte to b"1" if its bit b is set, else b"0".
_BIT_CHARS = [bytes(0x31 if (x >> b) & 1 else 0x30 for x in range(256)) for b in range(8)]


def _columns(rows: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: column v has bit p set iff rows[p] has bit v.

    The rows are packed into bytes once, `int.to_bytes` mapped over them
    without a Python step per row, and each column is read out with C-level
    slicing, `bytes.translate` and a base-2 `int` parse, so the cost is
    linear byte work per row and per column, where OR-ing bits one at a
    time into a growing int is quadratic.
    """
    if not rows:
        return [0] * width
    stride = (width + 7) >> 3
    packed = b"".join(map(int.to_bytes, rows, repeat(stride), repeat("little")))
    return [int(packed[v >> 3::stride].translate(_BIT_CHARS[v & 7])[::-1], 2) for v in range(width)]


def verify_identity(
    forward: Circuit,
    reversed_circuit: Circuit,
    mode: VerifyMode = VerifyMode.EXHAUSTIVE,
    samples: int = 10_000,
    seed: int = 0,
    width_limit: int = EXHAUSTIVE_LIMIT,
) -> VerificationReport:
    """Check run(reversed, run(forward, s)) == s over states s.

    Exhaustive mode covers all 2^width states (refusing a width beyond
    width_limit) but sweeps only the 2^|R| states over the lines R that
    either circuit reads as controls, other lines starting at 0. The gates'
    fire words depend on R alone, so a state fails iff its R part fails
    with every other line 0: R's lines must return to their start words
    and every other line must end at 0. The counterexample is the lowest
    failing state. Sampled mode draws `samples` seeded random states, 1 to 2^EXHAUSTIVE_LIMIT.
    """
    if forward.width != reversed_circuit.width:
        raise ValueError("circuit widths differ")
    width = forward.width
    # One gate sequence, so a line the forward gates target stays off the cube path.
    gates = (*forward.gates, *reversed_circuit.gates)

    if mode is VerifyMode.EXHAUSTIVE:
        _check_sweep(width, width_limit)
        controls = 0
        for g in gates:
            controls |= g.positive_mask | g.negative_mask
        read = [line for line in range(width) if controls >> line & 1]
        start = [0] * width
        for line, pattern in zip(read, _line_patterns(len(read))):
            start[line] = pattern
        count, seed, swept = 1 << width, None, 1 << len(read)
    elif samples < 1:
        raise ValueError(f"a sampled check needs samples >= 1, got {samples}")
    else:
        check_limit(samples, EXHAUSTIVE_LIMIT, "sampled states")
        rng = random.Random(seed)
        states = [rng.getrandbits(width) for _ in range(samples)]
        start = _columns(states, width)
        count = swept = samples
        read = []  # no line starts at a pattern word
    lanes = next((i for i, line in enumerate(read) if line != i), len(read))
    words = _run_words(gates, start, (1 << swept) - 1, lanes, len(read))
    _, k = _mismatch(words, start)
    if k is None:
        return VerificationReport(mode, count, True, seed=seed)
    if mode is VerifyMode.EXHAUSTIVE:
        # Bit i of the swept index is line read[i]; read is ascending, so
        # the lowest failing index is the lowest failing full state.
        s = sum(1 << line for i, line in enumerate(read) if k >> i & 1)
    else:
        s = states[k]
    return VerificationReport(mode, count, False, counterexample=int_to_bits(s, width), seed=seed)


def verify_against_spec(
    c: Circuit,
    f: PlaFunction | EsopCover,
    limit: int = EXHAUSTIVE_LIMIT,
) -> VerificationReport:
    """Compare the circuit's truth table against the cover's (OR or XOR) evaluation."""
    if c.num_inputs != f.n or c.num_outputs != f.m:
        raise ValueError(
            f"arity mismatch: circuit {c.num_inputs}->{c.num_outputs}, function {f.n}->{f.m}"
        )
    bad, s = _mismatch(forward_words(c, limit), forward_words(f, limit))
    if s is None:
        return VerificationReport(VerifyMode.EXHAUSTIVE, 1 << f.n, True)
    return VerificationReport(VerifyMode.EXHAUSTIVE, 1 << f.n, False, counterexample=int_to_bits(s, f.n),
                              detail=f"{bad.bit_count()} mismatching input(s)")

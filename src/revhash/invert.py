"""Preimage recovery: exhaustive forward search and backward deduction.

The brute-force oracle simply evaluates the function forward over every
input and keeps the matches; it exists as the independent cross-check.

The deduction solver works on the synthesized circuit instead. Because
inputs are never targets, every gate on output line j contributes the
conjunction of its input-line controls XOR-wise to that line, so "output
lines end at y, having started at a known initialization" is a system of
per-line XOR constraints over cube predicates.

Every set of predicates is one int with bit p for predicate p: those on
each output line, those with a literal on each input variable, and those
that each value of each input variable does not falsify. A search state
is three ints: the predicates not yet falsified, the variables assigned,
and their values, so a branch copies no arrays. Assigning a variable is
one AND; a line's undecided predicates, and the parity of
those already fired, are a masked int and its `bit_count()`. Unit
propagation (a line whose last undecided predicate is forced pins that
predicate's literals) runs to a fixpoint; when stuck, the solver branches
on the lowest-index unknown variable, value 0 first, and drops the state
on contradiction. Solutions come out in lexicographic order, and each is
evaluated forward over every predicate before it is accepted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuit import Circuit
from .pla import bits_to_int, int_to_bits
from .sim import EXHAUSTIVE_LIMIT, _columns, _mismatch, forward_words


@dataclass(frozen=True)
class PreimageResult:
    target: str
    preimages: tuple[str, ...]
    method: str  # "bruteforce" or "deduction"
    branches: int
    propagations: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "preimages": list(self.preimages),
            "method": self.method,
            "branches": self.branches,
            "propagations": self.propagations,
            "elapsed": self.elapsed,
        }


def preimages_bruteforce(fn, y: str, limit: int = EXHAUSTIVE_LIMIT) -> PreimageResult:
    """Enumerate all x with f(x) = y by forward evaluation.

    Accepts a PlaFunction (OR semantics), EsopCover (XOR semantics), or
    Circuit. Evaluation is batched wordwise but is exactly the forward map.
    """
    t0 = time.perf_counter()
    words = forward_words(fn, limit)
    n = fn.num_inputs if isinstance(fn, Circuit) else fn.n
    if len(y) != len(words):
        raise ValueError(f"target length {len(y)} != m={len(words)}")
    mask = (1 << (1 << n)) - 1
    bad, _ = _mismatch(words, [mask if ch == "1" else 0 for ch in y])
    hits = mask ^ bad
    found = []
    while hits:
        s = (hits & -hits).bit_length() - 1
        hits &= hits - 1
        found.append(int_to_bits(s, n))
    return PreimageResult(
        target=y,
        preimages=tuple(sorted(found)),
        method="bruteforce",
        branches=0,
        propagations=0,
        elapsed=time.perf_counter() - t0,
    )


class _XorSystem:
    """A circuit's output lines as XOR constraints over cube predicates,
    with the search over them (see the module docstring)."""

    def __init__(self, c: Circuit, y: str, output_init: str | None):
        n, m = c.num_inputs, c.num_outputs
        if len(y) != m:
            raise ValueError(f"target length {len(y)} != m={m}")
        if output_init is not None and len(output_init) != m:
            raise ValueError(f"initialization length {len(output_init)} != m={m}")
        init = bits_to_int(output_init) if output_init else 0
        # want[j]: parity of the predicates on line j that must fire.
        self.want = [((bits_to_int(y) ^ init) >> j) & 1 for j in range(m)]
        self.pred_pos: list[int] = []   # positive-literal variable masks
        self.pred_neg: list[int] = []
        pred_line: list[int] = []       # one-hot output-line masks
        input_mask = (1 << n) - 1

        for g in c.gates:
            if g.target < n:
                raise ValueError("deduction needs targets on output lines only")
            if (g.positive_mask | g.negative_mask) & ~input_mask:
                raise ValueError("deduction needs controls on input lines only")
            j = g.target - n
            if not (g.positive_mask | g.negative_mask):
                self.want[j] ^= 1  # uncontrolled NOT: always fires
                continue
            self.pred_pos.append(g.positive_mask)
            self.pred_neg.append(g.negative_mask)
            pred_line.append(1 << j)

        self.n = n
        self.all_vars = input_mask
        self.all_preds = (1 << len(pred_line)) - 1
        self.lines = _columns(pred_line, m)
        pos_occ = _columns(self.pred_pos, n)
        neg_occ = _columns(self.pred_neg, n)
        # occ[v]: predicates with a literal on v; survive[v][b]: those that
        # v = b does not falsify.
        self.occ = [a | b for a, b in zip(pos_occ, neg_occ)]
        self.survive = [(self.all_preds ^ a, self.all_preds ^ b) for a, b in zip(pos_occ, neg_occ)]
        self.branches = 0
        self.propagations = 0
        self.solutions: list[str] = []

    def solve(self, first_only: bool = False) -> None:
        self.first_only = first_only
        state = self._propagate(self.all_preds, 0, 0)
        if state is not None:
            self._search(*state)

    def _search(self, alive: int, assigned: int, value: int) -> None:
        free = self.all_vars & ~assigned
        if not free:
            self._record(value)
            return
        bit = free & -free
        v = bit.bit_length() - 1
        for b in (0, 1):
            self.branches += 1
            state = self._propagate(alive & self.survive[v][b], assigned | bit, value | (bit if b else 0))
            if state is not None:
                self._search(*state)
            if self.first_only and self.solutions:
                return

    def _record(self, value: int) -> None:
        # Soundness: re-evaluate every predicate forward before accepting.
        fired = self.all_preds
        for v in range(self.n):
            fired &= self.survive[v][(value >> v) & 1]
        x = int_to_bits(value, self.n)
        for line, want in zip(self.lines, self.want):
            if (fired & line).bit_count() & 1 != want:
                raise RuntimeError(f"deduced preimage {x} fails forward evaluation")
        self.solutions.append(x)

    def _propagate(self, alive: int, assigned: int, value: int):
        """Unit propagation to a fixpoint; None on contradiction.

        A line whose predicates are all decided must have the wanted parity.
        A line with one undecided predicate fixes whether it fires: if it
        must, all its free literals are pinned; if it must not and one
        literal is free, that literal is pinned false. Each pass reads the
        lines from the state at its start; a fact derived from a smaller
        assignment holds in every extension, so applying several in turn is
        sound, as long as each is checked against the current state.
        """
        occ, survive = self.occ, self.survive
        while True:
            free_occ = 0
            rest = self.all_vars & ~assigned
            while rest:
                low = rest & -rest
                free_occ |= occ[low.bit_length() - 1]
                rest ^= low
            undecided = alive & free_occ
            forced = []
            for line, want in zip(self.lines, self.want):
                open_preds = undecided & line
                if open_preds & (open_preds - 1):
                    continue  # two or more undecided predicates
                # The alive predicates with every literal assigned fire.
                need = want ^ (((alive & line) ^ open_preds).bit_count() & 1)
                if open_preds:
                    forced.append((open_preds.bit_length() - 1, need))
                elif need:
                    return None
            changed = False
            for p, need in forced:
                if not (alive >> p) & 1:
                    if need:
                        return None  # must fire but is already falsified
                    continue
                pos, neg = self.pred_pos[p], self.pred_neg[p]
                free = (pos | neg) & ~assigned
                if need:
                    if not free:
                        continue  # already fires
                    value |= pos & free
                elif not free:
                    return None  # fires but must not
                elif free & (free - 1):
                    continue  # two or more literals free: nothing forced
                else:
                    value |= neg & free
                self.propagations += free.bit_count()
                assigned |= free
                changed = True
                while free:
                    low = free & -free
                    v = low.bit_length() - 1
                    alive &= survive[v][(value >> v) & 1]
                    free ^= low
            if not changed:
                return alive, assigned, value


def preimages_deduce(
    c: Circuit,
    y: str,
    output_init: str | None = None,
) -> PreimageResult:
    """Recover all preimages of y by backward deduction over the circuit.

    The circuit must come from synthesis: targets on output lines, controls
    on input lines. `output_init` overrides the all-zeros output-line
    initialization when the circuit was run from a different known state.
    """
    t0 = time.perf_counter()
    solver = _XorSystem(c, y, output_init)
    solver.solve()
    return PreimageResult(
        target=y,
        preimages=tuple(sorted(solver.solutions)),
        method="deduction",
        branches=solver.branches,
        propagations=solver.propagations,
        elapsed=time.perf_counter() - t0,
    )


def preimage_one(c: Circuit, y: str, output_init: str | None = None) -> str | None:
    """First preimage under the deterministic branch order, or None.

    Branching tries the lowest-index unknown variable with 0 first, so the
    returned preimage is the lexicographically smallest one.
    """
    solver = _XorSystem(c, y, output_init)
    solver.solve(first_only=True)
    return solver.solutions[0] if solver.solutions else None

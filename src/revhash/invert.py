"""Preimage recovery: exhaustive forward search and backward deduction.

The brute-force oracle simply evaluates the function forward over every
input and keeps the matches; it exists as the independent cross-check, and
it sweeps once per target.

The deduction solver works on the synthesized circuit instead. Because
inputs are never targets, every gate on output line j contributes the
conjunction of its input-line controls XOR-wise to that line, so "output
lines end at y, having started at a known initialization" is a system of
per-line XOR constraints over cube predicates.

The predicate table is built once per circuit and kept for the next call
on the same circuit object. It holds one predicate per distinct cube (a
pair of positive and negative control masks): each output line's
membership is toggled by XOR, so a gate repeated on one line cancels, and a
cube on several lines is one predicate on each of them. Uncontrolled NOTs
only flip their line's wanted parity. Every set of predicates is one int
with bit p for predicate p: those on each output line, those with a literal
on each input variable, and those that each value of each input variable
does not falsify.

A search, one per target, holds only the wanted parities, its counters and
its solutions. A search state is three ints: the predicates not yet
falsified, the variables assigned, and their values, so a branch copies no
arrays. Assigning a variable is one AND; a line's undecided predicates, and
the parity of those already fired, are a masked int and its `bit_count()`.
Unit propagation (a line whose last undecided predicate is forced pins that
predicate's literals) runs to a fixpoint; when stuck, the solver branches
on the lowest-index unknown variable, value 0 first, and drops the state on
contradiction.

A propagated state with at most `LEAF_VARS` free variables is a leaf, as
in cube-and-conquer (Heule, Kullmann, Wieringa & Biere, HVC 2011):
look-ahead branching above, bulk enumeration below. Inside a leaf nothing
is propagated; its 2^k assignments are walked depth-first in the same
order, one AND per node, and each full assignment is checked line by line,
stopping at the first line of the wrong parity. `branches` counts only the
decisions above the leaves. Solutions come out in lexicographic order, and
each is evaluated forward over every predicate before it is accepted.

A search is bounded: it raises `ResourceLimitError` when its branches or
its leaf assignments pass 2^limit. Leaf assignments are disjoint, and with
`LEAF_VARS` >= 1 there are fewer than 2^n branches, so a circuit with
n <= limit inputs never reaches the bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuit import Circuit
from .errors import ResourceLimitError
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


# A propagated search state with at most this many free variables is
# enumerated (see the module docstring). In traced benchmark runs, deduction
# time per round at 6, 8 and 10 was 5.7, 5.3 and 5.0 ms on perm10 (n = 10)
# and 50, 48 and 48 ms on compress12 (n = 12); 8 keeps a branching search
# above the leaves at n = 10, for 6 % more time than 10 there.
LEAF_VARS = 8


class _PredicateTable:
    """A circuit's output lines as XOR constraints over distinct cube
    predicates, independent of the target (see the module docstring)."""

    def __init__(self, c: Circuit):
        n, m = c.num_inputs, c.num_outputs
        input_mask = (1 << n) - 1
        self.flips = 0  # output lines with an odd number of uncontrolled NOTs
        members: dict[tuple[int, int], int] = {}  # cube -> lines it toggles
        for g in c.gates:
            if g.target < n:
                raise ValueError("deduction needs targets on output lines only")
            if (g.positive_mask | g.negative_mask) & ~input_mask:
                raise ValueError("deduction needs controls on input lines only")
            cube = (g.positive_mask, g.negative_mask)
            line = 1 << (g.target - n)
            if cube == (0, 0):
                self.flips ^= line
            else:
                members[cube] = members.get(cube, 0) ^ line
        preds = [(cube, lines) for cube, lines in members.items() if lines]
        self.pred_pos = [pos for (pos, _), _ in preds]
        self.pred_neg = [neg for (_, neg), _ in preds]

        self.n = n
        self.all_vars = input_mask
        self.all_preds = (1 << len(preds)) - 1
        self.lines = _columns([lines for _, lines in preds], m)
        pos_occ = _columns(self.pred_pos, n)
        neg_occ = _columns(self.pred_neg, n)
        # occ[v]: predicates with a literal on v; survive[v][b]: those that
        # v = b does not falsify.
        self.occ = [a | b for a, b in zip(pos_occ, neg_occ)]
        self.survive = [(self.all_preds ^ a, self.all_preds ^ b) for a, b in zip(pos_occ, neg_occ)]


# The table of the last circuit deduced over, with that circuit. Circuits
# are immutable, so identity decides reuse; hashing a Circuit would walk
# every gate on each call.
_last_table: tuple[Circuit, _PredicateTable] | None = None


def _table(c: Circuit) -> _PredicateTable:
    global _last_table
    last = _last_table
    if last is None or last[0] is not c:
        last = _last_table = (c, _PredicateTable(c))
    return last[1]


class _Search:
    """The search for the preimages of one target over a predicate table."""

    def __init__(self, c: Circuit, y: str, output_init: str | None, limit: int, first_only: bool):
        m = c.num_outputs
        if len(y) != m:
            raise ValueError(f"target length {len(y)} != m={m}")
        if output_init is not None and len(output_init) != m:
            raise ValueError(f"initialization length {len(output_init)} != m={m}")
        self.t = t = _table(c)
        init = bits_to_int(output_init) if output_init else 0
        parity = bits_to_int(y) ^ init ^ t.flips
        # (line, wanted parity of the predicates on it that fire), per line.
        self.checks = [(line, (parity >> j) & 1) for j, line in enumerate(t.lines)]
        self.limit = limit
        self.first_only = first_only
        self.branches = 0
        self.propagations = 0
        self.leaf_assignments = 0
        self.solutions: list[str] = []

    def solve(self) -> None:
        self._visit(self.t.all_preds, 0, 0)

    def _over_budget(self, what: str, count: int) -> None:
        if count > 1 << self.limit:
            raise ResourceLimitError(f"deduction {what} exceed limit 2^{self.limit}")

    def _visit(self, alive: int, assigned: int, value: int) -> None:
        t = self.t
        state = self._propagate(alive, assigned, value)
        if state is None:
            return
        alive, assigned, value = state
        free = t.all_vars & ~assigned
        if free.bit_count() <= LEAF_VARS:
            self.leaf_assignments += 1 << free.bit_count()
            self._over_budget("leaf assignments", self.leaf_assignments)
            self._leaf(alive, free, value)
            return
        bit = free & -free
        survive = t.survive[bit.bit_length() - 1]
        for b in (0, 1):
            self.branches += 1
            self._over_budget("branches", self.branches)
            self._visit(alive & survive[b], assigned | bit, value | (bit if b else 0))
            if self.first_only and self.solutions:
                return

    def _leaf(self, alive: int, free: int, value: int) -> None:
        """Walk every assignment of the free variables, lowest first, 0 first."""
        if not free:
            for line, want in self.checks:
                if (alive & line).bit_count() & 1 != want:
                    return
            self._record(value)
            return
        bit = free & -free
        s0, s1 = self.t.survive[bit.bit_length() - 1]
        free ^= bit
        self._leaf(alive & s0, free, value)
        if not (self.first_only and self.solutions):
            self._leaf(alive & s1, free, value | bit)

    def _record(self, value: int) -> None:
        # Soundness: re-evaluate every predicate forward before accepting.
        t = self.t
        fired = t.all_preds
        for v in range(t.n):
            fired &= t.survive[v][(value >> v) & 1]
        x = int_to_bits(value, t.n)
        for line, want in self.checks:
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
        t = self.t
        occ, survive = t.occ, t.survive
        while True:
            free_occ = 0
            rest = t.all_vars & ~assigned
            while rest:
                low = rest & -rest
                free_occ |= occ[low.bit_length() - 1]
                rest ^= low
            undecided = alive & free_occ
            forced = []
            for line, want in self.checks:
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
                pos, neg = t.pred_pos[p], t.pred_neg[p]
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
    limit: int = EXHAUSTIVE_LIMIT,
) -> PreimageResult:
    """Recover all preimages of y by backward deduction over the circuit.

    The circuit must come from synthesis: targets on output lines, controls
    on input lines. `output_init` overrides the all-zeros output-line
    initialization when the circuit was run from a different known state.
    Raises ResourceLimitError when the branches or leaf assignments pass
    2^limit.
    """
    t0 = time.perf_counter()
    search = _Search(c, y, output_init, limit, first_only=False)
    search.solve()
    return PreimageResult(
        target=y,
        preimages=tuple(sorted(search.solutions)),
        method="deduction",
        branches=search.branches,
        propagations=search.propagations,
        elapsed=time.perf_counter() - t0,
    )


def preimage_one(
    c: Circuit,
    y: str,
    output_init: str | None = None,
    limit: int = EXHAUSTIVE_LIMIT,
) -> str | None:
    """First preimage under the deterministic branch order, or None.

    Branching and leaves try the lowest-index unknown variable with 0 first,
    so the returned preimage is the lexicographically smallest one. The
    budget is that of `preimages_deduce`.
    """
    search = _Search(c, y, output_init, limit, first_only=True)
    search.solve()
    return search.solutions[0] if search.solutions else None

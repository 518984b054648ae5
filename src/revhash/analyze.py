"""Hash-quality checks: avalanche and collisions.

Both work on the words of `sim.forward_words` (bit x of word j is output j
at input x) and loop over inputs only to read results out. Avalanche part 2
counts, per input bit i, the words (w_j ^ (w_j >> 2^i)) & low_i, low_i the
inputs with bit i at 0, in a bit-sliced counter of ceil(m/2) words; part 1
counts w_j ^ (start word of line j). One `_columns` transpose of these
words of violating inputs, taken only when some input violates, reads them
out by x, then by i. Collisions group inputs by output value, output 0 as
its top bit, and sort the values, so keys come out in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import EXHAUSTIVE_LIMIT
from .esop import EsopCover
from .pla import PlaFunction
from .sim import _columns, _cube_word, _line_patterns, forward_words


@dataclass(frozen=True)
class AvalancheReport:
    """Two-part avalanche check at threshold ceil(m/2).

    Part 1 (outputs differ from inputs) only makes sense when n == m;
    otherwise `applicable` is False and part 1 is vacuously clean.
    """

    applicable: bool
    part1_pass: bool
    part1_violations: tuple[str, ...]
    part2_pass: bool
    part2_violations: tuple[tuple[str, str], ...]
    threshold: int

    @property
    def passed(self) -> bool:
        return (self.part1_pass or not self.applicable) and self.part2_pass


def _names(n: int) -> list[str]:
    """Every n-bit string, at the index it packs to (`pla.int_to_bits`)."""
    names = [""]
    for _ in range(n):
        names = [s + "0" for s in names] + [s + "1" for s in names]
    return names


def _below(diffs: list[int], threshold: int, mask: int) -> int:
    """The states of `mask` with fewer than `threshold` of `diffs` set."""
    reached = [mask] + [0] * threshold  # reached[k]: states counted k or more times
    for seen, d in enumerate(diffs, 1):
        for k in range(min(seen, threshold), 0, -1):
            reached[k] |= reached[k - 1] & d
    return mask ^ reached[threshold]


def avalanche_check(f: PlaFunction | EsopCover, limit: int = EXHAUSTIVE_LIMIT) -> AvalancheReport:
    """Exhaustive two-part avalanche evaluation.

    Part 1: every input differs from its output by at least ceil(m/2) bit
    positions (requires n == m). Part 2: inputs at Hamming distance 1 map
    to outputs at distance at least ceil(m/2).
    """
    n, words = f.n, forward_words(f, limit)
    threshold, applicable = (f.m + 1) // 2, n == f.m
    bad = []
    for i in range(n):
        low = _cube_word(1 << i, 0, n)
        bad.append(_below([(w ^ w >> (1 << i)) & low for w in words], threshold, low))
    if applicable:
        diffs = [w ^ p for w, p in zip(words, _line_patterns(n))]
        bad.append(_below(diffs, threshold, (1 << (1 << n)) - 1))
    part1: list[str] = []
    part2: list[tuple[str, str]] = []
    if any(bad):  # the transpose and the string table cost a step per input
        columns, names = _columns(bad, 1 << n), _names(n)
        part1 = [names[x] for x in compress(range(1 << n), columns) if columns[x] >> n]
        for x in compress(range(1 << n), columns):
            v, name = columns[x] & ((1 << n) - 1), names[x]
            while v:
                step = v & -v
                v ^= step
                part2.append((name, names[x | step]))
    return AvalancheReport(
        applicable=applicable,
        part1_pass=not part1,
        part1_violations=tuple(part1),
        part2_pass=not part2,
        part2_violations=tuple(part2),
        threshold=threshold,
    )


@dataclass(frozen=True)
class CollisionReport:
    injective: bool
    buckets: dict[str, tuple[str, ...]]  # every output seen -> its inputs

    @property
    def colliding_groups(self) -> list[tuple[str, tuple[str, ...]]]:
        return [(out, xs) for out, xs in self.buckets.items() if len(xs) > 1]


def collision_scan(f: PlaFunction | EsopCover, limit: int = EXHAUSTIVE_LIMIT) -> CollisionReport:
    """Bucket every input by output value; group sizes always sum to 2^n."""
    # Output 0 as the top bit, so that sorted values give keys in order.
    values = _columns(forward_words(f, limit)[::-1], 1 << f.n)
    groups: dict[int, list[str]] = {}
    for value, name in zip(values, _names(f.n)):
        groups.setdefault(value, []).append(name)
    buckets = {format(value, f"0{f.m}b"): tuple(groups[value]) for value in sorted(groups)}
    return CollisionReport(injective=len(buckets) == 1 << f.n, buckets=buckets)

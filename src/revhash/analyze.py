"""Hash-quality checks: avalanche and collisions."""

from __future__ import annotations

from dataclasses import dataclass

from .pla import PlaFunction, int_to_bits
from .sim import EXHAUSTIVE_LIMIT, _columns, forward_words


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


def avalanche_check(f: PlaFunction, limit: int = EXHAUSTIVE_LIMIT) -> AvalancheReport:
    """Exhaustive two-part avalanche evaluation.

    Part 1: every input differs from its output by at least ceil(m/2) bit
    positions (requires n == m). Part 2: inputs at Hamming distance 1 map
    to outputs at distance at least ceil(m/2).
    """
    table = _columns(forward_words(f, limit), 1 << f.n)
    threshold = (f.m + 1) // 2
    applicable = f.n == f.m

    part1: list[str] = []
    if applicable:
        for x in range(1 << f.n):
            if (x ^ table[x]).bit_count() < threshold:
                part1.append(int_to_bits(x, f.n))

    part2: list[tuple[str, str]] = []
    for x in range(1 << f.n):
        for i in range(f.n):
            other = x | (1 << i)
            if other == x:
                continue
            if (table[x] ^ table[other]).bit_count() < threshold:
                part2.append((int_to_bits(x, f.n), int_to_bits(other, f.n)))

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


def collision_scan(f: PlaFunction, limit: int = EXHAUSTIVE_LIMIT) -> CollisionReport:
    """Bucket every input by output value; group sizes always sum to 2^n."""
    table = _columns(forward_words(f, limit), 1 << f.n)
    buckets: dict[str, list[str]] = {}
    for x, out in enumerate(table):
        buckets.setdefault(int_to_bits(out, f.m), []).append(int_to_bits(x, f.n))
    frozen = {out: tuple(xs) for out, xs in sorted(buckets.items())}
    return CollisionReport(
        injective=all(len(xs) == 1 for xs in frozen.values()),
        buckets=frozen,
    )

"""Expected outputs computed apart from the program, from a function's table.

Bit strings put the most significant bit of a value first, as the `.pla`
rows do, so lexicographic order of strings is numeric order of values.
"""

from __future__ import annotations

from workloads import AES_SBOX_PUBLISHED, Function, bits


class Expected:
    """Preimage sets, avalanche violation counts and collision groups of one table."""

    def __init__(self, f: Function):
        self.f = f
        groups: dict[str, list[str]] = {}
        for x, y in enumerate(f.table):
            groups.setdefault(bits(y, f.m), []).append(bits(x, f.n))
        self.preimages = {y: tuple(xs) for y, xs in groups.items()}
        self.collisions = {y: xs for y, xs in self.preimages.items() if len(xs) > 1}
        threshold = (f.m + 1) // 2
        table = f.table
        self.part1 = 0
        if f.n == f.m:
            self.part1 = sum((x ^ y).bit_count() < threshold for x, y in enumerate(table))
        self.part2 = sum(
            (table[x] ^ table[x | 1 << i]).bit_count() < threshold
            for x in range(len(table))
            for i in range(f.n)
            if not x >> i & 1
        )

    def preimages_of(self, y: str) -> tuple[str, ...]:
        return self.preimages.get(y, ())


def run_gates(circuit, n: int, m: int, x: int) -> tuple[int, str]:
    """Evaluate a circuit on one state: input lines hold x, output lines start at 0.

    Line i < n carries character i of x's bit string. Returns the input lines
    read back as a value, and the output lines as a bit string.
    """
    state = [int(ch) for ch in bits(x, n)] + [0] * m
    for g in circuit.gates:
        if all(state[c] for c in g.positive_controls) and not any(state[c] for c in g.negative_controls):
            state[g.target] ^= 1
    return int("".join(map(str, state[:n])), 2), "".join(map(str, state[n:]))


def check_published(functions: list[Function]) -> list[str]:
    """Compare the AES tables with FIPS-197; return one message per mismatch."""
    problems = []
    by_name = {f.name: f for f in functions}
    if "aes_sbox" in by_name and by_name["aes_sbox"].table != tuple(AES_SBOX_PUBLISHED):
        problems.append("aes_sbox differs from the published S-box")
    if "aes_inv_sbox" in by_name:
        inv = by_name["aes_inv_sbox"].table
        if any(inv[AES_SBOX_PUBLISHED[x]] != x for x in range(256)):
            problems.append("aes_inv_sbox does not invert the published S-box")
    return problems

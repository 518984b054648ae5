"""Benchmark function tables and .pla generation.

Thirteen small substitution functions: the 4-bit AES-style S-box, the
PRESENT S-box, the eight DES S-boxes, the AES S-box and its inverse, and a
regenerated 8-bit hash that satisfies the two-part avalanche criteria (the
original benchmark's custom hash is not published). Tables are generated
algebraically where a standard construction exists so transcription errors
cannot creep in; tests pin known values.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .pla import Cube, PlaFunction, write_pla

# PRESENT block cipher S-box (4 -> 4).
PRESENT_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)

# DES S-boxes, standard 4x16 row/column layout. Input b1..b6: row = b1b6,
# column = b2b3b4b5.
DES_SBOXES = (
    (
        (14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7),
        (0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8),
        (4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0),
        (15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13),
    ),
    (
        (15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10),
        (3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5),
        (0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15),
        (13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9),
    ),
    (
        (10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8),
        (13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1),
        (13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7),
        (1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12),
    ),
    (
        (7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15),
        (13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9),
        (10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4),
        (3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14),
    ),
    (
        (2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9),
        (14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6),
        (4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14),
        (11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3),
    ),
    (
        (12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11),
        (10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8),
        (9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6),
        (4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13),
    ),
    (
        (4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1),
        (13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6),
        (1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2),
        (6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12),
    ),
    (
        (13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7),
        (1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2),
        (7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8),
        (2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11),
    ),
)


def _gf_inverses(modulus: int, width: int) -> list[int]:
    """The inverse of every element of GF(2^width) (0 maps to 0), from one
    pass over the powers of x + 1 (0x03), which generates the multiplicative
    group for both moduli used here: the inverse of g^k is g^-k."""
    high = 1 << width
    powers, p = [], 1
    for _ in range(high - 1):
        powers.append(p)
        p ^= p << 1
        if p & high:
            p ^= modulus | high
    inverses = [0] * high
    for k, p in enumerate(powers):
        inverses[p] = powers[-k]
    return inverses


@lru_cache(maxsize=None)
def aes_sbox() -> tuple[int, ...]:
    """AES S-box: inversion in GF(2^8) mod x^8+x^4+x^3+x+1 plus affine map."""
    out = []
    for b in _gf_inverses(0x1B, 8):
        y = 0
        for i in range(8):
            bit = (
                (b >> i) ^ (b >> ((i + 4) % 8)) ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8)) ^ (b >> ((i + 7) % 8)) ^ (0x63 >> i)
            ) & 1
            y |= bit << i
        out.append(y)
    return tuple(out)


@lru_cache(maxsize=None)
def aes_inv_sbox() -> tuple[int, ...]:
    inv = [0] * 256
    for x, y in enumerate(aes_sbox()):
        inv[y] = x
    return tuple(inv)


@lru_cache(maxsize=None)
def aes4_sbox() -> tuple[int, ...]:
    """Small-scale AES-style 4-bit S-box: GF(2^4) mod x^4+x+1 inversion
    followed by the affine map with column matrix [D,B,7,E] and constant 6."""
    cols = (0xD, 0xB, 0x7, 0xE)
    out = []
    for b in _gf_inverses(0x3, 4):
        y = 0x6
        for i in range(4):
            if (b >> i) & 1:
                y ^= cols[i]
        out.append(y)
    return tuple(out)


def des_sbox(index: int):
    """DES S-box `index` (1-based) as a 6-bit -> 4-bit function."""
    table = DES_SBOXES[index - 1]

    def fn(x: int) -> int:
        row = ((x >> 4) & 0b10) | (x & 1)
        col = (x >> 1) & 0b1111
        return table[row][col]

    return fn


def hash8(x: int) -> int:
    """Regenerated 8-bit hash meeting both avalanche parts.

    Complements all bits on odd-parity inputs, then XORs a weight-4
    constant: every input differs from its output in exactly 4 positions,
    and flipping one input bit flips 7 output bits.
    """
    if x.bit_count() & 1:
        x ^= 0xFF
    return x ^ 0x36


def demo_hash4(x: int) -> int:
    """The 4-bit demonstration hash: bitwise complement (0110 -> 1001)."""
    return x ^ 0xF


def table_to_pla(name: str, n: int, m: int, fn) -> PlaFunction:
    """Full truth table of fn as a .pla cover (rows in ascending input order)."""
    cubes = []
    for x in range(1 << n):
        cubes.append(Cube(format(x, f"0{n}b"), format(fn(x), f"0{m}b")))
    return PlaFunction(n=n, m=m, cubes=tuple(cubes), name=name)


def corpus_functions() -> list[tuple[str, PlaFunction]]:
    """The 13 benchmark functions, in report order."""
    entries: list[tuple[str, PlaFunction]] = [
        ("aes4_sbox", table_to_pla("aes4_sbox", 4, 4, lambda x: aes4_sbox()[x])),
        ("present_sbox", table_to_pla("present_sbox", 4, 4, lambda x: PRESENT_SBOX[x])),
    ]
    for k in range(1, 9):
        entries.append((f"des_sbox{k}", table_to_pla(f"des_sbox{k}", 6, 4, des_sbox(k))))
    entries.append(("aes_sbox", table_to_pla("aes_sbox", 8, 8, lambda x: aes_sbox()[x])))
    entries.append(("aes_inv_sbox", table_to_pla("aes_inv_sbox", 8, 8, lambda x: aes_inv_sbox()[x])))
    entries.append(("hash8_avalanche", table_to_pla("hash8_avalanche", 8, 8, hash8)))
    return entries


def demo_hash4_pla() -> PlaFunction:
    return table_to_pla("demo_hash4", 4, 4, demo_hash4)


def write_corpus(directory, include_demo: bool = False) -> list[Path]:
    """Write the benchmark .pla files; returns the paths in report order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = corpus_functions()
    if include_demo:
        entries = entries + [("demo_hash4", demo_hash4_pla())]
    paths = []
    for name, f in entries:
        path = directory / f"{name}.pla"
        path.write_text(write_pla(f))
        paths.append(path)
    return paths

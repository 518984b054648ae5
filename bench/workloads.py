"""Seeded workload inputs: `.pla` texts, their tables, and inversion targets.

Every workload is a list of `Function`s. A function carries the `.pla` text
the program receives, the table the benchmark itself holds for it (input
value -> output value, with character 0 of a bit string as the most
significant bit), and the targets to invert. The same seed always gives the
same inputs. Nothing here imports revhash except the `corpus` workload,
whose functions are the program's own published tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("corpus", "perm10", "compress12")

# Inversion targets per round. perm10 gives PERM10_TARGETS to preimage_one
# and PERM10_FULL_TARGETS of them also to deduction and brute force;
# compress12 gives all 16 outputs to preimage_one and COMPRESS12_TARGETS of
# them to the other two; corpus samples CORPUS_8BIT_TARGETS targets from
# each 8-bit function.
PERM10_TARGETS = 12
PERM10_FULL_TARGETS = 4
COMPRESS12_TARGETS = 8
CORPUS_8BIT_TARGETS = 16
# The perm10 bijection is the same for every seed (the seed picks its
# targets): how many sweeps the minimizer makes differs from one bijection
# to the next, which would move compile_s by a third between seeds.
PERM10_FUNCTION_SEED = 1
# The compress12 table is the same for every seed too (the seed picks which
# outputs are inverted in full): the cost of `preimage_one` follows where
# each output's smallest preimage lies, and with a new table per seed the
# median over all 16 outputs moved by a fifth between seeds.
COMPRESS12_FUNCTION_SEED = 1
# Times a round repeats the analysis of each function, so that a stage of
# a few tens of milliseconds still gets a steady median.
ANALYZE_REPEATS = {"perm10": 5, "compress12": 3}
# Times a round repeats `preimage_one` and brute force on each target, one
# right after the other: compress12 fits one round in a run, and a median
# over single calls of 20-40 ms moved by a tenth between runs.
TARGET_REPEATS = {"compress12": 2}

# FIPS-197 Figure 7, row by row.
AES_SBOX_PUBLISHED = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)


@dataclass(frozen=True)
class Function:
    name: str
    n: int
    m: int
    text: str
    table: tuple[int, ...]
    # Targets to invert: each is given to `preimage_one`, and the first
    # `full_targets` also to deduction of all preimages and to brute force.
    targets: tuple[str, ...]
    full_targets: int
    minimize: bool = True


def bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def table_text(name: str, n: int, m: int, table) -> str:
    """A full truth table as `.pla` text, one row per input in ascending order."""
    rows = [f"# {name}", f".i {n}", f".o {m}", f".p {1 << n}"]
    rows.extend(f"{bits(x, n)} {bits(y, m)}" for x, y in enumerate(table))
    rows.append(".e")
    return "\n".join(rows) + "\n"


def read_table(text: str) -> tuple[int, int, tuple[int, ...]]:
    """Read a full-table `.pla` text back into (n, m, table) without revhash."""
    n = m = None
    rows = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".i "):
            n = int(line.split()[1])
        elif line.startswith(".o "):
            m = int(line.split()[1])
        elif not line.startswith("."):
            inp, out = line.split()
            rows[int(inp, 2)] = int(out, 2)
    if n is None or m is None or sorted(rows) != list(range(1 << n)):
        raise ValueError("not a full truth table")
    return n, m, tuple(rows[x] for x in range(1 << n))


def stratified_targets(rng: random.Random, table, m: int, count: int) -> tuple[str, ...]:
    """Images of one random input from the middle half of each of `count`
    equal slices of the inputs.

    The preimages of these targets spread evenly over the input order, which
    sets how far a lexicographic search must go before its first solution;
    keeping each input in the middle half of its slice keeps the median
    target's position, and with it `first_ms.p50`, within a quarter-slice of
    the same place for every seed.
    """
    size = len(table)
    xs = [rng.randrange((4 * k + 1) * size // (4 * count), (4 * k + 3) * size // (4 * count))
          for k in range(count)]
    return tuple(bits(table[x], m) for x in xs)


def corpus_functions(seed: int) -> list[Function]:
    """The 13 published functions; every target of the 4- and 6-bit ones and
    a seeded sample of the 8-bit ones."""
    from revhash import corpus, pla

    rng = random.Random(seed)
    out = []
    for name, f in corpus.corpus_functions():
        text = pla.write_pla(f)
        n, m, table = read_table(text)
        if n <= 6:
            targets = tuple(bits(y, m) for y in range(1 << m))
        else:
            targets = stratified_targets(rng, table, m, CORPUS_8BIT_TARGETS)
        out.append(Function(name, n, m, text, table, targets, len(targets)))
    return out


def perm10_functions(seed: int) -> list[Function]:
    """One fixed random bijection on 10 bits and a seeded set of its targets.

    `preimage_one` takes all the targets, since its cost follows the position
    of the preimage; deduction and brute force, whose cost does not, take
    those from every third slice.
    """
    table = list(range(1 << 10))
    random.Random(PERM10_FUNCTION_SEED).shuffle(table)
    stratified = stratified_targets(random.Random(seed), table, 10, PERM10_TARGETS)
    targets = stratified[1::3] + tuple(y for k, y in enumerate(stratified) if k % 3 != 1)
    return [Function("perm10", 10, 10, table_text("perm10", 10, 10, table), tuple(table), targets,
                     PERM10_FULL_TARGETS)]


def compress12_functions(seed: int) -> list[Function]:
    """One fixed random many-to-one table from 12 bits to 4, not minimized.

    A seeded half of the outputs is inverted in full. `preimage_one` takes
    every output: its cost follows the position of a target's smallest
    preimage, which differs by tens of inputs from one output to the next,
    and a median over three outputs moved by a third between seeds.
    """
    table_rng = random.Random(COMPRESS12_FUNCTION_SEED)
    table = [table_rng.randrange(16) for _ in range(1 << 12)]
    targets = tuple(bits(y, 4) for y in random.Random(seed).sample(range(16), 16))
    return [Function("compress12", 12, 4, table_text("compress12", 12, 4, table), tuple(table),
                     targets, COMPRESS12_TARGETS, minimize=False)]


def generate(workload: str, seed: int) -> list[Function]:
    if workload == "corpus":
        return corpus_functions(seed)
    if workload == "perm10":
        return perm10_functions(seed)
    if workload == "compress12":
        return compress12_functions(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

"""Exclusive-or sum-of-products covers and cube-count minimization.

An EsopCover reads its rows XOR-wise: output bit j of f(x) is the XOR of
output bit j over every cube matching x. A .pla file holds such a cover
when it carries a `# esop` comment: `write_esop` writes that marker, and
`read_cover` returns an EsopCover for a marked file and a PlaFunction (rows
read OR-wise) otherwise. `from_pla` converts a PlaFunction through a
disjoint minterm cover, on which the two readings coincide, and passes an
EsopCover through, so every reader of a .pla file takes the same path.

The minimizer is an iterated pairwise cube transformer. Cube distance is
the number of input positions whose literals differ (don't-care counts as
distinct from 0 and 1). The moves:

  * distance 0 — same inputs: XOR the output rows; all-zero rows vanish,
    so identical cubes annihilate.
  * distance 1, equal outputs: the pair collapses into one cube (the
    merged literal is the third symbol: 0/1 -> dash, dash/0 -> 1, ...).
  * distance 1, differing outputs and distance 2, equal outputs: the pair
    is rewritten into a different equivalent pair. Rewrites are accepted
    when they shrink the literal count or when one of the new cubes
    immediately cancels or merges with the rest of the cover.

Every accepted move keeps the covered function identical and never grows
the cube count; sweeps repeat until one yields no accepted move, at most
MAX_SWEEPS times.

Inside the minimizer a cube is one int, `care << n | value`, and each cube
operation is a word operation on it: the positions where two cubes differ,
and the third symbol written at chosen positions. Partners are found by
lookup, never by testing every pair. The live cover keeps an output index
(output -> keys) beside its key -> output dict, so a merge partner for a
new cube is looked for among the cubes with its output alone, or, when
those are many, among the 2n keys at distance 1. A sweep groups its
snapshot once per input position by the key with that position cleared:
the cubes in one group are exactly the pairs at distance 1 there.
Distance-2 partners come from the snapshot's cubes with equal outputs.
Each cube's partners are visited in all-pairs order, so a sweep returns
the cover an all-pairs scan returns.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from .errors import EXHAUSTIVE_LIMIT, check_limit
from .pla import Cube, PlaFunction, check_cubes, parse_pla, write_pla

# minimize stops after this many sweeps; perm12 needs 13, the corpus at most 10.
MAX_SWEEPS = 64


@dataclass(frozen=True)
class EsopCover:
    """Cube list under XOR interpretation.

    Identical cubes XOR to nothing, so equal cubes cancel in pairs at
    construction; a stored cover never contains two equal rows.
    """

    n: int
    m: int
    cubes: tuple[Cube, ...]

    def __post_init__(self):
        check_cubes(self.n, self.m, self.cubes)
        # The keys cubes compare by, hashed with no Python call per cube.
        if len(set(map(Cube._key, self.cubes))) < len(self.cubes):
            counts = Counter(self.cubes)
            object.__setattr__(self, "cubes", tuple(c for c, k in counts.items() if k % 2))


@dataclass(frozen=True)
class CoverCost:
    cube_count: int
    literal_count: int
    output_ones: int


def cost(c: EsopCover) -> CoverCost:
    return CoverCost(
        cube_count=len(c.cubes),
        literal_count=sum(cu.num_literals for cu in c.cubes),
        output_ones=sum(cu.output_mask.bit_count() for cu in c.cubes),
    )


def from_pla(f: PlaFunction | EsopCover) -> EsopCover:
    """Convert an OR-semantics cover to an equivalent XOR cover.

    Builds the disjoint minterm cover (accumulating overlapping rows with
    OR), drops all-zero-output minterms, and orders rows by input value.
    A minterm row whose output is its state's output is kept as read.
    On the result, XOR evaluation equals the original's OR evaluation.
    An EsopCover is returned unchanged. Raises ResourceLimitError, before
    expanding anything, when the rows span more than 2^EXHAUSTIVE_LIMIT states.
    """
    if isinstance(f, EsopCover):
        return f
    steps = 0
    for cu in f.cubes:
        steps += 1 << (f.n - cu.num_literals)
        check_limit(steps, EXHAUSTIVE_LIMIT, "minterm expansion cubes")

    acc: dict[int, int] = {}
    full = (1 << f.n) - 1
    rows = {cu.value_mask: cu for cu in f.cubes if cu.care_mask == full}  # the minterm rows
    for cu in f.cubes:
        free = full & ~cu.care_mask
        # Iterate all subsets of the don't-care positions.
        sub = 0
        while True:
            x = cu.value_mask | sub
            acc[x] = acc.get(x, 0) | cu.output_mask
            if sub == free:
                break
            sub = (sub - free) & free
    cubes = tuple(
        row if (row := rows.get(x)) is not None and row.output_mask == out
        else Cube.from_masks(full, x, out, f.n, f.m)
        for x, out in sorted(acc.items())
        if out
    )
    return EsopCover(n=f.n, m=f.m, cubes=cubes)


def write_esop(c: EsopCover, name: str | None = None) -> str:
    """The cover as .pla text marked `# esop`, so `read_cover` reads it back XOR-wise."""
    return write_pla(PlaFunction(n=c.n, m=c.m, cubes=c.cubes, name=name, comments=("esop",)))


def read_cover(text: str, warn=lambda message: None) -> EsopCover | PlaFunction:
    """Parse a .pla document: an EsopCover if it is marked `# esop`, else a
    PlaFunction. Each of the parser's warnings is passed to `warn`."""
    f = parse_pla(text)
    for message in f.warnings:
        warn(message)
    return EsopCover(n=f.n, m=f.m, cubes=f.cubes) if "esop" in f.comments else f


def minimize(c: EsopCover) -> EsopCover:
    """Shrink the cube count without changing the covered function.

    Rewrite sweeps repeat until one accepts no move, at most MAX_SWEEPS
    times; on reaching that bound the cover found so far is returned. The
    result never has more cubes than the input, and minimizing it again
    returns it unchanged once a sweep went by without an accepted move.
    """
    n, low = c.n, (1 << c.n) - 1
    live = _fold_in(_Live(), n, [(cu.care_mask << n | cu.value_mask, cu.output_mask) for cu in c.cubes])
    for _ in range(MAX_SWEEPS):
        if not _reshape_sweep(live, n):
            break
    # Cube order is semantically free under XOR; group cubes by their
    # zero-literal set (care & ~value) so downstream NOT sandwiches cancel
    # maximally, then by care and then value: the packed key's own order.
    ordered = sorted(live.items(), key=lambda item: (item[0] >> n & ~item[0], item[0]))
    return EsopCover(n=n, m=c.m, cubes=tuple(
        Cube.from_masks(key >> n, key & low, out, n, c.m) for key, out in ordered
    ))


class _Live(dict):
    """The cover being minimized, packed key -> output, with an output index.

    A cube on n inputs is keyed by `care << n | value`: bit i is its value
    and bit n + i its care bit at position i. A value bit is never set
    without its care bit. `by_out` maps each output to the keys holding it.
    Change the cover only through `add` and `remove`, which keep the two in
    step; read it as a dict.
    """

    __slots__ = ("by_out",)

    def __init__(self):
        super().__init__()
        self.by_out: defaultdict[int, set[int]] = defaultdict(set)

    def add(self, key: int, out: int) -> None:
        self[key] = out
        self.by_out[out].add(key)

    def remove(self, key: int) -> int:
        out = self.pop(key)
        self.by_out[out].remove(key)
        return out


def _fold_in(live: _Live, n: int, cubes) -> _Live:
    """Fold/merge (key, output) cubes into `live` to a d0/d1 fixpoint."""
    queue = deque(cubes)
    while queue:
        key, out = queue.popleft()
        if not out:
            continue
        if key in live:
            queue.append((key, live.remove(key) ^ out))
            continue
        partner = _d1_partner(live, n, key, out)
        if partner is not None:
            live.remove(partner[0])
            queue.append((partner[1], out))
        else:
            live.add(key, out)
    return live


def _d1_partner(live: _Live, n, key, out):
    """The first (key, merged_key) at distance 1 live with outputs `out`, or None.

    First means the lowest position, and there the first `_d1_pair` key. A
    bucket of up to 4n cubes is scanned for the lowest differing position; a
    larger one is looked up through the 2n keys at distance 1 instead, with
    the same answer: timed per lookup that finds no partner, the scan costs
    what the 2n probes cost at about 4n cubes. Single-output covers reach
    such buckets; on one output bit of perm10 the probe halves `minimize`.
    """
    bucket = live.by_out.get(out, ())
    if len(bucket) > 4 * n:
        for i in range(n):
            x, y = _d1_pair(key, 1 << i, n)
            if live.get(x) == out:
                return x, y
            if live.get(y) == out:
                return y, x
        return None
    bit = 0
    for pkey in bucket:
        diff = _diff(key, pkey, n)
        if diff.bit_count() == 1 and (not bit or diff < bit):
            bit = diff
    if not bit:
        return None
    x, y = _d1_pair(key, bit, n)
    return (x, y) if x in bucket else (y, x)


def _d1_pair(key, bit, n):
    """The two keys at distance 1 at `bit`, in the order 0, 1, dash; each merges with `key` into the other."""
    if key >> n & bit:
        return key ^ bit, key & ~(bit << n | bit)
    return key | bit << n, key | bit << n | bit


def _diff(a: int, b: int, n: int) -> int:
    """Bit i set iff the literals at position i differ. A value bit is set only
    under its care bit, so a value difference there means both care."""
    d = a ^ b
    return (d | d >> n) & ((1 << n) - 1)


def _merge(a: int, b: int, n: int, bits: int) -> int:
    """`a` with each position in `bits`, where a and b differ, set to the third symbol.

    Both care (0/1) -> dash; one cares -> care, with the opposite of that
    one's value, which is the one value bit set in a | b there.
    """
    care = (a ^ b) >> n & bits
    return a & ~(bits << n | bits) | care << n | care & ~(a | b)


def _reshape_sweep(live: _Live, n: int) -> bool:
    """One sweep of pair rewrites over the current cover.

    Rewrites input-distance-1 pairs with differing outputs and
    input-distance-2 pairs with equal outputs; the rewritten pair covers
    the same function. A rewrite is kept when it lowers the literal count
    outright or lets a new cube cancel/merge with the remaining cover.
    Returns True if anything was accepted.

    Partners come from the snapshot. For each position, grouping the keys
    with that position's care and value bits cleared puts each distance-1
    pair there in one group (of at most 3 cubes, one per literal);
    distance-2 partners come from an output -> indices bucket. Qualifying
    depends on snapshot values alone, so visiting each cube's partners in
    ascending index, with the all-pairs liveness checks, makes the same
    rewrite attempts in the same order and so yields the same cover.
    """
    snapshot = list(live.items())
    partners: list[list[int]] = [[] for _ in snapshot]
    for i in range(n):
        clear = ~(1 << i | 1 << (n + i))
        groups: dict[int, list[int]] = {}
        for ib, (key, out) in enumerate(snapshot):
            group = groups.setdefault(key & clear, [])
            for ia in group:
                if snapshot[ia][1] != out:
                    partners[ia].append(ib)
            group.append(ib)
    by_out: dict[int, list[int]] = {}
    for i, (_, out) in enumerate(snapshot):
        by_out.setdefault(out, []).append(i)
    changed = False
    for ia, (a, out_a) in enumerate(snapshot):
        if live.get(a) != out_a:
            continue
        later = partners[ia] + [
            ib for ib in by_out[out_a] if ib > ia and _diff(a, snapshot[ib][0], n).bit_count() == 2]
        for ib in sorted(later):
            b, out_b = snapshot[ib]
            if live.get(b) != out_b:
                continue
            if live.get(a) != out_a:
                break
            diff = _diff(a, b, n)
            if out_a != out_b:
                options = _rewrite_d1(a, out_a, b, out_b, diff, n)
            else:
                options = _rewrite_d2(a, b, out_a, diff, n)
            if _try_rewrite(live, n, (a, out_a), (b, out_b), options):
                changed = True
    return changed


def _rewrite_d1(a, out_a, b, out_b, bit, n):
    """Two equivalent replacements for a distance-1 pair with unequal outputs.

    With merged input M (P_M = P_A xor P_B):
        A(u) + B(v)  =  M(u) + B(u^v)  =  M(v) + A(u^v)
    """
    m, x = _merge(a, b, n, bit), out_a ^ out_b
    return ((m, out_a), (b, x)), ((m, out_b), (a, x))


def _rewrite_d2(a, b, out, diff, n):
    """Two equivalent replacements for a distance-2 pair with equal outputs.

    Merging one differing position at a time:
        A + B = A[i->m_i] + A[i->b_i][j->m_j]   (and the i/j swap)
    where A[i->b_i] is B[j->a_j], so the second cube is B[j->m_j].
    """
    bit_i = diff & -diff
    bit_j = diff ^ bit_i
    return tuple(((_merge(a, b, n, first), out), (_merge(b, a, n, second), out))
                 for first, second in ((bit_i, bit_j), (bit_j, bit_i)))


def _try_rewrite(live, n, a, b, options) -> bool:
    """Apply the first acceptable rewrite option; restore the pair otherwise."""
    (key_a, out_a), (key_b, out_b) = a, b
    lits_before = (key_a >> n).bit_count() + (key_b >> n).bit_count()
    live.remove(key_a)
    live.remove(key_b)
    for c1, c2 in options:
        lits_after = (c1[0] >> n).bit_count() + (c2[0] >> n).bit_count()
        # A new cube with a partner cancels or merges with the rest of the cover.
        if lits_after < lits_before or any(
                key in live or _d1_partner(live, n, key, out) for key, out in (c1, c2)):
            _fold_in(live, n, (c1, c2))
            return True
    live.add(key_a, out_a)
    live.add(key_b, out_b)
    return False

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

Partners are found by lookup, never by testing every pair. The live cover
keeps an output index (output -> keys) beside its (care, value) -> output
dict, so a merge partner for a new cube is looked for among the cubes with
its output alone, or, when those are many, among the 2n keys at distance 1.
A sweep groups its snapshot once per input position by the cube with that
position cleared: the cubes in one group are exactly the pairs at distance
1 there. Distance-2 partners come from the snapshot's cubes with equal
outputs. Each cube's partners are visited in all-pairs order, so a sweep
returns the cover an all-pairs scan returns.
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


def read_cover(text: str) -> EsopCover | PlaFunction:
    """Parse a .pla document: an EsopCover if it is marked `# esop`, else a PlaFunction."""
    f = parse_pla(text)
    return EsopCover(n=f.n, m=f.m, cubes=f.cubes) if "esop" in f.comments else f


def minimize(c: EsopCover) -> EsopCover:
    """Shrink the cube count without changing the covered function.

    Rewrite sweeps repeat until one accepts no move, at most MAX_SWEEPS
    times; on reaching that bound the cover found so far is returned. The
    result never has more cubes than the input, and minimizing it again
    returns it unchanged once a sweep went by without an accepted move.
    """
    n = c.n
    live = _reduce([(cu.care_mask, cu.value_mask, cu.output_mask) for cu in c.cubes], n)
    for _ in range(MAX_SWEEPS):
        if not _reshape_sweep(live, n):
            break
    # Cube order is semantically free under XOR; group cubes by their
    # zero-literal set so downstream NOT sandwiches cancel maximally.
    ordered = sorted(
        ((care & ~val, care, val), out) for (care, val), out in live.items()
    )
    return EsopCover(n=n, m=c.m, cubes=tuple(
        Cube.from_masks(care, val, out, n, c.m) for (_zeros, care, val), out in ordered
    ))


class _Live(dict):
    """The cover being minimized, (care, value) -> output, with an output index.

    `by_out` maps each output to the keys holding it. Change the cover only
    through `add` and `remove`, which keep the two in step; read it as a dict.
    """

    __slots__ = ("by_out",)

    def __init__(self):
        super().__init__()
        self.by_out: defaultdict[int, set[tuple[int, int]]] = defaultdict(set)

    def add(self, key: tuple[int, int], out: int) -> None:
        self[key] = out
        self.by_out[out].add(key)

    def remove(self, key: tuple[int, int]) -> int:
        out = self.pop(key)
        self.by_out[out].remove(key)
        return out


def _reduce(cubes: list[tuple[int, int, int]], n: int) -> _Live:
    """Fold/merge (care, value, output) cubes to a d0/d1 fixpoint; keys are (care, value)."""
    live = _Live()
    queue = deque(cubes)
    while queue:
        _insert(live, n, queue)
    return live


def _insert(live: _Live, n: int, queue: deque) -> None:
    care, val, out = queue.popleft()
    if not out:
        return
    key = (care, val)
    if key in live:
        folded = live.remove(key) ^ out
        if folded:
            queue.append((care, val, folded))
        return
    partner = _d1_partner(live, n, care, val, out)
    if partner is not None:
        pkey, (mcare, mval) = partner
        live.remove(pkey)
        queue.append((mcare, mval, out))
        return
    live.add(key, out)


def _d1_partner(live: _Live, n, care, val, out):
    """The first (key, merged_key) of `_d1_neighbours` live with outputs `out`, or None.

    Scans the cubes with outputs `out` for one at distance 1, keeping the
    lowest differing position and there the one `_d1_neighbours` yields
    first. A bucket of more than 4n cubes is looked up through the 2n
    neighbour keys instead, with the same answer: timed per lookup that
    finds no partner, the scan costs what the 2n probes cost at about 4n
    cubes. Single-output covers reach such buckets; on one output bit of
    perm10 the probe halves `minimize`.
    """
    bucket = live.by_out.get(out, ())
    if len(bucket) > 4 * n:
        for pkey, merged in _d1_neighbours(care, val, n):
            if live.get(pkey) == out:
                return pkey, merged
        return None
    bit = 0
    for pcare, pval in bucket:
        diff = _diff_mask(care, val, pcare, pval)
        if diff.bit_count() == 1 and (not bit or diff < bit):
            bit = diff
    if not bit:
        return None
    x, y = _d1_pair(care, val, bit)
    return (x, y) if x in bucket else (y, x)


def _d1_neighbours(care, val, n):
    """Yield (key, merged_key) for the 2n keys at input distance 1.

    Positions ascend; at each come the other two literals, in the order 0,
    1, dash, and each merges with the cube into the other one's literal.
    """
    for i in range(n):
        x, y = _d1_pair(care, val, 1 << i)
        yield x, y
        yield y, x


def _d1_pair(care, val, bit):
    """The two keys at distance 1 at position `bit`, in the order 0, 1, dash."""
    if care & bit:
        return (care, val ^ bit), (care ^ bit, val & ~bit)
    return (care | bit, val), (care | bit, val | bit)


def _diff_mask(care_a: int, val_a: int, care_b: int, val_b: int) -> int:
    """Bit i set iff the literals at position i differ."""
    return (care_a ^ care_b) | (care_a & care_b & (val_a ^ val_b))


def _merged_literal(care_a, val_a, care_b, val_b, bit):
    """Third symbol at a differing position: (care_bit, value_bit) to apply."""
    if care_a & bit and care_b & bit:
        return 0, 0  # 0/1 -> don't-care
    if care_a & bit:
        return bit, (~val_a) & bit  # c/- -> opposite of c
    return bit, (~val_b) & bit


def _with_literal(care, val, bit, lit):
    lcare, lval = lit
    care = (care & ~bit) | lcare
    val = (val & ~bit) | (lval & lcare)
    return care, val


def _reshape_sweep(live: _Live, n: int) -> bool:
    """One sweep of pair rewrites over the current cover.

    Rewrites input-distance-1 pairs with differing outputs and
    input-distance-2 pairs with equal outputs; the rewritten pair covers
    the same function. A rewrite is kept when it lowers the literal count
    outright or lets a new cube cancel/merge with the remaining cover.
    Returns True if anything was accepted.

    Partners come from the snapshot. For each position, grouping the cubes
    by their key with that position cleared puts each distance-1 pair there
    in one group (of at most 3 cubes, one per literal); distance-2 partners
    come from an output -> indices bucket. Qualifying depends on snapshot
    values alone, so visiting each cube's partners in ascending index, with
    the all-pairs liveness checks, makes the same rewrite attempts in the
    same order and so yields the same cover.
    """
    snapshot = list(live.items())
    # Each key packed into one int, so one mask clears a position in both halves.
    packed = [care << n | val for (care, val), _ in snapshot]
    partners: list[list[int]] = [[] for _ in snapshot]
    for i in range(n):
        clear = ~(1 << i | 1 << (n + i))
        groups: dict[int, list[int]] = {}
        for ib, key in enumerate(packed):
            group = groups.setdefault(key & clear, [])
            for ia in group:
                if snapshot[ia][1] != snapshot[ib][1]:
                    partners[ia].append(ib)
            group.append(ib)
    by_out: dict[int, list[int]] = {}
    for i, (_, out) in enumerate(snapshot):
        by_out.setdefault(out, []).append(i)
    changed = False
    for ia, ((care_a, val_a), out_a) in enumerate(snapshot):
        if live.get((care_a, val_a)) != out_a:
            continue
        later = partners[ia] + [ib for ib in by_out[out_a] if ib > ia and _diff_mask(
            care_a, val_a, *snapshot[ib][0]).bit_count() == 2]
        for ib in sorted(later):
            (care_b, val_b), out_b = snapshot[ib]
            if live.get((care_b, val_b)) != out_b:
                continue
            if live.get((care_a, val_a)) != out_a:
                break
            diff = _diff_mask(care_a, val_a, care_b, val_b)
            if out_a != out_b:
                options = _rewrite_d1(care_a, val_a, out_a, care_b, val_b, out_b, diff)
            else:
                options = _rewrite_d2(care_a, val_a, care_b, val_b, out_a, diff)
            if _try_rewrite(live, n, (care_a, val_a, out_a), (care_b, val_b, out_b), options):
                changed = True
    return changed


def _rewrite_d1(care_a, val_a, out_a, care_b, val_b, out_b, bit):
    """Two equivalent replacements for a distance-1 pair with unequal outputs.

    With merged input M (P_M = P_A xor P_B):
        A(u) + B(v)  =  M(u) + B(u^v)  =  M(v) + A(u^v)
    """
    lit = _merged_literal(care_a, val_a, care_b, val_b, bit)
    mcare, mval = _with_literal(care_a, val_a, bit, lit)
    x = out_a ^ out_b
    return (
        ((mcare, mval, out_a), (care_b, val_b, x)),
        ((mcare, mval, out_b), (care_a, val_a, x)),
    )


def _rewrite_d2(care_a, val_a, care_b, val_b, out, diff):
    """Two equivalent replacements for a distance-2 pair with equal outputs.

    Merging one differing position at a time:
        A + B = A[i->m_i] + A[i->b_i][j->m_j]   (and the i/j swap)
    """
    bit_i = diff & -diff
    bit_j = diff ^ bit_i
    options = []
    for first, second in ((bit_i, bit_j), (bit_j, bit_i)):
        m1 = _with_literal(care_a, val_a, first, _merged_literal(care_a, val_a, care_b, val_b, first))
        bcare = (care_a & ~first) | (care_b & first)
        bval = (val_a & ~first) | (val_b & first)
        m2 = _with_literal(bcare, bval, second, _merged_literal(bcare, bval, care_b, val_b, second))
        options.append(((m1[0], m1[1], out), (m2[0], m2[1], out)))
    return tuple(options)


def _try_rewrite(live, n, a, b, options) -> bool:
    """Apply the first acceptable rewrite option; restore the pair otherwise."""
    care_a, val_a, out_a = a
    care_b, val_b, out_b = b
    lits_before = (care_a.bit_count() + care_b.bit_count())
    live.remove((care_a, val_a))
    live.remove((care_b, val_b))
    for c1, c2 in options:
        lits_after = c1[0].bit_count() + c2[0].bit_count()
        if lits_after < lits_before or _has_partner(live, n, c1) or _has_partner(live, n, c2):
            queue = deque((c1, c2))
            while queue:
                _insert(live, n, queue)
            return True
    live.add((care_a, val_a), out_a)
    live.add((care_b, val_b), out_b)
    return False


def _has_partner(live, n, cube) -> bool:
    care, val, out = cube
    if (care, val) in live:
        return True
    return _d1_partner(live, n, care, val, out) is not None

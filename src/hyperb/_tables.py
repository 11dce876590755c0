"""Cached combinatorial tables for small subset lattices.

Internal module.  Everything here works on raw integers:

* a *mask* is an n-bit subset of positions 0..n-1 (position j is the j-th
  smallest ground label),
* a *rank* is the 0-indexed position of a mask in the size-then-lex order,
* a *family bitset* packs a family of subsets into one integer over the
  2^n-element universe: bit r is set iff the subset of rank r is a member.

Every per-subset table here but rank_of_mask (the mask -> rank inverse) is
indexed by rank, so a family bitset's set bits index the tables directly,
ball tables included.  Family bitsets make the heavy sweeps cheap:
intersecting common neighborhoods is a single big-int AND per family member,
and an initial segment is exactly a bitset of the form 2^m - 1.  closed_bits
finds the members of a wide family a byte at a time; the walks used on small
section ints peel the lowest set bit, which is faster below a few words.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

from .errors import InfeasibleError

# Tables are materialized per ground size, and a larger ground is refused as
# infeasible.  Most tables hold 2^n small entries; the ball tables hold 2^n
# bitsets of 2^n bits per radius and have their own cap, MAX_BALL_BYTES.
MAX_TABLE_BITS = 14

# Byte cap on the ball tables of one ground.  balls(n, p) costs n big-int ORs
# per vertex per radius and keeps every radius 0..p; its estimated size
# (ball_table_bytes) is about 9 MB per radius at n = 13 and 36 MB at n = 14.
# A request over the cap is refused before anything is allocated: all radii
# fit at n <= 13 (about 129 MB at n = 13), only radii 0..3 at n = 14.
MAX_BALL_BYTES = 160 * 2**20


def check_table_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"ground size must be non-negative, got {n}")
    if n > MAX_TABLE_BITS:
        raise InfeasibleError(
            f"ground size {n} exceeds the desk-scale table capacity "
            f"({MAX_TABLE_BITS} bits)"
        )


@lru_cache(maxsize=None)
def masks_in_order(n: int) -> tuple[int, ...]:
    """All n-bit masks ordered by popcount, then lexicographically.

    Within one size level, itertools.combinations yields the sorted element
    tuples in ascending lexicographic order, which is exactly the order
    induced by "smallest differing label wins".
    """
    check_table_size(n)
    out = []
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            m = 0
            for c in combo:
                m |= 1 << c
            out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def rank_of_mask(n: int) -> tuple[int, ...]:
    """Inverse permutation of masks_in_order, indexed by mask."""
    order = masks_in_order(n)  # refuses grounds over the cap before allocating
    table = [0] * len(order)
    for r, m in enumerate(order):
        table[m] = r
    return tuple(table)


def universe_bits(n: int) -> int:
    """Family bitset holding every subset of an n-element ground set."""
    return (1 << (1 << n)) - 1


def prefix_bits(m: int) -> int:
    """Family bitset of the first m subsets (an initial segment)."""
    return (1 << m) - 1


def is_prefix_bits(bits: int) -> bool:
    """True iff the bitset is an initial segment (a run of low bits)."""
    return bits & (bits + 1) == 0


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """By doubling: the byte v + 2^j with v < 2^j has the offsets of v, then j."""
    table = [()]
    for j in range(8):
        table += [t + (j,) for t in table]
    return tuple(table)


# BYTE_BITS[v] = the offsets of the set bits of the byte value v, lowest first.
BYTE_BITS = _byte_bits()


def iter_bits(bits: int):
    """Yield the indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def ball_table_bytes(n: int, p: int) -> int:
    """Estimated bytes of the ball tables for radii 0..p at ground size n:
    per radius, 2^n tuple slots, each holding a full-width bitset."""
    return (p + 1) * (1 << n) * (8 + sys.getsizeof(universe_bits(n)))


@lru_cache(maxsize=None)
def flip_ranks(n: int) -> array:
    """flip_ranks(n)[r*n + i] = rank of the subset of rank r with position i
    toggled: its n neighbours in the hypercube Q_n, packed two bytes each
    (ranks stay below 2^MAX_TABLE_BITS)."""
    rank = rank_of_mask(n)
    flips = [1 << i for i in range(n)]
    return array("H", (rank[m ^ e] for m in masks_in_order(n) for e in flips))


def ball_step(prev, moves) -> tuple[int, ...]:
    """One radius of the ball recurrence B_r(x) = B_{r-1}(x) | OR over the
    one-step neighbours y in moves[x] of B_{r-1}(y), given prev = B_{r-1}."""
    out = []
    for acc, near in zip(prev, moves):
        for y in near:
            acc |= prev[y]
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=None)
def balls(n: int, p: int) -> tuple[int, ...]:
    """balls(n, p)[r] = family bitset of all y with |x xor y| <= p, where x
    is the subset of rank r.

    Radius p is one ball_step over the hypercube moves (flip_ranks) from the
    cached radius p - 1, so each radius costs n big-int ORs per vertex.
    Radii above n are the radius-n table.  Raises InfeasibleError, before
    allocating, when radii 0..p at this ground would take more than
    MAX_BALL_BYTES.
    """
    check_table_size(n)
    if p < 0:
        raise ValueError("radius must be non-negative")
    if p > n:
        return balls(n, n)
    need = ball_table_bytes(n, p)
    if need > MAX_BALL_BYTES:
        raise InfeasibleError(
            f"ball tables for radii 0..{p} at n={n} need about {need >> 20} MiB, "
            f"over the {MAX_BALL_BYTES >> 20} MiB cap"
        )
    if p == 0:
        return tuple(1 << r for r in range(1 << n))
    flips = flip_ranks(n)
    return ball_step(balls(n, p - 1), (flips[i : i + n] for i in range(0, len(flips), n)))


def closed_bits(family: int, n: int, p: int) -> int:
    """Family bitset of the common closed p-neighborhood of `family`.

    Empty family yields the full universe (vacuous quantification).  The
    members are read a byte at a time (BYTE_BITS), and the walk stops after
    the first nonzero byte that leaves the intersection empty.  Peeling the
    lowest member instead costs three full-width big-int operations each;
    that is cheaper only on ints of a few words, which is why iter_bits,
    split_bits, join_bits and closed_bits_upto, hot on n <= 5 sections,
    still peel.
    """
    if p < 0:
        raise ValueError("radius must be non-negative")
    if p >= n:
        return universe_bits(n)
    ball = balls(n, p)
    acc = universe_bits(n)
    base = 0
    for byte in family.to_bytes((family.bit_length() + 7) >> 3, "little"):
        if byte:
            for j in BYTE_BITS[byte]:
                acc &= ball[base + j]
            if not acc:
                return 0
        base += 8
    return acc


def closed_bits_upto(family: int, n: int, p_max: int) -> list[int]:
    """[closed_bits(family, n, p) for p in 0..p_max], from one walk over the
    members: the member ranks are listed once and each radius intersects
    their balls, stopping as soon as the intersection is empty.

    Sweeps that need a family's closed neighborhoods at every radius (the
    section identity) pay for one member walk instead of one per radius.
    """
    members = list(iter_bits(family))
    universe = universe_bits(n)
    out = []
    for p in range(min(p_max + 1, n)):
        ball = balls(n, p)
        acc = universe
        for r in members:
            acc &= ball[r]
            if not acc:
                break
        out.append(acc)
    out += [universe] * (p_max + 1 - len(out))
    return out


def closed_bits_all(n: int, p: int) -> list[int]:
    """[closed_bits(fam, n, p) for fam in range(2^(2^n))]: the closed
    neighborhood of every family bitset, by the subset DP
    C^p[A] = C^p[A - {a}] & Ball_p(a) with a the highest-ranked member of A.

    The list has 2^(2^n) entries (65 536 at n = 4, 2^32 at n = 5), so
    callers cap n first.
    """
    out = [universe_bits(n)]
    for ball in balls(n, p):
        # the families whose top member has this rank follow those below it;
        # islice stops at the current end, so the list is extended without a copy
        out += map(ball.__and__, islice(out, len(out)))
    return out


def segment_closures(n: int, p: int):
    """Yield C^p[I_m] for m = 0..2^n: the running intersection of the balls
    in rank order, starting from the universe."""
    ball_table = balls(n, p)  # refuses a ground over the cap before the universe is built
    cur = universe_bits(n)
    yield cur
    for ball in ball_table:
        cur &= ball
        yield cur


@lru_cache(maxsize=None)
def initial_segment_closed_sizes(n: int, p: int) -> tuple[int, ...]:
    """sizes[m] = |C^p[I_m]| for every prefix length m."""
    return tuple(cur.bit_count() for cur in segment_closures(n, p))


@lru_cache(maxsize=None)
def initial_segment_open_sizes(n: int, p: int) -> tuple[int, ...]:
    """sizes[m] = |C^p(I_m)| for every prefix length m: I_m is the low m
    bits, so the open neighborhood is what remains above them."""
    return tuple((cur >> m).bit_count() for m, cur in enumerate(segment_closures(n, p)))


@dataclass(frozen=True)
class SectionTables:
    """Split/merge tables for fixing one coordinate of the ground set.

    Position j of the n-bit ground is removed; the remaining positions are
    compacted to an (n-1)-bit subground.  Compaction preserves the relative
    order of labels, so subground ranks use original-label semantics.
    """

    n: int
    j: int
    minus_selector: int            # ranks over [n] whose mask avoids bit j
    compact_rank: tuple[int, ...]  # rank over [n] -> rank of compacted mask
    expand_minus: tuple[int, ...]  # subground rank -> rankbit over [n], bit j clear
    expand_plus: tuple[int, ...]   # subground rank -> rankbit over [n], bit j set
    minus_prefix: tuple[int, ...]  # m -> family bitset of expanded I_m (bit j clear)
    plus_prefix: tuple[int, ...]   # m -> family bitset of expanded I_m + {j}

    def compress(self, family: int) -> int:
        """Compression at coordinate j: both sections of the family replaced
        by initial segments of the subground of the same sizes."""
        a = (family & self.minus_selector).bit_count()
        return self.minus_prefix[a] | self.plus_prefix[family.bit_count() - a]


@lru_cache(maxsize=None)
def section_tables(n: int, j: int) -> SectionTables:
    if not 0 <= j < n:
        raise ValueError(f"coordinate {j} out of range for ground size {n}")
    order_n = masks_in_order(n)
    rank_n = rank_of_mask(n)
    sub_rank = rank_of_mask(n - 1)
    sub_order = masks_in_order(n - 1)
    bit = 1 << j
    low_mask = bit - 1

    minus_selector = 0
    compact_rank = []
    for r, m in enumerate(order_n):
        compact = (m & low_mask) | ((m >> (j + 1)) << j)
        compact_rank.append(sub_rank[compact])
        if not m & bit:
            minus_selector |= 1 << r

    expand_minus = []
    expand_plus = []
    for m_sub in sub_order:
        expanded = (m_sub & low_mask) | ((m_sub >> j) << (j + 1))
        expand_minus.append(1 << rank_n[expanded])
        expand_plus.append(1 << rank_n[expanded | bit])

    minus_prefix = [0]
    plus_prefix = [0]
    for rb_minus, rb_plus in zip(expand_minus, expand_plus):
        minus_prefix.append(minus_prefix[-1] | rb_minus)
        plus_prefix.append(plus_prefix[-1] | rb_plus)

    return SectionTables(
        n=n,
        j=j,
        minus_selector=minus_selector,
        compact_rank=tuple(compact_rank),
        expand_minus=tuple(expand_minus),
        expand_plus=tuple(expand_plus),
        minus_prefix=tuple(minus_prefix),
        plus_prefix=tuple(plus_prefix),
    )


def split_bits(family: int, n: int, j: int) -> tuple[int, int]:
    """Sections of a family bitset: (members avoiding j, members containing j
    with j dropped), both as bitsets over the (n-1)-bit subground."""
    t = section_tables(n, j)
    selector = t.minus_selector
    compact = t.compact_rank
    minus = plus = 0
    rest = family
    while rest:
        low = rest & -rest
        r = low.bit_length() - 1
        if selector & low:
            minus |= 1 << compact[r]
        else:
            plus |= 1 << compact[r]
        rest ^= low
    return minus, plus


def join_bits(minus: int, plus: int, n: int, j: int) -> int:
    """Inverse of split_bits: reassemble a family bitset over the full ground."""
    t = section_tables(n, j)
    out = 0
    expand = t.expand_minus
    while minus:
        low = minus & -minus
        out |= expand[low.bit_length() - 1]
        minus ^= low
    expand = t.expand_plus
    while plus:
        low = plus & -plus
        out |= expand[low.bit_length() - 1]
        plus ^= low
    return out


def compress_bits(family: int, n: int, j: int) -> int:
    """One coordinate compression: replace both sections by equal-size
    initial segments of the subground."""
    return section_tables(n, j).compress(family)

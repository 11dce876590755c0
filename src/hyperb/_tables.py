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
finds the members of a wide family a byte at a time, and member_ranks lists
them that way; iter_bits, split_bits and join_bits peel the lowest set bit,
which is faster below a few words.

The ball recurrence runs only below radius n/2: complementing reverses the
rank order, and the p-ball of x is the set outside the (n-1-p)-ball of its
complement (Harper 1966), so balls derives a radius p >= n/2 by complement.

The section sweep works on *radius stacks*: one int holding a bitset per
radius p = 0, 1, ... side by side, radius p in bits [p*2^n, (p+1)*2^n).
stack_balls stacks the subground's balls this way, so one AND per member
intersects a section's closed neighborhoods at every radius, and
join_radii reassembles the two sides of every radius into full-ground
bitsets with one parallel bit deposit, a few mask-and-shift stages
(Hacker's Delight 7-5).  The deposit only moves and selects bits, so it
commutes with AND: a family whose every member satisfies the identity
alone satisfies it too.

The all-families sweeps (n <= 4) work on *lanes*: one bytes object whose
byte f holds a small count for the family bitset f.  count_lane builds a
lane by doubling over the ranks, bytes.translate maps every byte through a
table at once, lane_slack subtracts two lanes in one guarded big-int
operation (SIMD within a register, Knuth TAOCP 7.1.3), optionally zeroing
the families a 0/1 lane leaves out in the same pass, lane_where zeroes them
alone, lane_below lists the families whose slack went negative, and
lane_max_slack finds the largest slack with one C byte search (memchr) per
candidate value, not a Python walk over the bytes.

The *subset lanes* read a ball table through its columns: column y holds
the ranks a whose ball contains y, so y lies in C^p[f] exactly when f is
a subset of column y.  subset_lane marks the subsets of one bitset,
closed_size_lane sums the subset lanes of all columns into |C^p[f]|, and
pairwise_lane marks the families whose members all lie in each other's
balls.  Both double over the ranks as count_lane does and read balls(n, p)
on every call, so they give the sizes and the pairwise test of
closed_bits_all, the subset DP kept as their reference, on any ball table,
an asymmetric one included.  closed_size_lane, read by several sweeps at
one (n, p), keeps its lanes in a small memo keyed by the ball table's
content, not by (n, p): a patched or faulted table is a new key, so the
memo can never hand out the lane of another table.
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

# Byte cap on the ball tables of one ground.  balls(n, p) keeps at most the
# radii 0..p, about 9 MB per radius at n = 13 and 36 MB at n = 14; the cap
# reads that bound (ball_table_bytes), not what a radius p >= n/2 really
# builds.  A request over the cap is refused before anything is allocated:
# all radii fit at n <= 13 (about 129 MB at n = 13), only radii 0..3 at n = 14.
MAX_BALL_BYTES = 160 * 2**20

# Lanes (count_lane) hold one byte per family bitset, 2^(2^n) bytes: 64 KiB
# at n = 4, 4 GiB at n = 5.
MAX_LANE_N = 4


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


def member_ranks(bits: int) -> list[int]:
    """The indices of the set bits, lowest first, read a byte at a time
    (BYTE_BITS): one pass over the bytes, where iter_bits pays three
    full-width operations per set bit."""
    out = []
    append = out.append
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
        if byte:
            for j in BYTE_BITS[byte]:
                append(base + j)
        base += 8
    return out


def iter_bits(bits: int):
    """Yield the indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def ball_table_bytes(n: int, p: int) -> int:
    """Upper bound on the bytes of the ball tables balls(n, p) keeps: radii
    0..p, each 2^n tuple slots holding a full-width bitset.  A radius
    p >= n/2 keeps only radii 0..n-1-p and p, and radius n one bitset."""
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


def check_ball_tables(n: int, p: int) -> None:
    """Refuse, at constant cost, a request for the ball tables of radii
    0..p at ground size n: the ground size first (check_table_size), then
    the radius, then MAX_BALL_BYTES.  Radii above n are the radius-n table."""
    check_table_size(n)
    if p < 0:
        raise ValueError("radius must be non-negative")
    p = min(p, n)
    need = ball_table_bytes(n, p)
    if need > MAX_BALL_BYTES:
        raise InfeasibleError(
            f"ball tables for radii 0..{p} at n={n} need about {need >> 20} MiB, "
            f"over the {MAX_BALL_BYTES >> 20} MiB cap"
        )


@lru_cache(maxsize=None)
def balls(n: int, p: int) -> tuple[int, ...]:
    """balls(n, p)[r] = family bitset of all y with |x xor y| <= p, where x
    is the subset of rank r.

    A radius p < n/2 is one ball_step from the cached radius p - 1 over the
    hypercube moves (flip_ranks) of the first n - p + 1 coordinates only:
    n - p + 1 big-int ORs per vertex.  A y at distance exactly p from x
    differs from it in p coordinates, so it agrees with x on at most n - p
    of any n - p + 1 fixed coordinates; flipping x at one where they differ
    gives a neighbour within p - 1 of y, whose (p - 1)-ball holds y.  Every
    y nearer than p is in the (p - 1)-ball of x itself, and every
    neighbour's (p - 1)-ball lies in the p-ball, so the trimmed OR is the
    whole p-ball (at p = 1 it takes all n coordinates).  A radius
    p >= n/2 is the complement of the (n - 1 - p)-ball around the complement
    subset, at the mirrored rank: one XOR per vertex, and no radius between
    is built.  Radius n repeats one universe, and radii above n are the
    radius-n table.  check_ball_tables refuses a request over
    MAX_BALL_BYTES before anything is allocated.
    """
    check_ball_tables(n, p)
    if p > n:
        return balls(n, n)
    if p == 0:
        return tuple(1 << r for r in range(1 << n))
    universe = universe_bits(n)
    if p == n:
        return (universe,) * (1 << n)
    if 2 * p >= n:
        return tuple(universe ^ b for b in reversed(balls(n, n - 1 - p)))
    flips = flip_ranks(n)
    keep = n - p + 1
    return ball_step(balls(n, p - 1), (flips[i : i + keep] for i in range(0, len(flips), n)))


def closed_bits(family: int, n: int, p: int) -> int:
    """Family bitset of the common closed p-neighborhood of `family`.

    Empty family yields the full universe (vacuous quantification).  The
    members are read a byte at a time (BYTE_BITS), and the walk stops after
    the first nonzero byte that leaves the intersection empty.  Peeling the
    lowest member instead costs three full-width big-int operations each;
    that is cheaper only on ints of a few words, which is why iter_bits,
    split_bits and join_bits still peel.
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


def stack_balls(n: int, blocks: int):
    """Yield stack[r] for r = 0..2^n-1: the balls around the subset of rank r
    at radii 0..blocks-1 as one radius stack, balls(n, p)[r] in bits
    [p*2^n, (p+1)*2^n), and the universe at radii p >= n, as closed_bits
    has it.  The AND of the stacks of a family's members holds
    closed_bits(family, n, p) in block p.  The section sweep lists the
    subground's stacks for the sides of its identity.

    Built from balls when read and not cached, so a stack always agrees
    with the ball tables as they are when it is read.
    """
    width = 1 << n
    read = min(blocks, n)
    top = (1 << (blocks - read) * width) - 1
    tables = [balls(n, p) for p in reversed(range(read))]
    for r in range(width):
        acc = top
        for table in tables:
            acc = acc << width | table[r]
        yield acc


def closed_bits_all(n: int, p: int) -> list[int]:
    """[closed_bits(fam, n, p) for fam in range(2^(2^n))]: the closed
    neighborhood of every family bitset, by the subset DP
    C^p[A] = C^p[A - {a}] & Ball_p(a) with a the highest-ranked member of A.

    The list has 2^(2^n) entries (65 536 at n = 4, 2^32 at n = 5), so
    callers cap n first.  The sweeps read the subset lanes instead
    (closed_size_lane, pairwise_lane); the DP is their reference.
    """
    out = [universe_bits(n)]
    for ball in balls(n, p):
        # the families whose top member has this rank follow those below it;
        # islice stops at the current end, so the list is extended without a copy
        out += map(ball.__and__, islice(out, len(out)))
    return out


def check_lane_size(n: int) -> None:
    """Refuse a lane at ground size n over MAX_LANE_N, before anything is
    allocated (a negative ground is a ValueError, check_table_size)."""
    check_table_size(n)
    if n > MAX_LANE_N:
        raise InfeasibleError(
            f"a family lane at n={n} would hold 2^{1 << n} bytes; lanes are "
            f"capped at n <= {MAX_LANE_N}"
        )


def count_lane(n: int, selector: int, step_in: int, step_out: int) -> bytes:
    """The lane of a count over all families: byte f is the sum, over the
    members r of the family bitset f, of step_in if bit r of selector is
    set and step_out if not, modulo 256.

    Built by doubling over the ranks: the families whose top member is r
    follow those below it, so each rank appends one translated copy of the
    lane so far.  A lane has 2^(2^n) bytes, so n is capped at MAX_LANE_N
    before anything is allocated.
    """
    check_lane_size(n)
    add_in = bytes(range(step_in, 256)) + bytes(range(step_in))
    add_out = bytes(range(step_out, 256)) + bytes(range(step_out))
    lane = b"\0"
    for r in range(1 << n):
        lane += lane.translate(add_in if selector >> r & 1 else add_out)
    return lane


@lru_cache(maxsize=None)
def popcount_lane(n: int) -> bytes:
    """count_lane(n, 0, 0, 1), byte f being the number of members of f,
    built once per n: it reads no ball table, so a cached lane cannot hide
    a fault in one."""
    return count_lane(n, 0, 0, 1)


def subset_lane(members: int, ranks: int) -> bytes:
    """The lane over the families of ranks 0..ranks-1 whose byte f is 1 when
    f is a subset of the bitset `members` and 0 when not, by doubling: the
    families with top member r are those below it, kept if r is in
    `members` and zeroed if not."""
    lane = b"\1"
    for r in range(ranks):
        lane += lane if members >> r & 1 else bytes(len(lane))
    return lane


def ball_columns(ball) -> list[int]:
    """The transpose of a ball table: column y is the bitset of the ranks a
    whose ball holds y.  On a symmetric table it is ball[y]."""
    cols = [0] * len(ball)
    for a, row in enumerate(ball):
        bit = 1 << a
        for y in member_ranks(row):
            cols[y] |= bit
    return cols


_POPCOUNT = bytes(v.bit_count() for v in range(256))


@lru_cache(maxsize=256)
def _and_table(mask: int) -> bytes:
    """The bytes.translate table of v -> v & mask."""
    return bytes(v & mask for v in range(256))


# Bound on the lanes closed_size_lane keeps: the true ball tables at n <= 4
# give 15 distinct lanes (radii 0..n at each n; a radius above n is the
# radius-n table), 64 KiB each at n = 4.
SIZE_LANE_MEMO = 16


def closed_size_lane(n: int, p: int) -> bytes:
    """The lane of |C^p[f]| over every family bitset f.

    y lies in C^p[f] exactly when f is a subset of column y of the ball
    table (ball_columns), so the lane is the sum over y of the subset lanes
    of the columns (_size_lane).  The lane cap is checked before any table
    is read; then balls(n, p) is read on every call and the lane is looked
    up by that table's content, so it agrees with closed_bits_all on any
    ball table, an asymmetric or a patched one included, and a sweep that
    reads the lane of one table again does not rebuild it.
    """
    check_lane_size(n)
    return _size_lane(n, tuple(balls(n, p)))


@lru_cache(maxsize=SIZE_LANE_MEMO)
def _size_lane(n: int, ball: tuple[int, ...]) -> bytes:
    """closed_size_lane for the ball table `ball` at ground size n, memoised
    by the table itself.

    Eight columns y = 8g..8g+7 share one lane, bit y - 8g of byte f standing
    for column y, and the lane doubles over the ranks as count_lane does:
    the families whose top member is r are those below it, each byte ANDed
    with the columns holding r, which are the bits of ball[r] in byte g.  A
    byte-wise popcount turns the bits into counts, and the groups' lanes
    add as big ints (a byte holds at most 2^n <= 16, so no byte carries).
    """
    universe = universe_bits(n)
    total = 0
    for shift in range(0, len(ball), 8):
        lane = bytes([universe >> shift & 0xFF])
        for row in ball:
            lane += lane.translate(_and_table(row >> shift & 0xFF))
        total += int.from_bytes(lane.translate(_POPCOUNT), "little")
    return total.to_bytes(len(lane), "little")


def pairwise_lane(n: int, p: int) -> bytes:
    """The lane whose byte f is 1 when every member of the family bitset f
    lies in every member's p-ball, and 0 when not.

    By doubling over the top member r: f + {r} qualifies when f does, r is
    in its own ball, and f is a subset of ball[r] and of column r
    (ball_columns), one lane_where per rank.  It reads balls(n, p) on every
    call and is not memoised: only the open sweep reads it, once per (n, p).
    """
    check_lane_size(n)
    ball = balls(n, p)
    lane = b"\1"
    for r, (row, col) in enumerate(zip(ball, ball_columns(ball))):
        if row >> r & 1:
            lane += lane_where(lane, subset_lane(row & col, r))
        else:
            lane += bytes(len(lane))
    return lane


def lane_where(lane: bytes, flags: bytes) -> bytes:
    """Byte f of the result is lane[f] where flags[f] is 1 and 0 where it is
    0, for a flags lane of 0s and 1s of the same length: one big-int AND."""
    keep = int.from_bytes(flags, "little") * 0xFF
    return (int.from_bytes(lane, "little") & keep).to_bytes(len(lane), "little")


@lru_cache(maxsize=16)
def _guard(length: int) -> int:
    """The int whose `length` little-endian bytes are all 0x80."""
    return int.from_bytes(b"\x80" * length, "little")


def lane_slack(high: bytes, low: bytes | int, flags: bytes | None = None) -> bytes:
    """Byte f of the result is 0x80 + high[f] - low[f], for two lanes of one
    length whose bytes are below 0x80: one big-int subtraction, where the
    guard bit 0x80 set in every byte of high absorbs that byte's borrow.
    low may also be given as int.from_bytes(low, "little"), so a caller
    that holds one lane against many converts it once.

    Given a 0/1 flags lane of the same length, both lanes are first masked
    by flags * 0xFF in the same pass, so a family flagged 0 reads 0x80
    (slack 0): lane_where on each side, with two conversions fewer."""
    length = len(high)
    high_int = int.from_bytes(high, "little")
    low_int = low if isinstance(low, int) else int.from_bytes(low, "little")
    if flags is not None:
        keep = int.from_bytes(flags, "little") * 0xFF
        high_int &= keep
        low_int &= keep
    return ((high_int | _guard(length)) - low_int).to_bytes(length, "little")


def lane_max_slack(slack: bytes, top: int) -> int:
    """max(max(slack) - 0x80, 0) for a lane_slack lane whose slacks are at
    most top: the bytes 0x80 + top, ..., 0x81 are searched for in turn, each
    with one C byte search (memchr), and the first one present gives the
    answer; 0 when none is (an empty lane included).  A top of 0x7F or more
    searches every positive slack."""
    for value in range(0x80 + min(top, 0x7F), 0x80, -1):
        if value in slack:
            return value - 0x80
    return 0


def lane_below(slack: bytes):
    """Yield the families f whose slack[f] fell below 0x80 (lane_slack), in
    family order."""
    return lane_find(slack.translate(b"\1" * 0x80 + b"\0" * 0x80), 1)


def lane_find(lane: bytes, value: int):
    """Yield the families f with lane[f] == value, in family order."""
    f = lane.find(value)
    while f >= 0:
        yield f
        f = lane.find(value, f + 1)


def segment_closures(n: int, p: int):
    """Yield C^p[I_m] for m = 0, 1, ...: the running intersection of the
    balls in rank order, starting from the universe.  The walk stops after
    the first empty closure, as every later one (up to m = 2^n) is empty."""
    ball_table = balls(n, p)  # refuses a ground over the cap before the universe is built
    cur = universe_bits(n)
    yield cur
    for ball in ball_table:
        if not cur:
            return
        cur &= ball
        yield cur


@lru_cache(maxsize=None)
def segment_size_tables(n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(closed, open) with closed[m] = |C^p[I_m]| and open[m] = |C^p(I_m)|
    for m = 0..2^n, from one segment walk: I_m is the low m bits, so the
    open neighborhood is what remains above them; both are 0 past the walk."""
    closed, opened = [], []
    for m, cur in enumerate(segment_closures(n, p)):
        closed.append(cur.bit_count())
        opened.append((cur >> m).bit_count())
    pad = [0] * ((1 << n) + 1 - len(closed))
    return tuple(closed + pad), tuple(opened + pad)


def initial_segment_closed_sizes(n: int, p: int) -> tuple[int, ...]:
    """sizes[m] = |C^p[I_m]| for every prefix length m (segment_size_tables)."""
    return segment_size_tables(n, p)[0]


def initial_segment_open_sizes(n: int, p: int) -> tuple[int, ...]:
    """sizes[m] = |C^p(I_m)| for every prefix length m (segment_size_tables)."""
    return segment_size_tables(n, p)[1]


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
    minus_prefix: tuple[int, ...]  # m -> family bitset of expanded I_m (bit j clear)
    plus_prefix: tuple[int, ...]   # m -> family bitset of expanded I_m + {j}

    def compress(self, family: int) -> int:
        """Compression at coordinate j: both sections of the family replaced
        by initial segments of the subground of the same sizes.

        It reads only |family & minus_selector| and |family|, and the lane
        sweeps rely on that: they compress one family per pair of section
        sizes, minus_prefix[a] | plus_prefix[b], and give its image to
        every family with those sizes."""
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

    minus_prefix = [0]
    plus_prefix = [0]
    for m_sub in sub_order:
        expanded = (m_sub & low_mask) | ((m_sub >> j) << (j + 1))
        minus_prefix.append(minus_prefix[-1] | 1 << rank_n[expanded])
        plus_prefix.append(plus_prefix[-1] | 1 << rank_n[expanded | bit])

    return SectionTables(
        n=n,
        j=j,
        minus_selector=minus_selector,
        compact_rank=tuple(compact_rank),
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
    """Inverse of split_bits: reassemble a family bitset over the full ground.

    Compaction keeps the size-then-lex order, so subground rank i of a side
    is the i-th rank over [n] of that side's selector (_side_ranks)."""
    out = 0
    for side, ranks in zip((minus, plus), _side_ranks(n, j)):
        for i in member_ranks(side):
            out |= 1 << ranks[i]
    return out


@lru_cache(maxsize=None)
def _side_ranks(n: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ranks over [n] avoiding j and those containing j, each in rank
    order."""
    selector = section_tables(n, j).minus_selector
    return tuple(member_ranks(selector)), tuple(member_ranks(universe_bits(n) ^ selector))


@lru_cache(maxsize=None)
def _join_radii_stages(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], int, int], ...]:
    """(stages, minus_keep, plus_keep) per coordinate j, for join_radii at
    ground size n, read from the section tables alone.

    Compaction keeps the size-then-lex order, so each side's ranks over
    [n], in rank order, compact to the subground ranks 0, 1, ...: the join
    at one radius deposits the avoiding side into the ranks of
    minus_selector and the containing side into the rest (join_bits).  So
    one parallel bit deposit (expand, Hacker's Delight 7-5) joins every
    radius and both sides, under a mask that spreads the 2(n+1) input
    blocks of 2^(n-1) bits over 2(n+1) output blocks of 2^n bits:
    minus_selector in each of the n + 1 low blocks, its complement in each
    of the n + 1 high ones.  stages lists its (shift, mv) for the shifts
    2^i, highest first, mv built by the prefix-XOR construction; the stages
    whose mv is empty are dropped.  minus_keep and plus_keep are the mask's
    low and high sides at radii 1..n, moved down to bit 0.  At n = 12 the
    12 coordinates hold 16 stages each, about 2.8 MB with the keep masks.
    """
    full = 1 << n
    width = 2 * (n + 1) * full
    blocks = sum(1 << p * full for p in range(n + 1))  # bit 0 of each block
    shifts = [1 << i for i in range((width - 1).bit_length())]
    out = []
    for j in range(n):
        minus = section_tables(n, j).minus_selector
        plus = universe_bits(n) ^ minus
        m = minus * blocks | plus * blocks << (n + 1) * full
        zeros = ~m << 1 & (1 << width) - 1  # the zeros of m, one place up
        stages = []
        for s in shifts:
            moves = zeros  # prefix XOR: bit t is the parity of the zeros below t
            for k in shifts:
                moves ^= moves << k
            mv = moves & m
            stages.append((s, mv))
            m = m ^ mv | mv >> s
            zeros &= ~moves
        stages = tuple(stage for stage in reversed(stages) if stage[1])
        out.append((stages, minus * (blocks >> full), plus * (blocks >> full)))
    return tuple(out)


def join_radii(stack: int, n: int, j: int) -> int:
    """join_bits at every radius p = 1..n in one parallel bit deposit.

    `stack` holds two radius stacks over the (n-1)-bit subground, radii
    0..n in blocks of 2^(n-1) bits: the sides avoiding j in its low
    (n+1)*2^(n-1) bits and the sides containing j (j dropped) above them.
    The result is a radius stack over the full ground with
    join_bits(avoiding side p, containing side p, n, j) in bits
    [(p-1)*2^n, p*2^n); the radius-0 blocks are dropped.  The deposit
    stages are _join_radii_stages(n)[j].

    The stages and the final masks only move and select bits, so
    join_radii(x & y) == join_radii(x) & join_radii(y), which lets the
    section sweep decide the identity rank by rank (neighborhoods)."""
    stages, minus_keep, plus_keep = _join_radii_stages(n)[j]
    for s, mv in stages:
        stack ^= (stack ^ stack << s) & mv
    return stack >> (1 << n) & minus_keep | stack >> (n + 2 << n) & plus_keep


def compress_bits(family: int, n: int, j: int) -> int:
    """One coordinate compression: replace both sections by equal-size
    initial segments of the subground."""
    return section_tables(n, j).compress(family)

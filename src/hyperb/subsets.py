"""Ground sets, bitmask subsets, the size-then-lex subset order, and families.

Subsets of a ground set are single machine-word bitmasks: bit j stands for
the j-th smallest ground label.  The order used everywhere ("simplicial"):
x precedes y iff |x| < |y|, or the sizes match and the smallest label of
x xor y belongs to x.  Within one size level this is ascending lexicographic
order on the sorted element lists.

Ranks are 0-indexed, so "the first m subsets" are the ranks 0..m-1.

Single subsets and rank/unrank work on grounds of up to 62 labels.  A
family is its rank bitset (bit r set iff the subset of rank r is a member),
the form the `_tables` kernel computes on, so callers pass `.bits` straight
to the kernel and wrap its results without converting.  Families share the
tables' cap: a family on a ground of more than `_tables.MAX_TABLE_BITS`
labels is refused with InfeasibleError before any table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from . import _tables

MAX_GROUND_SIZE = 62  # single-word masks; the desk-scale tooling never needs more


@dataclass(frozen=True)
class GroundSet:
    """An ordered ground set of distinct positive integer labels."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > MAX_GROUND_SIZE:
            raise ValueError(f"ground set larger than {MAX_GROUND_SIZE} labels")
        prev = 0
        for lab in labels:
            if not isinstance(lab, int) or lab <= prev:
                raise ValueError("labels must be strictly increasing positive integers")
            prev = lab

    @staticmethod
    def range(n: int) -> "GroundSet":
        """The ground set {1, ..., n}."""
        if n < 0:
            raise ValueError(f"ground size must be non-negative, got {n}")
        return GroundSet(tuple(range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def position(self, label: int) -> int:
        """Bit position of a label; raises if the label is absent."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label} not in ground set {self.labels}") from None

    def without(self, label: int) -> "GroundSet":
        """The ground set with one label removed (for section arguments)."""
        pos = self.position(label)
        return GroundSet(self.labels[:pos] + self.labels[pos + 1 :])

    def subset(self, labels: Iterable[int] = ()) -> "SubsetMask":
        """Build a subset from labels of this ground set."""
        bits = 0
        for lab in labels:
            pos = self.position(lab)
            if bits >> pos & 1:
                raise ValueError(f"duplicate label {lab}")
            bits |= 1 << pos
        return SubsetMask(bits, self)

    def full_subset(self) -> "SubsetMask":
        return SubsetMask((1 << self.size) - 1, self)


@dataclass(frozen=True)
class SubsetMask:
    """A subset of a ground set, stored as a bitmask."""

    bits: int
    ground: GroundSet

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.ground.size:
            raise ValueError("mask has bits outside the ground set")

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def labels(self) -> tuple[int, ...]:
        g = self.ground.labels
        return tuple(g[j] for j in range(self.ground.size) if self.bits >> j & 1)

    def __contains__(self, label: int) -> bool:
        return bool(self.bits >> self.ground.position(label) & 1)

    def __str__(self) -> str:
        return format_subset(self)


@dataclass(frozen=True)
class SimplicialRank:
    """0-indexed position of a subset in the subset order of a power set."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rank must be non-negative")


def _require_same_ground(x: SubsetMask, y: SubsetMask) -> None:
    if x.ground.labels != y.ground.labels:
        raise ValueError("subsets live on different ground sets")


def simplicial_cmp(x: SubsetMask, y: SubsetMask) -> int:
    """-1, 0 or +1: order first by size, ties by who owns the smallest
    label of the symmetric difference."""
    _require_same_ground(x, y)
    return _cmp_masks(x.bits, y.bits)


def _cmp_masks(xb: int, yb: int) -> int:
    if xb == yb:
        return 0
    cx, cy = xb.bit_count(), yb.bit_count()
    if cx != cy:
        return -1 if cx < cy else 1
    low = (xb ^ yb) & -(xb ^ yb)
    return -1 if xb & low else 1


def mask_rank(bits: int, n: int) -> int:
    """Rank of an n-bit mask: binomial prefix plus in-level lex rank."""
    k = bits.bit_count()
    r = sum(comb(n, i) for i in range(k))
    if k == 0:
        return r
    # lex rank of the k-subset via the reflected colex formula
    positions = [j for j in range(n) if bits >> j & 1]
    colex = sum(comb(n - 1 - c, i + 1) for i, c in enumerate(reversed(positions)))
    return r + comb(n, k) - 1 - colex


def mask_unrank(value: int, n: int) -> int:
    """Inverse of mask_rank."""
    if not 0 <= value < (1 << n):
        raise ValueError(f"rank {value} out of range for ground size {n}")
    k = 0
    while value >= comb(n, k):
        value -= comb(n, k)
        k += 1
    # greedy lex unrank of a k-subset of {0,...,n-1}
    bits = 0
    c = 0
    for i in range(k):
        while comb(n - 1 - c, k - 1 - i) <= value:
            value -= comb(n - 1 - c, k - 1 - i)
            c += 1
        bits |= 1 << c
        c += 1
    return bits


def rank(x: SubsetMask) -> SimplicialRank:
    """Position of x in the subset order of its power set."""
    return SimplicialRank(mask_rank(x.bits, x.ground.size))


def unrank(r: SimplicialRank | int, g: GroundSet) -> SubsetMask:
    """Subset at a given rank; inverse of rank."""
    value = r.value if isinstance(r, SimplicialRank) else r
    return SubsetMask(mask_unrank(value, g.size), g)


@dataclass(frozen=True)
class Family:
    """A set of subsets of one ground set, held as its rank bitset: bit r
    of `bits` is set iff the subset of rank r is a member.  Members iterate
    in the subset order.  `from_masks` / `from_labels` reject duplicates.
    Grounds above the table capacity raise InfeasibleError.
    """

    bits: int
    ground: GroundSet

    def __post_init__(self):
        if not isinstance(self.bits, int):
            raise TypeError("Family takes a rank bitset; build from masks with Family.from_masks")
        _tables.check_table_size(self.ground.size)
        if self.bits < 0 or self.bits >> (1 << self.ground.size):
            raise ValueError("family bitset has bits outside the universe")

    @staticmethod
    def from_masks(ground: GroundSet, masks: Iterable[int]) -> "Family":
        rank_of = _tables.rank_of_mask(ground.size)
        bits = 0
        for m in masks:
            if m < 0 or m >> ground.size:
                raise ValueError("mask has bits outside the ground set")
            bit = 1 << rank_of[m]
            if bits & bit:
                raise ValueError(f"duplicate member {format_subset(SubsetMask(m, ground))}")
            bits |= bit
        return Family(bits, ground)

    @staticmethod
    def from_labels(ground: GroundSet, sets: Iterable[Iterable[int]]) -> "Family":
        return Family.from_masks(ground, (ground.subset(s).bits for s in sets))

    @property
    def members(self) -> tuple[SubsetMask, ...]:
        return tuple(self)

    def bit_masks(self) -> tuple[int, ...]:
        order = _tables.masks_in_order(self.ground.size)
        return tuple(order[r] for r in _tables.iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[SubsetMask]:
        return (SubsetMask(m, self.ground) for m in self.bit_masks())

    def __contains__(self, x: SubsetMask) -> bool:
        if x.ground != self.ground:
            return False
        return bool(self.bits >> _tables.rank_of_mask(self.ground.size)[x.bits] & 1)

    def __str__(self) -> str:
        return "[" + ",".join(format_subset(m) for m in self) + "]"


def family_cmp(a: Family, b: Family) -> int:
    """Order on families: smaller cardinality first, ties broken by which
    family owns the order-first member of the symmetric difference."""
    if a.ground.labels != b.ground.labels:
        raise ValueError("families live on different ground sets")
    # on rank bitsets the subset order's own comparison is this order: the
    # popcount is the cardinality and the lowest differing bit is the
    # order-first member of the symmetric difference
    return _cmp_masks(a.bits, b.bits)


def initial_segment(m: int, g: GroundSet) -> Family:
    """The first m subsets of the power set of g."""
    if not 0 <= m <= (1 << g.size):
        raise ValueError(f"segment length {m} out of range for ground size {g.size}")
    _tables.check_table_size(g.size)  # before the bitset is built
    return Family(_tables.prefix_bits(m), g)


def level_set(i: int, g: GroundSet) -> Family:
    """All subsets of size exactly i, in order."""
    if not 0 <= i <= g.size:
        raise ValueError(f"level {i} out of range for ground size {g.size}")
    _tables.check_table_size(g.size)  # before the bitset is built
    start = sum(comb(g.size, k) for k in range(i))
    return Family(_tables.prefix_bits(comb(g.size, i)) << start, g)


def format_subset(x: SubsetMask) -> str:
    """Textual form: sorted comma-separated labels in braces, e.g. "{1,3,4}"."""
    return "{" + ",".join(str(lab) for lab in x.labels()) + "}"


def parse_subset(text: str, g: GroundSet) -> SubsetMask:
    """Parse the textual subset notation back into a mask."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"subset notation must be brace-delimited: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return g.subset()
    try:
        labels = [int(part.strip()) for part in body.split(",")]
    except ValueError:
        raise ValueError(f"subset notation has non-integer labels: {text!r}") from None
    return g.subset(labels)


def family_to_bits(fam: Family) -> int:
    """The rank bitset of a family over its 2^n universe."""
    return fam.bits


def family_from_bits(bits: int, g: GroundSet) -> Family:
    """Inverse of family_to_bits."""
    return Family(bits, g)

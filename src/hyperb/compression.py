"""Coordinate sections, one-coordinate compression, and fixpoint structure.

Compressing a family at coordinate i replaces both of its i-sections by
initial segments of the same sizes, which never moves the family later in
the family order.  Iterating over coordinates therefore terminates, and a
family that is compressed at every coordinate is either an initial segment
or one of two exceptional forms of size 2^(n-1) (one per parity of n).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from . import _tables
from .errors import IntegrityError
from .neighborhoods import (
    VerifyReport,
    family_bits_to_strings,
    sweep_families,
)
from .subsets import (
    Family,
    GroundSet,
    SubsetMask,
    initial_segment,
)

KIND_INITIAL_SEGMENT = "initial_segment"
KIND_EXCEPTIONAL_ODD = "exceptional_odd"
KIND_EXCEPTIONAL_EVEN = "exceptional_even"
KIND_NOT_FIXPOINT = "not_fixpoint"


@dataclass(frozen=True)
class SectionPair:
    """The two sections of a family at one removed label."""

    minus: Family  # members avoiding the label, on the reduced ground set
    plus: Family   # members containing it, with the label dropped
    i: int


@dataclass(frozen=True)
class FixpointClass:
    """Classification of a family under all-coordinate compression."""

    kind: str
    witness: SubsetMask | None = None  # removed set, for the exceptional forms


def sections(a: Family, i: int) -> SectionPair:
    """Split a family at label i into its avoiding / containing sections."""
    sub = a.ground.without(i)
    minus, plus = _tables.split_bits(a.bits, a.ground.size, a.ground.position(i))
    return SectionPair(Family(minus, sub), Family(plus, sub), i)


def compress(a: Family, i: int) -> Family:
    """Replace both i-sections by initial segments of the same size.

    Works member by member on the masks, counting the sections itself
    rather than through the kernel; the tests hold the kernel's
    SectionTables.compress to this.
    """
    pos = a.ground.position(i)
    sub = a.ground.without(i)
    bit = 1 << pos
    low = bit - 1
    masks = a.bit_masks()
    n_plus = sum(1 for m in masks if m & bit)
    members = []
    for size, extra in ((len(masks) - n_plus, 0), (n_plus, bit)):
        for m in initial_segment(size, sub).bit_masks():
            members.append((m & low) | ((m >> pos) << (pos + 1)) | extra)
    return Family.from_masks(a.ground, members)


def is_compressed(a: Family, i: int) -> bool:
    """True iff compressing at label i leaves the family unchanged."""
    pos = a.ground.position(i)
    return _tables.compress_bits(a.bits, a.ground.size, pos) == a.bits


def compress_fully(a: Family) -> tuple[Family, int]:
    """Apply changing compressions, scanning labels cyclically, until the
    family is compressed at every label.  Returns (fixpoint, steps applied).

    Each applied compression moves the family strictly earlier in the family
    order, so the scan terminates.
    """
    fixed, steps = compress_fully_bits(a.bits, a.ground.size)
    return Family(fixed, a.ground), steps


def compress_fully_bits(fam: int, n: int, start: int = 0) -> tuple[int, int]:
    """compress_fully on a family bitset: (fixpoint, steps applied), the
    cyclic scan starting at coordinate `start`.

    The scan's whole state is (family, next coordinate, number of
    coordinates since the last change), and a change resets the count.  So
    after the first change, at coordinate j, the rest of the scan is
    compress_fully_bits(image, n, (j + 1) % n), which fixpoint_scans shares
    between the families with that image: at most n * (2^(n-1) + 1)^2
    (image, start) pairs exist, and 108 are reached at n = 4.  The start
    stays part of the state: restarting at 0 reaches the same fixpoint, but
    not always in the same number of steps.
    """
    compressors = [_tables.section_tables(n, j).compress for j in range(n)]
    steps = 0
    clean = 0
    j = start
    while clean < n:
        nxt = compressors[j](fam)
        if nxt == fam:
            clean += 1
        else:
            fam = nxt
            steps += 1
            clean = 0
        j = (j + 1) % n
    return fam, steps


def fixpoint_scans(
    families: Iterable[int], n: int, rests: dict[tuple[int, int], tuple[int, int]]
) -> Iterator[tuple[int, int, int]]:
    """Yield (family, fixpoint, steps) for each family, equal to
    (family, *compress_fully_bits(family, n)).

    Only each family's first step is taken here: the compressions from
    coordinate 0 up to the first that changes the family (none changes a
    fixpoint, which takes 0 steps).  The rest of the scan is read from
    `rests`, keyed by (image, next coordinate), or computed by
    compress_fully_bits and stored there.  A compressed family is
    minus_prefix[a] | plus_prefix[b] of one coordinate's section tables,
    so `rests` holds at most n * (2^(n-1) + 1)^2 keys.
    """
    compressors = [_tables.section_tables(n, j).compress for j in range(n)]
    for fam in families:
        for j, compress_j in enumerate(compressors):
            image = compress_j(fam)
            if image != fam:
                yield fam, *_scan_rest(image, n, (j + 1) % n, rests)
                break
        else:
            yield fam, fam, 0


def _scan_rest(image: int, n: int, start: int, rests) -> tuple[int, int]:
    """(fixpoint, steps) of a scan whose first step left `image`, the next
    coordinate being `start`: read from `rests` or computed and stored."""
    rest = rests.get((image, start))
    if rest is None:
        fixed, steps = compress_fully_bits(image, n, start)
        rest = rests[image, start] = fixed, steps + 1
    return rest


def _section_keys(n: int, j: int) -> tuple[bytes, list[tuple[int, int, int]]]:
    """(lane, keyed) for coordinate j: byte f of the lane is the key
    (2^(n-1) + 1) * a + b of the family f, whose sections avoiding and
    containing j have a and b members, and keyed lists (key, a + b, image)
    for every (a, b), image being the compression of minus_prefix[a] |
    plus_prefix[b] at j: the image of every family with that key."""
    t = _tables.section_tables(n, j)
    stride = (1 << (n - 1)) + 1
    keyed = [
        (stride * a + b, a + b, t.compress(t.minus_prefix[a] | t.plus_prefix[b]))
        for a in range(stride)
        for b in range(stride)
    ]
    return _tables.count_lane(n, t.minus_selector, stride, 1), keyed


def fixpoint_groups(
    n: int, rests: dict[tuple[int, int], tuple[int, int]]
) -> Iterator[tuple[int, int, Iterator[int], int, int]]:
    """Yield (count, size, families, fixpoint, steps): `count` families of
    `size` members each, listed lazily in family order by the iterator
    `families`, whose scans all equal (fixpoint, steps).  Between them the
    groups hold every family of 2^[n] once, and fixpoint_scans would give
    each the same scan.

    Compression at coordinate 0 gives one image to all the families with
    the same section sizes, which share a key of the coordinate-0 lane
    (_section_keys).  Every family of a group but the image itself changes
    at coordinate 0, so their scans are one: the first image, then the
    rest from `rests`.  The images that coordinate 0 leaves unchanged, at
    most (2^(n-1) + 1)^2, go through fixpoint_scans one at a time, as does
    every family at n = 0, which has no coordinate.
    """
    unchanged = [] if n else [0, 1]
    if n:
        lane, keyed = _section_keys(n, 0)
        for key, size, image in keyed:
            count = lane.count(key)
            if lane[image] == key:  # the image is in its own group, and stays
                unchanged.append(image)
                count -= 1
            if count:
                families = filter(image.__ne__, _tables.lane_find(lane, key))
                yield count, size, families, *_scan_rest(image, n, 1 % n, rests)
    for fam, fixed, steps in fixpoint_scans(sorted(unchanged), n, rests):
        yield 1, fam.bit_count(), iter((fam,)), fixed, steps


def exceptional_params(n: int) -> tuple[int, int]:
    """(segment length, removed mask) of the exceptional fixpoint form.

    Odd n: remove {(n+3)/2, ..., n} from the segment of length
    sum_{i<=(n-1)/2} C(n,i) + 1.  Even n: remove {1, n/2+2, ..., n} from the
    segment of length sum_{i<=n/2-1} C(n,i) + C(n-1, n/2-1) + 1.  Both sums
    are 2^(n-1), as C(n,i) = C(n,n-i); (n+3)/2 = n//2 + 2 for odd n.
    """
    removed = 0 if n % 2 else 1  # label 1, removed for even n only
    for lab in range(n // 2 + 2, n + 1):
        removed |= 1 << (lab - 1)
    return (1 << (n - 1)) + 1, removed


def exceptional_family(g: GroundSet) -> Family:
    """The exceptional all-coordinate fixpoint for this ground size."""
    return Family(exceptional_bits(g.size), g)


def exceptional_bits(n: int) -> int:
    ell, removed = exceptional_params(n)
    removed_rank = _tables.rank_of_mask(n)[removed]  # refuses n over the cap first
    return _tables.prefix_bits(ell) & ~(1 << removed_rank)


def classify_fixpoint_bits(fam: int, n: int) -> tuple[str, int | None]:
    for j in range(n):
        if _tables.compress_bits(fam, n, j) != fam:
            return KIND_NOT_FIXPOINT, None
    if _tables.is_prefix_bits(fam):
        return KIND_INITIAL_SEGMENT, None
    if fam == exceptional_bits(n):
        _, removed = exceptional_params(n)
        kind = KIND_EXCEPTIONAL_ODD if n % 2 == 1 else KIND_EXCEPTIONAL_EVEN
        return kind, removed
    raise IntegrityError(
        f"family compressed at every coordinate matches no known fixpoint form "
        f"(n={n}, family={family_bits_to_strings(fam, n)})"
    )


def classify_fixpoint(a: Family) -> FixpointClass:
    """Classify a family as a compression fixpoint.

    Raises IntegrityError if the family is compressed at every label yet is
    neither an initial segment nor the parity-matching exceptional form.
    """
    kind, removed = classify_fixpoint_bits(a.bits, a.ground.size)
    witness = SubsetMask(removed, a.ground) if removed is not None else None
    return FixpointClass(kind, witness)


def verify_fixpoint_classification(n: int) -> VerifyReport:
    """Exhaustively compress every family of 2^[n] and classify the fixpoint.

    A fixpoint outside the known forms is reported as a violation (it would
    contradict the classification this toolkit relies on), once for every
    family that reaches it, in family order.  Few distinct fixpoints are
    reached (18 from the 65 536 families at n = 4), so each is classified
    once per sweep; an unclassifiable one is never remembered and is tried
    again.

    The scans come from fixpoint_groups with a cache owned by this sweep:
    one scan per group of families with the same first image at coordinate
    0, and one per family that coordinate 0 leaves unchanged, at most
    2 * (2^(n-1) + 1)^2 in all.  A group's families are listed only when
    its scan is a violation.
    """
    _, count = sweep_families(n, "exhaustive", None, None)
    report = VerifyReport(
        check="fixpoint", n=n, p=None, mode="exhaustive", families_checked=count
    )
    counts = {
        KIND_INITIAL_SEGMENT: 0,
        KIND_EXCEPTIONAL_ODD: 0,
        KIND_EXCEPTIONAL_EVEN: 0,
    }
    max_steps = 0
    kind_of: dict[int, str] = {}
    failed = []  # (family, violation fields after "family")
    for weight, size, families, fixed, steps in fixpoint_groups(n, {}):
        if fixed.bit_count() != size:
            error = {"error": "size changed"}
        else:
            kind = kind_of.get(fixed)
            if kind is None:
                try:
                    kind = kind_of[fixed] = classify_fixpoint_bits(fixed, n)[0]
                except IntegrityError:
                    pass
            if kind in counts:
                counts[kind] += weight
                max_steps = max(max_steps, steps)
                continue
            error = {
                "fixpoint": family_bits_to_strings(fixed, n),
                "error": "unclassifiable fixpoint"
                if kind is None
                else "scan terminated on a non-fixpoint",
            }
        failed += [(fam, error) for fam in families]
    failed.sort(key=itemgetter(0))
    report.violations = [
        {"family": family_bits_to_strings(fam, n), **error} for fam, error in failed
    ]
    report.details = {"kinds": counts, "max_steps": max_steps}
    return report


def verify_compression_inequality(
    n: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> VerifyReport:
    """Check |C^p[A]| <= |C^p[S_i(A)]| for every coordinate i and every
    radius p in [1, n-1].

    A compressed family is fixed by (i, |A_i-|, |A_i+|), so few distinct
    ones occur; sampled runs cache their neighborhood size by (compressed
    family, p) and pay mostly for the direct side of each family.  Needs
    n >= 2, so that 1..n-1 holds a radius.
    """
    if n < 2:
        raise ValueError(f"compression sweep needs n >= 2 for a radius in 1..n-1, got {n}")
    families, count = sweep_families(n, mode, samples, seed)
    report = VerifyReport(
        check="compression", n=n, p=None, mode=mode, families_checked=count, seed=seed
    )
    if mode == "exhaustive":
        _compression_lanes(report, n)
        return report
    compressors = [_tables.section_tables(n, j).compress for j in range(n)]
    compressed_size_cache: dict[tuple[int, int], int] = {}
    for fam in families:
        compressed = [compress_j(fam) for compress_j in compressors]
        for p in range(1, n):
            direct = _tables.closed_bits(fam, n, p).bit_count()
            if direct == 0:
                continue  # 0 <= anything
            for j, comp in enumerate(compressed):
                comp_size = compressed_size_cache.get((comp, p))
                if comp_size is None:
                    comp_size = _tables.closed_bits(comp, n, p).bit_count()
                    compressed_size_cache[comp, p] = comp_size
                if direct > comp_size:
                    report.violations.append(
                        {
                            "family": family_bits_to_strings(fam, n),
                            "i": j + 1,
                            "p": p,
                            "size": direct,
                            "compressed_size": comp_size,
                        }
                    )
    return report


def _compression_lanes(report: VerifyReport, n: int) -> None:
    """The exhaustive compression sweep on byte lanes: per radius p, the
    lane of every family's |C^p[A]| (_tables.closed_size_lane); per
    coordinate j, the key lane of _section_keys translated through the
    table of the compressed sizes, one compression per key; and one
    lane_slack per (j, p), against the size lane of p converted to an int
    once.  The (family, j, p) hits are sorted into family order."""
    sizes = [_tables.closed_size_lane(n, p) for p in range(1, n)]
    size_ints = [int.from_bytes(size, "little") for size in sizes]
    hits = []
    for j in range(n):
        lane, keyed = _section_keys(n, j)
        for p, (size, size_int) in enumerate(zip(sizes, size_ints), 1):
            table = bytearray(256)
            for key, _, image in keyed:
                table[key] = size[image]
            compressed = lane.translate(table)
            slack = _tables.lane_slack(compressed, size_int)
            hits += [(fam, j, p, size[fam], compressed[fam]) for fam in _tables.lane_below(slack)]
    hits.sort()
    report.violations = [
        {
            "family": family_bits_to_strings(fam, n),
            "i": j + 1,
            "p": p,
            "size": direct,
            "compressed_size": comp,
        }
        for fam, j, p, direct, comp in hits
    ]

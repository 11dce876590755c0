"""Coordinate sections, one-coordinate compression, and fixpoint structure.

Compressing a family at coordinate i replaces both of its i-sections by
initial segments of the same sizes, which never moves the family later in
the family order.  Iterating over coordinates therefore terminates, and a
family that is compressed at every coordinate is either an initial segment
or one of two exceptional forms of size 2^(n-1) (one per parity of n).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def compress_fully_bits(fam: int, n: int) -> tuple[int, int]:
    """compress_fully on a family bitset: (fixpoint, steps applied)."""
    compressors = [_tables.section_tables(n, j).compress for j in range(n)]
    steps = 0
    clean = 0
    j = 0
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
    family that reaches it.  Few distinct fixpoints are reached (18 from
    the 65 536 families at n = 4), so each is classified once per sweep;
    an unclassifiable one is never remembered and is tried again.
    """
    families, count = sweep_families(n, "exhaustive", None, None)
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
    for fam in families:
        fixed, steps = compress_fully_bits(fam, n)
        if fixed.bit_count() != fam.bit_count():
            report.violations.append(
                {"family": family_bits_to_strings(fam, n), "error": "size changed"}
            )
            continue
        kind = kind_of.get(fixed)
        if kind is None:
            try:
                kind, _ = classify_fixpoint_bits(fixed, n)
            except IntegrityError:
                report.violations.append(
                    {
                        "family": family_bits_to_strings(fam, n),
                        "fixpoint": family_bits_to_strings(fixed, n),
                        "error": "unclassifiable fixpoint",
                    }
                )
                continue
            kind_of[fixed] = kind
        if kind == KIND_NOT_FIXPOINT:
            report.violations.append(
                {
                    "family": family_bits_to_strings(fam, n),
                    "fixpoint": family_bits_to_strings(fixed, n),
                    "error": "scan terminated on a non-fixpoint",
                }
            )
            continue
        counts[kind] += 1
        if steps > max_steps:
            max_steps = steps
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
    compressors = [_tables.section_tables(n, j).compress for j in range(n)]
    if mode == "exhaustive":
        by_radius = [
            (p, [val.bit_count() for val in _tables.closed_bits_all(n, p)])
            for p in range(1, n)
        ]
        for fam in families:
            for j, compress_j in enumerate(compressors):
                comp = compress_j(fam)
                for p, sz in by_radius:
                    if sz[fam] > sz[comp]:
                        report.violations.append(
                            {
                                "family": family_bits_to_strings(fam, n),
                                "i": j + 1,
                                "p": p,
                                "size": sz[fam],
                                "compressed_size": sz[comp],
                            }
                        )
        return report
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

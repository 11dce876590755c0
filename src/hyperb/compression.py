"""Coordinate sections, one-coordinate compression, and fixpoint structure.

Compressing a family at coordinate i replaces both of its i-sections by
initial segments of the same sizes, which never moves the family later in
the family order.  Iterating over coordinates therefore terminates, and a
family that is compressed at every coordinate is either an initial segment
or one of two exceptional forms of size 2^(n-1) (one per parity of n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from . import _tables
from .errors import IntegrityError
from .neighborhoods import (
    VerifyReport,
    check_sweep_request,
    family_bits_to_strings,
    sample_family_bits,
)
from .subsets import (
    Family,
    GroundSet,
    SubsetMask,
    family_from_bits,
    family_to_bits,
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
    pos = a.ground.position(i)
    sub = a.ground.without(i)
    bit = 1 << pos
    low = bit - 1
    minus, plus = [], []
    for m in a.members:
        compact = (m.bits & low) | ((m.bits >> (pos + 1)) << pos)
        (plus if m.bits & bit else minus).append(SubsetMask(compact, sub))
    return SectionPair(Family(tuple(minus), sub), Family(tuple(plus), sub), i)


def compress(a: Family, i: int) -> Family:
    """Replace both i-sections by initial segments of the same size."""
    pos = a.ground.position(i)
    sec = sections(a, i)
    sub = sec.minus.ground
    bit = 1 << pos
    low = bit - 1
    members = []
    for m in initial_segment(len(sec.minus), sub).members:
        expanded = (m.bits & low) | ((m.bits >> pos) << (pos + 1))
        members.append(SubsetMask(expanded, a.ground))
    for m in initial_segment(len(sec.plus), sub).members:
        expanded = (m.bits & low) | ((m.bits >> pos) << (pos + 1))
        members.append(SubsetMask(expanded | bit, a.ground))
    return Family(tuple(members), a.ground)


def is_compressed(a: Family, i: int) -> bool:
    """True iff compressing at label i leaves the family unchanged."""
    return compress(a, i).bit_masks() == a.bit_masks()


def compress_fully(a: Family) -> tuple[Family, int]:
    """Apply changing compressions, scanning labels cyclically, until the
    family is compressed at every label.  Returns (fixpoint, steps applied).

    Each applied compression moves the family strictly earlier in the family
    order, so the scan terminates.
    """
    n = a.ground.size
    if n == 0:
        return a, 0
    if n <= _tables.MAX_TABLE_BITS:
        fixed, steps = compress_fully_bits(family_to_bits(a), n)
        return family_from_bits(fixed, a.ground), steps
    # object-level path for grounds beyond the table capacity
    steps = 0
    clean = 0
    idx = 0
    labels = a.ground.labels
    while clean < n:
        nxt = compress(a, labels[idx])
        if nxt.bit_masks() == a.bit_masks():
            clean += 1
        else:
            a = nxt
            steps += 1
            clean = 0
        idx = (idx + 1) % n
    return a, steps


def compress_fully_bits(fam: int, n: int) -> tuple[int, int]:
    steps = 0
    clean = 0
    j = 0
    while clean < n:
        nxt = _tables.compress_bits(fam, n, j)
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
    segment of length sum_{i<=n/2-1} C(n,i) + C(n-1, n/2-1) + 1.
    """
    if n % 2 == 1:
        ell = sum(comb(n, i) for i in range((n - 1) // 2 + 1)) + 1
        removed = 0
        for lab in range((n + 3) // 2, n + 1):
            removed |= 1 << (lab - 1)
        return ell, removed
    ell = sum(comb(n, i) for i in range(n // 2)) + comb(n - 1, n // 2 - 1) + 1
    removed = 1  # label 1
    for lab in range(n // 2 + 2, n + 1):
        removed |= 1 << (lab - 1)
    return ell, removed


def exceptional_family(g: GroundSet) -> Family:
    """The exceptional all-coordinate fixpoint for this ground size."""
    ell, removed = exceptional_params(g.size)
    members = [m for m in initial_segment(ell, g).members if m.bits != removed]
    return Family(tuple(members), g)


def exceptional_bits(n: int) -> int:
    from .subsets import mask_rank

    ell, removed = exceptional_params(n)
    return _tables.prefix_bits(ell) & ~(1 << mask_rank(removed, n))


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
    from .subsets import mask_rank

    n = a.ground.size
    if n == 0:
        return FixpointClass(KIND_INITIAL_SEGMENT)
    if n <= _tables.MAX_TABLE_BITS:
        kind, removed = classify_fixpoint_bits(family_to_bits(a), n)
        witness = SubsetMask(removed, a.ground) if removed is not None else None
        return FixpointClass(kind, witness)
    # object-level path for grounds beyond the table capacity
    for i in a.ground.labels:
        if not is_compressed(a, i):
            return FixpointClass(KIND_NOT_FIXPOINT)
    if not a.members or mask_rank(a.members[-1].bits, n) == len(a) - 1:
        return FixpointClass(KIND_INITIAL_SEGMENT)
    if a.bit_masks() == exceptional_family(a.ground).bit_masks():
        _, removed = exceptional_params(n)
        kind = KIND_EXCEPTIONAL_ODD if n % 2 == 1 else KIND_EXCEPTIONAL_EVEN
        return FixpointClass(kind, SubsetMask(removed, a.ground))
    raise IntegrityError(
        f"family compressed at every coordinate matches no known fixpoint form "
        f"(ground size {n})"
    )


def verify_fixpoint_classification(n: int) -> VerifyReport:
    """Exhaustively compress every family of 2^[n] and classify the fixpoint.

    A fixpoint outside the known forms is reported as a violation (it would
    contradict the classification this toolkit relies on).
    """
    from .errors import InfeasibleError
    from .neighborhoods import MAX_EXHAUSTIVE_N

    if n > MAX_EXHAUSTIVE_N:
        raise InfeasibleError(f"fixpoint sweep is exhaustive only (n <= {MAX_EXHAUSTIVE_N})")
    report = VerifyReport(
        check="fixpoint", n=n, p=None, mode="exhaustive", families_checked=0
    )
    counts = {
        KIND_INITIAL_SEGMENT: 0,
        KIND_EXCEPTIONAL_ODD: 0,
        KIND_EXCEPTIONAL_EVEN: 0,
    }
    max_steps = 0
    for fam in range(1 << (1 << n)):
        fixed, steps = compress_fully_bits(fam, n)
        if fixed.bit_count() != fam.bit_count():
            report.violations.append(
                {"family": family_bits_to_strings(fam, n), "error": "size changed"}
            )
            continue
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
    report.families_checked = 1 << (1 << n)
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

    The compressed side depends only on (i, |A_i-|, |A_i+|, p), so sampled
    runs cache it and pay mostly for the direct side of each family.
    """
    check_sweep_request(n, mode, samples, seed)
    report = VerifyReport(
        check="compression", n=n, p=None, mode=mode, families_checked=0, seed=seed
    )
    if mode == "exhaustive":
        order = _tables.masks_in_order(n)
        total = 1 << (1 << n)
        sizes = {}
        for p in range(1, n):
            ball = _tables.balls(n, p)
            cp = [0] * total
            cp[0] = _tables.universe_bits(n)
            sz = [0] * total
            sz[0] = 1 << n
            for fam in range(1, total):
                low = fam & -fam
                val = cp[fam ^ low] & ball[order[low.bit_length() - 1]]
                cp[fam] = val
                sz[fam] = val.bit_count()
            sizes[p] = sz
        for fam in range(total):
            for j in range(n):
                comp = _tables.compress_bits(fam, n, j)
                for p in range(1, n):
                    if sizes[p][fam] > sizes[p][comp]:
                        report.violations.append(
                            {
                                "family": family_bits_to_strings(fam, n),
                                "i": j + 1,
                                "p": p,
                                "size": sizes[p][fam],
                                "compressed_size": sizes[p][comp],
                            }
                        )
        report.families_checked = total
        return report
    rng = random.Random(seed)
    tables = [_tables.section_tables(n, j) for j in range(n)]
    compressed_size_cache: dict[tuple[int, int, int, int], int] = {}
    for _ in range(samples):
        fam = sample_family_bits(n, rng)
        m = fam.bit_count()
        ab = []
        for j in range(n):
            a = (fam & tables[j].minus_selector).bit_count()
            ab.append((a, m - a))
        for p in range(1, n):
            direct = _tables.closed_size_bits(fam, n, p)
            if direct == 0:
                continue  # 0 <= anything
            for j, (a, b) in enumerate(ab):
                key = (j, a, b, p)
                comp_size = compressed_size_cache.get(key)
                if comp_size is None:
                    comp = tables[j].minus_prefix[a] | tables[j].plus_prefix[b]
                    comp_size = _tables.closed_size_bits(comp, n, p)
                    compressed_size_cache[key] = comp_size
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
    report.families_checked = samples
    return report

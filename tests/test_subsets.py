"""Ground sets, the subset order, rank/unrank, segments, and families."""

import random
import re
from functools import cmp_to_key
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperb import _tables, subsets
from hyperb.errors import InfeasibleError
from hyperb.subsets import (
    Family,
    GroundSet,
    SubsetMask,
    family_cmp,
    family_from_bits,
    family_to_bits,
    format_subset,
    initial_segment,
    level_set,
    mask_rank,
    mask_unrank,
    parse_subset,
    rank,
    simplicial_cmp,
    unrank,
)

G3 = GroundSet.range(3)
G4 = GroundSet.range(4)


class TestGroundSet:
    def test_range_labels(self):
        assert GroundSet.range(4).labels == (1, 2, 3, 4)

    def test_labels_must_increase(self):
        with pytest.raises(ValueError):
            GroundSet((2, 1))
        with pytest.raises(ValueError):
            GroundSet((0, 1))

    def test_capacity(self):
        GroundSet.range(62)
        with pytest.raises(ValueError):
            GroundSet.range(63)
        with pytest.raises(ValueError):
            GroundSet.range(-1)

    def test_without(self):
        assert GroundSet.range(4).without(2).labels == (1, 3, 4)

    def test_subset_and_membership(self):
        x = G4.subset([1, 3])
        assert x.bits == 0b101
        assert 1 in x and 3 in x and 2 not in x

    def test_mask_outside_ground(self):
        with pytest.raises(ValueError):
            SubsetMask(0b1000, G3)

    @pytest.mark.parametrize("bits", [2.0, "3", None, -1.0])
    def test_non_int_mask_is_refused(self, bits):
        # worded as the rank side is; -1.0 passes the sign test's type
        g = GroundSet.range(5)
        worded = re.escape(f"mask must be an int, got {type(bits).__name__} {bits!r}")
        for make in (
            lambda: SubsetMask(bits, g),
            lambda: mask_rank(bits, 5),
            lambda: Family.from_masks(g, [1, bits]),
        ):
            with pytest.raises(TypeError, match=worded):
                make()


class TestSimplicialCmp:
    def test_smaller_size_first(self):
        assert simplicial_cmp(G3.subset([3]), G3.subset([1, 2])) == -1

    def test_tie_smallest_differing_label(self):
        assert simplicial_cmp(G3.subset([1, 3]), G3.subset([2, 3])) == -1

    def test_equal(self):
        g = GroundSet.range(4)
        assert simplicial_cmp(g.subset([2, 4]), g.subset([2, 4])) == 0

    def test_mismatched_grounds(self):
        with pytest.raises(ValueError):
            simplicial_cmp(G3.subset([1]), G4.subset([1]))

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200)
    def test_total_order(self, a, b, c):
        g = GroundSet.range(8)
        xa, xb, xc = SubsetMask(a, g), SubsetMask(b, g), SubsetMask(c, g)
        assert simplicial_cmp(xa, xb) == -simplicial_cmp(xb, xa)
        if simplicial_cmp(xa, xb) <= 0 and simplicial_cmp(xb, xc) <= 0:
            assert simplicial_cmp(xa, xc) <= 0


class TestRankUnrank:
    def test_empty_is_first(self):
        assert rank(G3.subset()).value == 0

    def test_spec_values(self):
        assert rank(G3.subset([1, 3])).value == 5
        assert rank(G3.subset([1, 2, 3])).value == 7
        assert format_subset(unrank(0, G4)) == "{}"
        assert format_subset(unrank(4, G3)) == "{1,2}"

    def test_full_set_is_last(self):
        for n in (1, 4, 9):
            g = GroundSet.range(n)
            assert unrank((1 << n) - 1, g).bits == (1 << n) - 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank(8, G3)

    @pytest.mark.parametrize("n", range(_tables.MAX_TABLE_BITS + 1))
    def test_table_route_matches_the_formulas(self, n):
        # within the table cap rank/unrank read the kernel's order tables;
        # mask_rank / mask_unrank are the independent reference
        g = GroundSet.range(n)
        images = [unrank(r, g).bits for r in range(1 << n)]
        assert images == [mask_unrank(r, n) for r in range(1 << n)]
        assert [rank(SubsetMask(m, g)).value for m in images] == [mask_rank(m, n) for m in images]

    @pytest.mark.parametrize("n", [_tables.MAX_TABLE_BITS, _tables.MAX_TABLE_BITS + 1])
    def test_boundary_ranks_agree_at_the_cap(self, n):
        g = GroundSet.range(n)
        starts = subsets._pascal(n)[1]
        levels = starts[1:-1]
        for r in sorted({0, 1, (1 << n) - 2, (1 << n) - 1, *levels, *(s - 1 for s in levels)}):
            x = unrank(r, g)
            assert x.bits == mask_unrank(r, n)
            assert rank(x).value == mask_rank(x.bits, n) == r

    def test_route_follows_the_table_cap(self, monkeypatch):
        def wrong_route(*_):
            raise AssertionError("rank/unrank took the wrong route for this ground size")

        cap = _tables.MAX_TABLE_BITS
        with monkeypatch.context() as m:
            m.setattr(subsets, "mask_rank", wrong_route)
            m.setattr(subsets, "mask_unrank", wrong_route)
            assert rank(unrank(300, GroundSet.range(cap))).value == 300
        with monkeypatch.context() as m:
            m.setattr(_tables, "masks_in_order", wrong_route)
            m.setattr(_tables, "rank_of_mask", wrong_route)
            assert rank(unrank(300, GroundSet.range(cap + 1))).value == 300

    @pytest.mark.parametrize("n", [_tables.MAX_TABLE_BITS, _tables.MAX_TABLE_BITS + 1])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_out_of_range_on_both_routes(self, n, side):
        # the range check runs before the table lookup: -1 would wrap to the
        # last mask on a tuple, and 2^n would raise an unworded IndexError
        r = -1 if side == "below" else 1 << n
        with pytest.raises(ValueError, match=re.escape(f"rank {r} out of range for ground size {n}")):
            unrank(r, GroundSet.range(n))

    @pytest.mark.parametrize("n", [5, _tables.MAX_TABLE_BITS + 1])
    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_non_integer_rank_is_refused(self, n, value):
        with pytest.raises(TypeError, match="rank must be an int, got float"):
            unrank(value, GroundSet.range(n))
        with pytest.raises(TypeError, match="rank must be an int, got float"):
            subsets.SimplicialRank(value)

    def test_agrees_with_comparator_sort(self):
        for n in range(0, 9):
            g = GroundSet.range(n)
            masks = [SubsetMask(b, g) for b in range(1 << n)]
            ordered = sorted(masks, key=cmp_to_key(simplicial_cmp))
            for r, x in enumerate(ordered):
                assert rank(x).value == r
                assert unrank(r, g).bits == x.bits

    def test_agrees_with_table_order(self):
        for n in range(0, 11):
            assert tuple(mask_unrank(r, n) for r in range(1 << n)) == _tables.masks_in_order(n)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=150)
    def test_roundtrip(self, n, data):
        r = data.draw(st.integers(0, (1 << n) - 1))
        assert mask_rank(mask_unrank(r, n), n) == r

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=150)
    def test_rank_orders_like_cmp(self, n, data):
        g = GroundSet.range(n)
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        xa, xb = SubsetMask(a, g), SubsetMask(b, g)
        c = simplicial_cmp(xa, xb)
        ra, rb = rank(xa).value, rank(xb).value
        assert (ra < rb) == (c == -1) and (ra == rb) == (c == 0)


def _no_bitset(*_):
    raise AssertionError("bitset built before the table cap was checked")


class TestInitialSegment:
    def test_empty(self):
        assert len(initial_segment(0, G3)) == 0

    def test_m4_over_3(self):
        seg = initial_segment(4, G3)
        assert [format_subset(x) for x in seg] == ["{}", "{1}", "{2}", "{3}"]

    def test_listing_m20_over_7(self):
        seg = initial_segment(20, GroundSet.range(7))
        expected = (
            [[]]
            + [[i] for i in range(1, 8)]
            + [[1, i] for i in range(2, 8)]
            + [[2, i] for i in range(3, 8)]
            + [[3, 4]]
        )
        assert [x.labels() for x in seg] == [tuple(e) for e in expected]

    def test_prefix_growth(self):
        for m in range(1 << 4):
            a = initial_segment(m, G4)
            b = initial_segment(m + 1, G4)
            assert set(a.bit_masks()) < set(b.bit_masks())
            assert len(set(b.bit_masks()) - set(a.bit_masks())) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            initial_segment(9, G3)

    @pytest.mark.parametrize("size", [15, 30])
    def test_over_the_cap_refused_before_the_bitset(self, monkeypatch, size):
        monkeypatch.setattr(_tables, "prefix_bits", _no_bitset)
        with pytest.raises(InfeasibleError):
            initial_segment(1 << (size - 1), GroundSet.range(size))


class TestLevelSet:
    def test_bottom_and_top(self):
        assert [x.bits for x in level_set(0, G4)] == [0]
        assert [x.bits for x in level_set(4, G4)] == [0b1111]

    def test_level_2_over_4(self):
        labels = [x.labels() for x in level_set(2, G4)]
        assert labels == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_levels_partition_power_set(self):
        for n in range(1, 7):
            g = GroundSet.range(n)
            seen = []
            for i in range(n + 1):
                seen.extend(level_set(i, g).bit_masks())
            assert sorted(seen) == list(range(1 << n))

    @pytest.mark.parametrize("size", [15, 30])
    def test_over_the_cap_refused_before_the_bitset(self, monkeypatch, size):
        monkeypatch.setattr(_tables, "prefix_bits", _no_bitset)
        with pytest.raises(InfeasibleError):
            level_set(size // 2, GroundSet.range(size))


class TestFamily:
    def test_sorted_and_deduped(self):
        f = Family.from_labels(G3, [[1, 2], [3], []])
        assert [format_subset(x) for x in f] == ["{}", "{3}", "{1,2}"]
        with pytest.raises(ValueError):
            Family.from_labels(G3, [[1], [1]])

    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda: Family.from_masks(G3, [3, 3]), "{1,2}"),
            (lambda: Family.from_masks(G3, [5, 0, 5]), "{1,3}"),
            (lambda: Family.from_labels(G3, [[1], [1]]), "{1}"),
            (lambda: Family.from_labels(G3, [[], [2], []]), "{}"),
        ],
    )
    def test_duplicate_member_named(self, make, name):
        with pytest.raises(ValueError, match="duplicate member " + re.escape(name)):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: family_from_bits(1 << 16, GroundSet.range(4)),
            lambda: family_from_bits(-1, GroundSet.range(4)),
            lambda: Family.from_masks(G3, [1, 8]),
            lambda: Family.from_masks(G3, [-1]),
        ],
    )
    def test_members_outside_ground_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("bits", [(), [3], "0", 1.0])
    def test_non_int_bits_name_from_masks(self, bits):
        with pytest.raises(TypeError, match="from_masks"):
            Family(bits, G3)

    def test_membership_needs_the_same_ground(self):
        fam = Family.from_labels(GroundSet((1, 2)), [[1]])
        assert GroundSet((1, 2)).subset([1]) in fam
        assert GroundSet((5, 9)).subset([5]) not in fam
        assert GroundSet((1, 2, 3)).subset([1]) not in fam
        assert G3.subset([1]) not in Family.from_labels(GroundSet((1, 2, 4)), [[1]])

    def test_family_cmp_cardinality(self):
        a = Family.from_labels(G3, [[]])
        b = Family.from_labels(G3, [[], [1]])
        assert family_cmp(a, b) == -1

    def test_family_cmp_tiebreak(self):
        a = Family.from_labels(G3, [[1]])
        b = Family.from_labels(G3, [[2]])
        assert family_cmp(a, b) == -1
        assert family_cmp(b, a) == 1

    def test_family_cmp_equal(self):
        a = Family.from_labels(G3, [[1], [2, 3]])
        assert family_cmp(a, a) == 0

    def test_family_cmp_ground_mismatch(self):
        with pytest.raises(ValueError):
            family_cmp(Family.from_labels(G3, [[1]]), Family.from_labels(G4, [[1]]))

    @staticmethod
    def _family_cmp_reference(a, b):
        """Smaller cardinality first; ties go to the family that owns the
        order-first member of the symmetric difference."""
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        ours, theirs = set(a.bit_masks()), set(b.bit_masks())
        diff = ours ^ theirs
        if not diff:
            return 0
        first = min(diff, key=lambda m: mask_rank(m, a.ground.size))
        return -1 if first in ours else 1

    def test_family_cmp_matches_reference(self):
        for n in range(3):
            g = GroundSet.range(n)
            fams = [family_from_bits(bits, g) for bits in range(1 << (1 << n))]
            for a in fams:
                for b in fams:
                    assert family_cmp(a, b) == self._family_cmp_reference(a, b)
        rng = random.Random(31)
        g = GroundSet.range(4)
        for _ in range(2000):
            a = rng.randrange(1 << 16)
            # half the pairs share a cardinality, so the tiebreak decides
            size = a.bit_count() if rng.randrange(2) else rng.randrange(17)
            b = sum(1 << r for r in rng.sample(range(16), size))
            fa, fb = family_from_bits(a, g), family_from_bits(b, g)
            assert family_cmp(fa, fb) == self._family_cmp_reference(fa, fb)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=100)
    def test_bits_roundtrip(self, n, data):
        g = GroundSet.range(n)
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        assert family_to_bits(family_from_bits(bits, g)) == bits

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=150)
    def test_table_route_matches_mask_rank_route(self, n, data):
        # grounds within the table capacity convert through the rank tables;
        # mask_rank / mask_unrank are the reference
        g = GroundSet.range(n)
        masks = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
        fam = Family.from_masks(g, masks)
        bits = sum(1 << mask_rank(m, n) for m in masks)
        assert family_to_bits(fam) == bits
        back = family_from_bits(bits, g)
        assert back.bit_masks() == fam.bit_masks()
        assert back.bit_masks() == tuple(mask_unrank(r, n) for r in _tables.iter_bits(bits))

    @pytest.mark.parametrize("n", [_tables.MAX_TABLE_BITS + 1, 20])
    def test_family_layer_capped_at_table_size(self, n):
        # families share the rank tables' cap and are refused before any
        # table is built; single subsets keep the full 62-label range
        g = GroundSet.range(n)
        built = _tables.masks_in_order.cache_info().currsize
        ranks = _tables.rank_of_mask.cache_info().currsize
        for make in (
            lambda: Family(0, g),
            lambda: Family.from_masks(g, [0, 1]),
            lambda: family_from_bits(0b11, g),
            lambda: initial_segment(2, g),
            lambda: level_set(1, g),
        ):
            with pytest.raises(InfeasibleError):
                make()
        assert _tables.masks_in_order.cache_info().currsize == built
        assert _tables.rank_of_mask.cache_info().currsize == ranks

    @pytest.mark.parametrize("n", [0, 1, 5, 14, 62])
    def test_binomial_table(self, n):
        binom, starts = subsets._pascal(n)
        assert binom == tuple(tuple(comb(a, b) for b in range(n + 1)) for a in range(n + 1))
        assert starts == tuple(sum(comb(n, i) for i in range(k)) for k in range(n + 2))

    @given(st.integers(0, 62), st.data())
    @settings(max_examples=200)
    def test_rank_matches_counting_the_subsets_before(self, n, data):
        # the rank of x counts the smaller levels, then the same-size
        # subsets whose sorted members come first lexicographically: at the
        # first position where they differ, theirs is the smaller member
        bits = data.draw(st.integers(0, (1 << n) - 1))
        members = [c for c in range(n) if bits >> c & 1]
        k = len(members)
        before = sum(comb(n, i) for i in range(k))
        lo = 0
        for i, c in enumerate(members):
            before += sum(comb(n - 1 - d, k - 1 - i) for d in range(lo, c))
            lo = c + 1
        assert mask_rank(bits, n) == before
        assert mask_unrank(before, n) == bits

    def test_rank_matches_combinations_order(self):
        n = 7
        order = [sum(1 << c for c in combo) for k in range(n + 1) for combo in combinations(range(n), k)]
        assert [mask_rank(m, n) for m in order] == list(range(1 << n))

    @pytest.mark.parametrize("bits,n", [(-1, 3), (0b1000, 3), (1, 0)])
    def test_rank_refuses_a_mask_outside_the_ground(self, bits, n):
        with pytest.raises(ValueError):
            mask_rank(bits, n)

    def test_rank_unrank_keep_62_labels(self):
        g = GroundSet.range(62)
        for labels in ([], [1, 30, 62], list(range(1, 63))):
            x = g.subset(labels)
            assert unrank(rank(x), g).bits == x.bits
        assert rank(g.full_subset()).value == (1 << 62) - 1


class TestNotation:
    def test_format(self):
        assert format_subset(G4.subset([1, 3, 4])) == "{1,3,4}"
        assert format_subset(G4.subset()) == "{}"

    def test_parse_roundtrip(self):
        for text in ("{}", "{2}", "{1,3,4}"):
            assert format_subset(parse_subset(text, G4)) == text

    def test_parse_tolerates_spaces(self):
        assert parse_subset(" { 1 , 3 } ", G4).bits == 0b101

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_subset("1,3", G4)
        with pytest.raises(ValueError):
            parse_subset("{1,x}", G4)
        with pytest.raises(ValueError):
            parse_subset("{9}", G4)
        with pytest.raises(ValueError):
            parse_subset("{1,1}", G4)

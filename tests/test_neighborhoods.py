"""Common neighborhoods: definitions, closed forms, and verification sweeps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperb import _tables
from hyperb import neighborhoods as nb
from hyperb.errors import InfeasibleError
from hyperb.subsets import (
    Family,
    GroundSet,
    family_from_bits,
    family_to_bits,
    format_subset,
    initial_segment,
)

G3 = GroundSet.range(3)
G4 = GroundSet.range(4)


def naive_common_closed(members, n, p):
    """Definition-level oracle: scan all 2^n candidates per member."""
    out = []
    for y in range(1 << n):
        if all((x ^ y).bit_count() <= p for x in members):
            out.append(y)
    return sorted(out)


class TestCommonClosed:
    def test_spec_examples(self):
        assert [format_subset(x) for x in nb.common_closed(initial_segment(4, G3), 1)] == ["{}"]
        got = nb.common_closed(initial_segment(2, G3), 2)
        assert got.bit_masks() == initial_segment(6, G3).bit_masks()

    def test_radius_at_least_dimension_gives_everything(self):
        fam = Family.from_labels(G3, [[1], [2, 3]])
        for p in (3, 5):
            assert len(nb.common_closed(fam, p)) == 8

    def test_empty_family_gives_everything(self):
        assert len(nb.common_closed(Family.from_labels(G4, []), 1)) == 16

    def test_incompatible_pair_empty(self):
        fam = Family.from_labels(G3, [[1], [2, 3]])
        assert len(nb.common_closed(fam, 1)) == 0
        assert len(nb.common_open(fam, 1)) == 0

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            nb.common_closed(Family.from_labels(G3, [[1]]), 0)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=120)
    def test_matches_naive_oracle(self, n, data):
        g = GroundSet.range(n)
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        p = data.draw(st.integers(1, n))
        fam = family_from_bits(bits, g)
        got = sorted(nb.common_closed(fam, p).bit_masks())
        assert got == naive_common_closed(fam.bit_masks(), n, p)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=80)
    def test_monotone_in_family_and_radius(self, n, data):
        g = GroundSet.range(n)
        small = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        extra = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        p = data.draw(st.integers(1, n - 1))
        a = family_from_bits(small, g)
        b = family_from_bits(small | extra, g)
        ca = set(nb.common_closed(a, p).bit_masks())
        cb = set(nb.common_closed(b, p).bit_masks())
        assert cb <= ca  # larger family, smaller neighborhood
        cp1 = set(nb.common_closed(a, p + 1).bit_masks())
        assert ca <= cp1  # larger radius, larger neighborhood


class TestCommonOpen:
    def test_open_removes_members(self):
        fam = initial_segment(2, G3)
        assert len(nb.common_open(fam, 2)) == 4

    def test_singleton_full_radius(self):
        fam = Family.from_labels(G4, [[2]])
        assert len(nb.common_open(fam, 4)) == 15

    def test_neighborhood_pair_invariants(self):
        fam = Family.from_labels(G4, [[1], [2]])
        pair = nb.common_neighborhood(fam, 2)
        closed = set(pair.closed.bit_masks())
        opened = set(pair.open.bit_masks())
        assert opened <= closed
        assert closed - opened == closed & set(fam.bit_masks())


class TestIsInitialSegment:
    def test_spec_examples(self):
        assert nb.is_initial_segment(Family.from_labels(G3, []))
        assert not nb.is_initial_segment(Family.from_labels(G3, [[2]]))
        for a in range(0, 17):
            for p in (1, 2, 3):
                assert nb.is_initial_segment(nb.common_closed(initial_segment(a, G4), p))


class TestClosedForm:
    @pytest.mark.parametrize(
        "n,p,expected", [(5, 3, 16), (7, 5, 55), (6, 4, 26)]
    )
    def test_spec_values(self, n, p, expected):
        params = nb.ClosedFormParams.from_dimensions(n, p)
        assert nb.closed_form_open_count(params) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nb.ClosedFormParams.from_dimensions(5, 4)  # p = n-1 excluded
        with pytest.raises(ValueError):
            nb.ClosedFormParams.from_dimensions(4, 3)  # even n < 6
        with pytest.raises(ValueError):
            nb.closed_form_open_count(nb.ClosedFormParams(n=5, p=4, r=1, s=1))

    def test_brute_force_small(self):
        for (n, p) in [(5, 3), (6, 4), (7, 4), (7, 5)]:
            rep = nb.verify_closed_form(n, p)
            assert rep.ok, rep.violations

    def test_critical_segment_neighborhood_is_half_universe(self):
        # C^p of the segment of length main_sum is exactly the first 2^(n-1)
        # subsets, for every (n, p) in the closed-form range up to n = 9
        for n in range(5, 10):
            for p in range(1, n):
                if not nb.ClosedFormParams.in_range(n, p):
                    continue
                r = nb.ClosedFormParams.from_dimensions(n, p).main_sum
                got = _tables.closed_bits(_tables.prefix_bits(r), n, p)
                assert got == _tables.prefix_bits(1 << (n - 1)), (n, p)


class TestSegment20Over7:
    def test_explicit_structure(self):
        # |C^5(I_20)| over [7] is 2^6 - 13 = 51; the closed neighborhood is
        # all subsets of size <= 3 plus exactly seven 4-element subsets
        g = GroundSet.range(7)
        seg = initial_segment(20, g)
        closed = nb.common_closed(seg, 5)
        assert len(closed) == 71
        assert len(nb.common_open(seg, 5)) == 51
        quads = [x.labels() for x in closed if x.size == 4]
        assert quads == [
            (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7),
            (1, 2, 4, 5), (1, 2, 4, 6), (1, 2, 4, 7),
        ]
        assert all(x.size <= 4 for x in closed)
        small = [x for x in closed if x.size <= 3]
        assert len(small) == 64


class TestCloseInequality:
    def test_exhaustive_n3(self):
        for p in (1, 2):
            rep = nb.verify_close_inequality(3, p, "exhaustive")
            assert rep.ok and rep.families_checked == 256

    def test_initial_segment_has_zero_slack(self):
        for m in range(0, 17):
            fam_bits = _tables.prefix_bits(m)
            size = _tables.closed_size_bits(fam_bits, 4, 2)
            assert size == _tables.initial_segment_closed_sizes(4, 2)[m]

    def test_exhaustive_rejects_large_n(self):
        with pytest.raises(InfeasibleError):
            nb.verify_close_inequality(5, 2, "exhaustive")

    def test_sample_mode(self):
        rep = nb.verify_close_inequality(6, 3, "sample", samples=3000, seed=5)
        assert rep.ok and rep.families_checked == 3000 and rep.seed == 5

    def test_sample_requires_seed(self):
        with pytest.raises(ValueError):
            nb.verify_close_inequality(6, 3, "sample", samples=10)

    def test_radius_outside_ground_rejected(self):
        for p in (0, 7):
            with pytest.raises(ValueError):
                nb.verify_close_inequality(6, p, "sample", samples=10, seed=1)
            with pytest.raises(ValueError):
                nb.verify_open_inequality(6, p, "sample", samples=10, seed=1)

    def test_reports_are_reproducible(self):
        a = nb.verify_close_inequality(5, 2, "sample", samples=500, seed=9)
        b = nb.verify_close_inequality(5, 2, "sample", samples=500, seed=9)
        assert a.as_json_dict() == b.as_json_dict()


class TestOpenInequality:
    def test_exhaustive_n3(self):
        for p in (1, 2):
            rep = nb.verify_open_inequality(3, p, "exhaustive")
            assert rep.ok

    def test_spec_pairwise_example(self):
        fam = Family.from_labels(G4, [[1], [2], [1, 2]])
        masks = fam.bit_masks()
        assert all((a ^ b).bit_count() <= 2 for a in masks for b in masks)
        own = len(nb.common_open(fam, 2))
        bound = len(nb.common_open(initial_segment(3, G4), 2))
        assert own <= bound

    def test_sampled_families_qualify(self):
        # re-run the sampler and check the pairwise hypothesis directly
        rng = random.Random(3)
        order = _tables.masks_in_order(4)
        ball = _tables.balls(4, 2)
        for _ in range(200):
            m_target = rng.randint(1, 8)
            members = 0
            closed = _tables.universe_bits(4)
            for _ in range(m_target):
                pool = closed & ~members
                if not pool:
                    break
                r = nb._pick_set_bit(pool, 16, rng)
                members |= 1 << r
                closed &= ball[order[r]]
            masks = [order[r] for r in _tables.iter_bits(members)]
            assert all((a ^ b).bit_count() <= 2 for a in masks for b in masks)

    def test_sample_mode(self):
        rep = nb.verify_open_inequality(6, 4, "sample", samples=2000, seed=17)
        assert rep.ok and rep.families_checked == 2000


class TestSectionIdentity:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            rep = nb.verify_section_identity(n, "exhaustive")
            assert rep.ok and rep.families_checked == 1 << (1 << n)

    def test_sampled_n5(self):
        rep = nb.verify_section_identity(5, "sample", samples=500, seed=23)
        assert rep.ok


class TestCounterexampleHunt:
    def test_found_without_hypothesis(self):
        witness = nb.find_open_counterexample(4)
        assert witness is not None
        # re-check the witness from scratch
        n, p = witness["n"], witness["p"]
        g = GroundSet.range(n)
        fam = Family.from_labels(g, [_parse(s) for s in witness["family"]])
        masks = fam.bit_masks()
        assert any((a ^ b).bit_count() > p for a in masks for b in masks)
        own = len(nb.common_open(fam, p))
        bound = len(nb.common_open(initial_segment(len(fam), g), p))
        assert own > bound


def _parse(text):
    body = text.strip()[1:-1]
    return [int(x) for x in body.split(",")] if body else []


class TestInitialSegmentClosure:
    def test_small_sweep(self):
        for n in range(1, 9):
            rep = nb.verify_initial_segment_closure(n)
            assert rep.ok


class TestWitnessFormatting:
    def test_family_strings(self):
        bits = family_to_bits(Family.from_labels(G3, [[], [1, 3]]))
        assert nb.family_bits_to_strings(bits, 3) == ["{}", "{1,3}"]

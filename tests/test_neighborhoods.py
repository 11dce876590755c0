"""Common neighborhoods: definitions, closed forms, and verification sweeps."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperb import _tables
from hyperb import compression as cp
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
        assert nb.closed_form_open_count(nb.ClosedFormParams(n, p)) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nb.ClosedFormParams(5, 4)  # p = n-1 excluded
        with pytest.raises(ValueError):
            nb.ClosedFormParams(4, 3)  # even n < 6
        with pytest.raises(TypeError):  # the formula's numbers cannot be passed in
            nb.ClosedFormParams(n=5, p=3, r=999, s=0)

    def test_brute_force_small(self):
        for (n, p) in [(5, 3), (6, 4), (7, 4), (7, 5)]:
            rep = nb.verify_closed_form(n, p)
            assert rep.ok, rep.violations

    def test_critical_segment_neighborhood_is_half_universe(self):
        # C^p of the segment of length main_sum is exactly the first 2^(n-1)
        # subsets, for every (n, p) in the closed-form range up to n = 9
        for n in range(5, 10):
            for p in range(1, n):
                if nb.refined_gate_reason(n, p) is not None:
                    continue
                r = nb.ClosedFormParams(n, p).main_sum
                got = _tables.closed_bits(_tables.prefix_bits(r), n, p)
                assert got == _tables.prefix_bits(1 << (n - 1)), (n, p)

    @pytest.mark.parametrize("n,p", [(15, 13), (30, 28), (40, 38)])
    def test_over_the_cap_refused_before_any_bitset(self, monkeypatch, n, p):
        # at n = 40 a segment bitset would take tens of GiB: neither a
        # segment nor the universe may be built before the cap refuses
        def no_bitset(*_):
            raise AssertionError("bitset built before the table cap was checked")

        monkeypatch.setattr(_tables, "prefix_bits", no_bitset)
        monkeypatch.setattr(_tables, "universe_bits", no_bitset)
        with pytest.raises(InfeasibleError):
            nb.verify_closed_form(n, p)

    def test_wrong_closed_form_count_is_reported(self, monkeypatch):
        real = nb.closed_form_open_count
        monkeypatch.setattr(nb, "closed_form_open_count", lambda params: real(params) + 1)
        rep = nb.verify_closed_form(7, 4)
        seg = rep.details["segment"]
        assert rep.violations == [
            {"segment": seg, "p": 4, "expected": real(nb.ClosedFormParams(7, 4)) + 1,
             "actual": rep.details["actual"]}
        ]

    def test_segment_without_drop_is_reported(self, monkeypatch):
        # the segment one longer keeps the critical count: the strict drop fails
        real = _tables.initial_segment_open_sizes(7, 4)
        seg = nb.verify_closed_form(7, 4).details["segment"]
        flat = real[: seg + 1] + (real[seg],) + real[seg + 2 :]
        monkeypatch.setattr(_tables, "initial_segment_open_sizes", lambda n, p: flat)
        rep = nb.verify_closed_form(7, 4)
        assert [(v["segment"], v["actual"]) for v in rep.violations] == [(seg + 1, real[seg])]


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
            size = _tables.closed_bits(fam_bits, 4, 2).bit_count()
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

    def test_negative_seed_rejected_before_building_tables(self):
        # random.Random(-5) seeds like Random(5), so -5 would silently rerun 5
        misses = _tables.balls.cache_info().misses
        with pytest.raises(ValueError, match="seed must be non-negative"):
            nb.check_sweep_request(6, "sample", 50, -5)
        for sweep in (nb.verify_close_inequality, nb.verify_open_inequality):
            with pytest.raises(ValueError, match="seed must be non-negative"):
                sweep(6, 2, "sample", samples=50, seed=-5)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            nb.verify_section_identity(5, "sample", samples=50, seed=-1)
        assert _tables.balls.cache_info().misses == misses
        nb.check_sweep_request(6, "sample", 50, 0)

    @pytest.mark.parametrize("extra", [{"seed": 5}, {"samples": 7}])
    def test_exhaustive_refuses_samples_and_seed(self, monkeypatch, extra):
        # an exhaustive sweep draws nothing, so a seed or a sample count in
        # its report would name a stream it never used
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built for a refused request")

        # every kernel builder, the lru_cache-wrapped table builders included
        for name, value in vars(_tables).items():
            if callable(value) and getattr(value, "__module__", None) == _tables.__name__:
                monkeypatch.setattr(_tables, name, no_table)
        sweeps = [
            lambda: nb.verify_close_inequality(3, 1, "exhaustive", **extra),
            lambda: nb.verify_open_inequality(3, 1, "exhaustive", **extra),
            lambda: nb.verify_section_identity(3, "exhaustive", **extra),
            lambda: cp.verify_compression_inequality(3, "exhaustive", **extra),
        ]
        for sweep in sweeps:
            with pytest.raises(ValueError, match="exhaustive mode takes neither"):
                sweep()

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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_corrupted_dp_entry_is_reported(self, monkeypatch, p):
        # initial segments meet the bound exactly, so one extra bit in the
        # DP's entry for I_3 must surface as a violation for that family only
        fam = _tables.prefix_bits(3)
        real = _tables.closed_bits_all

        def corrupted(n, radius):
            table = real(n, radius)
            val = table[fam]
            table[fam] = val | (val + 1) & ~val  # lowest bit not yet set
            return table

        monkeypatch.setattr(_tables, "closed_bits_all", corrupted)
        rep = nb.verify_close_inequality(4, p, "exhaustive")
        assert [v["family"] for v in rep.violations] == [nb.family_bits_to_strings(fam, 4)]
        assert rep.violations[0]["closed_size"] == rep.violations[0]["bound"] + 1


class TestOpenInequality:
    def test_exhaustive_n3(self):
        for p in (1, 2):
            rep = nb.verify_open_inequality(3, p, "exhaustive")
            assert rep.ok

    @pytest.mark.parametrize("n", [3, 4])
    def test_exhaustive_checks_exactly_the_pairwise_families(self, n):
        # diameter of every family by brute force over its member pairs; a
        # family qualifies at radius p iff its diameter is at most p
        order = _tables.masks_in_order(n)
        diameters = [
            max(
                ((a ^ b).bit_count() for a, b in combinations(
                    [order[r] for r in _tables.iter_bits(fam)], 2)),
                default=0,
            )
            for fam in range(1 << (1 << n))
        ]
        for p in range(1, n + 1):
            rep = nb.verify_open_inequality(n, p, "exhaustive")
            assert rep.families_checked == sum(d <= p for d in diameters), (n, p)
            assert rep.details["families_scanned"] == 1 << (1 << n)

    def test_spec_pairwise_example(self):
        fam = Family.from_labels(G4, [[1], [2], [1, 2]])
        masks = fam.bit_masks()
        assert all((a ^ b).bit_count() <= 2 for a in masks for b in masks)
        own = len(nb.common_open(fam, 2))
        bound = len(nb.common_open(initial_segment(3, G4), 2))
        assert own <= bound

    def test_sampled_families_qualify(self):
        # run the sampler itself and check the pairwise hypothesis and the
        # closed neighborhood it returns directly
        rng = random.Random(3)
        order = _tables.masks_in_order(4)
        for _ in range(200):
            members, closed = nb._grow_pairwise_family(4, 2, rng)
            assert members
            masks = [order[r] for r in _tables.iter_bits(members)]
            assert all((a ^ b).bit_count() <= 2 for a in masks for b in masks)
            assert closed == _tables.closed_bits(members, 4, 2)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_sampled_families_qualify_full_size(self, n, monkeypatch):
        # the sampler keeps its pool in place and returns pool | members as
        # the closed neighborhood; p = 1 stops early (two adjacent members
        # share no neighbour), p = n - 1 stays on the dense branch and
        # p = n // 2 moves from the dense to the sparse branch
        branches = set()
        real = nb._pick_set_bit

        def pick(bits, n_universe_bits, rng):
            branches.add(bits.bit_count() * 8 >= n_universe_bits)
            return real(bits, n_universe_bits, rng)

        monkeypatch.setattr(nb, "_pick_set_bit", pick)
        rng = random.Random(n)
        for p in (1, n // 2, n - 1):
            ball = _tables.balls(n, p)
            sizes = []
            for _ in range(4):
                members, closed = nb._grow_pairwise_family(n, p, rng)
                assert members
                # pairwise within p: every member's ball holds every member
                assert all(not members & ~ball[r] for r in _tables.iter_bits(members))
                assert closed == _tables.closed_bits(members, n, p)
                sizes.append(members.bit_count())
            if p == 1:
                assert max(sizes) <= 2
        assert branches == {True, False}

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

    def test_fault_in_subground_ball_table_is_reported(self, monkeypatch):
        # The sections' sides must come from the subground's own ball tables:
        # one wrong entry there (ball of radius 1 around {} at n = 3 gaining
        # {1,2,3}) has to surface as violations of the n = 4 identity.
        real = _tables.balls
        for n in (3, 4):
            real(n, n)  # build every radius before the fault goes in
        bad = list(real(3, 1))
        bad[0] |= 1 << _tables.rank_of_mask(3)[0b111]
        bad = tuple(bad)
        monkeypatch.setattr(_tables, "balls", lambda n, p: bad if (n, p) == (3, 1) else real(n, p))
        rep = nb.verify_section_identity(4, "exhaustive")
        assert rep.violations
        assert {v["p"] for v in rep.violations} <= {1, 2}
        # the sweep reports exactly the instances the single-instance check
        # rejects, here over the first 2048 families
        head = 2048
        reported = set()
        for v in rep.violations:
            bits = family_to_bits(Family.from_labels(G4, [_parse(x) for x in v["family"]]))
            if bits < head:
                reported.add((bits, v["i"] - 1, v["p"]))
        rejected = {
            (fam, j, p)
            for fam in range(head)
            for j in range(4)
            for p in range(1, 5)
            if not nb.section_identity_holds(fam, 4, p, j)
        }
        assert reported and reported == rejected


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

    def test_fault_in_ball_table_is_reported(self, monkeypatch):
        # The radius-1 ball of {} at n = 3 gaining {1,2,3} (rank 7) makes
        # C^1[I_1] a non-segment; I_2 and longer meet the ball of {1}, which
        # drops the extra rank again, so that is the only violation.
        real = _tables.balls
        real(3, 3)  # build every radius before the fault goes in
        bad = list(real(3, 1))
        bad[0] |= 1 << 7
        bad = tuple(bad)
        monkeypatch.setattr(_tables, "balls", lambda n, p: bad if (n, p) == (3, 1) else real(n, p))
        rep = nb.verify_initial_segment_closure(3)
        assert [(v["a"], v["p"]) for v in rep.violations] == [(1, 1)]
        assert rep.violations[0]["closed"] == ["{}", "{1}", "{2}", "{3}", "{1,2,3}"]
        assert rep.families_checked == 3 * 9


class TestWitnessFormatting:
    def test_family_strings(self):
        bits = family_to_bits(Family.from_labels(G3, [[], [1, 3]]))
        assert nb.family_bits_to_strings(bits, 3) == ["{}", "{1,3}"]


def _reference_family_bits(n, rng):
    m = rng.randint(1, 1 << (n - 1))
    bits = 0
    for r in rng.sample(range(1 << n), m):
        bits |= 1 << r
    return bits


def _reference_pick(bits, n_universe_bits, rng):
    count = bits.bit_count()
    if count * 8 >= n_universe_bits:
        while True:
            r = rng.randrange(n_universe_bits)
            if bits >> r & 1:
                return r
    return list(_tables.iter_bits(bits))[rng.randrange(count)]


def _reference_pairwise_family(n, p, rng):
    ball = _tables.balls(n, p)
    members = 0
    closed = _tables.universe_bits(n)
    for _ in range(rng.randint(1, 1 << (n - 1))):
        pool = closed & ~members
        if not pool:
            break
        r = _reference_pick(pool, 1 << n, rng)
        members |= 1 << r
        closed &= ball[r]
    return members, closed


class TestSamplerStream:
    """The samplers draw from rng.getrandbits directly.  They must pick what
    rng.sample, rng.randint and rng.randrange would pick on the running
    interpreter and leave the generator in the same state, so a change to
    the random module fails here instead of silently changing outputs."""

    @pytest.mark.parametrize("seed", [0, 7, 104729])
    def test_family_bits_match_random_sample(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 13):
            sizes = []
            for _ in range(40 if n == 12 else 15):
                fam = nb.sample_family_bits(n, ours)
                assert fam == _reference_family_bits(n, ref), n
                sizes.append(fam.bit_count())
        # random.sample tracks a pool list when 2^n <= 21 + 4^ceil(log4(3m)),
        # else a set of taken ranks: at n = 12 the switch is m = 341 / 342
        assert min(sizes) <= 341 < max(sizes)
        assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", [1, 7])
    def test_pairwise_families_match_randrange(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 13):
            for p in sorted({1, (n + 1) // 2, max(1, n - 1), n}):
                for _ in range(3):
                    assert nb._grow_pairwise_family(n, p, ours) == _reference_pairwise_family(
                        n, p, ref
                    ), (n, p)
        assert ours.getstate() == ref.getstate()

    @staticmethod
    def _pools():
        rng = random.Random(5)
        edges = 1 | 1 << 63 | 1 << 64 | 1 << 65 | 1 << 4095
        pools = [(edges, 4096)]
        pools += [(1 << r, 4096) for r in (0, 63, 64, 65, 4095)]
        pools += [(1, 1), (1 << 6, 7), (1 << 99, 100)]
        for width in (7, 65, 100, 1000, 4095, 4096):
            full = (1 << width) - 1
            pools.append((full, width))  # dense
            pools.append((rng.getrandbits(width) | 1 << (width - 1), width))  # dense
            sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
            sparse &= rng.getrandbits(width)
            pools.append((sparse | 1 << rng.randrange(width), width))
        # count * 8 >= width exactly at the threshold, and one bit below it
        pools.append(((1 << 512) - 1 << 1000, 4096))
        pools.append(((1 << 510) - 1 << 1000 | 1 << 4095, 4096))
        return pools

    def test_pick_set_bit_matches_randrange(self):
        pools = self._pools()
        branches = {bits.bit_count() * 8 >= width for bits, width in pools}
        assert branches == {True, False}
        ours, ref = random.Random(3), random.Random(3)
        for bits, width in pools:
            for _ in range(50):
                r = nb._pick_set_bit(bits, width, ours)
                assert r == _reference_pick(bits, width, ref), (bits, width)
                assert bits >> r & 1
        assert ours.getstate() == ref.getstate()

    def test_pick_set_bit_refuses_an_empty_pool(self):
        with pytest.raises(ValueError, match="empty pool"):
            nb._pick_set_bit(0, 4096, random.Random(1))

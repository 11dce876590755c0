"""Hamming-ball tables, the all-families closed-neighborhood DP and the
family lanes (the count lane and the subset lanes): agreement with the
definition and with the DP, and the memory guards."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperb import _tables
from hyperb import neighborhoods as nb
from hyperb.errors import InfeasibleError


def brute_force_ball(x, n, p):
    """Definition-level oracle: rank-order bitset of all y with |x xor y| <= p."""
    bits = 0
    for r, y in enumerate(_tables.masks_in_order(n)):
        if (x ^ y).bit_count() <= p:
            bits |= 1 << r
    return bits


class TestBalls:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_brute_force(self, n):
        for p in range(0, n + 2):
            table = _tables.balls(n, p)
            assert len(table) == 1 << n
            for r, x in enumerate(_tables.masks_in_order(n)):
                assert table[r] == brute_force_ball(x, n, p), (n, p, x)

    @pytest.mark.parametrize("n", [11, 12])
    def test_matches_brute_force_at_seeded_centres(self, n):
        # radii p >= n/2 come from the complement: check both sides of n/2
        order = _tables.masks_in_order(n)
        rng = random.Random(n)
        centres = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(4)]
        for p in range(0, n + 2):
            table = _tables.balls(n, p)
            for r in centres:
                assert table[r] == brute_force_ball(order[r], n, p), (n, p, r)

    @pytest.mark.parametrize("n", range(0, 15))
    def test_complement_reverses_rank_order(self, n):
        order = _tables.masks_in_order(n)
        full = (1 << n) - 1
        assert order[::-1] == tuple(full ^ m for m in order)

    def test_high_radius_builds_only_its_complement_radii(self, monkeypatch):
        steps = []
        real_step = _tables.ball_step

        def counting_step(prev, moves):
            steps.append(prev)
            return real_step(prev, moves)

        monkeypatch.setattr(_tables, "ball_step", counting_step)
        for p, built in [(9, 0), (7, 2)]:
            steps.clear()
            _tables.balls.cache_clear()
            _tables.balls(10, p)
            assert len(steps) == built, p
            # cached: radii 0..n-1-p by the recurrence, and p itself
            kept = [*range(10 - p), p]
            assert _tables.balls.cache_info().currsize == len(kept)
            for r in kept:
                _tables.balls(10, r)
            assert _tables.balls.cache_info().misses == len(kept)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_untrimmed_recurrence(self, n):
        # every radius, 0..n, by ball_step over all n coordinates' flips
        flips = _tables.flip_ranks(n)
        moves = [flips[i : i + n] for i in range(0, len(flips), n)]
        table = _tables.balls(n, 0)
        for p in range(1, n + 1):
            table = _tables.ball_step(table, moves)
            assert _tables.balls(n, p) == table, (n, p)

    def test_radii_above_n_are_the_full_table(self):
        assert _tables.balls(5, 9) is _tables.balls(5, 5)
        assert set(_tables.balls(5, 5)) == {_tables.universe_bits(5)}

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            _tables.balls(4, -1)


class TestMemoryGuard:
    def test_cap_admits_n13_and_refuses_n14(self):
        assert _tables.ball_table_bytes(13, 13) <= _tables.MAX_BALL_BYTES
        assert _tables.ball_table_bytes(14, 14) > _tables.MAX_BALL_BYTES

    @pytest.mark.parametrize("p", [14, 8, 20])
    def test_refuses_before_allocating(self, p):
        before = _tables.balls.cache_info().currsize
        with pytest.raises(InfeasibleError):
            _tables.balls(14, p)
        assert _tables.balls.cache_info().currsize == before

    def test_check_refuses_what_balls_refuses(self):
        # the one owner of the cap: radii above n are checked as n, and a
        # ground far over the capacity is refused without its universe
        for n, p in [(13, 13), (14, 3), (0, 1)]:
            _tables.check_ball_tables(n, p)
        for n, p in [(14, 4), (14, 20), (15, 0), (1500, 751)]:
            with pytest.raises(InfeasibleError):
                _tables.check_ball_tables(n, p)
        with pytest.raises(ValueError):
            _tables.check_ball_tables(4, -1)

    def test_ground_over_table_capacity_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            _tables.masks_in_order(_tables.MAX_TABLE_BITS + 1)
        with pytest.raises(InfeasibleError):
            _tables.balls(_tables.MAX_TABLE_BITS + 1, 1)

    def test_negative_ground_is_malformed(self):
        with pytest.raises(ValueError):
            _tables.masks_in_order(-1)


class TestClosedBitsAll:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_matches_closed_bits_for_every_family(self, n):
        for p in range(0, n + 2):
            table = _tables.closed_bits_all(n, p)
            assert len(table) == 1 << (1 << n)
            assert table == [_tables.closed_bits(f, n, p) for f in range(1 << (1 << n))]

    def test_matches_closed_bits_on_seeded_families_n4(self):
        rng = random.Random(2024)
        families = [rng.randrange(1 << 16) for _ in range(2000)]
        for p in range(0, 6):
            table = _tables.closed_bits_all(4, p)
            assert len(table) == 1 << 16
            for f in families:
                assert table[f] == _tables.closed_bits(f, 4, p), (p, f)


def brute_force_closed(family, n, p):
    """Definition-level oracle: rank-order bitset of all y within p of every
    member of the family bitset."""
    masks = _tables.masks_in_order(n)
    members = [masks[r] for r in range(1 << n) if family >> r & 1]
    bits = 0
    for r, y in enumerate(masks):
        if all((x ^ y).bit_count() <= p for x in members):
            bits |= 1 << r
    return bits


def anded_balls(family, n, p):
    """The closed neighborhood as the AND of the member balls, with no early
    stop and the members peeled by iter_bits."""
    ball = _tables.balls(n, p)
    acc = _tables.universe_bits(n)
    for r in _tables.iter_bits(family):
        acc &= ball[r]
    return acc


def kernel_families(n, rng):
    """Seeded families over 2^[n] plus the edge cases of a byte-wise member
    walk: empty, universe, the single top rank, ranks 7 and 8 (either side
    of a byte boundary), dense, sparse and ball-clustered families (whose
    intersection stays nonempty), and initial segments."""
    size = 1 << n
    universe = _tables.universe_bits(n)
    out = [0, universe, 1 << (size - 1)]
    if size > 8:
        out += [1 << 7, 1 << 8, 1 << 7 | 1 << 8]
    for _ in range(8):
        out.append(rng.getrandbits(size))
        sparse = 0
        for _ in range(rng.randint(1, 6)):
            sparse |= 1 << rng.randrange(size)
        out.append(sparse)
        out.append(_tables.prefix_bits(rng.randint(0, size)))
    for radius in range(n + 1):
        around = _tables.balls(n, radius)[rng.randrange(size)]
        out.append(around & rng.getrandbits(size))
    return out


class TestClosedBits:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_every_family_of_a_small_ground(self, n):
        # grounds of at most one byte (n <= 3), every family and radius
        for p in range(0, n + 2):
            for f in range(1 << (1 << n)):
                assert _tables.closed_bits(f, n, p) == brute_force_closed(f, n, p), (n, p, f)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_seeded_families_match_reference(self, n):
        reference = brute_force_closed if n <= 6 else anded_balls
        for p in range(0, n + 2):
            for f in kernel_families(n, random.Random(1000 * n + p)):
                assert _tables.closed_bits(f, n, p) == reference(f, n, p), (n, p, f)

    def test_intersection_emptied_inside_a_byte(self):
        # at n = 4, p = 1 the members 0, 1, 2 leave {1} and {2}, member 5
        # ({1,2}) empties it, and members 6 and 9 follow
        n, p = 4, 1
        assert anded_balls(0b111, n, p) != 0 and anded_balls(0b100111, n, p) == 0
        family = 0b1100111 | 1 << 9
        assert _tables.closed_bits(family, n, p) == 0 == brute_force_closed(family, n, p)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            _tables.closed_bits(0b1011, 3, -1)

    def test_byte_table(self):
        assert len(_tables.BYTE_BITS) == 256
        for v, offsets in enumerate(_tables.BYTE_BITS):
            assert sum(1 << j for j in offsets) == v and list(offsets) == sorted(offsets)


class TestSplitJoin:
    @staticmethod
    def check_round_trip(f, n):
        sub_universe = _tables.universe_bits(n - 1)
        for j in range(n):
            minus, plus = _tables.split_bits(f, n, j)
            assert not minus & ~sub_universe and not plus & ~sub_universe, (n, j, f)
            assert minus.bit_count() == (f & _tables.section_tables(n, j).minus_selector).bit_count()
            assert minus.bit_count() + plus.bit_count() == f.bit_count()
            assert _tables.join_bits(minus, plus, n, j) == f, (n, j, f)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_family_of_a_small_ground(self, n):
        for f in range(1 << (1 << n)):
            self.check_round_trip(f, n)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_seeded_families(self, n):
        for f in kernel_families(n, random.Random(n)):
            self.check_round_trip(f, n)


class TestRadiusStacks:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_anded_stacks_hold_closed_bits_at_every_radius(self, n):
        width = 1 << n
        blocks = n + 2  # radii n and n + 1 are the universe, not read
        stack = list(_tables.stack_balls(n, blocks))
        assert len(stack) == width
        universe = _tables.universe_bits(n)
        for f in kernel_families(n, random.Random(50 + n)):
            acc = (1 << blocks * width) - 1
            for r in _tables.iter_bits(f):
                acc &= stack[r]
            radii = [acc >> p * width & universe for p in range(blocks)]
            assert radii == [_tables.closed_bits(f, n, p) for p in range(blocks)], (n, f)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_join_radii_is_join_bits_at_every_radius(self, n):
        half = 1 << (n - 1)
        rng = random.Random(n)
        for j in range(n):
            for _ in range(10 if n < 8 else 2):
                minus = [rng.getrandbits(half) for _ in range(n + 1)]
                plus = [rng.getrandbits(half) for _ in range(n + 1)]
                stack = 0
                for side in (plus, minus):
                    for bits in reversed(side):
                        stack = stack << half | bits
                expected = 0
                for p in range(n, 0, -1):
                    expected = expected << 2 * half | _tables.join_bits(minus[p], plus[p], n, j)
                assert _tables.join_radii(stack, n, j) == expected, (n, j)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_join_radii_commutes_with_and(self, n):
        # what lets the section sweep join each member once and AND the joins
        width = 2 * (n + 1) << (n - 1)
        rng = random.Random(70 + n)
        for j in range(n):
            for _ in range(10):
                x, y = rng.getrandbits(width), rng.getrandbits(width)
                joined = _tables.join_radii(x, n, j) & _tables.join_radii(y, n, j)
                assert _tables.join_radii(x & y, n, j) == joined, (n, j)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_expansions_increase_with_the_subground_rank(self, n):
        # what makes a join one bit deposit: both sides land in rank order
        for j in range(n):
            t = _tables.section_tables(n, j)
            for expand in (t.expand_minus, t.expand_plus):
                assert all(a < b for a, b in zip(expand, expand[1:])), (n, j)

    def test_join_radii_reads_no_ball_table(self, monkeypatch):
        def refuse(n, p):
            raise AssertionError(f"balls({n}, {p}) read")

        monkeypatch.setattr(_tables, "balls", refuse)
        _tables._join_radii_stages.cache_clear()
        for n in range(1, 7):
            stack = (1 << (n + 1 << n)) - 1  # every side full at every radius
            for j in range(n):
                assert _tables.join_radii(stack, n, j) == (1 << (n << n)) - 1, (n, j)


class TestSegmentWalk:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_size_tables_match_a_full_running_and(self, n):
        universe = _tables.universe_bits(n)
        for p in range(1, n + 1):
            cur = universe
            closed, opened = [cur.bit_count()], [cur.bit_count()]
            for m, ball in enumerate(_tables.balls(n, p), 1):
                cur &= ball
                closed.append(cur.bit_count())
                opened.append((cur >> m).bit_count())
            assert list(_tables.initial_segment_closed_sizes(n, p)) == closed, (n, p)
            assert list(_tables.initial_segment_open_sizes(n, p)) == opened, (n, p)
            # the walk stops after its first empty closure; C^p[V] is empty for p < n
            walk = list(_tables.segment_closures(n, p))
            if p < n:
                assert walk[-1] == 0 and all(walk[:-1]), (n, p)
            else:
                assert len(walk) == (1 << n) + 1 and all(walk), (n, p)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_simplicial_sweep_counts_every_segment(self, n):
        report = nb.verify_initial_segment_closure(n)
        assert report.ok and report.families_checked == n * ((1 << n) + 1)


def lane_reference(n, selector, step_in, step_out):
    """count_lane one family at a time, from the definition."""
    inside = [bool(selector >> r & 1) for r in range(1 << n)]
    return bytes(
        sum(step_in if inside[r] else step_out for r in _tables.iter_bits(f)) % 256
        for f in range(1 << (1 << n))
    )


class TestLanes:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_count_lane_every_selector(self, n):
        rng = random.Random(n)
        for selector in range(1 << (1 << n)):
            step_in, step_out = rng.randrange(256), rng.randrange(256)
            expected = lane_reference(n, selector, step_in, step_out)
            assert _tables.count_lane(n, selector, step_in, step_out) == expected, selector

    def test_count_lane_seeded_selectors_n4(self):
        rng = random.Random(4)
        universe = _tables.universe_bits(4)
        for selector in [0, universe, _tables.section_tables(4, 2).minus_selector,
                         rng.getrandbits(16), rng.getrandbits(16)]:
            step_in, step_out = rng.randrange(256), rng.randrange(256)
            lane = _tables.count_lane(4, selector, step_in, step_out)
            assert lane == bytes(
                (step_in * (f & selector).bit_count()
                 + step_out * (f & ~selector).bit_count()) % 256
                for f in range(1 << 16)
            ), selector

    @given(st.lists(st.tuples(st.integers(0, 0x7F), st.integers(0, 0x7F)), max_size=80))
    @settings(max_examples=200)
    def test_lane_slack_is_per_byte(self, pairs):
        high = bytes(h for h, _ in pairs)
        low = bytes(v for _, v in pairs)
        assert _tables.lane_slack(high, low) == bytes(0x80 + h - v for h, v in pairs)

    @given(st.lists(st.tuples(st.integers(0, 0x7F), st.integers(0, 0x7F), st.booleans()),
                    max_size=80))
    @settings(max_examples=100)
    def test_lane_slack_takes_the_low_lane_as_an_int(self, triples):
        high = bytes(h for h, _, _ in triples)
        low = bytes(v for _, v, _ in triples)
        flags = bytes(int(keep) for _, _, keep in triples)
        low_int = int.from_bytes(low, "little")
        assert _tables.lane_slack(high, low_int) == _tables.lane_slack(high, low)
        assert _tables.lane_slack(high, low_int, flags) == _tables.lane_slack(high, low, flags)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_popcount_lane_is_built_once_per_n(self, n):
        lane = _tables.popcount_lane(n)
        assert lane == _tables.count_lane(n, 0, 0, 1)
        assert _tables.popcount_lane(n) is lane

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_lane_below_lists_the_low_bytes_in_order(self, slack):
        assert list(_tables.lane_below(slack)) == [f for f, v in enumerate(slack) if v < 0x80]

    @given(st.binary(max_size=300), st.integers(0, 255))
    @settings(max_examples=100)
    def test_lane_find_lists_a_value_in_order(self, lane, value):
        assert list(_tables.lane_find(lane, value)) == [f for f, v in enumerate(lane) if v == value]

    @given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), max_size=80))
    @settings(max_examples=200)
    def test_lane_where_is_per_byte(self, pairs):
        lane = bytes(v for v, _ in pairs)
        flags = bytes(int(keep) for _, keep in pairs)
        assert _tables.lane_where(lane, flags) == bytes(v if keep else 0 for v, keep in pairs)

    @given(st.lists(st.tuples(st.integers(0, 0x7F), st.integers(0, 0x7F), st.booleans()),
                    max_size=80))
    @settings(max_examples=200)
    def test_lane_slack_with_flags_is_lane_where_on_both_sides(self, triples):
        high = bytes(h for h, _, _ in triples)
        low = bytes(v for _, v, _ in triples)
        flags = bytes(int(keep) for _, _, keep in triples)
        assert _tables.lane_slack(high, low, flags) == _tables.lane_slack(
            _tables.lane_where(high, flags), _tables.lane_where(low, flags)
        ) == bytes(0x80 + h - v if keep else 0x80 for h, v, keep in triples)

    @staticmethod
    def _slack_lanes(top):
        """Seeded slack lanes whose slacks are at most top: mixed ones, ones
        whose largest slack is top, ones with no positive slack and ones of
        violations only."""
        rng = random.Random(top)
        lanes = [b"\x80", b"\x7f", bytes([0x80 + top])]
        for length in (1, 2, 16, 255, 4096):
            lanes.append(bytes(rng.randint(0x70, 0x80 + top) for _ in range(length)))
            at_top = bytearray(rng.randint(0x70, 0x80 + top) for _ in range(length))
            at_top[rng.randrange(length)] = 0x80 + top
            lanes.append(bytes(at_top))
            lanes.append(bytes(rng.randint(0x70, 0x80) for _ in range(length)))
            lanes.append(bytes(rng.randint(0x00, 0x7F) for _ in range(length)))
        return lanes

    @pytest.mark.parametrize("top", [0, 1, 2, 4, 8, 16, 0x7F])
    def test_lane_max_slack_is_the_largest_positive_slack(self, top):
        for lane in self._slack_lanes(top):
            assert _tables.lane_max_slack(lane, top) == max(max(lane) - 0x80, 0), (top, lane)

    @pytest.mark.parametrize("ranks", range(0, 7))
    def test_subset_lane(self, ranks):
        for members in range(1 << ranks):
            assert _tables.subset_lane(members, ranks) == bytes(
                int(not f & ~members) for f in range(1 << ranks)
            ), members

    @pytest.mark.parametrize("n", range(0, 5))
    def test_subset_lanes_match_the_dp(self, n):
        for p in range(0, n + 2):
            table = _tables.closed_bits_all(n, p)
            assert _tables.closed_size_lane(n, p) == bytes(v.bit_count() for v in table), p
            assert _tables.pairwise_lane(n, p) == bytes(
                int(not f & ~v) for f, v in enumerate(table)
            ), p

    @pytest.mark.parametrize("seed", range(12))
    def test_subset_lanes_match_the_dp_on_asymmetric_tables(self, monkeypatch, seed):
        # a random table, where centres may lie outside their own ball and
        # rows and columns differ (rank 1 in ball 0 is made to differ from
        # rank 0 in ball 1): only the columns give the DP's sizes
        rng = random.Random(seed)
        n = (1, 2, 3, 4)[seed % 4]
        table = [rng.getrandbits(1 << n) for _ in range(1 << n)]
        if table[0] >> 1 & 1 == table[1] & 1:
            table[0] ^= 0b10
        table = tuple(table)
        monkeypatch.setattr(_tables, "balls", lambda g, q: table)
        dp = _tables.closed_bits_all(n, 1)
        assert _tables.closed_size_lane(n, 1) == bytes(v.bit_count() for v in dp)
        assert _tables.pairwise_lane(n, 1) == bytes(int(not f & ~v) for f, v in enumerate(dp))

    def test_ball_columns_transpose(self):
        table = (0b011, 0b100, 0b110)
        assert _tables.ball_columns(table) == [0b001, 0b101, 0b110]

    @pytest.mark.parametrize("kernel", ["closed_size_lane", "pairwise_lane"])
    @pytest.mark.parametrize("n", [5, 14, 15])
    def test_subset_lanes_refuse_n5_and_up_before_any_ball_table(self, monkeypatch, kernel, n):
        def no_table(*_):
            raise AssertionError("ball table built before the lane cap was checked")

        monkeypatch.setattr(_tables, "balls", no_table)
        with pytest.raises(InfeasibleError):
            getattr(_tables, kernel)(n, 2)
        with pytest.raises(ValueError):
            getattr(_tables, kernel)(-1, 2)

    @pytest.mark.parametrize("n", [5, 14, 15])
    def test_count_lane_refuses_n5_and_up_before_allocating(self, n):
        # a lane at n = 5 would hold 2^32 bytes
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleError):
                _tables.count_lane(n, 0, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_count_lane_refuses_a_negative_ground(self):
        with pytest.raises(ValueError):
            _tables.count_lane(-1, 0, 0, 1)

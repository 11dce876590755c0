"""Hamming-ball tables: agreement with the definition, and the memory guard."""

import pytest

from hyperb import _tables
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
            for x in range(1 << n):
                assert table[x] == brute_force_ball(x, n, p), (n, p, x)

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

    def test_ground_over_table_capacity_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            _tables.masks_in_order(_tables.MAX_TABLE_BITS + 1)
        with pytest.raises(InfeasibleError):
            _tables.balls(_tables.MAX_TABLE_BITS + 1, 1)

    def test_negative_ground_is_malformed(self):
        with pytest.raises(ValueError):
            _tables.masks_in_order(-1)

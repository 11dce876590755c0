"""Bound formulas, applicability gates, and the auxiliary inequality sweep."""

from dataclasses import fields
from math import comb

import pytest

from hyperb import bounds as bd
from hyperb.neighborhoods import ClosedFormParams, refined_gate_reason


class TestClique:
    @pytest.mark.parametrize("n,p,expected", [(4, 2, 5), (5, 3, 10), (4, 1, 2)])
    def test_spec_values(self, n, p, expected):
        assert bd.clique_number(n, p) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bd.clique_number(2, 1)
        with pytest.raises(ValueError):
            bd.clique_number(5, 5)


class TestUpperOld:
    def test_spec_values(self):
        assert bd.upper_old(7, 5) == 86
        assert bd.upper_old(6, 2) is None  # p <= floor(n/2)
        assert bd.upper_old(5, 4) is None  # p = n-1 excluded

    def test_lower_matches_gate(self):
        assert bd.lower_bound(7, 5) == 64
        assert bd.lower_bound(5, 4) is None


class TestParams:
    def test_spec_values(self):
        p75 = ClosedFormParams(7, 5)
        assert (p75.main_sum, p75.overlap) == (29, 10)
        p53 = ClosedFormParams(5, 3)
        assert (p53.main_sum, p53.overlap) == (6, 3)
        p64 = ClosedFormParams(6, 4)
        assert (p64.main_sum, p64.overlap) == (12, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ClosedFormParams(6, 3)

    def test_parity_fields(self):
        # the two numbers are derived from (n, p), never passed in
        with pytest.raises(TypeError):
            ClosedFormParams(7, 5, main_sum=29, overlap=10)
        assert [f.name for f in fields(ClosedFormParams)] == ["n", "p", "main_sum", "overlap"]

    def test_paper_formulas_up_to_64(self):
        # the paper's two branches, written out: odd n uses (r, s) with
        # q = p - (n-1)/2, even n uses (r', s') with q = p - n/2
        cells = 0
        for n in range(2, 65):
            for p in range(1, n):
                if refined_gate_reason(n, p) is not None:
                    continue
                if n % 2 == 1:
                    q = p - (n - 1) // 2
                    main_sum = sum(comb(n, i) for i in range(q + 1))
                    overlap = comb(p, q)
                else:
                    q = p - n // 2
                    main_sum = sum(comb(n, i) for i in range(q + 1)) + comb(n - 1, q)
                    overlap = comb(p - 1, q)
                params = ClosedFormParams(n, p)
                assert (params.main_sum, params.overlap) == (main_sum, overlap), (n, p)
                cells += 1
        assert cells == 930  # 1 + 2 + ... + 30 for odd n, and again for even n


class TestRefinedBounds:
    def test_rough(self):
        assert bd.upper_rough(7, 5) == 78
        assert bd.upper_rough(5, 3) == 18
        assert bd.upper_rough(6, 3) is None

    def test_new(self):
        assert bd.upper_new(7, 5) == 73
        assert bd.upper_new(5, 3) == 17
        assert bd.upper_new(6, 4) == 36

    def test_even_edge_gates_empty_naturally(self):
        assert bd.upper_new(6, 5) is None  # p > n-2
        assert bd.upper_new(8, 4) is None  # p < n/2+1

    def test_chain_where_all_apply(self):
        for n in range(2, 21):
            for p in range(1, n):
                new, rough, old = bd.upper_new(n, p), bd.upper_rough(n, p), bd.upper_old(n, p)
                if new is not None and rough is not None:
                    assert new <= rough, (n, p)
                if rough is not None and old is not None:
                    assert rough <= old, (n, p)

    def test_gates_mirror_ranges(self):
        for n in range(2, 21):
            for p in range(1, n):
                in_old = n // 2 < p < n - 1
                assert (bd.upper_old(n, p) is not None) == in_old
                assert (bd.lower_bound(n, p) is not None) == in_old
                if n % 2 == 1:
                    in_ref = n >= 5 and (n + 1) // 2 <= p <= n - 2
                else:
                    in_ref = n >= 6 and n // 2 + 1 <= p <= n - 2
                assert (refined_gate_reason(n, p) is None) == in_ref
                assert (bd.upper_rough(n, p) is not None) == in_ref
                assert (bd.upper_new(n, p) is not None) == in_ref

    def test_midpoint_power_closed_form(self):
        # odd n, p = (n+1)/2: the refined bound collapses to
        # 2^(n-1) + floor((n+1)/4)
        for n in range(5, 20, 2):
            p = (n + 1) // 2
            assert bd.upper_new(n, p) == (1 << (n - 1)) + (n + 1) // 4


class TestRGe3S:
    def test_anchor_values(self):
        import math

        assert sum(math.comb(9, i) for i in range(4)) == 130
        assert 3 * math.comb(7, 3) == 105
        assert sum(math.comb(10, i) for i in range(4)) == 176
        assert 3 * math.comb(8, 3) == 168

    def test_sweep(self):
        rep = bd.verify_r_ge_3s(64)
        assert rep.ok and rep.families_checked > 0

    def test_requires_nine(self):
        with pytest.raises(ValueError):
            bd.verify_r_ge_3s(8)

    def test_failing_inequality_is_reported(self, monkeypatch):
        # at n = 9, q = 3: r = 130 against s = C(7, 3) = 35; a binomial that
        # quadruples off n = 9 makes s = 140 and 130 < 3 * 140
        monkeypatch.setattr(bd, "comb", lambda a, b: comb(a, b) * (1 if a == 9 else 4))
        rep = bd.verify_r_ge_3s(9)
        assert rep.violations == [{"n": 9, "q": 3, "r": 130, "s": 140}]


class TestHammingLower:
    def test_spec_values(self):
        assert bd.hamming_lower(3, 2, 2) == 4
        assert bd.hamming_lower(4, 3, 3) == 27
        assert bd.hamming_lower(3, 5, 2) == 25  # p = n-1 gate, q > n-1

    def test_gate_negative(self):
        assert bd.hamming_lower(3, 5, 1) is None
        assert bd.hamming_lower(4, 3, 1) is None  # p < floor(n(q-1)/q) = 2

    def test_main_gate_boundary(self):
        assert bd.hamming_lower(4, 3, 2) == 27  # floor(8/3) = 2
        assert bd.hamming_lower(6, 2, 3) == 32  # floor(6/2) = 3

    def test_exact_big_integers(self):
        # no overflow anywhere: exact value of 7^63
        assert bd.hamming_lower(64, 7, 63) == 7**63


class TestBoundReport:
    def test_spec_rows(self):
        r = bd.bound_report(7, 5)
        assert (r.clique, r.lower, r.upper_old, r.upper_rough, r.upper_new) == (
            44,
            64,
            86,
            78,
            73,
        )
        r = bd.bound_report(5, 3)
        assert (r.lower, r.upper_old, r.upper_rough, r.upper_new) == (16, 21, 18, 17)

    def test_complete_graph_row(self):
        r = bd.bound_report(4, 4)
        assert r.clique == 16
        assert r.lower is None and r.upper_old is None
        assert "complete graph" in r.reasons["upper_new"]

    def test_reasons_distinguish_absence(self):
        r = bd.bound_report(6, 2)
        assert r.upper_old is None and "p > floor(n/2)" in r.reasons["upper_old"]

    def test_q2_cycle_row(self):
        assert bd.bound_report(2, 1).clique == 2

    def test_hamming_column(self):
        r = bd.bound_report(4, 3, q=3)
        assert r.hamming_lower == 27
        r = bd.bound_report(4, 1, q=3)
        assert r.hamming_lower is None and "hamming_lower" in r.reasons

    def test_csv_and_json(self):
        rows = bd.bound_table([5], [3])
        csv = bd.table_to_csv(rows)
        assert csv.splitlines()[0] == "n,p,clique,lower,upper_old,upper_rough,upper_new"
        assert csv.splitlines()[1] == "5,3,10,16,21,18,17"
        payload = bd.table_to_json_dict(rows)
        assert payload["schema"] == 1
        assert payload["rows"][0]["upper_new"] == 17

    def test_absent_serializes_empty_in_csv(self):
        rows = bd.bound_table([6], [2])
        assert bd.table_to_csv(rows).splitlines()[1] == "6,2,7,,,,"

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bd.bound_report(1, 1)
        with pytest.raises(ValueError):
            bd.bound_report(5, 6)

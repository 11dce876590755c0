"""Acceptance suite: one test per exit criterion, at full stated scale.

Each test prints a single PASS line (visible with `pytest -s` or `-rP`)
after asserting the criterion at its stated tolerance.  Sampled sweeps use
fixed seeds; a criterion's sample budget is split evenly across the radii it
covers so every (n, p) cell is exercised.
"""

import math
import time

import pytest

from hyperb import _tables
from hyperb import bcoloring as bc
from hyperb import bounds as bd
from hyperb import compression as cp
from hyperb import neighborhoods as nb
from hyperb.subsets import Family, GroundSet, initial_segment, rank, unrank

SAMPLES_PER_N = 100_000


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE #{number} PASS: {text}")


def test_criterion_01_rank_unrank_bijection():
    started = time.monotonic()
    mismatches = 0
    for n in range(1, 13):
        g = GroundSet.range(n)
        seen = set()
        for r in range(1 << n):
            x = unrank(r, g)
            if rank(x).value != r:
                mismatches += 1
            seen.add(x.bits)
        if len(seen) != 1 << n:
            mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _announce(1, f"rank/unrank bijective for n <= 12 in {elapsed:.2f}s")


def test_criterion_02_initial_segment_closure():
    started = time.monotonic()
    violations = 0
    pairs = 0
    for n in range(1, 11):
        report = nb.verify_initial_segment_closure(n)
        violations += len(report.violations)
        pairs += report.families_checked
    elapsed = time.monotonic() - started
    assert violations == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _announce(
        2,
        f"closed neighborhoods of all {pairs} (segment, p) pairs for n <= 10 "
        f"are initial segments in {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_03_close_inequality():
    for n in (3, 4):
        for p in range(1, n):
            report = nb.verify_close_inequality(n, p, "exhaustive")
            assert report.ok, report.violations
            assert report.families_checked == 1 << (1 << n)
    total_sampled = 0
    for n in range(5, 11):
        per_p = -(-SAMPLES_PER_N // (n - 1))  # ceil
        for p in range(1, n):
            report = nb.verify_close_inequality(
                n, p, "sample", samples=per_p, seed=1000 * n + p
            )
            assert report.ok, report.violations
            total_sampled += report.families_checked
        assert per_p * (n - 1) >= SAMPLES_PER_N
    _announce(
        3,
        "closed-neighborhood maximality: exhaustive at n in {3,4}, "
        f"{total_sampled} sampled families across n in 5..10, 0 violations",
    )


@pytest.mark.slow
def test_criterion_04_open_inequality():
    for n in (3, 4):
        for p in range(1, n):
            report = nb.verify_open_inequality(n, p, "exhaustive")
            assert report.ok, report.violations
    total_sampled = 0
    for n in range(5, 11):
        per_p = -(-SAMPLES_PER_N // (n - 1))
        for p in range(1, n):
            report = nb.verify_open_inequality(
                n, p, "sample", samples=per_p, seed=2000 * n + p
            )
            assert report.ok, report.violations
            total_sampled += report.families_checked
    _announce(
        4,
        "open-neighborhood maximality under the pairwise hypothesis: "
        f"exhaustive at n in {{3,4}}, {total_sampled} sampled families, 0 violations",
    )


def test_criterion_05_section_identity():
    checked = 0
    for n in (1, 2, 3):
        report = nb.verify_section_identity(n, "exhaustive")
        assert report.ok, report.violations
        checked += report.families_checked
    for n in (4, 5):
        report = nb.verify_section_identity(n, "sample", samples=10_000, seed=300 + n)
        assert report.ok, report.violations
        checked += report.families_checked
    _announce(
        5,
        f"section decomposition of closed neighborhoods matches direct "
        f"computation on {checked} families (n <= 5), all coordinates and radii",
    )


def test_criterion_06_closed_form_and_strict_drop():
    started = time.monotonic()
    cells = 0
    for n in range(5, 12):
        for p in range(1, n):
            if not nb.ClosedFormParams.in_range(n, p):
                continue
            report = nb.verify_closed_form(n, p)
            assert report.ok, (n, p, report.violations, report.details)
            cells += 1
    elapsed = time.monotonic() - started
    assert cells == 16  # valid (n, p) cells for n = 5..11: 1+1+2+2+3+3+4
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5min"
    _announce(
        6,
        f"closed-form open counts exact and the next segment strictly below "
        f"the shifted value on all {cells} (n, p) cells with 5 <= n <= 11 "
        f"in {elapsed:.1f}s",
    )


def test_criterion_07_compression_fixpoints():
    for n in (3, 4):
        report = cp.verify_fixpoint_classification(n)
        assert report.ok, report.violations
        assert report.families_checked == 1 << (1 << n)
        kinds = report.details["kinds"]
        assert kinds["exceptional_odd" if n % 2 else "exceptional_even"] > 0
    # the two explicit exceptional families
    g3 = GroundSet.range(3)
    exc3 = Family.from_labels(g3, [[], [1], [2], [1, 2]])
    assert cp.exceptional_family(g3).bit_masks() == exc3.bit_masks()
    for fam, n in ((exc3, 3), (cp.exceptional_family(GroundSet.range(4)), 4)):
        assert len(fam) == 1 << (n - 1)
        assert all(cp.is_compressed(fam, i) for i in range(1, n + 1))
        assert not nb.is_initial_segment(fam)
        kind = cp.classify_fixpoint(fam).kind
        assert kind == ("exceptional_odd" if n % 2 else "exceptional_even")
    _announce(
        7,
        "every family at n in {3,4} compresses to an initial segment or the "
        "known exceptional form; both explicit exceptional families confirmed",
    )


def test_criterion_08_bound_chain_and_anchors():
    for n in range(2, 21):
        for p in range(1, n + 1):
            report = bd.bound_report(n, p)
            chain = [
                v
                for v in (report.upper_new, report.upper_rough, report.upper_old)
                if v is not None
            ]
            assert chain == sorted(chain), (n, p, chain)
            if report.lower is not None and report.upper_new is not None:
                assert report.lower <= report.upper_new
    assert bd.upper_new(7, 5) == (1 << 6) + 9  # 73
    for n in range(5, 20, 2):
        assert bd.upper_new(n, (n + 1) // 2) == (1 << (n - 1)) + (n + 1) // 4
    _announce(
        8,
        "bound chain holds over n <= 20; refined bound reproduces the "
        "(7,5) = 73 anchor and the odd midpoint formula for 5 <= n <= 19",
    )


def test_criterion_09_r_ge_3s():
    report = bd.verify_r_ge_3s(64)
    assert report.ok, report.violations
    assert sum(math.comb(9, i) for i in range(4)) == 130
    assert 3 * math.comb(3 + 4, 3) == 105
    _announce(
        9,
        f"r >= 3s over 9 <= n <= 64 ({report.families_checked} pairs, "
        "0 violations) including the n=9 anchor r=130 >= 105",
    )


def _gated_coset_instances(max_vertices: int = 243):
    out = []
    for n in range(2, 9):
        q = 2
        while q**n <= max_vertices:
            for p in range(1, n):
                if bd.hamming_gate(n, q, p):
                    out.append((n, q, p))
            q += 1
    return out


def test_criterion_10_coset_bcoloring():
    instances = _gated_coset_instances()
    required = {
        (3, 2, 1), (3, 2, 2), (4, 2, 2), (4, 2, 3), (4, 3, 3),
        (5, 2, 2), (5, 2, 3), (5, 2, 4), (3, 5, 2),
    }
    assert required <= set(instances)
    for (n, q, p) in instances:
        cert = bc.verify_coset_bcoloring(n, q, p)
        assert cert.valid_b, (n, q, p)
        assert cert.k == q ** (n - 1), (n, q, p)
        g = bc.hamming_power(n, q, p)
        assert bc.all_vertices_dominating(g, bc.coset_coloring(n, q)), (n, q, p)
    _announce(
        10,
        f"coset coloring is a b-coloring with q^(n-1) colors and every vertex "
        f"dominating on all {len(instances)} gated instances with q^n <= 243",
    )


def test_criterion_11_exact_solver_sanity(solve_cube):
    # solve_cube runs each solve once per session (with a 5M-node, 55 s
    # budget) and returns the time of that real solve
    expectations = [(2, 1, 2), (3, 1, 4)] + [(n, n, 1 << n) for n in (2, 3, 4)]
    timings = []
    for (n, p, expected) in expectations:
        g = bc.hypercube_power(n, p)
        result, elapsed = solve_cube(n, p)
        timings.append(elapsed)
        assert elapsed < 60.0, (n, p, elapsed)
        assert result.exact and result.value == expected, (n, p, result.value)
        assert bc.validate_coloring(g, result.coloring).valid_b
    for p in (1, 2, 3):
        g = bc.hypercube_power(4, p)
        result, elapsed = solve_cube(4, p)
        timings.append(elapsed)
        assert elapsed < 60.0, (4, p, elapsed)
        assert result.exact
        assert bc.validate_coloring(g, result.coloring).valid_b
        report = bd.bound_report(4, p)
        if report.lower is not None:
            assert report.lower <= result.value
        for ub in (report.upper_old, report.upper_rough, report.upper_new):
            if ub is not None:
                assert result.value <= ub
    _announce(
        11,
        "solver exact on the anchor instances and on all powers of the 4-cube "
        f"(max instance {max(timings):.1f}s, budget 60s each)",
    )


def test_criterion_12_compressed_families_are_known_fixpoints():
    # A family compressed at coordinate 1 is minus_prefix[a] | plus_prefix[b],
    # so these (2^(n-1)+1)^2 candidates cover every all-coordinate fixpoint.
    started = time.monotonic()
    for n in range(2, 11):
        t = _tables.section_tables(n, 0)
        kept = {
            fam
            for fam in (a | b for a in t.minus_prefix for b in t.plus_prefix)
            if all(_tables.compress_bits(fam, n, j) == fam for j in range(n))
        }
        exc = cp.exceptional_bits(n)
        want = {_tables.prefix_bits(m) for m in range((1 << n) + 1)} | {exc}
        assert kept == want, n
        size = exc.bit_count()
        for p in range(1, n):
            closed = _tables.closed_bits(exc, n, p)
            assert closed.bit_count() <= _tables.initial_segment_closed_sizes(n, p)[size]
            assert (closed & ~exc).bit_count() <= _tables.initial_segment_open_sizes(n, p)[size]
    elapsed = time.monotonic() - started
    _announce(
        12,
        "for 2 <= n <= 10 the families compressed at every coordinate are the "
        "initial segments and the exceptional family, whose closed and open "
        f"sizes stay within the segment bounds at every p < n ({elapsed:.1f}s)",
    )

"""The all-families sweeps on byte lanes (close, open, compression and
fixpoint), the sampled close and open sweeps and the simplicial sweep,
against per-family loops kept here as oracles: equal reports, violation
order included, on the real tables and under seeded faults."""

import random

import pytest

from hyperb import _tables
from hyperb import compression as cp
from hyperb import neighborhoods as nb
from hyperb.errors import IntegrityError


def close_oracle(n, p):
    """verify_close_inequality(n, p, "exhaustive") one family at a time."""
    report = nb.VerifyReport(
        check="close", n=n, p=p, mode="exhaustive", families_checked=1 << (1 << n)
    )
    return _close_tally(report, enumerate(_tables.closed_bits_all(n, p)))


def sampled_close_oracle(n, p, samples, seed):
    """verify_close_inequality(n, p, "sample", samples, seed) one family at
    a time: each family drawn in full and its neighborhood walked by
    closed_bits, as the sweep did before it folded the balls into the
    draws."""
    report = nb.VerifyReport(
        check="close", n=n, p=p, mode="sample", families_checked=samples, seed=seed
    )
    families = nb.sweep_families(n, "sample", samples, seed)[0]
    return _close_tally(report, ((fam, _tables.closed_bits(fam, n, p)) for fam in families))


def _close_tally(report, closed):
    """The close report over (family, C^p[family]) pairs, in their order."""
    n, p = report.n, report.p
    bound = _tables.initial_segment_closed_sizes(n, p)
    max_slack = 0
    for fam, val in closed:
        size = val.bit_count()
        slack = bound[fam.bit_count()] - size
        if slack < 0:
            report.violations.append(
                {
                    "family": nb.family_bits_to_strings(fam, n),
                    "n": n,
                    "p": p,
                    "closed_size": size,
                    "bound": bound[fam.bit_count()],
                }
            )
        elif slack > max_slack:
            max_slack = slack
    report.max_slack = max_slack
    return report


def sampled_open_draws(n, p, samples, seed):
    """The (family, closed neighborhood) pairs of
    verify_open_inequality(n, p, "sample", samples, seed), one family at a
    time: each grown by randint and randrange picks from the subsets within
    p of all its members and not yet in it (rejection while at least 2^n/8
    are left, else the randrange(count)-th), its closed neighborhood the
    running AND of its members' balls."""
    ball = _tables.balls(n, p)
    width = 1 << n
    rng = random.Random(seed)
    for _ in range(samples):
        fam, closed = 0, _tables.universe_bits(n)
        for _ in range(rng.randint(1, width >> 1)):
            pool = closed & ~fam
            count = pool.bit_count()
            if not count:
                break
            if count * 8 >= width:
                r = rng.randrange(width)
                while not pool >> r & 1:
                    r = rng.randrange(width)
            else:
                r = list(_tables.iter_bits(pool))[rng.randrange(count)]
            fam |= 1 << r
            closed &= ball[r]
        yield fam, closed


def sampled_open_oracle(n, p, samples, seed):
    """verify_open_inequality(n, p, "sample", samples, seed) one family at
    a time (sampled_open_draws): the open neighborhood is the closed one
    less the family."""
    bound = _tables.initial_segment_open_sizes(n, p)
    report = nb.VerifyReport(
        check="open", n=n, p=p, mode="sample", families_checked=samples, seed=seed
    )
    max_slack = 0
    for fam, closed in sampled_open_draws(n, p, samples, seed):
        size = (closed & ~fam).bit_count()
        slack = bound[fam.bit_count()] - size
        if slack < 0:
            report.violations.append(
                {
                    "family": nb.family_bits_to_strings(fam, n),
                    "n": n,
                    "p": p,
                    "open_size": size,
                    "bound": bound[fam.bit_count()],
                }
            )
        elif slack > max_slack:
            max_slack = slack
    report.max_slack = max_slack
    return report


def open_oracle(n, p):
    """verify_open_inequality(n, p, "exhaustive") one family at a time: the
    families that lie inside their own closed neighborhood are those whose
    members are pairwise within p."""
    bound = _tables.initial_segment_open_sizes(n, p)
    report = nb.VerifyReport(check="open", n=n, p=p, mode="exhaustive", families_checked=0)
    report.details["families_scanned"] = 1 << (1 << n)
    max_slack = 0
    for fam, val in enumerate(_tables.closed_bits_all(n, p)):
        if fam & ~val:
            continue
        report.families_checked += 1
        size = (val & ~fam).bit_count()
        slack = bound[fam.bit_count()] - size
        if slack < 0:
            report.violations.append(
                {
                    "family": nb.family_bits_to_strings(fam, n),
                    "n": n,
                    "p": p,
                    "open_size": size,
                    "bound": bound[fam.bit_count()],
                }
            )
        elif slack > max_slack:
            max_slack = slack
    report.max_slack = max_slack
    return report


def compression_oracle(n):
    """verify_compression_inequality(n, "exhaustive") one family at a time."""
    report = nb.VerifyReport(
        check="compression", n=n, p=None, mode="exhaustive", families_checked=1 << (1 << n)
    )
    compressors = [_tables.section_tables(n, j).compress for j in range(n)]
    by_radius = [
        (p, [val.bit_count() for val in _tables.closed_bits_all(n, p)]) for p in range(1, n)
    ]
    for fam in range(1 << (1 << n)):
        for j, compress_j in enumerate(compressors):
            comp = compress_j(fam)
            for p, sz in by_radius:
                if sz[fam] > sz[comp]:
                    report.violations.append(
                        {
                            "family": nb.family_bits_to_strings(fam, n),
                            "i": j + 1,
                            "p": p,
                            "size": sz[fam],
                            "compressed_size": sz[comp],
                        }
                    )
    return report


def fixpoint_oracle(n):
    """verify_fixpoint_classification(n) one family at a time."""
    report = nb.VerifyReport(
        check="fixpoint", n=n, p=None, mode="exhaustive", families_checked=1 << (1 << n)
    )
    counts = {cp.KIND_INITIAL_SEGMENT: 0, cp.KIND_EXCEPTIONAL_ODD: 0, cp.KIND_EXCEPTIONAL_EVEN: 0}
    max_steps = 0
    for fam, fixed, steps in cp.fixpoint_scans(range(1 << (1 << n)), n, {}):
        if fixed.bit_count() != fam.bit_count():
            report.violations.append(
                {"family": nb.family_bits_to_strings(fam, n), "error": "size changed"}
            )
            continue
        try:
            kind, _ = cp.classify_fixpoint_bits(fixed, n)
        except IntegrityError:
            report.violations.append(
                {
                    "family": nb.family_bits_to_strings(fam, n),
                    "fixpoint": nb.family_bits_to_strings(fixed, n),
                    "error": "unclassifiable fixpoint",
                }
            )
            continue
        if kind == cp.KIND_NOT_FIXPOINT:
            report.violations.append(
                {
                    "family": nb.family_bits_to_strings(fam, n),
                    "fixpoint": nb.family_bits_to_strings(fixed, n),
                    "error": "scan terminated on a non-fixpoint",
                }
            )
            continue
        counts[kind] += 1
        max_steps = max(max_steps, steps)
    report.details = {"kinds": counts, "max_steps": max_steps}
    return report


def assert_close_matches(n):
    for p in range(1, n + 1):
        got = nb.verify_close_inequality(n, p, "exhaustive").as_json_dict()
        assert got == close_oracle(n, p).as_json_dict(), p


def assert_open_matches(n):
    for p in range(1, n + 1):
        got = nb.verify_open_inequality(n, p, "exhaustive").as_json_dict()
        assert got == open_oracle(n, p).as_json_dict(), p


def assert_compression_matches(n):
    got = cp.verify_compression_inequality(n, "exhaustive").as_json_dict()
    assert got == compression_oracle(n).as_json_dict()


def assert_fixpoint_matches(n):
    assert cp.verify_fixpoint_classification(n).as_json_dict() == fixpoint_oracle(n).as_json_dict()


class TestRealTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_close_sweep(self, n):
        assert_close_matches(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_open_sweep(self, n):
        assert_open_matches(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_compression_sweep(self, n):
        assert_compression_matches(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_fixpoint_sweep(self, n):
        assert_fixpoint_matches(n)


def fault_ball_table(monkeypatch, n, p, flips):
    """Flip the bits (rank, y) of `flips` in the ball table of radius p at
    ground size n, as tests/test_neighborhoods.py patches a ball table;
    every radius and segment size table of that ground is built first, so
    none holds the fault."""
    real = _tables.balls
    for radius in range(n + 1):
        real(n, radius)
        _tables.segment_size_tables(n, radius)
    bad = list(real(n, p))
    for r, y in flips:
        bad[r] ^= 1 << y
    bad = tuple(bad)
    monkeypatch.setattr(_tables, "balls", lambda g, q: bad if (g, q) == (n, p) else real(g, q))


def flip_ball_bits(monkeypatch, seed):
    """Flip three seeded bits in the ball table of one seeded radius
    (fault_ball_table).  Returns (n, p)."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    p = rng.randrange(1, n)
    flips = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(3)]
    fault_ball_table(monkeypatch, n, p, flips)
    return n, p


def faulted_sweeps(n):
    """(close, open, compression) reports of the exhaustive sweeps at n,
    each equal to its oracle's."""
    close = [nb.verify_close_inequality(n, p, "exhaustive") for p in range(1, n + 1)]
    opened = [nb.verify_open_inequality(n, p, "exhaustive") for p in range(1, n + 1)]
    compression = cp.verify_compression_inequality(n, "exhaustive")
    assert [r.as_json_dict() for r in close] == [
        close_oracle(n, p).as_json_dict() for p in range(1, n + 1)
    ]
    assert [r.as_json_dict() for r in opened] == [
        open_oracle(n, p).as_json_dict() for p in range(1, n + 1)
    ]
    assert compression.as_json_dict() == compression_oracle(n).as_json_dict()
    return close, opened, compression


class TestBallFaults:
    # seed 5 faults radius 3 at n = 4, which breaks about 10^5 (family, j, p)
    # triples: the witnesses alone take seconds to render
    @pytest.mark.parametrize(
        "seed", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow), 6, 7, 8]
    )
    def test_sweeps_match_the_oracles(self, monkeypatch, seed):
        n, _ = flip_ball_bits(monkeypatch, seed)
        _, _, compression = faulted_sweeps(n)
        # the fault must show, or the comparison shows nothing
        assert compression.violations

    def test_one_way_fault_tells_columns_from_rows(self, monkeypatch):
        # the empty set (rank 0) put into the 2-ball of {1,2,3,4} (rank 15)
        # and not the other way round: row 15 gains rank 0 and column 0
        # gains rank 15.  By the columns, {{1,2,3,4}} gains a neighbour and
        # {{}, {1,2,3,4}} stays not pairwise; read by the rows, {{}} would
        # gain it and that pair would pass
        n, p = 4, 2
        clean = nb.verify_open_inequality(n, p, "exhaustive").families_checked
        fault_ball_table(monkeypatch, n, p, [(15, 0)])
        close, opened, _ = faulted_sweeps(n)
        families = [v["family"] for v in close[p - 1].violations]
        assert ["{1,2,3,4}"] in families and ["{}"] not in families
        assert opened[p - 1].families_checked == clean


class TestSampledCloseFaults:
    """The sampled close sweep folds the ball table into each draw and
    drains the draws whose neighborhood empties; on a faulted table its
    report must be the per-family one, witnesses and their order
    included."""

    @pytest.mark.parametrize("seed", range(9))
    def test_sweep_matches_the_oracle(self, monkeypatch, seed):
        with monkeypatch.context() as patch:
            n, p = flip_ball_bits(patch, seed)
        families = list(nb.sweep_families(n, "sample", 2000, seed)[0])
        clean = [_tables.closed_bits(fam, n, p) for fam in families]
        flip_ball_bits(monkeypatch, seed)
        got = nb.verify_close_inequality(n, p, "sample", samples=2000, seed=seed)
        assert got.as_json_dict() == sampled_close_oracle(n, p, 2000, seed).as_json_dict()
        # the fault must reach a drawn family, or the comparison shows nothing
        assert [_tables.closed_bits(fam, n, p) for fam in families] != clean

    def test_one_way_fault(self, monkeypatch):
        # rank 0 put into the 2-ball of rank 15 only: {{1,2,3,4}} gains a
        # neighbour, {{}} does not
        n, p = 4, 2
        fault_ball_table(monkeypatch, n, p, [(15, 0)])
        got = nb.verify_close_inequality(n, p, "sample", samples=2000, seed=3)
        assert got.as_json_dict() == sampled_close_oracle(n, p, 2000, 3).as_json_dict()
        families = [v["family"] for v in got.violations]
        assert ["{1,2,3,4}"] in families and ["{}"] not in families

    @pytest.mark.parametrize("n, p", [(6, 2), (8, 3)])
    def test_every_ball_gaining_a_subset(self, monkeypatch, n, p):
        # one seeded subset outside each ball put into it: every singleton
        # becomes a violation, and singletons take random.sample's set
        # branch, which folds the members after its picks
        rng = random.Random(n)
        ball = _tables.balls(n, p)
        flips = []
        for r in range(1 << n):
            y = rng.randrange(1 << n)
            while ball[r] >> y & 1:
                y = rng.randrange(1 << n)
            flips.append((r, y))
        fault_ball_table(monkeypatch, n, p, flips)
        got = nb.verify_close_inequality(n, p, "sample", samples=600, seed=n)
        assert got.as_json_dict() == sampled_close_oracle(n, p, 600, n).as_json_dict()
        assert any(len(v["family"]) == 1 for v in got.violations)


class TestSampledOpenFaults:
    """The sampled open sweep takes |C^p(A)| as |pool| - |A| from its
    grower and parses a family only for a witness; on a faulted symmetric
    table (both (r, y) and (y, r) flipped, as the grower requires) its
    report must be the per-family one, witnesses and their order
    included."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_one_symmetric_flip(self, monkeypatch, n):
        # r is a member of a family drawn on the true table and y a subset
        # outside r's ball but in every other member's: in r's ball, y joins
        # that family's neighborhood unless an earlier draw changes first
        rng = random.Random(n)
        p = rng.randrange(1, n - 1)
        ball = _tables.balls(n, p)
        clean = list(sampled_open_draws(n, p, 300, n))
        flips = []
        for fam, _ in clean:
            for r in _tables.iter_bits(fam):
                gain = _tables.closed_bits(fam ^ 1 << r, n, p) & ~ball[r]
                if gain:
                    y = rng.choice(list(_tables.iter_bits(gain)))
                    flips = [(r, y), (y, r)]
                    break
            if flips:
                break
        fault_ball_table(monkeypatch, n, p, flips)
        got = nb.verify_open_inequality(n, p, "sample", samples=300, seed=n)
        assert got.as_json_dict() == sampled_open_oracle(n, p, 300, n).as_json_dict()
        # the fault must reach a drawn family, or the comparison shows nothing
        assert list(sampled_open_draws(n, p, 300, n)) != clean

    @pytest.mark.parametrize("n, p, seed", [(5, 3, 0), (6, 4, 1), (7, 5, 2), (8, 2, 0)])
    def test_every_ball_gaining_its_partner(self, monkeypatch, n, p, seed):
        # x and x xor mask put into each other's balls, mask of weight
        # above p: every ball gains one subset, so the balls stay symmetric
        # and of one size, and the drawn families break the bound
        rng = random.Random(seed * 100 + n)
        mask = sum(1 << c for c in rng.sample(range(n), rng.randrange(p + 1, n + 1)))
        order, rank = _tables.masks_in_order(n), _tables.rank_of_mask(n)
        fault_ball_table(monkeypatch, n, p, [(r, rank[order[r] ^ mask]) for r in range(1 << n)])
        got = nb.verify_open_inequality(n, p, "sample", samples=300, seed=seed)
        assert got.as_json_dict() == sampled_open_oracle(n, p, 300, seed).as_json_dict()
        assert got.violations

    @pytest.mark.parametrize("n, p, seed", [(6, 4, 1), (7, 5, 2)])
    def test_ball_without_its_centre(self, monkeypatch, n, p, seed):
        # the partner fault above, and the subset of rank 0 taken out of its
        # own ball: a pick of it leaves the pool, so |pool| - |A| is one
        # short for the families holding it.  The sweep tallies that short
        # count, which here hides a violation, and gives every witness its
        # exact size
        rng = random.Random(seed * 100 + n)
        mask = sum(1 << c for c in rng.sample(range(n), rng.randrange(p + 1, n + 1)))
        order, rank = _tables.masks_in_order(n), _tables.rank_of_mask(n)
        flips = [(r, rank[order[r] ^ mask]) for r in range(1 << n)]
        fault_ball_table(monkeypatch, n, p, flips + [(0, 0)])
        draws = []
        grow = nb._grow_pairwise_family

        def recorded(*args):
            draws.append(grow(*args))
            return draws[-1]

        monkeypatch.setattr(nb, "_grow_pairwise_family", recorded)
        got = nb.verify_open_inequality(n, p, "sample", samples=300, seed=seed)
        bound = _tables.initial_segment_open_sizes(n, p)
        exact, tallied, short = [], [], 0
        for m, pool, taken in draws:
            fam = nb._taken_bits(taken)
            assert m == fam.bit_count() and pool == _tables.closed_bits(fam, n, p)
            size = (pool & ~fam).bit_count()
            witness = {
                "family": nb.family_bits_to_strings(fam, n),
                "n": n,
                "p": p,
                "open_size": size,
                "bound": bound[m],
            }
            if size > bound[m]:
                exact.append(witness)
            if pool.bit_count() - m > bound[m]:
                tallied.append(witness)
                short += pool.bit_count() - m < size
        assert got.violations == tallied
        assert len(tallied) < len(exact) and all(w in exact for w in tallied)
        assert short  # a witness whose tallied count was short

    def test_sparse_pick_outside_its_own_ball(self, monkeypatch):
        # the partner fault, and rank 2^n - 1 taken out of its own ball: a
        # sparse-phase pick of it leaves the pool, which once made the rank
        # list cut a rank it no longer held (IndexError).  The sweep now
        # reports, and every witness holds at its exact size
        n, p, seed = 6, 4, 1
        rng = random.Random(seed * 100 + n)
        mask = sum(1 << c for c in rng.sample(range(n), rng.randrange(p + 1, n + 1)))
        order, rank = _tables.masks_in_order(n), _tables.rank_of_mask(n)
        flips = [(r, rank[order[r] ^ mask]) for r in range(1 << n)]
        last = (1 << n) - 1
        fault_ball_table(monkeypatch, n, p, flips + [(last, last)])
        got = nb.verify_open_inequality(n, p, "sample", samples=300, seed=seed)
        bound = _tables.initial_segment_open_sizes(n, p)
        strings = nb._subset_strings(n)
        assert got.violations
        for w in got.violations:
            fam = sum(1 << strings.index(x) for x in w["family"])
            size = (_tables.closed_bits(fam, n, p) & ~fam).bit_count()
            assert w["open_size"] == size > w["bound"] == bound[fam.bit_count()], w


def simplicial_oracle(n):
    """The (a, p, closed) violations of verify_initial_segment_closure(n):
    every segment closure C^p[I_a] walked in full, a running AND over the
    balls, and tested against the initial-segment form 2^k - 1."""
    out = []
    for p in range(1, n + 1):
        cur = _tables.universe_bits(n)
        for a, ball in enumerate(_tables.balls(n, p), 1):
            cur &= ball
            if cur & (cur + 1):
                out.append({"a": a, "p": p, "closed": nb.family_bits_to_strings(cur, n)})
    return out


class TestSimplicialFaults:
    """The simplicial sweep walks the table balls(n, p) reads now, not the
    walk cached for the size tables: a fault patched in after the size
    tables are built is reported."""

    @pytest.mark.parametrize("n", [6, 10])
    def test_fault_after_the_size_tables_is_reported(self, monkeypatch, n):
        # seeded flips at two radii: the ball of rank 0 gains a far subset,
        # and the lowest member of a later closure C^p[I_a] with two or more
        # members leaves the ball of rank a - 1
        rng = random.Random(n)
        for p in (2, n - 2):
            ball = _tables.balls(n, p)
            far = [y for y in range(1 << n) if not ball[0] >> y & 1]
            walk = list(_tables.segment_closures(n, p))
            a = rng.choice([a for a in range(2, len(walk)) if walk[a].bit_count() >= 2])
            low = (walk[a] & -walk[a]).bit_length() - 1
            fault_ball_table(monkeypatch, n, p, [(0, rng.choice(far)), (a - 1, low)])
        report = nb.verify_initial_segment_closure(n)
        assert report.violations == simplicial_oracle(n)
        assert {v["p"] for v in report.violations} == {2, n - 2}
        assert report.families_checked == n * ((1 << n) + 1)

    def test_a_faulted_sweep_leaves_the_size_tables_alone(self, monkeypatch):
        # the sweep runs first on a table faulted before any size table of
        # its ground is cached; the size tables built once the fault is
        # undone must be the true table's
        n, p = 3, 1
        _tables.segment_size_tables.cache_clear()
        real = _tables.balls
        bad = list(real(n, p))
        bad[0] ^= 1 << 7  # {} gains {1,2,3}
        bad = tuple(bad)
        with monkeypatch.context() as patch:
            patch.setattr(_tables, "balls", lambda g, q: bad if (g, q) == (n, p) else real(g, q))
            assert nb.verify_initial_segment_closure(n).violations
        cur = _tables.universe_bits(n)
        closed = [cur]
        for ball in real(n, p):
            cur &= ball
            closed.append(cur)
        assert _tables.initial_segment_closed_sizes(n, p) == tuple(c.bit_count() for c in closed)
        assert _tables.initial_segment_open_sizes(n, p) == tuple(
            (c >> m).bit_count() for m, c in enumerate(closed)
        )


class TestSizeLaneMemo:
    def test_a_faulted_table_is_a_new_key(self, monkeypatch):
        # closed_size_lane is memoised by the ball table's content: the lane
        # of a faulted table is built from that table, and the true lane
        # comes back once the fault is undone
        n, p = 4, 2
        true_lane = _tables.closed_size_lane(n, p)
        with monkeypatch.context() as patch:
            fault_ball_table(patch, n, p, [(15, 0), (3, 9), (9, 9)])
            faulted = _tables.closed_size_lane(n, p)
            assert faulted == bytes(v.bit_count() for v in _tables.closed_bits_all(n, p))
            assert faulted != true_lane
        hits = _tables._size_lane.cache_info().hits
        assert _tables.closed_size_lane(n, p) == true_lane
        assert true_lane == bytes(v.bit_count() for v in _tables.closed_bits_all(n, p))
        info = _tables._size_lane.cache_info()
        assert info.hits == hits + 1
        assert info.maxsize == _tables.SIZE_LANE_MEMO and info.currsize <= info.maxsize

    def test_the_sweeps_build_each_lane_once(self):
        # the exhaustive close, open and compression sweeps at n = 4 read
        # the size lanes of radii 1..4, 1..4 and 1..3: four lanes in all
        _tables._size_lane.cache_clear()
        for p in range(1, 5):
            nb.verify_close_inequality(4, p, "exhaustive")
            nb.verify_open_inequality(4, p, "exhaustive")
        cp.verify_compression_inequality(4, "exhaustive")
        info = _tables._size_lane.cache_info()
        assert (info.misses, info.hits) == (4, 7)

    def test_every_true_lane_fits_the_memo(self):
        # keyed as the memo keys them: a radius above n is the radius-n table
        tables = {(n, tuple(_tables.balls(n, p))) for n in range(5) for p in range(n + 2)}
        assert len(tables) <= _tables.SIZE_LANE_MEMO


class TestCompressionFaults:
    def test_corrupted_image_entry_reports_its_group(self, monkeypatch):
        # emptying the entry for the image of one pair of section sizes at
        # coordinate j, in the size lane the sweep reads and in the DP the
        # oracle reads, makes every other family with that image (all of
        # whose neighborhoods at radius p are nonempty) a violation at (j, p),
        # and no other (family, j, p): the image is compressed at j only
        n, j, p = 4, 2, 2
        t = _tables.section_tables(n, j)
        image = t.compress(t.minus_prefix[1] | t.plus_prefix[2])
        assert [k for k in range(n) if _tables.compress_bits(image, n, k) == image] == [j]
        group = [f for f in range(1 << (1 << n)) if t.compress(f) == image and f != image]
        real = _tables.closed_bits_all
        sizes = [val.bit_count() for val in real(n, p)]
        assert len(group) == 223 and all(sizes[f] for f in group)

        def corrupted(g, radius):
            table = real(g, radius)
            if radius == p:
                table[image] = 0
            return table

        real_lane = _tables.closed_size_lane

        def corrupted_lane(g, radius):
            lane = bytearray(real_lane(g, radius))
            if radius == p:
                lane[image] = 0
            return bytes(lane)

        monkeypatch.setattr(_tables, "closed_bits_all", corrupted)
        monkeypatch.setattr(_tables, "closed_size_lane", corrupted_lane)
        rep = cp.verify_compression_inequality(n, "exhaustive")
        assert [(v["family"], v["i"], v["p"]) for v in rep.violations] == [
            (nb.family_bits_to_strings(f, n), j + 1, p) for f in group
        ]
        assert all(v["compressed_size"] == 0 for v in rep.violations)
        assert [v["size"] for v in rep.violations] == [sizes[f] for f in group]
        assert rep.as_json_dict() == compression_oracle(n).as_json_dict()
        # the sweep reads the size lane: the corrupted DP alone shows nothing
        monkeypatch.setattr(_tables, "closed_size_lane", real_lane)
        assert cp.verify_compression_inequality(n, "exhaustive").ok

    def test_compression_to_the_universe(self, monkeypatch):
        monkeypatch.setattr(
            _tables.SectionTables, "compress", lambda self, fam: _tables.universe_bits(self.n)
        )
        rep = cp.verify_compression_inequality(3, "exhaustive")
        assert len(rep.violations) == 984
        assert rep.as_json_dict() == compression_oracle(3).as_json_dict()


class TestFixpointGroups:
    @pytest.mark.parametrize("n", range(0, 5))
    def test_groups_expand_to_whole_scans(self, n):
        scans = []
        for count, size, families, fixed, steps in cp.fixpoint_groups(n, {}):
            members = list(families)
            assert len(members) == count and {f.bit_count() for f in members} == {size}
            scans += [(f, fixed, steps) for f in members]
        # every family once, with its whole scan
        assert sorted(scans) == [(f, *cp.compress_fully_bits(f, n)) for f in range(1 << (1 << n))]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_few_families_are_scanned_alone(self, n):
        alone = sum(1 for group in cp.fixpoint_groups(n, {}) if group[0] == 1)
        assert alone <= 2 * ((1 << (n - 1)) + 1) ** 2

    def test_size_change_in_the_first_step(self, monkeypatch):
        real = _tables.SectionTables.compress
        monkeypatch.setattr(
            _tables.SectionTables, "compress", lambda self, fam: real(self, fam) if self.j else 0
        )
        rep = cp.verify_fixpoint_classification(2)
        assert len(rep.violations) == 15
        assert rep.details == {
            "kinds": {"initial_segment": 1, "exceptional_odd": 0, "exceptional_even": 0},
            "max_steps": 0,
        }
        assert rep.as_json_dict() == fixpoint_oracle(2).as_json_dict()

    @pytest.mark.parametrize(
        "rest",
        [lambda fam, n, start: (fam ^ 1, 0), lambda fam, n, start: (fam, 0)],
        ids=["size-changed", "stopped-early"],
    )
    def test_faulty_rest_of_a_scan(self, monkeypatch, rest):
        monkeypatch.setattr(cp, "compress_fully_bits", rest)
        for n in (2, 3):
            assert_fixpoint_matches(n)

    def test_unclassifiable_fixpoint(self, monkeypatch):
        real = cp.exceptional_bits
        monkeypatch.setattr(cp, "exceptional_bits", lambda n: real(n) ^ 1)
        assert_fixpoint_matches(4)

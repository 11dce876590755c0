"""Power graphs, coloring validation, coset colorings, and the exact solver."""

import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest

from hyperb import _tables
from hyperb import bcoloring as bc
from hyperb import bounds
from hyperb.errors import InfeasibleError, IntegrityError

BUDGET = bc.SolveBudget()


class TestPowerGraph:
    def test_vertex_counts(self):
        assert bc.hypercube_power(4, 2).vertex_count == 16
        assert bc.hamming_power(3, 3, 1).vertex_count == 27

    def test_adjacency_spec_examples(self):
        g = bc.hypercube_power(3, 2)
        rank = _tables.rank_of_mask(3)
        v_1 = rank[0b001]      # {1}
        v_23 = rank[0b110]     # {2,3}
        v_empty = rank[0b000]
        v_12 = rank[0b011]
        assert not bc.adjacent(g, v_1, v_23)      # distance 3
        assert bc.adjacent(g, v_empty, v_12)      # distance 2
        h = bc.hamming_power(3, 3, 1)
        u = bc.HammingVertex((0, 1, 2), 3).index()
        v = bc.HammingVertex((0, 1, 0), 3).index()
        assert bc.adjacent(h, u, v)

    def test_self_loops_absent(self):
        g = bc.hypercube_power(3, 2)
        assert not bc.adjacent(g, 5, 5)

    def test_vertex_range_checked(self):
        g = bc.hypercube_power(2, 1)
        with pytest.raises(ValueError):
            bc.adjacent(g, 0, 4)
        with pytest.raises(ValueError):
            bc.adjacent(g, -1, 0)

    def test_adjacency_cap_checked_before_tables(self):
        # adjacent reads the adjacency rows, so it stops at their vertex cap
        built = _tables.balls.cache_info().currsize
        with pytest.raises(InfeasibleError):
            bc.adjacent(bc.hypercube_power(13, 1), 0, 1)
        assert _tables.balls.cache_info().currsize == built

    def test_adjacency_symmetric_irreflexive(self):
        g = bc.hamming_power(2, 3, 1)
        for u in range(9):
            assert not bc.adjacent(g, u, u)
            for v in range(9):
                assert bc.adjacent(g, u, v) == bc.adjacent(g, v, u)

    def test_cross_model_consistency(self):
        # cube power == Hamming power at q=2 under the rank<->mask bijection
        rng = random.Random(77)
        for n in (3, 5, 8, 10):
            cube = bc.hypercube_power(n, max(1, n // 2))
            ham = bc.hamming_power(n, 2, max(1, n // 2))
            order = _tables.masks_in_order(n)
            for _ in range(200):
                u, v = rng.randrange(1 << n), rng.randrange(1 << n)
                assert bc.adjacent(cube, u, v) == bc.adjacent(ham, order[u], order[v])


def _rows_by_distance(points, distance, p_max):
    """rows[p - 1][u] = bitset of the v != u with distance(u, v) <= p, for
    p = 1..p_max, by comparing every pair of points."""
    shells = []
    for a in points:
        by_d = [0] * (p_max + 1)
        for v, b in enumerate(points):
            d = distance(a, b)
            if d <= p_max:
                by_d[d] |= 1 << v
        shells.append(by_d)
    out = []
    rows = [0] * len(points)
    for p in range(1, p_max + 1):
        rows = [row | by_d[p] for row, by_d in zip(rows, shells)]
        out.append(tuple(rows))
    return out


class TestAdjacencyRows:
    """_adjacency_rows against a brute-force distance check."""

    def test_hypercube(self):
        for n in range(1, 9):
            want = _rows_by_distance(
                _tables.masks_in_order(n), lambda a, b: (a ^ b).bit_count(), n
            )
            for p in range(1, n + 2):
                rows = bc._adjacency_rows(bc.hypercube_power(n, p))
                assert rows == want[min(p, n) - 1], (n, p)

    def test_hamming(self):
        for q in (3, 4, 5):
            n = 1
            while q**n <= 729:
                points = [bc.HammingVertex.from_index(v, n, q).coords for v in range(q**n)]
                want = _rows_by_distance(
                    points, lambda a, b: sum(x != y for x, y in zip(a, b)), n
                )
                for p in range(1, n + 1):
                    rows = bc._adjacency_rows(bc.hamming_power(n, q, p))
                    assert rows == want[p - 1], (n, q, p)
                n += 1

    REGULAR = [bc.hypercube_power(n, p) for n in range(1, 5) for p in range(1, n + 2)] + [
        bc.hamming_power(2, 3, 1),
        bc.hamming_power(3, 2, 1),
        bc.hamming_power(2, 4, 1),
        bc.hamming_power(3, 3, 1),
    ]

    @pytest.mark.parametrize(
        "g", REGULAR, ids=[f"{g.kind}-n{g.n}q{g.q}p{g.p}" for g in REGULAR]
    )
    def test_regular(self, g):
        # the exact solver reads only vertex 0's degree and relies on this
        degree = sum(
            math.comb(g.n, i) * (g.q - 1) ** i for i in range(1, min(g.p, g.n) + 1)
        )
        assert {row.bit_count() for row in bc._adjacency_rows(g)} == {degree}

    def test_rows_built_once_per_graph(self):
        # 50 graphs cycled twice: an LRU cap below 50 would rebuild every
        # one of them on the second pass
        graphs = [bc.hypercube_power(n, p) for n in range(1, 9) for p in range(1, n + 2)]
        graphs += [bc.hamming_power(n, 3, p) for n in range(1, 4) for p in range(1, n + 1)]
        assert len(set(graphs)) >= 40
        first = [bc._adjacency_rows(g) for g in graphs]
        misses = bc._adjacency_rows.cache_info().misses
        second = [bc._adjacency_rows(g) for g in graphs]
        assert bc._adjacency_rows.cache_info().misses == misses
        assert all(a is b for a, b in zip(first, second))

    def test_vertex_cap_checked_first(self):
        misses = bc._digit_table.cache_info().misses
        with pytest.raises(InfeasibleError):
            bc._adjacency_rows(bc.hamming_power(9, 3, 8))
        assert bc._digit_table.cache_info().misses == misses

class TestHammingVertex:
    def test_roundtrip(self):
        for idx in range(27):
            assert bc.HammingVertex.from_index(idx, 3, 3).index() == idx

    def test_validation(self):
        with pytest.raises(ValueError):
            bc.HammingVertex((0, 3), 3)
        with pytest.raises(ValueError):
            bc.HammingVertex((0, 0), 1)

    @pytest.mark.parametrize("index", [-1, 9, 10])
    def test_from_index_range(self, index):
        # an out-of-range index must not wrap onto a valid vertex
        with pytest.raises(ValueError):
            bc.HammingVertex.from_index(index, 2, 3)


class TestColoring:
    def test_classes_consistent(self):
        c = bc.Coloring((0, 1, 0, 1), 2)
        assert c.classes() == [[0, 2], [1, 3]]

    def test_all_colors_used(self):
        with pytest.raises(ValueError):
            bc.Coloring((0, 0, 0, 0), 2)

    def test_color_range(self):
        with pytest.raises(ValueError):
            bc.Coloring((0, 2), 2)


class TestValidate:
    def test_four_cycle_parity(self):
        g = bc.hypercube_power(2, 1)
        coloring = bc.to_rank_indexing(2, bc.coset_coloring(2, 2))
        cert = bc.validate_coloring(g, coloring)
        assert cert.valid_b and cert.k == 2

    def test_antipodal_classes_on_cube(self):
        g = bc.hypercube_power(3, 1)
        coloring = bc.to_rank_indexing(3, bc.coset_coloring(3, 2))
        cert = bc.validate_coloring(g, coloring)
        assert cert.valid_b and cert.k == 4
        assert bc.all_vertices_dominating(g, coloring)

    def test_monochromatic_edge_rejected(self):
        g = bc.hypercube_power(2, 1)
        # ranks 0 and 1 are {} and {1}: adjacent, same color
        cert = bc.validate_coloring(g, bc.Coloring((0, 0, 1, 1), 2))
        assert not cert.valid_proper and not cert.valid_b

    def test_wrong_size_rejected(self):
        g = bc.hypercube_power(2, 1)
        with pytest.raises(ValueError):
            bc.validate_coloring(g, bc.Coloring((0, 1), 2))


class TestCosetColoring:
    def test_antipodal_pairs_q2(self):
        c = bc.coset_coloring(3, 2)
        for cls in c.classes():
            assert len(cls) == 2
            assert cls[0] ^ cls[1] == 0b111  # complements as masks

    def test_three_classes_q3(self):
        c = bc.coset_coloring(2, 3)
        want = [
            {(0, 0), (1, 1), (2, 2)},
            {(1, 0), (2, 1), (0, 2)},
            {(2, 0), (0, 1), (1, 2)},
        ]
        got = [
            {tuple(bc.HammingVertex.from_index(v, 2, 3).coords) for v in cls}
            for cls in c.classes()
        ]
        assert got == want

    def test_zero_class_is_diagonal(self):
        for (n, q) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            c = bc.coset_coloring(n, q)
            zero_class = c.classes()[0]
            diag = {bc.HammingVertex((a,) * n, q).index() for a in range(q)}
            assert set(zero_class) == diag

    def test_class_sizes(self):
        c = bc.coset_coloring(3, 3)
        assert c.k == 9 and all(len(cls) == 3 for cls in c.classes())

    def test_always_proper_below_dimension(self):
        for (n, q, p) in [(3, 2, 2), (3, 3, 2), (4, 2, 3), (2, 5, 1)]:
            g = bc.hamming_power(n, q, p)
            cert = bc.validate_coloring(g, bc.coset_coloring(n, q))
            assert cert.valid_proper


class TestVerifyCoset:
    @pytest.mark.parametrize("n,q,p", [(3, 2, 1), (4, 3, 3), (3, 5, 2)])
    def test_spec_examples(self, n, q, p):
        cert = bc.verify_coset_bcoloring(n, q, p)
        assert cert.valid_b and cert.k == q ** (n - 1)

    def test_rejects_p_at_dimension(self):
        with pytest.raises(ValueError):
            bc.verify_coset_bcoloring(3, 2, 3)

    def test_ungated_is_informational(self):
        # (4, 2, 1): gate needs p >= floor(4/2) = 2, so nothing is claimed
        assert not bounds.hamming_gate(4, 2, 1)
        cert = bc.verify_coset_bcoloring(4, 2, 1)
        assert cert.k == 8  # whatever the verdict, no integrity failure

    def test_invalid_coloring_on_a_gated_instance_is_an_integrity_error(self, monkeypatch):
        real = bc.validate_coloring
        monkeypatch.setattr(
            bc, "validate_coloring", lambda g, c: dataclasses.replace(real(g, c), valid_b=False)
        )
        assert bounds.hamming_gate(4, 3, 3)
        with pytest.raises(IntegrityError, match="gated instance"):
            bc.verify_coset_bcoloring(4, 3, 3)


class TestGreedyFallback:
    @pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 4)])
    def test_always_valid(self, n, p):
        g = bc.hypercube_power(n, p)
        c = bc.greedy_b_coloring(g)
        assert bc.validate_coloring(g, c).valid_b


class TestExactSolver:
    def test_four_cycle(self):
        res = bc.exact_b_chromatic(bc.hypercube_power(2, 1), BUDGET)
        assert res.value == 2 and res.exact

    def test_cube(self):
        res = bc.exact_b_chromatic(bc.hypercube_power(3, 1), BUDGET)
        assert res.value == 4 and res.exact

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_graphs(self, n):
        res = bc.exact_b_chromatic(bc.hypercube_power(n, n), BUDGET)
        assert res.value == 1 << n and res.exact

    def test_witnesses_validate(self):
        for (n, p) in [(2, 1), (3, 1), (3, 2)]:
            g = bc.hypercube_power(n, p)
            res = bc.exact_b_chromatic(g, BUDGET)
            assert bc.validate_coloring(g, res.coloring).valid_b
            assert res.coloring.k == res.value

    def test_rook_graph(self):
        # recorded from an exhaustive run of this solver
        res = bc.exact_b_chromatic(bc.hamming_power(2, 3, 1), BUDGET)
        assert res.value == 3 and res.exact

    def test_budget_exhaustion_is_explicit(self):
        res = bc.exact_b_chromatic(
            bc.hypercube_power(3, 1), bc.SolveBudget(max_nodes=2, max_seconds=30)
        )
        assert not res.exact
        assert "at least" in res.note
        g = bc.hypercube_power(3, 1)
        assert bc.validate_coloring(g, res.coloring).valid_b  # partial witness still valid

    def test_node_cap_is_exact(self):
        # Q_3^2 takes 21 nodes: a cap of 21 lets it finish, 20 stops it at 20
        g = bc.hypercube_power(3, 2)
        done = bc.exact_b_chromatic(g, bc.SolveBudget(max_nodes=21))
        stopped = bc.exact_b_chromatic(g, bc.SolveBudget(max_nodes=20))
        assert (done.exact, done.nodes) == (True, 21)
        assert (stopped.exact, stopped.nodes) == (False, 20)
        # the cut k is the last one reported, with the nodes it got and the
        # prefixes cut (symmetry, translation, coverage) before the stop
        assert stopped.nodes_by_k == ((7, 5), (6, 6), (5, 9))
        assert stopped.cuts_by_k == ((7, 3, 1, 1), (6, 6, 2, 2), (5, 8, 3, 3))
        assert done.cuts_by_k == ((7, 3, 1, 1), (6, 6, 2, 2), (5, 8, 4, 3))

    def test_node_cap_inside_the_prefix_test(self, monkeypatch):
        # Q_4^3 refutes every k above the greedy 8 by prefix tests alone, so
        # a cap there stops the seed generator, still at exactly the cap
        def entered(*args):
            raise AssertionError("no Q_4^3 seed tuple reaches the coloring search")

        monkeypatch.setattr(bc, "_extend", entered)
        g = bc.hypercube_power(4, 3)
        res = bc.exact_b_chromatic(g, bc.SolveBudget(max_nodes=100))
        assert (res.exact, res.nodes) == (False, 100)
        assert res.nodes_by_k == ((15, 11), (14, 15), (13, 23), (12, 38), (11, 13))
        assert bc.exact_b_chromatic(g, BUDGET).nodes == 351

    def test_paper_bound_seeds_the_search(self):
        # Q_5^3 is the smallest solved cube inside a paper bound's gate: the
        # search starts at upper_new = 17, below Delta + 1 = 26, and meets it
        g = bc.hypercube_power(5, 3)
        assert bounds.upper_new(5, 3) == 17 < bc._adjacency_rows(g)[0].bit_count() + 1
        res = bc.exact_b_chromatic(g, BUDGET)
        assert (res.value, res.exact, res.nodes) == (17, True, 627)
        assert (res.upper, res.upper_source, res.nodes_by_k) == (17, "upper_new", ((17, 627),))
        assert bc.validate_coloring(g, res.coloring).valid_b

    def test_q5p4_is_exact_without_a_paper_bound(self):
        # no paper bound applies to Q_5^4, so the search starts at Delta + 1
        # = 31 and refutes every k down to 17 under the default budget
        g = bc.hypercube_power(5, 4)
        res = bc.exact_b_chromatic(g, bc.SolveBudget())
        assert (res.value, res.exact, res.nodes) == (16, True, 137_956)
        assert (res.upper, res.upper_source) == (31, "delta+1")
        assert [k for k, _ in res.nodes_by_k] == list(range(31, 16, -1))
        assert sum(nodes for _, nodes in res.nodes_by_k) == res.nodes
        assert bc.validate_coloring(g, res.coloring).valid_b

    def test_bound_below_greedy_is_an_integrity_error(self, monkeypatch):
        g = bc.hypercube_power(5, 3)
        k = bc.greedy_b_coloring(g).k
        monkeypatch.setattr(bounds, "upper_new", lambda n, p: k - 1)
        with pytest.raises(IntegrityError, match="above the proven upper bound"):
            bc.exact_b_chromatic(g, BUDGET)

    def test_monotone_in_p_small(self):
        for n in (2, 3):
            values = [
                bc.exact_b_chromatic(bc.hypercube_power(n, p), BUDGET).value
                for p in range(1, n + 1)
            ]
            assert values == sorted(values)
            assert values[-1] == 1 << n


def _unrooted_decision(rows, degrees, k):
    """Oracle: the seed search over every combinations(cand, k) tuple, with
    no vertex pinned; True iff some tuple extends to a b-coloring."""
    count = len(rows)
    cand = [v for v in range(count) if degrees[v] >= k - 1]
    for seeds in itertools.combinations(cand, k):
        seed_mask = sum(1 << d for d in seeds)
        seed_of = {d: t for t, d in enumerate(seeds)}
        color = [-1] * count
        for d, t in seed_of.items():
            color[d] = t
        uncolored = (1 << count) - 1 & ~seed_mask
        can = [uncolored & ~rows[d] for d in seeds]
        missing = []
        for t, d in enumerate(seeds):
            seen = sum(1 << seed_of[w] for w in seeds if rows[d] >> w & 1)
            missing.append((1 << k) - 1 & ~(1 << t) & ~seen)
        needers = [sum(1 << t for t, m in enumerate(missing) if m >> c & 1) for c in range(k)]
        if bc._extend(rows, seeds, seed_mask, color, can, missing, needers, uncolored,
                      lambda: None):
            return True
    return False


class TestRootedSeeds:
    """The seed search pinned at vertex 0 (the power graphs are
    vertex-transitive) and pruned by symmetries that fix vertex 0 and by
    translations decides every k as the unrooted, unpruned search does."""

    GRAPHS = [
        ("Q2p1", bc.hypercube_power(2, 1)),
        ("Q3p1", bc.hypercube_power(3, 1)),
        ("Q3p2", bc.hypercube_power(3, 2)),
        ("Q4p1", bc.hypercube_power(4, 1)),
        ("H2q3p1", bc.hamming_power(2, 3, 1)),
        ("H3q2p1", bc.hamming_power(3, 2, 1)),
    ]

    DECIDED = GRAPHS + [
        ("H2q4p1", bc.hamming_power(2, 4, 1)),
        ("Q4p3", bc.hypercube_power(4, 3)),
    ]

    @pytest.mark.parametrize("tag,g", DECIDED, ids=[c[0] for c in DECIDED])
    def test_agrees_with_unrooted_search(self, tag, g):
        rows = list(bc._adjacency_rows(g))
        degrees = [r.bit_count() for r in rows]
        symmetries = bc._symmetries_fixing_0(g)
        minus = bc._translations(g)
        value = bc.exact_b_chromatic(g, BUDGET).value
        # from one above max degree + 1, where vertex 0 is refused at once,
        # down through every k the solver can try (its upper bound is at
        # most max degree + 1)
        decisions = []
        for k in range(max(degrees) + 2, value - 1, -1):
            witness = bc._decide_b_coloring(rows, k, lambda: None, symmetries, minus, [0] * 3)
            rooted = witness is not None
            assert rooted == _unrooted_decision(rows, degrees, k), k
            decisions.append(rooted)
        assert decisions[-1] and not any(decisions[:-1])

    WITNESSED = GRAPHS + [
        ("H2q4p1", bc.hamming_power(2, 4, 1)),
        ("H3q3p1", bc.hamming_power(3, 3, 1)),
    ]

    @pytest.mark.parametrize("tag,g", WITNESSED, ids=[c[0] for c in WITNESSED])
    def test_witness_dominated_at_vertex_0(self, tag, g):
        res = bc.exact_b_chromatic(g, BUDGET)
        fallback = bc.greedy_b_coloring(g)
        if res.value == fallback.k:
            # every k above the greedy count was refuted: no search witness
            assert res.coloring == fallback
        else:
            assert bc.validate_coloring(g, res.coloring).dominating[0] == 0

    AUTOMORPHISMS = WITNESSED + [("H3q3p2", bc.hamming_power(3, 3, 2))]

    @pytest.mark.parametrize("tag,g", AUTOMORPHISMS, ids=[c[0] for c in AUTOMORPHISMS])
    def test_symmetries_are_automorphisms_fixing_0(self, tag, g):
        rows = bc._adjacency_rows(g)
        symmetries = bc._symmetries_fixing_0(g)
        n, q = g.n, g.q
        # the coordinate transpositions, and on the Hamming side the
        # transpositions of two nonzero symbols in one coordinate
        expected = math.comb(n, 2) + (n * math.comb(q - 1, 2) if g.kind == "hamming" else 0)
        assert len(set(symmetries)) == len(symmetries) == expected
        for sigma in symmetries:
            assert sigma[0] == 0
            assert sorted(sigma) == list(range(g.vertex_count))
            for u, row in enumerate(rows):
                image = sum(1 << sigma[v] for v in _tables.iter_bits(row))
                assert rows[sigma[u]] == image, (sigma, u)

    @pytest.mark.parametrize("tag,g", AUTOMORPHISMS, ids=[c[0] for c in AUTOMORPHISMS])
    def test_translations_are_automorphisms_sending_s_to_0(self, tag, g):
        rows = bc._adjacency_rows(g)
        minus = bc._translations(g)
        images = set()
        for s in range(g.vertex_count):
            tau = [minus(v, s) for v in range(g.vertex_count)]
            assert tau[s] == 0
            assert sorted(tau) == list(range(g.vertex_count))
            for u, row in enumerate(rows):
                image = sum(1 << tau[v] for v in _tables.iter_bits(row))
                assert rows[tau[u]] == image, (s, u)
            images.add(tuple(tau))
        # one translation per vertex: v -> v - s moves 0 to -s
        assert len(images) == g.vertex_count

    PRUNED = [
        ("Q3p2", bc.hypercube_power(3, 2)),
        ("Q4p1", bc.hypercube_power(4, 1)),
        ("H2q3p1", bc.hamming_power(2, 3, 1)),
        ("H2q4p1", bc.hamming_power(2, 4, 1)),
        ("H3q3p1", bc.hamming_power(3, 3, 1)),
    ]

    @pytest.mark.parametrize("tag,g", PRUNED, ids=[c[0] for c in PRUNED])
    def test_seed_tuples_are_the_unmapped_combinations(self, tag, g):
        # pruning by prefixes keeps exactly the tuples that no symmetry and
        # no translation by one of their seeds maps below themselves and
        # that pass the root coverage check, in combinations order
        count = g.vertex_count
        rows = bc._adjacency_rows(g)
        symmetries = bc._symmetries_fixing_0(g)
        minus = bc._translations(g)
        uncovered = translated = 0
        for k in range(1, 7):
            unmapped = [
                seeds
                for seeds in ((0, *rest) for rest in itertools.combinations(range(1, count), k - 1))
                if all(tuple(sorted(sigma[v] for v in seeds)) >= seeds for sigma in symmetries)
            ]
            unmoved = [
                seeds
                for seeds in unmapped
                if all(tuple(sorted(_difference(g, v, s) for v in seeds)) >= seeds for s in seeds)
            ]
            expected = [seeds for seeds in unmoved if _root_covered(rows, seeds)]
            cuts = [0] * 3
            got = list(bc._seed_tuples(rows, k, symmetries, minus, lambda: None, cuts))
            assert got == expected, k
            uncovered += len(unmoved) - len(expected)
            translated += len(unmapped) - len(unmoved)
            if k > 2:
                assert len(unmapped) < math.comb(count - 1, k - 1)
            # the translation test counts the prefixes it cuts (here at
            # least one on every k where translations drop a tuple)
            if len(unmoved) < len(unmapped):
                assert cuts[1]
        assert uncovered and translated


def _difference(g, v, s):
    """Test-side v - s: the symmetric difference of the subsets on cubes (by
    rank), the coordinate-wise difference mod q on Hamming graphs."""
    if g.kind == "hypercube":
        masks = _tables.masks_in_order(g.n)
        return masks.index(masks[v] ^ masks[s])
    a = bc.HammingVertex.from_index(v, g.n, g.q).coords
    b = bc.HammingVertex.from_index(s, g.n, g.q).coords
    return bc.HammingVertex(tuple((x - y) % g.q for x, y in zip(a, b)), g.q).index()


def _root_covered(rows, seeds):
    """Test-side root check: each seed t has, among its neighbours outside
    the seeds, at least as many vertices as seeds apart from it (not t, not
    adjacent to t), and for each apart seed s one that s is not adjacent to."""
    free = set(range(len(rows))) - set(seeds)
    for t in seeds:
        pool = [v for v in free if rows[t] >> v & 1]
        apart = [s for s in seeds if s != t and not rows[t] >> s & 1]
        if len(apart) > len(pool):
            return False
        if any(all(rows[s] >> v & 1 for v in pool) for s in apart):
            return False
    return True


def _assignment_digest(coloring):
    return hashlib.sha256(json.dumps(list(coloring.assignment)).encode()).hexdigest()


class TestGoldenSearch:
    """Value, node count and witness of the exact solver, pinned.

    Any change to the search order shows up here as a different node count
    or witness digest, even when the value stays right.
    """

    CASES = [
        ("Q3p2", bc.hypercube_power(3, 2), 4, 21,
         "d5b5ba9c11d0f80ff11ed2cbec64eb1e23c09b2134b4c47f3786d85a73c70d45"),
        ("Q4p1", bc.hypercube_power(4, 1), 5, 320,
         "85c95247468dc04c1bac2daa24b723205c8b4cb4e50906ca4eb447b0a42b1f9c"),
        ("Q4p2", bc.hypercube_power(4, 2), 8, 6292,
         "58a4794f79f73c7ce29775e282015971c6414697faa436d2a0f6b6ec4d0a10cc"),
        ("Q4p3", bc.hypercube_power(4, 3), 8, 351,
         "adbdd360638c6d6790a5d95af2d63f719a3d99a2b6b06e15ba7968cdd5b8d30d"),
        ("H2q3p1", bc.hamming_power(2, 3, 1), 3, 101,
         "77bbd917d8c906848bf469cdd2b8cc6e5a91a37c609b0b266260b2ebd4e68a8f"),
        ("H3q2p1", bc.hamming_power(3, 2, 1), 4, 12,
         "d5b5ba9c11d0f80ff11ed2cbec64eb1e23c09b2134b4c47f3786d85a73c70d45"),
        ("H2q4p1", bc.hamming_power(2, 4, 1), 6, 7574,
         "54edac8c293315eab791e5214376b16503faeb73aeb41dc3898c339ccb308b57"),
        ("H3q3p1", bc.hamming_power(3, 3, 1), 7, 2029,
         "2422d61c4cd0d9ef922d5d0c0615b00992633ac1549489739cf8656c6ccc0c3f"),
    ]

    @pytest.mark.parametrize("tag,g,value,nodes,digest", CASES, ids=[c[0] for c in CASES])
    def test_pinned(self, tag, g, value, nodes, digest):
        res = bc.exact_b_chromatic(g, BUDGET)
        assert res.exact
        assert (res.value, res.nodes) == (value, nodes)
        assert _assignment_digest(res.coloring) == digest


class TestSingletonCertificate:
    def test_vacuous_when_k_small(self):
        g = bc.hypercube_power(3, 1)
        coloring = bc.to_rank_indexing(3, bc.coset_coloring(3, 2))
        rep = bc.singleton_certificate(g, coloring, 0)
        assert rep.ok and rep.required == 0

    def test_synthetic_all_singletons(self):
        # complete graph: every class is a singleton
        g = bc.hypercube_power(2, 2)
        coloring = bc.Coloring((0, 1, 2, 3), 4)
        rep = bc.singleton_certificate(g, coloring, 2)
        assert rep.ok
        assert rep.singleton_count == 4 and rep.required == 4
        assert rep.clique_ok and rep.open_size == 0 and rep.open_required == 0

    def test_solver_witnesses_pass(self):
        for (n, p) in [(2, 2), (3, 2), (3, 3), (4, 3)]:
            g = bc.hypercube_power(n, p)
            res = bc.exact_b_chromatic(g, BUDGET)
            ell = res.value - (1 << (n - 1))
            if ell <= 0:
                continue
            rep = bc.singleton_certificate(g, res.coloring, ell)
            assert rep.ok, rep.failure

    def test_requires_valid_b_coloring(self):
        g = bc.hypercube_power(2, 1)
        with pytest.raises(ValueError):
            bc.singleton_certificate(g, bc.Coloring((0, 0, 1, 1), 2), 0)

    def test_requires_hypercube(self):
        g = bc.hamming_power(2, 3, 1)
        with pytest.raises(ValueError):
            bc.singleton_certificate(g, bc.coset_coloring(2, 3), 0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_complete_power_passes(self, n):
        # Q_n^n is complete: the identity coloring has 2^n singleton classes,
        # ell = 2^(n-1), and all of them form the required clique (Q_2^2 is
        # test_synthetic_all_singletons)
        g = bc.hypercube_power(n, n)
        k = 1 << n
        rep = bc.singleton_certificate(g, bc.Coloring(tuple(range(k)), k), k >> 1)
        assert rep.ok and rep.failure is None
        assert rep.singleton_count == rep.required == k
        assert rep.chosen == tuple(range(k)) and rep.clique_ok
        assert rep.open_size == rep.open_required == 0

    def test_requires_k_to_match_ell(self):
        g = bc.hypercube_power(2, 2)
        with pytest.raises(ValueError, match="does not equal"):
            bc.singleton_certificate(g, bc.Coloring((0, 1, 2, 3), 4), 1)

    # A valid b-coloring with 2^(n-1) + ell colors has at least 2*ell
    # singleton classes, pairwise adjacent, so the first two failures need
    # a validator forged to pass.  Q_3^1, ell = 1, k = 5 throughout.

    @staticmethod
    def _forge_valid(monkeypatch, **fields):
        real = bc.validate_coloring
        monkeypatch.setattr(
            bc, "validate_coloring",
            lambda g, c: dataclasses.replace(real(g, c), valid_b=True, **fields),
        )

    def test_too_few_singletons(self, monkeypatch):
        self._forge_valid(monkeypatch, singleton_classes=(0,))
        coloring = bc.Coloring((0, 2, 2, 3, 3, 4, 4, 1), 5)
        rep = bc.singleton_certificate(bc.hypercube_power(3, 1), coloring, 1)
        assert not rep.ok and rep.failure == "only 1 singleton classes, need 2"
        assert rep.chosen == () and rep.clique_ok and rep.open_size is None

    def test_chosen_pair_not_adjacent(self, monkeypatch):
        # the singletons are ranks 0 and 7, {} and {1,2,3}, at distance 3
        self._forge_valid(monkeypatch)
        coloring = bc.Coloring((0, 2, 2, 3, 3, 4, 4, 1), 5)
        rep = bc.singleton_certificate(bc.hypercube_power(3, 1), coloring, 1)
        assert not rep.ok and rep.failure == "chosen vertices 0 and 7 are not adjacent"
        assert rep.chosen == (0, 7) and not rep.clique_ok and rep.open_size is None

    def test_small_open_neighborhood(self, monkeypatch):
        # {} and {1} are adjacent, but no third subset is within 1 of both
        self._forge_valid(monkeypatch)
        coloring = bc.Coloring((0, 1, 2, 2, 3, 3, 4, 4), 5)
        rep = bc.singleton_certificate(bc.hypercube_power(3, 1), coloring, 1)
        assert not rep.ok
        assert rep.failure == "common open neighborhood has 0 subsets, need 3"
        assert rep.chosen == (0, 1) and rep.clique_ok
        assert (rep.open_size, rep.open_required) == (0, 3)


class TestBoundsSandwich:
    def test_exact_values_within_applicable_bounds(self, solve_cube):
        for n in (2, 3, 4):
            for p in range(1, n + 1):
                res, _ = solve_cube(n, p)
                assert res.exact
                rep = bounds.bound_report(n, p)
                if rep.lower is not None:
                    assert rep.lower <= res.value
                for ub in (rep.upper_old, rep.upper_rough, rep.upper_new):
                    if ub is not None:
                        assert res.value <= ub
                # the q=2 Hamming lower bound is a separate claim; check it too
                ham = bounds.hamming_lower(n, 2, p)
                if ham is not None and p <= n - 1:
                    assert ham <= res.value


class TestJson:
    def test_coloring_json(self):
        g = bc.hamming_power(2, 3, 1)
        payload = bc.coloring_to_json(g, bc.coset_coloring(2, 3))
        assert payload["kind"] == "hamming" and payload["q"] == 3
        assert len(payload["assignment"]) == 9

    def test_vertex_labels(self):
        g = bc.hypercube_power(3, 1)
        assert bc.vertex_label(g, 0) == "{}"
        h = bc.hamming_power(2, 3, 1)
        assert bc.vertex_label(h, 5) == "(2,1)"

    @pytest.mark.parametrize("v", [-1, 8])
    def test_vertex_label_range_checked(self, v):
        # -1 used to wrap around to the last vertex, 8 to raise IndexError
        for g in (bc.hypercube_power(3, 1), bc.hamming_power(3, 2, 1)):
            with pytest.raises(ValueError, match="out of range"):
                bc.vertex_label(g, v)

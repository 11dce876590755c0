"""Power-graph adjacency, b-coloring validation, the coset coloring, and a
desk-scale exact b-chromatic solver.

A cube vertex is the rank of its subset, so initial segments are index
prefixes; a Hamming vertex is its coordinates in base q, first coordinate
least significant (with q = 2, the subset bitmask).  _adjacency_rows is the
one adjacency, so everything stops at MAX_ADJACENCY_VERTICES, and the
b-coloring condition is evaluated in one place: _neighbor_color_masks and
_dominating.
"""

from __future__ import annotations

import operator
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations, compress

from . import _tables, bounds
from .errors import InfeasibleError, IntegrityError
from .subsets import GroundSet, SubsetMask, format_subset

MAX_SOLVER_VERTICES = 1024
MAX_ADJACENCY_VERTICES = 4096


@dataclass(frozen=True)
class HammingVertex:
    """An n-tuple over Z_q."""

    coords: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("alphabet size q must be at least 2")
        if not all(0 <= c < self.q for c in self.coords):
            raise ValueError("coordinates must lie in [0, q)")

    @property
    def n(self) -> int:
        return len(self.coords)

    def index(self) -> int:
        value = 0
        for c in reversed(self.coords):
            value = value * self.q + c
        return value

    @staticmethod
    def from_index(value: int, n: int, q: int) -> "HammingVertex":
        if not 0 <= value < q**n:
            raise ValueError(f"index {value} out of range [0, {q**n})")
        coords = []
        for _ in range(n):
            coords.append(value % q)
            value //= q
        return HammingVertex(tuple(coords), q)


@lru_cache(maxsize=None)
def _digit_table(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for v in range(q**n):
        coords = []
        for _ in range(n):
            coords.append(v % q)
            v //= q
        out.append(tuple(coords))
    return tuple(out)


@dataclass(frozen=True)
class PowerGraph:
    """The p-th power of a hypercube or Hamming graph, held implicitly."""

    kind: str  # "hypercube" | "hamming"
    n: int
    q: int
    p: int

    def __post_init__(self):
        if self.kind not in ("hypercube", "hamming"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.kind == "hypercube" and self.q != 2:
            raise ValueError("hypercube kind requires q = 2")
        if self.n < 1 or self.q < 2 or self.p < 1:
            raise ValueError("need n >= 1, q >= 2, p >= 1")

    @property
    def vertex_count(self) -> int:
        return self.q**self.n

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range [0, {self.vertex_count})")


def hypercube_power(n: int, p: int) -> PowerGraph:
    return PowerGraph("hypercube", n, 2, p)


def hamming_power(n: int, q: int, p: int) -> PowerGraph:
    return PowerGraph("hamming", n, q, p)


def adjacent(g: PowerGraph, u: int, v: int) -> bool:
    """Edge test in the power graph: distinct vertices within distance p.

    Reads the adjacency rows, so it shares their vertex cap."""
    g._check_vertex(u)
    g._check_vertex(v)
    return bool(_adjacency_rows(g)[u] >> v & 1)


def check_adjacency_size(count: int) -> None:
    """Refuse, before anything is built, a graph too large for adjacency rows."""
    if count > MAX_ADJACENCY_VERTICES:
        raise InfeasibleError(
            f"adjacency materialization capped at {MAX_ADJACENCY_VERTICES} vertices, got {count}"
        )


@lru_cache(maxsize=None)
def _adjacency_rows(g: PowerGraph) -> tuple[int, ...]:
    """Neighbor bitsets: row u is the radius-p ball around u without u.

    Cube rows are the kernel's rank-keyed ball table _tables.balls(n, p);
    Hamming rows are grown by its recurrence step, _tables.ball_step, over
    the n(q-1) one-coordinate moves.  Kept for the life of the process; the
    vertex cap holds one graph's rows to about 2 MiB.
    """
    count = g.vertex_count
    check_adjacency_size(count)
    if g.kind == "hypercube":
        ball = _tables.balls(g.n, g.p)
    else:
        digits = _digit_table(g.n, g.q)
        moves = []
        for x in range(count):
            out = []
            weight = 1
            for d in digits[x]:
                base = x - d * weight
                out.extend(base + e * weight for e in range(g.q) if e != d)
                weight *= g.q
            moves.append(out)
        ball = [1 << x for x in range(count)]
        for _ in range(min(g.p, g.n)):
            ball = _tables.ball_step(ball, moves)
    return tuple(b & ~(1 << u) for u, b in enumerate(ball))


@dataclass(frozen=True)
class Coloring:
    """A total color assignment with k non-empty classes."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self):
        seen = 0
        for c in self.assignment:
            if not 0 <= c < self.k:
                raise ValueError(f"color {c} outside [0, {self.k})")
            seen |= 1 << c
        if seen != (1 << self.k) - 1:
            raise ValueError("every color class must be non-empty")

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assignment):
            out[c].append(v)
        return out


@dataclass(frozen=True)
class BColorCertificate:
    """Validation outcome: properness, per-color dominating witnesses,
    and the singleton classes."""

    k: int
    valid_proper: bool
    valid_b: bool
    dominating: tuple[int | None, ...]
    singleton_classes: tuple[int, ...]

    def as_json_dict(self) -> dict:
        return {
            "k": self.k,
            "valid_proper": self.valid_proper,
            "valid_b": self.valid_b,
            "dominating": self.dominating,
            "singleton_classes": self.singleton_classes,
        }


def _neighbor_color_masks(rows, assign, k) -> list[int]:
    """Bitset of the colors on the neighbors of each vertex.

    Adjacency is symmetric, so v sees color t iff v lies in near[t], the
    union of the rows of the t-colored vertices: one OR per vertex builds
    the k x V matrix near, and its transpose, taken column by column over
    binary strings, gives the masks."""
    near = [0] * k
    for row, t in zip(rows, assign):
        near[t] |= row
    width = len(rows)
    # string i of `planes` is near[k-1-i], its character j is vertex width-1-j
    planes = [format(bits, f"0{width}b") for bits in reversed(near)]
    out = [int("".join(column), 2) for column in zip(*planes)]
    out.reverse()
    return out


def _dominating(ncolors, assign, k) -> list[int | None]:
    """The first vertex of each class that sees every other class, or None."""
    all_colors = (1 << k) - 1
    out: list[int | None] = [None] * k
    for v, t in enumerate(assign):
        if out[t] is None and ncolors[v] | 1 << t == all_colors:
            out[t] = v
    return out


def validate_coloring(g: PowerGraph, c: Coloring) -> BColorCertificate:
    """Check properness and find a dominating vertex for every class."""
    if len(c.assignment) != g.vertex_count:
        raise ValueError(
            f"coloring covers {len(c.assignment)} vertices, graph has {g.vertex_count}"
        )
    assign = c.assignment
    ncolors = _neighbor_color_masks(_adjacency_rows(g), assign, c.k)
    proper = all(not seen >> t & 1 for seen, t in zip(ncolors, assign))
    dominating = _dominating(ncolors, assign, c.k)
    sizes = Counter(assign)
    return BColorCertificate(
        k=c.k,
        valid_proper=proper,
        valid_b=proper and None not in dominating,
        dominating=tuple(dominating),
        singleton_classes=tuple(t for t in range(c.k) if sizes[t] == 1),
    )


def all_vertices_dominating(g: PowerGraph, c: Coloring) -> bool:
    """Stronger property: every vertex sees every other color class."""
    ncolors = _neighbor_color_masks(_adjacency_rows(g), c.assignment, c.k)
    return all(
        seen | 1 << t == (1 << c.k) - 1 for seen, t in zip(ncolors, c.assignment)
    )


@lru_cache(maxsize=None)
def coset_coloring(n: int, q: int) -> Coloring:
    """Color Z_q^n by the cosets of the diagonal subgroup {(a, ..., a)}.

    q^(n-1) classes of q vertices each.  The color index is the base-q value
    of the coset representative with last coordinate 0.  Cached per (n, q).
    """
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    check_adjacency_size(q**n)  # a coloring too large to validate is refused
    digits = _digit_table(n, q)
    assignment = []
    for v in range(q**n):
        d = digits[v]
        shift = d[n - 1]
        color = 0
        for t in reversed(range(n - 1)):
            color = color * q + (d[t] - shift) % q
        assignment.append(color)
    return Coloring(tuple(assignment), q ** (n - 1))


def verify_coset_bcoloring(n: int, q: int, p: int) -> BColorCertificate:
    """Validate the coset coloring on the p-th Hamming power.  Where the
    construction is claimed to work (p >= floor(n(q-1)/q) with q <= n-1, or
    p = n-1) an invalid outcome raises IntegrityError; elsewhere the
    certificate is informational."""
    if p > n - 1:
        raise ValueError("coset coloring is only proper for p <= n-1")
    cert = validate_coloring(hamming_power(n, q, p), coset_coloring(n, q))
    if bounds.hamming_gate(n, q, p) and not cert.valid_b:
        raise IntegrityError(
            f"coset coloring failed on a gated instance (n={n}, q={q}, p={p})"
        )
    return cert


@dataclass(frozen=True)
class SolveBudget:
    """Node and wall-clock caps for the exact solver."""

    max_nodes: int = 5_000_000
    max_seconds: float = 45.0

    def __post_init__(self):
        if self.max_nodes < 0:
            raise ValueError(f"node budget must be non-negative, got {self.max_nodes}")
        if not self.max_seconds >= 0:  # also refuses NaN, which no clock reaches
            raise ValueError(f"time budget must be non-negative, got {self.max_seconds}")


@dataclass
class BChromaticResult:
    """The solver's outcome.  `upper` is the k the search starts from and
    `upper_source` says where it came from: "delta+1" for the degree bound,
    "upper_new" where the paper's bound is lower.  `nodes_by_k` holds
    (k, nodes) for each k searched, from the top down; on a budget stop the
    last entry is the k that was cut.  `cuts_by_k` holds, for the same k,
    (k, symmetry, translation, coverage, forced): the seed prefixes dropped
    for each of the first three CUT_REASONS, then the coloring states (not
    prefixes) refuted by a forced-demand clash (_extend).  `certificate` is
    validate_coloring's verdict on `coloring`, which is always valid_b."""

    value: int
    coloring: Coloring
    certificate: BColorCertificate
    exact: bool
    nodes: int
    note: str = ""
    upper: int = 0
    upper_source: str = ""
    nodes_by_k: tuple[tuple[int, int], ...] = ()
    cuts_by_k: tuple[tuple[int, int, int, int, int], ...] = ()


class _BudgetExhausted(Exception):
    pass


def greedy_b_coloring(g: PowerGraph) -> Coloring:
    """Greedy proper coloring, then repeatedly dissolve an undominated class:
    every class of the result has a dominating vertex, so the color count is
    a lower bound for the b-chromatic number."""
    rows = _adjacency_rows(g)
    assign: list[int] = []
    members: list[int] = []  # the vertex bitset of each class so far
    for v, row in enumerate(rows):
        # the lowest color that no neighbor colored so far (below v) has
        c = next((t for t, m in enumerate(members) if not row & m), len(members))
        if c == len(members):
            members.append(0)
        members[c] |= 1 << v
        assign.append(c)
    k = len(members)
    while True:
        ncolors = _neighbor_color_masks(rows, assign, k)
        dominating = _dominating(ncolors, assign, k)
        if None not in dominating:
            break
        undominated = dominating.index(None)
        # every vertex of the class misses a color; move them all at once
        # (the class is independent, so simultaneous recoloring stays proper),
        # then close the gap the class leaves in the color range
        all_colors = (1 << k) - 1
        for v, c in enumerate(assign):
            if c == undominated:
                free = ~(ncolors[v] | 1 << undominated) & all_colors
                c = (free & -free).bit_length() - 1
            assign[v] = c - (c > undominated)
        k -= 1
    return Coloring(tuple(assign), k)


def exact_b_chromatic(g: PowerGraph, budget: SolveBudget) -> BChromaticResult:
    """Exact b-chromatic number by descending-k backtracking.

    Each k from the upper bound down is decided by _decide_b_coloring; the
    first k that admits a b-coloring is the answer, and if every k above
    the greedy fallback fails, the fallback count is exact.  A node, the
    unit of the budget, is one seed prefix tested or one coloring state.
    On budget exhaustion the result reports the best lower bound found.
    The coloring returned, search witness or fallback, is validated once,
    and an invalid one raises IntegrityError.
    """
    count = g.vertex_count
    if count > MAX_SOLVER_VERTICES:
        raise InfeasibleError(f"solver capped at {MAX_SOLVER_VERTICES} vertices, got {count}")
    rows = _adjacency_rows(g)
    fallback = greedy_b_coloring(g)
    k_lo = fallback.k
    upper = rows[0].bit_count() + 1  # the graph is regular, so Delta + 1 is also its m-degree
    source = "delta+1"
    if g.kind == "hypercube":
        # the least of the paper's upper bounds, None outside their range
        ub = bounds.upper_new(g.n, g.p)
        if ub is not None and ub < upper:
            upper, source = ub, "upper_new"
    if upper < k_lo:
        raise IntegrityError(
            f"fallback b-coloring uses {k_lo} colors, above the proven upper "
            f"bound {upper}; a bound or the validator is wrong"
        )
    nodes = 0
    cap = budget.max_nodes
    deadline = time.monotonic() + budget.max_seconds

    def charge():
        # the cap is tested before the node is counted, so a stopped search
        # reports at most max_nodes nodes
        nonlocal nodes
        if nodes >= cap:
            raise _BudgetExhausted
        nodes += 1
        if not nodes & 4095 and time.monotonic() > deadline:
            raise _BudgetExhausted

    searched = []  # (k, the nodes spent before k, the prefixes cut at k)

    def result(value, coloring, exact, note=""):
        cert = validate_coloring(g, coloring)
        if not cert.valid_b:
            raise IntegrityError(f"solver produced an invalid {value}-coloring")
        ends = [before for _, before, _ in searched[1:]] + [nodes]
        per_k = tuple((k, end - before) for (k, before, _), end in zip(searched, ends))
        cut = tuple((k, *cuts) for k, _, cuts in searched)
        return BChromaticResult(value, coloring, cert, exact, nodes, note,
                                upper, source, per_k, cut)

    try:
        for k in range(upper, k_lo, -1):
            cuts = [0] * len(CUT_REASONS)
            searched.append((k, nodes, cuts))
            witness = _decide_b_coloring(g, k, charge, cuts)
            if witness is not None:
                return result(k, Coloring(tuple(witness), k), True)
        return result(k_lo, fallback, True)
    except _BudgetExhausted:
        return result(k_lo, fallback, False,
                      note=f"budget exhausted; value is unknown but at least {k_lo}")


@lru_cache(maxsize=None)
def _symmetries_fixing_0(g: PowerGraph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of the base graph that fix vertex 0, as index tuples:
    sigma[v] is the image of vertex v.

    They preserve Hamming distance, so every power keeps them: the C(n,2)
    transpositions of two coordinates and, in each coordinate, the C(q-1,2)
    transpositions of two nonzero symbols.  Cube permutations are built on
    masks and renumbered through the rank tables.  Cached per graph.
    """
    n, q = g.n, g.q
    digits = _digit_table(n, q)
    weight = [q**i for i in range(n)]
    out = [
        tuple(v + (d[j] - d[i]) * (weight[i] - weight[j]) for v, d in enumerate(digits))
        for i, j in combinations(range(n), 2)
    ]
    for i in range(n):
        w = weight[i]
        for a, b in combinations(range(1, q), 2):
            step = (b - a) * w
            out.append(tuple(
                v + step if d[i] == a else v - step if d[i] == b else v
                for v, d in enumerate(digits)
            ))
    if g.kind == "hypercube":
        rank = _tables.rank_of_mask(n)
        out = [tuple(rank[sigma[m]] for m in _tables.masks_in_order(n)) for sigma in out]
    return tuple(out)


@lru_cache(maxsize=None)
def _translations(g: PowerGraph):
    """minus(v, s), the vertex v - s of the group the graph is a Cayley
    graph of: for each s, v -> v - s is an automorphism that sends s to 0.

    On cubes v - s is the symmetric difference of the subsets, by rank; on
    Hamming graphs it is the digit-wise difference mod q: XOR when q = 2,
    else the index difference plus q^(i+1) for each digit i with v_i < s_i.
    Nothing is tabulated per pair of vertices.  Cached per graph.
    """
    if g.kind == "hypercube":
        rank = _tables.rank_of_mask(g.n)
        mask = _tables.masks_in_order(g.n)
        return lambda v, s: rank[mask[v] ^ mask[s]]
    if g.q == 2:
        return operator.xor
    digits = _digit_table(g.n, g.q)
    borrow = [g.q ** (i + 1) for i in range(g.n)]
    return lambda v, s: v - s + sum(compress(borrow, map(operator.lt, digits[v], digits[s])))


# the prune reasons, in test order: _seed_tuples' prefixes, then _extend's states
CUT_REASONS = ("symmetry", "translation", "coverage", "forced")


def _seed_tuples(rows, k, symmetries, minus, charge, cuts):
    """The seed tuples (0, a1 < ... < a_{k-1}) over the vertices of `rows` in
    itertools.combinations order, less every tuple with a prefix P that a
    sigma in `symmetries` or a translation by some s in P maps below itself
    (sorted(sigma(P)) < P, or sorted(P - s) < P), or that fails the root
    coverage test.  cuts[i] counts the prefixes dropped for CUT_REASONS[i].

    Prefixes grow depth first, so a failing prefix drops all of its
    extensions at once.  Each sigma, and each translation by a seed other
    than 0, keeps the bitset x of its image of the prefix, one OR per new
    seed; a new seed a adds the image of P + a under its own translation,
    {-(a - s)}, read off the differences a - s just taken.  Sets of one size
    compare as sorted tuples by the least element of their symmetric
    difference d = x ^ pmask, so the prefix fails iff d & -d & x is set.

    Coverage: each seed t of P must be able to see each seed s of P apart
    from it (not t, not adjacent) through a neighbour outside P that s does
    not see: _covers(rows, N(t) - P, apart).  A new seed only shrinks pools
    and grows apart sets, so a refuted prefix refutes every extension.  Each
    prefix past the symmetry and translation tests is charged one node
    before its coverage test (_joins_covered).
    """
    seeds = [0]
    movers = []  # the seeds other than 0: the translation by 0 moves nothing
    neg = [minus(0, v) for v in range(len(rows))]

    def grow(prefix, images, shifted):
        if len(seeds) == k:
            yield tuple(seeds)
            return
        for a in range(seeds[-1] + 1, len(rows) - k + len(seeds) + 1):
            pmask = prefix | 1 << a
            nxt = []
            for sigma, x in zip(symmetries, images):
                x |= 1 << sigma[a]
                d = x ^ pmask
                if d & -d & x:
                    cuts[0] += 1
                    break
                nxt.append(x)
            else:
                # shifted[i] is the image under the translation by movers[i]
                own = 1 | 1 << neg[a]  # a - a and 0 - a
                moved = []
                for s, x in zip(movers, shifted):
                    e = minus(a, s)
                    own |= 1 << neg[e]
                    x |= 1 << e
                    d = x ^ pmask
                    if d & -d & x:
                        cuts[1] += 1
                        break
                    moved.append(x)
                else:
                    d = own ^ pmask
                    if d & -d & own:
                        cuts[1] += 1
                        continue
                    moved.append(own)
                    charge()
                    if not _joins_covered(rows, seeds, pmask, a):
                        cuts[2] += 1
                        continue
                    seeds.append(a)
                    movers.append(a)
                    yield from grow(pmask, nxt, moved)
                    seeds.pop()
                    movers.pop()

    return grow(1, [1] * len(symmetries), [])


def _joins_covered(rows, seeds, pmask, a):
    """Whether the prefix `seeds` + (a,), bitset pmask, passes the coverage
    test, given that `seeds` does: the seeds adjacent to a lost it from
    their pools and are re-tested in full, the others gain the apart seed a
    (one count and one AND), and a is tested last."""
    free = ~pmask
    row_a = rows[a]
    for t in seeds:
        row = rows[t]
        pool = row & free
        if row >> a & 1:
            if not _covers(rows, pool, pmask & ~row ^ 1 << t):
                return False
        # pmask & ~row holds t and its apart seeds, a among them
        elif not pool & ~row_a or (pmask & ~row).bit_count() > pool.bit_count() + 1:
            return False
    return _covers(rows, row_a & free, pmask & ~row_a ^ 1 << a)


def _covers(rows, pool, apart):
    """Whether `pool` can give a seed one neighbour for each vertex s of
    `apart`, each not adjacent to s: at least |apart| vertices, and for
    every s one outside N(s)."""
    if apart.bit_count() > pool.bit_count():
        return False
    while apart:
        low = apart & -apart
        if not pool & ~rows[low.bit_length() - 1]:
            return False
        apart ^= low
    return True


def _decide_b_coloring(g, k, charge, cuts):
    """Search for a b-coloring with exactly k colors; None if impossible.

    Every PowerGraph is a Cayley graph (of the subsets under symmetric
    difference, or of Z_q^n), so the translation v -> v - d is an
    automorphism that moves a dominating vertex d to vertex 0: k is
    feasible iff a seed tuple (one dominating vertex per color, seed t
    colored t) holding vertex 0 extends, and a degree below k - 1 refutes
    k.  The tuples are (0, *rest), rest in combinations(range(1, count),
    k - 1), less those _seed_tuples prunes (isomorph rejection in the
    manner of orderly generation, McKay 1998).  No decision or witness
    changes:

    1. Let T be the first tuple, in combinations order, that extends.  So
       does every sigma(T), as sigma fixes 0, and every T - s for s in T,
       which holds 0.  So T is the lex-minimum of all these images.
    2. If sorted(sigma(P)) < P for a prefix P, then sorted(sigma(S)) < S
       for every extension S: S's order statistics up to |P| are P's, and
       each of sigma(S)'s is at most sigma(P)'s.  Likewise S - s holds
       P - s.  So no symmetry or translation skips T.
    3. A prefix failing the coverage test has no extension that passes it,
       and a tuple fails it iff its root fails coverage, which is final.
    """
    rows = _adjacency_rows(g)
    if rows[0].bit_count() < k - 1:
        return None
    for seeds in _seed_tuples(rows, k, _symmetries_fixing_0(g), _translations(g), charge, cuts):
        color = _extend(rows, seeds, charge, cuts)
        if color is not None:
            return color
    return None


def _extend(rows, seeds, charge, cuts):
    """The first coloring, in the search order below, that colors seed t
    with t and gives every seed all the other colors; None if there is none.

    The root, charged as one node, colors the seeds.  Its state is
    bitsets: can[c] holds the vertices no c-colored vertex is adjacent to,
    missing[t] the colors of the seeds apart from seed t (not t, not
    adjacent), and needers[c] the seeds missing c, which is missing[c], as
    seeds t and c are apart iff c and t are.  The uncolored vertices are
    then colored by _search: a forced vertex (below) whenever there is one,
    the lowest index first, with its forced color only; else the vertex
    with the fewest allowed colors (ties to the lowest index), its colors
    ascending.  The counts are bit-sliced, with planes[j] holding the
    vertices whose count has bit j set.

    A demand is a seed t with a color c of missing[t]; its candidates are
    t's uncolored neighbors still in can[c].  One with no candidate refutes
    the state, so any seed tuple may be passed, though those of
    _seed_tuples pass the coverage test.  One with a single candidate u
    forces u to take c, since u alone can still show c to t; `forced` maps
    forced vertices to their colors, `pending` is the bitset of its keys,
    and a vertex forced to two colors refutes the state (cuts[3] counts
    such states).  This is sound: candidate sets only shrink along a path,
    so an entry stays valid until u takes c or t fails coverage.  A
    completion would have to give u both colors, so a clash cuts none; and
    u given any color but c leaves t's demand for c with no candidate, so
    coloring u with c alone drops only children that would be refuted at
    once.  The vertex order decides which completion of a seed tuple is
    found first, never whether there is one (unit propagation, Davis,
    Logemann and Loveland 1962).
    """
    charge()
    count = len(rows)
    seed_mask = 0
    color = [-1] * count
    for t, d in enumerate(seeds):
        seed_mask |= 1 << d
        color[d] = t
    uncolored = (1 << count) - 1 ^ seed_mask
    can = [uncolored & ~rows[d] for d in seeds]
    missing = []
    forced = {}
    trail = []
    for d in seeds:
        row = rows[d]
        apart = seed_mask & ~row ^ 1 << d
        pool = row & uncolored
        m = 0
        while apart:
            low = apart & -apart
            apart ^= low
            c = color[low.bit_length() - 1]
            m |= 1 << c
            cand = pool & can[c]
            if not cand or not cand & cand - 1 and _forces_clash(forced, trail, cuts, cand, c):
                return None
        missing.append(m)
    planes = []
    for members in can:
        carry = members
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    seed_rows = [rows[d] for d in seeds]
    pending = 0
    for u in trail:
        pending |= 1 << u
    if _search(rows, seed_rows, seed_mask, color, can, missing, missing[:], uncolored,
               planes, forced, trail, pending, charge, cuts):
        return color
    return None


def _forces_clash(forced, trail, cuts, cand, c):
    """Force the one vertex of `cand` to take color c; True, and one more
    state counted in cuts[3], if a demand already forces another color."""
    u = cand.bit_length() - 1
    if u not in forced:
        forced[u] = c
        trail.append(u)
    elif forced[u] != c:
        cuts[3] += 1
        return True
    return False


def _search(rows, seed_rows, seed_mask, color, can, missing, needers, uncolored,
            planes, forced, trail, pending, charge, cuts):
    """The backtracking below an _extend root.

    Each state colors one vertex v: the lowest one of `pending`, the forced
    vertices still uncolored, with its forced color only, or else the
    vertex with the fewest allowed colors, each of them in turn.  Each
    child is tested before it is entered, on the demands that coloring v
    with c touched; the parent passed, so no other demand can fail.  The
    seeds adjacent to v meet c and lose v from their pools, which changes
    their counts and the demands v was a candidate of (`allowed`); those of
    needers[c] lose the vertices `lost` that leave can[c], whose counts the
    child decrements.  A demand left with one candidate adds an entry to
    `forced` and its vertex to the child's `pending`; the entry is undone on
    backtrack (`trail`), and `pending`, passed by value, needs no undo.  A
    refuted child costs a node.
    """
    if not uncolored:
        return not any(missing)
    pending &= uncolored
    if pending:
        # a forced vertex, lowest index first, with its forced color only;
        # every demand of the seeds it meets is re-tested, as finding the
        # ones it was a candidate of costs more than re-testing the rest,
        # whose candidates it does not change
        bit_v = pending & -pending
        v = bit_v.bit_length() - 1
        colors = 1 << forced[v]
        allowed = -1
    else:
        # the most-constrained vertex, ties by index: narrow plane by plane
        fewest = uncolored
        some = False
        for plane in reversed(planes):
            lower = fewest & ~plane
            if lower:
                fewest = lower
            else:
                some = True
        if not some:
            return False  # an uncolored vertex has no allowed color
        bit_v = fewest & -fewest
        v = bit_v.bit_length() - 1
        allowed = 0
        for c, members in enumerate(can):
            if members & bit_v:
                allowed |= 1 << c
        colors = allowed
    row_v = rows[v]
    rest = uncolored ^ bit_v
    adjacent = []  # the seeds adjacent to v (seed t has color t)
    hits = row_v & seed_mask
    while hits:
        low = hits & -hits
        adjacent.append(color[low.bit_length() - 1])
        hits ^= low
    while colors:
        bit = colors & -colors
        colors ^= bit
        c = bit.bit_length() - 1
        color[v] = c
        before = can[c]
        after = can[c] = before & ~row_v
        lost = before & row_v & rest
        met = 0  # the seeds adjacent to v that missed c
        for t in adjacent:
            if missing[t] & bit:
                missing[t] ^= bit
                met |= 1 << t
        needers[c] ^= met
        mark = len(trail)
        dead = False
        for t in adjacent:
            m = missing[t]
            if not m:
                continue
            pool = seed_rows[t] & rest
            dead = m.bit_count() > pool.bit_count()
            m &= allowed
            while m and not dead:
                low = m & -m
                m ^= low
                d = low.bit_length() - 1
                cand = pool & can[d]
                dead = not cand or not cand & cand - 1 and _forces_clash(
                    forced, trail, cuts, cand, d)
            if dead:
                break
        apart = needers[c] if lost and not dead else 0
        while apart:
            low = apart & -apart
            apart ^= low
            row = seed_rows[low.bit_length() - 1]
            if row & lost:
                cand = row & rest & after
                if not cand or not cand & cand - 1 and _forces_clash(
                        forced, trail, cuts, cand, c):
                    dead = True
                    break
        charge()
        if not dead:
            queued = pending
            for u in trail[mark:]:  # the vertices this child's test forced
                queued |= 1 << u
            child = planes
            if lost:  # one less allowed color for each vertex of lost
                child = planes[:]
                j = 0
                while lost:
                    plane = child[j] ^ lost
                    child[j] = plane
                    lost &= plane
                    j += 1
            if _search(rows, seed_rows, seed_mask, color, can, missing, needers, rest,
                       child, forced, trail, queued, charge, cuts):
                return True
        while len(trail) > mark:
            del forced[trail.pop()]
        can[c] = before
        needers[c] ^= met
        while met:
            low = met & -met
            missing[low.bit_length() - 1] |= bit
            met ^= low
    color[v] = -1
    return False


@dataclass
class SingletonReport:
    """Outcome of checking the singleton-class structure of a b-coloring
    with 2^(n-1) + ell colors on a cube power."""

    n: int
    p: int
    k: int
    ell: int
    singleton_count: int
    required: int
    clique_ok: bool
    chosen: tuple[int, ...]
    open_size: int | None
    open_required: int
    ok: bool
    failure: str | None = None

    def as_json_dict(self) -> dict:
        return asdict(self)


def singleton_certificate(g: PowerGraph, c: Coloring, ell: int) -> SingletonReport:
    """Check that a b-coloring with 2^(n-1) + ell colors has at least 2*ell
    singleton classes whose vertices form a clique with a large common open
    neighborhood (at least 2^(n-1) - ell subsets)."""
    if g.kind != "hypercube":
        raise ValueError("singleton certificates apply to cube powers only")
    cert = validate_coloring(g, c)
    if not cert.valid_b:
        raise ValueError("singleton certificate requires a valid b-coloring")
    n = g.n
    if c.k != (1 << (n - 1)) + ell:
        raise ValueError(f"k = {c.k} does not equal 2^(n-1) + ell for ell = {ell}")
    classes = c.classes()
    singles = sorted(classes[t][0] for t in cert.singleton_classes)
    required = max(0, 2 * ell)
    open_required = (1 << (n - 1)) - ell
    chosen = tuple(singles[:required]) if len(singles) >= required else ()
    rows = _adjacency_rows(g)
    pairs = combinations(chosen, 2)
    apart = next(((a, b) for a, b in pairs if not rows[a] >> b & 1), None)
    open_size = None
    failure = None
    if len(singles) < required:
        failure = f"only {len(singles)} singleton classes, need {required}"
    elif apart is not None:
        failure = f"chosen vertices {apart[0]} and {apart[1]} are not adjacent"
    elif chosen:
        # vertex index is the subset rank
        fam = sum(1 << v for v in chosen)
        open_size = (_tables.closed_bits(fam, n, g.p) & ~fam).bit_count()
        if open_size < open_required:
            failure = f"common open neighborhood has {open_size} subsets, need {open_required}"
    return SingletonReport(
        n=n,
        p=g.p,
        k=c.k,
        ell=ell,
        singleton_count=len(singles),
        required=required,
        clique_ok=apart is None,
        chosen=chosen,
        open_size=open_size,
        open_required=open_required,
        ok=failure is None,
        failure=failure,
    )


def to_rank_indexing(n: int, c: Coloring) -> Coloring:
    """Re-index a Hamming(q=2) coloring, on subset bitmasks, for the cube
    graph on subset ranks; the two graphs are isomorphic under that map."""
    order = _tables.masks_in_order(n)
    return Coloring(tuple(c.assignment[order[v]] for v in range(1 << n)), c.k)


def coloring_to_json(g: PowerGraph, c: Coloring) -> dict:
    out = {"kind": g.kind, "n": g.n, "p": g.p, "k": c.k, "assignment": list(c.assignment)}
    if g.kind == "hamming":
        out["q"] = g.q
    return out


def vertex_label(g: PowerGraph, v: int) -> str:
    """Human-readable vertex: subset notation or coordinate tuple."""
    g._check_vertex(v)
    if g.kind == "hypercube":
        mask = _tables.masks_in_order(g.n)[v]
        return format_subset(SubsetMask(mask, GroundSet.range(g.n)))
    return "(" + ",".join(str(d) for d in HammingVertex.from_index(v, g.n, g.q).coords) + ")"

"""Power-graph adjacency, b-coloring validation, the coset coloring, and a
desk-scale exact b-chromatic solver.

Vertices are integers.  On the cube side a vertex is the rank of its subset
in the subset order, so initial segments are index prefixes; on the Hamming
side a vertex encodes its coordinate tuple in base q, first coordinate least
significant.  With q = 2 the Hamming index equals the subset bitmask.

_adjacency_rows is the one adjacency: `adjacent`, the validator, the greedy
coloring and the solver all read its neighbor bitsets, so every one of them
stops at MAX_ADJACENCY_VERTICES.  The b-coloring condition is evaluated in
one place too: _neighbor_color_masks gives the colors each vertex sees and
_dominating the first vertex of each class that sees every other class.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations

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
    """Materialized neighbor bitsets; used by the validator and the solver.

    Row u is the radius-p ball around u with u itself dropped.  Cube
    vertices are ranks, so cube rows are the kernel's rank-keyed ball table
    _tables.balls(n, p).  Hamming rows are grown by the same recurrence step,
    _tables.ball_step, over the n(q-1) one-coordinate moves, for radii
    1..min(p, n).  Kept for the life of the process, like the ball tables;
    the vertex cap holds one graph's rows to about 2 MiB.
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
        return asdict(self)


def _neighbor_color_masks(rows, assign, k) -> list[int]:
    """Bitset of the colors on the neighbors of each vertex.

    Adjacency is symmetric, so v sees color t iff v lies in near[t], the
    union of the rows of the t-colored vertices: one OR per vertex builds
    the k x V matrix near, and its transpose, taken column by column over
    binary strings, gives the masks.  Walking the rows instead would cost
    one Python step per edge end."""
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


def coset_coloring(n: int, q: int) -> Coloring:
    """Color Z_q^n by the cosets of the diagonal subgroup {(a, ..., a)}.

    q^(n-1) classes of q vertices each.  The color index is the base-q value
    of the coset representative with last coordinate 0.
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
    """Validate the coset coloring on the p-th Hamming power.

    Where the construction is claimed to work (p at least floor(n(q-1)/q)
    with q <= n-1, or p = n-1 for any q >= 2) an invalid outcome raises
    IntegrityError; outside those gates the certificate is informational.
    """
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
    value: int
    coloring: Coloring
    exact: bool
    nodes: int
    note: str = ""


class _BudgetExhausted(Exception):
    pass


def greedy_b_coloring(g: PowerGraph) -> Coloring:
    """Greedy proper coloring, then repeatedly dissolve an undominated class.

    Every class of the result has a dominating vertex, so the color count is
    a valid lower bound for the b-chromatic number.
    """
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

    For each k, k dominating vertices are seeded in index order with the
    k colors, vertex 0 always among them (the graph is vertex-transitive),
    skipping seed tuples that a symmetry fixing vertex 0 maps below
    themselves (see _decide_b_coloring); then the remaining vertices are
    assigned by most-constrained-first backtracking under properness and the
    requirement that every seed ends up seeing all other colors.  The first
    k that admits a coloring is the answer; if every k above the greedy
    fallback fails, the fallback count is exact.

    On budget exhaustion the result reports the best lower bound found.
    """
    count = g.vertex_count
    if count > MAX_SOLVER_VERTICES:
        raise InfeasibleError(f"solver capped at {MAX_SOLVER_VERTICES} vertices, got {count}")
    rows = _adjacency_rows(g)
    fallback = greedy_b_coloring(g)
    k_lo = fallback.k
    upper = rows[0].bit_count() + 1  # the graph is regular, so Delta + 1 is also its m-degree
    if g.kind == "hypercube":
        # upper_new is the least of the paper's upper bounds where they apply,
        # and None outside its range (n = 1 and p >= n included)
        ub = bounds.upper_new(g.n, g.p)
        if ub is not None:
            upper = min(upper, ub)
    if upper < k_lo:
        raise IntegrityError(
            f"fallback b-coloring uses {k_lo} colors, above the proven upper "
            f"bound {upper}; a bound or the validator is wrong"
        )
    # built only when some k is left to decide: on H(1, q) = K_q greedy
    # already meets the bound, and the set would hold C(q-1, 2) tuples of q
    symmetries = _symmetries_fixing_0(g) if upper > k_lo else ()
    state = {"nodes": 0}
    deadline = time.monotonic() + budget.max_seconds

    def charge():
        # the cap is tested before the node is counted, so a stopped search
        # reports at most max_nodes nodes
        if state["nodes"] >= budget.max_nodes:
            raise _BudgetExhausted
        state["nodes"] += 1
        if state["nodes"] % 4096 == 0 and time.monotonic() > deadline:
            raise _BudgetExhausted

    try:
        for k in range(upper, k_lo, -1):
            witness = _decide_b_coloring(rows, k, charge, symmetries)
            if witness is not None:
                coloring = Coloring(tuple(witness), k)
                cert = validate_coloring(g, coloring)
                if not cert.valid_b:
                    raise IntegrityError("solver produced an invalid witness")
                return BChromaticResult(k, coloring, True, state["nodes"])
        return BChromaticResult(k_lo, fallback, True, state["nodes"])
    except _BudgetExhausted:
        return BChromaticResult(
            k_lo,
            fallback,
            False,
            state["nodes"],
            note=f"budget exhausted; value is unknown but at least {k_lo}",
        )


def _symmetries_fixing_0(g: PowerGraph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of the base graph that fix vertex 0, as index tuples:
    sigma[v] is the image of vertex v.

    They preserve Hamming distance, so they are automorphisms of every
    power too: the C(n,2) transpositions of two coordinates and, in each
    coordinate, the C(q-1,2) transpositions of two nonzero symbols, built
    once over the base-q digits.  For q = 2 the digit index of a vertex is
    its mask and there are no symbol transpositions; cube vertices are
    ranks, so each permutation is renumbered through the rank tables.
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


def _seed_tuples(count, k, symmetries):
    """The seed tuples (0, a1 < ... < a_{k-1}) over vertices 0..count-1 in
    itertools.combinations order, less every tuple with a prefix P that some
    sigma in `symmetries` maps below itself (sorted(sigma(P)) < P).

    The prefixes are grown depth first, so a failing prefix drops all of
    its extensions at once; testing whole tuples keeps the same ones but
    visits every combination, which made the benchmark's solve jobs take
    1.6 times as long.  Each sigma keeps the bitset x of its image of the
    prefix, one OR per new seed.  Two sets of one size compare as sorted
    tuples by the lowest element of their symmetric difference, so with
    d = x ^ pmask the prefix fails exactly when d & -d & x is set.
    """
    seeds = [0]

    def grow(prefix, images):
        if len(seeds) == k:
            yield tuple(seeds)
            return
        for a in range(seeds[-1] + 1, count - k + len(seeds) + 1):
            pmask = prefix | 1 << a
            nxt = []
            for sigma, x in zip(symmetries, images):
                x |= 1 << sigma[a]
                d = x ^ pmask
                if d & -d & x:
                    break
                nxt.append(x)
            else:
                seeds.append(a)
                yield from grow(pmask, nxt)
                seeds.pop()

    return grow(1, [1] * len(symmetries))


def _decide_b_coloring(rows, k, charge, symmetries):
    """Search for a b-coloring with exactly k colors; None if impossible.

    The seed search is rooted at vertex 0.  Every PowerGraph is a Cayley
    graph: cube vertices are subsets under symmetric difference (relabelled
    by rank, with the empty set at rank 0), Hamming vertices are Z_q^n under
    addition, and adjacency depends only on the difference of the two ends.
    So the translation by -d is an automorphism that moves d to vertex 0
    and maps b-colorings to b-colorings.  Applied to one dominating vertex
    d of a k-b-coloring, it gives a k-b-coloring in which vertex 0
    dominates its class; hence k is feasible iff some seed tuple that
    contains vertex 0 extends.

    A Cayley graph is regular, so every vertex has vertex 0's degree: when
    that is below k-1 no vertex can dominate a class and k is refuted at
    once, and otherwise every vertex is a candidate.  Seed tuples (one
    dominating vertex per color) are (0, *rest) for rest in
    itertools.combinations of vertices 1..count-1, k-1 at a time, in that
    order; seed t gets color t.  They are pruned by `symmetries`,
    automorphisms that fix vertex 0 (_symmetries_fixing_0): _seed_tuples
    skips every tuple with a prefix P such that sorted(sigma(P)) < P for
    some sigma (isomorph rejection in the manner of orderly generation,
    McKay 1998).  No decision changes:

    1. Let T be the first tuple, in combinations order, that extends to a
       b-coloring.  Every sigma(T) extends too, as sigma fixes 0 and maps
       b-colorings to b-colorings (the colors are renamed to match the
       sorted seeds).  So T is the lex-minimum of its orbit.
    2. If a prefix P has sorted(sigma(P)) < P, every extension S of P has
       sorted(sigma(S)) < S: S adds elements above max(P), so S's order
       statistics up to |P| are P's, while each order statistic of sigma(S)
       is at most the same one of sigma(P).
    3. Hence T is never skipped: the first witness of a feasible k is that
       of the unpruned search, and a refuted k stays refuted.  Only the
       node count (one per tuple tried, plus the _extend calls) drops.

    The rest of the search state is bitsets, handed to _extend: can[c]
    holds the vertices that no c-colored vertex is adjacent to, so its
    uncolored members are the vertices that may still take color c, and
    missing[t] holds the colors that seed t does not see yet: at the start,
    those of the other seeds it is not adjacent to.
    """
    count = len(rows)
    if rows[0].bit_count() < k - 1:
        return None
    for seeds in _seed_tuples(count, k, symmetries):
        charge()
        seed_mask = 0
        color = [-1] * count
        for t, d in enumerate(seeds):
            seed_mask |= 1 << d
            color[d] = t
        uncolored = (1 << count) - 1 ^ seed_mask
        can = [uncolored & ~rows[d] for d in seeds]
        missing = []
        for d in seeds:
            apart = seed_mask & ~rows[d] & ~(1 << d)
            m = 0
            while apart:
                low = apart & -apart
                m |= 1 << color[low.bit_length() - 1]
                apart ^= low
            missing.append(m)
        if _extend(rows, seeds, seed_mask, color, can, missing, uncolored, charge):
            return color
    return None


def _extend(rows, seeds, seed_mask, color, can, missing, uncolored, charge):
    """Color the vertices of `uncolored`, or return False if no completion
    gives every seed all of its missing colors.

    can[c] & uncolored is the set of uncolored vertices that may take
    color c; the bits of colored vertices are never read, so coloring v with
    c only clears v's neighbors from can[c] and the undo restores that one
    int.  The branching order is fixed: the uncolored vertex with the fewest
    allowed colors first (ties to the lowest index), its colors ascending.
    """
    charge()
    if not uncolored:
        return not any(missing)
    # coverage pruning: every seed must still be able to meet its missing
    # colors, one per uncolored neighbor, each from a vertex that may take it
    for t, m in enumerate(missing):
        if not m:
            continue
        pool = rows[seeds[t]] & uncolored
        if m.bit_count() > pool.bit_count():
            return False
        while m:
            low = m & -m
            if not pool & can[low.bit_length() - 1]:
                return False
            m ^= low
    # per-vertex counts of allowed colors, bit-sliced: planes[j] holds the
    # uncolored vertices whose count has bit j set
    planes = []
    for members in can:
        carry = members & uncolored
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    # most-constrained vertex next, ties by index: narrow to the smallest
    # count one plane at a time, from the top bit down
    fewest = uncolored
    some = False
    for plane in reversed(planes):
        lower = fewest & ~plane
        if lower:
            fewest = lower
        else:
            fewest &= plane
            some = True
    if not some:
        return False  # an uncolored vertex has no allowed color
    bit_v = fewest & -fewest
    v = bit_v.bit_length() - 1
    row_v = rows[v]
    rest = uncolored ^ bit_v
    seen_seeds = row_v & seed_mask
    for c, before in enumerate(can):
        if not before & bit_v:
            continue
        color[v] = c
        can[c] = before & ~row_v
        bit = 1 << c
        touched = []
        hits = seen_seeds
        while hits:
            low = hits & -hits
            t = color[low.bit_length() - 1]  # seed t has color t
            if missing[t] & bit:
                missing[t] ^= bit
                touched.append(t)
            hits ^= low
        if _extend(rows, seeds, seed_mask, color, can, missing, rest, charge):
            return True
        can[c] = before
        for t in touched:
            missing[t] |= bit
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
    """Re-index a Hamming(q=2) coloring for the rank-indexed cube graph.

    Hamming vertices with q = 2 are subset bitmasks; cube-power vertices are
    subset ranks.  The two graphs are isomorphic under that bijection.
    """
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

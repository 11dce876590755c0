"""Power-graph adjacency, b-coloring validation, the coset coloring, and a
desk-scale exact b-chromatic solver.

Vertices are integers.  On the cube side a vertex is the rank of its subset
in the subset order, so initial segments are index prefixes; on the Hamming
side a vertex encodes its coordinate tuple in base q, first coordinate least
significant.  With q = 2 the Hamming index equals the subset bitmask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import _tables, bounds
from .errors import InfeasibleError, IntegrityError
from .subsets import GroundSet, SubsetMask, format_subset

MAX_SOLVER_VERTICES = 1024


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

    def distance(self, u: int, v: int) -> int:
        """Base-graph distance: number of differing coordinates."""
        self._check_vertex(u)
        self._check_vertex(v)
        if self.kind == "hypercube":
            order = _tables.masks_in_order(self.n)
            return (order[u] ^ order[v]).bit_count()
        du = _digit_table(self.n, self.q)[u]
        dv = _digit_table(self.n, self.q)[v]
        return sum(a != b for a, b in zip(du, dv))


def hypercube_power(n: int, p: int) -> PowerGraph:
    return PowerGraph("hypercube", n, 2, p)


def hamming_power(n: int, q: int, p: int) -> PowerGraph:
    return PowerGraph("hamming", n, q, p)


def adjacent(g: PowerGraph, u: int, v: int) -> bool:
    """Edge test in the power graph: distinct vertices within distance p."""
    if u == v:
        g._check_vertex(u)
        return False
    return g.distance(u, v) <= g.p


@lru_cache(maxsize=32)
def _adjacency_rows(g: PowerGraph) -> tuple[int, ...]:
    """Materialized neighbor bitsets; used by the validator and the solver."""
    count = g.vertex_count
    if count > 4096:
        raise InfeasibleError(f"adjacency materialization capped at 4096 vertices, got {count}")
    if g.kind == "hypercube":
        order = _tables.masks_in_order(g.n)
        rank_of = _tables.rank_of_mask(g.n)
        offsets = [e for e in order if 1 <= e.bit_count() <= min(g.p, g.n)]
        rows = [0] * count
        for u in range(count):
            mu = order[u]
            acc = 0
            for e in offsets:
                acc |= 1 << rank_of[mu ^ e]
            rows[u] = acc
        return tuple(rows)
    digits = _digit_table(g.n, g.q)
    rows = [0] * count
    for u in range(count):
        du = digits[u]
        acc = 0
        for v in range(count):
            if v != u and sum(a != b for a, b in zip(du, digits[v])) <= g.p:
                acc |= 1 << v
        rows[u] = acc
    return tuple(rows)


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
            "dominating": list(self.dominating),
            "singleton_classes": list(self.singleton_classes),
        }


def _neighbor_color_masks(g: PowerGraph, c: Coloring) -> list[int]:
    rows = _adjacency_rows(g)
    assign = c.assignment
    out = []
    for v in range(g.vertex_count):
        acc = 0
        for w in _tables.iter_bits(rows[v]):
            acc |= 1 << assign[w]
        out.append(acc)
    return out


def validate_coloring(g: PowerGraph, c: Coloring) -> BColorCertificate:
    """Check properness and find a dominating vertex for every class."""
    if len(c.assignment) != g.vertex_count:
        raise ValueError(
            f"coloring covers {len(c.assignment)} vertices, graph has {g.vertex_count}"
        )
    k = c.k
    ncolors = _neighbor_color_masks(g, c)
    assign = c.assignment
    proper = all(not ncolors[v] >> assign[v] & 1 for v in range(g.vertex_count))
    all_colors = (1 << k) - 1
    dominating: list[int | None] = [None] * k
    sizes = [0] * k
    for v in range(g.vertex_count):
        t = assign[v]
        sizes[t] += 1
        if dominating[t] is None and ncolors[v] | 1 << t == all_colors:
            dominating[t] = v
    valid_b = proper and all(d is not None for d in dominating)
    singles = tuple(t for t in range(k) if sizes[t] == 1)
    return BColorCertificate(
        k=k,
        valid_proper=proper,
        valid_b=valid_b,
        dominating=tuple(dominating),
        singleton_classes=singles,
    )


def all_vertices_dominating(g: PowerGraph, c: Coloring) -> bool:
    """Stronger property: every vertex sees every other color class."""
    ncolors = _neighbor_color_masks(g, c)
    all_colors = (1 << c.k) - 1
    return all(
        ncolors[v] | 1 << c.assignment[v] == all_colors for v in range(g.vertex_count)
    )


def coset_coloring(n: int, q: int) -> Coloring:
    """Color Z_q^n by the cosets of the diagonal subgroup {(a, ..., a)}.

    q^(n-1) classes of q vertices each.  The color index is the base-q value
    of the coset representative with last coordinate 0.
    """
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
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
    g = hamming_power(n, q, p)
    cert = validate_coloring(g, coset_coloring(n, q))
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
    count = g.vertex_count
    assign = [-1] * count
    k = 0
    for v in range(count):
        used = 0
        for w in _tables.iter_bits(rows[v]):
            if assign[w] >= 0:
                used |= 1 << assign[w]
        c = (~used & -~used).bit_length() - 1  # lowest zero bit
        assign[v] = c
        k = max(k, c + 1)
    while True:
        all_colors = (1 << k) - 1
        ncolors = [0] * count
        for v in range(count):
            for w in _tables.iter_bits(rows[v]):
                ncolors[v] |= 1 << assign[w]
        undominated = None
        for t in range(k):
            if not any(
                assign[v] == t and ncolors[v] | 1 << t == all_colors
                for v in range(count)
            ):
                undominated = t
                break
        if undominated is None:
            break
        # every vertex of the class misses a color; move them all at once
        # (the class is independent, so simultaneous recoloring stays proper)
        moves = {}
        for v in range(count):
            if assign[v] == undominated:
                free = ~(ncolors[v] | 1 << undominated) & all_colors
                moves[v] = (free & -free).bit_length() - 1
        for v, c in moves.items():
            assign[v] = c
        for v in range(count):
            if assign[v] > undominated:
                assign[v] -= 1
        k -= 1
    return Coloring(tuple(assign), k)


def _m_degree_bound(degrees: list[int]) -> int:
    ordered = sorted(degrees, reverse=True)
    best = 1
    for k in range(1, len(ordered) + 1):
        if ordered[k - 1] >= k - 1:
            best = k
    return best


def exact_b_chromatic(g: PowerGraph, budget: SolveBudget) -> BChromaticResult:
    """Exact b-chromatic number by descending-k backtracking.

    For each k, candidate dominating vertices (degree >= k-1) are seeded in
    index order with the k colors, then the remaining vertices are assigned
    by most-constrained-first backtracking under properness and the
    requirement that every seed ends up seeing all other colors.  The first
    k that admits a coloring is the answer; if every k above the greedy
    fallback fails, the fallback count is exact.

    On budget exhaustion the result reports the best lower bound found.
    """
    count = g.vertex_count
    if count > MAX_SOLVER_VERTICES:
        raise InfeasibleError(f"solver capped at {MAX_SOLVER_VERTICES} vertices, got {count}")
    rows = list(_adjacency_rows(g))
    degrees = [r.bit_count() for r in rows]
    fallback = greedy_b_coloring(g)
    k_lo = fallback.k
    upper = min(count, max(degrees) + 1, _m_degree_bound(degrees))
    if g.kind == "hypercube" and g.p <= g.n:
        rep = bounds.bound_report(g.n, g.p)
        for ub in (rep.upper_new, rep.upper_rough, rep.upper_old):
            if ub is not None:
                upper = min(upper, ub)
    if upper < k_lo:
        raise IntegrityError(
            f"fallback b-coloring uses {k_lo} colors, above the proven upper "
            f"bound {upper}; a bound or the validator is wrong"
        )
    state = {"nodes": 0}
    deadline = time.monotonic() + budget.max_seconds

    def charge():
        state["nodes"] += 1
        if state["nodes"] > budget.max_nodes:
            raise _BudgetExhausted
        if state["nodes"] % 4096 == 0 and time.monotonic() > deadline:
            raise _BudgetExhausted

    try:
        for k in range(upper, k_lo, -1):
            witness = _decide_b_coloring(rows, degrees, k, charge)
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


def _decide_b_coloring(rows, degrees, k, charge):
    """Search for a b-coloring with exactly k colors; None if impossible."""
    count = len(rows)
    cand = [v for v in range(count) if degrees[v] >= k - 1]
    if len(cand) < k:
        return None
    all_colors = (1 << k) - 1
    for seeds in combinations(cand, k):
        charge()
        seed_mask = 0
        for d in seeds:
            seed_mask |= 1 << d
        color = [-1] * count
        allowed = [all_colors] * count
        missing = [0] * k
        feasible = True
        for t, d in enumerate(seeds):
            color[d] = t
        for t, d in enumerate(seeds):
            seen = 0
            for w in _tables.iter_bits(rows[d] & seed_mask):
                seen |= 1 << color[w]
            missing[t] = all_colors & ~(1 << t) & ~seen
            for w in _tables.iter_bits(rows[d] & ~seed_mask):
                allowed[w] &= ~(1 << t)
        uncolored = ((1 << count) - 1) & ~seed_mask
        if _extend(rows, seeds, color, allowed, missing, uncolored, all_colors, charge):
            return color
    return None


def _extend(rows, seeds, color, allowed, missing, uncolored, all_colors, charge):
    charge()
    if not uncolored:
        return all(m == 0 for m in missing)
    # coverage pruning: every seed must still be able to meet its missing colors
    for t, d in enumerate(seeds):
        m = missing[t]
        if not m:
            continue
        pool = rows[d] & uncolored
        if m.bit_count() > pool.bit_count():
            return False
        for c in _tables.iter_bits(m):
            if not any(allowed[w] >> c & 1 for w in _tables.iter_bits(pool)):
                return False
    # most-constrained vertex next, ties by index
    best_v = -1
    best_count = 1 << 30
    for v in _tables.iter_bits(uncolored):
        a = allowed[v].bit_count()
        if a == 0:
            return False
        if a < best_count:
            best_count = a
            best_v = v
    v = best_v
    row_v = rows[v]
    for c in _tables.iter_bits(allowed[v]):
        color[v] = c
        bit = 1 << c
        touched_allowed = []
        for w in _tables.iter_bits(row_v & uncolored & ~(1 << v)):
            if allowed[w] & bit:
                allowed[w] &= ~bit
                touched_allowed.append(w)
        touched_missing = []
        for t, d in enumerate(seeds):
            if missing[t] & bit and row_v >> d & 1:
                missing[t] &= ~bit
                touched_missing.append(t)
        if _extend(
            rows, seeds, color, allowed, missing, uncolored ^ (1 << v), all_colors, charge
        ):
            return True
        for w in touched_allowed:
            allowed[w] |= bit
        for t in touched_missing:
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
        return {
            "n": self.n,
            "p": self.p,
            "k": self.k,
            "ell": self.ell,
            "singleton_count": self.singleton_count,
            "required": self.required,
            "clique_ok": self.clique_ok,
            "chosen": list(self.chosen),
            "open_size": self.open_size,
            "open_required": self.open_required,
            "ok": self.ok,
            "failure": self.failure,
        }


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
    report = SingletonReport(
        n=n,
        p=g.p,
        k=c.k,
        ell=ell,
        singleton_count=len(singles),
        required=required,
        clique_ok=True,
        chosen=(),
        open_size=None,
        open_required=(1 << (n - 1)) - ell,
        ok=True,
    )
    if required == 0:
        return report
    if len(singles) < required:
        report.ok = False
        report.failure = (
            f"only {len(singles)} singleton classes, need {required}"
        )
        return report
    chosen = tuple(singles[:required])
    report.chosen = chosen
    for a, b in combinations(chosen, 2):
        if not adjacent(g, a, b):
            report.clique_ok = False
            report.ok = False
            report.failure = f"chosen vertices {a} and {b} are not adjacent"
            return report
    fam_bits = 0
    for v in chosen:
        fam_bits |= 1 << v  # vertex index is the subset rank
    report.open_size = _tables.open_size_bits(fam_bits, n, g.p)
    if report.open_size < report.open_required:
        report.ok = False
        report.failure = (
            f"common open neighborhood has {report.open_size} subsets, "
            f"need {report.open_required}"
        )
    return report


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
    if g.kind == "hypercube":
        mask = _tables.masks_in_order(g.n)[v]
        return format_subset(SubsetMask(mask, GroundSet.range(g.n)))
    return "(" + ",".join(str(d) for d in _digit_table(g.n, g.q)[v]) + ")"

"""Reference implementations for the exact solver's tests.

b_coloring_with decides b-colourings by brute force: it builds its own
adjacency from Hamming distances, enumerates every proper colouring with
the colours in first-use order, and tests domination only on complete
colourings.  It knows nothing of seeds, coverage, forced demands, symmetry
or translations, so a fault in any of the exact solver's prunes shows as a
disagreement.  b-colouring is NP-hard (Irving and Manlove 1999), so small
exhaustive oracles are the natural check.

first_witness checks the seed-tuple prunes alone: it walks every rooted
seed tuple unpruned and hands each to the solver's own _extend, so a fault
inside _extend is invisible to it.  first_extending_tuple walks the same
tuples but completes each by its own brute force, seeded_extension, which
shares no code with _extend: a fault in _extend's forced demands or vertex
order that moves or loses the first extending tuple shows against it.
"""

from __future__ import annotations

from itertools import combinations

from hyperb import bcoloring as bc


def hamming_rows(n: int, q: int, p: int) -> list[int]:
    """Neighbour bitsets of H(n, q)^p: vertex v is the base-q number of its
    coordinates, and u, v are adjacent when they differ in 1..p places.
    With q = 2 this is Q_n^p on subset bitmasks."""
    digits = [tuple(v // q**i % q for i in range(n)) for v in range(q**n)]
    return [
        sum(1 << u for u, b in enumerate(digits) if 0 < sum(x != y for x, y in zip(a, b)) <= p)
        for a in digits
    ]


def _every_class_dominated(rows: list[int], members: list[int]) -> bool:
    """Whether each class holds a vertex adjacent to every other class."""
    for c, own in enumerate(members):
        others = members[:c] + members[c + 1:]
        while own:
            low = own & -own
            own ^= low
            row = rows[low.bit_length() - 1]
            if all(row & m for m in others):
                break
        else:
            return False
    return True


def b_coloring_with(rows: list[int], k: int) -> list[int] | None:
    """A b-colouring of the graph with exactly k colours, as one colour per
    vertex, or None if there is none.

    Vertices are coloured in index order, each with a colour some earlier
    vertex has or with the next unused one, so every partition into colour
    classes is met once.  A branch stops when too few vertices are left to
    open the unused colours."""
    count = len(rows)
    members = [0] * k
    assign = [0] * count

    def place(v: int, used: int) -> bool:
        if count - v < k - used:
            return False
        if v == count:
            return _every_class_dominated(rows, members)
        row = rows[v]
        for c in range(min(used + 1, k)):
            if not row & members[c]:
                members[c] |= 1 << v
                assign[v] = c
                if place(v + 1, max(used, c + 1)):
                    return True
                members[c] ^= 1 << v
        return False

    return assign if place(0, 0) else None


def root_covered(rows: list[int], seeds: tuple[int, ...]) -> bool:
    """Whether each seed t has, among its neighbours outside the seeds, at
    least as many vertices as seeds apart from it (not t, not adjacent to
    t), and for each apart seed s one that s is not adjacent to.  A tuple
    failing this has no b-colouring in which seed t dominates colour t."""
    free = set(range(len(rows))) - set(seeds)
    for t in seeds:
        pool = [v for v in free if rows[t] >> v & 1]
        apart = [s for s in seeds if s != t and not rows[t] >> s & 1]
        if len(apart) > len(pool):
            return False
        if any(all(rows[s] >> v & 1 for v in pool) for s in apart):
            return False
    return True


def first_witness(rows: list[int], k: int) -> list[int] | None:
    """The colouring that _extend completes from the first seed tuple
    (0, *rest), rest in combinations(range(1, len(rows)), k - 1), that it
    completes at all; None if it completes none.

    No symmetry, translation or prefix prune is applied; tuples failing
    root_covered are skipped, as none of them extends.  The solver's
    witness at k must be this one: its prunes only drop tuples that some
    automorphism maps to an earlier one, so they never drop the first
    extending tuple (orderly generation, McKay 1998)."""
    cuts = [0] * len(bc.CUT_REASONS)
    for rest in combinations(range(1, len(rows)), k - 1):
        seeds = (0, *rest)
        if root_covered(rows, seeds):
            color = bc._extend(rows, seeds, lambda: None, cuts)
            if color is not None:
                return color
    return None


def seeded_extension(rows: list[int], seeds: tuple[int, ...]) -> list[int] | None:
    """A proper colouring in which seed t has colour t and sees every other
    colour, as one colour per vertex, or None if there is none.

    The other vertices are coloured in index order, each with every colour
    no coloured neighbour has.  The only prune: a branch stops when a seed
    has fewer uncoloured neighbours than colours it has not yet seen."""
    k = len(seeds)
    assign = [-1] * len(rows)
    members = [0] * k
    for t, s in enumerate(seeds):
        assign[s] = t
        members[t] |= 1 << s
    free = [v for v, c in enumerate(assign) if c < 0]

    def place(i: int, uncoloured: int) -> bool:
        for t, s in enumerate(seeds):
            unseen = sum(1 for c in range(k) if c != t and not rows[s] & members[c])
            if unseen > (rows[s] & uncoloured).bit_count():
                return False
        if i == len(free):
            return True
        v = free[i]
        for c in range(k):
            if not rows[v] & members[c]:
                members[c] |= 1 << v
                assign[v] = c
                if place(i + 1, uncoloured ^ 1 << v):
                    return True
                members[c] ^= 1 << v
        return False

    return assign if place(0, sum(1 << v for v in free)) else None


def first_extending_tuple(rows: list[int], k: int) -> tuple[int, ...] | None:
    """The first seed tuple (0, *rest), rest in combinations(range(1,
    len(rows)), k - 1), that seeded_extension completes; None if none does.

    The power graphs are vertex-transitive, so some b-colouring with k
    colours has a dominating vertex at 0 iff there is one at all, and the
    exact solver's witness at its value must extend this tuple."""
    for rest in combinations(range(1, len(rows)), k - 1):
        seeds = (0, *rest)
        if seeded_extension(rows, seeds) is not None:
            return seeds
    return None

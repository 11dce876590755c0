"""Common p-neighborhoods of subset families and their verification sweeps.

The closed common p-neighborhood of a family A collects every subset whose
symmetric difference with *all* members of A has size at most p; the open
variant drops the members of A themselves.  The sweeps below check, at desk
scale, that initial segments maximize these neighborhoods and that the
closed-form counts for near-critical segment lengths are exact.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import ceil, comb, log
from typing import Iterable

from . import _tables
from .errors import InfeasibleError
from .subsets import Family, GroundSet, SubsetMask

MAX_SAMPLED_N = 12


@dataclass(frozen=True)
class CommonNeighborhood:
    """Closed and open common p-neighborhoods of one family."""

    closed: Family
    open: Family
    p: int


def refined_gate_reason(n: int, p: int) -> str | None:
    """Why (n, p) lies outside the closed-form (refined bound) range, or None
    inside it: odd n >= 5 with (n+1)/2 <= p <= n-2, even n >= 6 with
    n/2+1 <= p <= n-2."""
    if n % 2 == 1:
        if n < 5:
            return "needs odd n >= 5"
        if not (n + 1) // 2 <= p <= n - 2:
            return "needs (n+1)/2 <= p <= n-2"
    else:
        if n < 6:
            return "needs even n >= 6"
        if not n // 2 + 1 <= p <= n - 2:
            return "needs n/2+1 <= p <= n-2"
    return None


@dataclass(frozen=True)
class ClosedFormParams:
    """The two numbers of the near-critical segment count formulas at (n, p),
    derived from n and p; a cell outside refined_gate_reason raises
    ValueError.  With q = p - floor(n/2):

      odd n:  main_sum = r  = sum_{i<=q} C(n,i),              overlap = s  = C(p, q)
      even n: main_sum = r' = sum_{i<=q} C(n,i) + C(n-1, q),  overlap = s' = C(p-1, q)
    """

    n: int
    p: int
    main_sum: int = field(init=False)
    overlap: int = field(init=False)

    def __post_init__(self):
        reason = refined_gate_reason(self.n, self.p)
        if reason:
            raise ValueError(
                f"(n={self.n}, p={self.p}) outside the closed-form range: {reason}"
            )
        q = self.p - self.n // 2
        main_sum = sum(comb(self.n, i) for i in range(q + 1))
        if self.n % 2 == 1:
            overlap = comb(self.p, q)
        else:
            main_sum += comb(self.n - 1, q)
            overlap = comb(self.p - 1, q)
        object.__setattr__(self, "main_sum", main_sum)
        object.__setattr__(self, "overlap", overlap)


def common_closed(a: Family, p: int) -> Family:
    """All subsets within symmetric difference p of every member of a.

    For an empty family this is the full power set (the membership condition
    quantifies over no members).  Members are returned in subset order.
    """
    return common_neighborhood(a, p).closed


def common_open(a: Family, p: int) -> Family:
    """common_closed with the members of a removed."""
    return common_neighborhood(a, p).open


def common_neighborhood(a: Family, p: int) -> CommonNeighborhood:
    if p < 1:
        raise ValueError("radius p must be at least 1")
    closed_bits = _tables.closed_bits(a.bits, a.ground.size, p)
    return CommonNeighborhood(
        Family(closed_bits, a.ground), Family(closed_bits & ~a.bits, a.ground), p
    )


def is_initial_segment(f: Family) -> bool:
    """True iff f consists of the first |f| subsets of its power set."""
    return _tables.is_prefix_bits(f.bits)


def closed_form_open_count(params: ClosedFormParams) -> int:
    """Open-neighborhood size of the segment of length main_sum - overlap:
    2^(n-1) - (main_sum - 2*overlap)."""
    return (1 << (params.n - 1)) - (params.main_sum - 2 * params.overlap)


@dataclass
class VerifyReport:
    """Outcome of one verification sweep; JSON-ready."""

    check: str
    n: int
    p: int | None
    mode: str
    families_checked: int
    violations: list[dict] = field(default_factory=list)
    max_slack: int | None = None
    seed: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_json_dict(self) -> dict:
        out = asdict(self)
        if self.seed is None:
            del out["seed"]
        if not self.details:
            del out["details"]
        return out


def family_bits_to_strings(bits: int, n: int) -> list[str]:
    """Render a family bitset as subset notation strings (witness output),
    members in the subset order."""
    strings = _subset_strings(n)
    if bits < 0 or bits >> len(strings):
        raise ValueError("family bitset has bits outside the universe")
    return [strings[r] for r in _tables.member_ranks(bits)]


@lru_cache(maxsize=None)
def _subset_strings(n: int) -> tuple[str, ...]:
    """The subset notation of every subset of {1..n}, indexed by rank."""
    ground = GroundSet.range(n)
    return tuple(str(SubsetMask(m, ground)) for m in _tables.masks_in_order(n))


def _require_exhaustible(n: int) -> None:
    """Exhaustive sweeps enumerate all 2^(2^n) families, every one but the
    section sweep on lanes, so they share the lane cap _tables.MAX_LANE_N."""
    if n > _tables.MAX_LANE_N:
        raise InfeasibleError(
            f"exhaustive family sweep at n={n} would visit 2^{1 << n} families; "
            f"exhaustive mode is capped at n <= {_tables.MAX_LANE_N}"
        )


def check_sweep_request(
    n: int, mode: str, samples: int | None, seed: int | None
) -> None:
    """Validate the mode, arguments and caps of a family sweep.

    Sweeps call this before building any table, so a refused request costs
    nothing: ValueError for a malformed request (negative ground size,
    unknown mode, samples or seed given in exhaustive mode, missing or
    negative seed, fewer than one sample),
    InfeasibleError for one over the exhaustive or sampling cap.  A negative
    seed is refused because Random(-s) seeds like Random(s): it would
    draw the families of s under another name.
    """
    if n < 0:
        raise ValueError(f"ground size must be non-negative, got {n}")
    if mode == "exhaustive":
        if samples is not None or seed is not None:
            raise ValueError("exhaustive mode takes neither samples nor seed")
        _require_exhaustible(n)
        return
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if seed is None or samples is None:
        raise ValueError("sample mode requires both samples and seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if samples < 1:
        raise ValueError(f"sample mode needs at least one sample, got {samples}")
    if n > MAX_SAMPLED_N:
        raise InfeasibleError(f"sampling capped at n <= {MAX_SAMPLED_N}")


def sweep_families(
    n: int, mode: str, samples: int | None, seed: int | None, ball=None
) -> tuple[Iterable, int]:
    """(families, count) for a family sweep, after check_sweep_request:
    every family bitset of 2^[n] in exhaustive mode, or `samples` lazy
    sample_family_bits(n, rng, ball) draws from random.Random(seed) in
    sample mode, so a ball table makes each draw the (size, C^p[A],
    flags) triple of a folded draw.  Exhaustive mode ignores `ball`."""
    check_sweep_request(n, mode, samples, seed)
    if mode == "exhaustive":
        count = 1 << (1 << n)
        return range(count), count
    rng = random.Random(seed)
    return (sample_family_bits(n, rng, ball) for _ in range(samples)), samples


def _check_radius(n: int, p: int) -> None:
    if not 1 <= p <= n:
        raise ValueError(f"radius p={p} outside 1..{n} for ground size {n}")


def sample_family_bits(n: int, rng: random.Random, ball=None):
    """Random family: size m uniform in [1, 2^(n-1)], then m distinct subsets.

    m is drawn as rng.randint(1, 2^(n-1)) draws it, and the ranks are those
    of rng.sample(range(2^n), m), both inline from rng.getrandbits with the
    same rejection steps and sample's pool/set switch (read from
    _pool_branch), so the families and the generator state afterwards match
    them exactly (tests/test_neighborhoods.py::TestSamplerStream checks this
    against the running interpreter's random module).

    The pool branch is a partial Fisher-Yates selection (Knuth, TAOCP 2,
    3.4.2): one swap per pick on a copy of the cached list 0..2^n-1
    (_rank_pool), so a draw builds no new int objects.  The cached list is
    never handed out or written to.

    Without a ball table the family bitset is returned.  With one (the
    balls(n, p) table of the sweep's radius) the draw folds the
    intersection: it returns (m, C^p[A], flags), C^p[A] being the AND of
    ball[x] over the members x and flags the draw's unparsed bytearray of
    b"0"/b"1" per rank (_flag_bits parses it into the family bitset, which
    a sweep needs only for a witness), and None in place of the flags when
    C^p[A] is empty.  Such a family is no witness: its size 0 lies below
    every bound.  The pool branch ANDs each pick's ball as the pick is
    drawn.  C^p[A] only shrinks, so once it is empty the rest of the draw
    need only leave the generator where the full draw would, and it can:
    the rejection test j >= left reads the drawn value and the pick count,
    never the pool, and the picks' values feed only the flags and the
    AND.  So each remaining pick draws getrandbits(n) until below its
    `left`, with no swap, no flag and no parse (the drain).  A drain starts
    after a pick, so after the one draw of n + 1 bits.  The set branch
    rejects ranks already drawn, so it draws every pick with its flags and
    then ANDs the members in rank order, stopping at the first empty AND.
    """
    getrandbits = rng.getrandbits
    half = 1 << (n - 1)
    m = getrandbits(n)  # randint(1, half): n bits until below half, plus 1
    while m >= half:
        m = getrandbits(n)
    m += 1
    size = 1 << n
    drawn = ord("1")
    flags = bytearray(b"0") * size  # flags[r] is b"1" once rank r is drawn
    if _pool_branch(n)[m]:
        # pool branch: the undrawn ranks sit at pool[0 : left].  The first
        # draw is below 2^n (n + 1 bits); every later bound lies in
        # (2^(n-1), 2^n), as m <= 2^(n-1), so it draws n bits.
        pool = _rank_pool(n).copy()
        k = n + 1
        stop = size - m
        if ball is None:
            for left in range(size, stop, -1):
                j = getrandbits(k)
                while j >= left:
                    j = getrandbits(k)
                flags[pool[j]] = drawn
                pool[j] = pool[left - 1]
                k = n
            return int(flags[::-1], 2)
        closed = _tables.universe_bits(n)  # the fold's C^p[A]
        for left in range(size, stop, -1):
            j = getrandbits(k)
            while j >= left:
                j = getrandbits(k)
            r = pool[j]
            flags[r] = drawn
            pool[j] = pool[left - 1]
            k = n
            closed &= ball[r]
            if not closed:  # drain the picks at left - 1 .. stop + 1
                for left in range(left - 1, stop, -1):
                    j = getrandbits(n)
                    while j >= left:
                        j = getrandbits(n)
                return m, 0, None
    else:
        # set branch: redraw a rank already taken
        k = size.bit_length()
        for _ in range(m):
            j = getrandbits(k)
            while j >= size or flags[j] == drawn:
                j = getrandbits(k)
            flags[j] = drawn
        if ball is None:
            return int(flags[::-1], 2)
        # every pick is drawn already: fold the members in rank order
        closed = _tables.universe_bits(n)
        r = flags.find(drawn)
        while r >= 0:
            closed &= ball[r]
            if not closed:
                return m, 0, None
            r = flags.find(drawn, r + 1)
    return m, closed, flags


def _flag_bits(flags: bytearray) -> int:
    """The family bitset of a folded draw's flags (sample_family_bits),
    b"1" at the ranks drawn: one parse of the reversed bytes as binary
    digits, as the table-less draws parse theirs inline."""
    return int(flags[::-1], 2)


@lru_cache(maxsize=None)
def _rank_pool(n: int) -> list[int]:
    """The list 0..2^n-1 that every pool-branch draw of sample_family_bits
    copies.  It is sorted from _tables.masks_in_order(n), a permutation of
    the same values, so it shares that table's int objects instead of
    holding 2^n of its own."""
    return sorted(_tables.masks_in_order(n))


@lru_cache(maxsize=None)
def _pool_branch(n: int) -> bytes:
    """_pool_branch(n)[m] is 1 when rng.sample(range(2^n), m) keeps a pool
    list and 0 when it keeps a set of taken ranks, for m = 0..2^(n-1): the
    pool when 2^n <= 21 + 4^ceil(log4(3m)), the second term only for m > 5."""
    size = 1 << n
    flags = bytearray(1 + (1 << (n - 1)))
    for m in range(len(flags)):
        setsize = 21
        if m > 5:
            setsize += 4 ** ceil(log(m * 3, 4))
        flags[m] = size <= setsize
    return bytes(flags)


def verify_close_inequality(
    n: int,
    p: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> VerifyReport:
    """Check |C^p[A]| <= |C^p[I_|A|]| over families of 2^[n].

    Exhaustive mode enumerates all 2^(2^n) families (n <= 4) on byte lanes:
    the bound of every family is the popcount lane translated through the
    bound table, one lane_slack against _tables.closed_size_lane gives
    every slack at once, and _tables.lane_max_slack reads the largest (a
    bound is a size of a 2^n-element set, so no slack exceeds 2^n).
    Sample mode draws seeded random families (sweep_families) that fold
    balls(n, p) as they are drawn (sample_family_bits): each draw yields
    |A| and C^p[A] directly, with no closed_bits walk, and its unparsed
    flags, which _tally parses only for a witness.  A draw with C^p[A]
    empty, most of them for p <= 5 at n >= 10, only advances the generator
    past its remaining picks, so the families, the generator state and the
    report are those of drawing every family in full.  A family with an empty
    C^p[A] has slack bound[|A|] >= 0, so it can raise no violation.
    Any violation is reported with a full witness; slack is the bound minus
    the achieved size.
    """
    check_sweep_request(n, mode, samples, seed)
    _check_radius(n, p)
    bound = _tables.initial_segment_closed_sizes(n, p)
    report = VerifyReport(
        check="close", n=n, p=p, mode=mode, families_checked=samples, seed=seed
    )
    if mode == "exhaustive":
        report.families_checked = 1 << (1 << n)
        size_lane = _tables.closed_size_lane(n, p)
        bound_lane = _tables.popcount_lane(n).translate(bytes(bound).ljust(256, b"\0"))
        slack = _tables.lane_slack(bound_lane, size_lane)
        report.violations = [
            _witness(fam, n, p, "closed_size", size_lane[fam], bound)
            for fam in _tables.lane_below(slack)
        ]
        report.max_slack = _tables.lane_max_slack(slack, 1 << n)
        return report
    draws, _ = sweep_families(n, mode, samples, seed, _tables.balls(n, p))
    sizes = ((m, closed.bit_count(), flags) for m, closed, flags in draws)

    def witness(flags, size):
        return _witness(_flag_bits(flags), n, p, "closed_size", size, bound)

    _tally(report, sizes, bound, witness)
    return report


def _tally(report: VerifyReport, sizes, bound, witness) -> None:
    """Hold each sampled (|family|, neighborhood size, draw) against
    bound[|family|]: a violation gets witness(draw, size), and
    report.max_slack is the largest slack.  The draw is the sampler's
    unparsed record of the family (flags, or the grower's pool and taken
    bytes), which only witness parses, so a draw that raises no violation
    is never parsed."""
    max_slack = 0
    for m, size, drawn in sizes:
        slack = bound[m] - size
        if slack < 0:
            report.violations.append(witness(drawn, size))
        elif slack > max_slack:
            max_slack = slack
    report.max_slack = max_slack


def _witness(fam: int, n: int, p: int, size_key: str, size: int, bound) -> dict:
    return {
        "family": family_bits_to_strings(fam, n),
        "n": n,
        "p": p,
        size_key: size,
        "bound": bound[fam.bit_count()],
    }


def verify_open_inequality(
    n: int,
    p: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> VerifyReport:
    """Check |C^p(A)| <= |C^p(I_|A|)| over families whose members are
    pairwise within symmetric difference p (the hypothesis of the statement).

    Exhaustive mode checks every family that qualifies on byte lanes
    (n <= 4): _tables.pairwise_lane marks them, and a qualifying family
    lies inside its closed neighborhood, so its open one has
    closed_size_lane[f] - |f| members.  One lane_slack of the popcount lane
    translated through open_bound[k] + k against the size lane, both
    masked by the pairwise lane in the same pass (slack 0 outside the
    qualifying families), gives every slack at once, and
    _tables.lane_max_slack reads the largest.  Sample mode grows random
    qualifying families directly (_grow_pairwise_family): each next member
    is drawn uniformly from the subsets compatible with all current
    members.  The grower hands back |A|, its pool, which is C^p[A] and
    holds A (the balls are symmetric), and its taken bytes, so
    |C^p(A)| = |pool| - |A| takes one popcount, and _tally parses the taken
    bytes only for a witness.  A witness's size is counted afresh as
    |pool less A|: on a table where some ball drops an earlier pick (no
    symmetric table does) |pool| - |A| is short by the dropped picks, so
    such a table may hide violations, but each one reported holds with
    its exact size.
    """
    check_sweep_request(n, mode, samples, seed)
    _check_radius(n, p)
    open_bound = _tables.initial_segment_open_sizes(n, p)
    report = VerifyReport(check="open", n=n, p=p, mode=mode, families_checked=samples, seed=seed)
    if mode == "exhaustive":
        pairwise = _tables.pairwise_lane(n, p)
        size_lane = _tables.closed_size_lane(n, p)
        shifted = bytes(b + k for k, b in enumerate(open_bound)).ljust(256, b"\0")
        bound_lane = _tables.popcount_lane(n).translate(shifted)
        slack = _tables.lane_slack(bound_lane, size_lane, pairwise)
        report.details["families_scanned"] = 1 << (1 << n)
        report.families_checked = pairwise.count(1)
        report.violations = [
            _witness(fam, n, p, "open_size", size_lane[fam] - fam.bit_count(), open_bound)
            for fam in _tables.lane_below(slack)
        ]
        report.max_slack = _tables.lane_max_slack(slack, 1 << n)
        return report
    rng = random.Random(seed)
    draws = (_grow_pairwise_family(n, p, rng) for _ in range(samples))

    def witness(drawn, _):
        pool, taken = drawn
        fam = _taken_bits(taken)
        return _witness(fam, n, p, "open_size", (pool & ~fam).bit_count(), open_bound)

    sizes = ((m, pool.bit_count() - m, (pool, taken)) for m, pool, taken in draws)
    _tally(report, sizes, open_bound, witness)
    return report


def _grow_pairwise_family(n: int, p: int, rng: random.Random) -> tuple[int, int, bytearray]:
    """(|A|, C^p[A], taken) for a random family A whose members are
    pairwise within p: size target m uniform in [1, 2^(n-1)], each next
    member drawn uniformly from the subsets compatible with all current
    ones, stopping early when none is left.  taken marks the members
    (_taken_bits parses it into the family bitset), and C^p[A] holds A.

    The pool of compatible subsets starts as all N = 2^n of them, and each
    pick r keeps only ball[r].  The picks stay in the pool and are marked
    taken (_grow_in_pool), which relies on symmetric balls: a later pick s
    lies in ball[r], so ball[s] holds r, and every member lies in every
    member's ball.  The draws match randrange, so the families and the
    generator state afterwards are those of picking randrange(N) by
    rejection while at least N/8 untaken subsets are left in the pool and
    the randrange(count)-th untaken one after that
    (tests/test_neighborhoods.py::TestSamplerStream):

    * dense phase: rejection, drawing n + 1 bits per try as randrange(N)
      does; a try fails on a rank taken or outside the pool, the latter
      tested as pool & single[r] against the radius-0 table balls(n, 0),
      with no shifted copy of the pool.  No pick recounts the pool: from
      an exact count (N at the start), a lower bound on it falls by
      N - |ball| + 1 per pick, the most one pick can remove, itself
      included, as every ball has the same size.  Only when the bound
      would drop below N/8 is the pool counted again (its popcount less
      the picks so far), and only an exact count below N/8 ends the
      phase, so the phase boundary is randrange's.
    * sparse phase: the pool only shrinks, so it stays sparse.  Its
      untaken ranks are listed once, a byte at a time
      (_tables.member_ranks), and the j-th is picked, j drawn as
      randrange(count) draws it, and popped from the list.  A pick that
      removes under a quarter of the list deletes those ranks by
      bisection, highest first; one that removes more keeps the ranks
      still in the pool, read from its bytes (BENCH_open_grower.json times
      the cut-off).
    """
    m = rng.randint(1, 1 << (n - 1))
    universe = _tables.universe_bits(n)
    return _grow_in_pool(universe, _tables.balls(n, p), _tables.balls(n, 0), m, rng)


def _grow_in_pool(
    pool: int, ball, single, picks: int, rng: random.Random
) -> tuple[int, int, bytearray]:
    """(picks made, pool, taken) after up to `picks` picks from a nonempty
    pool of ranks below len(ball), as _grow_pairwise_family describes;
    single[r] is 1 << r.  All balls have the size of ball[0], and the
    table must be symmetric (r in ball[s] exactly when s in ball[r]), as
    true balls are.

    Each pick r stays in the pool, as ball[r] holds r: taken[r] marks it,
    the rejection test and the rank list skip it, and the pick pays one
    AND, pool &= ball[r].  By symmetry no later AND drops it, so the pool
    handed back is the starting pool ANDed with the picks' balls, the
    picks included, and the pool without the picks has |pool| - picks
    members.  The picks are parsed from taken only once, at the phase
    change (_taken_bits); the count handed back is taken.count(1)."""
    count = pool.bit_count()
    if not count:
        raise ValueError("cannot pick from an empty pool")
    width = len(ball)
    drop = width + 1 - ball[0].bit_count()  # the most one pick removes
    getrandbits = rng.getrandbits
    taken = bytearray(width)  # taken[r] is 1 once r is picked
    k = width.bit_length()
    left = picks
    while left and count * 8 >= width:  # dense phase
        # the count bound stays at width/8 or more for this many picks
        run = min(left, (count * 8 - width) // (drop * 8) + 1)
        left -= run
        for _ in range(run):
            r = getrandbits(k)
            while r >= width or taken[r] or not pool & single[r]:
                r = getrandbits(k)
            taken[r] = 1
            pool &= ball[r]
        count = pool.bit_count() - (picks - left)
    if left:  # sparse phase
        ranks = _tables.member_ranks(pool ^ _taken_bits(taken))
        for _ in range(left):
            count = len(ranks)
            if not count:
                break
            k = count.bit_length()
            j = getrandbits(k)
            while j >= count:
                j = getrandbits(k)
            r = ranks.pop(j)
            taken[r] = 1
            kept = pool & ball[r]
            out = pool ^ kept  # what this pick removes, r kept
            pool = kept
            if out.bit_count() * 4 < count:
                while out:
                    top = out.bit_length() - 1
                    del ranks[bisect_left(ranks, top)]
                    out ^= 1 << top
            else:  # a quarter or more goes: keep the ranks still in the pool
                held = pool.to_bytes((width + 7) >> 3, "little")
                ranks = [x for x in ranks if held[x >> 3] >> (x & 7) & 1]
    return taken.count(1), pool, taken


# bytes.translate table from the bytes 0 and 1 to the digits "0" and "1"
_DIGITS = b"01".ljust(256, b"\0")


def _taken_bits(taken: bytearray) -> int:
    """The bitset of the r with taken[r] == 1, for a bytearray of 0s and
    1s: one parse of its reversed bytes as binary digits."""
    return int(taken[::-1].translate(_DIGITS), 2)


def verify_initial_segment_closure(n: int) -> VerifyReport:
    """Closed neighborhoods of initial segments are again initial segments:
    sweep every segment length a in [0, 2^n] and every p in [1, n]."""
    if n < 1:
        raise ValueError(f"simplicial sweep needs n >= 1 for a radius in 1..n, got {n}")
    _tables.check_ball_tables(n, n)  # every radius is read: refuse before allocating
    report = VerifyReport(
        check="simplicial", n=n, p=None, mode="exhaustive", families_checked=0
    )
    for p in range(1, n + 1):
        for a, cur in enumerate(_tables.segment_closures(n, p)):
            if not _tables.is_prefix_bits(cur):
                report.violations.append(
                    {
                        "a": a,
                        "p": p,
                        "closed": family_bits_to_strings(cur, n),
                    }
                )
    # the walk stops at the first empty closure; every later one is empty,
    # an initial segment, so all 2^n + 1 lengths are checked at each radius
    report.families_checked = n * ((1 << n) + 1)
    return report


def verify_closed_form(n: int, p: int) -> VerifyReport:
    """Brute-force the two near-critical segment counts against the formulas:
    the segment of length main_sum - overlap meets the closed form exactly,
    and one subset longer already falls strictly below the shifted value."""
    params = ClosedFormParams(n, p)
    seg = params.main_sum - params.overlap
    expected = closed_form_open_count(params)
    sizes = _tables.initial_segment_open_sizes(n, p)  # checks the table cap first
    actual, next_actual = sizes[seg], sizes[seg + 1]
    next_bound = expected - 1
    report = VerifyReport(
        check="closedform",
        n=n,
        p=p,
        mode="exhaustive",
        families_checked=2,
        details={
            "main_sum": params.main_sum,
            "overlap": params.overlap,
            "segment": seg,
            "expected": expected,
            "actual": actual,
            "next_segment": seg + 1,
            "next_actual": next_actual,
            "next_strict_bound": next_bound,
        },
    )
    if actual != expected:
        report.violations.append(
            {"segment": seg, "p": p, "expected": expected, "actual": actual}
        )
    if not next_actual < next_bound:
        report.violations.append(
            {
                "segment": seg + 1,
                "p": p,
                "strict_bound": next_bound,
                "actual": next_actual,
            }
        )
    return report


def section_identity_holds(fam: int, n: int, p: int, j: int) -> bool:
    """Check one instance of the section decomposition of C^p:

    C^p[A] = (C^(p-1)[A_j+] n C^p[A_j-]) u ((C^p[A_j+] n C^(p-1)[A_j-]) + {j})

    Sections split and joined member by member (split_bits, join_bits),
    one radius at a time: the reference verify_section_identity is tested
    against.
    """
    direct = _tables.closed_bits(fam, n, p)
    minus, plus = _tables.split_bits(fam, n, j)
    m = n - 1
    side_out = _tables.closed_bits(plus, m, p - 1) & _tables.closed_bits(minus, m, p)
    side_in = _tables.closed_bits(plus, m, p) & _tables.closed_bits(minus, m, p - 1)
    return _tables.join_bits(side_out, side_in, n, j) == direct


def verify_section_identity(
    n: int,
    mode: str = "sample",
    samples: int | None = None,
    seed: int | None = None,
) -> VerifyReport:
    """Sweep the section decomposition over families, all coordinates and
    all radii p in [1, n].

    The check is section_identity_holds for every (family, j, p), on radius
    stacks (_tables.stack_balls): radius p in block p, H = 2^(n-1) bits per
    block over the subground and N = 2^n over the full ground.  Per family,
    _deposit_diff holds in block j*n + p - 1 (N bits) where the joined
    sides (_section_join) and C^p[A] differ; its non-zero blocks are the
    violations, in (j, p) order.

    The identity holds for each member r alone: y lies within p of r
    exactly when y's section part lies within p of r's (y on r's side of
    j) or within p - 1 of it (y on the other side).  C^p[A] is the AND of
    the members' balls, and the joined sides are the AND of their joined
    contributions, as _section_join commutes with AND.  So a family has an
    empty diff unless it holds a rank r whose singleton {r} has one.  A
    call that checks at least 2^n families first lists those ranks
    (_inconsistent_ranks, 2^n singleton evaluations) and evaluates only the
    families that hold one; on true ball tables there is none.  A call over
    fewer families evaluates each one.  Both read the ball tables on each
    call, caching none.
    """
    if n < 1:
        raise ValueError(f"section sweep needs n >= 1 for a coordinate, got {n}")
    families, count = sweep_families(n, mode, samples, seed)
    report = VerifyReport(
        check="section", n=n, p=None, mode=mode, families_checked=count, seed=seed
    )
    every, coords = _section_sides(n)
    suspect = _inconsistent_ranks(n, every, coords) if count >= 1 << n else -1
    full = 1 << n
    block = _tables.universe_bits(n)
    for fam in families:
        if not fam & suspect:
            continue
        diff = _deposit_diff(_tables.member_ranks(fam), n, every, coords)
        if diff:
            for k in range(n * n):
                if diff >> k * full & block:
                    report.violations.append(
                        {
                            "family": family_bits_to_strings(fam, n),
                            "i": k // n + 1,
                            "p": k % n + 1,
                        }
                    )
    return report


def _section_sides(n: int) -> tuple[int, list]:
    """(every, coords): every is the universe at radii 0..n over the
    subground; coords[j][0][r] is the subground stack (radii 0..n) of the
    compact rank of r, and coords[j][1][r] is 1 if r's subset contains j."""
    sub = list(_tables.stack_balls(n - 1, n + 1))
    coords = []
    for j in range(n):
        t = _tables.section_tables(n, j)
        plus = bytearray(b"\1") * (1 << n)
        for r in _tables.member_ranks(t.minus_selector):
            plus[r] = 0
        coords.append(([sub[c] for c in t.compact_rank], plus))
    return (1 << ((n + 1) << (n - 1))) - 1, coords


def _section_join(cm: int, cp: int, n: int, j: int) -> int:
    """The joined side of the identity at radii 1..n, radius p in bits
    [(p-1)*N, p*N), from cm and cp, the radius stacks of C[A_j-] and
    C[A_j+]: (cp << H) & cm holds C^(p-1)[A_j+] & C^p[A_j-] in block p and
    cp & (cm << H) holds C^p[A_j+] & C^(p-1)[A_j-]; with the second above
    the first, one _tables.join_radii joins every radius.

    Shifts, the deposit stages and the final masks only move and select
    bits, so this commutes with AND in (cm, cp): the join of two ANDed
    pairs is the AND of their joins."""
    half = 1 << (n - 1)
    joined = (cp << half) & cm | (cp & (cm << half)) << (n + 1) * half
    return _tables.join_radii(joined, n, j)


def _inconsistent_ranks(n: int, every: int, coords: list) -> int:
    """Bitset of the ranks r whose singleton {r} has a non-zero
    _deposit_diff.  A family holding none of these ranks satisfies the
    identity at every (j, p)."""
    bad = 0
    for r in range(1 << n):
        if _deposit_diff([r], n, every, coords):
            bad |= 1 << r
    return bad


def _deposit_diff(members: list[int], n: int, every: int, coords: list) -> int:
    """The diff of the family with these member ranks for
    verify_section_identity.  The joined side takes one join per
    coordinate: each member's stack is ANDed into its section's side, cm or
    cp.  The direct side packs C^p[A] at radii 1..n: one AND per member
    per radius over balls(n, p) for p < n, stopping once the intersection
    is empty, and the universe at p = n."""
    full = 1 << n
    width = n * full
    universe = _tables.universe_bits(n)
    packed = universe
    for p in range(n - 1, 0, -1):
        ball = _tables.balls(n, p)
        acc = universe
        for r in members:
            acc &= ball[r]
            if not acc:
                break
        packed = packed << full | acc
    out = 0
    for j, (stacks, plus) in enumerate(coords):
        cm = cp = every
        for r in members:
            if plus[r]:
                cp &= stacks[r]
            else:
                cm &= stacks[r]
        d = _section_join(cm, cp, n, j) ^ packed
        if d:
            out |= d << j * width
    return out


def find_open_counterexample(n_max: int = 4) -> dict | None:
    """Hunt for a family violating |C^p(A)| <= |C^p(I_|A|)| once the
    pairwise-difference hypothesis is dropped.

    Returns a witness dict for the smallest (n, p, family) found, or None.
    The hunt starts at n = 2, so a smaller n_max, which would search nothing
    and return None as a clean search does, raises ValueError.
    """
    if n_max < 2:
        raise ValueError(f"hunt starts at n = 2; n_max must be at least 2, got {n_max}")
    _require_exhaustible(n_max)
    for n in range(2, n_max + 1):
        for p in range(1, n):
            open_bound = _tables.initial_segment_open_sizes(n, p)
            for fam, val in enumerate(_tables.closed_bits_all(n, p)):
                size = (val & ~fam).bit_count()
                if size > open_bound[fam.bit_count()]:
                    return _witness(fam, n, p, "open_size", size, open_bound)
    return None

"""Common p-neighborhoods of subset families and their verification sweeps.

The closed common p-neighborhood of a family A collects every subset whose
symmetric difference with *all* members of A has size at most p; the open
variant drops the members of A themselves.  The sweeps below check, at desk
scale, that initial segments maximize these neighborhoods and that the
closed-form counts for near-critical segment lengths are exact.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from math import ceil, comb, log
from typing import Iterable

from . import _tables
from .errors import InfeasibleError
from .subsets import Family, GroundSet

# Exhaustive family sweeps enumerate all 2^(2^n) families; n = 4 (65 536)
# is the largest that stays a desk job.
MAX_EXHAUSTIVE_N = 4
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
    """Render a family bitset as subset notation strings (witness output)."""
    return [str(m) for m in Family(bits, GroundSet.range(n))]


def _require_exhaustible(n: int) -> None:
    if n > MAX_EXHAUSTIVE_N:
        raise InfeasibleError(
            f"exhaustive family sweep at n={n} would visit 2^{1 << n} families; "
            f"exhaustive mode is capped at n <= {MAX_EXHAUSTIVE_N}"
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
    n: int, mode: str, samples: int | None, seed: int | None
) -> tuple[Iterable[int], int]:
    """(families, count) for a family sweep, after check_sweep_request:
    every family bitset of 2^[n] in exhaustive mode, or `samples` lazy
    sample_family_bits draws from random.Random(seed) in sample mode."""
    check_sweep_request(n, mode, samples, seed)
    if mode == "exhaustive":
        count = 1 << (1 << n)
        return range(count), count
    rng = random.Random(seed)
    return (sample_family_bits(n, rng) for _ in range(samples)), samples


def _check_radius(n: int, p: int) -> None:
    if not 1 <= p <= n:
        raise ValueError(f"radius p={p} outside 1..{n} for ground size {n}")


def sample_family_bits(n: int, rng: random.Random) -> int:
    """Random family: size m uniform in [1, 2^(n-1)], then m distinct subsets.

    The ranks are those of rng.sample(range(2^n), m), drawn inline from
    rng.getrandbits with the same pool/set switch and the same rejection
    step, so the families and the generator state afterwards match it
    exactly (tests/test_neighborhoods.py::TestSamplerStream checks this
    against the running interpreter's random module).
    """
    m = rng.randint(1, 1 << (n - 1))
    size = 1 << n
    getrandbits = rng.getrandbits
    drawn = ord("1")
    flags = bytearray(b"0") * size  # flags[r] is b"1" once rank r is drawn
    setsize = 21
    if m > 5:
        setsize += 4 ** ceil(log(m * 3, 4))
    if size <= setsize:
        # pool branch: the undrawn ranks sit at pool[0 : left].  The first
        # draw is below 2^n (n + 1 bits); every later bound lies in
        # (2^(n-1), 2^n), as m <= 2^(n-1), so it draws n bits.
        pool = list(range(size))
        k = n + 1
        for left in range(size, size - m, -1):
            j = getrandbits(k)
            while j >= left:
                j = getrandbits(k)
            flags[pool[j]] = drawn
            pool[j] = pool[left - 1]
            k = n
    else:
        # set branch: redraw a rank already taken
        k = size.bit_length()
        for _ in range(m):
            j = getrandbits(k)
            while j >= size or flags[j] == drawn:
                j = getrandbits(k)
            flags[j] = drawn
    return int(flags[::-1], 2)


def _pick_set_bit(bits: int, n_universe_bits: int, rng: random.Random) -> int:
    """Uniform random set-bit index of a big-int pool.

    Draws from rng.getrandbits exactly as rng.randrange(n_universe_bits)
    (dense pools, by rejection) or rng.randrange(bits.bit_count()) (sparse
    pools, the j-th set bit) would, so its picks and the generator state
    match those calls (tests/test_neighborhoods.py::TestSamplerStream).
    """
    count = bits.bit_count()
    if not count:
        raise ValueError("cannot pick from an empty pool")
    getrandbits = rng.getrandbits
    # dense pools: rejection sampling is O(1) expected
    if count * 8 >= n_universe_bits:
        k = n_universe_bits.bit_length()
        while True:
            r = getrandbits(k)
            if r < n_universe_bits and bits >> r & 1:
                return r
    # sparse pools: halve the window towards the j-th set bit
    k = count.bit_length()
    j = getrandbits(k)
    while j >= count:
        j = getrandbits(k)
    pos = 0
    width = bits.bit_length()
    while width > 64:
        half = width >> 1
        low = bits & ((1 << half) - 1)
        c = low.bit_count()
        if j < c:
            bits = low
            width = half
        else:
            j -= c
            bits >>= half
            pos += half
            width -= half
    for _ in range(j):
        bits &= bits - 1
    return pos + (bits & -bits).bit_length() - 1


def verify_close_inequality(
    n: int,
    p: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> VerifyReport:
    """Check |C^p[A]| <= |C^p[I_|A|]| over families of 2^[n].

    Exhaustive mode enumerates all 2^(2^n) families (n <= 4); sample mode
    draws seeded random families.  Any violation is reported with a full
    witness; slack is the bound minus the achieved size.
    """
    families, count = sweep_families(n, mode, samples, seed)
    _check_radius(n, p)
    bound = _tables.initial_segment_closed_sizes(n, p)
    if mode == "exhaustive":
        sizes = zip(families, map(int.bit_count, _tables.closed_bits_all(n, p)))
    else:
        sizes = ((fam, _tables.closed_bits(fam, n, p).bit_count()) for fam in families)
    report = VerifyReport(
        check="close", n=n, p=p, mode=mode, families_checked=count, seed=seed
    )
    _tally(report, sizes, bound, "closed_size")
    return report


def _tally(report: VerifyReport, sizes, bound, size_key: str) -> None:
    """Hold each (family, neighborhood size) against bound[|family|]: a
    violation gets a witness, and report.max_slack is the largest slack.
    The loop counts nothing, as the exhaustive close sweep runs it 2^16
    times per radius; callers set families_checked."""
    n, p = report.n, report.p
    max_slack = 0
    for fam, size in sizes:
        slack = bound[fam.bit_count()] - size
        if slack < 0:
            report.violations.append(_witness(fam, n, p, size_key, size, bound))
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

    Exhaustive mode scans every family and checks those that qualify: every
    ball contains its centre, so a family is pairwise within p exactly when
    it lies inside its own closed neighborhood.  Sample mode grows random
    qualifying families directly: each next member is drawn uniformly from
    the subsets compatible with all current members.
    """
    check_sweep_request(n, mode, samples, seed)
    _check_radius(n, p)
    open_bound = _tables.initial_segment_open_sizes(n, p)
    report = VerifyReport(check="open", n=n, p=p, mode=mode, families_checked=0, seed=seed)
    if mode == "exhaustive":
        scanned = enumerate(_tables.closed_bits_all(n, p))
        closed = [(fam, val) for fam, val in scanned if not fam & ~val]
        report.details["families_scanned"] = 1 << (1 << n)
        report.families_checked = len(closed)
    else:
        rng = random.Random(seed)
        closed = (_grow_pairwise_family(n, p, rng) for _ in range(samples))
        report.families_checked = samples
    sizes = ((fam, (val & ~fam).bit_count()) for fam, val in closed)
    _tally(report, sizes, open_bound, "open_size")
    return report


def _grow_pairwise_family(n: int, p: int, rng: random.Random) -> tuple[int, int]:
    """(family, its closed neighborhood) for a random family whose members
    are pairwise within p: size target m uniform in [1, 2^(n-1)], each next
    member drawn uniformly from the subsets compatible with all current
    ones, stopping early when none is left."""
    ball = _tables.balls(n, p)
    members = 0
    # pool = closed & ~members, kept in place; every member lies in every
    # member's ball, so the closed neighborhood is pool | members
    pool = _tables.universe_bits(n)
    for _ in range(rng.randint(1, 1 << (n - 1))):
        if not pool:
            break
        r = _pick_set_bit(pool, 1 << n, rng)
        bit = 1 << r
        members |= bit
        pool = (pool ^ bit) & ball[r]
    return members, pool | members


def verify_initial_segment_closure(n: int) -> VerifyReport:
    """Closed neighborhoods of initial segments are again initial segments:
    sweep every segment length a in [0, 2^n] and every p in [1, n]."""
    if n < 1:
        raise ValueError(f"simplicial sweep needs n >= 1 for a radius in 1..n, got {n}")
    _tables.balls(n, n)  # every radius is read: build all, or refuse before allocating
    report = VerifyReport(
        check="simplicial", n=n, p=None, mode="exhaustive", families_checked=0
    )
    checked = 0
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
            checked += 1
    report.families_checked = checked
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

    The check is section_identity_holds for every (family, j, p), with the
    work hoisted to what each part depends on: the direct C^p[A] is computed
    once per family for all radii, and per coordinate j the family is split
    once and each section's closed neighborhoods at radii 0..n come from one
    walk over its members, on the subground's own ball tables.  Only the
    join and the compare run per radius.
    """
    if n < 1:
        raise ValueError(f"section sweep needs n >= 1 for a coordinate, got {n}")
    families, count = sweep_families(n, mode, samples, seed)
    report = VerifyReport(
        check="section", n=n, p=None, mode=mode, families_checked=count, seed=seed
    )
    m = n - 1
    for fam in families:
        direct = _tables.closed_bits_upto(fam, n, n)
        for j in range(n):
            minus, plus = _tables.split_bits(fam, n, j)
            c_minus = _tables.closed_bits_upto(minus, m, n)
            c_plus = _tables.closed_bits_upto(plus, m, n)
            for p in range(1, n + 1):
                side_out = c_plus[p - 1] & c_minus[p]
                side_in = c_plus[p] & c_minus[p - 1]
                if _tables.join_bits(side_out, side_in, n, j) != direct[p]:
                    report.violations.append(
                        {
                            "family": family_bits_to_strings(fam, n),
                            "i": j + 1,
                            "p": p,
                        }
                    )
    return report


def find_open_counterexample(n_max: int = 4) -> dict | None:
    """Hunt for a family violating |C^p(A)| <= |C^p(I_|A|)| once the
    pairwise-difference hypothesis is dropped.

    Returns a witness dict for the smallest (n, p, family) found, or None.
    """
    _require_exhaustible(n_max)
    for n in range(2, n_max + 1):
        for p in range(1, n):
            open_bound = _tables.initial_segment_open_sizes(n, p)
            for fam, val in enumerate(_tables.closed_bits_all(n, p)):
                size = (val & ~fam).bit_count()
                if size > open_bound[fam.bit_count()]:
                    return _witness(fam, n, p, "open_size", size, open_bound)
    return None

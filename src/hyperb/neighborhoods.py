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
from math import comb
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
    """Exact parameters of the near-critical segment count formulas.

    Odd ground size n uses (r, s); even uses (r_prime, s_prime):
      odd:  r  = sum_{i<=p-(n-1)/2} C(n,i),              s  = C(p, p-(n-1)/2)
      even: r' = sum_{i<=p-n/2} C(n,i) + C(n-1, p-n/2),  s' = C(p-1, p-n/2)
    """

    n: int
    p: int
    r: int | None = None
    s: int | None = None
    r_prime: int | None = None
    s_prime: int | None = None

    @staticmethod
    def in_range(n: int, p: int) -> bool:
        return refined_gate_reason(n, p) is None

    @classmethod
    def from_dimensions(cls, n: int, p: int) -> "ClosedFormParams":
        reason = refined_gate_reason(n, p)
        if reason:
            raise ValueError(f"(n={n}, p={p}) outside the closed-form range: {reason}")
        if n % 2 == 1:
            q = p - (n - 1) // 2
            return cls(n=n, p=p, r=sum(comb(n, i) for i in range(q + 1)), s=comb(p, q))
        q = p - n // 2
        return cls(
            n=n,
            p=p,
            r_prime=sum(comb(n, i) for i in range(q + 1)) + comb(n - 1, q),
            s_prime=comb(p - 1, q),
        )

    @property
    def main_sum(self) -> int:
        """r for odd n, r' for even n."""
        val = self.r if self.n % 2 == 1 else self.r_prime
        assert val is not None
        return val

    @property
    def overlap(self) -> int:
        """s for odd n, s' for even n."""
        val = self.s if self.n % 2 == 1 else self.s_prime
        assert val is not None
        return val


def common_closed(a: Family, p: int) -> Family:
    """All subsets within symmetric difference p of every member of a.

    For an empty family this is the full power set (the membership condition
    quantifies over no members).  Members are returned in subset order.
    """
    if p < 1:
        raise ValueError("radius p must be at least 1")
    return Family(_tables.closed_bits(a.bits, a.ground.size, p), a.ground)


def common_open(a: Family, p: int) -> Family:
    """common_closed with the members of a removed."""
    if p < 1:
        raise ValueError("radius p must be at least 1")
    bits = _tables.closed_bits(a.bits, a.ground.size, p) & ~a.bits
    return Family(bits, a.ground)


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
    if not ClosedFormParams.in_range(params.n, params.p):
        raise ValueError(f"(n={params.n}, p={params.p}) outside the closed-form range")
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
    unknown mode, missing seed, fewer than one sample), InfeasibleError for
    one over the exhaustive or sampling cap.
    """
    if n < 0:
        raise ValueError(f"ground size must be non-negative, got {n}")
    if mode == "exhaustive":
        _require_exhaustible(n)
        return
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if seed is None or samples is None:
        raise ValueError("sample mode requires both samples and seed")
    if samples < 1:
        raise ValueError(f"sample mode needs at least one sample, got {samples}")
    if n > MAX_SAMPLED_N:
        raise InfeasibleError(f"sampling capped at n <= {MAX_SAMPLED_N}")


def _check_radius(n: int, p: int) -> None:
    if not 1 <= p <= n:
        raise ValueError(f"radius p={p} outside 1..{n} for ground size {n}")


def sample_family_bits(n: int, rng: random.Random) -> int:
    """Random family: size m uniform in [1, 2^(n-1)], then m distinct subsets."""
    m = rng.randint(1, 1 << (n - 1))
    bits = 0
    for r in rng.sample(range(1 << n), m):
        bits |= 1 << r
    return bits


def _pick_set_bit(bits: int, n_universe_bits: int, rng: random.Random) -> int:
    """Uniform random set-bit index of a big-int pool."""
    count = bits.bit_count()
    # dense pools: rejection sampling is O(1) expected
    if count * 8 >= n_universe_bits:
        while True:
            r = rng.randrange(n_universe_bits)
            if bits >> r & 1:
                return r
    # sparse pools: walk 64-bit chunks to the j-th set bit
    j = rng.randrange(count)
    pos = 0
    while True:
        chunk = bits & 0xFFFFFFFFFFFFFFFF
        c = chunk.bit_count()
        if j < c:
            while True:
                low = chunk & -chunk
                if j == 0:
                    return pos + low.bit_length() - 1
                chunk ^= low
                j -= 1
        j -= c
        bits >>= 64
        pos += 64


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
    check_sweep_request(n, mode, samples, seed)
    _check_radius(n, p)
    bound = _tables.initial_segment_closed_sizes(n, p)
    if mode == "exhaustive":
        closed = enumerate(_tables.closed_bits_all(n, p))
        count = 1 << (1 << n)
    else:
        rng = random.Random(seed)
        families = (sample_family_bits(n, rng) for _ in range(samples))
        closed = ((fam, _tables.closed_bits(fam, n, p)) for fam in families)
        count = samples
    report = VerifyReport(
        check="close", n=n, p=p, mode=mode, families_checked=count, seed=seed
    )
    max_slack = 0
    for fam, val in closed:
        size = val.bit_count()
        slack = bound[fam.bit_count()] - size
        if slack < 0:
            report.violations.append(_witness(fam, n, p, "closed_size", size, bound))
        elif slack > max_slack:
            max_slack = slack
    report.max_slack = max_slack
    return report


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
        closed = ((fam, val) for fam, val in scanned if not fam & ~val)
        report.details["families_scanned"] = 1 << (1 << n)
    else:
        rng = random.Random(seed)
        closed = (_grow_pairwise_family(n, p, rng) for _ in range(samples))
    checked = 0
    max_slack = 0
    for fam, val in closed:
        checked += 1
        size = (val & ~fam).bit_count()
        slack = open_bound[fam.bit_count()] - size
        if slack < 0:
            report.violations.append(_witness(fam, n, p, "open_size", size, open_bound))
        elif slack > max_slack:
            max_slack = slack
    report.families_checked = checked
    report.max_slack = max_slack
    return report


def _grow_pairwise_family(n: int, p: int, rng: random.Random) -> tuple[int, int]:
    """(family, its closed neighborhood) for a random family whose members
    are pairwise within p: size target m uniform in [1, 2^(n-1)], each next
    member drawn uniformly from the subsets compatible with all current
    ones, stopping early when none is left."""
    ball = _tables.balls(n, p)
    members = 0
    closed = _tables.universe_bits(n)
    for _ in range(rng.randint(1, 1 << (n - 1))):
        pool = closed & ~members
        if not pool:
            break
        r = _pick_set_bit(pool, 1 << n, rng)
        members |= 1 << r
        closed &= ball[r]
    return members, closed


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
    params = ClosedFormParams.from_dimensions(n, p)
    seg = params.main_sum - params.overlap
    expected = closed_form_open_count(params)
    fam = _tables.prefix_bits(seg)
    actual = _tables.open_size_bits(fam, n, p)
    fam_next = _tables.prefix_bits(seg + 1)
    next_actual = _tables.open_size_bits(fam_next, n, p)
    next_bound = (1 << (n - 1)) - (params.main_sum - 2 * params.overlap + 1)
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
    check_sweep_request(n, mode, samples, seed)
    report = VerifyReport(
        check="section", n=n, p=None, mode=mode, families_checked=0, seed=seed
    )
    if mode == "exhaustive":
        families: Iterable[int] = range(1 << (1 << n))
        count = 1 << (1 << n)
    else:
        rng = random.Random(seed)
        families = (sample_family_bits(n, rng) for _ in range(samples))
        count = samples
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
    report.families_checked = count
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

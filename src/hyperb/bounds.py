"""Exact integer evaluation of the clique and b-chromatic bound formulas.

Every bound carries an applicability gate that mirrors the quantifier range
of the statement it comes from; outside the gate the value is absent (None)
with a reason, never zero and never an error.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb

from .neighborhoods import ClosedFormParams, VerifyReport, refined_gate_reason


def clique_number(n: int, p: int) -> int:
    """Clique number of the p-th power of the n-cube.

    Even p: sum_{i<=p/2} C(n,i); odd p: 2 * sum_{i<=(p-1)/2} C(n-1,i).
    """
    if n < 3 or not 1 <= p <= n - 1:
        raise ValueError(f"clique formula needs n >= 3 and 1 <= p <= n-1, got ({n}, {p})")
    return _clique_value(n, p)


def _clique_value(n: int, p: int) -> int:
    if p % 2 == 0:
        return sum(comb(n, i) for i in range(p // 2 + 1))
    return 2 * sum(comb(n - 1, i) for i in range((p - 1) // 2 + 1))


def _old_gate_reason(n: int, p: int) -> str | None:
    if n < 2:
        return "needs n >= 2"
    if not n // 2 < p:
        return "needs p > floor(n/2)"
    if not p < n - 1:
        return "needs p < n-1"
    return None


def lower_bound(n: int, p: int) -> int | None:
    """2^(n-1), claimed for floor(n/2) < p < n-1."""
    return None if _old_gate_reason(n, p) else 1 << (n - 1)


def upper_old(n: int, p: int) -> int | None:
    """2^(n-1) + floor(clique/2), claimed for floor(n/2) < p < n-1."""
    return None if _old_gate_reason(n, p) else (1 << (n - 1)) + _clique_value(n, p) // 2


def upper_rough(n: int, p: int) -> int | None:
    """2^(n-1) + ceil(main_sum/2) - 1 over the refined range."""
    if refined_gate_reason(n, p):
        return None
    params = ClosedFormParams(n, p)
    return (1 << (n - 1)) + (params.main_sum + 1) // 2 - 1


def upper_new(n: int, p: int) -> int | None:
    """2^(n-1) + floor((main_sum - overlap)/2) over the refined range."""
    if refined_gate_reason(n, p):
        return None
    params = ClosedFormParams(n, p)
    return (1 << (n - 1)) + (params.main_sum - params.overlap) // 2


# (column, bound, gate) per b-chromatic bound on Q_n^p, in CSV column order;
# a bound is None exactly where its gate gives a reason
_CUBE_BOUNDS = (
    ("lower", lower_bound, _old_gate_reason),
    ("upper_old", upper_old, _old_gate_reason),
    ("upper_rough", upper_rough, refined_gate_reason),
    ("upper_new", upper_new, refined_gate_reason),
)


def verify_r_ge_3s(n_max: int) -> VerifyReport:
    """Sweep the auxiliary inequality sum_{i<=q} C(n,i) >= 3*C(q+floor(n/2), q)
    over 9 <= n <= n_max, 3 <= q <= ceil(n/2)-2."""
    if n_max < 9:
        raise ValueError("sweep starts at n = 9; n_max must be at least 9")
    report = VerifyReport(
        check="r3s", n=n_max, p=None, mode="exhaustive", families_checked=0
    )
    checked = 0
    for n in range(9, n_max + 1):
        for q in range(3, (n + 1) // 2 - 1):
            r = sum(comb(n, i) for i in range(q + 1))
            s = comb(q + n // 2, q)
            checked += 1
            if r < 3 * s:
                report.violations.append({"n": n, "q": q, "r": r, "s": s})
    report.families_checked = checked
    return report


def hamming_gate(n: int, q: int, p: int) -> bool:
    """True iff the coset construction is claimed to be a b-coloring of the
    p-th power of the (n, q) Hamming graph."""
    if p < 1 or q < 2:
        return False
    if 2 <= q <= n - 1 and n * (q - 1) // q <= p <= n - 1:
        return True
    return n >= 2 and p == n - 1


def hamming_lower(n: int, q: int, p: int) -> int | None:
    """q^(n-1) when the coset construction applies; absent otherwise."""
    return q ** (n - 1) if hamming_gate(n, q, p) else None


@dataclass(frozen=True)
class BoundReport:
    """Exact bound values for one (n, p) pair, with absence reasons."""

    n: int
    p: int
    clique: int
    lower: int | None
    upper_old: int | None
    upper_rough: int | None
    upper_new: int | None
    hamming_lower: int | None = None
    reasons: dict = field(default_factory=dict)

    CSV_HEADER = "n,p,clique,lower,upper_old,upper_rough,upper_new"

    def as_csv_row(self) -> str:
        cells = (getattr(self, column) for column in self.CSV_HEADER.split(","))
        return ",".join("" if c is None else str(c) for c in cells)

    def as_json_dict(self) -> dict:
        return asdict(self)


def bound_report(n: int, p: int, q: int | None = None) -> BoundReport:
    """Aggregate every bound for the p-th power of the n-cube.

    For p >= n the power is the complete graph on 2^n vertices, so the
    clique is 2^n, the b-chromatic number is exactly 2^n, and none of the
    power bounds are claimed.
    """
    if n < 2 or p < 1 or p > n:
        raise ValueError(f"bound_report needs n >= 2 and 1 <= p <= n, got ({n}, {p})")
    complete = p == n
    # the clique formula is stated for n >= 3; Q_2^1 is a 4-cycle whose
    # clique is an edge, which the odd-p expression also yields
    clique = 1 << n if complete else _clique_value(n, p)
    values: dict[str, int | None] = {}
    reasons: dict[str, str] = {}
    for name, bound, gate in _CUBE_BOUNDS:
        values[name] = bound(n, p)
        if values[name] is None:
            reasons[name] = "p >= n: complete graph, b = 2^n exactly" if complete else gate(n, p)
    ham = hamming_lower(n, q, p) if q is not None else None
    if q is not None and ham is None:
        reasons["hamming_lower"] = "outside the coset-construction gates"
    return BoundReport(n=n, p=p, clique=clique, **values, hamming_lower=ham, reasons=reasons)


def bound_table(n_values, p_values=None) -> list[BoundReport]:
    """Bound reports over a grid, ordered by (n, p).  Any n < 2 is refused
    before a row is built; an empty grid gives an empty table."""
    n_values = sorted(n_values)
    if n_values and n_values[0] < 2:
        raise ValueError(f"bound table needs n >= 2, got n = {n_values[0]}")
    rows = []
    for n in n_values:
        ps = range(1, n + 1) if p_values is None else [p for p in p_values if p <= n]
        for p in sorted(ps):
            rows.append(bound_report(n, p))
    return rows


def table_to_csv(rows: list[BoundReport]) -> str:
    return "\n".join([BoundReport.CSV_HEADER] + [r.as_csv_row() for r in rows]) + "\n"


def table_to_json_dict(rows: list[BoundReport]) -> dict:
    return {"schema": 1, "rows": [r.as_json_dict() for r in rows]}

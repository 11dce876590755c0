"""Command-line front end: bound tables, verification sweeps, coloring
construction, exact solving, and rank/unrank debugging.  Each `verify
--theorem` is one row of `_THEOREMS`.

Exit codes: 0 success, 1 violations or integrity failure, 2 I/O or usage
failure, 3 infeasible request, 4 solver budget exhausted.  Identical
invocations (including seeds) produce byte-identical output files, except a
solve stopped by --max-seconds: its node count is wherever the clock ran
out.  Wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import bcoloring, bounds, compression, neighborhoods
from .errors import InfeasibleError, IntegrityError
from .subsets import GroundSet, format_subset, parse_subset, rank, unrank

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_IO = 2
EXIT_USAGE = 2  # argparse convention; shares the code with I/O failures
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4

DEFAULT_SAMPLES = 100_000


def _parse_range(text: str, allow_empty: bool = False) -> list[int]:
    """Parse '7' or '5..12' into a list of integers.

    An empty range such as '4..3' raises ValueError unless allow_empty: a
    sweep over no values would check nothing and still pass.  A table over
    no values is merely empty, so `table` allows it.
    """
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError:
        raise ValueError(f"expected an integer or a range like 5..12, got {text!r}") from None
    if not values and not allow_empty:
        raise ValueError(f"empty range {text!r}")
    return values


def _emit(payload: dict, output: str | None) -> int:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _write_text(text, output)


def _write_text(text: str, output: str | None) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_table(args) -> int:
    n_values = _parse_range(args.n, allow_empty=True)
    p_values = _parse_range(args.p, allow_empty=True) if args.p else None
    rows = bounds.bound_table(n_values, p_values)
    if args.format == "csv":
        return _write_text(bounds.table_to_csv(rows), args.output)
    return _emit(bounds.table_to_json_dict(rows), args.output)


def _sweep(args) -> tuple:
    """(mode, samples, seed) of a sampled sweep: exhaustive mode passes
    neither a count nor a seed, and sample mode needs --seed."""
    if args.exhaustive:
        return "exhaustive", None, None
    if args.seed is None:
        raise ValueError("sample mode requires --seed")
    return "sample", args.samples, args.seed


def _coset_results(args, n: int, _) -> list[dict]:
    """The coset check at dimension n for every --q (default 2) and --p
    (default n-1), sorted; an IntegrityError becomes an `error` entry."""
    results = []
    for q in sorted(_parse_range(args.q) if args.q else [2]):
        for p in sorted(_parse_range(args.p) if args.p else [n - 1]):
            cell = {"n": n, "q": q, "p": p}
            try:
                cert = bcoloring.verify_coset_bcoloring(n, q, p)
                cell.update(gated=bounds.hamming_gate(n, q, p), certificate=cert.as_json_dict())
            except IntegrityError as exc:
                cell["error"] = str(exc)
            results.append(cell)
    return results


# --theorem name -> (runner(args, n, p), default radii at n, or None for a
# theorem run once per n).  The library functions are looked up when a
# runner is called, so a patched module attribute is the one that runs.
_THEOREMS = {
    "close": (
        lambda args, n, p: neighborhoods.verify_close_inequality(n, p, *_sweep(args)),
        lambda n: range(1, n),
    ),
    "open": (
        lambda args, n, p: neighborhoods.verify_open_inequality(n, p, *_sweep(args)),
        lambda n: range(1, n),
    ),
    "simplicial": (lambda args, n, _: neighborhoods.verify_initial_segment_closure(n), None),
    "fixpoint": (lambda args, n, _: compression.verify_fixpoint_classification(n), None),
    "closedform": (
        lambda args, n, p: neighborhoods.verify_closed_form(n, p),
        lambda n: [p for p in range(1, n) if neighborhoods.refined_gate_reason(n, p) is None],
    ),
    "section": (
        lambda args, n, _: neighborhoods.verify_section_identity(n, *_sweep(args)), None
    ),
    "compression": (
        lambda args, n, _: compression.verify_compression_inequality(n, *_sweep(args)), None
    ),
    "r3s": (lambda args, n, _: bounds.verify_r_ge_3s(args.n_max), None),
    "coset": (_coset_results, None),
}


def _cells(args) -> list[tuple]:
    """Every (n, p) cell, derived before any sweep runs: one for r3s; else per
    n (sorted for coset) p = None, or --p if given, or the default radii at n.
    An empty default would check nothing and still pass: ValueError."""
    if args.theorem == "r3s":
        return [(None, None)]
    if not args.n:
        raise ValueError(f"--theorem {args.theorem} requires --n")
    n_values = _parse_range(args.n)
    if args.theorem == "coset":
        n_values.sort()
    default_radii = _THEOREMS[args.theorem][1]
    cells = []
    for n in n_values:
        if default_radii is None:
            radii = [None]
        else:
            radii = _parse_range(args.p) if args.p else default_radii(n)
        if not radii:
            raise ValueError(f"no radius to check for --theorem {args.theorem} at n={n}")
        cells += [(n, p) for p in radii]
    return cells


def cmd_verify(args) -> int:
    run = _THEOREMS[args.theorem][0]
    started = time.monotonic()
    outcomes = [run(args, n, p) for n, p in _cells(args)]  # all cells first
    elapsed = time.monotonic() - started
    if args.theorem == "coset":
        key, entries = "results", [r for batch in outcomes for r in batch]
        failures = sum("error" in r for r in entries)
    else:
        key, entries = "reports", [r.as_json_dict() for r in outcomes]
        failures = sum(len(r.violations) for r in outcomes)
    payload = {"schema": 1, "command": "verify", "theorem": args.theorem, key: entries}
    code = _emit(payload, args.output)
    if code != EXIT_OK:
        return code
    if args.theorem != "coset":
        counts = f"{len(outcomes)} report(s), {failures} violation(s)"
        print(f"verify {args.theorem}: {counts}, {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def cmd_solve(args) -> int:
    if (args.hypercube is None) == (args.hamming is None):
        print("error: pass exactly one of --hypercube N or --hamming N,Q", file=sys.stderr)
        return EXIT_USAGE
    if args.hypercube is not None:
        g = bcoloring.hypercube_power(int(args.hypercube), args.p)
    else:
        dims = args.hamming.split(",")
        if len(dims) != 2:
            raise ValueError(f"--hamming takes N,Q, got {args.hamming!r}")
        g = bcoloring.hamming_power(int(dims[0]), int(dims[1]), args.p)
    budget = bcoloring.SolveBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    started = time.monotonic()
    result = bcoloring.exact_b_chromatic(g, budget)
    elapsed = time.monotonic() - started
    cert = bcoloring.validate_coloring(g, result.coloring)
    payload = {
        "schema": 1,
        "command": "solve",
        "graph": {"kind": g.kind, "n": g.n, "q": g.q, "p": g.p},
        "value": result.value,
        "exact": result.exact,
        "nodes": result.nodes,
        "note": result.note,
        "witness": bcoloring.coloring_to_json(g, result.coloring),
        "certificate": cert.as_json_dict(),
    }
    code = _emit(payload, args.output)
    if code != EXIT_OK:
        return code
    status = f"b = {result.value}" if result.exact else f"b >= {result.value} (budget)"
    print(f"solve: {status}, {result.nodes} nodes, {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK if result.exact else EXIT_BUDGET


def cmd_color(args) -> int:
    coloring = bcoloring.coset_coloring(args.n, args.q)
    payload = {
        "schema": 1,
        "command": "color",
        "coloring": {
            "kind": "hamming",
            "n": args.n,
            "q": args.q,
            "k": coloring.k,
            "assignment": list(coloring.assignment),
        },
    }
    if args.p is not None:
        g = bcoloring.hamming_power(args.n, args.q, args.p)
        cert = bcoloring.validate_coloring(g, coloring)
        payload["coloring"]["p"] = args.p
        payload["certificate"] = cert.as_json_dict()
    return _emit(payload, args.output)


def cmd_rank(args) -> int:
    g = GroundSet.range(args.n)
    if (args.subset is None) == (args.rank is None):
        print("error: pass exactly one of --subset or --rank", file=sys.stderr)
        return EXIT_USAGE
    if args.subset is not None:
        x = parse_subset(args.subset, g)
    else:
        x = unrank(args.rank, g)
    payload = {
        "schema": 1,
        "command": "rank",
        "n": args.n,
        "subset": format_subset(x),
        "rank": rank(x).value,
    }
    return _emit(payload, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperb",
        description=(
            "Exact bounds, verification sweeps, and b-colorings for powers of "
            "hypercubes and Hamming graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a bound table over an (n, p) grid")
    p_table.add_argument("--n", required=True, help="dimension or range, e.g. 5..12")
    p_table.add_argument("--p", help="power or range; default 1..n per n")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--output")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "--theorem",
        required=True,
        choices=tuple(_THEOREMS),
    )
    p_verify.add_argument("--n", help="dimension or range")
    p_verify.add_argument("--p", help="power or range")
    p_verify.add_argument("--q", help="alphabet size or range (coset)")
    p_verify.add_argument("--n-max", type=int, default=64, help="sweep limit (r3s)")
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="exact b-chromatic number of one instance")
    p_solve.add_argument("--hypercube", help="dimension n")
    p_solve.add_argument("--hamming", help="dimension and alphabet as N,Q")
    p_solve.add_argument("--p", type=int, required=True)
    p_solve.add_argument("--max-nodes", type=int, default=bcoloring.SolveBudget.max_nodes)
    p_solve.add_argument(
        "--max-seconds", type=float, default=bcoloring.SolveBudget.max_seconds
    )
    p_solve.add_argument("--output")
    p_solve.set_defaults(func=cmd_solve)

    p_color = sub.add_parser("color", help="emit the coset coloring of Z_q^n")
    p_color.add_argument("--n", type=int, required=True)
    p_color.add_argument("--q", type=int, required=True)
    p_color.add_argument("--p", type=int, help="also validate on the p-th power")
    p_color.add_argument("--output")
    p_color.set_defaults(func=cmd_color)

    p_rank = sub.add_parser("rank", help="rank/unrank a subset in the subset order")
    p_rank.add_argument("--n", type=int, required=True)
    p_rank.add_argument("--subset", help='subset notation, e.g. "{1,3}"')
    p_rank.add_argument("--rank", type=int)
    p_rank.add_argument("--output")
    p_rank.set_defaults(func=cmd_rank)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads with: built once per process, since building it
    costs more than most solve jobs.  Parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # the library's error for a malformed request
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())

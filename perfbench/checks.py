"""Output checks.  Each function returns a list of problems; an empty list
means the job passed.  A job with any problem counts as failed."""

from __future__ import annotations

import json


def check_cli(job, rc: int, text: str) -> list[str]:
    """Check one CLI job's exit code and --output file against its spec."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        payload = json.loads(text)
    except ValueError:
        return problems + ["output is not JSON"]
    if job.kind == "verify":
        problems += _check_verify(job, payload)
    elif job.kind == "solve":
        problems += _check_solve(job, payload)
    elif job.kind == "coset":
        problems += _check_coset(job, payload)
    else:
        problems.append(f"unknown job kind {job.kind!r}")
    return problems


def _check_verify(job, payload) -> list[str]:
    reports = payload.get("reports", [])
    if len(reports) != len(job.reports):
        return [f"{len(reports)} reports, expected {len(job.reports)}"]
    problems = []
    for rep, (n, p, families) in zip(reports, job.reports):
        where = f"n={rep.get('n')} p={rep.get('p')}"
        if (rep.get("n"), rep.get("p")) != (n, p):
            problems.append(f"report for {where}, expected n={n} p={p}")
        if rep.get("violations"):
            problems.append(f"{len(rep['violations'])} violation(s) at {where}")
        if families is None:
            scanned = rep.get("details", {}).get("families_scanned")
            if scanned != 1 << (1 << n) or rep.get("families_checked", 0) < 1:
                problems.append(f"exhaustive sweep did not scan every family at {where}")
        elif rep.get("families_checked") != families:
            problems.append(
                f"families_checked {rep.get('families_checked')} != {families} at {where}"
            )
    return problems


def _check_solve(job, payload) -> list[str]:
    problems = []
    if payload.get("exact") is not True:
        problems.append("solve is not exact")
    if payload.get("certificate", {}).get("valid_b") is not True:
        problems.append("solve certificate is not a valid b-coloring")
    if payload.get("value") != job.expected:
        problems.append(f"solve value {payload.get('value')} != {job.expected}")
    return problems


def _check_coset(job, payload) -> list[str]:
    results = payload.get("results", [])
    got = [(r.get("n"), r.get("q"), r.get("p")) for r in results]
    problems = []
    if got != [tuple(x) for x in job.expected]:
        problems.append(f"coset results for {got}, expected {job.expected}")
    for r in results:
        where = f"n={r.get('n')} q={r.get('q')} p={r.get('p')}"
        if "error" in r:
            problems.append(f"coset error at {where}: {r['error']}")
        elif r.get("gated") is not True:
            problems.append(f"instance {where} is not gated by the program")
        elif r.get("certificate", {}).get("valid_b") is not True:
            problems.append(f"gated coset instance {where} is not a valid b-coloring")
    return problems


def check_digest(job_id: str, digest: str, reference: dict) -> list[str]:
    """Compare an output digest with the reference one for the same job and
    seed; record it as the reference when there is none yet."""
    known = reference.setdefault(job_id, digest)
    if known != digest:
        return [f"output digest {digest[:12]} differs from {known[:12]}"]
    return []


def families_in(payload) -> int:
    """Families a verify job checked, over all its reports."""
    return sum(r.get("families_checked", 0) for r in payload.get("reports", []))

"""Fault injection for the benchmark's own checker: a check must be able to
fail.  Run with `python3 -m pytest perfbench/test_checker.py`."""

import copy
import json

from checks import check_cli, check_digest
from workloads import Job, coset_instances

VERIFY = Job(
    "close-n10", "verify", reports=[(10, 1, 60), (10, 2, 60)], sampled=120
)
SOLVE = Job("solve-Q4p2", "solve", expected=8)
COSET = Job("coset-n4q3p3", "coset", expected=[(4, 3, 3)])

GOOD_VERIFY = {
    "schema": 1,
    "command": "verify",
    "theorem": "close",
    "reports": [
        {"check": "close", "n": 10, "p": p, "mode": "sample", "families_checked": 60,
         "violations": [], "max_slack": 3, "seed": 1}
        for p in (1, 2)
    ],
}
GOOD_SOLVE = {
    "schema": 1, "command": "solve", "value": 8, "exact": True, "nodes": 644426,
    "certificate": {"k": 8, "valid_proper": True, "valid_b": True},
}
GOOD_COSET = {
    "schema": 1, "command": "verify", "theorem": "coset",
    "results": [{"n": 4, "q": 3, "p": 3, "gated": True,
                 "certificate": {"k": 27, "valid_proper": True, "valid_b": True}}],
}


def tampered(payload, edit):
    out = copy.deepcopy(payload)
    edit(out)
    return json.dumps(out)


def test_untampered_outputs_pass():
    assert check_cli(VERIFY, 0, json.dumps(GOOD_VERIFY)) == []
    assert check_cli(SOLVE, 0, json.dumps(GOOD_SOLVE)) == []
    assert check_cli(COSET, 0, json.dumps(GOOD_COSET)) == []


def test_violation_fails():
    text = tampered(GOOD_VERIFY, lambda d: d["reports"][1]["violations"].append({"family": ["{}"]}))
    assert check_cli(VERIFY, 0, text)


def test_nonzero_exit_fails():
    assert check_cli(VERIFY, 1, json.dumps(GOOD_VERIFY))


def test_wrong_family_count_fails():
    text = tampered(GOOD_VERIFY, lambda d: d["reports"][0].update(families_checked=59))
    assert check_cli(VERIFY, 0, text)


def test_missing_report_fails():
    assert check_cli(VERIFY, 0, tampered(GOOD_VERIFY, lambda d: d["reports"].pop()))


def test_wrong_solver_value_fails():
    assert check_cli(SOLVE, 0, tampered(GOOD_SOLVE, lambda d: d.update(value=9)))


def test_inexact_solve_fails():
    assert check_cli(SOLVE, 0, tampered(GOOD_SOLVE, lambda d: d.update(exact=False)))


def test_invalid_solver_certificate_fails():
    text = tampered(GOOD_SOLVE, lambda d: d["certificate"].update(valid_b=False))
    assert check_cli(SOLVE, 0, text)


def test_invalid_gated_coset_fails():
    text = tampered(GOOD_COSET, lambda d: d["results"][0]["certificate"].update(valid_b=False))
    assert check_cli(COSET, 0, text)


def test_unreadable_output_fails():
    assert check_cli(SOLVE, 0, "")


def test_changed_digest_fails():
    reference = {}
    assert check_digest("solve-Q4p2", "a" * 64, reference) == []
    assert check_digest("solve-Q4p2", "a" * 64, reference) == []
    assert check_digest("solve-Q4p2", "b" * 64, reference)


def test_coset_instances_cover_the_gated_cases():
    instances = coset_instances()
    assert len(instances) == 36
    assert {(3, 2, 1), (4, 3, 3), (5, 2, 4), (3, 5, 2)} <= set(instances)

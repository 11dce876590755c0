"""Shared fixtures."""

import time

import pytest

from hyperb import bcoloring as bc

# The budget of the acceptance criteria's solver check; the sandwich test
# reuses the same solves.
CUBE_BUDGET = bc.SolveBudget(max_nodes=5_000_000, max_seconds=55.0)


@pytest.fixture(scope="session")
def solve_cube():
    """solve_cube(n, p) -> (result, seconds): the exact solve of Q_n^p, run
    once per session.  `seconds` is the time the real solve took, so a later
    caller still sees the cost of the first."""
    cache = {}

    def solve(n, p):
        if (n, p) not in cache:
            started = time.monotonic()
            result = bc.exact_b_chromatic(bc.hypercube_power(n, p), CUBE_BUDGET)
            cache[n, p] = (result, time.monotonic() - started)
        return cache[n, p]

    return solve

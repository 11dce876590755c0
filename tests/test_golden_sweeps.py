"""Golden outputs of the small-ground sweeps, pinned by sha256.

The section, fixpoint and compression sweeps and the object-level
`is_compressed` have fast paths that must give byte-identical reports.
Each digest below was recorded before those paths were rewritten; any
change to a report's content or order shows up here.
"""

import hashlib

import pytest

from hyperb import compression as cp
from hyperb.cli import main
from hyperb.subsets import GroundSet, family_from_bits


def _exhaustive(theorem, n):
    extra = [] if theorem == "fixpoint" else ["--exhaustive"]
    return (f"{theorem}-n{n}", ["--theorem", theorem, "--n", str(n), *extra])


def _sampled(theorem, n, samples, seed):
    return (f"{theorem}-n{n}-s{samples}",
            ["--theorem", theorem, "--n", str(n), "--samples", str(samples), "--seed", str(seed)])


CASES = [
    (*_exhaustive("close", 3), "ff31621749a4017cc7820ee7644a45989c8121d13850443c31858d7c556c30ba"),
    (*_exhaustive("open", 3), "d9faccfd719b6b38d5a560a67c6d797d978b7cbf5b19c1007265f3d6457886cd"),
    (*_exhaustive("fixpoint", 3), "b14b9b9dd452bc5afe8adc889fda7d7babe7efad67e75bcccf3d1c91ff8603db"),
    (*_exhaustive("compression", 3), "a7e3a283ee1b5a112f7ee7d595e09cfbfc4ef312cc72660420597eeee86adcea"),
    (*_exhaustive("close", 4), "17663a358fdda24cb4dc64fade725a50658167e7d56c3e426d4e43271fdf036a"),
    (*_exhaustive("open", 4), "7a89e57e1fa5fc10748e005fc349ea31d7681467296e26d59985c79c1dc8f6ee"),
    (*_exhaustive("fixpoint", 4), "e308a92219e3fdc22117d92beff82f3b6d33de841bed718f3d6a5cd68795734c"),
    (*_exhaustive("compression", 4), "2936fd567bc27b33198164a803d13a470af9cfc23b0f4f7d5ce2aabe38fec0e9"),
    ("section-n1..3", ["--theorem", "section", "--n", "1..3", "--exhaustive"],
     "b23352ff0eec7dff82df55113a7f1e02e10ec7329d21b45a4806639bc2ad731c"),
    (*_sampled("section", 4, 2000, 7), "f19ae69857dbe5afbea409b6bb4e0ebd1cf71544ae63f5521ed9ee880b0507cd"),
    (*_sampled("section", 5, 2000, 7), "3d27091724308eaa11abcb7e0eb9dfce07de11f8c3448b20c79bbd66fe6d1091"),
    (*_sampled("compression", 6, 200, 1), "2fa9a36b7351007a95b7f53cb2af05cd4bb290ff06b59dea49cf388cd1f2e1d5"),
]

# [is_compressed(A, i)] for every family A of 2^[4] in bitset order, labels
# 1..4 within each family, one byte per flag.
IS_COMPRESSED_N4 = "9f1deacbab546d8a6b07704d4ac6f92a4ce567c8eb4cf74d67c078ab8cfdaa8e"


@pytest.mark.parametrize("tag,argv,digest", CASES, ids=[c[0] for c in CASES])
def test_verify_output_pinned(tag, argv, digest, tmp_path, capsys):
    out = tmp_path / f"{tag}.json"
    assert main(["verify", *argv, "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_is_compressed_pinned():
    g = GroundSet.range(4)
    flags = bytes(
        cp.is_compressed(family_from_bits(bits, g), i)
        for bits in range(1 << 16)
        for i in g.labels
    )
    assert sum(flags) == 4 * 9 * 9  # both 3-bit sections are initial segments
    assert hashlib.sha256(flags).hexdigest() == IS_COMPRESSED_N4

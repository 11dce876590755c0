"""Golden outputs of the small-ground sweeps and the report serialisers,
pinned by sha256.

The section, fixpoint and compression sweeps and the object-level
`is_compressed` have fast paths that must give byte-identical reports, the
bound, certificate and verify reports must serialise to the same bytes
however their JSON dicts are built, and the family layer (segments, levels,
member order) must list the same members whichever table it reads.  Each
digest below was recorded before the code it covers was rewritten; any
change to a report's content or order shows up here.
"""

import hashlib
import json

import pytest

from hyperb import compression as cp
from hyperb import neighborhoods as nb
from hyperb.cli import main
from hyperb.subsets import Family, GroundSet, family_from_bits, initial_segment, level_set


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

# Every report type the CLI serialises: bound tables (JSON and CSV), solver
# and coloring certificates, and verify reports with and without details and
# seed.
SERIALISER_CASES = [
    ("table-json", ["table", "--n", "2..9", "--format", "json"],
     "0fe072620ca1d96742555133715afe248ab307bc7670d9427c5bf97b1d8d6b78"),
    ("table-csv", ["table", "--n", "2..9", "--format", "csv"],
     "3becd29eb8cc65d195c47e7f2681d4cc7460c7f367f7f8b79c69691ca2bded5a"),
    ("solve-Q3p2", ["solve", "--hypercube", "3", "--p", "2"],
     "a8019b9af105f162dd9483f69da1cae8fbfc589d7584010776941e9bfc40feaf"),
    ("solve-H2q3p1", ["solve", "--hamming", "2,3", "--p", "1"],
     "57839122c2bf3bd1257fef51d65f25c01ce9a48931d4b2ad54c96890ef5435a6"),
    ("color-n3q2p2", ["color", "--n", "3", "--q", "2", "--p", "2"],
     "7f6b84ea6e3116fda560b905c73f03acb8e513c904741cc57467fd28b8fe660b"),
    ("coset-n4q3p3", ["verify", "--theorem", "coset", "--n", "4", "--q", "3", "--p", "3"],
     "eea2da2de8e5b756e907d03e5e32738905f67dd032e6e0933174a4b2f639af5f"),
    ("r3s-30", ["verify", "--theorem", "r3s", "--n-max", "30"],
     "5adcca25e652f6c29571dded2786bddcd27898687897082a256070eb0f655d49"),
    ("closedform-n5..9", ["verify", "--theorem", "closedform", "--n", "5..9"],
     "9bbb7cf5196007c47baea25e27b5b82b29e8377e7f2a1483ae0947e0efd5ce2d"),
    ("simplicial-n5", ["verify", "--theorem", "simplicial", "--n", "5"],
     "10930f61084c7ea581011d58b15a2af0496d7e2abc3ef9d255f5395d5d298503"),
    ("close-n5p2-s300", ["verify", "--theorem", "close", "--n", "5", "--p", "2",
                         "--samples", "300", "--seed", "9"],
     "cb7f6b911dc978865b2b4529ed8747c0d9f25368a34327f3ed96b7a31b920244"),
]

# [is_compressed(A, i)] for every family A of 2^[4] in bitset order, labels
# 1..4 within each family, one byte per flag.
IS_COMPRESSED_N4 = "9f1deacbab546d8a6b07704d4ac6f92a4ce567c8eb4cf74d67c078ab8cfdaa8e"



def _segments():
    return [
        [list(initial_segment(m, GroundSet.range(n)).bit_masks()) for m in range((1 << n) + 1)]
        for n in range(7)
    ]


def _levels():
    return [
        [list(level_set(i, GroundSet.range(n)).bit_masks()) for i in range(n + 1)]
        for n in range(9)
    ]


def _initial_segment_flags():
    return [
        [
            nb.is_initial_segment(family_from_bits(b, GroundSet.range(n)))
            for b in range(1 << (1 << n))
        ]
        for n in range(4)
    ]


def _exceptional():
    return [list(cp.exceptional_family(GroundSet.range(n)).bit_masks()) for n in range(2, 9)]


def _witness_strings():
    cases = [
        (0, 0), (1, 0), (0b101, 3), ((1 << 8) - 1, 3), (0b1011_0110_0001, 4), (1 << 31 | 1 << 6, 5)
    ]
    return [nb.family_bits_to_strings(bits, n) for bits, n in cases]


def _sparse_label_order():
    # labels are not bit positions here; members sort by position rank
    g = GroundSet((2, 5, 7, 11))
    fam = Family.from_masks(g, [13, 2, 15, 0, 6, 9, 1, 12, 8, 4, 3, 14, 7, 10, 5, 11])
    return [[m.bits, list(m.labels())] for m in fam]


# The family layer (segments, levels, the initial-segment test, the
# exceptional fixpoint, witness strings, member order), serialised as JSON.
FAMILY_CASES = [
    ("initial_segment-n0..6", _segments,
     "ecaee08787909d4a6259dce2cbef5e33785f00f677e8d7626ce68af947baed77"),
    ("level_set-n0..8", _levels,
     "1668b65e611086302bed4ddbfc50a856189fda3b70a6c8dfdb717cf59340a850"),
    ("is_initial_segment-n0..3", _initial_segment_flags,
     "7eda55557f6d1409b44b4de2edb03090c5811ad8d33dfd107478e2fb32a077a9"),
    ("exceptional_family-n2..8", _exceptional,
     "b2de82ff09e2b1bfd2d6b3ef9211b02f14972fdb01dd307d9ef5c321fddc1aad"),
    ("family_bits_to_strings", _witness_strings,
     "1c9624194d7a8242fe1b0dc224af1b524341328307a574b263e39985a04f6811"),
    ("from_masks-sparse-labels", _sparse_label_order,
     "0e0656bdc5ef9ae5a86c5f9ec532e28bfe2eecf55bc25d6b0deb7056a6b9a9d8"),
]


@pytest.mark.parametrize("tag,build,digest", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_family_layer_pinned(tag, build, digest):
    assert hashlib.sha256(json.dumps(build()).encode()).hexdigest() == digest


@pytest.mark.parametrize("tag,argv,digest", CASES, ids=[c[0] for c in CASES])
def test_verify_output_pinned(tag, argv, digest, tmp_path, capsys):
    out = tmp_path / f"{tag}.json"
    assert main(["verify", *argv, "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "tag,argv,digest", SERIALISER_CASES, ids=[c[0] for c in SERIALISER_CASES]
)
def test_serialised_output_pinned(tag, argv, digest, tmp_path, capsys):
    out = tmp_path / f"{tag}.out"
    assert main([*argv, "--output", str(out)]) == 0
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

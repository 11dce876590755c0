"""Golden outputs of the small-ground sweeps and the report serialisers,
pinned by sha256.

The section, fixpoint and compression sweeps and the object-level
`is_compressed` have fast paths that must give byte-identical reports, the
bound, certificate and verify reports must serialise to the same bytes
however their JSON dicts are built, and the family layer (segments, levels,
member order) must list the same members whichever table it reads, and the
b-coloring layer (greedy colorings, validation certificates, singleton
reports, vertex labels) must give the same outputs whichever adjacency and
domination pass it uses, and the kernel's segment-size tables and the
pairwise-family sampler must give the same values however the ball tables
are keyed, and the object layer (`Family` rendering, membership,
neighborhoods, sections, compression, fixpoints and the family order) must
give the same outputs however a `Family` stores its members, and the two
samplers must draw the same families and leave the generator in the same
state however they consume its bits, and the sampled close sweeps on 1-4
kbit families must give the same reports however `closed_bits` walks the
members and whether or not the draws fold the balls as they are drawn.  Each digest below was recorded before the code it covers was
rewritten; any change to a report's content or order shows up here.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from hyperb import _tables
from hyperb import bcoloring as bc
from hyperb import compression as cp
from hyperb import neighborhoods as nb
from hyperb.cli import main
from hyperb.subsets import (
    Family,
    GroundSet,
    SubsetMask,
    family_cmp,
    family_from_bits,
    initial_segment,
    level_set,
)


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
    ("open-n6p4-s2000", ["--theorem", "open", "--n", "6", "--p", "4",
                         "--samples", "2000", "--seed", "17"],
     "b236c9bc8b4370e4e31faad1d33e7e9135b3788c65739dd550b5fda054495e87"),
    ("open-n10p5-s40", ["--theorem", "open", "--n", "10", "--p", "5",
                        "--samples", "40", "--seed", "7"],
     "90a53404fa7d9b6b0959110d37eca98691a359cff0b7d8c74e93029f3e198829"),
    ("close-n10p5-s40", ["--theorem", "close", "--n", "10", "--p", "5",
                         "--samples", "40", "--seed", "7"],
     "ea0470a80b66aa8ae4fd3ca8033ef6c03084b949a8aa5685c61652640503bd5a"),
    ("close-n12p11-s40", ["--theorem", "close", "--n", "12", "--p", "11",
                          "--samples", "40", "--seed", "7"],
     "1b2c649ce89b474196a3a1c96500036d72ef0ec6494288783fcbcc172a9222ec"),
    # p = 2 empties C^p[A] within a few picks of nearly every draw, so
    # most draws only advance the generator past their remaining picks
    ("close-n12p2-s40", ["--theorem", "close", "--n", "12", "--p", "2",
                         "--samples", "40", "--seed", "7"],
     "6dd65098f1c7ce8386ba4d36442ea0c08ad81a7372ba3ad9ce9f9e16dc3811e0"),
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
     "0f5c2817ada71d4124f09d4fff76fa8263af62d71ebad972fc0a62346959cf4b"),
    ("solve-H2q3p1", ["solve", "--hamming", "2,3", "--p", "1"],
     "6d0f66f88cf1f9ba75c4ac609ac174049d9f89d55352c6c46d944ae750d87fd1"),
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


def _segment_sizes():
    return [
        [list(_tables.initial_segment_closed_sizes(n, p)),
         list(_tables.initial_segment_open_sizes(n, p))]
        for n in range(1, 13)
        for p in range(1, n + 1)
    ]


def _grown(n, p, rng):
    """[family, closed neighborhood] of one _grow_pairwise_family draw,
    its taken bytes parsed and its count checked against them."""
    m, pool, taken = nb._grow_pairwise_family(n, p, rng)
    family = nb._taken_bits(taken)
    assert m == family.bit_count()
    return [family, pool]


def _pairwise_families():
    out = []
    for n, p, seed in [(6, 4, 17), (10, 5, 7)]:
        rng = random.Random(seed)
        out.append([_grown(n, p, rng) for _ in range(200)])
    return out


# random.sample switches from its pool branch to its set branch below this
# many draws from 2^12 ranks (and from 2^11).
SAMPLE_SET_BRANCH_MAX = 341


def _family_draws():
    """sample_family_bits draws for n = 1..12, then the sha256 of the final
    generator state.  The n = 12 draws include sizes on both sides of
    random.sample's set/pool switch."""
    rng = random.Random(1729)
    out = [[nb.sample_family_bits(n, rng) for _ in range(40 if n == 12 else 12)]
           for n in range(1, 13)]
    sizes = [fam.bit_count() for fam in out[-1]]
    assert min(sizes) <= SAMPLE_SET_BRANCH_MAX < max(sizes)
    out.append(hashlib.sha256(repr(rng.getstate()).encode()).hexdigest())
    return out


def _pairwise_families_full():
    """_grow_pairwise_family at n = 11 and 12 for every p in 1..n-1."""
    rng = random.Random(31)
    return [
        [_grown(n, p, rng) for _ in range(3)]
        for n in (11, 12)
        for p in range(1, n)
    ]


# The bitset kernel: |C^p[I_m]| and |C^p(I_m)| for every segment length at
# 1 <= p <= n <= 12, the (family, closed neighborhood) pairs drawn by the
# open sweep's sampler, and the families and final generator state of the
# close sweep's sampler, serialised as JSON.
KERNEL_CASES = [
    ("initial_segment_sizes-n1..12", _segment_sizes,
     "5766db84c150ca30ac4dc58ba5a1582128ae3662755646bed3f4855defe9754c"),
    ("grow_pairwise_family-n6p4-n10p5", _pairwise_families,
     "fdf9d9469175bc78350ab0439c271133672abb1a4f49f2454ec60948b8a73f2c"),
    ("sample_family_bits-n1..12", _family_draws,
     "3bac3af50235cac2da745c1c34ecc87c61a7489d7a34a3be2b48ce75ebd4abb5"),
    ("grow_pairwise_family-n11..12-all-p", _pairwise_families_full,
     "2057de3305fc21e65a34a5d23009afc0a889896303be53d69ecca0d5c994a98a"),
]


def _greedy_graphs():
    """Q_n^p for n <= 5 and H(n,q)^p for q^n <= 81, every p <= n."""
    graphs = [bc.hypercube_power(n, p) for n in range(1, 6) for p in range(1, n + 1)]
    for q in range(2, 82):
        n = 1
        while q**n <= 81:
            graphs.extend(bc.hamming_power(n, q, p) for p in range(1, n + 1))
            n += 1
    return graphs


def _greedy_assignments():
    return [list(bc.greedy_b_coloring(g).assignment) for g in _greedy_graphs()]


def _coset_certificates():
    out = []
    for q in range(2, 244):
        n = 1
        while q**n <= 243:
            for p in range(1, n):
                cert = bc.validate_coloring(bc.hamming_power(n, q, p), bc.coset_coloring(n, q))
                out.append(cert.as_json_dict())
            n += 1
    return out


def _greedy_certificates():
    return [
        bc.validate_coloring(g, bc.greedy_b_coloring(g)).as_json_dict() for g in _greedy_graphs()
    ]


def _random_coloring(rng, g):
    """Even draws: uniform colors (mostly improper).  Odd draws: a coset
    coloring with some classes split into singletons and the colors permuted
    (proper, with varied domination)."""
    count = g.vertex_count
    if rng.randrange(2) == 0:
        k = rng.randint(1, count)
        assignment = list(range(k)) + [rng.randrange(k) for _ in range(count - k)]
        rng.shuffle(assignment)
        return bc.Coloring(tuple(assignment), k)
    base = bc.coset_coloring(g.n, g.q)
    if g.kind == "hypercube":
        base = bc.to_rank_indexing(g.n, base)
    assignment = list(base.assignment)
    k = base.k
    for v in range(count):
        if rng.random() < 0.3:
            assignment[v] = k
            k += 1
    used = sorted(set(assignment))
    perm = list(range(len(used)))
    rng.shuffle(perm)
    relabel = {c: perm[i] for i, c in enumerate(used)}
    return bc.Coloring(tuple(relabel[c] for c in assignment), len(used))


def _random_certificates():
    rng = random.Random(4242)
    graphs = [
        bc.hypercube_power(3, 1), bc.hypercube_power(3, 2), bc.hypercube_power(4, 2),
        bc.hamming_power(2, 3, 1), bc.hamming_power(2, 4, 1), bc.hamming_power(3, 3, 2),
    ]
    out = []
    for _ in range(50):
        g = rng.choice(graphs)
        c = _random_coloring(rng, g)
        out.append([g.kind, g.n, g.q, g.p, list(c.assignment)])
        out.append(bc.validate_coloring(g, c).as_json_dict())
    return out


def _vertex_labels():
    graphs = [bc.hypercube_power(3, 1), bc.hamming_power(2, 3, 1), bc.hamming_power(3, 3, 1)]
    return [[bc.vertex_label(g, v) for v in range(g.vertex_count)] for g in graphs]


# The b-coloring layer: greedy colorings, validation certificates (coset,
# greedy and seeded random colorings, some improper) and vertex labels,
# serialised as JSON.
BCOLORING_CASES = [
    ("greedy_b_coloring", _greedy_assignments,
     "7cc50aff162b4d53aa48b5ab71a927a5c4ea013f4e3d31f6a73c0098fbab1481"),
    ("validate-coset-q^n<=243", _coset_certificates,
     "6e93166f8b867e20a3e7d290e1c6ed7eeb14105dedaddf5334889e3fe5e5b5a3"),
    ("validate-greedy", _greedy_certificates,
     "f43a4ce21b4b03ee9bebf24bbd1eabebe8c7e5285b1a7f84a47ceefe1206c5b0"),
    ("validate-random-50", _random_certificates,
     "ae6a1c6648611736769776eafd3f2a36d3fd5889457a9f3e128ea917f3aef9f8"),
    ("vertex_label", _vertex_labels,
     "bdd56b2a35f45db41a2adb3d8deeff7c8d873ceb224af849ab7627b8301fa9ac"),
]

def _object_families():
    """Seeded families at n = 5 and 6 and on the sparse ground {2, 5, 7, 11}:
    empty, full, sizes 1 to 4 (nonempty neighborhoods at small radii) and
    eight larger sizes."""
    rng = random.Random(2021)
    out = []
    for g in (GroundSet.range(5), GroundSet.range(6), GroundSet((2, 5, 7, 11))):
        size = 1 << g.size
        out.append(Family.from_masks(g, []))
        out.append(Family.from_masks(g, range(size)))
        for k in [1, 2, 3, 4] + [rng.randint(5, size - 1) for _ in range(8)]:
            out.append(Family.from_masks(g, rng.sample(range(size), k)))
    return out


def _object_layer():
    fams = _object_families()
    out = []
    for a in fams:
        g = a.ground
        row = [str(a), len(a), [SubsetMask(x, g) in a for x in range(1 << g.size)]]
        for p in range(1, g.size + 1):
            nbh = nb.common_neighborhood(a, p)
            row.append([str(nb.common_closed(a, p)), str(nb.common_open(a, p)),
                        str(nbh.closed), str(nbh.open), nbh.p])
        for i in g.labels:
            sec = cp.sections(a, i)
            row.append([str(sec.minus), str(sec.plus), sec.i, str(cp.compress(a, i)),
                        cp.is_compressed(a, i)])
        fixed, steps = cp.compress_fully(a)
        for f in (a, fixed):
            cls = cp.classify_fixpoint(f)
            row.append([cls.kind, None if cls.witness is None else str(cls.witness)])
        row.append([str(fixed), steps])
        out.append(row)
    pairs = [(a, b) for a, b in zip(fams, fams[1:]) if a.ground == b.ground]
    pairs += [(a, Family.from_labels(a.ground, [x.labels() for x in reversed(a.members)]))
              for a in fams[::5]]
    out.append([[family_cmp(a, b), family_cmp(b, a), a == b] for a, b in pairs])
    return out


# The object layer on seeded families: str, len and membership of every
# subset; common closed/open neighborhoods at every radius; sections,
# compression and is_compressed at every label; compress_fully and the
# fixpoint class of the family and of its fixpoint; family_cmp and == over
# consecutive pairs on one ground and against a rebuilt copy, serialised as
# JSON.
OBJECT_LAYER = "b5dc2de0ef1f1d8ed87c929ac1e82adbe45fc1f4575c7f6afa0fd44c6daaee05"


# SingletonReport dicts of the singleton-certificate test inputs: the coset
# coloring of Q_3^1 at ell = 0, the identity colorings of Q_n^n (n = 2, 3,
# 4) at ell = 2^(n-1), the solver witnesses of Q_n^p with ell > 0, then one
# report per failure message on Q_3^1 at ell = 1 under a validator forged to
# pass (a real b-coloring never reaches the first two).
SINGLETON_REPORTS = "d015c74db3fd307e99e8bede137b4290e39d020965ecaf0e2f416ac13020c2ac"


@pytest.mark.parametrize("tag,build,digest", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_family_layer_pinned(tag, build, digest):
    assert hashlib.sha256(json.dumps(build()).encode()).hexdigest() == digest


def test_object_layer_pinned():
    assert hashlib.sha256(json.dumps(_object_layer()).encode()).hexdigest() == OBJECT_LAYER


@pytest.mark.parametrize("tag,build,digest", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_pinned(tag, build, digest):
    assert hashlib.sha256(json.dumps(build()).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "tag,build,digest", BCOLORING_CASES, ids=[c[0] for c in BCOLORING_CASES]
)
def test_bcoloring_layer_pinned(tag, build, digest):
    assert hashlib.sha256(json.dumps(build()).encode()).hexdigest() == digest


def test_singleton_reports_pinned(solve_cube, monkeypatch):
    reports = [
        bc.singleton_certificate(
            bc.hypercube_power(3, 1), bc.to_rank_indexing(3, bc.coset_coloring(3, 2)), 0
        )
    ]
    for n in (2, 3, 4):
        k = 1 << n
        identity = bc.Coloring(tuple(range(k)), k)
        reports.append(bc.singleton_certificate(bc.hypercube_power(n, n), identity, k >> 1))
    for n, p in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        res, _ = solve_cube(n, p)
        ell = res.value - (1 << (n - 1))
        if ell > 0:
            reports.append(bc.singleton_certificate(bc.hypercube_power(n, p), res.coloring, ell))
    real = bc.validate_coloring
    forged = [
        ((0, 2, 2, 3, 3, 4, 4, 1), {"singleton_classes": (0,)}),  # too few singletons
        ((0, 2, 2, 3, 3, 4, 4, 1), {}),  # singletons at ranks 0 and 7, distance 3
        ((0, 1, 2, 2, 3, 3, 4, 4), {}),  # adjacent singletons, empty open neighborhood
    ]
    for assignment, fields in forged:
        monkeypatch.setattr(
            bc, "validate_coloring",
            lambda g, c: dataclasses.replace(real(g, c), valid_b=True, **fields),
        )
        coloring = bc.Coloring(assignment, 5)
        reports.append(bc.singleton_certificate(bc.hypercube_power(3, 1), coloring, 1))
    dicts = [r.as_json_dict() for r in reports]
    assert hashlib.sha256(json.dumps(dicts).encode()).hexdigest() == SINGLETON_REPORTS


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

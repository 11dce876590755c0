"""Sections, one-coordinate compression, fixpoints, and their sweeps."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperb import _tables
from hyperb import compression as cp
from hyperb.errors import InfeasibleError, IntegrityError
from hyperb.subsets import (
    Family,
    GroundSet,
    family_cmp,
    family_from_bits,
    format_subset,
    initial_segment,
)

G2 = GroundSet.range(2)
G3 = GroundSet.range(3)
G4 = GroundSet.range(4)


def random_family(g, bits):
    return family_from_bits(bits, g)


def mask_sections(a, i):
    """Oracle for cp.sections that bypasses the kernel: each member mask is
    compacted by dropping label i's bit."""
    pos = a.ground.position(i)
    sub = a.ground.without(i)
    bit = 1 << pos
    low = bit - 1
    minus, plus = [], []
    for m in a.bit_masks():
        compact = (m & low) | ((m >> (pos + 1)) << pos)
        (plus if m & bit else minus).append(compact)
    return Family.from_masks(sub, minus), Family.from_masks(sub, plus)


class TestSections:
    def test_spec_example(self):
        sec = cp.sections(Family.from_labels(G2, [[], [1], [1, 2]]), 1)
        assert [x.labels() for x in sec.minus] == [()]
        assert [x.labels() for x in sec.plus] == [(), (2,)]
        assert sec.minus.ground.labels == (2,)

    def test_empty_family(self):
        sec = cp.sections(Family.from_labels(G3, []), 2)
        assert len(sec.minus) == 0 and len(sec.plus) == 0

    def test_full_power_set_splits_evenly(self):
        full = initial_segment(8, G3)
        for i in (1, 2, 3):
            sec = cp.sections(full, i)
            sub = G3.without(i)
            assert set(sec.minus.bit_masks()) == set(range(4))
            assert set(sec.plus.bit_masks()) == set(range(4))
            assert sec.minus.ground.labels == sub.labels

    def test_label_not_in_ground(self):
        with pytest.raises(ValueError):
            cp.sections(Family.from_labels(G3, [[1]]), 4)

    @given(st.integers(0, (1 << 16) - 1), st.integers(1, 4))
    @settings(max_examples=150)
    def test_reassembly(self, bits, i):
        fam = random_family(G4, bits)
        sec = cp.sections(fam, i)
        assert len(sec.minus) + len(sec.plus) == len(fam)
        pos = G4.position(i)
        rebuilt = set()
        for m in sec.minus:
            b = m.bits
            rebuilt.add((b & ((1 << pos) - 1)) | ((b >> pos) << (pos + 1)))
        for m in sec.plus:
            b = m.bits
            rebuilt.add((b & ((1 << pos) - 1)) | ((b >> pos) << (pos + 1)) | (1 << pos))
        assert rebuilt == set(fam.bit_masks())


    @given(st.sampled_from([G4, GroundSet((2, 5, 7, 11, 12))]), st.data())
    @settings(max_examples=150)
    def test_matches_mask_oracle(self, g, data):
        fam = random_family(g, data.draw(st.integers(0, (1 << (1 << g.size)) - 1)))
        i = data.draw(st.sampled_from(g.labels))
        sec = cp.sections(fam, i)
        assert (sec.minus, sec.plus) == mask_sections(fam, i)


class TestCompress:
    def test_spec_example(self):
        out = cp.compress(Family.from_labels(G2, [[2], [1, 2]]), 1)
        assert [format_subset(x) for x in out] == ["{}", "{1}"]

    def test_initial_segment_fixed(self):
        for m in range(9):
            seg = initial_segment(m, G3)
            for i in (1, 2, 3):
                assert cp.is_compressed(seg, i)

    def test_singleton_top_label(self):
        out = cp.compress(Family.from_labels(G3, [[3]]), 3)
        assert [format_subset(x) for x in out] == ["{3}"]

    def test_is_compressed_negative(self):
        assert not cp.is_compressed(Family.from_labels(G2, [[2], [1, 2]]), 1)

    def test_empty_always_compressed(self):
        fam = Family.from_labels(G3, [[]])
        for i in (1, 2, 3):
            assert cp.is_compressed(fam, i)

    @given(st.integers(0, (1 << 16) - 1), st.integers(1, 4))
    @settings(max_examples=200)
    def test_object_route_matches_kernel_route(self, bits, i):
        from hyperb import _tables
        from hyperb.subsets import family_to_bits

        fam = random_family(G4, bits)
        obj = family_to_bits(cp.compress(fam, i))
        assert obj == _tables.compress_bits(bits, 4, i - 1)  # label i = position i-1

    @given(st.integers(0, (1 << 16) - 1), st.integers(1, 4))
    @settings(max_examples=200)
    def test_is_compressed_kernel_route_matches_object_compress(self, bits, i):
        fam = random_family(G4, bits)
        assert cp.is_compressed(fam, i) == (cp.compress(fam, i).bit_masks() == fam.bit_masks())

    @given(st.integers(0, (1 << 16) - 1), st.integers(1, 4))
    @settings(max_examples=200)
    def test_cardinality_and_order(self, bits, i):
        fam = random_family(G4, bits)
        out = cp.compress(fam, i)
        assert len(out) == len(fam)
        assert family_cmp(out, fam) != 1  # never later in the family order
        again = cp.compress(out, i)
        assert again.bit_masks() == out.bit_masks()  # idempotent per coordinate


class TestCompressFully:
    def test_initial_segment_zero_steps(self):
        seg = initial_segment(5, G3)
        out, steps = cp.compress_fully(seg)
        assert steps == 0 and out.bit_masks() == seg.bit_masks()

    def test_spec_example(self):
        out, steps = cp.compress_fully(Family.from_labels(G2, [[2], [1, 2]]))
        assert steps == 1
        assert [format_subset(x) for x in out] == ["{}", "{1}"]

    def test_exhaustive_n3_reaches_fixpoints(self):
        for bits in range(1 << 8):
            fam = random_family(G3, bits)
            out, _ = cp.compress_fully(fam)
            assert len(out) == len(fam)
            for i in (1, 2, 3):
                assert cp.is_compressed(out, i)


class TestClassify:
    def test_initial_segment(self):
        assert cp.classify_fixpoint(initial_segment(5, G4)).kind == "initial_segment"

    def test_exceptional_odd_n3(self):
        fam = Family.from_labels(G3, [[], [1], [2], [1, 2]])
        out = cp.classify_fixpoint(fam)
        assert out.kind == "exceptional_odd"
        assert format_subset(out.witness) == "{3}"
        # confirmed compressed at every label and of size 2^(n-1)
        assert len(fam) == 4
        for i in (1, 2, 3):
            assert cp.is_compressed(fam, i)

    def test_exceptional_even_n4(self):
        fam = cp.exceptional_family(G4)
        out = cp.classify_fixpoint(fam)
        assert out.kind == "exceptional_even"
        assert format_subset(out.witness) == "{1,4}"
        assert len(fam) == 8
        for i in (1, 2, 3, 4):
            assert cp.is_compressed(fam, i)
        assert not set(fam.bit_masks()) == set(initial_segment(8, G4).bit_masks())

    def test_exceptional_params_match_the_paper_sums(self):
        # the paper's segment lengths and removed labels, written out per parity
        for n in range(1, 65):
            if n % 2 == 1:
                ell = sum(comb(n, i) for i in range((n - 1) // 2 + 1)) + 1
                labels = range((n + 3) // 2, n + 1)
            else:
                ell = sum(comb(n, i) for i in range(n // 2)) + comb(n - 1, n // 2 - 1) + 1
                labels = [1, *range(n // 2 + 2, n + 1)]
            removed = sum(1 << (lab - 1) for lab in labels)
            assert cp.exceptional_params(n) == (ell, removed), n

    def test_not_fixpoint(self):
        assert (
            cp.classify_fixpoint(Family.from_labels(G2, [[2], [1, 2]])).kind
            == "not_fixpoint"
        )

    def test_integrity_error_path(self, monkeypatch):
        # No real family can trigger the error (that is the point of the
        # classification), so fake the known exceptional form away and watch
        # the genuine exceptional fixpoint fall through to the error.
        monkeypatch.setattr(cp, "exceptional_bits", lambda n: 0)
        with pytest.raises(IntegrityError):
            cp.classify_fixpoint(Family.from_labels(G3, [[], [1], [2], [1, 2]]))


class TestSweeps:
    def test_fixpoint_sweep_n3(self):
        rep = cp.verify_fixpoint_classification(3)
        assert rep.ok
        assert rep.families_checked == 256
        assert rep.details["kinds"]["exceptional_odd"] > 0
        assert rep.details["kinds"]["exceptional_even"] == 0

    def test_fixpoint_sweep_reports_every_family_of_a_bad_fixpoint(self, monkeypatch):
        # With the even exceptional form faked away, every family whose
        # compression reaches it must be reported, not only the first.
        real = cp.exceptional_bits
        monkeypatch.setattr(cp, "exceptional_bits", lambda n: real(n) ^ 1)
        rep = cp.verify_fixpoint_classification(4)
        assert len(rep.violations) == 6400
        assert {v["error"] for v in rep.violations} == {"unclassifiable fixpoint"}
        monkeypatch.undo()
        assert cp.verify_fixpoint_classification(4).details["kinds"]["exceptional_even"] == 6400

    def test_size_changing_compression_is_reported(self, monkeypatch):
        monkeypatch.setattr(cp, "compress_fully_bits", lambda fam, n: (fam ^ 1, 0))
        rep = cp.verify_fixpoint_classification(2)
        assert len(rep.violations) == 16
        assert {v["error"] for v in rep.violations} == {"size changed"}

    def test_scan_stopping_early_is_reported(self, monkeypatch):
        # a scan that stops at once leaves every uncompressed family as it is
        monkeypatch.setattr(cp, "compress_fully_bits", lambda fam, n: (fam, 0))
        rep = cp.verify_fixpoint_classification(2)
        kinds = [cp.classify_fixpoint_bits(fam, 2)[0] for fam in range(16)]
        stuck = kinds.count(cp.KIND_NOT_FIXPOINT)
        assert stuck and len(rep.violations) == stuck
        assert {v["error"] for v in rep.violations} == {"scan terminated on a non-fixpoint"}

    def test_fixpoint_sweep_rejects_large_n(self):
        with pytest.raises(InfeasibleError):
            cp.verify_fixpoint_classification(5)

    def test_fixpoint_sweep_rejects_negative_n(self):
        with pytest.raises(ValueError, match="ground size"):
            cp.verify_fixpoint_classification(-1)

    def test_compression_inequality_exhaustive_n3(self):
        rep = cp.verify_compression_inequality(3, "exhaustive")
        assert rep.ok and rep.families_checked == 256

    def test_compression_inequality_sampled_n5(self):
        rep = cp.verify_compression_inequality(5, "sample", samples=2000, seed=11)
        assert rep.ok and rep.families_checked == 2000

    def test_compression_inequality_exhaustive_n4(self):
        rep = cp.verify_compression_inequality(4, "exhaustive")
        assert rep.ok and rep.families_checked == 65536

    @pytest.mark.slow
    def test_compression_inequality_full_scale(self):
        # compression never shrinks the common closed neighborhood: 10^5
        # random families at each of n = 5 and 6, all coordinates and radii
        for n in (5, 6):
            rep = cp.verify_compression_inequality(n, "sample", samples=100_000, seed=n)
            assert rep.ok and rep.families_checked == 100_000

    @pytest.mark.parametrize("n,mode,samples,seed", [(3, "exhaustive", None, None),
                                                     (5, "sample", 300, 2)])
    def test_compression_inequality_reports_faulty_compression(
        self, monkeypatch, n, mode, samples, seed
    ):
        # a compression that returns the whole power set has an empty common
        # closed neighborhood at every radius below n, so every family with a
        # nonempty one must be reported against it
        monkeypatch.setattr(
            _tables.SectionTables, "compress", lambda self, fam: _tables.universe_bits(self.n)
        )
        rep = cp.verify_compression_inequality(n, mode, samples=samples, seed=seed)
        assert rep.violations
        assert all(v["compressed_size"] == 0 and v["size"] > 0 for v in rep.violations)
        assert {v["i"] for v in rep.violations} == set(range(1, n + 1))

    def test_compression_inequality_needs_seed(self):
        with pytest.raises(ValueError):
            cp.verify_compression_inequality(5, "sample", samples=100)

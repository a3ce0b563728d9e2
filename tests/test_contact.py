import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactfit.contact import (ContactSegmentation, ContactSignature,
                                ContactState, ImageSupport, coarsen_signature,
                                contact_stats, iou_segmentation,
                                iou_signature, segmentation_from_signature)
from contactfit.errors import GranularityError, ParameterError
from contactfit.inference_filter import RawPrediction
from contactfit.regions import CoarsenMap

C = ContactState.CONTACT
M = ContactState.MASKED
N = ContactState.NO_CONTACT


def sig(n, contact=(), masked=()):
    return ContactSignature.from_sets(n, contact=contact, masked=masked)


# hypothesis strategy: a random signature at granularity n
def signatures(n):
    pair_idx = [(a, b) for a in range(n) for b in range(a + 1, n)]

    @st.composite
    def build(draw):
        states = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]),
                               min_size=len(pair_idx), max_size=len(pair_idx)))
        return ContactSignature(n, [(p, s) for p, s in zip(pair_idx, states)])
    return build()


class TestSignature:
    def test_symmetry_by_construction(self):
        s = sig(5, contact=[(1, 3)], masked=[(0, 4)])
        assert s.state(1, 3) == s.state(3, 1) == C
        assert s.state(4, 0) == M
        assert s.state(0, 1) == N

    def test_diagonal_is_an_error(self):
        s = sig(5)
        with pytest.raises(ParameterError):
            s.state(2, 2)
        with pytest.raises(ParameterError):
            sig(5, contact=[(2, 2)])

    def test_conflicting_states_rejected(self):
        with pytest.raises(ParameterError):
            ContactSignature(4, [((0, 1), C), ((1, 0), M)])

    @pytest.mark.parametrize("rows", [[((1, 3), C), ((3, 1), N)],
                                      [((1, 3), N), ((1, 3), C)],
                                      [((3, 1), M), ((1, 3), N)]])
    def test_no_contact_row_conflicts_too(self, rows):
        with pytest.raises(ParameterError, match=r"\(1, 3\)"):
            ContactSignature(4, rows)

    def test_repeated_agreeing_rows_accepted(self):
        s = ContactSignature(4, [((1, 3), C), ((3, 1), C), ((0, 2), N), ((2, 0), N)])
        assert s.contact_pairs() == [(1, 3)]
        assert s == sig(4, contact=[(1, 3)])

    @settings(max_examples=60, deadline=None)
    @given(signatures(6))
    def test_symmetric_query_property(self, s):
        for a in range(6):
            for b in range(6):
                if a != b:
                    assert s.state(a, b) == s.state(b, a)


class TestSegmentationFromSignature:
    def test_empty(self):
        seg = segmentation_from_signature(sig(4))
        assert seg.states.tolist() == [0, 0, 0, 0]

    def test_single_contact_pair(self):
        seg = segmentation_from_signature(sig(9, contact=[(3, 7)]))
        assert seg.states[3] == C and seg.states[7] == C
        assert seg.states.sum() == 2

    def test_masked_only_pair(self):
        seg = segmentation_from_signature(sig(9, masked=[(3, 7)]))
        assert seg.states[3] == M and seg.states[7] == M

    def test_contact_beats_masked(self):
        seg = segmentation_from_signature(sig(5, contact=[(0, 1)], masked=[(1, 2)]))
        assert seg.states[1] == C
        assert seg.states[2] == M


class TestCoarsenSignature:
    def test_identity(self):
        s = sig(5, contact=[(0, 3)], masked=[(1, 2)])
        assert coarsen_signature(s, CoarsenMap.identity(5)) == s

    def test_within_region_dropped(self):
        cmap = CoarsenMap(4, 2, np.array([0, 0, 1, 1]))
        s = sig(4, contact=[(0, 1)])  # both map to coarse 0
        out = coarsen_signature(s, cmap)
        assert out.contact_pairs() == []

    def test_contact_wins_over_masked(self):
        cmap = CoarsenMap(4, 2, np.array([0, 0, 1, 1]))
        s = sig(4, contact=[(0, 2)], masked=[(1, 3)])
        out = coarsen_signature(s, cmap)
        assert out.state(0, 1) == C

    def test_granularity_mismatch(self):
        with pytest.raises(GranularityError):
            coarsen_signature(sig(5), CoarsenMap.identity(4))

    def test_random_75_to_9_matches_exhaustive_oracle(self, synthetic_body):
        rng = np.random.default_rng(17)
        cmap = synthetic_body.coarsen_maps[(75, 9)]
        for _ in range(5):
            pairs = {}
            for _ in range(60):
                a, b = rng.integers(0, 75, 2)
                if a != b:
                    pairs[(min(a, b), max(a, b))] = rng.choice([C, M])
            s = ContactSignature(75, list(pairs.items()))
            out = coarsen_signature(s, cmap)
            # oracle: enumerate every fine pair state
            for ca in range(9):
                for cb in range(ca + 1, 9):
                    states = [s.state(f1, f2)
                              for f1 in range(75) for f2 in range(f1 + 1, 75)
                              if {cmap.mapping[f1], cmap.mapping[f2]} == {ca, cb}]
                    if C in states:
                        expected = C
                    elif M in states:
                        expected = M
                    else:
                        expected = N
                    assert out.state(ca, cb) == expected

    @settings(max_examples=40, deadline=None)
    @given(signatures(9))
    def test_no_contact_without_preimage(self, s):
        cmap = CoarsenMap(9, 3, np.arange(9) % 3)
        out = coarsen_signature(s, cmap)
        for a, b in out.contact_pairs():
            pre = [s.state(f1, f2)
                   for f1 in range(9) for f2 in range(f1 + 1, 9)
                   if {cmap.mapping[f1], cmap.mapping[f2]} == {a, b}]
            assert C in pre

    @settings(max_examples=40, deadline=None)
    @given(signatures(9))
    def test_derive_then_coarsen_agrees_on_contact(self, s):
        cmap = CoarsenMap(9, 3, np.arange(9) % 3)
        a = segmentation_from_signature(coarsen_signature(s, cmap))
        # derive, then coarsen the contact regions through the map
        b = set(cmap.mapping[segmentation_from_signature(s).states == C])
        # agreement on the contact class (masked may differ when the only
        # witnesses collapse onto the diagonal)
        for r in range(3):
            pre_contact = any(
                s.state(f1, f2) == C and cmap.mapping[f1] != cmap.mapping[f2]
                for f1 in range(9) for f2 in range(f1 + 1, 9)
                if cmap.mapping[f1] == r or cmap.mapping[f2] == r)
            assert (a.states[r] == C) == pre_contact
            if a.states[r] == C:
                assert r in b


class TestIoU:
    def test_identical_non_empty(self):
        a = sig(6, contact=[(0, 1), (2, 4)])
        assert iou_signature(a, a) == 1.0

    def test_disjoint(self):
        a = sig(6, contact=[(0, 1)])
        b = sig(6, contact=[(2, 3)])
        assert iou_signature(a, b) == 0.0

    def test_half_overlap(self):
        a = sig(6, contact=[(1, 2), (3, 4)])
        b = sig(6, contact=[(1, 2)])
        assert iou_signature(a, b) == 0.5

    def test_both_empty_is_one(self):
        assert iou_signature(sig(6), sig(6)) == 1.0

    def test_masked_pairs_excluded_from_both(self):
        a = sig(6, contact=[(0, 1), (2, 3)])
        b = sig(6, contact=[(2, 3)], masked=[(0, 1)])
        assert iou_signature(a, b) == 1.0

    def test_granularity_mismatch(self):
        with pytest.raises(GranularityError):
            iou_signature(sig(6), sig(5))

    def test_segmentation_identical(self):
        seg = ContactSegmentation(5, [1, 0, 1, 0, 0])
        assert iou_segmentation(seg, seg) == 1.0

    def test_segmentation_example(self):
        a = ContactSegmentation(6, [0, 1, 1, 1, 0, 0])
        b = ContactSegmentation(6, [0, 0, 1, 1, 1, 0])
        assert iou_segmentation(a, b) == 0.5  # {2,3} over {1,2,3,4}

    def test_segmentation_masked_excluded(self):
        a = ContactSegmentation(6, [0, 1, 1, 1, 0, 0])
        b = ContactSegmentation(6, [0, 2, 1, 1, 1, 0])  # region 1 masked in b
        assert iou_segmentation(a, b) == 2 / 3  # {2,3} over {2,3,4}

    @settings(max_examples=40, deadline=None)
    @given(signatures(7), signatures(7))
    def test_symmetric_and_one_iff_equal(self, a, b):
        assert iou_signature(a, b) == iou_signature(b, a)
        masked = set(a.masked_pairs()) | set(b.masked_pairs())
        sa = set(a.contact_pairs()) - masked
        sb = set(b.contact_pairs()) - masked
        assert (iou_signature(a, b) == 1.0) == (sa == sb)


class TestStats:
    def test_single_signature(self):
        stats = contact_stats([sig(5, contact=[(1, 2)])])
        assert stats.region_counts.tolist() == [0, 1, 1, 0, 0]
        assert stats.pair_counts == {(1, 2): 1}

    def test_two_copies_double(self):
        s = sig(5, contact=[(1, 2)])
        stats = contact_stats([s, s])
        assert stats.region_counts.tolist() == [0, 2, 2, 0, 0]
        assert stats.pair_counts == {(1, 2): 2}

    def test_random_batch_matches_naive_tally(self):
        rng = np.random.default_rng(23)
        batch = []
        for _ in range(20):
            pairs = set()
            for _ in range(6):
                a, b = rng.integers(0, 9, 2)
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
            batch.append(sig(9, contact=sorted(pairs)))
        stats = contact_stats(batch)
        region = np.zeros(9, dtype=int)
        from collections import Counter
        pair = Counter()
        for s in batch:
            for a, b in s.contact_pairs():
                region[a] += 1
                region[b] += 1
                pair[(a, b)] += 1
        assert stats.region_counts.tolist() == region.tolist()
        assert stats.pair_counts == pair

    def test_mixed_granularity_rejected(self):
        with pytest.raises(GranularityError):
            contact_stats([sig(5), sig(6)])


class TestSupport:
    def test_support_validates_range(self):
        with pytest.raises(ParameterError):
            ImageSupport(5, {1: (0.5, -0.1)})



@pytest.mark.parametrize("make", [
    lambda n: ContactSignature(n, []),
    lambda n: ContactSegmentation(n, np.zeros(9)),
    lambda n: ImageSupport(n),
    lambda n: RawPrediction(n, {}, np.zeros(9), np.zeros((9, 2)))],
    ids=["signature", "segmentation", "support", "prediction"])
@pytest.mark.parametrize("granularity", [9.5, 75.9, "9", True, np.nan])
def test_granularity_must_be_an_integer(make, granularity):
    with pytest.raises(ParameterError, match="^granularity must be a finite integer"):
        make(granularity)

import numpy as np
import pytest

from contactfit.contact import (ContactSegmentation, ContactSignature,
                                ContactState, ImageSupport)
from contactfit.errors import ParameterError
from contactfit.train_losses import (LandmarkSet, LossWeights,
                                     loss_landmark, loss_segmentation_ce,
                                     loss_separation,
                                     signature_similarity_loss, softargmax,
                                     total_train_loss)

from conftest import fd_gradient, rel_error

C = ContactState.CONTACT
M = ContactState.MASKED


def sig(n, contact=(), masked=()):
    return ContactSignature.from_sets(n, contact=contact, masked=masked)


class TestSoftargmax:
    @pytest.mark.parametrize("H,W", [(1, 1), (3, 5), (8, 8), (7, 2)])
    def test_uniform_heatmap(self, H, W):
        (x, y), _ = softargmax(np.zeros((H, W)))
        assert abs(x - (W + 1) / (2 * W)) < 1e-12
        assert abs(y - (H + 1) / (2 * H)) < 1e-12

    def test_dominating_cell(self):
        h = np.zeros((6, 9))
        h[2, 4] = 1e6  # row j0=3, col i0=5 in 1-based indexing
        (x, y), _ = softargmax(h)
        assert abs(x - 5 / 9) < 1e-6
        assert abs(y - 3 / 6) < 1e-6

    def test_two_by_two_direct_formula(self):
        h = np.array([[0.0, np.log(3.0)], [0.0, 0.0]])
        (x, y), _ = softargmax(h)
        # independent evaluation of the definition
        e = np.exp(h - h.max())
        p = e / e.sum()
        ex = sum(p[j, i] * (i + 1) / 2 for j in range(2) for i in range(2))
        ey = sum(p[j, i] * (j + 1) / 2 for j in range(2) for i in range(2))
        assert abs(x - ex) < 1e-12 and abs(y - ey) < 1e-12
        assert abs(ex - (3 * 1.0 + 1 * 0.5 + 1 * 1.0 + 1 * 0.5) / 6) < 1e-12

    def test_shift_invariance_is_exact(self):
        # exact invariance requires the shift itself not to round: use
        # dyadic cell values and power-of-two constants
        rng = np.random.default_rng(0)
        h = np.round(rng.normal(0, 2, (5, 7)) * 1024) / 1024
        for const in (16.0, -8.0, 256.0):
            out1, _ = softargmax(h)
            out2, _ = softargmax(h + const)
            assert out1 == out2

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        h = rng.normal(0, 1, (4, 5))
        _, grad = softargmax(h)
        for comp in range(2):
            num = fd_gradient(lambda x: softargmax(x)[0][comp], h)
            assert rel_error(grad[comp], num) < 1e-6

    def test_invalid_heatmap(self):
        with pytest.raises(ParameterError):
            softargmax(np.array([[np.inf, 0.0]]))


class TestLandmarkLoss:
    def test_zero_at_ground_truth(self):
        lms = LandmarkSet(5, np.full((5, 2), 0.3))
        support = ImageSupport(5, {1: (0.3, 0.3), 4: (0.3, 0.3)})
        value, grad = loss_landmark(lms, support)
        assert value == 0.0 and np.all(grad == 0.0)

    def test_single_region_offset(self):
        coords = np.zeros((5, 2))
        coords[2] = [0.3, 0.4]
        lms = LandmarkSet(5, coords)
        support = ImageSupport(5, {2: (0.0, 0.0)})
        value, _ = loss_landmark(lms, support)
        assert np.isclose(value, 0.25)

    def test_mean_over_supported_regions(self):
        coords = np.zeros((5, 2))
        coords[2] = [0.3, 0.4]
        lms = LandmarkSet(5, coords)
        support = ImageSupport(5, {2: (0.0, 0.0), 3: (0.0, 0.0)})
        value, _ = loss_landmark(lms, support)
        assert np.isclose(value, 0.125)

    def test_empty_support_is_zero(self):
        lms = LandmarkSet(5, np.random.default_rng(4).random((5, 2)))
        value, grad = loss_landmark(lms, ImageSupport(5, {}))
        assert value == 0.0 and np.all(grad == 0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        coords = rng.random((6, 2))
        support = ImageSupport(6, {0: (0.5, 0.5), 3: (0.2, 0.9), 5: (0.7, 0.1)})
        _, grad = loss_landmark(LandmarkSet(6, coords), support)
        num = fd_gradient(lambda x: loss_landmark(LandmarkSet(6, x), support)[0],
                          coords)
        assert rel_error(grad, num) < 1e-7

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            coords = rng.random((4, 2))
            support = ImageSupport(4, {0: tuple(rng.random(2)), 2: tuple(rng.random(2))})
            value, _ = loss_landmark(LandmarkSet(4, coords), support)
            assert value >= 0.0
            eq = all(np.allclose(coords[r], support.points[r])
                     for r in support.regions())
            assert (value < 1e-30) == eq


class TestSeparationLoss:
    def test_identical_coordinates_pair(self):
        lms = LandmarkSet(2, np.array([[0.5, 0.5], [0.5, 0.5]]))
        value, _ = loss_separation(lms, sig(2))
        assert np.isclose(value, 1.0, atol=1e-15)

    def test_default_sigma_fixture(self):
        # one pair at squared distance 0.05 with sigma^2 = 0.025 -> exp(-1)
        d = np.sqrt(0.05)
        lms = LandmarkSet(2, np.array([[0.0, 0.0], [d, 0.0]]))
        value, _ = loss_separation(lms, sig(2), sigma_sq=0.025)
        assert abs(value - np.exp(-1.0)) < 1e-12

    def test_no_noncontact_pairs(self):
        lms = LandmarkSet(2, np.array([[0.1, 0.1], [0.2, 0.2]]))
        value, grad = loss_separation(lms, sig(2, contact=[(0, 1)]))
        assert value == 0.0 and np.all(grad == 0.0)

    def test_contact_and_masked_pairs_excluded(self):
        lms = LandmarkSet(3, np.zeros((3, 2)))
        s = sig(3, contact=[(0, 1)], masked=[(0, 2)])
        value, _ = loss_separation(lms, s)
        assert np.isclose(value, 1.0)  # only pair (1,2) counts

    def test_invalid_sigma(self):
        lms = LandmarkSet(2, np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            loss_separation(lms, sig(2), sigma_sq=0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        coords = rng.random((5, 2))
        s = sig(5, contact=[(0, 1)], masked=[(2, 3)])
        _, grad = loss_separation(LandmarkSet(5, coords), s)
        num = fd_gradient(lambda x: loss_separation(LandmarkSet(5, x), s)[0],
                          coords)
        assert rel_error(grad, num) < 1e-6

    def test_monotone_in_pairwise_distance(self):
        base = np.array([[0.0, 0.0], [0.1, 0.0], [0.5, 0.5]])
        s = sig(3)
        prev = None
        for scale in (1.0, 1.5, 2.0, 3.0):
            value, _ = loss_separation(LandmarkSet(3, base * scale / 3.0), s)
            if prev is not None:
                assert value <= prev
            prev = value

    def test_value_bounded_by_pair_count(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            coords = rng.random((6, 2))
            value, _ = loss_separation(LandmarkSet(6, coords), sig(6))
            assert 0.0 <= value <= 15.0  # C(6,2) pairs


class TestSegmentationCE:
    def test_saturated_positive_contributes_nothing(self):
        seg = ContactSegmentation(3, [1, 0, 0])
        logits = np.array([50.0, -50.0, -50.0])
        value, _ = loss_segmentation_ce(logits, seg)
        assert value < 1e-20

    def test_logit_zero_gives_ln2_each(self):
        seg = ContactSegmentation(2, [1, 0])
        value, _ = loss_segmentation_ce(np.zeros(2), seg, pos_weight=1.0)
        assert np.isclose(value, 2 * np.log(2.0))

    def test_random_matches_elementwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            states = rng.choice([0, 1, 2], size=8)
            if not (states == 1).any():
                states[0] = 1
            seg = ContactSegmentation(8, states)
            logits = rng.normal(0, 2, 8)
            pos = int((states == 1).sum())
            neg = int((states == 0).sum())
            w = min(max(neg / pos, 1.0), 100.0)
            expected = 0.0
            for r in range(8):
                if states[r] == 2:
                    continue
                p = 1.0 / (1.0 + np.exp(-logits[r]))
                if states[r] == 1:
                    expected += -w * np.log(p)
                else:
                    expected += -np.log(1.0 - p)
            value, _ = loss_segmentation_ce(logits, seg)
            assert np.isclose(value, expected, rtol=1e-9)

    def test_masked_regions_excluded(self):
        seg = ContactSegmentation(3, [1, 2, 0])
        logits = np.array([0.0, 1000.0, 0.0])
        value, grad = loss_segmentation_ce(logits, seg, pos_weight=1.0)
        assert np.isfinite(value)
        assert grad[1] == 0.0

    def test_all_masked_is_zero(self):
        seg = ContactSegmentation(3, [2, 2, 2])
        value, grad = loss_segmentation_ce(np.ones(3), seg)
        assert value == 0.0 and np.all(grad == 0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        seg = ContactSegmentation(6, [1, 0, 2, 1, 0, 0])
        logits = rng.normal(0, 1.5, 6)
        _, grad = loss_segmentation_ce(logits, seg)
        num = fd_gradient(lambda x: loss_segmentation_ce(x, seg)[0], logits)
        assert rel_error(grad, num) < 1e-6


class TestSignatureSimilarityLoss:
    def test_identical_rows_contact_pair_dot(self):
        F = np.array([[1.0, 2.0], [1.0, 2.0]])
        s = sig(2, contact=[(0, 1)])
        value, _ = signature_similarity_loss(F, s, metric="dot", pos_weight=2.5)
        expected = 2.5 * np.logaddexp(0.0, -5.0)  # softplus(-||row||^2)
        assert np.isclose(value, expected)

    def test_orthogonal_rows_no_contact(self):
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _ = signature_similarity_loss(F, sig(2), metric="dot")
        assert np.isclose(value, np.log(2.0))

    def test_masked_pairs_excluded(self):
        F = np.random.default_rng(11).normal(0, 1, (3, 4))
        s = sig(3, masked=[(0, 1), (0, 2), (1, 2)])
        value, grad = signature_similarity_loss(F, s)
        assert value == 0.0 and np.all(grad == 0.0)

    @pytest.mark.parametrize("metric", ["dot", "neg-sq-euclidean"])
    def test_random_matches_pairwise_oracle(self, metric):
        rng = np.random.default_rng(12)
        for _ in range(10):
            F = rng.normal(0, 1, (6, 3))
            contact = [(0, 2), (1, 4)]
            masked = [(3, 5)]
            s = sig(6, contact=contact, masked=masked)
            pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)
                     if (a, b) not in masked]
            pos = len(contact)
            w = min(max((len(pairs) - pos) / pos, 1.0), 100.0)
            expected = 0.0
            for a, b in pairs:
                if metric == "dot":
                    score = F[a] @ F[b]
                else:
                    score = -((F[a] - F[b]) ** 2).sum()
                y = 1.0 if (a, b) in contact else 0.0
                weight = w if y else 1.0
                p = 1.0 / (1.0 + np.exp(-score))
                expected += -weight * (y * np.log(p) + (1 - y) * np.log(1 - p))
            value, _ = signature_similarity_loss(F, s, metric=metric)
            assert np.isclose(value, expected, rtol=1e-8)

    @pytest.mark.parametrize("metric", ["dot", "neg-sq-euclidean"])
    def test_gradient_matches_fd(self, metric):
        rng = np.random.default_rng(13)
        F = rng.normal(0, 1, (5, 3))
        s = sig(5, contact=[(0, 1), (2, 3)], masked=[(1, 4)])
        _, grad = signature_similarity_loss(F, s, metric=metric)
        num = fd_gradient(
            lambda x: signature_similarity_loss(x, s, metric=metric)[0], F)
        assert rel_error(grad, num) < 1e-6

    def test_unknown_metric(self):
        with pytest.raises(ParameterError):
            signature_similarity_loss(np.ones((2, 2)), sig(2), metric="cosine")

    def test_granularity_mismatch(self):
        with pytest.raises(ParameterError):
            signature_similarity_loss(np.ones((3, 2)), sig(2))


class TestTotalLoss:
    def test_all_zero(self):
        assert total_train_loss(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_unit_parts_default_weights(self):
        # default weights (5, 5, 1, 1) on unit parts
        assert total_train_loss(1.0, 1.0, 1.0, 1.0) == 12.0

    def test_doubling_weights_doubles_total(self):
        w1 = LossWeights(w_sep=2.0, w_k=3.0, w_s=0.5, w_c=1.5)
        w2 = LossWeights(w_sep=4.0, w_k=6.0, w_s=1.0, w_c=3.0)
        parts = (0.7, 1.3, 2.1, 0.4)
        assert np.isclose(total_train_loss(*parts, w2),
                          2.0 * total_train_loss(*parts, w1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            LossWeights(w_sep=-0.1)

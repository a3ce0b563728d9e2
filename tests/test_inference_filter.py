import numpy as np
import pytest

from contactfit.contact import (ContactSignature, ContactState,
                                iou_segmentation, iou_signature,
                                segmentation_from_signature)
from contactfit.errors import ParameterError
from contactfit.inference_filter import (FilterConfig, RawPrediction,
                                         filter_signature, sweep_thresholds,
                                         threshold_segmentation,
                                         threshold_signature)

C = ContactState.CONTACT


def make_prediction(n=6, pair_probs=None, seg=None, landmarks=None):
    pair_probs = pair_probs or {}
    seg = np.zeros(n) if seg is None else np.asarray(seg, dtype=float)
    if landmarks is None:
        landmarks = np.tile([0.5, 0.5], (n, 1))
    return RawPrediction(n, pair_probs, seg, landmarks)


class TestThresholdSegmentation:
    def test_all_zero_probs(self):
        seg = threshold_segmentation(make_prediction(), 0.5)
        assert np.array_equal(seg.states, [0, 0, 0, 0, 0, 0])

    def test_above_threshold(self):
        seg = threshold_segmentation(make_prediction(seg=[0.7, 0.2, 0, 0, 0, 0]), 0.5)
        assert np.array_equal(seg.states, [C, 0, 0, 0, 0, 0])

    def test_boundary_is_inclusive(self):
        seg = threshold_segmentation(make_prediction(seg=[0.5, 0, 0, 0, 0, 0]), 0.5)
        assert np.array_equal(seg.states, [C, 0, 0, 0, 0, 0])


class TestFilterSignature:
    def test_pair_passing_all_rules_kept(self):
        pred = make_prediction(pair_probs={(0, 1): 0.9},
                               seg=[0.9, 0.9, 0, 0, 0, 0])
        out = filter_signature(pred, FilterConfig())
        assert out.contact_pairs() == [(0, 1)]

    def test_segmentation_rule_removes(self):
        pred = make_prediction(pair_probs={(0, 1): 0.9},
                               seg=[0.9, 0.1, 0, 0, 0, 0])
        out = filter_signature(pred, FilterConfig())
        assert out.contact_pairs() == []

    def test_distance_rule_removes(self):
        lms = np.tile([0.5, 0.5], (6, 1))
        lms[1] = [0.5, 0.5 + 0.8]  # incompatible spatial support
        pred = make_prediction(pair_probs={(0, 1): 0.9},
                               seg=[0.9, 0.9, 0, 0, 0, 0], landmarks=lms)
        out = filter_signature(pred, FilterConfig(tau_dist=0.1))
        assert out.contact_pairs() == []

    def test_probability_rule_removes(self):
        pred = make_prediction(pair_probs={(0, 1): 0.4},
                               seg=[0.9, 0.9, 0, 0, 0, 0])
        out = filter_signature(pred, FilterConfig(tau_c=0.5))
        assert out.contact_pairs() == []

    def test_missing_landmark_drops_pairs_with_warning(self):
        lms = np.tile([0.5, 0.5], (6, 1))
        lms[1] = [np.nan, np.nan]
        pred = make_prediction(pair_probs={(0, 1): 0.9, (0, 2): 0.9},
                               seg=[0.9, 0.9, 0.9, 0, 0, 0], landmarks=lms)
        with pytest.warns(UserWarning, match="no landmark"):
            out = filter_signature(pred, FilterConfig())
        assert out.contact_pairs() == [(0, 2)]

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(0)
        n = 8
        probs = {(a, b): rng.random() for a in range(n) for b in range(a + 1, n)}
        pred = make_prediction(n, probs, rng.random(n), rng.random((n, 2)))
        base = set(filter_signature(pred, FilterConfig(0.3, 0.3, 0.4)).contact_pairs())
        for cfg in (FilterConfig(0.5, 0.3, 0.4), FilterConfig(0.3, 0.5, 0.4),
                    FilterConfig(0.3, 0.3, 0.2)):
            assert set(filter_signature(pred, cfg).contact_pairs()) <= base

    def test_output_consistent_with_own_segmentation(self):
        rng = np.random.default_rng(1)
        n = 9
        probs = {(a, b): rng.random() for a in range(n) for b in range(a + 1, n)}
        pred = make_prediction(n, probs, rng.random(n), rng.random((n, 2)))
        cfg = FilterConfig(0.4, 0.3, 0.5)
        out = filter_signature(pred, cfg)
        surviving = {r for pair in out.contact_pairs() for r in pair}
        for r in surviving:
            assert pred.segmentation_probs[r] >= cfg.tau_s

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            FilterConfig(tau_s=0.0)
        with pytest.raises(ParameterError):
            FilterConfig(tau_dist=-1.0)


def _spurious_case(rng, n=10):
    """GT signature plus a raw prediction with >= 20% spurious
    high-probability pairs whose landmarks are far apart.

    Regions of one connected contact cluster share a support spot (touching
    surfaces project to the same place); spurious pairs connect regions
    whose landmarks sit in different image corners.
    """
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(all_pairs)
    gt_pairs = all_pairs[:4]
    gt = ContactSignature.from_sets(n, contact=gt_pairs)

    # connected components of the contact graph -> one shared spot each
    comp = {}
    for a, b in gt_pairs:
        ca = comp.get(a)
        cb = comp.get(b)
        if ca is None and cb is None:
            comp[a] = comp[b] = len(comp)
        elif ca is None:
            comp[a] = cb
        elif cb is None:
            comp[b] = ca
        else:
            for r, c in comp.items():
                if c == cb:
                    comp[r] = ca
    spots = {c: rng.random(2) * 0.6 + 0.2 for c in set(comp.values())}

    landmarks = np.zeros((n, 2))
    corners = [(0.02, 0.02), (0.98, 0.98), (0.02, 0.98), (0.98, 0.02)]
    ci = 0
    for r in range(n):
        if r in comp:
            landmarks[r] = spots[comp[r]]
        else:
            landmarks[r] = corners[ci % 4]
            ci += 1

    probs = {p: 0.9 for p in gt_pairs}
    spurious = [(a, b) for (a, b) in all_pairs[4:]
                if a not in comp and b not in comp
                and np.linalg.norm(landmarks[a] - landmarks[b]) > 0.5][:2]
    assert len(spurious) >= 1
    for p in spurious:
        probs[p] = 0.85
    return gt, RawPrediction(n, probs, np.full(n, 0.9), landmarks)


class TestSweep:
    def test_perfect_grid_point_selected(self):
        n = 5
        gt = ContactSignature.from_sets(n, contact=[(0, 1)])
        landmarks = np.tile([0.2, 0.2], (n, 1))
        landmarks[2:] = [0.8, 0.8]
        pred = RawPrediction(n, {(0, 1): 0.9, (2, 3): 0.4},
                             np.array([0.9, 0.9, 0.4, 0.4, 0.1]), landmarks)
        cfg, scores = sweep_thresholds([pred], [gt], [0.3, 0.5], [0.3, 0.5],
                                       [0.1, 0.5])
        assert scores["segmentation_iou"] == 1.0
        assert scores["signature_iou"] == 1.0
        assert cfg.tau_s == 0.5  # 0.3 would admit regions 2,3
        # seg rule already removes (2,3), so both tau_c grid points tie at
        # IoU 1.0 and the smallest wins
        assert cfg.tau_c == 0.3 and cfg.tau_dist == 0.1

    def test_ties_take_smallest_thresholds(self):
        n = 4
        gt = ContactSignature.from_sets(n, contact=[(0, 1)])
        pred = RawPrediction(n, {(0, 1): 0.95}, np.array([0.95, 0.95, 0.0, 0.0]),
                             np.tile([0.5, 0.5], (n, 1)))
        cfg, _ = sweep_thresholds([pred], [gt], [0.2, 0.4, 0.6],
                                  [0.2, 0.4, 0.6], [0.1, 0.2])
        assert (cfg.tau_s, cfg.tau_c, cfg.tau_dist) == (0.2, 0.2, 0.1)

    def test_matches_exhaustive_grid_oracle(self):
        rng = np.random.default_rng(3)
        preds, gts = [], []
        for _ in range(5):
            gt, pred = _spurious_case(rng)
            preds.append(pred)
            gts.append(gt)
        s_grid = [0.3, 0.6]
        c_grid = [0.4, 0.8]
        d_grid = [0.05, 0.3]
        cfg, scores = sweep_thresholds(preds, gts, s_grid, c_grid, d_grid)
        best = (-1.0, None)
        for ts in s_grid:
            mean = np.mean([iou_segmentation(threshold_segmentation(p, ts),
                                             segmentation_from_signature(g))
                            for p, g in zip(preds, gts)])
            if mean > best[0]:
                best = (mean, ts)
        assert cfg.tau_s == best[1]
        best_cd = (-1.0, None)
        for tc in c_grid:
            for td in d_grid:
                c = FilterConfig(cfg.tau_s, tc, td)
                mean = np.mean([iou_signature(filter_signature(p, c), g)
                                for p, g in zip(preds, gts)])
                if mean > best_cd[0]:
                    best_cd = (mean, (tc, td))
        assert (cfg.tau_c, cfg.tau_dist) == best_cd[1]
        assert np.isclose(scores["signature_iou"], best_cd[0])

    def test_empty_set_rejected(self):
        with pytest.raises(ParameterError):
            sweep_thresholds([], [], [0.5], [0.5], [0.1])

    @pytest.mark.parametrize("grids", [([], [0.5], [0.1]), ([0.5], [], [0.1]),
                                       ([0.5], [0.5], [])])
    def test_empty_grid_rejected(self, grids):
        pred = RawPrediction(4, {(0, 1): 0.9}, [0.9, 0.9, 0.0, 0.0], np.full((4, 2), 0.5))
        gt = ContactSignature.from_sets(4, contact=[(0, 1)])
        with pytest.raises(ParameterError, match="every threshold grid needs at least one"):
            sweep_thresholds([pred], [gt], *grids)


class TestFilterImprovesIoU:
    def test_spurious_pairs_removed_improves_iou(self):
        rng = np.random.default_rng(42)
        cfg = FilterConfig(tau_s=0.5, tau_c=0.5, tau_dist=0.1)
        for _ in range(25):
            gt, pred = _spurious_case(rng)
            before = iou_signature(threshold_signature(pred, cfg.tau_c), gt)
            after = iou_signature(filter_signature(pred, cfg), gt)
            assert after > before


class TestRawPredictionArrays:
    def test_pairs_are_normalised_and_sorted_once(self):
        pred = make_prediction(5, [((3, 1), 0.25), ((2, 0), 0.5), ((4, 0), 0.1)])
        assert pred.pairs.tolist() == [[0, 2], [0, 4], [1, 3]]
        assert pred.pair_probs.tolist() == [0.5, 0.1, 0.25]
        assert pred.signature_probs == {(0, 2): 0.5, (0, 4): 0.1, (1, 3): 0.25}
        with pytest.raises(ValueError):
            pred.pair_probs[0] = 1.0

    def test_from_arrays_equals_the_dict_form(self):
        probs = {(2, 1): 0.5, (0, 3): 0.75}
        pred = RawPrediction.from_arrays(4, [[2, 1], [0, 3]], [0.5, 0.75],
                                         np.zeros(4), np.zeros((4, 2)))
        assert pred.signature_probs == make_prediction(4, probs).signature_probs

    def test_no_pairs(self):
        pred = make_prediction(3, [])
        assert pred.pairs.shape == (0, 2) and pred.signature_probs == {}
        assert filter_signature(pred, FilterConfig()).contact_pairs() == []

    @pytest.mark.parametrize("items", [
        [((0, 1), 0.5), ((2, 3), 0.5), ((0, 1), 0.5)],
        [((1, 0), 0.5), ((2, 3), 0.5), ((0, 1), 0.25)],
        {(0, 1): 0.5, (1, 0): 0.25},
    ])
    def test_a_pair_given_twice_is_rejected(self, items):
        with pytest.raises(ParameterError, match=r"pair \(0, 1\) given twice"):
            make_prediction(4, items)

    @pytest.mark.parametrize("pairs, probs", [
        ([[0, 1, 2]], [0.5]),
        ([[0, 1]], [0.5, 0.5]),
    ])
    def test_from_arrays_rejects_mismatched_columns(self, pairs, probs):
        with pytest.raises(ParameterError):
            RawPrediction.from_arrays(4, pairs, probs, np.zeros(4), np.zeros((4, 2)))

    @pytest.mark.parametrize("seg", [[np.nan, 0.5, 0.2], [0.1, 1.5, 0.2]])
    def test_segmentation_outside_unit_interval_is_rejected(self, seg):
        with pytest.raises(ParameterError, match=r"segmentation probabilities"):
            RawPrediction(3, {(0, 1): 0.9}, seg, np.zeros((3, 2)))

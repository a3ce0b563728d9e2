"""The array code of the consistency filter against the loops it replaced.

`OraclePrediction`, `oracle_threshold_signature`, `oracle_filter_signature`
and `oracle_sweep_thresholds` are the dict-and-loop code that held a raw
prediction's pairs as a {(r1, r2): p} dict and sorted it on every filter
call. The array code must give equal signatures, the same warnings in the
same order, the same sweep result and the same validation errors.

The random predictions put values exactly on the thresholds: pair
probabilities equal to tau_c, segmentation probabilities equal to tau_s and
landmark distances equal to tau_dist (each the `np.linalg.norm` of a pair's
landmark difference), next to fully-NaN and half-NaN landmark rows.
"""

import warnings

import numpy as np
import pytest

from contactfit.contact import (ContactSignature, iou_segmentation,
                                iou_signature, segmentation_from_signature)
from contactfit.errors import GranularityError, ParameterError
from contactfit.inference_filter import (FilterConfig, RawPrediction,
                                         filter_signature, sweep_thresholds,
                                         threshold_segmentation,
                                         threshold_signature)


class OraclePrediction:
    def __init__(self, granularity, signature_probs, segmentation_probs, landmarks):
        self.granularity = int(granularity)
        seg = np.asarray(segmentation_probs, dtype=float)
        lms = np.asarray(landmarks, dtype=float)
        if seg.shape != (self.granularity,):
            raise ParameterError("segmentation_probs must be (granularity,)")
        if lms.shape != (self.granularity, 2):
            raise ParameterError("landmarks must be (granularity, 2)")
        if seg.min() < 0.0 or seg.max() > 1.0:
            raise ParameterError("segmentation probabilities must be in [0,1]")
        probs = {}
        items = (signature_probs.items() if isinstance(signature_probs, dict)
                 else signature_probs)
        for (r1, r2), p in items:
            r1, r2 = int(r1), int(r2)
            if r1 == r2 or not (0 <= r1 < granularity and 0 <= r2 < granularity):
                raise ParameterError(f"invalid pair ({r1}, {r2})")
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"pair probability {p} outside [0,1]")
            probs[(min(r1, r2), max(r1, r2))] = p
        self.signature_probs = probs
        self.segmentation_probs = seg
        self.landmarks = lms


def oracle_threshold_signature(pred, tau_c):
    contact = [p for p, prob in pred.signature_probs.items() if prob >= tau_c]
    return ContactSignature.from_sets(pred.granularity, contact=contact)


def oracle_filter_signature(pred, cfg):
    seg_ok = pred.segmentation_probs >= cfg.tau_s
    missing_warned = set()
    contact = []
    for (r1, r2), prob in sorted(pred.signature_probs.items()):
        if prob < cfg.tau_c:
            continue
        if not (seg_ok[r1] and seg_ok[r2]):
            continue
        lm1, lm2 = pred.landmarks[r1], pred.landmarks[r2]
        missing = [r for r, lm in ((r1, lm1), (r2, lm2)) if not np.isfinite(lm).all()]
        if missing:
            for r in missing:
                if r not in missing_warned:
                    missing_warned.add(r)
                    warnings.warn(f"region {r} has no landmark; dropping its pairs",
                                  stacklevel=2)
            continue
        if np.linalg.norm(lm1 - lm2) <= cfg.tau_dist:
            contact.append((r1, r2))
    return ContactSignature.from_sets(pred.granularity, contact=contact)


def oracle_sweep_thresholds(predictions, ground_truths, tau_s_grid, tau_c_grid,
                            tau_dist_grid):
    predictions = list(predictions)
    ground_truths = list(ground_truths)
    if not predictions or len(predictions) != len(ground_truths):
        raise ParameterError("need equally many predictions and ground truths")
    for p, g in zip(predictions, ground_truths):
        if p.granularity != g.granularity:
            raise GranularityError("prediction/ground-truth granularities differ")
    gt_segs = [segmentation_from_signature(g) for g in ground_truths]

    best_s, best_s_iou = None, -1.0
    for tau_s in sorted(tau_s_grid):
        ious = [iou_segmentation(threshold_segmentation(p, tau_s), gs)
                for p, gs in zip(predictions, gt_segs)]
        mean = float(np.mean(ious))
        if mean > best_s_iou:
            best_s, best_s_iou = float(tau_s), mean

    best_cd, best_cd_iou = None, -1.0
    for tau_c in sorted(tau_c_grid):
        for tau_dist in sorted(tau_dist_grid):
            cfg = FilterConfig(tau_s=best_s, tau_c=float(tau_c),
                               tau_dist=float(tau_dist))
            ious = [iou_signature(oracle_filter_signature(p, cfg), g)
                    for p, g in zip(predictions, ground_truths)]
            mean = float(np.mean(ious))
            if mean > best_cd_iou:
                best_cd, best_cd_iou = (float(tau_c), float(tau_dist)), mean

    cfg = FilterConfig(tau_s=best_s, tau_c=best_cd[0], tau_dist=best_cd[1])
    return cfg, {"segmentation_iou": best_s_iou, "signature_iou": best_cd_iou}


# -- random predictions with values on the thresholds ----------------------

TAU_S, TAU_C = 0.5, 0.3   # values many pair and region probabilities equal


def _random_case(seed, n):
    """(items, segmentation, landmarks, truth): a prediction at granularity n
    whose pairs come shuffled, about half of them as (r2, r1), and a
    ground truth to sweep against."""
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    probs = rng.beta(1.0, 6.0, len(pairs))
    probs[rng.random(len(pairs)) < 0.05] = TAU_C
    probs[rng.random(len(pairs)) < 0.02] = 1.0
    seg = rng.uniform(0.0, 1.0, n)
    seg[rng.random(n) < 0.2] = TAU_S
    # clustered landmarks, so the distance rule keeps some pairs
    centres = rng.uniform(0.0, 1.0, (max(2, n // 8), 2))
    landmarks = centres[rng.integers(len(centres), size=n)] + rng.normal(0.0, 0.04, (n, 2))
    landmarks[rng.random(n) < 0.1] = np.nan
    half = np.flatnonzero(rng.random(n) < 0.1)
    landmarks[half, rng.integers(2, size=len(half))] = np.nan
    items = [((b, a) if rng.random() < 0.5 else (a, b), float(p))
             for (a, b), p in zip(pairs, probs)]
    items = [items[i] for i in rng.permutation(len(items))]
    likely = np.flatnonzero(probs >= TAU_C)
    contact = [pairs[i] for i in rng.choice(likely, size=min(4, len(likely)),
                                            replace=False)]
    truth = ContactSignature.from_sets(n, contact=contact)
    return items, seg, landmarks, truth


def _configs(items, seg, landmarks, seed):
    """Filter configs with tau_s and tau_c on the shared values or on a
    random region's and pair's probability above 0.2, and tau_dist each
    equal to the landmark distance of a pair that passes the other rules."""
    rng = np.random.default_rng(seed)
    probs = np.array([p for _, p in items])
    taus = [TAU_S, float(rng.choice([TAU_S, *seg[(seg > 0.2) & (seg < 1.0)]]))]
    tau_cs = [TAU_C, float(rng.choice([TAU_C, *probs[(probs > 0.2) & (probs < 1.0)]]))]
    configs = []
    for tau_s in taus:
        for tau_c in tau_cs:
            passing = [(a, b) for (a, b), p in items
                       if p >= tau_c and seg[a] >= tau_s and seg[b] >= tau_s
                       and np.isfinite(landmarks[[a, b]]).all()]
            chosen = rng.permutation(len(passing))[:6]
            dists = [float(np.linalg.norm(landmarks[passing[i][0]] - landmarks[passing[i][1]]))
                     for i in chosen]
            configs += [FilterConfig(tau_s, tau_c, d) for d in dists + [0.1] if d > 0.0]
    return configs


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, caught


LARGE = [(seed, 75) for seed in range(50)]
SMALL = [(100 + seed, n) for seed, n in enumerate((2, 3, 4, 5, 6, 8, 10, 12))]


@pytest.mark.parametrize("seed, n", LARGE + SMALL)
def test_filter_matches_the_loop(seed, n):
    items, seg, landmarks, _ = _random_case(seed, n)
    pred = RawPrediction(n, items, seg, landmarks)
    oracle = OraclePrediction(n, items, seg, landmarks)
    assert pred.signature_probs == oracle.signature_probs
    for tau_c in (TAU_C, 0.5, 0.9):
        assert threshold_signature(pred, tau_c) == oracle_threshold_signature(oracle, tau_c)
    configs = _configs(items, seg, landmarks, seed)
    assert configs
    for cfg in configs:
        got, got_warnings = _recorded(filter_signature, pred, cfg)
        want, want_warnings = _recorded(oracle_filter_signature, oracle, cfg)
        assert got == want, cfg
        assert ([(w.category, str(w.message)) for w in got_warnings]
                == [(w.category, str(w.message)) for w in want_warnings])
        # the warnings point at the caller, as the loop's did
        assert all(w.filename == __file__ for w in got_warnings)


def test_random_cases_put_values_on_every_threshold():
    """The equality cases the filter tests rely on do occur. Each config
    has a passing pair at exactly its tau_dist, by construction."""
    on_tau_c = on_tau_s = full_nan = half_nan = configs = 0
    for seed, n in LARGE:
        items, seg, landmarks, _ = _random_case(seed, n)
        on_tau_c += sum(p == TAU_C for _, p in items)
        on_tau_s += int((seg == TAU_S).sum())
        nan = np.isnan(landmarks)
        full_nan += int(nan.all(axis=1).sum())
        half_nan += int((nan.any(axis=1) & ~nan.all(axis=1)).sum())
        configs += len(_configs(items, seg, landmarks, seed))
    assert min(on_tau_c, on_tau_s, full_nan, half_nan) > 100
    assert configs >= 500


def test_sweep_matches_the_loop():
    cases = [_random_case(seed, n) for seed, n in LARGE]
    preds = [RawPrediction(75, items, seg, lms) for items, seg, lms, _ in cases]
    oracles = [OraclePrediction(75, items, seg, lms) for items, seg, lms, _ in cases]
    truths = [truth for *_, truth in cases]
    items, seg, landmarks, _ = cases[0]
    tau_dists = sorted({cfg.tau_dist for cfg in _configs(items, seg, landmarks, 0)})
    grids = ([TAU_S, 0.7], [TAU_C, 0.6], tau_dists[:2] + [0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = sweep_thresholds(preds, truths, *grids)
        want = oracle_sweep_thresholds(oracles, truths, *grids)
    assert got == want
    assert 0.0 < want[1]["signature_iou"] < 1.0


def _distinct(caught):
    """The warning messages, each once, in the order they first came."""
    return list(dict.fromkeys(str(w.message) for w in caught))


@pytest.mark.parametrize("seed, n", LARGE[:5] + SMALL)
def test_sweep_warns_as_the_loop(seed, n):
    """The sweep warns about each region the loop warns about at any grid
    point, in the order the loop first does, and about no other."""
    cases = [_random_case(1000 * seed + i, n) for i in range(3)]
    preds = [RawPrediction(n, items, seg, lms) for items, seg, lms, _ in cases]
    oracles = [OraclePrediction(n, items, seg, lms) for items, seg, lms, _ in cases]
    truths = [truth for *_, truth in cases]
    grids = ([0.7, TAU_S], [0.6, TAU_C], [0.3, 0.1])
    got, got_warnings = _recorded(sweep_thresholds, preds, truths, *grids)
    want, want_warnings = _recorded(oracle_sweep_thresholds, oracles, truths, *grids)
    assert got == want
    assert _distinct(got_warnings) == _distinct(want_warnings)


def test_sweep_matches_the_loop_on_predictions_with_no_pair_left():
    """Predictions whose pairs all fail the segmentation rule (every region
    below the grid's tau_s) or the landmark rule (every landmark NaN), one of
    them against a truth with no contact pair, so its union is empty."""
    cases = [list(_random_case(200 + seed, n)) for seed, n in enumerate((12, 10, 12, 8, 12))]
    cases[1][1] = np.zeros(10)
    cases[1][3] = ContactSignature(10)
    cases[3][2] = np.full((8, 2), np.nan)
    preds = [RawPrediction(t.granularity, items, seg, lms) for items, seg, lms, t in cases]
    oracles = [OraclePrediction(t.granularity, items, seg, lms)
               for items, seg, lms, t in cases]
    truths = [truth for *_, truth in cases]
    grids = ([TAU_S, 0.7], [TAU_C, 0.6], [0.05, 0.1, 0.3])
    got, got_warnings = _recorded(sweep_thresholds, preds, truths, *grids)
    want, want_warnings = _recorded(oracle_sweep_thresholds, oracles, truths, *grids)
    assert got == want
    assert 0.0 < want[1]["signature_iou"] < 1.0
    assert _distinct(got_warnings) == _distinct(want_warnings)
    assert got_warnings
    loosest = FilterConfig(min(grids[0]), min(grids[1]), max(grids[2]))
    for i in (1, 3):
        assert _recorded(filter_signature, preds[i], loosest)[0] == ContactSignature(
            preds[i].granularity)


@pytest.mark.parametrize("tau_c_grid, tau_dist_grid", [
    ([0.5, 1.5], [0.1]),
    ([0.5], [0.1, -0.1]),
    ([1.5, 0.5], [0.2, 0.0]),
    ([0.5], [float("nan")]),
])
def test_sweep_rejects_the_first_bad_grid_point_the_loop_reaches(tau_c_grid, tau_dist_grid):
    items, seg, landmarks, truth = _random_case(0, 8)
    grids = ([TAU_S], tau_c_grid, tau_dist_grid)
    with pytest.raises(ParameterError) as want:
        _recorded(oracle_sweep_thresholds, [OraclePrediction(8, items, seg, landmarks)],
                  [truth], *grids)
    with pytest.raises(ParameterError) as got:
        sweep_thresholds([RawPrediction(8, items, seg, landmarks)], [truth], *grids)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("items", [
    [((0, 1), 0.5), ((2, 2), 0.5)],
    [((0, 1), 1.5), ((2, 2), 0.5)],
    [((0, 1), 0.5), ((1, 4), float("nan")), ((0, 9), 0.5)],
    [((3, -1), 0.5)],
    [((0, 1), -0.0), ((1, 0), float("inf"))],
    [((4, 3), 0.2), ((5, 1), 0.2)],
])
def test_validation_reports_what_the_loop_did(items):
    seg, landmarks = np.zeros(5), np.zeros((5, 2))
    with pytest.raises(ParameterError) as want:
        OraclePrediction(5, items, seg, landmarks)
    with pytest.raises(ParameterError) as got:
        RawPrediction(5, items, seg, landmarks)
    assert str(got.value) == str(want.value)

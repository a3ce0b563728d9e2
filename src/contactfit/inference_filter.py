"""Consistency filtering of raw signature predictions.

A predicted pair survives only when its probability clears a threshold,
both regions are in the thresholded segmentation, and the two predicted
landmarks project close to each other.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .contact import (_CONTACT, _MASKED, ContactSegmentation, ContactSignature,
                      ContactState, _key, _pair_states, iou_segmentation,
                      segmentation_from_signature)
from .errors import GranularityError, ParameterError, check_settings


class RawPrediction:
    """Raw network-style outputs: pair probabilities, per-region
    segmentation probabilities and predicted landmarks (NaN = missing).

    The pairs are held as sorted arrays, not a dict: `pairs` is (M, 2)
    region indices with r1 < r2 in each row and the rows in lexicographic
    order, and `pair_probs` is their (M,) probabilities. Both are sorted once
    here and are read-only, so filtering needs no sort: a sweep costs one
    sort per prediction rather than one per grid point.

    `signature_probs` is a {(r1, r2): p} dict or an iterable of
    ((r1, r2), p); `from_arrays` takes the two columns. A pair with r1 == r2
    or a region out of range, a pair or segmentation probability outside
    [0, 1] (NaN included) and a pair given twice, in either order, are
    ParameterErrors.
    """

    def __init__(self, granularity, signature_probs, segmentation_probs, landmarks):
        if isinstance(signature_probs, dict):
            pairs, probs = list(signature_probs), list(signature_probs.values())
        else:
            items = list(signature_probs)
            pairs, probs = [pair for pair, _ in items], [p for _, p in items]
        self._set(granularity, pairs, probs, segmentation_probs, landmarks)

    @classmethod
    def from_arrays(cls, granularity, pairs, pair_probs, segmentation_probs, landmarks):
        """A prediction from (M, 2) region pairs, in any order, and their
        (M,) probabilities."""
        pred = cls.__new__(cls)
        pred._set(granularity, pairs, pair_probs, segmentation_probs, landmarks)
        return pred

    def _set(self, granularity, pairs, probs, segmentation_probs, landmarks):
        n = self.granularity = int(granularity)
        seg = np.asarray(segmentation_probs, dtype=float)
        lms = np.asarray(landmarks, dtype=float)
        if seg.shape != (n,):
            raise ParameterError("segmentation_probs must be (granularity,)")
        if lms.shape != (n, 2):
            raise ParameterError("landmarks must be (granularity, 2)")
        if not ((seg >= 0.0) & (seg <= 1.0)).all():  # NaN is out of range
            raise ParameterError("segmentation probabilities must be in [0,1]")
        pairs = np.asarray(pairs, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ParameterError("pairs must be (M, 2) region indices")
        if probs.shape != (len(pairs),):
            raise ParameterError("need one probability per pair")
        r1, r2 = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
        bad_pair = (r1 == r2) | (lo < 0) | (hi >= n)
        bad = bad_pair | ~((probs >= 0.0) & (probs <= 1.0))  # NaN is bad
        if bad.any():
            i = int(bad.argmax())  # the first invalid pair in input order
            if bad_pair[i]:
                raise ParameterError(f"invalid pair ({r1[i]}, {r2[i]})")
            raise ParameterError(f"pair probability {float(probs[i])} outside [0,1]")
        order = np.argsort(lo * n + hi, kind="stable")
        pairs = np.stack([lo[order], hi[order]], axis=1)
        repeated = np.flatnonzero((pairs[1:] == pairs[:-1]).all(axis=1))
        if repeated.size:
            a, b = pairs[repeated[0]]
            raise ParameterError(f"pair ({a}, {b}) given twice")
        probs = probs[order]
        pairs.flags.writeable = probs.flags.writeable = False
        self.pairs, self.pair_probs = pairs, probs
        self.segmentation_probs = seg
        self.landmarks = lms

    @property
    def signature_probs(self):
        """{(r1, r2): p} with r1 < r2, built from the arrays."""
        return dict(zip(map(tuple, self.pairs.tolist()), self.pair_probs.tolist()))


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds: tau_s on segmentation probability, tau_c on pair
    probability, tau_dist on landmark distance (normalized units)."""

    tau_s: float = 0.5
    tau_c: float = 0.5
    tau_dist: float = 0.1

    def __post_init__(self):
        check_settings(self)
        if not (0.0 < self.tau_s < 1.0 and 0.0 < self.tau_c < 1.0):
            raise ParameterError("tau_s and tau_c must be in (0, 1)")
        if self.tau_dist <= 0.0:
            raise ParameterError("tau_dist must be positive")


def threshold_segmentation(pred, tau_s):
    """Region is contact iff its probability >= tau_s."""
    states = np.where(pred.segmentation_probs >= tau_s,
                      int(ContactState.CONTACT), int(ContactState.NO_CONTACT))
    return ContactSegmentation(pred.granularity, states)


def threshold_signature(pred, tau_c):
    """Signature from pair probabilities alone (no consistency rules)."""
    return ContactSignature._of_contact_rows(pred.granularity,
                                             pred.pairs[pred.pair_probs >= tau_c])


def filter_signature(pred, cfg):
    """Apply probability, segmentation and landmark-proximity rules.

    A region that survives tau_s but has no landmark loses all its pairs
    (with a warning, once per region, in the order of the sorted pairs).
    """
    pairs, passed = _passing_pairs(pred, cfg.tau_s, [(cfg.tau_c, cfg.tau_dist)])
    return ContactSignature._of_contact_rows(pred.granularity, pairs[passed[0]])


def _passing_pairs(pred, tau_s, thresholds):
    """The four filter rules for one tau_s and G (tau_c, tau_dist) points.

    Returns the (M, 2) pairs that pass the smallest tau_c, the segmentation
    rule and the landmark rule, and the (G, M) mask of those that also pass
    the probability and distance rules of each point. Warns once per region that survives tau_s but has no
    landmark and is in a pair at or above the smallest tau_c, in the order of
    the sorted pairs: the warnings of the loosest point, which holds every
    other point's.
    """
    thresholds = np.array(thresholds, dtype=float).reshape(-1, 2)
    # the loosest probability rule first: it leaves few pairs for the others
    kept = np.flatnonzero(pred.pair_probs >= thresholds[:, 0].min())
    pairs, probs = pred.pairs[kept], pred.pair_probs[kept]
    kept = (pred.segmentation_probs >= tau_s)[pairs].all(axis=1)
    pairs, probs = pairs[kept], probs[kept]
    has_landmark = np.isfinite(pred.landmarks).all(axis=1)[pairs]
    # pairs[~has_landmark] is row-major: r1 before r2, pair by pair
    for r in dict.fromkeys(pairs[~has_landmark].tolist()):
        warnings.warn(f"region {r} has no landmark; dropping its pairs", stacklevel=3)
    kept = has_landmark.all(axis=1)
    pairs, probs = pairs[kept], probs[kept]
    d = pred.landmarks[pairs[:, 0]] - pred.landmarks[pairs[:, 1]]
    # a (1, 2) @ (2, 1) product per pair is the BLAS dot that np.linalg.norm
    # takes, so the distance equals norm(lm1 - lm2) to the bit;
    # sqrt(d0*d0 + d1*d1), einsum and norm(axis=1) round differently
    dist = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return pairs, (probs >= thresholds[:, :1]) & (dist <= thresholds[:, 1:])


def _signature_ious(pred, truth, tau_s, configs):
    """[iou_signature(filter_signature(pred, cfg), truth) for cfg in configs],
    every cfg at tau_s, with the rules applied once for all of them."""
    pairs, passed = _passing_pairs(pred, tau_s, [(cfg.tau_c, cfg.tau_dist) for cfg in configs])
    states = _pair_states(truth)[2]
    at_pairs = states[_key(pairs[:, 0], pairs[:, 1], truth.granularity)]
    npred = np.count_nonzero(passed & (at_pairs != _MASKED), axis=1)
    inter = np.count_nonzero(passed & (at_pairs == _CONTACT), axis=1)
    union = npred + np.count_nonzero(states == _CONTACT) - inter
    # the division of contact._iou: Python ints, 1.0 on an empty union
    return [i / u if u else 1.0 for i, u in zip(inter.tolist(), union.tolist())]


def sweep_thresholds(predictions, ground_truths, tau_s_grid, tau_c_grid,
                     tau_dist_grid):
    """Pick thresholds maximizing mean IoU on a validation set.

    tau_s is chosen first by mean segmentation IoU against the ground-truth
    segmentations (derived from the signatures); (tau_c, tau_dist) are then
    chosen jointly by mean signature IoU with tau_s fixed. Ties resolve to
    the smallest thresholds (grid scanned in ascending order). An empty
    grid is a ParameterError.

    With tau_s fixed, each prediction takes one pass over the whole
    (tau_c, tau_dist) grid, with the IoUs and means filter_signature and
    iou_signature give to the bit. Each prediction warns about its regions
    without a landmark once, as filter_signature does at the smallest tau_c.
    """
    predictions = list(predictions)
    ground_truths = list(ground_truths)
    if not predictions or len(predictions) != len(ground_truths):
        raise ParameterError("need equally many predictions and ground truths")
    for p, g in zip(predictions, ground_truths):
        if p.granularity != g.granularity:
            raise GranularityError("prediction/ground-truth granularities differ")
    grids = [sorted(grid) for grid in (tau_s_grid, tau_c_grid, tau_dist_grid)]
    if not all(grids):
        raise ParameterError("every threshold grid needs at least one value")
    gt_segs = [segmentation_from_signature(g) for g in ground_truths]

    best_s, best_s_iou = None, -1.0
    for tau_s in grids[0]:
        ious = [iou_segmentation(threshold_segmentation(p, tau_s), gs)
                for p, gs in zip(predictions, gt_segs)]
        mean = float(np.mean(ious))
        if mean > best_s_iou:
            best_s, best_s_iou = float(tau_s), mean

    configs = [FilterConfig(tau_s=best_s, tau_c=float(tau_c), tau_dist=float(tau_dist))
               for tau_c in grids[1] for tau_dist in grids[2]]
    per_prediction = [_signature_ious(p, g, best_s, configs)
                      for p, g in zip(predictions, ground_truths)]
    best_cd, best_cd_iou = None, -1.0
    for cfg, ious in zip(configs, zip(*per_prediction)):
        mean = float(np.mean(ious))
        if mean > best_cd_iou:
            best_cd, best_cd_iou = (cfg.tau_c, cfg.tau_dist), mean

    cfg = FilterConfig(tau_s=best_s, tau_c=best_cd[0], tau_dist=best_cd[1])
    return cfg, {"segmentation_iou": best_s_iou, "signature_iou": best_cd_iou}

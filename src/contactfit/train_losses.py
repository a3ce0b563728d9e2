"""Training-loss mathematics as standalone differentiable functions.

Each loss returns (value, gradient) where the gradient is taken w.r.t. the
continuous prediction (landmark coordinates, logits or feature rows). No
network is involved; inputs are plain arrays.
"""

from dataclasses import dataclass

import numpy as np

from .body import scatter_rows
from .contact import ContactState, _pair_states
from .contact_geometry import _interleaved, _row_dots, _sum_in_order
from .errors import GranularityError, ParameterError, check_settings

DEFAULT_SIGMA_SQ_SEP = 0.025
SIMILARITY_METRICS = ("dot", "neg-sq-euclidean")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the total training loss."""

    w_sep: float = 5.0
    w_k: float = 5.0
    w_s: float = 1.0
    w_c: float = 1.0

    def __post_init__(self):
        check_settings(self)
        if min(self.w_sep, self.w_k, self.w_s, self.w_c) < 0:
            raise ParameterError("loss weights must be non-negative")


class LandmarkSet:
    """Predicted per-region image coordinates, normalized to [0,1]^2."""

    def __init__(self, granularity, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (granularity, 2):
            raise ParameterError("landmarks must be (granularity, 2)")
        if not np.isfinite(coords).all():
            raise ParameterError("landmark coordinates must be finite")
        self.granularity = int(granularity)
        self.coords = coords

    def __eq__(self, other):
        if not isinstance(other, LandmarkSet):
            return NotImplemented
        return (self.granularity == other.granularity
                and np.array_equal(self.coords, other.coords))


def softargmax(heatmap):
    """Softmax-weighted coordinate expectation of a heatmap.

    Uses 1-based grid indices: output x = sum_ij (i/W) softmax(h)_ij with i
    the column index, so values lie in (0, 1]. Returns ((x, y), grad) where
    grad has shape (2, H, W): d(x, y)/d(heatmap).
    """
    h = np.asarray(heatmap, dtype=float)
    if h.ndim != 2 or h.size == 0:
        raise ParameterError("heatmap must be a non-empty 2d grid")
    if not np.isfinite(h).all():
        raise ParameterError("heatmap values must be finite")
    H, W = h.shape
    e = np.exp(h - h.max())
    p = e / e.sum()
    ix = np.arange(1, W + 1) / W   # column weights
    iy = np.arange(1, H + 1) / H   # row weights
    x = float((p * ix[None, :]).sum())
    y = float((p * iy[:, None]).sum())
    grad = np.empty((2, H, W))
    grad[0] = p * (ix[None, :] - x)
    grad[1] = p * (iy[:, None] - y)
    return (x, y), grad


def loss_landmark(pred, gt_support):
    """Mean squared distance between predicted landmarks and ground-truth
    image support, over supported regions only.

    Empty support is defined as 0 with zero gradient. Returns
    (value, grad (N_R, 2)).
    """
    if pred.granularity != gt_support.granularity:
        raise GranularityError("landmark/support granularities differ")
    grad = np.zeros_like(pred.coords)
    regions = gt_support.regions()
    if not regions:
        return 0.0, grad
    total = 0.0
    for r in regions:
        diff = pred.coords[r] - np.asarray(gt_support.points[r])
        total += float(diff @ diff)
        grad[r] = 2.0 * diff / len(regions)
    return total / len(regions), grad


def loss_separation(pred, sig, sigma_sq=DEFAULT_SIGMA_SQ_SEP):
    """Sum of exp(-d^2 / (2 sigma^2)) over region pairs not in contact.

    Pairs whose signature state is contact or masked are excluded. Terms and
    gradient rows are added in sorted pair order, so both equal a loop over
    the pairs to the bit. Returns (value, grad (N_R, 2)).
    """
    if not np.isfinite(sigma_sq):
        raise ParameterError("sigma_sq must be finite")
    if sigma_sq <= 0:
        raise ParameterError("sigma_sq must be positive")
    if pred.granularity != sig.granularity:
        raise GranularityError("landmark/signature granularities differ")
    r1, r2, states = _pair_states(sig)
    free = states == ContactState.NO_CONTACT
    r1, r2 = r1[free], r2[free]
    diff = pred.coords[r1] - pred.coords[r2]
    term = np.exp(-_row_dots(diff, diff) / (2.0 * sigma_sq))
    g = term[:, None] * (-diff / sigma_sq)
    grad = scatter_rows(_interleaved(g, -g), _interleaved(r1, r2), len(pred.coords))
    return _sum_in_order(term), grad


def _softplus(x):
    # log(1 + e^x), stable for large |x|
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def positive_class_weight(num_pos, num_neg, clamp=(1.0, 100.0)):
    """Inverse-frequency weight for the positive class, clamped."""
    if num_pos == 0:
        return 1.0
    return float(np.clip(num_neg / num_pos, clamp[0], clamp[1]))


def loss_segmentation_ce(logits, gt_seg, pos_weight=None):
    """Class-weighted sigmoid cross-entropy over per-region contact logits.

    Masked regions contribute zero loss and gradient. The positive class is
    weighted by #neg/#pos within the instance (clamped to [1, 100]) unless
    pos_weight is given. Returns (value, grad over logits).
    """
    logits = np.asarray(logits, dtype=float)
    if logits.shape != (gt_seg.granularity,):
        raise ParameterError("logits length must equal granularity")
    if not np.isfinite(logits).all():
        raise ParameterError("logits must be finite")
    states = gt_seg.states
    active = states != ContactState.MASKED
    pos = (states == ContactState.CONTACT) & active
    neg = (states == ContactState.NO_CONTACT) & active
    if pos_weight is None:
        pos_weight = positive_class_weight(int(pos.sum()), int(neg.sum()))
    value = 0.0
    grad = np.zeros_like(logits)
    value += pos_weight * _softplus(-logits[pos]).sum()
    grad[pos] = pos_weight * (_sigmoid(logits[pos]) - 1.0)
    value += _softplus(logits[neg]).sum()
    grad[neg] = _sigmoid(logits[neg])
    return float(value), grad


def signature_similarity_loss(features, gt_sig, metric="dot", pos_weight=None):
    """Weighted sigmoid cross-entropy on pairwise feature similarities
    against the ground-truth signature.

    metric="dot" scores a pair by the dot product of its feature rows (the
    F F^T entry); metric="neg-sq-euclidean" by the negated squared distance.
    Masked pairs are excluded. Terms and gradient rows are added in sorted
    pair order, so both equal a loop over the pairs to the bit. Returns
    (value, grad over features (N_R, d)).
    """
    F = np.asarray(features, dtype=float)
    if F.ndim != 2 or F.shape[0] != gt_sig.granularity:
        raise ParameterError("features must be (granularity, d)")
    if not np.isfinite(F).all():
        raise ParameterError("features must be finite")
    if metric not in SIMILARITY_METRICS:
        raise ParameterError(f"unknown similarity metric {metric!r}")
    r1, r2, states = _pair_states(gt_sig)
    kept = states != ContactState.MASKED
    r1, r2, y = r1[kept], r2[kept], (states[kept] == ContactState.CONTACT).astype(float)
    num_pos = int(np.count_nonzero(y))
    if pos_weight is None:
        pos_weight = positive_class_weight(num_pos, len(y) - num_pos)
    if metric == "dot":
        s = _row_dots(F[r1], F[r2])
        ds_d1, ds_d2 = F[r2], F[r1]
    else:
        diff = F[r1] - F[r2]
        s = -_row_dots(diff, diff)
        ds_d1, ds_d2 = -2.0 * diff, 2.0 * diff
    w = np.where(y == 1.0, pos_weight, 1.0)
    dv_ds = (w * (_sigmoid(s) - y))[:, None]
    grad = scatter_rows(_interleaved(dv_ds * ds_d1, dv_ds * ds_d2), _interleaved(r1, r2),
                        len(F))
    # w * CE(sigmoid(s), y), added in pair order
    return _sum_in_order(w * (_softplus(s) - y * s)), grad


def total_train_loss(l_sep, l_k, l_s, l_c, weights=LossWeights()):
    """Weighted sum of the four training-loss terms."""
    return (weights.w_sep * l_sep + weights.w_k * l_k
            + weights.w_s * l_s + weights.w_c * l_c)

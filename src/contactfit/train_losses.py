"""Training-loss mathematics as standalone differentiable functions.

Each loss returns (value, gradient) where the gradient is taken w.r.t. the
continuous prediction (landmark coordinates, logits or feature rows). No
network is involved; inputs are plain arrays.
"""

from dataclasses import dataclass

import numpy as np

from .contact import ContactState
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


def bilinear_sample(grid, xy):
    """Bilinear interpolation of a (H, W) or (H, W, C) grid at index-space
    coordinates (x, y) = (column, row).

    Out-of-bounds queries are clamped to the border and flagged. Returns
    (value, clamped).
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim not in (2, 3):
        raise ParameterError("grid must be (H, W) or (H, W, C)")
    H, W = g.shape[:2]
    x, y = float(xy[0]), float(xy[1])
    clamped = not (0.0 <= x <= W - 1 and 0.0 <= y <= H - 1)
    x = min(max(x, 0.0), W - 1.0)
    y = min(max(y, 0.0), H - 1.0)
    x0 = min(int(np.floor(x)), W - 2) if W > 1 else 0
    y0 = min(int(np.floor(y)), H - 2) if H > 1 else 0
    x1 = min(x0 + 1, W - 1)
    y1 = min(y0 + 1, H - 1)
    fx = x - x0
    fy = y - y0
    value = ((1 - fx) * (1 - fy) * g[y0, x0] + fx * (1 - fy) * g[y0, x1]
             + (1 - fx) * fy * g[y1, x0] + fx * fy * g[y1, x1])
    return value, clamped


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

    Pairs whose signature state is contact or masked are excluded. Returns
    (value, grad (N_R, 2)).
    """
    if sigma_sq <= 0:
        raise ParameterError("sigma_sq must be positive")
    if pred.granularity != sig.granularity:
        raise GranularityError("landmark/signature granularities differ")
    value = 0.0
    grad = np.zeros_like(pred.coords)
    n = pred.granularity
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            if sig.state(r1, r2) != ContactState.NO_CONTACT:
                continue
            diff = pred.coords[r1] - pred.coords[r2]
            term = np.exp(-float(diff @ diff) / (2.0 * sigma_sq))
            value += term
            g = term * (-diff / sigma_sq)
            grad[r1] += g
            grad[r2] -= g
    return value, grad


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
    Masked pairs are excluded. Returns (value, grad over features (N_R, d)).
    """
    F = np.asarray(features, dtype=float)
    if F.ndim != 2 or F.shape[0] != gt_sig.granularity:
        raise ParameterError("features must be (granularity, d)")
    if not np.isfinite(F).all():
        raise ParameterError("features must be finite")
    if metric not in SIMILARITY_METRICS:
        raise ParameterError(f"unknown similarity metric {metric!r}")
    n = gt_sig.granularity
    pairs = [(r1, r2) for r1 in range(n) for r2 in range(r1 + 1, n)
             if gt_sig.state(r1, r2) != ContactState.MASKED]
    num_pos = sum(1 for p in pairs if gt_sig.state(*p) == ContactState.CONTACT)
    if pos_weight is None:
        pos_weight = positive_class_weight(num_pos, len(pairs) - num_pos)
    value = 0.0
    grad = np.zeros_like(F)
    for r1, r2 in pairs:
        if metric == "dot":
            s = float(F[r1] @ F[r2])
            ds_d1, ds_d2 = F[r2], F[r1]
        else:
            diff = F[r1] - F[r2]
            s = -float(diff @ diff)
            ds_d1, ds_d2 = -2.0 * diff, 2.0 * diff
        y = 1.0 if gt_sig.state(r1, r2) == ContactState.CONTACT else 0.0
        w = pos_weight if y == 1.0 else 1.0
        value += w * (_softplus(s) - y * s)   # = w * CE(sigmoid(s), y)
        dv_ds = w * (_sigmoid(s) - y)
        grad[r1] += dv_ds * ds_d1
        grad[r2] += dv_ds * ds_d2
    return float(value), grad


def total_train_loss(l_sep, l_k, l_s, l_c, weights=LossWeights()):
    """Weighted sum of the four training-loss terms."""
    return (weights.w_sep * l_sep + weights.w_k * l_k
            + weights.w_s * l_s + weights.w_c * l_c)

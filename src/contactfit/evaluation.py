"""Reconstruction metrics and scenario-class aggregation.

All distances are reported in millimeters. Pose error is root-aligned
(joint 0 by convention); the translation error is reported separately.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SCENARIO_CLASSES = ("standing", "sitting-no-chair", "with-chair")
METRIC_NAMES = ("P", "T", "V", "C")


@dataclass
class EvalRecord:
    instance_id: str
    scenario_class: str
    pose_error: float          # P, mm
    translation_error: float   # T, mm
    vertex_error: float        # V, mm
    contact_distance: float    # C, mm; None when the signature is empty

    def __post_init__(self):
        if self.scenario_class not in SCENARIO_CLASSES:
            raise ParameterError(f"unknown scenario class {self.scenario_class!r}")
        for name in METRIC_NAMES:
            value = self.metric(name)
            if not (name == "C" and value is None) and not 0 <= value < np.inf:
                raise ParameterError(f"{name} must be finite and non-negative, got {value!r}")

    def metric(self, name):
        return {"P": self.pose_error, "T": self.translation_error,
                "V": self.vertex_error, "C": self.contact_distance}[name]


def mpjpe(pred_joints, gt_joints, root=0, align_root=True):
    """Mean per-joint position error in mm, root-aligned by default."""
    pred = np.asarray(pred_joints, dtype=float)
    gt = np.asarray(gt_joints, dtype=float)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ParameterError("joint arrays must both be (J, 3)")
    if align_root:
        pred = pred - pred[root]
        gt = gt - gt[root]
    return 1000.0 * float(np.linalg.norm(pred - gt, axis=1).mean())


def translation_error(pred_root, gt_root):
    """Euclidean distance of the root joints in mm."""
    return 1000.0 * float(np.linalg.norm(np.asarray(pred_root, dtype=float)
                                         - np.asarray(gt_root, dtype=float)))


def vertex_error(pred_vertices, gt_vertices):
    """Mean per-vertex Euclidean distance in mm (no alignment)."""
    pred = np.asarray(pred_vertices, dtype=float)
    gt = np.asarray(gt_vertices, dtype=float)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ParameterError("vertex arrays must both be (V, 3)")
    return 1000.0 * float(np.linalg.norm(pred - gt, axis=1).mean())


def aggregate(records):
    """Per-class and overall metric means.

    Returns {class_or_"overall": {metric: mean}}. Classes with no records
    are absent; a metric that is None in every record of a group is None.
    """
    records = list(records)
    if not records:
        raise ParameterError("no records to aggregate")
    groups = {}
    for rec in records:
        groups.setdefault(rec.scenario_class, []).append(rec)
    groups["overall"] = records
    out = {}
    for name, recs in groups.items():
        row = {}
        for metric in METRIC_NAMES:
            vals = [rec.metric(metric) for rec in recs if rec.metric(metric) is not None]
            row[metric] = float(np.mean(vals)) if vals else None
        out[name] = row
    return out

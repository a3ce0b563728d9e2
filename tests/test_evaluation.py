import numpy as np
import pytest

from contactfit.errors import ParameterError
from contactfit.evaluation import (EvalRecord, aggregate, mpjpe,
                                   translation_error, vertex_error)


class TestMpjpe:
    def test_identical_joints(self):
        rng = np.random.default_rng(0)
        joints = rng.normal(0, 1, (12, 3))
        assert mpjpe(joints, joints) == 0.0

    def test_uniform_offset_removed_by_root_alignment(self):
        rng = np.random.default_rng(1)
        joints = rng.normal(0, 1, (12, 3))
        assert np.isclose(mpjpe(joints + [0.3, -0.1, 0.8], joints), 0.0)

    def test_random_matches_per_joint_oracle(self):
        rng = np.random.default_rng(2)
        gt = rng.normal(0, 1, (9, 3))
        pred = gt + rng.normal(0, 0.05, (9, 3))
        got = mpjpe(pred, gt)
        p = pred - pred[0]
        g = gt - gt[0]
        expected = 1000.0 * np.mean([np.linalg.norm(p[i] - g[i]) for i in range(9)])
        assert np.isclose(got, expected)

    def test_alignment_can_be_disabled(self):
        rng = np.random.default_rng(3)
        joints = rng.normal(0, 1, (5, 3))
        shifted = joints + [0.1, 0.0, 0.0]
        assert np.isclose(mpjpe(shifted, joints, align_root=False), 100.0)

    def test_count_mismatch(self):
        with pytest.raises(ParameterError):
            mpjpe(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_invariant_to_common_translation(self):
        rng = np.random.default_rng(4)
        gt = rng.normal(0, 1, (7, 3))
        pred = gt + rng.normal(0, 0.1, (7, 3))
        t = np.array([1.0, -2.0, 3.0])
        assert np.isclose(mpjpe(pred, gt), mpjpe(pred + t, gt + t))


class TestTranslationError:
    def test_identical(self):
        assert translation_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_analytic_offset(self):
        assert np.isclose(translation_error([0.3, 0.0, 0.4], [0.0, 0.0, 0.0]),
                          500.0)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, (2, 3))
        assert np.isclose(translation_error(a, b),
                          1000.0 * np.sqrt(((a - b) ** 2).sum()))


class TestVertexError:
    def test_identical(self):
        verts = np.random.default_rng(6).normal(0, 1, (20, 3))
        assert vertex_error(verts, verts) == 0.0

    def test_uniform_10mm_offset(self):
        verts = np.random.default_rng(7).normal(0, 1, (20, 3))
        assert np.isclose(vertex_error(verts + [0.01, 0, 0], verts), 10.0)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(8)
        gt = rng.normal(0, 1, (15, 3))
        pred = gt + rng.normal(0, 0.02, (15, 3))
        expected = 1000.0 * np.mean(np.linalg.norm(pred - gt, axis=1))
        assert np.isclose(vertex_error(pred, gt), expected)

    def test_topology_mismatch(self):
        with pytest.raises(ParameterError):
            vertex_error(np.zeros((3, 3)), np.zeros((4, 3)))


def rec(i, cls, p, t, v, c):
    return EvalRecord(str(i), cls, p, t, v, c)


class TestAggregate:
    def test_one_record_per_class(self):
        records = [rec(0, "standing", 10.0, 1.0, 5.0, 2.0),
                   rec(1, "sitting-no-chair", 20.0, 2.0, 10.0, 4.0),
                   rec(2, "with-chair", 30.0, 3.0, 15.0, 6.0)]
        table = aggregate(records)
        assert table["overall"]["P"] == 20.0
        assert table["standing"]["P"] == 10.0

    def test_overall_weights_by_record_count(self):
        records = [rec(0, "standing", 10.0, 0, 0, None),
                   rec(1, "standing", 20.0, 0, 0, None),
                   rec(2, "with-chair", 40.0, 0, 0, None)]
        table = aggregate(records)
        assert np.isclose(table["overall"]["P"], (10 + 20 + 40) / 3)
        assert table["overall"]["C"] is None

    def test_random_batch_matches_groupby_oracle(self):
        rng = np.random.default_rng(9)
        classes = ["standing", "sitting-no-chair", "with-chair"]
        records = [rec(i, classes[int(rng.integers(0, 3))],
                       float(rng.uniform(0, 100)), float(rng.uniform(0, 100)),
                       float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                   for i in range(40)]
        table = aggregate(records)
        for cls in classes:
            vals = [r.pose_error for r in records if r.scenario_class == cls]
            if vals:
                assert np.isclose(table[cls]["P"], np.mean(vals))
            else:
                assert cls not in table

    def test_empty_class_absent(self):
        table = aggregate([rec(0, "standing", 1, 1, 1, 1)])
        assert "with-chair" not in table and "overall" in table

    def test_overall_between_class_extremes(self):
        rng = np.random.default_rng(10)
        classes = ["standing", "sitting-no-chair", "with-chair"]
        records = [rec(i, classes[i % 3], float(rng.uniform(0, 50)), 1, 1, None)
                   for i in range(30)]
        table = aggregate(records)
        class_means = [table[c]["P"] for c in classes]
        assert min(class_means) <= table["overall"]["P"] <= max(class_means)

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([])

    def test_unknown_class_rejected(self):
        with pytest.raises(ParameterError):
            rec(0, "flying", 1, 1, 1, 1)

    def test_negative_metric_rejected(self):
        with pytest.raises(ParameterError):
            rec(0, "standing", -1.0, 1, 1, 1)

    @pytest.mark.parametrize("metrics, name", [
        ((np.nan, 1.0, 1.0, 1.0), "P"),
        ((1.0, np.inf, 1.0, 1.0), "T"),
        ((1.0, 1.0, -np.inf, 1.0), "V"),
        ((1.0, 1.0, 1.0, np.nan), "C"),
        ((1.0, 1.0, 1.0, -3.0), "C")])
    def test_non_finite_metric_or_negative_contact_rejected(self, metrics, name):
        with pytest.raises(ParameterError, match=f"^{name} must be finite and non-negative"):
            rec(0, "standing", *metrics)

    def test_contact_distance_may_be_none(self):
        assert rec(0, "standing", 1.0, 1.0, 1.0, None).metric("C") is None

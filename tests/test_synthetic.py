import numpy as np
import pytest

from contactfit.body import facet_geometry, joint_positions, pose_mesh, project
from contactfit.contact_geometry import contact_distance_error
from contactfit.errors import ParameterError
from contactfit.regions import coarsen_region_map
from contactfit.synthetic import (SCENARIO_NAMES, build_synthetic_body,
                                  default_camera, generate_scenario)

from conftest import synthetic_rest_joints


class TestBodyConstruction:
    def test_sizes(self, synthetic_body):
        model = synthetic_body.model
        assert 500 <= model.num_vertices <= 2000
        assert 1000 <= model.num_faces <= 2000
        assert 15 <= model.num_joints <= 25

    def test_all_granularities_nonempty(self, synthetic_body):
        rmap = synthetic_body.region_map
        assert rmap.granularity == 75
        for coarse in (37, 17, 9):
            out = coarsen_region_map(rmap, synthetic_body.coarsen_maps[(75, coarse)])
            assert out.granularity == coarse  # constructor checks non-emptiness

    def test_part_regions_cover_everything(self, synthetic_body):
        ids = sorted(r for ids in synthetic_body.part_regions.values() for r in ids)
        assert ids == list(range(75))

    def test_normals_point_outward_from_part_interior(self, synthetic_body):
        # sanity on winding: head sphere normals point away from its center
        model = synthetic_body.model
        geom = facet_geometry(model.template_vertices, model.faces)
        head = [fid for r in synthetic_body.part_regions["head"]
                for fid in np.flatnonzero(
                    synthetic_body.region_map.facet_to_region == r)]
        center = np.array([0.0, 0.68, 0.0])
        outward = geom.centers[head] - center
        dots = (outward * geom.normals[head]).sum(axis=1)
        assert (dots > 0).all()

    def test_regressor_reproduces_rest_joints(self, synthetic_body):
        model = synthetic_body.model
        joints = model.joint_regressor @ model.template_vertices
        assert np.abs(joints - synthetic_rest_joints()).max() < 1e-7

    def test_deterministic_rebuild(self, synthetic_body):
        again = build_synthetic_body()
        assert np.array_equal(again.model.template_vertices,
                              synthetic_body.model.template_vertices)
        assert np.array_equal(again.region_map.facet_to_region,
                              synthetic_body.region_map.facet_to_region)


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_gt_contact_under_5mm_by_construction(self, name):
        bundle = generate_scenario(name, seed=7)
        geom = facet_geometry(pose_mesh(bundle.body.model, bundle.gt_params),
                              bundle.body.model.faces)
        err = contact_distance_error(geom.centers, bundle.signature,
                                     bundle.body.region_map)
        assert err < 5.0

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_same_seed_is_identical(self, name):
        a = generate_scenario(name, seed=3)
        b = generate_scenario(name, seed=3)
        assert np.array_equal(a.gt_params.to_vector(), b.gt_params.to_vector())
        assert np.array_equal(a.initial_params.to_vector(),
                              b.initial_params.to_vector())
        assert np.array_equal(a.keypoints, b.keypoints)
        assert a.signature == b.signature

    def test_different_seed_changes_start(self):
        a = generate_scenario("hand-chin", seed=1)
        b = generate_scenario("hand-chin", seed=2)
        assert not np.array_equal(a.initial_params.to_vector(),
                                  b.initial_params.to_vector())
        # ground truth pose is seed-independent (only the start is noisy)
        assert np.array_equal(a.gt_params.to_vector(), b.gt_params.to_vector())

    def test_initial_pose_far_from_contact(self):
        bundle = generate_scenario("hand-chin", seed=7)
        geom = facet_geometry(pose_mesh(bundle.body.model, bundle.initial_params),
                              bundle.body.model.faces)
        err = contact_distance_error(geom.centers, bundle.signature,
                                     bundle.body.region_map)
        assert err > 50.0

    def test_keypoints_are_gt_projections_when_clean(self):
        bundle = generate_scenario("hand-chin", seed=7, noise_px=0.0)
        gt_joints = joint_positions(bundle.body.model, bundle.gt_params)
        expected = project(bundle.camera, gt_joints[bundle.keypoint_joints])
        assert np.allclose(bundle.keypoints, expected)

    def test_contact_wrist_has_no_keypoint(self):
        bundle = generate_scenario("hand-chin", seed=7)
        from contactfit.synthetic import JOINT_INDEX
        assert JOINT_INDEX["r_wrist"] not in bundle.keypoint_joints

    def test_support_on_contact_regions_only(self):
        bundle = generate_scenario("hands-together", seed=7)
        contact_regions = {r for p in bundle.signature.contact_pairs() for r in p}
        assert set(bundle.support.regions()) == contact_regions

    def test_noise_magnitude_statistics(self):
        # mean |delta| of gaussian pixel noise approximates sigma*sqrt(2/pi)
        sigma = 2.0
        diffs = []
        for seed in range(30):
            clean = generate_scenario("hand-chin", seed=seed, noise_px=0.0)
            noisy = generate_scenario("hand-chin", seed=seed, noise_px=sigma)
            diffs.append((noisy.keypoints - clean.keypoints).ravel())
        diffs = np.concatenate(diffs)
        assert len(diffs) >= 1000
        expected = sigma * np.sqrt(2.0 / np.pi)
        assert abs(np.abs(diffs).mean() - expected) < 0.2 * expected

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ParameterError):
            generate_scenario("headstand", seed=0)

    def test_scenario_classes_cover_all_three(self):
        classes = {generate_scenario(n, seed=0).scenario_class
                   for n in SCENARIO_NAMES}
        assert classes == {"standing", "sitting-no-chair", "with-chair"}

    def test_camera_sees_all_keypoints(self):
        cam = default_camera()
        for name in SCENARIO_NAMES:
            bundle = generate_scenario(name, seed=0)
            joints = joint_positions(bundle.body.model, bundle.gt_params)
            depths = cam.transform(joints)[:, 2]
            assert (depths > 0).all()

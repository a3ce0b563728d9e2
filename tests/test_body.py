import numpy as np
import pytest

from contactfit.body import (BodyModel, Camera, PoseParams, facet_geometry,
                             facet_normal_vertex_jacobian, facet_normal_vjp,
                             joint_positions, pose_mesh, pose_mesh_vjp,
                             pose_mesh_with_jacobian, project)
from contactfit.errors import (GeometryError, ParameterError, ProjectionError)
from contactfit.rotations import rodrigues

from conftest import (fd_gradient, rel_error, random_model, random_params,
                      simple_camera, single_joint_model, synthetic_rest_joints,
                      two_joint_model)


class TestPoseMesh:
    def test_identity_is_identity(self):
        model = two_joint_model()
        posed = pose_mesh(model, PoseParams.identity(2))
        assert np.abs(posed - model.template_vertices).max() < 1e-9

    def test_identity_on_synthetic(self, synthetic_body):
        model = synthetic_body.model
        posed = pose_mesh(model, PoseParams.identity(model.num_joints))
        assert np.abs(posed - model.template_vertices).max() < 1e-9

    def test_single_joint_rotation_about_joint_center(self):
        model = single_joint_model(joint_at=(0.5, 0.0, 0.0))
        params = PoseParams(np.array([[0.0, 0.0, np.pi / 2]]),
                            np.zeros(3), np.zeros(3))
        posed = pose_mesh(model, params)
        center = np.array([0.5, 0.0, 0.0])
        R = rodrigues([0, 0, np.pi / 2])
        expected = (model.template_vertices - center) @ R.T + center
        assert np.allclose(posed, expected, atol=1e-12)

    def test_half_half_blend_is_mean_of_rigid_transforms(self):
        model = two_joint_model()
        rng = np.random.default_rng(5)
        params = PoseParams(rng.normal(0, 0.7, (2, 3)), rng.normal(0, 0.2, 3),
                            np.zeros(3))
        posed = pose_mesh(model, params)
        # rigid transform of vertex 1 under each joint alone
        rigid = []
        for j in range(2):
            w = np.zeros((model.num_vertices, 2))
            w[:, j] = 1.0
            m = BodyModel(model.template_vertices, model.faces,
                          model.joint_parents, model.joint_offsets, w,
                          model.joint_regressor)
            rigid.append(pose_mesh(m, params)[1])
        assert np.allclose(posed[1], (rigid[0] + rigid[1]) / 2.0, atol=1e-12)

    def test_root_rotation_rotates_identity_pose_about_root(self, synthetic_body):
        model = synthetic_body.model
        rng = np.random.default_rng(11)
        rvec = rng.normal(0, 0.8, 3)
        params = PoseParams.identity(model.num_joints)
        params.joint_rotations[0] = rvec
        posed = pose_mesh(model, params)
        R = rodrigues(rvec)
        root = synthetic_rest_joints()[0]
        expected = (model.template_vertices - root) @ R.T + root
        assert np.abs(posed - expected).max() < 1e-6

    def test_dimension_mismatch(self):
        model = two_joint_model()
        with pytest.raises(ParameterError):
            pose_mesh(model, PoseParams.identity(3))

    def test_shape_scales_template(self):
        model = two_joint_model()
        params = PoseParams.identity(2)
        params.shape = np.array([0.5, -0.25, 0.0])
        posed = pose_mesh(model, params)
        assert np.allclose(posed, model.template_vertices * [1.5, 0.75, 1.0])


class TestJacobian:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        params = random_params(rng, model)
        verts, jac = pose_mesh_with_jacobian(model, params)
        assert np.allclose(verts, pose_mesh(model, params))
        x0 = params.to_vector()
        probes = rng.integers(0, model.num_vertices, size=4)
        for v in probes:
            for c in range(3):
                num = fd_gradient(
                    lambda x: pose_mesh(model, PoseParams.from_vector(
                        x, model.num_joints))[v, c], x0)
                assert rel_error(jac[v, c], num) < 1e-5


def _dense_vjp(model, params, grad_verts):
    return np.einsum("vc,vcp->p", grad_verts,
                     pose_mesh_with_jacobian(model, params)[1])


class TestReverseMode:
    """pose_mesh_vjp and facet_normal_vjp against their dense oracles."""

    @pytest.mark.parametrize("seed", range(8))
    def test_vjp_matches_dense_jacobian_on_random_models(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_model(rng, n_joints=int(rng.integers(1, 7)), n_verts=18)
        params = random_params(rng, model)
        params.joint_rotations[int(rng.integers(model.num_joints))] = 0.0
        grad_verts = rng.normal(0.0, 1.0, (model.num_vertices, 3))
        assert rel_error(pose_mesh_vjp(model, params, grad_verts),
                         _dense_vjp(model, params, grad_verts)) < 1e-10

    @pytest.mark.parametrize("seed", range(2))
    def test_vjp_matches_dense_jacobian_on_synthetic_body(self, synthetic_body, seed):
        model = synthetic_body.model
        rng = np.random.default_rng(200 + seed)
        params = random_params(rng, model, rot_scale=0.4)
        params.joint_rotations[[0, 5]] = 0.0      # root and a limb: small-angle branch
        params.joint_rotations[3] = [1e-9, 0.0, -2e-9]
        grad_verts = rng.normal(0.0, 1.0, (model.num_vertices, 3))
        assert rel_error(pose_mesh_vjp(model, params, grad_verts),
                         _dense_vjp(model, params, grad_verts)) < 1e-10

    def test_vjp_rejects_wrong_shape(self):
        model = two_joint_model()
        with pytest.raises(ParameterError):
            pose_mesh_vjp(model, PoseParams.identity(2), np.zeros((3, 3)))

    def test_normal_vjp_matches_jacobian_blocks(self):
        rng = np.random.default_rng(9)
        verts = rng.normal(0.0, 1.0, (30, 3))
        faces = rng.integers(0, 30, (40, 3))
        faces = faces[[len(set(f)) == 3 for f in faces]]
        grad_normals = rng.normal(0.0, 1.0, (len(faces), 3))
        grad_normals[::3] = 0.0  # faces the loss does not touch
        face_ids = np.flatnonzero(np.any(grad_normals != 0.0, axis=1))
        blocks = facet_normal_vertex_jacobian(verts, faces, face_ids)
        expected = np.zeros_like(verts)
        for row, fid in enumerate(face_ids):
            for corner in range(3):
                expected[faces[fid, corner]] += grad_normals[fid] @ blocks[row, corner]
        assert rel_error(facet_normal_vjp(verts, faces, grad_normals), expected) < 1e-12

    def test_normal_vjp_degenerate_face_raises(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(GeometryError):
            facet_normal_vjp(verts, np.array([[0, 1, 2]]), np.ones((1, 3)))


class TestFacetGeometry:
    def test_analytic_triangle(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        geom = facet_geometry(verts, np.array([[0, 1, 2]]))
        assert np.allclose(geom.centers[0], [1 / 3, 1 / 3, 0])
        assert np.allclose(geom.normals[0], [0, 0, 1])

    def test_translation_invariance_of_normals(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        shifted = verts + [3.0, -2.0, 5.0]
        faces = np.array([[0, 1, 2]])
        a = facet_geometry(verts, faces)
        b = facet_geometry(shifted, faces)
        assert np.allclose(b.centers[0], a.centers[0] + [3, -2, 5])
        assert np.allclose(b.normals[0], a.normals[0])

    def test_random_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        verts = rng.normal(0, 1, (30, 3))
        faces = np.arange(30).reshape(10, 3)
        geom = facet_geometry(verts, faces)
        for i, (a, b, c) in enumerate(faces):
            pa, pb, pc = verts[a], verts[b], verts[c]
            center = (pa + pb + pc) / 3.0
            n = np.cross(pb - pa, pc - pa)
            n = n / np.linalg.norm(n)
            assert np.allclose(geom.centers[i], center)
            assert np.allclose(geom.normals[i], n)

    def test_unit_normals_and_winding_flip(self):
        rng = np.random.default_rng(8)
        verts = rng.normal(0, 1, (12, 3))
        faces = np.arange(12).reshape(4, 3)
        geom = facet_geometry(verts, faces)
        assert np.allclose(np.linalg.norm(geom.normals, axis=1), 1.0, atol=1e-9)
        flipped = facet_geometry(verts, faces[:, [0, 2, 1]])
        assert np.allclose(flipped.normals, -geom.normals)

    def test_degenerate_face_is_an_error(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(GeometryError):
            facet_geometry(verts, np.array([[0, 1, 2]]))

    def test_degenerate_rejected_at_load(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(GeometryError):
            BodyModel(verts, np.array([[0, 1, 2]]), np.array([-1]),
                      np.zeros((1, 3)), np.ones((3, 1)), np.ones((1, 3)) / 3)

    def test_facet_indexing(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        geom = facet_geometry(verts, np.array([[0, 1, 2]]))
        assert geom.centers.shape == geom.normals.shape == (1, 3)
        assert np.allclose(geom.centers[0], [1 / 3, 1 / 3, 0])
        assert np.allclose(geom.normals[0], [0, 0, 1])

    @pytest.mark.parametrize("seed", range(3))
    def test_normal_vertex_jacobian_fd(self, seed):
        rng = np.random.default_rng(seed)
        verts = rng.normal(0, 1, (6, 3))
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        blocks = facet_normal_vertex_jacobian(verts, faces, [0, 1])
        for row, fid in enumerate([0, 1]):
            for corner in range(3):
                vid = faces[fid, corner]
                for ncomp in range(3):
                    def f(x):
                        v = verts.copy()
                        v[vid] = x
                        return facet_geometry(v, faces).normals[fid, ncomp]
                    num = fd_gradient(f, verts[vid].copy())
                    assert rel_error(blocks[row, corner, ncomp], num) < 1e-5


class TestJointPositions:
    def test_identity_gives_rest_joints(self, synthetic_body):
        model = synthetic_body.model
        joints = joint_positions(model, PoseParams.identity(model.num_joints))
        assert np.abs(joints - synthetic_rest_joints()).max() < 1e-8

    def test_pure_translation_shifts_all(self, synthetic_body):
        model = synthetic_body.model
        params = PoseParams.identity(model.num_joints)
        params.translation = np.array([0.4, -0.2, 0.9])
        joints = joint_positions(model, params)
        assert np.allclose(joints, synthetic_rest_joints() + params.translation,
                           atol=1e-8)

    def test_random_pose_equals_regressor_product(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        params = random_params(rng, model)
        joints = joint_positions(model, params)
        assert np.allclose(joints, model.joint_regressor @ pose_mesh(model, params))


class TestCamera:
    def test_optical_axis_projects_to_principal_point(self):
        cam = simple_camera()
        uv = project(cam, [0.0, 0.0, 0.0])
        assert np.allclose(uv, [cam.cx, cam.cy])

    def test_analytic_offset_point(self):
        cam = Camera(fx=100.0, fy=100.0, cx=50.0, cy=40.0,
                     rotation=np.eye(3), translation=np.zeros(3))
        uv = project(cam, [0.5, 0.0, 2.0])
        assert np.allclose(uv, [100 * 0.5 / 2 + 50, 40])

    def test_batch_matches_scalar_formula(self):
        cam = simple_camera()
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 0.5, (40, 3))
        uv = project(cam, pts)
        for i, p in enumerate(pts):
            c = cam.rotation @ p + cam.translation
            assert np.allclose(uv[i], [cam.fx * c[0] / c[2] + cam.cx,
                                       cam.fy * c[1] / c[2] + cam.cy])

    def test_behind_camera_raises(self):
        cam = simple_camera()
        with pytest.raises(ProjectionError):
            project(cam, [0.0, 0.0, 10.0])

    def test_invalid_focal(self):
        with pytest.raises(ParameterError):
            Camera(fx=-1.0, fy=1.0, cx=0, cy=0, rotation=np.eye(3),
                   translation=np.zeros(3))

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "rotation", "translation"])
    def test_non_finite_rejected(self, field):
        values = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, rotation=np.eye(3),
                      translation=np.zeros(3))
        values[field] = values[field] * np.nan
        with pytest.raises(ParameterError, match=f"^camera {field} must be finite$"):
            Camera(**values)


    @pytest.mark.parametrize("rotation", [2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]),
                                          np.eye(3) + 1e-5])
    def test_rotation_must_be_proper(self, rotation):
        with pytest.raises(ParameterError, match="camera rotation must be orthonormal"):
            Camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, rotation=rotation,
                   translation=np.zeros(3))


class TestModelValidation:
    @pytest.mark.parametrize("field", ["template_vertices", "joint_offsets",
                                       "skinning_weights", "joint_regressor"])
    def test_non_finite_rejected(self, field):
        values = dict(template_vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
                      faces=np.array([[0, 1, 2]]), joint_parents=np.array([-1]),
                      joint_offsets=np.zeros((1, 3)), skinning_weights=np.ones((3, 1)),
                      joint_regressor=np.ones((1, 3)) / 3)
        BodyModel(**values)
        values[field] = values[field].copy()
        values[field][0, 0] = np.nan if field != "joint_regressor" else np.inf
        with pytest.raises(ParameterError, match=f"^{field} must be finite$"):
            BodyModel(**values)

    def test_cycle_detection(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        with pytest.raises(ParameterError):
            BodyModel(verts, np.array([[0, 1, 2]]), np.array([1, 0]),
                      np.zeros((2, 3)), np.ones((3, 2)) / 2, np.ones((2, 3)) / 3)

    def test_two_roots_rejected(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        with pytest.raises(ParameterError):
            BodyModel(verts, np.array([[0, 1, 2]]), np.array([-1, -1]),
                      np.zeros((2, 3)), np.ones((3, 2)) / 2, np.ones((2, 3)) / 3)

    def test_weights_must_sum_to_one(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        with pytest.raises(ParameterError):
            BodyModel(verts, np.array([[0, 1, 2]]), np.array([-1]),
                      np.zeros((1, 3)), np.full((3, 1), 0.5), np.ones((1, 3)) / 3)

    def test_bad_face_index(self):
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        with pytest.raises(ParameterError):
            BodyModel(verts, np.array([[0, 1, 9]]), np.array([-1]),
                      np.zeros((1, 3)), np.ones((3, 1)), np.ones((1, 3)) / 3)

import numpy as np
import pytest

from contactfit.body import PoseParams, facet_geometry, joint_positions, pose_mesh
from contactfit.contact import ContactSignature
from contactfit.contact_geometry import loss_normal
from contactfit import reconstruct
from contactfit.errors import GeometryError, ParameterError
from contactfit.inference_filter import FilterConfig
from contactfit.reconstruct import (CollisionProxySet, ObjectiveWeights,
                                    OptimizerSettings, ReconstructionProblem,
                                    evaluate_breakdown, evaluate_gradient,
                                    fit_collision_proxies,
                                    loss_collision, loss_projection,
                                    loss_regularizer, optimize)
from contactfit.regions import RegionMap, region_facets
from contactfit.synthetic import generate_scenario
from contactfit.train_losses import LossWeights

from conftest import (fd_gradient, rel_error, random_model, random_params,
                      simple_camera)


def sig(n, contact=(), masked=()):
    return ContactSignature.from_sets(n, contact=contact, masked=masked)


class TestLossProjection:
    def test_zero_at_exact_targets(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        params = random_params(rng, model, rot_scale=0.3)
        cam = simple_camera()
        joints = joint_positions(model, params)
        joint_ids = np.arange(model.num_joints)
        cam_pts = cam.transform(joints)
        targets = np.stack([cam.fx * cam_pts[:, 0] / cam_pts[:, 2] + cam.cx,
                            cam.fy * cam_pts[:, 1] / cam_pts[:, 2] + cam.cy], axis=1)
        value, grad = loss_projection(model, params, cam, targets, joint_ids)
        assert value < 1e-20
        assert np.abs(grad).max() < 1e-8

    def test_uniform_offset_is_25_px2(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        params = PoseParams.identity(model.num_joints)
        cam = simple_camera()
        joints = joint_positions(model, params)
        joint_ids = np.arange(model.num_joints)
        cam_pts = cam.transform(joints)
        targets = np.stack([cam.fx * cam_pts[:, 0] / cam_pts[:, 2] + cam.cx,
                            cam.fy * cam_pts[:, 1] / cam_pts[:, 2] + cam.cy], axis=1)
        value = loss_projection(model, params, cam, targets + [3.0, 4.0],
                                joint_ids, with_jacobian=False)
        assert np.isclose(value, 25.0)

    def test_random_matches_per_joint_oracle(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        params = random_params(rng, model, rot_scale=0.2)
        cam = simple_camera()
        joint_ids = np.array([0, 2, 3])
        targets = rng.normal(150, 30, (3, 2))
        value = loss_projection(model, params, cam, targets, joint_ids,
                                with_jacobian=False)
        joints = joint_positions(model, params)
        expected = 0.0
        for row, j in enumerate(joint_ids):
            c = cam.rotation @ joints[j] + cam.translation
            uv = np.array([cam.fx * c[0] / c[2] + cam.cx,
                           cam.fy * c[1] / c[2] + cam.cy])
            expected += ((uv - targets[row]) ** 2).sum()
        assert np.isclose(value, expected / 3.0)

    def test_behind_camera_masked_with_warning(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        params = PoseParams.identity(model.num_joints)
        params.translation = np.array([0.0, 0.0, 10.0])  # beyond the camera
        cam = simple_camera()
        with pytest.warns(UserWarning, match="behind camera"):
            value = loss_projection(model, params, cam,
                                    np.zeros((model.num_joints, 2)),
                                    np.arange(model.num_joints),
                                    with_jacobian=False)
        assert value == 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        params = random_params(rng, model, rot_scale=0.3)
        cam = simple_camera()
        joint_ids = np.arange(model.num_joints)
        targets = rng.normal(150, 40, (model.num_joints, 2))
        _, grad = loss_projection(model, params, cam, targets, joint_ids)
        x0 = params.to_vector()
        num = fd_gradient(
            lambda x: loss_projection(model, PoseParams.from_vector(
                x, model.num_joints), cam, targets, joint_ids,
                with_jacobian=False), x0)
        assert rel_error(grad, num) < 1e-5

    def test_too_many_keypoints(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n_joints=3)
        with pytest.raises(ParameterError):
            loss_projection(model, PoseParams.identity(3), simple_camera(),
                            np.zeros((4, 2)), np.array([0, 1, 2, 2]))


class TestLossRegularizer:
    def test_zero_at_init_with_zero_shape(self):
        rng = np.random.default_rng(6)
        init = PoseParams(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, 3), np.zeros(3))
        value = loss_regularizer(init, init, with_jacobian=False)
        assert value == 0.0

    def test_single_component_offset(self):
        init = PoseParams.identity(4)
        params = init.copy()
        params.joint_rotations[2, 1] = 0.1
        value = loss_regularizer(params, init, lambda_pose=1.0,
                                 with_jacobian=False)
        assert np.isclose(value, 0.01)

    def test_random_matches_quadratic_oracle(self):
        rng = np.random.default_rng(7)
        init = PoseParams(rng.normal(0, 1, (5, 3)), np.zeros(3), np.zeros(3))
        params = PoseParams(rng.normal(0, 1, (5, 3)), rng.normal(0, 1, 3),
                            rng.normal(0, 0.2, 3))
        lp, ls = 0.7, 1.3
        value = loss_regularizer(params, init, lp, ls, with_jacobian=False)
        expected = (lp * ((params.joint_rotations - init.joint_rotations) ** 2).sum()
                    + ls * (params.shape ** 2).sum())
        assert np.isclose(value, expected)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        init = PoseParams(rng.normal(0, 1, (4, 3)), np.zeros(3), np.zeros(3))
        params = PoseParams(rng.normal(0, 1, (4, 3)), rng.normal(0, 1, 3),
                            rng.normal(0, 0.2, 3))
        _, grad = loss_regularizer(params, init, 0.9, 2.0)
        num = fd_gradient(
            lambda x: loss_regularizer(PoseParams.from_vector(x, 4), init,
                                       0.9, 2.0, with_jacobian=False),
            params.to_vector())
        assert rel_error(grad, num) < 1e-7


class TestLossCollision:
    def test_separated_spheres_zero(self):
        centers = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        rmap = RegionMap(2, np.array([0, 1]))
        proxies = CollisionProxySet(np.array([0.1, 0.1]), np.zeros((2, 3)), set())
        value, grad = loss_collision(centers, rmap, proxies)
        assert value == 0.0 and np.all(grad == 0.0)

    def test_penetration_depth_squared(self):
        centers = np.array([[0.0, 0, 0], [0.08, 0, 0]])
        rmap = RegionMap(2, np.array([0, 1]))
        proxies = CollisionProxySet(np.array([0.05, 0.05]), np.zeros((2, 3)), set())
        value, _ = loss_collision(centers, rmap, proxies)
        assert np.isclose(value, 4e-4)

    def test_excluded_pair_ignored(self):
        centers = np.array([[0.0, 0, 0], [0.08, 0, 0]])
        rmap = RegionMap(2, np.array([0, 1]))
        proxies = CollisionProxySet(np.array([0.05, 0.05]), np.zeros((2, 3)),
                                    {(0, 1)})
        value, _ = loss_collision(centers, rmap, proxies)
        assert value == 0.0

    def test_contact_pair_in_signature_ignored(self):
        centers = np.array([[0.0, 0, 0], [0.08, 0, 0]])
        rmap = RegionMap(2, np.array([0, 1]))
        proxies = CollisionProxySet(np.array([0.05, 0.05]), np.zeros((2, 3)), set())
        value, _ = loss_collision(centers, rmap, proxies,
                                  sig(2, contact=[(0, 1)]))
        assert value == 0.0

    def test_random_cluster_matches_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        n_regions, n_facets = 6, 24
        f2r = np.repeat(np.arange(n_regions), 4)
        centers = rng.normal(0, 0.08, (n_facets, 3))
        rmap = RegionMap(n_regions, f2r)
        radii = rng.uniform(0.02, 0.1, n_regions)
        excluded = {(0, 1), (2, 4)}
        proxies = CollisionProxySet(radii, np.zeros((n_regions, 3)), excluded)
        value, _ = loss_collision(centers, rmap, proxies)
        expected = 0.0
        cents = np.array([centers[f2r == r].mean(axis=0) for r in range(n_regions)])
        for a in range(n_regions):
            for b in range(a + 1, n_regions):
                if (a, b) in excluded:
                    continue
                d = np.linalg.norm(cents[a] - cents[b])
                pen = radii[a] + radii[b] - d
                if pen > 0:
                    expected += pen ** 2
        assert np.isclose(value, expected)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        f2r = np.repeat(np.arange(4), 3)
        centers = rng.normal(0, 0.05, (12, 3))
        rmap = RegionMap(4, f2r)
        proxies = CollisionProxySet(rng.uniform(0.03, 0.08, 4),
                                    np.zeros((4, 3)), set())
        value, grad = loss_collision(centers, rmap, proxies)
        assert value > 0  # dense cluster collides
        num = fd_gradient(lambda x: loss_collision(x, rmap, proxies)[0],
                          centers, step=1e-7)
        assert rel_error(grad, num) < 1e-4

    def test_fit_excludes_rest_penetrations(self):
        rng = np.random.default_rng(11)
        f2r = np.repeat(np.arange(3), 4)
        centers = rng.normal(0, 0.02, (12, 3))  # everything overlaps at rest
        rmap = RegionMap(3, f2r)
        proxies = fit_collision_proxies(centers, rmap)
        value, _ = loss_collision(centers, rmap, proxies)
        assert value == 0.0


def _toy_problem(rng, contact_weights=True):
    model = random_model(rng, n_joints=4, n_verts=24)
    params = random_params(rng, model, rot_scale=0.2, shape_scale=0.02)
    cam = simple_camera()
    joints = joint_positions(model, params)
    joint_ids = np.arange(model.num_joints)
    cam_pts = cam.transform(joints)
    targets = np.stack([cam.fx * cam_pts[:, 0] / cam_pts[:, 2] + cam.cx,
                        cam.fy * cam_pts[:, 1] / cam_pts[:, 2] + cam.cy], axis=1)
    rmap = RegionMap(4, np.arange(len(model.faces)) % 4)
    weights = ObjectiveWeights() if contact_weights else \
        ObjectiveWeights(lambda_col=0.0, lambda_d=0.0, lambda_n=0.0)
    return ReconstructionProblem(
        model=model, region_map=rmap, camera=cam, keypoints=targets,
        keypoint_joints=joint_ids, signature=sig(4, contact=[(0, 2)]),
        initial_params=params, weights=weights,
        settings=OptimizerSettings(iterations=25, step_size=0.5))


def _hand_chin_points():
    """The seed-7 hand-chin fit at 75 regions, and its start point with
    three random moves of it; the moves make the collision term active."""
    bundle = generate_scenario("hand-chin", seed=7)
    model = bundle.body.model
    problem = ReconstructionProblem(
        model=model, region_map=bundle.body.region_map, camera=bundle.camera,
        keypoints=bundle.keypoints, keypoint_joints=bundle.keypoint_joints,
        signature=bundle.signature, initial_params=bundle.initial_params)
    rng = np.random.default_rng(23)
    x0 = bundle.initial_params.to_vector()
    points = [bundle.initial_params] + [
        PoseParams.from_vector(x0 + rng.normal(0.0, 0.3, x0.shape), model.num_joints)
        for _ in range(3)]
    return problem, points


def _recording(name, fn, calls):
    def recorded(*args, **kwargs):
        calls.append((name, kwargs))
        return fn(*args, **kwargs)
    return recorded


@pytest.mark.filterwarnings("ignore:.*behind camera")
class TestLineSearchComputesNoGradient:
    """evaluate_breakdown, which the line search runs at every trial step,
    computes values only, and they are the full calls' values to the bit."""

    def test_breakdown_pulls_nothing_back_and_asks_no_jacobian(self, monkeypatch):
        problem, points = _hand_chin_points()
        calls = []
        for name in ("pose_mesh_vjp", "facet_normal_vjp", "loss_distance_frozen",
                     "loss_collision", "loss_normal", "loss_regularizer"):
            monkeypatch.setattr(reconstruct, name,
                                _recording(name, getattr(reconstruct, name), calls))
        for params in points:
            calls.clear()
            _, matches = evaluate_breakdown(problem, params)
            assert matches.entries
            assert sorted(name for name, _ in calls) == [
                "loss_collision", "loss_normal", "loss_regularizer"]
            assert all(kwargs.get("with_jacobian") is False for _, kwargs in calls)

    def test_value_only_terms_equal_the_full_calls_to_the_bit(self):
        problem, points = _hand_chin_points()
        w = problem.weights
        active = 0
        for params in points:
            geom = facet_geometry(pose_mesh(problem.model, params), problem.model.faces)
            _, matches = evaluate_breakdown(problem, params)
            collision = (geom.centers, problem.region_map, problem.proxies,
                         problem.signature)
            regularizer = (params, problem.initial_params, w.lambda_pose, w.lambda_shape)
            for loss, args in ((loss_collision, collision),
                               (loss_normal, (geom.normals, matches)),
                               (loss_regularizer, regularizer)):
                value = loss(*args, with_jacobian=False)
                assert type(value) is float
                assert value.hex() == loss(*args, with_jacobian=True)[0].hex()
            active += loss_collision(*collision, with_jacobian=False) > 0.0
        assert active

    def test_gradient_with_given_matches_does_not_match_again(self, monkeypatch):
        problem, points = _hand_chin_points()
        _, matches = evaluate_breakdown(problem, points[1])
        calls = []
        monkeypatch.setattr(reconstruct, "loss_distance",
                            _recording("loss_distance", reconstruct.loss_distance, calls))
        evaluate_gradient(problem, points[1], matches)
        assert calls == []
        evaluate_gradient(problem, points[1])
        assert [name for name, _ in calls] == ["loss_distance"]


@pytest.fixture(scope="module")
def hand_chin_bundle():
    return generate_scenario("hand-chin", seed=7)


@pytest.mark.filterwarnings("ignore:.*behind camera")
@pytest.mark.parametrize("mode, k", [("subset", 2), ("subset", 3), ("center", 2)])
def test_fit_under_a_selection_mode_matches_only_selected_facets(hand_chin_bundle, mode, k):
    bundle = hand_chin_bundle
    model, rmap = bundle.body.model, bundle.body.region_map
    problem = ReconstructionProblem(
        model=model, region_map=rmap, camera=bundle.camera,
        keypoints=bundle.keypoints, keypoint_joints=bundle.keypoint_joints,
        signature=bundle.signature, initial_params=bundle.initial_params,
        settings=OptimizerSettings(iterations=5), selection_mode=mode, selection_k=k)
    final, trace = optimize(problem)
    totals = np.array([row.total for row in trace])
    assert len(trace) == 6  # five accepted steps
    assert np.isfinite([[row.l_s, row.l_psr, row.l_col, row.l_d, row.l_n, row.total]
                        for row in trace]).all()
    assert (np.diff(totals) <= 0.0).all()
    for params in (bundle.initial_params, final):
        centers = facet_geometry(pose_mesh(model, params), model.faces).centers
        _, matches = reconstruct.evaluate_breakdown(problem, params)
        assert sorted(matches.entries) == bundle.signature.contact_pairs()
        for pair, pm in matches.entries.items():
            selected = [region_facets(rmap, r, mode=mode, k=k, centers=centers)
                        for r in pair]
            assert len(pm.directed) == len(selected[0]) + len(selected[1])
            for column, ids in zip(pm.directed.T, selected):
                assert np.isin(column, ids).all()


class TestOptimize:
    def test_fixed_point_when_targets_match_and_contact_off(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, n_joints=4, n_verts=24)
        init = random_params(rng, model, rot_scale=0.2, shape_scale=0.0)
        init.shape = np.zeros(3)
        cam = simple_camera()
        joints = joint_positions(model, init)
        joint_ids = np.arange(model.num_joints)
        cam_pts = cam.transform(joints)
        targets = np.stack([cam.fx * cam_pts[:, 0] / cam_pts[:, 2] + cam.cx,
                            cam.fy * cam_pts[:, 1] / cam_pts[:, 2] + cam.cy],
                           axis=1)
        rmap = RegionMap(4, np.arange(len(model.faces)) % 4)
        problem = ReconstructionProblem(
            model=model, region_map=rmap, camera=cam, keypoints=targets,
            keypoint_joints=joint_ids, signature=sig(4),
            initial_params=init,
            weights=ObjectiveWeights(lambda_col=0.0, lambda_d=0.0, lambda_n=0.0),
            settings=OptimizerSettings(iterations=10, step_size=0.5))
        final, trace = optimize(problem)
        assert np.allclose(final.to_vector(), init.to_vector())
        assert len(trace) == 1  # zero gradient at the start

    def test_trace_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(13)
        problem = _toy_problem(rng)
        problem.keypoints = problem.keypoints + rng.normal(0, 4, problem.keypoints.shape)
        _, trace = optimize(problem)
        totals = [t.total for t in trace]
        assert len(totals) > 1
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_descent_reduces_keypoint_loss(self):
        rng = np.random.default_rng(14)
        problem = _toy_problem(rng, contact_weights=False)
        problem.keypoints = problem.keypoints + 10.0
        _, trace = optimize(problem)
        assert trace[-1].l_s < trace[0].l_s

    def test_per_term_gradient_matches_fd(self):
        # full objective gradient against finite differences of the
        # fresh-match total is checked in the acceptance suite per term;
        # here: the assembled gradient with frozen matches
        from contactfit.reconstruct import evaluate_gradient
        rng = np.random.default_rng(15)
        problem = _toy_problem(rng)
        problem.keypoints = problem.keypoints + 3.0
        params = problem.initial_params
        grad = evaluate_gradient(problem, params)

        from contactfit.contact_geometry import loss_distance, loss_distance_frozen, loss_normal
        from contactfit.body import facet_geometry as fg

        geom0 = fg(pose_mesh(problem.model, params), problem.model.faces)
        _, matches = loss_distance(geom0.centers, problem.signature,
                                   problem.region_map)

        def frozen_total(x):
            p = PoseParams.from_vector(x, problem.model.num_joints)
            verts = pose_mesh(problem.model, p)
            geom = fg(verts, problem.model.faces)
            w = problem.weights
            l_s = loss_projection(problem.model, p, problem.camera,
                                  problem.keypoints, problem.keypoint_joints,
                                  with_jacobian=False)
            l_psr = loss_regularizer(p, problem.initial_params, w.lambda_pose,
                                     w.lambda_shape, with_jacobian=False)
            l_col, _ = loss_collision(geom.centers, problem.region_map,
                                      problem.proxies, problem.signature)
            l_d, _ = loss_distance_frozen(geom.centers, matches)
            l_n, _ = loss_normal(geom.normals, matches)
            return (w.lambda_s * l_s + w.lambda_psr * l_psr + w.lambda_col * l_col
                    + w.lambda_d * l_d + w.lambda_n * l_n)

        num = fd_gradient(frozen_total, params.to_vector(), step=1e-6)
        assert rel_error(grad, num) < 1e-3

    def test_frozen_total_fd_agrees(self):
        # central differences of _frozen's total, the matches frozen at params
        rng = np.random.default_rng(17)
        problem = _toy_problem(rng)
        problem.keypoints = problem.keypoints + 2.0
        params = problem.initial_params
        grad = reconstruct.evaluate_gradient(problem, params)
        matches = reconstruct._match(problem, params)[1]

        def frozen_total(x):
            p = PoseParams.from_vector(x, problem.model.num_joints)
            return reconstruct._frozen(problem, p, matches, False)[0].total

        num = fd_gradient(frozen_total, params.to_vector(), step=1e-6)
        assert rel_error(grad, num) < 1e-3

    def test_arm_raise_scenario_contact_closes_and_control_stays(self):
        # keypoint targets are the *initial* projection, so the contact
        # term is the only force acting on the arm: with it the hand
        # reaches the chin; without it the run is a fixed point and the
        # contact distance stays within 20% of its initial value
        from contactfit.body import project
        from contactfit.contact_geometry import contact_distance_error
        from contactfit.synthetic import generate_scenario

        bundle = generate_scenario("hand-chin", seed=7)
        model = bundle.body.model
        init_joints = joint_positions(model, bundle.initial_params)
        targets = project(bundle.camera, init_joints[bundle.keypoint_joints])
        geom_init = facet_geometry(pose_mesh(model, bundle.initial_params),
                                   model.faces)
        c_init = contact_distance_error(geom_init.centers, bundle.signature,
                                        bundle.body.region_map)
        assert c_init > 300.0  # hand starts far from the chin

        results = {}
        for with_contact in (True, False):
            weights = ObjectiveWeights(
                lambda_s=0.02, lambda_psr=1e-2, lambda_col=1.0,
                lambda_d=1.0 if with_contact else 0.0,
                lambda_n=0.02 if with_contact else 0.0,
                lambda_pose=0.1, lambda_shape=1e5)
            problem = ReconstructionProblem(
                model=model, region_map=bundle.body.region_map,
                camera=bundle.camera, keypoints=targets,
                keypoint_joints=bundle.keypoint_joints,
                signature=bundle.signature,
                initial_params=bundle.initial_params, weights=weights,
                settings=OptimizerSettings(iterations=450, step_size=1.0))
            final, _ = optimize(problem)
            geom = facet_geometry(pose_mesh(model, final), model.faces)
            results[with_contact] = contact_distance_error(
                geom.centers, bundle.signature, bundle.body.region_map)

        assert results[True] < 10.0
        assert abs(results[False] - c_init) <= 0.2 * c_init

    def test_gradient_with_given_matches_equals_fresh(self):
        rng = np.random.default_rng(18)
        problem = _toy_problem(rng)
        problem.keypoints = problem.keypoints + 2.0
        params = problem.initial_params
        _, matches = evaluate_breakdown(problem, params)
        assert matches.entries
        assert np.array_equal(evaluate_gradient(problem, params, matches),
                              evaluate_gradient(problem, params))

    def test_degenerate_facet_on_a_trial_step_halves_it(self, monkeypatch):
        rng = np.random.default_rng(19)
        problem = _toy_problem(rng)
        problem.keypoints = problem.keypoints + 3.0
        init_verts = pose_mesh(problem.model, problem.initial_params)
        real = reconstruct.facet_geometry
        trials = []

        def flaky(verts, faces):
            # fail once, on the first trial step away from the initial
            # point, whether or not that point's geometry is reused
            if not np.array_equal(verts, init_verts):
                trials.append(1)
                if len(trials) == 1:
                    raise GeometryError("degenerate faces (zero normal): [0]")
            return real(verts, faces)

        monkeypatch.setattr(reconstruct, "facet_geometry", flaky)
        _, trace = optimize(problem)
        assert len(trials) > 1
        assert len(trace) > 2
        totals = [b.total for b in trace]
        assert all(np.isfinite(totals))
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_nonfinite_params_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            PoseParams(np.full((3, 3), np.nan), np.zeros(3), np.zeros(3))

    def test_nonfinite_loss_raises_with_term_name(self):
        from contactfit.errors import OptimizationError
        rng = np.random.default_rng(16)
        problem = _toy_problem(rng)
        problem.keypoints = problem.keypoints.copy()
        problem.keypoints[0, 0] = np.inf  # blows up l_s
        with pytest.raises(OptimizationError, match="l_s"):
            evaluate_breakdown(problem, problem.initial_params)

    def test_negative_weights_rejected(self):
        with pytest.raises(ParameterError):
            ObjectiveWeights(lambda_d=-1.0)

    @pytest.mark.parametrize("mode, k", [("nearest", 2), ("subset", 0)])
    def test_invalid_selection_rejected_at_construction(self, mode, k):
        rng = np.random.default_rng(20)
        problem = _toy_problem(rng)
        with pytest.raises(ParameterError):
            ReconstructionProblem(
                model=problem.model, region_map=problem.region_map,
                camera=problem.camera, keypoints=problem.keypoints,
                keypoint_joints=problem.keypoint_joints,
                signature=problem.signature, initial_params=problem.initial_params,
                selection_mode=mode, selection_k=k)

    @pytest.mark.parametrize("joint, rows, shift, message", [
        (-1, 4, 0.0, r"^keypoint_joints must lie in \[0, 4\)$"),
        (99, 4, 0.0, r"^keypoint_joints must lie in \[0, 4\)$"),
        (0, 3, 0.0, r"^keypoint_joints must hold one joint id per keypoint$"),
        (0, 4, np.nan, r"^keypoints must be finite$")])
    def test_bad_keypoints_rejected_at_construction(self, joint, rows, shift, message):
        problem = _toy_problem(np.random.default_rng(21))
        joints = problem.keypoint_joints.copy()
        joints[0] = joint
        keypoints = problem.keypoints[:rows].copy()
        keypoints[0, 0] += shift
        with pytest.raises(ParameterError, match=message):
            ReconstructionProblem(
                model=problem.model, region_map=problem.region_map,
                camera=problem.camera, keypoints=keypoints, keypoint_joints=joints,
                signature=problem.signature, initial_params=problem.initial_params)

    def test_invalid_settings_rejected(self):
        with pytest.raises(ParameterError):
            OptimizerSettings(step_size=0.0)


_SETTINGS = {"ObjectiveWeights": ObjectiveWeights, "OptimizerSettings": OptimizerSettings,
             "LossWeights": LossWeights, "FilterConfig": FilterConfig}


@pytest.mark.parametrize("cls, field, value, kind", [
    ("ObjectiveWeights", "lambda_d", np.nan, "number"),
    ("ObjectiveWeights", "lambda_shape", np.inf, "number"),
    ("ObjectiveWeights", "lambda_n", True, "number"),
    ("OptimizerSettings", "iterations", 2.5, "integer"),
    ("OptimizerSettings", "max_backtracks", True, "integer"),
    ("OptimizerSettings", "max_backtracks", np.float64(4.5), "integer"),
    ("OptimizerSettings", "step_size", np.inf, "number"),
    ("OptimizerSettings", "armijo_c", np.nan, "number"),
    ("OptimizerSettings", "armijo_c", "1e-4", "number"),
    ("LossWeights", "w_k", -np.inf, "number"),
    ("LossWeights", "w_sep", np.nan, "number"),
    ("FilterConfig", "tau_dist", np.inf, "number"),
    ("FilterConfig", "tau_dist", np.nan, "number"),
])
def test_settings_reject_a_non_finite_or_lossy_value(cls, field, value, kind):
    with pytest.raises(ParameterError, match=rf"^{field} must be a finite {kind}, got "):
        _SETTINGS[cls](**{field: value})


def test_settings_hold_numbers_of_their_field_types():
    settings = OptimizerSettings(iterations=np.int64(3), step_size=np.float64(0.5),
                                 max_backtracks=4.0)
    assert (settings.iterations, settings.step_size, settings.max_backtracks) == (3, 0.5, 4)
    assert type(settings.iterations) is int and type(settings.max_backtracks) is int
    assert type(settings.step_size) is float
    assert type(ObjectiveWeights(lambda_d=np.int64(2)).lambda_d) is float

"""The vectorised objective kernels against the loops they replaced.

Each oracle below is the straightforward loop (per-joint LBS, np.cross,
np.add.at scatters, the dense (n, n) collision block, Python loops over
the matches). The kernels add the same terms in the same order, so every
comparison is np.array_equal, not a tolerance.
"""

import dataclasses

import numpy as np
import pytest

from contactfit import reconstruct
from contactfit.body import (BodyModel, PoseParams, _forward_kinematics,
                             facet_geometry, facet_normal_vjp, pose_mesh)
from contactfit.contact import ContactSignature
from contactfit.errors import GeometryError
from contactfit.contact_geometry import (MatchSet, PairMatches, loss_distance,
                                         loss_distance_frozen, loss_normal)
from contactfit.reconstruct import (CollisionProxySet, ObjectiveWeights,
                                    OptimizerSettings, ReconstructionProblem,
                                    evaluate_breakdown, evaluate_gradient,
                                    loss_collision, optimize)
from contactfit.regions import RegionMap
from contactfit.synthetic import generate_scenario

from conftest import random_model, random_params


# -- oracles --------------------------------------------------------------

def pose_mesh_loop(model, params):
    rest, _, G, p = _forward_kinematics(model, params)
    v_scaled = model.template_vertices * (1.0 + params.shape)
    out = np.zeros_like(v_scaled)
    for j in range(model.num_joints):
        idx = np.flatnonzero(model.skinning_weights[:, j])
        if len(idx):
            w = model.skinning_weights[idx, j]
            out[idx] += w[:, None] * ((v_scaled[idx] - rest[j]) @ G[j].T + p[j])
    return out


def facet_geometry_cross(verts, faces):
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cross = np.cross(b - a, c - a)
    return (a + b + c) / 3.0, cross / np.linalg.norm(cross, axis=1)[:, None]


def facet_normal_vjp_add_at(verts, faces, grad_normals):
    out = np.zeros_like(verts)
    face_ids = np.flatnonzero(np.any(grad_normals != 0.0, axis=1))
    tri = faces[face_ids]
    a, b, c = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]
    u, v = b - a, c - a
    m = np.cross(u, v)
    mn = np.linalg.norm(m, axis=1)
    n = m / mn[:, None]
    g = grad_normals[face_ids]
    g_m = (g - n * (n * g).sum(axis=1, keepdims=True)) / mn[:, None]
    g_u, g_v = np.cross(v, g_m), np.cross(g_m, u)
    np.add.at(out, tri[:, 0], -g_u - g_v)
    np.add.at(out, tri[:, 1], g_u)
    np.add.at(out, tri[:, 2], g_v)
    return out


def scatter_centers_add_at(grad_centers, faces, num_vertices):
    out = np.zeros((num_vertices, 3))
    for c in range(3):
        np.add.at(out, faces[:, c], grad_centers / 3.0)
    return out


def loss_collision_dense(centers, region_map, proxies, sig=None):
    n = region_map.granularity
    f2r = region_map.facet_to_region
    counts = np.bincount(f2r, minlength=n).astype(float)
    cents = np.zeros((n, 3))
    np.add.at(cents, f2r, centers)
    cents = cents / counts[:, None]
    skip = np.zeros((n, n), dtype=bool)
    pairs = list(proxies.excluded) + (sig.contact_pairs() if sig is not None else [])
    for a, b in pairs:
        skip[a, b] = skip[b, a] = True
    diff = cents[:, None, :] - cents[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    pen = proxies.radii[:, None] + proxies.radii[None, :] - d
    active = (~skip) & (pen > 0.0) & (d > 1e-12)
    active &= np.triu(np.ones((n, n), dtype=bool), k=1)
    coef = np.zeros((n, n))
    coef[active] = -2.0 * pen[active] / d[active]
    coef = coef + coef.T
    grad_cents = (coef[:, :, None] * diff).sum(axis=1)
    partners = (coef != 0.0).sum(axis=1)
    value = float((pen[active] ** 2).sum())
    return value, grad_cents[f2r] / counts[f2r][:, None], partners


def loss_distance_loop(centers, matches):
    grad = np.zeros_like(centers)
    total = 0.0
    for key in sorted(matches.entries):
        for f1, f2 in matches.entries[key].directed:
            diff = centers[f1] - centers[f2]
            d = float(np.linalg.norm(diff))
            total += d
            if d > 1e-12:
                grad[f1] += diff / d
                grad[f2] -= diff / d
    return total, grad


def loss_normal_loop(normals, matches):
    total = 0.0
    grad = np.zeros_like(normals)
    for key in sorted(matches.entries):
        for f1, f2 in matches.entries[key].pairs:
            total += float(normals[f1] @ normals[f2])
            grad[f1] += normals[f2]
            grad[f2] += normals[f1]
    return total, grad


# -- helpers --------------------------------------------------------------

def _random_pose(rng, body, rot_scale=0.3):
    return PoseParams(rng.normal(0.0, rot_scale, (body.model.num_joints, 3)),
                      rng.normal(0.0, 0.1, 3), rng.normal(0.0, 0.05, 3))


def _sparse_normal_grad(rng, num_faces):
    g = rng.normal(size=(num_faces, 3))
    g[rng.random(num_faces) < 0.8] = 0.0
    return g


def _contact_pairs_sharing_a_region(body):
    """Two contact pairs with one region in common: (hand, a), (hand, b)."""
    hand = body.part_regions["l_hand"][0]
    a, b = [r for r in range(body.region_map.granularity) if r != hand][:2]
    return hand, [tuple(sorted((hand, a))), tuple(sorted((hand, b)))]


# -- body kernels -----------------------------------------------------------

class TestBodyKernels:
    def test_pose_mesh_equals_per_joint_loop(self, synthetic_body):
        rng = np.random.default_rng(40)
        model = synthetic_body.model
        for _ in range(20):
            params = _random_pose(rng, synthetic_body)
            assert np.array_equal(pose_mesh(model, params), pose_mesh_loop(model, params))

    def test_pose_mesh_equals_loop_on_random_models(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            model = random_model(rng, n_joints=int(rng.integers(1, 7)),
                                 n_verts=int(rng.integers(6, 30)))
            params = random_params(rng, model)
            assert np.array_equal(pose_mesh(model, params), pose_mesh_loop(model, params))

    def test_facet_geometry_equals_np_cross(self, synthetic_body):
        rng = np.random.default_rng(42)
        model = synthetic_body.model
        for _ in range(20):
            verts = pose_mesh(model, _random_pose(rng, synthetic_body))
            geom = facet_geometry(verts, model.faces)
            centers, normals = facet_geometry_cross(verts, model.faces)
            assert np.array_equal(geom.centers, centers)
            assert np.array_equal(geom.normals, normals)
            assert geom.centers.flags.c_contiguous and geom.normals.flags.c_contiguous

    def test_facet_normal_vjp_equals_add_at(self, synthetic_body):
        rng = np.random.default_rng(43)
        model = synthetic_body.model
        for _ in range(20):
            verts = pose_mesh(model, _random_pose(rng, synthetic_body))
            g = _sparse_normal_grad(rng, model.num_faces)
            assert np.array_equal(facet_normal_vjp(verts, model.faces, g),
                                  facet_normal_vjp_add_at(verts, model.faces, g))

    def test_center_scatter_equals_add_at(self, synthetic_body):
        rng = np.random.default_rng(44)
        model = synthetic_body.model
        g = rng.normal(size=(model.num_faces, 3))
        assert np.array_equal(
            reconstruct._scatter_centers_to_vertices(g, model.faces, model.num_vertices),
            scatter_centers_add_at(g, model.faces, model.num_vertices))


# -- collision ------------------------------------------------------------

class TestCollisionKernel:
    def test_equals_dense_block_on_random_poses(self, synthetic_body):
        rng = np.random.default_rng(45)
        body = synthetic_body
        rest = facet_geometry(pose_mesh(body.model, PoseParams.identity(
            body.model.num_joints)), body.model.faces).centers
        proxies = reconstruct.fit_collision_proxies(rest, body.region_map)
        _, contact = _contact_pairs_sharing_a_region(body)
        sig = ContactSignature.from_sets(body.region_map.granularity, contact=contact)
        most_partners = 0
        for scale in np.linspace(0.2, 1.2, 12):
            verts = pose_mesh(body.model, _random_pose(rng, body, rot_scale=scale))
            centers = facet_geometry(verts, body.model.faces).centers
            for s in (None, sig):
                value, grad = loss_collision(centers, body.region_map, proxies, s)
                expected, expected_grad, partners = loss_collision_dense(
                    centers, body.region_map, proxies, s)
                assert value == expected
                assert np.array_equal(grad, expected_grad)
                most_partners = max(most_partners, int(partners.max()))
        assert most_partners >= 3

    def test_region_with_several_partners(self):
        # region 0 overlaps regions 1-4, whose gradient terms it sums in order
        rng = np.random.default_rng(46)
        f2r = np.repeat(np.arange(5), 3)
        centers = rng.normal(0.0, 0.01, (15, 3))
        centers[f2r > 0] += 0.05 * rng.normal(size=(12, 3))
        rmap = RegionMap(5, f2r)
        proxies = CollisionProxySet(np.full(5, 0.06), {(2, 3)})
        value, grad = loss_collision(centers, rmap, proxies)
        expected, expected_grad, partners = loss_collision_dense(centers, rmap, proxies)
        assert partners[0] >= 3
        assert value == expected and value > 0.0
        assert np.array_equal(grad, expected_grad)

    def test_excluded_and_contact_pairs_are_skipped(self):
        # every pair overlaps, so only the skipped pairs are absent
        rng = np.random.default_rng(48)
        f2r = np.repeat(np.arange(4), 3)
        centers = rng.normal(0.0, 0.05, (12, 3))
        rmap = RegionMap(4, f2r)
        proxies = CollisionProxySet(np.ones(4), {(2, 1)})
        for s, partners in ((None, [3, 2, 2, 3]),
                            (ContactSignature.from_sets(4, contact=[(0, 3)]), [2, 2, 2, 2])):
            value, grad = loss_collision(centers, rmap, proxies, s)
            expected, expected_grad, counted = loss_collision_dense(centers, rmap, proxies, s)
            assert value == expected and value > 0.0
            assert np.array_equal(grad, expected_grad)
            assert counted.tolist() == partners


# -- contact terms ------------------------------------------------------------

class TestContactKernels:
    def test_distance_and_normal_equal_loops(self, synthetic_body):
        rng = np.random.default_rng(47)
        body = synthetic_body
        hand, contact = _contact_pairs_sharing_a_region(body)
        sig = ContactSignature.from_sets(body.region_map.granularity, contact=contact)
        for _ in range(10):
            geom = facet_geometry(pose_mesh(body.model, _random_pose(rng, body)),
                                  body.model.faces)
            _, matches = loss_distance(geom.centers, sig, body.region_map)
            hand_facets = [{p[key.index(hand)] for p in e.pairs}
                           for key, e in matches.entries.items()]
            assert hand_facets[0] & hand_facets[1]  # matched in both pairs
            value, grad = loss_distance_frozen(geom.centers, matches)
            expected, expected_grad = loss_distance_loop(geom.centers, matches)
            assert value == expected and np.array_equal(grad, expected_grad)
            value, grad = loss_normal(geom.normals, matches)
            expected, expected_grad = loss_normal_loop(geom.normals, matches)
            assert value == expected and np.array_equal(grad, expected_grad)

    def test_shared_facet_in_hand_written_matches(self):
        rng = np.random.default_rng(48)
        centers = rng.normal(size=(8, 3))
        normals = rng.normal(size=(8, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        matches = MatchSet({
            (0, 1): PairMatches([(0, 4), (1, 4)], [(0, 4), (1, 4), (0, 4)]),
            (0, 2): PairMatches([(0, 6), (3, 6)], [(0, 6), (3, 6), (3, 3)]),
        })
        assert loss_distance_frozen(centers, matches)[0] == loss_distance_loop(centers, matches)[0]
        assert np.array_equal(loss_distance_frozen(centers, matches)[1],
                              loss_distance_loop(centers, matches)[1])
        assert loss_normal(normals, matches)[0] == loss_normal_loop(normals, matches)[0]
        assert np.array_equal(loss_normal(normals, matches)[1],
                              loss_normal_loop(normals, matches)[1])

    def test_empty_matches(self):
        centers = np.ones((3, 3))
        value, grad = loss_distance_frozen(centers, MatchSet())
        assert value == 0.0 and not grad.any()
        value, grad = loss_normal(centers, MatchSet())
        assert value == 0.0 and not grad.any()

    def test_non_unit_normal_still_rejected(self):
        normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        normals[3] *= 2.0
        matches = MatchSet({(0, 1): PairMatches([(0, 3)], [(0, 3)])})
        with pytest.raises(GeometryError, match="facet 3 normal is not unit length"):
            loss_normal(normals, matches)


# -- the accepted point's posed mesh is reused ----------------------------

def _problem(seed, scenario="hand-chin"):
    bundle = generate_scenario(scenario, seed=seed)
    return ReconstructionProblem(
        model=bundle.body.model, region_map=bundle.body.region_map,
        camera=bundle.camera, keypoints=bundle.keypoints,
        keypoint_joints=bundle.keypoint_joints, signature=bundle.signature,
        initial_params=bundle.initial_params,
        weights=ObjectiveWeights(lambda_s=0.05, lambda_n=0.02),
        settings=OptimizerSettings(iterations=6, step_size=1.0))


class TestPosedReuse:
    def test_reruns_interleaved_with_other_work_are_identical(self, synthetic_body):
        first = _problem(3)
        other = _problem(5, "hands-together")
        elsewhere = _random_pose(np.random.default_rng(49), synthetic_body)

        params_a, trace_a = optimize(first)
        optimize(other)
        evaluate_gradient(first, elsewhere)
        params_b, trace_b = optimize(first)
        assert len(trace_a) > 2
        assert [vars(b) for b in trace_a] == [vars(b) for b in trace_b]
        assert np.array_equal(params_a.to_vector(), params_b.to_vector())

    def test_gradient_after_breakdown_equals_a_cold_one(self, synthetic_body):
        problem = _problem(3)
        params = _random_pose(np.random.default_rng(50), synthetic_body, rot_scale=0.1)
        _, matches = evaluate_breakdown(problem, params)
        warm = evaluate_gradient(problem, params, matches)
        evaluate_breakdown(problem, problem.initial_params)  # evicts params
        cold = evaluate_gradient(problem, params, matches)
        assert np.array_equal(warm, cold)

    def test_a_new_model_on_the_problem_is_posed_again(self):
        problem = _problem(3)
        params = problem.initial_params
        before, _ = evaluate_breakdown(problem, params)
        m = problem.model
        problem.model = BodyModel(m.template_vertices * 1.1, m.faces, m.joint_parents,
                                  m.joint_offsets, m.skinning_weights, m.joint_regressor)
        after, _ = evaluate_breakdown(problem, params)
        fresh, _ = evaluate_breakdown(dataclasses.replace(problem), params)
        assert vars(after) == vars(fresh) != vars(before)

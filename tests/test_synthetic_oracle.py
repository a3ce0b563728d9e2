"""The array mesh build of the synthetic body and the collision-proxy fit
against the loops they replaced.

`OracleMesh`, `oracle_add_tube`, `oracle_add_sphere` and
`oracle_add_box` are the mesh code that took one vertex and one face at a
time, gave each vertex a {joint: weight} dict and fixed each face's winding
with its own `np.cross` against an interior point. `oracle_mesh` makes the
primitive calls `build_synthetic_body` made with them, with their per-point
part and weight closures. The array build must give equal vertices, faces
(winding included) and skinning weights, and put the same faces in each
part.

`oracle_fit_collision_proxies` is the double loop over region pairs that
`fit_collision_proxies` replaced with one mask; it must give equal radii
and the same excluded set.
"""

import numpy as np
import pytest

from contactfit.body import facet_geometry, pose_mesh
from contactfit import synthetic
from contactfit.reconstruct import fit_collision_proxies
from contactfit.regions import RegionMap, coarsen_region_map, region_facets
from contactfit.synthetic import (JOINT_INDEX, JOINT_NAMES, SCENARIO_NAMES,
                                  _JOINT_POSITIONS, build_synthetic_body,
                                  generate_scenario)


class OracleMesh:
    def __init__(self):
        self.verts = []
        self.faces = []
        self.raw_faces = []    # as given, before the winding is set
        self.weights = []      # per vertex: {joint: w}
        self.part_faces = {}   # part -> list of face ids

    def add_vertices(self, pts, weight_fn):
        base = len(self.verts)
        for p in pts:
            self.verts.append(np.asarray(p, dtype=float))
            self.weights.append(weight_fn(np.asarray(p, dtype=float)))
        return base

    def add_face(self, a, b, c, part, interior_ref):
        # enforce outward winding against an interior reference point
        self.raw_faces.append((a, b, c))
        pa, pb, pc = self.verts[a], self.verts[b], self.verts[c]
        centroid = (pa + pb + pc) / 3.0
        normal = np.cross(pb - pa, pc - pa)
        if float(normal @ (centroid - interior_ref)) < 0.0:
            b, c = c, b
        fid = len(self.faces)
        self.faces.append((a, b, c))
        self.part_faces.setdefault(part, []).append(fid)
        return fid


def _frame(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    up = np.array([0.0, 1.0, 0.0]) if abs(d[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(up, d)
    u /= np.linalg.norm(u)
    w = np.cross(d, u)
    return d, u, w


def oracle_add_tube(mb, p0, p1, radius_u, radius_w, segments, rings, part_fn,
                    weight_fn, cap0=False, cap1=False):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d, u, w = _frame(p1 - p0)
    length = np.linalg.norm(p1 - p0)
    thetas = 2.0 * np.pi * np.arange(segments) / segments
    ring_pts = []
    for r in range(rings + 1):
        t = r / rings
        c = p0 + t * (p1 - p0)
        ring_pts.append([c + radius_u * np.cos(th) * u + radius_w * np.sin(th) * w
                         for th in thetas])
    flat = [p for ring in ring_pts for p in ring]
    base = mb.add_vertices(flat, weight_fn)

    def axis_ref(centroid):
        t = float((centroid - p0) @ d)
        t = min(max(t, 1e-4), length - 1e-4)
        return p0 + t * d

    for r in range(rings):
        for i in range(segments):
            a = base + r * segments + i
            b = base + r * segments + (i + 1) % segments
            c = base + (r + 1) * segments + i
            e = base + (r + 1) * segments + (i + 1) % segments
            for tri in ((a, b, c), (b, e, c)):
                centroid = (mb.verts[tri[0]] + mb.verts[tri[1]] + mb.verts[tri[2]]) / 3.0
                mb.add_face(*tri, part_fn(centroid), axis_ref(centroid))
    for cap, ring, point in ((cap0, 0, p0), (cap1, rings, p1)):
        if not cap:
            continue
        center = mb.add_vertices([point], weight_fn)
        inside = point + (d if ring == 0 else -d) * 1e-3
        for i in range(segments):
            a = base + ring * segments + i
            b = base + ring * segments + (i + 1) % segments
            centroid = (mb.verts[a] + mb.verts[b] + point) / 3.0
            mb.add_face(center, a, b, part_fn(centroid), inside)


def oracle_add_sphere(mb, center, radius, n_lon, n_lat, part_fn, weight_fn):
    center = np.asarray(center, dtype=float)
    pts = []
    for j in range(1, n_lat):
        phi = np.pi * j / n_lat
        for i in range(n_lon):
            th = 2.0 * np.pi * i / n_lon
            pts.append(center + radius * np.array([np.sin(phi) * np.cos(th),
                                                   np.cos(phi),
                                                   np.sin(phi) * np.sin(th)]))
    base = mb.add_vertices(pts, weight_fn)
    top = mb.add_vertices([center + radius * np.array([0.0, 1.0, 0.0])], weight_fn)
    bot = mb.add_vertices([center + radius * np.array([0.0, -1.0, 0.0])], weight_fn)

    def tri(a, b, c):
        centroid = (mb.verts[a] + mb.verts[b] + mb.verts[c]) / 3.0
        mb.add_face(a, b, c, part_fn(centroid), center)

    for i in range(n_lon):
        tri(top, base + i, base + (i + 1) % n_lon)
        last = base + (n_lat - 2) * n_lon
        tri(bot, last + i, last + (i + 1) % n_lon)
    for j in range(n_lat - 2):
        for i in range(n_lon):
            a = base + j * n_lon + i
            b = base + j * n_lon + (i + 1) % n_lon
            c = a + n_lon
            e = b + n_lon
            tri(a, b, c)
            tri(b, e, c)


def oracle_add_box(mb, center, half, subdiv, part_fn, weight_fn):
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    nx, ny, nz = subdiv
    counts = {0: (ny, nz), 1: (nx, nz), 2: (nx, ny)}
    for axis in range(3):
        for sign in (-1.0, 1.0):
            a1, a2 = [i for i in range(3) if i != axis]
            n1, n2 = counts[axis]
            pts = []
            for i in range(n1 + 1):
                for j in range(n2 + 1):
                    p = center.copy()
                    p[axis] += sign * half[axis]
                    p[a1] += (-1.0 + 2.0 * i / n1) * half[a1]
                    p[a2] += (-1.0 + 2.0 * j / n2) * half[a2]
                    pts.append(p)
            base = mb.add_vertices(pts, weight_fn)
            for i in range(n1):
                for j in range(n2):
                    a = base + i * (n2 + 1) + j
                    b = a + 1
                    c = a + (n2 + 1)
                    e = c + 1
                    for t in ((a, b, c), (b, e, c)):
                        centroid = (mb.verts[t[0]] + mb.verts[t[1]] + mb.verts[t[2]]) / 3.0
                        mb.add_face(*t, part_fn(centroid), center)


def oracle_mesh():
    """(vertices, faces, skinning weights, {part: face ids}, faces before
    the winding was set) of the body, built one face at a time."""
    J = JOINT_INDEX
    pos = {k: np.asarray(v, dtype=float) for k, v in _JOINT_POSITIONS.items()}
    mb = OracleMesh()

    def rigid(joint):
        return lambda p: {J[joint]: 1.0}

    def limb_weights(joint, next_joint, p0, p1, blend_from=0.85):
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        axis = p1 - p0
        L2 = float(axis @ axis)

        def fn(p):
            t = float((p - p0) @ axis) / L2
            if next_joint is not None and t > blend_from:
                return {J[joint]: 0.5, J[next_joint]: 0.5}
            return {J[joint]: 1.0}
        return fn

    def torso_part(c):
        band = "pelvis" if c[1] < 0.08 else ("abdomen" if c[1] < 0.28 else "chest")
        return f"{band}_{'front' if c[2] > 0 else 'back'}"

    def torso_weights(p):
        if p[1] < 0.08:
            return {J["pelvis"]: 1.0}
        if p[1] < 0.28:
            return {J["spine"]: 1.0}
        return {J["chest"]: 1.0}

    oracle_add_tube(mb, (0, -0.12, 0), (0, 0.47, 0), 0.16, 0.10, 12, 6,
                    torso_part, torso_weights, cap0=True, cap1=True)
    oracle_add_sphere(mb, (0, 0.68, 0), 0.11, 10, 8, lambda c: "head", rigid("head"))
    oracle_add_tube(mb, (0, 0.50, 0), (0, 0.62, 0), 0.045, 0.045, 8, 2,
                    lambda c: "neck", rigid("neck"))

    for side in ("l", "r"):
        sh, el, wr = pos[f"{side}_shoulder"], pos[f"{side}_elbow"], pos[f"{side}_wrist"]
        out_dir = np.array([1.0 if side == "l" else -1.0, 0.0, 0.0])
        arm_axis = (el - sh) / np.linalg.norm(el - sh)

        def arm_part(c, sh=sh, axis=arm_axis, side=side):
            t = float((c - sh) @ axis) / 0.30
            return f"{side}_shoulder" if t < 0.2 else f"{side}_upper_arm"

        oracle_add_tube(mb, sh, el, 0.05, 0.05, 8, 5, arm_part,
                        limb_weights(f"{side}_shoulder", f"{side}_elbow", sh, el))
        oracle_add_tube(mb, el, wr, 0.042, 0.042, 8, 4, lambda c, s=side: f"{s}_forearm",
                        limb_weights(f"{side}_elbow", f"{side}_wrist", el, wr))
        hand_center = wr + out_dir * 0.08
        oracle_add_box(mb, hand_center, (0.08, 0.018, 0.04), (4, 1, 2),
                       lambda c, s=side: f"{s}_hand", rigid(f"{side}_wrist"))

        hp, kn, an = pos[f"{side}_hip"], pos[f"{side}_knee"], pos[f"{side}_ankle"]
        oracle_add_tube(mb, hp, kn, 0.075, 0.075, 10, 5, lambda c, s=side: f"{s}_thigh",
                        limb_weights(f"{side}_hip", f"{side}_knee", hp, kn))
        oracle_add_tube(mb, kn, an, 0.055, 0.055, 8, 4, lambda c, s=side: f"{s}_shin",
                        limb_weights(f"{side}_knee", f"{side}_ankle", kn, an))
        foot_center = an + np.array([0.0, -0.03, 0.07])
        oracle_add_box(mb, foot_center, (0.045, 0.03, 0.11), (2, 1, 3),
                       lambda c, s=side: f"{s}_foot", rigid(f"{side}_ankle"))

    template = np.array(mb.verts)
    faces = np.array(mb.faces, dtype=int)
    weights = np.zeros((len(template), len(JOINT_NAMES)))
    for i, wmap in enumerate(mb.weights):
        for j, w in wmap.items():
            weights[i, j] = w
    return template, faces, weights, mb.part_faces, np.array(mb.raw_faces, dtype=int)


def oracle_fit_collision_proxies(centers, region_map, min_radius=5e-3):
    n = region_map.granularity
    centroids = np.empty((n, 3))
    radii = np.empty(n)
    for r in range(n):
        pts = np.asarray(centers)[region_facets(region_map, r)]
        centroids[r] = pts.mean(axis=0)
        radii[r] = max(float(np.linalg.norm(pts - centroids[r], axis=1).max()),
                       min_radius)
    excluded = set()
    for a in range(n):
        for b in range(a + 1, n):
            if np.linalg.norm(centroids[a] - centroids[b]) < radii[a] + radii[b]:
                excluded.add((a, b))
    return radii, excluded


@pytest.fixture(scope="module")
def oracle():
    return oracle_mesh()


def test_mesh_arrays_equal_the_face_by_face_build(oracle):
    template, faces, weights = oracle[:3]
    model = build_synthetic_body().model
    assert np.array_equal(model.template_vertices, template)
    assert model.faces.dtype == faces.dtype
    assert np.array_equal(model.faces, faces)
    assert np.array_equal(model.skinning_weights, weights)


def test_each_part_holds_the_face_by_face_builds_faces(oracle):
    part_faces = oracle[3]
    body = build_synthetic_body()
    assert sorted(part_faces) == sorted(body.part_regions)
    for part, regions in body.part_regions.items():
        mine = np.flatnonzero(np.isin(body.region_map.facet_to_region, regions))
        assert np.array_equal(mine, part_faces[part]), part


def test_faces_before_the_winding_pass_are_the_loops_triangles(oracle, monkeypatch):
    # the grid and fan order alone, which the winding pass would hide
    given = []
    wind = synthetic._wind_outward

    def record(verts, faces, inside):
        given.append(faces.copy())
        wind(verts, faces, inside)

    monkeypatch.setattr(synthetic, "_wind_outward", record)
    model = build_synthetic_body().model
    raw_faces = oracle[4]
    assert len(given) == 1 and np.array_equal(given[0], raw_faces)
    flipped = (model.faces != raw_faces).any(axis=1)
    assert 0 < flipped.sum() < len(raw_faces)


def _assert_proxies_match(centers, rmap):
    proxies = fit_collision_proxies(centers, rmap)
    radii, excluded = oracle_fit_collision_proxies(centers, rmap)
    assert np.array_equal(proxies.radii, radii)
    assert proxies.excluded == excluded


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("seed", [1, 7, 8, 11])
def test_collision_proxies_equal_the_pair_loop_on_scenarios(seed, name):
    bundle = generate_scenario(name, seed=seed)
    body = bundle.body
    maps = [body.region_map] + [coarsen_region_map(body.region_map,
                                                   body.coarsen_maps[(75, n)])
                                for n in (37, 17, 9)]
    for params in (bundle.initial_params, bundle.gt_params):
        centers = facet_geometry(pose_mesh(body.model, params), body.model.faces).centers
        for rmap in maps:
            _assert_proxies_match(centers, rmap)


@pytest.mark.parametrize("seed", range(12))
def test_collision_proxies_equal_the_pair_loop_on_random_centers(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    f2r = np.concatenate([np.arange(n), rng.integers(n, size=int(rng.integers(0, 200)))])
    centers = rng.normal(0.0, 0.3, (len(f2r), 3))
    _assert_proxies_match(centers, RegionMap(n, rng.permutation(f2r)))

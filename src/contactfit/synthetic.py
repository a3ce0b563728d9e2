"""Deterministic synthetic humanoid, region hierarchy and contact scenarios.

The body is a low-poly humanoid (torso tube, head sphere, limb tubes, box
hands/feet, 19 joints, ~1.2k facets) built entirely from constants, so every
desk-scale experiment is reproducible without external assets. Each
primitive emits its vertices as arrays and its faces as vertex-id grids,
two triangles per cell, and fans for the tube caps and sphere poles; one
array pass then winds every face outward. The default 75-region partition
follows anatomical parts; coarser granularities (37/17/9) are groupings of
the fine regions.

Scenarios pose the body into a self-contact configuration (two-bone IK plus
a small fixed-point refinement on the actual facet gap), derive the ground
truth annotation and camera, and perturb the pose into an optimization
start point.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .body import (BodyModel, Camera, PoseParams, facet_geometry,
                   joint_positions, joint_transforms, pose_mesh, project)
from .contact import ContactSignature, ImageSupport
from .contact_geometry import _interleaved, _row_dots
from .errors import ParameterError
from .regions import CoarsenMap, RegionMap
from .rotations import axis_angle_from_matrix, rodrigues, rotation_between
from .spatial import nearest_neighbors

JOINT_NAMES = [
    "pelvis", "spine", "chest", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_shoulder", "r_elbow", "r_wrist",
    "l_hip", "l_knee", "l_ankle", "l_toe",
    "r_hip", "r_knee", "r_ankle", "r_toe",
]
JOINT_INDEX = {n: i for i, n in enumerate(JOINT_NAMES)}

_JOINT_PARENTS = [-1, 0, 1, 2, 3,
                  2, 5, 6,
                  2, 8, 9,
                  0, 11, 12, 13,
                  0, 15, 16, 17]

# absolute rest joint positions (meters, y-up, z forward, x = subject left)
_JOINT_POSITIONS = {
    "pelvis": (0.0, 0.0, 0.0),
    "spine": (0.0, 0.15, 0.0),
    "chest": (0.0, 0.35, 0.0),
    "neck": (0.0, 0.50, 0.0),
    "head": (0.0, 0.60, 0.0),
    "l_shoulder": (0.20, 0.47, 0.0),
    "l_elbow": (0.50, 0.47, 0.0),
    "l_wrist": (0.77, 0.47, 0.0),
    "r_shoulder": (-0.20, 0.47, 0.0),
    "r_elbow": (-0.50, 0.47, 0.0),
    "r_wrist": (-0.77, 0.47, 0.0),
    "l_hip": (0.10, -0.05, 0.0),
    "l_knee": (0.10, -0.50, 0.0),
    "l_ankle": (0.10, -0.95, 0.0),
    "l_toe": (0.10, -1.00, 0.12),
    "r_hip": (-0.10, -0.05, 0.0),
    "r_knee": (-0.10, -0.50, 0.0),
    "r_ankle": (-0.10, -0.95, 0.0),
    "r_toe": (-0.10, -1.00, 0.12),
}

# part name, fine-region count, 37-level group count, 17- and 9-level groups
_PART_TABLE = [
    ("head", 8, 4, "head", "head"),
    ("neck", 1, 1, "neck", "head"),
    ("chest_front", 4, 2, "chest", "torso"),
    ("chest_back", 4, 2, "chest", "torso"),
    ("abdomen_front", 3, 1, "abdomen", "torso"),
    ("abdomen_back", 3, 1, "abdomen", "torso"),
    ("pelvis_front", 2, 1, "pelvis", "torso"),
    ("pelvis_back", 2, 1, "pelvis", "torso"),
    ("l_shoulder", 1, 1, "l_upper_arm", "l_arm"),
    ("l_upper_arm", 4, 2, "l_upper_arm", "l_arm"),
    ("l_forearm", 4, 1, "l_forearm", "l_arm"),
    ("l_hand", 3, 2, "l_hand", "l_hand"),
    ("r_shoulder", 1, 1, "r_upper_arm", "r_arm"),
    ("r_upper_arm", 4, 2, "r_upper_arm", "r_arm"),
    ("r_forearm", 4, 1, "r_forearm", "r_arm"),
    ("r_hand", 3, 2, "r_hand", "r_hand"),
    ("l_thigh", 5, 2, "l_thigh", "l_leg"),
    ("l_shin", 4, 2, "l_shin", "l_leg"),
    ("l_foot", 3, 2, "l_foot", "feet"),
    ("r_thigh", 5, 2, "r_thigh", "r_leg"),
    ("r_shin", 4, 2, "r_shin", "r_leg"),
    ("r_foot", 3, 2, "r_foot", "feet"),
]

IMAGE_SIZE = 368  # scenario camera image side, pixels


# A primitive's mesh: its vertices, their (n, J) skinning weights, its faces
# as local vertex ids, one part label per face, and per face a point inside
# the primitive that sets the face's outward winding
_Piece = namedtuple("_Piece", ["verts", "weights", "faces", "parts", "inside"])


def _piece(verts, faces, inside, part_fn, weight_fn):
    return _Piece(verts, weight_fn(verts), faces,
                  part_fn(facet_geometry(verts, faces).centers),
                  np.broadcast_to(inside, faces.shape))


def _grid_faces(grid):
    """Two faces per cell of a vertex-id grid, cells row-major: (a, b, c)
    then (b, e, c), where a, b are the cell's corners on its row and c, e
    the corners below them."""
    a, b, c, e = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
    return np.stack([a, b, c, b, e, c], axis=-1).reshape(-1, 3)


def _closed(grid):
    """The grid with its first column repeated last, so each row wraps."""
    return np.hstack([grid, grid[:, :1]])


def _fan_faces(center, ring):
    """(center, ring[i], ring[i + 1]) for each i, the ring wrapping."""
    return np.stack([np.full(len(ring), center), ring, np.roll(ring, -1)], axis=1)


def _frame(direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    up = np.array([0.0, 1.0, 0.0]) if abs(d[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(up, d)
    u /= np.linalg.norm(u)
    w = np.cross(d, u)
    return d, u, w


def _tube(p0, p1, radius_u, radius_w, segments, rings, part_fn, weight_fn,
          caps=False):
    """Elliptic tube of rings + 1 vertex rings from p0 to p1; caps closes
    each end with a fan around a vertex at p0, then one at p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d, u, w = _frame(p1 - p0)
    length = np.linalg.norm(p1 - p0)
    thetas = 2.0 * np.pi * np.arange(segments) / segments
    t = (np.arange(rings + 1) / rings)[:, None, None]
    verts = (p0 + t * (p1 - p0) + (radius_u * np.cos(thetas))[:, None] * u
             + (radius_w * np.sin(thetas))[:, None] * w).reshape(-1, 3)
    grid = np.arange(len(verts)).reshape(rings + 1, segments)
    faces = _grid_faces(_closed(grid))
    # a wall face's interior point: the nearest axis point, off the ends
    along = np.clip((facet_geometry(verts, faces).centers - p0) @ d,
                    1e-4, length - 1e-4)
    inside = p0 + along[:, None] * d
    if caps:
        faces = np.vstack([faces, _fan_faces(len(verts), grid[0]),
                           _fan_faces(len(verts) + 1, grid[-1])])
        inside = np.vstack([inside, np.repeat([p0 + d * 1e-3, p1 - d * 1e-3],
                                              segments, axis=0)])
        verts = np.vstack([verts, p0, p1])
    return _piece(verts, faces, inside, part_fn, weight_fn)


def _sphere(center, radius, n_lon, n_lat, part_fn, weight_fn):
    """UV sphere: n_lat - 1 rings of n_lon vertices, then the top and bottom
    poles; the pole fans come first, top and bottom interleaved."""
    center = np.asarray(center, dtype=float)
    phi = (np.pi * np.arange(1, n_lat) / n_lat)[:, None]
    th = 2.0 * np.pi * np.arange(n_lon) / n_lon
    rings = np.stack(np.broadcast_arrays(np.sin(phi) * np.cos(th), np.cos(phi),
                                         np.sin(phi) * np.sin(th)), axis=-1)
    verts = center + radius * np.vstack([rings.reshape(-1, 3),
                                         [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]])
    grid = np.arange(len(verts) - 2).reshape(n_lat - 1, n_lon)
    poles = _interleaved(_fan_faces(grid.size, grid[0]),
                         _fan_faces(grid.size + 1, grid[-1]))
    faces = np.vstack([poles, _grid_faces(_closed(grid))])
    return _piece(verts, faces, center, part_fn, weight_fn)


def _box(center, half, subdiv, part_fn, weight_fn):
    """Box of six sides, in axis order and - before +, each a grid over the
    other two axes with subdiv cells along each."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    verts, faces = [], []
    for axis in range(3):
        a1, a2 = [i for i in range(3) if i != axis]
        s1 = (-1.0 + 2.0 * np.arange(subdiv[a1] + 1) / subdiv[a1]) * half[a1]
        s2 = (-1.0 + 2.0 * np.arange(subdiv[a2] + 1) / subdiv[a2]) * half[a2]
        for sign in (-1.0, 1.0):
            side = np.empty((len(s1), len(s2), 3))
            side[..., axis] = center[axis] + sign * half[axis]
            side[..., a1] = center[a1] + s1[:, None]
            side[..., a2] = center[a2] + s2
            ids = np.arange(len(s1) * len(s2)).reshape(len(s1), len(s2))
            faces.append(_grid_faces(ids + sum(map(len, verts))))
            verts.append(side.reshape(-1, 3))
    return _piece(np.vstack(verts), np.vstack(faces), center, part_fn, weight_fn)


def _wind_outward(verts, faces, inside):
    """Swap b and c of each face (a, b, c) whose normal points toward its
    interior point, in place."""
    geom = facet_geometry(verts, faces)
    inward = _row_dots(geom.normals, geom.centers - inside) < 0.0
    faces[inward] = faces[inward][:, [0, 2, 1]]


def _one_hot(joints):
    """(n, J) skinning weights, each row all on its joint."""
    return np.eye(len(JOINT_NAMES))[joints]


def _whole(part):
    return lambda centroids: np.full(len(centroids), part)


@dataclass
class SyntheticBody:
    model: BodyModel
    region_map: RegionMap                 # 75 regions
    coarsen_maps: dict                    # (fine, coarse) -> CoarsenMap
    part_regions: dict                    # part name -> fine region ids, in slice order
    named_regions: dict                   # semantic anchors -> fine region id
    joint_names: list = field(default_factory=lambda: list(JOINT_NAMES))


def _near_equal_split(items, n):
    """n runs of items, the first len(items) % n of them one longer."""
    if len(items) < n:
        raise ParameterError(f"cannot split {len(items)} items into {n} chunks")
    return np.array_split(items, n)


def _slice_part(face_ids, centroids, specs):
    """Split a part's faces into spatially ordered chunks along directions."""
    face_ids = np.asarray(sorted(face_ids), dtype=int)
    if not specs:
        return [face_ids]
    direction, n = specs[0]
    keys = centroids[face_ids] @ np.asarray(direction, dtype=float)
    order = np.argsort(keys, kind="stable")
    chunks = _near_equal_split(face_ids[order], n)
    out = []
    for ch in chunks:
        out.extend(_slice_part(ch, centroids, specs[1:]))
    return out


def _joint_regressor(template, rest_joints, k=8):
    reg = np.zeros((len(rest_joints), len(template)))
    for j, pos in enumerate(rest_joints):
        d2 = ((template - pos) ** 2).sum(axis=1)
        kk = k
        while True:
            near = np.argsort(d2, kind="stable")[:kk]
            A = np.vstack([template[near].T, np.ones(len(near))])
            b = np.concatenate([pos, [1.0]])
            w, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.linalg.norm(A @ w - b) < 1e-9 or kk >= 4 * k:
                break
            kk *= 2
        reg[j, near] = w
    return reg


def build_synthetic_body():
    """Construct the default humanoid with its region hierarchy."""
    J = JOINT_INDEX
    pos = {k: np.asarray(v, dtype=float) for k, v in _JOINT_POSITIONS.items()}

    def rigid(joint):
        return lambda p: _one_hot(np.full(len(p), J[joint]))

    def limb_weights(joint, next_joint, p0, p1):
        # the far 15% of a limb is skinned half to the next joint
        axis = p1 - p0

        def fn(p):
            w = _one_hot(np.full(len(p), J[joint]))
            blend = ((p - p0) @ axis) / float(axis @ axis) > 0.85
            w[blend, J[joint]] = w[blend, J[next_joint]] = 0.5
            return w
        return fn

    # torso: one elliptic tube, parts assigned by height band and front/back,
    # weights by height band
    def torso_part(c):
        names = np.array([["pelvis_back", "pelvis_front"], ["abdomen_back", "abdomen_front"],
                          ["chest_back", "chest_front"]])
        return names[np.digitize(c[:, 1], [0.08, 0.28]), (c[:, 2] > 0).astype(int)]

    def torso_weights(p):
        band = np.digitize(p[:, 1], [0.08, 0.28])
        return _one_hot(np.array([J["pelvis"], J["spine"], J["chest"]])[band])

    pieces = [_tube((0, -0.12, 0), (0, 0.47, 0), 0.16, 0.10, 12, 6,
                    torso_part, torso_weights, caps=True),
              _sphere((0, 0.68, 0), 0.11, 10, 8, _whole("head"), rigid("head")),
              _tube((0, 0.50, 0), (0, 0.62, 0), 0.045, 0.045, 8, 2,
                    _whole("neck"), rigid("neck"))]

    for side in ("l", "r"):
        sh, el, wr = pos[f"{side}_shoulder"], pos[f"{side}_elbow"], pos[f"{side}_wrist"]
        out_dir = np.array([1.0 if side == "l" else -1.0, 0.0, 0.0])
        arm_axis = (el - sh) / np.linalg.norm(el - sh)

        def arm_part(c):
            return np.where(((c - sh) @ arm_axis) / 0.30 < 0.2,
                            f"{side}_shoulder", f"{side}_upper_arm")

        hp, kn, an = pos[f"{side}_hip"], pos[f"{side}_knee"], pos[f"{side}_ankle"]
        pieces += [
            _tube(sh, el, 0.05, 0.05, 8, 5, arm_part,
                  limb_weights(f"{side}_shoulder", f"{side}_elbow", sh, el)),
            _tube(el, wr, 0.042, 0.042, 8, 4, _whole(f"{side}_forearm"),
                  limb_weights(f"{side}_elbow", f"{side}_wrist", el, wr)),
            _box(wr + out_dir * 0.08, (0.08, 0.018, 0.04), (4, 1, 2),
                 _whole(f"{side}_hand"), rigid(f"{side}_wrist")),
            _tube(hp, kn, 0.075, 0.075, 10, 5, _whole(f"{side}_thigh"),
                  limb_weights(f"{side}_hip", f"{side}_knee", hp, kn)),
            _tube(kn, an, 0.055, 0.055, 8, 4, _whole(f"{side}_shin"),
                  limb_weights(f"{side}_knee", f"{side}_ankle", kn, an)),
            _box(an + np.array([0.0, -0.03, 0.07]), (0.045, 0.03, 0.11), (2, 1, 3),
                 _whole(f"{side}_foot"), rigid(f"{side}_ankle"))]

    starts = np.cumsum([0] + [len(p.verts) for p in pieces])
    template = np.vstack([p.verts for p in pieces])
    faces = np.vstack([p.faces + start for p, start in zip(pieces, starts)])
    weights = np.vstack([p.weights for p in pieces])
    parts = np.concatenate([p.parts for p in pieces])
    _wind_outward(template, faces, np.vstack([p.inside for p in pieces]))

    offsets = np.zeros((len(JOINT_NAMES), 3))
    for name, i in J.items():
        par = _JOINT_PARENTS[i]
        offsets[i] = pos[name] - (pos[JOINT_NAMES[par]] if par >= 0 else 0.0)

    regressor = _joint_regressor(template, np.array([pos[n] for n in JOINT_NAMES]))
    model = BodyModel(template, faces, np.array(_JOINT_PARENTS), offsets,
                      weights, regressor)

    # fine regions: slice each part along its natural axes
    geom = facet_geometry(template, faces)
    centroids = geom.centers
    y = (0.0, 1.0, 0.0)
    z = (0.0, 0.0, 1.0)
    x = (1.0, 0.0, 0.0)
    neg_x = (-1.0, 0.0, 0.0)
    down = (0.0, -1.0, 0.0)
    slice_specs = {
        "head": [(y, 4), (z, 2)],
        "neck": [],
        "chest_front": [(x, 4)], "chest_back": [(x, 4)],
        "abdomen_front": [(x, 3)], "abdomen_back": [(x, 3)],
        "pelvis_front": [(x, 2)], "pelvis_back": [(x, 2)],
        "l_shoulder": [], "r_shoulder": [],
        "l_upper_arm": [(x, 4)], "r_upper_arm": [(neg_x, 4)],
        "l_forearm": [(x, 4)], "r_forearm": [(neg_x, 4)],
        "l_hand": [(x, 3)], "r_hand": [(neg_x, 3)],
        "l_thigh": [(down, 5)], "r_thigh": [(down, 5)],
        "l_shin": [(down, 4)], "r_shin": [(down, 4)],
        "l_foot": [(z, 3)], "r_foot": [(z, 3)],
    }

    facet_to_region = np.full(len(faces), -1, dtype=int)
    part_regions = {}
    fine_to_37 = []
    part_of_37 = []
    next_fine = 0
    for part, n75, n37, g17, g9 in _PART_TABLE:
        chunks = _slice_part(np.flatnonzero(parts == part), centroids,
                              slice_specs[part])
        if len(chunks) != n75:
            raise ParameterError(f"part {part}: expected {n75} chunks, got {len(chunks)}")
        ids = list(range(next_fine, next_fine + n75))
        part_regions[part] = ids
        for rid, chunk in zip(ids, chunks):
            facet_to_region[chunk] = rid
        for group in _near_equal_split(ids, n37):
            fine_to_37 += [len(part_of_37)] * len(group)
            part_of_37.append(part)
        next_fine += n75
    region_map = RegionMap(75, facet_to_region)

    # the 17 and 9 groups, numbered in order of first appearance
    g17_of_part = {p: g17 for p, _, _, g17, _ in _PART_TABLE}
    g9_of_g17 = {g17: g9 for _, _, _, g17, g9 in _PART_TABLE}
    g17_names = list(dict.fromkeys(g17_of_part.values()))
    g9_names = list(dict.fromkeys(g9_of_g17.values()))
    map_37_17 = [g17_names.index(g17_of_part[part]) for part in part_of_37]
    map_17_9 = [g9_names.index(g9_of_g17[g]) for g in g17_names]

    cmaps = {
        (75, 37): CoarsenMap(75, 37, np.array(fine_to_37)),
        (37, 17): CoarsenMap(37, 17, np.array(map_37_17)),
        (17, 9): CoarsenMap(17, 9, np.array(map_17_9)),
    }
    cmaps[(75, 17)] = cmaps[(75, 37)].compose(cmaps[(37, 17)])
    cmaps[(37, 9)] = cmaps[(37, 17)].compose(cmaps[(17, 9)])
    cmaps[(75, 9)] = cmaps[(75, 37)].compose(cmaps[(37, 9)])

    named = {
        "chin": part_regions["head"][1],          # lowest head band, front
        "l_fingers": part_regions["l_hand"][2],
        "r_fingers": part_regions["r_hand"][2],
        "l_forearm_mid": part_regions["l_forearm"][1],
        "r_forearm_mid": part_regions["r_forearm"][1],
        "l_knee": part_regions["l_thigh"][4],
        "r_knee": part_regions["r_thigh"][4],
    }
    return SyntheticBody(model, region_map, cmaps, part_regions, named)


def default_camera():
    """Front camera at ~2.9 m, 368x368 image, y-down pixel coordinates."""
    R = np.diag([1.0, -1.0, -1.0])
    C = np.array([0.0, -0.1, 2.9])
    return Camera(fx=500.0, fy=500.0, cx=IMAGE_SIZE / 2.0, cy=IMAGE_SIZE / 2.0,
                  rotation=R, translation=-R @ C)


def _two_bone_ik(root, rest_d1, len1, rest_d2, len2, target, pole):
    """Local axis-angle rotations for a two-bone chain reaching a target.

    Minimal-twist alignment; the elbow is displaced toward the pole side of
    the root-target line.
    """
    r = np.asarray(target, dtype=float) - root
    dist = np.linalg.norm(r)
    dist = float(np.clip(dist, abs(len1 - len2) + 1e-6, len1 + len2 - 1e-6))
    r_hat = r / np.linalg.norm(r)
    pole = np.asarray(pole, dtype=float)
    perp = pole - (pole @ r_hat) * r_hat
    for fallback in ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0)):
        if np.linalg.norm(perp) >= 1e-9:
            break
        fb = np.asarray(fallback)
        perp = fb - (fb @ r_hat) * r_hat
    perp /= np.linalg.norm(perp)
    cos_a = (len1**2 + dist**2 - len2**2) / (2.0 * len1 * dist)
    cos_a = float(np.clip(cos_a, -1.0, 1.0))
    sin_a = float(np.sqrt(max(0.0, 1.0 - cos_a**2)))
    u = cos_a * r_hat + sin_a * perp
    elbow = root + len1 * u
    f = (root + r_hat * dist) - elbow
    f /= np.linalg.norm(f)

    R1 = rodrigues(rotation_between(rest_d1, u))
    R2_global = rodrigues(rotation_between(rest_d2, f))
    R2_local = R1.T @ R2_global
    return axis_angle_from_matrix(R1), axis_angle_from_matrix(R2_local), elbow


@dataclass
class ScenarioBundle:
    name: str
    scenario_class: str
    seed: int
    noise_px: float
    body: SyntheticBody
    gt_params: PoseParams
    initial_params: PoseParams
    signature: ContactSignature        # at 75 regions
    support: ImageSupport
    camera: Camera
    keypoints: np.ndarray              # (K, 2) pixels
    keypoint_joints: np.ndarray        # (K,)
    config: dict                       # recommended reconstruction settings


SCENARIO_NAMES = ("hand-chin", "hands-together", "arms-crossed", "hand-knee")

_SCENARIO_CLASSES = {
    "hand-chin": "standing",
    "hands-together": "standing",
    "arms-crossed": "sitting-no-chair",
    "hand-knee": "with-chair",
}

# fraction of the GT arm rotation kept in the perturbed start pose; the
# hand-knee start is relaxed further because its keypoint-only baseline
# otherwise lands too close to the knee already
_INIT_ARM_SCALE = {
    "hand-chin": 0.55,
    "hands-together": 0.55,
    "arms-crossed": 0.55,
    "hand-knee": 0.2,
}

# reconstruction settings tuned on this synthetic suite; the keypoint term
# lives in squared pixels (~1 px ~ 5 mm at this camera) so it is downweighted,
# and shape is pinned hard since the contact pull would otherwise shrink the
# template instead of moving the limb
_SCENARIO_CONFIG = {
    "iterations": 450,
    "step_size": 1.0,
    "lambda_s": 0.05,
    "lambda_psr": 1e-2,
    "lambda_col": 1.0,
    "lambda_d": 1.0,
    "lambda_n": 0.02,
    "lambda_pose": 0.1,
    "lambda_shape": 1e5,
    "selection_mode": "all",
}


def _region_centroid(body, params, region):
    geom = facet_geometry(pose_mesh(body.model, params), body.model.faces)
    ids = np.flatnonzero(body.region_map.facet_to_region == region)
    return geom.centers[ids].mean(axis=0), geom


def _min_gap(body, params, r1, r2):
    geom = facet_geometry(pose_mesh(body.model, params), body.model.faces)
    ids1 = np.flatnonzero(body.region_map.facet_to_region == r1)
    ids2 = np.flatnonzero(body.region_map.facet_to_region == r2)
    c1 = geom.centers[ids1]
    c2 = geom.centers[ids2]
    j, d = nearest_neighbors(c1, c2, np.arange(len(c2)))
    i = np.argmin(d)
    return float(d[i]), c1[i], c2[j[i]]


def _arm_joint_names(side):
    return (f"{side}_shoulder", f"{side}_elbow", f"{side}_wrist")


def _solve_arm(body, params, side, wrist_target, pole):
    """Write IK rotations for one arm into params (in place).

    Runs in the shoulder's parent frame, so torso rotations already present
    in params are respected exactly.
    """
    pos = {k: np.asarray(v, dtype=float) for k, v in _JOINT_POSITIONS.items()}
    sh_j = JOINT_INDEX[f"{side}_shoulder"]
    G, p = joint_transforms(body.model, params)
    G_par = G[body.model.joint_parents[sh_j]]
    target_local = G_par.T @ (np.asarray(wrist_target, dtype=float) - p[sh_j])
    pole_local = G_par.T @ np.asarray(pole, dtype=float)

    sh = pos[f"{side}_shoulder"]
    el = pos[f"{side}_elbow"]
    wr = pos[f"{side}_wrist"]
    d1 = (el - sh) / np.linalg.norm(el - sh)
    d2 = (wr - el) / np.linalg.norm(wr - el)
    rot_sh, rot_el, _ = _two_bone_ik(np.zeros(3), d1, np.linalg.norm(el - sh),
                                     d2, np.linalg.norm(wr - el),
                                     target_local, pole_local)
    params.joint_rotations[sh_j] = rot_sh
    params.joint_rotations[JOINT_INDEX[f"{side}_elbow"]] = rot_el


def _refine_arm_to_region(body, params, side, target_region, pole, gap=0.002,
                          iterations=12):
    """Adjust the wrist target until the finger region sits `gap` meters
    from the target region (closest facet centers)."""
    fingers = body.named_regions[f"{side}_fingers"]
    target_c, _ = _region_centroid(body, params, target_region)
    wrist_target = target_c.copy()
    for _ in range(iterations):
        _solve_arm(body, params, side, wrist_target, pole)
        d, cf, ct = _min_gap(body, params, fingers, target_region)
        err = d - gap
        if abs(err) < 3e-4:
            break
        direction = (cf - ct) / max(d, 1e-9)
        wrist_target = wrist_target - err * direction
    return params


def generate_scenario(name, seed=0, noise_px=0.0):
    """Deterministic scenario bundle: GT pose in self-contact, perturbed
    initial pose, annotation and projected keypoints."""
    if name not in SCENARIO_NAMES:
        raise ParameterError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    body = build_synthetic_body()
    model = body.model
    rng = np.random.Generator(np.random.PCG64(seed))
    gt = PoseParams.identity(model.num_joints)
    named = body.named_regions

    if name == "hand-chin":
        contact = (named["r_fingers"], named["chin"])
        _refine_arm_to_region(body, gt, "r", named["chin"],
                              pole=(0.0, -0.6, 1.0))
        perturbed_arms = ["r"]
    elif name == "hands-together":
        contact = (named["l_fingers"], named["r_fingers"])
        meet = np.array([0.0, 0.25, 0.30])
        _solve_arm(body, gt, "l", meet + [0.05, 0, 0], pole=(0.0, -1.0, 0.6))
        _solve_arm(body, gt, "r", meet - [0.05, 0, 0], pole=(0.0, -1.0, 0.6))
        for _ in range(12):
            d, cl, cr = _min_gap(body, gt, named["l_fingers"], named["r_fingers"])
            err = d - 0.002
            if abs(err) < 3e-4:
                break
            direction = (cl - cr) / max(d, 1e-9)
            jl, _ = _region_centroid(body, gt, named["l_fingers"])
            jr, _ = _region_centroid(body, gt, named["r_fingers"])
            _solve_arm(body, gt, "l", _wrist_from_fingers(body, gt, "l", jl - 0.5 * err * direction),
                       pole=(0.0, -1.0, 0.6))
            _solve_arm(body, gt, "r", _wrist_from_fingers(body, gt, "r", jr + 0.5 * err * direction),
                       pole=(0.0, -1.0, 0.6))
        perturbed_arms = ["l", "r"]
    elif name == "arms-crossed":
        gt.joint_rotations[JOINT_INDEX["l_hip"]] = (-np.pi / 2, 0.0, 0.0)
        gt.joint_rotations[JOINT_INDEX["r_hip"]] = (-np.pi / 2, 0.0, 0.0)
        _solve_arm(body, gt, "r", np.array([0.14, 0.22, 0.20]),
                   pole=(0.0, -1.0, 0.3))
        contact = (named["l_fingers"], named["r_forearm_mid"])
        _refine_arm_to_region(body, gt, "l", named["r_forearm_mid"],
                              pole=(0.0, -1.0, 0.5))
        perturbed_arms = ["l"]
    else:  # hand-knee
        for side in ("l", "r"):
            gt.joint_rotations[JOINT_INDEX[f"{side}_hip"]] = (-np.pi / 2, 0.0, 0.0)
            gt.joint_rotations[JOINT_INDEX[f"{side}_knee"]] = (np.pi / 2, 0.0, 0.0)
        # lean the torso forward so the knee is within arm's reach
        gt.joint_rotations[JOINT_INDEX["spine"]] = (0.25, 0.0, 0.0)
        gt.joint_rotations[JOINT_INDEX["chest"]] = (0.25, 0.0, 0.0)
        contact = (named["r_fingers"], named["r_knee"])
        _refine_arm_to_region(body, gt, "r", named["r_knee"],
                              pole=(-0.3, -1.0, 0.4))
        perturbed_arms = ["r"]

    lo, hi = min(contact), max(contact)
    signature = ContactSignature.from_sets(75, contact=[(lo, hi)])

    camera = default_camera()
    gt_joints = joint_positions(model, gt)
    # the contacting hand has no keypoint: recovering it is the contact
    # term's job; for hand-knee the elbow is hidden too, otherwise the
    # keypoint-only baseline all but solves the arm
    excluded = {JOINT_INDEX[f"{s}_wrist"] for s in perturbed_arms}
    if name == "hand-knee":
        excluded.add(JOINT_INDEX["r_elbow"])
    keypoint_joints = np.array([j for j in range(model.num_joints)
                                if j not in excluded])
    keypoints = project(camera, gt_joints[keypoint_joints])
    if noise_px > 0.0:
        keypoints = keypoints + rng.normal(0.0, noise_px, keypoints.shape)

    # image support: projected contact location per contacting region
    support_points = {}
    geom = facet_geometry(pose_mesh(model, gt), model.faces)
    for r in (lo, hi):
        ids = np.flatnonzero(body.region_map.facet_to_region == r)
        uv = project(camera, geom.centers[ids].mean(axis=0))
        support_points[r] = (float(np.clip(uv[0] / IMAGE_SIZE, 0.0, 1.0)),
                             float(np.clip(uv[1] / IMAGE_SIZE, 0.0, 1.0)))
    support = ImageSupport(75, support_points)

    init = gt.copy()
    arm_scale = _INIT_ARM_SCALE[name]
    for side in perturbed_arms:
        for jn in _arm_joint_names(side):
            j = JOINT_INDEX[jn]
            init.joint_rotations[j] = (arm_scale * init.joint_rotations[j]
                                       + rng.normal(0.0, 0.02, 3))
    for j in range(model.num_joints):
        if JOINT_NAMES[j].split("_")[-1] not in ("shoulder", "elbow", "wrist"):
            init.joint_rotations[j] = init.joint_rotations[j] + rng.normal(0.0, 0.01, 3)
    init.translation = init.translation + np.array([0.03, -0.02, 0.08]) \
        + rng.normal(0.0, 0.005, 3)

    return ScenarioBundle(
        name=name, scenario_class=_SCENARIO_CLASSES[name], seed=seed,
        noise_px=noise_px, body=body, gt_params=gt, initial_params=init,
        signature=signature, support=support, camera=camera,
        keypoints=keypoints, keypoint_joints=keypoint_joints,
        config=dict(_SCENARIO_CONFIG))


def _wrist_from_fingers(body, params, side, fingers_target):
    """Current wrist position shifted so the finger-region centroid would
    land on the target (rigid-hand approximation)."""
    joints = joint_positions(body.model, params)
    fingers_c, _ = _region_centroid(body, params, body.named_regions[f"{side}_fingers"])
    return joints[JOINT_INDEX[f"{side}_wrist"]] + (fingers_target - fingers_c)

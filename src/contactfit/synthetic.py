"""Deterministic synthetic humanoid, region hierarchy and contact scenarios.

The body is a low-poly humanoid (torso tube, head sphere, limb tubes, box
hands/feet, 19 joints, ~1.2k facets) built entirely from constants, so every
desk-scale experiment is reproducible without external assets. Each
primitive emits its vertices as arrays and its faces as vertex-id grids,
two triangles per cell, and fans for the tube caps and sphere poles; one
array pass then winds every face outward. The default 75-region partition
follows anatomical parts; coarser granularities (37/17/9) are groupings of
the fine regions. The joints, the body parts and the scenarios are each
one table, and the skeleton, the region hierarchy and each scenario's
contact pair and start perturbation are derived from them.

Scenarios pose the body into a self-contact configuration (two-bone IK plus
a small fixed-point refinement on the contact pair's region gap, posing the
mesh once per arm moved), derive the ground truth annotation and camera, and
perturb the pose into an optimization start point.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .body import (BodyModel, Camera, PoseParams, facet_geometry,
                   joint_transforms, pose_mesh, project)
from .contact import ContactSignature, ImageSupport
from .contact_geometry import region_gap
from .errors import ParameterError
from .regions import CoarsenMap, RegionMap, region_facets
from .rotations import axis_angle_from_matrix, rodrigues, rotation_between
from .spatial import _interleaved, _row_dots

# name, parent, absolute rest position (meters, y-up, z forward, x = subject left)
_JOINTS = [
    ("pelvis", None, (0.0, 0.0, 0.0)),
    ("spine", "pelvis", (0.0, 0.15, 0.0)),
    ("chest", "spine", (0.0, 0.35, 0.0)),
    ("neck", "chest", (0.0, 0.50, 0.0)),
    ("head", "neck", (0.0, 0.60, 0.0)),
    ("l_shoulder", "chest", (0.20, 0.47, 0.0)),
    ("l_elbow", "l_shoulder", (0.50, 0.47, 0.0)),
    ("l_wrist", "l_elbow", (0.77, 0.47, 0.0)),
    ("r_shoulder", "chest", (-0.20, 0.47, 0.0)),
    ("r_elbow", "r_shoulder", (-0.50, 0.47, 0.0)),
    ("r_wrist", "r_elbow", (-0.77, 0.47, 0.0)),
    ("l_hip", "pelvis", (0.10, -0.05, 0.0)),
    ("l_knee", "l_hip", (0.10, -0.50, 0.0)),
    ("l_ankle", "l_knee", (0.10, -0.95, 0.0)),
    ("l_toe", "l_ankle", (0.10, -1.00, 0.12)),
    ("r_hip", "pelvis", (-0.10, -0.05, 0.0)),
    ("r_knee", "r_hip", (-0.10, -0.50, 0.0)),
    ("r_ankle", "r_knee", (-0.10, -0.95, 0.0)),
    ("r_toe", "r_ankle", (-0.10, -1.00, 0.12)),
]
JOINT_NAMES = [name for name, _, _ in _JOINTS]
JOINT_INDEX = {n: i for i, n in enumerate(JOINT_NAMES)}
_JOINT_PARENTS = [JOINT_INDEX.get(parent, -1) for _, parent, _ in _JOINTS]
_REST_JOINTS = np.array([position for _, _, position in _JOINTS])
_REST_JOINTS.flags.writeable = False
_JOINT_POSITIONS = dict(zip(JOINT_NAMES, _REST_JOINTS))  # name -> read-only row

# fine regions slice each part along its natural axes
_X, _NEG_X, _Y, _Z, _DOWN = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                              (0.0, 0.0, 1.0), (0.0, -1.0, 0.0))

# part name, slicing steps (direction, chunks; each final chunk is one fine
# region), 37-level group count, 17- and 9-level groups
_PARTS = [
    ("head", [(_Y, 4), (_Z, 2)], 4, "head", "head"),
    ("neck", [], 1, "neck", "head"),
    ("chest_front", [(_X, 4)], 2, "chest", "torso"),
    ("chest_back", [(_X, 4)], 2, "chest", "torso"),
    ("abdomen_front", [(_X, 3)], 1, "abdomen", "torso"),
    ("abdomen_back", [(_X, 3)], 1, "abdomen", "torso"),
    ("pelvis_front", [(_X, 2)], 1, "pelvis", "torso"),
    ("pelvis_back", [(_X, 2)], 1, "pelvis", "torso"),
    ("l_shoulder", [], 1, "l_upper_arm", "l_arm"),
    ("l_upper_arm", [(_X, 4)], 2, "l_upper_arm", "l_arm"),
    ("l_forearm", [(_X, 4)], 1, "l_forearm", "l_arm"),
    ("l_hand", [(_X, 3)], 2, "l_hand", "l_hand"),
    ("r_shoulder", [], 1, "r_upper_arm", "r_arm"),
    ("r_upper_arm", [(_NEG_X, 4)], 2, "r_upper_arm", "r_arm"),
    ("r_forearm", [(_NEG_X, 4)], 1, "r_forearm", "r_arm"),
    ("r_hand", [(_NEG_X, 3)], 2, "r_hand", "r_hand"),
    ("l_thigh", [(_DOWN, 5)], 2, "l_thigh", "l_leg"),
    ("l_shin", [(_DOWN, 4)], 2, "l_shin", "l_leg"),
    ("l_foot", [(_Z, 3)], 2, "l_foot", "feet"),
    ("r_thigh", [(_DOWN, 5)], 2, "r_thigh", "r_leg"),
    ("r_shin", [(_DOWN, 4)], 2, "r_shin", "r_leg"),
    ("r_foot", [(_Z, 3)], 2, "r_foot", "feet"),
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
    pos = _JOINT_POSITIONS

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
        sh, el, wr = (pos[j] for j in _arm_joint_names(side))
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

    parents = np.array(_JOINT_PARENTS)
    offsets = _REST_JOINTS - np.where((parents >= 0)[:, None], _REST_JOINTS[parents], 0.0)
    model = BodyModel(template, faces, parents, offsets, weights,
                      _joint_regressor(template, _REST_JOINTS))

    centroids = facet_geometry(template, faces).centers
    facet_to_region = np.full(len(faces), -1, dtype=int)
    part_regions = {}
    fine_to_37 = []
    part_of_37 = []
    next_fine = 0
    for part, steps, n37, _, _ in _PARTS:
        chunks = _slice_part(np.flatnonzero(parts == part), centroids, steps)
        ids = list(range(next_fine, next_fine + len(chunks)))
        part_regions[part] = ids
        for rid, chunk in zip(ids, chunks):
            facet_to_region[chunk] = rid
        for group in _near_equal_split(ids, n37):
            fine_to_37 += [len(part_of_37)] * len(group)
            part_of_37.append(part)
        next_fine += len(chunks)
    region_map = RegionMap(75, facet_to_region)

    # the 17 and 9 groups, numbered in order of first appearance
    g17_of_part = {p: g17 for p, _, _, g17, _ in _PARTS}
    g9_of_g17 = {g17: g9 for _, _, _, g17, g9 in _PARTS}
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


# name: class, the contact pair's two named regions, the arms perturbed in
# the start pose, the fraction of their GT rotation the start keeps, and the
# joints without a keypoint besides those arms' wrists. The hand-knee start
# is relaxed further, as its keypoint-only baseline otherwise lands too close
# to the knee already, and its elbow is hidden, as that baseline otherwise
# all but solves the arm.
_SCENARIOS = {
    "hand-chin": ("standing", ("r_fingers", "chin"), ("r",), 0.55, ()),
    "hands-together": ("standing", ("l_fingers", "r_fingers"), ("l", "r"), 0.55, ()),
    "arms-crossed": ("sitting-no-chair", ("l_fingers", "r_forearm_mid"), ("l",), 0.55, ()),
    "hand-knee": ("with-chair", ("r_fingers", "r_knee"), ("r",), 0.2, ("r_elbow",)),
}
SCENARIO_NAMES = tuple(_SCENARIOS)

# the contact recipes move the hands until the contact pair's region gap is
# within _GAP_TOL of _CONTACT_GAP meters, for at most _GAP_ROUNDS rounds
_CONTACT_GAP, _GAP_TOL, _GAP_ROUNDS = 0.002, 3e-4, 12

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


def _pose_points(model, params):
    """Joint positions and facet centers of the posed mesh."""
    verts = pose_mesh(model, params)
    return model.joint_regressor @ verts, facet_geometry(verts, model.faces).centers


def _centroid(body, centers, region):
    return centers[region_facets(body.region_map, region)].mean(axis=0)


def _arm_joint_names(side):
    return (f"{side}_shoulder", f"{side}_elbow", f"{side}_wrist")


def _solve_arm(body, params, side, wrist_target, pole):
    """Write IK rotations for one arm into params (in place).

    Runs in the shoulder's parent frame, so torso rotations already present
    in params are respected exactly.
    """
    sh_j = JOINT_INDEX[f"{side}_shoulder"]
    G, p = joint_transforms(body.model, params)
    G_par = G[body.model.joint_parents[sh_j]]
    target_local = G_par.T @ (np.asarray(wrist_target, dtype=float) - p[sh_j])
    pole_local = G_par.T @ np.asarray(pole, dtype=float)

    sh, el, wr = (_JOINT_POSITIONS[j] for j in _arm_joint_names(side))
    d1 = (el - sh) / np.linalg.norm(el - sh)
    d2 = (wr - el) / np.linalg.norm(wr - el)
    rot_sh, rot_el, _ = _two_bone_ik(np.zeros(3), d1, np.linalg.norm(el - sh),
                                     d2, np.linalg.norm(wr - el),
                                     target_local, pole_local)
    params.joint_rotations[sh_j] = rot_sh
    params.joint_rotations[JOINT_INDEX[f"{side}_elbow"]] = rot_el


def _refine_arm_to_region(body, params, side, target_region, pole, gap=_CONTACT_GAP,
                          iterations=_GAP_ROUNDS):
    """Adjust the wrist target until the finger region sits `gap` meters
    from the target region (closest facet centers)."""
    fingers = body.named_regions[f"{side}_fingers"]
    wrist_target = _centroid(body, _pose_points(body.model, params)[1], target_region)
    for _ in range(iterations):
        _solve_arm(body, params, side, wrist_target, pole)
        centers = _pose_points(body.model, params)[1]
        d, f, t = region_gap(centers, body.region_map, fingers, target_region)
        err = d - gap
        if abs(err) < _GAP_TOL:
            break
        direction = (centers[f] - centers[t]) / max(d, 1e-9)
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
    scenario_class, anchors, perturbed_arms, arm_scale, hidden = _SCENARIOS[name]
    contact = tuple(body.named_regions[a] for a in anchors)

    if name == "hand-chin":
        _refine_arm_to_region(body, gt, "r", contact[1], pole=(0.0, -0.6, 1.0))
    elif name == "hands-together":
        meet, pole = np.array([0.0, 0.25, 0.30]), (0.0, -1.0, 0.6)
        _solve_arm(body, gt, "l", meet + [0.05, 0, 0], pole)
        _solve_arm(body, gt, "r", meet - [0.05, 0, 0], pole)
        for _ in range(_GAP_ROUNDS):
            joints, centers = _pose_points(model, gt)
            d, fl, fr = region_gap(centers, body.region_map, *contact)
            err = d - _CONTACT_GAP
            if abs(err) < _GAP_TOL:
                break
            shift = 0.5 * err * ((centers[fl] - centers[fr]) / max(d, 1e-9))
            target_l = _centroid(body, centers, contact[0]) - shift
            target_r = _centroid(body, centers, contact[1]) + shift
            _solve_arm(body, gt, "l",
                       _wrist_from_fingers(body, joints, centers, "l", target_l), pole)
            joints, centers = _pose_points(model, gt)  # the left arm moved
            _solve_arm(body, gt, "r",
                       _wrist_from_fingers(body, joints, centers, "r", target_r), pole)
    elif name == "arms-crossed":
        gt.joint_rotations[JOINT_INDEX["l_hip"]] = (-np.pi / 2, 0.0, 0.0)
        gt.joint_rotations[JOINT_INDEX["r_hip"]] = (-np.pi / 2, 0.0, 0.0)
        _solve_arm(body, gt, "r", np.array([0.14, 0.22, 0.20]),
                   pole=(0.0, -1.0, 0.3))
        _refine_arm_to_region(body, gt, "l", contact[1], pole=(0.0, -1.0, 0.5))
    else:  # hand-knee
        for side in ("l", "r"):
            gt.joint_rotations[JOINT_INDEX[f"{side}_hip"]] = (-np.pi / 2, 0.0, 0.0)
            gt.joint_rotations[JOINT_INDEX[f"{side}_knee"]] = (np.pi / 2, 0.0, 0.0)
        # lean the torso forward so the knee is within arm's reach
        gt.joint_rotations[JOINT_INDEX["spine"]] = (0.25, 0.0, 0.0)
        gt.joint_rotations[JOINT_INDEX["chest"]] = (0.25, 0.0, 0.0)
        _refine_arm_to_region(body, gt, "r", contact[1], pole=(-0.3, -1.0, 0.4))

    lo, hi = min(contact), max(contact)
    signature = ContactSignature.from_sets(75, contact=[(lo, hi)])

    camera = default_camera()
    gt_joints, gt_centers = _pose_points(model, gt)
    # the contacting hand has no keypoint: recovering it is the contact
    # term's job
    excluded = {JOINT_INDEX[j] for j in hidden}
    excluded.update(JOINT_INDEX[f"{s}_wrist"] for s in perturbed_arms)
    keypoint_joints = np.array([j for j in range(model.num_joints)
                                if j not in excluded])
    keypoints = project(camera, gt_joints[keypoint_joints])
    if noise_px > 0.0:
        keypoints = keypoints + rng.normal(0.0, noise_px, keypoints.shape)

    # image support: projected contact location per contacting region
    support_points = {}
    for r in (lo, hi):
        uv = project(camera, _centroid(body, gt_centers, r))
        support_points[r] = (float(np.clip(uv[0] / IMAGE_SIZE, 0.0, 1.0)),
                             float(np.clip(uv[1] / IMAGE_SIZE, 0.0, 1.0)))
    support = ImageSupport(75, support_points)

    init = gt.copy()
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
        name=name, scenario_class=scenario_class, seed=seed,
        noise_px=noise_px, body=body, gt_params=gt, initial_params=init,
        signature=signature, support=support, camera=camera,
        keypoints=keypoints, keypoint_joints=keypoint_joints,
        config=dict(_SCENARIO_CONFIG))


def _wrist_from_fingers(body, joints, centers, side, fingers_target):
    """The posed wrist shifted so the finger-region centroid would land on
    the target (rigid-hand approximation)."""
    fingers_c = _centroid(body, centers, body.named_regions[f"{side}_fingers"])
    return joints[JOINT_INDEX[f"{side}_wrist"]] + (fingers_target - fingers_c)

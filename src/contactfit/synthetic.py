"""Deterministic synthetic humanoid, region hierarchy and contact scenarios.

The body is a low-poly humanoid (torso tube, head sphere, limb tubes, box
hands/feet, 19 joints, ~1.2k facets) built entirely from constants, so every
desk-scale experiment is reproducible without external assets. The default
75-region partition follows anatomical parts; coarser granularities
(37/17/9) are groupings of the fine regions.

Scenarios pose the body into a self-contact configuration (two-bone IK plus
a small fixed-point refinement on the actual facet gap), derive the ground
truth annotation and camera, and perturb the pose into an optimization
start point.
"""

from dataclasses import dataclass, field

import numpy as np

from .body import (BodyModel, Camera, PoseParams, facet_geometry,
                   joint_positions, joint_transforms, pose_mesh, project)
from .contact import ContactSignature, ImageSupport
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


class _MeshBuilder:
    def __init__(self):
        self.verts = []
        self.faces = []
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


def _add_tube(mb, p0, p1, radius_u, radius_w, segments, rings, part_fn,
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


def _add_sphere(mb, center, radius, n_lon, n_lat, part_fn, weight_fn):
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


def _add_box(mb, center, half, subdiv, part_fn, weight_fn):
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


@dataclass
class SyntheticBody:
    model: BodyModel
    region_map: RegionMap                 # 75 regions
    coarsen_maps: dict                    # (fine, coarse) -> CoarsenMap
    part_regions: dict                    # part name -> fine region ids, in slice order
    named_regions: dict                   # semantic anchors -> fine region id
    joint_names: list = field(default_factory=lambda: list(JOINT_NAMES))


def _near_equal_split(items, n):
    if len(items) < n:
        raise ParameterError(f"cannot split {len(items)} items into {n} chunks")
    sizes = [len(items) // n + (1 if i < len(items) % n else 0) for i in range(n)]
    out = []
    at = 0
    for s in sizes:
        out.append(items[at:at + s])
        at += s
    return out


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
    mb = _MeshBuilder()

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

    # torso: one elliptic tube, parts assigned by height band and front/back
    def torso_part(c):
        band = "pelvis" if c[1] < 0.08 else ("abdomen" if c[1] < 0.28 else "chest")
        return f"{band}_{'front' if c[2] > 0 else 'back'}"

    def torso_weights(p):
        if p[1] < 0.08:
            return {J["pelvis"]: 1.0}
        if p[1] < 0.28:
            return {J["spine"]: 1.0}
        return {J["chest"]: 1.0}

    _add_tube(mb, (0, -0.12, 0), (0, 0.47, 0), 0.16, 0.10, 12, 6,
              torso_part, torso_weights, cap0=True, cap1=True)
    _add_sphere(mb, (0, 0.68, 0), 0.11, 10, 8, lambda c: "head", rigid("head"))
    _add_tube(mb, (0, 0.50, 0), (0, 0.62, 0), 0.045, 0.045, 8, 2,
              lambda c: "neck", rigid("neck"))

    for side in ("l", "r"):
        sh, el, wr = pos[f"{side}_shoulder"], pos[f"{side}_elbow"], pos[f"{side}_wrist"]
        out_dir = np.array([1.0 if side == "l" else -1.0, 0.0, 0.0])
        arm_axis = (el - sh) / np.linalg.norm(el - sh)

        def arm_part(c, sh=sh, axis=arm_axis, side=side):
            t = float((c - sh) @ axis) / 0.30
            return f"{side}_shoulder" if t < 0.2 else f"{side}_upper_arm"

        _add_tube(mb, sh, el, 0.05, 0.05, 8, 5, arm_part,
                  limb_weights(f"{side}_shoulder", f"{side}_elbow", sh, el))
        _add_tube(mb, el, wr, 0.042, 0.042, 8, 4, lambda c, s=side: f"{s}_forearm",
                  limb_weights(f"{side}_elbow", f"{side}_wrist", el, wr))
        hand_center = wr + out_dir * 0.08
        _add_box(mb, hand_center, (0.08, 0.018, 0.04), (4, 1, 2),
                 lambda c, s=side: f"{s}_hand", rigid(f"{side}_wrist"))

        hp, kn, an = pos[f"{side}_hip"], pos[f"{side}_knee"], pos[f"{side}_ankle"]
        _add_tube(mb, hp, kn, 0.075, 0.075, 10, 5, lambda c, s=side: f"{s}_thigh",
                  limb_weights(f"{side}_hip", f"{side}_knee", hp, kn))
        _add_tube(mb, kn, an, 0.055, 0.055, 8, 4, lambda c, s=side: f"{s}_shin",
                  limb_weights(f"{side}_knee", f"{side}_ankle", kn, an))
        foot_center = an + np.array([0.0, -0.03, 0.07])
        _add_box(mb, foot_center, (0.045, 0.03, 0.11), (2, 1, 3),
                 lambda c, s=side: f"{s}_foot", rigid(f"{side}_ankle"))

    template = np.array(mb.verts)
    faces = np.array(mb.faces, dtype=int)
    weights = np.zeros((len(template), len(JOINT_NAMES)))
    for i, wmap in enumerate(mb.weights):
        for j, w in wmap.items():
            weights[i, j] = w

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
    next_37 = 0
    for part, n75, n37, g17, g9 in _PART_TABLE:
        chunks = _slice_part(mb.part_faces[part], centroids, slice_specs[part])
        if len(chunks) != n75:
            raise ParameterError(f"part {part}: expected {n75} chunks, got {len(chunks)}")
        ids = list(range(next_fine, next_fine + n75))
        part_regions[part] = ids
        for rid, chunk in zip(ids, chunks):
            facet_to_region[chunk] = rid
        groups = _near_equal_split(ids, n37)
        for g in groups:
            for rid in g:
                fine_to_37.append(next_37)
            part_of_37.append(part)
            next_37 += 1
        next_fine += n75
    region_map = RegionMap(75, facet_to_region)

    g17_names = []
    g9_names = []
    map_37_17 = []
    g17_of_part = {p: g17 for p, _, _, g17, _ in _PART_TABLE}
    g9_of_g17 = {}
    for part, _, _, g17, g9 in _PART_TABLE:
        if g17 not in g17_names:
            g17_names.append(g17)
        g9_of_g17[g17] = g9
        if g9 not in g9_names:
            g9_names.append(g9)
    for part in part_of_37:
        map_37_17.append(g17_names.index(g17_of_part[part]))
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

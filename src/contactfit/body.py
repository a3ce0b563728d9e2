"""Articulated skinned triangle mesh: forward kinematics, facet geometry, camera.

All positions are meters, y-up. A body model is immutable after
construction; posing is a pure function of (model, params).
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ParameterError, ProjectionError, check_number
from .rotations import rodrigues_batch, rodrigues_jacobian, rodrigues_jacobian_batch

_WEIGHT_TOL = 1e-6
_DEGENERATE_AREA = 1e-12
_ROTATION_TOL = 1e-6  # max |R R^T - I| entry of a camera rotation


@dataclass(frozen=True)
class BodyModel:
    """Template mesh + skeleton + skinning weights + joint regressor.

    template_vertices: (V, 3) float
    faces:             (F, 3) int vertex indices
    joint_parents:     (J,) int, -1 for the single root
    joint_offsets:     (J, 3) rest offset relative to the parent joint
    skinning_weights:  (V, J) float, rows non-negative and summing to 1
    joint_regressor:   (J, V) float, joints = regressor @ posed vertices
    """

    template_vertices: np.ndarray
    faces: np.ndarray
    joint_parents: np.ndarray
    joint_offsets: np.ndarray
    skinning_weights: np.ndarray
    joint_regressor: np.ndarray
    _topo: np.ndarray = field(init=False, repr=False, compare=False)
    _rest_joints: np.ndarray = field(init=False, repr=False, compare=False)
    _lbs_verts: np.ndarray = field(init=False, repr=False, compare=False)
    _lbs_joints: np.ndarray = field(init=False, repr=False, compare=False)
    _lbs_bounds: np.ndarray = field(init=False, repr=False, compare=False)
    _lbs_template: np.ndarray = field(init=False, repr=False, compare=False)
    _lbs_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.template_vertices, dtype=float)
        f = np.asarray(self.faces, dtype=int)
        parents = np.asarray(self.joint_parents, dtype=int)
        offsets = np.asarray(self.joint_offsets, dtype=float)
        w = np.asarray(self.skinning_weights, dtype=float)
        reg = np.asarray(self.joint_regressor, dtype=float)
        for name, val in (("template_vertices", v), ("faces", f),
                          ("joint_offsets", offsets), ("skinning_weights", w),
                          ("joint_regressor", reg)):
            object.__setattr__(self, name, val)
            if not np.isfinite(val).all():
                raise ParameterError(f"{name} must be finite")
        object.__setattr__(self, "joint_parents", parents)

        if v.ndim != 2 or v.shape[1] != 3:
            raise ParameterError("template_vertices must be (V, 3)")
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] < 1:
            raise ParameterError("faces must be (F, 3) with F >= 1")
        if f.min() < 0 or f.max() >= len(v):
            raise ParameterError("face references an invalid vertex index")
        J = len(parents)
        if offsets.shape != (J, 3):
            raise ParameterError("joint_offsets must be (J, 3)")
        if w.shape != (len(v), J):
            raise ParameterError("skinning_weights must be (V, J)")
        if reg.shape != (J, len(v)):
            raise ParameterError("joint_regressor must be (J, V)")
        if w.min() < -_WEIGHT_TOL:
            raise ParameterError("skinning weights must be non-negative")
        sums = w.sum(axis=1)
        if np.abs(sums - 1.0).max() > _WEIGHT_TOL:
            raise ParameterError("skinning weights must sum to 1 per vertex")

        roots = np.flatnonzero(parents < 0)
        if len(roots) != 1:
            raise ParameterError("joint tree must have exactly one root")
        topo = _topological_order(parents)
        object.__setattr__(self, "_topo", topo)

        rest = np.zeros((J, 3))
        for j in topo:
            p = parents[j]
            rest[j] = offsets[j] if p < 0 else rest[p] + offsets[j]
        object.__setattr__(self, "_rest_joints", rest)

        degenerate = _degenerate_faces(v, f)
        if degenerate.size:
            raise GeometryError(
                f"degenerate (zero-area) faces at load time: {degenerate[:8].tolist()}")

        # nonzero skinning entries, joint-major with vertices ascending:
        # joint j owns the slice _lbs_bounds[j]:_lbs_bounds[j + 1]
        joints, verts = np.nonzero(w.T)
        bounds = np.concatenate([[0], np.cumsum(np.bincount(joints, minlength=J))])
        object.__setattr__(self, "_lbs_verts", verts)
        object.__setattr__(self, "_lbs_joints", joints)
        object.__setattr__(self, "_lbs_bounds", bounds)
        object.__setattr__(self, "_lbs_template", v[verts])
        object.__setattr__(self, "_lbs_weights", w[verts, joints][:, None])

    @property
    def num_vertices(self):
        return len(self.template_vertices)

    @property
    def num_joints(self):
        return len(self.joint_parents)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_params(self):
        """Length of the packed parameter vector: 3 per joint + translation + shape."""
        return 3 * self.num_joints + 6


def _topological_order(parents):
    J = len(parents)
    order = []
    state = np.zeros(J, dtype=int)  # 0 unvisited, 1 on stack, 2 done
    for start in range(J):
        chain = []
        j = start
        while j >= 0 and state[j] == 0:
            state[j] = 1
            chain.append(j)
            j = parents[j]
        if j >= 0 and state[j] == 1:
            raise ParameterError("joint tree contains a cycle")
        for node in reversed(chain):
            state[node] = 2
            order.append(node)
    return np.array(order, dtype=int)


def _degenerate_faces(verts, faces):
    a = verts[faces[:, 0]]
    cross = np.cross(verts[faces[:, 1]] - a, verts[faces[:, 2]] - a)
    area2 = np.linalg.norm(cross, axis=1)
    return np.flatnonzero(area2 < _DEGENERATE_AREA)


@dataclass
class PoseParams:
    """Optimization variable: per-joint axis-angle rotations, global
    translation and per-axis shape scaling coefficients (0 = template)."""

    joint_rotations: np.ndarray  # (J, 3)
    translation: np.ndarray     # (3,)
    shape: np.ndarray           # (3,)

    def __post_init__(self):
        self.joint_rotations = np.array(self.joint_rotations, dtype=float)
        self.translation = np.array(self.translation, dtype=float)
        self.shape = np.array(self.shape, dtype=float)
        if self.joint_rotations.ndim != 2 or self.joint_rotations.shape[1] != 3:
            raise ParameterError("joint_rotations must be (J, 3)")
        if self.translation.shape != (3,) or self.shape.shape != (3,):
            raise ParameterError("translation and shape must be 3-vectors")
        if not (np.isfinite(self.joint_rotations).all()
                and np.isfinite(self.translation).all()
                and np.isfinite(self.shape).all()):
            raise ParameterError("pose parameters must be finite")

    @classmethod
    def identity(cls, num_joints):
        return cls(np.zeros((num_joints, 3)), np.zeros(3), np.zeros(3))

    def copy(self):
        return PoseParams(self.joint_rotations.copy(),
                          self.translation.copy(), self.shape.copy())

    def to_vector(self):
        return np.concatenate([self.joint_rotations.ravel(),
                               self.translation, self.shape])

    @classmethod
    def from_vector(cls, vec, num_joints):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (3 * num_joints + 6,):
            raise ParameterError("parameter vector has the wrong length")
        return cls(vec[:3 * num_joints].reshape(num_joints, 3),
                   vec[3 * num_joints:3 * num_joints + 3],
                   vec[3 * num_joints + 3:])


def _check_dims(model, params):
    if params.joint_rotations.shape[0] != model.num_joints:
        raise ParameterError(
            f"params have {params.joint_rotations.shape[0]} joints, "
            f"model has {model.num_joints}")


def _forward_kinematics(model, params):
    """Shape-scaled rest joints (J, 3), local rotations R and global
    rotations G (J, 3, 3), and global positions p (J, 3)."""
    rest = model._rest_joints * (1.0 + params.shape)
    parents = model.joint_parents
    J = model.num_joints
    R = rodrigues_batch(params.joint_rotations)
    G = np.empty((J, 3, 3))
    p = np.empty((J, 3))
    for j in model._topo:
        par = parents[j]
        if par < 0:
            G[j] = R[j]
            p[j] = rest[j] + params.translation
        else:
            G[j] = G[par] @ R[j]
            p[j] = p[par] + G[par] @ (rest[j] - rest[par])
    return rest, R, G, p


def joint_transforms(model, params):
    """Global joint rotations (J, 3, 3) and posed joint centers (J, 3)
    from forward kinematics (before the regressor)."""
    _check_dims(model, params)
    _, _, G, p = _forward_kinematics(model, params)
    return G, p


def scatter_rows(rows, ids, num_rows):
    """Sum the rows (N, C) into (num_rows, C) by row index ids (N,), added
    in the given order as np.add.at adds them, so the sums agree with it
    to the bit."""
    rows = np.asarray(rows, dtype=float)
    out = np.empty((num_rows, rows.shape[1]))
    for k in range(rows.shape[1]):
        out[:, k] = np.bincount(ids, rows[:, k], minlength=num_rows)
    return out


def pose_mesh(model, params):
    """Pose the template with LBS. Returns posed vertices (V, 3).

    The skinning entries are kept joint-major, so each vertex sums its
    joints' terms in joint order; one matmul per joint keeps every term's
    bits (a batched einsum rounds differently).
    """
    _check_dims(model, params)
    rest, _, G, p = _forward_kinematics(model, params)
    joints = model._lbs_joints
    local = model._lbs_template * (1.0 + params.shape) - np.take(rest, joints, axis=0)
    moved = np.empty_like(local)
    bounds = model._lbs_bounds
    for j in range(model.num_joints):
        if bounds[j + 1] > bounds[j]:
            np.matmul(local[bounds[j]:bounds[j + 1]], G[j].T,
                      out=moved[bounds[j]:bounds[j + 1]])
    terms = model._lbs_weights * (moved + np.take(p, joints, axis=0))
    return scatter_rows(terms, model._lbs_verts, model.num_vertices)


def pose_mesh_vjp(model, params, grad_verts):
    """Gradient over the packed parameter vector [rotations, translation,
    shape] of a scalar whose gradient w.r.t. the posed vertices is
    grad_verts (V, 3).

    Reverse mode: grad_verts is pulled back through LBS, then through
    forward kinematics in reverse topological order, then through the
    Rodrigues Jacobians; pose_mesh_with_jacobian is its dense oracle.
    """
    _check_dims(model, params)
    gv = np.asarray(grad_verts, dtype=float)
    if gv.shape != (model.num_vertices, 3):
        raise ParameterError("grad_verts must be (V, 3)")
    rest, R, G, _ = _forward_kinematics(model, params)
    parents = model.joint_parents
    W = model.skinning_weights
    J = model.num_joints
    scale = 1.0 + params.shape

    # LBS: verts = sum_j w_vj (G_j (template_v * scale - rest_j) + p_j)
    g_p = W.T @ gv                                         # (J, 3)
    outer = (gv[:, :, None] * model.template_vertices[:, None, :]).reshape(-1, 9)
    g_template = (W.T @ outer).reshape(J, 3, 3)            # sum_v w_vj g_v t_v^T
    g_G = g_template * scale - g_p[:, :, None] * rest[:, None, :]
    g_rest = -np.einsum("jab,ja->jb", G, g_p)
    g_shape = np.einsum("jak,jak->k", G, g_template)

    # FK: G_j = G_par R_j, p_j = p_par + G_par (rest_j - rest_par)
    g_R = np.empty((J, 3, 3))
    for j in model._topo[::-1]:
        par = parents[j]
        if par < 0:  # G_root = R_root, p_root = rest_root + translation
            g_R[j] = g_G[j]
            g_rest[j] += g_p[j]
            continue
        g_R[j] = G[par].T @ g_G[j]
        g_G[par] += g_G[j] @ R[j].T + np.outer(g_p[j], rest[j] - rest[par])
        g_p[par] += g_p[j]
        g_offset = G[par].T @ g_p[j]
        g_rest[j] += g_offset
        g_rest[par] -= g_offset
    g_shape += (g_rest * model._rest_joints).sum(axis=0)

    g_rot = np.einsum("jab,jiab->ji", g_R,
                      rodrigues_jacobian_batch(params.joint_rotations))
    return np.concatenate([g_rot.ravel(), g_p[model._topo[0]], g_shape])


def _joint_entries(model, j):
    """Vertex ids and weights of joint j's nonzero skinning entries."""
    lo, hi = model._lbs_bounds[j], model._lbs_bounds[j + 1]
    return model._lbs_verts[lo:hi], model._lbs_weights[lo:hi, 0]


def pose_mesh_with_jacobian(model, params):
    """Posed vertices plus the dense Jacobian (V, 3, P) w.r.t. the packed
    parameter vector [rotations, translation, shape]: the test oracle of
    pose_mesh_vjp."""
    _check_dims(model, params)
    rest, R, G, p = _forward_kinematics(model, params)
    v_scaled = model.template_vertices * (1.0 + params.shape)
    parents = model.joint_parents
    topo = model._topo
    J = model.num_joints
    V = model.num_vertices
    P = model.num_params

    verts = np.zeros((V, 3))
    local = []  # per joint: weighted template offsets in the joint frame
    for j in range(J):
        idx, w = _joint_entries(model, j)
        local.append(v_scaled[idx] - rest[j])
        if len(idx):
            verts[idx] += w[:, None] * (local[j] @ G[j].T + p[j])

    jac = np.zeros((V, 3, P))

    # rotation parameters: propagate dG/dp down the subtree of each joint
    dR_all = [rodrigues_jacobian(params.joint_rotations[j]) for j in range(J)]
    for m in range(J):
        for k in range(3):
            col = 3 * m + k
            dG = {}
            dp = {}
            for j in topo:
                par = parents[j]
                if j == m:
                    dRmk = dR_all[m][k]
                    dG[j] = dRmk if par < 0 else G[par] @ dRmk
                    dp[j] = np.zeros(3)
                elif par in dG:
                    dG[j] = dG[par] @ R[j]
                    dp[j] = dp[par] + dG[par] @ (rest[j] - rest[par])
            for j, dGj in dG.items():
                idx, w = _joint_entries(model, j)
                if len(idx):
                    jac[idx, :, col] += w[:, None] * (local[j] @ dGj.T + dp[j])

    # translation: all joints inherit it and weights sum to 1
    for k in range(3):
        jac[:, k, 3 * J + k] = 1.0

    # shape: template and rest joints scale per axis
    rest_unscaled = model._rest_joints
    for k in range(3):
        col = 3 * J + 3 + k
        drest = np.zeros((J, 3))
        drest[:, k] = rest_unscaled[:, k]
        dp = np.empty((J, 3))
        for j in topo:
            par = parents[j]
            if par < 0:
                dp[j] = drest[j]
            else:
                dp[j] = dp[par] + G[par] @ (drest[j] - drest[par])
        for j in range(J):
            idx, w = _joint_entries(model, j)
            if len(idx) == 0:
                continue
            dv = np.zeros((len(idx), 3))
            dv[:, k] = model.template_vertices[idx, k]
            jac[idx, :, col] += w[:, None] * ((dv - drest[j]) @ G[j].T + dp[j])

    return verts, jac


def joint_positions(model, params):
    """Posed joint centers: regressor applied to the posed vertices."""
    return model.joint_regressor @ pose_mesh(model, params)


@dataclass
class FacetGeometry:
    """Per-facet centers and unit normals of a posed mesh, (F, 3) arrays."""

    centers: np.ndarray
    normals: np.ndarray


def _cross(u, v):
    """np.cross of 3-vectors stored as component rows (3, N), computed by
    component as np.cross computes it, so it agrees to the bit."""
    return np.stack([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _norm(m):
    """Lengths of 3-vectors stored as component rows (3, N), summed in
    np.linalg.norm(axis=1) order."""
    return np.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])


def _face_corners(verts, faces):
    """Corners a, b, c of every face as component rows (3, F) each."""
    corners = np.take(np.ascontiguousarray(verts.T), faces.T, axis=1)  # (3, corner, F)
    return corners[:, 0], corners[:, 1], corners[:, 2]


def facet_geometry(verts, faces):
    """Centers (mean of corners) and unit normals (winding order) per facet.

    Raises GeometryError listing offending faces when any face is degenerate.
    """
    verts = np.asarray(verts, dtype=float)
    faces = np.asarray(faces, dtype=int)
    if faces.min(initial=0) < 0 or faces.max(initial=-1) >= len(verts):
        raise ParameterError("face references an invalid vertex index")
    a, b, c = _face_corners(verts, faces)
    centers = (a + b + c) / 3.0
    cross = _cross(b - a, c - a)
    norms = _norm(cross)
    bad = np.flatnonzero(norms < _DEGENERATE_AREA)
    if bad.size:
        raise GeometryError(f"degenerate faces (zero normal): {bad[:8].tolist()}")
    return FacetGeometry(np.ascontiguousarray(centers.T),
                         np.ascontiguousarray((cross / norms).T))


def facet_normal_vjp(verts, faces, grad_normals):
    """Gradient w.r.t. the vertices (V, 3) of a scalar whose gradient
    w.r.t. the unit facet normals is grad_normals (F, 3).

    With n = m / |m| and m = (b - a) x (c - a), the normal's gradient g
    maps to g_m = (g - n (n . g)) / |m|, then to the corners through the
    cross product. Only faces with a nonzero gradient row are visited, and
    the corner terms are summed corner by corner, in face order;
    facet_normal_vertex_jacobian is its dense oracle.
    """
    verts = np.asarray(verts, dtype=float)
    faces = np.asarray(faces, dtype=int)
    grad_normals = np.asarray(grad_normals, dtype=float)
    face_ids = np.flatnonzero(np.any(grad_normals != 0.0, axis=1))
    if face_ids.size == 0:
        return np.zeros_like(verts)
    tri = faces[face_ids]
    a, b, c = _face_corners(verts, tri)
    u = b - a
    v = c - a
    m = _cross(u, v)
    mn = _norm(m)
    bad = face_ids[mn < _DEGENERATE_AREA]
    if bad.size:
        raise GeometryError(f"degenerate faces in normal gradient: {bad[:8].tolist()}")
    n = m / mn
    g = np.ascontiguousarray(grad_normals[face_ids].T)
    g_m = (g - n * (n[0] * g[0] + n[1] * g[1] + n[2] * g[2])) / mn
    g_u = _cross(v, g_m)
    g_v = _cross(g_m, u)
    rows = np.concatenate([-g_u - g_v, g_u, g_v], axis=1)
    return scatter_rows(rows.T, tri.T.ravel(), len(verts))


def facet_normal_vertex_jacobian(verts, faces, face_ids):
    """d(normal)/d(corner vertices) for the selected faces: the dense
    oracle of facet_normal_vjp.

    Returns (len(face_ids), 3, 3, 3): [f, corner, normal_component, vertex_component].
    """
    verts = np.asarray(verts, dtype=float)
    out = np.empty((len(face_ids), 3, 3, 3))
    for row, fid in enumerate(face_ids):
        ia, ib, ic = faces[fid]
        a, b, c = verts[ia], verts[ib], verts[ic]
        u = b - a
        v = c - a
        m = np.cross(u, v)
        mn = np.linalg.norm(m)
        if mn < _DEGENERATE_AREA:
            raise GeometryError(f"degenerate face {fid} in normal jacobian")
        n = m / mn
        proj = (np.eye(3) - np.outer(n, n)) / mn
        sk_u = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
        sk_v = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
        out[row, 0] = proj @ (sk_v - sk_u)
        out[row, 1] = proj @ (-sk_v)
        out[row, 2] = proj @ sk_u
    return out


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: x_cam = rotation @ x_world + translation, then
    perspective division onto the (fx, fy, cx, cy) intrinsics."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ParameterError(f"camera {name} must be finite")
            object.__setattr__(self, name, check_number(f"camera {name}", value, float))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        for name in ("rotation", "translation"):
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(f"camera {name} must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ParameterError("focal lengths must be positive")
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ParameterError("camera extrinsics must be (3,3) rotation and 3-vector")
        if (np.abs(self.rotation @ self.rotation.T - np.eye(3)).max() > _ROTATION_TOL
                or np.linalg.det(self.rotation) <= 0.0):
            raise ParameterError("camera rotation must be orthonormal with determinant +1")

    def transform(self, points):
        """World points (N, 3) or (3,) to camera coordinates."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def project(camera, points):
    """Project world points to pixel coordinates.

    Accepts a single (3,) point or an (N, 3) batch; raises ProjectionError
    when any point has non-positive depth.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    cam = camera.transform(pts.reshape(-1, 3))
    z = cam[:, 2]
    if (z <= 0.0).any():
        raise ProjectionError("point behind camera (non-positive depth)")
    uv = np.empty((len(cam), 2))
    uv[:, 0] = camera.fx * cam[:, 0] / z + camera.cx
    uv[:, 1] = camera.fy * cam[:, 1] / z + camera.cy
    return uv[0] if single else uv

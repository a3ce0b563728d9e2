"""Contact-consistent body fitting: the full objective and its optimizer.

The objective combines keypoint reprojection, pose/shape regularization, a
sphere-proxy self-collision penalty and the contact consistency terms.
Descent is plain gradient descent with Armijo backtracking; the
nearest-neighbour matches of the contact terms are recomputed at the start
of every evaluation and frozen inside each gradient (ICP-style).

Two private functions evaluate the objective: `_match` matches the facets
of each contact pair afresh and gives their distance, `_frozen` the other
terms for given matches. The line search evaluates values only. The
gradient is reverse mode: every term's gradient w.r.t. the posed vertices
is summed and pulled back once through LBS, forward kinematics and the
Rodrigues Jacobians (body.pose_mesh_vjp). The dense vertex Jacobian (pose_mesh_with_jacobian)
and the per-face normal Jacobians are only test oracles.

The kernels of one evaluation are array code that adds its terms in the
order the plain loops did, so every value and gradient is the loops' to
the bit. A problem keeps the posed vertices and facet geometry of its last
point, so the gradient at the point the line search accepted does not
pose the mesh again.
"""

import warnings
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .body import PoseParams, facet_geometry, facet_normal_vjp, pose_mesh, pose_mesh_vjp
from .contact import _CONTACT, _key, _norm_pair, _pair_states, _triangle
from .contact_geometry import loss_distance, loss_distance_frozen, loss_normal
from .errors import (CodecError, GeometryError, OptimizationError, ParameterError,
                     check_integers, check_number, check_settings)
from .regions import SELECTION_MODES
from .spatial import _row_dots, _squared_length, scatter_rows


@dataclass(frozen=True)
class ObjectiveWeights:
    """Term weights of the reconstruction objective."""

    lambda_s: float = 1.0
    lambda_psr: float = 1e-2
    lambda_col: float = 1.0
    lambda_d: float = 1.0
    lambda_n: float = 0.1
    lambda_pose: float = 1.0   # rotation part inside the regularizer
    lambda_shape: float = 1.0  # shape part inside the regularizer

    def __post_init__(self):
        check_settings(self)
        if min(astuple(self)) < 0:
            raise ParameterError("objective weights must be non-negative")


@dataclass(frozen=True)
class OptimizerSettings:
    iterations: int = 300
    step_size: float = 1.0
    armijo_c: float = 1e-4
    max_backtracks: int = 40

    def __post_init__(self):
        check_settings(self)
        if self.iterations < 0 or self.step_size <= 0 or self.max_backtracks < 1:
            raise ParameterError("invalid optimizer settings")


@dataclass
class LossBreakdown:
    """Raw (unweighted) per-term values for one objective evaluation."""

    l_s: float
    l_psr: float
    l_col: float
    l_d: float
    l_n: float
    total: float  # weighted sum


@dataclass
class CollisionProxySet:
    """Per-region bounding sphere plus the region pairs the penalty skips.

    The sphere center is the posed region centroid. `excluded` holds
    region pairs, given in either order and kept as (lo, hi); a pair on the
    diagonal or outside the len(radii) regions is a ParameterError. The
    pairs the penalty measures are worked out once, as a read-only boolean
    vector over the packed upper triangle of the regions (`contact._key`),
    the layout of a signature's state vector.
    """

    radii: np.ndarray  # (N_R,)
    excluded: set      # of (lo, hi) region pairs

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if (self.radii <= 0).any():
            raise ParameterError("proxy radii must be positive")
        n = len(self.radii)
        self.excluded = {_norm_pair(a, b, n) for a, b in self.excluded}
        lo, hi = np.array(list(self.excluded), dtype=np.int64).reshape(-1, 2).T
        self._kept = np.ones(n * (n - 1) // 2, dtype=bool)
        self._kept[_key(lo, hi, n)] = False
        self._kept.flags.writeable = False


def fit_collision_proxies(centers, region_map, min_radius=5e-3):
    """Bounding spheres of the region facet centers at the given pose.

    Region pairs already penetrating at fit time are excluded: the penalty
    is meant to punish new, pose-induced penetrations only.
    """
    n = region_map.granularity
    centroids = np.empty((n, 3))
    radii = np.empty(n)
    regions = np.split(np.asarray(centers)[region_map._facets], region_map._bounds[1:-1])
    for r, pts in enumerate(regions):  # one region at a time: `mean` adds pairwise
        centroids[r] = pts.mean(axis=0)
        radii[r] = max(float(np.sqrt(_squared_length((pts - centroids[r]).T)).max()),
                       min_radius)
    lo, hi = _triangle(n)
    diff = centroids[lo] - centroids[hi]
    near = np.sqrt(_row_dots(diff, diff)) < radii[lo] + radii[hi]
    return CollisionProxySet(radii, set(zip(lo[near].tolist(), hi[near].tolist())))


def loss_collision(centers, region_map, proxies, sig=None, with_jacobian=True):
    """Sphere-penetration penalty over non-excluded region pairs.

    Pairs marked contact in the signature are skipped (they are supposed to
    touch). Returns (value, grad w.r.t. facet centers (F, 3)) or, when
    with_jacobian=False, the value alone.

    Every pair of the packed upper triangle is measured; the excluded and
    contact pairs are masked out of the active ones. Each region sums its
    partners' gradient terms in partner order, so the result is the dense
    (n, n) computation's to the bit.
    """
    centers = np.asarray(centers, dtype=float)
    n = region_map.granularity
    if len(proxies.radii) != n:
        raise ParameterError("proxy count does not match region map granularity")
    if sig is not None and sig.granularity != n:
        raise ParameterError("signature and region map granularities differ")
    f2r = region_map.facet_to_region
    counts = region_map._counts[:, None]
    cents = scatter_rows(centers, f2r, n) / counts

    lo, hi = _triangle(n)
    diff = np.take(cents, lo, axis=0) - np.take(cents, hi, axis=0)
    d = np.sqrt(_squared_length(diff.T))
    pen = np.take(proxies.radii, lo) + np.take(proxies.radii, hi) - d
    active = proxies._kept & (pen > 0.0) & (d > 1e-12)
    if sig is not None:
        active &= _pair_states(sig)[2] != _CONTACT
    lo, hi, pen, d, diff = lo[active], hi[active], pen[active], d[active], diff[active]
    value = float((pen ** 2).sum())
    if not with_jacobian:
        return value
    term = (-2.0 * pen / d)[:, None] * diff
    region = np.concatenate([lo, hi])
    order = np.argsort(region * n + np.concatenate([hi, lo]))
    grad_cents = scatter_rows(np.concatenate([term, -term])[order], region[order], n)
    return value, np.take(grad_cents / counts, f2r, axis=0)


def _projection_terms(model, verts, camera, keypoints, joint_ids, want_grad):
    """Projection loss from precomputed posed vertices. Returns (value,
    gradient w.r.t. the posed vertices (V, 3), or None without want_grad)."""
    joints = model.joint_regressor @ verts
    cam_pts = camera.transform(joints[joint_ids])
    visible = cam_pts[:, 2] > 0.0
    if not visible.all():
        warnings.warn(f"{int((~visible).sum())} keypoint joint(s) behind camera; "
                      f"masked out", stacklevel=3)
    grad = np.zeros((model.num_vertices, 3)) if want_grad else None
    if not visible.any():
        return 0.0, grad

    k_vis = int(visible.sum())
    x, y, z = cam_pts[visible].T
    res = np.stack([camera.fx * x / z + camera.cx,
                    camera.fy * y / z + camera.cy], axis=1) - keypoints[visible]
    value = float((res * res).sum())
    if want_grad:
        # d(mean squared residual)/d(camera point), then back to world
        gu = (2.0 / k_vis) * camera.fx * res[:, 0] / z
        gv = (2.0 / k_vis) * camera.fy * res[:, 1] / z
        d_cam = np.stack([gu, gv, -(gu * x + gv * y) / z], axis=1)
        grad = model.joint_regressor[joint_ids[visible]].T @ (d_cam @ camera.rotation)
    return value / k_vis, grad


def _keypoint_arrays(model, keypoints, keypoint_joints):
    """keypoints (K, 2) and keypoint_joints (K,) as float and int arrays;
    a check that fails is a ParameterError naming the field."""
    keypoints = np.asarray(keypoints, dtype=float)
    joint_ids = check_integers("keypoint_joints", keypoint_joints)
    if keypoints.ndim != 2 or keypoints.shape[1] != 2:
        raise ParameterError("keypoints must be (K, 2)")
    if len(joint_ids) != len(keypoints):
        raise ParameterError("keypoint_joints must hold one joint id per keypoint")
    if len(keypoints) > model.num_joints:
        raise ParameterError("more keypoints than joints")
    if ((joint_ids < 0) | (joint_ids >= model.num_joints)).any():
        raise ParameterError(f"keypoint_joints must lie in [0, {model.num_joints})")
    if not np.isfinite(keypoints).all():
        raise ParameterError("keypoints must be finite")
    return keypoints, joint_ids


def loss_projection(model, params, camera, keypoints, keypoint_joints,
                    with_jacobian=True):
    """Mean squared pixel error of projected joints against 2D targets.

    Joints behind the camera are masked out with a warning. Returns
    (value, grad over packed params) or just the value when
    with_jacobian=False.
    """
    keypoints, joint_ids = _keypoint_arrays(model, keypoints, keypoint_joints)
    verts = pose_mesh(model, params)
    value, grad_verts = _projection_terms(model, verts, camera, keypoints,
                                          joint_ids, with_jacobian)
    if not with_jacobian:
        return value
    return value, pose_mesh_vjp(model, params, grad_verts)


def loss_regularizer(params, init, lambda_pose=1.0, lambda_shape=1.0,
                     with_jacobian=True):
    """Quadratic pull of rotations toward the initial pose and shape toward
    zero. Returns (value, grad over packed params)."""
    drot = params.joint_rotations - init.joint_rotations
    value = lambda_pose * float((drot ** 2).sum()) \
        + lambda_shape * float((params.shape ** 2).sum())
    if not with_jacobian:
        return value
    grad = np.zeros(3 * len(params.joint_rotations) + 6)
    grad[:drot.size] = 2.0 * lambda_pose * drot.ravel()
    grad[-3:] = 2.0 * lambda_shape * params.shape
    return value, grad


@dataclass
class ReconstructionProblem:
    model: object
    region_map: object
    camera: object
    keypoints: np.ndarray       # (K, 2) pixel targets
    keypoint_joints: np.ndarray  # (K,) joint index per keypoint (the mask)
    signature: object
    initial_params: PoseParams
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    settings: OptimizerSettings = field(default_factory=OptimizerSettings)
    proxies: CollisionProxySet = None  # fitted at the initial pose when None
    selection_mode: str = "all"
    selection_k: int = 2
    # (model, parameter bytes, posed vertices, facet geometry) of the last point
    _last_posed: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keypoints, self.keypoint_joints = _keypoint_arrays(
            self.model, self.keypoints, self.keypoint_joints)
        if self.signature.granularity != self.region_map.granularity:
            raise ParameterError("signature and region map granularities differ")
        if self.selection_mode not in SELECTION_MODES:
            raise ParameterError(f"unknown selection mode {self.selection_mode!r}")
        self.selection_k = check_number("selection_k", self.selection_k, int)
        if self.selection_mode == "subset" and self.selection_k < 1:
            raise ParameterError("subset step selection_k must be >= 1")
        if self.proxies is None:
            centers = _posed(self, self.initial_params)[1].centers
            self.proxies = fit_collision_proxies(centers, self.region_map)
        elif len(self.proxies.radii) != self.region_map.granularity:
            raise ParameterError("proxies must hold one radius per region")


def problem_options(config, path=None):
    """The weights, settings, selection_mode and selection_k keywords of a
    ReconstructionProblem from a config mapping (say, `io.load_config`'s).
    An unknown key, or a value that does not cast to its field's type without
    loss (`check_number`), is a CodecError naming the key and the file."""
    types = {"selection_mode": str, "selection_k": int}
    for cls in (ObjectiveWeights, OptimizerSettings):
        types.update((f.name, type(f.default)) for f in fields(cls))
    unknown = sorted(set(config) - set(types))
    if unknown:
        raise CodecError("unknown key", path=path, field=unknown[0])
    kw = {}
    for key, value in config.items():
        cast = types[key]
        try:
            kw[key] = str(value) if cast is str else check_number(key, value, cast)
        except (ParameterError, OverflowError) as e:  # an int past float range
            raise CodecError(str(e), path=path, field=key) from e
    options = {name: cls(**{f.name: kw.pop(f.name) for f in fields(cls) if f.name in kw})
               for name, cls in (("weights", ObjectiveWeights), ("settings", OptimizerSettings))}
    return options | kw  # and the selection keys left in kw


def _scatter_centers_to_vertices(grad_centers, faces, num_vertices):
    """Each facet center's gradient, a third to each corner, summed corner
    by corner in face order."""
    return scatter_rows(np.tile(grad_centers / 3.0, (3, 1)), faces.T.ravel(),
                        num_vertices)


def _posed(problem, params):
    """pose_mesh and facet_geometry at params. The problem keeps those of
    its last point and reuses them when the model and the parameters'
    bytes are the same: optimize asks for the gradient at the point
    evaluate_breakdown just accepted."""
    model = problem.model
    key = params.to_vector().tobytes()
    last = problem._last_posed
    if last is not None and last[0] is model and last[1] == key:
        return last[2], last[3]
    verts = pose_mesh(model, params)
    geom = facet_geometry(verts, model.faces)
    problem._last_posed = (model, key, verts, geom)
    return verts, geom


def _match(problem, params):
    """Fresh contact matches at params: (l_d, MatchSet), where l_d is the
    sum of each contact pair's phi distance."""
    centers = _posed(problem, params)[1].centers
    return loss_distance(centers, problem.signature, problem.region_map,
                         mode=problem.selection_mode, k=problem.selection_k)


def _frozen(problem, params, matches, want_grad, l_d=None):
    """The weighted objective at params with the contact matches frozen:
    (LossBreakdown, gradient over packed params or None). l_d is the
    matches' frozen distance sum unless given: the line search passes
    _match's fresh value and wants no gradient, so no term computes one.
    """
    model = problem.model
    w = problem.weights
    verts, geom = _posed(problem, params)

    def term(loss, *args):  # (value, gradient or None)
        out = loss(*args, with_jacobian=want_grad)
        return out if want_grad else (out, None)

    l_s, g_s = _projection_terms(model, verts, problem.camera, problem.keypoints,
                                 problem.keypoint_joints, want_grad)
    l_psr, g_psr = term(loss_regularizer, params, problem.initial_params,
                        w.lambda_pose, w.lambda_shape)
    l_col, g_col = term(loss_collision, geom.centers, problem.region_map,
                        problem.proxies, problem.signature)
    if l_d is None:
        l_d, g_d = loss_distance_frozen(geom.centers, matches)
    l_n, g_n = term(loss_normal, geom.normals, matches) if matches.entries else (0.0, None)
    total = (w.lambda_s * l_s + w.lambda_psr * l_psr + w.lambda_col * l_col
             + w.lambda_d * l_d + w.lambda_n * l_n)
    breakdown = LossBreakdown(l_s, l_psr, l_col, l_d, l_n, total)
    for name in ("l_s", "l_psr", "l_col", "l_d", "l_n"):
        if not np.isfinite(getattr(breakdown, name)):
            raise OptimizationError(f"loss term {name} is non-finite")
    if not want_grad:
        return breakdown, None

    grad_verts = _scatter_centers_to_vertices(
        w.lambda_col * g_col + w.lambda_d * g_d, model.faces, model.num_vertices)
    grad_verts += w.lambda_s * g_s
    if g_n is not None and w.lambda_n != 0.0:
        grad_verts += facet_normal_vjp(verts, model.faces, w.lambda_n * g_n)
    grad = pose_mesh_vjp(model, params, grad_verts)
    grad += w.lambda_psr * g_psr
    return breakdown, grad


def evaluate_breakdown(problem, params):
    """Per-term values at params with fresh contact matches. Returns
    (LossBreakdown, MatchSet)."""
    l_d, matches = _match(problem, params)
    return _frozen(problem, params, matches, False, l_d)[0], matches


def evaluate_gradient(problem, params, matches=None):
    """Weighted-total gradient over packed params with the contact matches
    frozen: the given ones (those evaluate_breakdown found at params), or
    fresh ones when None."""
    if matches is None:
        matches = _match(problem, params)[1]
    return _frozen(problem, params, matches, True)[1]


def optimize(problem):
    """Minimize the objective from the problem's initial parameters.

    Returns (final PoseParams, trace) where trace is the list of
    LossBreakdown rows at the initial point and after every accepted step;
    the total column is non-increasing by construction. Stops early when no
    backtracked step achieves the Armijo decrease.
    """
    model = problem.model
    settings = problem.settings
    x = problem.initial_params.to_vector()
    params = PoseParams.from_vector(x, model.num_joints)
    breakdown, matches = evaluate_breakdown(problem, params)
    trace = [breakdown]
    alpha = settings.step_size

    for _ in range(settings.iterations):
        # the matches evaluate_breakdown found at params are the ones a
        # fresh gradient would recompute there
        grad = evaluate_gradient(problem, params, matches)
        if not np.isfinite(grad).all():
            raise OptimizationError("gradient is non-finite")
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            break
        accepted = False
        a = alpha
        for _ in range(settings.max_backtracks):
            x_new = x - a * grad
            try:
                params_new = PoseParams.from_vector(x_new, model.num_joints)
                breakdown_new, matches_new = evaluate_breakdown(problem, params_new)
            except (OptimizationError, GeometryError):
                # a non-finite term or a degenerate facet: a shorter step
                a *= 0.5
                continue
            if breakdown_new.total <= breakdown.total - settings.armijo_c * a * gnorm2:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            break
        x, params, breakdown, matches = x_new, params_new, breakdown_new, matches_new
        trace.append(breakdown)
        alpha = min(a * 4.0, settings.step_size)

    return params, trace

import numpy as np
import pytest

from contactfit.body import BodyModel, Camera, PoseParams
from contactfit.synthetic import _JOINT_POSITIONS, JOINT_NAMES, build_synthetic_body


def fd_gradient(f, x, step=1e-5):
    """Central finite differences of a scalar function over an array."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    g = np.zeros(flat.size)
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return g.reshape(x.shape)


def rel_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    denom = max(float(np.linalg.norm(numeric)), floor)
    return float(np.linalg.norm(analytic - numeric)) / denom


def synthetic_rest_joints():
    """The synthetic body's (J, 3) rest joint centers, in JOINT_NAMES order."""
    return np.array([_JOINT_POSITIONS[name] for name in JOINT_NAMES], dtype=float)


def single_joint_model(joint_at=(0.5, 0.0, 0.0)):
    """One joint, three vertices all rigidly skinned to it."""
    verts = np.array([[1.0, 0.0, 0.0], [1.5, 0.0, 0.0], [1.0, 1.0, 0.0]])
    faces = np.array([[0, 1, 2]])
    weights = np.ones((3, 1))
    regressor = np.array([[1.0, 1.0, -1.0]])  # affine combo hitting the joint
    reg_target = np.asarray(joint_at, dtype=float)
    # solve a 3-vertex affine combination for the joint position
    A = np.vstack([verts.T, np.ones(3)])
    w, *_ = np.linalg.lstsq(A, np.concatenate([reg_target, [1.0]]), rcond=None)
    regressor = w[None, :]
    return BodyModel(verts, faces, np.array([-1]), np.array([reg_target]),
                     weights, regressor)


def two_joint_model():
    """Chain of two joints with one half/half blended vertex."""
    verts = np.array([[0.0, 0.5, 0.0], [1.0, 0.5, 0.0], [2.0, 0.5, 0.0],
                      [0.0, 1.0, 0.5]])
    faces = np.array([[0, 1, 3], [1, 2, 3]])
    weights = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
    parents = np.array([-1, 0])
    offsets = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    regressor = np.zeros((2, 4))
    regressor[0, 0] = 1.0
    regressor[0, 1] = 0.0
    regressor[1, 1] = 1.0
    # make rows affine combos of the rest joints exactly
    A = np.vstack([verts.T, np.ones(4)])
    for j, target in enumerate(([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])):
        w, *_ = np.linalg.lstsq(A, np.concatenate([target, [1.0]]), rcond=None)
        regressor[j] = w
    return BodyModel(verts, faces, parents, offsets, weights, regressor)


def random_model(rng, n_joints=4, n_verts=15):
    """Small random articulated model for gradient/oracle tests."""
    parents = np.array([-1] + [int(rng.integers(0, j)) for j in range(1, n_joints)])
    offsets = rng.normal(0.0, 0.25, (n_joints, 3))
    verts = rng.normal(0.0, 0.5, (n_verts, 3))
    n_faces = max(1, n_verts // 3)
    faces = np.arange(3 * n_faces).reshape(n_faces, 3) % n_verts
    weights = np.zeros((n_verts, n_joints))
    for v in range(n_verts):
        picks = rng.choice(n_joints, size=min(n_joints, int(rng.integers(1, 4))),
                           replace=False)
        w = rng.random(len(picks)) + 0.1
        weights[v, picks] = w / w.sum()
    regressor = np.zeros((n_joints, n_verts))
    for j in range(n_joints):
        picks = rng.choice(n_verts, size=4, replace=False)
        w = rng.random(4) + 0.1
        regressor[j, picks] = w / w.sum()
    return BodyModel(verts, faces, parents, offsets, weights, regressor)


def random_params(rng, model, rot_scale=0.6, shape_scale=0.1):
    return PoseParams(rng.normal(0.0, rot_scale, (model.num_joints, 3)),
                      rng.normal(0.0, 0.3, 3),
                      rng.normal(0.0, shape_scale, 3))


def simple_camera(fx=400.0, fy=420.0, cx=160.0, cy=120.0):
    """Camera looking down -z from z=+4 so the origin is in front of it."""
    R = np.diag([1.0, -1.0, -1.0])
    C = np.array([0.0, 0.0, 4.0])
    return Camera(fx=fx, fy=fy, cx=cx, cy=cy, rotation=R, translation=-R @ C)


@pytest.fixture(scope="session")
def synthetic_body():
    return build_synthetic_body()

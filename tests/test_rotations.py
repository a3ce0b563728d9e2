import numpy as np
import pytest

from contactfit.rotations import (axis_angle_from_matrix, rodrigues,
                                  rodrigues_batch, rodrigues_jacobian,
                                  rodrigues_jacobian_batch, rotation_between,
                                  skew)

from conftest import fd_gradient, rel_error


def test_identity():
    assert np.allclose(rodrigues([0, 0, 0]), np.eye(3))


def test_quarter_turn_about_z():
    R = rodrigues([0, 0, np.pi / 2])
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_orthonormal_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        R = rodrigues(rng.normal(0, 1.5, 3))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_skew_matches_cross():
    rng = np.random.default_rng(1)
    a, b = rng.normal(0, 1, (2, 3))
    assert np.allclose(skew(a) @ b, np.cross(a, b))


@pytest.mark.parametrize("seed", range(10))
def test_jacobian_matches_fd(seed):
    rng = np.random.default_rng(seed)
    rvec = rng.normal(0, 1.0, 3)
    jac = rodrigues_jacobian(rvec)
    for r in range(3):
        for c in range(3):
            num = fd_gradient(lambda v: float(rodrigues(v)[r, c]), rvec)
            ana = np.array([jac[k][r, c] for k in range(3)])
            assert rel_error(ana, num) < 1e-6


def test_jacobian_small_angle():
    jac = rodrigues_jacobian([0.0, 0.0, 0.0])
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.allclose(jac[i], skew(e))


def test_rotation_between():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = rng.normal(0, 1, 3)
        b = rng.normal(0, 1, 3)
        R = rodrigues(rotation_between(a, b))
        assert np.allclose(R @ (a / np.linalg.norm(a)), b / np.linalg.norm(b),
                           atol=1e-9)


def test_rotation_between_antiparallel():
    v = rotation_between([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert np.isclose(np.linalg.norm(v), np.pi)
    assert np.allclose(rodrigues(v) @ [1, 0, 0], [-1, 0, 0], atol=1e-9)


def test_axis_angle_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(0, 1.0, 3)
        R = rodrigues(v)
        assert np.allclose(rodrigues(axis_angle_from_matrix(R)), R, atol=1e-9)


def test_batch_matches_scalar_including_small_angles():
    rng = np.random.default_rng(4)
    rvecs = np.concatenate([
        rng.normal(0, 1.5, (40, 3)),
        np.zeros((1, 3)),
        rng.normal(0, 1e-9, (4, 3)),                   # t < 1e-8: Taylor branch
        [[1e-8, 0.0, 0.0], [0.0, 2e-8, 0.0], [np.pi, 0.0, 0.0]]])
    R = rodrigues_batch(rvecs)
    jac = rodrigues_jacobian_batch(rvecs)
    assert R.shape == (len(rvecs), 3, 3) and jac.shape == (len(rvecs), 3, 3, 3)
    for n, rvec in enumerate(rvecs):
        assert np.abs(R[n] - rodrigues(rvec)).max() <= 1e-15
        assert np.abs(jac[n] - rodrigues_jacobian(rvec)).max() <= 1e-15

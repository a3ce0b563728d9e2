"""Axis-angle rotations (Rodrigues' formula) and their derivatives."""

import numpy as np

# Below this angle the closed-form coefficients are replaced by their
# Taylor expansions to avoid 0/0.
_SMALL_ANGLE = 1e-8


def skew(v):
    """Cross-product matrix [v]x such that skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def rodrigues(rvec):
    """Rotation matrix for an axis-angle 3-vector.

    R = I + sin(t)/t [v]x + (1-cos(t))/t^2 [v]x^2 with t = ||v||.
    """
    rvec = np.asarray(rvec, dtype=float)
    t = np.linalg.norm(rvec)
    K = skew(rvec)
    if t < _SMALL_ANGLE:
        a = 1.0 - t * t / 6.0
        b = 0.5 - t * t / 24.0
    else:
        a = np.sin(t) / t
        b = (1.0 - np.cos(t)) / (t * t)
    return np.eye(3) + a * K + b * (K @ K)


def rodrigues_jacobian(rvec):
    """Derivative of rodrigues(rvec) w.r.t. each component.

    Returns an array of shape (3, 3, 3); entry [i] is dR/drvec[i].
    """
    rvec = np.asarray(rvec, dtype=float)
    t = np.linalg.norm(rvec)
    K = skew(rvec)
    K2 = K @ K
    out = np.empty((3, 3, 3))
    if t < _SMALL_ANGLE:
        a, b = 1.0, 0.5
        da = -rvec / 3.0
        db = -rvec / 12.0
    else:
        a = np.sin(t) / t
        b = (1.0 - np.cos(t)) / (t * t)
        da = rvec * (t * np.cos(t) - np.sin(t)) / t**3
        db = rvec * (t * np.sin(t) - 2.0 * (1.0 - np.cos(t))) / t**4
    for i in range(3):
        Ei = skew(np.eye(3)[i])
        out[i] = da[i] * K + a * Ei + db[i] * K2 + b * (Ei @ K + K @ Ei)
    return out


# skew(e_i) for the unit vectors e_i, stacked (3, 3, 3)
_BASIS_SKEW = np.array([skew(e) for e in np.eye(3)])


def _batch_coefficients(rvecs):
    """Per-row angle t, the skew matrices K (N, 3, 3) and K @ K, and the
    small-angle mask of a stack of axis-angle vectors (N, 3)."""
    rvecs = np.asarray(rvecs, dtype=float).reshape(-1, 3)
    # a dot per row, like the 1-D np.linalg.norm of rodrigues(), so t agrees to the bit
    t = np.sqrt((rvecs[:, None, :] @ rvecs[:, :, None])[:, 0, 0])
    K = np.zeros((len(rvecs), 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -rvecs[:, 2], rvecs[:, 1]
    K[:, 1, 0], K[:, 1, 2] = rvecs[:, 2], -rvecs[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -rvecs[:, 1], rvecs[:, 0]
    return rvecs, t, K, K @ K, t < _SMALL_ANGLE


def rodrigues_batch(rvecs):
    """rodrigues() of every row of an (N, 3) array: (N, 3, 3)."""
    _, t, K, K2, small = _batch_coefficients(rvecs)
    ts = np.where(small, 1.0, t)  # keeps the unused closed form finite
    a = np.where(small, 1.0 - t * t / 6.0, np.sin(ts) / ts)
    b = np.where(small, 0.5 - t * t / 24.0, (1.0 - np.cos(ts)) / (ts * ts))
    return np.eye(3) + a[:, None, None] * K + b[:, None, None] * K2


def rodrigues_jacobian_batch(rvecs):
    """rodrigues_jacobian() of every row of an (N, 3) array: (N, 3, 3, 3),
    entry [n, i] is dR_n/drvecs[n, i]."""
    rvecs, t, K, K2, small = _batch_coefficients(rvecs)
    ts = np.where(small, 1.0, t)
    sin, cos = np.sin(ts), np.cos(ts)
    a = np.where(small, 1.0, sin / ts)
    b = np.where(small, 0.5, (1.0 - cos) / (ts * ts))
    da = np.where(small[:, None], -rvecs / 3.0,
                  rvecs * ((ts * cos - sin) / ts**3)[:, None])
    db = np.where(small[:, None], -rvecs / 12.0,
                  rvecs * ((ts * sin - 2.0 * (1.0 - cos)) / ts**4)[:, None])
    EK = _BASIS_SKEW[None] @ K[:, None]  # (N, 3, 3, 3): E_i @ K_n
    KE = K[:, None] @ _BASIS_SKEW[None]
    return (da[:, :, None, None] * K[:, None] + a[:, None, None, None] * _BASIS_SKEW
            + db[:, :, None, None] * K2[:, None]
            + b[:, None, None, None] * (EK + KE))


def rotation_between(a, b):
    """Axis-angle vector rotating unit direction a onto unit direction b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    c = np.cross(a, b)
    s = np.linalg.norm(c)
    d = float(np.dot(a, b))
    if s < 1e-12:
        if d > 0.0:
            return np.zeros(3)
        # antiparallel: rotate pi about any axis orthogonal to a
        axis = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(a, [0.0, 1.0, 0.0])
        return np.pi * axis / np.linalg.norm(axis)
    angle = np.arctan2(s, d)
    return angle * c / s


def axis_angle_from_matrix(R):
    """Inverse of rodrigues() for proper rotation matrices."""
    R = np.asarray(R, dtype=float)
    cos_t = max(-1.0, min(1.0, (np.trace(R) - 1.0) / 2.0))
    t = np.arccos(cos_t)
    if t < _SMALL_ANGLE:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    if abs(np.pi - t) < 1e-6:
        # near pi: extract axis from R + I
        M = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(M), 0.0))
        # fix signs using off-diagonals
        i = int(np.argmax(axis))
        if axis[i] > 0:
            for j in range(3):
                if j != i and M[i, j] < 0:
                    axis[j] = -axis[j]
        n = np.linalg.norm(axis)
        if n == 0.0:
            return np.zeros(3)
        return t * axis / n
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return t * v / (2.0 * np.sin(t))

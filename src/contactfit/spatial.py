"""The package's fixed-order arithmetic: the kernels under every term's
dots, lengths, cross products, in-order sums and scatters, and its one
nearest-neighbour scan.

Every answer rests on the order these kernels round in, and
`tests/golden/answers.json` pins it, so each is written once, here. The
two dot products round differently (with the OpenBLAS SkylakeX kernel,
the squared lengths of 200,000 standard-normal 3-vectors agreed on 79% of
rows), and each term keeps its own:

- `_squared_length` adds the squares of component rows left to right, as
  np.linalg.norm(axis=1) does: the nearest-neighbour table, the facet
  normals, the collision term's distances and proxy radii, and the normal
  term's unit-length check.
- `_row_dots` is one BLAS dot per row, as the 1-D `@` and np.linalg.norm of
  one vector: the frozen distance term, the normal term, the proxies'
  overlap test, the training losses, the filter's landmark distances, the
  batched Rodrigues angle and the synthetic suite's winding test.
"""

import numpy as np


def _squared_length(m):
    """Squared lengths of vectors stored as component rows (3, ...): the
    squares of x, y and z added left to right, `(x² + y²) + z²`."""
    return (m[0] ** 2 + m[1] ** 2) + m[2] ** 2


def _row_dots(x, y):
    """Dot product of each row pair of x, y (N, d): one BLAS dot per row,
    like the 1-D `x @ y` and np.linalg.norm, so the bits agree with them."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _cross(u, v):
    """np.cross of 3-vectors stored as component rows (3, N), computed by
    component as np.cross computes it, so it agrees to the bit."""
    return np.stack([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _sum_in_order(values):
    """0.0 + values[0] + values[1] + ..., added left to right as a Python
    loop adds them (ndarray.sum() adds pairwise)."""
    return float(np.cumsum(np.concatenate([[0.0], values]))[-1])


def _interleaved(first, second):
    """Rows first[0], second[0], first[1], second[1], ..."""
    return np.stack([first, second], axis=1).reshape(-1, *np.shape(first)[1:])


def scatter_rows(rows, ids, num_rows):
    """Sum the rows (N, C) into (num_rows, C) by row index ids (N,), added
    in the given order as np.add.at adds them, so the sums agree with it
    to the bit."""
    rows = np.asarray(rows, dtype=float)
    out = np.empty((num_rows, rows.shape[1]))
    for k in range(rows.shape[1]):
        out[:, k] = np.bincount(ids, rows[:, k], minlength=num_rows)
    return out


def nearest_neighbors(query_points, data_points, data_ids):
    """For each query point, the id of the nearest data point and the
    distance. Ties break to the lowest id of data given in ascending id
    order. The squared distances are `_squared_length` of the (3, n, m)
    differences, with no reduction over a length-3 axis (numpy does that
    slowly). Another order (`dx² + (dy² + dz²)`), the |a|² − 2a·b + |b|²
    expansion or a BLAS product moves last bits, and a fit amplifies them.
    """
    # contiguous component rows: broadcasting from a transposed view is slower
    q = np.ascontiguousarray(np.transpose(query_points), dtype=float)
    d = np.ascontiguousarray(np.transpose(data_points), dtype=float)
    ids = np.asarray(data_ids, dtype=int)
    d2 = _squared_length(q[:, :, None] - d[:, None, :])
    # data scanned in given (ascending-id) order; argmin keeps the first
    j = np.argmin(d2, axis=1)
    return ids[j], np.sqrt(d2[np.arange(q.shape[1]), j])

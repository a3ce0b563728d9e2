"""The package's one nearest-neighbour scan: brute force over 3D points.

Contact regions hold at most a few hundred facets, so the full table of
squared distances is small. The table is built one coordinate at a time,
as `(dx² + dy²) + dz²`: the squares of x, y and z added left to right,
which is the order a sum over the length-3 axis of an (n, m, 3) difference
uses. Every distance, and so every match and every fit, rests on that
order. Building it per coordinate makes no (n, m, 3) temporary and no
reduction over a length-3 axis, which numpy does slowly.
"""

import numpy as np


def nearest_neighbors(query_points, data_points, data_ids):
    """For each query point, the id of the nearest data point and the
    distance. Ties break to the lowest id of data given in ascending id
    order. Keep the arithmetic as it is: the squares of x, y and z are
    added left to right, `(dx² + dy²) + dz²`, one (n, m) table per
    coordinate. Another order (`dx² + (dy² + dz²)`), the
    |a|² − 2a·b + |b|² expansion or a BLAS product moves last bits, and a
    fit amplifies them.
    """
    q = np.asarray(query_points, dtype=float)
    d = np.asarray(data_points, dtype=float)
    ids = np.asarray(data_ids, dtype=int)
    dx = q[:, None, 0] - d[None, :, 0]
    dy = q[:, None, 1] - d[None, :, 1]
    dz = q[:, None, 2] - d[None, :, 2]
    d2 = (dx ** 2 + dy ** 2) + dz ** 2
    # data scanned in given (ascending-id) order; argmin keeps the first
    j = np.argmin(d2, axis=1)
    return ids[j], np.sqrt(d2[np.arange(len(q)), j])

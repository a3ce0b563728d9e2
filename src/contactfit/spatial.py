"""The package's one nearest-neighbour scan: brute force over 3D points.

Contact regions hold at most a few hundred facets, so the full table of
squared distances is small.
"""

import numpy as np


def nearest_neighbors(query_points, data_points, data_ids):
    """For each query point, the id of the nearest data point and the
    distance. Ties break to the lowest id of data given in ascending id
    order. Keep the arithmetic as it is: the |a|² − 2a·b + |b|² expansion or
    a BLAS product moves last bits, and a fit amplifies them.
    """
    q = np.asarray(query_points, dtype=float)
    d = np.asarray(data_points, dtype=float)
    ids = np.asarray(data_ids, dtype=int)
    # data scanned in given (ascending-id) order; argmin keeps the first
    d2 = ((q[:, None, :] - d[None, :, :]) ** 2).sum(axis=-1)
    j = np.argmin(d2, axis=1)
    return ids[j], np.sqrt(d2[np.arange(len(q)), j])

"""Self-contact consistency losses on posed mesh facets.

The distance term between two regions is the bidirectional sum of
nearest-neighbour facet-center distances; the normal term sums dot products
of matched facet normals (minimized at anti-parallel). Matching is the one
brute-force scan of `spatial.nearest_neighbors`, with ties to the lowest
facet id. Its id arrays become the matches, (N, 2) arrays of facet ids that
the losses index with directly. Matches are frozen by the caller between
evaluations to keep gradients well-defined.
"""

from dataclasses import dataclass, field

import numpy as np

from .body import scatter_rows
from .errors import GeometryError, ParameterError
from .regions import region_facets
from .spatial import nearest_neighbors

_ZERO_DIST = 1e-12


@dataclass
class PairMatches:
    """Matches for one region pair (r1 < r2): (N, 2) int arrays of (facet
    in r1, facet in r2) rows. directed holds every nearest-neighbour term of
    the distance sum, r1's facets then r2's, each in ascending id (duplicates
    kept, for gradients); pairs (psi_N) holds its distinct rows, sorted."""

    pairs: np.ndarray
    directed: np.ndarray


@dataclass
class MatchSet:
    """Per contact pair: nearest-neighbour facet matches."""

    entries: dict = field(default_factory=dict)  # (r1, r2) -> PairMatches


def phi_distance(centers, ids1, ids2):
    """Bidirectional nearest-neighbour distance between two facet sets.

    Sums, for each facet of one set, the distance to its nearest facet
    center in the other set, in both directions. Returns (value,
    PairMatches) with the scan's ids as the rows of `directed`.
    """
    ids1 = np.sort(np.asarray(ids1, dtype=int))
    ids2 = np.sort(np.asarray(ids2, dtype=int))
    if len(ids1) == 0 or len(ids2) == 0:
        raise ParameterError("phi_distance requires two non-empty facet sets")
    centers = np.asarray(centers, dtype=float)

    nn12, d12 = nearest_neighbors(centers[ids1], centers[ids2], ids2)
    nn21, d21 = nearest_neighbors(centers[ids2], centers[ids1], ids1)
    value = float(d12.sum()) + float(d21.sum())

    directed = np.stack([np.concatenate([ids1, nn21]),
                         np.concatenate([nn12, ids2])], axis=1)
    n = int(directed.max()) + 1  # above every facet id: keys sort as rows do
    keys = np.unique(directed[:, 0] * n + directed[:, 1])
    return value, PairMatches(np.stack([keys // n, keys % n], axis=1), directed)


def phi_distance_regions(centers, region_map, r1, r2, mode="all", k=2):
    """phi_distance between two regions under a facet selection mode."""
    lo, hi = min(r1, r2), max(r1, r2)
    ids_lo = region_facets(region_map, lo, mode=mode, k=k, centers=centers)
    ids_hi = region_facets(region_map, hi, mode=mode, k=k, centers=centers)
    return phi_distance(centers, ids_lo, ids_hi)


def loss_distance(centers, sig, region_map, mode="all", k=2):
    """Sum of phi_distance over the signature's contact pairs.

    Masked pairs are excluded. Returns (value, MatchSet).
    """
    if sig.granularity != region_map.granularity:
        raise ParameterError("signature and region map granularities differ")
    matches = MatchSet()
    total = 0.0
    for r1, r2 in sig.contact_pairs():
        value, pm = phi_distance_regions(centers, region_map, r1, r2, mode=mode, k=k)
        matches.entries[(r1, r2)] = pm
        total += value
    return total, matches


def _matched(matches, attr):
    """Every entry's `attr` rows ("pairs" or "directed"), entries in sorted
    key order, as one (N, 2) int array."""
    return np.concatenate([np.empty((0, 2), dtype=int)]
                          + [np.reshape(getattr(matches.entries[key], attr), (-1, 2))
                             for key in sorted(matches.entries)])


def _row_dots(x, y):
    """Dot product of each row pair of x, y (N, 3): one BLAS dot per row,
    like the 1-D `x @ y` and np.linalg.norm, so the bits agree with them."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _sum_in_order(values):
    """0.0 + values[0] + values[1] + ..., added left to right as a Python
    loop adds them (ndarray.sum() adds pairwise)."""
    return float(np.cumsum(np.concatenate([[0.0], values]))[-1])


def _interleaved(first, second):
    """Rows first[0], second[0], first[1], second[1], ..."""
    return np.stack([first, second], axis=1).reshape(-1, *np.shape(first)[1:])


def loss_distance_frozen(centers, matches):
    """Distance loss and gradient w.r.t. facet centers with matches frozen.

    Returns (value, grad (F, 3)). Terms are added in match order, so the
    result equals a loop over the directed matches to the bit.
    """
    centers = np.asarray(centers, dtype=float)
    f1, f2 = _matched(matches, "directed").T
    diff = centers[f1] - centers[f2]
    d = np.sqrt(_row_dots(diff, diff))
    moving = d > _ZERO_DIST
    g = diff[moving] / d[moving][:, None]
    grad = scatter_rows(_interleaved(g, -g),
                        _interleaved(f1[moving], f2[moving]), len(centers))
    return _sum_in_order(d), grad


def loss_normal(normals, matches):
    """Sum of dot products of matched facet normals, plus its gradient
    w.r.t. the normals. Minimized when matched normals are anti-parallel.
    Terms are added in match order, as a loop over the pairs adds them.
    """
    normals = np.asarray(normals, dtype=float)
    f1, f2 = _matched(matches, "pairs").T
    used = np.unique(np.concatenate([f1, f2]))
    lengths = np.linalg.norm(normals[used], axis=1)
    bad = used[np.abs(lengths - 1.0) > 1e-6]
    if bad.size:
        raise GeometryError(f"facet {int(bad[0])} normal is not unit length")
    n1, n2 = normals[f1], normals[f2]
    grad = scatter_rows(_interleaved(n2, n1), _interleaved(f1, f2), len(normals))
    return _sum_in_order(_row_dots(n1, n2)), grad


def contact_distance_error(centers, sig, region_map):
    """Mean over contact pairs of the minimum facet-center distance, in mm.

    Returns None when the signature has no contact pairs.
    """
    if sig.granularity != region_map.granularity:
        raise ParameterError("signature and region map granularities differ")
    pairs = sig.contact_pairs()
    if not pairs:
        return None
    centers = np.asarray(centers, dtype=float)
    total = 0.0
    for r1, r2 in pairs:
        ids1 = np.flatnonzero(region_map.facet_to_region == r1)
        ids2 = np.flatnonzero(region_map.facet_to_region == r2)
        if len(ids1) == 0 or len(ids2) == 0:
            raise ParameterError(f"contact pair ({r1}, {r2}) references an empty region")
        total += float(nearest_neighbors(centers[ids1], centers[ids2], ids2)[1].min())
    return 1000.0 * total / len(pairs)

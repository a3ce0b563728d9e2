"""Self-contact consistency losses on posed mesh facets.

The distance term between two regions is the bidirectional sum of
nearest-neighbour facet-center distances; the normal term sums dot products
of matched facet normals (minimized at anti-parallel). Matching is the one
brute-force scan of `spatial.nearest_neighbors`, with ties to the lowest
facet id. Matches are frozen by the caller between evaluations to keep
gradients well-defined.
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
    """Matches for one region pair (r1 < r2).

    pairs: psi_N — deduplicated (facet in r1, facet in r2) matches, sorted.
    directed: every directional nearest-neighbour term of the distance sum
    (used for gradients; duplicates kept).
    """

    region_pair: tuple
    pairs: list
    directed: list


@dataclass
class MatchSet:
    """Per contact pair: nearest-neighbour facet matches."""

    entries: dict = field(default_factory=dict)  # (r1, r2) -> PairMatches

    def total_matches(self):
        return sum(len(e.pairs) for e in self.entries.values())


@dataclass
class ContactLossValue:
    loss_distance: float                  # meters
    loss_normal: float                    # unitless
    per_pair_distance: dict               # (r1, r2) -> phi value


def phi_distance(centers, ids1, ids2):
    """Bidirectional nearest-neighbour distance between two facet sets.

    Sums, for each facet of one set, the distance to its nearest facet
    center in the other set, in both directions. Returns (value, PairMatches
    with region_pair unset (None)).
    """
    ids1 = np.sort(np.asarray(ids1, dtype=int))
    ids2 = np.sort(np.asarray(ids2, dtype=int))
    if len(ids1) == 0 or len(ids2) == 0:
        raise ParameterError("phi_distance requires two non-empty facet sets")
    centers = np.asarray(centers, dtype=float)

    nn12, d12 = nearest_neighbors(centers[ids1], centers[ids2], ids2)
    nn21, d21 = nearest_neighbors(centers[ids2], centers[ids1], ids1)
    value = float(d12.sum()) + float(d21.sum())

    directed = [(int(f1), int(f2)) for f1, f2 in zip(ids1, nn12)]
    directed += [(int(f1), int(f2)) for f2, f1 in zip(ids2, nn21)]
    pairs = sorted(set(directed))
    return value, PairMatches(None, pairs, directed)


def phi_distance_regions(centers, region_map, r1, r2, mode="all", k=2):
    """phi_distance between two regions under a facet selection mode."""
    lo, hi = min(r1, r2), max(r1, r2)
    ids_lo = region_facets(region_map, lo, mode=mode, k=k, centers=centers)
    ids_hi = region_facets(region_map, hi, mode=mode, k=k, centers=centers)
    value, matches = phi_distance(centers, ids_lo, ids_hi)
    matches.region_pair = (lo, hi)
    return value, matches


def loss_distance(centers, sig, region_map, mode="all", k=2):
    """Sum of phi_distance over the signature's contact pairs.

    Masked pairs are excluded. Returns (value, MatchSet, per-pair dict).
    """
    if sig.granularity != region_map.granularity:
        raise ParameterError("signature and region map granularities differ")
    matches = MatchSet()
    per_pair = {}
    total = 0.0
    for r1, r2 in sig.contact_pairs():
        value, pm = phi_distance_regions(centers, region_map, r1, r2, mode=mode, k=k)
        matches.entries[(r1, r2)] = pm
        per_pair[(r1, r2)] = value
        total += value
    return total, matches, per_pair


def _matched(matches, attr):
    """The (facet, facet) rows of every entry's `attr` list ("pairs" or
    "directed"), entries in sorted key order, as an (N, 2) int array."""
    rows = [p for key in sorted(matches.entries)
            for p in getattr(matches.entries[key], attr)]
    return np.array(rows, dtype=int).reshape(-1, 2)


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


def contact_losses(centers, normals, sig, region_map, mode="all", k=2):
    """Distance and normal losses with freshly computed matches."""
    l_d, matches, per_pair = loss_distance(centers, sig, region_map, mode=mode, k=k)
    l_n, _ = loss_normal(normals, matches) if matches.entries else (0.0, None)
    return ContactLossValue(l_d, l_n, per_pair), matches


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

"""Surface partition into regions, granularity hierarchy, region queries."""

from dataclasses import dataclass, field

import numpy as np

from .errors import GranularityError, ParameterError, check_integers, check_number
from .spatial import nearest_neighbors

GRANULARITIES = (75, 37, 17, 9)


@dataclass(frozen=True)
class RegionMap:
    """Facet -> region assignment at one granularity.

    facet_to_region: (F,) ints in [0, granularity); every region non-empty.
    Held read-only, with each region's facet ids and count worked out once.
    """

    granularity: int
    facet_to_region: np.ndarray
    # region r owns facets _facets[_bounds[r]:_bounds[r + 1]], ascending
    _facets: np.ndarray = field(init=False, repr=False, compare=False)
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "granularity",
                           check_number("granularity", self.granularity, int))
        f2r = check_integers("facet_to_region", self.facet_to_region).copy()
        if self.granularity < 1:
            raise ParameterError("granularity must be positive")
        if f2r.ndim != 1 or len(f2r) == 0:
            raise ParameterError("facet_to_region must be a non-empty 1d array")
        if f2r.min() < 0 or f2r.max() >= self.granularity:
            raise ParameterError("region id out of range")
        counts = np.bincount(f2r, minlength=self.granularity)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ParameterError(f"regions with no facets: {missing[:8].tolist()}")
        for name, value in (("facet_to_region", f2r),
                            ("_facets", np.argsort(f2r, kind="stable")),
                            ("_bounds", np.concatenate([[0], np.cumsum(counts)])),
                            ("_counts", counts)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, RegionMap):
            return NotImplemented
        return (self.granularity == other.granularity
                and np.array_equal(self.facet_to_region, other.facet_to_region))


@dataclass(frozen=True)
class CoarsenMap:
    """Surjection from fine region ids onto coarse region ids."""

    fine: int
    coarse: int
    mapping: np.ndarray  # (fine,) ints in [0, coarse)

    def __post_init__(self):
        for name in ("fine", "coarse"):
            object.__setattr__(self, name, check_number(name, getattr(self, name), int))
        m = check_integers("mapping", self.mapping)
        object.__setattr__(self, "mapping", m)
        if m.shape != (self.fine,):
            raise ParameterError("mapping must cover every fine region id")
        if m.min() < 0 or m.max() >= self.coarse:
            raise ParameterError("coarse region id out of range")
        if len(np.unique(m)) != self.coarse:
            raise ParameterError("mapping must be surjective onto coarse ids")

    @classmethod
    def identity(cls, granularity):
        return cls(granularity, granularity, np.arange(granularity))

    def compose(self, other):
        """self (fine->mid) composed with other (mid->coarse)."""
        if other.fine != self.coarse:
            raise GranularityError(
                f"cannot compose {self.fine}->{self.coarse} with {other.fine}->{other.coarse}")
        return CoarsenMap(self.fine, other.coarse, other.mapping[self.mapping])

    def __eq__(self, other):
        if not isinstance(other, CoarsenMap):
            return NotImplemented
        return (self.fine == other.fine and self.coarse == other.coarse
                and np.array_equal(self.mapping, other.mapping))


SELECTION_MODES = ("all", "subset", "center")


def region_facets(region_map, r, mode="all", k=2, centers=None):
    """Facet ids of region r under a selection mode.

    mode="all": every facet. mode="center": the single facet whose center is
    nearest the region centroid (ties -> lowest id); requires posed centers.
    mode="subset": every k-th facet of the id-sorted member list.
    """
    if not 0 <= r < region_map.granularity:
        raise ParameterError(f"region id {r} out of range")
    ids = region_map._facets[region_map._bounds[r]:region_map._bounds[r + 1]]
    if mode == "all":
        return ids
    if mode == "subset":
        if k < 1:
            raise ParameterError("subset step k must be >= 1")
        return ids[::k]
    if mode == "center":
        if centers is None:
            raise ParameterError("center mode requires posed facet centers")
        pts = np.asarray(centers)[ids]
        return nearest_neighbors(pts.mean(axis=0)[None], pts, ids)[0]
    raise ParameterError(f"unknown selection mode {mode!r}")


def coarsen_region_map(region_map, cmap):
    """Relabel facets through a fine->coarse surjection."""
    if cmap.fine != region_map.granularity:
        raise GranularityError(
            f"map granularity {region_map.granularity} != coarsen fine {cmap.fine}")
    return RegionMap(cmap.coarse, cmap.mapping[region_map.facet_to_region])

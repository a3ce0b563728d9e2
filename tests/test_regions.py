import numpy as np
import pytest

from contactfit.body import facet_geometry
from contactfit.errors import GranularityError, ParameterError
from contactfit.regions import (CoarsenMap, RegionMap, coarsen_region_map,
                                region_facets)
from contactfit.spatial import nearest_neighbors


@pytest.fixture
def small_map():
    # region 0: facets 0,1,2; region 1: 3,4,5,6,7; region 2: 8
    return RegionMap(3, np.array([0, 0, 0, 1, 1, 1, 1, 1, 2]))


@pytest.fixture
def centers():
    rng = np.random.default_rng(3)
    return rng.normal(0, 1, (9, 3))


class TestRegionFacets:
    def test_mode_all(self, small_map):
        assert region_facets(small_map, 0).tolist() == [0, 1, 2]

    def test_mode_center_picks_nearest_to_centroid(self, small_map):
        centers = np.zeros((9, 3))
        centers[3:8, 0] = [0.0, 1.0, 2.0, 3.0, 4.0]
        picked = region_facets(small_map, 1, mode="center", centers=centers)
        assert picked.tolist() == [5]  # centroid x=2 -> facet 5

    def test_mode_center_tie_breaks_low_id(self, small_map):
        centers = np.zeros((9, 3))
        # centroid x = 0.4; facets 4 and 6 tie at distance 0.6 -> lowest id
        centers[3:8, 0] = [-1.0, 1.0, -1.0, 1.0, 2.0]
        picked = region_facets(small_map, 1, mode="center", centers=centers)
        assert picked.tolist() == [4]

    def test_mode_subset(self, small_map):
        assert region_facets(small_map, 1, mode="subset", k=2).tolist() == [3, 5, 7]

    def test_invalid_region(self, small_map):
        with pytest.raises(ParameterError):
            region_facets(small_map, 3)

    def test_center_requires_centers(self, small_map):
        with pytest.raises(ParameterError):
            region_facets(small_map, 0, mode="center")

    def test_modes_are_subsets_of_all(self, small_map, centers):
        full = set(region_facets(small_map, 1).tolist())
        sub = set(region_facets(small_map, 1, mode="subset", k=3).tolist())
        cen = set(region_facets(small_map, 1, mode="center", centers=centers).tolist())
        assert sub <= full
        assert cen <= full and len(cen) == 1


def scan_region_facets(region_map, r, mode="all", k=2, centers=None):
    """Oracle: region_facets as a scan of facet_to_region on every call."""
    ids = np.flatnonzero(region_map.facet_to_region == r)
    if mode == "subset":
        return ids[::k]
    if mode == "center":
        pts = np.asarray(centers)[ids]
        return nearest_neighbors(pts.mean(axis=0)[None], pts, ids)[0]
    return ids


class TestRegionFacetIndex:
    @staticmethod
    def _maps_and_centers(body):
        """The shipped 75-, 37-, 17- and 9-region maps with the template's
        facet centers, then random maps with random centers."""
        rmap = body.region_map
        template = facet_geometry(body.model.template_vertices, body.model.faces).centers
        out = [(rmap, template)] + [
            (coarsen_region_map(rmap, body.coarsen_maps[(75, g)]), template)
            for g in (37, 17, 9)]
        rng = np.random.default_rng(11)
        for n, f in ((1, 4), (3, 40), (12, 300)):
            f2r = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, f - n)]))
            out.append((RegionMap(n, f2r), rng.normal(0.0, 1.0, (f, 3))))
        return out

    def test_every_mode_equals_the_scan(self, synthetic_body):
        modes = [("all", 2), ("subset", 1), ("subset", 2), ("subset", 3), ("center", 2)]
        for rmap, centers in self._maps_and_centers(synthetic_body):
            for r in range(rmap.granularity):
                for mode, k in modes:
                    got = region_facets(rmap, r, mode=mode, k=k, centers=centers)
                    want = scan_region_facets(rmap, r, mode=mode, k=k, centers=centers)
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_the_map_holds_a_read_only_copy(self):
        f2r = np.array([0, 1, 1, 0])
        rmap = RegionMap(2, f2r)
        f2r[0] = 1
        assert rmap.facet_to_region.tolist() == [0, 1, 1, 0]
        assert region_facets(rmap, 0).tolist() == [0, 3]
        with pytest.raises(ValueError):
            rmap.facet_to_region[0] = 1
        with pytest.raises(ValueError):
            region_facets(rmap, 1)[0] = 0

    def test_empty_regions_are_named(self):
        with pytest.raises(ParameterError, match=r"regions with no facets: \[1, 3\]"):
            RegionMap(5, np.array([0, 2, 4, 2]))


class TestCoarsenRegionMap:
    def test_identity(self, small_map):
        out = coarsen_region_map(small_map, CoarsenMap.identity(3))
        assert out == small_map

    def test_four_to_two(self):
        rmap = RegionMap(4, np.array([0, 1, 2, 3, 3]))
        cmap = CoarsenMap(4, 2, np.array([0, 0, 1, 1]))
        out = coarsen_region_map(rmap, cmap)
        assert out.facet_to_region.tolist() == [0, 0, 1, 1, 1]

    def test_granularity_mismatch(self, small_map):
        with pytest.raises(GranularityError):
            coarsen_region_map(small_map, CoarsenMap(4, 2, np.array([0, 0, 1, 1])))

    def test_hierarchy_composition_matches_direct(self, synthetic_body):
        maps = synthetic_body.coarsen_maps
        composed = maps[(75, 37)].compose(maps[(37, 17)]).compose(maps[(17, 9)])
        assert composed == maps[(75, 9)]
        via_17 = maps[(75, 17)].compose(maps[(17, 9)])
        assert via_17 == maps[(75, 9)]

    def test_hierarchy_on_facets(self, synthetic_body):
        rmap = synthetic_body.region_map
        maps = synthetic_body.coarsen_maps
        step = coarsen_region_map(
            coarsen_region_map(coarsen_region_map(rmap, maps[(75, 37)]),
                               maps[(37, 17)]), maps[(17, 9)])
        direct = coarsen_region_map(rmap, maps[(75, 9)])
        assert step == direct


class TestValidation:
    def test_empty_region_rejected(self):
        with pytest.raises(ParameterError):
            RegionMap(3, np.array([0, 0, 2]))  # region 1 owns nothing

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            RegionMap(2, np.array([0, 1, 2]))

    def test_coarsen_must_be_surjective(self):
        with pytest.raises(ParameterError):
            CoarsenMap(3, 2, np.array([0, 0, 0]))

    def test_coarsen_must_be_total(self):
        with pytest.raises(ParameterError):
            CoarsenMap(3, 2, np.array([0, 1]))

    def test_integral_float_ids_become_ints(self):
        cmap = CoarsenMap(2.0, 1.0, [0.0, 0.0])
        assert type(cmap.fine) is int and type(cmap.coarse) is int
        assert cmap.mapping.dtype == int
        rmap = RegionMap(2.0, [0.0, 1.0])
        assert type(rmap.granularity) is int and rmap.facet_to_region.dtype == int

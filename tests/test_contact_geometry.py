import math

import numpy as np
import pytest

from contactfit.body import facet_geometry
from contactfit.contact import ContactSignature
from contactfit.contact_geometry import (contact_distance_error, loss_distance,
                                         loss_distance_frozen, loss_normal,
                                         phi_distance, phi_distance_regions,
                                         region_gap)
from contactfit.errors import GeometryError, ParameterError
from contactfit.regions import RegionMap
from contactfit.rotations import rodrigues
from contactfit.spatial import nearest_neighbors

from conftest import fd_gradient, rel_error


def sig(n, contact=(), masked=()):
    return ContactSignature.from_sets(n, contact=contact, masked=masked)


def brute_phi(centers, ids1, ids2):
    """Independent bidirectional nearest-neighbour sum (python loops)."""
    ids1 = sorted(ids1)
    ids2 = sorted(ids2)

    def nn(src, dst):
        dists = []
        pairs = []
        for f in src:
            best_d, best_id = math.inf, None
            for g in dst:
                d = math.sqrt(((centers[f] - centers[g]) ** 2).sum())
                if d < best_d:
                    best_d, best_id = d, g
            dists.append(best_d)
            pairs.append((f, best_id))
        return dists, pairs

    d12, p12 = nn(ids1, ids2)
    d21, p21 = nn(ids2, ids1)
    value = float(np.sum(np.array(d12))) + float(np.sum(np.array(d21)))
    psi = sorted(set(p12) | {(b, a) for a, b in p21})
    return value, psi


def loop_nearest(query, data, data_ids):
    """(ids, distances) of a loop that scans the data in ascending id order,
    takes each squared distance as float(((q - p) ** 2).sum()) and keeps
    only a strictly smaller one."""
    order = sorted(range(len(data_ids)), key=lambda j: data_ids[j])
    ids, dists = [], []
    for q in query:
        best_d2, best_id = math.inf, None
        for j in order:
            d2 = float(((q - data[j]) ** 2).sum())
            if d2 < best_d2:
                best_d2, best_id = d2, data_ids[j]
        ids.append(best_id)
        dists.append(math.sqrt(best_d2))
    return np.array(ids, dtype=int), np.array(dists)


def assert_scan_matches_loop(centers, ids1, ids2):
    """nearest_neighbors and phi_distance on two facet sets, given in any
    order, equal loop_nearest exactly; the match arrays equal the
    list-of-tuples build from its ids."""
    s1, s2 = np.sort(ids1), np.sort(ids2)
    n12, d12 = loop_nearest(centers[s1], centers[s2], s2)
    n21, d21 = loop_nearest(centers[s2], centers[s1], s1)
    for (got_ids, got_d), want_ids, want_d in (
            (nearest_neighbors(centers[s1], centers[s2], s2), n12, d12),
            (nearest_neighbors(centers[s2], centers[s1], s1), n21, d21)):
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_d, want_d)
    value, matches = phi_distance(centers, ids1, ids2)
    directed = ([(int(f1), int(f2)) for f1, f2 in zip(s1, n12)]
                + [(int(f1), int(f2)) for f2, f1 in zip(s2, n21)])
    assert matches.directed.tolist() == [list(p) for p in directed]
    assert matches.pairs.tolist() == [list(p) for p in sorted(set(directed))]
    for rows in (matches.directed, matches.pairs):
        assert rows.ndim == 2 and rows.shape[1] == 2
        assert np.issubdtype(rows.dtype, np.integer)
    assert value == float(d12.sum()) + float(d21.sum())


class TestPhiDistance:
    def test_identical_single_facets(self):
        centers = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        value, _ = phi_distance(centers, [0], [1])
        assert value == 0.0

    def test_two_single_facets_at_distance_d(self):
        centers = np.array([[0.0, 0, 0], [3.0, 4.0, 0]])
        value, matches = phi_distance(centers, [0], [1])
        assert np.isclose(value, 10.0)  # 2 * d, both directions
        assert matches.pairs.tolist() == [[0, 1]]

    def test_random_regions_match_bruteforce(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(0, 1, (12, 3))
        ids1 = [0, 2, 4, 6, 8]
        ids2 = [1, 3, 5, 7, 9, 10, 11]
        value, matches = phi_distance(centers, ids1, ids2)
        expected, psi = brute_phi(centers, ids1, ids2)
        assert value == expected
        assert matches.pairs.tolist() == [list(p) for p in psi]

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(1)
        centers = rng.normal(0, 1, (15, 3))
        rmap = RegionMap(3, np.array([0] * 5 + [1] * 6 + [2] * 4))
        a, _ = phi_distance_regions(centers, rmap, 0, 1)
        b, _ = phi_distance_regions(centers, rmap, 1, 0)
        assert a == b

    def test_nonnegative_zero_iff_coincident(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(0, 1, (8, 3))
        value, _ = phi_distance(centers, [0, 1], [2, 3])
        assert value > 0.0
        coincident = np.vstack([centers[:2], centers[:2]])
        value0, _ = phi_distance(coincident, [0, 1], [2, 3])
        assert value0 == 0.0

    def test_empty_region_rejected(self):
        with pytest.raises(ParameterError):
            phi_distance(np.zeros((3, 3)), [], [0])

    def test_scan_matches_loop_on_random_configs(self):
        # the scan equals the loop to the bit: random clouds, the largest
        # coarse contact pair of the shipped body (172 x 56 facets), exact
        # ties among shuffled ids, duplicate points, a single data point, and
        # a posed-facet-like pair: mm apart, 1-2 m from the origin
        rng = np.random.default_rng(3)
        for trial in range(100):
            n1 = int(rng.integers(1, 40))
            n2 = int(rng.integers(1, 40))
            pts = rng.normal(0, 1, (n1 + n2, 3))
            assert_scan_matches_loop(pts, np.arange(n1), np.arange(n1, n1 + n2))
        pts = rng.normal(0, 0.1, (228, 3))
        assert_scan_matches_loop(pts, np.arange(172), np.arange(172, 228))
        lattice = rng.integers(-2, 3, (60, 3)).astype(float)
        shuffled = rng.permutation(60)
        assert_scan_matches_loop(lattice, shuffled[:25], shuffled[25:])
        duplicated = np.repeat(rng.normal(0, 1, (10, 3)), 3, axis=0)
        shuffled = rng.permutation(30)
        assert_scan_matches_loop(duplicated, shuffled[:12], shuffled[12:])
        assert_scan_matches_loop(pts[:8], np.arange(7), [7])
        posed = rng.uniform(1.0, 2.0, 3) + rng.normal(0, 0.005, (228, 3))
        assert_scan_matches_loop(posed, np.arange(172), np.arange(172, 228))

    def test_scan_tie_breaks_to_lowest_id(self):
        # two data points equidistant from the query
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        ids, dists = nearest_neighbors(np.zeros((1, 3)), pts, [5, 9])
        assert ids[0] == 5


class TestLossDistance:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(4)
        centers = rng.normal(0, 1, (20, 3))
        rmap = RegionMap(4, np.array([0] * 5 + [1] * 5 + [2] * 5 + [3] * 5))
        return centers, rmap

    def test_empty_signature(self, setup):
        centers, rmap = setup
        value, matches = loss_distance(centers, sig(4), rmap)
        assert value == 0.0 and not matches.entries

    def test_single_pair_equals_phi(self, setup):
        centers, rmap = setup
        value, matches = loss_distance(centers, sig(4, contact=[(0, 2)]), rmap)
        phi, _ = phi_distance_regions(centers, rmap, 0, 2)
        assert value == phi
        assert set(matches.entries) == {(0, 2)}

    def test_three_pairs_sum(self, setup):
        centers, rmap = setup
        pairs = [(0, 1), (1, 3), (2, 3)]
        value, matches = loss_distance(centers, sig(4, contact=pairs), rmap)
        expected = sum(phi_distance_regions(centers, rmap, a, b)[0]
                       for a, b in pairs)
        assert np.isclose(value, expected)
        assert set(matches.entries) == set(pairs)

    def test_masked_pairs_excluded(self, setup):
        centers, rmap = setup
        value, matches = loss_distance(
            centers, sig(4, contact=[(0, 1)], masked=[(2, 3)]), rmap)
        assert set(matches.entries) == {(0, 1)}

    def test_frozen_gradient_matches_fd(self, setup):
        centers, rmap = setup
        _, matches = loss_distance(centers, sig(4, contact=[(0, 2), (1, 3)]),
                                   rmap)
        value, grad = loss_distance_frozen(centers, matches)
        num = fd_gradient(lambda x: loss_distance_frozen(x, matches)[0],
                          centers, step=1e-6)
        assert rel_error(grad, num) < 1e-4


class TestLossNormal:
    def test_antiparallel_normals(self):
        normals = np.array([[0.0, 0, 1], [0.0, 0, -1]])
        _, matches = loss_distance(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]),
                                   sig(2, contact=[(0, 1)]),
                                   RegionMap(2, np.array([0, 1])))
        value, _ = loss_normal(normals, matches)
        assert np.isclose(value, -1.0)

    def test_identical_normals(self):
        normals = np.array([[0.0, 0, 1], [0.0, 0, 1]])
        _, matches = loss_distance(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]),
                                   sig(2, contact=[(0, 1)]),
                                   RegionMap(2, np.array([0, 1])))
        value, _ = loss_normal(normals, matches)
        assert np.isclose(value, 1.0)

    def test_random_matches_dot_sum_oracle(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(0, 1, (12, 3))
        normals = rng.normal(0, 1, (12, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        rmap = RegionMap(3, np.array([0] * 4 + [1] * 4 + [2] * 4))
        _, matches = loss_distance(centers, sig(3, contact=[(0, 1), (1, 2)]),
                                   rmap)
        value, _ = loss_normal(normals, matches)
        expected = sum(float(normals[f1] @ normals[f2])
                       for key in sorted(matches.entries)
                       for f1, f2 in matches.entries[key].pairs)
        assert np.isclose(value, expected)

    def test_non_unit_normal_rejected(self):
        _, matches = loss_distance(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]),
                                   sig(2, contact=[(0, 1)]),
                                   RegionMap(2, np.array([0, 1])))
        with pytest.raises(GeometryError):
            loss_normal(np.array([[0.0, 0, 2.0], [0.0, 0, 1.0]]), matches)

    def test_invariant_under_rigid_rotation(self):
        rng = np.random.default_rng(6)
        verts = rng.normal(0, 1, (18, 3))
        faces = np.arange(18).reshape(6, 3)
        rmap = RegionMap(2, np.array([0, 0, 0, 1, 1, 1]))
        geom = facet_geometry(verts, faces)
        _, matches = loss_distance(geom.centers, sig(2, contact=[(0, 1)]), rmap)
        v1, _ = loss_normal(geom.normals, matches)
        R = rodrigues(rng.normal(0, 1, 3))
        geom_rot = facet_geometry(verts @ R.T, faces)
        v2, _ = loss_normal(geom_rot.normals, matches)
        assert np.isclose(v1, v2, atol=1e-9)

    def test_bounded_by_match_count(self):
        rng = np.random.default_rng(7)
        centers = rng.normal(0, 1, (10, 3))
        normals = rng.normal(0, 1, (10, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        rmap = RegionMap(2, np.array([0] * 5 + [1] * 5))
        _, matches = loss_distance(centers, sig(2, contact=[(0, 1)]), rmap)
        value, _ = loss_normal(normals, matches)
        count = len(matches.entries[(0, 1)].pairs)
        assert -count <= value <= count


class TestContactDistanceError:
    def test_touching_single_facet_regions(self):
        centers = np.array([[0.0, 0, 0], [0.0, 0, 0]])
        rmap = RegionMap(2, np.array([0, 1]))
        err = contact_distance_error(centers, sig(2, contact=[(0, 1)]), rmap)
        assert err == 0.0

    def test_unit_conversion_to_mm(self):
        centers = np.array([[0.0, 0, 0], [0.05, 0, 0]])
        rmap = RegionMap(2, np.array([0, 1]))
        err = contact_distance_error(centers, sig(2, contact=[(0, 1)]), rmap)
        assert np.isclose(err, 50.0)

    def test_multi_pair_mean_of_minima(self):
        rng = np.random.default_rng(8)
        centers = rng.normal(0, 1, (15, 3))
        rmap = RegionMap(3, np.array([0] * 5 + [1] * 5 + [2] * 5))
        pairs = [(0, 1), (0, 2), (1, 2)]
        err = contact_distance_error(centers, sig(3, contact=pairs), rmap)
        mins = []
        for a, b in pairs:
            ids_a = np.flatnonzero(rmap.facet_to_region == a)
            ids_b = np.flatnonzero(rmap.facet_to_region == b)
            best = math.inf
            for i in ids_a:
                for j in ids_b:
                    best = min(best, math.sqrt(((centers[i] - centers[j]) ** 2).sum()))
            mins.append(best)
        assert np.isclose(err, 1000.0 * np.mean(mins))

    def test_empty_signature_is_absent(self):
        centers = np.zeros((2, 3))
        rmap = RegionMap(2, np.array([0, 1]))
        assert contact_distance_error(centers, sig(2), rmap) is None


def loop_region_gap(centers, region_map, r1, r2):
    """Oracle: every facet pair of r1 x r2 in ascending ids, keeping only a
    strictly closer one."""
    best = (math.inf, None, None)
    for i in np.flatnonzero(region_map.facet_to_region == r1):
        for j in np.flatnonzero(region_map.facet_to_region == r2):
            d = float(np.sqrt(((centers[i] - centers[j]) ** 2).sum()))
            if d < best[0]:
                best = (d, int(i), int(j))
    return best


class TestRegionGap:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_regions_match_the_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        f2r = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, 36)]))
        rmap = RegionMap(n, f2r)
        centers = rng.normal(0.0, 1.0, (40, 3))
        for r1 in range(n):
            for r2 in range(n):
                if r1 != r2:
                    assert region_gap(centers, rmap, r1, r2) == loop_region_gap(
                        centers, rmap, r1, r2)

    def test_ties_go_to_the_lowest_ids(self):
        # facet 2 (region 0) at the origin, facets 0, 1 and 3 (region 1) each
        # 1 from it
        centers = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 0, 0], [0.0, 1, 0]])
        rmap = RegionMap(2, np.array([1, 1, 0, 1]))
        assert region_gap(centers, rmap, 0, 1) == (1.0, 2, 0)
        assert region_gap(centers, rmap, 1, 0) == (1.0, 0, 2)


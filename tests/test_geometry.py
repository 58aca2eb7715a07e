import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastsvc import geometry
from fastsvc.errors import AllPointsCoincident, InvalidKnotCount, NonPositiveRange
from fastsvc.geometry import distinct_sites, kmeans_knots, mst_max_edge, proximity

from oracles import lloyd_kmeans, minimax_spanning_edge, naive_pairwise, prim_max_edge


def _prim_cases():
    rng = np.random.default_rng(20)
    small = {n: rng.standard_normal((n, 2)) for n in (2, 3, 4)}
    grid = np.arange(40.0)
    cases = {
        "random_2000": rng.standard_normal((2000, 2)),
        "grid_40x40": np.array([(a, b) for a in grid for b in grid]),
        "each_site_3x": np.repeat(rng.standard_normal((300, 2)), 3, axis=0),
        "spread_1e-3_offset_1e6": 1e6 + 1e-3 * rng.standard_normal((3000, 2)),
        # Qhull raises on exactly collinear input
        "collinear_500": np.column_stack([rng.uniform(0.0, 100.0, 500), np.full(500, 3.0)]),
        # Qhull keeps these but drops 291 sites as coplanar
        "near_collinear_500": np.column_stack(
            [np.arange(500.0), 1e-12 * np.random.default_rng(0).standard_normal(500)]),
        # two distinct sites whose squared distance underflows to zero
        "underflowing_gap": np.array([(0.0, 0.0), (1e-200, 0.0), (1.0, 0.0),
                                      (0.0, 1.0), (1.0, 1.0)]),
    }
    for n, pts in small.items():
        cases[f"n{n}"] = pts
        cases[f"n{n}_with_duplicates"] = np.vstack([pts, pts[::-1]])
    return cases


PRIM_CASES = _prim_cases()


def _fallback_cases():
    """Sites whose nearest-neighbour graph splits at its lower bound, so the
    kernel range comes from the Delaunay tree."""
    rng = np.random.default_rng(22)
    blob = rng.standard_normal((800, 2))
    line = np.arange(300.0)
    return {
        "two_far_blobs": np.vstack([blob, blob[:400] + (60.0, 0.0)]),
        "blob_and_distant_close_pair": np.vstack([blob, [(40.0, 40.0), (40.1, 40.0)]]),
        "two_parallel_lines": np.column_stack([np.tile(line, 2),
                                               np.repeat([0.0, 5.0], line.size)]),
    }


FALLBACK_CASES = _fallback_cases()


def _lloyd_cases():
    rng = np.random.default_rng(21)
    grid = np.arange(40.0)
    return {
        # integer sites: many exactly tied distances
        "grid_40x40": (np.array([(a, b) for a in grid for b in grid]), 60),
        "each_site_3x": (np.repeat(rng.standard_normal((300, 2)), 3, axis=0), 50),
        "spread_1e-3_offset_1e6": (1e6 + 1e-3 * rng.standard_normal((3000, 2)), 40),
        "offset_3e7": (3e7 + rng.standard_normal((3000, 2)), 40),
        "collinear_500": (np.column_stack([rng.uniform(0.0, 100.0, 500),
                                           np.full(500, 3.0)]), 30),
        # integer positions on one line: the triangle inequality is tight, so
        # drifted bounds meet exactly at tied distances
        "collinear_integers_40": (np.column_stack(
            [np.random.default_rng(89).integers(0, 64, 40).astype(float),
             np.full(40, 3.0)]), 8),
        "one_knot": (rng.standard_normal((500, 2)), 1),
        "knot_per_site": (rng.standard_normal((200, 2)), 200),
    }


LLOYD_CASES = _lloyd_cases()


def _outlier_groups(data_seed):
    """A unit blob of 60 sites and a few small groups scattered around it."""
    rng = np.random.default_rng(data_seed)
    blob = rng.standard_normal((60, 2))
    groups = [rng.uniform(-30.0, 30.0, 2) + 0.5 * rng.standard_normal((rng.integers(2, 6), 2))
              for _ in range(rng.integers(2, 6))]
    return np.vstack([blob] + groups)


#: (data seed, knots, k-means seed) of runs in which Lloyd empties a cluster
OUTLIER_RUNS = [(3754, 25, 2), (9901, 22, 0)]

#: the same examples on every run, few enough for the fast tier
DETERMINISTIC = settings(derandomize=True, database=None, max_examples=60, deadline=None)

_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.6, -0.8), (0.1, 0.7)]


@st.composite
def _site_sets(draw):
    """Integer lattice sites or integer steps along a line, every site
    repeated 1 to 3 times, with or without a 1e6 offset; returns the sites
    and their distinct count."""
    steps = st.integers(-12, 12)
    if draw(st.booleans()):
        sites = np.array(draw(st.lists(st.tuples(steps, steps), min_size=1, max_size=40)),
                         dtype=float)
    else:
        t = np.array(draw(st.lists(steps, min_size=1, max_size=40)), dtype=float)
        sites = np.outer(t, draw(st.sampled_from(_DIRECTIONS)))
    sites = np.repeat(sites, draw(st.integers(1, 3)), axis=0)
    if draw(st.booleans()):
        sites = sites + 1e6
    return sites, np.unique(sites, axis=0).shape[0]


class TestPairwiseDistances:
    """The Euclidean distances inside ``proximity``: at range 1 the kernel
    is ``exp(-d)``."""

    def test_345_triangle(self):
        pts = [(0.0, 0.0), (3.0, 4.0)]
        assert np.array_equal(proximity(pts, pts, 1.0), np.exp(-np.array([[0.0, 5.0],
                                                                          [5.0, 0.0]])))

    def test_single_point(self):
        assert np.array_equal(proximity([(1.0, 1.0)], [(1.0, 1.0)], 1.0), [[1.0]])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 2))
        np.testing.assert_allclose(proximity(a, a, 1.0), np.exp(-naive_pairwise(a, a)),
                                   rtol=0, atol=1e-14)

    def test_cross_shapes(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((5, 2)), rng.standard_normal((3, 2))
        assert proximity(a, b, 1.0).shape == (5, 3)


class TestMstMaxEdge:
    def test_collinear(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
        assert mst_max_edge(pts) == pytest.approx(2.0)

    def test_unit_square(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert mst_max_edge(pts) == pytest.approx(1.0)

    def test_matches_bruteforce_minimax(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((8, 2))
        assert mst_max_edge(pts) == pytest.approx(minimax_spanning_edge(pts), rel=1e-12)

    def test_rigid_motion_invariance_and_scaling(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 2))
        r = mst_max_edge(pts)
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = pts @ rot.T + np.array([5.0, -11.0])
        assert mst_max_edge(moved) == pytest.approx(r, rel=1e-10)
        assert mst_max_edge(3.5 * pts) == pytest.approx(3.5 * r, rel=1e-10)

    def test_all_coincident(self):
        with pytest.raises(AllPointsCoincident):
            mst_max_edge([(2.0, 2.0)] * 5)

    @pytest.mark.parametrize("name", sorted(PRIM_CASES))
    def test_equals_prim_oracle(self, name):
        pts = PRIM_CASES[name]
        assert mst_max_edge(pts) == prim_max_edge(pts)

    @DETERMINISTIC
    @given(data=_site_sets())
    def test_equals_prim_oracle_on_generated_sites(self, data):
        pts, distinct = data
        if pts.shape[0] < 2:
            with pytest.raises(ValueError, match="at least two sites"):
                mst_max_edge(pts)
        elif distinct == 1:
            with pytest.raises(AllPointsCoincident):
                mst_max_edge(pts)
        else:
            assert mst_max_edge(pts) == prim_max_edge(pts)

    def test_certified_without_triangulation(self, monkeypatch, caplog):
        def refuse(*args, **kwargs):
            raise AssertionError("the nearest-neighbour graph should certify these sites")

        monkeypatch.setattr(geometry, "Delaunay", refuse)
        pts = np.random.default_rng(23).standard_normal((5000, 2))
        with caplog.at_level(logging.DEBUG, logger="fastsvc"):
            assert mst_max_edge(pts) == prim_max_edge(pts)
        assert not caplog.records

    @pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
    def test_fallback_equals_prim_oracle(self, name, caplog):
        pts = FALLBACK_CASES[name]
        with caplog.at_level(logging.DEBUG, logger="fastsvc"):
            assert mst_max_edge(pts) == prim_max_edge(pts)
        [message] = [r.getMessage() for r in caplog.records]
        assert "does not certify" in message and "using the Delaunay tree" in message

    @DETERMINISTIC
    @given(data=_site_sets(), block=st.integers(1, 6))
    def test_small_blocks_equal_prim_oracle_on_generated_sites(self, data, block):
        # lattices and lines tie many lengths; every block edge falls
        # somewhere among them
        pts, distinct = data
        if distinct < 2:
            return
        sites = distinct_sites(pts)
        # the certificate and its component count in one block
        whole = (geometry._knn_max_edge_sq(sites)
                 if distinct > geometry.RANGE_NEIGHBOURS + 1 else None)
        with mock.patch.object(geometry, "RANGE_BLOCK", block):
            assert mst_max_edge(pts) == prim_max_edge(pts)
            if whole is not None:
                assert geometry._knn_max_edge_sq(sites) == whole

    @pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
    def test_small_blocks_keep_the_fallback(self, name, monkeypatch, caplog):
        monkeypatch.setattr(geometry, "RANGE_BLOCK", 7)
        pts = FALLBACK_CASES[name]
        with caplog.at_level(logging.DEBUG, logger="fastsvc"):
            assert mst_max_edge(pts) == prim_max_edge(pts)
        [message] = [r.getMessage() for r in caplog.records]
        assert "does not certify" in message and "using the Delaunay tree" in message


class TestDistinctSites:
    @DETERMINISTIC
    @given(data=_site_sets(), order=st.randoms(use_true_random=False))
    def test_equals_numpy_unique(self, data, order):
        pts, distinct = data
        shuffled = pts[order.sample(range(pts.shape[0]), pts.shape[0])]
        got = distinct_sites(shuffled)
        assert got.shape == (distinct, 2)
        assert np.array_equal(got, np.unique(pts, axis=0))
        # distinct rows in order come back as they are
        assert distinct_sites(got) is got

    def test_signed_zeros_count_once(self):
        pts = np.array([(0.0, 1.0), (-0.0, 1.0), (-0.0, -0.0), (1.0, -0.0),
                        (0.0, 0.0), (1.0, 0.0), (-1e6, 0.0), (-1e6, -0.0)])
        got = distinct_sites(pts)
        assert np.array_equal(got, np.unique(pts, axis=0))
        assert got.shape == (4, 2)


class TestKmeansKnots:
    def test_one_point_per_cluster(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((5, 2))
        knots = kmeans_knots(pts, 5, seed=0)
        got = knots.centers[np.lexsort(knots.centers.T)]
        want = pts[np.lexsort(pts.T)]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_two_blobs(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((50, 2)) * 0.05 + np.array([0.0, 0.0])
        b = rng.standard_normal((50, 2)) * 0.05 + np.array([10.0, 10.0])
        knots = kmeans_knots(np.vstack([a, b]), 2, seed=1)
        centers = knots.centers[np.argsort(knots.centers[:, 0])]
        np.testing.assert_allclose(centers[0], a.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(centers[1], b.mean(axis=0), atol=1e-9)

    def test_default_cap_rule(self):
        # the caller-side rule min(200, N) stays reachable
        n = 200
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(n, 2))
        knots = kmeans_knots(pts, min(200, n), seed=0)
        assert knots.count == 200

    def test_fixed_point_conditions(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((300, 2))
        knots = kmeans_knots(pts, 12, seed=2)
        # every center is the mean of the points nearest to it
        nearest = np.argmin(naive_pairwise(pts, knots.centers), axis=1)
        for c in range(12):
            members = pts[nearest == c]
            assert members.size
            np.testing.assert_allclose(knots.centers[c], members.mean(axis=0), atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((120, 2))
        k1 = kmeans_knots(pts, 7, seed=3)
        k2 = kmeans_knots(pts, 7, seed=3)
        assert np.array_equal(k1.centers, k2.centers)

    def test_more_knots_than_distinct_sites(self):
        # 30 sites, each observed three times
        pts = np.repeat(np.random.default_rng(11).standard_normal((30, 2)), 3, axis=0)
        with pytest.raises(InvalidKnotCount, match="n_knots=60 exceeds the 30 distinct"):
            kmeans_knots(pts, 60, seed=0)
        knots = kmeans_knots(pts, 30, seed=0)
        assert knots.converged
        assert np.unique(knots.centers, axis=0).shape[0] == 30

    def test_invalid_count(self):
        pts = np.zeros((4, 2))
        with pytest.raises(InvalidKnotCount):
            kmeans_knots(pts, 0, seed=0)
        with pytest.raises(InvalidKnotCount):
            kmeans_knots(pts, 5, seed=0)

    @pytest.mark.parametrize("name", sorted(LLOYD_CASES))
    def test_equals_lloyd_oracle(self, name):
        pts, n_knots = LLOYD_CASES[name]
        for seed in range(3):
            knots = kmeans_knots(pts, n_knots, seed=seed)
            centers, passes, converged = lloyd_kmeans(pts, n_knots, seed)
            assert np.array_equal(knots.centers, centers)
            assert converged and (knots.passes, knots.converged) == (passes, True)

    def test_equals_lloyd_oracle_through_reseed(self, monkeypatch):
        reseeds = []
        reseed = geometry._reseed_empty

        def counted(pts, centers, assignment, empty):
            reseeds.append(empty.size)
            reseed(pts, centers, assignment, empty)

        monkeypatch.setattr(geometry, "_reseed_empty", counted)
        for data_seed, n_knots, seed in OUTLIER_RUNS:
            pts = _outlier_groups(data_seed)
            before = len(reseeds)
            knots = kmeans_knots(pts, n_knots, seed=seed)
            assert len(reseeds) > before
            centers, passes, _ = lloyd_kmeans(pts, n_knots, seed)
            assert np.array_equal(knots.centers, centers)
            assert knots.passes == passes

    def test_tied_rows_take_cdist_rows(self, monkeypatch):
        tied = []
        rows = geometry._nearest_two_rows

        def counted(pts, centers):
            tied.append(pts.shape[0])
            return rows(pts, centers)

        monkeypatch.setattr(geometry, "_nearest_two_rows", counted)
        pts, n_knots = LLOYD_CASES["grid_40x40"]
        knots = kmeans_knots(pts, n_knots, seed=0)
        assert sum(tied) > 0
        centers, passes, _ = lloyd_kmeans(pts, n_knots, 0)
        assert np.array_equal(knots.centers, centers)
        assert knots.passes == passes

    def test_nan_center_takes_cdist_rows(self):
        pts = np.random.default_rng(4).standard_normal((50, 2))
        centers = np.array([(0.0, 0.0), (np.nan, np.nan), (1.0, 1.0)])
        got = geometry._nearest_two(pts, centers, 1e-12)
        for a, b in zip(got, geometry._nearest_two_rows(pts, centers)):
            np.testing.assert_array_equal(a, b)

    @DETERMINISTIC
    @given(data=_site_sets(), draw=st.data(), seed=st.integers(0, 3))
    def test_equals_lloyd_oracle_on_generated_sites(self, data, draw, seed):
        pts, distinct = data
        n_knots = draw.draw(st.integers(1, distinct), label="n_knots")
        knots = kmeans_knots(pts, n_knots, seed=seed)
        centers, passes, converged = lloyd_kmeans(pts, n_knots, seed)
        assert np.array_equal(knots.centers, centers)
        assert (knots.passes, knots.converged) == (passes, converged)

    @DETERMINISTIC
    @given(data=_site_sets(), extra=st.integers(1, 3))
    def test_more_knots_than_distinct_sites_raises(self, data, extra):
        pts, distinct = data
        n_knots = distinct + extra
        # the seeding counts the distinct sites; above N the count check fires first
        match = f"exceeds the {distinct} distinct" if n_knots <= pts.shape[0] else "outside"
        with pytest.raises(InvalidKnotCount, match=match):
            kmeans_knots(pts, n_knots, seed=0)

    def test_cap_reported(self, monkeypatch, caplog):
        pts, n_knots = LLOYD_CASES["spread_1e-3_offset_1e6"]
        monkeypatch.setattr(geometry, "_KMEANS_MAX_ITER", 2)
        with caplog.at_level(logging.WARNING, logger="fastsvc"):
            knots = kmeans_knots(pts, n_knots, seed=0)
        assert (knots.passes, knots.converged) == (2, False)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "2-pass cap" in message and "N=3000" in message and "40 knots" in message
        centers, passes, converged = lloyd_kmeans(pts, n_knots, 0, max_iter=2)
        assert (passes, converged) == (2, False)
        assert np.array_equal(knots.centers, centers)

    def test_converged_fit_logs_nothing(self, caplog):
        pts, n_knots = LLOYD_CASES["grid_40x40"]
        with caplog.at_level(logging.WARNING, logger="fastsvc"):
            knots = kmeans_knots(pts, n_knots, seed=0)
        assert knots.converged and not caplog.records

    def test_hand_built_knots(self):
        knots = geometry.KnotSet(centers=np.zeros((3, 2)))
        assert (knots.count, knots.passes, knots.converged, knots.sites) == (3, 0, True, 0)


class TestProximity:
    def test_zero_diagonal_policy(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((6, 2))
        C = proximity(pts, pts, 1.0, zero_diagonal=True)
        assert np.all(np.diag(C) == 0.0)
        assert np.trace(C) == 0.0
        np.testing.assert_allclose(C, C.T, atol=0)

    def test_kernel_at_one_range_unit(self):
        C = proximity([(0.0, 0.0)], [(2.0, 0.0)], 2.0)
        assert C[0, 0] == pytest.approx(np.exp(-1.0))

    def test_elementwise_against_scalar_loop(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((5, 2)), rng.standard_normal((3, 2))
        r = 0.7
        D = naive_pairwise(a, b)
        expect = np.array([[np.exp(-D[i, j] / r) for j in range(3)] for i in range(5)])
        np.testing.assert_allclose(proximity(a, b, r), expect, atol=1e-15)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((30, 2))
        C = proximity(pts, pts, 0.5)
        assert C.min() >= 0.0 and C.max() <= 1.0

    def test_nonpositive_range(self):
        with pytest.raises(NonPositiveRange):
            proximity([(0, 0)], [(1, 1)], 0.0)

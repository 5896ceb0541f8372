"""Tests for landmark queries and the bounded Voronoi tessellation."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack.errors import NoLandmarksError
from avitrack.voronoi import (
    LandmarkSet,
    build_bounded_diagram,
    euclidean_distance,
    nearest_landmark,
    nearest_landmarks_many,
    polygon_area,
    polygon_contains,
    render_overlay,
)

DATA_DIR = Path(__file__).parent / "data"
_QUERY_COORD = st.one_of(st.sampled_from([0.0, 5.0, 15.0, 1e200, -1e200]),
                         st.floats(-20.0, 120.0, allow_nan=False))


class TestEuclideanDistance:
    def test_three_four_five(self):
        assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_zero_for_equal_points(self):
        assert euclidean_distance((2.5, -1.0), (2.5, -1.0)) == 0.0

    def test_shifted_three_four_five(self):
        assert euclidean_distance((1, 1), (4, 5)) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = rng.uniform(-10, 10, size=(2, 2))
            assert euclidean_distance(p, q) == pytest.approx(euclidean_distance(q, p))


class TestNearestLandmark:
    def test_single_landmark_always_wins(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 7, (10.0, 10.0))
        for query in [(0, 0), (99, 79), (50, 40)]:
            assert nearest_landmark(landmarks, "cam0", query) == 7

    def test_closest_of_two(self):
        """Sites (0,0)=1 and (10,0)=2: query (3,5) is 5.83 vs 8.60 away."""
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 1, (0.0, 0.0))
        landmarks.add("cam0", 2, (10.0, 0.0))
        assert nearest_landmark(landmarks, "cam0", (3, 5)) == 1

    def test_tie_on_bisector_breaks_to_lowest_id(self):
        """(5, 7) is equidistant from (0,0) and (10,0); lowest id wins."""
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 1, (0.0, 0.0))
        landmarks.add("cam0", 2, (10.0, 0.0))
        assert nearest_landmark(landmarks, "cam0", (5.0, 7.0)) == 1
        # Same rule regardless of insertion order.
        reordered = LandmarkSet({"cam0": (100, 80)})
        reordered.add("cam0", 2, (10.0, 0.0))
        reordered.add("cam0", 1, (0.0, 0.0))
        assert nearest_landmark(reordered, "cam0", (5.0, 7.0)) == 1

    def test_no_landmarks_raises(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        with pytest.raises(NoLandmarksError):
            nearest_landmark(landmarks, "cam0", (1, 1))

    def test_translation_equivariance(self):
        """Shifting all sites and the query together keeps the winner."""
        rng = np.random.default_rng(4)
        sites = rng.uniform(10, 70, size=(6, 2))
        for shift in rng.uniform(-8, 8, size=(10, 2)):
            base = LandmarkSet({"cam0": (200, 200)})
            moved = LandmarkSet({"cam0": (200, 200)})
            for gid, site in enumerate(sites):
                base.add("cam0", gid, site + 50)
                moved.add("cam0", gid, site + 50 + shift)
            query = rng.uniform(40, 100, size=2)
            assert nearest_landmark(base, "cam0", query) == nearest_landmark(
                moved, "cam0", query + shift
            )

    def test_vectorized_matches_scalar(self, two_landmarks):
        rng = np.random.default_rng(8)
        queries = rng.uniform(0, [100, 80], size=(100, 2))
        ids = nearest_landmarks_many(two_landmarks, "cam0", queries)
        for query, got in zip(queries, ids):
            assert got == nearest_landmark(two_landmarks, "cam0", query)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=100)
    @given(
        sites=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7)),
                       min_size=1, max_size=6, unique=True),
        ids=st.permutations(range(6)),
        queries=st.lists(st.tuples(_QUERY_COORD, _QUERY_COORD), min_size=1, max_size=8),
    )
    def test_scalar_is_one_row_of_batched(self, sites, ids, queries):
        """On a coarse grid, so ties are common; 1e200 overflows every
        squared distance to inf, where both forms give the lowest id."""
        landmarks = LandmarkSet({"cam0": (100, 80)})
        for gid, (x, y) in zip(ids, sites):
            landmarks.add("cam0", gid, (10.0 * x, 10.0 * y))
        batched = nearest_landmarks_many(landmarks, "cam0", np.array(queries))
        assert batched.tolist() == [
            nearest_landmark(landmarks, "cam0", query) for query in queries
        ]
        assert nearest_landmark(landmarks, "cam0", (1e200, 1e200)) == min(ids[:len(sites)])


class TestLandmarkSetValidation:
    def test_rejects_out_of_frame(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        with pytest.raises(ValueError, match="outside"):
            landmarks.add("cam0", 1, (100.0, 10.0))

    def test_rejects_duplicate_id(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 1, (10.0, 10.0))
        with pytest.raises(ValueError, match="duplicate"):
            landmarks.add("cam0", 1, (20.0, 20.0))

    def test_rejects_coincident_positions(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 1, (10.0, 10.0))
        with pytest.raises(ValueError, match="coincides"):
            landmarks.add("cam0", 2, (10.0, 10.0 + 1e-8))

    def test_same_id_allowed_across_cameras(self):
        landmarks = LandmarkSet({"cam0": (100, 80), "cam1": (100, 80)})
        landmarks.add("cam0", 1, (10.0, 10.0))
        landmarks.add("cam1", 1, (30.0, 30.0))
        assert landmarks.count("cam0") == 1
        assert landmarks.count("cam1") == 1


class TestBoundedDiagram:
    def test_single_site_owns_whole_frame(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 1, (33.0, 44.0))
        diagram = build_bounded_diagram(landmarks, "cam0")
        assert len(diagram.cells) == 1
        assert polygon_area(diagram.cells[0]) == pytest.approx(100 * 80, rel=1e-9)

    def test_two_sites_split_at_midline(self, two_landmarks):
        diagram = build_bounded_diagram(two_landmarks, "cam0")
        for cell in diagram.cells:
            assert polygon_area(cell) == pytest.approx(100 * 80 / 2, rel=1e-9)
        cell_left = diagram.cell_for(1)
        assert np.max(cell_left[:, 0]) == pytest.approx(50.0)

    def test_partition_matches_brute_force_on_grid(self):
        """Every sampled point lies in the cell of its brute-force winner."""
        rng = np.random.default_rng(12)
        w, h = 640, 480
        landmarks = LandmarkSet({"cam0": (w, h)})
        for gid, site in enumerate(rng.uniform([0, 0], [w, h], size=(8, 2))):
            landmarks.add("cam0", gid, site)
        diagram = build_bounded_diagram(landmarks, "cam0")

        xs = (np.arange(64) + 0.5) * w / 64
        ys = (np.arange(64) + 0.5) * h / 64
        grid = np.array([[x, y] for y in ys for x in xs])
        expected = nearest_landmarks_many(landmarks, "cam0", grid)
        for gid, cell in zip(diagram.site_ids, diagram.cells):
            mine = expected == gid
            assert np.all(polygon_contains(cell, grid[mine], tol=1e-9))
            assert not np.any(polygon_contains(cell, grid[~mine], tol=-1e-9))

    def test_collinear_sites_stay_bounded(self):
        w, h = 320, 240
        landmarks = LandmarkSet({"cam0": (w, h)})
        for gid in range(6):
            landmarks.add("cam0", gid, (20.0 + 50.0 * gid, 120.0))
        diagram = build_bounded_diagram(landmarks, "cam0")
        total = 0.0
        for cell in diagram.cells:
            assert len(cell) >= 3
            assert np.all(np.isfinite(cell))
            assert np.all(cell[:, 0] >= -1e-9) and np.all(cell[:, 0] <= w + 1e-9)
            assert np.all(cell[:, 1] >= -1e-9) and np.all(cell[:, 1] <= h + 1e-9)
            total += polygon_area(cell)
        assert total == pytest.approx(w * h, rel=1e-6)

    def test_no_landmarks_raises(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        with pytest.raises(NoLandmarksError):
            build_bounded_diagram(landmarks, "cam0")

    def test_sixteen_virtual_sites_outside_frame(self, two_landmarks):
        diagram = build_bounded_diagram(two_landmarks, "cam0")
        assert len(diagram.virtual_sites) == 16
        w, h = diagram.image_size
        for x, y in diagram.virtual_sites:
            assert x <= 0 or x >= w or y <= 0 or y >= h


class TestRenderOverlay:
    def test_single_site_has_marker_and_frame(self):
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", 1, (33.0, 44.0))
        svg = render_overlay(build_bounded_diagram(landmarks, "cam0"))
        assert svg.count('fill="red" data-landmark') == 1
        assert '<rect x="0" y="0" width="100" height="80"' in svg

    def test_two_site_bisector_endpoints(self, two_landmarks):
        svg = render_overlay(build_bounded_diagram(two_landmarks, "cam0"))
        assert "50.000,0.000" in svg
        assert "50.000,80.000" in svg

    def test_deterministic_output(self, two_landmarks):
        diagram = build_bounded_diagram(two_landmarks, "cam0")
        assert render_overlay(diagram) == render_overlay(diagram)

    def test_matches_golden_file(self):
        """Frozen five-site overlay, generated once and hand-inspected."""
        landmarks = LandmarkSet({"camA": (320, 240)})
        sites = [
            (1, (60.0, 50.0)),
            (2, (240.0, 70.0)),
            (3, (160.0, 120.0)),
            (4, (80.0, 200.0)),
            (5, (270.0, 190.0)),
        ]
        for gid, pos in sites:
            landmarks.add("camA", gid, pos)
        svg = render_overlay(build_bounded_diagram(landmarks, "camA"))
        golden = (DATA_DIR / "voronoi_5sites.svg").read_text()
        assert svg == golden

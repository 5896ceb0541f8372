"""Tests for landmark queries and the bounded Voronoi tessellation."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack.errors import NoLandmarksError
from avitrack.synthworld import SceneConfig, generate
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

from voronoi_reference import build_reference_cells

DATA_DIR = Path(__file__).parent / "data"
_FRAME = (160, 120)
# Grid coordinates of the frame: its edges, every 20 px, and the last pixel.
_SITE_X = st.sampled_from([0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 159.5])
_SITE_Y = st.sampled_from([0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 119.5])
_EDGE_X = st.one_of(_SITE_X, st.sampled_from([10.0, 30.0, 160.0]), st.floats(0.0, 160.0))
_EDGE_Y = st.one_of(_SITE_Y, st.sampled_from([10.0, 50.0, 120.0]), st.floats(0.0, 120.0))
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
        assert len(landmarks.entries("cam0")) == 1
        assert len(landmarks.entries("cam1")) == 1


class TestLandmarkArrays:
    def test_add_keeps_the_arrays_sorted_by_id(self):
        landmarks = LandmarkSet({"cam0": (100, 80), "cam1": (100, 80)})
        for gid, position in ((7, (10.0, 10.0)), (2, (50.0, 20.0)), (5, (30.0, 60.0))):
            landmarks.add("cam0", gid, position)
            ids, sites = landmarks.arrays("cam0")
            entries = landmarks.entries("cam0")
            assert ids.tolist() == [gid for gid, _ in entries]
            assert np.array_equal(sites, [pos for _, pos in entries])
        assert ids.tolist() == [2, 5, 7]
        assert not ids.flags.writeable and not sites.flags.writeable
        with pytest.raises(NoLandmarksError, match="'cam1'"):
            landmarks.arrays("cam1")

    def test_ids_beyond_int64_are_rejected(self):
        """Ids are int64: the limits stay exact, and an id beyond them is a
        ``ValueError`` that leaves the set as it was."""
        landmarks = LandmarkSet({"cam0": (100, 80)})
        landmarks.add("cam0", -(2**63), (10.0, 10.0))
        landmarks.add("cam0", 2**63 - 1, (90.0, 70.0))
        with pytest.raises(ValueError, match=f"landmark id {2**63} is outside int64"):
            landmarks.add("cam0", 2**63, (50.0, 40.0))
        assert [gid for gid, _ in landmarks.entries("cam0")] == [-(2**63), 2**63 - 1]
        assert nearest_landmark(landmarks, "cam0", (80.0, 60.0)) == 2**63 - 1
        assert len(landmarks.entries("cam0")) == 2

    def test_queries_read_the_held_arrays(self, two_landmarks, monkeypatch):
        """Nearest-landmark queries and diagrams build nothing from entries."""
        expected = build_bounded_diagram(two_landmarks, "cam0")

        def entries(self, camera_id):
            raise AssertionError("entries() called")

        monkeypatch.setattr(LandmarkSet, "entries", entries)
        queries = np.array([[10.0, 40.0], [90.0, 40.0], [50.0, 40.0]])
        assert nearest_landmarks_many(two_landmarks, "cam0", queries).tolist() == [1, 2, 1]
        diagram = build_bounded_diagram(two_landmarks, "cam0")
        assert diagram.site_ids == expected.site_ids == (1, 2)
        assert all(np.array_equal(a, b) for a, b in zip(diagram.cells, expected.cells))


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
        cell_left = diagram.cells[diagram.site_ids.index(1)]
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

    @settings(max_examples=80)
    @given(
        sites=st.lists(
            st.tuples(_SITE_X, _SITE_Y, st.sampled_from([0.0, 1e-9, 1e-5, 0.5])),
            min_size=1, max_size=8, unique_by=lambda site: site[:2],
        ),
        queries=st.lists(st.tuples(_EDGE_X, _EDGE_Y), min_size=1, max_size=12),
    )
    def test_cells_hold_their_brute_force_points(self, sites, queries):
        """Sites on a coarse grid, some on the frame edge, some nudged off
        it so bisectors nearly tie; queries on the same grid and the frame
        edge. A query lies in the cell of each nearest site, to 1e-7 px, and
        in no cell of a site farther away by more than 1e-9 px; the cells
        stay in the frame, to 1e-9 px, and their areas add up to it."""
        w, h = _FRAME
        landmarks = LandmarkSet({"cam0": _FRAME})
        for gid, (x, y, nudge) in enumerate(sites):
            landmarks.add("cam0", gid, (min(x + nudge, np.nextafter(w, 0)), y))
        diagram = build_bounded_diagram(landmarks, "cam0")
        queries = np.array(queries)
        distance = np.linalg.norm(queries[:, None] - diagram.sites[None], axis=2)
        nearest = distance.min(axis=1)
        for column, cell in enumerate(diagram.cells):
            tied = distance[:, column] <= nearest + 1e-9
            assert polygon_contains(cell, queries[tied], tol=1e-7).all()
            assert not polygon_contains(cell, queries[~tied], tol=-1e-7).any()
            assert np.all((cell >= -1e-9) & (cell <= np.add(_FRAME, 1e-9)))
        assert sum(map(polygon_area, diagram.cells)) == pytest.approx(w * h, rel=1e-9)

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



@st.composite
def _site_sets(draw):
    """A frame from 1x1 to 1920x1080 and 1-30 landmark sites in it: spread
    uniformly, on the half-pixel grid, or evenly spaced along one row,
    column or diagonal (so many bisectors are parallel)."""
    w, h = draw(st.integers(1, 1920)), draw(st.integers(1, 1080))
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["uniform", "grid", "row", "column", "diagonal"]))
    if kind == "uniform":
        points = draw(st.lists(st.tuples(st.floats(0, w, exclude_max=True),
                                         st.floats(0, h, exclude_max=True)),
                               min_size=n, max_size=n))
    elif kind == "grid":
        points = draw(st.lists(st.tuples(st.integers(0, 2 * w - 1), st.integers(0, 2 * h - 1)),
                               min_size=n, max_size=n))
        points = [(x / 2, y / 2) for x, y in points]
    else:
        x0, y0 = draw(st.integers(0, 2 * w - 1)) / 2, draw(st.integers(0, 2 * h - 1)) / 2
        step = draw(st.integers(1, 2 * max(w, h))) / 2
        dx, dy = {"row": (step, 0.0), "column": (0.0, step), "diagonal": (step, step)}[kind]
        points = [(x0 + k * dx, y0 + k * dy) for k in range(n)]
    landmarks = LandmarkSet({"cam0": (w, h)})
    kept = []
    for x, y in points:
        if x < w and y < h and all(euclidean_distance((x, y), p) > 1e-6 for p in kept):
            kept.append((x, y))
            landmarks.add("cam0", len(kept), (x, y))
    return landmarks


class TestMatchesVirtualSiteReference:
    @settings(max_examples=150, deadline=None)
    @given(landmarks=_site_sets())
    def test_cells_match_the_padded_construction(self, landmarks):
        """Each cell's vertices lie within 1e-6 px of the reference cell's, in
        both directions, and the two shoelace areas agree within 1e-12 of
        the frame's."""
        w, h = landmarks.image_sizes["cam0"]
        diagram = build_bounded_diagram(landmarks, "cam0")
        ids, cells = build_reference_cells(landmarks, "cam0")
        assert diagram.site_ids == ids
        for cell, reference in zip(diagram.cells, cells):
            distance = np.linalg.norm(cell[:, None] - reference[None], axis=2)
            assert distance.min(axis=1).max() <= 1e-6
            assert distance.min(axis=0).max() <= 1e-6
            assert abs(polygon_area(cell) - polygon_area(reference)) <= 1e-12 * w * h


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

    def test_frame_edges_print_no_negative_zero(self):
        """Cell vertices on a frame edge are exactly 0, never -0.000."""
        landmarks = generate(SceneConfig(seed=3, bird_count=1, duration_s=0.1)).landmark_set
        for cam in landmarks.cameras():
            assert "-0.000" not in render_overlay(build_bounded_diagram(landmarks, cam))

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

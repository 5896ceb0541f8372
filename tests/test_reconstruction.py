"""Tests for DLT triangulation, fusion, and reconstruction statistics."""

import itertools
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avitrack import reconstruction
from avitrack.camera import (
    MIN_DEPTH, CameraModel, project, project_points, projection_matrix,
)
from avitrack.errors import BehindCameraError, DegenerateRaysError, EmptyInputError
from avitrack.synthworld import SceneConfig, build_camera_rig
from avitrack.matching import Correspondence, FeatureMatch, Keypoint
from avitrack.reconstruction import (
    ObservationTable,
    detection_centers,
    ideal_pixels,
    reconstruct_frame,
    reconstruction_stats,
    triangulate_batch,
    triangulate_from_matrices,
)
from matching_reference import (
    DetectionRow, box_center, detection_table, pair_matches_loop as pair_matches,
)

# The (min, max) corners of a box that drops no observation.
_ANYWHERE = (np.full(3, -np.inf), np.full(3, np.inf))


def _sample_points(rng, count):
    return rng.uniform([0.4, 0.4, 0.3], [3.6, 3.0, 1.7], size=(count, 3))


class TestTriangulate:
    def test_symmetric_stereo_disparity(self, stereo_pair):
        """Baseline 1, f=1, disparity 0.5 puts the point at depth 2."""
        left, right = stereo_pair
        [point] = triangulate_batch(ideal_pixels(left, np.array([[0.25, 0.0]])),
                                    ideal_pixels(right, np.array([[-0.25, 0.0]])), left, right)
        np.testing.assert_allclose(point, [0.0, 0.0, 2.0], atol=1e-9)

    def test_round_trip_through_rig(self, default_rig):
        """Forward-projected points come back within 1e-6 m."""
        rng = np.random.default_rng(2)
        points = _sample_points(rng, 500)
        cams = sorted(default_rig)
        for i in range(len(cams)):
            for j in range(i + 1, len(cams)):
                cam_a, cam_b = default_rig[cams[i]], default_rig[cams[j]]
                pix_a, depth_a = project_points(cam_a, points)
                pix_b, depth_b = project_points(cam_b, points)
                assert np.all(depth_a > MIN_DEPTH) and np.all(depth_b > MIN_DEPTH)
                recovered = triangulate_batch(
                    ideal_pixels(cam_a, pix_a), ideal_pixels(cam_b, pix_b), cam_a, cam_b
                )
                assert np.max(np.linalg.norm(recovered - points, axis=1)) <= 1e-6

    @settings(max_examples=60)
    @given(
        camera_count=st.integers(2, 8),
        focal_px=st.floats(200.0, 1100.0),
        data=st.data(),
        points=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 3.4),
                                  st.floats(0.0, 2.0)), min_size=1, max_size=8),
    )
    def test_round_trip_property(self, camera_count, focal_px, data, points):
        """Points in the aviary box, projected into two cameras of a drawn
        rig, triangulate back to within 1e-6 m. Points within 1 degree of
        the line through both camera centres are left out: their two rays
        are one line."""
        rig = build_camera_rig(SceneConfig(camera_count=camera_count, focal_px=focal_px))
        first, second = data.draw(st.lists(st.sampled_from(sorted(rig)), min_size=2,
                                           max_size=2, unique=True))
        cam_a, cam_b = rig[first], rig[second]
        points = np.array(points)
        rays = [points + cam.rotation.T @ cam.translation for cam in (cam_a, cam_b)]
        sine = np.linalg.norm(np.cross(*rays), axis=1) / np.prod(
            [np.linalg.norm(ray, axis=1) for ray in rays], axis=0)
        assume(np.all(sine >= np.sin(np.radians(1.0))))
        pix_a, depth_a = project_points(cam_a, points)
        pix_b, depth_b = project_points(cam_b, points)
        assert np.all(depth_a > 0) and np.all(depth_b > 0)
        recovered = triangulate_batch(
            ideal_pixels(cam_a, pix_a), ideal_pixels(cam_b, pix_b), cam_a, cam_b
        )
        assert np.max(np.linalg.norm(recovered - points, axis=1)) <= 1e-6

    def test_same_camera_twice_raises(self, default_rig):
        cam = default_rig["cam0"]
        with pytest.raises(DegenerateRaysError):
            triangulate_batch(np.array([[10.0, 10.0]]), np.array([[10.0, 10.0]]), cam, cam)

    def test_identical_rays_flagged_degenerate(self, default_rig):
        """Duplicated projection matrix gives coincident rays: a NaN row."""
        cam = default_rig["cam0"]
        p = projection_matrix(cam)
        positions = triangulate_from_matrices(
            [[400.0, 300.0], [400.0, 300.0]], [[400.0, 300.0], [400.0, 300.0]], p, p
        )
        assert positions.shape == (2, 3) and np.isnan(positions).all()

    def test_projective_invariance(self, default_rig):
        """Scaling a projection matrix by any constant changes nothing."""
        rng = np.random.default_rng(7)
        points = _sample_points(rng, 50)
        cam_a, cam_b = default_rig["cam0"], default_rig["cam2"]
        pix_a, _ = project_points(cam_a, points)
        pix_b, _ = project_points(cam_b, points)
        # Matrices expect undistorted pixels; rebuild them via the batch API
        # once, then compare against scaled matrices directly.
        p_a = projection_matrix(cam_a)
        p_b = projection_matrix(cam_b)
        zero_a = _strip_distortion(cam_a)
        zero_b = _strip_distortion(cam_b)
        ideal_a, _ = project_points(zero_a, points)
        ideal_b, _ = project_points(zero_b, points)
        base = triangulate_from_matrices(ideal_a, ideal_b, p_a, p_b)
        for scale in (-3.0, 1e-4, 87.5):
            scaled = triangulate_from_matrices(
                ideal_a, ideal_b, scale * p_a, p_b
            )
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_empty_input(self, default_rig):
        out = triangulate_batch(
            np.zeros((0, 2)), np.zeros((0, 2)),
            default_rig["cam0"], default_rig["cam1"],
        )
        assert out.shape == (0, 3)


def _strip_distortion(cam):
    from avitrack.camera import CameraModel

    return CameraModel(
        cam_id=cam.cam_id, fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
        dist=np.zeros(5), rotation=cam.rotation,
        translation=cam.translation, image_size=cam.image_size,
    )


def _detection(cam_id, frame, index, center, half=5.0):
    return DetectionRow(
        camera_id=cam_id, frame=frame, index=index,
        x_min=center[0] - half, y_min=center[1] - half,
        x_max=center[0] + half, y_max=center[1] + half,
    )


def _centers(detections, cameras):
    return detection_centers(detection_table(detections.values()), cameras)


class TestReconstructFrame:
    def _setup(self, default_rig, points, pair_names):
        """Detections whose centers are exact projections of ``points``."""
        detections = {}
        correspondences = {}
        for cam_a, cam_b in pair_names:
            corrs = []
            for idx, point in enumerate(points):
                pix_a, _ = project_points(default_rig[cam_a], point[None])
                pix_b, _ = project_points(default_rig[cam_b], point[None])
                detections[(cam_a, 0, idx)] = _detection(cam_a, 0, idx, pix_a[0])
                detections[(cam_b, 0, idx)] = _detection(cam_b, 0, idx, pix_b[0])
                corrs.append(
                    Correspondence(
                        detection_index_a=idx, detection_index_b=idx,
                        support=3, mean_descriptor_distance=0.1,
                    )
                )
            correspondences[(cam_a, cam_b)] = corrs
        return correspondences, detections

    def test_single_pair_noiseless(self, default_rig):
        rng = np.random.default_rng(4)
        points = _sample_points(rng, 3)
        corrs, dets = self._setup(default_rig, points, [("cam0", "cam1")])
        observations = reconstruct_frame(0, corrs, _centers(dets, default_rig), default_rig,
                                         bounds=_ANYWHERE)
        assert len(observations) == 3
        order = np.argsort(observations.position[:, 0])
        expected = points[np.argsort(points[:, 0])]
        for position, errors, point in zip(observations.position[order],
                                           observations.errors[order], expected):
            np.testing.assert_allclose(position, point, atol=1e-6)
            assert all(err <= 1e-6 for err in errors[~np.isnan(errors)])

    def test_two_pairs_fuse_to_midpoint(self, default_rig):
        """Estimates 5 cm apart merge into their coordinate-wise mean."""
        a = np.array([2.0, 1.7, 1.0])
        b = a + np.array([0.05, 0.0, 0.0])
        corrs_a, dets_a = self._setup(default_rig, a[None], [("cam0", "cam1")])
        corrs_b, dets_b = self._setup(default_rig, b[None], [("cam2", "cam3")])
        corrs = {**corrs_a, **corrs_b}
        dets = {**dets_a, **dets_b}
        observations = reconstruct_frame(0, corrs, _centers(dets, default_rig), default_rig,
                                         bounds=_ANYWHERE)
        assert len(observations) == 1
        np.testing.assert_allclose(observations.position[0], (a + b) / 2, atol=1e-6)
        # Members in cam0-cam3, one from each pair's two cameras, none in cam4.
        assert observations.cameras == ("cam0", "cam1", "cam2", "cam3", "cam4")
        assert np.isnan(observations.errors[0]).tolist() == [False, False, False, False, True]

    def test_far_estimates_stay_separate(self, default_rig):
        a = np.array([2.0, 1.7, 1.0])
        b = a + np.array([0.4, 0.0, 0.0])
        corrs_a, dets_a = self._setup(default_rig, a[None], [("cam0", "cam1")])
        corrs_b, dets_b = self._setup(default_rig, b[None], [("cam2", "cam3")])
        observations = reconstruct_frame(
            0, {**corrs_a, **corrs_b}, _centers({**dets_a, **dets_b}, default_rig),
            default_rig, bounds=_ANYWHERE,
        )
        assert len(observations) == 2

    def test_fusion_order_independent(self, default_rig):
        rng = np.random.default_rng(11)
        points = _sample_points(rng, 4)
        pair_orders = [
            [("cam0", "cam1"), ("cam1", "cam2"), ("cam2", "cam3")],
            [("cam2", "cam3"), ("cam0", "cam1"), ("cam1", "cam2")],
        ]
        results = []
        for order in pair_orders:
            corrs, dets = self._setup(default_rig, points, order)
            obs = reconstruct_frame(0, corrs, _centers(dets, default_rig), default_rig,
                                    bounds=_ANYWHERE)
            results.append(sorted(obs.position[:, 0]))
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)

    def test_bounds_filter(self, default_rig):
        point = np.array([2.0, 1.7, 1.0])
        corrs, dets = self._setup(default_rig, point[None], [("cam0", "cam1")])
        centers = _centers(dets, default_rig)
        kept = reconstruct_frame(
            0, corrs, centers, default_rig,
            bounds=(np.zeros(3), np.array([4.0, 3.4, 2.0])),
        )
        assert len(kept) == 1
        dropped = reconstruct_frame(
            0, corrs, centers, default_rig,
            bounds=(np.zeros(3), np.array([1.0, 1.0, 1.0])),
        )
        assert len(dropped) == 0
        assert dropped.position.shape == (0, 3) and dropped.errors.shape == (0, 5)


class TestReconstructionStats:
    def _matches(self, default_rig, points, cam_a="cam0", cam_b="cam1"):
        pix_a, _ = project_points(default_rig[cam_a], points)
        pix_b, _ = project_points(default_rig[cam_b], points)
        matches = []
        for i in range(len(points)):
            matches.append(
                FeatureMatch(
                    keypoint_a=Keypoint(cam_a, 0, i, pix_a[i], np.zeros(4)),
                    keypoint_b=Keypoint(cam_b, 0, i, pix_b[i], np.zeros(4)),
                    descriptor_distance=0.0, verdict="kept",
                )
            )
        return matches

    def test_noiseless_keypoints_have_zero_error(self, default_rig):
        rng = np.random.default_rng(6)
        points = _sample_points(rng, 40)
        matches = self._matches(default_rig, points)
        record = reconstruction_stats(pair_matches(matches), default_rig)
        assert record["total_keypoints"] == 80
        assert record["avg_reprojection_error_px"] <= 1e-6
        assert record["pct_keypoints_below_threshold"] == 100.0

    def test_schema_fields_present(self, default_rig):
        rng = np.random.default_rng(8)
        points = _sample_points(rng, 10)
        matches = self._matches(default_rig, points)
        record = reconstruction_stats(pair_matches(matches), default_rig)
        assert set(record) == {
            "total_keypoints",
            "avg_reprojection_error_px",
            "std_reprojection_error_px",
            "min_reprojection_error_px",
            "max_reprojection_error_px",
            "pct_keypoints_below_threshold",
            "threshold_px",
        }

    def test_no_standing_matches_raise(self, default_rig):
        with pytest.raises(EmptyInputError, match="no reprojectable keypoints"):
            reconstruction_stats(pair_matches([]), default_rig)


def test_reconstruction_stats_takes_pairs_sorted_then_rows_in_summary_order(default_rig):
    """Each camera pair is triangulated once, pairs in sorted order, with
    its rows concatenated in summary order, whatever order the pairs come in."""
    rng = np.random.default_rng(9)
    points = _sample_points(rng, 5)
    pix = {cam: project_points(default_rig[cam], points)[0] for cam in ("cam0", "cam1", "cam3")}
    matches = [
        FeatureMatch(Keypoint(cam_a, frame, i, pix[cam_a][i], np.zeros(1)),
                     Keypoint(cam_b, frame, i, pix[cam_b][i], np.zeros(1)), 0.0, verdict="kept")
        for frame, cam_a, cam_b, i in ((1, "cam3", "cam1", 0), (0, "cam0", "cam1", 1),
                                       (0, "cam3", "cam1", 2), (1, "cam3", "cam1", 3),
                                       (2, "cam0", "cam1", 4))
    ]
    calls = []
    triangulate = reconstruction.triangulate_batch

    def record(points_a, points_b, cam_a, cam_b):
        calls.append((cam_a.cam_id, cam_b.cam_id, len(points_a)))
        return triangulate(points_a, points_b, cam_a, cam_b)

    summaries = pair_matches(matches)
    assert [(s.frame, s.camera_a) for s in summaries] == [(1, "cam3"), (0, "cam0"),
                                                         (0, "cam3"), (2, "cam0")]
    with mock.patch.object(reconstruction, "triangulate_batch", record):
        record_got = reconstruction_stats(summaries, default_rig)
    assert calls == [("cam0", "cam1", 2), ("cam3", "cam1", 3)]
    # The matches in summary order: (1, cam3) 0 and 3, (0, cam0) 1, (0, cam3) 2, (2, cam0) 4.
    in_summary_order = [matches[i] for i in (0, 3, 1, 2, 4)]
    assert repr(record_got) == repr(
        _reconstruction_stats_loop(in_summary_order, default_rig)
    )


def _reconstruction_stats_loop(matches, cameras, threshold_px=25.0):
    """The per-keypoint loop ``reconstruction_stats`` replaced, as reference."""
    errors = []
    kept = [m for m in matches if m.verdict == "kept"]
    by_pair = {}
    for match in kept:
        key = (match.keypoint_a.camera_id, match.keypoint_b.camera_id)
        by_pair.setdefault(key, []).append(match)

    for (cam_a, cam_b), pair_matches in sorted(by_pair.items()):
        pts_a = np.array([m.keypoint_a.position for m in pair_matches])
        pts_b = np.array([m.keypoint_b.position for m in pair_matches])
        points = triangulate_batch(
            ideal_pixels(cameras[cam_a], pts_a), ideal_pixels(cameras[cam_b], pts_b),
            cameras[cam_a], cameras[cam_b],
        )
        for i, point in enumerate(points):
            if np.any(np.isnan(point)):
                continue
            for cam_id, observed in ((cam_a, pts_a[i]), (cam_b, pts_b[i])):
                try:
                    reproj = project(cameras[cam_id], point)
                except Exception:
                    continue
                errors.append(float(np.linalg.norm(reproj - observed)))

    if not errors:
        raise EmptyInputError("reconstruction_stats: no reprojectable keypoints")
    arr = np.asarray(errors)
    return {
        "total_keypoints": int(arr.size),
        "avg_reprojection_error_px": float(arr.mean()),
        "std_reprojection_error_px": float(arr.std()),
        "min_reprojection_error_px": float(arr.min()),
        "max_reprojection_error_px": float(arr.max()),
        "pct_keypoints_below_threshold": float(100.0 * np.mean(arr < threshold_px)),
        "threshold_px": float(threshold_px),
    }


def _stereo_camera(cam_id, x):
    return CameraModel(
        cam_id=cam_id, fx=1.0, fy=1.0, cx=0.0, cy=0.0, dist=np.zeros(5),
        rotation=np.eye(3), translation=np.array([x, 0.0, 0.0]), image_size=(2, 2),
    )


# The distorted synthetic rig plus a normalized stereo pair. In the pair,
# equal pixels give parallel rays (a NaN point) and crossed pixels a point
# behind both cameras.
_STATS_CAMERAS = dict(
    build_camera_rig(SceneConfig()),
    left=_stereo_camera("left", 0.5),
    right=_stereo_camera("right", -0.5),
)


@st.composite
def _stats_case(draw):
    pair = draw(st.sampled_from(
        [("cam0", "cam1"), ("cam3", "cam1"), ("cam2", "cam4"), ("left", "right"),
         ("right", "left"), ("cam0", "cam0")]
    ))
    if pair[0] in ("left", "right"):
        coord = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])
        pixel = st.tuples(coord, coord)
    else:
        pixel = st.tuples(st.floats(0.0, 1919.0), st.floats(0.0, 1079.0))
    verdict = st.sampled_from(["kept", "rejected"])
    matches = [
        FeatureMatch(
            keypoint_a=Keypoint(pair[0], 0, i, np.array(pa), np.zeros(1)),
            keypoint_b=Keypoint(pair[1], 0, i, np.array(pb), np.zeros(1)),
            descriptor_distance=0.0, verdict=v,
        )
        for i, (pa, pb, v) in enumerate(
            draw(st.lists(st.tuples(pixel, pixel, verdict), max_size=10))
        )
    ]
    return matches, draw(st.sampled_from([1.0, 25.0, 1e6]))


class TestReconstructionStatsMatchesLoop:
    @staticmethod
    def _outcome(function, *args, **kwargs):
        try:
            return repr(function(*args, **kwargs))
        except Exception as exc:
            return ("raised", type(exc), str(exc))

    @settings(max_examples=120)
    @given(cases=st.lists(_stats_case(), min_size=1, max_size=3))
    def test_random_keypoint_pairs(self, cases):
        """Same record bit for bit (repr shows every float bit), or the same
        error, over pairs with behind-camera, NaN and noisy points."""
        matches = [m for case in cases for m in case[0]]
        threshold = cases[0][1]
        got = self._outcome(
            reconstruction_stats, pair_matches(matches), _STATS_CAMERAS,
            threshold_px=threshold,
        )
        expected = self._outcome(
            _reconstruction_stats_loop, matches, _STATS_CAMERAS,
            threshold_px=threshold,
        )
        assert got == expected

    def test_behind_camera_and_nan_points_are_skipped(self):
        """Equal stereo pixels give a NaN point and crossed ones a point
        behind both cameras; only the one valid point contributes."""
        cams = _STATS_CAMERAS
        pixels = [((0.25, 0.0), (0.25, 0.0)), ((-0.25, 0.0), (0.25, 0.0)),
                  ((0.25, 0.1), (-0.25, 0.1))]
        matches = [
            FeatureMatch(Keypoint("left", 0, i, np.array(pa), np.zeros(1)),
                         Keypoint("right", 0, i, np.array(pb), np.zeros(1)),
                         0.0, verdict="kept")
            for i, (pa, pb) in enumerate(pixels)
        ]
        points = triangulate_batch(
            ideal_pixels(cams["left"], np.array([p for p, _ in pixels])),
            ideal_pixels(cams["right"], np.array([q for _, q in pixels])),
            cams["left"], cams["right"],
        )
        assert np.isnan(points[0]).all()
        assert points[1, 2] < 0 and points[2, 2] > 0
        record = reconstruction_stats(pair_matches(matches), cams)
        assert record["total_keypoints"] == 2
        assert repr(record) == repr(_reconstruction_stats_loop(matches, cams))


# --- the union-find fusion the link-matrix closure replaced, as reference ---


def _connected_components(n, links):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


class ObservationRow(NamedTuple):
    """One row of an ``ObservationTable``, its errors by camera name."""

    frame: int
    position: np.ndarray
    errors: dict[str, float]  # the cameras whose cell is not NaN, in name order


def _table_rows(table: ObservationTable) -> list[ObservationRow]:
    return [
        ObservationRow(frame, position, {
            cam: err for cam, err in zip(table.cameras, errors) if not np.isnan(err)
        })
        for frame, position, errors in zip(table.frame.tolist(), table.position,
                                           table.errors.tolist())
    ]


def _reconstruct_frame_union_find(
    frame, correspondences, detections, cameras, fuse_radius, bounds
):
    estimates = []
    for pair in sorted(correspondences):
        cam_a, cam_b = pair
        pair_corrs = correspondences[pair]
        if not pair_corrs:
            continue
        centers_a = np.array([
            box_center(detections[(cam_a, frame, c.detection_index_a)])
            for c in pair_corrs
        ])
        centers_b = np.array([
            box_center(detections[(cam_b, frame, c.detection_index_b)])
            for c in pair_corrs
        ])
        points = reconstruction.triangulate_batch(
            centers_a, centers_b, cameras[cam_a], cameras[cam_b]
        )
        for i in range(len(pair_corrs)):
            if np.any(np.isnan(points[i])):
                continue
            estimates.append((points[i], pair, {cam_a: centers_a[i], cam_b: centers_b[i]}))

    if not estimates:
        return []

    positions = np.array([e[0] for e in estimates])
    links = []
    for i in range(len(estimates)):
        deltas = positions[i + 1 :] - positions[i]
        close = np.linalg.norm(deltas, axis=1) <= fuse_radius
        links.extend((i, i + 1 + int(j)) for j in np.nonzero(close)[0])
    components = _connected_components(len(estimates), links)

    observations = []
    for members in components:
        position = np.mean([estimates[i][0] for i in members], axis=0)
        lo, hi = bounds
        if np.any(position < lo) or np.any(position > hi):
            continue
        errors = {}
        for i in members:
            for cam_id, observed in estimates[i][2].items():
                try:
                    reproj = project(cameras[cam_id], position)
                except BehindCameraError:
                    continue
                errors.setdefault(cam_id, []).append(float(np.linalg.norm(reproj - observed)))
        observations.append(ObservationRow(
            frame=frame,
            position=position,
            errors={cam: float(np.mean(v)) for cam, v in sorted(errors.items())},
        ))
    return observations


_RIG = build_camera_rig(SceneConfig())
_FUSION_PAIRS = [("cam0", "cam1"), ("cam0", "cam2"), ("cam1", "cam3")]
# A coarse grid 0.1 m apart, so duplicates, ties and chains are common; NaN
# rows stand for failed triangulations; free points show rounding.
_ESTIMATE = st.one_of(
    st.tuples(*[st.integers(0, 3).map(lambda v: 1.0 + 0.1 * v)] * 3),
    st.just((np.nan,) * 3),
    st.tuples(*[st.floats(0.9, 1.4)] * 3),
).map(np.array)


@st.composite
def _fusion_case(draw):
    points = {pair: draw(st.lists(_ESTIMATE, max_size=5)) for pair in _FUSION_PAIRS}
    detections = {
        (cam, 0, index): _detection(cam, 0, index, (100.0 + 40.0 * index, 200.0))
        for cam in _RIG for index in range(5)
    }
    correspondences = {
        pair: [Correspondence(i, i, support=2, mean_descriptor_distance=0.0)
               for i in range(len(estimates))]
        for pair, estimates in points.items()
    }
    finite = [p for estimates in points.values() for p in estimates if not np.isnan(p).any()]
    radius = draw(st.sampled_from([0.0, 0.1, 0.15, 0.2, 0.5]))
    if finite and draw(st.booleans()):
        # Exactly one pair's distance, as both sides compute it.
        i, j = draw(st.lists(st.integers(0, len(finite) - 1), min_size=2, max_size=2))
        radius = float(np.linalg.norm((finite[j] - finite[i])[None], axis=1)[0])
    bounds = draw(st.sampled_from([_ANYWHERE, (np.full(3, 1.05), np.full(3, 1.25))]))
    return points, correspondences, detections, radius, bounds


def _observation_bits(observations):
    """Each row's frame, position bytes and per-camera errors; a table is
    read as its rows."""
    if isinstance(observations, ObservationTable):
        observations = _table_rows(observations)
    return [(o.frame, o.position.tobytes(), repr(o.errors)) for o in observations]


class TestFusionMatchesUnionFind:
    def _both(self, points, correspondences, detections, radius, bounds):
        def fixed_points(centers_a, centers_b, cam_a, cam_b):
            return np.array(points[(cam_a.cam_id, cam_b.cam_id)], dtype=float).reshape(-1, 3)

        with mock.patch.object(reconstruction, "triangulate_batch", fixed_points):
            got = reconstruct_frame(0, correspondences, _centers(detections, _RIG), _RIG,
                                    radius, bounds=bounds)
            expected = _reconstruct_frame_union_find(0, correspondences, detections, _RIG,
                                                     radius, bounds=bounds)
        assert got.cameras == tuple(sorted(_RIG))
        return _table_rows(got), expected

    @settings(max_examples=300)
    @given(case=_fusion_case())
    def test_random_estimates(self, case):
        """Same observations, bit for bit: at-radius distances, chains,
        duplicates, failed rows and the bounds."""
        got, expected = self._both(*case)
        assert _observation_bits(got) == _observation_bits(expected)

    def test_chain_and_duplicates_fuse_through_the_middle(self):
        """Steps of exactly the radius chain three estimates whose ends are
        two radii apart; a duplicate joins its twin."""
        base, step = np.ones(3), np.array([0.125, 0.0, 0.0])
        points = {
            ("cam0", "cam1"): [base, base + 2 * step],
            ("cam0", "cam2"): [base + step],
            ("cam1", "cam3"): [np.full(3, 2.0), np.full(3, 2.0)],
        }
        detections = {
            (cam, 0, i): _detection(cam, 0, i, (100.0 + 40.0 * i, 200.0))
            for cam in _RIG for i in range(2)
        }
        correspondences = {
            pair: [Correspondence(i, i, 2, 0.0) for i in range(len(estimates))]
            for pair, estimates in points.items()
        }
        got, expected = self._both(points, correspondences, detections, 0.125, _ANYWHERE)
        assert _observation_bits(got) == _observation_bits(expected)
        # The chain's members come from (cam0, cam1) and (cam0, cam2), the
        # duplicates' from (cam1, cam3).
        assert [list(row.errors) for row in got] == [["cam0", "cam1", "cam2"], ["cam1", "cam3"]]
        assert got[0].position.tolist() == [1.125, 1.0, 1.0]


# --- the per-pair, per-member reconstruct_frame the centre table replaced ---


def _reconstruct_frame_per_member(
    frame, correspondences, detections, cameras, fuse_radius=0.15, *, bounds
):
    """Each pair undistorts its own centres, and each member reprojects the
    fused position with ``project``."""
    estimates = []
    for pair in sorted(correspondences):
        cam_a, cam_b = pair
        pair_corrs = correspondences[pair]
        if not pair_corrs:
            continue
        centers_a = np.array([
            box_center(detections[(cam_a, frame, c.detection_index_a)])
            for c in pair_corrs
        ])
        centers_b = np.array([
            box_center(detections[(cam_b, frame, c.detection_index_b)])
            for c in pair_corrs
        ])
        points = triangulate_batch(
            ideal_pixels(cameras[cam_a], centers_a), ideal_pixels(cameras[cam_b], centers_b),
            cameras[cam_a], cameras[cam_b],
        )
        for i in range(len(pair_corrs)):
            if np.any(np.isnan(points[i])):
                continue
            estimates.append(
                (points[i], pair, {cam_a: centers_a[i], cam_b: centers_b[i]})
            )

    if not estimates:
        return []

    linked = np.eye(len(estimates), dtype=bool)
    positions = np.array([e[0] for e in estimates])
    linked |= np.linalg.norm(positions[None] - positions[:, None], axis=2) <= fuse_radius
    while not np.array_equal(closure := linked @ linked, linked):
        linked = closure

    observations = []
    for root in np.unique(linked.argmax(axis=1)):
        members = np.flatnonzero(linked[root])
        position = np.mean([estimates[i][0] for i in members], axis=0)
        lo, hi = bounds
        if np.any(position < lo) or np.any(position > hi):
            continue
        errors = {}
        for i in members:
            for cam_id, observed in estimates[i][2].items():
                try:
                    reproj = project(cameras[cam_id], position)
                except BehindCameraError:
                    continue
                errors.setdefault(cam_id, []).append(
                    float(np.linalg.norm(reproj - observed))
                )
        observations.append(ObservationRow(
            frame=frame,
            position=position,
            errors={cam: float(np.mean(v)) for cam, v in sorted(errors.items())},
        ))
    return observations


def _centre(cam):
    return -cam.rotation.T @ cam.translation


# Seen from every camera, one of these directions (or its opposite) gives
# pixels whose rays are parallel: a NaN row for any pair.
_DIRECTIONS = [np.array(d, dtype=float) for d in
               [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, -0.8, 0.1), (-0.5, -0.5, 0.2)]]


def _seen_at(cam, target):
    """The pixel of ``target``; behind the camera, the pixel of its mirror
    image through the camera centre, which the pinhole maps to the same
    pixel. None when neither is in front or the pixel is off the image."""
    for point in (target, 2 * _centre(cam) - target):
        pixels, depth = project_points(cam, point[None])
        if depth[0] > MIN_DEPTH:
            (x, y), (w, h) = pixels[0], cam.image_size
            return pixels[0] if 0 <= x < w and 0 <= y < h else None
    return None


@st.composite
def _frame_case(draw):
    """One frame over 2-5 cameras of the distorted default rig: birds in and
    around the aviary (some behind a camera), parallel-ray entities, and
    shuffled, gapped detection indices; the other rig cameras and the next
    frame hold detections the frame must not read."""
    names = sorted(draw(st.lists(st.sampled_from(sorted(_RIG)), min_size=2, max_size=5,
                                 unique=True)))
    # Birds on a 5 cm grid, in the aviary or up to 4 m around it, so nearby
    # birds and one bird's estimates from several pairs fuse.
    def grid(lo, hi):
        return st.integers(round(lo / 0.05), round(hi / 0.05)).map(lambda v: 0.05 * v)

    inside = st.tuples(grid(0.0, 4.0), grid(0.0, 3.4), grid(0.0, 2.0))
    around = st.tuples(grid(-1.0, 8.0), grid(-1.0, 8.0), grid(-0.5, 2.5))
    entities = draw(st.lists(st.one_of(
        inside.map(np.array), around.map(np.array),
        st.sampled_from(range(len(_DIRECTIONS))),
    ), min_size=1, max_size=8))
    noise = draw(st.sampled_from([0.0, 0.5, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frame = draw(st.integers(0, 3))

    detections, index_of = {}, {}
    for name in sorted(_RIG):
        cam = _RIG[name]
        seen = {}
        for e, entity in enumerate(entities):
            if isinstance(entity, int):  # no noise: the rays stay parallel
                pixel = _seen_at(cam, _centre(cam) + _DIRECTIONS[entity])
            elif (pixel := _seen_at(cam, entity)) is not None:
                pixel = pixel + rng.normal(0.0, noise, 2)
            if pixel is not None:
                seen[e] = pixel
        indices = draw(st.lists(st.integers(0, 99), min_size=len(seen), max_size=len(seen),
                                unique=True))
        index_of[name] = dict(zip(seen, indices))
        for (e, pixel), index in zip(seen.items(), indices):
            detections[(name, frame, index)] = _detection(name, frame, index, pixel)
            detections[(name, frame + 1, index)] = _detection(name, frame + 1, index,
                                                              pixel + 3.0)

    correspondences = {}
    for a, b in itertools.combinations(names, 2):
        state = draw(st.sampled_from(["absent", "empty", "some", "some"]))
        if state == "absent":
            continue
        pair = (a, b) if draw(st.booleans()) else (b, a)
        side_a, side_b = index_of[pair[0]], index_of[pair[1]]
        common = [e for e in side_a if e in side_b]
        corrs = []
        if state == "some" and common:
            corrs = [(side_a[e], side_b[e])
                     for e in draw(st.lists(st.sampled_from(common), unique=True))]
        if state == "some" and side_a and side_b:
            corrs += draw(st.lists(st.tuples(st.sampled_from(list(side_a.values())),
                                             st.sampled_from(list(side_b.values()))),
                                   max_size=2))
        correspondences[pair] = [Correspondence(i, j, support=2, mean_descriptor_distance=0.0)
                                 for i, j in draw(st.permutations(corrs))]

    order = draw(st.permutations(list(detections)))
    detections = {key: detections[key] for key in order}
    radius = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5]))
    bounds = draw(st.sampled_from([_ANYWHERE, (np.zeros(3), np.array([4.0, 3.4, 2.0]))]))
    cameras = {name: _RIG[name] for name in names}
    return frame, correspondences, detections, cameras, radius, bounds


class TestReconstructFrameMatchesPerMember:
    @settings(max_examples=300)
    @given(case=_frame_case())
    def test_random_frames(self, case):
        """Same observations, bit for bit, as per-pair undistortion and one
        ``project`` call per member, unmocked on the distorted rig."""
        frame, correspondences, detections, cameras, radius, bounds = case
        got = reconstruct_frame(frame, correspondences,
                                _centers(detections, cameras),
                                cameras, radius, bounds=bounds)
        expected = _reconstruct_frame_per_member(frame, correspondences, detections,
                                                 cameras, radius, bounds=bounds)
        assert got.cameras == tuple(sorted(cameras))
        assert got.errors.shape == (len(got), len(cameras))
        assert _observation_bits(got) == _observation_bits(expected)

    def test_member_behind_a_camera_and_parallel_rays(self):
        """A bird behind cam0 is triangulated by (cam0, cam2) and (cam2,
        cam3) and gets no cam0 error; a parallel-ray pair adds no estimate."""
        bird = np.array([7.5, 5.8, 1.2])
        cameras = {name: _RIG[name] for name in ("cam0", "cam2", "cam3")}
        assert project_points(cameras["cam0"], bird[None])[1][0] < 0
        detections = {}
        for name, cam in cameras.items():
            for index, target in ((7, bird), (3, _centre(cam) + _DIRECTIONS[0])):
                pixel = _seen_at(cam, target)
                if pixel is not None:
                    detections[(name, 0, index)] = _detection(name, 0, index, pixel)
        correspondences = {
            ("cam0", "cam2"): [Correspondence(3, 3, 2, 0.0), Correspondence(7, 7, 2, 0.0)],
            ("cam2", "cam3"): [Correspondence(7, 7, 2, 0.0)],
        }
        got = reconstruct_frame(0, correspondences,
                                _centers(detections, cameras), cameras, bounds=_ANYWHERE)
        expected = _reconstruct_frame_per_member(0, correspondences, detections, cameras,
                                                 bounds=_ANYWHERE)
        assert _observation_bits(got) == _observation_bits(expected)
        # One observation, behind cam0: no error there.
        assert len(got) == 1
        assert got.cameras == ("cam0", "cam2", "cam3")
        assert np.isnan(got.errors[0]).tolist() == [True, False, False]
        np.testing.assert_allclose(got.position[0], bird, atol=1e-6)


@st.composite
def _shuffled_detections(draw):
    """Detections of two rig cameras and one uncalibrated camera over a few
    frames, with gapped indices, in any order."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["cam0", "cam3", "camX"]),
                                   st.integers(0, 4), st.integers(0, 40)),
                         unique=True, max_size=40))
    pixel = st.tuples(st.floats(-50.0, 1970.0), st.floats(-50.0, 1130.0))
    return [_detection(cam, frame, index, draw(pixel), half=draw(st.floats(0.5, 30.0)))
            for cam, frame, index in keys]


class TestDetectionCenters:
    @settings(max_examples=200)
    @given(detections=_shuffled_detections())
    def test_rows_equal_per_row_ideal_pixels(self, detections):
        """Each (camera, frame) holds its ascending indices, and row for
        row the box centre and its ``ideal_pixels``, bit for bit; all of a
        camera's rows are read-only views of one array."""
        table = detection_centers(detection_table(detections), _RIG)
        expected = {}
        for det in sorted(detections, key=lambda d: d.index):
            if det.camera_id in _RIG:
                expected.setdefault((det.camera_id, det.frame), []).append(det)
        assert sorted(table) == sorted(expected)
        for (cam, frame), dets in expected.items():
            entry = table[(cam, frame)]
            assert entry.indices.tolist() == [d.index for d in dets]
            raw = np.array([box_center(d) for d in dets])
            ideal = np.array([ideal_pixels(_RIG[cam], box_center(d)) for d in dets])
            assert entry.raw.tobytes() == raw.tobytes()
            assert entry.ideal.tobytes() == ideal.tobytes()
            for column in (entry.indices, entry.raw, entry.ideal):
                assert not column.flags.owndata and not column.flags.writeable
            shuffled = [d.index for d in dets][::-1]
            assert entry.rows(shuffled).tolist() == list(range(len(dets)))[::-1]

    def test_missing_index_raises(self, default_rig):
        table = detection_centers(detection_table(
            [_detection("cam0", 2, index, (100.0, 200.0)) for index in (1, 4)]), default_rig
        )
        for missing in ([0], [2], [5], [4, 3]):
            with pytest.raises(KeyError):
                table[("cam0", 2)].rows(missing)

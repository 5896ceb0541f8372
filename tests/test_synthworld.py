"""Tests for the synthetic scene generator and its self-consistency."""

import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avitrack.camera import MIN_DEPTH, CameraModel, project_points
from avitrack.errors import ConfigError
from avitrack import synthworld
from avitrack.matching import DetectionTable, Keypoint, KeypointTable, knn_match
from matching_reference import detection_rows, table_of
from avitrack.reconstruction import detection_centers
from avitrack.synthworld import SceneConfig, _visible_boxes, generate, truth_labels


def _small_config(**overrides) -> SceneConfig:
    defaults = dict(
        duration_s=0.5, seed=1, camera_count=3, bird_count=3,
        image_size=(640, 360), focal_px=360.0, descriptor_length=16,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


class TestDeterminism:
    def test_identical_seed_gives_identical_bundle(self):
        a = generate(_small_config())
        b = generate(_small_config())
        assert len(a.detections) > 0
        assert detection_rows(a.detections) == detection_rows(b.detections)
        assert len(a.keypoints) == len(b.keypoints)
        for kp_a, kp_b in zip(a.keypoints, b.keypoints):
            np.testing.assert_array_equal(kp_a.position, kp_b.position)
            np.testing.assert_array_equal(kp_a.descriptor, kp_b.descriptor)

    def test_written_bundles_are_byte_identical(self, tmp_path):
        generate(_small_config()).write(tmp_path / "one")
        generate(_small_config()).write(tmp_path / "two")
        for name in (
            "calibration.json", "detections.csv", "keypoints.csv",
            "landmarks.csv", "truth.csv", "match_truth.csv",
        ):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_different_seeds_differ(self):
        a = generate(_small_config(seed=1))
        b = generate(_small_config(seed=2))
        assert detection_rows(a.detections) != detection_rows(b.detections)


class TestKeypointColumns:
    def test_generate_builds_no_keypoint(self, monkeypatch):
        """``generate`` draws keypoints into the table's arrays: on the
        README quickstart scene it constructs no ``Keypoint``."""
        built = []

        def tracked(self, *args, _init=Keypoint.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(Keypoint, "__init__", tracked)
        Keypoint("cam0", 0, 0, [0.0, 0.0], [0.0])
        assert built == ["Keypoint"]  # the count works
        built.clear()
        bundle = generate(SceneConfig(seed=42, bird_count=5, duration_s=2.0))
        assert built == []
        assert isinstance(bundle.keypoints, KeypointTable)
        assert len(bundle.keypoints) > 0
        assert not hasattr(synthworld, "Keypoint")

    def test_rows_follow_the_detections(self):
        """Rows come in detection order, each detection's keypoints together."""
        bundle = generate(_small_config(pixel_noise=0.5, descriptor_noise=0.05))
        table = bundle.keypoints
        keys = list(zip(table.camera.tolist(), table.frame.tolist(),
                        table.detection.tolist()))
        detections = bundle.detections
        assert isinstance(detections, DetectionTable)
        assert [column.dtype for column in (detections.camera, detections.frame,
                detections.index, detections.box, detections.confidence)] == [
            object, np.int64, np.int64, np.float64, np.float64]
        assert detections.box.shape == (len(detections), 4)
        order = {(d.camera_id, d.frame, d.index): i
                 for i, d in enumerate(detection_rows(detections))}
        runs = [key for i, key in enumerate(keys) if i == 0 or keys[i - 1] != key]
        assert runs == sorted(set(keys), key=order.__getitem__)
        assert table.desc.shape == (len(table), 16)
        assert np.array_equal(table.desc, np.round(table.desc, 6))


class TestSelfConsistency:
    def test_zero_pixel_noise_centers_match_truth_projection(self):
        """Detection centers equal reprojected truth to 1e-9 px."""
        bundle = generate(_small_config(pixel_noise=0.0))
        centers = detection_centers(bundle.detections, bundle.cameras)
        for det in detection_rows(bundle.detections):
            identity = bundle.detection_identities[(det.camera_id, det.frame, det.index)]
            truth_pos = bundle.truth_positions[det.frame][identity]
            pixels, depth = project_points(bundle.cameras[det.camera_id], truth_pos[None])
            assert depth[0] > MIN_DEPTH
            frame_centers = centers[(det.camera_id, det.frame)]
            center = frame_centers.raw[frame_centers.rows([det.index])[0]]
            np.testing.assert_allclose(center, pixels[0], atol=1e-9)

    def test_keypoints_inside_their_boxes(self):
        bundle = generate(_small_config(pixel_noise=1.5))
        boxes = {
            (d.camera_id, d.frame, d.index): d[3:7] for d in detection_rows(bundle.detections)
        }
        for kp in bundle.keypoints:
            x_min, y_min, x_max, y_max = boxes[
                (kp.camera_id, kp.frame, kp.detection_index)
            ]
            assert x_min <= kp.position[0] < x_max
            assert y_min <= kp.position[1] < y_max

    def test_every_detection_labeled(self):
        bundle = generate(_small_config())
        for det in detection_rows(bundle.detections):
            assert (det.camera_id, det.frame, det.index) in bundle.detection_identities

    def test_truth_positions_inside_aviary(self):
        bundle = generate(_small_config(duration_s=2.0))
        size = np.asarray(bundle.config.aviary_size)
        for frame_positions in bundle.truth_positions.values():
            for position in frame_positions.values():
                assert np.all(position >= 0) and np.all(position <= size)

    def test_landmarks_project_inside_all_views(self):
        bundle = generate(_small_config())
        for camera_id in sorted(bundle.cameras):
            assert len(bundle.landmark_set.entries(camera_id)) == bundle.config.landmark_count


class TestDescriptorAmbiguity:
    def _pair_precision(self, bundle, cam_a="cam0", cam_b="cam1"):
        truth = truth_labels(bundle)
        grouped = {}
        for kp in bundle.keypoints:
            grouped.setdefault((kp.camera_id, kp.frame), []).append(kp)
        total = correct = 0
        for frame in range(bundle.config.frame_count):
            a = grouped.get((cam_a, frame), [])
            b = grouped.get((cam_b, frame), [])
            if not a or not b:
                continue
            for match in knn_match(table_of(a), table_of(b)):
                total += 1
                correct += truth.match_is_correct(match)
        return correct, total

    def test_unique_birds_match_perfectly(self):
        """ambiguity 0 with no noise: brute-force matching is exact."""
        bundle = generate(
            _small_config(duration_s=1.0, ambiguity=0.0, descriptor_noise=0.0,
                          descriptor_length=32)
        )
        correct, total = self._pair_precision(bundle)
        assert total > 50
        assert correct == total

    def test_identical_birds_confuse_the_matcher(self):
        """ambiguity 1: candidate precision collapses to ~1/bird_count."""
        bundle = generate(
            _small_config(
                duration_s=2.0, bird_count=5, ambiguity=1.0,
                descriptor_noise=0.05, descriptor_length=32, occlusion=False,
            )
        )
        correct, total = self._pair_precision(bundle)
        assert total > 200
        precision = correct / total
        assert 0.08 <= precision <= 0.4

    def test_label_counts_match_generator_tally(self):
        bundle = generate(_small_config())
        truth = truth_labels(bundle)
        assert len(truth.identities) == len(bundle.detections)
        assert set(truth.positions) == set(range(bundle.config.frame_count))


class TestMotionModes:
    def test_anchored_birds_stay_near_their_landmarks(self):
        config = _small_config(
            motion="anchored", bird_count=3, landmark_count=4,
            wander_radius_m=0.2, duration_s=2.0,
        )
        bundle = generate(config)
        for frame_positions in bundle.truth_positions.values():
            for identity, position in frame_positions.items():
                anchor = bundle.landmarks_3d[identity]
                # Cube confinement: per-axis bound, allowing the clip margin.
                assert np.all(np.abs(position - anchor) <= 0.2 + 0.35 + 1e-9)

    def test_crossing_birds_swap_sides(self):
        config = _small_config(motion="crossing", bird_count=2, duration_s=2.0)
        bundle = generate(config)
        first = bundle.truth_positions[0]
        last = bundle.truth_positions[config.frame_count - 1]
        assert first[0][0] < first[1][0]
        assert last[0][0] > last[1][0]

    def test_anchored_needs_enough_landmarks(self):
        with pytest.raises(ConfigError, match="landmark"):
            generate(_small_config(motion="anchored", bird_count=5, landmark_count=3))


_BAD_SCENES = [  # (setting, value, ConfigError message)
    ("image_size", (0, 0), "image_size must be positive, got (0, 0)"),
    ("image_size", (640, -360), "image_size must be positive"),
    ("image_size", (640.0, 360), "image_size must be a pair of ints, got (640.0, 360)"),
    ("focal_px", 0.0, "focal_px must be positive, got 0.0"),
    ("focal_px", -360.0, "focal_px must be positive"),
    ("body_radius_m", 1.0, "body_radius_m must be > 0 with 2 x"),
    ("body_radius_m", 0.95, "body_radius_m must be > 0 with 2 x"),  # 2 x 1.0 m: no room
    ("body_radius_m", 0.0, "body_radius_m must be > 0"),
    ("body_radius_m", -0.1, "body_radius_m must be > 0"),
    ("aviary_size", (4.0, 3.4, 0.4), "body_radius_m must be > 0 with 2 x"),
    ("descriptor_length", 0, "descriptor_length must be at least 1, got 0"),
    ("camera_count", 2.5, "camera_count must be an int, got 2.5"),
    ("bird_count", True, "bird_count must be an int, got True"),
    ("seed", "1", "seed must be an int, got '1'"),
    ("keypoints_per_detection", (3, 6.0), "keypoints_per_detection must be a pair"),
    ("aviary_size", (4.0, 3.4), "aviary_size must be three numbers, got (4.0, 3.4)"),
    ("landmarks", [(1.0, 1.0)], "landmarks must be None or a non-empty list of (x, y, z) "
     "points, got [(1.0, 1.0)]"),
    ("landmarks", [], "landmarks must be None or a non-empty list"),
    ("fps", "30", "fps must be a number, got '30'"),
    ("duration_s", "2", "duration_s must be a number, got '2'"),
    ("emit_frames", "no", "emit_frames must be a bool, got 'no'"),
    ("occlusion", "off", "occlusion must be a bool, got 'off'"),
    ("occlusion", 0, "occlusion must be a bool, got 0"),
    ("motion", 0, "motion must be text, got 0"),
]


class TestConfigValidation:
    def test_bad_ambiguity(self):
        with pytest.raises(ConfigError):
            generate(_small_config(ambiguity=1.5))

    def test_bad_bird_count(self):
        with pytest.raises(ConfigError):
            generate(_small_config(bird_count=0))

    def test_zero_landmarks_rejected(self):
        with pytest.raises(ConfigError, match="landmark_count"):
            generate(_small_config(landmark_count=0))

    def test_nonpositive_wander_rejected(self):
        with pytest.raises(ConfigError, match="wander"):
            generate(_small_config(wander_radius_m=0.0))

    def test_narrow_fov_rejected(self):
        with pytest.raises(ConfigError, match="frame the whole aviary"):
            generate(_small_config(focal_px=4000.0))

    def test_landmarks_outside_box_rejected(self):
        with pytest.raises(ConfigError):
            generate(_small_config(landmarks=[(99.0, 0.0, 0.0)]))

    @pytest.mark.parametrize("bad", [
        {"duration_s": float("nan")},
        {"fps": float("inf")},
        {"pixel_noise": float("nan")},
        {"descriptor_noise": float("inf")},
        {"max_speed": float("inf")},
        {"focal_px": float("nan")},
        {"aviary_size": (4.0, float("inf"), 2.0)},
        {"distortion": (float("nan"), 0.0, 0.0, 0.0, 0.0)},
        {"landmarks": [(1.0, 1.0, float("nan"))]},
    ], ids=lambda bad: next(iter(bad)))
    def test_non_finite_setting_rejected(self, bad):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be finite"):
            generate(_small_config(**bad))

    @pytest.mark.parametrize("name", [f.name for f in fields(SceneConfig)
                                      if type(f.default) is float or f.name == "focal_px"])
    def test_a_number_beyond_float_is_rejected_before_any_draw(self, monkeypatch, name):
        """An int too large for a float is not finite: ``validate`` says so
        instead of raising ``OverflowError``, or passing it to ``generate``."""
        def no_rng(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(synthworld.np.random, "default_rng", no_rng)
        with pytest.raises(ConfigError, match=f"{name} must be finite, got {10**400}"):
            generate(_small_config(**{name: 10**400, "motion": "anchored"}))

    @pytest.mark.parametrize("name, value, message", _BAD_SCENES,
                             ids=[f"{name}={value!r}" for name, value, _ in _BAD_SCENES])
    def test_bad_setting_fails_before_any_draw(self, monkeypatch, name, value, message):
        def no_rng(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(synthworld.np.random, "default_rng", no_rng)
        with pytest.raises(ConfigError, match=re.escape(message)):
            generate(_small_config(**{name: value}))

    def test_a_body_that_fits_is_accepted(self):
        _small_config(body_radius_m=0.9, duration_s=0.1).validate()

    def test_frame_count_arithmetic(self):
        assert SceneConfig(duration_s=60.0, fps=30.0).frame_count == 1800

    def test_a_duration_of_no_frame_is_rejected(self):
        assert SceneConfig(duration_s=0.01, fps=30.0).frame_count == 0
        with pytest.raises(ConfigError, match="duration_s 0.01 at fps 30.0 gives no frame"):
            generate(_small_config(duration_s=0.01))

    def test_default_rig_mirrors_reference_setup(self):
        """Five cameras, 1920x1080, 30 FPS, 27.2 m^3 box."""
        config = SceneConfig()
        assert config.camera_count == 5
        assert config.image_size == (1920, 1080)
        assert config.fps == 30.0
        volume = np.prod(np.asarray(config.aviary_size))
        assert volume == pytest.approx(27.2)


# One bird thrown about by 120 px of box noise: its box leaves some views.
def _frames_config(**overrides) -> SceneConfig:
    return _small_config(emit_frames=True, duration_s=0.2, bird_count=1,
                         pixel_noise=120.0, **overrides)


class TestFrames:
    def test_emitted_frames_cover_detections(self):
        bundle = generate(_frames_config())
        assert len(bundle.detections)
        for (camera_id, frame), image in bundle.frames.items():
            assert (image.width, image.height) == bundle.cameras[camera_id].image_size
        for det in detection_rows(bundle.detections):
            pixels = bundle.frames[det.camera_id, det.frame].pixels
            col = math.floor((det.x_min + det.x_max) / 2.0 + 0.5)
            row = math.floor((det.y_min + det.y_max) / 2.0 + 0.5)
            assert pixels[row, col] == 215

    def test_every_camera_frame_is_a_frame(self, tmp_path):
        config = _frames_config()
        bundle = generate(config)
        detected = {(det.camera_id, det.frame) for det in detection_rows(bundle.detections)}
        keys = {(camera_id, frame) for camera_id in bundle.cameras
                for frame in range(config.frame_count)}
        assert keys - detected, "the scene should have a frame without a detection"
        assert len(bundle.frames) == config.frame_count * config.camera_count
        assert set(bundle.frames) == keys
        empty = next(iter(sorted(keys - detected)))
        assert np.all(bundle.frames[empty].pixels == 30)
        bundle.write(tmp_path)
        assert {p.name for p in (tmp_path / "frames").glob("*.pgm")} == {
            f"{camera_id}_frame{frame}.pgm" for camera_id, frame in keys
        }

    def test_frame_files_written(self, tmp_path):
        bundle = generate(_small_config(emit_frames=True, duration_s=0.2))
        bundle.write(tmp_path)
        pgms = list((tmp_path / "frames").glob("cam*_frame*.pgm"))
        assert len(pgms) == len(bundle.frames)

    def test_frames_are_rendered_on_each_read(self):
        bundle = generate(_small_config(emit_frames=True, duration_s=0.2))
        key = next(iter(bundle.frames))
        first, again = bundle.frames[key], bundle.frames[key]
        assert first is not again
        np.testing.assert_array_equal(first.pixels, again.pixels)
        with pytest.raises(TypeError):
            bundle.frames[key] = first

    def test_no_frames_without_emit_frames(self, tmp_path):
        bundle = generate(_small_config(duration_s=0.2))
        assert len(bundle.frames) == 0
        bundle.write(tmp_path)
        assert not (tmp_path / "frames").exists()

    def test_set_up_holds_a_few_frames_at_a_time(self, tmp_path):
        """Numpy reports its buffers to ``tracemalloc``. A 0.2-s scene at
        1920x1080 has 30 frames; holding them all would peak above 30
        frames' bytes in ``generate`` and in ``write``, whose peak counts
        the bundle it writes."""
        config = SceneConfig(duration_s=0.2, bird_count=3, emit_frames=True)
        frame_bytes = config.image_size[0] * config.image_size[1]
        assert config.frame_count * config.camera_count == 30
        tracemalloc.start()
        try:
            bundle = generate(config)
            generate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            bundle.write(tmp_path)
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert generate_peak < 4 * frame_bytes
        assert write_peak < 8 * frame_bytes
        assert len(list((tmp_path / "frames").glob("*.pgm"))) == 30


def _visible_loop(cam, positions, config, rng):
    """The per-bird view step that ``_visible_boxes`` replaced, as reference:
    one (identity, center, half_w, half_h, z) per detected bird."""
    w, h = cam.image_size
    pixels, depths = project_points(cam, positions)
    in_front = depths > MIN_DEPTH

    visible = []
    for identity in range(len(positions)):
        if not in_front[identity]:
            continue
        z = depths[identity]
        half_w = cam.fx * config.body_radius_m / z
        half_h = cam.fy * config.body_radius_m / z
        center = pixels[identity]
        if config.pixel_noise > 0:
            center = center + rng.normal(0.0, config.pixel_noise, size=2)
        if (
            center[0] - half_w < 0
            or center[0] + half_w >= w
            or center[1] - half_h < 0
            or center[1] + half_h >= h
        ):
            continue
        visible.append((identity, center, half_w, half_h, z))

    if config.occlusion and len(visible) > 1:
        survivors = []
        for i, (identity, center, hw, hh, z) in enumerate(visible):
            draw = rng.uniform()
            worst = 0.0
            area = 4.0 * hw * hh
            for j, (_, c2, hw2, hh2, z2) in enumerate(visible):
                if j == i or z2 >= z:
                    continue
                ix = min(center[0] + hw, c2[0] + hw2) - max(
                    center[0] - hw, c2[0] - hw2
                )
                iy = min(center[1] + hh, c2[1] + hh2) - max(
                    center[1] - hh, c2[1] - hh2
                )
                if ix > 0 and iy > 0:
                    worst = max(worst, ix * iy / area)
            if draw >= worst:
                survivors.append((identity, center, hw, hh, z))
        visible = survivors
    return visible


# A camera at the world origin looking down +z, without and with the
# generator's default distortion.
_VIEW = CameraModel(
    cam_id="view", fx=400.0, fy=400.0, cx=320.0, cy=180.0, dist=np.zeros(5),
    rotation=np.eye(3), translation=np.zeros(3), image_size=(640, 360),
)
_VIEWS = [_VIEW, replace(_VIEW, dist=np.asarray(SceneConfig().distortion))]
# Image positions as shares of the frame. Shared values make equal depths
# and stacked boxes; "low" and "high" put the box's edge on the frame's;
# depths <= MIN_DEPTH are behind the camera.
_SHARE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.3, 0.32, 0.36, "low", "high"]))
_DEPTH = st.one_of(st.floats(1.0, 8.0), st.sampled_from([2.0, 2.4, 4.0]),
                   st.sampled_from([1e-6, 1e-13, 0.0, -1.0]))


def _bird_at(cam, radius, u, v, z):
    """The world point at depth ``z`` whose undistorted pixel is at the
    shares (u, v) of the frame."""
    w, h = cam.image_size
    half_w, half_h = (cam.fx * radius / z, cam.fy * radius / z) if z > 0 else (0.0, 0.0)
    x = {"low": half_w, "high": w - half_w}[u] if isinstance(u, str) else u * w
    y = {"low": half_h, "high": h - half_h}[v] if isinstance(v, str) else v * h
    return [(x - cam.cx) / cam.fx * z, (y - cam.cy) / cam.fy * z, z]


class TestVisibleBoxesMatchPerBirdLoop:
    @settings(max_examples=300)
    @given(
        cam=st.sampled_from(_VIEWS),
        radius=st.sampled_from([0.05, 0.15]),
        birds=st.lists(st.tuples(_SHARE, _SHARE, _DEPTH), max_size=40),
        occlusion=st.booleans(),
        pixel_noise=st.sampled_from([0.0, 0.7, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Two near boxes each cover 40% of a far one; the far bird's draw, 0.637,
    # falls between the largest share and the sum of the shares.
    @example(cam=_VIEW, radius=0.15, occlusion=True, pixel_noise=0.0, seed=0,
             birds=[(0.5, 0.5, 4.0), (287 / 640, 0.5, 2.0), (353 / 640, 0.5, 2.0)])
    def test_same_boxes_and_draws(self, cam, radius, birds, occlusion, pixel_noise, seed):
        """Identities, centers and half-sizes have the loop's bits, and the
        rng ends in the loop's state."""
        config = SceneConfig(body_radius_m=radius, occlusion=occlusion,
                             pixel_noise=pixel_noise)
        positions = np.array([_bird_at(cam, radius, *bird) for bird in birds]).reshape(-1, 3)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        identities, centers, halves = _visible_boxes(cam, positions, config, rng)
        expected = _visible_loop(cam, positions, config, reference_rng)
        assert identities.tolist() == [identity for identity, *_ in expected]
        assert centers.tobytes() == np.array(
            [center for _, center, *_ in expected]).reshape(-1, 2).tobytes()
        assert halves.tobytes() == np.array(
            [(hw, hh) for _, _, hw, hh, _ in expected]).reshape(-1, 2).tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

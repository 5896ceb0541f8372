"""Tests for the camera model, projection, and Rodrigues conversions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack.camera import (
    MIN_DEPTH,
    CameraModel,
    project,
    project_points,
    projection_matrix,
    rotation_from_rvec,
    rvec_from_rotation,
)
from avitrack.errors import BehindCameraError
from avitrack.synthworld import SceneConfig, build_camera_rig


def _camera(**overrides) -> CameraModel:
    defaults = dict(
        cam_id="c",
        fx=1000.0,
        fy=1000.0,
        cx=960.0,
        cy=540.0,
        dist=np.zeros(5),
        rotation=np.eye(3),
        translation=np.zeros(3),
        image_size=(1920, 1080),
    )
    defaults.update(overrides)
    return CameraModel(**defaults)


def _with_entry(shape, value):
    """The identity-like array of ``shape`` (zeros for a vector) with its
    first entry set to ``value``."""
    array = np.eye(3) if shape == (3, 3) else np.zeros(shape)
    array.flat[0] = value
    return array


_NON_FINITE = [  # (field, value)
    ("fx", np.nan), ("fy", np.inf), ("cx", np.nan), ("cy", -np.inf),
    ("dist", _with_entry(5, np.nan)), ("dist", _with_entry(5, np.inf)),
    ("rotation", np.full((3, 3), np.nan)), ("rotation", _with_entry((3, 3), np.inf)),
    ("translation", _with_entry(3, np.nan)), ("translation", _with_entry(3, -np.inf)),
]


class TestConstruction:
    @pytest.mark.parametrize("field, value", _NON_FINITE, ids=[
        f"{field}-{'nan' if np.isnan(value).any() else 'inf'}" for field, value in _NON_FINITE])
    def test_rejects_a_non_finite_number_before_any_other_check(self, field, value):
        """The field is named, and no range or determinant check warns on it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^camera c: {field} holds a non-finite number$"):
                _camera(**{field: value})

    def test_names_the_first_non_finite_field(self):
        with pytest.raises(ValueError, match="^camera x: fx holds a non-finite number$"):
            CameraModel("x", np.nan, 100.0, 50.0, 50.0, np.zeros(5), np.full((3, 3), np.nan),
                        np.zeros(3), (100, 100))

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="orthonormal"):
            _camera(rotation=bad)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            _camera(rotation=np.diag([1.0, 1.0, -1.0]))

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError, match="focal"):
            _camera(fx=0.0)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ValueError, match="principal"):
            _camera(cx=1920.0)


class TestProjectionMatrix:
    def test_identity_camera(self, ideal_camera):
        """K=I, R=I, t=0 gives [I | 0]."""
        p = projection_matrix(ideal_camera)
        np.testing.assert_allclose(p, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_first_row_with_focal_two(self):
        """fx=fy=2, c=0, R=I, t=(1,0,0): first row is (2, 0, 0, 2)."""
        cam = _camera(
            fx=2.0, fy=2.0, cx=0.0, cy=0.0,
            translation=np.array([1.0, 0.0, 0.0]),
            image_size=(2, 2),
        )
        np.testing.assert_allclose(projection_matrix(cam)[0], [2.0, 0.0, 0.0, 2.0])

    def test_rank_three(self, default_rig):
        for cam in default_rig.values():
            assert np.linalg.matrix_rank(projection_matrix(cam)) == 3

    def test_matrix_reproduces_forward_projection(self, default_rig):
        """P @ X matches the direct K(RX+t) evaluation without distortion."""
        rng = np.random.default_rng(5)
        points = rng.uniform([0.5, 0.5, 0.3], [3.5, 2.9, 1.7], size=(50, 3))
        for cam in default_rig.values():
            zero_dist = CameraModel(
                cam_id=cam.cam_id, fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                dist=np.zeros(5), rotation=cam.rotation,
                translation=cam.translation, image_size=cam.image_size,
            )
            p = projection_matrix(zero_dist)
            homog = (p @ np.hstack([points, np.ones((50, 1))]).T).T
            via_matrix = homog[:, :2] / homog[:, 2:3]
            direct, depth = project_points(zero_dist, points)
            assert np.all(depth > MIN_DEPTH)
            np.testing.assert_allclose(via_matrix, direct, atol=1e-9)


class TestProject:
    def test_on_axis_point(self, ideal_camera):
        np.testing.assert_allclose(project(ideal_camera, [0.0, 0.0, 5.0]), [0.0, 0.0])

    def test_translated_camera(self):
        cam = _camera(
            fx=1.0, fy=1.0, cx=0.0, cy=0.0,
            translation=np.array([1.0, 0.0, 0.0]), image_size=(2, 2),
        )
        np.testing.assert_allclose(project(cam, [0.0, 0.0, 2.0]), [0.5, 0.0])

    def test_behind_camera_raises(self, ideal_camera):
        with pytest.raises(BehindCameraError):
            project(ideal_camera, [0.0, 0.0, -1.0])

    def test_zero_distortion_matches_direct_formula(self, default_rig):
        """Round trip: projection equals the closed-form pinhole map."""
        rng = np.random.default_rng(9)
        points = rng.uniform([0.3, 0.3, 0.2], [3.7, 3.1, 1.8], size=(200, 3))
        cam = next(iter(default_rig.values()))
        zero_dist = CameraModel(
            cam_id="z", fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
            dist=np.zeros(5), rotation=cam.rotation,
            translation=cam.translation, image_size=cam.image_size,
        )
        pixels, depth = project_points(zero_dist, points)
        cam_pts = points @ zero_dist.rotation.T + zero_dist.translation
        expected = np.column_stack(
            [
                zero_dist.fx * cam_pts[:, 0] / cam_pts[:, 2] + zero_dist.cx,
                zero_dist.fy * cam_pts[:, 1] / cam_pts[:, 2] + zero_dist.cy,
            ]
        )
        assert np.all(depth > MIN_DEPTH)
        np.testing.assert_allclose(pixels, expected, atol=1e-9)

    def test_undistort_inverts_distort(self):
        """undistort(distort(x)) within 1e-8 normalized units for |x| <= 1.5."""
        cam = _camera(dist=np.array([0.02, -0.005, 0.0005, -0.0005, 0.0002]))
        rng = np.random.default_rng(3)
        normalized = rng.uniform(-1.5, 1.5, size=(500, 2))
        distorted = cam.distort(normalized)
        pixels = np.column_stack(
            [cam.fx * distorted[:, 0] + cam.cx, cam.fy * distorted[:, 1] + cam.cy]
        )
        recovered = cam.undistort(pixels)
        assert np.max(np.abs(recovered - normalized)) <= 1e-8


def _project_loop(cam, point):
    """The one-point projection that ``project_points`` replaced, as reference."""
    cam_pt = np.asarray(point, dtype=float).reshape(3) @ cam.rotation.T + cam.translation
    z = cam_pt[2]
    if z <= 1e-12:
        raise BehindCameraError(
            f"camera {cam.cam_id}: point has depth {z:.3g} <= 0"
        )
    normalized = cam_pt[:2] / z
    distorted = cam.distort(normalized)
    return np.array(
        [cam.fx * distorted[0] + cam.cx, cam.fy * distorted[1] + cam.cy]
    )


# The distorted synthetic rig, and a camera that sees the origin at depth 0.
_CAMERAS = list(build_camera_rig(SceneConfig()).values()) + [
    _camera(fx=800.0, translation=np.array([0.5, -0.25, 0.0]))
]
_WORLD = st.one_of(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, np.nan, 1e6]),
)


class TestProjectPointsMatchesOnePointLoop:
    @settings(max_examples=200)
    @given(
        camera=st.sampled_from(_CAMERAS),
        points=st.lists(st.tuples(_WORLD, _WORLD, _WORLD), min_size=1, max_size=8),
    )
    def test_rows_equal_one_point_projection(self, camera, points):
        """Every row has the reference's bits, or the reference raised and the
        row is NaN at depth <= MIN_DEPTH; scalar ``project`` agrees too."""
        points = np.array(points, dtype=float)
        pixels, depth = project_points(camera, points)
        for point, row, z in zip(points, pixels, depth):
            try:
                expected = _project_loop(camera, point)
            except BehindCameraError as exc:
                assert z <= MIN_DEPTH and np.isnan(row).all()
                with pytest.raises(BehindCameraError) as got:
                    project(camera, point)
                assert str(got.value) == str(exc)
                continue
            assert row.tobytes() == expected.tobytes()
            assert project(camera, point).tobytes() == expected.tobytes()


class TestRodrigues:
    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rvec = rng.uniform(-np.pi, np.pi, size=3)
            rot = rotation_from_rvec(rvec)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(
                rotation_from_rvec(rvec_from_rotation(rot)), rot, atol=1e-9
            )

    def test_near_pi_rotation(self):
        rvec = np.array([np.pi - 1e-9, 0.0, 0.0])
        rot = rotation_from_rvec(rvec)
        recovered = rvec_from_rotation(rot)
        np.testing.assert_allclose(rotation_from_rvec(recovered), rot, atol=1e-7)

    def test_zero_rotation(self):
        np.testing.assert_allclose(rvec_from_rotation(np.eye(3)), np.zeros(3))

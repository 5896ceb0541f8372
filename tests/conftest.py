"""Shared fixtures (small camera rigs and landmark layouts) and test settings."""

import numpy as np
import pytest
from hypothesis import settings

from avitrack.camera import CameraModel
from avitrack.synthworld import SceneConfig, build_camera_rig
from avitrack.voronoi import LandmarkSet

# Property tests draw the same examples on every run, whatever the host's
# speed, and keep no example database on disk.
settings.register_profile("avitrack", deadline=None, derandomize=True, database=None)
settings.load_profile("avitrack")


@pytest.fixture
def ideal_camera() -> CameraModel:
    """Unit-focal camera at the origin, no distortion."""
    return CameraModel(
        cam_id="ideal",
        fx=1.0,
        fy=1.0,
        cx=0.0,
        cy=0.0,
        dist=np.zeros(5),
        rotation=np.eye(3),
        translation=np.zeros(3),
        image_size=(2, 2),
    )


@pytest.fixture
def stereo_pair() -> tuple[CameraModel, CameraModel]:
    """Symmetric normalized stereo pair with baseline 1 along x."""
    left = CameraModel(
        cam_id="left",
        fx=1.0, fy=1.0, cx=0.0, cy=0.0,
        dist=np.zeros(5),
        rotation=np.eye(3),
        translation=np.array([0.5, 0.0, 0.0]),
        image_size=(2, 2),
    )
    right = CameraModel(
        cam_id="right",
        fx=1.0, fy=1.0, cx=0.0, cy=0.0,
        dist=np.zeros(5),
        rotation=np.eye(3),
        translation=np.array([-0.5, 0.0, 0.0]),
        image_size=(2, 2),
    )
    return left, right


@pytest.fixture
def default_rig() -> dict[str, CameraModel]:
    """The synthetic 5-camera rig around the default aviary."""
    return build_camera_rig(SceneConfig())


@pytest.fixture
def two_landmarks() -> LandmarkSet:
    landmarks = LandmarkSet({"cam0": (100, 80)})
    landmarks.add("cam0", 1, (25.0, 40.0))
    landmarks.add("cam0", 2, (75.0, 40.0))
    return landmarks

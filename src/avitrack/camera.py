"""Pinhole camera model with Brown-Conrady distortion.

Conventions follow OpenCV: +x right, +y down, +z in front of the camera.
``rotation`` maps world coordinates into the camera frame, ``translation``
is the world origin expressed in camera coordinates (meters). Pixel
coordinates put (0, 0) at the center of the top-left pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError

_ORTHONORMAL_TOL = 1e-9
MIN_DEPTH = 1e-12
DEFAULT_REPROJ_THRESHOLD_PX = 25.0  # "below threshold" share in reprojection stats


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rotation_from_rvec(rvec: np.ndarray) -> np.ndarray:
    """Convert an axis-angle vector to a rotation matrix (Rodrigues)."""
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    theta = float(np.linalg.norm(rvec))
    if theta < 1e-12:
        k = skew(rvec)
        return np.eye(3) + k + 0.5 * (k @ k)
    axis = rvec / theta
    k = skew(axis)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def rvec_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to its axis-angle vector."""
    rot = np.asarray(rot, dtype=float)
    cos_theta = np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < 1e-12:
        return np.zeros(3)
    if np.pi - theta < 1e-6:
        # Near a half-turn the skew part vanishes; recover the axis from
        # the symmetric part and fix its sign with an off-diagonal entry.
        b = (rot + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(b), 0.0))
        order = np.argmax(axis)
        if axis[order] > 0:
            for i in range(3):
                if i != order and b[order, i] < 0:
                    axis[i] = -axis[i]
        axis = axis / np.linalg.norm(axis)
        return theta * axis
    axis = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    ) / (2.0 * np.sin(theta))
    return theta * axis


@dataclass(frozen=True)
class CameraModel:
    """Calibrated camera: intrinsics, 5-coefficient distortion, pose.

    ``dist`` holds (k1, k2, p1, p2, k3). Raises ValueError at construction
    if a number is not finite, the rotation is not orthonormal or the
    intrinsics are out of range.
    """

    cam_id: str
    fx: float
    fy: float
    cx: float
    cy: float
    dist: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "dist", np.asarray(self.dist, dtype=float).reshape(5))
        object.__setattr__(
            self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3)
        )
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(3)
        )
        object.__setattr__(self, "image_size", tuple(int(v) for v in self.image_size))
        for name in ("fx", "fy", "cx", "cy", "dist", "rotation", "translation"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"camera {self.cam_id}: {name} holds a non-finite number")
        r = self.rotation
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHONORMAL_TOL:
            raise ValueError(f"camera {self.cam_id}: rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHONORMAL_TOL:
            raise ValueError(f"camera {self.cam_id}: rotation determinant is not +1")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"camera {self.cam_id}: focal lengths must be positive")
        w, h = self.image_size
        if not (0 <= self.cx < w and 0 <= self.cy < h):
            raise ValueError(f"camera {self.cam_id}: principal point outside image")

    @property
    def intrinsic_matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def distort(self, normalized: np.ndarray) -> np.ndarray:
        """Apply Brown-Conrady distortion to normalized (..., 2) coordinates."""
        normalized = np.asarray(normalized, dtype=float)
        x = normalized[..., 0]
        y = normalized[..., 1]
        k1, k2, p1, p2, k3 = self.dist
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        return np.stack([xd, yd], axis=-1)

    def undistort(self, pixels: np.ndarray, iterations: int = 10) -> np.ndarray:
        """Invert distortion for pixel (..., 2) coords; returns normalized coords.

        Fixed-point iteration; accurate to ~1e-8 normalized units for the
        moderate coefficients this model is intended for.
        """
        pixels = np.asarray(pixels, dtype=float)
        x0 = (pixels[..., 0] - self.cx) / self.fx
        y0 = (pixels[..., 1] - self.cy) / self.fy
        k1, k2, p1, p2, k3 = self.dist
        x, y = x0.copy(), y0.copy()
        for _ in range(iterations):
            r2 = x * x + y * y
            radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
            dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
            dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
            x = (x0 - dx) / radial
            y = (y0 - dy) / radial
        return np.stack([x, y], axis=-1)


def projection_matrix(cam: CameraModel) -> np.ndarray:
    """3x4 projection matrix K [R | t]."""
    rt = np.hstack([cam.rotation, cam.translation.reshape(3, 1)])
    return cam.intrinsic_matrix @ rt


def project_points(
    cam: CameraModel, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) world points; returns (pixels (N, 2), depth (N,)).

    ``depth`` is the camera-frame z; a point is in front of the camera when
    ``depth > MIN_DEPTH``, and the pixels of the others are NaN. Each row is
    transformed by its own vector-matrix product, so row i has the same bits
    as projecting point i alone, whatever the other rows are.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    cam_pts = np.matmul(points[:, None, :], cam.rotation.T)[:, 0, :] + cam.translation
    depth = cam_pts[:, 2]
    behind = depth <= MIN_DEPTH
    normalized = cam_pts[:, :2] / np.where(behind, 1.0, depth)[:, None]
    distorted = cam.distort(normalized)
    pixels = np.empty_like(distorted)
    pixels[:, 0] = cam.fx * distorted[:, 0] + cam.cx
    pixels[:, 1] = cam.fy * distorted[:, 1] + cam.cy
    pixels[behind] = np.nan
    return pixels, depth


def project(cam: CameraModel, point: np.ndarray) -> np.ndarray:
    """Project one world point (meters) to pixel coordinates.

    Raises BehindCameraError when the camera-frame depth is not positive.
    """
    pixels, depth = project_points(cam, np.asarray(point, dtype=float).reshape(1, 3))
    z = depth[0]
    if z <= MIN_DEPTH:
        raise BehindCameraError(
            f"camera {cam.cam_id}: point has depth {z:.3g} <= 0"
        )
    return pixels[0]


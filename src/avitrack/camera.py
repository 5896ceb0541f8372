"""Pinhole camera model with Brown-Conrady distortion.

Conventions follow OpenCV: +x right, +y down, +z in front of the camera.
``rotation`` maps world coordinates into the camera frame, ``translation``
is the world origin expressed in camera coordinates (meters). Pixel
coordinates put (0, 0) at the center of the top-left pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BehindCameraError, DegenerateConfigurationError, EmptyInputError

_ORTHONORMAL_TOL = 1e-9
MIN_DEPTH = 1e-12
DEFAULT_REPROJ_THRESHOLD_PX = 25.0  # "below threshold" share in error stats


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
class ErrorStats:
    """Aggregate pixel-error statistics for a set of point pairs."""

    count: int
    mean: float
    std: float
    min: float
    max: float
    pct_below_threshold: float
    threshold_px: float = DEFAULT_REPROJ_THRESHOLD_PX


@dataclass(frozen=True)
class CameraModel:
    """Calibrated camera: intrinsics, 5-coefficient distortion, pose.

    ``dist`` holds (k1, k2, p1, p2, k3). Raises ValueError at construction
    if the rotation is not orthonormal or the intrinsics are out of range.
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

    def camera_frame(self, points: np.ndarray) -> np.ndarray:
        """World points (..., 3) expressed in the camera frame."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

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

    ``depth`` is the camera-frame z. Pixels of points at depth <=
    ``MIN_DEPTH`` are NaN. Each row is transformed by its own vector-matrix
    product, so row i has the same bits as projecting point i alone;
    ``project_many`` transforms all rows in one matrix product, which can
    round the last bit differently.
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


def project_many(cam: CameraModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of (N, 3) world points.

    Returns (pixels (N, 2), in_front (N,) bool). Pixels for points behind
    the camera are NaN rather than raising, so callers can mask.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    cam_pts = cam.camera_frame(points)
    z = cam_pts[:, 2]
    in_front = z > MIN_DEPTH
    safe_z = np.where(in_front, z, 1.0)
    normalized = cam_pts[:, :2] / safe_z[:, None]
    distorted = cam.distort(normalized)
    pixels = np.empty_like(distorted)
    pixels[:, 0] = cam.fx * distorted[:, 0] + cam.cx
    pixels[:, 1] = cam.fy * distorted[:, 1] + cam.cy
    pixels[~in_front] = np.nan
    return pixels, in_front


def reprojection_error(
    projected: np.ndarray,
    observed: np.ndarray,
    threshold_px: float = DEFAULT_REPROJ_THRESHOLD_PX,
) -> ErrorStats:
    """Per-point pixel distance statistics between two equal-length point lists."""
    projected = np.asarray(projected, dtype=float).reshape(-1, 2)
    observed = np.asarray(observed, dtype=float).reshape(-1, 2)
    if projected.shape[0] == 0 or observed.shape[0] == 0:
        raise EmptyInputError("reprojection_error: empty point list")
    if projected.shape != observed.shape:
        raise ValueError(
            f"length mismatch: {projected.shape[0]} projected vs "
            f"{observed.shape[0]} observed"
        )
    errors = np.linalg.norm(projected - observed, axis=1)
    return ErrorStats(
        count=int(errors.size),
        mean=float(errors.mean()),
        std=float(errors.std()),
        min=float(errors.min()),
        max=float(errors.max()),
        pct_below_threshold=float(100.0 * np.mean(errors < threshold_px)),
        threshold_px=threshold_px,
    )


def _total_error(cam: CameraModel, world: np.ndarray, observed: np.ndarray) -> float:
    pixels, in_front = project_many(cam, world)
    if not np.all(in_front):
        return float("inf")
    return float(np.linalg.norm(pixels - observed, axis=1).sum())


def _check_not_degenerate(world: np.ndarray, observed: np.ndarray) -> None:
    # Rank of the DLT system: a unique projection matrix (up to scale)
    # needs rank 11, which fails for <6 points and for coplanar or
    # collinear point sets.
    n = world.shape[0]
    rows = np.zeros((2 * n, 12))
    homog = np.hstack([world, np.ones((n, 1))])
    rows[0::2, 0:4] = homog
    rows[0::2, 8:12] = -observed[:, 0:1] * homog
    rows[1::2, 4:8] = homog
    rows[1::2, 8:12] = -observed[:, 1:2] * homog
    singular = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(singular > singular[0] * 1e-9))
    if rank < 11:
        raise DegenerateConfigurationError(
            f"calibration points are degenerate (DLT rank {rank} < 11, "
            f"{n} point pairs)"
        )


def refine_calibration(
    cam: CameraModel,
    known: list[tuple[np.ndarray, np.ndarray]],
    max_sweeps: int = 200,
    rel_tol: float = 1e-8,
) -> CameraModel:
    """Reduce reprojection error over known 3D-2D pairs by coordinate descent.

    Descends over (fx, fy, cx, cy, t, rotation as axis-angle) with per-axis
    step halving; total error is monotone non-increasing and the result is
    never worse than the input model. Needs >= 6 non-degenerate pairs.
    """
    if len(known) < 6:
        raise DegenerateConfigurationError(
            f"refine_calibration needs >= 6 point pairs, got {len(known)}"
        )
    world = np.asarray([np.asarray(p, dtype=float).reshape(3) for p, _ in known])
    observed = np.asarray([np.asarray(q, dtype=float).reshape(2) for _, q in known])
    _check_not_degenerate(world, observed)

    params = np.concatenate(
        [
            [cam.fx, cam.fy, cam.cx, cam.cy],
            cam.translation,
            rvec_from_rotation(cam.rotation),
        ]
    )
    steps = np.array([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.005, 0.005, 0.005])

    def build(p: np.ndarray) -> CameraModel | None:
        try:
            return replace(
                cam,
                fx=p[0],
                fy=p[1],
                cx=p[2],
                cy=p[3],
                translation=p[4:7].copy(),
                rotation=rotation_from_rvec(p[7:10]),
            )
        except ValueError:
            return None

    def evaluate(p: np.ndarray) -> float:
        model = build(p)
        if model is None:
            return float("inf")
        return _total_error(model, world, observed)

    best = evaluate(params)
    for _ in range(max_sweeps):
        sweep_start = best
        for i in range(params.size):
            for sign in (1.0, -1.0):
                trial = params.copy()
                trial[i] += sign * steps[i]
                trial_err = evaluate(trial)
                if trial_err < best:
                    params, best = trial, trial_err
                    break
            else:
                steps[i] *= 0.5
        if sweep_start - best < rel_tol * max(sweep_start, 1e-30):
            break

    refined = build(params)
    assert refined is not None
    return refined

"""DLT triangulation of corresponded detections and reconstruction metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    DEFAULT_REPROJ_THRESHOLD_PX,
    MIN_DEPTH,
    CameraModel,
    project,
    project_points,
    projection_matrix,
)
from .errors import (
    BehindCameraError,
    DegenerateRaysError,
    EmptyInputError,
    NonFiniteResultError,
)
from .matching import Correspondence, Detection, FeatureMatch

FUSE_RADIUS_M = 0.15


@dataclass(frozen=True)
class Observation3D:
    """A triangulated (possibly fused) 3D point for one frame."""

    frame: int
    position: np.ndarray
    camera_pairs: tuple[tuple[str, str], ...]
    reprojection_errors: dict[str, float]


def _ideal_pixels(cam: CameraModel, pixels: np.ndarray) -> np.ndarray:
    """Undistort pixels and reapply intrinsics, giving pinhole-only pixels."""
    normalized = cam.undistort(pixels)
    out = np.empty_like(normalized)
    out[..., 0] = cam.fx * normalized[..., 0] + cam.cx
    out[..., 1] = cam.fy * normalized[..., 1] + cam.cy
    return out


def triangulate_from_matrices(
    points1: np.ndarray,
    points2: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched homogeneous DLT from pinhole pixels and 3x4 matrices.

    For each camera two rows x*p3 - p1 and y*p3 - p2 form a 4x4 system
    whose least-squares null vector is the smallest eigenvector of the
    normal matrix. Matrices are normalized to unit Frobenius norm first,
    so any nonzero rescaling of an input matrix leaves results unchanged.

    Returns (positions (N, 3), degenerate (N,), at_infinity (N,)); the
    boolean rows flag parallel/identical rays and vanishing homogeneous w,
    and their positions are NaN.
    """
    points1 = np.asarray(points1, dtype=float).reshape(-1, 2)
    points2 = np.asarray(points2, dtype=float).reshape(-1, 2)
    if points1.shape != points2.shape:
        raise ValueError("point lists must have equal length")
    n = points1.shape[0]
    if n == 0:
        empty = np.zeros(0, dtype=bool)
        return np.zeros((0, 3)), empty, empty

    p1 = np.asarray(p1, dtype=float).reshape(3, 4)
    p2 = np.asarray(p2, dtype=float).reshape(3, 4)
    p1 = p1 / np.linalg.norm(p1)
    p2 = p2 / np.linalg.norm(p2)

    rows = np.empty((n, 4, 4))
    rows[:, 0, :] = points1[:, 0:1] * p1[2] - p1[0]
    rows[:, 1, :] = points1[:, 1:2] * p1[2] - p1[1]
    rows[:, 2, :] = points2[:, 0:1] * p2[2] - p2[0]
    rows[:, 3, :] = points2[:, 1:2] * p2[2] - p2[1]

    normal = rows.transpose(0, 2, 1) @ rows
    eigenvalues, eigenvectors = np.linalg.eigh(normal)
    solutions = eigenvectors[:, :, 0]

    scale = np.maximum(eigenvalues[:, 3], 1.0)
    degenerate = (eigenvalues[:, 1] - eigenvalues[:, 0]) <= 1e-12 * scale
    w = solutions[:, 3]
    at_infinity = ~degenerate & (np.abs(w) <= 1e-12)

    positions = np.full((n, 3), np.nan)
    good = ~(degenerate | at_infinity)
    positions[good] = solutions[good, :3] / w[good, None]
    return positions, degenerate, at_infinity


def triangulate_batch(
    points1: np.ndarray,
    points2: np.ndarray,
    cam1: CameraModel,
    cam2: CameraModel,
) -> np.ndarray:
    """Triangulate (N, 2) pixel pairs; returns (N, 3) with NaN rows on failure.

    Pixels are undistorted per camera before the DLT solve. Rows where the
    rays are parallel or the point lies at infinity come back as NaN.
    """
    if cam1.cam_id == cam2.cam_id:
        raise DegenerateRaysError(
            f"triangulation needs two distinct cameras, got {cam1.cam_id} twice"
        )
    points1 = np.asarray(points1, dtype=float).reshape(-1, 2)
    points2 = np.asarray(points2, dtype=float).reshape(-1, 2)
    positions, _, _ = triangulate_from_matrices(
        _ideal_pixels(cam1, points1),
        _ideal_pixels(cam2, points2),
        projection_matrix(cam1),
        projection_matrix(cam2),
    )
    return positions


def triangulate(
    point1: np.ndarray,
    point2: np.ndarray,
    cam1: CameraModel,
    cam2: CameraModel,
) -> np.ndarray:
    """Triangulate one pixel pair; raises on degenerate or infinite results."""
    if cam1.cam_id == cam2.cam_id:
        raise DegenerateRaysError(
            f"triangulation needs two distinct cameras, got {cam1.cam_id} twice"
        )
    positions, degenerate, at_infinity = triangulate_from_matrices(
        _ideal_pixels(cam1, np.asarray(point1, dtype=float).reshape(1, 2)),
        _ideal_pixels(cam2, np.asarray(point2, dtype=float).reshape(1, 2)),
        projection_matrix(cam1),
        projection_matrix(cam2),
    )
    if degenerate[0]:
        raise DegenerateRaysError(
            f"rays from {cam1.cam_id} and {cam2.cam_id} are parallel or identical"
        )
    if at_infinity[0]:
        raise NonFiniteResultError("triangulated point lies at infinity")
    return positions[0]


def _connected_components(n: int, links: list[tuple[int, int]]) -> list[list[int]]:
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def reconstruct_frame(
    frame: int,
    correspondences: dict[tuple[str, str], list[Correspondence]],
    detections: dict[tuple[str, int, int], Detection],
    cameras: dict[str, CameraModel],
    fuse_radius: float = FUSE_RADIUS_M,
    fuse: bool = True,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[Observation3D]:
    """Triangulate detection centers per camera pair, then fuse nearby points.

    Pairwise estimates whose mutual distance is within ``fuse_radius`` are
    merged (single-linkage, so the result is independent of pair order)
    into one observation at the coordinate-wise mean. Degenerate
    correspondences are skipped rather than failing the frame. With
    ``bounds`` set, observations outside the axis-aligned box are dropped.
    """
    estimates: list[tuple[np.ndarray, tuple[str, str], dict[str, np.ndarray]]] = []
    for pair in sorted(correspondences):
        cam_a, cam_b = pair
        pair_corrs = correspondences[pair]
        if not pair_corrs:
            continue
        centers_a = np.array(
            [detections[(cam_a, frame, c.detection_index_a)].center for c in pair_corrs]
        )
        centers_b = np.array(
            [detections[(cam_b, frame, c.detection_index_b)].center for c in pair_corrs]
        )
        points = triangulate_batch(centers_a, centers_b, cameras[cam_a], cameras[cam_b])
        for i in range(len(pair_corrs)):
            if np.any(np.isnan(points[i])):
                continue
            estimates.append(
                (points[i], pair, {cam_a: centers_a[i], cam_b: centers_b[i]})
            )

    if not estimates:
        return []

    if fuse:
        positions = np.array([e[0] for e in estimates])
        links = []
        for i in range(len(estimates)):
            deltas = positions[i + 1 :] - positions[i]
            close = np.linalg.norm(deltas, axis=1) <= fuse_radius
            links.extend((i, i + 1 + int(j)) for j in np.nonzero(close)[0])
        components = _connected_components(len(estimates), links)
    else:
        components = [[i] for i in range(len(estimates))]

    observations = []
    for members in components:
        position = np.mean([estimates[i][0] for i in members], axis=0)
        if bounds is not None:
            lo, hi = bounds
            if np.any(position < lo) or np.any(position > hi):
                continue
        pairs = tuple(sorted({estimates[i][1] for i in members}))
        errors: dict[str, list[float]] = {}
        for i in members:
            for cam_id, observed in estimates[i][2].items():
                try:
                    reproj = project(cameras[cam_id], position)
                except BehindCameraError:
                    continue
                errors.setdefault(cam_id, []).append(
                    float(np.linalg.norm(reproj - observed))
                )
        observations.append(
            Observation3D(
                frame=frame,
                position=position,
                camera_pairs=pairs,
                reprojection_errors={
                    cam: float(np.mean(v)) for cam, v in sorted(errors.items())
                },
            )
        )
    return observations


def reconstruction_stats(
    observations: list[Observation3D],
    matches: list[FeatureMatch],
    cameras: dict[str, CameraModel],
    threshold_px: float = DEFAULT_REPROJ_THRESHOLD_PX,
) -> dict:
    """Keypoint-level reconstruction quality record.

    Each kept match is triangulated from its keypoint pair and reprojected
    into both cameras; every keypoint contributes one pixel error. Fields
    mirror the standard reconstruction-quality table: total keypoints,
    mean/std/min/max reprojection error, and the share below threshold.
    """
    if not observations:
        raise EmptyInputError("reconstruction_stats: no observations")
    kept = [m for m in matches if m.verdict in (None, "kept")]
    by_pair: dict[tuple[str, str], list[FeatureMatch]] = {}
    for match in kept:
        key = (match.keypoint_a.camera_id, match.keypoint_b.camera_id)
        by_pair.setdefault(key, []).append(match)

    errors: list[np.ndarray] = []
    for (cam_a, cam_b), pair_matches in sorted(by_pair.items()):
        pts_a = np.array([m.keypoint_a.position for m in pair_matches])
        pts_b = np.array([m.keypoint_b.position for m in pair_matches])
        points = triangulate_batch(pts_a, pts_b, cameras[cam_a], cameras[cam_b])
        finite = ~np.isnan(points).any(axis=1)
        # Columns are (cam_a, cam_b), so the row-major mask keeps each
        # point's cam_a error before its cam_b error.
        pair_errors = np.empty((int(finite.sum()), 2))
        in_front = np.empty(pair_errors.shape, dtype=bool)
        for col, cam_id, observed in ((0, cam_a, pts_a), (1, cam_b, pts_b)):
            pixels, depth = project_points(cameras[cam_id], points[finite])
            delta = pixels - observed[finite]
            pair_errors[:, col] = np.sqrt(np.vecdot(delta, delta))
            in_front[:, col] = depth > MIN_DEPTH
        errors.append(pair_errors[in_front])

    arr = np.concatenate(errors) if errors else np.zeros(0)
    if not arr.size:
        raise EmptyInputError("reconstruction_stats: no reprojectable keypoints")
    return {
        "total_keypoints": int(arr.size),
        "avg_reprojection_error_px": float(arr.mean()),
        "std_reprojection_error_px": float(arr.std()),
        "min_reprojection_error_px": float(arr.min()),
        "max_reprojection_error_px": float(arr.max()),
        "pct_keypoints_below_threshold": float(100.0 * np.mean(arr < threshold_px)),
        "threshold_px": float(threshold_px),
    }

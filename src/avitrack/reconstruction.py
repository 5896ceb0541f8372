"""DLT triangulation of corresponded detections and reconstruction metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    DEFAULT_REPROJ_THRESHOLD_PX,
    CameraModel,
    project,  # noqa: F401  perfbench/spans.py times ``reconstruction.project``
    project_points,
    projection_matrix,
)
from .errors import DegenerateRaysError, EmptyInputError
from .mask import component_roots
from .matching import Correspondence, DetectionTable, PairMatches

FUSE_RADIUS_M = 0.15


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """Triangulated (possibly fused) 3D points as columns, one row each.

    ``frame`` holds int64 frame numbers and ``position`` (n, 3) metres.
    ``errors`` (n, C) holds each point's reprojection error in pixels per
    camera, its columns named by ``cameras``, the run's calibrated cameras
    in sorted order; a cell is NaN where the point has no member in that
    camera or lies behind it.
    """

    frame: np.ndarray
    position: np.ndarray
    errors: np.ndarray
    cameras: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.frame)


def ideal_pixels(cam: CameraModel, pixels: np.ndarray) -> np.ndarray:
    """Undistort pixels and reapply intrinsics, giving pinhole-only pixels.

    Element-wise, so row i has the same bits whatever the other rows are.
    """
    normalized = cam.undistort(pixels)
    out = np.empty_like(normalized)
    out[..., 0] = cam.fx * normalized[..., 0] + cam.cx
    out[..., 1] = cam.fy * normalized[..., 1] + cam.cy
    return out


@dataclass(frozen=True)
class FrameCenters:
    """The detections of one (camera, frame): ascending detection indices
    and, row for row, their box centres as raw and as pinhole pixels."""

    indices: np.ndarray
    raw: np.ndarray
    ideal: np.ndarray

    def rows(self, indices: list[int]) -> np.ndarray:
        """The row of each detection index; KeyError if one is missing."""
        wanted = np.asarray(indices, dtype=np.int64)
        rows = np.searchsorted(self.indices, wanted)
        found = rows < len(self.indices)
        found[found] = self.indices[rows[found]] == wanted[found]
        if not found.all():
            raise KeyError(f"no detection {int(wanted[~found][0])} in this frame")
        return rows


def detection_centers(
    detections: DetectionTable, cameras: dict[str, CameraModel]
) -> dict[tuple[str, int], FrameCenters]:
    """Every detection's box centre, raw and undistorted, by (camera, frame).

    A camera's centres form one (n, 2) array sorted by (frame, index), and
    one ``ideal_pixels`` call undistorts them all; each (camera, frame)
    gets read-only views of its rows. Detections of uncalibrated cameras
    are left out.
    """
    table: dict[tuple[str, int], FrameCenters] = {}
    for cam_id in sorted(set(detections.camera.tolist()) & cameras.keys()):
        rows = np.flatnonzero(detections.camera == cam_id)
        rows = rows[np.lexsort((detections.index[rows], detections.frame[rows]))]
        boxes = detections.box[rows]
        indices = detections.index[rows]
        raw = (boxes[:, 0:2] + boxes[:, 2:4]) / 2.0
        ideal = ideal_pixels(cameras[cam_id], raw)
        for shared in (indices, raw, ideal):  # every frame's views share them
            shared.setflags(write=False)
        frames, starts = np.unique(detections.frame[rows], return_index=True)
        for frame, start, stop in zip(frames, starts, [*starts[1:], len(rows)]):
            table[(cam_id, int(frame))] = FrameCenters(
                indices[start:stop], raw[start:stop], ideal[start:stop]
            )
    return table


def triangulate_from_matrices(
    points1: np.ndarray,
    points2: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
) -> np.ndarray:
    """Batched homogeneous DLT from pinhole pixels and 3x4 matrices.

    For each camera two rows x*p3 - p1 and y*p3 - p2 form a 4x4 system
    whose least-squares null vector is the smallest eigenvector of the
    normal matrix. Matrices are normalized to unit Frobenius norm first,
    so any nonzero rescaling of an input matrix leaves results unchanged.

    Returns (N, 3) positions. Rows whose rays are parallel or identical,
    or whose homogeneous w vanishes (a point at infinity), are NaN.
    """
    points1 = np.asarray(points1, dtype=float).reshape(-1, 2)
    points2 = np.asarray(points2, dtype=float).reshape(-1, 2)
    if points1.shape != points2.shape:
        raise ValueError("point lists must have equal length")
    n = points1.shape[0]
    p1, p2 = (np.asarray(p, dtype=float).reshape(3, 4) for p in (p1, p2))
    p1, p2 = p1 / np.linalg.norm(p1), p2 / np.linalg.norm(p2)

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

    positions = np.full((n, 3), np.nan)
    good = ~(degenerate | (np.abs(w) <= 1e-12))
    positions[good] = solutions[good, :3] / w[good, None]
    return positions


def triangulate_batch(
    points1: np.ndarray,
    points2: np.ndarray,
    cam1: CameraModel,
    cam2: CameraModel,
) -> np.ndarray:
    """Triangulate (N, 2) pinhole pixel pairs, already undistorted by
    ``ideal_pixels``; returns (N, 3), with NaN rows where the rays are
    parallel or the point lies at infinity."""
    if cam1.cam_id == cam2.cam_id:
        raise DegenerateRaysError(
            f"triangulation needs two distinct cameras, got {cam1.cam_id} twice"
        )
    return triangulate_from_matrices(
        points1, points2, projection_matrix(cam1), projection_matrix(cam2)
    )


def reprojection_errors(cam: CameraModel, points: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Each point's pixel distance from its projection to its ``observed``
    pixel; NaN for a point behind ``cam``, whose pixels are NaN."""
    delta = project_points(cam, points)[0] - observed
    return np.sqrt(np.vecdot(delta, delta))


def reconstruct_frame(
    frame: int,
    correspondences: dict[tuple[str, str], list[Correspondence]],
    centers: dict[tuple[str, int], FrameCenters],
    cameras: dict[str, CameraModel],
    fuse_radius: float = FUSE_RADIUS_M,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> ObservationTable:
    """Triangulate detection centers per camera pair, then fuse nearby points.

    ``centers`` is the run's ``detection_centers`` table. Pairwise
    estimates whose mutual distance is within ``fuse_radius`` are merged
    (single-linkage, so the result is independent of pair order) into one
    observation at the coordinate-wise mean. Degenerate correspondences
    are skipped rather than failing the frame. With ``bounds`` set,
    observations outside the axis-aligned box are dropped. An
    observation's error in a camera is the mean distance from its
    reprojection to its members' raw centres there; it is NaN in a camera
    it has no member in or lies behind. The table's error columns are the
    sorted ``cameras``.
    """
    # Per finite estimate: its point, its pair's two cameras as indices
    # into ``names``, and the raw centres it was triangulated from.
    names = sorted(cameras)
    points, seen_at = [np.zeros((0, 3))], [np.zeros((0, 2, 2))]
    pair_cams = [np.zeros((0, 2), dtype=int)]
    for pair in sorted(correspondences):
        pair_corrs = correspondences[pair]
        if not pair_corrs:
            continue
        side_a, side_b = centers[(pair[0], frame)], centers[(pair[1], frame)]
        rows_a = side_a.rows([c.detection_index_a for c in pair_corrs])
        rows_b = side_b.rows([c.detection_index_b for c in pair_corrs])
        estimates = triangulate_batch(
            side_a.ideal[rows_a], side_b.ideal[rows_b], cameras[pair[0]], cameras[pair[1]]
        )
        finite = ~np.isnan(estimates).any(axis=1)
        points.append(estimates[finite])
        pair_cams.append(np.tile([names.index(cam) for cam in pair], (int(finite.sum()), 1)))
        seen_at.append(np.stack([side_a.raw[rows_a[finite]], side_b.raw[rows_b[finite]]], 1))
    positions, cams, observed = map(np.concatenate, (points, pair_cams, seen_at))

    # Estimates within fuse_radius of each other are linked. A component's
    # root is its lowest index, so ``owner`` numbers the components in order
    # of their first member. Summing each component's members in index
    # order gives the bits of ``np.mean`` over them.
    near = np.linalg.norm(positions[None] - positions[:, None], axis=2) <= fuse_radius
    _, owner = np.unique(component_roots(len(positions), *np.nonzero(near)),
                         return_inverse=True)
    size = np.bincount(owner)[:, None]
    fused = np.stack([np.bincount(owner, weights=axis) for axis in positions.T], 1) / size

    # One error per (estimate, side); each camera reprojects all its rows'
    # fused positions in one call, and a point behind it gets NaN.
    errors = np.empty(cams.shape)
    for cam in np.unique(cams):
        hit = cams == cam
        errors[hit] = reprojection_errors(
            cameras[names[cam]], fused[owner[np.nonzero(hit)[0]]], observed[hit]
        )

    # A (component, camera) cell's mean, with the bits of ``np.mean`` over
    # its errors in member order: the cells of each size are summed as the
    # rows of one array, which numpy sums like a 1-d array of that size.
    key = (owner[:, None] * len(names) + cams).ravel()
    order = np.argsort(key, kind="stable")
    cells, starts, counts = np.unique(key[order], return_index=True, return_counts=True)
    table = np.full((len(fused), len(names)), np.nan)
    for count in np.unique(counts):
        at = counts == count
        rows = starts[at, None] + np.arange(count)
        table.flat[cells[at]] = errors.ravel()[order[rows]].sum(axis=1) / count

    lo, hi = (-np.inf, np.inf) if bounds is None else bounds
    keep = ~((fused < lo) | (fused > hi)).any(axis=1)
    return ObservationTable(np.full(int(keep.sum()), frame, dtype=np.int64),
                            fused[keep], table[keep], tuple(names))


def reconstruction_stats(
    summaries: list[PairMatches],
    cameras: dict[str, CameraModel],
    threshold_px: float = DEFAULT_REPROJ_THRESHOLD_PX,
) -> dict:
    """Keypoint-level reconstruction quality record.

    Each kept match of the ``pair_matches`` summaries is triangulated from
    its keypoint pair and reprojected into both cameras; every keypoint
    contributes one pixel error. A camera pair's matches are taken
    together, in summary order. Fields mirror the standard
    reconstruction-quality table: total keypoints, mean/std/min/max
    reprojection error, and the share below threshold.
    Without a reprojectable keypoint it raises ``EmptyInputError``.
    """
    by_pair: dict[tuple[str, str], list[PairMatches]] = {}
    for summary in summaries:
        if len(summary.detections):
            by_pair.setdefault((summary.camera_a, summary.camera_b), []).append(summary)

    errors: list[np.ndarray] = []
    for (cam_a, cam_b), pair_summaries in sorted(by_pair.items()):
        pts_a = np.concatenate([summary.xy_a for summary in pair_summaries])
        pts_b = np.concatenate([summary.xy_b for summary in pair_summaries])
        points = triangulate_batch(
            ideal_pixels(cameras[cam_a], pts_a), ideal_pixels(cameras[cam_b], pts_b),
            cameras[cam_a], cameras[cam_b],
        )
        finite = ~np.isnan(points).any(axis=1)
        # Columns are (cam_a, cam_b), so the row-major mask keeps each
        # point's cam_a error before its cam_b error.
        pair_errors = np.stack([
            reprojection_errors(cameras[cam_id], points[finite], observed[finite])
            for cam_id, observed in ((cam_a, pts_a), (cam_b, pts_b))
        ], axis=1)
        errors.append(pair_errors[~np.isnan(pair_errors)])  # NaN: behind the camera

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

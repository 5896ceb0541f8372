"""End-to-end pipeline: ingest, mask, match, reject, reconstruct, track, report.

Per-frame work (matching through reconstruction, ``_process_frame``) is
pure, so with ``parallelism`` > 1 it fans out over a process pool. What
every frame reads is one ``_Run`` per run: the ``KeypointTable`` of the
whole run and its rows per frame and camera, the ``detection_centers``
table, in which every detection centre is undistorted once per run, and
the camera pairs, landmarks, cameras and config. The ``_Run`` is handed
to each worker once, as the pool's initializer argument: under the
``fork`` start method the workers inherit it and nothing is pickled.
Each task is then a frame number. No process builds a ``Keypoint`` or a
``FeatureMatch``: a worker copies each camera's rows of its frame out of
the table once, matches, rejects and clusters on those columns (a
``MatchTable`` per camera pair), and returns a ``FrameResult`` holding
one ``PairMatches`` per camera pair (counts, and the kept matches'
detection indices and pixels as arrays), the correspondences and one
``ObservationTable`` of the frame's fused 3D points (positions and
per-camera errors as columns), which pickles plainly. Results are
merged in frame order, so the output is identical for any parallelism
degree; the tracker takes each frame's ``position`` column. Tracking is
sequential by nature. Detections and keypoints are read and checked,
and the mask stage run, before the first output file is written.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataio
from .camera import DEFAULT_REPROJ_THRESHOLD_PX, CameraModel
from .errors import ConfigError, EmptyInputError, IngestError
from .mask import CANNY_HIGH, CANNY_LOW, build_frame_mask, gate_keypoints, read_pgm
from .matching import (
    ANCHORS,
    DEFAULT_MIN_SUPPORT,
    DEFAULT_RATIO,
    Correspondence,
    DetectionTable,
    KeypointTable,
    PairMatches,
    cluster_correspondences,
    knn_match,
    reject_by_landmark,
)
from .metrics import GroundTruth, keypoint_stats, rejection_stats, tracking_metrics
from .reconstruction import (
    FUSE_RADIUS_M, FrameCenters, ObservationTable, detection_centers, reconstruct_frame,
    reconstruction_stats,
)
from .tracking import (
    ASSOCIATIONS, DEFAULT_ASSOCIATION, DEFAULT_CONFIRM_HITS, DEFAULT_FPS, DEFAULT_GATE,
    DEFAULT_JERK_SIGMA, DEFAULT_MAX_MISSES, DEFAULT_MEAS_SIGMA,
    TrackerConfig, render_trajectories, run_tracker,
)
from .voronoi import LandmarkSet, build_bounded_diagram, render_overlay

logger = logging.getLogger(__name__)


def _has_type(value, kind: type) -> bool:
    """``value`` is a ``kind``; a bool counts only as a bool, and a float
    must be finite. An int counts as a float when it converts to one."""
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is not float:
        return isinstance(value, kind)
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class PipelineConfig:
    """All paths, stage toggles, and tunables for one pipeline run."""

    detections_path: str = ""
    keypoints_path: str = ""
    landmarks_path: str = ""
    calibration_path: str = ""
    frames_dir: str = ""
    truth_path: str = ""
    match_truth_path: str = ""
    output_dir: str = "out"

    camera_pairs: list[list[str]] | None = None
    use_mask: bool = False

    ratio: float = DEFAULT_RATIO
    min_support: int = DEFAULT_MIN_SUPPORT
    landmark_anchor: str = "keypoint"
    fuse_radius_m: float = FUSE_RADIUS_M
    gate_m: float = DEFAULT_GATE
    jerk_sigma: float = DEFAULT_JERK_SIGMA
    meas_sigma_m: float = DEFAULT_MEAS_SIGMA
    confirm_hits: int = DEFAULT_CONFIRM_HITS
    max_misses: int = DEFAULT_MAX_MISSES
    association: str = DEFAULT_ASSOCIATION
    canny_low: float = CANNY_LOW
    canny_high: float = CANNY_HIGH
    fps: float = DEFAULT_FPS
    reproj_threshold_px: float = DEFAULT_REPROJ_THRESHOLD_PX
    gap_tolerance_frames: int = 0
    validate_bounds: bool = False
    aviary_size: list[float] = field(default_factory=lambda: [4.0, 3.4, 2.0])
    parallelism: int = 1

    @classmethod
    def _type_mismatch(cls, name: str, value) -> str | None:
        """The type field ``name`` takes, if ``value`` is not of it; else None."""
        if name == "camera_pairs":
            ok = value is None or isinstance(value, list) and all(
                isinstance(pair, list) and all(isinstance(cam, str) for cam in pair)
                for pair in value
            )
            return None if ok else "null or a list of [CAMA, CAMB] pairs of strings"
        if name == "aviary_size":
            ok = isinstance(value, list) and all(_has_type(v, float) for v in value)
            return None if ok else "a list of numbers"
        kind = type(cls.__dataclass_fields__[name].default)
        return None if _has_type(value, kind) else kind.__name__

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (expected := self._type_mismatch(f.name, value)) is not None:
                expected = "a finite number" if expected == "float" else expected
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
        pairs = self.camera_pairs or []
        for name, ok, rule in (
            ("association", self.association in ASSOCIATIONS, f"one of {ASSOCIATIONS}"),
            ("landmark_anchor", self.landmark_anchor in ANCHORS, f"one of {ANCHORS}"),
            ("camera_pairs", all(len(pair) == len(set(pair)) == 2 for pair in pairs)
             and len({frozenset(pair) for pair in pairs}) == len(pairs),
             "CAMA,CAMB pairs of two cameras, each pair once"),
            ("ratio", 0 < self.ratio < 1, "in (0, 1)"),
            ("min_support", self.min_support >= 1, ">= 1"),
            ("gate_m", self.gate_m > 0, "> 0"),
            ("jerk_sigma", self.jerk_sigma >= 0, ">= 0"),
            ("meas_sigma_m", self.meas_sigma_m > 0, "> 0"),
            ("fuse_radius_m", self.fuse_radius_m > 0, "> 0"),
            ("fps", self.fps > 0, "> 0"),
            ("reproj_threshold_px", self.reproj_threshold_px > 0, "> 0"),
            ("parallelism", self.parallelism >= 1, ">= 1"),
            ("confirm_hits", self.confirm_hits >= 1, ">= 1"),
            ("max_misses", self.max_misses >= 0, ">= 0"),
            ("gap_tolerance_frames", self.gap_tolerance_frames >= 0, ">= 0"),
            ("canny_low", 0 <= self.canny_low <= self.canny_high, "in [0, canny_high]"),
            ("canny_high", self.canny_high <= 255, "<= 255"),
            ("use_mask", not self.use_mask or bool(self.frames_dir),
             "false when frames_dir is unset"),
            ("aviary_size", len(self.aviary_size) == 3
             and all(0 < v < np.inf for v in self.aviary_size),
             "three finite positive sizes in meters"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise IngestError(path, f"invalid JSON: {exc}")
        if not isinstance(doc, dict):
            raise IngestError(path, "config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise IngestError(path, f"unknown config keys: {sorted(unknown)}")
        for name, value in doc.items():
            if (expected := cls._type_mismatch(name, value)) is not None:
                raise IngestError(
                    path, f"config key {name!r}: expected {expected}, got {value!r}"
                )
        return cls(**doc)

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean)

    def tracker_config(self) -> TrackerConfig:
        """The tracker settings of this config."""
        return TrackerConfig(
            dt=1.0 / self.fps,
            jerk_sigma=self.jerk_sigma,
            meas_sigma=self.meas_sigma_m,
            gate=self.gate_m,
            confirm_hits=self.confirm_hits,
            max_misses=self.max_misses,
            association=self.association,
        )

    def for_bundle_dir(self, bundle_dir) -> "PipelineConfig":
        """Fill unset input paths from a dataset bundle directory layout."""
        bundle = Path(bundle_dir)
        updates = {}
        defaults = {
            "detections_path": bundle / "detections.csv",
            "keypoints_path": bundle / "keypoints.csv",
            "landmarks_path": bundle / "landmarks.csv",
            "calibration_path": bundle / "calibration.json",
        }
        for name, candidate in defaults.items():
            if not getattr(self, name):
                updates[name] = str(candidate)
        for name, candidate in (
            ("truth_path", bundle / "truth.csv"),
            ("match_truth_path", bundle / "match_truth.csv"),
            ("frames_dir", bundle / "frames"),
        ):
            if not getattr(self, name) and candidate.exists():
                updates[name] = str(candidate)
        return replace(self, **{k: str(v) for k, v in updates.items()})


@dataclass
class _Run:
    keypoints: KeypointTable
    rows: dict[int, dict[str, np.ndarray]]  # rows of ``keypoints`` per frame and camera
    centers: dict[tuple[str, int], FrameCenters]
    pairs: list[tuple[str, str]]
    landmarks: LandmarkSet
    cameras: dict[str, CameraModel]
    config: PipelineConfig


@dataclass
class FrameResult:
    """One frame's matches per camera pair, its correspondences and the
    ``ObservationTable`` of its fused 3D points."""

    frame: int
    matches: list[PairMatches]
    correspondences: dict[tuple[str, str], list[Correspondence]]
    observations: ObservationTable


def _process_frame(run: _Run, frame: int) -> FrameResult:
    cfg = run.config
    tables = {cam: run.keypoints.take(rows) for cam, rows in run.rows.get(frame, {}).items()}
    summaries: list[PairMatches] = []
    correspondences: dict[tuple[str, str], list[Correspondence]] = {}
    for cam_a, cam_b in run.pairs:
        if cam_a not in tables or cam_b not in tables:
            continue
        candidates = knn_match(tables[cam_a], tables[cam_b], ratio=cfg.ratio)
        decided, matches = reject_by_landmark(
            candidates,
            run.landmarks,
            anchor=cfg.landmark_anchor,
            centers=run.centers,
        )
        summaries += matches
        correspondences[(cam_a, cam_b)] = cluster_correspondences(
            decided, min_support=cfg.min_support
        )

    bounds = None
    if cfg.validate_bounds:
        bounds = (np.zeros(3), np.asarray(cfg.aviary_size, dtype=float))
    observations = reconstruct_frame(
        frame,
        correspondences,
        run.centers,
        run.cameras,
        fuse_radius=cfg.fuse_radius_m,
        bounds=bounds,
    )
    return FrameResult(
        frame=frame,
        matches=summaries,
        correspondences=correspondences,
        observations=observations,
    )


# The run a pool worker serves, set once by ``_init_worker``.
_worker_run: _Run | None = None


def _init_worker(run: _Run) -> None:
    global _worker_run
    _worker_run = run


def _process_frame_at(frame: int) -> FrameResult:
    return _process_frame(_worker_run, frame)


def check_references(
    detections: DetectionTable, keypoints: KeypointTable, keypoints_path
) -> None:
    """Every keypoint must reference a detection (camera, frame, index)."""
    known = set(zip(detections.camera.tolist(), detections.frame.tolist(),
                    detections.index.tolist()))
    for key in zip(keypoints.camera.tolist(), keypoints.frame.tolist(),
                   keypoints.detection.tolist()):
        if key not in known:
            raise IngestError(keypoints_path, f"keypoint references missing detection {key}")


def _frame_file(frames_dir, camera_id: str, frame: int) -> Path:
    pgm = dataio.frame_path(frames_dir, camera_id, frame)
    if not pgm.exists():
        raise IngestError(pgm, "frame file missing for mask stage")
    return pgm


def apply_mask_stage(
    config: PipelineConfig,
    keypoints: KeypointTable,
    detections: DetectionTable,
    image_sizes: dict[str, tuple[int, int]],
) -> np.ndarray:
    """The rows of ``keypoints`` on mask-on pixels of the per-frame PGM files.

    Masks are built for each (camera, frame) with keypoints, each frame
    read once. A frame whose (width, height) differs from its camera's
    calibrated size in ``image_sizes`` is an ``IngestError``. Rows are
    returned grouped by (camera, frame) in sorted order, each group in row
    order.
    """
    boxes: dict[tuple[str, int], list] = {}
    for key, box in zip(zip(detections.camera.tolist(), detections.frame.tolist()),
                        detections.box.tolist()):
        boxes.setdefault(key, []).append(box)
    grouped = keypoints.groups()
    gated: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    for camera_id, frame in sorted(grouped):
        pgm = _frame_file(config.frames_dir, camera_id, frame)
        gray = read_pgm(pgm)
        expected = image_sizes.get(camera_id)
        if expected is not None and (gray.width, gray.height) != expected:
            raise IngestError(
                pgm, f"frame is {gray.width}x{gray.height}, but camera {camera_id} "
                f"is calibrated for {expected[0]}x{expected[1]}",
            )
        mask = build_frame_mask(gray, boxes.get((camera_id, frame), []),
                                low=config.canny_low, high=config.canny_high)
        rows = grouped[camera_id, frame]
        gated.append(rows[gate_keypoints(mask, keypoints.xy[rows])])
    return np.concatenate(gated)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and write every output; returns the report."""
    config.validate()
    logger.info("ingesting calibration from %s", config.calibration_path)
    cameras = dataio.read_calibration(config.calibration_path)
    if config.camera_pairs is None:
        pairs = list(itertools.combinations(sorted(cameras), 2))
    else:
        pairs = [tuple(p) for p in config.camera_pairs]
        if not {cam for pair in pairs for cam in pair} <= cameras.keys():
            raise ConfigError(
                f"camera_pairs must be CAMA,CAMB pairs of calibrated cameras "
                f"{sorted(cameras)}, got {config.camera_pairs!r}"
            )
    image_sizes = {cam_id: cam.image_size for cam_id, cam in cameras.items()}
    landmarks = dataio.read_landmarks(config.landmarks_path, image_sizes)

    # A camera without landmarks, or a bad detection, keypoint or frame,
    # fails before any output is written.
    unmarked = sorted({cam for pair in pairs for cam in pair} - set(landmarks.cameras()))
    if unmarked:
        raise IngestError(config.landmarks_path,
                          f"no landmarks registered for camera {unmarked[0]!r}")
    detections = dataio.read_detections(config.detections_path)
    keypoints = dataio.read_keypoints(config.keypoints_path, image_sizes)
    check_references(detections, keypoints, config.keypoints_path)
    kept = None
    if config.use_mask:
        kept = apply_mask_stage(config, keypoints, detections, image_sizes=image_sizes)
        logger.info("mask stage kept %d of %d keypoints", len(kept), len(keypoints))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for camera_id in landmarks.cameras():
        diagram = build_bounded_diagram(landmarks, camera_id)
        (out_dir / f"voronoi_{camera_id}.svg").write_text(render_overlay(diagram))
    logger.info("wrote Voronoi overlays for %d cameras", len(landmarks.cameras()))

    # Every camera of the selected pairs is in table2, with or without keypoints.
    rows_by_frame: dict[int, dict[str, np.ndarray]] = {}
    counts: dict[str, dict[int, int]] = {cam: {} for pair in pairs for cam in pair}
    for (camera_id, frame), rows in keypoints.groups(kept).items():
        rows_by_frame.setdefault(frame, {})[camera_id] = rows
        counts.setdefault(camera_id, {})[frame] = len(rows)

    frames = sorted(set(rows_by_frame) | set(detections.frame.tolist()))
    run = _Run(
        keypoints=keypoints,
        rows=rows_by_frame,
        centers=detection_centers(detections, cameras),
        pairs=pairs,
        landmarks=landmarks,
        cameras=cameras,
        config=config,
    )

    logger.info(
        "processing %d frames over %d camera pairs (parallelism %d)",
        len(frames), len(pairs), config.parallelism,
    )
    if config.parallelism > 1 and len(frames) > 1:
        with ProcessPoolExecutor(
            max_workers=config.parallelism, initializer=_init_worker, initargs=(run,)
        ) as pool:
            results = list(pool.map(_process_frame_at, frames, chunksize=8))
    else:
        results = [_process_frame(run, frame) for frame in frames]

    summaries = [s for r in results for s in r.matches]

    truth = None
    if config.truth_path and config.match_truth_path:
        truth = GroundTruth(
            positions=dataio.read_truth(config.truth_path),
            identities=dataio.read_match_truth(config.match_truth_path),
        )

    report: dict = {}
    if frames:
        report["table2"] = keypoint_stats(counts, frames)
    if summaries:
        report["table3"] = rejection_stats(summaries, truth)

    dataio.write_correspondences(out_dir / "correspondences.csv", [
        (result.frame, cam_a, cam_b, corr)
        for result in results
        for (cam_a, cam_b), corrs in sorted(result.correspondences.items())
        for corr in corrs
    ])
    try:
        report["table4"] = reconstruction_stats(
            summaries, cameras, threshold_px=config.reproj_threshold_px
        )
    except EmptyInputError:  # no kept keypoint pair reprojects
        pass
    observations = {result.frame: result.observations for result in results}
    dataio.write_observations(out_dir / "observations.csv", observations)

    # A stepped frame without observations counts a miss for each live track.
    track_rows = run_tracker(
        {frame: table.position for frame, table in observations.items()},
        config.tracker_config(),
    )
    dataio.write_tracks(out_dir / "tracks.csv", track_rows)
    (out_dir / "trajectories.svg").write_text(render_trajectories(track_rows))
    logger.info("tracked %d row(s) over %d frame(s)", len(track_rows), len(results))
    if truth is not None:
        report["table5"] = tracking_metrics(
            track_rows,
            truth,
            fps=config.fps,
            gate=config.gate_m,
            gap_tolerance_frames=config.gap_tolerance_frames,
        )
    dataio.write_metrics(out_dir / "metrics.json", report)
    return report

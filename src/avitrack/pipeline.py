"""End-to-end pipeline: ingest, mask, match, reject, reconstruct, track, report.

Per-frame work (matching through reconstruction, ``_process_frame``) is
pure, so with ``parallelism`` > 1 it fans out over a process pool. The
frame payloads are handed to the workers once, as the pool's initializer
arguments: under the ``fork`` start method the workers inherit them and
nothing is pickled. Each task is then a frame index. A worker pickles its
``FrameResult`` with every keypoint replaced by a reference, (camera,
position in that frame's keypoint list), and the parent resolves each
reference to its own keypoint object. So only indices go out, only the
matches' scalars, the correspondences and the observations come back, and
every match holds the parent's keypoints, as on the serial path. Results
are merged in frame order, so the output is identical for any parallelism
degree. Tracking is sequential by nature.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataio
from .camera import DEFAULT_REPROJ_THRESHOLD_PX, CameraModel
from .errors import ConfigError, IngestError
from .mask import CANNY_HIGH, CANNY_LOW, build_frame_mask, gate_keypoints, read_pgm
from .matching import (
    ANCHORS,
    DEFAULT_MIN_SUPPORT,
    DEFAULT_RATIO,
    Correspondence,
    Detection,
    FeatureMatch,
    Keypoint,
    cluster_correspondences,
    knn_match,
    reject_by_landmark,
)
from .metrics import GroundTruth, keypoint_stats, rejection_stats, tracking_metrics
from .reconstruction import (
    FUSE_RADIUS_M, Observation3D, reconstruct_frame, reconstruction_stats,
)
from .tracking import (
    ASSOCIATIONS, DEFAULT_ASSOCIATION, DEFAULT_CONFIRM_HITS, DEFAULT_FPS, DEFAULT_GATE,
    DEFAULT_JERK_SIGMA, DEFAULT_MAX_MISSES, DEFAULT_MEAS_SIGMA,
    TrackerConfig, render_trajectories, run_tracker,
)
from .voronoi import LandmarkSet, build_bounded_diagram, render_overlay

logger = logging.getLogger(__name__)

STAGES = ("voronoi-overlay", "match", "reconstruct", "all")
FUSIONS = ("all-pairs", "pairwise")


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
    fusion: str = "all-pairs"
    stage: str = "all"

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

    def validate(self) -> None:
        pairs = self.camera_pairs or []
        for name, ok, rule in (
            ("stage", self.stage in STAGES, f"one of {STAGES}"),
            ("fusion", self.fusion in FUSIONS, f"one of {FUSIONS}"),
            ("association", self.association in ASSOCIATIONS, f"one of {ASSOCIATIONS}"),
            ("landmark_anchor", self.landmark_anchor in ANCHORS, f"one of {ANCHORS}"),
            ("camera_pairs", all(len(pair) == len(set(pair)) == 2 for pair in pairs)
             and len({frozenset(pair) for pair in pairs}) == len(pairs),
             "CAMA,CAMB pairs of two cameras, each pair once"),
            ("ratio", 0 < self.ratio < 1, "in (0, 1)"),
            ("min_support", self.min_support >= 1, ">= 1"),
            ("gate_m", self.gate_m > 0, "> 0"),
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
        defaults = cls()
        for name, value in doc.items():
            if name == "camera_pairs":
                expected = "null or a list of [CAMA, CAMB] pairs of strings"
                ok = value is None or isinstance(value, list) and all(
                    isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(cam, str) for cam in pair)
                    for pair in value
                )
            elif name == "aviary_size":
                expected = "a list of numbers"
                ok = isinstance(value, list) and all(_has_type(v, float) for v in value)
            else:
                kind = type(getattr(defaults, name))
                expected, ok = kind.__name__, _has_type(value, kind)
            if not ok:
                raise IngestError(
                    path, f"config key {name!r}: expected {expected}, got {value!r}"
                )
        return cls(**doc)

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean)

    def tracker_config(self) -> TrackerConfig:
        """The tracker settings of this config, shared by ``run`` and ``track``."""
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
class _FramePayload:
    frame: int
    keypoints: dict[str, list[Keypoint]]
    detections: dict[tuple[str, int, int], Detection]
    pairs: list[tuple[str, str]]
    landmarks: LandmarkSet
    cameras: dict[str, CameraModel]
    config: PipelineConfig


@dataclass
class FrameResult:
    frame: int
    matches: list[FeatureMatch]
    correspondences: dict[tuple[str, str], list[Correspondence]]
    observations: list[Observation3D]


def _process_frame(payload: _FramePayload) -> FrameResult:
    cfg = payload.config
    matches_all: list[FeatureMatch] = []
    correspondences: dict[tuple[str, str], list[Correspondence]] = {}
    for cam_a, cam_b in payload.pairs:
        kps_a = payload.keypoints.get(cam_a, [])
        kps_b = payload.keypoints.get(cam_b, [])
        if not kps_a or not kps_b:
            continue
        candidates = knn_match(kps_a, kps_b, ratio=cfg.ratio)
        decided, _ = reject_by_landmark(
            candidates,
            payload.landmarks,
            anchor=cfg.landmark_anchor,
            detections=payload.detections,
        )
        matches_all.extend(decided)
        correspondences[(cam_a, cam_b)] = cluster_correspondences(
            decided, min_support=cfg.min_support
        )

    bounds = None
    if cfg.validate_bounds:
        bounds = (np.zeros(3), np.asarray(cfg.aviary_size, dtype=float))
    # ``run --stage match`` reads no observation.
    observations = [] if cfg.stage == "match" else reconstruct_frame(
        payload.frame,
        correspondences,
        payload.detections,
        payload.cameras,
        fuse_radius=cfg.fuse_radius_m,
        fuse=cfg.fusion == "all-pairs",
        bounds=bounds,
    )
    return FrameResult(
        frame=payload.frame,
        matches=matches_all,
        correspondences=correspondences,
        observations=observations,
    )


# The payloads of the run a pool worker serves, set once by ``_init_worker``.
_worker_payloads: list[_FramePayload] = []


def _init_worker(payloads: list[_FramePayload]) -> None:
    global _worker_payloads
    _worker_payloads = payloads


def _process_frame_at(index: int) -> bytes:
    """``_process_frame`` on payload ``index``, pickled by keypoint reference."""
    payload = _worker_payloads[index]
    # Keyed by id: every keypoint stays alive in the payload while it pickles.
    refs = {
        id(kp): (camera, position)
        for camera, kps in payload.keypoints.items()
        for position, kp in enumerate(kps)
    }
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: refs.get(id(obj))
    pickler.dump(_process_frame(payload))
    return buffer.getvalue()


def _load_frame_result(data: bytes, payload: _FramePayload) -> FrameResult:
    """Unpickle a worker's result, resolving keypoint references in ``payload``."""
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = lambda ref: payload.keypoints[ref[0]][ref[1]]
    return unpickler.load()


def detection_table(
    detections: list[Detection], keypoints: list[Keypoint], keypoints_path
) -> dict[tuple[str, int, int], Detection]:
    """Detections by (camera, frame, index); every keypoint must reference one."""
    table = {(d.camera_id, d.frame, d.index): d for d in detections}
    for kp in keypoints:
        key = (kp.camera_id, kp.frame, kp.detection_index)
        if key not in table:
            raise IngestError(keypoints_path, f"keypoint references missing detection {key}")
    return table


def apply_mask_stage(
    config: PipelineConfig,
    keypoints: list[Keypoint],
    detections: list[Detection],
    on_mask=None,
    image_sizes: dict[str, tuple[int, int]] | None = None,
) -> list[Keypoint]:
    """Gate keypoints to mask-on pixels built from the per-frame PGM files.

    Masks are built for each (camera, frame) with keypoints. With
    ``on_mask``, they are built for each (camera, frame) with detections
    instead, and each is passed to ``on_mask(camera_id, frame, mask)``.
    With ``image_sizes``, a frame whose (width, height) differs from its
    camera's calibrated size is an ``IngestError``.
    """
    boxes: dict[tuple[str, int], list] = {}
    for det in detections:
        boxes.setdefault((det.camera_id, det.frame), []).append(det.box)

    grouped: dict[tuple[str, int], list[Keypoint]] = {}
    for kp in keypoints:
        grouped.setdefault((kp.camera_id, kp.frame), []).append(kp)

    gated: list[Keypoint] = []
    for key in sorted(grouped if on_mask is None else boxes):
        camera_id, frame = key
        pgm = dataio.frame_path(config.frames_dir, camera_id, frame)
        if not pgm.exists():
            raise IngestError(pgm, "frame file missing for mask stage")
        gray = read_pgm(pgm)
        expected = (image_sizes or {}).get(camera_id)
        if expected is not None and (gray.width, gray.height) != expected:
            raise IngestError(
                pgm, f"frame is {gray.width}x{gray.height}, but camera {camera_id} "
                f"is calibrated for {expected[0]}x{expected[1]}"
            )
        mask = build_frame_mask(
            gray, boxes.get(key, []), low=config.canny_low, high=config.canny_high
        )
        if on_mask is not None:
            on_mask(camera_id, frame, mask)
        gated.extend(gate_keypoints(mask, grouped.get(key, [])))
    return gated


def _observation_rows(frame: int, observations: list[Observation3D]) -> list[tuple]:
    """The ``observations.csv`` rows of one stepped frame: one per
    observation, or one without a position when there is none."""
    if not observations:
        return [(frame, 0, None, None, None)]
    rows = []
    for obs in observations:
        errors = list(obs.reprojection_errors.values())
        rows.append((frame, len(errors), obs.position,
                     sum(errors) / len(errors) if errors else None,
                     max(errors, default=None)))
    return rows


def track_observations(rows: list[tuple], config: PipelineConfig, out_dir: Path) -> list:
    """Track ``observations.csv`` rows; writes tracks.csv and trajectories.svg.

    Every frame with a row is stepped, so a frame without observations
    counts a miss for each live track. ``run`` calls this on the rows it
    writes and ``track`` on the rows it reads, so both give the same tracks.
    """
    by_frame: dict[int, list[np.ndarray]] = {}
    for frame, _, position, _, _ in rows:
        positions = by_frame.setdefault(frame, [])
        if position is not None:
            positions.append(position)
    track_rows = run_tracker(by_frame, config.tracker_config())
    dataio.write_tracks(out_dir / "tracks.csv", track_rows)
    (out_dir / "trajectories.svg").write_text(render_trajectories(track_rows))
    logger.info("tracked %d row(s) over %d frame(s)", len(track_rows), len(by_frame))
    return track_rows


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the configured stages and write outputs; returns the report."""
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
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for camera_id in landmarks.cameras():
        diagram = build_bounded_diagram(landmarks, camera_id)
        (out_dir / f"voronoi_{camera_id}.svg").write_text(render_overlay(diagram))
    logger.info("wrote Voronoi overlays for %d cameras", len(landmarks.cameras()))
    if config.stage == "voronoi-overlay":
        return {}

    detections = dataio.read_detections(config.detections_path)
    keypoints = dataio.read_keypoints(config.keypoints_path)
    table = detection_table(detections, keypoints, config.keypoints_path)
    if config.use_mask:
        before = len(keypoints)
        keypoints = apply_mask_stage(config, keypoints, detections, image_sizes=image_sizes)
        logger.info("mask stage kept %d of %d keypoints", len(keypoints), before)

    keypoints_by_frame: dict[int, dict[str, list[Keypoint]]] = {}
    for kp in keypoints:
        keypoints_by_frame.setdefault(kp.frame, {}).setdefault(
            kp.camera_id, []
        ).append(kp)

    detections_by_frame: dict[int, dict[tuple[str, int, int], Detection]] = {}
    for key, det in table.items():
        detections_by_frame.setdefault(det.frame, {})[key] = det

    frames = sorted(set(keypoints_by_frame) | set(detections_by_frame))
    payloads = [
        _FramePayload(
            frame=frame,
            keypoints=keypoints_by_frame.get(frame, {}),
            detections=detections_by_frame.get(frame, {}),
            pairs=pairs,
            landmarks=landmarks,
            cameras=cameras,
            config=config,
        )
        for frame in frames
    ]

    logger.info(
        "processing %d frames over %d camera pairs (parallelism %d)",
        len(frames), len(pairs), config.parallelism,
    )
    if config.parallelism > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(
            max_workers=config.parallelism, initializer=_init_worker, initargs=(payloads,)
        ) as pool:
            pickled = pool.map(_process_frame_at, range(len(payloads)), chunksize=8)
            results = [_load_frame_result(data, p) for data, p in zip(pickled, payloads)]
    else:
        results = [_process_frame(p) for p in payloads]

    all_matches = [m for r in results for m in r.matches]
    observations = [obs for r in results for obs in r.observations]

    truth = None
    if config.truth_path and config.match_truth_path:
        truth = GroundTruth(
            positions=dataio.read_truth(config.truth_path),
            identities=dataio.read_match_truth(config.match_truth_path),
        )

    report: dict = {}
    counts: dict[str, dict[int, int]] = {}
    for kp in keypoints:
        counts.setdefault(kp.camera_id, {}).setdefault(kp.frame, 0)
        counts[kp.camera_id][kp.frame] += 1
    if frames:
        interval = list(range(frames[0], frames[-1] + 1))
        report["table2"] = keypoint_stats(counts, interval)
    if all_matches:
        report["table3"] = rejection_stats(all_matches, truth)

    dataio.write_correspondences(out_dir / "correspondences.csv", [
        (result.frame, cam_a, cam_b, corr)
        for result in results
        for (cam_a, cam_b), corrs in sorted(result.correspondences.items())
        for corr in corrs
    ])
    if config.stage == "match":
        dataio.write_metrics(out_dir / "metrics.json", report)
        return report

    if observations:
        report["table4"] = reconstruction_stats(
            observations, all_matches, cameras, threshold_px=config.reproj_threshold_px
        )
    obs_rows = [
        row for result in results
        for row in _observation_rows(result.frame, result.observations)
    ]
    dataio.write_observations(out_dir / "observations.csv", obs_rows)
    if config.stage == "reconstruct":
        dataio.write_metrics(out_dir / "metrics.json", report)
        return report

    track_rows = track_observations(obs_rows, config, out_dir)
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

"""File formats: strict CSV/JSON ingestion and deterministic emission.

Readers reject any row that deviates from its schema instead of coercing,
and report the offending file and line. Keypoints, the bulk of every
bundle, have a vectorised fast path: one ``np.loadtxt`` for the numbers
and one streamed pass for the ids. Any file the fast path cannot take
whole (unusual text, a parse failure, a non-finite value) goes to the
strict row reader, so errors still name the file and line. Writers format
floats with ``repr`` so files round-trip losslessly and rerunning a
pipeline yields byte-identical output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .camera import CameraModel, rotation_from_rvec, rvec_from_rotation
from .errors import IngestError
from .matching import Detection, Keypoint
from .voronoi import LandmarkSet

SCHEMA_VERSION = 1

DETECTIONS_HEADER = [
    "camera_id", "frame", "detection_index",
    "x_min", "y_min", "x_max", "y_max", "confidence",
]
LANDMARKS_HEADER = ["camera_id", "global_id", "x_px", "y_px"]
TRUTH_HEADER = ["frame", "identity", "x_m", "y_m", "z_m"]
MATCH_TRUTH_HEADER = ["camera_id", "frame", "detection_index", "identity"]
OBSERVATIONS_HEADER = [
    "frame", "track_hint", "x_m", "y_m", "z_m", "err_cam_a_px", "err_cam_b_px",
]
TRACKS_HEADER = ["frame", "track_id", "status", "x_m", "y_m", "z_m"]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _parse_int(path, line_no: int, text: str, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise IngestError(path, f"column {column!r}: {text!r} is not an integer", line_no)


def _parse_float(path, line_no: int, text: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(path, f"column {column!r}: {text!r} is not a number", line_no)
    if not np.isfinite(value):
        raise IngestError(path, f"column {column!r}: {text!r} is not finite", line_no)
    return value


def _read_rows(path, expected_header: list[str], min_columns: int | None = None):
    path = Path(path)
    if not path.exists():
        raise IngestError(path, "file not found")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(path, "empty file, expected a header row", 1)
        width = min_columns if min_columns is not None else len(expected_header)
        if header[: len(expected_header)] != expected_header:
            raise IngestError(
                path,
                f"bad header {header!r}, expected {expected_header!r}...",
                1,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if min_columns is None and len(row) != len(expected_header):
                raise IngestError(
                    path,
                    f"expected {len(expected_header)} columns, got {len(row)}",
                    line_no,
                )
            yield line_no, row, len(header)


def write_detections(path, detections: list[Detection]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTIONS_HEADER)
        for det in sorted(detections, key=lambda d: (d.camera_id, d.frame, d.index)):
            writer.writerow(
                [
                    det.camera_id,
                    det.frame,
                    det.index,
                    _fmt(det.x_min),
                    _fmt(det.y_min),
                    _fmt(det.x_max),
                    _fmt(det.y_max),
                    _fmt(det.confidence),
                ]
            )


def read_detections(path) -> list[Detection]:
    detections = []
    seen = set()
    for line_no, row, _ in _read_rows(path, DETECTIONS_HEADER):
        camera_id = row[0]
        frame = _parse_int(path, line_no, row[1], "frame")
        index = _parse_int(path, line_no, row[2], "detection_index")
        values = [
            _parse_float(path, line_no, row[3 + i], DETECTIONS_HEADER[3 + i])
            for i in range(5)
        ]
        if values[2] <= values[0] or values[3] <= values[1]:
            raise IngestError(path, f"degenerate box {values[:4]}", line_no)
        key = (camera_id, frame, index)
        if key in seen:
            raise IngestError(path, f"duplicate detection {key}", line_no)
        seen.add(key)
        detections.append(
            Detection(
                camera_id=camera_id,
                frame=frame,
                index=index,
                x_min=values[0],
                y_min=values[1],
                x_max=values[2],
                y_max=values[3],
                confidence=values[4],
            )
        )
    return detections


KEYPOINTS_FIXED_HEADER = ["camera_id", "frame", "detection_index", "x_px", "y_px"]
# Printable ASCII except the quote: the bytes on which csv.reader has no
# special case and float() and loadtxt agree.
_PLAIN_CSV_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"")


def keypoints_header(descriptor_length: int) -> list[str]:
    return KEYPOINTS_FIXED_HEADER + [f"d{i}" for i in range(descriptor_length)]


def write_keypoints(path, keypoints: list[Keypoint]) -> None:
    if keypoints:
        length = keypoints[0].descriptor.size
    else:
        length = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keypoints_header(length))
        ordered = sorted(
            keypoints,
            key=lambda k: (k.camera_id, k.frame, k.detection_index,
                           k.position[1], k.position[0]),
        )
        for kp in ordered:
            row = [
                kp.camera_id,
                kp.frame,
                kp.detection_index,
                _fmt(kp.position[0]),
                _fmt(kp.position[1]),
            ]
            row.extend(_fmt(v) for v in kp.descriptor)
            writer.writerow(row)


def _keypoints_descriptor_length(path: Path) -> int:
    fixed = KEYPOINTS_FIXED_HEADER
    if not path.exists():
        raise IngestError(path, "file not found")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise IngestError(path, "empty file, expected a header row", 1)
    descriptor_length = len(header) - len(fixed)
    if header[: len(fixed)] != fixed or descriptor_length < 1:
        raise IngestError(
            path, "expected header camera_id,frame,detection_index,x_px,y_px,d0,...", 1
        )
    return descriptor_length


def read_keypoints(path) -> list[Keypoint]:
    """Read keypoints.csv, taking the vectorised path when the file allows it."""
    path = Path(path)
    descriptor_length = _keypoints_descriptor_length(path)
    keypoints = _read_keypoints_fast(path, descriptor_length)
    if keypoints is None:
        keypoints = _read_keypoints_strict(path, descriptor_length)
    return keypoints


def _read_keypoints_fast(path: Path, descriptor_length: int) -> list[Keypoint] | None:
    """Whole-file keypoint parse; ``None`` where only the strict reader may judge.

    The id and integer columns come from one streamed pass over the raw
    lines, the numeric columns from one ``np.loadtxt``. Lines must be
    printable ASCII without quotes, so ``bytes.split`` sees the same fields
    as ``csv.reader`` and ``loadtxt`` the same numbers as ``float``. Any
    other text, a parse failure, a row-count or shape mismatch, or a
    non-finite value returns ``None``.
    """
    camera_ids: list[str] = []
    frames: list[int] = []
    det_indices: list[int] = []
    commas = descriptor_length + 1
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh):
                if line.endswith(b"\r\n"):
                    line = line[:-2]
                elif line.endswith(b"\n"):
                    line = line[:-1]
                if line.translate(None, _PLAIN_CSV_BYTES):
                    return None
                if not line or not line_no:
                    continue
                fields = line.split(b",", 3)
                if len(fields) != 4 or fields[3].count(b",") != commas:
                    return None
                camera_ids.append(fields[0].decode("ascii"))
                frames.append(int(fields[1]))
                det_indices.append(int(fields[2]))
        if not camera_ids:
            return []
        values = np.loadtxt(
            path, delimiter=",", skiprows=1,
            usecols=range(3, 5 + descriptor_length), comments=None, ndmin=2,
        )
    except ValueError:
        return None
    if values.shape != (len(camera_ids), 2 + descriptor_length):
        return None
    if not np.isfinite(values).all():
        return None
    return [
        Keypoint(
            camera_id=camera_id,
            frame=frame,
            detection_index=det_index,
            position=row[:2],
            descriptor=row[2:],
        )
        for camera_id, frame, det_index, row in zip(
            camera_ids, frames, det_indices, values
        )
    ]


def _read_keypoints_strict(path: Path, descriptor_length: int) -> list[Keypoint]:
    """Row-by-row reader: the reference for the fast path, and its errors."""
    keypoints = []
    fixed = KEYPOINTS_FIXED_HEADER
    for line_no, row, _ in _read_rows(path, fixed, min_columns=len(fixed)):
        if len(row) != len(fixed) + descriptor_length:
            raise IngestError(
                path,
                f"expected {len(fixed) + descriptor_length} columns, got {len(row)}",
                line_no,
            )
        camera_id = row[0]
        frame = _parse_int(path, line_no, row[1], "frame")
        det_index = _parse_int(path, line_no, row[2], "detection_index")
        x = _parse_float(path, line_no, row[3], "x_px")
        y = _parse_float(path, line_no, row[4], "y_px")
        descriptor = np.array(
            [
                _parse_float(path, line_no, row[5 + i], f"d{i}")
                for i in range(descriptor_length)
            ]
        )
        keypoints.append(
            Keypoint(
                camera_id=camera_id,
                frame=frame,
                detection_index=det_index,
                position=np.array([x, y]),
                descriptor=descriptor,
            )
        )
    return keypoints


def write_landmarks(path, landmarks: LandmarkSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LANDMARKS_HEADER)
        for camera_id in landmarks.cameras():
            for global_id, position in landmarks.entries(camera_id):
                writer.writerow(
                    [camera_id, global_id, _fmt(position[0]), _fmt(position[1])]
                )


def read_landmarks(path, image_sizes: dict[str, tuple[int, int]]) -> LandmarkSet:
    landmarks = LandmarkSet(image_sizes)
    for line_no, row, _ in _read_rows(path, LANDMARKS_HEADER):
        camera_id = row[0]
        global_id = _parse_int(path, line_no, row[1], "global_id")
        x = _parse_float(path, line_no, row[2], "x_px")
        y = _parse_float(path, line_no, row[3], "y_px")
        try:
            landmarks.add(camera_id, global_id, (x, y))
        except ValueError as exc:
            raise IngestError(path, str(exc), line_no)
    return landmarks


def write_calibration(path, cameras: list[CameraModel]) -> None:
    doc = []
    for cam in sorted(cameras, key=lambda c: c.cam_id):
        doc.append(
            {
                "id": cam.cam_id,
                "image_size": list(cam.image_size),
                "K": cam.intrinsic_matrix.tolist(),
                "dist": cam.dist.tolist(),
                "rvec": rvec_from_rotation(cam.rotation).tolist(),
                "tvec": cam.translation.tolist(),
            }
        )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_calibration(path) -> dict[str, CameraModel]:
    path = Path(path)
    if not path.exists():
        raise IngestError(path, "file not found")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(path, f"invalid JSON: {exc}")
    if not isinstance(doc, list):
        raise IngestError(path, "calibration document must be a list of cameras")
    cameras: dict[str, CameraModel] = {}
    for entry in doc:
        try:
            cam_id = str(entry["id"])
            width, height = entry["image_size"]
            k = np.asarray(entry["K"], dtype=float)
            dist = list(entry["dist"])
            rvec = np.asarray(entry["rvec"], dtype=float)
            tvec = np.asarray(entry["tvec"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(path, f"malformed camera entry: {exc}")
        if len(dist) != 5:
            raise IngestError(
                path,
                f"camera {cam_id}: expected 5 distortion coefficients "
                f"(k1,k2,p1,p2,k3), got {len(dist)}",
            )
        if k.shape != (3, 3) or abs(k[2, 2] - 1.0) > 1e-12 or np.any(k[[2, 2], [0, 1]]):
            raise IngestError(path, f"camera {cam_id}: K is not a valid intrinsic matrix")
        if cam_id in cameras:
            raise IngestError(path, f"duplicate camera id {cam_id}")
        try:
            cameras[cam_id] = CameraModel(
                cam_id=cam_id,
                fx=float(k[0, 0]),
                fy=float(k[1, 1]),
                cx=float(k[0, 2]),
                cy=float(k[1, 2]),
                dist=np.asarray(dist, dtype=float),
                rotation=rotation_from_rvec(rvec),
                translation=tvec,
                image_size=(int(width), int(height)),
            )
        except ValueError as exc:
            raise IngestError(path, str(exc))
    return cameras


def write_truth(path, positions: dict[int, dict[int, np.ndarray]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for frame in sorted(positions):
            for identity in sorted(positions[frame]):
                p = positions[frame][identity]
                writer.writerow(
                    [frame, identity, _fmt(p[0]), _fmt(p[1]), _fmt(p[2])]
                )


def read_truth(path) -> dict[int, dict[int, np.ndarray]]:
    positions: dict[int, dict[int, np.ndarray]] = {}
    for line_no, row, _ in _read_rows(path, TRUTH_HEADER):
        frame = _parse_int(path, line_no, row[0], "frame")
        identity = _parse_int(path, line_no, row[1], "identity")
        point = np.array(
            [
                _parse_float(path, line_no, row[2 + i], TRUTH_HEADER[2 + i])
                for i in range(3)
            ]
        )
        frame_map = positions.setdefault(frame, {})
        if identity in frame_map:
            raise IngestError(
                path, f"identity {identity} appears twice in frame {frame}", line_no
            )
        frame_map[identity] = point
    return positions


def write_match_truth(path, identities: dict[tuple[str, int, int], int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATCH_TRUTH_HEADER)
        for (camera_id, frame, det_index) in sorted(identities):
            writer.writerow(
                [camera_id, frame, det_index, identities[(camera_id, frame, det_index)]]
            )


def read_match_truth(path) -> dict[tuple[str, int, int], int]:
    identities: dict[tuple[str, int, int], int] = {}
    for line_no, row, _ in _read_rows(path, MATCH_TRUTH_HEADER):
        camera_id = row[0]
        frame = _parse_int(path, line_no, row[1], "frame")
        det_index = _parse_int(path, line_no, row[2], "detection_index")
        identity = _parse_int(path, line_no, row[3], "identity")
        key = (camera_id, frame, det_index)
        if key in identities:
            raise IngestError(path, f"duplicate detection label {key}", line_no)
        identities[key] = identity
    return identities


def write_observations(path, observations: list) -> None:
    """Observation rows: (frame, hint, position, err_a, err_b)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSERVATIONS_HEADER)
        for frame, hint, position, err_a, err_b in observations:
            writer.writerow(
                [
                    frame,
                    hint,
                    _fmt(position[0]),
                    _fmt(position[1]),
                    _fmt(position[2]),
                    _fmt(err_a),
                    _fmt(err_b),
                ]
            )


def read_observations(path) -> list[tuple[int, int, np.ndarray, float, float]]:
    rows = []
    for line_no, row, _ in _read_rows(path, OBSERVATIONS_HEADER):
        frame = _parse_int(path, line_no, row[0], "frame")
        hint = _parse_int(path, line_no, row[1], "track_hint")
        values = [
            _parse_float(path, line_no, row[2 + i], OBSERVATIONS_HEADER[2 + i])
            for i in range(5)
        ]
        rows.append((frame, hint, np.array(values[:3]), values[3], values[4]))
    return rows


def write_tracks(path, track_rows: list[tuple[int, int, str, np.ndarray]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACKS_HEADER)
        for frame, track_id, status, position in track_rows:
            writer.writerow(
                [
                    frame,
                    track_id,
                    status,
                    _fmt(position[0]),
                    _fmt(position[1]),
                    _fmt(position[2]),
                ]
            )


def read_tracks(path) -> list[tuple[int, int, str, np.ndarray]]:
    rows = []
    for line_no, row, _ in _read_rows(path, TRACKS_HEADER):
        frame = _parse_int(path, line_no, row[0], "frame")
        track_id = _parse_int(path, line_no, row[1], "track_id")
        status = row[2]
        if status not in ("tentative", "confirmed", "dead"):
            raise IngestError(path, f"unknown track status {status!r}", line_no)
        position = np.array(
            [
                _parse_float(path, line_no, row[3 + i], TRACKS_HEADER[3 + i])
                for i in range(3)
            ]
        )
        rows.append((frame, track_id, status, position))
    return rows


def write_metrics(path, report: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(report)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def frame_path(frames_dir, camera_id: str, frame: int) -> Path:
    return Path(frames_dir) / f"{camera_id}_frame{frame}.pgm"

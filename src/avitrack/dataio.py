"""File formats: strict CSV/JSON ingestion and deterministic emission.

Every CSV table is written by ``_write_table`` and read by ``_read_table``,
which checks the header and the column count and parses each column as
text, an integer or a finite float. Readers reject any row that deviates
from its schema instead of coercing, and report the offending file and
line; each public reader adds only its own semantic checks. Keypoints,
the bulk of every bundle, have a vectorised fast path: one ``np.loadtxt``
for the numbers and one streamed pass for the ids. Any file the fast path
cannot take whole (unusual text, a parse failure, a non-finite value) goes
to the strict row reader, so errors still name the file and line. Writers
hand floats to ``csv`` as Python floats, which it formats with ``repr``,
so files round-trip losslessly and rerunning a pipeline yields
byte-identical output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .camera import CameraModel, rotation_from_rvec, rvec_from_rotation
from .errors import IngestError
from .matching import Correspondence, Detection, Keypoint
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
CORRESPONDENCES_HEADER = [
    "frame", "camera_a", "camera_b", "detection_index_a", "detection_index_b",
    "support", "mean_descriptor_distance",
]


def _write_table(path, header: list[str], rows) -> None:
    """Write one CSV table. Float cells must be Python floats: ``csv``
    writes their ``repr``, where a numpy scalar would print its own way."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


_PARSERS = {"s": None, "i": _parse_int, "f": _parse_float}


def _read_table(path, header: list[str], kinds: str):
    """``(line_no, values)`` for each non-blank row of a CSV table.

    ``kinds`` types each column of ``header``: ``s`` text, ``i`` integer,
    ``f`` finite float. The file's header must start with ``header`` and
    every row must have exactly its columns.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(path, "file not found")
    columns = [(name, _PARSERS[kind]) for name, kind in zip(header, kinds, strict=True)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader)
        except StopIteration:
            raise IngestError(path, "empty file, expected a header row", 1)
        if found[: len(header)] != header:
            raise IngestError(path, f"bad header {found!r}, expected {header!r}...", 1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(
                    path, f"expected {len(header)} columns, got {len(row)}", line_no
                )
            yield line_no, [
                text if parse is None else parse(path, line_no, text, name)
                for text, (name, parse) in zip(row, columns)
            ]


def write_detections(path, detections: list[Detection]) -> None:
    _write_table(path, DETECTIONS_HEADER, (
        [d.camera_id, d.frame, d.index, *map(float, d.box), float(d.confidence)]
        for d in sorted(detections, key=lambda d: (d.camera_id, d.frame, d.index))
    ))


def read_detections(path) -> list[Detection]:
    detections = []
    seen = set()
    for line_no, (camera_id, frame, index, *values) in _read_table(
        path, DETECTIONS_HEADER, "siifffff"
    ):
        if values[2] <= values[0] or values[3] <= values[1]:
            raise IngestError(path, f"degenerate box {values[:4]}", line_no)
        key = (camera_id, frame, index)
        if key in seen:
            raise IngestError(path, f"duplicate detection {key}", line_no)
        seen.add(key)
        detections.append(Detection(camera_id, frame, index, *values))
    return detections


KEYPOINTS_FIXED_HEADER = ["camera_id", "frame", "detection_index", "x_px", "y_px"]
# Printable ASCII except the quote: the bytes on which csv.reader has no
# special case and float() and loadtxt agree.
_PLAIN_CSV_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"")


def keypoints_header(descriptor_length: int) -> list[str]:
    return KEYPOINTS_FIXED_HEADER + [f"d{i}" for i in range(descriptor_length)]


def write_keypoints(path, keypoints: list[Keypoint]) -> None:
    length = keypoints[0].descriptor.size if keypoints else 0
    ordered = sorted(
        keypoints,
        key=lambda k: (k.camera_id, k.frame, k.detection_index,
                       k.position[1], k.position[0]),
    )
    _write_table(path, keypoints_header(length), (
        [kp.camera_id, kp.frame, kp.detection_index,
         *kp.position.tolist(), *kp.descriptor.tolist()]
        for kp in ordered
    ))


def _keypoints_descriptor_length(path: Path) -> int:
    if not path.exists():
        raise IngestError(path, "file not found")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise IngestError(path, "empty file, expected a header row", 1)
    descriptor_length = len(header) - len(KEYPOINTS_FIXED_HEADER)
    if descriptor_length < 1 or header != keypoints_header(descriptor_length):
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
    return [
        Keypoint(camera_id, frame, det_index, values[:2], values[2:])
        for _, (camera_id, frame, det_index, *values) in _read_table(
            path, keypoints_header(descriptor_length), "siiff" + "f" * descriptor_length
        )
    ]


def write_landmarks(path, landmarks: LandmarkSet) -> None:
    _write_table(path, LANDMARKS_HEADER, (
        [camera_id, global_id, *position.tolist()]
        for camera_id in landmarks.cameras()
        for global_id, position in landmarks.entries(camera_id)
    ))


def read_landmarks(path, image_sizes: dict[str, tuple[int, int]]) -> LandmarkSet:
    landmarks = LandmarkSet(image_sizes)
    for line_no, (camera_id, global_id, x, y) in _read_table(
        path, LANDMARKS_HEADER, "siff"
    ):
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
    _write_table(path, TRUTH_HEADER, (
        [frame, identity, *map(float, positions[frame][identity])]
        for frame in sorted(positions)
        for identity in sorted(positions[frame])
    ))


def read_truth(path) -> dict[int, dict[int, np.ndarray]]:
    positions: dict[int, dict[int, np.ndarray]] = {}
    for line_no, (frame, identity, *point) in _read_table(path, TRUTH_HEADER, "iifff"):
        frame_map = positions.setdefault(frame, {})
        if identity in frame_map:
            raise IngestError(
                path, f"identity {identity} appears twice in frame {frame}", line_no
            )
        frame_map[identity] = np.array(point)
    return positions


def write_match_truth(path, identities: dict[tuple[str, int, int], int]) -> None:
    _write_table(path, MATCH_TRUTH_HEADER, (
        [*key, identities[key]] for key in sorted(identities)
    ))


def read_match_truth(path) -> dict[tuple[str, int, int], int]:
    identities: dict[tuple[str, int, int], int] = {}
    for line_no, (camera_id, frame, det_index, identity) in _read_table(
        path, MATCH_TRUTH_HEADER, "siii"
    ):
        key = (camera_id, frame, det_index)
        if key in identities:
            raise IngestError(path, f"duplicate detection label {key}", line_no)
        identities[key] = identity
    return identities


def write_correspondences(
    path, rows: list[tuple[int, str, str, Correspondence]]
) -> None:
    """Correspondence rows: (frame, camera_a, camera_b, correspondence)."""
    _write_table(path, CORRESPONDENCES_HEADER, (
        [frame, cam_a, cam_b, c.detection_index_a, c.detection_index_b,
         c.support, float(c.mean_descriptor_distance)]
        for frame, cam_a, cam_b, c in rows
    ))


def write_observations(path, observations: list) -> None:
    """Observation rows: (frame, hint, position, err_a, err_b)."""
    _write_table(path, OBSERVATIONS_HEADER, (
        [frame, hint, *map(float, position), float(err_a), float(err_b)]
        for frame, hint, position, err_a, err_b in observations
    ))


def read_observations(path) -> list[tuple[int, int, np.ndarray, float, float]]:
    return [
        (frame, hint, np.array(values[:3]), values[3], values[4])
        for _, (frame, hint, *values) in _read_table(
            path, OBSERVATIONS_HEADER, "iifffff"
        )
    ]


def write_tracks(path, track_rows: list[tuple[int, int, str, np.ndarray]]) -> None:
    _write_table(path, TRACKS_HEADER, (
        [frame, track_id, status, *map(float, position)]
        for frame, track_id, status, position in track_rows
    ))


def read_tracks(path) -> list[tuple[int, int, str, np.ndarray]]:
    rows = []
    for line_no, (frame, track_id, status, *position) in _read_table(
        path, TRACKS_HEADER, "iisfff"
    ):
        if status not in ("tentative", "confirmed", "dead"):
            raise IngestError(path, f"unknown track status {status!r}", line_no)
        rows.append((frame, track_id, status, np.array(position)))
    return rows


def write_metrics(path, report: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(report)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def frame_path(frames_dir, camera_id: str, frame: int) -> Path:
    return Path(frames_dir) / f"{camera_id}_frame{frame}.pgm"

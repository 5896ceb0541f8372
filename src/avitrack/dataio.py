"""File formats: strict CSV/JSON ingestion and deterministic emission.

Every CSV table is written by ``_write_table`` and read by ``_read_table``,
which checks the header and the column count and parses each column as
text, an int64 integer or a finite float. Readers reject any
row that deviates from its schema instead of coercing, and report the
offending file and line; each public reader adds only its own semantic
checks. Keypoints, detections and match labels, the bulk of every bundle,
have a vectorised fast path: one streamed check of the bytes and one
``np.loadtxt`` for every column. Any file the fast path cannot take whole
(unusual text, a parse failure, a non-finite value, a row that breaks a
semantic check) goes to the strict row reader, so errors still name the
file and line. Keypoints and detections are each read as one table
(``KeypointTable``, ``DetectionTable``), not one object per row. Writers
hand floats to ``csv`` as Python floats, which it formats with ``repr``,
so files round-trip losslessly and rerunning a pipeline yields
byte-identical output. ``write_keypoints`` is the one exception: it
formats a block of rows at a time in numpy, with the bytes that ``csv``
writes for the same rows.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .camera import CameraModel, rotation_from_rvec, rvec_from_rotation
from .errors import IngestError
from .matching import Correspondence, DetectionTable, KeypointTable
from .voronoi import LandmarkSet

SCHEMA_VERSION = 2

DETECTIONS_HEADER = [
    "camera_id", "frame", "detection_index",
    "x_min", "y_min", "x_max", "y_max", "confidence",
]
LANDMARKS_HEADER = ["camera_id", "global_id", "x_px", "y_px"]
TRUTH_HEADER = ["frame", "identity", "x_m", "y_m", "z_m"]
MATCH_TRUTH_HEADER = ["camera_id", "frame", "detection_index", "identity"]
OBSERVATIONS_HEADER = [
    "frame", "n_cameras", "x_m", "y_m", "z_m", "mean_err_px", "max_err_px",
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


_INT64 = np.iinfo(np.int64)


def _parse_int(path, line_no: int, text: str, column: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise IngestError(path, f"column {column!r}: {text!r} is not an integer", line_no)
    if not _INT64.min <= value <= _INT64.max:
        raise IngestError(path, f"column {column!r}: {text!r} is outside int64", line_no)
    return value


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

    ``kinds`` types each column of ``header``: ``s`` text, ``i`` int64
    integer, ``f`` finite float.
    The file's header must start with ``header`` and every row must have
    exactly its columns.
    """
    path = Path(path)
    if not path.is_file():
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


# Printable ASCII except the quote, and LF: the bytes on which csv.reader
# has no special case and float() and loadtxt agree.
_PLAIN_LINE_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
_FAST_KINDS = {"s": object, "i": np.int64, "f": np.float64}


def _read_table_fast(path, header: list[str], kinds: str) -> list[np.ndarray] | None:
    """The columns of a plain CSV table, or ``None`` where only the strict
    reader, ``_read_table``, may judge.

    One streamed pass checks the bytes: the first line is exactly
    ``header``, every byte is printable ASCII without quotes, and lines
    end in LF or CRLF. On such text ``csv.reader`` and ``np.loadtxt`` split
    the same fields and skip the same empty lines, so one ``loadtxt`` call
    parses every row into a structured array. Each run of equal ``kinds``
    is returned as one (rows, run length) array: text as ``str`` objects,
    integers as int64 and floats as float64. A parse failure, a wrong
    column count, an integer beyond int64 or a non-finite float returns
    ``None``.
    """
    path = Path(path)
    runs = [(kind, len(list(group))) for kind, group in itertools.groupby(kinds)]
    dtype = np.dtype([(f"c{i}", _FAST_KINDS[kind], (count,))
                      for i, (kind, count) in enumerate(runs)])
    header_line = ",".join(header).encode("ascii")
    has_rows = False
    try:
        with open(path, "rb") as fh:
            if fh.readline() not in (header_line + b"\r\n", header_line + b"\n", header_line):
                return None
            while chunk := fh.read(1 << 20):
                if chunk.endswith(b"\r"):  # keep a CRLF in one chunk
                    chunk += fh.read(1)
                if chunk.replace(b"\r\n", b"\n").translate(None, _PLAIN_LINE_BYTES):
                    return None
                has_rows = has_rows or bool(chunk.strip(b"\r\n"))
        if not has_rows:
            rows = np.empty(0, dtype=dtype)
        else:
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                              comments=None, ndmin=1)
    except (OSError, ValueError):
        return None
    columns = [rows[name] for name in dtype.names]
    if any(kind == "f" and not np.isfinite(column).all()
           for (kind, _), column in zip(runs, columns)):
        return None
    return columns


def write_detections(path, table: DetectionTable) -> None:
    """Write detections.csv, ordered by (camera, frame, index)."""
    _, camera_code = np.unique(table.camera, return_inverse=True)
    order = np.lexsort((table.index, table.frame, camera_code))
    _write_table(path, DETECTIONS_HEADER, (
        [camera_id, frame, index, *box, confidence]
        for camera_id, frame, index, box, confidence in zip(
            table.camera[order].tolist(), table.frame[order].tolist(),
            table.index[order].tolist(), table.box[order].tolist(),
            table.confidence[order].tolist(),
        )
    ))


def read_detections(path) -> DetectionTable:
    columns = _read_table_fast(path, DETECTIONS_HEADER, "siifffff")
    if columns is not None:
        cameras, ints, values = columns
        table = DetectionTable(cameras[:, 0], ints[:, 0], ints[:, 1], values[:, :4], values[:, 4])
        degenerate = (values[:, 2] <= values[:, 0]) | (values[:, 3] <= values[:, 1])
        keys = set(zip(table.camera.tolist(), table.frame.tolist(), table.index.tolist()))
        if not degenerate.any() and len(keys) == len(table):
            return table
    return _read_detections_strict(path)


def _read_detections_strict(path) -> DetectionTable:
    """Row-by-row reader: the reference for the fast path, and its errors."""
    rows = []
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
        rows.append([*key, *values])
    cells = np.array(rows, dtype=object).reshape(-1, len(DETECTIONS_HEADER))
    return DetectionTable(cells[:, 0], cells[:, 1].astype(np.int64), cells[:, 2].astype(np.int64),
                          cells[:, 3:7].astype(float), cells[:, 7].astype(float))


KEYPOINTS_FIXED_HEADER = ["camera_id", "frame", "detection_index", "x_px", "y_px"]


def keypoints_header(descriptor_length: int) -> list[str]:
    return KEYPOINTS_FIXED_HEADER + [f"d{i}" for i in range(descriptor_length)]


def write_keypoints(path, table: KeypointTable, descriptor_length: int) -> None:
    """Write keypoints.csv, ordered by (camera, frame, detection, y, x) with
    ties in table order; the header names ``descriptor_length`` descriptor
    columns even when there are no rows, so the file reads back.

    The bytes are those ``csv.writer`` gives for the rows as Python values.
    Each camera id is quoted by ``csv`` once, positions are ``repr``'d, and
    descriptor rows are formatted by ``_format_descriptors`` a block at a
    time.
    """
    names, camera_code = np.unique(table.camera, return_inverse=True)
    order = np.lexsort((table.xy[:, 0], table.xy[:, 1], table.detection, table.frame,
                        camera_code))
    quoted = [_csv_cell(name) for name in names.tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(keypoints_header(descriptor_length))
        block = max(1, _FORMAT_BLOCK_CELLS // max(1, table.desc.shape[1]))
        for start in range(0, len(order), block):
            rows = order[start:start + block]
            fh.write("".join(
                f"{quoted[camera]},{frame},{detection},{x!r},{y!r}{descriptors}\r\n"
                for camera, frame, detection, (x, y), descriptors in zip(
                    camera_code[rows].tolist(), table.frame[rows].tolist(),
                    table.detection[rows].tolist(), table.xy[rows].tolist(),
                    _format_descriptors(table.desc[rows]),
                )
            ))


# Descriptor cells formatted per block: bounds the formatter's temporary
# arrays, whatever the table's size.
_FORMAT_BLOCK_CELLS = 1 << 15


def _fraction_halves() -> tuple[np.ndarray, np.ndarray]:
    """Per n in 0-999, the high and the low three fraction digits as one
    4-byte word each, byte 0 standing for a byte left out.

    A high word is "." and n's digits, zero-padded: written whole when the
    low half is not zero (words 0-999), and without trailing zeros but the
    first digit when it is (words 1000-1999). A low word is n's digits
    without trailing zeros, then byte 0.
    """
    n = np.arange(1000)[:, None]
    digits = n // [100, 10, 1] % 10 + ord("0")
    not_trailing = n % [1000, 100, 10] != 0  # a nonzero digit here or later
    point, nothing = np.full((1000, 1), ord(".")), np.zeros((1000, 1))

    def words(*columns):
        return np.hstack(columns).astype(np.uint8).view(np.uint32)[:, 0]

    high = np.concatenate([words(point, digits),
                           words(point, digits * (not_trailing | [True, False, False]))])
    return high, words(digits * not_trailing, nothing)


_HIGH_HALF, _LOW_HALF = _fraction_halves()


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[:-3]  # drop the empty last field and "\r\n"


def _format_descriptors(values: np.ndarray) -> list[str]:
    """Each row of ``values`` as the text that follows the position cells:
    a comma and ``repr`` of each value.

    A value ``v`` that is exactly ``k / 1e6`` with ``100 <= |k| < 10**15``,
    or a zero, is formatted from the integer ``k``: the sign, the integer
    digits and the six fraction digits with trailing zeros stripped,
    keeping ``.0``. That decimal has at most 15 significant digits, so no
    other decimal as short names ``v``, and from ``1e-4`` up to ``1e16``
    ``repr`` writes positional notation: the text is ``repr(v)``. A row
    holding any other value (below ``1e-4``, unquantised or non-finite) is
    formatted by ``repr``.
    """
    rows, length = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.rint(values * 1e6)
        magnitude = np.abs(scaled)
        exact = ((scaled / 1e6 == values) & (magnitude < 1e15)
                 & ((magnitude >= 100) | (values == 0)))
    micros = np.where(exact, magnitude, 0.0).astype(np.int64)
    integer = micros // 10**6
    fraction = micros - integer * 10**6
    high = fraction // 1000
    low = fraction - high * 1000
    width = len(str(integer.max(initial=0)))
    lead = (2 + width + 3) // 4  # words for ",", the sign and the integer digits
    # Per row: each cell is ",", the sign, the integer digits right-aligned,
    # then the two fraction words; then a newline. Byte 0 is left out.
    cells = np.zeros((rows, length, 4 * (lead + 2)), dtype=np.uint8)
    cells[..., 0] = ord(",")
    cells[..., 1] = np.signbit(values) * ord("-")
    for place in range(width):  # from the ones digit; no leading zeros
        quotient = integer // 10
        digit = (integer - quotient * 10).astype(np.uint8) + ord("0")
        cells[..., 4 * lead - 1 - place] = digit if place == 0 else digit * (integer > 0)
        integer = quotient
    words = cells.view(np.uint32)
    words[..., lead] = _HIGH_HALF[high + 1000 * (low == 0)]
    words[..., lead + 1] = _LOW_HALF[low]
    text = np.column_stack([cells.reshape(rows, -1), np.full(rows, ord("\n"), np.uint8)])
    formatted = text.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    for row in np.flatnonzero(~exact.all(axis=1)).tolist():
        formatted[row] = "".join(f",{value!r}" for value in values[row].tolist())
    return formatted[:rows]


def keypoints_descriptor_length(path) -> int:
    """The descriptor length that the header of keypoints.csv ``path`` names."""
    path = Path(path)
    if not path.is_file():
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


def read_keypoints(path, image_sizes: dict[str, tuple[int, int]]) -> KeypointTable:
    """Read keypoints.csv as one table, in file row order.

    A keypoint of a camera in ``image_sizes`` must lie inside its
    (width, height) image: ``0 <= x < width`` and ``0 <= y < height``.
    """
    path = Path(path)
    descriptor_length = keypoints_descriptor_length(path)
    kinds = "siiff" + "f" * descriptor_length
    columns = _read_table_fast(path, keypoints_header(descriptor_length), kinds)
    if columns is not None:
        cameras, ints, values = columns
        table = KeypointTable(
            cameras[:, 0], ints[:, 0], ints[:, 1], values[:, :2], values[:, 2:]
        )
        if not _outside_image(table, image_sizes).any():
            return table
    return _read_keypoints_strict(path, descriptor_length, image_sizes)


def _outside_image(
    table: KeypointTable, image_sizes: dict[str, tuple[int, int]]
) -> np.ndarray:
    """Per row, whether the keypoint lies outside its calibrated image."""
    x, y = table.xy[:, 0], table.xy[:, 1]
    outside = np.zeros(len(table), dtype=bool)
    for camera_id, (width, height) in image_sizes.items():
        inside = (x >= 0) & (x < width) & (y >= 0) & (y < height)
        outside |= (table.camera == camera_id) & ~inside
    return outside


def _read_keypoints_strict(
    path: Path, descriptor_length: int, image_sizes: dict[str, tuple[int, int]]
) -> KeypointTable:
    """Row-by-row reader: the reference for the fast path, and its errors."""
    cameras, frames, detections, values = [], [], [], []
    for line_no, (camera_id, frame, det_index, *numbers) in _read_table(
        path, keypoints_header(descriptor_length), "siiff" + "f" * descriptor_length
    ):
        x, y = numbers[:2]
        size = image_sizes.get(camera_id)
        if size is not None and not (0 <= x < size[0] and 0 <= y < size[1]):
            raise IngestError(
                path, f"keypoint at ({x!r}, {y!r}) outside camera {camera_id} "
                f"frame {size[0]}x{size[1]}", line_no
            )
        cameras.append(camera_id)
        frames.append(frame)
        detections.append(det_index)
        values.append(numbers)
    array = np.array(values, dtype=float).reshape(len(values), 2 + descriptor_length)
    return KeypointTable(
        np.array(cameras, dtype=object), np.array(frames, dtype=np.int64),
        np.array(detections, dtype=np.int64), array[:, :2], array[:, 2:],
    )


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


def is_finite_number(value) -> bool:
    """``value`` is an int or a float, not a bool, that a float holds finitely."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The document of a JSON file; no such file, or bad JSON, is an ``IngestError``."""
    if not Path(path).is_file():
        raise IngestError(path, "file not found")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise IngestError(path, f"invalid JSON: {exc}")


def write_recording(path, fps: float, bounds: tuple[np.ndarray, np.ndarray]) -> None:
    low, high = (np.asarray(corner, dtype=float).tolist() for corner in bounds)
    _write_json(path, {"aviary_max_m": high, "aviary_min_m": low, "fps": float(fps)})


def read_recording(path) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """The frame rate and the aviary box, its (min, max) corners, of ``recording.json``."""
    doc = read_json(path)
    keys = ["aviary_max_m", "aviary_min_m", "fps"]
    if not isinstance(doc, dict) or sorted(doc) != keys:
        raise IngestError(path, f"recording must be a JSON object of the keys {keys}")
    if not (is_finite_number(doc["fps"]) and doc["fps"] > 0):
        raise IngestError(path, f"fps must be a finite number > 0, got {doc['fps']!r}")
    for key in ("aviary_min_m", "aviary_max_m"):
        corner = doc[key]
        if not (type(corner) is list and len(corner) == 3 and all(map(is_finite_number, corner))):
            raise IngestError(path, f"{key} must be three finite numbers, got {corner!r}")
    low, high = (np.array(doc[key], dtype=float) for key in ("aviary_min_m", "aviary_max_m"))
    if not (low < high).all():
        raise IngestError(path, f"aviary_min_m must be below aviary_max_m on every axis, "
                                f"got {low.tolist()} and {high.tolist()}")
    return float(doc["fps"]), (low, high)


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
    _write_json(path, doc)


def read_calibration(path) -> dict[str, CameraModel]:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise IngestError(path, "calibration document must be a list of cameras")
    cameras: dict[str, CameraModel] = {}
    for entry in doc:
        try:
            cam_id = str(entry["id"])
            width, height = entry["image_size"]
            k = np.asarray(entry["K"], dtype=float)
            dist = np.asarray(list(entry["dist"]), dtype=float)
            rvec = np.asarray(entry["rvec"], dtype=float)
            tvec = np.asarray(entry["tvec"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise IngestError(path, f"malformed camera entry: {exc}")
        if not all(type(size) is int for size in (width, height)):
            raise IngestError(path, f"camera {cam_id}: image_size must be two integers")
        for field, values in (("K", k), ("dist", dist), ("rvec", rvec), ("tvec", tvec)):
            if not np.isfinite(values).all():
                raise IngestError(path, f"camera {cam_id}: {field} holds a non-finite number")
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
                dist=dist,
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
    columns = _read_table_fast(path, MATCH_TRUTH_HEADER, "siii")
    if columns is not None:
        cameras, ints = columns
        identities = {
            (camera_id, frame, det_index): identity
            for (camera_id,), (frame, det_index, identity)
            in zip(cameras.tolist(), ints.tolist())
        }
        if len(identities) == len(ints):
            return identities
    return _read_match_truth_strict(path)


def _read_match_truth_strict(path) -> dict[tuple[str, int, int], int]:
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


def observation_cells(errors: np.ndarray) -> list[tuple]:
    """The ``n_cameras``, ``mean_err_px`` and ``max_err_px`` cells of each
    row of an ``ObservationTable``'s (n, C) ``errors``.

    ``n_cameras`` counts a row's non-NaN cells; with none, the other two
    cells are empty. The mean adds the cells one at a time, left to right
    in column order, as the file always has. A numpy row sum turns
    pairwise from 8 cells on, NaN padding included, and Python's ``sum``
    compensates from 3.12 on; either would move the last bits.
    """
    present = ~np.isnan(errors)
    total = np.zeros(len(errors))
    with np.errstate(over="ignore"):  # a sum past the largest float is inf
        for column in np.where(present, errors, 0.0).T:
            total += column
    counts, worst = present.sum(axis=1), np.fmax.reduce(errors, axis=1, initial=np.nan)
    return [(n, row_sum / n, row_max) if n else (0, "", "")
            for n, row_sum, row_max in zip(counts.tolist(), total.tolist(), worst.tolist())]


def write_observations(path, observations: dict) -> None:
    """Observation rows: (frame, n_cameras, position, mean_err, max_err).

    ``observations`` maps each stepped frame to its ``ObservationTable``.
    Frames are written in order, each table's rows in order, and a frame
    without any observation is the row (frame, 0) with empty cells.
    """
    rows = []
    for frame in sorted(observations):
        table = observations[frame]
        if not len(table):
            rows.append([frame, 0, "", "", "", "", ""])
        rows += [[at, n, *position, mean, worst] for at, position, (n, mean, worst) in zip(
            table.frame.tolist(), table.position.tolist(), observation_cells(table.errors))]
    _write_table(path, OBSERVATIONS_HEADER, rows)


def write_tracks(path, track_rows: list[tuple[int, int, str, np.ndarray]]) -> None:
    _write_table(path, TRACKS_HEADER, (
        [frame, track_id, status, *map(float, position)]
        for frame, track_id, status, position in track_rows
    ))


def write_metrics(path, report: dict) -> None:
    _write_json(path, {"schema_version": SCHEMA_VERSION, **report})


def frame_path(frames_dir, camera_id: str, frame: int) -> Path:
    return Path(frames_dir) / f"{camera_id}_frame{frame}.pgm"

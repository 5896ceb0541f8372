"""Tests for strict file ingestion and lossless round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack import dataio
from avitrack.errors import IngestError
from avitrack.matching import Detection, Keypoint
from avitrack.synthworld import SceneConfig, generate
from avitrack.voronoi import LandmarkSet


@pytest.fixture
def bundle_dir(tmp_path):
    bundle = generate(
        SceneConfig(
            duration_s=0.3, seed=2, camera_count=3, bird_count=2,
            image_size=(640, 360), focal_px=360.0, descriptor_length=8,
        )
    )
    out = tmp_path / "bundle"
    bundle.write(out)
    return out, bundle


class TestRoundTrips:
    def test_detections(self, bundle_dir):
        out, bundle = bundle_dir
        loaded = dataio.read_detections(out / "detections.csv")
        assert loaded == sorted(
            bundle.detections, key=lambda d: (d.camera_id, d.frame, d.index)
        )

    def test_keypoints(self, bundle_dir):
        out, bundle = bundle_dir
        loaded = dataio.read_keypoints(out / "keypoints.csv")
        assert len(loaded) == len(bundle.keypoints)
        by_key = {}
        for kp in bundle.keypoints:
            by_key.setdefault(
                (kp.camera_id, kp.frame, kp.detection_index), []
            ).append(kp)
        for kp in loaded:
            group = by_key[(kp.camera_id, kp.frame, kp.detection_index)]
            assert any(
                np.array_equal(kp.position, other.position)
                and np.array_equal(kp.descriptor, other.descriptor)
                for other in group
            )

    def test_calibration(self, bundle_dir):
        out, bundle = bundle_dir
        loaded = dataio.read_calibration(out / "calibration.json")
        assert set(loaded) == set(bundle.cameras)
        for cam_id, cam in bundle.cameras.items():
            got = loaded[cam_id]
            np.testing.assert_allclose(got.rotation, cam.rotation, atol=1e-12)
            np.testing.assert_allclose(got.translation, cam.translation, atol=1e-15)
            assert got.fx == cam.fx and got.image_size == cam.image_size

    def test_landmarks(self, bundle_dir):
        out, bundle = bundle_dir
        sizes = {cid: cam.image_size for cid, cam in bundle.cameras.items()}
        loaded = dataio.read_landmarks(out / "landmarks.csv", sizes)
        for camera_id in loaded.cameras():
            for (gid_a, pos_a), (gid_b, pos_b) in zip(
                loaded.entries(camera_id), bundle.landmark_set.entries(camera_id)
            ):
                assert gid_a == gid_b
                np.testing.assert_array_equal(pos_a, pos_b)

    def test_truth_and_labels(self, bundle_dir):
        out, bundle = bundle_dir
        positions = dataio.read_truth(out / "truth.csv")
        assert set(positions) == set(bundle.truth_positions)
        for frame in positions:
            for identity, point in positions[frame].items():
                np.testing.assert_array_equal(
                    point, bundle.truth_positions[frame][identity]
                )
        labels = dataio.read_match_truth(out / "match_truth.csv")
        assert labels == bundle.detection_identities

    def test_observations_and_tracks(self, tmp_path):
        obs = [(0, 0, np.array([1.0, 2.0, 3.0]), 0.5, 0.25)]
        dataio.write_observations(tmp_path / "o.csv", obs)
        loaded = dataio.read_observations(tmp_path / "o.csv")
        assert loaded[0][0] == 0
        np.testing.assert_array_equal(loaded[0][2], obs[0][2])

        rows = [(0, 1, "tentative", np.array([0.1, 0.2, 0.3]))]
        dataio.write_tracks(tmp_path / "t.csv", rows)
        back = dataio.read_tracks(tmp_path / "t.csv")
        assert back[0][:3] == (0, 1, "tentative")
        np.testing.assert_array_equal(back[0][3], rows[0][3])


class TestStrictness:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            dataio.read_detections(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("camera,frame\n")
        with pytest.raises(IngestError, match="header"):
            dataio.read_detections(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(dataio.DETECTIONS_HEADER) + "\ncam0,0,0,1.0,2.0,3.0\n"
        )
        with pytest.raises(IngestError, match="d.csv:2"):
            dataio.read_detections(path)

    def test_non_integer_frame_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(dataio.DETECTIONS_HEADER)
            + "\ncam0,1.5,0,1.0,2.0,3.0,4.0,0.9\n"
        )
        with pytest.raises(IngestError, match="not an integer"):
            dataio.read_detections(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(dataio.DETECTIONS_HEADER) + "\ncam0,0,0,1.0,2.0,3.0,inf,0.9\n"
        )
        with pytest.raises(IngestError, match="not finite"):
            dataio.read_detections(path)

    def test_degenerate_box_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(dataio.DETECTIONS_HEADER) + "\ncam0,0,0,5.0,2.0,3.0,4.0,0.9\n"
        )
        with pytest.raises(IngestError, match="degenerate box"):
            dataio.read_detections(path)

    def test_duplicate_detection_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        row = "cam0,0,0,1.0,2.0,3.0,4.0,0.9\n"
        path.write_text(",".join(dataio.DETECTIONS_HEADER) + "\n" + row + row)
        with pytest.raises(IngestError, match="duplicate"):
            dataio.read_detections(path)

    def test_six_distortion_coefficients_rejected(self, tmp_path):
        doc = [
            {
                "id": "cam0",
                "image_size": [640, 360],
                "K": [[360.0, 0.0, 320.0], [0.0, 360.0, 180.0], [0.0, 0.0, 1.0]],
                "dist": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                "rvec": [0.0, 0.0, 0.0],
                "tvec": [0.0, 0.0, 0.0],
            }
        ]
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="5 distortion coefficients"):
            dataio.read_calibration(path)

    def test_landmark_outside_frame_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text(
            ",".join(dataio.LANDMARKS_HEADER) + "\ncam0,1,700.0,100.0\n"
        )
        with pytest.raises(IngestError, match="outside"):
            dataio.read_landmarks(path, {"cam0": (640, 360)})

    def test_keypoints_need_descriptor_columns(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("camera_id,frame,detection_index,x_px,y_px\n")
        with pytest.raises(IngestError, match="descriptor"):
            dataio.read_keypoints(path)

    def test_bad_track_status_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            ",".join(dataio.TRACKS_HEADER) + "\n0,1,zombie,1.0,2.0,3.0\n"
        )
        with pytest.raises(IngestError, match="status"):
            dataio.read_tracks(path)


class TestFloatFormatting:
    def test_repr_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        detections = [
            Detection(
                camera_id="cam0", frame=0, index=i,
                x_min=float(v[0]), y_min=float(v[1]),
                x_max=float(v[0] + abs(v[2]) + 1), y_max=float(v[1] + abs(v[3]) + 1),
                confidence=float(abs(v[4]) % 1),
            )
            for i, v in enumerate(rng.normal(size=(20, 5)) * 100)
        ]
        path = tmp_path / "d.csv"
        dataio.write_detections(path, detections)
        assert dataio.read_detections(path) == detections


KEYPOINT_HEADER = "camera_id,frame,detection_index,x_px,y_px,d0,d1,d2"
KEYPOINT_ROWS = [
    "cam0,0,0,1.5,2.5,0.1,0.2,0.3",
    "cam0,0,1,3.0,4.0,-0.5,1e-3,7",
    "cam1,2,0,5.25,6.75,0.0,-0.0,2.5e10",
]


def _fast(path):
    """The fast path alone: keypoints, or None where it hands over."""
    return dataio._read_keypoints_fast(path, dataio._keypoints_descriptor_length(path))


def _strict(path):
    return dataio._read_keypoints_strict(path, dataio._keypoints_descriptor_length(path))


def _outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # compared below, whatever its type
        return None, exc


def assert_readers_agree(path):
    """read_keypoints and the strict reader give the same bits or the same error."""
    got, got_exc = _outcome(dataio.read_keypoints, path)
    expected, expected_exc = _outcome(_strict, path)
    if expected_exc is not None:
        assert got_exc is not None, f"strict reader raised {expected_exc!r}"
        assert type(got_exc) is type(expected_exc)
        assert str(got_exc) == str(expected_exc)
        assert getattr(got_exc, "line", None) == getattr(expected_exc, "line", None)
        return None
    assert got_exc is None, f"strict reader accepted, got {got_exc!r}"
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.camera_id, a.frame, a.detection_index) == (
            b.camera_id, b.frame, b.detection_index
        )
        assert type(a.frame) is int and type(a.detection_index) is int
        assert a.position.dtype == b.position.dtype == np.float64
        assert a.position.tobytes() == b.position.tobytes()
        assert a.descriptor.tobytes() == b.descriptor.tobytes()
    return got


def _write_keypoints_text(path, rows, newline="\n", header=KEYPOINT_HEADER, end=True):
    text = newline.join([header, *rows]) + (newline if end else "")
    path.write_bytes(text.encode("utf-8"))
    return path


def _with_field(row: str, column: int, text: str) -> str:
    fields = row.split(",")
    fields[column] = text
    return ",".join(fields)


MUTATED_ROWS = {
    "too_few_columns": [KEYPOINT_ROWS[0], "cam0,0,1,3.0,4.0,-0.5,1e-3"],
    "too_many_columns": [KEYPOINT_ROWS[0], "cam0,0,1,3.0,4.0,-0.5,1e-3,7,8"],
    "id_only": [KEYPOINT_ROWS[0], "cam0"],
    "nan": [_with_field(KEYPOINT_ROWS[1], 3, "nan")],
    "inf_descriptor": [KEYPOINT_ROWS[0], _with_field(KEYPOINT_ROWS[1], 6, "-inf")],
    "infinity": [_with_field(KEYPOINT_ROWS[1], 4, "Infinity")],
    "overflow_1e400": [KEYPOINT_ROWS[0], _with_field(KEYPOINT_ROWS[1], 5, "1e400")],
    "overflow_past_max": [_with_field(KEYPOINT_ROWS[1], 5, "1.7976931348623159e308")],
    "largest_finite": [_with_field(KEYPOINT_ROWS[1], 5, "1.7976931348623157e308")],
    "subnormals": [
        _with_field(_with_field(KEYPOINT_ROWS[1], 5, "5e-324"), 6,
                    "2.4703282292062328e-324"),
        _with_field(KEYPOINT_ROWS[1], 7, "1e-400"),
    ],
    "non_integer_frame": [KEYPOINT_ROWS[0], _with_field(KEYPOINT_ROWS[1], 1, "1.0")],
    "exponent_frame": [_with_field(KEYPOINT_ROWS[1], 1, "1e5")],
    "underscore_frame": [_with_field(KEYPOINT_ROWS[1], 1, "1_0")],
    "underscore_float": [_with_field(KEYPOINT_ROWS[1], 3, "1_0.5")],
    "unicode_digit_frame": [_with_field(KEYPOINT_ROWS[1], 1, "١٢")],
    "unicode_digit_float": [_with_field(KEYPOINT_ROWS[1], 4, "٣.٥")],
    "unicode_camera_id": [_with_field(KEYPOINT_ROWS[1], 0, "camé")],
    "padded_numbers": [
        _with_field(_with_field(KEYPOINT_ROWS[1], 1, " 1 "), 3, " 3.0 ")
    ],
    "signed_and_bare_point": [_with_field(
        _with_field(KEYPOINT_ROWS[1], 3, "+5"), 4, ".5")],
    "tab_padded_float": [_with_field(KEYPOINT_ROWS[1], 3, "\t3.0\t")],
    "separator_control_char": [_with_field(KEYPOINT_ROWS[1], 3, "3.0\x1c")],
    "hex_float": [_with_field(KEYPOINT_ROWS[1], 3, "0x1p3")],
    "empty_float": [_with_field(KEYPOINT_ROWS[1], 3, "")],
    "quoted_camera_id": [KEYPOINT_ROWS[0], '"cam0",0,1,3.0,4.0,-0.5,1e-3,7'],
    "quoted_comma": ['"cam,0",0,1,3.0,4.0,-0.5,1e-3,7'],
    "quoted_float": [_with_field(KEYPOINT_ROWS[1], 3, '"3.0"')],
    "hash_in_camera_id": [_with_field(KEYPOINT_ROWS[1], 0, "cam#0"), KEYPOINT_ROWS[2]],
    "whitespace_only_line": [KEYPOINT_ROWS[0], "   ", KEYPOINT_ROWS[1]],
    "blank_lines": ["", KEYPOINT_ROWS[0], "", "", KEYPOINT_ROWS[1], ""],
    "blank_lines_then_error": ["", KEYPOINT_ROWS[0], "", _with_field(
        KEYPOINT_ROWS[1], 2, "x")],
    "nul_in_float": [_with_field(KEYPOINT_ROWS[1], 3, "3.0\x00")],
    "nul_line": [KEYPOINT_ROWS[0], "\x00", KEYPOINT_ROWS[1]],
    "bare_carriage_return": [KEYPOINT_ROWS[0] + "\r" + KEYPOINT_ROWS[1]],
    "error_after_error": [
        _with_field(KEYPOINT_ROWS[0], 4, "nan"), _with_field(KEYPOINT_ROWS[1], 1, "x")
    ],
}


class TestKeypointFastPath:
    """read_keypoints must match the strict row reader bit for bit."""

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    def test_synth_bundle(self, bundle_dir, tmp_path, newline):
        out, bundle = bundle_dir
        raw = (out / "keypoints.csv").read_bytes()
        assert b"\r\n" in raw  # csv.writer's line ending
        path = tmp_path / "keypoints.csv"
        path.write_bytes(raw.replace(b"\r\n", newline.encode()))
        assert _fast(path) is not None
        loaded = assert_readers_agree(path)
        assert len(loaded) == len(bundle.keypoints)

    def test_rows_share_one_array(self, bundle_dir):
        out, _ = bundle_dir
        loaded = dataio.read_keypoints(out / "keypoints.csv")
        base = loaded[0].descriptor.base
        assert base is not None
        assert all(kp.position.base is base and kp.descriptor.base is base
                   for kp in loaded)

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("case", sorted(MUTATED_ROWS))
    def test_mutated_rows(self, tmp_path, case, newline):
        path = _write_keypoints_text(
            tmp_path / "k.csv", MUTATED_ROWS[case], newline=newline
        )
        assert_readers_agree(path)

    @pytest.mark.parametrize("case", [
        "hash_in_camera_id", "padded_numbers", "signed_and_bare_point",
        "blank_lines", "largest_finite", "subnormals",
    ])
    def test_plain_text_takes_fast_path(self, tmp_path, case):
        path = _write_keypoints_text(tmp_path / "k.csv", MUTATED_ROWS[case])
        assert _fast(path) is not None

    @pytest.mark.parametrize("case", [
        "too_many_columns", "nan", "overflow_1e400", "separator_control_char",
        "quoted_camera_id", "unicode_digit_frame", "bare_carriage_return",
        "nul_in_float", "underscore_float",
    ])
    def test_fast_path_hands_over(self, tmp_path, case):
        path = _write_keypoints_text(tmp_path / "k.csv", MUTATED_ROWS[case])
        assert _fast(path) is None

    def test_error_names_file_and_line(self, tmp_path):
        path = _write_keypoints_text(
            tmp_path / "k.csv", MUTATED_ROWS["blank_lines_then_error"]
        )
        with pytest.raises(IngestError, match=r"k\.csv:5: column 'detection_index'"):
            dataio.read_keypoints(path)

    def test_bare_carriage_return_ends_header(self, tmp_path):
        path = _write_keypoints_text(
            tmp_path / "k.csv", KEYPOINT_ROWS[1:],
            header=KEYPOINT_HEADER + "\r" + KEYPOINT_ROWS[0],
        )
        assert _fast(path) is None
        assert len(assert_readers_agree(path)) == len(KEYPOINT_ROWS)

    def test_no_trailing_newline(self, tmp_path):
        path = _write_keypoints_text(tmp_path / "k.csv", KEYPOINT_ROWS, end=False)
        assert _fast(path) is not None
        assert len(assert_readers_agree(path)) == len(KEYPOINT_ROWS)

    @pytest.mark.parametrize("end", [True, False])
    def test_header_without_body(self, tmp_path, end):
        path = _write_keypoints_text(tmp_path / "k.csv", [], end=end)
        assert assert_readers_agree(path) == []

    @settings(max_examples=200)
    @given(
        column=st.sampled_from([1, 2, 3, 4, 7]),
        text=st.text(alphabet="0123456789.eE+-_ \tinfatyINFATYx#\"\x1c١",
                     max_size=8),
    )
    def test_random_field_text(self, tmp_path_factory, column, text):
        rows = [KEYPOINT_ROWS[0], _with_field(KEYPOINT_ROWS[1], column, text)]
        path = _write_keypoints_text(tmp_path_factory.mktemp("k") / "k.csv", rows)
        assert_readers_agree(path)


# --- every table: typed-column errors and lossless round trips -------------

# reader, header, the type of each column (s text, i integer, f float), a valid row
TABLES = {
    "detections": (dataio.read_detections, dataio.DETECTIONS_HEADER, "siifffff",
                   "cam0,0,0,1.0,2.0,3.0,4.0,0.9"),
    "keypoints": (dataio.read_keypoints, KEYPOINT_HEADER.split(","), "siifffff",
                  KEYPOINT_ROWS[0]),
    "landmarks": (lambda path: dataio.read_landmarks(path, {"cam0": (640, 360)}),
                  dataio.LANDMARKS_HEADER, "siff", "cam0,1,10.0,20.0"),
    "truth": (dataio.read_truth, dataio.TRUTH_HEADER, "iifff", "0,1,1.0,2.0,3.0"),
    "match_truth": (dataio.read_match_truth, dataio.MATCH_TRUTH_HEADER, "siii",
                    "cam0,0,0,1"),
    "observations": (dataio.read_observations, dataio.OBSERVATIONS_HEADER, "iifffff",
                     "0,0,1.0,2.0,3.0,0.5,0.25"),
    "tracks": (dataio.read_tracks, dataio.TRACKS_HEADER, "iisfff",
               "0,1,tentative,1.0,2.0,3.0"),
}
BAD_VALUES = {
    "i": [("1.5", "is not an integer"), ("x", "is not an integer")],
    "f": [("x", "is not a number"), ("inf", "is not finite"), ("nan", "is not finite")],
}
BAD_CELLS = [
    (table, column, text, problem)
    for table, (_, header, kinds, _) in TABLES.items()
    for column, kind in enumerate(kinds)
    for text, problem in BAD_VALUES.get(kind, [])
]


class TestTypedColumns:
    @pytest.mark.parametrize(
        "table, column, text, problem", BAD_CELLS,
        ids=[f"{t}-{TABLES[t][1][c]}-{x}" for t, c, x, _ in BAD_CELLS],
    )
    def test_bad_value_names_file_line_and_column(
        self, tmp_path, table, column, text, problem
    ):
        read, header, _, row = TABLES[table]
        path = tmp_path / f"{table}.csv"
        path.write_text("\n".join([",".join(header), row, _with_field(row, column, text)]))
        with pytest.raises(IngestError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:3: column {header[column]!r}: {text!r} {problem}"

    def test_every_typed_column_is_covered(self):
        for table, (read, header, kinds, row) in TABLES.items():
            assert len(header) == len(kinds) == len(row.split(",")), table


def _bits(value):
    """A record of every bit of a value: floats by type and hex, arrays by
    dtype, shape and bytes, containers element by element."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, dict):
        return sorted((repr(k), _bits(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return (type(value).__name__,
                [_bits(getattr(value, name)) for name in value.__dataclass_fields__])
    return (type(value).__name__, value)


# Any finite float: signed zeros, subnormals and the extremes included.
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_INT = st.integers(-(2**70), 2**70)
# Commas, quotes and line breaks make csv quote the field.
_TEXT = st.text(alphabet='ab0 ,"\né', min_size=1, max_size=4)
_POINT = st.lists(_FLOAT, min_size=3, max_size=3).map(np.array)


def _round_trip(tmp_path_factory, write, read, value, name="table.csv"):
    path = tmp_path_factory.mktemp("rt") / name
    write(path, value)
    return read(path)


class TestRoundTripProperty:
    """Each table's ``write_*`` then ``read_*`` gives back every bit."""

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(
        st.tuples(_TEXT, _INT, _INT, st.lists(_FLOAT, min_size=2, max_size=2, unique=True),
                  st.lists(_FLOAT, min_size=2, max_size=2, unique=True), _FLOAT),
        unique_by=lambda r: r[:3], max_size=6,
    ))
    def test_detections(self, tmp_path_factory, rows):
        detections = [
            Detection(cam, frame, index, min(xs), min(ys), max(xs), max(ys), conf)
            for cam, frame, index, xs, ys, conf in rows
            if 0.0 not in (max(xs) - min(xs), max(ys) - min(ys))  # -0.0 == 0.0
        ]
        back = _round_trip(tmp_path_factory, dataio.write_detections,
                           dataio.read_detections, detections)
        expected = sorted(detections, key=lambda d: (d.camera_id, d.frame, d.index))
        assert _bits(back) == _bits(expected)

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(1, 3), data=st.data())
    def test_keypoints(self, tmp_path_factory, length, data):
        vector = st.lists(_FLOAT, min_size=length + 2, max_size=length + 2)
        # At least one row: an empty list is written without descriptor columns.
        rows = data.draw(st.lists(st.tuples(_TEXT, _INT, _INT, vector),
                                  min_size=1, max_size=6))
        keypoints = [Keypoint(cam, frame, det, v[:2], v[2:]) for cam, frame, det, v in rows]
        back = _round_trip(tmp_path_factory, dataio.write_keypoints,
                           dataio.read_keypoints, keypoints)
        expected = sorted(keypoints, key=lambda k: (
            k.camera_id, k.frame, k.detection_index, k.position[1], k.position[0]))
        assert _bits(back) == _bits(expected)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.sampled_from(["cam0", "cam,1"]), _INT,
                  st.floats(0, 640, exclude_max=True), st.floats(0, 360, exclude_max=True)),
        unique_by=lambda r: r[:2], max_size=6,
    ))
    def test_landmarks(self, tmp_path_factory, rows):
        sizes = {"cam0": (640, 360), "cam,1": (640, 360)}
        landmarks = LandmarkSet(sizes)
        for cam, gid, x, y in rows:
            try:
                landmarks.add(cam, gid, (x, y))
            except ValueError:  # coincides with an earlier landmark
                pass
        back = _round_trip(tmp_path_factory, dataio.write_landmarks,
                           lambda path: dataio.read_landmarks(path, sizes), landmarks)
        assert back.cameras() == landmarks.cameras()
        for cam in landmarks.cameras():
            assert _bits(back.entries(cam)) == _bits(landmarks.entries(cam))

    @settings(max_examples=50, deadline=None)
    @given(positions=st.dictionaries(_INT, st.dictionaries(_INT, _POINT, max_size=3),
                                     max_size=4))
    def test_truth(self, tmp_path_factory, positions):
        back = _round_trip(tmp_path_factory, dataio.write_truth, dataio.read_truth,
                           positions)
        expected = {frame: ids for frame, ids in positions.items() if ids}
        assert _bits(back) == _bits(expected)

    @settings(max_examples=50, deadline=None)
    @given(identities=st.dictionaries(st.tuples(_TEXT, _INT, _INT), _INT, max_size=6))
    def test_match_truth(self, tmp_path_factory, identities):
        back = _round_trip(tmp_path_factory, dataio.write_match_truth,
                           dataio.read_match_truth, identities)
        assert _bits(back) == _bits(identities)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(_INT, _INT, _POINT, _FLOAT, _FLOAT), max_size=6))
    def test_observations(self, tmp_path_factory, rows):
        back = _round_trip(tmp_path_factory, dataio.write_observations,
                           dataio.read_observations, rows)
        assert _bits(back) == _bits(rows)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(
        _INT, _INT, st.sampled_from(["tentative", "confirmed", "dead"]), _POINT,
    ), max_size=6))
    def test_tracks(self, tmp_path_factory, rows):
        back = _round_trip(tmp_path_factory, dataio.write_tracks, dataio.read_tracks, rows)
        assert _bits(back) == _bits(rows)

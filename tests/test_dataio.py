"""Tests for strict file ingestion and lossless round trips."""

import csv
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack import dataio
from avitrack.errors import IngestError
from avitrack.matching import DetectionTable, Keypoint, KeypointTable
from avitrack.reconstruction import ObservationTable
from avitrack.synthworld import SceneConfig, generate
from avitrack.voronoi import LandmarkSet
from dataio_reference import write_keypoints_reference
from matching_reference import DetectionRow, detection_rows, detection_table


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
        assert isinstance(loaded, DetectionTable)
        assert _bits(loaded) == _bits(detection_table(sorted(detection_rows(bundle.detections))))

    def test_keypoints(self, bundle_dir):
        out, bundle = bundle_dir
        sizes = {cid: cam.image_size for cid, cam in bundle.cameras.items()}
        loaded = dataio.read_keypoints(out / "keypoints.csv", sizes).keypoints()
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
        cameras = ("cam0", "cam1", "cam2")
        obs = {
            1: _observations(1, np.zeros((0, 3)), np.zeros((0, 3)), cameras),
            0: _observations(0, [[1.0, 2.0, 3.0]], [[0.25, np.nan, 0.75]], cameras),
        }
        dataio.write_observations(tmp_path / "o.csv", obs)
        assert (tmp_path / "o.csv").read_text().splitlines() == [
            ",".join(dataio.OBSERVATIONS_HEADER), "0,2,1.0,2.0,3.0,0.5,0.75", "1,0,,,,,",
        ]

        rows = [(0, 1, "tentative", np.array([0.1, 0.2, 0.3]))]
        dataio.write_tracks(tmp_path / "t.csv", rows)
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            ",".join(dataio.TRACKS_HEADER), "0,1,tentative,0.1,0.2,0.3",
        ]


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
            dataio.read_keypoints(path, {})


class TestFloatFormatting:
    def test_repr_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        detections = detection_table(
            DetectionRow(
                camera_id="cam0", frame=0, index=i,
                x_min=float(v[0]), y_min=float(v[1]),
                x_max=float(v[0] + abs(v[2]) + 1), y_max=float(v[1] + abs(v[3]) + 1),
                confidence=float(abs(v[4]) % 1),
            )
            for i, v in enumerate(rng.normal(size=(20, 5)) * 100)
        )
        path = tmp_path / "d.csv"
        dataio.write_detections(path, detections)
        assert _bits(dataio.read_detections(path)) == _bits(detections)


KEYPOINT_HEADER = "camera_id,frame,detection_index,x_px,y_px,d0,d1,d2"
KEYPOINT_ROWS = [
    "cam0,0,0,1.5,2.5,0.1,0.2,0.3",
    "cam0,0,1,3.0,4.0,-0.5,1e-3,7",
    "cam1,2,0,5.25,6.75,0.0,-0.0,2.5e10",
]


# Keypoints of cam0 must lie in its image; cam1 has no calibration.
KEYPOINT_SIZES = {"cam0": (640, 360)}


def _keypoint_kinds(path):
    length = dataio.keypoints_descriptor_length(path)
    return dataio.keypoints_header(length), "siiff" + "f" * length


def _fast(path):
    """The fast path alone: the columns, or None where it hands over."""
    return dataio._read_table_fast(path, *_keypoint_kinds(path))


def _strict(path):
    return dataio._read_keypoints_strict(
        path, dataio.keypoints_descriptor_length(path), KEYPOINT_SIZES
    )


def _outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # compared below, whatever its type
        return None, exc


def assert_readers_agree(path, read=None, strict=_strict):
    """A public reader (default: read_keypoints) and its strict reader give
    the same bits or the same error."""
    read = read or (lambda path: dataio.read_keypoints(path, KEYPOINT_SIZES))
    got, got_exc = _outcome(read, path)
    expected, expected_exc = _outcome(strict, path)
    if expected_exc is not None:
        assert got_exc is not None, f"strict reader raised {expected_exc!r}"
        assert type(got_exc) is type(expected_exc)
        assert str(got_exc) == str(expected_exc)
        assert getattr(got_exc, "line", None) == getattr(expected_exc, "line", None)
        return None
    assert got_exc is None, f"strict reader accepted, got {got_exc!r}"
    if isinstance(got, KeypointTable):
        assert got.xy.dtype == got.desc.dtype == np.float64
        assert _bits(got.keypoints()) == _bits(expected.keypoints())
    else:
        assert _bits(got) == _bits(expected)
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
    ],    "huge_frame": [KEYPOINT_ROWS[0], _with_field(KEYPOINT_ROWS[1], 1, str(2**70))],
    "int64_limits": [_with_field(_with_field(KEYPOINT_ROWS[1], 1, str(2**63 - 1)), 2,
                                 str(-(2**63)))],
    "past_int64": [_with_field(KEYPOINT_ROWS[1], 2, str(-(2**63) - 1))],
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
        loaded = dataio.read_keypoints(out / "keypoints.csv", {}).keypoints()
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
            dataio.read_keypoints(path, {})

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
        assert len(assert_readers_agree(path)) == 0

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


class TestKeypointsInsideTheImage:
    """A keypoint of a calibrated camera lies in [0, w) x [0, h); both
    readers raise the same error at its line."""

    @pytest.mark.parametrize("x, y", [
        ("640.0", "4.0"), ("3.0", "360"), ("-1e-300", "4.0"), ("3.0", "-0.5"),
        ("1e200", "4.0"), ("3.0", "-1e200"),
    ])
    def test_outside_is_an_error(self, tmp_path, x, y):
        bad = _with_field(_with_field(KEYPOINT_ROWS[1], 3, x), 4, y)
        path = _write_keypoints_text(tmp_path / "k.csv", [KEYPOINT_ROWS[0], bad])
        assert _fast(path) is not None
        assert assert_readers_agree(path) is None
        with pytest.raises(IngestError) as exc:
            dataio.read_keypoints(path, KEYPOINT_SIZES)
        assert str(exc.value) == (
            f"{path}:3: keypoint at ({float(x)!r}, {float(y)!r}) outside camera cam0 "
            "frame 640x360"
        )

    @pytest.mark.parametrize("x, y", [("0.0", "0.0"), ("-0.0", "-0.0"),
                                      ("639.9999999999999", "359.99999999999994")])
    def test_edges_inside(self, tmp_path, x, y):
        row = _with_field(_with_field(KEYPOINT_ROWS[1], 3, x), 4, y)
        path = _write_keypoints_text(tmp_path / "k.csv", [row])
        assert len(assert_readers_agree(path)) == 1

    def test_uncalibrated_camera_is_not_checked(self, tmp_path):
        far = _with_field(_with_field(KEYPOINT_ROWS[2], 3, "-1e200"), 4, "1e200")
        path = _write_keypoints_text(tmp_path / "k.csv", [KEYPOINT_ROWS[0], far])
        table = assert_readers_agree(path)
        assert table.xy[1].tolist() == [-1e200, 1e200]
        assert len(dataio.read_keypoints(path, {})) == 2


def _mutations(rows: list[str], int_column: int, float_column: int | None) -> dict:
    """Text cases built from valid ``rows``: ``rows[1]`` holds an integer
    at ``int_column`` and, unless None, a float at ``float_column``."""
    first, second = rows[:2]
    cases = {
        "valid": rows,
        "too_few_columns": [first, second.rsplit(",", 1)[0]],
        "too_many_columns": [first, second + ",7"],
        "id_only": [first, "cam0"],
        "whitespace_only_line": [first, "   ", second],
        "blank_lines": ["", first, "", "", second, ""],
        "bare_carriage_return": [first + "\r" + second],
        "nul_line": [first, "\x00", second],
        "quoted_camera_id": [first, '"cam0"' + second[len("cam0"):]],
        "hash_in_camera_id": [first, _with_field(second, 0, "cam#0")],
        "unicode_camera_id": [_with_field(second, 0, "camé")],
        "empty_camera_id": [_with_field(second, 0, "")],
        "duplicate_row": [first, second, second],
        "error_after_error": [_with_field(first, int_column, "x"), second + ",7"],
    }
    for name, text in (("non_integer", "1.0"), ("exponent", "1e5"), ("underscore", "1_0"),
                       ("unicode_digit", "١٢"), ("padded", " 1 "), ("signed", "+5"),
                       ("huge", str(2**70)), ("int64_max", str(2**63 - 1)),
                       ("past_int64", str(-(2**63) - 1)), ("empty", "")):
        cases[f"{name}_int"] = [first, _with_field(second, int_column, text)]
    if float_column is not None:
        for name, text in (("nan", "nan"), ("inf", "-inf"), ("overflow", "1e400"),
                           ("subnormal", "5e-324"), ("largest", "1.7976931348623157e308"),
                           ("empty", ""), ("underscore", "1_0.5"), ("padded", " 3.0 "),
                           ("bare_point", ".5"), ("hex", "0x1p3")):
            cases[f"{name}_float"] = [first, _with_field(second, float_column, text)]
    return cases


DETECTION_ROWS = [
    "cam0,0,0,1.5,2.5,3.5,4.5,0.9",
    "cam0,0,1,3.0,4.0,5.0,6.0,1e-3",
    "cam1,2,0,5.25,6.75,7.0,8.0,0.5",
]
MATCH_TRUTH_ROWS = ["cam0,0,0,1", "cam0,0,1,2", "cam1,2,0,1"]
FAST_TABLES = {
    "detections": (dataio.read_detections, dataio._read_detections_strict,
                   dataio.DETECTIONS_HEADER, {
                       **_mutations(DETECTION_ROWS, 2, 3),
                       "degenerate_box": [DETECTION_ROWS[0],
                                          _with_field(DETECTION_ROWS[1], 5, "3.0")],
                       "zero_height": [_with_field(DETECTION_ROWS[1], 6, "4.0")],
                       "same_key_other_box": [DETECTION_ROWS[0], _with_field(
                           DETECTION_ROWS[0], 3, "0.5")],
                   }),
    "match_truth": (dataio.read_match_truth, dataio._read_match_truth_strict,
                    dataio.MATCH_TRUTH_HEADER, {
                        **_mutations(MATCH_TRUTH_ROWS, 3, None),
                        "same_key_other_identity": [MATCH_TRUTH_ROWS[0], _with_field(
                            MATCH_TRUTH_ROWS[0], 3, "9")],
                    }),
}
FAST_CASES = [(table, case) for table, spec in FAST_TABLES.items() for case in sorted(spec[3])]


class TestDetectionAndLabelFastPath:
    """read_detections and read_match_truth match their strict row readers:
    the same bits, or the same error type, message and line."""

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("table, case", FAST_CASES,
                             ids=[f"{t}-{c}" for t, c in FAST_CASES])
    def test_mutated_rows(self, tmp_path, table, case, newline):
        read, strict, header, cases = FAST_TABLES[table]
        path = _write_keypoints_text(tmp_path / f"{table}.csv", cases[case],
                                     newline=newline, header=",".join(header))
        assert_readers_agree(path, read, strict)

    @pytest.mark.parametrize("table", sorted(FAST_TABLES))
    def test_valid_rows_take_the_fast_path(self, tmp_path, table):
        read, strict, header, cases = FAST_TABLES[table]
        path = _write_keypoints_text(tmp_path / "t.csv", cases["valid"],
                                     header=",".join(header))
        kinds = "siifffff" if table == "detections" else "siii"
        assert dataio._read_table_fast(path, header, kinds) is not None
        assert len(assert_readers_agree(path, read, strict)) == 3

    @pytest.mark.parametrize("table", sorted(FAST_TABLES))
    def test_synth_bundle(self, bundle_dir, table):
        out, _ = bundle_dir
        read, strict, _, _ = FAST_TABLES[table]
        assert len(assert_readers_agree(out / f"{table}.csv", read, strict)) > 0

    @settings(max_examples=100)
    @given(
        table=st.sampled_from(sorted(FAST_TABLES)),
        column=st.integers(0, 7),
        text=st.text(alphabet="0123456789.eE+-_ \tinfatyINFATYx#\"\x1c١",
                     max_size=8),
    )
    def test_random_field_text(self, tmp_path_factory, table, column, text):
        read, strict, header, cases = FAST_TABLES[table]
        rows = cases["valid"]
        rows = [rows[0], _with_field(rows[1], column % len(header), text)]
        path = _write_keypoints_text(tmp_path_factory.mktemp("t") / "t.csv", rows,
                                     header=",".join(header))
        assert_readers_agree(path, read, strict)


# --- every table: typed-column errors and lossless round trips -------------

# reader, header, the type of each column (s text, i integer, f float), a valid row
TABLES = {
    "detections": (dataio.read_detections, dataio.DETECTIONS_HEADER, "siifffff",
                   "cam0,0,0,1.0,2.0,3.0,4.0,0.9"),
    "keypoints": (lambda path: dataio.read_keypoints(path, {}),
                  KEYPOINT_HEADER.split(","), "siifffff",
                  KEYPOINT_ROWS[0]),
    "landmarks": (lambda path: dataio.read_landmarks(path, {"cam0": (640, 360)}),
                  dataio.LANDMARKS_HEADER, "siff", "cam0,1,10.0,20.0"),
    "truth": (dataio.read_truth, dataio.TRUTH_HEADER, "iifff", "0,1,1.0,2.0,3.0"),
    "match_truth": (dataio.read_match_truth, dataio.MATCH_TRUTH_HEADER, "siii",
                    "cam0,0,0,1"),
}
BAD_VALUES = {
    "i": [("1.5", "is not an integer"), ("x", "is not an integer"),
          (str(2**63), "is outside int64"), (str(-(2**63) - 1), "is outside int64")],
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
    if isinstance(value, np.ndarray) and value.dtype == object:  # values, not addresses
        return ("array", value.dtype.str, value.shape, _bits(value.tolist()))
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
_INT = st.integers(-(2**63), 2**63 - 1)
# Commas, quotes and line breaks make csv quote the field.
_TEXT = st.text(alphabet='ab0 ,"\né', min_size=1, max_size=4)
_POINT = st.lists(_FLOAT, min_size=3, max_size=3).map(np.array)
# A reprojection error: a distance, so never negative or -0.0.
_ERROR = st.floats(min_value=0.0, allow_infinity=False)


def _observations(frame, positions, errors, cameras) -> ObservationTable:
    """An ``ObservationTable`` of one frame."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    return ObservationTable(np.full(len(positions), frame, dtype=np.int64), positions,
                            np.asarray(errors, dtype=float).reshape(len(positions), len(cameras)),
                            tuple(cameras))


def _read_csv(path) -> list[list[str]]:
    """Every row of a CSV file, header included, as ``csv`` splits it."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
            DetectionRow(cam, frame, index, min(xs), min(ys), max(xs), max(ys), conf)
            for cam, frame, index, xs, ys, conf in rows
            if 0.0 not in (max(xs) - min(xs), max(ys) - min(ys))  # -0.0 == 0.0
        ]
        back = _round_trip(tmp_path_factory, dataio.write_detections,
                           dataio.read_detections, detection_table(detections))
        expected = sorted(detections, key=lambda d: (d.camera_id, d.frame, d.index))
        assert _bits(back) == _bits(detection_table(expected))

    @settings(max_examples=50, deadline=None)
    @given(length=st.integers(1, 3), data=st.data())
    def test_keypoints(self, tmp_path_factory, length, data):
        vector = st.lists(_FLOAT, min_size=length + 2, max_size=length + 2)
        rows = data.draw(st.lists(st.tuples(_TEXT, _INT, _INT, vector),
                                  min_size=0, max_size=6))
        keypoints = [Keypoint(cam, frame, det, v[:2], v[2:]) for cam, frame, det, v in rows]
        back = _round_trip(tmp_path_factory,
                           lambda path, kps: dataio.write_keypoints(
                               path, _table(kps, length), length),
                           lambda path: dataio.read_keypoints(path, {}).keypoints(),
                           keypoints)
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
    @given(tables=st.dictionaries(_INT, st.lists(st.tuples(_POINT, _ERROR), max_size=3),
                                  max_size=4))
    def test_observations(self, tmp_path_factory, tables):
        """Frames and positions come back bit for bit, the one error as
        both the mean and the max; a frame without rows has one empty row."""
        observations = {
            frame: _observations(frame, [p for p, _ in rows], [[e] for _, e in rows], ("cam0",))
            for frame, rows in tables.items()
        }
        back = _round_trip(tmp_path_factory, dataio.write_observations, _read_csv, observations)
        assert back[0] == dataio.OBSERVATIONS_HEADER
        parsed = [
            (int(frame), int(n_cameras),
             None if x == "" else np.array([float(x), float(y), float(z)]),
             *(None if cell == "" else float(cell) for cell in (mean_err, max_err)))
            for frame, n_cameras, x, y, z, mean_err, max_err in back[1:]
        ]
        expected = [
            row for frame in sorted(tables)
            for row in [(frame, 1, p, e, e) for p, e in tables[frame]]
            or [(frame, 0, None, None, None)]
        ]
        assert _bits(parsed) == _bits(expected)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(
        _INT, _INT, st.sampled_from(["tentative", "confirmed", "dead"]), _POINT,
    ), max_size=6))
    def test_tracks(self, tmp_path_factory, rows):
        back = _round_trip(tmp_path_factory, dataio.write_tracks, _read_csv, rows)
        assert back[0] == dataio.TRACKS_HEADER
        parsed = [
            (int(frame), int(track_id), status, np.array([float(v) for v in position]))
            for frame, track_id, status, *position in back[1:]
        ]
        assert _bits(parsed) == _bits(rows)


def _table(keypoints: list[Keypoint], length: int) -> KeypointTable:
    """The keypoints as a table."""
    n = len(keypoints)
    return KeypointTable(
        np.array([kp.camera_id for kp in keypoints], dtype=object),
        np.array([kp.frame for kp in keypoints], dtype=np.int64),
        np.array([kp.detection_index for kp in keypoints], dtype=np.int64),
        np.array([kp.position for kp in keypoints], dtype=float).reshape(n, 2),
        np.array([kp.descriptor for kp in keypoints], dtype=float).reshape(n, length),
    )


def _micro(k: int) -> float:
    return k / 1e6


# Quantised cells as the generator writes them, the zeros, values below
# 1e-4 (``repr`` writes ``1e-05``), the 10**15 bound on either side and
# whole numbers of up to 18 digits, next to any float at all.
_DESCRIPTOR_VALUE = st.one_of(
    st.integers(-(10**9), 10**9).map(_micro),
    st.integers(-99, 99).map(_micro),
    st.sampled_from([0.0, -0.0, 100 / 1e6, -100 / 1e6, (10**15 - 1) / 1e6,
                     -(10**15 - 1) / 1e6, 10**15 / 1e6, (10**15 + 1) / 1e6,
                     1e16, 123456789.0, float("inf"), float("-inf"), float("nan")]),
    st.integers(-(10**18), 10**18).map(_micro),
    _FLOAT,
)
# Few values, so rows tie on every sort key.
_POSITION = st.one_of(st.sampled_from([0.0, -0.0, 1.5, 2.0]), _FLOAT)
_SMALL_INT = st.one_of(st.integers(-1, 2), _INT)
_CAMERA = st.sampled_from(["cam0", "cam1", "a,b", 'q"t', "n\nl", "r\rl", "é", ""])


class TestWriteKeypointsMatchesReference:
    """The block writer writes exactly the bytes of the per-object writer."""

    @settings(max_examples=300, deadline=None)
    @given(length=st.integers(1, 5), block=st.integers(1, 40), data=st.data())
    def test_random_tables(self, tmp_path_factory, length, block, data):
        rows = data.draw(st.lists(
            st.tuples(_CAMERA, _SMALL_INT, _SMALL_INT, _POSITION, _POSITION,
                      st.lists(_DESCRIPTOR_VALUE, min_size=length, max_size=length)),
            max_size=12,
        ))
        keypoints = [Keypoint(cam, frame, det, [x, y], desc)
                     for cam, frame, det, x, y, desc in rows]
        directory = tmp_path_factory.mktemp("kp")
        write_keypoints_reference(directory / "reference.csv", keypoints, length)
        with patch.object(dataio, "_FORMAT_BLOCK_CELLS", block):
            dataio.write_keypoints(directory / "table.csv",
                                   _table(keypoints, length), length)
        assert ((directory / "table.csv").read_bytes()
                == (directory / "reference.csv").read_bytes())

    def test_cells_formatted_from_micros_are_repr(self, tmp_path):
        """Every cell shape of the integer path next to the repr fallback:
        signs, 1-9 integer digits, 1-6 fraction digits and the bounds."""
        values = [0.0, -0.0, 1e-4, -1e-4, 9.9e-05, 0.5, -0.000101, 1.000001, 10.25,
                  -123.4, 999999999.999999, 1e9 - 1, 42.0, 1e-05, 0.1 + 0.2, 3e15]
        keypoints = [Keypoint("cam0", 0, i, [0.0, float(i)], [v, -v])
                     for i, v in enumerate(values)]
        dataio.write_keypoints(tmp_path / "table.csv", _table(keypoints, 2), 2)
        lines = (tmp_path / "table.csv").read_bytes().split(b"\r\n")
        assert lines[1:-1] == [f"cam0,0,{i},0.0,{float(i)!r},{v!r},{-v!r}".encode()
                               for i, v in enumerate(values)]
        assert lines[-1] == b""


def _observation_lines_reference(observations: dict) -> list[str]:
    """``observations.csv`` line by line, each row's cells added one
    Python float at a time, left to right in column order (not with
    ``sum``, which compensates from Python 3.12 on)."""
    lines = [",".join(dataio.OBSERVATIONS_HEADER)]
    for frame in sorted(observations):
        table = observations[frame]
        if not len(table):
            lines.append(f"{frame},0,,,,,")
        for position, errors in zip(table.position.tolist(), table.errors.tolist()):
            present = [error for error in errors if not np.isnan(error)]
            total = 0.0
            for error in present:
                total += error
            cells = [repr(total / len(present)), repr(max(present))] if present else ["", ""]
            lines.append(",".join([str(frame), str(len(present)), *map(repr, position), *cells]))
    return lines


@st.composite
def _observation_frames(draw):
    """Stepped frames of a 2-12 camera rig, each with 0-3 rows that hold 0
    to C non-NaN error cells, spread over several orders of magnitude so
    the order of summation shows in the last bits."""
    cameras = tuple(f"cam{i}" for i in range(draw(st.integers(2, 12))))
    observations = {}
    for frame in draw(st.lists(st.integers(0, 50), unique=True, max_size=4)):
        rows = draw(st.integers(0, 3))
        errors = np.full((rows, len(cameras)), np.nan)
        for row in range(rows):
            present = draw(st.lists(st.sampled_from(range(len(cameras))), unique=True))
            errors[row, present] = draw(st.lists(
                st.one_of(_ERROR, st.floats(0.0, 1.0), st.floats(1e3, 1e6)),
                min_size=len(present), max_size=len(present)))
        positions = draw(st.lists(_POINT, min_size=rows, max_size=rows))
        observations[frame] = _observations(frame, positions, errors, cameras)
    return observations


class TestObservationCells:
    """``write_observations`` against a Python left-to-right reference."""

    @settings(max_examples=200, deadline=None)
    @given(observations=_observation_frames())
    def test_matches_left_to_right_reference(self, tmp_path_factory, observations):
        path = tmp_path_factory.mktemp("obs") / "observations.csv"
        dataio.write_observations(path, observations)
        assert path.read_text().splitlines() == _observation_lines_reference(observations)

    def test_nine_cells_sum_left_to_right(self):
        """A numpy row sum of these nine cells is pairwise, and Python 3.12's
        ``sum`` compensated: both end in other bits than one addition at a
        time, left to right, which the written mean keeps."""
        errors = 0.1 * np.arange(1, 10)
        total = 0.0
        for error in errors.tolist():
            total += error
        assert total == 4.500000000000001 and np.add.reduce(errors) != total
        [(n_cameras, mean, worst)] = dataio.observation_cells(errors[None])
        assert (n_cameras, mean, worst) == (9, total / 9, 0.9)

    def test_empty_rows_and_frames(self, tmp_path):
        """A row whose every cell is NaN keeps its position and has empty
        error cells; a frame without rows is one row ``frame,0,,,,,``."""
        cameras = [f"cam{i}" for i in range(9)]
        observations = {
            4: _observations(4, [[1.5, 2.0, 0.5]], np.full((1, 9), np.nan), cameras),
            7: _observations(7, np.zeros((0, 3)), np.zeros((0, 9)), cameras),
        }
        dataio.write_observations(tmp_path / "o.csv", observations)
        assert (tmp_path / "o.csv").read_text().splitlines()[1:] == [
            "4,0,1.5,2.0,0.5,,", "7,0,,,,,",
        ]

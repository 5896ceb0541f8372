"""End-to-end CLI tests: synth, run, its one set of outputs, and error reporting."""

import argparse
import csv
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from avitrack import dataio, pipeline
from avitrack.cli import build_parser, main, pipeline_config
from avitrack.mask import GrayFrame, read_pgm, write_pgm
from avitrack.pipeline import PipelineConfig, run_pipeline
from avitrack.synthworld import SceneConfig, generate
from avitrack.tracking import render_trajectories, run_tracker

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_bundle(tmp_path):
    bundle_dir = tmp_path / "bundle"
    code = main(
        [
            "synth", "--out", str(bundle_dir),
            "--seed", "3", "--birds", "3", "--cameras", "3",
            "--duration", "0.5", "--descriptor-length", "12",
            "--image-size", "640x360",
        ]
    )
    assert code == 0
    return bundle_dir


@pytest.fixture(scope="module")
def masked_bundle(tmp_path_factory):
    """A small 5-camera scene with frames, for ``--use-mask`` runs."""
    bundle_dir = tmp_path_factory.mktemp("masked")
    generate(SceneConfig(seed=42, bird_count=5, duration_s=0.3, image_size=(320, 180),
                         emit_frames=True)).write(bundle_dir)
    return bundle_dir


@pytest.fixture(scope="module")
def quickstart_bundle(tmp_path_factory):
    """The README quickstart scene, cut to 0.5 s."""
    bundle_dir = tmp_path_factory.mktemp("quickstart")
    generate(SceneConfig(seed=42, bird_count=5, duration_s=0.5)).write(bundle_dir)
    return bundle_dir


class TestSynth:
    def test_bundle_files_present(self, small_bundle):
        for name in (
            "calibration.json", "detections.csv", "keypoints.csv",
            "landmarks.csv", "truth.csv", "match_truth.csv",
        ):
            assert (small_bundle / name).exists()

    def test_same_seed_same_bytes(self, tmp_path):
        args = [
            "synth", "--seed", "9", "--birds", "2", "--cameras", "2",
            "--duration", "0.3", "--descriptor-length", "8",
            "--image-size", "640x360",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("detections.csv", "keypoints.csv", "calibration.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


    @pytest.mark.parametrize("argv, message", [
        (["--duration", "nan"], "duration_s must be finite, got nan"),
        (["--descriptor-noise", "inf"], "descriptor_noise must be finite, got inf"),
        (["--pixel-noise", "nan"], "pixel_noise must be finite, got nan"),
        (["--focal", "inf"], "focal_px must be finite, got inf"),
        (["--image-size", "0x0"], "image_size must be positive, got (0, 0)"),
        (["--focal", "-500"], "focal_px must be positive, got -500.0"),
        (["--descriptor-length", "0"], "descriptor_length must be at least 1, got 0"),
    ], ids=["duration-nan", "descriptor-noise-inf", "pixel-noise-nan", "focal-inf",
            "image-size-zero", "focal-negative", "descriptor-length-zero"])
    def test_setting_out_of_range_fails_before_any_output(self, tmp_path, capsys, argv,
                                                          message):
        out = tmp_path / "bundle"
        assert main(["synth", "--out", str(out), "--duration", "0.2", *argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_duration_of_no_frame_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["synth", "--out", str(out), "--duration", "0.01"]) == 2
        assert "error: duration_s 0.01 at fps 30.0 gives no frame" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_full_pipeline_outputs(self, small_bundle, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--input", str(small_bundle), "--out", str(out)])
        assert code == 0
        assert (out / "tracks.csv").exists()
        assert (out / "observations.csv").exists()
        assert (out / "trajectories.svg").exists()
        assert (out / "correspondences.csv").exists()
        for camera_id in ("cam0", "cam1", "cam2"):
            assert (out / f"voronoi_{camera_id}.svg").exists()
        report = json.loads((out / "metrics.json").read_text())
        assert report["schema_version"] == 2
        assert "table2" in report and "table5" in report

    @pytest.mark.parametrize("case", ["quickstart", "one-pair", "masked", "no-keypoints"])
    def test_run_writes_one_set_of_files(self, quickstart_bundle, masked_bundle, tmp_path,
                                         case):
        """``run`` has one path: every run writes the same files, one
        Voronoi overlay per camera with landmarks."""
        bundle = masked_bundle if case == "masked" else quickstart_bundle
        flags = {"one-pair": ["--pair", "cam0,cam1"], "masked": ["--use-mask"]}.get(case, [])
        if case == "no-keypoints":
            keypoints = tmp_path / "keypoints.csv"
            keypoints.write_text((bundle / "keypoints.csv").read_text().splitlines()[0] + "\n")
            flags = ["--keypoints", str(keypoints)]
        out = tmp_path / "out"
        assert main(["run", "--input", str(bundle), "--out", str(out), *flags]) == 0
        with open(bundle / "landmarks.csv", newline="") as fh:
            cameras = {row[0] for row in list(csv.reader(fh))[1:]}
        assert sorted(path.name for path in out.iterdir()) == sorted([
            "correspondences.csv", "metrics.json", "observations.csv", "tracks.csv",
            "trajectories.svg", *(f"voronoi_{camera}.svg" for camera in cameras),
        ])

    def test_missing_calibration_fails_with_path(self, small_bundle, tmp_path, capsys):
        code = main(
            [
                "run",
                "--detections", str(small_bundle / "detections.csv"),
                "--keypoints", str(small_bundle / "keypoints.csv"),
                "--landmarks", str(small_bundle / "landmarks.csv"),
                "--calibration", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "missing.json" in err

    def test_a_frame_beyond_int64_fails_before_any_output(self, small_bundle, tmp_path, capsys):
        """Detection (cam0, 0, 0) and its keypoints moved to frame 2**70: an
        input error, not a crash after the overlays are written."""
        huge = str(2**70)
        for name in ("detections.csv", "keypoints.csv"):
            path = small_bundle / name
            text = path.read_text()
            assert "\ncam0,0,0," in text
            path.write_text(text.replace("\ncam0,0,0,", f"\ncam0,{huge},0,"))
        out = tmp_path / "out"
        assert main(["run", "--input", str(small_bundle), "--out", str(out)]) == 2
        assert (f"error: {small_bundle / 'detections.csv'}:2: column 'frame': '{huge}' "
                "is outside int64") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("camera, field, edit", [
        ("cam0", "tvec", lambda entry: entry["tvec"].__setitem__(2, float("nan"))),
        ("cam3", "dist", lambda entry: entry["dist"].__setitem__(0, float("nan"))),
        ("cam2", "K", lambda entry: entry["K"][0].__setitem__(0, float("inf"))),
        ("cam1", "rvec", lambda entry: entry["rvec"].__setitem__(1, float("nan"))),
        ("cam4", "image_size", lambda entry: entry["image_size"].__setitem__(0, 320.9)),
    ], ids=["nan-tvec", "nan-dist", "infinite-k", "nan-rvec", "fractional-width"])
    def test_a_non_finite_or_fractional_calibration_fails_before_any_output(
        self, masked_bundle, tmp_path, capsys, camera, field, edit
    ):
        """JSON reads NaN and Infinity: a camera holding one, or a
        fractional image size, is an input error, not a crash or a
        truncated size after the overlays are written."""
        doc = json.loads((masked_bundle / "calibration.json").read_text())
        edit(next(entry for entry in doc if entry["id"] == camera))
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--calibration", str(calibration),
                     "--use-mask", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {calibration}: camera {camera}: {field} " in err
        assert not out.exists()

    def test_explicit_pair_selection(self, small_bundle, tmp_path):
        out = tmp_path / "paired"
        code = main(
            [
                "run", "--input", str(small_bundle), "--out", str(out),
                "--pair", "cam0,cam1",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("pairs", [["cam0"], ["cam1,cam1"], ["cam0,cam1", "cam1,cam0"],
                                       ["cam0,cam9"]],
                             ids=["one-camera", "same-camera-twice", "repeated-pair",
                                  "unknown-camera"])
    def test_bad_pair_spec_fails(self, small_bundle, tmp_path, capsys, monkeypatch, pairs):
        """A pair of one camera, or a pair given twice in either order, would
        fail in triangulation or count its matches twice; a camera outside
        the calibration fails before any overlay is written."""
        monkeypatch.setattr(pipeline, "_process_frame", None)
        code = main(["run", "--input", str(small_bundle), "--out", str(tmp_path / "out"),
                     *[arg for pair in pairs for arg in ("--pair", pair)]])
        assert code == 2
        assert "error: camera_pairs must be CAMA,CAMB pairs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _landmarks_without(bundle, camera_id, path):
        lines = (bundle / "landmarks.csv").read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(camera_id + ",")))
        return path

    def test_a_camera_without_landmarks_fails_before_any_output(
        self, small_bundle, tmp_path, capsys, monkeypatch
    ):
        """Checked before any frame is processed, so it fails even when no
        candidate match would have reached the camera."""
        monkeypatch.setattr(pipeline, "_process_frame", None)
        landmarks = self._landmarks_without(small_bundle, "cam2", tmp_path / "lm.csv")
        out = tmp_path / "out"
        code = main(["run", "--input", str(small_bundle), "--landmarks", str(landmarks),
                     "--out", str(out)])
        assert code == 2
        assert (f"error: {landmarks}: no landmarks registered for camera 'cam2'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_pairs_of_cameras_with_landmarks_run_without_the_others(
        self, small_bundle, tmp_path
    ):
        landmarks = self._landmarks_without(small_bundle, "cam2", tmp_path / "lm.csv")
        out = tmp_path / "out"
        assert main(["run", "--input", str(small_bundle), "--landmarks", str(landmarks),
                     "--out", str(out), "--pair", "cam0,cam1"]) == 0
        assert (out / "tracks.csv").exists()
        assert sorted(path.name for path in out.glob("voronoi_*.svg")) == [
            "voronoi_cam0.svg", "voronoi_cam1.svg"]

    @pytest.mark.parametrize("argv", [
        ["match"], ["reconstruct"], ["overlay"], ["run", "--stage", "track"],
        ["mask"], ["track"], ["eval"],
    ], ids=["match", "reconstruct", "overlay", "stage-track", "mask-command",
            "track-command", "eval-command"])
    def test_stage_aliases_are_invalid_choices(self, tmp_path, capsys, argv):
        """``synth`` and ``run`` are the only commands, and ``run`` has no
        ``--stage``: it always runs every stage."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(tmp_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        expected = ("unrecognized arguments: --stage track" if argv[0] == "run"
                    else f"invalid choice: '{argv[-1]}'")
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"fps": "30"}, "config key 'fps': expected float, got '30'"),
        ({"max_misses": 2.5}, "config key 'max_misses': expected int, got 2.5"),
        *[({"camera_pairs": pairs}, "config key 'camera_pairs': expected null or a list "
           f"of [CAMA, CAMB] pairs of strings, got {pairs!r}")
          for pairs in ([5], [["cam0", 1]], ["cam0,cam1"])],
        ({"aviary_size": ["a", 1, 2]},
         "config key 'aviary_size': expected a list of numbers, got ['a', 1, 2]"),
        ({"aviary_size": [float("nan"), 3.4, 2]},
         "config key 'aviary_size': expected a list of numbers, got [nan, 3.4, 2]"),
        ({"gate_m": 10**400}, f"config key 'gate_m': expected float, got {10**400!r}"),
    ])
    def test_config_value_of_the_wrong_type_fails(
        self, small_bundle, tmp_path, capsys, doc, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["run", "--input", str(small_bundle), "--out", str(out),
                     "--config", str(config)])
        assert code == 2
        assert f"error: {config}: {message}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, doc, message", [
        (["--use-mask"], {}, "use_mask must be false when frames_dir is unset, got True"),
        *[(["--validate-bounds"], {"aviary_size": size},
           f"aviary_size must be three finite positive sizes in meters, got {size!r}")
          for size in ([4.0], [-1, 3.4, 2])],
        *[([flag, value], {}, f"{name} must be a finite number, got {float(value)!r}")
          for flag, value, name in (
              ("--fps", "inf", "fps"), ("--jerk-sigma", "nan", "jerk_sigma"),
              ("--gate", "inf", "gate_m"), ("--fuse-radius", "inf", "fuse_radius_m"),
              ("--reproj-threshold", "inf", "reproj_threshold_px"))],
        (["--jerk-sigma", "-5"], {}, "jerk_sigma must be >= 0, got -5.0"),
        (["--meas-sigma", "0"], {}, "meas_sigma_m must be > 0, got 0.0"),
    ], ids=["use-mask-without-frames", "aviary-one-size", "aviary-negative", "fps-inf",
            "jerk-sigma-nan", "gate-inf", "fuse-radius-inf", "reproj-threshold-inf",
            "jerk-sigma-negative", "meas-sigma-zero"])
    def test_setting_out_of_range_fails_before_any_output(
        self, small_bundle, tmp_path, capsys, monkeypatch, argv, doc, message
    ):
        """``small_bundle`` has no frames; a bad setting writes no overlay."""
        monkeypatch.setattr(pipeline, "_process_frame", None)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["run", "--input", str(small_bundle), "--out", str(out),
                     "--config", str(config), *argv])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestStandaloneCommands:
    """``run`` end to end on small bundles of its own, with and without
    ``--use-mask``."""

    TUNED_FLAGS = ["--confirm-hits", "5", "--max-misses", "4", "--jerk-sigma", "12"]

    @pytest.fixture(scope="class")
    def sparse_bundle(self, tmp_path_factory):
        """One bird seen by two cameras: with ``--validate-bounds``, 17 of
        its 60 frames have no observation."""
        bundle = tmp_path_factory.mktemp("sparse") / "bundle"
        assert main(["synth", "--out", str(bundle), "--seed", "3", "--birds", "1",
                     "--cameras", "2", "--duration", "2", "--descriptor-length", "8"]) == 0
        return bundle

    @pytest.mark.parametrize("tracker_flags", [[], TUNED_FLAGS], ids=["defaults", "tuned"])
    def test_track_equals_run_over_frames_without_observations(
        self, sparse_bundle, tmp_path, tracker_flags
    ):
        """Each frame ``run`` steps has a row in observations.csv, so
        tracking its positions, frame by frame, misses the same frames and
        coasts the same tracks as the run."""
        flags = ["--input", str(sparse_bundle), "--validate-bounds", *tracker_flags]
        full = tmp_path / "full"
        assert main(["run", "--out", str(full), *flags]) == 0
        with open(full / "observations.csv", newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        empty = [row for row in cells if row[1:] == ["0", "", "", "", "", ""]]
        assert len(empty) == 17 and len({row[0] for row in cells}) == 60
        by_frame: dict[int, list[np.ndarray]] = {}
        for row in cells:
            positions = by_frame.setdefault(int(row[0]), [])
            if row[2] != "":
                positions.append(np.array([float(v) for v in row[2:5]]))
        tracked = tmp_path / "tracked"
        tracked.mkdir()
        config = pipeline_config(build_parser().parse_args(
            ["run", "--out", str(tracked), *flags]))
        track_rows = run_tracker(by_frame, config.tracker_config())
        dataio.write_tracks(tracked / "tracks.csv", track_rows)
        (tracked / "trajectories.svg").write_text(render_trajectories(track_rows))
        for name in ("tracks.csv", "trajectories.svg"):
            assert (tracked / name).read_bytes() == (full / name).read_bytes(), name

    def test_table4_does_not_need_observations(self, tmp_path):
        """table4 reprojects the kept keypoint pairs, not the observations:
        bounds that drop every observation leave it as it is."""
        bundle = tmp_path / "bundle"
        assert main(["synth", "--out", str(bundle), "--seed", "3", "--birds", "3",
                     "--cameras", "3", "--duration", "0.5", "--descriptor-length", "8"]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aviary_size": [0.01, 0.01, 0.01]}))
        table4 = {}
        for name, flags in (("bounded", ["--validate-bounds"]), ("unbounded", [])):
            out = tmp_path / name
            assert main(["run", "--input", str(bundle), "--out", str(out),
                         "--config", str(config), *flags]) == 0
            table4[name] = json.loads((out / "metrics.json").read_text()).get("table4")
        with open(tmp_path / "bounded" / "observations.csv", newline="") as fh:
            assert all(row[2] == "" for row in list(csv.reader(fh))[1:])
        assert table4["unbounded"]["total_keypoints"] == 294
        assert table4["bounded"] == table4["unbounded"]

    @pytest.fixture
    def masked_bundle(self, tmp_path):
        bundle_dir = tmp_path / "masked_bundle"
        code = main(
            [
                "synth", "--out", str(bundle_dir), "--seed", "4",
                "--birds", "2", "--cameras", "2", "--duration", "0.2",
                "--descriptor-length", "8", "--image-size", "320x180",
                "--emit-frames",
            ]
        )
        assert code == 0
        return bundle_dir

    def test_mask_reads_each_frame_once(self, masked_bundle, tmp_path, monkeypatch):
        """``run --use-mask`` reads the PGM of each (camera, frame) with
        keypoints exactly once."""
        reads = Counter()

        def counting_read_pgm(path):
            reads[Path(path).name] += 1
            return read_pgm(path)

        monkeypatch.setattr(pipeline, "read_pgm", counting_read_pgm)
        assert main(["run", "--input", str(masked_bundle), "--use-mask",
                     "--out", str(tmp_path / "out")]) == 0
        with open(masked_bundle / "keypoints.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert reads == Counter({f"{camera}_frame{frame}.pgm" for camera, frame, *_ in rows})

    def test_mask_rejects_a_keypoint_outside_the_frame(self, masked_bundle, tmp_path, capsys):
        """``run --use-mask`` checks keypoints against the calibrated frame
        size before it writes any output."""
        keypoints = masked_bundle / "keypoints.csv"
        header, first, *rest = keypoints.read_text().splitlines(keepends=True)
        fields = first.split(",")
        assert fields[0] == "cam0"
        fields[3] = "5000.0"
        keypoints.write_text(header + ",".join(fields) + "".join(rest))
        out = tmp_path / "run"
        assert main(["run", "--input", str(masked_bundle), "--use-mask",
                     "--out", str(out)]) == 2
        assert (f"error: {keypoints}:2: keypoint at (5000.0, {float(fields[4])!r}) "
                "outside camera cam0 frame 320x180") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run"])
    @pytest.mark.parametrize("fault", ["missing", "resized"])
    def test_a_bad_frame_leaves_no_output(self, masked_bundle, tmp_path, capsys,
                                          command, fault):
        """Every frame the mask stage needs is checked before the first
        output is written, not only cam1's first frame."""
        path = masked_bundle / "frames" / "cam1_frame3.pgm"
        if fault == "missing":
            path.unlink()
            message = "frame file missing for mask stage"
        else:
            write_pgm(path, GrayFrame(4, 2, np.zeros((2, 4))))
            message = "frame is 4x2, but camera cam1 is calibrated for 320x180"
        out = tmp_path / "out"
        assert main([command, "--input", str(masked_bundle), "--use-mask",
                     "--out", str(out)]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_bad_keypoint_row_leaves_no_output(self, masked_bundle, tmp_path, capsys):
        """``run`` reads every input before it writes the Voronoi overlays."""
        keypoints = masked_bundle / "keypoints.csv"
        header, first, *rest = keypoints.read_text().splitlines(keepends=True)
        fields = first.split(",")
        fields[3] = "left"
        keypoints.write_text(header + ",".join(fields) + "".join(rest))
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--out", str(out)]) == 2
        assert f"error: {keypoints}:2: column 'x_px': 'left' is not a number" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_mask_gating_out_every_keypoint_writes_a_readable_file(
        self, masked_bundle, tmp_path
    ):
        """On black frames the mask keeps no keypoint; ``run --use-mask`` still
        writes every output, with a row without a position for each frame."""
        for path in (masked_bundle / "frames").glob("*.pgm"):
            frame = read_pgm(path)
            write_pgm(path, GrayFrame(frame.width, frame.height, np.zeros_like(frame.pixels)))
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--use-mask",
                     "--out", str(out)]) == 0
        with open(out / "observations.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[str(frame), "0", "", "", "", "", ""] for frame in range(6)]
        assert (out / "tracks.csv").read_text().splitlines() == [
            "frame,track_id,status,x_m,y_m,z_m"]
        zero = {"min": 0, "max": 0, "mean": 0.0, "std": 0.0}
        table2 = json.loads((out / "metrics.json").read_text())["table2"]
        assert table2 == {"cam0": zero, "cam1": zero}

    def test_mask_on_header_only_keypoints_writes_an_empty_file(
        self, masked_bundle, tmp_path, monkeypatch
    ):
        """Without keypoints, ``run --use-mask`` reads no frame and tracks
        nothing."""
        keypoints = masked_bundle / "keypoints.csv"
        keypoints.write_text(keypoints.read_text().splitlines()[0] + "\n")
        monkeypatch.setattr(pipeline, "read_pgm", None)
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--use-mask",
                     "--out", str(out)]) == 0
        assert (out / "tracks.csv").read_text().splitlines() == [
            "frame,track_id,status,x_m,y_m,z_m"]

    def test_mask_thresholds_are_validated(self, masked_bundle, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--use-mask", "--out", str(out),
                     "--canny-low", "200", "--canny-high", "100"]) == 2
        assert "error: canny_low must be in [0, canny_high], got 200.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--fps", "0"], "fps must be > 0, got 0.0"),
        (["--gate", "-1"], "gate_m must be > 0, got -1.0"),
        (["--gap-tolerance", "-1"], "gap_tolerance_frames must be >= 0, got -1"),
    ])
    def test_eval_settings_are_validated(
        self, masked_bundle, tmp_path, capsys, flags, message
    ):
        """The settings of ``run``'s tracking metrics (table5) fail before
        any output."""
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--out", str(out), *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def unreferenced_bundle(self, masked_bundle):
        """``masked_bundle`` without the detections of cam0 in frame 2, whose
        keypoints stay."""
        path = masked_bundle / "detections.csv"
        rows = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(r for r in rows if not r.startswith(b"cam0,2,")))
        return masked_bundle

    @pytest.mark.parametrize("command", ["run", "run --use-mask"])
    def test_missing_detection_reference_is_reported(
        self, unreferenced_bundle, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        assert main([*command.split(), "--input", str(unreferenced_bundle),
                     "--out", str(out)]) == 2
        keypoints = unreferenced_bundle / "keypoints.csv"
        assert (f"error: {keypoints}: keypoint references missing detection "
                "('cam0', 2, 0)") in capsys.readouterr().err
        assert not out.exists()


# Runs the CLI in a fresh interpreter and prints its exit code and the
# scipy modules it loaded.
_IMPORT_PROBE = """
import json, sys
from avitrack.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("command", [
    "run", "run --use-mask", "run --association optimal",
], ids=["defaults", "use-mask", "optimal"])
def test_scipy_loads_only_for_optimal_association(tmp_path, command):
    """scipy's import is most of ``avitrack run``'s start-up time and
    memory. Masks need none of it; the optimal tracker needs
    ``scipy.optimize``."""
    bundle = tmp_path / "bundle"
    assert main(["synth", "--out", str(bundle), "--seed", "3", "--birds", "2",
                 "--cameras", "3", "--duration", "0.3", "--descriptor-length", "8",
                 "--image-size", "320x180", "--emit-frames"]) == 0
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *command.split(), "--input", str(bundle),
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert (out / "tracks.csv").is_file()
    if "optimal" in command:
        assert "scipy.optimize" in modules
        assert not [m for m in modules if m.startswith("scipy.ndimage")]
    else:
        assert modules == []


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py``, loaded by path. It pins BLAS threads in
    ``os.environ`` on import, which monkeypatch undoes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(os, "environ", os.environ.copy())
    spec.loader.exec_module(module)
    return module


def test_benchmark_reads_the_run_outputs(bench, tmp_path):
    """The benchmark hashes every output file and reads its quality
    metrics from metrics.json, observations.csv and tracks.csv. The scene
    has an observation in every frame, as every benchmark workload does:
    ``quality`` cannot read a ``frame,0,,,,,`` row."""
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    bench.set_up(bench.scene_config(bench.WORKLOADS["quickstart"], 42, 0.5), bundle)
    run_pipeline(PipelineConfig(output_dir=str(out)).for_bundle_dir(bundle))
    _, problems = bench.check_outputs(out, bundle)
    assert problems == []
    metrics = bench.quality(out, PipelineConfig().aviary_size)
    assert len(metrics) == 6
    assert all(np.isfinite(value) for value, _ in metrics.values())


class TestFlagsMatchConfig:
    """The ``run`` flags and PipelineConfig cannot drift apart."""

    def test_benchmark_workload_flags_parse_into_config(self, bench):
        for name, workload in bench.WORKLOADS.items():
            args = build_parser().parse_args(
                ["run", "--input", "X", "--out", "Y", *bench.cli_flags(workload.config)]
            )
            config = pipeline_config(args)
            assert config.output_dir == "Y"
            assert config.detections_path == str(Path("X") / "detections.csv")
            for field, value in workload.config.items():
                assert getattr(config, field) == value, (name, field)

    def test_every_field_is_set_by_a_run_flag(self):
        defaults = PipelineConfig()
        names = {f.name for f in fields(PipelineConfig)}
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        covered = set()
        for action in sub.choices["run"]._actions:
            if action.dest not in names:
                continue
            default = getattr(defaults, action.dest)
            if action.nargs == 0:
                value = []
            elif action.choices:
                value = [next(c for c in action.choices if c != default)]
            else:
                value = ["7"]
            flag = action.option_strings[0]
            config = pipeline_config(parser.parse_args(["run", "--input", "X", flag, *value]))
            assert getattr(config, action.dest) != default, flag
            covered.add(action.dest)
        assert names - covered == {"aviary_size"}  # set by config file only

"""End-to-end CLI tests: synth, run, stage limits, and error reporting."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from avitrack import dataio, pipeline
from avitrack.cli import build_parser, main, pipeline_config
from avitrack.mask import GrayFrame, read_pgm, write_pgm
from avitrack.pipeline import PipelineConfig, run_pipeline

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

    def test_overlay_stage_emits_only_svgs(self, small_bundle, tmp_path):
        out = tmp_path / "overlay_only"
        code = main(
            [
                "run", "--input", str(small_bundle), "--out", str(out),
                "--stage", "voronoi-overlay",
            ]
        )
        assert code == 0
        assert (out / "voronoi_cam0.svg").exists()
        assert not (out / "tracks.csv").exists()
        assert not (out / "metrics.json").exists()

    def test_match_stage_reports_tables_2_and_3(self, small_bundle, tmp_path):
        out = tmp_path / "match_only"
        code = main(["run", "--input", str(small_bundle), "--out", str(out),
                     "--stage", "match"])
        assert code == 0
        report = json.loads((out / "metrics.json").read_text())
        assert "table2" in report
        assert "table3" in report
        assert "table4" not in report
        assert not (out / "tracks.csv").exists()

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

    @pytest.mark.parametrize("argv", [
        ["match"], ["reconstruct"], ["overlay"], ["run", "--stage", "track"],
    ], ids=["match", "reconstruct", "overlay", "stage-track"])
    def test_stage_aliases_are_invalid_choices(self, tmp_path, capsys, argv):
        """Each stage is reached through ``run --stage`` alone."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", str(tmp_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[-1]}'" in capsys.readouterr().err
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
    ], ids=["use-mask-without-frames", "aviary-one-size", "aviary-negative"])
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
    def test_track_and_eval_from_files(self, small_bundle, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--input", str(small_bundle), "--out", str(out)]) == 0

        track_dir = tmp_path / "tracked"
        code = main(
            [
                "track", "--observations", str(out / "observations.csv"),
                "--out", str(track_dir),
            ]
        )
        assert code == 0
        assert (track_dir / "tracks.csv").exists()

        metrics_path = tmp_path / "eval.json"
        code = main(
            [
                "eval", "--tracks", str(track_dir / "tracks.csv"),
                "--truth", str(small_bundle / "truth.csv"),
                "--out", str(metrics_path),
            ]
        )
        assert code == 0
        report = json.loads(metrics_path.read_text())
        assert "total_id_switches" in report["table5"]

    TUNED = {"confirm_hits": 5, "max_misses": 4, "jerk_sigma": 12.0}
    TUNED_FLAGS = ["--confirm-hits", "5", "--max-misses", "4", "--jerk-sigma", "12"]

    @pytest.fixture(scope="class")
    def tuned_runs(self, tmp_path_factory):
        """The README quickstart bundle run in full and up to reconstruction,
        both with non-default tracker settings."""
        root = tmp_path_factory.mktemp("tuned")
        bundle = root / "quickstart"
        assert main(["synth", "--out", str(bundle), "--seed", "42", "--birds", "5",
                     "--duration", "2.0"]) == 0
        for name, extra in (("full", []), ("staged", ["--stage", "reconstruct"])):
            assert main(["run", "--input", str(bundle), "--out", str(root / name),
                         *self.TUNED_FLAGS, *extra]) == 0
        return root

    @pytest.mark.parametrize("settings_from", ["flags", "config", "defaults"])
    def test_track_equals_run_with_tuned_tracker(
        self, tuned_runs, settings_from, tmp_path
    ):
        """``run`` writes the same tracks as ``run --stage reconstruct``
        followed by ``track`` given the same tracker settings, by flag or
        by config file; ``track`` at the defaults differs."""
        config = tmp_path / "tracker.json"
        config.write_text(json.dumps(self.TUNED))
        tracker_args = {
            "flags": self.TUNED_FLAGS,
            "config": ["--config", str(config)],
            "defaults": [],
        }[settings_from]
        tracked = tmp_path / "tracked"
        assert main(["track", "--observations",
                     str(tuned_runs / "staged" / "observations.csv"),
                     "--out", str(tracked), *tracker_args]) == 0
        same = (tracked / "tracks.csv").read_bytes() == (
            tuned_runs / "full" / "tracks.csv"
        ).read_bytes()
        assert same == (settings_from != "defaults")

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
        ``track`` misses the same frames and coasts the same tracks."""
        flags = ["--input", str(sparse_bundle), "--validate-bounds", *tracker_flags]
        assert main(["run", "--out", str(tmp_path / "full"), *flags]) == 0
        staged = tmp_path / "staged"
        assert main(["run", "--out", str(staged), "--stage", "reconstruct", *flags]) == 0
        rows = dataio.read_observations(staged / "observations.csv")
        empty = [frame for frame, _, position, _, _ in rows if position is None]
        assert len(empty) == 17 and len({row[0] for row in rows}) == 60
        assert main(["track", "--observations", str(staged / "observations.csv"),
                     "--out", str(tmp_path / "tracked"), *tracker_flags]) == 0
        for name in ("tracks.csv", "trajectories.svg"):
            assert (tmp_path / "tracked" / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes(), name

    def test_overlay_stage_needs_no_bundle(self, small_bundle, tmp_path):
        out = tmp_path / "overlays"
        code = main(
            [
                "run", "--stage", "voronoi-overlay",
                "--landmarks", str(small_bundle / "landmarks.csv"),
                "--calibration", str(small_bundle / "calibration.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "voronoi_cam0.svg").exists()

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

    def _mask_args(self, bundle_dir, out):
        return [
            "mask", "--frames", str(bundle_dir / "frames"),
            "--detections", str(bundle_dir / "detections.csv"),
            "--keypoints", str(bundle_dir / "keypoints.csv"),
            "--out", str(out), "--emit-masks",
        ]

    def test_mask_command(self, masked_bundle, tmp_path):
        out = tmp_path / "masks"
        assert main(self._mask_args(masked_bundle, out)) == 0
        assert (out / "keypoints_gated.csv").exists()
        assert list(out.glob("mask_*.pgm"))

    def test_mask_command_emits_a_mask_per_detection_frame(self, masked_bundle, tmp_path):
        out = tmp_path / "masks"
        args = self._mask_args(masked_bundle, out)
        args.remove("--keypoints")
        args.remove(str(masked_bundle / "keypoints.csv"))
        assert main(args) == 0
        rows = (masked_bundle / "detections.csv").read_text().splitlines()[1:]
        expected = {"mask_{}_frame{}.pgm".format(*row.split(",")[:2]) for row in rows}
        assert {p.name for p in out.glob("mask_*.pgm")} == expected
        assert not (out / "keypoints_gated.csv").exists()

    def test_mask_command_missing_frame_is_ingest_error(
        self, masked_bundle, tmp_path, capsys
    ):
        missing = masked_bundle / "frames" / "cam1_frame3.pgm"
        missing.unlink()
        code = main(self._mask_args(masked_bundle, tmp_path / "masks"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {missing}: frame file missing for mask stage" in err

    def test_mask_gating_out_every_keypoint_writes_a_readable_file(
        self, masked_bundle, tmp_path
    ):
        for path in (masked_bundle / "frames").glob("*.pgm"):
            frame = read_pgm(path)
            write_pgm(path, GrayFrame(frame.width, frame.height, np.zeros_like(frame.pixels)))
        out = tmp_path / "masks"
        assert main(self._mask_args(masked_bundle, out)) == 0
        gated = out / "keypoints_gated.csv"
        assert gated.read_text().splitlines() == [",".join(dataio.keypoints_header(8))]
        assert dataio.read_keypoints(gated) == []

    def test_mask_on_header_only_keypoints_writes_an_empty_file(
        self, masked_bundle, tmp_path
    ):
        keypoints = masked_bundle / "keypoints.csv"
        keypoints.write_text(keypoints.read_text().splitlines()[0] + "\n")
        out = tmp_path / "masks"
        args = self._mask_args(masked_bundle, out)
        args.remove("--emit-masks")
        assert main(args) == 0
        gated = out / "keypoints_gated.csv"
        assert gated.read_text().splitlines() == [",".join(dataio.keypoints_header(8))]
        assert dataio.read_keypoints(gated) == []

    def test_mask_thresholds_are_validated(self, masked_bundle, tmp_path, capsys):
        out = tmp_path / "masks"
        args = self._mask_args(masked_bundle, out) + ["--canny-low", "200", "--canny-high", "100"]
        assert main(args) == 2
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
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--out", str(out)]) == 0
        metrics_path = tmp_path / "eval.json"
        code = main(["eval", "--tracks", str(out / "tracks.csv"),
                     "--truth", str(masked_bundle / "truth.csv"),
                     "--out", str(metrics_path), *flags])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not metrics_path.exists()

    @pytest.fixture
    def unreferenced_bundle(self, masked_bundle):
        """``masked_bundle`` without the detections of cam0 in frame 2, whose
        keypoints stay."""
        path = masked_bundle / "detections.csv"
        rows = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(r for r in rows if not r.startswith(b"cam0,2,")))
        return masked_bundle

    @pytest.mark.parametrize("command", ["run", "run --use-mask", "mask"])
    def test_missing_detection_reference_is_reported(
        self, unreferenced_bundle, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        if command == "mask":
            args = self._mask_args(unreferenced_bundle, out)
        else:
            args = [*command.split(), "--input", str(unreferenced_bundle), "--out", str(out)]
        assert main(args) == 2
        keypoints = unreferenced_bundle / "keypoints.csv"
        assert (f"error: {keypoints}: keypoint references missing detection "
                "('cam0', 2, 0)") in capsys.readouterr().err
        assert not (out / "keypoints_gated.csv").exists()
        assert not list(out.glob("mask_*.pgm"))


# Runs the CLI in a fresh interpreter and prints its exit code and the
# scipy modules it loaded.
_IMPORT_PROBE = """
import json, sys
from avitrack.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("flags", [[], ["--use-mask"]], ids=["defaults", "use-mask"])
def test_run_loads_scipy_only_for_the_mask_stage(tmp_path, flags):
    """scipy's import is most of ``avitrack run``'s start-up time and memory."""
    bundle = tmp_path / "bundle"
    assert main(["synth", "--out", str(bundle), "--seed", "3", "--birds", "2",
                 "--cameras", "3", "--duration", "0.3", "--descriptor-length", "8",
                 "--image-size", "320x180", "--emit-frames"]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, "run", "--input", str(bundle),
         "--out", str(tmp_path / "out"), *flags],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert (tmp_path / "out" / "tracks.csv").is_file()
    if flags:
        assert "scipy.ndimage" in modules
        assert not [m for m in modules if m.startswith("scipy.spatial")]
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

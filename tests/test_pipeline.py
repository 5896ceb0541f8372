"""Tests for pipeline configuration and orchestration details."""

import csv
import gc
import importlib.util
import io
import json
import pickle
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from avitrack import dataio, pipeline, reconstruction
from avitrack.camera import CameraModel
from avitrack.errors import AvitrackError, ConfigError, DimensionMismatchError, IngestError
from avitrack.matching import FeatureMatch, Keypoint
from avitrack.metrics import keypoint_stats
from avitrack.pipeline import PipelineConfig, run_pipeline
from avitrack.synthworld import SceneConfig, generate
from avitrack.tracking import TrackerConfig


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    generate(
        SceneConfig(
            duration_s=0.5, seed=6, camera_count=3, bird_count=3,
            image_size=(640, 360), focal_px=360.0, descriptor_length=12,
            emit_frames=True,
        )
    ).write(out)
    return out


@pytest.fixture(scope="module")
def crowded_dir(tmp_path_factory):
    """Many birds with 8-d descriptors, like the benchmark's ``crowded`` scene."""
    out = tmp_path_factory.mktemp("crowded")
    generate(
        SceneConfig(
            duration_s=0.5, seed=3, bird_count=12, descriptor_length=8,
            keypoints_per_detection=(3, 6), descriptor_noise=0.05, pixel_noise=0.5,
        )
    ).write(out)
    return out


@pytest.fixture(scope="module")
def quickstart_dir(tmp_path_factory):
    """The README quickstart scene."""
    out = tmp_path_factory.mktemp("quickstart")
    generate(SceneConfig(seed=42, bird_count=5, duration_s=2.0)).write(out)
    return out


class TestConfig:
    def test_file_then_cli_precedence(self, tmp_path, bundle_dir):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"ratio": 0.6, "gate_m": 0.7}))
        config = PipelineConfig.from_file(config_path)
        assert config.ratio == 0.6
        overridden = config.with_overrides({"ratio": 0.8, "gate_m": None})
        assert overridden.ratio == 0.8
        assert overridden.gate_m == 0.7  # None means "not set on the CLI"

    def test_tracker_config_carries_every_tracker_field(self):
        config = PipelineConfig(
            jerk_sigma=7.0, meas_sigma_m=0.02, gate_m=0.3,
            confirm_hits=4, max_misses=9, association="optimal",
        )
        assert config.tracker_config(25.0) == TrackerConfig(
            dt=1.0 / 25.0, jerk_sigma=7.0, meas_sigma=0.02, gate=0.3,
            confirm_hits=4, max_misses=9, association="optimal",
        )

    def test_unknown_keys_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"ratioo": 0.6}))
        with pytest.raises(IngestError, match="unknown config keys"):
            PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("doc", [
        {"jerk_sigma": 25, "gate_m": 1},  # ints where floats are expected
        {"camera_pairs": None},
        {"camera_pairs": [["cam0", "cam1"]], "use_mask": True, "max_misses": 3},
    ])
    def test_values_of_the_field_type_accepted(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        config = PipelineConfig.from_file(config_path)
        assert {name: getattr(config, name) for name in doc} == doc

    @pytest.mark.parametrize("doc", [
        {"gate_m": "0.5"},
        {"max_misses": 2.5},
        {"max_misses": True},  # a bool is not an int
        {"use_mask": 1},
        {"association": None},
        {"camera_pairs": "cam0,cam1"},
    ], ids=lambda doc: "-".join(f"{k}={v!r}" for k, v in doc.items()))
    def test_values_of_another_type_rejected(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=f"config key '{next(iter(doc))}': expected"):
            PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("name", [
        f.name for f in fields(PipelineConfig) if isinstance(f.default, float)
    ])
    @pytest.mark.parametrize("value", [10**400, -10**400, float("inf"), float("nan")],
                             ids=["huge-int", "huge-negative-int", "inf", "nan"])
    def test_float_keys_take_only_finite_floats(self, tmp_path, name, value):
        """An int too large for a float would end the run in an OverflowError."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({name: value}))
        with pytest.raises(IngestError, match=f"config key '{name}': expected"):
            PipelineConfig.from_file(config_path)

    def test_a_removed_setting_is_an_unknown_key(self, tmp_path):
        config_path = tmp_path / "config.json"
        for name, value in (("fusion", "pairwise"), ("stage", "match"), ("fps", 30.0),
                            ("aviary_size", [4.0, 3.4, 2.0]), ("validate_bounds", True)):
            config_path.write_text(json.dumps({name: value}))
            with pytest.raises(IngestError, match=rf"unknown config keys: \['{name}'\]"):
                PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
    def test_every_field_is_type_checked(self, tmp_path, name):
        """A value of another type is a ``ConfigError`` from ``validate`` and
        an ``IngestError`` from a config file."""
        kind = type(getattr(PipelineConfig(), name))
        wrong = {str: 5, bool: 1, int: 1.5, float: "1.0", list: "4,3,2"}.get(kind, "cam0,cam1")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({name: wrong}))
        with pytest.raises(IngestError, match=f"config key '{name}': expected "):
            PipelineConfig.from_file(config_path)
        with pytest.raises(ConfigError, match=f"^{name} must be .*, got {wrong!r}$"):
            PipelineConfig(**{name: wrong}).validate()

    @pytest.mark.parametrize("bad", [
        {"min_support": "2"}, {"parallelism": 2.5}, {"confirm_hits": 1.5},
        {"max_misses": True}, {"use_mask": "yes"}, {"camera_pairs": [("cam0", "cam1")]},
    ], ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_validate_checks_types_before_ranges(self, bad):
        """A wrong type names its field; no range rule meets it as a ``TypeError``."""
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be "):
            PipelineConfig(**bad).validate()

    def test_config_must_be_an_object(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps([["ratio", 0.8]]))
        with pytest.raises(IngestError, match="config must be a JSON object"):
            PipelineConfig.from_file(config_path)

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            PipelineConfig(ratio=1.5).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(association="sometimes").validate()
        with pytest.raises(ConfigError):
            PipelineConfig(parallelism=0).validate()

    @pytest.mark.parametrize("bad", [
        {"association": "bogus"},
        {"max_misses": -1},
        {"gap_tolerance_frames": -3},
        {"confirm_hits": 0},
        {"reproj_threshold_px": -5.0},
        {"reproj_threshold_px": 0.0},
        {"camera_pairs": [["cam0"]]},
        {"camera_pairs": [["cam0", "cam1", "cam2"]]},
        {"camera_pairs": [["cam0", "cam0"]]},
        {"camera_pairs": [["cam0", "cam1"], ["cam1", "cam0"]]},
        {"camera_pairs": [["cam0", "cam1"], ["cam2", "cam1"], ["cam0", "cam1"]]},
        {"landmark_anchor": "track"},
        {"use_mask": True},
        *[{f.name: value} for f in fields(PipelineConfig) if type(f.default) is float
          for value in (float("nan"), float("inf"), -float("inf"))],
        {"jerk_sigma": -5.0},
        {"meas_sigma_m": 0.0},
        {"meas_sigma_m": -0.1},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_validation_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            PipelineConfig(**bad).validate()

    def test_bad_value_fails_before_any_frame(self, bundle_dir, tmp_path, monkeypatch):
        def no_frames(run, frame):
            raise AssertionError("a frame was processed")

        monkeypatch.setattr("avitrack.pipeline._process_frame", no_frames)
        config = PipelineConfig(association="bogus", output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="association"):
            run_pipeline(config.for_bundle_dir(bundle_dir))
        assert not (tmp_path / "out").exists()

    def test_bundle_dir_fills_paths(self, bundle_dir):
        config = PipelineConfig().for_bundle_dir(bundle_dir)
        assert config.detections_path.endswith("detections.csv")
        assert config.truth_path.endswith("truth.csv")
        assert config.frames_dir.endswith("frames")
        assert config.recording_path == str(bundle_dir / "recording.json")


class TestRunPipeline:
    def test_parallel_results_match_serial(self, bundle_dir, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        base = PipelineConfig().for_bundle_dir(bundle_dir)

        serial = run_pipeline(
            base.with_overrides({"output_dir": str(serial_dir), "parallelism": 1})
        )
        parallel = run_pipeline(
            base.with_overrides({"output_dir": str(parallel_dir), "parallelism": 4})
        )
        assert serial == parallel
        for name in ("tracks.csv", "observations.csv", "metrics.json"):
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()

    def test_mask_stage_runs(self, bundle_dir, tmp_path):
        config = PipelineConfig().for_bundle_dir(bundle_dir).with_overrides(
            {"output_dir": str(tmp_path / "masked"), "use_mask": True}
        )
        report = run_pipeline(config)
        assert "table2" in report

    def test_centres_undistorted_once_per_camera(self, quickstart_dir, tmp_path,
                                                   monkeypatch):
        """The run's centre table undistorts each camera's detection centres
        in one call, and ``reconstruct_frame`` reprojects with at most one
        ``project_points`` call per camera and no scalar ``project``."""
        calls, stack = [], []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append((name, tuple(stack)))
                stack.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((pipeline, "detection_centers"), (pipeline, "reconstruct_frame"),
                            (reconstruction, "project"), (reconstruction, "project_points"),
                            (CameraModel, "undistort")):
            count(owner, name)
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "out"))
                     .for_bundle_dir(quickstart_dir))

        def made(name, inside):
            return sum(call == name and inside in within for call, within in calls)

        cameras = len(dataio.read_calibration(quickstart_dir / "calibration.json"))
        frames = sum(call == "reconstruct_frame" for call, _ in calls)
        assert [call for call, _ in calls].count("detection_centers") == 1
        assert made("undistort", "detection_centers") == cameras == 5
        assert made("project", "reconstruct_frame") == 0
        assert frames == 60
        assert 0 < made("project_points", "reconstruct_frame") <= cameras * frames

    def test_orphan_keypoint_rejected(self, bundle_dir, tmp_path):
        keypoints_path = tmp_path / "keypoints.csv"
        lines = (bundle_dir / "keypoints.csv").read_text().splitlines()
        orphan = lines[1].split(",")
        orphan[2] = "99"  # no such detection index
        lines.append(",".join(orphan))
        keypoints_path.write_text("\n".join(lines) + "\n")
        config = PipelineConfig().for_bundle_dir(bundle_dir).with_overrides(
            {
                "output_dir": str(tmp_path / "orphan"),
                "keypoints_path": str(keypoints_path),
            }
        )
        with pytest.raises(IngestError, match="missing detection"):
            run_pipeline(config)

    def test_the_recording_sets_the_box_and_the_frame_rate(self, quickstart_dir, tmp_path,
                                                           monkeypatch):
        """Every frame is reconstructed within the aviary box of
        ``recording.json``, and the tracker and table5 take its frame rate."""
        calls = {}
        for name in ("reconstruct_frame", "run_tracker", "tracking_metrics"):
            def spied(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls.setdefault(_name, []).append((args, kwargs))
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, spied)
        low, high = [-1.0, 0.5, 0.0], [3.0, 3.4, 1.5]
        recording = tmp_path / "recording.json"
        dataio.write_recording(recording, 15.0, (low, high))
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(output_dir=str(out), recording_path=str(recording))
                     .for_bundle_dir(quickstart_dir))
        boxes = [kwargs["bounds"] for _, kwargs in calls["reconstruct_frame"]]
        assert len(boxes) == 60
        assert all(box[0].tolist() == low and box[1].tolist() == high for box in boxes)
        (_, tracker_config), _ = calls["run_tracker"][0]
        assert tracker_config.dt == 1.0 / 15.0
        assert calls["tracking_metrics"][0][1]["fps"] == 15.0
        with open(out / "observations.csv", newline="") as fh:
            positions = np.array([row[2:5] for row in list(csv.reader(fh))[1:] if row[2]],
                                 dtype=float)
        assert len(positions) > 0
        assert ((positions >= low) & (positions <= high)).all()

    def test_table2_covers_the_frames_the_run_steps(self, quickstart_dir, tmp_path):
        """A detection moved far ahead adds one frame to table2 and to the
        tracked frames, not every frame number up to it."""
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        moved = 0
        for name in ("calibration.json", "recording.json", "landmarks.csv", "detections.csv",
                     "keypoints.csv"):
            lines = (quickstart_dir / name).read_text().splitlines(keepends=True)
            far = ["cam0,300000," + line[len("cam0,59,"):] if line.startswith("cam0,59,")
                   else line for line in lines]
            moved += sum(a != b for a, b in zip(lines, far))
            (bundle / name).write_text("".join(far))
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(output_dir=str(out)).for_bundle_dir(bundle))

        def rows(name):
            return [line.split(",")[:2] for line in
                    (bundle / name).read_text().splitlines()[1:]]

        counts = {}
        for (camera, frame), count in Counter(map(tuple, rows("keypoints.csv"))).items():
            counts.setdefault(camera, {})[int(frame)] = count
        present = rows("detections.csv") + rows("keypoints.csv")
        frames = sorted({int(frame) for _, frame in present})
        assert moved > 1 and len(frames) == 61 and frames[-1] == 300000
        table2 = json.loads((out / "metrics.json").read_text())["table2"]
        assert table2 == keypoint_stats(counts, frames)
        stepped = [line.split(",")[0] for line in
                   (out / "observations.csv").read_text().splitlines()[1:]]
        assert sorted(set(map(int, stepped))) == frames


def _outputs(config: PipelineConfig, out, parallelism: int) -> dict:
    run_pipeline(config.with_overrides({"output_dir": str(out), "parallelism": parallelism}))
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestProcessPool:
    """The pool gets the frames once and returns matches as arrays."""

    @pytest.mark.parametrize("scene, settings", [
        ("bundle_dir", {"use_mask": True}),
        ("crowded_dir", {}),
    ])
    def test_pooled_run_writes_the_serial_bytes(self, request, tmp_path, scene, settings):
        config = PipelineConfig(**settings).for_bundle_dir(request.getfixturevalue(scene))
        serial = _outputs(config, tmp_path / "serial", 1)
        pooled = _outputs(config, tmp_path / "pooled", 2)
        assert "tracks.csv" in serial
        assert serial.keys() == pooled.keys()
        for name in serial:
            assert serial[name] == pooled[name], name

    def test_pooled_results_hold_no_keypoint(self, bundle_dir, tmp_path, monkeypatch):
        """Each worker's ``FrameResult`` pickles under a hook that refuses
        every ``Keypoint`` and ``FeatureMatch``."""
        with pytest.raises(pickle.PicklingError, match="FeatureMatch"):
            _pickle_without_keypoints(FeatureMatch(
                Keypoint("cam0", 0, 0, [0.0, 0.0], [0.0]),
                Keypoint("cam1", 0, 0, [0.0, 0.0], [0.0]), 0.0,
            ))
        summaries = []
        rejection_stats = pipeline.rejection_stats

        def capture(frame_summaries, truth):
            summaries.extend(frame_summaries)
            return rejection_stats(frame_summaries, truth)

        monkeypatch.setattr(pipeline, "_process_frame_at", _frame_at_without_keypoints)
        monkeypatch.setattr(pipeline, "rejection_stats", capture)
        config = PipelineConfig(use_mask=True, parallelism=2, output_dir=str(tmp_path / "out"))
        run_pipeline(config.for_bundle_dir(bundle_dir))
        assert sum(len(s.detections) for s in summaries) > 0

    def test_frames_build_no_keypoint_or_match(self, quickstart_dir, tmp_path, monkeypatch):
        """``_process_frame`` matches, rejects and clusters on the keypoint
        table's rows: it constructs no ``Keypoint`` and no ``FeatureMatch``."""
        inside, built = [], []
        for cls in (Keypoint, FeatureMatch):
            def tracked(self, *args, _init=cls.__init__, **kwargs):
                if inside:
                    built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", tracked)
        inside.append(-1)  # the count works: one of each, built inside
        keypoint = Keypoint("cam0", 0, 0, [0.0, 0.0], [0.0])
        FeatureMatch(keypoint, keypoint, 0.0)
        inside.pop()
        assert built == ["Keypoint", "FeatureMatch"]
        built.clear()

        frames = []
        process_frame = pipeline._process_frame

        def watched(run, frame):
            frames.append(frame)
            inside.append(frame)
            try:
                return process_frame(run, frame)
            finally:
                inside.pop()

        monkeypatch.setattr(pipeline, "_process_frame", watched)
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "out"))
                     .for_bundle_dir(quickstart_dir))
        assert len(frames) == 60
        assert built == []

    def test_parent_holds_no_keypoint_when_the_pool_starts(
        self, bundle_dir, tmp_path, monkeypatch
    ):
        gc.collect()
        before = {id(obj) for obj in gc.get_objects() if isinstance(obj, Keypoint)}
        found = []

        class CheckedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                found.append([obj for obj in gc.get_objects()
                              if isinstance(obj, Keypoint) and id(obj) not in before])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CheckedPool)
        config = PipelineConfig(use_mask=True, parallelism=2, output_dir=str(tmp_path / "out"))
        run_pipeline(config.for_bundle_dir(bundle_dir))
        assert found == [[]]

    @pytest.mark.parametrize("error, message", [
        (lambda frame: DimensionMismatchError(f"frame {frame}: 12 != 8"), "frame 0: 12 != 8"),
        (lambda frame: IngestError("k.csv", "bad row", frame + 3), "k.csv:3: bad row"),
    ], ids=["dimension-mismatch", "ingest-error"])
    def test_worker_error_reaches_the_caller(
        self, bundle_dir, tmp_path, monkeypatch, error, message
    ):
        def failing_knn(keypoints_a, keypoints_b, ratio):
            raise error(int(keypoints_a.frame[0]))

        monkeypatch.setattr(pipeline, "knn_match", failing_knn)
        config = PipelineConfig().for_bundle_dir(bundle_dir)
        errors = []
        for parallelism in (1, 2):
            with pytest.raises(AvitrackError) as info:
                _outputs(config, tmp_path / f"out{parallelism}", parallelism)
            errors.append((type(info.value), str(info.value), vars(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (type(error(0)), message)


def _pickle_without_keypoints(value) -> bytes:
    def refuse(obj):
        if isinstance(obj, (Keypoint, FeatureMatch)):
            raise pickle.PicklingError(f"a {type(obj).__name__} was pickled")
        return None

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = refuse
    pickler.dump(value)
    return buffer.getvalue()


_process_frame_at = pipeline._process_frame_at


def _frame_at_without_keypoints(frame):
    """``_process_frame_at`` in a pool worker, checking how its result pickles."""
    result = _process_frame_at(frame)
    _pickle_without_keypoints(result)
    return result


@pytest.mark.parametrize("line", [None, 7])
def test_ingest_error_survives_pickling(line):
    error = IngestError(Path("data") / "k.csv", "bad row", line)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is IngestError
    assert (str(copy), copy.path, copy.line) == (str(error), error.path, line)


def test_benchmark_tracer_pins_resolve(tmp_path):
    """``perfbench/spans.py`` times the pipeline by wrapping module globals
    and reads stage results by shape; a refactor must keep what it pins."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bundle = tmp_path / "bundle"
    generate(SceneConfig(duration_s=0.5, seed=5, image_size=(640, 360), focal_px=360.0,
                         emit_frames=True)).write(bundle)

    assert [f"{m.__name__}.{a}" for m, a, _ in spans.LAYERS if not hasattr(m, a)] == []
    tracer = spans.Tracer("guard")
    for module, attr, name in spans.LAYERS:
        tracer.wrap(module, attr, name)
    config = PipelineConfig(use_mask=True, output_dir=str(tmp_path / "out"))
    tracer.run(config.for_bundle_dir(bundle))
    counts = tracer.counts
    assert tracer.problems == []
    assert counts["candidates"] == counts["kept"] + counts["rejected"] > 0
    assert 0 < counts["observations"] <= counts["triangulated"]
    assert counts["mask_in"] > 0
    assert callable(pipeline._process_frame)
    assert pipeline.ProcessPoolExecutor is ProcessPoolExecutor


def test_every_benchmark_span_is_called(tmp_path):
    """Every ``spans.LAYERS`` span runs on a masked scene with truth, so a
    moved API cannot zero a per-layer metric unnoticed. ``camera.project``
    and ``voronoi.nearest_landmark`` are the known exceptions: no stage
    calls them any more."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bundle = tmp_path / "bundle"
    generate(SceneConfig(duration_s=0.5, seed=5, image_size=(640, 360), focal_px=360.0,
                         emit_frames=True)).write(bundle)
    tracer = spans.Tracer("guard")
    for module, attr, name in spans.LAYERS:
        tracer.wrap(module, attr, name)
    config = PipelineConfig(use_mask=True, output_dir=str(tmp_path / "out"))
    tracer.run(config.for_bundle_dir(bundle))
    _, _, calls = tracer.totals()
    never = sorted({name for _, _, name in spans.LAYERS if calls[name] == 0})
    assert never == ["camera.project", "voronoi.nearest_landmark"]
    assert tracer.counts["rows_in"] > 0

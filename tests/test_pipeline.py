"""Tests for pipeline configuration and orchestration details."""

import importlib.util
import json
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import pytest

from avitrack import dataio, pipeline
from avitrack.errors import AvitrackError, ConfigError, DimensionMismatchError, IngestError
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
            fps=25.0, jerk_sigma=7.0, meas_sigma_m=0.02, gate_m=0.3,
            confirm_hits=4, max_misses=9, association="optimal",
        )
        assert config.tracker_config() == TrackerConfig(
            dt=1.0 / 25.0, jerk_sigma=7.0, meas_sigma=0.02, gate=0.3,
            confirm_hits=4, max_misses=9, association="optimal",
        )

    def test_unknown_keys_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"ratioo": 0.6}))
        with pytest.raises(IngestError, match="unknown config keys"):
            PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("doc", [
        {"fps": 25, "gate_m": 1},  # an int where a float is expected
        {"camera_pairs": None},
        {"camera_pairs": [["cam0", "cam1"]], "use_mask": True, "max_misses": 3},
    ])
    def test_values_of_the_field_type_accepted(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        config = PipelineConfig.from_file(config_path)
        assert {name: getattr(config, name) for name in doc} == doc

    @pytest.mark.parametrize("doc", [
        {"fps": "30"},
        {"max_misses": 2.5},
        {"max_misses": True},  # a bool is not an int
        {"use_mask": 1},
        {"fusion": None},
        {"camera_pairs": "cam0,cam1"},
        {"aviary_size": 4.0},
    ], ids=lambda doc: "-".join(f"{k}={v!r}" for k, v in doc.items()))
    def test_values_of_another_type_rejected(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=f"config key '{next(iter(doc))}': expected"):
            PipelineConfig.from_file(config_path)

    @pytest.mark.parametrize("name", [
        *(f.name for f in fields(PipelineConfig) if isinstance(f.default, float)),
        "aviary_size",
    ])
    @pytest.mark.parametrize("value", [10**400, -10**400, float("inf"), float("nan")],
                             ids=["huge-int", "huge-negative-int", "inf", "nan"])
    def test_float_keys_take_only_finite_floats(self, tmp_path, name, value):
        """An int too large for a float would end the run in an OverflowError."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {name: [value, 3.4, 2.0] if name == "aviary_size" else value}
        ))
        with pytest.raises(IngestError, match=f"config key '{name}': expected"):
            PipelineConfig.from_file(config_path)

    def test_config_must_be_an_object(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps([["fps", 30.0]]))
        with pytest.raises(IngestError, match="config must be a JSON object"):
            PipelineConfig.from_file(config_path)

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            PipelineConfig(ratio=1.5).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(fusion="sometimes").validate()
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
        {"stage": "track"},
        {"use_mask": True},
        {"aviary_size": [4.0]},
        {"aviary_size": [4.0, 3.4]},
        {"aviary_size": [-1.0, 3.4, 2.0]},
        {"aviary_size": [4.0, 0.0, 2.0]},
        {"aviary_size": [4.0, float("nan"), 2.0]},
        {"aviary_size": [float("inf"), 3.4, 2.0]},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_validation_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            PipelineConfig(**bad).validate()

    def test_bad_value_fails_before_any_frame(self, bundle_dir, tmp_path, monkeypatch):
        def no_frames(payload):
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
            {"output_dir": str(tmp_path / "masked"), "use_mask": True, "stage": "match"}
        )
        report = run_pipeline(config)
        assert "table2" in report

    def test_match_stage_does_not_reconstruct(self, crowded_dir, tmp_path, monkeypatch):
        frames = []
        reconstruct_frame = pipeline.reconstruct_frame

        def counted(frame, *args, **kwargs):
            frames.append(frame)
            return reconstruct_frame(frame, *args, **kwargs)

        monkeypatch.setattr(pipeline, "reconstruct_frame", counted)
        base = PipelineConfig().for_bundle_dir(crowded_dir)
        full = run_pipeline(base.with_overrides({"output_dir": str(tmp_path / "all")}))
        assert frames
        frames.clear()
        run_pipeline(base.with_overrides(
            {"output_dir": str(tmp_path / "match"), "stage": "match"}
        ))
        assert frames == []

        def read(name):
            return (tmp_path / name).read_bytes()

        assert read("match/correspondences.csv") == read("all/correspondences.csv")
        dataio.write_metrics(tmp_path / "expected.json",
                             {table: full[table] for table in ("table2", "table3")})
        assert read("match/metrics.json") == read("expected.json")

    def test_pairwise_fusion_mode(self, bundle_dir, tmp_path):
        config = PipelineConfig().for_bundle_dir(bundle_dir).with_overrides(
            {"output_dir": str(tmp_path / "pairwise"), "fusion": "pairwise"}
        )
        report = run_pipeline(config)
        assert "table5" in report

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

    def test_bounds_validation_drops_outliers(self, bundle_dir, tmp_path):
        config = PipelineConfig().for_bundle_dir(bundle_dir).with_overrides(
            {
                "output_dir": str(tmp_path / "bounded"),
                "validate_bounds": True,
                "aviary_size": [4.0, 3.4, 2.0],
            }
        )
        run_pipeline(config)  # should not raise


def _outputs(config: PipelineConfig, out, parallelism: int) -> dict:
    run_pipeline(config.with_overrides({"output_dir": str(out), "parallelism": parallelism}))
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestProcessPool:
    """The pool gets the frames once and returns matches by keypoint reference."""

    @pytest.mark.parametrize("scene, settings", [
        ("bundle_dir", {"use_mask": True}),
        ("crowded_dir", {"validate_bounds": True, "fusion": "pairwise"}),
    ])
    def test_pooled_run_writes_the_serial_bytes(self, request, tmp_path, scene, settings):
        config = PipelineConfig(**settings).for_bundle_dir(request.getfixturevalue(scene))
        serial = _outputs(config, tmp_path / "serial", 1)
        pooled = _outputs(config, tmp_path / "pooled", 2)
        assert "tracks.csv" in serial
        assert serial.keys() == pooled.keys()
        for name in serial:
            assert serial[name] == pooled[name], name

    def test_matches_hold_the_parents_keypoints(self, bundle_dir, tmp_path, monkeypatch):
        gated, matches = [], []
        apply_mask_stage, rejection_stats = pipeline.apply_mask_stage, pipeline.rejection_stats

        def capture_gated(*args, **kwargs):
            gated.extend(apply_mask_stage(*args, **kwargs))
            return gated

        def capture_matches(all_matches, truth):
            matches.extend(all_matches)
            return rejection_stats(all_matches, truth)

        monkeypatch.setattr(pipeline, "apply_mask_stage", capture_gated)
        monkeypatch.setattr(pipeline, "rejection_stats", capture_matches)
        config = PipelineConfig(use_mask=True, parallelism=2, output_dir=str(tmp_path / "out"))
        run_pipeline(config.for_bundle_dir(bundle_dir))
        assert matches
        own = {id(kp) for kp in gated}  # ``gated`` keeps every id alive and unique
        for match in matches:
            assert id(match.keypoint_a) in own and id(match.keypoint_b) in own

    @pytest.mark.parametrize("error, message", [
        (lambda frame: DimensionMismatchError(f"frame {frame}: 12 != 8"), "frame 0: 12 != 8"),
        (lambda frame: IngestError("k.csv", "bad row", frame + 3), "k.csv:3: bad row"),
    ], ids=["dimension-mismatch", "ingest-error"])
    def test_worker_error_reaches_the_caller(
        self, bundle_dir, tmp_path, monkeypatch, error, message
    ):
        def failing_knn(keypoints_a, keypoints_b, ratio):
            raise error(keypoints_a[0].frame)

        monkeypatch.setattr(pipeline, "knn_match", failing_knn)
        config = PipelineConfig().for_bundle_dir(bundle_dir)
        errors = []
        for parallelism in (1, 2):
            with pytest.raises(AvitrackError) as info:
                _outputs(config, tmp_path / f"out{parallelism}", parallelism)
            errors.append((type(info.value), str(info.value), vars(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (type(error(0)), message)


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

"""Tests for pipeline configuration and orchestration details."""

import json

import pytest

from avitrack.errors import ConfigError, IngestError
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

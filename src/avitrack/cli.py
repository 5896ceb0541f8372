"""Command-line interface.

Subcommands cover the whole workflow: ``synth`` writes a synthetic
dataset bundle, ``run`` executes the pipeline (with ``match``,
``reconstruct``, and ``overlay`` as stage-limited variants), ``mask``
builds detection masks from frames, ``track`` and ``eval`` operate on
intermediate files. Flag precedence is CLI > config file > defaults.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import dataio
from .errors import AvitrackError, ConfigError
from .mask import write_pgm
from .metrics import GroundTruth, tracking_metrics
from .matching import ANCHORS
from .pipeline import (
    FUSIONS, STAGES, PipelineConfig, apply_mask_stage, detection_table, run_pipeline,
)
from .synthworld import MOTION_MODES, SceneConfig, generate
from .tracking import ASSOCIATIONS, render_trajectories, run_tracker

logger = logging.getLogger(__name__)


def _settings(parser: argparse.ArgumentParser, config_cls=PipelineConfig):
    """``add(flag, dest=None, **kwargs)``: declare ``flag`` as the override of
    the ``config_cls`` field ``dest`` (by default the flag's argparse dest),
    typed like its default. An absent flag sets no attribute."""
    defaults = {f.name: f.default for f in fields(config_cls)}

    def add(flag: str, dest: str | None = None, **kwargs) -> None:
        name = dest or flag.lstrip("-").replace("-", "_")
        kind = type(defaults[name])
        if kind is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs.setdefault("type", kind)
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS, **kwargs)

    return add


def _given(args: argparse.Namespace, config_cls) -> dict:
    """The ``config_cls`` fields set on the command line."""
    return {f.name: getattr(args, f.name) for f in fields(config_cls) if hasattr(args, f.name)}


def _config(args: argparse.Namespace, **fixed) -> PipelineConfig:
    """The ``--config`` file, or the defaults, overridden by every flag given
    and then by the subcommand's ``fixed`` settings that are not None."""
    path = getattr(args, "config", None)
    config = PipelineConfig.from_file(path) if path else PipelineConfig()
    return config.with_overrides(_given(args, PipelineConfig)).with_overrides(fixed)


def _add_tracker_arguments(parser: argparse.ArgumentParser) -> None:
    add = _settings(parser)
    add("--gate", "gate_m")
    add("--jerk-sigma")
    add("--meas-sigma", "meas_sigma_m")
    add("--confirm-hits")
    add("--max-misses")
    add("--association", choices=ASSOCIATIONS)
    add("--fps")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--input", help="dataset bundle directory (fills input paths)")
    add = _settings(parser)
    add("--detections", "detections_path")
    add("--keypoints", "keypoints_path")
    add("--landmarks", "landmarks_path")
    add("--calibration", "calibration_path")
    add("--frames", "frames_dir")
    add("--truth", "truth_path")
    add("--match-truth", "match_truth_path")
    add("--out", "output_dir")
    add("--pair", "camera_pairs", action="append", type=lambda text: text.split(","),
        metavar="CAMA,CAMB", help="camera pair to match (repeatable; default all pairs)")
    add("--use-mask")
    add("--fusion", choices=FUSIONS)
    add("--ratio")
    add("--min-support")
    add("--landmark-anchor", choices=ANCHORS)
    add("--fuse-radius", "fuse_radius_m")
    _add_tracker_arguments(parser)
    add("--canny-low")
    add("--canny-high")
    add("--reproj-threshold", "reproj_threshold_px")
    add("--gap-tolerance", "gap_tolerance_frames")
    add("--validate-bounds")
    add("--parallelism")


def pipeline_config(args: argparse.Namespace, stage: str | None = None) -> PipelineConfig:
    """The config a ``run``-style subcommand's parsed ``args`` ask for."""
    config = _config(args, stage=stage)
    if args.input:
        config = config.for_bundle_dir(args.input)
    for name in ("detections_path", "keypoints_path", "landmarks_path", "calibration_path"):
        if config.stage != "voronoi-overlay" or name in ("landmarks_path", "calibration_path"):
            if not getattr(config, name):
                raise ConfigError(
                    f"missing required input {name}; pass --input or the explicit flag"
                )
    return config


def _cmd_run(args: argparse.Namespace, stage: str | None = None) -> int:
    run_pipeline(pipeline_config(args, stage=stage))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    bundle = generate(SceneConfig(**_given(args, SceneConfig)))
    bundle.write(args.out)
    logger.info(
        "wrote bundle with %d detections / %d keypoints to %s",
        len(bundle.detections), len(bundle.keypoints), args.out,
    )
    return 0


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects WxH, got {text!r}")


def _cmd_mask(args: argparse.Namespace) -> int:
    config = _config(args)
    config.validate()
    detections = dataio.read_detections(config.detections_path)
    keypoints = dataio.read_keypoints(config.keypoints_path) if config.keypoints_path else []
    detection_table(detections, keypoints, config.keypoints_path)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_mask(camera_id, frame, mask):
        write_pgm(out_dir / f"mask_{camera_id}_frame{frame}.pgm", mask)

    gated = apply_mask_stage(config, keypoints, detections,
                             on_mask=write_mask if args.emit_masks else None)
    if keypoints:
        dataio.write_keypoints(out_dir / "keypoints_gated.csv", gated)
        logger.info("gated %d of %d keypoints", len(gated), len(keypoints))
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    config = _config(args)
    config.validate()
    rows = dataio.read_observations(args.observations)
    observations_by_frame: dict[int, list] = {}
    for frame, _, position, _, _ in rows:
        observations_by_frame.setdefault(frame, []).append(position)
    track_rows = run_tracker(observations_by_frame, config.tracker_config())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_tracks(out_dir / "tracks.csv", track_rows)
    (out_dir / "trajectories.svg").write_text(render_trajectories(track_rows))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config(args)
    config.validate()
    track_rows = dataio.read_tracks(args.tracks)
    truth = GroundTruth(positions=dataio.read_truth(args.truth), identities={})
    table5 = tracking_metrics(track_rows, truth, fps=config.fps, gate=config.gate_m,
                              gap_tolerance_frames=config.gap_tolerance_frames)
    dataio.write_metrics(args.out, {"table5": table5})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avitrack",
        description="Multi-view 3D bird tracking with landmark-based outlier rejection.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    synth.add_argument("--out", required=True)
    add = _settings(synth, SceneConfig)
    add("--seed")
    add("--birds", "bird_count")
    add("--cameras", "camera_count")
    add("--duration", "duration_s", help="seconds")
    add("--fps")
    add("--landmarks", "landmark_count")
    add("--ambiguity")
    add("--descriptor-noise")
    add("--pixel-noise")
    add("--descriptor-length")
    add("--motion", choices=MOTION_MODES)
    add("--image-size", type=_parse_size, metavar="WxH")
    add("--focal", "focal_px", type=float, help="focal length in px")
    add("--emit-frames")
    synth.set_defaults(func=_cmd_synth)

    run = sub.add_parser("run", help="run the full pipeline")
    _add_run_arguments(run)
    _settings(run)("--stage", choices=STAGES)
    run.set_defaults(func=_cmd_run)

    match = sub.add_parser("match", help="run matching + rejection + clustering only")
    _add_run_arguments(match)
    match.set_defaults(func=lambda a: _cmd_run(a, stage="match"))

    reconstruct = sub.add_parser("reconstruct", help="run through 3D reconstruction")
    _add_run_arguments(reconstruct)
    reconstruct.set_defaults(func=lambda a: _cmd_run(a, stage="reconstruct"))

    overlay = sub.add_parser("overlay", help="emit Voronoi overlay SVGs only")
    overlay.add_argument("--input")
    add = _settings(overlay)
    add("--landmarks", "landmarks_path", required=True)
    add("--calibration", "calibration_path", required=True)
    add("--out", "output_dir")
    overlay.set_defaults(func=lambda a: _cmd_run(a, stage="voronoi-overlay"))

    mask = sub.add_parser("mask", help="build masks from frames and gate keypoints")
    add = _settings(mask)
    add("--frames", "frames_dir", required=True)
    add("--detections", "detections_path", required=True)
    add("--keypoints", "keypoints_path")
    add("--out", "output_dir", required=True)
    add("--canny-low")
    add("--canny-high")
    mask.add_argument("--emit-masks", action="store_true")
    mask.set_defaults(func=_cmd_mask)

    track = sub.add_parser("track", help="track an observations.csv file")
    track.add_argument("--config", help="pipeline config JSON (tracker settings)")
    track.add_argument("--observations", required=True)
    track.add_argument("--out", required=True)
    _add_tracker_arguments(track)
    track.set_defaults(func=_cmd_track)

    evaluate = sub.add_parser("eval", help="tracking metrics from tracks + truth")
    evaluate.add_argument("--tracks", required=True)
    evaluate.add_argument("--truth", required=True)
    evaluate.add_argument("--out", required=True)
    add = _settings(evaluate)
    add("--fps")
    add("--gate", "gate_m")
    add("--gap-tolerance", "gap_tolerance_frames")
    evaluate.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except AvitrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

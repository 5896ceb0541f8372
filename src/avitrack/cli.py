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
from pathlib import Path

from . import dataio
from .errors import AvitrackError, ConfigError, IngestError
from .mask import build_frame_mask, gate_keypoints, read_pgm, write_pgm
from .metrics import GroundTruth, tracking_metrics
from .pipeline import PipelineConfig, run_pipeline
from .synthworld import SceneConfig, generate
from .tracking import render_trajectories, run_tracker

logger = logging.getLogger(__name__)


# PipelineConfig fields that set the tracker, shared by ``run`` and ``track``.
TRACKER_FIELDS = (
    "fps", "gate_m", "jerk_sigma", "meas_sigma_m", "confirm_hits", "max_misses",
    "association",
)


def _add_tracker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gate", type=float, dest="gate_m")
    parser.add_argument("--jerk-sigma", type=float, dest="jerk_sigma")
    parser.add_argument("--meas-sigma", type=float, dest="meas_sigma_m")
    parser.add_argument("--confirm-hits", type=int, dest="confirm_hits")
    parser.add_argument("--max-misses", type=int, dest="max_misses")
    parser.add_argument("--association", choices=("greedy", "optimal"))
    parser.add_argument("--fps", type=float)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--input", help="dataset bundle directory (fills input paths)")
    parser.add_argument("--detections", dest="detections_path")
    parser.add_argument("--keypoints", dest="keypoints_path")
    parser.add_argument("--landmarks", dest="landmarks_path")
    parser.add_argument("--calibration", dest="calibration_path")
    parser.add_argument("--frames", dest="frames_dir")
    parser.add_argument("--truth", dest="truth_path")
    parser.add_argument("--match-truth", dest="match_truth_path")
    parser.add_argument("--out", dest="output_dir")
    parser.add_argument("--stage", choices=("voronoi-overlay", "match", "reconstruct", "track", "all"))
    parser.add_argument("--pair", action="append", dest="pairs", metavar="CAMA,CAMB",
                        help="camera pair to match (repeatable; default all pairs)")
    parser.add_argument("--use-mask", action="store_true", default=None)
    parser.add_argument("--fusion", choices=("all-pairs", "pairwise"))
    parser.add_argument("--ratio", type=float)
    parser.add_argument("--knn-k", type=int, dest="knn_k")
    parser.add_argument("--min-support", type=int, dest="min_support")
    parser.add_argument("--landmark-anchor", choices=("keypoint", "detection_center"),
                        dest="landmark_anchor")
    parser.add_argument("--fuse-radius", type=float, dest="fuse_radius_m")
    _add_tracker_arguments(parser)
    parser.add_argument("--canny-low", type=float, dest="canny_low")
    parser.add_argument("--canny-high", type=float, dest="canny_high")
    parser.add_argument("--reproj-threshold", type=float, dest="reproj_threshold_px")
    parser.add_argument("--gap-tolerance", type=int, dest="gap_tolerance_frames")
    parser.add_argument("--validate-bounds", action="store_true", default=None)
    parser.add_argument("--parallelism", type=int)


def _config_with_flags(args: argparse.Namespace, names) -> PipelineConfig:
    """The ``--config`` file, or the defaults, overridden by the named flags."""
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    return config.with_overrides({name: getattr(args, name, None) for name in names})


def _build_pipeline_config(args: argparse.Namespace, stage: str | None = None) -> PipelineConfig:
    config = _config_with_flags(args, (
        "detections_path", "keypoints_path", "landmarks_path", "calibration_path",
        "frames_dir", "truth_path", "match_truth_path", "output_dir",
        "stage", "use_mask", "fusion", "ratio", "knn_k", "min_support",
        "landmark_anchor", "fuse_radius_m", "canny_low", "canny_high",
        "reproj_threshold_px", "gap_tolerance_frames", "validate_bounds",
        "parallelism", *TRACKER_FIELDS,
    ))

    overrides = {}
    if getattr(args, "pairs", None):
        parsed = []
        for text in args.pairs:
            parts = text.split(",")
            if len(parts) != 2:
                raise ConfigError(f"--pair expects CAMA,CAMB, got {text!r}")
            parsed.append(parts)
        overrides["camera_pairs"] = parsed
    if stage is not None:
        overrides["stage"] = stage

    config = config.with_overrides(overrides)
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
    config = _build_pipeline_config(args, stage=stage)
    run_pipeline(config)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SceneConfig(
        seed=args.seed,
        bird_count=args.birds,
        camera_count=args.cameras,
        duration_s=args.duration,
        fps=args.fps,
        landmark_count=args.landmarks,
        ambiguity=args.ambiguity,
        descriptor_noise=args.descriptor_noise,
        pixel_noise=args.pixel_noise,
        descriptor_length=args.descriptor_length,
        motion=args.motion,
        image_size=_parse_size(args.image_size),
        focal_px=args.focal,
        emit_frames=args.emit_frames,
    )
    bundle = generate(config)
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
        raise ConfigError(f"--image-size expects WxH, got {text!r}")


def _cmd_overlay(args: argparse.Namespace) -> int:
    args.stage = None
    args.config = getattr(args, "config", None)
    return _cmd_run(args, stage="voronoi-overlay")


def _cmd_mask(args: argparse.Namespace) -> int:
    detections = dataio.read_detections(args.detections)
    keypoints = dataio.read_keypoints(args.keypoints) if args.keypoints else []
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    boxes: dict[tuple[str, int], list] = {}
    for det in detections:
        boxes.setdefault((det.camera_id, det.frame), []).append(det.box)
    grouped: dict[tuple[str, int], list] = {}
    for kp in keypoints:
        grouped.setdefault((kp.camera_id, kp.frame), []).append(kp)

    gated = []
    for (camera_id, frame) in sorted(boxes):
        pgm = dataio.frame_path(args.frames, camera_id, frame)
        if not pgm.exists():
            raise IngestError(pgm, "frame file missing for mask stage")
        gray = read_pgm(pgm)
        mask = build_frame_mask(
            gray, boxes[(camera_id, frame)], low=args.low, high=args.high
        )
        if args.emit_masks:
            write_pgm(out_dir / f"mask_{camera_id}_frame{frame}.pgm", mask)
        gated.extend(gate_keypoints(mask, grouped.get((camera_id, frame), [])))

    if keypoints:
        dataio.write_keypoints(out_dir / "keypoints_gated.csv", gated)
        logger.info("gated %d of %d keypoints", len(gated), len(keypoints))
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    rows = dataio.read_observations(args.observations)
    observations_by_frame: dict[int, list] = {}
    for frame, _, position, _, _ in rows:
        observations_by_frame.setdefault(frame, []).append(position)
    config = _config_with_flags(args, TRACKER_FIELDS)
    config.validate()
    track_rows = run_tracker(observations_by_frame, config.tracker_config())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_tracks(out_dir / "tracks.csv", track_rows)
    (out_dir / "trajectories.svg").write_text(render_trajectories(track_rows))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    track_rows = dataio.read_tracks(args.tracks)
    truth = GroundTruth(positions=dataio.read_truth(args.truth), identities={})
    report = {
        "table5": tracking_metrics(
            track_rows, truth, fps=args.fps, gate=args.gate,
            gap_tolerance_frames=args.gap_tolerance,
        )
    }
    dataio.write_metrics(args.out, report)
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
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--birds", type=int, default=5)
    synth.add_argument("--cameras", type=int, default=5)
    synth.add_argument("--duration", type=float, default=2.0, help="seconds")
    synth.add_argument("--fps", type=float, default=30.0)
    synth.add_argument("--landmarks", type=int, default=6)
    synth.add_argument("--ambiguity", type=float, default=0.0)
    synth.add_argument("--descriptor-noise", type=float, default=0.0)
    synth.add_argument("--pixel-noise", type=float, default=0.0)
    synth.add_argument("--descriptor-length", type=int, default=128)
    synth.add_argument("--motion", choices=("free", "anchored", "crossing"), default="free")
    synth.add_argument("--image-size", default="1920x1080")
    synth.add_argument("--focal", type=float, default=None, help="focal length in px")
    synth.add_argument("--emit-frames", action="store_true")
    synth.set_defaults(func=_cmd_synth)

    run = sub.add_parser("run", help="run the full pipeline")
    _add_run_arguments(run)
    run.set_defaults(func=_cmd_run)

    match = sub.add_parser("match", help="run matching + rejection + clustering only")
    _add_run_arguments(match)
    match.set_defaults(func=lambda a: _cmd_run(a, stage="match"))

    reconstruct = sub.add_parser("reconstruct", help="run through 3D reconstruction")
    _add_run_arguments(reconstruct)
    reconstruct.set_defaults(func=lambda a: _cmd_run(a, stage="reconstruct"))

    overlay = sub.add_parser("overlay", help="emit Voronoi overlay SVGs only")
    overlay.add_argument("--landmarks", dest="landmarks_path", required=True)
    overlay.add_argument("--calibration", dest="calibration_path", required=True)
    overlay.add_argument("--out", dest="output_dir", default="out")
    overlay.add_argument("--input", default=None)
    overlay.set_defaults(func=_cmd_overlay)

    mask = sub.add_parser("mask", help="build masks from frames and gate keypoints")
    mask.add_argument("--frames", required=True)
    mask.add_argument("--detections", required=True)
    mask.add_argument("--keypoints")
    mask.add_argument("--out", required=True)
    mask.add_argument("--low", type=float, default=50.0)
    mask.add_argument("--high", type=float, default=150.0)
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
    evaluate.add_argument("--fps", type=float, default=30.0)
    evaluate.add_argument("--gate", type=float, default=0.5)
    evaluate.add_argument("--gap-tolerance", type=int, default=0)
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

"""Command-line interface.

Two subcommands cover the whole workflow: ``synth`` writes a synthetic
dataset bundle and ``run`` executes the whole pipeline. Flag precedence
is CLI > config file > defaults.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .errors import AvitrackError, ConfigError
from .matching import ANCHORS
from .pipeline import REQUIRED_INPUTS, PipelineConfig, run_pipeline
from .synthworld import MOTION_MODES, SceneConfig, generate
from .tracking import ASSOCIATIONS

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


def pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The config ``run``'s parsed ``args`` ask for: the ``--config`` file,
    or the defaults, overridden by every flag given."""
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    config = config.with_overrides(_given(args, PipelineConfig))
    if args.input:
        config = config.for_bundle_dir(args.input)
    for name in REQUIRED_INPUTS:
        if not getattr(config, name):
            raise ConfigError(
                f"missing required input {name}; pass --input or the explicit flag"
            )
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    run_pipeline(pipeline_config(args))
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

    run = sub.add_parser("run", help="run the whole pipeline")
    run.add_argument("--config", help="pipeline config JSON")
    run.add_argument("--input", help="dataset bundle directory (fills input paths)")
    add = _settings(run)
    add("--detections", "detections_path")
    add("--keypoints", "keypoints_path")
    add("--landmarks", "landmarks_path")
    add("--calibration", "calibration_path")
    add("--recording", "recording_path", help="recording.json: frame rate and aviary box")
    add("--frames", "frames_dir")
    add("--truth", "truth_path")
    add("--match-truth", "match_truth_path")
    add("--out", "output_dir")
    add("--pair", "camera_pairs", action="append", type=lambda text: text.split(","),
        metavar="CAMA,CAMB", help="camera pair to match (repeatable; default all pairs)")
    add("--use-mask")
    add("--ratio")
    add("--min-support")
    add("--landmark-anchor", choices=ANCHORS)
    add("--fuse-radius", "fuse_radius_m")
    add("--gate", "gate_m")
    add("--jerk-sigma")
    add("--meas-sigma", "meas_sigma_m")
    add("--confirm-hits")
    add("--max-misses")
    add("--association", choices=ASSOCIATIONS)
    add("--canny-low")
    add("--canny-high")
    add("--reproj-threshold", "reproj_threshold_px")
    add("--gap-tolerance", "gap_tolerance_frames")
    add("--parallelism")
    run.set_defaults(func=_cmd_run)

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

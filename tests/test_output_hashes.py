"""Pinned output bytes: ``avitrack run`` and ``DatasetBundle.write`` must write
exactly the recorded files.

Each run case generates a small scene of ``BUNDLE_SCENES`` (the
``crowded``-like one: 40 birds, 8-d descriptors, 0.5 s; the ``masked``
one, with frames; or a 9-camera rig), runs ``avitrack run`` on it and compares the SHA-256
of every output file with ``tests/data/run_output_sha256.json``. Each bundle
case generates a small scene and compares the SHA-256 of every file that
``generate(...).write`` makes, frames included, with
``tests/data/bundle_sha256.json``. A change that alters outputs on purpose
re-records both files with

    PYTHONPATH=src python tests/test_output_hashes.py

which prints each (file, case, output) whose hash it changes, and says so
in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from avitrack.cli import main
from avitrack.synthworld import SceneConfig, generate

HASHES = Path(__file__).resolve().parent / "data" / "run_output_sha256.json"
BUNDLE_HASHES = Path(__file__).resolve().parent / "data" / "bundle_sha256.json"
SCENE = SceneConfig(seed=3, bird_count=40, duration_s=0.5, descriptor_length=8,
                    keypoints_per_detection=(3, 6), descriptor_noise=0.05,
                    pixel_noise=0.5)
# Run case: (scene of ``BUNDLE_SCENES``, ``avitrack run`` flags).
CASES = {
    "crowded-parallelism-2": ("crowded", ["--parallelism", "2"]),
    "crowded-detection-center": ("crowded", ["--parallelism", "2", "--landmark-anchor",
                                             "detection_center", "--min-support", "1"]),
    "masked-use-mask": ("masked", ["--use-mask"]),
    "crowded-optimal": ("crowded", ["--association", "optimal"]),
    "crowded-tracker-flags": ("crowded", ["--max-misses", "2", "--gate", "0.3",
                                          "--jerk-sigma", "5", "--confirm-hits", "4",
                                          "--fps", "24"]),
    "nine-cameras": ("nine-cameras", []),
}
# Small versions of the benchmark scenes: the quickstart (128-d), crowded
# (8-d, pixel noise), masked (frames drawn) and look-alike birds; and a
# 9-camera rig, where an observation can have more than 8 error cells.
BUNDLE_SCENES = {
    "quickstart": SceneConfig(seed=42, bird_count=5, duration_s=0.5),
    "crowded": SCENE,
    "masked": SceneConfig(seed=42, bird_count=5, duration_s=0.3, image_size=(320, 180),
                          emit_frames=True),
    "ambiguous": SceneConfig(seed=1, bird_count=10, duration_s=0.3, ambiguity=0.5,
                             descriptor_noise=0.05, pixel_noise=0.5),
    "nine-cameras": SceneConfig(seed=5, bird_count=8, camera_count=9, duration_s=0.5,
                                descriptor_length=8),
}


def run_hashes(bundle: Path, out: Path, flags: list[str]) -> dict[str, str]:
    """The SHA-256 of every file ``avitrack run`` writes, by file name."""
    assert main(["run", "--input", str(bundle), "--out", str(out), *flags]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def bundle_hashes(scene: SceneConfig, out: Path) -> dict[str, str]:
    """The SHA-256 of every file the bundle of ``scene`` writes, frames
    included, by path relative to ``out``."""
    generate(scene).write(out)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """The bundle of a scene of ``BUNDLE_SCENES``, written once per module."""
    written = {}

    def bundle(scene: str) -> Path:
        if scene not in written:
            written[scene] = tmp_path_factory.mktemp(scene)
            generate(BUNDLE_SCENES[scene]).write(written[scene])
        return written[scene]
    return bundle


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_writes_the_recorded_bytes(bundles, tmp_path, case):
    expected = json.loads(HASHES.read_text())[case]
    scene, flags = CASES[case]
    assert run_hashes(bundles(scene), tmp_path / "out", flags) == expected


@pytest.mark.parametrize("scene", sorted(BUNDLE_SCENES))
def test_bundle_writes_the_recorded_bytes(tmp_path, scene):
    expected = json.loads(BUNDLE_HASHES.read_text())[scene]
    assert bundle_hashes(BUNDLE_SCENES[scene], tmp_path / "bundle") == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for scene in sorted({scene for scene, _ in CASES.values()}):
            generate(BUNDLE_SCENES[scene]).write(work / f"run-{scene}")
        record = {case: run_hashes(work / f"run-{scene}", work / case, flags)
                  for case, (scene, flags) in sorted(CASES.items())}
        bundles = {scene: bundle_hashes(config, work / f"bundle-{scene}")
                   for scene, config in sorted(BUNDLE_SCENES.items())}
    for path, hashes in ((HASHES, record), (BUNDLE_HASHES, bundles)):
        old = json.loads(path.read_text()) if path.exists() else {}
        for case, files in hashes.items():
            for name in sorted(files.keys() | old.get(case, {}).keys()):
                if files.get(name) != old.get(case, {}).get(name):
                    print(f"changed: {path.name} {case} {name}", file=sys.stderr)
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HASHES} and {BUNDLE_HASHES}", file=sys.stderr)

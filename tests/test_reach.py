"""Reach guard: every avitrack function runs under some CLI command, or is
listed here with the reason it does not.

``cli.main`` runs both subcommands and the ``run`` variants on a 0.3-s,
320x180 scene with frames, plus one malformed file per fast-path reader,
in a fresh interpreter under ``sys.setprofile``, so functions that run at
import count too. The functions that no command reaches must be exactly
``UNREACHED``. Code that nothing runs then cannot pile up unnoticed:
deleting such a function, or giving it a caller, means updating the list,
and so does adding one that no command reaches.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from avitrack.pipeline import PipelineConfig
from avitrack.synthworld import SceneConfig, generate

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "avitrack"

PIN = "pin: perfbench/spans.py wraps or iterates it (ROADMAP item 2, step 2)"
POOL = "pool: runs only in pool workers"
PICKLE = "pickling: runs only when an error crosses the process pool"


def _criterion(number: int, what: str) -> str:
    return f"criterion {number}: tests/test_acceptance.py {what}"


UNREACHED = {
    "avitrack.camera.project": PIN,
    "avitrack.errors.IngestError.__reduce__": PICKLE,
    "avitrack.mask.canny_edges": _criterion(9, "checks Canny on its own"),
    "avitrack.mask.lateral_fill": _criterion(9, "checks the lateral fill on its own"),
    "avitrack.matching.Keypoint.__post_init__": PIN,
    "avitrack.matching.KeypointTable.__iter__": PIN,
    "avitrack.matching.KeypointTable.keypoints": PIN,
    "avitrack.matching.MatchTable.__iter__": PIN,
    "avitrack.metrics.GroundTruth.match_is_correct": _criterion(3, "scores single matches"),
    "avitrack.pipeline._init_worker": POOL,
    "avitrack.pipeline._process_frame_at": POOL,
    "avitrack.synthworld.truth_labels": _criterion(3, "takes the truth of a bundle in memory"),
    "avitrack.voronoi.nearest_landmark": PIN,
    "avitrack.voronoi.polygon_contains": _criterion(1, "checks each cell against a grid"),
}

# Runs ``main`` on each JSON-encoded argv in a fresh interpreter, profiled
# from before the first avitrack import, and writes the exit codes and the
# (file, qualified name) of every avitrack function called.
_PROFILED_MAIN = """
import json, sys
from pathlib import Path

root, result, *commands = sys.argv[1:]
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root):
        called.add((Path(code.co_filename).stem, code.co_qualname))

sys.setprofile(profile)
from avitrack.cli import main
codes = [main(json.loads(argv)) for argv in commands]
sys.setprofile(None)
Path(result).write_text(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def _qualified(stem: str, qualname: str) -> str:
    return f"avitrack.{qualname}" if stem == "__init__" else f"avitrack.{stem}.{qualname}"


def _defined_functions() -> set[str]:
    """The qualified name of every named function in the package source."""
    names = set()

    def visit(code: types.CodeType, stem: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # Class bodies run at import; lambdas and comprehensions have no name.
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    names.add(_qualified(stem, const.co_qualname))
                visit(const, stem)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(compile(path.read_text(), str(path), "exec"), path.stem)
    return names


def _profiled(commands: list[list[str]], result: Path) -> tuple[list[int], set[str]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    subprocess.run(
        [sys.executable, "-c", _PROFILED_MAIN, str(PACKAGE), str(result),
         *map(json.dumps, commands)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    done = json.loads(result.read_text())
    return done["codes"], {_qualified(*called) for called in done["called"]}


def _rewritten(path: Path, out: Path, row: int, edit) -> Path:
    """``path`` with line ``row`` replaced by ``edit(line)``."""
    lines = path.read_text().splitlines()
    lines[row] = edit(lines[row])
    out.write_text("\n".join(lines) + "\n")
    return out


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[str]:
    tmp = tmp_path_factory.mktemp("reach")
    bundle, out = tmp / "bundle", tmp / "out"
    scene = ["--duration", "0.3", "--image-size", "320x180", "--emit-frames",
             "--descriptor-length", "16"]
    codes, synth_reached = _profiled([
        ["synth", "--out", str(bundle), "--motion", "anchored", *scene],
        ["synth", "--out", str(tmp / "crossing"), "--motion", "crossing", *scene],
    ], tmp / "synth.json")
    assert codes == [0, 0]

    config = tmp / "config.json"
    config.write_text(json.dumps({"ratio": 0.8, "camera_pairs": [["cam0", "cam2"]]}))
    run = ["run", "--input", str(bundle)]
    commands = [
        [*run, "--out", str(out)],
        [*run, "--out", str(tmp / "masked"), "--use-mask"],
        [*run, "--out", str(tmp / "pair"), "--pair", "cam0,cam1"],
        [*run, "--out", str(tmp / "config"), "--config", str(config)],
        [*run, "--out", str(tmp / "options"), "--association", "optimal",
         "--landmark-anchor", "detection_center", "--validate-bounds"],
    ]
    expected = [0] * len(commands)
    # A non-number in a row: each fast-path reader hands the file to its
    # strict reader, which names the row.
    for flag, name in (("--detections", "detections.csv"), ("--keypoints", "keypoints.csv"),
                       ("--match-truth", "match_truth.csv")):
        bad = _rewritten(bundle / name, tmp / f"bad_{name}", 1,
                         lambda line: line.rsplit(",", 1)[0] + ",x")
        commands.append([*run, "--out", str(tmp / f"bad_{name}.out"), flag, str(bad)])
        expected.append(2)
    # A quoted camera id is valid CSV that only the strict reader takes.
    quoted = _rewritten(bundle / "keypoints.csv", tmp / "quoted_keypoints.csv", 1,
                        lambda line: '"{}",{}'.format(*line.split(",", 1)))
    commands.append([*run, "--out", str(tmp / "quoted"), "--keypoints", str(quoted)])
    expected.append(0)

    codes, run_reached = _profiled(commands, tmp / "run.json")
    assert codes == expected
    return synth_reached | run_reached


def test_unreached_functions_are_the_listed_ones(reached):
    unreached = _defined_functions() - reached
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no command; list or delete"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed, but a command reaches it now"


def test_every_reason_is_a_known_one():
    kinds = ("pin: ", "pool: ", "pickling: ", "criterion ")
    assert all(reason.startswith(kinds) for reason in UNREACHED.values())


def _resolve(name: str):
    """The object a qualified ``avitrack.<module>.<attribute...>`` name names."""
    module, *attributes = name.split(".")[1:]
    found = importlib.import_module(f"avitrack.{module}")
    for attribute in attributes:
        found = getattr(found, attribute)
    return found


def test_every_pin_is_wrapped_or_counted(tmp_path):
    """A ``PIN`` entry is the object that a ``spans.LAYERS`` entry wraps,
    or a function that the tracer's counters call over a traced run, so a
    pin that the benchmark no longer holds cannot stay listed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bundle = tmp_path / "bundle"
    generate(SceneConfig(duration_s=0.5, seed=5, image_size=(640, 360), focal_px=360.0,
                         emit_frames=True)).write(bundle)

    wrapped = [getattr(module, attr) for module, attr, _ in spans.LAYERS]
    tracer = spans.Tracer("pins")
    for module, attr, name in spans.LAYERS:
        tracer.wrap(module, attr, name)
    count = spans.Tracer._count.__code__
    counting, counted = [], set()

    def profile(frame, event, arg):
        if frame.f_code is count:
            if event == "call":
                counting.append(frame)
            elif event == "return":
                counting.pop()
        elif event == "call" and counting:
            counted.add(frame.f_code)

    config = PipelineConfig(use_mask=True, output_dir=str(tmp_path / "out"))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        tracer.run(config.for_bundle_dir(bundle))
    finally:
        sys.setprofile(previous)
    pins = [name for name, reason in UNREACHED.items() if reason == PIN]
    assert counted and len(pins) > 1
    assert [name for name in pins
            if not any(_resolve(name) is held for held in wrapped)
            and _resolve(name).__code__ not in counted] == []

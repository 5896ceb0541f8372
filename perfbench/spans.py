"""Per-layer spans for the traced run, recorded from outside the program.

The pipeline looks up its stage functions as module globals at call time,
so wrapping those globals times every call without editing the program.
Each span keeps its name, start, end, parent span and run id in memory;
all spans are written to ``spans.jsonl`` in the run's work directory when
the run ends. Counts come from the wrapped calls' arguments and results.

The traced path makes three in-process runs of ``run_pipeline`` on the
reference bundle:

1. untraced at parallelism 1, timing only the per-frame phase;
2. traced at parallelism 1, every layer wrapped;
3. at parallelism 2, timing only the process pool's lifetime.

All three must write the same bytes. ``trace.overhead_s`` is run 2's
wall time minus run 1's, and ``pipeline.pool_speedup`` is run 1's
per-frame phase over run 3's pool lifetime.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from avitrack import dataio, matching, pipeline, reconstruction
from avitrack.pipeline import PipelineConfig, run_pipeline

# (module, global, span name). Several globals may share one span name.
LAYERS = [
    *[(dataio, f, "dataio.read_other") for f in (
        "read_calibration", "read_landmarks", "read_detections",
        "read_truth", "read_match_truth")],
    (dataio, "read_keypoints", "dataio.read_keypoints"),
    *[(dataio, f, "dataio.write") for f in (
        "write_observations", "write_tracks", "write_metrics")],
    (pipeline, "knn_match", "matching.knn"),
    (pipeline, "reject_by_landmark", "matching.reject"),
    (pipeline, "cluster_correspondences", "matching.cluster"),
    (matching, "nearest_landmark", "voronoi.nearest_landmark"),
    (pipeline, "reconstruct_frame", "reconstruction.frame"),
    (reconstruction, "triangulate_batch", "reconstruction.triangulate"),
    (reconstruction, "project", "camera.project"),
    (pipeline, "reconstruction_stats", "reconstruction.stats"),
    (pipeline, "run_tracker", "tracking.run"),
    (pipeline, "render_trajectories", "tracking.render"),
    (pipeline, "keypoint_stats", "metrics.keypoint"),
    (pipeline, "rejection_stats", "metrics.rejection"),
    (pipeline, "tracking_metrics", "metrics.tracking"),
    (pipeline, "build_bounded_diagram", "voronoi.overlay"),
    (pipeline, "render_overlay", "voronoi.overlay"),
    *[(pipeline, f, "mask") for f in ("read_pgm", "build_frame_mask", "gate_keypoints")],
]

PER_LAYER = {
    "dataio.read_keypoints_s": "s",
    "dataio.read_keypoints_mb_per_s": "MB/s",
    "dataio.rows_in": "count",
    "dataio.read_other_s": "s",
    "dataio.write_s": "s",
    "synthworld.generate_s": "s",
    "synthworld.write_s": "s",
    "matching.knn_s": "s",
    "matching.knn_calls": "count",
    "matching.candidates": "count",
    "matching.ratio_pass": "ratio",
    "matching.reject_s": "s",
    "matching.kept": "count",
    "matching.kept_ratio": "ratio",
    "voronoi.nearest_landmark_calls": "count",
    "voronoi.nearest_landmark_s": "s",
    "matching.cluster_s": "s",
    "matching.correspondences": "count",
    "reconstruction.frame_s": "s",
    "reconstruction.triangulate_s": "s",
    "reconstruction.triangulated": "count",
    "reconstruction.observations": "count",
    "reconstruction.stats_s": "s",
    "camera.project_calls": "count",
    "camera.project_s": "s",
    "tracking.run_s": "s",
    "tracking.rows": "count",
    "tracking.render_s": "s",
    "metrics.tracking_s": "s",
    "metrics.rejection_s": "s",
    "mask.share_pct": "%",
    "mask.keep_ratio": "ratio",
    "voronoi.overlay_s": "s",
    "cli.startup_s": "s",
    "pipeline.self_s": "s",
    "pipeline.pool_speedup": "ratio",
    "trace.overhead_s": "s",
}


def _one_frame_one_pair(keypoints_a, keypoints_b) -> bool:
    side_a = {(kp.frame, kp.camera_id) for kp in keypoints_a}
    side_b = {(kp.frame, kp.camera_id) for kp in keypoints_b}
    if len(side_a) != 1 or len(side_b) != 1:
        return False
    (frame_a, cam_a), (frame_b, cam_b) = side_a.pop(), side_b.pop()
    return frame_a == frame_b and cam_a != cam_b


class Tracer:
    """Wraps module globals for the length of one run and keeps its spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            self._count(attr, args, result, parent)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _count(self, function: str, args: tuple, result, parent) -> None:
        c = self.counts
        if function == "read_keypoints":
            c["rows_in"] += len(result)
        elif function == "knn_match":
            c["knn_in"] += len(args[0])
            c["candidates"] += len(result)
            if not _one_frame_one_pair(args[0], args[1]):
                self.problems.append("a knn_match call spans frames or camera pairs")
        elif function == "reject_by_landmark":
            c["reject_in"] += len(args[0])
            verdicts = Counter(m.verdict for m in result[0])
            c["kept"] += verdicts[matching.KEPT]
            c["rejected"] += verdicts[matching.REJECTED]
        elif function == "cluster_correspondences":
            c["correspondences"] += len(result)
        elif function == "reconstruct_frame":
            c["observations"] += len(result)
        elif function == "triangulate_batch":
            if parent is not None and self.spans[parent][0] == "reconstruction.frame":
                c["triangulated"] += int((~np.isnan(result).any(axis=1)).sum())
        elif function == "run_tracker":
            c["tracking_rows"] += len(result)
        elif function == "gate_keypoints":
            c["mask_in"] += len(args[1])
            c["mask_kept"] += len(result)

    def totals(self) -> tuple[dict, dict, Counter]:
        """Total time, self time and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child_time[index]
        return total, own, calls

    def run(self, config: PipelineConfig) -> float:
        """Run the pipeline under one root span; returns its wall time."""
        root = len(self.spans)
        self.spans.append(["pipeline.run", time.perf_counter(), None, None, self.run_id])
        self.stack.append(root)
        try:
            run_pipeline(config)
        finally:
            self.spans[root][2] = time.perf_counter()
            self.stack.pop()
            self.unwrap()
        return self.spans[root][2] - self.spans[root][1]


def _pool_timer(lifetimes: list[float]):
    """A ProcessPoolExecutor that appends its construction-to-shutdown time."""

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._born = time.perf_counter()
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                lifetimes.append(time.perf_counter() - self._born)

    return TimedPool


def traced_metrics(bench, seed: int, setup: tuple[float, float], startup: float) -> dict:
    """Per-layer metrics for ``seed``'s bundle; problems fail the traced run.

    ``setup`` is one set-up's (generate, write) seconds and ``startup`` the
    median wall time of a child that only imports ``avitrack.cli``.
    """
    bundle = bench.bundle(seed)
    settings = bench.workload.config

    def config(out, parallelism):
        fields = dict(settings, parallelism=parallelism)
        return PipelineConfig(output_dir=str(out), **fields).for_bundle_dir(bundle)

    plain = Tracer("untraced")
    plain.wrap(pipeline, "_process_frame", "pipeline.frame")
    plain_wall = plain.run(config(bench.work / "out-untraced", 1))
    bench.check(seed, bench.work / "out-untraced", "untraced run")
    serial_frames_s = plain.totals()[0]["pipeline.frame"]

    tracer = Tracer("traced")
    for module, attr, name in LAYERS:
        tracer.wrap(module, attr, name)
    traced_wall = tracer.run(config(bench.work / "out-traced", 1))

    lifetimes: list[float] = []
    original_pool = pipeline.ProcessPoolExecutor
    pipeline.ProcessPoolExecutor = _pool_timer(lifetimes)
    try:
        run_pipeline(config(bench.work / "out-pooled", 2))
    finally:
        pipeline.ProcessPoolExecutor = original_pool
    bench.check(seed, bench.work / "out-pooled", "pooled run")

    with open(bench.work / "spans.jsonl", "w") as fh:
        for span in plain.spans + tracer.spans:
            fh.write(json.dumps(span) + "\n")

    total, own, calls = tracer.totals()
    c = tracer.counts
    problems = list(tracer.problems)
    if c["candidates"] != c["kept"] + c["rejected"]:
        problems.append(f"candidates {c['candidates']} != kept {c['kept']} "
                        f"+ rejected {c['rejected']}")
    if c["reject_in"] != c["candidates"]:
        problems.append(f"rejection saw {c['reject_in']} of {c['candidates']} candidates")
    if c["observations"] > c["triangulated"]:
        problems.append(f"observations {c['observations']} > "
                        f"triangulated {c['triangulated']}")
    bench.check(seed, bench.work / "out-traced", "traced run", problems)

    keypoint_bytes = (bundle / "keypoints.csv").stat().st_size
    values = {
        "dataio.read_keypoints_s": total["dataio.read_keypoints"],
        "dataio.read_keypoints_mb_per_s":
            keypoint_bytes / 1e6 / total["dataio.read_keypoints"],
        "dataio.rows_in": c["rows_in"],
        "dataio.read_other_s": total["dataio.read_other"],
        "dataio.write_s": total["dataio.write"],
        "synthworld.generate_s": setup[0],
        "synthworld.write_s": setup[1],
        "matching.knn_s": total["matching.knn"],
        "matching.knn_calls": calls["matching.knn"],
        "matching.candidates": c["candidates"],
        "matching.ratio_pass": c["candidates"] / max(c["knn_in"], 1),
        "matching.reject_s": own["matching.reject"],
        "matching.kept": c["kept"],
        "matching.kept_ratio": c["kept"] / max(c["candidates"], 1),
        "voronoi.nearest_landmark_calls": calls["voronoi.nearest_landmark"],
        "voronoi.nearest_landmark_s": total["voronoi.nearest_landmark"],
        "matching.cluster_s": total["matching.cluster"],
        "matching.correspondences": c["correspondences"],
        "reconstruction.frame_s": own["reconstruction.frame"],
        "reconstruction.triangulate_s": total["reconstruction.triangulate"],
        "reconstruction.triangulated": c["triangulated"],
        "reconstruction.observations": c["observations"],
        "reconstruction.stats_s": total["reconstruction.stats"],
        "camera.project_calls": calls["camera.project"],
        "camera.project_s": total["camera.project"],
        "tracking.run_s": total["tracking.run"],
        "tracking.rows": c["tracking_rows"],
        "tracking.render_s": total["tracking.render"],
        "metrics.tracking_s": total["metrics.tracking"],
        "metrics.rejection_s": total["metrics.rejection"],
        "mask.share_pct": 100.0 * total["mask"] / total["pipeline.run"],
        "mask.keep_ratio": c["mask_kept"] / c["mask_in"] if c["mask_in"] else 1.0,
        "voronoi.overlay_s": total["voronoi.overlay"],
        "cli.startup_s": startup,
        "pipeline.self_s": own["pipeline.run"],
        "pipeline.pool_speedup": serial_frames_s / lifetimes[0] if lifetimes else 1.0,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    bench.record["trace"] = {"untraced_s": plain_wall, "traced_s": traced_wall,
                             "serial_frames_s": serial_frames_s,
                             "pool_lifetime_s": lifetimes, "counts": dict(c)}
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}

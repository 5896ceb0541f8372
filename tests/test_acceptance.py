"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from avitrack.camera import MIN_DEPTH, project_points
from avitrack.cli import main
from avitrack.matching import KEPT, knn_match, reject_by_landmark
from avitrack.mask import GrayFrame, canny_edges, lateral_fill
from avitrack.metrics import GroundTruth, rejection_stats, tracking_metrics
from avitrack.reconstruction import ideal_pixels, reconstruction_stats, triangulate_batch
from avitrack.synthworld import SceneConfig, build_camera_rig, generate, truth_labels
from avitrack.tracking import predict, update
from avitrack.voronoi import (
    LandmarkSet,
    build_bounded_diagram,
    nearest_landmarks_many,
    polygon_area,
    polygon_contains,
)
from avitrack.matching import FeatureMatch, Keypoint
from matching_reference import pair_matches_loop, table_of


def _pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


# --- shared ambiguous scene for criteria 3 and 4 -------------------------

SIX_LANDMARKS = [
    (0.7, 0.7, 0.5), (3.3, 0.7, 0.5), (2.0, 2.7, 0.5),
    (0.7, 2.7, 1.5), (3.3, 2.7, 1.5), (2.0, 0.7, 1.5),
]


@pytest.fixture(scope="module")
def ambiguous_scene():
    """5 identical-looking birds anchored in distinct landmark cells, 300 frames."""
    config = SceneConfig(
        duration_s=10.0, seed=11, bird_count=5, ambiguity=1.0,
        descriptor_noise=0.05, landmarks=SIX_LANDMARKS, motion="anchored",
        wander_radius_m=0.2, occlusion=False,
    )
    bundle = generate(config)
    grouped = {}
    for kp in bundle.keypoints:
        grouped.setdefault((kp.camera_id, kp.frame), []).append(kp)
    decided, summaries = [], []
    for frame in range(config.frame_count):
        kps_a = grouped.get(("cam0", frame), [])
        kps_b = grouped.get(("cam1", frame), [])
        if not kps_a or not kps_b:
            continue
        candidates = knn_match(table_of(kps_a), table_of(kps_b))
        frame_decided, frame_summaries = reject_by_landmark(candidates, bundle.landmark_set)
        decided.extend(frame_decided)
        summaries += frame_summaries
    return bundle, decided, summaries


def test_criterion_1_voronoi_oracle_equivalence():
    """Cell membership equals brute-force nearest-site on a 64x64 grid."""
    started = time.monotonic()
    w, h = 1920, 1080
    xs = (np.arange(64) + 0.5) * w / 64
    ys = (np.arange(64) + 0.5) * h / 64
    grid = np.array([[x, y] for y in ys for x in xs])

    rng = np.random.default_rng(101)
    checked = 0
    for trial in range(50):
        count = int(rng.integers(1, 31))
        landmarks = LandmarkSet({"cam": (w, h)})
        for gid, site in enumerate(rng.uniform([0, 0], [w, h], size=(count, 2))):
            landmarks.add("cam", gid, site)
        diagram = build_bounded_diagram(landmarks, "cam")
        expected = nearest_landmarks_many(landmarks, "cam", grid)
        for gid, cell in zip(diagram.site_ids, diagram.cells):
            mine = expected == gid
            assert np.all(polygon_contains(cell, grid[mine], tol=1e-9)), (
                f"trial {trial}: grid points missing from cell {gid}"
            )
            assert not np.any(polygon_contains(cell, grid[~mine], tol=-1e-9)), (
                f"trial {trial}: foreign grid points strictly inside cell {gid}"
            )
            checked += int(mine.sum())
    elapsed = time.monotonic() - started
    assert checked == 50 * 64 * 64
    assert elapsed < 10.0
    _pass(1, f"50 configs x 4096 grid points, 100% agreement in {elapsed:.1f}s")


def test_criterion_2_boundedness_adversarial():
    """Collinear, single, and clustered sites all yield finite tiling cells."""
    w, h = 1920, 1080
    rng = np.random.default_rng(7)
    cluster = [(960.0 + 0.01 * i, 540.0 + 0.013 * i) for i in range(30)]
    configurations = [
        [(500.0, 500.0)],
        [(100.0 + 170.0 * i, 540.0) for i in range(10)],        # horizontal line
        [(100.0 + 150.0 * i, 90.0 + 85.0 * i) for i in range(10)],  # diagonal line
        cluster,
        [tuple(p) for p in rng.uniform([0, 0], [w, h], size=(30, 2))],
    ]
    for sites in configurations:
        landmarks = LandmarkSet({"cam": (w, h)})
        for gid, site in enumerate(sites):
            landmarks.add("cam", gid, site)
        diagram = build_bounded_diagram(landmarks, "cam")
        total = 0.0
        for cell in diagram.cells:
            assert len(cell) >= 3
            assert np.all(np.isfinite(cell))
            assert np.all((cell[:, 0] >= -1e-6) & (cell[:, 0] <= w + 1e-6))
            assert np.all((cell[:, 1] >= -1e-6) & (cell[:, 1] <= h + 1e-6))
            total += polygon_area(cell)
        assert total == pytest.approx(w * h, rel=1e-6)
    _pass(2, f"{len(configurations)} adversarial site layouts tile the frame exactly")


def test_criterion_3_landmark_rejection_efficacy(ambiguous_scene):
    """Worst-case similarity: rejection lifts precision from <=0.5 to >=0.95."""
    started = time.monotonic()
    bundle, decided, _ = ambiguous_scene
    truth = truth_labels(bundle)

    pre_total = len(decided)
    pre_correct = sum(truth.match_is_correct(m) for m in decided)
    kept = [m for m in decided if m.verdict == KEPT]
    kept_correct = sum(truth.match_is_correct(m) for m in kept)

    assert pre_total > 1000, "scene produced too few candidates to be meaningful"
    pre_precision = pre_correct / pre_total
    post_precision = kept_correct / len(kept)
    elapsed = time.monotonic() - started
    assert pre_precision <= 0.5
    assert post_precision >= 0.95
    assert elapsed < 60.0
    _pass(
        3,
        f"precision {pre_precision:.3f} -> {post_precision:.3f} over "
        f"{pre_total} candidates ({elapsed:.1f}s)",
    )


def test_criterion_4_rejection_magnitude_and_verdict_agreement(ambiguous_scene):
    """Table-3-shaped stats, and verdicts match exhaustive recomputation."""
    bundle, decided, summaries = ambiguous_scene
    truth = truth_labels(bundle)
    record = rejection_stats(summaries, truth)
    for field in (
        "avg_rejection_pct", "std_rejection_pct",
        "ratio_correct_final_over_initial", "ratio_correct_final_over_final",
    ):
        assert field in record
    assert 0.0 <= record["avg_rejection_pct"] <= 100.0

    # Exhaustive oracle: recompute both nearest landmarks per match from
    # the raw site arrays and require bitwise verdict agreement.
    sites = {}
    for camera_id in bundle.landmark_set.cameras():
        entries = bundle.landmark_set.entries(camera_id)
        sites[camera_id] = (
            np.array([gid for gid, _ in entries]),
            np.array([pos for _, pos in entries]),
        )
    disagreements = 0
    for match in decided:
        ids_a, pos_a = sites[match.keypoint_a.camera_id]
        ids_b, pos_b = sites[match.keypoint_b.camera_id]
        nearest_a = ids_a[
            np.argmin(((pos_a - match.keypoint_a.position) ** 2).sum(axis=1))
        ]
        nearest_b = ids_b[
            np.argmin(((pos_b - match.keypoint_b.position) ** 2).sum(axis=1))
        ]
        expected = "kept" if nearest_a == nearest_b else "rejected"
        disagreements += match.verdict != expected
    assert disagreements == 0
    _pass(
        4,
        f"avg rejection {record['avg_rejection_pct']:.1f}% +- "
        f"{record['std_rejection_pct']:.1f}, verdicts 100% oracle-consistent "
        f"({len(decided)} matches)",
    )


def test_criterion_5_triangulation_exactness():
    """Noiseless round trip <= 1e-6 m over 10,000 points and all rig pairs."""
    started = time.monotonic()
    rig = build_camera_rig(SceneConfig())
    rng = np.random.default_rng(55)
    points = rng.uniform([0.2, 0.2, 0.1], [3.8, 3.2, 1.9], size=(10_000, 3))
    cams = sorted(rig)
    worst = 0.0
    pairs = 0
    for i in range(len(cams)):
        pix_i, depth_i = project_points(rig[cams[i]], points)
        assert np.all(depth_i > MIN_DEPTH)
        ideal_i = ideal_pixels(rig[cams[i]], pix_i)
        for j in range(i + 1, len(cams)):
            pix_j, _ = project_points(rig[cams[j]], points)
            ideal_j = ideal_pixels(rig[cams[j]], pix_j)
            recovered = triangulate_batch(ideal_i, ideal_j, rig[cams[i]], rig[cams[j]])
            errors = np.linalg.norm(recovered - points, axis=1)
            worst = max(worst, float(errors.max()))
            pairs += 1
    elapsed = time.monotonic() - started
    assert pairs == 10
    assert worst <= 1e-6
    assert elapsed < 5.0
    _pass(5, f"max error {worst:.2e} m over 10 pairs x 10,000 points ({elapsed:.1f}s)")


def _ray_midpoint(pix1, pix2, cam1, cam2):
    """Independent oracle: closest-approach midpoint of the two sight lines."""
    n1 = cam1.undistort(np.asarray(pix1, dtype=float).reshape(1, 2))[0]
    n2 = cam2.undistort(np.asarray(pix2, dtype=float).reshape(1, 2))[0]
    d1 = cam1.rotation.T @ np.array([n1[0], n1[1], 1.0])
    d2 = cam2.rotation.T @ np.array([n2[0], n2[1], 1.0])
    o1 = -cam1.rotation.T @ cam1.translation
    o2 = -cam2.rotation.T @ cam2.translation
    w0 = o1 - o2
    a = d1 @ d1
    b = d1 @ d2
    c = d2 @ d2
    d = d1 @ w0
    e = d2 @ w0
    denom = a * c - b * b
    s = (b * e - c * d) / denom
    t = (a * e - b * d) / denom
    return ((o1 + s * d1) + (o2 + t * d2)) / 2.0


def test_criterion_6_triangulation_under_noise():
    """1px-noise error agrees with a 1000-trial ray-midpoint oracle within 10%."""
    rig = build_camera_rig(SceneConfig())
    cam_a, cam_b = rig["cam0"], rig["cam2"]
    rng = np.random.default_rng(66)
    points = rng.uniform([0.5, 0.5, 0.3], [3.5, 2.9, 1.7], size=(50, 3))
    trials_per_point = 20

    impl_errors = []
    oracle_errors = []
    for point in points:
        pix_a, _ = project_points(cam_a, point[None])
        pix_b, _ = project_points(cam_b, point[None])
        for _ in range(trials_per_point):
            noisy_a = pix_a[0] + rng.normal(0.0, 1.0, size=2)
            noisy_b = pix_b[0] + rng.normal(0.0, 1.0, size=2)
            via_dlt = triangulate_batch(
                ideal_pixels(cam_a, noisy_a), ideal_pixels(cam_b, noisy_b), cam_a, cam_b
            )[0]
            via_rays = _ray_midpoint(noisy_a, noisy_b, cam_a, cam_b)
            impl_errors.append(np.linalg.norm(via_dlt - point))
            oracle_errors.append(np.linalg.norm(via_rays - point))
    impl_mean = float(np.mean(impl_errors))
    oracle_mean = float(np.mean(oracle_errors))
    assert len(impl_errors) == 1000
    assert abs(impl_mean - oracle_mean) <= 0.10 * oracle_mean

    # The reconstruction report carries every reconstruction-table field.
    matches = []
    for idx, point in enumerate(points[:20]):
        pix_a, _ = project_points(cam_a, point[None])
        pix_b, _ = project_points(cam_b, point[None])
        matches.append(
            FeatureMatch(
                keypoint_a=Keypoint("cam0", 0, idx, pix_a[0] + rng.normal(0, 1, 2), np.zeros(2)),
                keypoint_b=Keypoint("cam2", 0, idx, pix_b[0] + rng.normal(0, 1, 2), np.zeros(2)),
                descriptor_distance=0.0, verdict=KEPT,
            )
        )
    record = reconstruction_stats(pair_matches_loop(matches), rig)
    for field in (
        "total_keypoints", "avg_reprojection_error_px", "std_reprojection_error_px",
        "min_reprojection_error_px", "max_reprojection_error_px",
        "pct_keypoints_below_threshold",
    ):
        assert field in record
    _pass(
        6,
        f"mean 3D error {impl_mean * 100:.2f} cm vs oracle {oracle_mean * 100:.2f} cm "
        f"({abs(impl_mean / oracle_mean - 1) * 100:.1f}% apart); report fields complete",
    )


def test_criterion_7_kalman_correctness():
    """Exact on noiseless lines after 3 updates; beats raw RMSE when noisy."""
    dt = 1.0 / 30.0
    zero_r = np.zeros((3, 3))
    rng = np.random.default_rng(77)
    for _ in range(10):
        start = rng.uniform(0.5, 3.0, size=3)
        velocity = rng.uniform(-2.0, 2.0, size=3)
        # One-track stacks: (1, 9) state, (1, 9, 9) covariance, (1, 3) measurement.
        state = np.concatenate([start, np.zeros(6)])[None]
        covariance = np.diag([1e-4] * 3 + [4.0] * 3 + [100.0] * 3)[None]
        for step in range(1, 10):
            truth = start + velocity * step * dt
            state, covariance = predict(state, covariance, dt=dt)
            state, covariance = update(state, covariance, truth[None], zero_r)
            if step >= 3:
                assert np.linalg.norm(state[0, :3] - truth) <= 1e-9

    sigma = 0.05
    wins = 0
    for seed in range(100):
        run_rng = np.random.default_rng(1000 + seed)
        position = run_rng.uniform(1.0, 3.0, size=3)
        velocity = run_rng.uniform(-1.0, 1.0, size=3)
        accel = run_rng.uniform(-2.0, 2.0, size=3)
        truth, observed = [], []
        for step in range(200):
            t = step * dt
            truth.append(position + velocity * t + 0.5 * accel * t * t)
            observed.append(truth[-1] + run_rng.normal(0, sigma, size=3))
        state = np.concatenate([observed[0], np.zeros(6)])[None]
        covariance = np.diag([sigma**2] * 3 + [4.0] * 3 + [100.0] * 3)[None]
        meas_cov = sigma**2 * np.eye(3)
        filtered = [state[0, :3].copy()]
        for z in observed[1:]:
            state, covariance = predict(state, covariance, dt=dt)
            state, covariance = update(state, covariance, z[None], meas_cov)
            filtered.append(state[0, :3].copy())
        truth_arr = np.array(truth)
        raw = np.sqrt(np.mean(np.sum((np.array(observed) - truth_arr) ** 2, axis=1)))
        filt = np.sqrt(np.mean(np.sum((np.array(filtered) - truth_arr) ** 2, axis=1)))
        wins += filt < raw
    assert wins >= 95
    _pass(7, f"noiseless exact after 3 updates; filtered < raw RMSE in {wins}/100 runs")


def test_criterion_8_tracking_metrics_crossing_swap():
    """Forced identity swap counts exactly 2 switches (hand-counted oracle)."""
    frames = 3000  # 100 s at 30 FPS, swap halfway so persistence is non-trivial
    speed = 0.0008
    truth_positions = {}
    id0_path, id1_path = [], []
    for frame in range(frames):
        p0 = np.array([speed * frame, 0.0, 1.0])
        p1 = np.array([2.4 - speed * frame, 0.3, 1.0])
        truth_positions[frame] = {0: p0, 1: p1}
        id0_path.append(p0)
        id1_path.append(p1)
    truth = GroundTruth(positions=truth_positions, identities={})

    # Tracks shadow the truth but swap identities at the crossing frame.
    swap_at = frames // 2
    rows = []
    for frame in range(frames):
        if frame < swap_at:
            rows.append((frame, 1, "confirmed", id0_path[frame]))
            rows.append((frame, 2, "confirmed", id1_path[frame]))
        else:
            rows.append((frame, 1, "confirmed", id1_path[frame]))
            rows.append((frame, 2, "confirmed", id0_path[frame]))

    record = tracking_metrics(rows, truth, fps=30.0)
    assert record["total_id_switches"] == 2

    # Each identity holds a single id for exactly 50 s: expect 100/100/0,
    # non-increasing like the reference ordering 77.1 >= 56.7 >= 26.7.
    p10 = record["birds_tracked_over_10s_pct"]
    p30 = record["birds_tracked_over_30s_pct"]
    p60 = record["birds_tracked_over_60s_pct"]
    assert (p10, p30, p60) == (100.0, 100.0, 0.0)
    assert p10 >= p30 >= p60
    _pass(8, f"2 switches as hand-counted; persistence {p10:g}/{p30:g}/{p60:g}%")


def test_criterion_9_canny_and_lateral_fill():
    """Edges hug analytic rectangle outlines; fill matches its row rule."""
    rng = np.random.default_rng(99)
    within = total = 0
    for _ in range(5):
        w, h = 160, 120
        x0, y0 = int(rng.integers(20, 60)), int(rng.integers(20, 40))
        x1, y1 = int(rng.integers(90, 140)), int(rng.integers(70, 100))
        pixels = np.zeros((h, w))
        pixels[y0:y1, x0:x1] = int(rng.integers(180, 250))
        frame = GrayFrame(width=w, height=h, pixels=pixels.astype(np.uint8))
        edges = canny_edges(frame, (0, 0, w, h))
        assert len(edges) > 0
        bx0, bx1 = x0 - 0.5, x1 - 0.5
        by0, by1 = y0 - 0.5, y1 - 0.5
        dist_x = np.minimum(np.abs(edges[:, 0] - bx0), np.abs(edges[:, 0] - bx1))
        dist_y = np.minimum(np.abs(edges[:, 1] - by0), np.abs(edges[:, 1] - by1))
        inside_x = (edges[:, 0] >= bx0) & (edges[:, 0] <= bx1)
        inside_y = (edges[:, 1] >= by0) & (edges[:, 1] <= by1)
        dist = np.where(
            inside_y, np.where(inside_x, np.minimum(dist_x, dist_y), dist_x), dist_y
        )
        within += int(np.sum(dist <= 1.0))
        total += len(edges)
    assert within / total >= 0.99

    # Exhaustive row-rule check on 1000 random single-row edge sets.
    width = 40
    for trial in range(1000):
        count = int(rng.integers(0, 6))
        cols = sorted(set(rng.integers(0, width, size=count).tolist()))
        edges = np.array([[c, 0] for c in cols]).reshape(-1, 2)
        mask = lateral_fill(edges, (0, 0, width, 1))
        expected = np.zeros(width, dtype=bool)
        if cols:
            expected[min(cols) : max(cols) + 1] = True
        assert np.array_equal(mask.bits[0], expected), f"row rule broken at {trial}"
    _pass(
        9,
        f"{100 * within / total:.2f}% of edge pixels within 1 px; "
        f"1000 row-fill cases exact",
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Byte-identical outputs across reruns and parallelism 1 vs 8."""
    bundle_dir = tmp_path / "bundle"
    assert main(
        [
            "synth", "--out", str(bundle_dir), "--seed", "42",
            "--birds", "3", "--cameras", "3", "--duration", "1.0",
            "--descriptor-length", "16", "--image-size", "960x540",
        ]
    ) == 0

    def run(out_dir: Path, parallelism: int) -> dict[str, bytes]:
        assert main(
            [
                "run", "--input", str(bundle_dir), "--out", str(out_dir),
                "--parallelism", str(parallelism),
            ]
        ) == 0
        return {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }

    first = run(tmp_path / "run1", 1)
    second = run(tmp_path / "run2", 1)
    parallel = run(tmp_path / "run8", 8)
    assert set(first) == set(second) == set(parallel)
    assert "tracks.csv" in first and "metrics.json" in first
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
        assert first[name] == parallel[name], f"{name} differs with parallelism 8"
    _pass(10, f"{len(first)} output files byte-identical across runs and pool sizes")

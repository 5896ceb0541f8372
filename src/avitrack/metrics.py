"""Evaluation metrics: keypoint counts, rejection quality, tracking quality."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, MissingLabelsError
from .matching import FeatureMatch, PairMatches
from .tracking import DEFAULT_FPS, DEFAULT_GATE

DEFAULT_HORIZONS_S = (10.0, 30.0, 60.0)


@dataclass
class GroundTruth:
    """Truth positions per frame and detection-to-identity labels.

    ``positions[frame][identity]`` is the true 3D position; ``identities``
    maps (camera_id, frame, detection_index) to the bird identity that
    produced the detection.
    """

    positions: dict[int, dict[int, np.ndarray]]
    identities: dict[tuple[str, int, int], int]

    def match_is_correct(self, match: FeatureMatch) -> bool:
        return self.same_identity(
            (match.keypoint_a.camera_id, match.keypoint_a.frame,
             match.keypoint_a.detection_index),
            (match.keypoint_b.camera_id, match.keypoint_b.frame,
             match.keypoint_b.detection_index),
        )

    def same_identity(self, key_a: tuple[str, int, int], key_b: tuple[str, int, int]) -> bool:
        """Whether detections ``key_a`` and ``key_b``, each (camera_id,
        frame, detection_index), show the same bird."""
        if key_a not in self.identities or key_b not in self.identities:
            raise MissingLabelsError(f"no identity label for {key_a} or {key_b}")
        return self.identities[key_a] == self.identities[key_b]


def keypoint_stats(
    counts_by_camera_frame: dict[str, dict[int, int]], frames: list[int]
) -> dict:
    """Per-camera keypoint-count statistics over a frame interval.

    Frames without keypoints count as zero. Std is the population standard
    deviation.
    """
    if not frames:
        raise EmptyInputError("keypoint_stats: empty frame interval")
    record = {}
    for camera_id in sorted(counts_by_camera_frame):
        per_frame = counts_by_camera_frame[camera_id]
        counts = np.array([per_frame.get(f, 0) for f in frames], dtype=float)
        record[camera_id] = {
            "min": int(counts.min()),
            "max": int(counts.max()),
            "mean": float(counts.mean()),
            "std": float(counts.std()),
        }
    return record


def rejection_stats(
    summaries: list[PairMatches], truth: GroundTruth | None = None
) -> dict:
    """Rejection-rate and correctness record for decided matches, given as
    ``pair_matches`` summaries.

    Always reports the per-frame rejection percentage (mean and std);
    with ground truth, also the ratios of correct kept matches against
    all initial and all kept matches.
    """
    per_frame: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for s in summaries:
        per_frame[s.frame][0] += s.rejected
        per_frame[s.frame][1] += s.candidates
    pct = np.array(
        [100.0 * rejected / total for _, (rejected, total) in sorted(per_frame.items())]
    )

    initial = sum(s.candidates for s in summaries)
    final = sum(len(s.detections) for s in summaries)
    record = {
        "avg_rejection_pct": float(pct.mean()) if pct.size else 0.0,
        "std_rejection_pct": float(pct.std()) if pct.size else 0.0,
        "total_initial_matches": initial,
        "total_final_matches": final,
        "ratio_correct_final_over_initial": None,
        "ratio_correct_final_over_final": None,
    }
    if truth is not None:
        correct_final = sum(
            truth.same_identity((s.camera_a, s.frame, det_a), (s.camera_b, s.frame, det_b))
            for s in summaries
            for det_a, det_b in s.detections.tolist()
        )
        record["ratio_correct_final_over_initial"] = (
            correct_final / initial if initial else None
        )
        record["ratio_correct_final_over_final"] = (
            correct_final / final if final else None
        )
    return record


def _match_truth_to_tracks(
    truth_positions: dict[int, dict[int, np.ndarray]],
    track_rows: list[tuple[int, int, str, np.ndarray]],
    gate: float,
) -> dict[int, list[tuple[int, int | None]]]:
    """Per identity, the (frame, matched track id or None) sequence.

    An identity takes the nearest track within ``gate``; equal distances
    go to the lower track id.
    """
    tracks_by_frame: dict[int, list[tuple[int, np.ndarray]]] = defaultdict(list)
    for frame, track_id, _, position in track_rows:
        tracks_by_frame[frame].append((track_id, np.asarray(position, dtype=float)))

    assignments: dict[int, list[tuple[int, int | None]]] = defaultdict(list)
    for frame in sorted(truth_positions):
        identities = sorted(truth_positions[frame])
        candidates = sorted(tracks_by_frame.get(frame, []), key=lambda c: c[0])
        if not candidates or not identities:
            for identity in identities:
                assignments[identity].append((frame, None))
            continue
        true_pos = np.array(
            [np.asarray(truth_positions[frame][i], dtype=float) for i in identities]
        )
        track_pos = np.array([pos for _, pos in candidates])
        delta = track_pos[None, :, :] - true_pos[:, None, :]
        dist = np.sqrt(np.vecdot(delta, delta))
        # Out-of-gate and NaN distances can never be chosen; argmin's first
        # hit is the lowest track id among equal distances.
        dist[~(dist <= gate)] = np.inf
        best = np.argmin(dist, axis=1)
        for identity, row, col in zip(identities, dist, best.tolist()):
            best_id = candidates[col][0] if row[col] < np.inf else None
            assignments[identity].append((frame, best_id))
    return assignments


def tracking_metrics(
    track_rows: list[tuple[int, int, str, np.ndarray]],
    truth: GroundTruth,
    fps: float = DEFAULT_FPS,
    gate: float = DEFAULT_GATE,
    horizons_s: tuple[float, ...] = DEFAULT_HORIZONS_S,
    gap_tolerance_frames: int = 0,
) -> dict:
    """ID-switch count and track-persistence percentages against truth.

    Each truth identity is matched per frame to its nearest track within
    the gate. An ID switch is a change in the matched track id between an
    identity's consecutive matched frames; unmatched frames are misses and
    never switches. Persistence at horizon T is the share of identities
    that hold one single track id for at least T seconds; matched frames
    must be consecutive up to ``gap_tolerance_frames`` unmatched frames.
    """
    assignments = _match_truth_to_tracks(truth.positions, track_rows, gate)

    switches = 0
    persistence_counts = {h: 0 for h in horizons_s}
    identities = sorted(assignments)
    for identity in identities:
        # One pass: a run of one track id restarts at a switch, or after
        # more than ``gap_tolerance_frames`` unmatched entries; the best run
        # spans the most frames.
        best_run_frames = gap = 0
        previous_id = run_start = None
        for frame, track_id in assignments[identity]:
            if track_id is None:
                gap += 1
                continue
            if previous_id is not None and track_id != previous_id:
                switches += 1
            if track_id != previous_id or gap > gap_tolerance_frames:
                run_start = frame
            previous_id, gap = track_id, 0
            best_run_frames = max(best_run_frames, frame - run_start + 1)

        for horizon in horizons_s:
            if best_run_frames >= horizon * fps:
                persistence_counts[horizon] += 1

    n_frames = len(truth.positions)
    duration_minutes = n_frames / fps / 60.0 if n_frames else 0.0
    n_identities = len(identities)
    record = {
        "total_id_switches": switches,
        "id_switches_per_minute": (
            switches / duration_minutes if duration_minutes > 0 else 0.0
        ),
        "n_identities": n_identities,
    }
    for horizon in horizons_s:
        pct = (
            100.0 * persistence_counts[horizon] / n_identities
            if n_identities
            else 0.0
        )
        record[f"birds_tracked_over_{horizon:g}s_pct"] = pct
    return record

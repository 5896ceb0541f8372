"""The matching stages one Python object at a time: the references that the
columnar ``knn_match``, ``reject_by_landmark``, ``cluster_correspondences``
and ``pair_matches`` in ``avitrack.matching`` are tested against.

Each takes and returns lists of ``Keypoint`` and ``FeatureMatch`` objects.
``table_of`` and ``match_table`` turn such lists into the columnar inputs.
Detections, which the library holds only as a ``DetectionTable``, are
``DetectionRow`` tuples here; ``detection_table`` and ``detection_rows``
convert between the two.
"""

from collections import defaultdict
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from avitrack.errors import DimensionMismatchError
from avitrack.matching import (
    KEPT,
    REJECTED,
    Correspondence,
    DetectionTable,
    FeatureMatch,
    Keypoint,
    KeypointTable,
    MatchTable,
    PairMatches,
)
from avitrack.voronoi import nearest_landmark


class DetectionRow(NamedTuple):
    """One row of a ``DetectionTable``."""

    camera_id: str
    frame: int
    index: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float = 1.0


def detection_table(rows) -> DetectionTable:
    """``DetectionRow``s as one table, row i being the i-th row."""
    cells = np.array(list(rows), dtype=object).reshape(-1, len(DetectionRow._fields))
    return DetectionTable(cells[:, 0], cells[:, 1].astype(np.int64), cells[:, 2].astype(np.int64),
                          cells[:, 3:7].astype(float), cells[:, 7].astype(float))


def detection_rows(table: DetectionTable) -> list[DetectionRow]:
    """The rows of ``table``, in order, as Python values."""
    return [
        DetectionRow(camera_id, frame, index, *box, confidence)
        for camera_id, frame, index, box, confidence in zip(
            table.camera.tolist(), table.frame.tolist(), table.index.tolist(),
            table.box.tolist(), table.confidence.tolist(),
        )
    ]


def table_of(keypoints: list[Keypoint]) -> KeypointTable:
    """The keypoints as one table, row i being ``keypoints[i]``."""
    n = len(keypoints)
    return KeypointTable(
        np.array([kp.camera_id for kp in keypoints], dtype=object),
        np.array([kp.frame for kp in keypoints], dtype=np.int64),
        np.array([kp.detection_index for kp in keypoints], dtype=np.int64),
        np.array([kp.position for kp in keypoints], dtype=float).reshape(n, 2),
        np.array([kp.descriptor for kp in keypoints], dtype=float).reshape(n, -1)
        if n else np.zeros((0, 0)),
    )


def match_table(matches: list[FeatureMatch]) -> MatchTable:
    """The matches as one table over two new keypoint tables, match i
    pairing row i of each. Verdicts and landmarks must be all set or all
    None."""
    rows = np.arange(len(matches))

    def column(values, dtype):
        if all(v is None for v in values):
            return None
        if any(v is None for v in values):
            raise ValueError("a match table's column is all set or all None")
        return np.array(values, dtype=dtype)

    return MatchTable(
        table_of([m.keypoint_a for m in matches]),
        table_of([m.keypoint_b for m in matches]),
        rows, rows,
        np.array([m.descriptor_distance for m in matches], dtype=float),
        column([m.landmark_a for m in matches], np.int64),
        column([m.landmark_b for m in matches], np.int64),
        column([None if m.verdict is None else m.verdict == KEPT for m in matches], bool),
    )


def knn_match_loop(keypoints_a, keypoints_b, ratio=0.75):
    if not keypoints_a or not keypoints_b:
        return []
    lengths = {kp.descriptor.size for kp in keypoints_a} | {
        kp.descriptor.size for kp in keypoints_b
    }
    if len(lengths) != 1:
        raise DimensionMismatchError(
            f"descriptor lengths differ across keypoints: {sorted(lengths)}"
        )

    desc_a = np.stack([kp.descriptor for kp in keypoints_a])
    desc_b = np.stack([kp.descriptor for kp in keypoints_b])
    distances = cdist(desc_a, desc_b)

    matches = []
    for kp_a, row in zip(keypoints_a, distances):
        # Stable sort keeps the lower index first on exact ties.
        order = np.argsort(row, kind="stable")[:2]
        best = int(order[0])
        d1 = float(row[best])
        if len(order) >= 2:
            d2 = float(row[int(order[1])])
            if not d1 < ratio * d2:
                continue
        matches.append(
            FeatureMatch(
                keypoint_a=kp_a,
                keypoint_b=keypoints_b[best],
                descriptor_distance=d1,
            )
        )
    return matches


def box_center(det):
    """A detection box's centre, with the bits of ``detection_centers``' raw column."""
    return np.array([(det.x_min + det.x_max) / 2.0, (det.y_min + det.y_max) / 2.0])


def reject_by_landmark_loop(matches, landmarks, anchor="keypoint", detections=None):
    """``detections`` maps (camera, frame, index) to a ``DetectionRow``."""
    if anchor not in ("keypoint", "detection_center"):
        raise ValueError(f"unknown anchor mode {anchor!r}")

    def anchor_point(kp):
        if anchor == "keypoint":
            return kp.position
        if detections is None:
            raise ValueError("detection_center anchoring needs the detection centres")
        det = detections[(kp.camera_id, kp.frame, kp.detection_index)]
        return box_center(det)

    decided = []
    for match in matches:
        lm_a = nearest_landmark(
            landmarks, match.keypoint_a.camera_id, anchor_point(match.keypoint_a)
        )
        lm_b = nearest_landmark(
            landmarks, match.keypoint_b.camera_id, anchor_point(match.keypoint_b)
        )
        verdict = KEPT if lm_a == lm_b else REJECTED
        decided.append(
            replace(match, landmark_a=lm_a, landmark_b=lm_b, verdict=verdict)
        )
    return decided, pair_matches_loop(decided)


def cluster_correspondences_loop(matches, min_support=2):
    groups = defaultdict(list)
    for match in matches:
        if match.verdict != KEPT:
            continue
        key = (match.keypoint_a.detection_index, match.keypoint_b.detection_index)
        groups[key].append(match.descriptor_distance)

    candidates = [
        Correspondence(
            detection_index_a=key[0],
            detection_index_b=key[1],
            support=len(dists),
            mean_descriptor_distance=float(np.mean(dists)),
        )
        for key, dists in groups.items()
        if len(dists) >= min_support
    ]
    candidates.sort(
        key=lambda c: (
            -c.support,
            c.mean_descriptor_distance,
            c.detection_index_a,
            c.detection_index_b,
        )
    )

    used_a, used_b = set(), set()
    chosen = []
    for cand in candidates:
        if cand.detection_index_a in used_a or cand.detection_index_b in used_b:
            continue
        used_a.add(cand.detection_index_a)
        used_b.add(cand.detection_index_b)
        chosen.append(cand)
    return chosen


def pair_matches_loop(matches):
    """One ``PairMatches`` per (frame, camera a, camera b) of decided
    ``matches``, in the order each first appears; a match without a
    verdict is a ``ValueError``."""
    undecided = [m for m in matches if m.verdict is None]
    if undecided:
        raise ValueError(f"{len(undecided)} matches have no verdict")
    groups = {}
    for match in matches:
        key = (match.keypoint_a.frame, match.keypoint_a.camera_id,
               match.keypoint_b.camera_id)
        groups.setdefault(key, []).append(match)
    summaries = []
    for (frame, camera_a, camera_b), group in groups.items():
        kept = [m for m in group if m.verdict == KEPT]
        summaries.append(PairMatches(
            frame=frame,
            camera_a=camera_a,
            camera_b=camera_b,
            candidates=len(group),
            rejected=len(group) - len(kept),
            detections=np.array(
                [(m.keypoint_a.detection_index, m.keypoint_b.detection_index)
                 for m in kept], dtype=np.int64,
            ).reshape(-1, 2),
            xy_a=np.array([m.keypoint_a.position for m in kept]).reshape(-1, 2),
            xy_b=np.array([m.keypoint_b.position for m in kept]).reshape(-1, 2),
        ))
    return summaries

"""Cross-view descriptor matching and landmark-agreement outlier rejection.

Candidate matches come from brute-force k-nearest-neighbor descriptor
search with Lowe's ratio test. A candidate survives only if the keypoint
on each side is nearest to the same global landmark in its own view;
disagreement means the match pairs two different birds and is rejected.
Surviving matches are then clustered into detection-level correspondences.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
# ``nearest_landmark`` stays importable from here for callers that look
# it up on this module; rejection itself uses the batched form.
from .voronoi import LandmarkSet, nearest_landmark, nearest_landmarks_many  # noqa: F401

KEPT = "kept"
REJECTED = "rejected"
ANCHORS = ("keypoint", "detection_center")  # see ``reject_by_landmark``
DEFAULT_RATIO = 0.75  # Lowe's ratio test
DEFAULT_MIN_SUPPORT = 2  # kept matches per correspondence
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny  # smallest normal float; bounds underflow error


@dataclass(frozen=True)
class Detection:
    """One detector bounding box in one camera frame."""

    camera_id: str
    frame: int
    index: int
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float = 1.0

    @property
    def center(self) -> np.ndarray:
        return np.array(
            [(self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0]
        )

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True, eq=False)
class Keypoint:
    """A feature point inside a detection box, with its descriptor.

    Compared by identity: pipeline stages pass the same objects through.
    """

    camera_id: str
    frame: int
    detection_index: int
    position: np.ndarray
    descriptor: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "position", np.asarray(self.position, dtype=float).reshape(2)
        )
        object.__setattr__(
            self, "descriptor", np.asarray(self.descriptor, dtype=float).reshape(-1)
        )


@dataclass(frozen=True)
class FeatureMatch:
    """A candidate keypoint pair between two cameras in the same frame."""

    keypoint_a: Keypoint
    keypoint_b: Keypoint
    descriptor_distance: float
    landmark_a: int | None = None
    landmark_b: int | None = None
    verdict: str | None = None


@dataclass(frozen=True)
class Correspondence:
    """A detection-to-detection pairing supported by kept matches."""

    detection_index_a: int
    detection_index_b: int
    support: int
    mean_descriptor_distance: float


@dataclass(frozen=True)
class RejectionStats:
    """Per-frame rejection percentages and their aggregate."""

    per_frame_pct: dict[int, float]
    mean_pct: float
    std_pct: float
    total: int
    rejected: int


def knn_distances(desc_a: np.ndarray, desc_b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``desc_a`` and ``desc_b``
    (non-empty), exact where a row's best or second-best distance can be,
    +inf elsewhere.

    An exact entry has the bits of ``scipy.spatial.distance.cdist``: the
    squared differences summed one dimension at a time, in order, then the
    square root. Only candidate pairs are summed that way; one matrix
    product picks them, ``approx = |a|^2 + |b|^2 - 2 a.b``.

    Why no entry that ``knn_match`` reads is missed: let S be a pair's
    in-order sum, L the descriptor length and u the unit roundoff. By the
    dot-product error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), which holds in any summation order, ``approx`` lies
    within (2 L + 3) u (|a|^2 + |b|^2) of the exact squared distance, and
    S within 2 L u (|a|^2 + |b|^2). Gradual underflow adds a few
    subnormals per term, far below ``_TINY``. So with the margin
    m = 8 (L + 2) (u (|a|^2 + |b|^2) + tiny), ``|approx - S| <= m / 2``.
    Let s2 be a row's second-smallest ``approx``: any two columns bound
    the row's second-smallest S, so it is at most s2 + m / 2. A column
    whose root ties that one exceeds it by at most 4 u S, also below
    m / 2. So every column that can read as the row's best or second-best
    distance, ties included, has ``approx <= s2 + 2 max(m)``. An
    ``approx`` that is not finite (a coordinate near 1e200 squares to
    inf) is a candidate, and a margin that overflows makes the whole row
    candidates.
    """
    n_a, length = desc_a.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norm_a = (desc_a * desc_a).sum(axis=1)
        norm_b = (desc_b * desc_b).sum(axis=1)
        approx = desc_a @ desc_b.T
        approx *= -2.0
        approx += norm_a[:, None]
        approx += norm_b
        near = ~np.isfinite(approx)
        approx[near] = np.inf  # s2 is taken over the finite entries
        rows = np.arange(n_a)
        first = approx.argmin(axis=1)
        approx[rows, first] = np.inf
        margin = 8.0 * (length + 2) * (_UNIT_ROUNDOFF * (norm_a + norm_b.max()) + _TINY)
        near |= approx <= (approx.min(axis=1) + 2.0 * margin)[:, None]
        near[rows, first] = True
        i, j = divmod(np.flatnonzero(near), len(desc_b))
        diff = desc_a[i] - desc_b[j]
        squares = np.add.accumulate(diff * diff, axis=1)[:, -1] if length else 0.0
        distances = np.full(approx.shape, np.inf)
        distances[i, j] = np.sqrt(squares)
    return distances


def knn_match(
    keypoints_a: list[Keypoint],
    keypoints_b: list[Keypoint],
    ratio: float = DEFAULT_RATIO,
) -> list[FeatureMatch]:
    """Brute-force nearest-descriptor candidates with Lowe's ratio test.

    For each keypoint in A we take its two nearest descriptors in B by
    Euclidean distance and emit a candidate only when the best distance is
    below ``ratio`` times the second best. With fewer than two candidates
    on the B side the ratio test cannot run and the best match is emitted
    as-is. Distance ties resolve to the lower keypoint index.
    """
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
    for side, desc in (("A", desc_a), ("B", desc_b)):
        if not np.isfinite(desc).all():
            raise ValueError(f"knn_match: non-finite descriptor on side {side}")
    distances = knn_distances(desc_a, desc_b)

    # argmin's first hit is the lower index on exact ties.
    rows = np.arange(len(keypoints_a))
    best = np.argmin(distances, axis=1)
    d1 = distances[rows, best]
    if len(keypoints_b) >= 2:
        distances[rows, best] = np.inf
        passed = np.flatnonzero(d1 < ratio * distances.min(axis=1))
    else:
        passed = rows
    return [
        FeatureMatch(
            keypoint_a=keypoints_a[i],
            keypoint_b=keypoints_b[j],
            descriptor_distance=d,
        )
        for i, j, d in zip(passed.tolist(), best[passed].tolist(), d1[passed].tolist())
    ]


def reject_by_landmark(
    matches: list[FeatureMatch],
    landmarks: LandmarkSet,
    anchor: str = "keypoint",
    detections: dict[tuple[str, int, int], Detection] | None = None,
) -> tuple[list[FeatureMatch], RejectionStats]:
    """Assign each match its nearest-landmark pair and a kept/rejected verdict.

    ``anchor`` selects where the landmark distance is measured: at the
    keypoint itself (default) or at the center of the keypoint's detection
    box (requires ``detections`` keyed by (camera, frame, index)).
    """
    if anchor not in ANCHORS:
        raise ValueError(f"unknown anchor mode {anchor!r}")

    def anchor_point(kp: Keypoint) -> np.ndarray:
        if anchor == "keypoint":
            return kp.position
        if detections is None:
            raise ValueError("detection_center anchoring needs the detection table")
        det = detections[(kp.camera_id, kp.frame, kp.detection_index)]
        return det.center

    # One nearest-landmark query per (side, camera) over all its anchors.
    queries: dict[tuple[int, str], tuple[list[int], list[np.ndarray]]] = {}
    for i, match in enumerate(matches):
        for side, kp in enumerate((match.keypoint_a, match.keypoint_b)):
            rows, points = queries.setdefault((side, kp.camera_id), ([], []))
            rows.append(i)
            points.append(anchor_point(kp))
    nearest = [[0] * len(matches), [0] * len(matches)]
    for (side, camera_id), (rows, points) in queries.items():
        ids = nearest_landmarks_many(landmarks, camera_id, np.array(points))
        for i, landmark in zip(rows, ids.tolist()):
            nearest[side][i] = landmark

    decided = []
    per_frame: dict[int, list[bool]] = defaultdict(list)
    for match, lm_a, lm_b in zip(matches, *nearest):
        verdict = KEPT if lm_a == lm_b else REJECTED
        decided.append(
            FeatureMatch(
                keypoint_a=match.keypoint_a,
                keypoint_b=match.keypoint_b,
                descriptor_distance=match.descriptor_distance,
                landmark_a=lm_a,
                landmark_b=lm_b,
                verdict=verdict,
            )
        )
        per_frame[match.keypoint_a.frame].append(verdict == REJECTED)

    pct = {
        frame: 100.0 * sum(flags) / len(flags)
        for frame, flags in sorted(per_frame.items())
    }
    values = np.array(list(pct.values())) if pct else np.zeros(0)
    stats = RejectionStats(
        per_frame_pct=pct,
        mean_pct=float(values.mean()) if values.size else 0.0,
        std_pct=float(values.std()) if values.size else 0.0,
        total=len(decided),
        rejected=sum(1 for m in decided if m.verdict == REJECTED),
    )
    return decided, stats


def cluster_correspondences(
    matches: list[FeatureMatch], min_support: int = DEFAULT_MIN_SUPPORT
) -> list[Correspondence]:
    """Group kept matches by detection pair into one-to-one correspondences.

    Pairs below ``min_support`` are dropped; the rest are assigned greedily
    by descending support (ties to lower mean descriptor distance, then
    lower indices) so each detection appears at most once.
    """
    groups: dict[tuple[int, int], list[float]] = defaultdict(list)
    for match in matches:
        if match.verdict is not None and match.verdict != KEPT:
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

    used_a: set[int] = set()
    used_b: set[int] = set()
    chosen = []
    for cand in candidates:
        if cand.detection_index_a in used_a or cand.detection_index_b in used_b:
            continue
        used_a.add(cand.detection_index_a)
        used_b.add(cand.detection_index_b)
        chosen.append(cand)
    return chosen

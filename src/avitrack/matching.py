"""Cross-view descriptor matching and landmark-agreement outlier rejection.

Candidate matches come from brute-force k-nearest-neighbor descriptor
search with Lowe's ratio test. A candidate survives only if the keypoint
on each side is nearest to the same global landmark in its own view;
disagreement means the match pairs two different birds and is rejected.
Surviving matches are then clustered into detection-level correspondences.

All three stages work on columns: detections are rows of a
``DetectionTable``, keypoints rows of a ``KeypointTable`` and matches rows
of a ``MatchTable``, of one frame between two cameras from rejection on.
Iterating a keypoint or match table builds ``Keypoint`` or ``FeatureMatch``
objects; a detection table has no row object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError
# ``nearest_landmark`` stays importable from here for callers that look
# it up on this module; rejection itself uses the batched form.
from .voronoi import LandmarkSet, nearest_landmark, nearest_landmarks_many  # noqa: F401

if TYPE_CHECKING:
    from .reconstruction import FrameCenters

KEPT = "kept"
REJECTED = "rejected"
ANCHORS = ("keypoint", "detection_center")  # see ``reject_by_landmark``
DEFAULT_RATIO = 0.75  # Lowe's ratio test
DEFAULT_MIN_SUPPORT = 2  # kept matches per correspondence
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny  # smallest normal float; bounds underflow error


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detector bounding boxes as columns, one row per box.

    ``camera`` holds camera ids as ``str`` objects; ``frame`` and ``index``
    hold int64 integers; ``box`` is (N, 4) pixels (x_min, y_min, x_max,
    y_max) and ``confidence`` (N,) detector scores.
    """

    camera: np.ndarray
    frame: np.ndarray
    index: np.ndarray
    box: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.camera)


@dataclass(frozen=True, eq=False)
class Keypoint:
    """A feature point inside a detection box, with its descriptor.

    Compared by identity. The pipeline keeps keypoints as ``KeypointTable``
    rows; this is one row as an object.
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


@dataclass(frozen=True, eq=False)
class KeypointTable:
    """Keypoints as columns, one row per keypoint.

    ``camera`` holds camera ids as ``str`` objects; ``frame`` and
    ``detection`` hold int64 integers; ``xy`` is (N, 2) pixels and
    ``desc`` (N, L) descriptors. Iterating gives ``Keypoint`` objects.
    """

    camera: np.ndarray
    frame: np.ndarray
    detection: np.ndarray
    xy: np.ndarray
    desc: np.ndarray

    def __len__(self) -> int:
        return len(self.camera)

    def __iter__(self):
        return iter(self.keypoints())

    def take(self, rows) -> "KeypointTable":
        """A table of ``rows``, in order, each column copied once."""
        rows = np.asarray(rows, dtype=np.intp)
        return KeypointTable(self.camera[rows], self.frame[rows], self.detection[rows],
                             self.xy[rows], self.desc[rows])

    def keypoints(self, rows=None) -> list[Keypoint]:
        """``Keypoint`` objects for ``rows`` (default: every row), in order;
        their arrays are views of this table's."""
        rows = np.arange(len(self)) if rows is None else np.asarray(rows, dtype=np.intp)
        return [
            Keypoint(camera_id, frame, det_index, self.xy[row], self.desc[row])
            for camera_id, frame, det_index, row in zip(
                self.camera[rows].tolist(), self.frame[rows].tolist(),
                self.detection[rows].tolist(), rows.tolist(),
            )
        ]

    def groups(self, rows=None) -> dict[tuple[str, int], np.ndarray]:
        """The indices of ``rows`` (default: every row) per (camera, frame),
        each in the order given, keys sorted."""
        rows = np.arange(len(self)) if rows is None else np.asarray(rows, dtype=np.intp)
        cameras = self.camera[rows]
        names = sorted(set(cameras.tolist()))
        frames, frame_code = np.unique(self.frame[rows], return_inverse=True)
        key = frame_code.astype(np.int64)
        for code, name in enumerate(names):
            key[cameras == name] += code * len(frames)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        return {
            (names[k // len(frames)], int(frames[k % len(frames)])): rows[order[start:stop]]
            for k, start, stop in zip(
                key[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(key)]
            )
        }


@dataclass(frozen=True)
class FeatureMatch:
    """A candidate keypoint pair between two cameras in the same frame."""

    keypoint_a: Keypoint
    keypoint_b: Keypoint
    descriptor_distance: float
    landmark_a: int | None = None
    landmark_b: int | None = None
    verdict: str | None = None


@dataclass(frozen=True, eq=False)
class MatchTable:
    """Candidate matches as columns, one row per match.

    Match i pairs row ``row_a[i]`` of ``a`` with row ``row_b[i]`` of ``b``
    at descriptor distance ``distance[i]``. ``landmark_a``/``landmark_b``
    (int64 ids) and ``kept`` (bool) are set once landmark rejection has
    decided the matches; before that they are None.
    """

    a: KeypointTable
    b: KeypointTable
    row_a: np.ndarray
    row_b: np.ndarray
    distance: np.ndarray
    landmark_a: np.ndarray | None = None
    landmark_b: np.ndarray | None = None
    kept: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.row_a)

    def __iter__(self):
        """The matches as ``FeatureMatch`` objects, in row order."""
        n = len(self)
        landmarks_a, landmarks_b, verdicts = (
            [None] * n if column is None else column.tolist()
            for column in (self.landmark_a, self.landmark_b, self.kept)
        )
        return iter([
            FeatureMatch(kp_a, kp_b, distance, lm_a, lm_b,
                         None if kept is None else KEPT if kept else REJECTED)
            for kp_a, kp_b, distance, lm_a, lm_b, kept in zip(
                self.a.keypoints(self.row_a), self.b.keypoints(self.row_b),
                self.distance.tolist(), landmarks_a, landmarks_b, verdicts,
            )
        ])


@dataclass(frozen=True)
class PairMatches:
    """The decided matches of one frame between two cameras, as counts and
    arrays: what the run's reports read of them.

    ``rejected`` counts the matches that are not kept. The kept ones, in
    match order, have their detection indices (a, b) as the rows of
    ``detections`` and their pixels as the rows of ``xy_a`` and ``xy_b``.
    """

    frame: int
    camera_a: str
    camera_b: str
    candidates: int
    rejected: int
    detections: np.ndarray
    xy_a: np.ndarray
    xy_b: np.ndarray


def _one_frame_one_pair(matches: MatchTable) -> tuple[int, str, str]:
    """The frame, camera A and camera B of non-empty ``matches``; a
    ``ValueError`` when a side spans cameras or the matches span frames."""
    cameras = (matches.a.camera[matches.row_a], matches.b.camera[matches.row_b])
    frames = np.concatenate([matches.a.frame[matches.row_a], matches.b.frame[matches.row_b]])
    if any((side != side[0]).any() for side in cameras) or (frames != frames[0]).any():
        raise ValueError("a match table must hold one frame of one camera pair")
    return int(frames[0]), cameras[0][0], cameras[1][0]


def pair_matches(matches: MatchTable) -> list[PairMatches]:
    """The decided ``matches`` of one frame between two cameras: no
    ``PairMatches`` for an empty table, else one."""
    if matches.kept is None:
        raise ValueError("pair_matches: the matches have no verdict")
    if not len(matches):
        return []
    frame, camera_a, camera_b = _one_frame_one_pair(matches)
    kept = np.flatnonzero(matches.kept)
    rows_a, rows_b = matches.row_a[kept], matches.row_b[kept]
    return [PairMatches(
        frame=frame,
        camera_a=camera_a,
        camera_b=camera_b,
        candidates=len(matches),
        rejected=len(matches) - len(kept),
        detections=np.stack([matches.a.detection[rows_a],
                             matches.b.detection[rows_b]], axis=1).astype(np.int64),
        xy_a=matches.a.xy[rows_a],
        xy_b=matches.b.xy[rows_b],
    )]


@dataclass(frozen=True)
class Correspondence:
    """A detection-to-detection pairing supported by kept matches."""

    detection_index_a: int
    detection_index_b: int
    support: int
    mean_descriptor_distance: float


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
    a: KeypointTable, b: KeypointTable, ratio: float = DEFAULT_RATIO
) -> MatchTable:
    """Brute-force nearest-descriptor candidates with Lowe's ratio test.

    For each keypoint in A we take its two nearest descriptors in B by
    Euclidean distance and emit a candidate only when the best distance is
    below ``ratio`` times the second best. With fewer than two candidates
    on the B side the ratio test cannot run and the best match is emitted
    as-is. Distance ties resolve to the lower keypoint index.
    """
    if not len(a) or not len(b):
        none = np.zeros(0, dtype=np.intp)
        return MatchTable(a, b, none, none, np.zeros(0))
    lengths = {a.desc.shape[1], b.desc.shape[1]}
    if len(lengths) != 1:
        raise DimensionMismatchError(
            f"descriptor lengths differ across keypoints: {sorted(lengths)}"
        )
    for side, desc in (("A", a.desc), ("B", b.desc)):
        if not np.isfinite(desc).all():
            raise ValueError(f"knn_match: non-finite descriptor on side {side}")
    distances = knn_distances(a.desc, b.desc)

    # argmin's first hit is the lower index on exact ties.
    rows = np.arange(len(a))
    best = np.argmin(distances, axis=1)
    d1 = distances[rows, best]
    if len(b) >= 2:
        distances[rows, best] = np.inf
        passed = np.flatnonzero(d1 < ratio * distances.min(axis=1))
    else:
        passed = rows
    return MatchTable(a, b, passed, best[passed], d1[passed])


def reject_by_landmark(
    matches: MatchTable,
    landmarks: LandmarkSet,
    anchor: str = "keypoint",
    centers: dict[tuple[str, int], FrameCenters] | None = None,
) -> tuple[MatchTable, list[PairMatches]]:
    """Give each match of one frame between two cameras its nearest-landmark
    pair and a kept/rejected verdict.

    Returns the decided matches and their ``pair_matches`` summaries.

    ``anchor`` selects where the landmark distance is measured: at the
    keypoint itself (default) or at the centre of the keypoint's detection
    box, read from ``centers``, the run's ``detection_centers`` table.
    Each non-empty side makes one nearest-landmark query, side A first.
    """
    if anchor not in ANCHORS:
        raise ValueError(f"unknown anchor mode {anchor!r}")
    nearest = np.zeros((2, len(matches)), dtype=np.int64)
    sides = ((matches.a, matches.row_a), (matches.b, matches.row_b))
    frame, *cameras = _one_frame_one_pair(matches) if len(matches) else (None,)
    for side, ((table, rows), camera_id) in enumerate(zip(sides, cameras)):
        points = table.xy[rows]
        if anchor == "detection_center":
            if centers is None:
                raise ValueError("detection_center anchoring needs the detection centres")
            frame_centers = centers[(camera_id, frame)]
            points = frame_centers.raw[frame_centers.rows(table.detection[rows])]
        nearest[side] = nearest_landmarks_many(landmarks, camera_id, points)
    kept = nearest[0] == nearest[1]
    decided = replace(matches, landmark_a=nearest[0], landmark_b=nearest[1], kept=kept)
    return decided, pair_matches(decided)


def cluster_correspondences(
    matches: MatchTable, min_support: int = DEFAULT_MIN_SUPPORT
) -> list[Correspondence]:
    """Group kept matches by detection pair into one-to-one correspondences.

    Undecided matches are a ``ValueError``. Pairs below ``min_support`` are
    dropped; the rest are assigned greedily by descending support (ties to
    lower mean descriptor distance, then lower indices) so each detection
    appears at most once. A pair's mean is ``np.mean`` of its distances in
    match order.
    """
    if matches.kept is None:
        raise ValueError("cluster_correspondences: the matches have no verdict")
    kept = np.flatnonzero(matches.kept)
    distance = matches.distance[kept]
    groups: dict[tuple[int, int], list[int]] = {}
    for row, pair in enumerate(zip(matches.a.detection[matches.row_a[kept]].tolist(),
                                   matches.b.detection[matches.row_b[kept]].tolist())):
        groups.setdefault(pair, []).append(row)
    candidates = [
        Correspondence(
            detection_index_a=det_a,
            detection_index_b=det_b,
            support=len(rows),
            mean_descriptor_distance=float(np.mean(distance[rows])),
        )
        for (det_a, det_b), rows in groups.items()
        if len(rows) >= min_support
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

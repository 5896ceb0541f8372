"""Tests for kNN matching, landmark rejection, and correspondence clustering."""

from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from avitrack.errors import DimensionMismatchError, NoLandmarksError
from avitrack.matching import (
    KEPT,
    REJECTED,
    Detection,
    FeatureMatch,
    Keypoint,
    RejectionStats,
    cluster_correspondences,
    knn_distances,
    knn_match,
    reject_by_landmark,
)
from avitrack.voronoi import LandmarkSet, nearest_landmark


def _kp(camera_id, descriptor, x=10.0, y=10.0, det=0, frame=0):
    return Keypoint(
        camera_id=camera_id,
        frame=frame,
        detection_index=det,
        position=np.array([x, y], dtype=float),
        descriptor=np.asarray(descriptor, dtype=float),
    )


class TestKnnMatch:
    def test_single_identical_descriptor_matches_without_ratio(self):
        """With one candidate the ratio test cannot run; the match is kept."""
        matches = knn_match([_kp("a", [1.0, 2.0])], [_kp("b", [1.0, 2.0])])
        assert len(matches) == 1
        assert matches[0].descriptor_distance == 0.0

    def test_ratio_below_threshold_kept(self):
        """d1=0.5, d2=1.0: 0.5 < 0.75 so the candidate is emitted."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [0.5]), _kp("b", [1.0])]
        matches = knn_match(a, b)
        assert len(matches) == 1
        assert matches[0].keypoint_b is b[0]
        assert matches[0].descriptor_distance == pytest.approx(0.5)

    def test_ratio_above_threshold_dropped(self):
        """d1=0.8, d2=0.9: 0.89 >= 0.75 so no candidate."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [0.8]), _kp("b", [-0.9])]
        assert knn_match(a, b) == []

    def test_exact_tie_fails_ratio_test(self):
        """Two equidistant best candidates are ambiguous and dropped."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [0.5]), _kp("b", [-0.5]), _kp("b", [4.0])]
        assert knn_match(a, b, ratio=0.9) == []

    def test_distance_tie_goes_to_the_lower_index(self):
        """Above ratio 1 a tie passes the ratio test; the first tied keypoint wins."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [3.0]), _kp("b", [0.5]), _kp("b", [-0.5])]
        (match,) = knn_match(a, b, ratio=1.5)
        assert match.keypoint_b is b[1]

    def test_deterministic_on_random_input(self):
        rng = np.random.default_rng(44)
        a = [_kp("a", rng.normal(size=8)) for _ in range(30)]
        b = [_kp("b", rng.normal(size=8)) for _ in range(30)]
        first = knn_match(a, b)
        second = knn_match(a, b)
        assert [(id(m.keypoint_a), id(m.keypoint_b)) for m in first] == [
            (id(m.keypoint_a), id(m.keypoint_b)) for m in second
        ]

    def test_descriptor_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            knn_match([_kp("a", [1.0, 2.0])], [_kp("b", [1.0, 2.0, 3.0])])

    def test_empty_sides_give_no_matches(self):
        assert knn_match([], [_kp("b", [1.0])]) == []
        assert knn_match([_kp("a", [1.0])], []) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptor_names_its_side(self, bad):
        good = [_kp("a", [0.0, 1.0]), _kp("a", [1.0, 0.0])]
        poisoned = [_kp("b", [0.0, 1.0]), _kp("b", [bad, 0.0])]
        with pytest.raises(ValueError, match="non-finite descriptor on side B"):
            knn_match(good, poisoned)
        with pytest.raises(ValueError, match="non-finite descriptor on side A"):
            knn_match(poisoned, good)


class TestRejectByLandmark:
    @pytest.fixture
    def landmarks(self) -> LandmarkSet:
        landmarks = LandmarkSet({"a": (200, 200), "b": (200, 200)})
        landmarks.add("a", 4, (50.0, 50.0))
        landmarks.add("a", 7, (150.0, 150.0))
        landmarks.add("b", 4, (60.0, 40.0))
        landmarks.add("b", 7, (140.0, 160.0))
        return landmarks

    def _match(self, pos_a, pos_b):
        return FeatureMatch(
            keypoint_a=_kp("a", [0.0], x=pos_a[0], y=pos_a[1]),
            keypoint_b=_kp("b", [0.0], x=pos_b[0], y=pos_b[1]),
            descriptor_distance=0.0,
        )

    def test_agreeing_landmarks_kept(self, landmarks):
        decided, _ = reject_by_landmark([self._match((40, 40), (70, 50))], landmarks)
        assert decided[0].verdict == KEPT
        assert decided[0].landmark_a == 4
        assert decided[0].landmark_b == 4

    def test_disagreeing_landmarks_rejected(self, landmarks):
        decided, _ = reject_by_landmark([self._match((40, 40), (150, 150))], landmarks)
        assert decided[0].verdict == REJECTED
        assert (decided[0].landmark_a, decided[0].landmark_b) == (4, 7)

    def test_stats_cover_frames(self, landmarks):
        matches = [
            self._match((40, 40), (70, 50)),       # kept
            self._match((40, 40), (150, 150)),     # rejected
        ]
        _, stats = reject_by_landmark(matches, landmarks)
        assert stats.total == 2
        assert stats.rejected == 1
        assert stats.per_frame_pct == {0: 50.0}

    def test_missing_landmarks_raise(self):
        empty = LandmarkSet({"a": (200, 200), "b": (200, 200)})
        with pytest.raises(NoLandmarksError):
            reject_by_landmark([self._match((1, 1), (2, 2))], empty)

    def test_verdicts_match_brute_force_recomputation(self, landmarks):
        """Kept set equals an exhaustive nearest-site recomputation."""
        rng = np.random.default_rng(13)
        matches = [
            self._match(rng.uniform(0, 200, 2), rng.uniform(0, 200, 2))
            for _ in range(200)
        ]
        decided, _ = reject_by_landmark(matches, landmarks)
        for match in decided:
            expected_a = nearest_landmark(landmarks, "a", match.keypoint_a.position)
            expected_b = nearest_landmark(landmarks, "b", match.keypoint_b.position)
            expected = KEPT if expected_a == expected_b else REJECTED
            assert match.verdict == expected


class TestClusterCorrespondences:
    def _matches(self, rows):
        """rows: list of (det_a, det_b, distance) kept matches."""
        out = []
        for det_a, det_b, dist in rows:
            out.append(
                FeatureMatch(
                    keypoint_a=_kp("a", [0.0], det=det_a),
                    keypoint_b=_kp("b", [0.0], det=det_b),
                    descriptor_distance=dist,
                    verdict=KEPT,
                )
            )
        return out

    def test_min_support_drops_singletons(self):
        matches = self._matches(
            [(0, 1, 0.1), (0, 1, 0.2), (0, 1, 0.3), (0, 2, 0.1)]
        )
        chosen = cluster_correspondences(matches, min_support=2)
        assert [(c.detection_index_a, c.detection_index_b) for c in chosen] == [(0, 1)]
        assert chosen[0].support == 3

    def test_no_kept_matches_empty(self):
        assert cluster_correspondences([]) == []
        rejected = self._matches([(0, 1, 0.1)])
        rejected = [
            FeatureMatch(
                keypoint_a=m.keypoint_a, keypoint_b=m.keypoint_b,
                descriptor_distance=m.descriptor_distance, verdict=REJECTED,
            )
            for m in rejected
        ]
        assert cluster_correspondences(rejected) == []

    def test_one_to_one_with_distance_tiebreak(self):
        """Equal support resolves by mean distance; losers are excluded."""
        matches = self._matches(
            [(0, 1, 0.3), (0, 1, 0.3), (1, 1, 0.5), (1, 1, 0.5)]
        )
        chosen = cluster_correspondences(matches, min_support=2)
        assert [(c.detection_index_a, c.detection_index_b) for c in chosen] == [(0, 1)]

    def test_one_to_one_on_random_groups(self):
        rng = np.random.default_rng(3)
        rows = [
            (int(rng.integers(0, 6)), int(rng.integers(0, 6)), float(rng.uniform()))
            for _ in range(300)
        ]
        chosen = cluster_correspondences(self._matches(rows), min_support=2)
        lefts = [c.detection_index_a for c in chosen]
        rights = [c.detection_index_b for c in chosen]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    def test_greedy_prefers_higher_support(self):
        matches = self._matches(
            [(0, 1, 0.9), (0, 1, 0.9), (0, 1, 0.9), (1, 1, 0.1), (1, 1, 0.1)]
        )
        chosen = cluster_correspondences(matches, min_support=2)
        assert (chosen[0].detection_index_a, chosen[0].detection_index_b) == (0, 1)


# --- the per-row loops the batched code replaced, kept as references -------


def _knn_match_loop(keypoints_a, keypoints_b, ratio=0.75):
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


def _reject_by_landmark_loop(matches, landmarks, anchor="keypoint", detections=None):
    if anchor not in ("keypoint", "detection_center"):
        raise ValueError(f"unknown anchor mode {anchor!r}")

    def anchor_point(kp):
        if anchor == "keypoint":
            return kp.position
        if detections is None:
            raise ValueError("detection_center anchoring needs the detection table")
        det = detections[(kp.camera_id, kp.frame, kp.detection_index)]
        return det.center

    decided = []
    per_frame = defaultdict(list)
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


def _outcome(function, *args, **kwargs):
    """A comparable record of a call: its result, or its exception."""
    try:
        result = function(*args, **kwargs)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    matches, stats = result if isinstance(result, tuple) else (result, None)
    # Keypoints are compared by identity; every other field by repr, which
    # tells int from np.int64 and shows every bit of a float.
    return [
        (
            id(m.keypoint_a), id(m.keypoint_b), repr(m.descriptor_distance),
            repr(m.landmark_a), repr(m.landmark_b), m.verdict,
        )
        for m in matches
    ], repr(stats)


# Few distinct values, so exact distance ties and duplicate rows are common;
# 1e200 overflows the squared distance to inf.
_COORD = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 1e200]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _knn_case(draw):
    dim = draw(st.integers(1, 3))
    rows = st.lists(st.lists(_COORD, min_size=dim, max_size=dim), max_size=6)
    desc_a, desc_b = draw(rows), draw(rows)
    a = [_kp("a", d) for d in desc_a]
    b = [_kp("b", d) for d in desc_b]
    if desc_b and draw(st.booleans()):
        b = b + [b[draw(st.integers(0, len(b) - 1))]]  # a duplicated keypoint
    ratio = draw(st.one_of(st.sampled_from([0.5, 0.75, 1.0]), st.floats(0.01, 1.5)))
    return a, b, ratio


class TestKnnMatchMatchesRowLoop:
    @settings(max_examples=200)
    @given(case=_knn_case())
    def test_random_descriptor_sets(self, case):
        a, b, ratio = case
        assert _outcome(knn_match, a, b, ratio=ratio) == _outcome(
            _knn_match_loop, a, b, ratio=ratio
        )

    def test_single_candidate_and_exact_ties(self):
        a = [_kp("a", [0.0]), _kp("a", [1.0]), _kp("a", [0.5])]
        for b in ([_kp("b", [0.5])], [_kp("b", [0.0]), _kp("b", [1.0])]):
            assert _outcome(knn_match, a, b, ratio=0.9) == _outcome(
                _knn_match_loop, a, b, ratio=0.9
            )


def _hard_descriptors(rng, dim, kind, n_a, n_b):
    """Descriptor sets on which the expanded form |a|^2 + |b|^2 - 2 a.b
    is least accurate, or on which ties decide the match."""
    desc_a, desc_b = rng.normal(size=(n_a, dim)), rng.normal(size=(n_b, dim))
    if kind == "common-offset":  # cancellation: norms ~1e12, distances ~1e-3
        desc_a += 1e6
        desc_b = desc_a[rng.integers(0, n_a, n_b)] + 1e-3 * rng.normal(size=(n_b, dim))
    elif kind == "ulps-apart":  # distances far below the expanded form's error
        base = rng.normal(size=dim)
        steps = rng.integers(-3, 4, size=(n_a + n_b, dim))
        rows = base + steps * np.spacing(base)
        desc_a, desc_b = rows[:n_a], rows[n_a:]
    elif kind == "duplicated-rows":  # exact distance ties
        desc_b = np.repeat(desc_b[: (n_b + 1) // 2], 2, axis=0)[:n_b]
        desc_a[: n_a // 2] = desc_b[rng.integers(0, n_b, n_a // 2)]
    elif kind == "one-row-b":
        desc_b = desc_b[:1]
    return desc_a, desc_b


@st.composite
def _hard_knn_case(draw):
    dim = draw(st.sampled_from([8, 128]))
    kind = draw(st.sampled_from(
        ["common-offset", "ulps-apart", "duplicated-rows", "one-row-b"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    desc_a, desc_b = _hard_descriptors(
        rng, dim, kind, draw(st.integers(1, 40)), draw(st.integers(1, 40))
    )
    return desc_a, desc_b, draw(st.sampled_from([0.5, 0.75, 0.99, 1.0, 1.5]))


def _assert_best_two_exact(desc_a, desc_b):
    """Every entry up to a row's second-smallest distance has ``cdist``'s
    bits; every other entry is exact or +inf."""
    expected = cdist(desc_a, desc_b)
    got = knn_distances(desc_a, desc_b)
    second = np.sort(expected, axis=1)[:, min(1, expected.shape[1] - 1)]
    near = expected <= second[:, None]
    assert np.array_equal(got[near].view(np.int64), expected[near].view(np.int64))
    assert np.all((got[~near] == expected[~near]) | (got[~near] == np.inf))


class TestKnnDistancesMatchCdist:
    @settings(max_examples=200)
    @given(case=_hard_knn_case())
    def test_knn_match_on_long_descriptors(self, case):
        desc_a, desc_b, ratio = case
        a = [_kp("a", d) for d in desc_a]
        b = [_kp("b", d) for d in desc_b]
        assert _outcome(knn_match, a, b, ratio=ratio) == _outcome(
            _knn_match_loop, a, b, ratio=ratio
        )

    @settings(max_examples=200)
    @given(case=_hard_knn_case())
    def test_best_two_entries_have_cdists_bits(self, case):
        _assert_best_two_exact(*case[:2])

    @pytest.mark.parametrize("desc_a, desc_b", [
        # |a|^2 and |b|^2 overflow: the expanded form is inf - inf, but
        # both 1e200 rows are at distance 0.
        ([[1e200]], [[1e200], [1e200], [0.0]]),
        # Only |b|^2 overflows, on the nearest row.
        ([[1.3e154]], [[1.35e154], [0.0], [1.0]]),
        # inf - inf beside finite entries, which hold the nearest rows.
        ([[1e154]], [[1e200], [1e200], [1.0], [2.0]]),
        # Squares in the subnormal range: the relative margin underflows
        # to 0, and the third row ties the second after the square root.
        ([[-6e-162, -2e-162]],
         [[7e-162, -5e-162], [0.0, -4e-162], [-8e-162, 4e-162], [-7e-162, -4e-162]]),
    ], ids=["nan-expanded-form", "inf-expanded-form", "nan-beside-finite", "subnormal"])
    def test_overflow_and_underflow(self, desc_a, desc_b):
        desc_a, desc_b = np.array(desc_a), np.array(desc_b)
        _assert_best_two_exact(desc_a, desc_b)
        a = [_kp("a", d) for d in desc_a]
        b = [_kp("b", d) for d in desc_b]
        assert _outcome(knn_match, a, b) == _outcome(_knn_match_loop, a, b)


_GRID = st.integers(0, 20).map(lambda v: 5.0 * v)


@st.composite
def _rejection_case(draw):
    landmarks = LandmarkSet({cam: (100, 100) for cam in "abc"})
    site = st.tuples(_GRID, _GRID).filter(lambda p: p[0] < 100 and p[1] < 100)
    for cam in draw(st.sampled_from(["ab", "abc"])):
        sites = draw(st.lists(site, min_size=1, max_size=4, unique=True))
        ids = draw(st.permutations(range(6)))
        for gid, xy in zip(ids, sites):
            landmarks.add(cam, gid, xy)

    # Boxes on the 5 px grid, so detection centres also tie.
    boxes = 5.0 * np.random.default_rng(draw(st.integers(0, 2**16))).integers(
        0, 21, size=(3, 3, 2, 4)
    )
    detections = {
        (cam, frame, index): Detection(cam, frame, index, x, y, x + w, y + h)
        for c, cam in enumerate("abc")
        for frame in range(3)
        for index in range(2)
        for x, y, w, h in [boxes[c, frame, index].tolist()]
    }

    position = st.one_of(_GRID, st.floats(-10.0, 110.0, allow_nan=False))
    keypoint = st.builds(
        lambda cam, frame, det, x, y: _kp(cam, [0.0], x=x, y=y, det=det, frame=frame),
        st.sampled_from("abc"), st.integers(0, 2), st.integers(0, 1), position, position,
    )
    matches = [
        FeatureMatch(kp_a, kp_b, float(i))
        for i, (kp_a, kp_b) in enumerate(
            draw(st.lists(st.tuples(keypoint, keypoint), max_size=12))
        )
    ]
    anchor = draw(st.sampled_from(["keypoint", "detection_center"]))
    table = detections if draw(st.integers(0, 5)) else None
    return matches, landmarks, anchor, table


class TestRejectByLandmarkMatchesLoop:
    @settings(max_examples=100)
    @given(case=_rejection_case())
    def test_random_matches(self, case):
        matches, landmarks, anchor, table = case
        assert _outcome(
            reject_by_landmark, matches, landmarks, anchor=anchor, detections=table
        ) == _outcome(
            _reject_by_landmark_loop, matches, landmarks, anchor=anchor,
            detections=table,
        )

    def test_equidistant_landmarks_and_two_cameras_in_one_call(self):
        landmarks = LandmarkSet({"a": (100, 100), "b": (100, 100), "c": (100, 100)})
        for cam in "abc":
            landmarks.add(cam, 9, (20.0, 50.0))
            landmarks.add(cam, 3, (80.0, 50.0))
        on_bisector = _kp("a", [0.0], x=50.0, y=10.0)
        matches = [
            FeatureMatch(on_bisector, _kp("b", [0.0], x=70.0, y=50.0), 0.0),
            FeatureMatch(_kp("c", [0.0], x=50.0, y=90.0),
                         _kp("b", [0.0], x=30.0, y=50.0), 0.0),
        ]
        decided, _ = reject_by_landmark(matches, landmarks)
        assert [(m.landmark_a, m.landmark_b) for m in decided] == [(3, 3), (3, 9)]
        assert _outcome(reject_by_landmark, matches, landmarks) == _outcome(
            _reject_by_landmark_loop, matches, landmarks
        )

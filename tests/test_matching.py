"""Tests for kNN matching, landmark rejection, and correspondence clustering."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from avitrack.camera import CameraModel
from avitrack.errors import DimensionMismatchError, NoLandmarksError
from avitrack.matching import (
    KEPT,
    REJECTED,
    FeatureMatch,
    Keypoint,
    KeypointTable,
    cluster_correspondences,
    knn_distances,
    knn_match,
    pair_matches,
    reject_by_landmark,
)
from avitrack.reconstruction import detection_centers
from avitrack.voronoi import LandmarkSet, nearest_landmark
from matching_reference import (
    DetectionRow,
    cluster_correspondences_loop,
    detection_table,
    knn_match_loop,
    match_table,
    pair_matches_loop,
    reject_by_landmark_loop,
    table_of,
)


def _kp(camera_id, descriptor, x=10.0, y=10.0, det=0, frame=0):
    return Keypoint(
        camera_id=camera_id,
        frame=frame,
        detection_index=det,
        position=np.array([x, y], dtype=float),
        descriptor=np.asarray(descriptor, dtype=float),
    )


def _knn(a, b, **kwargs):
    return knn_match(table_of(a), table_of(b), **kwargs)


class TestKnnMatch:
    def test_single_identical_descriptor_matches_without_ratio(self):
        """With one candidate the ratio test cannot run; the match is kept."""
        matches = _knn([_kp("a", [1.0, 2.0])], [_kp("b", [1.0, 2.0])])
        assert len(matches) == 1
        assert matches.distance.tolist() == [0.0]

    def test_ratio_below_threshold_kept(self):
        """d1=0.5, d2=1.0: 0.5 < 0.75 so the candidate is emitted."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [0.5]), _kp("b", [1.0])]
        matches = _knn(a, b)
        assert len(matches) == 1
        assert matches.row_b.tolist() == [0]
        assert matches.distance[0] == pytest.approx(0.5)

    def test_ratio_above_threshold_dropped(self):
        """d1=0.8, d2=0.9: 0.89 >= 0.75 so no candidate."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [0.8]), _kp("b", [-0.9])]
        assert len(_knn(a, b)) == 0

    def test_exact_tie_fails_ratio_test(self):
        """Two equidistant best candidates are ambiguous and dropped."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [0.5]), _kp("b", [-0.5]), _kp("b", [4.0])]
        assert len(_knn(a, b, ratio=0.9)) == 0

    def test_distance_tie_goes_to_the_lower_index(self):
        """Above ratio 1 a tie passes the ratio test; the first tied keypoint wins."""
        a = [_kp("a", [0.0])]
        b = [_kp("b", [3.0]), _kp("b", [0.5]), _kp("b", [-0.5])]
        assert _knn(a, b, ratio=1.5).row_b.tolist() == [1]

    def test_deterministic_on_random_input(self):
        rng = np.random.default_rng(44)
        a = table_of([_kp("a", rng.normal(size=8)) for _ in range(30)])
        b = table_of([_kp("b", rng.normal(size=8)) for _ in range(30)])
        first = knn_match(a, b)
        second = knn_match(a, b)
        assert first.row_a.tolist() == second.row_a.tolist()
        assert first.row_b.tolist() == second.row_b.tolist()

    def test_descriptor_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            _knn([_kp("a", [1.0, 2.0])], [_kp("b", [1.0, 2.0, 3.0])])

    def test_empty_sides_give_no_matches(self):
        assert len(_knn([], [_kp("b", [1.0])])) == 0
        assert len(_knn([_kp("a", [1.0])], [])) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptor_names_its_side(self, bad):
        good = [_kp("a", [0.0, 1.0]), _kp("a", [1.0, 0.0])]
        poisoned = [_kp("b", [0.0, 1.0]), _kp("b", [bad, 0.0])]
        with pytest.raises(ValueError, match="non-finite descriptor on side B"):
            _knn(good, poisoned)
        with pytest.raises(ValueError, match="non-finite descriptor on side A"):
            _knn(poisoned, good)

    def test_matches_iterate_as_feature_matches(self):
        """Row i of the table is ``FeatureMatch`` i, keypoints by value."""
        a = [_kp("a", [0.0], det=3, frame=2), _kp("a", [5.0], x=7.0, frame=2)]
        b = [_kp("b", [0.1], y=4.0, frame=2), _kp("b", [4.0], det=1, frame=2)]
        (first, second) = list(_knn(a, b))
        assert (first.keypoint_a.detection_index, first.keypoint_b.position.tolist(),
                first.descriptor_distance, first.verdict) == (3, [10.0, 4.0], 0.1, None)
        assert (second.keypoint_a.position.tolist(), second.keypoint_b.detection_index,
                second.landmark_a) == ([7.0, 10.0], 1, None)


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

    def _reject(self, matches, landmarks):
        return reject_by_landmark(match_table(matches), landmarks)

    def test_agreeing_landmarks_kept(self, landmarks):
        decided, _ = self._reject([self._match((40, 40), (70, 50))], landmarks)
        assert decided.kept.tolist() == [True]
        assert decided.landmark_a.tolist() == [4]
        assert decided.landmark_b.tolist() == [4]

    def test_disagreeing_landmarks_rejected(self, landmarks):
        decided, _ = self._reject([self._match((40, 40), (150, 150))], landmarks)
        assert [m.verdict for m in decided] == [REJECTED]
        assert (decided.landmark_a[0], decided.landmark_b[0]) == (4, 7)

    def test_stats_cover_frames(self, landmarks):
        matches = [
            self._match((40, 40), (70, 50)),       # kept
            self._match((40, 40), (150, 150)),     # rejected
        ]
        _, (summary,) = self._reject(matches, landmarks)
        assert (summary.frame, summary.candidates, summary.rejected) == (0, 2, 1)

    def test_missing_landmarks_raise(self):
        empty = LandmarkSet({"a": (200, 200), "b": (200, 200)})
        with pytest.raises(NoLandmarksError):
            self._reject([self._match((1, 1), (2, 2))], empty)

    def test_verdicts_match_brute_force_recomputation(self, landmarks):
        """Kept set equals an exhaustive nearest-site recomputation."""
        rng = np.random.default_rng(13)
        matches = [
            self._match(rng.uniform(0, 200, 2), rng.uniform(0, 200, 2))
            for _ in range(200)
        ]
        decided, _ = self._reject(matches, landmarks)
        for match in decided:
            expected_a = nearest_landmark(landmarks, "a", match.keypoint_a.position)
            expected_b = nearest_landmark(landmarks, "b", match.keypoint_b.position)
            expected = KEPT if expected_a == expected_b else REJECTED
            assert match.verdict == expected


class TestClusterCorrespondences:
    def _matches(self, rows, verdict=KEPT):
        """rows: list of (det_a, det_b, distance) matches with ``verdict``."""
        return match_table([
            FeatureMatch(
                keypoint_a=_kp("a", [0.0], det=det_a),
                keypoint_b=_kp("b", [0.0], det=det_b),
                descriptor_distance=dist,
                verdict=verdict,
            )
            for det_a, det_b, dist in rows
        ])

    def test_min_support_drops_singletons(self):
        matches = self._matches(
            [(0, 1, 0.1), (0, 1, 0.2), (0, 1, 0.3), (0, 2, 0.1)]
        )
        chosen = cluster_correspondences(matches, min_support=2)
        assert [(c.detection_index_a, c.detection_index_b) for c in chosen] == [(0, 1)]
        assert chosen[0].support == 3

    def test_no_kept_matches_empty(self):
        no_matches = replace(self._matches([]), kept=np.zeros(0, dtype=bool))
        assert cluster_correspondences(no_matches) == []
        assert cluster_correspondences(self._matches([(0, 1, 0.1)], REJECTED)) == []

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

    def test_mean_is_np_mean_in_match_order(self):
        """Nine distances whose in-order running sum differs from numpy's
        pairwise sum in the last bit: the mean must be ``np.mean``'s."""
        distances = [0.8306736121361125, 0.4819560263253806, 2.909776239648398,
                     1.548205756643636, 0.34759683741231095, 1.8704692666125013,
                     2.330049343026894, 1.8390099031591214, 2.751893114372708]
        running = 0.0
        for d in distances:
            running += d
        assert running / 9 != float(np.mean(distances))
        (chosen,) = cluster_correspondences(self._matches([(0, 1, d) for d in distances]))
        assert chosen.mean_descriptor_distance == float(np.mean(distances))
        assert chosen.support == 9

    def test_undecided_matches_raise(self):
        """Clustering and the summaries take decided matches only."""
        rows = [(0, 1, 0.2), (0, 1, 0.4), (2, 1, 0.1)]
        for undecided in (self._matches(rows, verdict=None), self._matches([])):
            assert undecided.kept is None
            with pytest.raises(ValueError, match="no verdict"):
                cluster_correspondences(undecided, 1)
            with pytest.raises(ValueError, match="no verdict"):
                pair_matches(undecided)


def _key(kp):
    """A keypoint by value, every bit of every field."""
    return (kp.camera_id, type(kp.frame), kp.frame, type(kp.detection_index),
            kp.detection_index, kp.position.tobytes(), kp.descriptor.tobytes())


def _records(matches):
    """Matches (a ``MatchTable`` or ``FeatureMatch`` list) by value; other
    fields by repr, which tells int from np.int64 and shows every bit of a
    float."""
    return [
        (
            _key(m.keypoint_a), _key(m.keypoint_b), repr(m.descriptor_distance),
            repr(m.landmark_a), repr(m.landmark_b), m.verdict,
        )
        for m in matches
    ]


def _outcome(function, *args, **kwargs):
    """A comparable record of a call: its result, or its exception."""
    try:
        result = function(*args, **kwargs)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    matches, summaries = result if isinstance(result, tuple) else (result, None)
    return _records(matches), None if summaries is None else _summaries(summaries)


def _summaries(summaries):
    """``PairMatches`` by value: fields by type and value, arrays by dtype,
    shape and bytes."""
    return [
        (type(s.frame), s.frame, s.camera_a, s.camera_b, s.candidates, s.rejected,
         *[(v.dtype.str, v.shape, v.tobytes()) for v in (s.detections, s.xy_a, s.xy_b)])
        for s in summaries
    ]


# An ideal camera per test camera, for the detection-centre table.
_CAMERAS = {
    cam: CameraModel(cam, 100.0, 100.0, 50.0, 50.0, np.zeros(5), np.eye(3),
                     np.zeros(3), (100, 100))
    for cam in "abc"
}


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
    a = [_kp("a", d, det=i) for i, d in enumerate(desc_a)]
    b = [_kp("b", d, det=i) for i, d in enumerate(desc_b)]
    if desc_b and draw(st.booleans()):  # a duplicated descriptor, told apart by det
        b.append(_kp("b", desc_b[draw(st.integers(0, len(b) - 1))], det=len(b)))
    ratio = draw(st.one_of(st.sampled_from([0.5, 0.75, 1.0]), st.floats(0.01, 1.5)))
    return a, b, ratio


class TestKnnMatchMatchesRowLoop:
    @settings(max_examples=200)
    @given(case=_knn_case())
    def test_random_descriptor_sets(self, case):
        a, b, ratio = case
        assert _outcome(_knn, a, b, ratio=ratio) == _outcome(
            knn_match_loop, a, b, ratio=ratio
        )

    def test_single_candidate_and_exact_ties(self):
        a = [_kp("a", [0.0]), _kp("a", [1.0]), _kp("a", [0.5])]
        for b in ([_kp("b", [0.5])], [_kp("b", [0.0]), _kp("b", [1.0])]):
            assert _outcome(_knn, a, b, ratio=0.9) == _outcome(
                knn_match_loop, a, b, ratio=0.9
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
        a = [_kp("a", d, det=i) for i, d in enumerate(desc_a)]
        b = [_kp("b", d, det=i) for i, d in enumerate(desc_b)]
        assert _outcome(_knn, a, b, ratio=ratio) == _outcome(
            knn_match_loop, a, b, ratio=ratio
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
        a = [_kp("a", d, det=i) for i, d in enumerate(desc_a)]
        b = [_kp("b", d, det=i) for i, d in enumerate(desc_b)]
        assert _outcome(_knn, a, b) == _outcome(knn_match_loop, a, b)


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
        (cam, frame, index): DetectionRow(cam, frame, index, x, y, x + w, y + h)
        for c, cam in enumerate("abc")
        for frame in range(3)
        for index in range(2)
        for x, y, w, h in [boxes[c, frame, index].tolist()]
    }

    # One frame of one camera pair, as the run matches them.
    frame = draw(st.integers(0, 2))
    cam_a, cam_b = draw(st.sampled_from("abc")), draw(st.sampled_from("abc"))
    position = st.one_of(_GRID, st.floats(-10.0, 110.0, allow_nan=False))

    def keypoint(cam):
        return st.builds(lambda det, x, y: _kp(cam, [0.0], x=x, y=y, det=det, frame=frame),
                         st.integers(0, 1), position, position)

    matches = [
        FeatureMatch(kp_a, kp_b, float(i))
        for i, (kp_a, kp_b) in enumerate(
            draw(st.lists(st.tuples(keypoint(cam_a), keypoint(cam_b)), max_size=12))
        )
    ]
    anchor = draw(st.sampled_from(["keypoint", "detection_center"]))
    table = detections if draw(st.integers(0, 5)) else None
    return matches, landmarks, anchor, table


class TestRejectByLandmarkMatchesLoop:
    @settings(max_examples=100)
    @given(case=_rejection_case())
    def test_random_matches(self, case):
        """Over one frame of any camera pair, rejection, and then the
        summaries and clustering of its matches, agree with the loops; the
        summaries it returns are ``pair_matches`` of its matches."""
        matches, landmarks, anchor, detections = case
        centers = None if detections is None else detection_centers(
            detection_table(detections.values()), _CAMERAS)
        got = _outcome(reject_by_landmark, match_table(matches), landmarks,
                       anchor=anchor, centers=centers)
        assert got == _outcome(reject_by_landmark_loop, matches, landmarks,
                               anchor=anchor, detections=detections)
        if got[0] != "raised":
            decided, summaries = reject_by_landmark(match_table(matches), landmarks,
                                                    anchor=anchor, centers=centers)
            expected, _ = reject_by_landmark_loop(matches, landmarks, anchor=anchor,
                                                  detections=detections)
            assert _summaries(summaries) == _summaries(pair_matches(decided))
            assert _summaries(pair_matches(decided)) == _summaries(
                pair_matches_loop(expected))
            assert repr(cluster_correspondences(decided, 1)) == repr(
                cluster_correspondences_loop(expected, 1))

    def test_equidistant_landmarks_and_two_cameras_in_one_call(self):
        """Both A keypoints lie on the bisector of landmarks 9 and 3: the
        tie goes to 3, as in the loop."""
        landmarks = LandmarkSet({"a": (100, 100), "b": (100, 100)})
        for cam in "ab":
            landmarks.add(cam, 9, (20.0, 50.0))
            landmarks.add(cam, 3, (80.0, 50.0))
        on_bisector = _kp("a", [0.0], x=50.0, y=10.0)
        matches = [
            FeatureMatch(on_bisector, _kp("b", [0.0], x=70.0, y=50.0), 0.0),
            FeatureMatch(_kp("a", [0.0], x=50.0, y=90.0),
                         _kp("b", [0.0], x=30.0, y=50.0), 0.0),
        ]
        decided, _ = reject_by_landmark(match_table(matches), landmarks)
        assert [(m.landmark_a, m.landmark_b) for m in decided] == [(3, 3), (3, 9)]
        assert _outcome(reject_by_landmark, match_table(matches), landmarks) == _outcome(
            reject_by_landmark_loop, matches, landmarks
        )

    def test_first_camera_without_landmarks_is_named(self):
        """With both cameras unregistered, the error names side A's, the
        one a per-match loop meets first."""
        landmarks = LandmarkSet({cam: (100, 100) for cam in "abc"})
        landmarks.add("a", 1, (20.0, 20.0))
        matches = [FeatureMatch(_kp("b", [0.0]), _kp("c", [0.0]), 0.0),
                   FeatureMatch(_kp("b", [0.0], det=1), _kp("c", [0.0]), 0.0)]
        with pytest.raises(NoLandmarksError, match="'b'"):
            reject_by_landmark(match_table(matches), landmarks)
        assert _outcome(reject_by_landmark, match_table(matches), landmarks) == _outcome(
            reject_by_landmark_loop, matches, landmarks)

    @pytest.mark.parametrize("sides", [
        [(("a", 0), ("b", 0)), (("c", 0), ("b", 0))],
        [(("a", 0), ("b", 0)), (("a", 0), ("c", 0))],
        [(("a", 0), ("b", 0)), (("a", 1), ("b", 1))],
        [(("a", 0), ("b", 1))],
    ], ids=["two-cameras-on-a", "two-cameras-on-b", "two-frames", "frames-differ"])
    def test_tables_beyond_one_frame_of_one_pair_raise(self, sides):
        landmarks = LandmarkSet({cam: (100, 100) for cam in "abc"})
        for cam in "abc":
            landmarks.add(cam, 1, (20.0, 20.0))
        matches = [
            FeatureMatch(_kp(cam_a, [0.0], frame=frame_a), _kp(cam_b, [0.0], frame=frame_b),
                         0.0, verdict=KEPT)
            for (cam_a, frame_a), (cam_b, frame_b) in sides
        ]
        with pytest.raises(ValueError, match="one frame of one camera pair"):
            reject_by_landmark(match_table([replace(m, verdict=None) for m in matches]),
                               landmarks)
        with pytest.raises(ValueError, match="one frame of one camera pair"):
            pair_matches(match_table(matches))

    def test_detection_centres_are_needed_only_with_matches(self):
        landmarks = LandmarkSet({"a": (100, 100), "b": (100, 100)})
        for cam in "ab":
            landmarks.add(cam, 1, (20.0, 20.0))
        empty, summaries = reject_by_landmark(match_table([]), landmarks,
                                              anchor="detection_center")
        assert (len(empty), summaries) == (0, [])
        one = match_table([FeatureMatch(_kp("a", [0.0]), _kp("b", [0.0]), 0.0)])
        with pytest.raises(ValueError, match="needs the detection centres"):
            reject_by_landmark(one, landmarks, anchor="detection_center")


_COARSE = st.integers(0, 3).map(lambda v: 12.5 + 25.0 * v)


@st.composite
def _chain_case(draw):
    """Two cameras' keypoints in one frame, as ``_process_frame`` meets them.

    Descriptors take few values, so distance ties and duplicate rows are
    common; a side may be empty and B may hold one keypoint; ratios reach
    down to 0.01, where almost nothing passes. Landmarks, keypoints and
    boxes lie on a 25 px grid, so nearest-landmark ties are common at both
    anchors. A crowded frame has one detection and one shared landmark per
    camera and a ratio of at least 1, so one detection pair gathers 9 or
    more kept matches, where ``np.mean`` sums pairwise.
    """
    crowded = draw(st.integers(0, 3)) == 0
    landmarks = LandmarkSet({"a": (100, 100), "b": (100, 100)})
    site = st.tuples(_COARSE, _COARSE)
    for cam in "ab":
        sites = draw(st.lists(site, min_size=1, max_size=1 if crowded else 3, unique=True))
        ids = [0] if crowded else draw(st.permutations(range(4)))
        for gid, xy in zip(ids, sites):
            landmarks.add(cam, gid, xy)
    n_det = 1 if crowded else draw(st.integers(1, 3))
    boxes = 25.0 * np.random.default_rng(draw(st.integers(0, 2**16))).integers(
        0, 4, size=(2, n_det, 4)
    )
    detections = {
        (cam, 0, index): DetectionRow(cam, 0, index, x, y, x + w, y + h)
        for c, cam in enumerate("ab")
        for index in range(n_det)
        for x, y, w, h in [boxes[c, index].tolist()]
    }
    dim = draw(st.integers(1, 3))
    descriptor = st.lists(_COORD, min_size=dim, max_size=dim)
    position = st.one_of(_COARSE, st.floats(-10.0, 110.0, allow_nan=False))

    def keypoints(cam, count):
        return [
            _kp(cam, draw(descriptor), x=draw(position), y=draw(position),
                det=draw(st.integers(0, n_det - 1)))
            for _ in range(count)
        ]

    a = keypoints("a", draw(st.sampled_from([9, 12, 16] if crowded else [0, 1, 3, 6, 10])))
    b = keypoints("b", draw(st.sampled_from([1, 2, 4] if crowded else [0, 1, 2, 3, 5])))
    if b and draw(st.booleans()):  # a duplicated descriptor
        b.append(_kp("b", draw(st.sampled_from(b)).descriptor, det=0))
    ratio = draw(st.sampled_from([1.0, 1.5]) if crowded else st.one_of(
        st.sampled_from([0.01, 0.75, 1.0, 1.5]), st.floats(0.01, 1.5)))
    anchor = draw(st.sampled_from(["keypoint", "detection_center"]))
    return a, b, landmarks, detections, anchor, ratio, draw(st.integers(1, 3))


class TestColumnarChainMatchesObjects:
    """``knn_match`` -> ``reject_by_landmark`` -> ``cluster_correspondences``
    and ``pair_matches`` on keypoint tables give, bit for bit, what the
    per-object stages give on the same keypoints as objects."""

    @settings(max_examples=300)
    @given(case=_chain_case())
    def test_random_frames(self, case):
        a, b, landmarks, detections, anchor, ratio, min_support = case
        candidates = knn_match(table_of(a), table_of(b), ratio=ratio)
        expected_candidates = knn_match_loop(a, b, ratio=ratio)
        assert _records(candidates) == _records(expected_candidates)
        with pytest.raises(ValueError, match="no verdict"):
            pair_matches(candidates)  # undecided matches

        decided, summaries = reject_by_landmark(
            candidates, landmarks, anchor=anchor,
            centers=detection_centers(detection_table(detections.values()), _CAMERAS))
        expected, expected_summaries = reject_by_landmark_loop(
            expected_candidates, landmarks, anchor=anchor, detections=detections)
        assert _records(decided) == _records(expected)
        assert _summaries(summaries) == _summaries(expected_summaries)
        assert repr(cluster_correspondences(decided, min_support)) == repr(
            cluster_correspondences_loop(expected, min_support))
        assert _summaries(pair_matches(decided)) == _summaries(pair_matches_loop(expected))


@st.composite
def _table_case(draw):
    n = draw(st.integers(0, 12))
    cameras = draw(st.lists(st.sampled_from(["cam1", "cam0", "c"]), min_size=n, max_size=n))
    frames = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    values = np.arange(n * 5, dtype=float).reshape(n, 5)
    table = KeypointTable(np.array(cameras, dtype=object), np.array(frames, dtype=np.int64),
                          np.arange(n, dtype=np.int64) * 7, values[:, :2], values[:, 2:])
    rows = draw(st.none() | st.permutations(range(n)).flatmap(
        lambda order: st.integers(0, n).map(lambda k: order[:k])))
    return table, rows


class TestKeypointTable:
    @settings(max_examples=200)
    @given(case=_table_case())
    def test_groups_match_a_dict_loop(self, case):
        """Row indices per (camera, frame), sorted keys, each group in the
        order the rows were given."""
        table, rows = case
        expected = {}
        for row in range(len(table)) if rows is None else rows:
            key = (table.camera[row], int(table.frame[row]))
            expected.setdefault(key, []).append(row)
        got = table.groups(rows)
        assert list(got) == sorted(expected)
        assert {key: value.tolist() for key, value in got.items()} == expected
        assert all(type(frame) is int for _, frame in got)

    @settings(max_examples=50)
    @given(case=_table_case())
    def test_keypoints_are_views_of_the_rows(self, case):
        table, rows = case
        rows = list(range(len(table))) if rows is None else rows
        keypoints = table.keypoints(None if rows == list(range(len(table))) else rows)
        assert len(keypoints) == len(rows)
        for kp, row in zip(keypoints, rows):
            assert (kp.camera_id, kp.frame, kp.detection_index) == (
                table.camera[row], int(table.frame[row]), 7 * row)
            assert type(kp.frame) is int and type(kp.detection_index) is int
            assert kp.position.base is table.xy.base
            assert kp.position.tolist() == table.xy[row].tolist()
            assert kp.descriptor.tolist() == table.desc[row].tolist()

    @settings(max_examples=50)
    @given(case=_table_case())
    def test_take_copies_the_rows(self, case):
        """``take`` copies each column once; the copy iterates as keypoints."""
        table, rows = case
        rows = list(range(len(table))) if rows is None else rows
        taken = table.take(rows)
        for name in ("camera", "frame", "detection", "xy", "desc"):
            column, source = getattr(taken, name), getattr(table, name)
            assert column.tolist() == source[rows].tolist()
            assert not np.shares_memory(column, source)
        assert [kp.detection_index for kp in taken] == [7 * row for row in rows]
        assert [kp.frame for kp in taken] == table.frame[rows].tolist()

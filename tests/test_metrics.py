"""Tests for keypoint, rejection, and tracking metric records."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack.errors import EmptyInputError, MissingLabelsError
from avitrack.matching import KEPT, REJECTED, FeatureMatch, Keypoint
from avitrack.metrics import (
    GroundTruth,
    _match_truth_to_tracks,
    keypoint_stats,
    rejection_stats,
    tracking_metrics,
)
from matching_reference import pair_matches_loop as pair_matches


def _match(frame, det_a, det_b, verdict):
    return FeatureMatch(
        keypoint_a=Keypoint("a", frame, det_a, np.zeros(2), np.zeros(2)),
        keypoint_b=Keypoint("b", frame, det_b, np.zeros(2), np.zeros(2)),
        descriptor_distance=0.1, verdict=verdict,
    )


class TestKeypointStats:
    def test_constant_counts(self):
        record = keypoint_stats({"cam0": {f: 10 for f in range(5)}}, list(range(5)))
        assert record["cam0"] == {"min": 10, "max": 10, "mean": 10.0, "std": 0.0}

    def test_two_counts_population_std(self):
        record = keypoint_stats({"cam0": {0: 2, 1: 4}}, [0, 1])
        assert record["cam0"]["min"] == 2
        assert record["cam0"]["max"] == 4
        assert record["cam0"]["mean"] == pytest.approx(3.0)
        assert record["cam0"]["std"] == pytest.approx(1.0)

    def test_missing_frames_count_zero(self):
        record = keypoint_stats({"cam0": {0: 6}}, [0, 1, 2])
        assert record["cam0"]["min"] == 0
        assert record["cam0"]["mean"] == pytest.approx(2.0)

    def test_empty_interval_raises(self):
        with pytest.raises(EmptyInputError):
            keypoint_stats({"cam0": {}}, [])


class TestRejectionStats:
    def _truth(self, labels):
        return GroundTruth(positions={}, identities=labels)

    def test_all_correct_and_kept(self):
        matches = [_match(0, 0, 0, KEPT), _match(0, 1, 1, KEPT)]
        truth = self._truth(
            {("a", 0, 0): 5, ("b", 0, 0): 5, ("a", 0, 1): 6, ("b", 0, 1): 6}
        )
        record = rejection_stats(pair_matches(matches), truth)
        assert record["avg_rejection_pct"] == 0.0
        assert record["ratio_correct_final_over_initial"] == 1.0
        assert record["ratio_correct_final_over_final"] == 1.0

    def test_partial_keep_ratios(self):
        """10 initial, 2 kept, both correct: ratios 0.2 and 1.0."""
        matches = [_match(0, i, i, KEPT if i < 2 else REJECTED) for i in range(10)]
        labels = {}
        for i in range(10):
            labels[("a", 0, i)] = i
            labels[("b", 0, i)] = i
        record = rejection_stats(pair_matches(matches), self._truth(labels))
        assert record["ratio_correct_final_over_initial"] == pytest.approx(0.2)
        assert record["ratio_correct_final_over_final"] == pytest.approx(1.0)
        assert record["avg_rejection_pct"] == pytest.approx(80.0)

    def test_ratios_none_without_truth(self):
        record = rejection_stats(pair_matches([_match(0, 0, 0, KEPT)]), truth=None)
        assert record["ratio_correct_final_over_initial"] is None

    def test_missing_labels_raise(self):
        matches = [_match(0, 0, 0, KEPT)]
        with pytest.raises(MissingLabelsError):
            rejection_stats(pair_matches(matches), self._truth({("a", 0, 0): 5}))

    def test_ranges(self):
        rng = np.random.default_rng(2)
        matches = [
            _match(int(f), 0, 0, KEPT if rng.uniform() < 0.5 else REJECTED)
            for f in rng.integers(0, 10, size=100)
        ]
        record = rejection_stats(pair_matches(matches), truth=None)
        assert 0.0 <= record["avg_rejection_pct"] <= 100.0
        assert 0.0 <= record["std_rejection_pct"] <= 100.0


def _rejection_stats_loop(matches, truth=None):
    """The per-match ``rejection_stats`` that the summaries replaced, as reference."""
    undecided = [m for m in matches if m.verdict is None]
    if undecided:
        raise ValueError(f"{len(undecided)} matches have no verdict")
    per_frame = defaultdict(list)
    for match in matches:
        per_frame[match.keypoint_a.frame].append(match.verdict != KEPT)
    pct = np.array([100.0 * sum(v) / len(v) for _, v in sorted(per_frame.items())])
    kept = [m for m in matches if m.verdict == KEPT]
    record = {
        "avg_rejection_pct": float(pct.mean()) if pct.size else 0.0,
        "std_rejection_pct": float(pct.std()) if pct.size else 0.0,
        "total_initial_matches": len(matches),
        "total_final_matches": len(kept),
        "ratio_correct_final_over_initial": None,
        "ratio_correct_final_over_final": None,
    }
    if truth is not None:
        correct_final = sum(1 for m in kept if truth.match_is_correct(m))
        record["ratio_correct_final_over_initial"] = (
            correct_final / len(matches) if matches else None
        )
        record["ratio_correct_final_over_final"] = correct_final / len(kept) if kept else None
    return record


class TestRejectionStatsMatchesLoop:
    @staticmethod
    def _outcome(function, *args):
        try:
            return repr(function(*args))
        except Exception as exc:
            return ("raised", type(exc), str(exc))

    @settings(max_examples=200)
    @given(
        rows=st.lists(st.tuples(
            st.integers(0, 3), st.sampled_from([("a", "b"), ("b", "c"), ("a", "c")]),
            st.integers(0, 3), st.integers(0, 3),
            st.sampled_from([KEPT, KEPT, REJECTED, None]),
        ), max_size=30),
        labelled=st.sampled_from([None, "all", "some"]),
        data=st.data(),
    )
    def test_random_matches(self, rows, labelled, data):
        """Frames interleave across pairs; some verdicts are missing, which
        the summaries raise on, and some labels, which raise at the same
        first match."""
        if data.draw(st.booleans()):  # most draws have every verdict
            rows = [row if row[4] is not None else row[:4] + (REJECTED,) for row in rows]
        matches = [
            FeatureMatch(
                Keypoint(cam_a, frame, det_a, np.zeros(2), np.zeros(1)),
                Keypoint(cam_b, frame, det_b, np.zeros(2), np.zeros(1)),
                descriptor_distance=0.0, verdict=verdict,
            )
            for frame, (cam_a, cam_b), det_a, det_b, verdict in rows
        ]
        truth = None
        if labelled is not None:
            keys = [(cam, frame, det) for cam in "abc" for frame in range(4)
                    for det in range(4)]
            if labelled == "some":
                keys = data.draw(st.lists(st.sampled_from(keys), unique=True))
            truth = GroundTruth({}, {key: data.draw(st.integers(0, 2)) for key in keys})
        got = self._outcome(lambda: rejection_stats(pair_matches(matches), truth))
        assert got == self._outcome(_rejection_stats_loop, matches, truth)


def _tracks_from_ids(ids_per_frame, positions):
    """Build track rows where identity i sits at positions[i] each frame."""
    rows = []
    for frame, ids in enumerate(ids_per_frame):
        for identity, track_id in ids.items():
            rows.append((frame, track_id, "confirmed", positions[identity]))
    return rows


class TestTrackingMetrics:
    def test_single_switch_sequence(self):
        """Matched track ids [1, 1, 2, 2] count exactly one switch."""
        position = np.zeros(3)
        truth = GroundTruth(
            positions={f: {0: position} for f in range(4)}, identities={}
        )
        rows = [
            (0, 1, "confirmed", position),
            (1, 1, "confirmed", position),
            (2, 2, "confirmed", position),
            (3, 2, "confirmed", position),
        ]
        record = tracking_metrics(rows, truth, fps=30.0)
        assert record["total_id_switches"] == 1

    def test_perfect_track_full_persistence(self):
        """One bird tracked for 60 s: zero switches, 100% at all horizons."""
        frames = int(60 * 30)
        position = np.array([1.0, 1.0, 1.0])
        truth = GroundTruth(
            positions={f: {0: position} for f in range(frames)}, identities={}
        )
        rows = [(f, 3, "confirmed", position) for f in range(frames)]
        record = tracking_metrics(rows, truth, fps=30.0)
        assert record["total_id_switches"] == 0
        assert record["birds_tracked_over_10s_pct"] == 100.0
        assert record["birds_tracked_over_30s_pct"] == 100.0
        assert record["birds_tracked_over_60s_pct"] == 100.0

    def test_misses_are_not_switches(self):
        position = np.zeros(3)
        far = np.array([10.0, 10.0, 10.0])
        truth = GroundTruth(
            positions={f: {0: position} for f in range(5)}, identities={}
        )
        rows = [
            (0, 1, "confirmed", position),
            (1, 1, "confirmed", far),        # miss: out of gate
            (2, 1, "confirmed", position),
            (3, 1, "confirmed", position),
            (4, 1, "confirmed", position),
        ]
        record = tracking_metrics(rows, truth, fps=30.0)
        assert record["total_id_switches"] == 0

    def test_switch_count_invariant_under_relabeling(self):
        rng = np.random.default_rng(5)
        position = np.zeros(3)
        truth = GroundTruth(
            positions={f: {0: position} for f in range(50)}, identities={}
        )
        ids = rng.integers(1, 4, size=50)
        rows = [(f, int(ids[f]), "confirmed", position) for f in range(50)]
        base = tracking_metrics(rows, truth, fps=30.0)["total_id_switches"]
        relabel = {1: 7, 2: 9, 3: 11}
        renamed = [(f, relabel[t], s, p) for f, t, s, p in rows]
        assert tracking_metrics(renamed, truth, fps=30.0)["total_id_switches"] == base

    def test_persistence_non_increasing_in_horizon(self):
        rng = np.random.default_rng(9)
        frames = int(70 * 30)
        truth_positions = {}
        rows = []
        for f in range(frames):
            truth_positions[f] = {}
            for identity in range(3):
                position = np.array([float(identity), 0.0, 0.0])
                truth_positions[f][identity] = position
                # Occasionally switch the serving track id.
                track_id = identity * 10 + int(rng.uniform() < 0.001)
                rows.append((f, track_id, "confirmed", position))
        truth = GroundTruth(positions=truth_positions, identities={})
        record = tracking_metrics(rows, truth, fps=30.0)
        p10 = record["birds_tracked_over_10s_pct"]
        p30 = record["birds_tracked_over_30s_pct"]
        p60 = record["birds_tracked_over_60s_pct"]
        assert p10 >= p30 >= p60

    def test_gap_tolerance_bridges_short_misses(self):
        position = np.zeros(3)
        frames = 300  # 10 s
        truth = GroundTruth(
            positions={f: {0: position} for f in range(frames)}, identities={}
        )
        rows = [
            (f, 1, "confirmed", position if f != 150 else np.full(3, 9.0))
            for f in range(frames)
        ]
        strict = tracking_metrics(rows, truth, fps=30.0, horizons_s=(10.0,))
        lenient = tracking_metrics(
            rows, truth, fps=30.0, horizons_s=(10.0,), gap_tolerance_frames=2
        )
        assert strict["birds_tracked_over_10s_pct"] == 0.0
        assert lenient["birds_tracked_over_10s_pct"] == 100.0


def _match_truth_to_tracks_loop(truth_positions, track_rows, gate):
    """The per-identity, per-track loop the distance matrix replaced."""
    tracks_by_frame = defaultdict(list)
    for frame, track_id, _, position in track_rows:
        tracks_by_frame[frame].append((track_id, np.asarray(position, dtype=float)))

    assignments = defaultdict(list)
    for frame in sorted(truth_positions):
        candidates = tracks_by_frame.get(frame, [])
        for identity in sorted(truth_positions[frame]):
            true_pos = np.asarray(truth_positions[frame][identity], dtype=float)
            best_id = None
            best_dist = float("inf")
            for track_id, pos in sorted(candidates, key=lambda c: c[0]):
                dist = float(np.linalg.norm(pos - true_pos))
                if dist <= gate and dist < best_dist:
                    best_id, best_dist = track_id, dist
            assignments[identity].append((frame, best_id))
    return assignments


# Integer grid points, so distances tie and land exactly on the gates
# below, and arbitrary points, where the rounding of the distance shows.
_GRID_POS = st.one_of(
    st.tuples(*[st.integers(-2, 2).map(float)] * 3),
    st.tuples(*[st.sampled_from([0.0, 0.5, np.nan])] * 3),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
).map(np.array)


@st.composite
def _truth_and_tracks(draw):
    frames = draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
    truth = {
        frame: draw(st.dictionaries(st.integers(0, 4), _GRID_POS, max_size=4))
        for frame in frames
    }
    rows = draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 5), st.just("confirmed"),
                  _GRID_POS),
        max_size=14,
    ))
    gate = draw(st.one_of(
        st.sampled_from(
            [0.0, 0.5, 1.0, float(np.sqrt(2.0)), float(np.sqrt(3.0)), 2.0, np.inf, np.nan]
        ),
        st.none(),
    ))
    targets = [(f, pos) for f, positions in truth.items() for pos in positions.values()]
    if gate is None:
        # Tracks near truth positions at arbitrary offsets; the gate is the
        # last one's distance as the reference rounds it.
        gate = 1.0
        if targets:
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            for _ in range(4):
                frame, target = targets[rng.integers(len(targets))]
                position = target + rng.uniform(-1.0, 1.0, size=3)
                rows.append((frame, int(rng.integers(6)), "confirmed", position))
                gate = float(np.linalg.norm(position - target))
    return truth, rows, gate


class TestTruthToTrackMatchesLoop:
    @settings(max_examples=150)
    @given(case=_truth_and_tracks())
    def test_random_frames(self, case):
        """Equal assignments on ties, at-gate distances, empty and NaN frames."""
        truth, rows, gate = case
        got = _match_truth_to_tracks(truth, rows, gate)
        expected = _match_truth_to_tracks_loop(truth, rows, gate)
        assert repr(dict(got)) == repr(dict(expected))

    def test_distance_at_gate_matches_and_ties_go_to_lower_id(self):
        truth = {0: {1: np.zeros(3)}, 1: {1: np.zeros(3)}, 2: {1: np.zeros(3)}}
        rows = [
            (0, 7, "confirmed", np.array([1.0, 0.0, 0.0])),
            (0, 4, "confirmed", np.array([0.0, -1.0, 0.0])),
            (1, 2, "confirmed", np.array([np.nan, 0.0, 0.0])),
        ]
        got = _match_truth_to_tracks(truth, rows, gate=1.0)
        assert got[1] == [(0, 4), (1, None), (2, None)]
        assert got == _match_truth_to_tracks_loop(truth, rows, gate=1.0)


def _tracking_metrics_two_walks(
    track_rows, truth, fps, gate=0.5, horizons_s=(10.0, 30.0, 60.0), gap_tolerance_frames=0
):
    """The switch walk and gap state machine the one-pass loop replaced."""
    assignments = _match_truth_to_tracks(truth.positions, track_rows, gate)

    switches = 0
    persistence_counts = {h: 0 for h in horizons_s}
    identities = sorted(assignments)
    for identity in identities:
        seq = assignments[identity]
        previous_id = None
        for _, track_id in seq:
            if track_id is None:
                continue
            if previous_id is not None and track_id != previous_id:
                switches += 1
            previous_id = track_id

        best_run_frames = 0
        run_id = None
        run_start = None
        last_matched = None
        gap = 0
        for frame, track_id in seq:
            if track_id is None:
                gap += 1
                if run_id is not None and gap > gap_tolerance_frames:
                    best_run_frames = max(best_run_frames, last_matched - run_start + 1)
                    run_id, run_start = None, None
                continue
            if track_id != run_id:
                if run_id is not None:
                    best_run_frames = max(best_run_frames, last_matched - run_start + 1)
                run_id = track_id
                run_start = frame
            gap = 0
            last_matched = frame
        if run_id is not None:
            best_run_frames = max(best_run_frames, last_matched - run_start + 1)

        for horizon in horizons_s:
            if best_run_frames >= horizon * fps:
                persistence_counts[horizon] += 1

    n_frames = len(truth.positions)
    duration_minutes = n_frames / fps / 60.0 if n_frames else 0.0
    n_identities = len(identities)
    record = {
        "total_id_switches": switches,
        "id_switches_per_minute": switches / duration_minutes if duration_minutes > 0 else 0.0,
        "n_identities": n_identities,
    }
    for horizon in horizons_s:
        pct = 100.0 * persistence_counts[horizon] / n_identities if n_identities else 0.0
        record[f"birds_tracked_over_{horizon:g}s_pct"] = pct
    return record


def _identity_tracks(sequences):
    """Truth and track rows where identity i is matched, per frame, to track
    ``10 * i + c`` for each ``c`` in ``sequences[i]``, or unmatched for None.
    ``sequences[i]`` maps frame to ``c``; absent frames have no truth for i."""
    positions, rows = {}, []
    for identity, sequence in sequences.items():
        position = np.array([5.0 * identity, 0.0, 0.0])
        for frame, choice in sequence.items():
            positions.setdefault(frame, {})[identity] = position
            if choice is not None:
                rows.append((frame, 10 * identity + choice, "confirmed", position))
    return GroundTruth(positions=positions, identities={}), rows


@st.composite
def _persistence_case(draw):
    frames = draw(st.lists(st.integers(0, 15), unique=True, max_size=12))
    sequences = {
        identity: {
            frame: draw(st.sampled_from([None, None, 0, 0, 1, 2]))
            for frame in frames if draw(st.integers(0, 5))
        }
        for identity in range(draw(st.integers(0, 3)))
    }
    horizons = draw(st.lists(st.integers(1, 16).map(float), min_size=1, max_size=3))
    return sequences, tuple(horizons), draw(st.integers(0, 3))


class TestPersistenceMatchesTwoWalks:
    @settings(max_examples=400)
    @given(case=_persistence_case())
    def test_random_sequences(self, case):
        """Gaps below, at and above the tolerance, switches inside gaps,
        unsorted and missing frames, and identities never matched."""
        sequences, horizons, tolerance = case
        truth, rows = _identity_tracks(sequences)
        kwargs = dict(fps=1.0, horizons_s=horizons, gap_tolerance_frames=tolerance)
        assert tracking_metrics(rows, truth, **kwargs) == _tracking_metrics_two_walks(
            rows, truth, **kwargs
        )

    def test_gap_at_tolerance_bridges_and_one_more_restarts(self):
        truth, rows = _identity_tracks({
            0: dict(enumerate([1, None, None, 1, None, None, None, 1, 2, None, 2])),
            1: dict(enumerate([None] * 11)),
        })
        kwargs = dict(fps=1.0, horizons_s=(4.0, 5.0), gap_tolerance_frames=2)
        record = tracking_metrics(rows, truth, **kwargs)
        assert record == _tracking_metrics_two_walks(rows, truth, **kwargs)
        # Identity 0: frames 0-3 bridge a 2-frame gap (4 frames); a 3-frame
        # gap restarts the run at 7; the switch at 8 restarts it again.
        assert record["total_id_switches"] == 1
        assert record["n_identities"] == 2
        assert record["birds_tracked_over_4s_pct"] == 50.0
        assert record["birds_tracked_over_5s_pct"] == 0.0

    def test_switch_inside_a_gap_restarts_the_run(self):
        truth, rows = _identity_tracks({0: dict(enumerate([1, None, 2, 2]))})
        kwargs = dict(fps=1.0, horizons_s=(2.0, 3.0), gap_tolerance_frames=5)
        record = tracking_metrics(rows, truth, **kwargs)
        assert record == _tracking_metrics_two_walks(rows, truth, **kwargs)
        assert record["total_id_switches"] == 1
        assert record["birds_tracked_over_2s_pct"] == 100.0
        assert record["birds_tracked_over_3s_pct"] == 0.0

"""Tests for the constant-acceleration Kalman filter and track lifecycle."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avitrack import tracking
from avitrack.errors import SingularInnovationError
from avitrack.tracking import (
    CONFIRMED,
    TENTATIVE,
    MultiObjectTracker,
    TrackState,
    TrackerConfig,
    associate,
    predict,
    process_noise,
    render_trajectories,
    run_tracker,
    transition_matrix,
    update,
)


def _track(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0),
           accel=(0.0, 0.0, 0.0), var=1.0) -> TrackState:
    state = np.concatenate([position, velocity, accel]).astype(float)
    return TrackState(track_id=1, state=state, covariance=var * np.eye(9))


class TestPredict:
    def test_at_rest_stays_put(self):
        track = predict(_track(position=(1.0, 2.0, 3.0)), dt=0.5)
        np.testing.assert_allclose(track.position, [1.0, 2.0, 3.0])

    def test_linear_motion(self):
        track = predict(_track(velocity=(3.0, 0.0, 0.0)), dt=1.0 / 30.0)
        np.testing.assert_allclose(track.position, [0.1, 0.0, 0.0])

    def test_acceleration_term(self):
        track = predict(_track(accel=(2.0, 0.0, 0.0)), dt=1.0)
        np.testing.assert_allclose(track.position, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(track.state[3:6], [2.0, 0.0, 0.0])  # velocity

    def test_covariance_trace_grows_with_noise(self):
        before = _track()
        after = predict(before, dt=0.1, jerk_sigma=5.0)
        assert np.trace(after.covariance) > np.trace(before.covariance)

    def test_covariance_stays_symmetric(self):
        track = _track()
        for _ in range(50):
            track = predict(track, dt=1.0 / 30.0)
        assert np.max(np.abs(track.covariance - track.covariance.T)) <= 1e-12

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            predict(_track(), dt=0.0)


class TestUpdate:
    def test_exact_measurement_snaps_position(self):
        """R -> 0 makes the posterior position equal the measurement."""
        track = update(_track(), [1.0, -2.0, 0.5], 1e-12 * np.eye(3))
        np.testing.assert_allclose(track.position, [1.0, -2.0, 0.5], atol=1e-6)

    def test_zero_innovation_keeps_position_and_shrinks_covariance(self):
        before = _track(position=(1.0, 1.0, 1.0))
        after = update(before, [1.0, 1.0, 1.0], 0.1 * np.eye(3))
        np.testing.assert_allclose(after.position, before.position, atol=1e-12)
        pos_before = before.covariance[:3, :3]
        pos_after = after.covariance[:3, :3]
        eigenvalues = np.linalg.eigvalsh(pos_before - pos_after)
        assert np.min(eigenvalues) >= -1e-9

    def test_singular_innovation_raises(self):
        track = TrackState(track_id=1, state=np.zeros(9), covariance=np.zeros((9, 9)))
        with pytest.raises(SingularInnovationError):
            update(track, [0.0, 0.0, 0.0], np.zeros((3, 3)))

    def test_posterior_psd_with_zero_measurement_noise(self):
        track = update(_track(), [0.3, 0.1, -0.2], np.zeros((3, 3)))
        assert np.min(np.linalg.eigvalsh(track.covariance)) >= -1e-9


class TestNoiselessConvergence:
    def test_linear_motion_exact_after_third_update(self):
        """Exact position measurements pin the filter to the truth."""
        dt = 1.0 / 30.0
        velocity = np.array([1.0, -0.5, 0.25])
        start = np.array([0.2, 0.3, 0.4])
        track = TrackState(
            track_id=1,
            state=np.concatenate([start, np.zeros(6)]),
            covariance=np.diag([1e-4] * 3 + [4.0] * 3 + [100.0] * 3),
        )
        zero_r = np.zeros((3, 3))
        for step in range(1, 12):
            truth = start + velocity * (step * dt)
            track = predict(track, dt=dt)
            track = update(track, truth, zero_r)
            if step >= 3:
                assert np.linalg.norm(track.position - truth) <= 1e-9


class TestAssociate:
    def test_close_pair_matches(self):
        pairs, unmatched_tracks, unmatched_obs = associate(
            [_track()], [np.array([0.1, 0.0, 0.0])], gate=0.5
        )
        assert pairs == [(0, 0)]
        assert unmatched_tracks == [] and unmatched_obs == []

    def test_beyond_gate_unmatched(self):
        pairs, unmatched_tracks, unmatched_obs = associate(
            [_track()], [np.array([0.9, 0.0, 0.0])], gate=0.5
        )
        assert pairs == []
        assert unmatched_tracks == [0] and unmatched_obs == [0]

    def test_greedy_takes_globally_smallest_first(self):
        """Crossed costs {0.1, 0.2, 0.3, 0.05}: picks 0.05, then 0.2."""
        tracks = [
            _track(position=(0.0, 0.0, 0.0)),
            _track(position=(1.0, 0.0, 0.0)),
        ]
        observations = [
            np.array([0.1, 0.0, 0.0]),    # d(t0)=0.1, d(t1)=0.9 -> not used
            np.array([1.05, 0.0, 0.0]),   # d(t0)=1.05, d(t1)=0.05
        ]
        # Tune positions so costs are {0.1, 1.05 (gated), 0.9 (gated), 0.05}.
        pairs, _, _ = associate(tracks, observations, gate=0.5)
        assert (1, 1) in pairs
        assert (0, 0) in pairs

    def test_optimal_mode_available(self):
        tracks = [_track(position=(0.0, 0.0, 0.0)), _track(position=(1.0, 0.0, 0.0))]
        observations = [np.array([0.4, 0.0, 0.0]), np.array([0.6, 0.0, 0.0])]
        greedy_pairs, _, _ = associate(tracks, observations, gate=2.0, method="greedy")
        optimal_pairs, _, _ = associate(tracks, observations, gate=2.0, method="optimal")
        # Greedy grabs (0 -> 0.4) first; optimal minimizes the total cost.
        assert sorted(greedy_pairs) == [(0, 0), (1, 1)]
        assert sorted(optimal_pairs) == [(0, 0), (1, 1)]


class TestLifecycle:
    def test_observations_spawn_tentative_tracks(self):
        tracker = MultiObjectTracker()
        live = tracker.step(0, [np.zeros(3), np.ones(3), 2 * np.ones(3)])
        assert len(live) == 3
        assert all(t.status == TENTATIVE for t in live)
        assert sorted(t.track_id for t in live) == [1, 2, 3]

    def test_confirmation_after_consecutive_hits(self):
        tracker = MultiObjectTracker(TrackerConfig(confirm_hits=3))
        tracker.step(0, [np.zeros(3)])
        tracker.step(1, [np.zeros(3)])
        live = tracker.step(2, [np.zeros(3)])
        assert live[0].status == CONFIRMED

    def test_death_after_max_misses(self):
        tracker = MultiObjectTracker(TrackerConfig(max_misses=15))
        tracker.step(0, [np.zeros(3)])
        for frame in range(1, 15):
            live = tracker.step(frame, [])
            assert live, f"track died too early at frame {frame}"
        assert [(t.track_id, t.misses) for t in live] == [(1, 14)]
        assert tracker.step(15, []) == []
        assert tracker.tracks == []

    def test_track_ids_never_reused(self):
        tracker = MultiObjectTracker(TrackerConfig(max_misses=1))
        first = tracker.step(0, [np.zeros(3)])
        assert tracker.step(1, []) == []  # track 1 dies
        second = tracker.step(2, [np.zeros(3)])
        assert [t.track_id for t in first + second] == [1, 2]

    def test_memory_stays_flat_over_short_lived_tracks(self):
        """Each frame's observation is 10 m from the last, so every frame
        spawns a track and kills the one before it. A dead track is dropped:
        2,000 more deaths hold no more memory (~1.4 KB each if kept)."""
        tracker = MultiObjectTracker(TrackerConfig(max_misses=1))
        held = []
        tracemalloc.start()
        try:
            for frame in range(3000):
                assert len(tracker.step(frame, [np.array([10.0 * frame, 0.0, 0.0])])) == 1
                if frame + 1 in (1000, 3000):
                    held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert held[1] - held[0] < 100_000

    def test_frames_must_increase(self):
        tracker = MultiObjectTracker()
        tracker.step(3, [])
        with pytest.raises(ValueError, match="increasing"):
            tracker.step(3, [])

    def test_deterministic_over_identical_streams(self):
        rng = np.random.default_rng(10)
        stream = {
            frame: [rng.uniform(0, 2, size=3) for _ in range(rng.integers(0, 4))]
            for frame in range(40)
        }
        first = run_tracker(stream)
        second = run_tracker(stream)
        assert len(first) == len(second)
        for row_a, row_b in zip(first, second):
            assert row_a[:3] == row_b[:3]
            np.testing.assert_array_equal(row_a[3], row_b[3])


def _reference_predict(track: TrackState, dt: float, jerk_sigma: float) -> TrackState:
    """``predict`` as it was: the motion model rebuilt for every track."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f = transition_matrix(dt)
    state = f @ track.state
    covariance = f @ track.covariance @ f.T + process_noise(dt, jerk_sigma)
    return replace(track, state=state, covariance=(covariance + covariance.T) / 2.0)


def _reference_predict_all(tracks, dt, jerk_sigma):
    return [_reference_predict(t, dt, jerk_sigma) for t in tracks]


_COORD = st.floats(0.0, 1.5, allow_nan=False)


def _steps(config: TrackerConfig, stream: dict) -> list[list[TrackState]]:
    """Each step's live tracks over ``stream`` in frame order."""
    tracker = MultiObjectTracker(config)
    return [tracker.step(frame, stream[frame]) for frame in sorted(stream)]


def _assert_steps_match_reference(config: TrackerConfig, stream: dict):
    got = _steps(config, stream)
    with mock.patch.object(tracking, "_predict_all", _reference_predict_all):
        expected = _steps(config, stream)
    assert len(got) == len(expected)
    for tracks, reference in zip(got, expected):
        assert [(t.track_id, t.status, t.hits, t.misses) for t in tracks] == [
            (t.track_id, t.status, t.hits, t.misses) for t in reference
        ]
        for track, ref in zip(tracks, reference):
            assert track.state.tobytes() == ref.state.tobytes()
            assert track.covariance.tobytes() == ref.covariance.tobytes()
    return got


class TestPredictOncePerStep:
    """``step`` builds the motion model once and equals the per-track loop."""

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.lists(st.integers(0, 60), unique=True, max_size=25),
        data=st.data(),
        fps=st.sampled_from([10.0, 30.0, 240.0]),
        jerk_sigma=st.floats(0.1, 100.0),
        max_misses=st.integers(0, 4),
        confirm_hits=st.integers(1, 4),
        association=st.sampled_from(["greedy", "optimal"]),
    )
    def test_matches_per_track_predict(
        self, frames, data, fps, jerk_sigma, max_misses, confirm_hits, association
    ):
        stream = {
            frame: [np.array(p) for p in data.draw(
                st.lists(st.tuples(_COORD, _COORD, _COORD), max_size=4))]
            for frame in frames
        }
        config = TrackerConfig(dt=1.0 / fps, jerk_sigma=jerk_sigma, gate=0.5,
                               max_misses=max_misses, confirm_hits=confirm_hits,
                               association=association)
        _assert_steps_match_reference(config, stream)

    def test_stream_with_gaps_spawns_and_kills(self):
        """A fixed stream of the kind drawn above, checked to exercise both."""
        rng = np.random.default_rng(5)
        frames = sorted(rng.choice(60, size=30, replace=False).tolist())
        stream = {f: list(rng.uniform(0, 1.5, size=(rng.integers(0, 4), 3))) for f in frames}
        assert any(b - a > 1 for a, b in zip(frames, frames[1:]))
        steps = _assert_steps_match_reference(TrackerConfig(max_misses=2, confirm_hits=2), stream)
        ids = [{t.track_id for t in live} for live in steps]
        # Ids are never reused, so an id gone from the next step is a death.
        assert len(set().union(*ids)) > 3 and any(a - b for a, b in zip(ids, ids[1:]))

    def test_nonpositive_dt_still_rejected(self):
        tracker = MultiObjectTracker(TrackerConfig(dt=0.0))
        tracker.step(0, [np.zeros(3)])
        with pytest.raises(ValueError, match="dt must be positive"):
            tracker.step(1, [])


class TestCrossingScene:
    def test_ids_preserved_through_crossing(self):
        """Two birds crossing with distinct velocities keep their tracks."""
        from avitrack.metrics import GroundTruth, tracking_metrics
        from avitrack.synthworld import SceneConfig, generate

        config = SceneConfig(
            motion="crossing", bird_count=2, duration_s=2.0, seed=5,
            camera_count=3, occlusion=False,
        )
        bundle = generate(config)
        stream = {
            frame: [p for _, p in sorted(positions.items())]
            for frame, positions in bundle.truth_positions.items()
        }
        rows = run_tracker(stream, TrackerConfig(meas_sigma=0.01))
        truth = GroundTruth(positions=bundle.truth_positions, identities={})
        record = tracking_metrics(rows, truth, fps=config.fps)
        assert record["total_id_switches"] == 0


class TestFilterBeatsRawObservations:
    def test_rmse_reduction_on_noisy_tracks(self):
        """Posterior positions beat raw measurements on noisy CA motion."""
        dt = 1.0 / 30.0
        sigma = 0.05
        wins = 0
        runs = 20
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            position = rng.uniform(1.0, 3.0, size=3)
            velocity = rng.uniform(-1.0, 1.0, size=3)
            accel = rng.uniform(-2.0, 2.0, size=3)
            truth, observed = [], []
            for step in range(150):
                t = step * dt
                truth.append(position + velocity * t + 0.5 * accel * t * t)
                observed.append(truth[-1] + rng.normal(0, sigma, size=3))
            track = TrackState(
                track_id=1,
                state=np.concatenate([observed[0], np.zeros(6)]),
                covariance=np.diag([sigma**2] * 3 + [4.0] * 3 + [100.0] * 3),
            )
            meas_cov = sigma**2 * np.eye(3)
            filtered = [track.position.copy()]
            for z in observed[1:]:
                track = predict(track, dt=dt)
                track = update(track, z, meas_cov)
                filtered.append(track.position.copy())
            truth_arr = np.array(truth)
            raw_rmse = np.sqrt(np.mean(np.sum((np.array(observed) - truth_arr) ** 2, axis=1)))
            filt_rmse = np.sqrt(np.mean(np.sum((np.array(filtered) - truth_arr) ** 2, axis=1)))
            wins += filt_rmse < raw_rmse
        assert wins >= int(0.95 * runs)


class TestTrajectoriesSvg:
    def test_panels_and_polylines(self):
        rows = [
            (0, 1, CONFIRMED, np.array([0.0, 0.0, 0.0])),
            (1, 1, CONFIRMED, np.array([1.0, 1.0, 1.0])),
            (0, 2, CONFIRMED, np.array([2.0, 0.5, 0.3])),
        ]
        svg = render_trajectories(rows)
        assert svg.count("<polyline") == 6  # 2 tracks x 3 panels
        assert "x-y" in svg and "x-z" in svg and "y-z" in svg

    def test_deterministic(self):
        rows = [(0, 1, CONFIRMED, np.array([0.1, 0.2, 0.3]))]
        assert render_trajectories(rows) == render_trajectories(rows)

    def test_empty_rows(self):
        svg = render_trajectories([])
        assert svg.startswith("<svg")

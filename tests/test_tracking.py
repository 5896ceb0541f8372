"""Tests for the constant-acceleration Kalman filter and track lifecycle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tracking_reference as ref
from avitrack.errors import SingularInnovationError
from avitrack.tracking import (
    CONFIRMED,
    TENTATIVE,
    MultiObjectTracker,
    TrackerConfig,
    associate,
    predict,
    render_trajectories,
    run_tracker,
    update,
)


def _track(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0),
           accel=(0.0, 0.0, 0.0), var=1.0) -> tuple[np.ndarray, np.ndarray]:
    """A one-track stack: (1, 9) state and (1, 9, 9) covariance."""
    state = np.concatenate([position, velocity, accel]).astype(float)
    return state[None], var * np.eye(9)[None]


class TestPredict:
    def test_at_rest_stays_put(self):
        state, _ = predict(*_track(position=(1.0, 2.0, 3.0)), dt=0.5)
        np.testing.assert_allclose(state[0, :3], [1.0, 2.0, 3.0])

    def test_linear_motion(self):
        state, _ = predict(*_track(velocity=(3.0, 0.0, 0.0)), dt=1.0 / 30.0)
        np.testing.assert_allclose(state[0, :3], [0.1, 0.0, 0.0])

    def test_acceleration_term(self):
        state, _ = predict(*_track(accel=(2.0, 0.0, 0.0)), dt=1.0)
        np.testing.assert_allclose(state[0, :3], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(state[0, 3:6], [2.0, 0.0, 0.0])  # velocity

    def test_covariance_trace_grows_with_noise(self):
        before = _track()
        _, after = predict(*before, dt=0.1, jerk_sigma=5.0)
        assert np.trace(after[0]) > np.trace(before[1][0])

    def test_covariance_stays_symmetric(self):
        state, covariance = _track()
        for _ in range(50):
            state, covariance = predict(state, covariance, dt=1.0 / 30.0)
        assert np.max(np.abs(covariance[0] - covariance[0].T)) <= 1e-12

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            predict(*_track(), dt=0.0)


class TestUpdate:
    def test_exact_measurement_snaps_position(self):
        """R -> 0 makes the posterior position equal the measurement."""
        state, _ = update(*_track(), [[1.0, -2.0, 0.5]], 1e-12 * np.eye(3))
        np.testing.assert_allclose(state[0, :3], [1.0, -2.0, 0.5], atol=1e-6)

    def test_zero_innovation_keeps_position_and_shrinks_covariance(self):
        before_state, before_cov = _track(position=(1.0, 1.0, 1.0))
        state, covariance = update(before_state, before_cov, [[1.0, 1.0, 1.0]],
                                   0.1 * np.eye(3))
        np.testing.assert_allclose(state[0, :3], before_state[0, :3], atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(before_cov[0, :3, :3] - covariance[0, :3, :3])
        assert np.min(eigenvalues) >= -1e-9

    def test_singular_innovation_raises(self):
        with pytest.raises(SingularInnovationError):
            update(np.zeros((1, 9)), np.zeros((1, 9, 9)), [[0.0, 0.0, 0.0]],
                   np.zeros((3, 3)))

    def test_first_singular_row_is_named(self):
        """Rows 1 and 2 are near-singular with different conditions: the
        error names row 1's, as the per-track loop over pairs does."""
        covariance = np.stack([np.eye(9), np.diag([1.0, 1.0, 1e-14] + [1.0] * 6),
                               np.diag([1.0, 1.0, 1e-15] + [1.0] * 6)])
        tracks = [ref.TrackState(i, np.zeros(9), c) for i, c in enumerate(covariance)]
        with pytest.raises(SingularInnovationError) as expected:
            for track in tracks:
                ref.update(track, np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(SingularInnovationError) as got:
            update(np.zeros((3, 9)), covariance, np.zeros((3, 3)), np.zeros((3, 3)))
        assert str(got.value) == str(expected.value)
        assert "1e+14" in str(got.value)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5))
    def test_decides_as_cond_on_positive_definite_stacks(self, data, rows):
        """On random SPD innovation covariances whose condition lies more
        than 1% from 1e12, ``update`` raises exactly when ``np.linalg.cond``
        of some row exceeds 1e12, naming the first such row's condition."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        innovation = np.empty((rows, 3, 3))
        for row in range(rows):
            log_condition = data.draw(st.floats(0.0, 14.0) | st.floats(11.9, 12.1))
            scale = 10.0 ** data.draw(st.floats(-6.0, 6.0))
            spread = 10.0 ** (-log_condition * np.array([0.0, rng.uniform(), 1.0]))
            rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            matrix = rotation @ np.diag(scale * spread) @ rotation.T
            innovation[row] = (matrix + matrix.T) / 2.0
        condition = np.linalg.cond(innovation)
        assume(np.all(np.abs(condition / 1e12 - 1.0) > 0.01))
        covariance = np.tile(np.eye(9), (rows, 1, 1))
        covariance[:, :3, :3] = innovation  # with a zero R, the innovation covariance
        args = (np.zeros((rows, 9)), covariance, np.zeros((rows, 3)), np.zeros((3, 3)))
        singular = condition > 1e12
        if not singular.any():
            update(*args)
            return
        with pytest.raises(SingularInnovationError) as error:
            update(*args)
        assert str(error.value) == (
            f"innovation covariance condition {condition[singular][0]:.3g} exceeds 1e12")

    @pytest.mark.parametrize("innovation, meas_cov", [
        (np.diag([1.0, np.nan, 1.0]), np.zeros((3, 3))),
        (np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))),
        (np.eye(3), np.diag([1.0, 1.0, np.inf])),
    ], ids=["nan", "indefinite", "infinite-noise"])
    def test_non_finite_or_indefinite_innovation_raises(self, innovation, meas_cov):
        """A row that is not finite and positive definite raises, behind a
        good one (or in every row, for an infinite noise); an indefinite
        one has condition 1."""
        covariance = np.tile(np.eye(9), (2, 1, 1))
        covariance[1, :3, :3] = innovation
        with pytest.raises(SingularInnovationError, match=(
                "^innovation covariance is not finite and positive definite$")):
            update(np.zeros((2, 9)), covariance, np.zeros((2, 3)), meas_cov)

    def test_posterior_psd_with_zero_measurement_noise(self):
        _, covariance = update(*_track(), [[0.3, 0.1, -0.2]], np.zeros((3, 3)))
        assert np.min(np.linalg.eigvalsh(covariance[0])) >= -1e-9


class TestNoiselessConvergence:
    def test_linear_motion_exact_after_third_update(self):
        """Exact position measurements pin the filter to the truth."""
        dt = 1.0 / 30.0
        velocity = np.array([1.0, -0.5, 0.25])
        start = np.array([0.2, 0.3, 0.4])
        state = np.concatenate([start, np.zeros(6)])[None]
        covariance = np.diag([1e-4] * 3 + [4.0] * 3 + [100.0] * 3)[None]
        zero_r = np.zeros((3, 3))
        for step in range(1, 12):
            truth = start + velocity * (step * dt)
            state, covariance = predict(state, covariance, dt=dt)
            state, covariance = update(state, covariance, truth[None], zero_r)
            if step >= 3:
                assert np.linalg.norm(state[0, :3] - truth) <= 1e-9


def _pairs(rows, cols) -> list[tuple[int, int]]:
    return list(zip(rows.tolist(), cols.tolist()))


class TestAssociate:
    def test_close_pair_matches(self):
        rows, cols = associate(np.zeros((1, 3)), [[0.1, 0.0, 0.0]], gate=0.5)
        assert _pairs(rows, cols) == [(0, 0)]

    def test_beyond_gate_unmatched(self):
        rows, cols = associate(np.zeros((1, 3)), [[0.9, 0.0, 0.0]], gate=0.5)
        assert _pairs(rows, cols) == []

    def test_greedy_takes_globally_smallest_first(self):
        """Costs {0.1, 1.05 (gated), 0.9 (gated), 0.05}: picks 0.05, then 0.1."""
        predicted = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        observations = np.array([[0.1, 0.0, 0.0], [1.05, 0.0, 0.0]])
        rows, cols = associate(predicted, observations, gate=0.5)
        assert _pairs(rows, cols) == [(1, 1), (0, 0)]

    def test_optimal_mode_available(self):
        predicted = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        observations = np.array([[0.4, 0.0, 0.0], [0.6, 0.0, 0.0]])
        greedy = associate(predicted, observations, gate=2.0, method="greedy")
        optimal = associate(predicted, observations, gate=2.0, method="optimal")
        # Greedy grabs (0 -> 0.4) first; optimal minimizes the total cost.
        assert sorted(_pairs(*greedy)) == [(0, 0), (1, 1)]
        assert sorted(_pairs(*optimal)) == [(0, 0), (1, 1)]

    @settings(max_examples=300, deadline=None)
    @given(
        predicted=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=6),
        observed=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=6),
        gate=st.sampled_from([0.3, 0.5, 1.0]),
        method=st.sampled_from(["greedy", "optimal"]),
    )
    def test_matches_reference(self, predicted, observed, gate, method):
        """Points on a 0.25-m grid tie often: the pairs, in pair order, are
        those of the sorted list of (cost, track, observation) tuples."""
        predicted = 0.25 * np.array(predicted, dtype=float).reshape(-1, 3)
        observed = 0.25 * np.array(observed, dtype=float).reshape(-1, 3)
        tracks = [ref.TrackState(i, np.concatenate([p, np.zeros(6)]), np.eye(9))
                  for i, p in enumerate(predicted)]
        expected, _, _ = ref.associate(tracks, list(observed), gate, method)
        assert _pairs(*associate(predicted, observed, gate, method)) == expected


class TestLifecycle:
    def test_observations_spawn_tentative_tracks(self):
        tracker = MultiObjectTracker()
        tracker.step(0, [np.zeros(3), np.ones(3), 2 * np.ones(3)])
        assert tracker.ids.tolist() == [1, 2, 3]
        assert not tracker.confirmed.any()

    def test_confirmation_after_consecutive_hits(self):
        tracker = MultiObjectTracker(TrackerConfig(confirm_hits=3))
        tracker.step(0, [np.zeros(3)])
        tracker.step(1, [np.zeros(3)])
        assert tracker.confirmed.tolist() == [False]
        tracker.step(2, [np.zeros(3)])
        assert tracker.confirmed.tolist() == [True]

    def test_one_hit_confirms_at_the_spawn(self):
        """The spawning detection counts as the first hit, so confirm_hits 1
        confirms on the spawn frame and 2 one frame later."""
        stream = {frame: np.zeros((1, 3)) for frame in range(3)}
        statuses = {
            hits: [status for _, _, status, _ in run_tracker(stream, TrackerConfig(confirm_hits=hits))]
            for hits in (1, 2)
        }
        assert statuses[1] == [CONFIRMED] * 3
        assert statuses[2] == [TENTATIVE, CONFIRMED, CONFIRMED]

    def test_death_after_max_misses(self):
        tracker = MultiObjectTracker(TrackerConfig(max_misses=15))
        tracker.step(0, [np.zeros(3)])
        for frame in range(1, 15):
            tracker.step(frame, [])
            assert len(tracker.ids), f"track died too early at frame {frame}"
        assert list(zip(tracker.ids.tolist(), tracker.misses.tolist())) == [(1, 14)]
        tracker.step(15, [])
        assert tracker.ids.tolist() == []
        assert tracker.state.shape == (0, 9) and tracker.covariance.shape == (0, 9, 9)

    def test_matched_track_survives_max_misses_zero(self):
        """Only an unmatched track can die, so max_misses 0 acts as 1."""
        tracker = MultiObjectTracker(TrackerConfig(max_misses=0))
        tracker.step(0, [np.zeros(3)])
        tracker.step(1, [np.zeros(3)])
        assert tracker.ids.tolist() == [1]
        tracker.step(2, [])
        assert tracker.ids.tolist() == []

    def test_track_ids_never_reused(self):
        tracker = MultiObjectTracker(TrackerConfig(max_misses=1))
        tracker.step(0, [np.zeros(3)])
        assert tracker.ids.tolist() == [1]
        tracker.step(1, [])  # track 1 dies
        assert tracker.ids.tolist() == []
        tracker.step(2, [np.zeros(3)])
        assert tracker.ids.tolist() == [2]

    def test_memory_stays_flat_over_short_lived_tracks(self):
        """Each frame's observation is 10 m from the last, so every frame
        spawns a track and kills the one before it. A dead track is dropped:
        2,000 more deaths hold no more memory (~1.4 KB each if kept)."""
        tracker = MultiObjectTracker(TrackerConfig(max_misses=1))
        held = []
        tracemalloc.start()
        try:
            for frame in range(3000):
                tracker.step(frame, [np.array([10.0 * frame, 0.0, 0.0])])
                assert len(tracker.ids) == 1
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
            frame: rng.uniform(0, 2, size=(rng.integers(0, 4), 3)) for frame in range(40)
        }
        first = run_tracker(stream)
        second = run_tracker(stream)
        assert len(first) == len(second)
        for row_a, row_b in zip(first, second):
            assert row_a[:3] == row_b[:3]
            np.testing.assert_array_equal(row_a[3], row_b[3])


_COORD = st.floats(0.0, 1.5, allow_nan=False)


def _assert_steps_match_reference(config: TrackerConfig, stream: dict) -> list[list[int]]:
    """Steps the stacked tracker and the per-track reference over ``stream``
    and compares every step's tracks, bit for bit, and the ``run_tracker``
    rows; returns each step's live ids."""
    tracker = MultiObjectTracker(config)
    reference = ref.ReferenceTracker(config)
    ids = []
    for frame in sorted(stream):
        tracker.step(frame, stream[frame])
        expected = reference.step(frame, list(stream[frame]))
        statuses = [CONFIRMED if c else TENTATIVE for c in tracker.confirmed]
        assert list(zip(tracker.ids.tolist(), statuses, tracker.hits.tolist(),
                        tracker.misses.tolist())) == [
            (t.track_id, t.status, t.hits, t.misses) for t in expected
        ]
        assert tracker.state.shape == (len(expected), 9)
        for state, covariance, track in zip(tracker.state, tracker.covariance, expected):
            assert state.tobytes() == track.state.tobytes()
            assert covariance.tobytes() == track.covariance.tobytes()
        ids.append(tracker.ids.tolist())
    got = run_tracker(stream, config)
    want = ref.run_tracker({f: list(z) for f, z in stream.items()}, config)
    assert [row[:3] for row in got] == [row[:3] for row in want]
    assert all(a[3].tobytes() == b[3].tobytes() for a, b in zip(got, want))
    return ids


class TestMatchesPerTrackReference:
    """The stacked tracker equals the per-track loop of ``tracking_reference``."""

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
    def test_random_streams(
        self, frames, data, fps, jerk_sigma, max_misses, confirm_hits, association
    ):
        stream = {
            frame: np.array(data.draw(
                st.lists(st.tuples(_COORD, _COORD, _COORD), max_size=4)
            ), dtype=float).reshape(-1, 3)
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
        stream = {f: rng.uniform(0, 1.5, size=(rng.integers(0, 4), 3)) for f in frames}
        assert any(b - a > 1 for a, b in zip(frames, frames[1:]))
        steps = _assert_steps_match_reference(TrackerConfig(max_misses=2, confirm_hits=2), stream)
        ids = [set(live) for live in steps]
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
            state = np.concatenate([observed[0], np.zeros(6)])[None]
            covariance = np.diag([sigma**2] * 3 + [4.0] * 3 + [100.0] * 3)[None]
            meas_cov = sigma**2 * np.eye(3)
            filtered = [state[0, :3].copy()]
            for z in observed[1:]:
                state, covariance = predict(state, covariance, dt=dt)
                state, covariance = update(state, covariance, z[None], meas_cov)
                filtered.append(state[0, :3].copy())
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

"""The tracker one Python object per track: the reference that the stacked
``predict``, ``update``, ``associate`` and ``MultiObjectTracker`` in
``avitrack.tracking`` are tested against.

Each live track is a frozen ``TrackState``, rebuilt with
``dataclasses.replace`` on every predict, update and lifecycle change, and
association sorts a Python list of every gated (cost, track, observation)
triple. ``ReferenceTracker.step`` returns the live ``TrackState``s in id
order, and ``run_tracker`` returns the library's ``(frame, id, status,
position)`` rows.
"""

from dataclasses import dataclass, replace

import numpy as np

from avitrack.errors import SingularInnovationError
from avitrack.tracking import (
    CONFIRMED,
    INIT_ACCEL_SIGMA,
    INIT_VELOCITY_SIGMA,
    TENTATIVE,
    TrackerConfig,
    process_noise,
    transition_matrix,
)

DEAD = "dead"
_H = np.hstack([np.eye(3), np.zeros((3, 6))])


@dataclass(frozen=True)
class TrackState:
    """Kalman state and lifecycle counters."""

    track_id: int
    state: np.ndarray
    covariance: np.ndarray
    status: str = TENTATIVE
    hits: int = 1
    misses: int = 0

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float).reshape(9))
        object.__setattr__(
            self, "covariance", np.asarray(self.covariance, dtype=float).reshape(9, 9)
        )

    @property
    def position(self) -> np.ndarray:
        return self.state[:3]


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


def predict(track: TrackState, dt: float, jerk_sigma: float) -> TrackState:
    """Propagate state and covariance through ``dt`` seconds."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f = transition_matrix(dt)
    return replace(
        track,
        state=f @ track.state,
        covariance=_symmetrize(f @ track.covariance @ f.T + process_noise(dt, jerk_sigma)),
    )


def update(track: TrackState, measurement: np.ndarray, meas_cov: np.ndarray) -> TrackState:
    """Joseph-form Kalman correction with a position-only measurement."""
    z = np.asarray(measurement, dtype=float).reshape(3)
    r = np.asarray(meas_cov, dtype=float).reshape(3, 3)
    innovation_cov = _H @ track.covariance @ _H.T + r
    condition = np.linalg.cond(innovation_cov)
    if not np.isfinite(condition) or condition > 1e12:
        raise SingularInnovationError(
            f"innovation covariance condition {condition:.3g} exceeds 1e12"
        )
    gain = track.covariance @ _H.T @ np.linalg.inv(innovation_cov)
    state = track.state + gain @ (z - _H @ track.state)
    identity_kh = np.eye(9) - gain @ _H
    covariance = _symmetrize(
        identity_kh @ track.covariance @ identity_kh.T + gain @ r @ gain.T
    )
    return replace(track, state=state, covariance=covariance)


def associate(
    tracks: list[TrackState], observations: list[np.ndarray], gate: float, method: str
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """(pairs of (track_idx, obs_idx), unmatched tracks, unmatched observations)."""
    if gate <= 0:
        raise ValueError(f"gate must be positive, got {gate}")
    if not tracks or not observations:
        return [], list(range(len(tracks))), list(range(len(observations)))

    predicted = np.array([t.position for t in tracks])
    observed = np.asarray(observations, dtype=float).reshape(-1, 3)
    costs = np.linalg.norm(predicted[:, None, :] - observed[None, :, :], axis=2)

    pairs: list[tuple[int, int]] = []
    if method == "optimal":
        from scipy.optimize import linear_sum_assignment

        blocked = np.where(costs > gate, 1e9, costs)
        rows, cols = linear_sum_assignment(blocked)
        pairs = [(int(r), int(c)) for r, c in zip(rows, cols) if costs[r, c] <= gate]
    elif method == "greedy":
        order = [
            (costs[r, c], r, c)
            for r in range(costs.shape[0])
            for c in range(costs.shape[1])
            if costs[r, c] <= gate
        ]
        order.sort()
        used_tracks: set[int] = set()
        used_obs: set[int] = set()
        for _, r, c in order:
            if r in used_tracks or c in used_obs:
                continue
            used_tracks.add(r)
            used_obs.add(c)
            pairs.append((r, c))
    else:
        raise ValueError(f"unknown association method {method!r}")

    matched_tracks = {r for r, _ in pairs}
    matched_obs = {c for _, c in pairs}
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_tracks]
    unmatched_obs = [i for i in range(len(observations)) if i not in matched_obs]
    return pairs, unmatched_tracks, unmatched_obs


class ReferenceTracker:
    """Tracking-by-detection one ``TrackState`` at a time.

    A track is confirmed once its consecutive hits, counting the detection
    that spawned it, reach ``confirm_hits``, and dies at its
    ``max_misses``-th consecutive miss.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[TrackState] = []
        self._next_id = 1
        self._last_frame: int | None = None

    def _spawn(self, position: np.ndarray) -> TrackState:
        cfg = self.config
        state = np.zeros(9)
        state[:3] = position
        covariance = np.diag(
            [cfg.meas_sigma**2] * 3
            + [INIT_VELOCITY_SIGMA**2] * 3
            + [INIT_ACCEL_SIGMA**2] * 3
        )
        track = TrackState(
            track_id=self._next_id,
            state=state,
            covariance=covariance,
            status=CONFIRMED if cfg.confirm_hits <= 1 else TENTATIVE,
            hits=1,
            misses=0,
        )
        self._next_id += 1
        return track

    def step(self, frame: int, observations: list[np.ndarray]) -> list[TrackState]:
        """Advance one frame; returns the live tracks after the update."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing: {frame} after {self._last_frame}"
            )
        cfg = self.config
        gap = 1 if self._last_frame is None else frame - self._last_frame
        self._last_frame = frame

        observations = [np.asarray(z, dtype=float).reshape(3) for z in observations]
        self.tracks = [predict(t, cfg.dt * gap, cfg.jerk_sigma) for t in self.tracks]

        pairs, unmatched_tracks, unmatched_obs = associate(
            self.tracks, observations, cfg.gate, cfg.association
        )

        meas_cov = (cfg.meas_sigma**2) * np.eye(3)
        updated: dict[int, TrackState] = {}
        for track_idx, obs_idx in pairs:
            track = update(self.tracks[track_idx], observations[obs_idx], meas_cov)
            hits = track.hits + 1
            status = track.status
            if status == TENTATIVE and hits >= cfg.confirm_hits:
                status = CONFIRMED
            updated[track_idx] = replace(track, hits=hits, misses=0, status=status)
        for track_idx in unmatched_tracks:
            track = self.tracks[track_idx]
            misses = track.misses + 1
            status = DEAD if misses >= cfg.max_misses else track.status
            updated[track_idx] = replace(track, hits=0, misses=misses, status=status)

        survivors = [
            updated[idx] for idx in range(len(self.tracks)) if updated[idx].status != DEAD
        ]
        for obs_idx in unmatched_obs:
            survivors.append(self._spawn(observations[obs_idx]))

        self.tracks = survivors
        return list(self.tracks)


def run_tracker(
    observations_by_frame: dict[int, list[np.ndarray]], config: TrackerConfig | None = None
) -> list[tuple[int, int, str, np.ndarray]]:
    """Track a whole observation stream; returns (frame, id, status, position) rows."""
    tracker = ReferenceTracker(config)
    rows = []
    for frame in sorted(observations_by_frame):
        live = tracker.step(frame, observations_by_frame[frame])
        for track in sorted(live, key=lambda t: t.track_id):
            rows.append((frame, track.track_id, track.status, track.position.copy()))
    return rows

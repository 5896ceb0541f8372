"""3D tracking-by-detection with a constant-acceleration Kalman filter.

State per track is [position, velocity, acceleration] in meters and
metric derivatives; measurements are 3D positions from triangulation.
Association is greedy nearest-neighbor with a Euclidean gate (an optimal
assignment mode is available), and track lifecycle follows the usual
tentative -> confirmed -> dead pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularInnovationError

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DEAD = "dead"

DEFAULT_FPS = 30.0
DEFAULT_DT = 1.0 / DEFAULT_FPS
DEFAULT_JERK_SIGMA = 20.0     # m/s^3, keeps fast maneuvers inside the gate
DEFAULT_MEAS_SIGMA = 0.05     # m, triangulation error scale
DEFAULT_GATE = 0.5            # m
DEFAULT_CONFIRM_HITS = 3
DEFAULT_MAX_MISSES = 15
ASSOCIATIONS = ("greedy", "optimal")
DEFAULT_ASSOCIATION = "greedy"
INIT_VELOCITY_SIGMA = 2.0     # m/s, prior spread of a new track's velocity
INIT_ACCEL_SIGMA = 10.0       # m/s^2, and of its acceleration

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


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(9)
    f[0:3, 3:6] = dt * np.eye(3)
    f[0:3, 6:9] = 0.5 * dt * dt * np.eye(3)
    f[3:6, 6:9] = dt * np.eye(3)
    return f


def process_noise(dt: float, jerk_sigma: float) -> np.ndarray:
    """White-noise-jerk covariance for one axis, tiled over x/y/z."""
    q = jerk_sigma * jerk_sigma
    block = q * np.array(
        [
            [dt**5 / 20.0, dt**4 / 8.0, dt**3 / 6.0],
            [dt**4 / 8.0, dt**3 / 3.0, dt**2 / 2.0],
            [dt**3 / 6.0, dt**2 / 2.0, dt],
        ]
    )
    out = np.zeros((9, 9))
    for axis in range(3):
        idx = [axis, axis + 3, axis + 6]
        out[np.ix_(idx, idx)] = block
    return out


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


def predict(
    track: TrackState, dt: float = DEFAULT_DT, jerk_sigma: float = DEFAULT_JERK_SIGMA
) -> TrackState:
    """Propagate state and covariance through ``dt`` seconds."""
    return _predict_all([track], dt, jerk_sigma)[0]


def _predict_all(
    tracks: list[TrackState], dt: float, jerk_sigma: float
) -> list[TrackState]:
    """``predict`` for every track, building the motion model once."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f = transition_matrix(dt)
    noise = process_noise(dt, jerk_sigma)
    return [
        replace(
            track,
            state=f @ track.state,
            covariance=_symmetrize(f @ track.covariance @ f.T + noise),
        )
        for track in tracks
    ]


def update(track: TrackState, measurement: np.ndarray, meas_cov: np.ndarray) -> TrackState:
    """Kalman correction with a position-only measurement.

    Joseph-form covariance update keeps the posterior symmetric positive
    semi-definite even for a zero measurement covariance.
    """
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
    tracks: list[TrackState],
    observations: list[np.ndarray],
    gate: float = DEFAULT_GATE,
    method: str = DEFAULT_ASSOCIATION,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Assign observations to predicted track positions.

    Returns (pairs of (track_idx, obs_idx), unmatched track indices,
    unmatched observation indices). Greedy mode picks globally ascending
    distances; "optimal" solves the assignment problem instead.
    """
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
        pairs = [
            (int(r), int(c)) for r, c in zip(rows, cols) if costs[r, c] <= gate
        ]
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


@dataclass
class TrackerConfig:
    dt: float = DEFAULT_DT
    jerk_sigma: float = DEFAULT_JERK_SIGMA
    meas_sigma: float = DEFAULT_MEAS_SIGMA
    gate: float = DEFAULT_GATE
    confirm_hits: int = DEFAULT_CONFIRM_HITS
    max_misses: int = DEFAULT_MAX_MISSES
    association: str = DEFAULT_ASSOCIATION


class MultiObjectTracker:
    """Sequential tracking-by-detection over 3D observations.

    Feed frames in increasing order through :meth:`step`. Track ids are
    assigned once and never reused; a track that dies is dropped.
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
            status=TENTATIVE,
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
        if self.tracks:
            self.tracks = _predict_all(self.tracks, cfg.dt * gap, cfg.jerk_sigma)

        pairs, unmatched_tracks, unmatched_obs = associate(
            self.tracks, observations, gate=cfg.gate, method=cfg.association
        )

        meas_cov = (cfg.meas_sigma**2) * np.eye(3)
        updated: dict[int, TrackState] = {}
        for track_idx, obs_idx in pairs:
            track = update(self.tracks[track_idx], observations[obs_idx], meas_cov)
            hits = track.hits + 1
            status = track.status
            if status == TENTATIVE and hits >= cfg.confirm_hits:
                status = CONFIRMED
            updated[track_idx] = replace(
                track,
                hits=hits,
                misses=0,
                status=status,
            )
        for track_idx in unmatched_tracks:
            track = self.tracks[track_idx]
            misses = track.misses + 1
            status = DEAD if misses >= cfg.max_misses else track.status
            updated[track_idx] = replace(
                track,
                hits=0,
                misses=misses,
                status=status,
            )

        survivors = [
            updated[idx] for idx in range(len(self.tracks)) if updated[idx].status != DEAD
        ]

        for obs_idx in unmatched_obs:
            survivors.append(self._spawn(observations[obs_idx]))

        self.tracks = survivors
        return list(self.tracks)


def run_tracker(
    observations_by_frame: dict[int, list[np.ndarray]],
    config: TrackerConfig | None = None,
) -> list[tuple[int, int, str, np.ndarray]]:
    """Track a whole observation stream; returns (frame, id, status, position) rows."""
    tracker = MultiObjectTracker(config)
    rows = []
    for frame in sorted(observations_by_frame):
        live = tracker.step(frame, observations_by_frame[frame])
        for track in sorted(live, key=lambda t: t.track_id):
            rows.append((frame, track.track_id, track.status, track.position.copy()))
    return rows


_PANEL_AXES = (("x", "y", 0, 1), ("x", "z", 0, 2), ("y", "z", 1, 2))

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def render_trajectories(
    track_rows: list[tuple[int, int, str, np.ndarray]],
    panel_size: int = 320,
    margin: int = 40,
) -> str:
    """Three orthographic SVG panels (xy, xz, yz) of track trajectories."""
    by_track: dict[int, list[np.ndarray]] = {}
    for _, track_id, _, position in track_rows:
        by_track.setdefault(track_id, []).append(np.asarray(position, dtype=float))

    if by_track:
        everything = np.vstack([np.array(v) for v in by_track.values()])
        lo = everything.min(axis=0)
        hi = everything.max(axis=0)
    else:
        lo = np.zeros(3)
        hi = np.ones(3)
    span = np.maximum(hi - lo, 1e-6)

    width = 3 * panel_size + 4 * margin
    height = panel_size + 2 * margin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for panel, (name_h, name_v, ax_h, ax_v) in enumerate(_PANEL_AXES):
        x0 = margin + panel * (panel_size + margin)
        y0 = margin
        lines.append(
            f'<rect x="{x0}" y="{y0}" width="{panel_size}" height="{panel_size}" '
            f'fill="none" stroke="black"/>'
        )
        lines.append(
            f'<text x="{x0 + panel_size / 2:.0f}" y="{y0 - 8}" font-size="14" '
            f'text-anchor="middle">{name_h}-{name_v}</text>'
        )
        for track_id in sorted(by_track):
            pts = np.array(by_track[track_id])
            u = x0 + (pts[:, ax_h] - lo[ax_h]) / span[ax_h] * panel_size
            v = y0 + panel_size - (pts[:, ax_v] - lo[ax_v]) / span[ax_v] * panel_size
            coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(u, v))
            color = _PALETTE[(track_id - 1) % len(_PALETTE)]
            lines.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5" data-track="{track_id}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

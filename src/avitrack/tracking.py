"""3D tracking-by-detection with a constant-acceleration Kalman filter.

State per track is [position, velocity, acceleration] in meters and
metric derivatives; measurements are 3D positions from triangulation.
The live tracks are held as stacked arrays, so each step makes one
Kalman prediction for all of them and one correction for the matched
ones. Association is greedy nearest-neighbor with a Euclidean gate (an
optimal assignment mode is available), and track lifecycle follows the
usual tentative -> confirmed -> dead pattern.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SingularInnovationError

TENTATIVE = "tentative"
CONFIRMED = "confirmed"

DEFAULT_DT = 1.0 / 30.0       # s, one frame at 30 fps
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


@functools.lru_cache(maxsize=64)
def _motion_model(dt: float, jerk_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``transition_matrix(dt)`` and ``process_noise(dt, jerk_sigma)``, built
    once per pair (a run's steps take only ``cfg.dt * gap``) and read-only."""
    f, q = transition_matrix(dt), process_noise(dt, jerk_sigma)
    f.flags.writeable = q.flags.writeable = False
    return f, q


def _symmetrize(matrices: np.ndarray) -> np.ndarray:
    return (matrices + matrices.swapaxes(-1, -2)) / 2.0


# Every product below is a stacked matmul, with column vectors for the states:
# each track's slice gets the bits of the same product on that track alone.


def predict(
    state: np.ndarray,
    covariance: np.ndarray,
    dt: float = DEFAULT_DT,
    jerk_sigma: float = DEFAULT_JERK_SIGMA,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate (n, 9) states and (n, 9, 9) covariances through ``dt`` seconds."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f, q = _motion_model(dt, jerk_sigma)
    return (f @ state[..., None])[..., 0], _symmetrize(f @ covariance @ f.T + q)


def update(
    state: np.ndarray,
    covariance: np.ndarray,
    measurements: np.ndarray,
    meas_cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman correction of (m, 9) states and (m, 9, 9) covariances with
    (m, 3) position measurements.

    Joseph-form covariance update keeps the posterior symmetric positive
    semi-definite even for a zero measurement covariance. An innovation
    covariance that is not finite and positive definite, or whose condition
    exceeds 1e12, raises, naming the first such row's problem.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, 3, 1)
    r = np.asarray(meas_cov, dtype=float).reshape(3, 3)
    innovation_cov = _H @ covariance @ _H.T + r
    # A positive-definite matrix's condition is its extreme eigenvalues' ratio.
    finite = np.isfinite(innovation_cov).all(axis=(1, 2))
    low, high = np.linalg.eigvalsh(
        np.where(finite[:, None, None], innovation_cov, np.eye(3)))[:, [0, -1]].T
    bad = ~finite | ~(low > 0) | (high > 1e12 * low)
    if bad.any():
        first = int(np.argmax(bad))
        problem = (f"condition {np.linalg.cond(innovation_cov[first]):.3g} exceeds 1e12"
                   if finite[first] and low[first] > 0 else "is not finite and positive definite")
        raise SingularInnovationError(f"innovation covariance {problem}")
    gain = covariance @ _H.T @ np.linalg.inv(innovation_cov)
    x = state[..., None]
    state = (x + gain @ (z - _H @ x))[..., 0]
    identity_kh = np.eye(9) - gain @ _H
    covariance = _symmetrize(
        identity_kh @ covariance @ identity_kh.swapaxes(-1, -2)
        + gain @ r @ gain.swapaxes(-1, -2)
    )
    return state, covariance


def associate(
    predicted: np.ndarray,
    observations: np.ndarray,
    gate: float = DEFAULT_GATE,
    method: str = DEFAULT_ASSOCIATION,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign (k, 3) observations to (n, 3) predicted track positions.

    Returns the matched (track rows, observation rows) as two arrays, pair
    by pair. Greedy mode takes the gated pairs by ascending distance, ties
    by track then observation; "optimal" solves the assignment problem
    instead and lists its pairs by track.
    """
    if gate <= 0:
        raise ValueError(f"gate must be positive, got {gate}")
    predicted = np.asarray(predicted, dtype=float).reshape(-1, 3)
    observed = np.asarray(observations, dtype=float).reshape(-1, 3)
    costs = np.linalg.norm(predicted[:, None, :] - observed[None, :, :], axis=2)

    if method == "optimal":
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(np.where(costs > gate, 1e9, costs))
        keep = costs[rows, cols] <= gate
        return rows[keep], cols[keep]
    if method != "greedy":
        raise ValueError(f"unknown association method {method!r}")
    rows, cols = np.nonzero(costs <= gate)
    order = np.lexsort((cols, rows, costs[rows, cols]))
    rows, cols = rows[order], cols[order]
    used_tracks: set[int] = set()
    used_obs: set[int] = set()
    taken = []
    for i, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        if r in used_tracks or c in used_obs:
            continue
        used_tracks.add(r)
        used_obs.add(c)
        taken.append(i)
    return rows[taken], cols[taken]


@dataclass
class TrackerConfig:
    dt: float = DEFAULT_DT
    jerk_sigma: float = DEFAULT_JERK_SIGMA
    meas_sigma: float = DEFAULT_MEAS_SIGMA
    gate: float = DEFAULT_GATE
    confirm_hits: int = DEFAULT_CONFIRM_HITS
    max_misses: int = DEFAULT_MAX_MISSES
    association: str = DEFAULT_ASSOCIATION


_COLUMNS = ("ids", "state", "covariance", "confirmed", "hits", "misses")


class MultiObjectTracker:
    """Sequential tracking-by-detection over 3D observations.

    Feed frames in increasing order through :meth:`step`. The live tracks
    are the rows of ``ids`` (ascending), ``state`` (n, 9), ``covariance``
    (n, 9, 9), ``confirmed``, ``hits`` and ``misses``. A track is confirmed
    once its consecutive hits, counting the detection that spawned it,
    reach ``confirm_hits``; it dies at its ``max_misses``-th consecutive
    miss and is dropped. Track ids are assigned once and never reused.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.ids = np.zeros(0, dtype=np.int64)
        self.state = np.zeros((0, 9))
        self.covariance = np.zeros((0, 9, 9))
        self.confirmed = np.zeros(0, dtype=bool)
        self.hits = np.zeros(0, dtype=np.int64)
        self.misses = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: int, observations: np.ndarray) -> None:
        """Advance one frame with its (k, 3) observed positions."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing: {frame} after {self._last_frame}"
            )
        cfg = self.config
        gap = 1 if self._last_frame is None else frame - self._last_frame
        self._last_frame = frame

        observations = np.asarray(observations, dtype=float).reshape(-1, 3)
        if len(self.ids):
            self.state, self.covariance = predict(
                self.state, self.covariance, cfg.dt * gap, cfg.jerk_sigma
            )

        rows, cols = associate(
            self.state[:, :3], observations, gate=cfg.gate, method=cfg.association
        )
        self.state[rows], self.covariance[rows] = update(
            self.state[rows], self.covariance[rows], observations[cols],
            (cfg.meas_sigma**2) * np.eye(3),
        )
        matched = np.zeros(len(self.ids), dtype=bool)
        matched[rows] = True
        self.hits = np.where(matched, self.hits + 1, 0)
        self.misses = np.where(matched, 0, self.misses + 1)
        self.confirmed |= matched & (self.hits >= cfg.confirm_hits)
        # Only an unmatched track can die, so max_misses 0 acts as 1.
        live = matched | (self.misses < cfg.max_misses)
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[live])

        new = np.delete(observations, cols, axis=0)
        state = np.zeros((len(new), 9))
        state[:, :3] = new
        covariance = np.diag(
            [cfg.meas_sigma**2] * 3
            + [INIT_VELOCITY_SIGMA**2] * 3
            + [INIT_ACCEL_SIGMA**2] * 3
        )
        spawn = {
            "ids": self._next_id + np.arange(len(new)),
            "state": state,
            "covariance": np.broadcast_to(covariance, (len(new), 9, 9)),
            "confirmed": np.full(len(new), cfg.confirm_hits <= 1),
            "hits": np.ones(len(new), dtype=np.int64),
            "misses": np.zeros(len(new), dtype=np.int64),
        }
        for name, column in spawn.items():
            setattr(self, name, np.concatenate([getattr(self, name), column]))
        self._next_id += len(new)


def run_tracker(
    observations_by_frame: dict[int, np.ndarray],
    config: TrackerConfig | None = None,
) -> list[tuple[int, int, str, np.ndarray]]:
    """Track a whole stream of (k, 3) observed positions per frame; returns
    (frame, id, status, position) rows, each frame's rows by ascending id."""
    tracker = MultiObjectTracker(config)
    rows = []
    for frame in sorted(observations_by_frame):
        tracker.step(frame, observations_by_frame[frame])
        statuses = [CONFIRMED if c else TENTATIVE for c in tracker.confirmed.tolist()]
        rows.extend(zip(
            [frame] * len(statuses), tracker.ids.tolist(), statuses, tracker.state[:, :3].copy()
        ))
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

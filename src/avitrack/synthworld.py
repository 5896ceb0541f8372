"""Synthetic aviary scenes with exact ground truth.

Generates a camera rig, landmark layout, bird trajectories, detections,
keypoints with controllable descriptor ambiguity, and truth labels, all
in the same file formats the pipeline ingests. Given one seed the whole
bundle is reproducible bit for bit, which makes it usable as an oracle
for matching, reconstruction, and tracking tests.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataio
from .camera import MIN_DEPTH, CameraModel, project_points
from .errors import ConfigError
from .mask import GrayFrame, write_pgm
from .matching import DetectionTable, KeypointTable
from .metrics import GroundTruth
from .voronoi import LandmarkSet

MOTION_MODES = ("free", "anchored", "crossing")
_WALL_GAP_M = 0.05  # between a bird's body and a wall
FEATURE_POOL_SIZE = 40  # shared feature vectors of a scene
FEATURE_SCALE = 0.3  # sigma of a shared feature vector
BASE_SCALE = 0.6  # sigma of a per-bird base vector
MAX_ACCEL = 4.0  # m/s^2 per axis, the largest acceleration of a flight segment
# The array-valued scene settings: the shape each must have, None standing
# for any positive length, and its wording.
_ARRAY_SETTINGS = {
    "aviary_size": ((3,), "three numbers"),
    "distortion": ((5,), "five numbers"),
    "landmarks": ((None, 3), "None or a non-empty list of (x, y, z) points"),
}


def _has_shape(value, shape: tuple) -> bool:
    """``value`` is an array of real numbers of ``shape``."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        return False
    return array.dtype.kind in "iuf" and array.ndim == len(shape) and all(
        length == want if want is not None else length > 0
        for length, want in zip(array.shape, shape)
    )


@dataclass
class SceneConfig:
    """Knobs for one synthetic scene.

    Descriptors follow an appearance model with three layers: a per-bird
    base vector, a library of ``FEATURE_POOL_SIZE`` shared feature
    vectors of which each camera view observes a random 5-15 subset per
    detection, and per-observation Gaussian noise (``descriptor_noise``).
    ``ambiguity`` is the probability that a bird uses the shared base
    instead of its own; at 1.0 all birds look identical and a matcher can
    only tell features apart, not birds. ``motion`` picks free flight,
    per-landmark anchored wandering, or a deterministic two-bird crossing.
    """

    aviary_size: tuple[float, float, float] = (4.0, 3.4, 2.0)  # 27.2 m^3
    image_size: tuple[int, int] = (1920, 1080)
    camera_count: int = 5
    fps: float = 30.0
    duration_s: float = 2.0
    bird_count: int = 5
    landmark_count: int = 6
    landmarks: list[tuple[float, float, float]] | None = None
    pixel_noise: float = 0.0
    descriptor_noise: float = 0.0
    ambiguity: float = 0.0
    descriptor_length: int = 128
    body_radius_m: float = 0.15
    keypoints_per_detection: tuple[int, int] = (5, 15)
    focal_px: float | None = None  # default scales with image width
    distortion: tuple[float, float, float, float, float] = (
        0.02, -0.005, 0.0005, -0.0005, 0.0,
    )
    seed: int = 0
    motion: str = "free"
    wander_radius_m: float = 0.3
    max_speed: float = 3.0
    occlusion: bool = True
    emit_frames: bool = False

    def validate(self) -> None:
        """Raise ``ConfigError`` for any setting ``generate`` cannot honour;
        runs before the first random draw. Types and shapes are checked
        before any range."""
        for f in fields(self):
            value = getattr(self, f.name)
            unset = value is None and f.default is None
            if f.name in ("image_size", "keypoints_per_detection"):
                kind = "a pair of ints"
                ok = isinstance(value, (tuple, list)) and list(map(type, value)) == [int, int]
            elif f.name in _ARRAY_SETTINGS:
                shape, kind = _ARRAY_SETTINGS[f.name]
                ok = unset or _has_shape(value, shape)
            elif type(f.default) is float or f.name == "focal_px":
                kind = "a number"
                ok = unset or isinstance(value, (int, float)) and not isinstance(value, bool)
            else:  # an int, a bool or text setting takes exactly its default's type
                kind = {bool: "a bool", str: "text"}.get(type(f.default), "an int")
                ok = type(value) is type(f.default)
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if not (isinstance(value, (float, tuple, list, np.ndarray))
                    or kind == "a number" and not unset):
                continue
            try:
                finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        kmin, kmax = self.keypoints_per_detection
        for ok, problem in (
            (min(self.aviary_size) > 0, f"aviary_size must be positive, got {self.aviary_size}"),
            (min(self.image_size) > 0, f"image_size must be positive, got {self.image_size}"),
            (self.focal_px is None or self.focal_px > 0,
             f"focal_px must be positive, got {self.focal_px}"),
            (0 < self.body_radius_m and 2 * (self.body_radius_m + _WALL_GAP_M)
             < min(self.aviary_size),
             f"body_radius_m must be > 0 with 2 x (body_radius_m + {_WALL_GAP_M}) below "
             f"every aviary side {self.aviary_size}, got {self.body_radius_m}"),
            (self.descriptor_length >= 1,
             f"descriptor_length must be at least 1, got {self.descriptor_length}"),
            (self.camera_count >= 2, "camera_count must be at least 2"),
            (self.bird_count >= 1, "bird_count must be at least 1"),
            (self.fps > 0 and self.duration_s > 0, "fps and duration_s must be positive"),
            (self.frame_count != 0,
             f"duration_s {self.duration_s} at fps {self.fps} gives no frame"),
            (0.0 <= self.ambiguity <= 1.0, f"ambiguity must be in [0, 1], got {self.ambiguity}"),
            (self.pixel_noise >= 0 and self.descriptor_noise >= 0,
             "noise sigmas must be non-negative"),
            (self.motion in MOTION_MODES, f"motion must be one of {MOTION_MODES}"),
            (1 <= kmin <= kmax, "keypoints_per_detection must be an increasing pair, "
             f"got {self.keypoints_per_detection}"),
            (FEATURE_POOL_SIZE >= kmax, f"the feature pool ({FEATURE_POOL_SIZE}) "
             f"must cover the largest keypoint count ({kmax})"),
            (self.landmarks is not None or self.landmark_count >= 1,
             "landmark_count must be at least 1"),
            (self.wander_radius_m > 0 and self.max_speed > 0,
             "wander_radius_m and max_speed must be positive"),
        ):
            if not ok:
                raise ConfigError(problem)

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.fps))

    @property
    def effective_focal_px(self) -> float:
        if self.focal_px is not None:
            return self.focal_px
        return 0.546875 * self.image_size[0]  # 1050 px at width 1920


class RenderedFrames(Mapping):
    """The frames of a scene, keyed by (camera id, frame), rendered on access.

    Holds each (camera, frame)'s detection boxes, not its pixels: every
    lookup renders a fresh ``GrayFrame`` and nothing is cached, so a caller
    that drops each frame after use holds one frame at a time.
    """

    def __init__(self, config: SceneConfig, boxes: dict[tuple[str, int], list]):
        self._config = config
        self._boxes = boxes

    def __getitem__(self, key: tuple[str, int]) -> GrayFrame:
        return _render_frame(self._config, self._boxes[key])

    def __iter__(self):
        return iter(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)


@dataclass
class DatasetBundle:
    """Everything one scene produces. Tables are held in memory; frames
    are rendered from their boxes when read (see ``RenderedFrames``)."""

    config: SceneConfig
    cameras: dict[str, CameraModel]
    detections: DetectionTable
    keypoints: KeypointTable
    landmark_set: LandmarkSet
    landmarks_3d: np.ndarray
    truth_positions: dict[int, dict[int, np.ndarray]]
    detection_identities: dict[tuple[str, int, int], int]
    frames: Mapping[tuple[str, int], GrayFrame] = field(default_factory=dict)

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        dataio.write_calibration(out / "calibration.json", list(self.cameras.values()))
        dataio.write_recording(out / "recording.json", self.config.fps,
                               (np.zeros(3), self.config.aviary_size))
        dataio.write_detections(out / "detections.csv", self.detections)
        dataio.write_keypoints(
            out / "keypoints.csv", self.keypoints, self.config.descriptor_length
        )
        dataio.write_landmarks(out / "landmarks.csv", self.landmark_set)
        dataio.write_truth(out / "truth.csv", self.truth_positions)
        dataio.write_match_truth(out / "match_truth.csv", self.detection_identities)
        if self.frames:
            frames_dir = out / "frames"
            frames_dir.mkdir(exist_ok=True)
            for camera_id, frame in sorted(self.frames):
                write_pgm(dataio.frame_path(frames_dir, camera_id, frame),
                          self.frames[camera_id, frame])


def _look_at_rotation(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation for a camera at ``eye`` looking at ``target``."""
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    world_up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, world_up)
    norm = np.linalg.norm(right)
    if norm < 1e-9:
        raise ConfigError("camera looks straight along the vertical axis")
    right = right / norm
    down = np.cross(forward, right)
    return np.vstack([right, down, forward])


def build_camera_rig(config: SceneConfig) -> dict[str, CameraModel]:
    """Cameras on a ring around the aviary, all framing the whole box."""
    size = np.asarray(config.aviary_size, dtype=float)
    center = size / 2.0
    radius = math.hypot(size[0], size[1]) / 2.0 + 2.6
    height = 0.62 * size[2]
    w, h = config.image_size
    cameras = {}
    for i in range(config.camera_count):
        angle = 2.0 * math.pi * i / config.camera_count + math.pi / config.camera_count
        eye = np.array(
            [
                center[0] + radius * math.cos(angle),
                center[1] + radius * math.sin(angle),
                height,
            ]
        )
        rotation = _look_at_rotation(eye, center)
        cam = CameraModel(
            cam_id=f"cam{i}",
            fx=config.effective_focal_px,
            fy=config.effective_focal_px,
            cx=w / 2.0,
            cy=h / 2.0,
            dist=np.asarray(config.distortion, dtype=float),
            rotation=rotation,
            translation=-rotation @ eye,
            image_size=(w, h),
        )
        cameras[cam.cam_id] = cam
    return cameras


def _box_corners(size: np.ndarray) -> np.ndarray:
    xs = [0.0, size[0]]
    ys = [0.0, size[1]]
    zs = [0.0, size[2]]
    return np.array([[x, y, z] for x in xs for y in ys for z in zs])


def _check_rig_covers_box(cameras: dict[str, CameraModel], size: np.ndarray) -> None:
    corners = _box_corners(size)
    for cam in cameras.values():
        pixels, depth = project_points(cam, corners)
        w, h = cam.image_size
        if not np.all(depth > MIN_DEPTH):
            raise ConfigError(f"camera {cam.cam_id} has aviary corners behind it")
        inside = (
            (pixels[:, 0] >= 0)
            & (pixels[:, 0] < w)
            & (pixels[:, 1] >= 0)
            & (pixels[:, 1] < h)
        )
        if not np.all(inside):
            raise ConfigError(
                f"camera {cam.cam_id} does not frame the whole aviary; "
                f"lower focal_px or move cameras back"
            )


def _default_landmarks(
    config: SceneConfig, rng: np.random.Generator
) -> np.ndarray:
    """Well-separated landmark positions in the core of the box."""
    size = np.asarray(config.aviary_size, dtype=float)
    lo = 0.18 * size
    hi = 0.82 * size
    n = config.landmark_count
    core_diag = float(np.linalg.norm(hi - lo))
    min_sep = 0.55 * core_diag / max(1.0, n ** (1.0 / 3.0) + 1.0)
    points: list[np.ndarray] = []
    while len(points) < n:
        for _ in range(200):
            candidate = rng.uniform(lo, hi)
            if all(np.linalg.norm(candidate - p) >= min_sep for p in points):
                points.append(candidate)
                break
        else:
            min_sep *= 0.8
    return np.asarray(points)


class _BirdMotion:
    """Piecewise constant-acceleration flight inside an axis-aligned box."""

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        rng: np.random.Generator,
        config: SceneConfig,
        position: np.ndarray | None = None,
        velocity: np.ndarray | None = None,
        scripted: bool = False,
    ):
        self.lo = lo
        self.hi = hi
        self.config = config
        self.scripted = scripted
        self.position = (
            position.copy() if position is not None else rng.uniform(lo, hi)
        )
        self.velocity = (
            velocity.copy()
            if velocity is not None
            else rng.uniform(-1.5, 1.5, size=3)
        )
        self.acceleration = np.zeros(3)
        self.segment_left = 0.0
        if not scripted:
            self._new_segment(rng)

    def _new_segment(self, rng: np.random.Generator) -> None:
        self.segment_left = float(rng.uniform(0.5, 2.0))
        self.acceleration = rng.uniform(-MAX_ACCEL, MAX_ACCEL, size=3)
        speed = float(np.linalg.norm(self.velocity))
        if speed > self.config.max_speed:
            self.velocity *= self.config.max_speed / speed

    def advance(self, dt: float, rng: np.random.Generator) -> None:
        if not self.scripted:
            if self.segment_left <= 0.0:
                self._new_segment(rng)
            self.segment_left -= dt
        self.position = (
            self.position + self.velocity * dt + 0.5 * self.acceleration * dt * dt
        )
        self.velocity = self.velocity + self.acceleration * dt
        for axis in range(3):
            if self.position[axis] < self.lo[axis]:
                self.position[axis] = 2.0 * self.lo[axis] - self.position[axis]
                self.velocity[axis] = -self.velocity[axis]
                self.acceleration[axis] = -self.acceleration[axis]
            elif self.position[axis] > self.hi[axis]:
                self.position[axis] = 2.0 * self.hi[axis] - self.position[axis]
                self.velocity[axis] = -self.velocity[axis]
                self.acceleration[axis] = -self.acceleration[axis]


def _make_birds(
    config: SceneConfig,
    landmarks_3d: np.ndarray,
    rng: np.random.Generator,
) -> list[_BirdMotion]:
    size = np.asarray(config.aviary_size, dtype=float)
    margin = config.body_radius_m + _WALL_GAP_M
    box_lo = np.full(3, margin)
    box_hi = size - margin

    birds = []
    if config.motion == "anchored":
        if len(landmarks_3d) < config.bird_count:
            raise ConfigError(
                "anchored motion needs at least one landmark per bird"
            )
        for i in range(config.bird_count):
            anchor = np.clip(
                landmarks_3d[i],
                box_lo + config.wander_radius_m,
                box_hi - config.wander_radius_m,
            )
            lo = anchor - config.wander_radius_m
            hi = anchor + config.wander_radius_m
            birds.append(
                _BirdMotion(lo, hi, rng, config, position=anchor.copy())
            )
    elif config.motion == "crossing":
        if config.bird_count < 2:
            raise ConfigError("crossing motion needs at least 2 birds")
        span = box_hi[0] - box_lo[0]
        speed = span / config.duration_s
        mid_y = size[1] / 2.0
        mid_z = size[2] / 2.0
        offset = 0.15
        starts = [
            (np.array([box_lo[0], mid_y - offset, mid_z]), np.array([speed, 0.0, 0.0])),
            (np.array([box_hi[0], mid_y + offset, mid_z]), np.array([-speed, 0.0, 0.0])),
        ]
        for position, velocity in starts:
            birds.append(
                _BirdMotion(
                    box_lo, box_hi, rng, config,
                    position=position, velocity=velocity, scripted=True,
                )
            )
        for _ in range(config.bird_count - 2):
            birds.append(_BirdMotion(box_lo, box_hi, rng, config))
    else:
        for _ in range(config.bird_count):
            birds.append(_BirdMotion(box_lo, box_hi, rng, config))
    return birds


def _base_descriptors(config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    shared = rng.normal(0.0, BASE_SCALE, config.descriptor_length)
    bases = np.empty((config.bird_count, config.descriptor_length))
    for i in range(config.bird_count):
        use_shared = rng.uniform() < config.ambiguity
        own = rng.normal(0.0, BASE_SCALE, config.descriptor_length)
        bases[i] = shared if use_shared else own
    return bases


def _render_frame(
    config: SceneConfig,
    boxes: list[list[float]],
) -> GrayFrame:
    w, h = config.image_size
    pixels = np.full((h, w), 30, dtype=np.uint8)
    for x_min, y_min, x_max, y_max in boxes:
        cx = (x_min + x_max) / 2.0
        cy = (y_min + y_max) / 2.0
        rx = max((x_max - x_min) / 2.0 * 0.8, 1.0)
        ry = max((y_max - y_min) / 2.0 * 0.8, 1.0)
        c0 = max(0, int(math.floor(x_min)))
        c1 = min(w, int(math.ceil(x_max)) + 1)
        r0 = max(0, int(math.floor(y_min)))
        r1 = min(h, int(math.ceil(y_max)) + 1)
        if c1 <= c0 or r1 <= r0:
            continue
        ys, xs = np.mgrid[r0:r1, c0:c1]
        inside = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        pixels[r0:r1, c0:c1][inside] = 215
    return GrayFrame(width=w, height=h, pixels=pixels)


def _visible_boxes(
    cam: CameraModel,
    positions: np.ndarray,
    config: SceneConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The birds one camera detects: (identities (K,), centers (K, 2),
    half-sizes (K, 2)) in identity order.

    A bird is lost when it is behind the camera or its box leaves the
    frame. With occlusion on, a bird is also lost when a uniform draw falls
    below the largest share of its box that one nearer box covers. The rng
    draws one noise pair per bird in front of the camera, in identity
    order, then one uniform per box left in the frame when more than one is
    left.
    """
    pixels, depth = project_points(cam, positions)
    identities = np.flatnonzero(depth > MIN_DEPTH)
    z = depth[identities]
    halves = np.column_stack(
        [cam.fx * config.body_radius_m / z, cam.fy * config.body_radius_m / z]
    )
    centers = pixels[identities]
    if config.pixel_noise > 0:
        centers = centers + rng.normal(0.0, config.pixel_noise, size=centers.shape)
    lo, hi = centers - halves, centers + halves
    w, h = cam.image_size
    inside = ~((lo[:, 0] < 0) | (hi[:, 0] >= w) | (lo[:, 1] < 0) | (hi[:, 1] >= h))
    identities, centers, halves = identities[inside], centers[inside], halves[inside]

    if config.occlusion and len(identities) > 1:
        draws = rng.uniform(size=len(identities))
        lo, hi, z = lo[inside], hi[inside], z[inside]
        overlap = np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None])
        ix, iy = overlap[..., 0], overlap[..., 1]
        area = 4.0 * halves[:, 0] * halves[:, 1]
        covered = (z[None] < z[:, None]) & (ix > 0) & (iy > 0)
        worst = np.where(covered, ix * iy / area[:, None], 0.0).max(axis=1)
        keep = draws >= worst
        identities, centers, halves = identities[keep], centers[keep], halves[keep]
    return identities, centers, halves


def generate(config: SceneConfig) -> DatasetBundle:
    """Produce one deterministic dataset bundle from a scene config."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    size = np.asarray(config.aviary_size, dtype=float)

    cameras = build_camera_rig(config)
    _check_rig_covers_box(cameras, size)
    camera_ids = sorted(cameras)

    if config.landmarks is not None:
        landmarks_3d = np.asarray(config.landmarks, dtype=float).reshape(-1, 3)
        if np.any(landmarks_3d < 0) or np.any(landmarks_3d > size):
            raise ConfigError("explicit landmarks must lie inside the aviary box")
    else:
        landmarks_3d = _default_landmarks(config, rng)

    landmark_set = LandmarkSet(
        {cam_id: cameras[cam_id].image_size for cam_id in camera_ids}
    )
    for cam_id in camera_ids:
        pixels, depth = project_points(cameras[cam_id], landmarks_3d)
        w, h = cameras[cam_id].image_size
        for gid, (pix, z) in enumerate(zip(pixels, depth)):
            if z <= MIN_DEPTH or not (0 <= pix[0] < w and 0 <= pix[1] < h):
                raise ConfigError(
                    f"landmark {gid} does not project inside camera {cam_id}"
                )
            try:
                landmark_set.add(cam_id, gid, pix)
            except ValueError as exc:
                raise ConfigError(str(exc))

    bases = _base_descriptors(config, rng)
    feature_pool = rng.normal(0.0, FEATURE_SCALE, (FEATURE_POOL_SIZE, config.descriptor_length))
    birds = _make_birds(config, landmarks_3d, rng)
    dt = 1.0 / config.fps

    truth_positions: dict[int, dict[int, np.ndarray]] = {}
    detection_identities: dict[tuple[str, int, int], int] = {}
    frame_boxes: dict[tuple[str, int], list[list[float]]] = {}

    # Keypoints are drawn straight into row arrays. The row bound is every
    # bird seen by every camera in every frame; pages of ``np.empty`` that
    # no row reaches are never touched.
    kmin, kmax = config.keypoints_per_detection
    bound = config.frame_count * len(camera_ids) * config.bird_count * kmax
    descriptors = np.empty((bound, config.descriptor_length))
    offsets = np.empty((bound, 2))
    jitter = np.empty((bound, 2))
    counts: list[int] = []
    centers_px: list[list[float]] = []
    halves_px: list[list[float]] = []
    boxes_px: list[list[float]] = []
    confidences: list[float] = []
    n = 0
    for frame in range(config.frame_count):
        if frame > 0:
            for bird in birds:
                bird.advance(dt, rng)
        truth_positions[frame] = {
            identity: bird.position.copy() for identity, bird in enumerate(birds)
        }

        positions = np.array([bird.position for bird in birds])
        for cam_id in camera_ids:
            identities, centers, halves = _visible_boxes(
                cameras[cam_id], positions, config, rng
            )
            boxes = np.hstack([centers - halves, centers + halves]).tolist()
            centers_px += centers.tolist()
            halves_px += halves.tolist()
            boxes_px += boxes
            for det_index, identity in enumerate(identities.tolist()):
                confidences.append(rng.uniform(0.8, 1.0))
                detection_identities[(cam_id, frame, det_index)] = identity

                count = int(rng.integers(kmin, kmax + 1))
                rows = slice(n, n + count)
                offsets[rows] = rng.uniform(-0.8, 0.8, size=(count, 2))
                if config.pixel_noise > 0:
                    jitter[rows] = rng.normal(0.0, config.pixel_noise, size=(count, 2))
                slots = rng.choice(FEATURE_POOL_SIZE, size=count, replace=False)
                # base + shared features + noise, the noise term first: the
                # sum is commutative, so the bits are those of the written order.
                drawn = descriptors[rows]
                rng.standard_normal(out=drawn)
                drawn *= config.descriptor_noise
                drawn += bases[identity] + feature_pool[slots]
                counts.append(count)
                n += count

            if config.emit_frames:
                frame_boxes[(cam_id, frame)] = boxes

    # ``detection_identities`` holds each detection's key in draw order.
    keys = np.array(list(detection_identities), dtype=object).reshape(-1, 3)
    detections = DetectionTable(
        keys[:, 0], keys[:, 1].astype(np.int64), keys[:, 2].astype(np.int64),
        np.array(boxes_px).reshape(-1, 4), np.array(confidences, dtype=float),
    )
    # Quantized to 1e-6: keeps emitted CSVs compact, far below any
    # meaningful descriptor-noise scale.
    descriptors = descriptors[:n]
    np.round(descriptors, 6, out=descriptors)
    owner = np.repeat(np.arange(len(counts)), counts)
    center = np.array(centers_px).reshape(-1, 2)[owner]
    half = np.array(halves_px).reshape(-1, 2)[owner]
    box = detections.box[owner]
    xy = center + offsets[:n] * half
    if config.pixel_noise > 0:
        xy += jitter[:n]
    np.clip(xy, box[:, :2], np.nextafter(box[:, 2:], -np.inf), out=xy)
    keypoints = KeypointTable(
        detections.camera[owner], detections.frame[owner], detections.index[owner],
        xy, descriptors,
    )

    return DatasetBundle(
        config=config,
        cameras=cameras,
        detections=detections,
        keypoints=keypoints,
        landmark_set=landmark_set,
        landmarks_3d=landmarks_3d,
        truth_positions=truth_positions,
        detection_identities=detection_identities,
        frames=RenderedFrames(config, frame_boxes),
    )


def truth_labels(bundle: DatasetBundle) -> GroundTruth:
    """Ground-truth record for the metrics suite."""
    return GroundTruth(
        positions=bundle.truth_positions,
        identities=dict(bundle.detection_identities),
    )

"""Landmark sets and bounded Voronoi tessellation of the image frame.

Every image point belongs to the cell of its nearest landmark (Euclidean
distance, ties to the lowest landmark id). Cells are made finite by
padding the frame on each side by the image diagonal and ringing the
padded rectangle with virtual sites, so each real landmark's cell closes
well outside the frame before it is clipped back to the image rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoLandmarksError

VIRTUAL_SITE_COUNT = 16

_CLIP_EPS = 1e-9


def euclidean_distance(p, q) -> float:
    """Distance between two 2D points."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(math.hypot(p[0] - q[0], p[1] - q[1]))


class LandmarkSet:
    """Per-camera pixel positions of globally identified landmarks.

    Landmark ids are shared across cameras (they name the same physical
    feature); positions are per camera. Within one camera, ids are unique
    and positions lie inside the frame and are pairwise distinct.
    """

    def __init__(self, image_sizes: dict[str, tuple[int, int]]):
        self.image_sizes = {k: (int(w), int(h)) for k, (w, h) in image_sizes.items()}
        self._by_camera: dict[str, list[tuple[int, np.ndarray]]] = {}

    def add(self, camera_id: str, global_id: int, position) -> None:
        position = np.asarray(position, dtype=float).reshape(2)
        if camera_id not in self.image_sizes:
            raise ValueError(f"unknown camera {camera_id!r}")
        w, h = self.image_sizes[camera_id]
        if not (0 <= position[0] < w and 0 <= position[1] < h):
            raise ValueError(
                f"landmark {global_id} at {tuple(position)} outside "
                f"camera {camera_id} frame {w}x{h}"
            )
        entries = self._by_camera.setdefault(camera_id, [])
        for gid, pos in entries:
            if gid == global_id:
                raise ValueError(
                    f"duplicate landmark id {global_id} in camera {camera_id}"
                )
            if euclidean_distance(pos, position) <= 1e-6:
                raise ValueError(
                    f"landmark {global_id} coincides with landmark {gid} "
                    f"in camera {camera_id}"
                )
        entries.append((global_id, position))
        entries.sort(key=lambda e: e[0])

    def cameras(self) -> list[str]:
        return sorted(self._by_camera)

    def entries(self, camera_id: str) -> list[tuple[int, np.ndarray]]:
        """(global_id, position) pairs sorted by id; empty if none."""
        return list(self._by_camera.get(camera_id, []))

    def count(self, camera_id: str) -> int:
        return len(self._by_camera.get(camera_id, ()))


def nearest_landmark(landmarks: LandmarkSet, camera_id: str, query) -> int:
    """Id of the landmark nearest to ``query`` in this camera's view.

    A one-row call of ``nearest_landmarks_many``. Equidistant sites resolve
    to the smallest global id so repeated runs are reproducible.
    """
    query = np.asarray(query, dtype=float).reshape(1, 2)
    return int(nearest_landmarks_many(landmarks, camera_id, query)[0])


def nearest_landmarks_many(
    landmarks: LandmarkSet, camera_id: str, queries: np.ndarray
) -> np.ndarray:
    """Vectorized nearest-landmark ids for (N, 2) queries."""
    entries = landmarks.entries(camera_id)
    if not entries:
        raise NoLandmarksError(f"no landmarks registered for camera {camera_id!r}")
    ids = np.array([gid for gid, _ in entries])
    sites = np.array([pos for _, pos in entries])
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    d2 = ((queries[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    # Entries are sorted by id, so argmin's first-hit rule is the tie-break.
    return ids[np.argmin(d2, axis=1)]


def clip_polygon_halfplane(
    polygon: np.ndarray, normal: np.ndarray, offset: float
) -> np.ndarray:
    """Intersect a convex polygon with the half-plane {x : normal.x <= offset}."""
    if len(polygon) == 0:
        return polygon
    values = polygon @ normal - offset
    keep = values <= _CLIP_EPS
    out: list[np.ndarray] = []
    n = len(polygon)
    for i in range(n):
        j = (i + 1) % n
        if keep[i]:
            out.append(polygon[i])
        if keep[i] != keep[j]:
            denom = values[j] - values[i]
            t = -values[i] / denom
            out.append(polygon[i] + t * (polygon[j] - polygon[i]))
    return np.asarray(out, dtype=float).reshape(-1, 2)


def polygon_area(polygon: np.ndarray) -> float:
    """Shoelace area; positive for counter-clockwise vertex order."""
    if len(polygon) < 3:
        return 0.0
    x = polygon[:, 0]
    y = polygon[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_contains(polygon: np.ndarray, points: np.ndarray, tol: float = 1e-9):
    """Boolean mask of which (N, 2) points lie inside a convex CCW polygon."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(polygon) < 3:
        return np.zeros(len(points), dtype=bool)
    inside = np.ones(len(points), dtype=bool)
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        edge = b - a
        # CCW polygon: interior is to the left of each edge.
        cross = edge[0] * (points[:, 1] - a[1]) - edge[1] * (points[:, 0] - a[0])
        inside &= cross >= -tol * max(1.0, float(np.linalg.norm(edge)))
    return inside


def _virtual_sites(w: float, h: float, pad: float) -> np.ndarray:
    """Evenly spaced sites along the boundary of the padded rectangle."""
    corners = np.array(
        [
            [-pad, -pad],
            [w + pad, -pad],
            [w + pad, h + pad],
            [-pad, h + pad],
        ]
    )
    lengths = [w + 2 * pad, h + 2 * pad, w + 2 * pad, h + 2 * pad]
    cumulative = [0.0, lengths[0], lengths[0] + lengths[1], sum(lengths[:3])]
    perimeter = sum(lengths)
    sites = []
    for i in range(VIRTUAL_SITE_COUNT):
        s = perimeter * i / VIRTUAL_SITE_COUNT
        side = 3
        for k in range(3):
            if s < cumulative[k + 1]:
                side = k
                break
        a = corners[side]
        b = corners[(side + 1) % 4]
        t = (s - cumulative[side]) / lengths[side]
        sites.append(a + t * (b - a))
    return np.asarray(sites)


@dataclass(frozen=True)
class BoundedVoronoi:
    """Finite Voronoi cells of real landmark sites, clipped to the frame.

    ``cells[i]`` is the CCW vertex array of the cell of ``site_ids[i]``.
    Together the cells tile the image rectangle.
    """

    camera_id: str
    image_size: tuple[int, int]
    site_ids: tuple[int, ...]
    sites: np.ndarray
    virtual_sites: np.ndarray
    cells: tuple[np.ndarray, ...]

    def cell_for(self, global_id: int) -> np.ndarray:
        idx = self.site_ids.index(global_id)
        return self.cells[idx]


def build_bounded_diagram(landmarks: LandmarkSet, camera_id: str) -> BoundedVoronoi:
    """Tessellate one camera's frame by its landmarks.

    Each real site's cell starts as the padded rectangle and is cut by the
    perpendicular-bisector half-plane against every other site, real and
    virtual, then clipped to the image rectangle. O(n^2) in the site count,
    which stays small for landmark use.
    """
    entries = landmarks.entries(camera_id)
    if not entries:
        raise NoLandmarksError(f"no landmarks registered for camera {camera_id!r}")
    w, h = landmarks.image_sizes[camera_id]
    pad = math.hypot(w, h)
    ids = tuple(gid for gid, _ in entries)
    sites = np.asarray([pos for _, pos in entries])
    virtual = _virtual_sites(float(w), float(h), pad)
    all_sites = np.vstack([sites, virtual])

    padded_rect = np.array(
        [
            [-pad, -pad],
            [w + pad, -pad],
            [w + pad, h + pad],
            [-pad, h + pad],
        ]
    )
    frame_halfplanes = [
        (np.array([-1.0, 0.0]), 0.0),
        (np.array([1.0, 0.0]), float(w)),
        (np.array([0.0, -1.0]), 0.0),
        (np.array([0.0, 1.0]), float(h)),
    ]

    cells = []
    for i, site in enumerate(sites):
        poly = padded_rect
        for j, other in enumerate(all_sites):
            if j == i:
                continue
            normal = other - site
            offset = float(normal @ (site + other)) / 2.0
            poly = clip_polygon_halfplane(poly, normal, offset)
            if len(poly) == 0:
                break
        for normal, offset in frame_halfplanes:
            poly = clip_polygon_halfplane(poly, normal, offset)
            if len(poly) == 0:
                break
        if polygon_area(poly) < 0:
            poly = poly[::-1]
        cells.append(poly)

    return BoundedVoronoi(
        camera_id=camera_id,
        image_size=(w, h),
        site_ids=ids,
        sites=sites,
        virtual_sites=virtual,
        cells=tuple(cells),
    )


def render_overlay(diagram: BoundedVoronoi) -> str:
    """Deterministic SVG of the tessellated frame.

    Landmarks are red triangles, cell borders green, cell vertices small
    blue circles, with the frame outlined in black.
    """
    w, h = diagram.image_size
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white" '
        f'stroke="black" stroke-width="2"/>',
    ]
    marker = max(4.0, 0.006 * max(w, h))
    for gid, cell in zip(diagram.site_ids, diagram.cells):
        if len(cell) == 0:
            continue
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in cell)
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="green" '
            f'stroke-width="1.5" data-landmark="{gid}"/>'
        )
        for x, y in cell:
            lines.append(
                f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{marker / 2:.3f}" '
                f'fill="blue"/>'
            )
    for gid, (x, y) in zip(diagram.site_ids, diagram.sites):
        tri = (
            f"{x:.3f},{y - marker:.3f} "
            f"{x - marker:.3f},{y + marker:.3f} "
            f"{x + marker:.3f},{y + marker:.3f}"
        )
        lines.append(f'<polygon points="{tri}" fill="red" data-landmark="{gid}"/>')
        lines.append(
            f'<text x="{x + marker:.3f}" y="{y - marker:.3f}" font-size="{2 * marker:.0f}" '
            f'fill="red">{gid}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

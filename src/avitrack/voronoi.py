"""Landmark sets and bounded Voronoi tessellation of the image frame.

Every image point belongs to the cell of its nearest landmark (Euclidean
distance, ties to the lowest landmark id). A landmark's cell is the image
rectangle cut by the perpendicular bisector against every other landmark,
so it is finite and inside the frame by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoLandmarksError

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
    and positions lie inside the frame and are pairwise distinct. Each
    camera's landmarks are held as two read-only arrays sorted by id, which
    ``add`` rebuilds: the int64 ids and the (n, 2) sites.
    """

    def __init__(self, image_sizes: dict[str, tuple[int, int]]):
        self.image_sizes = {k: (int(w), int(h)) for k, (w, h) in image_sizes.items()}
        self._arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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
        entries = self.entries(camera_id)
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
        ids = [gid for gid, _ in entries]
        try:
            ids = np.array(ids, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"landmark id {global_id} is outside int64")
        sites = np.array([pos for _, pos in entries])
        ids.flags.writeable = sites.flags.writeable = False
        self._arrays[camera_id] = ids, sites

    def cameras(self) -> list[str]:
        return sorted(self._arrays)

    def entries(self, camera_id: str) -> list[tuple[int, np.ndarray]]:
        """(global_id, position) pairs sorted by id; empty if none."""
        if camera_id not in self._arrays:
            return []
        ids, sites = self._arrays[camera_id]
        return list(zip(ids.tolist(), sites))

    def arrays(self, camera_id: str) -> tuple[np.ndarray, np.ndarray]:
        """(ids (n,), sites (n, 2)) sorted by id; ``NoLandmarksError`` if none."""
        if camera_id not in self._arrays:
            raise NoLandmarksError(f"no landmarks registered for camera {camera_id!r}")
        return self._arrays[camera_id]


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
    ids, sites = landmarks.arrays(camera_id)
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


@dataclass(frozen=True)
class BoundedVoronoi:
    """The Voronoi cells of the landmark sites within the image frame.

    ``cells[i]`` is the CCW vertex array of the cell of ``site_ids[i]``.
    Together the cells tile the image rectangle.
    """

    camera_id: str
    image_size: tuple[int, int]
    site_ids: tuple[int, ...]
    sites: np.ndarray
    cells: tuple[np.ndarray, ...]


def build_bounded_diagram(landmarks: LandmarkSet, camera_id: str) -> BoundedVoronoi:
    """Tessellate one camera's frame by its landmarks.

    Each site's cell starts as the image rectangle and is cut by the
    perpendicular-bisector half-plane against every other site. O(n^2) in
    the site count, which stays small for landmark use.
    """
    ids, sites = landmarks.arrays(camera_id)
    w, h = landmarks.image_sizes[camera_id]
    frame = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])

    cells = []
    for i, site in enumerate(sites):
        poly = frame
        for j, other in enumerate(sites):
            if j == i:
                continue
            normal = other - site
            offset = float(normal @ (site + other)) / 2.0
            poly = clip_polygon_halfplane(poly, normal, offset)
            if len(poly) == 0:
                break
        if polygon_area(poly) < 0:
            poly = poly[::-1]
        cells.append(poly)

    return BoundedVoronoi(
        camera_id=camera_id,
        image_size=(w, h),
        site_ids=tuple(ids.tolist()),
        sites=sites,
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

"""The bounded Voronoi diagram by virtual-site padding: the reference that
``avitrack.voronoi.build_bounded_diagram`` is tested against.

Each landmark's cell starts as the frame padded on each side by its
diagonal, is cut by the bisector against every other landmark and against
16 virtual sites evenly spaced along the padded rectangle, and is then
clipped to the four frame edges. ``build_reference_cells`` returns the
cells in landmark-id order, as the library's ``BoundedVoronoi.cells``.
"""

import math

import numpy as np

from avitrack.voronoi import LandmarkSet, clip_polygon_halfplane, polygon_area

VIRTUAL_SITE_COUNT = 16


def virtual_sites(w: float, h: float, pad: float) -> np.ndarray:
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


def build_reference_cells(
    landmarks: LandmarkSet, camera_id: str
) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """(site ids, CCW cells) of one camera's frame, by virtual-site padding."""
    ids, sites = landmarks.arrays(camera_id)
    w, h = landmarks.image_sizes[camera_id]
    pad = math.hypot(w, h)
    all_sites = np.vstack([sites, virtual_sites(float(w), float(h), pad)])

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
    return tuple(ids.tolist()), tuple(cells)

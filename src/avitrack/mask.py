"""Binary masking of detection boxes via edge detection and lateral fill.

Frames are 8-bit grayscale. Masks single out bird pixels inside detection
boxes so that only keypoints on (or right next to) a bird survive. All
boxes of a frame go through one Canny pass: their patches are stacked on
one canvas, filtered together, and thresholded with one hysteresis pass
over the canvas's weak pixels, with the same edges as running Canny on
each box alone. Everything here is numpy; the filters give the same bits
as ``scipy.ndimage.convolve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError, IngestError

GAUSSIAN_SIGMA = 1.4
CANNY_LOW = 50.0
CANNY_HIGH = 150.0

_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=float)


@dataclass(frozen=True)
class GrayFrame:
    """8-bit grayscale image; ``pixels`` is (height, width) uint8."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.uint8)
        if pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array {pixels.shape} does not match "
                f"{self.height}x{self.width}"
            )
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True)
class BinaryMask:
    """Boolean image mask; ``bits`` is (height, width) bool."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.height, self.width):
            raise ValueError(
                f"mask array {bits.shape} does not match {self.height}x{self.width}"
            )
        object.__setattr__(self, "bits", bits)


def _gaussian_kernel_5x5(sigma: float) -> np.ndarray:
    ax = np.arange(-2, 3, dtype=float)
    xx, yy = np.meshgrid(ax, ax)
    kernel = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


_GAUSSIAN = _gaussian_kernel_5x5(GAUSSIAN_SIGMA)
# Each patch sits on the canvas inside a 2 px edge-replicated margin, the
# reach of the 5x5 Gaussian.
_MARGIN = 2
# NMS neighbour offsets (row, col) per quantized gradient direction:
# 0 = horizontal, 1 = 45 degrees, 2 = vertical, 3 = 135 degrees.
_NMS_DR = np.array([0, 1, 1, 1])
_NMS_DC = np.array([1, 1, 0, -1])


def _convolve(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``scipy.ndimage.convolve(image, kernel)``, bit for bit, at every
    pixel at least the kernel's radius in from the border.

    ndimage correlates with the flipped kernel: from 0.0, it adds
    ``weight * pixel`` over the kernel's nonzero taps in row-major order.
    Here each tap is one contiguous slice of the raveled image, so pixels
    nearer the border than the radius read wrapped rows, or stay 0.
    """
    height, width = image.shape
    radius_r, radius_c = kernel.shape[0] // 2, kernel.shape[1] // 2
    flat = image.ravel()
    reach = radius_r * width + radius_c
    out = np.zeros(image.size)
    body = out[reach : image.size - reach]
    term = np.empty_like(body)
    for (dr, dc), weight in np.ndenumerate(kernel[::-1, ::-1]):
        if weight != 0:
            start = reach + (dr - radius_r) * width + (dc - radius_c)
            body += np.multiply(flat[start : start + body.size], weight, out=term)
    return out.reshape(height, width)


def component_roots(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per node 0..``count``-1, its component's lowest node; edge i joins
    nodes ``a[i]`` and ``b[i]``. Min-label propagation: each round hooks the
    larger root of every split edge onto the smaller one, then pointer
    jumping points every node straight at its root."""
    root = np.arange(count)
    while True:
        root_a, root_b = root[a], root[b]
        split = root_a != root_b
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(root_a, root_b)[split],
                      np.minimum(root_a, root_b)[split])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _hysteresis(weak: np.ndarray, strong: np.ndarray) -> np.ndarray:
    """The weak pixels whose 8-connected weak component holds a strong one.

    Strong pixels must be weak too, and no weak pixel may lie on the
    image's outer ring, so flat offsets never wrap from one row to the
    next. Components are the ``component_roots`` of the weak 8-neighbours.
    """
    width = weak.shape[1]
    flat = weak.ravel()
    steps = (1, width - 1, width, width + 1)
    near = [np.flatnonzero(flat[:-step] & flat[step:]) for step in steps]
    # Number the weak pixels 0.. in raster order; ``rank`` maps to them.
    rank = np.cumsum(flat) - 1
    a = rank[np.concatenate(near)]
    b = rank[np.concatenate([pixel + step for pixel, step in zip(near, steps)])]
    root = component_roots(np.count_nonzero(flat), a, b)
    has_strong = np.zeros(len(root), dtype=bool)
    has_strong[root[strong.ravel()[flat]]] = True
    edges = np.zeros(flat.size, dtype=bool)
    edges[flat] = has_strong[root]
    return edges.reshape(weak.shape)


def _clamp_region(
    region: tuple[int, int, int, int], width: int, height: int
) -> tuple[int, int, int, int]:
    x_min, y_min, x_max, y_max = (int(round(v)) for v in region)
    x_min = max(0, x_min)
    y_min = max(0, y_min)
    x_max = min(width, x_max)
    y_max = min(height, y_max)
    return x_min, y_min, x_max, y_max


def _canny_canvas(
    pixels: np.ndarray, regions: np.ndarray, low: float, high: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canny over non-empty clamped regions in one pass.

    The patches are stacked top to bottom on one canvas, each inside its
    own edge-replicated margin, so every canvas row belongs to at most one
    patch and no filter, NMS neighbourhood or edge component crosses from
    one patch to the next. Each pixel sees the same neighbours, weights and
    summation order as when its patch is filtered alone with
    ``mode="nearest"``, so the edges are bit-identical.

    ``regions`` is (N, 4) int (x_min, y_min, x_max, y_max). Returns the
    canvas edge image and, per canvas pixel, the frame (row, col) it was
    copied from: ``rows`` is (R,) and ``cols`` is (R, W).
    """
    x_min, y_min, x_max, y_max = regions.T
    heights, widths = y_max - y_min, x_max - x_min
    tall = heights + 2 * _MARGIN
    box = np.repeat(np.arange(len(regions)), tall)
    top = np.cumsum(tall) - tall
    # Patch-local coordinates of every canvas pixel, and their clamp into
    # the patch: the clamp is the edge replication.
    local_r = np.arange(tall.sum()) - top[box] - _MARGIN
    local_c = np.arange(widths.max() + 2 * _MARGIN) - _MARGIN
    near_r = np.clip(local_r, 0, heights[box] - 1)
    near_c = np.clip(local_c[None, :], 0, (widths[box] - 1)[:, None])
    inside = (near_r == local_r)[:, None] & (near_c == local_c)
    rows = y_min[box] + near_r
    cols = x_min[box][:, None] + near_c

    # Every patch pixel lies 2 px in from the canvas border, where
    # ``_convolve`` is exact, and only patch pixels are read from here on.
    smoothed = _convolve(pixels[rows[:, None], cols].astype(float), _GAUSSIAN)
    # Sobel reads the 1 px ring around each patch; replicate it from the
    # patch's own smoothed border, as mode="nearest" does for a lone patch.
    smoothed = smoothed[(top[box] + _MARGIN + near_r)[:, None], near_c + _MARGIN]
    gx = _convolve(smoothed, _SOBEL_X)
    gy = _convolve(smoothed, _SOBEL_Y)
    magnitude = np.where(inside, np.hypot(gx, gy), 0.0)

    # Non-maximum suppression along the quantized gradient direction, at
    # the only pixels that can pass ``low``. Outside the patches the
    # magnitude is 0, as with NMS's constant padding of a lone patch.
    r, c = np.nonzero(inside & (magnitude >= low))
    mag = magnitude[r, c]
    sector = np.round(np.arctan2(gy[r, c], gx[r, c]) / (np.pi / 4.0)).astype(int) % 4
    dr, dc = _NMS_DR[sector], _NMS_DC[sector]
    keep = (mag >= magnitude[r + dr, c + dc]) & (mag >= magnitude[r - dr, c - dc])
    suppressed = np.zeros(magnitude.shape)
    suppressed[r[keep], c[keep]] = mag[keep]

    # Hysteresis: strong pixels are weak too, so this is binary dilation of
    # the strong pixels inside the weak ones, run to convergence. Rows of
    # two patches are 4 canvas rows apart, so no component leaves its patch.
    edges = _hysteresis(inside & (suppressed >= low), inside & (suppressed >= high))
    return edges, rows, cols


def canny_edges(
    frame: GrayFrame,
    region: tuple[int, int, int, int],
    low: float = CANNY_LOW,
    high: float = CANNY_HIGH,
) -> np.ndarray:
    """Edge pixels of one detection box, in frame coordinates.

    Classic stages: 5x5 Gaussian smoothing (sigma 1.4), Sobel gradients,
    non-maximum suppression along the quantized gradient direction, then
    double-threshold hysteresis. Returns an (N, 2) int array of (x, y),
    sorted by row, then column.
    """
    _check_thresholds(low, high)
    clamped = _clamp_region(region, frame.width, frame.height)
    x_min, y_min, x_max, y_max = clamped
    if x_max - x_min <= 0 or y_max - y_min <= 0:
        raise EmptyRegionError(f"region {region} has no pixels inside the frame")
    edges, rows, cols = _canny_canvas(frame.pixels, np.array([clamped]), low, high)
    r, c = np.nonzero(edges)
    return np.column_stack([cols[r, c], rows[r]]).astype(int)


def _check_thresholds(low: float, high: float) -> None:
    if not (0 <= low <= high <= 255):
        raise ValueError(f"thresholds out of range: low={low} high={high}")


def _fill_rows(edges: np.ndarray) -> np.ndarray:
    """Fill each row of a boolean image between its outermost on-pixels."""
    height, width = edges.shape
    if height == 0 or width == 0:
        return np.zeros((height, width), dtype=bool)
    left = edges.argmax(axis=1)
    right = width - 1 - edges[:, ::-1].argmax(axis=1)
    span = np.arange(width)
    return (
        edges.any(axis=1)[:, None]
        & (span >= left[:, None])
        & (span <= right[:, None])
    )


def lateral_fill(
    edges: np.ndarray, region: tuple[int, int, int, int]
) -> BinaryMask:
    """Fill each region row between its leftmost and rightmost edge pixel.

    Rows without edge pixels stay off. The returned mask is region-local
    (width/height of the box, origin at the box corner).
    """
    x_min, y_min, x_max, y_max = (int(round(v)) for v in region)
    width = max(0, x_max - x_min)
    height = max(0, y_max - y_min)
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    cols = edges[:, 0] - x_min
    rows = edges[:, 1] - y_min
    inside = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    local = np.zeros((height, width), dtype=bool)
    local[rows[inside], cols[inside]] = True
    return BinaryMask(width=width, height=height, bits=_fill_rows(local))


def build_frame_mask(
    frame: GrayFrame,
    boxes: list[tuple[float, float, float, float]],
    low: float = CANNY_LOW,
    high: float = CANNY_HIGH,
) -> BinaryMask:
    """Union of per-box lateral-fill masks over the whole frame.

    All boxes of the frame go through one Canny pass; each canvas row
    holds at most one patch, so the canvas fill is the per-box fill.
    """
    _check_thresholds(low, high)
    bits = np.zeros((frame.height, frame.width), dtype=bool)
    regions = np.array(
        [_clamp_region(box, frame.width, frame.height) for box in boxes], dtype=int
    ).reshape(-1, 4)
    regions = regions[(regions[:, 2] > regions[:, 0]) & (regions[:, 3] > regions[:, 1])]
    if len(regions):
        edges, rows, cols = _canny_canvas(frame.pixels, regions, low, high)
        r, c = np.nonzero(_fill_rows(edges))
        bits[rows[r], cols[r, c]] = True
    return BinaryMask(width=frame.width, height=frame.height, bits=bits)


def gate_keypoints(mask: BinaryMask, xy: np.ndarray) -> np.ndarray:
    """The indices of the rows of ``xy`` ((N, 2) pixels) whose rounded
    pixel lands on an on-pixel, ascending.

    Half-up rounding per axis. Bounds are compared before any cast, so
    no coordinate can overflow an integer.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    col = np.floor(xy[:, 0] + 0.5)
    row = np.floor(xy[:, 1] + 0.5)
    inside = np.flatnonzero(
        (col >= 0) & (col < mask.width) & (row >= 0) & (row < mask.height)
    )
    on = mask.bits[row[inside].astype(np.intp), col[inside].astype(np.intp)]
    return inside[on]


def _pgm_header(path, data) -> tuple[int, int, int]:
    """(width, height, pixel offset) of a binary (P5) PGM whose bytes are
    ``data``; their length is checked against width x height."""
    tokens: list[bytes] = []
    idx = 0
    while len(tokens) < 4:
        while idx < len(data) and data[idx : idx + 1].isspace():
            idx += 1
        if idx < len(data) and data[idx : idx + 1] == b"#":
            while idx < len(data) and data[idx] != 0x0A:
                idx += 1
            continue
        start = idx
        while idx < len(data) and not data[idx : idx + 1].isspace():
            idx += 1
        tokens.append(data[start:idx])
    if tokens[0] != b"P5":
        raise IngestError(path, "not a binary PGM (P5) file")
    if not all(token.isdigit() and int(token) > 0 for token in tokens[1:]):
        header = b" ".join(tokens[1:]).decode("ascii", "replace")
        raise IngestError(
            path, f"width, height and maxval must be positive integers, got {header!r}"
        )
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise IngestError(path, "16-bit PGM not supported")
    idx += 1  # single whitespace after maxval
    if len(data) - idx < width * height:
        raise IngestError(
            path, f"pixel data truncated: {max(0, len(data) - idx)} of "
            f"{width * height} bytes for {width}x{height}"
        )
    return width, height, idx


def read_pgm(path) -> GrayFrame:
    """Read a binary (P5) PGM file with maxval <= 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, offset = _pgm_header(path, data)
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=offset)
    return GrayFrame(width=width, height=height, pixels=pixels.reshape(height, width))


def write_pgm(path, frame: GrayFrame) -> None:
    """Write a frame to a binary PGM file."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frame.pixels))

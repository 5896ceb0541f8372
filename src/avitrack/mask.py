"""Binary masking of detection boxes via edge detection and lateral fill.

Frames are 8-bit grayscale. Masks single out bird pixels inside detection
boxes so that only keypoints on (or right next to) a bird survive. All
boxes of a frame go through one Canny pass: their patches are stacked on
one canvas, filtered together, and thresholded with one connected-component
labelling, with the same edges as running Canny on each box alone.
"""

from __future__ import annotations

import math
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
_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


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
    # Imported here so that a run without masks never loads scipy.
    from scipy import ndimage

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

    smoothed = ndimage.convolve(pixels[rows[:, None], cols].astype(float), _GAUSSIAN)
    # Sobel reads the 1 px ring around each patch; replicate it from the
    # patch's own smoothed border, as mode="nearest" does for a lone patch.
    smoothed = smoothed[(top[box] + _MARGIN + near_r)[:, None], near_c + _MARGIN]
    gx = ndimage.convolve(smoothed, _SOBEL_X)
    gy = ndimage.convolve(smoothed, _SOBEL_Y)
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

    # Hysteresis: keep the 8-connected weak components that hold a strong
    # pixel. Strong pixels are weak too, so this is binary dilation of the
    # strong pixels inside the weak ones, run to convergence.
    labels, _ = ndimage.label(inside & (suppressed >= low), structure=_EIGHT_CONNECTED)
    has_strong = np.zeros(labels.max() + 1, dtype=bool)
    has_strong[labels[inside & (suppressed >= high)]] = True
    has_strong[0] = False
    return has_strong[labels], rows, cols


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


def gate_keypoints(mask: BinaryMask, keypoints: list) -> list:
    """Keep keypoints whose rounded pixel lands on an on-pixel.

    Half-up rounding per axis; order and descriptors are preserved, so the
    result is a subsequence of the input.
    """
    kept = []
    for kp in keypoints:
        col = int(math.floor(kp.position[0] + 0.5))
        row = int(math.floor(kp.position[1] + 0.5))
        if 0 <= col < mask.width and 0 <= row < mask.height and mask.bits[row, col]:
            kept.append(kp)
    return kept


def read_pgm(path) -> GrayFrame:
    """Read a binary (P5) PGM file with maxval <= 255."""
    with open(path, "rb") as fh:
        data = fh.read()
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
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=idx)
    return GrayFrame(width=width, height=height, pixels=pixels.reshape(height, width))


def write_pgm(path, image: GrayFrame | BinaryMask) -> None:
    """Write a frame, or a mask as {0, 255}, to a binary PGM file."""
    if isinstance(image, BinaryMask):
        pixels = np.where(image.bits, 255, 0).astype(np.uint8)
    else:
        pixels = image.pixels
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())

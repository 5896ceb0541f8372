"""Binary masking of detection boxes via edge detection and lateral fill.

Frames are 8-bit grayscale. Masks single out bird pixels inside detection
boxes so that only keypoints on (or right next to) a bird survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyRegionError

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


def _clamp_region(
    region: tuple[int, int, int, int], width: int, height: int
) -> tuple[int, int, int, int]:
    x_min, y_min, x_max, y_max = (int(round(v)) for v in region)
    x_min = max(0, x_min)
    y_min = max(0, y_min)
    x_max = min(width, x_max)
    y_max = min(height, y_max)
    return x_min, y_min, x_max, y_max


def canny_edges(
    frame: GrayFrame,
    region: tuple[int, int, int, int],
    low: float = CANNY_LOW,
    high: float = CANNY_HIGH,
) -> np.ndarray:
    """Edge pixels of one detection box, in frame coordinates.

    Classic stages: 5x5 Gaussian smoothing (sigma 1.4), Sobel gradients,
    non-maximum suppression along the quantized gradient direction, then
    double-threshold hysteresis. Returns an (N, 2) int array of (x, y).
    """
    if not (0 <= low <= high <= 255):
        raise ValueError(f"thresholds out of range: low={low} high={high}")
    x_min, y_min, x_max, y_max = _clamp_region(region, frame.width, frame.height)
    if x_max - x_min <= 0 or y_max - y_min <= 0:
        raise EmptyRegionError(f"region {region} has no pixels inside the frame")

    patch = frame.pixels[y_min:y_max, x_min:x_max].astype(float)
    smoothed = ndimage.convolve(patch, _gaussian_kernel_5x5(GAUSSIAN_SIGMA), mode="nearest")
    gx = ndimage.convolve(smoothed, _SOBEL_X, mode="nearest")
    gy = ndimage.convolve(smoothed, _SOBEL_Y, mode="nearest")
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)

    # Quantize direction to 0/45/90/135 degrees and keep local maxima
    # along that direction.
    sector = (np.round(angle / (np.pi / 4.0)).astype(int)) % 4
    padded = np.pad(magnitude, 1, mode="constant")
    center = padded[1:-1, 1:-1]
    neighbors = {
        0: (padded[1:-1, 2:], padded[1:-1, :-2]),    # horizontal gradient
        1: (padded[2:, 2:], padded[:-2, :-2]),       # 45 degrees
        2: (padded[2:, 1:-1], padded[:-2, 1:-1]),    # vertical gradient
        3: (padded[2:, :-2], padded[:-2, 2:]),       # 135 degrees
    }
    suppressed = np.zeros_like(magnitude)
    for s, (fwd, back) in neighbors.items():
        keep = (sector == s) & (center >= fwd) & (center >= back)
        suppressed[keep] = magnitude[keep]

    strong = suppressed >= high
    weak = suppressed >= low
    edges = ndimage.binary_dilation(
        strong, structure=np.ones((3, 3), dtype=bool), iterations=-1, mask=weak
    )

    ys, xs = np.nonzero(edges)
    out = np.column_stack([xs + x_min, ys + y_min]).astype(int)
    return out[np.lexsort((out[:, 0], out[:, 1]))]


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
    cols, rows = cols[inside], rows[inside]
    # Per-row span [left, right]; rows without edges keep left > right.
    left = np.full(height, width, dtype=int)
    right = np.full(height, -1, dtype=int)
    np.minimum.at(left, rows, cols)
    np.maximum.at(right, rows, cols)
    span = np.arange(width)
    bits = (span >= left[:, None]) & (span <= right[:, None])
    return BinaryMask(width=width, height=height, bits=bits)


def build_frame_mask(
    frame: GrayFrame,
    boxes: list[tuple[float, float, float, float]],
    low: float = CANNY_LOW,
    high: float = CANNY_HIGH,
) -> BinaryMask:
    """Union of per-box lateral-fill masks over the whole frame."""
    bits = np.zeros((frame.height, frame.width), dtype=bool)
    for box in boxes:
        x_min, y_min, x_max, y_max = _clamp_region(box, frame.width, frame.height)
        if x_max - x_min <= 0 or y_max - y_min <= 0:
            continue
        region = (x_min, y_min, x_max, y_max)
        edges = canny_edges(frame, region, low=low, high=high)
        local = lateral_fill(edges, region)
        bits[y_min:y_max, x_min:x_max] |= local.bits
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
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise ValueError(f"{path}: 16-bit PGM not supported")
    idx += 1  # single whitespace after maxval
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

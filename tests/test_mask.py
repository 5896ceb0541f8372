"""Tests for Canny edges, lateral fill, keypoint gating, and PGM I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from avitrack import pipeline
from avitrack.cli import main
from avitrack.errors import EmptyRegionError, IngestError
from avitrack.mask import (
    _SOBEL_X,
    _SOBEL_Y,
    _GAUSSIAN,
    CANNY_HIGH,
    CANNY_LOW,
    GAUSSIAN_SIGMA,
    BinaryMask,
    GrayFrame,
    _clamp_region,
    _convolve,
    _gaussian_kernel_5x5,
    _hysteresis,
    build_frame_mask,
    canny_edges,
    gate_keypoints,
    lateral_fill,
    read_pgm,
    write_pgm,
)
from avitrack.matching import Keypoint


def _frame(pixels: np.ndarray) -> GrayFrame:
    pixels = np.asarray(pixels, dtype=np.uint8)
    return GrayFrame(width=pixels.shape[1], height=pixels.shape[0], pixels=pixels)


def _keypoint(x: float, y: float) -> Keypoint:
    return Keypoint(
        camera_id="cam0", frame=0, detection_index=0,
        position=np.array([x, y]), descriptor=np.zeros(4),
    )


class TestCannyEdges:
    def test_uniform_region_has_no_edges(self):
        frame = _frame(np.full((40, 60), 128))
        edges = canny_edges(frame, (5, 5, 55, 35))
        assert edges.shape == (0, 2)

    def test_vertical_step_stays_near_column(self):
        """A 0|255 step at column c yields edges only in c-1..c+1."""
        pixels = np.zeros((40, 60))
        step_col = 30
        pixels[:, step_col:] = 255
        edges = canny_edges(_frame(pixels), (0, 0, 60, 40))
        assert len(edges) > 0
        assert np.all(np.abs(edges[:, 0] - (step_col - 0.5)) <= 1.5)

    def test_rectangle_edges_hug_the_boundary(self):
        """Nearly all edge pixels lie within 1 px of the analytic outline."""
        pixels = np.zeros((80, 100))
        pixels[20:60, 30:70] = 220
        edges = canny_edges(_frame(pixels), (0, 0, 100, 80))
        assert len(edges) > 0
        # Analytic outline: x in {29.5, 69.5}, y in {19.5, 59.5}.
        dist_x = np.minimum(
            np.abs(edges[:, 0] - 29.5), np.abs(edges[:, 0] - 69.5)
        )
        dist_y = np.minimum(
            np.abs(edges[:, 1] - 19.5), np.abs(edges[:, 1] - 59.5)
        )
        inside_x = (edges[:, 0] >= 29.5) & (edges[:, 0] <= 69.5)
        inside_y = (edges[:, 1] >= 19.5) & (edges[:, 1] <= 59.5)
        boundary_dist = np.where(
            inside_y, np.where(inside_x, np.minimum(dist_x, dist_y), dist_x), dist_y
        )
        assert np.mean(boundary_dist <= 1.0) >= 0.99

    def test_empty_region_raises(self):
        frame = _frame(np.zeros((10, 10)))
        with pytest.raises(EmptyRegionError):
            canny_edges(frame, (5, 5, 5, 9))

    def test_edges_reported_in_frame_coordinates(self):
        pixels = np.zeros((50, 50))
        pixels[:, 25:] = 255
        edges = canny_edges(_frame(pixels), (10, 10, 40, 40))
        assert np.all(edges[:, 0] >= 10)
        assert np.all(edges[:, 1] >= 10)
        assert np.all(np.abs(edges[:, 0] - 24.5) <= 1.5)


class TestLateralFill:
    def test_fills_between_two_edges(self):
        mask = lateral_fill(np.array([[3, 0], [7, 0]]), (0, 0, 10, 1))
        assert mask.bits[0].tolist() == [False] * 3 + [True] * 5 + [False] * 2

    def test_row_without_edges_stays_off(self):
        mask = lateral_fill(np.array([[3, 0]]), (0, 0, 10, 2))
        assert not mask.bits[1].any()

    def test_single_edge_pixel_fills_itself(self):
        mask = lateral_fill(np.array([[5, 0]]), (0, 0, 10, 1))
        assert mask.bits[0].tolist() == [False] * 5 + [True] + [False] * 4

    def test_idempotent_and_monotone(self):
        """Same edges give the same mask; extra edges never clear pixels."""
        rng = np.random.default_rng(6)
        region = (0, 0, 30, 12)
        edges = np.column_stack(
            [rng.integers(0, 30, size=25), rng.integers(0, 12, size=25)]
        )
        first = lateral_fill(edges, region)
        again = lateral_fill(edges, region)
        assert np.array_equal(first.bits, again.bits)
        extra = np.vstack([edges, [[2, 5]]])
        grown = lateral_fill(extra, region)
        assert np.all(grown.bits[first.bits])


def _row_loop_lateral_fill(edges, region) -> np.ndarray:
    """Row-by-row fill: the reference the vectorised lateral_fill must match."""
    x_min, y_min, x_max, y_max = (int(round(v)) for v in region)
    width = max(0, x_max - x_min)
    height = max(0, y_max - y_min)
    bits = np.zeros((height, width), dtype=bool)
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    for row in range(height):
        ys = edges[:, 1] == row + y_min
        if not np.any(ys):
            continue
        cols = edges[ys, 0] - x_min
        cols = cols[(cols >= 0) & (cols < width)]
        if cols.size == 0:
            continue
        bits[row, cols.min() : cols.max() + 1] = True
    return bits


@st.composite
def _regions_and_edges(draw):
    """A region (possibly empty) and edge pixels scattered around it.

    Edges reach a few pixels past every side, so some fall outside the
    region, and sparse sets leave rows without an edge.
    """
    x_min = draw(st.integers(-5, 20))
    y_min = draw(st.integers(-5, 20))
    x_max = x_min + draw(st.integers(-3, 16))
    y_max = y_min + draw(st.integers(-3, 16))
    margin = 4
    xs = st.integers(x_min - margin, max(x_min, x_max) + margin)
    ys = st.integers(y_min - margin, max(y_min, y_max) + margin)
    edges = draw(st.lists(st.tuples(xs, ys), max_size=40))
    return (x_min, y_min, x_max, y_max), edges


class TestLateralFillMatchesRowLoop:
    @settings(max_examples=300)
    @given(case=_regions_and_edges())
    def test_random_edge_sets(self, case):
        region, edges = case
        got = lateral_fill(edges, region)
        expected = _row_loop_lateral_fill(edges, region)
        assert got.bits.shape == expected.shape
        assert got.bits.tobytes() == expected.tobytes()

    def test_canny_edges_of_a_real_frame(self):
        rng = np.random.default_rng(11)
        pixels = rng.integers(0, 40, size=(60, 80))
        pixels[15:45, 20:60] += 180
        region = (10, 5, 70, 55)
        edges = canny_edges(_frame(pixels), region)
        assert len(edges) > 0
        got = lateral_fill(edges, region)
        assert got.bits.tobytes() == _row_loop_lateral_fill(edges, region).tobytes()


def _gate(mask, keypoints):
    """``gate_keypoints`` on the keypoints' positions, as the kept keypoints."""
    xy = np.array([kp.position for kp in keypoints]).reshape(-1, 2)
    return [keypoints[i] for i in gate_keypoints(mask, xy)]


class TestGateKeypoints:
    def test_all_on_mask_keeps_everything(self):
        mask = BinaryMask(width=10, height=10, bits=np.ones((10, 10), dtype=bool))
        kps = [_keypoint(1.2, 3.4), _keypoint(9.4, 0.0)]
        assert _gate(mask, kps) == kps

    def test_all_off_mask_drops_everything(self):
        mask = BinaryMask(width=10, height=10, bits=np.zeros((10, 10), dtype=bool))
        assert _gate(mask, [_keypoint(1.2, 3.4)]) == []

    def test_round_half_up_per_axis(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[2, 4] = True
        mask = BinaryMask(width=10, height=10, bits=bits)
        on_pixel = _keypoint(3.6, 2.2)
        assert _gate(mask, [on_pixel]) == [on_pixel]
        assert _gate(mask, [_keypoint(3.4, 2.2)]) == []

    def test_preserves_order_and_descriptors(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0, 0] = bits[2, 2] = True
        mask = BinaryMask(width=4, height=4, bits=bits)
        kps = [_keypoint(0.0, 0.0), _keypoint(1.0, 1.0), _keypoint(2.0, 2.0)]
        kept = _gate(mask, kps)
        assert kept == [kps[0], kps[2]]


def _gate_loop(mask: BinaryMask, xy: np.ndarray) -> list[int]:
    """The per-keypoint loop ``gate_keypoints`` replaced, as reference."""
    kept = []
    for index, (x, y) in enumerate(xy.tolist()):
        col = int(math.floor(x + 0.5))
        row = int(math.floor(y + 0.5))
        if 0 <= col < mask.width and 0 <= row < mask.height and mask.bits[row, col]:
            kept.append(index)
    return kept


@st.composite
def _gate_case(draw):
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    bits = np.array(draw(st.lists(st.booleans(), min_size=width * height,
                                  max_size=width * height))).reshape(height, width)

    def coordinate(size):
        # Half-pixel ties at every pixel, -0.5 and -0.6, the last
        # column or row, just past it, huge values, and anything between.
        return st.one_of(
            st.integers(-1, size).map(lambda k: k + 0.5),
            st.integers(-1, size).map(lambda k: k - 0.5),
            st.sampled_from([-0.5, -0.6, -0.0, size - 1.0, size - 0.5,
                             np.nextafter(size - 0.5, 0.0), 1e300, -1e300]),
            st.floats(-2.0, size + 2.0),
        )

    xy = draw(st.lists(st.tuples(coordinate(width), coordinate(height)), max_size=12))
    return BinaryMask(width, height, bits), np.array(xy, dtype=float).reshape(-1, 2)


class TestGateMatchesLoop:
    @settings(max_examples=300)
    @given(case=_gate_case())
    def test_random_points(self, case):
        mask, xy = case
        kept = gate_keypoints(mask, xy)
        assert kept.dtype.kind == "i"
        assert kept.tolist() == _gate_loop(mask, xy)

    def test_ties_and_edges(self):
        bits = np.zeros((3, 4), dtype=bool)
        bits[0, 0] = bits[2, 3] = bits[1, 2] = True
        mask = BinaryMask(width=4, height=3, bits=bits)
        xy = np.array([[-0.5, -0.5], [-0.6, 0.0], [3.49, 2.2], [3.5, 2.0], [1.5, 0.5],
                       [2.0, 1.4999999999999998], [-0.49, 0.49]])
        assert gate_keypoints(mask, xy).tolist() == _gate_loop(mask, xy) == [0, 2, 4, 5, 6]

    def test_empty_input(self):
        mask = BinaryMask(width=2, height=2, bits=np.ones((2, 2), dtype=bool))
        assert gate_keypoints(mask, np.zeros((0, 2))).tolist() == []


def _reference_canny_edges(frame, region, low=CANNY_LOW, high=CANNY_HIGH):
    """Canny on one patch alone: the reference the batched pass must match.

    Smoothing and Sobel extend the patch with ``mode="nearest"``, NMS pads
    it with zeros, and hysteresis dilates the strong pixels inside the weak
    ones until nothing changes.
    """
    x_min, y_min, x_max, y_max = _clamp_region(region, frame.width, frame.height)
    patch = frame.pixels[y_min:y_max, x_min:x_max].astype(float)
    smoothed = ndimage.convolve(patch, _gaussian_kernel_5x5(GAUSSIAN_SIGMA), mode="nearest")
    gx = ndimage.convolve(smoothed, _SOBEL_X, mode="nearest")
    gy = ndimage.convolve(smoothed, _SOBEL_Y, mode="nearest")
    magnitude = np.hypot(gx, gy)
    sector = (np.round(np.arctan2(gy, gx) / (np.pi / 4.0)).astype(int)) % 4
    padded = np.pad(magnitude, 1, mode="constant")
    center = padded[1:-1, 1:-1]
    neighbors = {
        0: (padded[1:-1, 2:], padded[1:-1, :-2]),
        1: (padded[2:, 2:], padded[:-2, :-2]),
        2: (padded[2:, 1:-1], padded[:-2, 1:-1]),
        3: (padded[2:, :-2], padded[:-2, 2:]),
    }
    suppressed = np.zeros_like(magnitude)
    for s, (fwd, back) in neighbors.items():
        keep = (sector == s) & (center >= fwd) & (center >= back)
        suppressed[keep] = magnitude[keep]
    edges = ndimage.binary_dilation(
        suppressed >= high, structure=np.ones((3, 3), dtype=bool), iterations=-1,
        mask=suppressed >= low,
    )
    ys, xs = np.nonzero(edges)
    out = np.column_stack([xs + x_min, ys + y_min]).astype(int)
    return out[np.lexsort((out[:, 0], out[:, 1]))]


def _reference_frame_mask(frame, boxes, low=CANNY_LOW, high=CANNY_HIGH):
    """One Canny and one lateral fill per box, OR-ed into the frame."""
    bits = np.zeros((frame.height, frame.width), dtype=bool)
    for box in boxes:
        x_min, y_min, x_max, y_max = _clamp_region(box, frame.width, frame.height)
        if x_max - x_min <= 0 or y_max - y_min <= 0:
            continue
        region = (x_min, y_min, x_max, y_max)
        local = lateral_fill(_reference_canny_edges(frame, region, low, high), region)
        bits[y_min:y_max, x_min:x_max] |= local.bits
    return BinaryMask(width=frame.width, height=frame.height, bits=bits)


@st.composite
def _frames_boxes_thresholds(draw):
    """A frame of noise or flat blocks, boxes around and across it, and
    thresholds that include the extremes and ``low == high``.

    Box corners are whole or quarter pixels from a few pixels outside the
    frame, so boxes overlap, touch, cross an edge, lie fully outside, or
    are 0 or 1 px wide or tall.
    """
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    block = draw(st.integers(1, 8))
    grid = (-(-height // block), -(-width // block))
    levels = draw(st.lists(st.integers(0, 255), min_size=grid[0] * grid[1],
                           max_size=grid[0] * grid[1]))
    pixels = np.kron(np.reshape(levels, grid), np.ones((block, block)))[:height, :width]
    corner = st.tuples(st.integers(-6, 44), st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        (x, fx), (y, fy) = draw(corner), draw(corner)
        w, h = draw(st.integers(-1, 30)), draw(st.integers(-1, 30))
        boxes.append((x + fx, y + fy, x + fx + w, y + fy + h))
    low = draw(st.one_of(st.sampled_from([0.0, 50.0, 255.0]), st.floats(0, 255)))
    high = draw(st.one_of(st.just(low), st.just(255.0), st.floats(low, 255)))
    return _frame(pixels), boxes, low, high


class TestBatchedCannyMatchesPerBox:
    @settings(max_examples=300)
    @given(case=_frames_boxes_thresholds())
    def test_frame_mask_and_edges(self, case):
        frame, boxes, low, high = case
        got = build_frame_mask(frame, boxes, low, high)
        expected = _reference_frame_mask(frame, boxes, low, high)
        assert got.bits.tobytes() == expected.bits.tobytes()
        for box in boxes:
            x_min, y_min, x_max, y_max = _clamp_region(box, frame.width, frame.height)
            if x_max > x_min and y_max > y_min:
                edges = canny_edges(frame, box, low, high)
                reference = _reference_canny_edges(frame, box, low, high)
                assert edges.shape == reference.shape
                assert edges.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("scene", ["noise", "rectangles"])
    def test_frame_at_default_thresholds(self, scene):
        """Noise, and flat rectangles whose straight edges tie in NMS."""
        rng = np.random.default_rng(5)
        if scene == "noise":
            pixels = rng.integers(0, 256, size=(90, 120))
        else:
            pixels = np.zeros((90, 120))
            pixels[20:60, 10:50] = 220
            pixels[40:80, 70:110] = 90
        frame = _frame(pixels)
        boxes = [(-4.0, 10.0, 30.0, 50.5), (20.0, 30.0, 60.0, 70.0),
                 (60.0, 30.0, 61.0, 89.0), (65.5, 35.0, 130.0, 95.0)]
        got = build_frame_mask(frame, boxes)
        assert got.bits.any()
        assert got.bits.tobytes() == _reference_frame_mask(frame, boxes).bits.tobytes()

    def test_run_use_mask_writes_the_reference_bytes(self, tmp_path, monkeypatch):
        """``run --use-mask`` writes the same bytes with the per-box masks."""
        bundle = tmp_path / "bundle"
        assert main(["synth", "--out", str(bundle), "--seed", "5", "--birds", "3",
                     "--cameras", "3", "--duration", "0.5", "--descriptor-length", "8",
                     "--image-size", "640x360", "--emit-frames"]) == 0
        counts = {"in": 0, "kept": 0}

        def counting_gate(mask, keypoints):
            kept = gate_keypoints(mask, keypoints)
            counts["in"] += len(keypoints)
            counts["kept"] += len(kept)
            return kept

        monkeypatch.setattr(pipeline, "gate_keypoints", counting_gate)
        fast, slow = tmp_path / "fast", tmp_path / "reference"
        assert main(["run", "--input", str(bundle), "--use-mask", "--out", str(fast)]) == 0
        assert 0 < counts["kept"] < counts["in"]
        monkeypatch.setattr(pipeline, "build_frame_mask", _reference_frame_mask)
        assert main(["run", "--input", str(bundle), "--use-mask", "--out", str(slow)]) == 0
        names = sorted(p.name for p in fast.iterdir())
        assert names == sorted(p.name for p in slow.iterdir())
        assert "tracks.csv" in names
        for name in names:
            assert (fast / name).read_bytes() == (slow / name).read_bytes(), name


@st.composite
def _canvases(draw):
    """A float canvas of 5 to 40 px a side: normal noise at a drawn scale,
    or that noise rounded to whole values, which gives ties and -0.0."""
    shape = draw(st.integers(5, 40)), draw(st.integers(5, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    canvas = rng.standard_normal(shape) * draw(st.sampled_from([1.0, 255.0, 1e6, 1e-300]))
    return np.round(canvas) if draw(st.booleans()) else canvas


class TestConvolveMatchesNdimage:
    """``_convolve`` against ``ndimage.convolve``: the same bits at every
    pixel at least the kernel's radius in from the border, where the
    border mode plays no part."""

    @pytest.mark.parametrize("kernel", [_GAUSSIAN, _SOBEL_X, _SOBEL_Y],
                             ids=["gaussian", "sobel-x", "sobel-y"])
    @settings(max_examples=150)
    @given(canvas=_canvases())
    def test_random_canvases(self, kernel, canvas):
        radius = kernel.shape[0] // 2
        inner = (slice(radius, -radius),) * 2
        got = _convolve(canvas, kernel)
        expected = ndimage.convolve(canvas, kernel)
        assert got.shape == canvas.shape
        assert got[inner].tobytes() == expected[inner].tobytes()


def _reference_hysteresis(weak, strong):
    return ndimage.binary_dilation(
        strong, structure=np.ones((3, 3), dtype=bool), iterations=-1, mask=weak
    )


def _serpentine(size: int) -> np.ndarray:
    """A 1 px path over a ``size`` x ``size`` box on a canvas with a 2 px
    empty border: full rows two apart, joined at alternate ends."""
    weak = np.zeros((size + 4, size + 4), dtype=bool)
    box = weak[2:-2, 2:-2]
    box[::2] = True
    box[1::4, -1] = True
    box[3::4, 0] = True
    return weak


class TestHysteresis:
    """``_hysteresis`` against binary dilation of the strong pixels inside
    the weak ones, run to convergence."""

    @pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
    def test_long_serpentine_from_one_strong_end(self, cut):
        """A path of ~11,500 px: kept whole, or up to a cut halfway."""
        weak = _serpentine(151)
        if cut:
            weak[2 + 76, 2 + 75] = False
        strong = np.zeros_like(weak)
        strong[2, 2] = True
        got = _hysteresis(weak, strong)
        assert got.tobytes() == _reference_hysteresis(weak, strong).tobytes()
        if cut:
            assert got[:2 + 76].tobytes() == weak[:2 + 76].tobytes()
            assert not got[2 + 77:].any()
        else:
            assert got.tobytes() == weak.tobytes()

    def test_diagonal_chain_connects(self):
        """A V of diagonal steps, down-right then down-left, with no two
        pixels side by side, is one 8-connected component."""
        weak = np.zeros((42, 24), dtype=bool)
        rows = np.arange(2, 40)
        weak[rows, np.minimum(rows, 40 - rows)] = True
        assert not (weak[:, 1:] & weak[:, :-1]).any()
        assert not (weak[1:] & weak[:-1]).any()
        strong = np.zeros_like(weak)
        strong[2, 2] = True
        got = _hysteresis(weak, strong)
        assert got.tobytes() == weak.tobytes()
        assert got.tobytes() == _reference_hysteresis(weak, strong).tobytes()

    @settings(max_examples=150)
    @given(shape=st.tuples(st.integers(5, 30), st.integers(5, 30)),
           seed=st.integers(0, 2**32 - 1), weak_share=st.floats(0.2, 0.8))
    def test_random_canvases(self, shape, seed, weak_share):
        """Weak pixels at a drawn density, one in eight of them strong, and
        the outer ring cleared."""
        draws = np.random.default_rng(seed).random(shape)
        canvas = np.where(draws < weak_share, 1 + (draws < weak_share / 8), 0)
        canvas[[0, -1]] = 0
        canvas[:, [0, -1]] = 0
        weak, strong = canvas >= 1, canvas == 2
        got = _hysteresis(weak, strong)
        assert got.tobytes() == _reference_hysteresis(weak, strong).tobytes()

    def test_low_zero_makes_every_box_pixel_weak(self):
        """With ``low == 0`` every pixel inside a box is weak, so a box
        with one strong pixel is all edge and a flat box has none."""
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 30, size=(170, 360))
        pixels[40:120, 30:140] += 200
        pixels[:, 190:] = 17
        frame = _frame(pixels)
        boxes = [(10.0, 10.0, 170.0, 165.0), (200.0, 5.0, 355.0, 160.0)]
        edges = canny_edges(frame, boxes[0], low=0.0, high=CANNY_HIGH)
        assert len(edges) == 160 * 155
        assert edges.tobytes() == _reference_canny_edges(
            frame, boxes[0], 0.0, CANNY_HIGH).tobytes()
        assert len(canny_edges(frame, boxes[1], low=0.0, high=CANNY_HIGH)) == 0
        got = build_frame_mask(frame, boxes, low=0.0, high=CANNY_HIGH)
        expected = _reference_frame_mask(frame, boxes, low=0.0, high=CANNY_HIGH)
        assert got.bits.tobytes() == expected.bits.tobytes()

    @pytest.mark.parametrize("low, high", [(0.0, 0.0), (5.0, 60.0), (20.0, 200.0)])
    def test_large_box_matches_reference(self, low, high):
        """A noisy box past 150 px, with components that span it."""
        rng = np.random.default_rng(13)
        frame = _frame(rng.integers(0, 256, size=(180, 200)))
        region = (4, 6, 196, 176)
        edges = canny_edges(frame, region, low, high)
        assert len(edges) > 0
        assert edges.tobytes() == _reference_canny_edges(frame, region, low, high).tobytes()


class TestFrameMask:
    def test_mask_on_pixels_stay_inside_boxes(self):
        pixels = np.zeros((60, 80))
        pixels[10:30, 10:40] = 200
        pixels[35:55, 50:75] = 180
        frame = _frame(pixels)
        boxes = [(8.0, 8.0, 42.0, 32.0), (48.0, 33.0, 77.0, 57.0)]
        mask = build_frame_mask(frame, boxes)
        assert mask.bits.any()
        box_union = np.zeros((60, 80), dtype=bool)
        for x_min, y_min, x_max, y_max in boxes:
            box_union[int(y_min) : int(y_max), int(x_min) : int(x_max)] = True
        assert not np.any(mask.bits & ~box_union)


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        frame = _frame(rng.integers(0, 256, size=(17, 23)))
        path = tmp_path / "cam0_frame0.pgm"
        write_pgm(path, frame)
        loaded = read_pgm(path)
        assert loaded.width == frame.width
        assert loaded.height == frame.height
        assert np.array_equal(loaded.pixels, frame.pixels)

    def test_size_read_skips_comments_and_extra_bytes(self, tmp_path):
        path = tmp_path / "cam0_frame0.pgm"
        path.write_bytes(b"P5\n# made by hand\n3  2\n# maxval next\n255\n" + bytes(9))
        assert read_pgm(path).pixels.shape == (2, 3)

    def test_non_contiguous_pixels_are_written_in_order(self, tmp_path):
        pixels = np.arange(24, dtype=np.uint8).reshape(4, 6)
        path = tmp_path / "cam0_frame0.pgm"
        write_pgm(path, GrayFrame(width=3, height=4, pixels=pixels[:, ::2]))
        assert np.array_equal(read_pgm(path).pixels, pixels[:, ::2])


# Frame files that ``read_pgm`` must refuse, with the message it gives.
BAD_PGMS = {
    "truncated": (b"P5\n4 3\n255\n" + bytes(5),
                  "pixel data truncated: 5 of 12 bytes for 4x3"),
    "not P5": (b"P2\n4 3\n255\n" + bytes(12), "not a binary PGM (P5) file"),
    "16-bit": (b"P5\n4 3\n65535\n" + bytes(24), "16-bit PGM not supported"),
    "non-integer size": (
        b"P5\n4 3.5\n255\n" + bytes(12),
        "width, height and maxval must be positive integers, got '4 3.5 255'",
    ),
    "empty": (b"", "not a binary PGM (P5) file"),
    "truncated after a comment": (b"P5\n# one row short\n4 3\n255\n" + bytes(8),
                                  "pixel data truncated: 8 of 12 bytes for 4x3"),
}


@pytest.fixture
def masked_bundle(tmp_path):
    bundle = tmp_path / "bundle"
    assert main(["synth", "--out", str(bundle), "--seed", "4", "--birds", "2",
                 "--cameras", "2", "--duration", "0.2", "--descriptor-length", "8",
                 "--image-size", "320x180", "--emit-frames"]) == 0
    return bundle


class TestBadFrameFiles:
    @pytest.mark.parametrize("case", sorted(BAD_PGMS))
    def test_read_pgm_names_the_file(self, tmp_path, case):
        content, message = BAD_PGMS[case]
        path = tmp_path / "cam0_frame0.pgm"
        path.write_bytes(content)
        with pytest.raises(IngestError) as exc:
            read_pgm(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("case", sorted(BAD_PGMS))
    def test_run_use_mask_exits_2(self, masked_bundle, tmp_path, capsys, case):
        content, message = BAD_PGMS[case]
        path = masked_bundle / "frames" / "cam0_frame0.pgm"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--use-mask",
                     "--out", str(out)]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (out / "tracks.csv").exists()

    def test_run_rejects_a_frame_of_the_wrong_size(self, masked_bundle, tmp_path, capsys):
        path = masked_bundle / "frames" / "cam0_frame0.pgm"
        write_pgm(path, _frame(np.zeros((2, 4))))
        out = tmp_path / "out"
        assert main(["run", "--input", str(masked_bundle), "--use-mask",
                     "--out", str(out)]) == 2
        assert (f"error: {path}: frame is 4x2, but camera cam0 is calibrated "
                "for 320x180") in capsys.readouterr().err
        assert not (out / "tracks.csv").exists()

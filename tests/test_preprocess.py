import dataclasses
import importlib.util
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lesionprep import preprocess
from lesionprep.preprocess import (
    ORIENTATIONS,
    HairMask,
    PreprocessConfig,
    _blur_blocks,
    _close,
    _gaussian_kernel,
    _sharpen_table,
    clean_mask,
    detect_hair_mask,
    inpaint_hair,
    preprocess_pipeline,
    smooth_inpainted,
    unsharp_mask,
)
from lesionprep.raster import GrayImage, Image, decode_netpbm

from conftest import seeded_arrays, u8_arrays

_DIRS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (1, 1)}

# loaded by its file path, so that bench's checks, run and spans modules
# cannot shadow a test module of the same name
_spec = importlib.util.spec_from_file_location("bench_corpus", Path(__file__).parents[1] / "bench" / "corpus.py")
_corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_corpus)


def hairy_scene(index: int) -> tuple[Image, Image, np.ndarray]:
    """The bench corpus's image ``index`` at seed 1 with the hairy workload's
    strokes, its hair-free twin, which shares every draw but the strokes, and
    the hair footprint: the pixels where the two differ in any channel,
    dilated 3x3 as clean_mask dilates, so that it takes in the strokes'
    anti-aliased fringe."""
    strokes = _corpus.WORKLOADS["hairy"].strokes
    hairy, clean = _corpus.render_image(1, index, strokes), _corpus.render_image(1, index, 0)
    padded = np.pad((hairy != clean).any(axis=2), 1)
    rows = padded[:, :-2] | padded[:, 1:-1] | padded[:, 2:]
    return Image(hairy), Image(clean), rows[:-2] | rows[1:-1] | rows[2:]


# ---------------------------------------------------------------- oracles

def round_u8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def morph_close_line(image: GrayImage, length: int, orientation: int) -> GrayImage:
    """Grayscale closing (dilate then erode) with a line SE at the given
    orientation, as detection runs it on each plane; the SE is clipped to
    the image at borders."""
    return GrayImage(_close(image.pixels, length, orientation))


def blur_ndimage_oracle(values: np.ndarray, sigma: float) -> np.ndarray:
    """The blur as scipy.ndimage computes it: correlate1d along the rows,
    then along the columns, replicate borders, in float64."""
    k = _gaussian_kernel(sigma)
    rows = ndimage.correlate1d(values.astype(np.float64), k, axis=1, mode="nearest")
    return ndimage.correlate1d(rows, k, axis=0, mode="nearest")


def unsharp_oracle(pixels: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Unsharp mask one channel at a time."""
    src = pixels.astype(np.int32)
    out = src.copy()
    for c in range(3):
        channel = src[:, :, c]
        blurred = round_u8(blur_ndimage_oracle(channel, config.sharpen_sigma)).astype(np.int32)
        detail = channel - blurred
        boosted = np.clip(np.floor(channel + config.sharpen_amount * detail + 0.5), 0, 255)
        out[:, :, c] = np.where(np.abs(detail) > config.sharpen_threshold, boosted, channel)
    return out.astype(np.uint8)


def closing_oracle(values: np.ndarray, length: int, orientation: int) -> np.ndarray:
    """Per-pixel min/max evaluation of dilation-then-erosion, SE clipped."""
    dy, dx = _DIRS[orientation]
    half = length // 2
    h, w = values.shape

    def sweep(arr, combine, start):
        out = np.empty_like(arr)
        for y in range(h):
            for x in range(w):
                acc = start
                for d in range(-half, half + 1):
                    yy, xx = y + d * dy, x + d * dx
                    if 0 <= yy < h and 0 <= xx < w:
                        acc = combine(acc, int(arr[yy, xx]))
                out[y, x] = acc
        return out

    dilated = sweep(values, max, 0)
    return sweep(dilated, min, 255)


def closing_ndimage_oracle(values: np.ndarray, length: int, orientation: int) -> np.ndarray:
    """The closing as scipy.ndimage computes it: grey dilation, then grey
    erosion, with a line footprint; out-of-image cells hold each one's
    identity, so the SE is clipped at borders."""
    dy, dx = _DIRS[orientation]
    half = length // 2
    footprint = np.zeros((2 * half * abs(dy) + 1, 2 * half * abs(dx) + 1), bool)
    for d in range(-half, half + 1):
        footprint[half * abs(dy) + d * dy, half * abs(dx) + d * dx] = True
    dilated = ndimage.grey_dilation(values, footprint=footprint, mode="constant", cval=0)
    return ndimage.grey_erosion(dilated, footprint=footprint, mode="constant", cval=255)


def detect_oracle(pixels: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """OR of the per-channel, per-orientation closing residues."""
    mask = np.zeros(pixels.shape[:2], dtype=bool)
    for c in range(3):
        plane = pixels[:, :, c]
        for orientation in ORIENTATIONS:
            closed = closing_ndimage_oracle(plane, config.se_length, orientation)
            mask |= closed.astype(int) - plane > config.hair_threshold
    return mask


def _run_extent(bits: np.ndarray, y: int, x: int, dy: int, dx: int) -> tuple[int, int]:
    """Masked run lengths from (y, x) exclusive, forward (+d) and backward."""
    h, w = bits.shape
    fwd = 0
    yy, xx = y + dy, x + dx
    while 0 <= yy < h and 0 <= xx < w and bits[yy, xx]:
        fwd += 1
        yy += dy
        xx += dx
    bwd = 0
    yy, xx = y - dy, x - dx
    while 0 <= yy < h and 0 <= xx < w and bits[yy, xx]:
        bwd += 1
        yy -= dy
        xx -= dx
    return fwd, bwd


def _sample_outward(bits: np.ndarray, y: int, x: int, dy: int, dx: int, start: int):
    """First unmasked in-image pixel at >= ``start`` steps from (y, x), or None."""
    h, w = bits.shape
    step = start
    while True:
        yy, xx = y + step * dy, x + step * dx
        if not (0 <= yy < h and 0 <= xx < w):
            return None
        if not bits[yy, xx]:
            return yy, xx, step
        step += 1


def float_two_sided_mean(va, vb, da, db) -> np.ndarray:
    """The distance-weighted mean of two samples by float64 arithmetic, the
    form ``inpaint_hair`` used before its integer one: side a, at distance
    da, is weighted by db."""
    va, vb = np.asarray(va, np.float64), np.asarray(vb, np.float64)
    return np.floor((db * va + da * vb) / (da + db) + 0.5).astype(np.uint8)


def inpaint_oracle(pixels: np.ndarray, bits: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Walk every masked pixel's four lines one step at a time."""
    out = pixels.copy()
    margin = max(config.interp_margin, 1)
    for y, x in np.argwhere(bits):
        best = None
        for orientation in ORIENTATIONS:
            dy, dx = _DIRS[orientation]
            fwd, bwd = _run_extent(bits, y, x, dy, dx)
            side_a = _sample_outward(bits, y, x, dy, dx, fwd + margin)
            side_b = _sample_outward(bits, y, x, -dy, -dx, bwd + margin)
            n_sides = (side_a is not None) + (side_b is not None)
            key = (-n_sides, fwd + bwd + 1)
            if best is None or key < best[0]:
                best = (key, side_a, side_b)
        _, side_a, side_b = best
        if side_a is None and side_b is None:
            continue
        if side_a is None or side_b is None:
            sy, sx, _ = side_a if side_b is None else side_b
            out[y, x] = pixels[sy, sx]
            continue
        ya, xa, da = side_a
        yb, xb, db = side_b
        out[y, x] = float_two_sided_mean(pixels[ya, xa], pixels[yb, xb], da, db)
    return out


def _lower_median(window: np.ndarray) -> np.ndarray:
    """Per-channel sorted element at index (n-1)//2."""
    flat = window.reshape(-1, window.shape[-1])
    return np.sort(flat, axis=0)[(flat.shape[0] - 1) // 2]


def smooth_oracle(pixels: np.ndarray, bits: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Sort one border-clipped window per masked pixel."""
    half = config.median_window // 2
    out = pixels.copy()
    h, w = bits.shape
    for y, x in np.argwhere(bits):
        window = pixels[max(y - half, 0) : min(y + half + 1, h),
                        max(x - half, 0) : min(x + half + 1, w)]
        out[y, x] = _lower_median(window)
    return out

@st.composite
def masked_images(draw, max_side=30):
    """uint8 RGB pixels and a mask of any density, all-clear and all-masked
    included; sides are 1 to ``max_side`` px, so masks often touch the borders."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    pixels = draw(seeded_arrays((h, w, 3)))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return pixels, np.random.default_rng(seed).random((h, w)) < density


@st.composite
def line_masked_images(draw):
    """uint8 RGB pixels and a mask of whole rows, columns and diagonals, 1-3
    px thick, each running from border to border; sides are 1-40 px. Every
    masked run along a stroke ends at the image border, where a walk to a
    sample falls off the line."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    pixels = draw(seeded_arrays((h, w, 3)))
    y, x = np.indices((h, w))
    coord = {"row": y, "column": x, "diagonal": y - x + w - 1, "antidiagonal": y + x}
    bits = np.zeros((h, w), bool)
    strokes = st.tuples(st.sampled_from(sorted(coord)), st.integers(0, h + w - 2), st.integers(1, 3))
    for kind, start, thickness in draw(st.lists(strokes, min_size=1, max_size=5)):
        bits |= (coord[kind] >= start) & (coord[kind] < start + thickness)
    return pixels, bits

sigmas = st.floats(0.3, 3.0)
se_lengths = st.sampled_from([3, 5, 7, 11])


def clean_mask_ndimage_oracle(bits: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """clean_mask as scipy.ndimage computes it: label the 8-connected
    components, test each one's bounding box, dilate the kept ones by 3x3."""
    labels, n = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return np.zeros_like(bits)
    keep = np.zeros(n + 1, dtype=bool)
    slices = ndimage.find_objects(labels)
    areas = np.bincount(labels.ravel(), minlength=n + 1)
    for i, sl in enumerate(slices, start=1):
        bh = sl[0].stop - sl[0].start
        bw = sl[1].stop - sl[1].start
        span = max(bh, bw)
        thinness = areas[i] / (bh * bw)
        keep[i] = span >= config.min_component_span and thinness <= config.max_thinness
    return ndimage.binary_dilation(keep[labels], structure=np.ones((3, 3), dtype=bool))


def golden_image(name: str) -> Image:
    return decode_netpbm((Path(__file__).parent / "data" / "golden" / f"{name}.ppm").read_bytes())


def traced_peak(fn) -> int:
    """The peak bytes allocated while ``fn`` runs, as tracemalloc sees them;
    numpy reports its array buffers to tracemalloc, so the figure does not
    depend on the C allocator and is the same on every run."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- gaussian

def blur_float(values: np.ndarray, sigma: float) -> np.ndarray:
    """The float64 blur that unsharp_mask runs, its row blocks joined."""
    return np.concatenate([blur.copy() for _, blur in _blur_blocks(values, sigma)])


def blur_u8(values: np.ndarray, sigma: float) -> np.ndarray:
    """The blur that unsharp_mask runs, rounded to 8 bits."""
    return round_u8(blur_float(values, sigma))


def block_heights(monkeypatch, rows: int) -> None:
    """Make the blur take blocks of ``rows`` rows, whatever the image width."""
    monkeypatch.setattr(preprocess, "_BLOCK_FLOATS", 0)
    monkeypatch.setattr(preprocess, "_MIN_BLOCK_ROWS", rows)


class TestGaussianBlur:
    def test_uniform_is_fixed_point(self):
        arr = np.full((16, 16), 100, np.uint8)
        for sigma in (0.5, 1.0, 2.5):
            assert np.array_equal(blur_u8(arr, sigma), arr)

    def test_impulse_center_weight(self):
        # hand-computed truncated normalized kernel, sigma 1 -> half-width 3
        k = np.exp(-np.arange(-3, 4) ** 2 / 2.0)
        k /= k.sum()
        arr = np.zeros((15, 15), np.uint8)
        arr[7, 7] = 255
        assert blur_u8(arr, 1.0)[7, 7] == int(math.floor(255 * k[3] * k[3] + 0.5))

    def test_semigroup_approximation(self, rng):
        # replicate borders break the semigroup identity near the edge, so the
        # comparison excludes a margin of the larger kernel's radius
        margin = math.ceil(3 * 1.2 * math.sqrt(2))
        for _ in range(5):
            arr = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
            twice = blur_u8(blur_u8(arr, 1.2), 1.2).astype(int)
            once = blur_u8(arr, 1.2 * math.sqrt(2)).astype(int)
            dev = np.abs(twice - once)[margin:-margin, margin:-margin].max()
            assert dev <= 2

    def test_rejects_bad_sigma(self):
        # the config is where the blur's sigma is checked
        with pytest.raises(ValueError, match="sharpen_sigma"):
            PreprocessConfig(sharpen_sigma=0.0)

    @settings(deadline=None)
    @given(u8_arrays() | u8_arrays(3), sigmas)
    def test_matches_ndimage_bit_for_bit(self, values, sigma):
        got = blur_float(values, sigma)
        assert got.shape == values.shape
        assert np.array_equal(got.view(np.uint64), blur_ndimage_oracle(values, sigma).view(np.uint64))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 30), (30, 1), (24, 2), (5, 300), (13, 11, 3)])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.7, 3.0])
    def test_every_block_height_matches_ndimage_bit_for_bit(self, monkeypatch, rng, shape, sigma):
        values = rng.integers(0, 256, size=shape, dtype=np.uint8)
        want = blur_ndimage_oracle(values, sigma).view(np.uint64)
        for rows in range(1, shape[0] + 1):
            block_heights(monkeypatch, rows)
            assert np.array_equal(blur_float(values, sigma).view(np.uint64), want), rows

    @settings(deadline=None)
    @given(u8_arrays(3), sigmas, st.data())
    def test_any_block_height_matches_ndimage_bit_for_bit(self, values, sigma, data):
        rows = data.draw(st.integers(1, values.shape[0]))
        with pytest.MonkeyPatch.context() as monkeypatch:
            block_heights(monkeypatch, rows)
            got = blur_float(values, sigma)
        assert np.array_equal(got.view(np.uint64), blur_ndimage_oracle(values, sigma).view(np.uint64))


# ---------------------------------------------------------------- unsharp

class TestUnsharpMask:
    def test_zero_amount_is_identity(self, rng):
        img = Image(rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8))
        cfg = PreprocessConfig(sharpen_amount=0.0)
        assert unsharp_mask(img, cfg) == img

    def test_zero_amount_skips_the_blur(self, monkeypatch):
        def fail(*args):
            raise AssertionError("blurred with sharpen_amount 0")

        monkeypatch.setattr(preprocess, "_blur_blocks", fail)
        img = Image(np.full((4, 4, 3), 9, np.uint8))
        assert unsharp_mask(img, PreprocessConfig(sharpen_amount=0)) is img

    def test_uniform_unchanged(self):
        img = Image(np.full((10, 10, 3), 90, np.uint8))
        assert unsharp_mask(img) == img

    def test_step_edge_gradient_increases(self):
        arr = np.full((16, 16, 3), 50, np.uint8)
        arr[:, 8:, :] = 150
        img = Image(arr)
        out = unsharp_mask(img)
        grad_in = np.abs(np.diff(img.pixels[:, :, 0].astype(int), axis=1)).max()
        grad_out = np.abs(np.diff(out.pixels[:, :, 0].astype(int), axis=1)).max()
        assert grad_out > grad_in

    def test_matches_scalar_oracle_on_step_profile(self):
        # rows are identical, so the 2-D result equals a 1-D computation
        profile = np.array([50] * 8 + [150] * 8)
        arr = np.tile(profile, (16, 1)).astype(np.uint8)
        img = Image(np.stack([arr] * 3, axis=-1))
        out = unsharp_mask(img)

        k = np.exp(-np.arange(-3, 4) ** 2 / 2.0)
        k /= k.sum()
        padded = np.concatenate([[50] * 3, profile, [150] * 3])
        blurred = np.array(
            [math.floor(np.dot(padded[i : i + 7], k) + 0.5) for i in range(16)]
        )
        detail = profile - blurred
        expected = np.clip(np.floor(profile + 0.8 * detail + 0.5), 0, 255)
        expected = np.where(np.abs(detail) > 0, expected, profile)
        assert out.pixels[8, :, 1].tolist() == expected.tolist()

    @settings(deadline=None)
    @given(u8_arrays(3), sigmas, st.floats(0.0, 3.0), st.integers(0, 40))
    def test_matches_per_channel_oracle(self, pixels, sigma, amount, threshold):
        cfg = PreprocessConfig(
            sharpen_sigma=sigma, sharpen_amount=amount, sharpen_threshold=threshold
        )
        got = unsharp_mask(Image(pixels), cfg).pixels
        assert np.array_equal(got, unsharp_oracle(pixels, cfg))

    @pytest.mark.parametrize("shape, sigma, refused", [
        ((1, 1), 74.0, False), ((1, 1), 75.0, True), ((1, 1), 1e300, True),
        ((228, 1), 76.0, False), ((1, 228), math.nextafter(76.0, 77.0), True),
    ])
    def test_refuses_a_radius_beyond_the_larger_side_and_224_px(self, rng, shape, sigma, refused):
        img = Image(rng.integers(0, 256, size=shape + (3,), dtype=np.uint8))
        cfg = PreprocessConfig(sharpen_sigma=sigma)
        if refused:
            message = f"sharpen_sigma {sigma} needs a blur radius over {max(shape + (224,))} px"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                unsharp_mask(img, cfg)
        else:
            assert np.array_equal(unsharp_mask(img, cfg).pixels, unsharp_oracle(img.pixels, cfg))
        # without sharpening there is no blur to refuse
        assert unsharp_mask(img, dataclasses.replace(cfg, sharpen_amount=0)) is img

    @pytest.mark.parametrize("shape", [(1, 1), (1, 30), (30, 1), (24, 2), (5, 300), (16, 16)])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
    def test_every_block_height_matches_the_oracle(self, monkeypatch, rng, shape, sigma):
        pixels = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        cfg = PreprocessConfig(sharpen_sigma=sigma, sharpen_amount=1.3, sharpen_threshold=2)
        want = unsharp_oracle(pixels, cfg)
        for rows in range(1, shape[0] + 1):
            block_heights(monkeypatch, rows)
            assert np.array_equal(unsharp_mask(Image(pixels), cfg).pixels, want), rows


class TestSharpenTable:
    # at 0.7, 1.1 and 2.3 some detail * amount + 0.5 lands within 1e-9 of an integer
    @pytest.mark.parametrize("amount", [0.05, 0.3, 0.7, 0.8, 1, 1.1, 1.9, 2.3, 3.0])
    @pytest.mark.parametrize("threshold", [0, 1, 6, 40, 255])
    def test_every_entry_matches_the_float_expression(self, amount, threshold):
        blur, src = np.divmod(np.arange(256 * 256), 256)
        detail = src - blur
        boosted = np.clip(np.floor(src + amount * detail + 0.5), 0, 255)
        want = np.where(np.abs(detail) > threshold, boosted, src)
        table = _sharpen_table(amount, threshold)
        assert table.dtype == np.uint8
        assert np.array_equal(table, want)

    def test_is_built_once_per_amount_and_threshold(self):
        assert _sharpen_table(0.8, 0) is _sharpen_table(0.8, 0)
        assert not _sharpen_table(0.8, 0).flags.writeable

    def test_an_amount_near_the_float_maximum_clips_without_a_warning(self):
        # detail * 1e308 overflows to +-inf; any amount from 256 on sends every detail to 0 or 255
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_sharpen_table(1e308, 0), _sharpen_table(256.0, 0))


# ---------------------------------------------------------------- closing

class TestMorphClose:
    def test_extensive_and_idempotent(self, rng):
        for _ in range(20):
            img = GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
            for orientation in ORIENTATIONS:
                closed = morph_close_line(img, 5, orientation)
                assert (closed.pixels >= img.pixels).all()
                assert morph_close_line(closed, 5, orientation) == closed

    def test_matches_ndimage_on_every_side_up_to_12(self, rng):
        # every side from 1 to 12 px at length 11 includes SEs longer than the image
        cases = [((12, 12), 7)] * 6 + [
            ((h, w), 11) for h in range(1, 13) for w in range(1, 13)
        ]
        for shape, length in cases:
            img = GrayImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
            for orientation in ORIENTATIONS:
                got = morph_close_line(img, length, orientation).pixels
                want = closing_ndimage_oracle(img.pixels, length, orientation)
                assert np.array_equal(got, want), (shape, length, orientation)

    @pytest.mark.parametrize("length", range(3, 22, 2))
    def test_matches_ndimage_at_every_length(self, rng, length):
        # the smaller shapes are shorter than most SEs in one or both sides
        for shape in [(1, 1), (1, 14), (14, 1), (5, 8), (12, 12), (40, 33)]:
            values = rng.integers(0, 256, size=shape, dtype=np.uint8)
            for orientation in ORIENTATIONS:
                got = morph_close_line(GrayImage(values), length, orientation).pixels
                assert np.array_equal(got, closing_ndimage_oracle(values, length, orientation))

    @settings(deadline=None)
    @given(u8_arrays(3), st.integers(1, 10), st.sampled_from(ORIENTATIONS))
    def test_closes_each_plane_as_ndimage_does(self, pixels, half, orientation):
        planes = np.moveaxis(pixels, -1, 0)
        got = _close(planes, 2 * half + 1, orientation)
        for plane, closed in zip(planes, got):
            assert np.array_equal(closed, closing_ndimage_oracle(plane, 2 * half + 1, orientation))

    def test_removes_thin_dark_line(self):
        arr = np.full((32, 32), 200, np.uint8)
        arr[16, :] = 30
        closed = morph_close_line(GrayImage(arr), 11, 90)  # vertical SE
        assert (closed.pixels[16, :] == 200).all()


# ---------------------------------------------------------------- detection

class TestDetectHairMask:
    def test_uniform_image_empty(self):
        img = Image(np.full((20, 20, 3), 140, np.uint8))
        assert detect_hair_mask(img).count() == 0

    def test_drawn_hairs_recall(self):
        arr = np.full((224, 224, 3), 180, np.uint8)
        drawn = np.zeros((224, 224), bool)
        segments = [
            ((30, 20), (30, 120)),    # horizontal
            ((60, 40), (160, 40)),    # vertical
            ((80, 80), (140, 140)),   # diagonal
            ((170, 30), (170, 190)),
            ((20, 150), (120, 150)),
        ]
        for (y0, x0), (y1, x1) in segments:
            n = max(abs(y1 - y0), abs(x1 - x0))
            for t in range(n + 1):
                y = y0 + (y1 - y0) * t // n
                x = x0 + (x1 - x0) * t // n
                arr[y : y + 2, x : x + 2] = 30  # 2 px wide strokes
                drawn[y : y + 2, x : x + 2] = True
        mask = detect_hair_mask(Image(arr))
        recall = (mask.bits & drawn).sum() / drawn.sum()
        assert recall >= 0.90

    def test_large_disk_interior_not_masked(self):
        yy, xx = np.mgrid[0:128, 0:128]
        disk = np.hypot(yy - 64, xx - 64) <= 30
        arr = np.where(disk, 40, 190).astype(np.uint8)
        img = Image(np.stack([arr] * 3, axis=-1))
        mask = detect_hair_mask(img)
        interior = np.hypot(yy - 64, xx - 64) <= 27
        assert not (mask.bits & interior).any()

    @settings(deadline=None)
    @given(u8_arrays(3), se_lengths, st.integers(0, 30))
    def test_matches_per_channel_closing_oracle(self, pixels, se_length, threshold):
        cfg = PreprocessConfig(se_length=se_length, hair_threshold=threshold)
        got = detect_hair_mask(Image(pixels), cfg).bits
        assert np.array_equal(got, detect_oracle(pixels, cfg))


# ---------------------------------------------------------------- cleaning

class TestCleanMask:
    def test_empty_stays_empty(self):
        mask = HairMask(np.zeros((20, 20), bool))
        assert clean_mask(mask).count() == 0

    def test_isolated_pixels_removed(self):
        bits = np.zeros((30, 30), bool)
        bits[5, 5] = bits[20, 7] = bits[11, 23] = True
        assert clean_mask(HairMask(bits)).count() == 0

    def test_straight_full_bbox_line_removed(self):
        # 1x40 line: span 40 but thinness 40/40 = 1.0 > 0.5
        bits = np.zeros((10, 50), bool)
        bits[4, 5:45] = True
        assert clean_mask(HairMask(bits)).count() == 0

    def test_diagonal_hair_kept_and_dilated(self):
        bits = np.zeros((50, 50), bool)
        for i in range(40):
            bits[5 + i, 5 + i] = True  # thinness 40/1600
        cleaned = clean_mask(HairMask(bits))
        assert (cleaned.bits & bits).sum() == 40
        assert cleaned.count() > 40  # one-pixel dilation grew it

    @settings(deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.floats(0.05, 0.8), st.integers(0, 2**32 - 1),
        st.integers(1, 20), st.sampled_from([0.25, 1 / 3, 0.5, 0.75, 1.0]) | st.floats(0.01, 1.0),
    )
    def test_matches_ndimage_oracle(self, h, w, density, seed, span, thinness):
        # the sampled thinness bounds equal the area ratios of small boxes,
        # so the <= test meets its boundary
        bits = np.random.default_rng(seed).random((h, w)) < density
        cfg = PreprocessConfig(min_component_span=span, max_thinness=thinness)
        got = clean_mask(HairMask(bits), cfg).bits
        assert np.array_equal(got, clean_mask_ndimage_oracle(bits, cfg))


# ---------------------------------------------------------------- inpaint

class TestInpaintHair:
    def test_empty_mask_identity(self, rng):
        img = Image(rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8))
        mask = HairMask(np.zeros((10, 10), bool))
        assert inpaint_hair(img, mask) == img

    def test_uniform_background_restored_exactly(self):
        img = Image(np.full((20, 20, 3), 180, np.uint8))
        bits = np.zeros((20, 20), bool)
        bits[9:11, 3:17] = True
        out = inpaint_hair(img, HairMask(bits))
        assert (out.pixels == 180).all()

    def test_gradient_restored_within_one(self):
        cols = np.arange(64, dtype=np.uint8) + 50
        arr = np.tile(cols, (32, 1))
        img = Image(np.stack([arr] * 3, axis=-1))
        bits = np.zeros((32, 64), bool)
        bits[:, 30:33] = True  # vertical stripe, 3 px wide
        out = inpaint_hair(img, HairMask(bits))
        expected = img.pixels[:, 30:33, :].astype(int)
        got = out.pixels[:, 30:33, :].astype(int)
        assert np.abs(got - expected).max() <= 1

    def test_never_touches_unmasked(self, rng):
        img = Image(rng.integers(0, 256, size=(24, 24, 3), dtype=np.uint8))
        bits = rng.random((24, 24)) < 0.1
        out = inpaint_hair(img, HairMask(bits))
        assert np.array_equal(out.pixels[~bits], img.pixels[~bits])

    def test_dimension_mismatch(self):
        img = Image(np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(ValueError):
            inpaint_hair(img, HairMask(np.zeros((5, 5), bool)))

    def test_single_masked_pixel_without_sides_is_unchanged(self):
        img = Image(np.array([[[7, 8, 9]]], np.uint8))
        out = inpaint_hair(img, HairMask(np.ones((1, 1), bool)))
        assert out == img

    def test_single_row_interpolates_along_the_row(self):
        row = np.array([10, 0, 0, 0, 50], np.uint8)
        img = Image(np.stack([row[None, :]] * 3, axis=-1))
        bits = np.array([[False, True, True, True, False]])
        cfg = PreprocessConfig(interp_margin=1)
        out = inpaint_hair(img, HairMask(bits), cfg)
        assert out.pixels[0, :, 0].tolist() == [10, 20, 30, 40, 50]
        assert np.array_equal(out.pixels, inpaint_oracle(img.pixels, bits, cfg))

    @settings(max_examples=100, deadline=None)
    @given(masked_images(), st.integers(0, 5))
    def test_matches_scalar_oracle(self, case, margin):
        pixels, bits = case
        cfg = PreprocessConfig(interp_margin=margin)
        got = inpaint_hair(Image(pixels), HairMask(bits), cfg)
        assert np.array_equal(got.pixels, inpaint_oracle(pixels, bits, cfg))

    @settings(max_examples=100, deadline=None)
    @given(line_masked_images(), st.integers(0, 5))
    def test_matches_scalar_oracle_on_runs_into_the_border(self, case, margin):
        pixels, bits = case
        cfg = PreprocessConfig(interp_margin=margin)
        got = inpaint_hair(Image(pixels), HairMask(bits), cfg)
        assert np.array_equal(got.pixels, inpaint_oracle(pixels, bits, cfg))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 997), st.integers(1, 3), seeded_arrays((2, 3)))
    @example(997, 3, np.array([[0, 255, 1], [255, 0, 254]], np.uint8))
    def test_two_sided_mean_matches_the_float_form_up_to_distance_999(self, run, margin, ends):
        # one row: one side sample at each end, margin - 1 unmasked pixels,
        # then the run; a row has no other line with two sides
        width = run + 2 * margin
        pixels = np.zeros((1, width, 3), np.uint8)
        pixels[0, 0], pixels[0, -1] = ends
        bits = np.zeros((1, width), bool)
        bits[0, margin : margin + run] = True
        got = inpaint_hair(Image(pixels), HairMask(bits), PreprocessConfig(interp_margin=margin))
        x = np.arange(margin, margin + run)[:, None]
        want = float_two_sided_mean(ends[1], ends[0], width - 1 - x, x)
        assert np.array_equal(got.pixels[0, margin : margin + run], want)

    @pytest.mark.parametrize("run", range(1, 7))
    def test_two_sided_mean_matches_the_float_form_for_every_pair_of_samples(self, run):
        # every (left, right) pair of sample values, three to a segment, each
        # segment a [left, masked run, right] stretch of one row
        pairs = np.stack(np.meshgrid(np.arange(256), np.arange(256)), axis=-1).reshape(-1, 2)
        pairs = np.concatenate([pairs, pairs[:2]]).reshape(-1, 3, 2)
        left, right = pairs[..., 0], pairs[..., 1]
        segments = np.zeros((len(pairs), run + 2, 3), np.uint8)
        segments[:, 0], segments[:, -1] = left, right
        bits = np.zeros(segments.shape[:2], bool)
        bits[:, 1:-1] = True
        got = inpaint_hair(Image(segments.reshape(1, -1, 3)), HairMask(bits.reshape(1, -1)),
                           PreprocessConfig(interp_margin=1))
        x = np.arange(1, run + 1)[None, :, None]
        want = float_two_sided_mean(right[:, None], left[:, None], run + 1 - x, x)
        assert np.array_equal(got.pixels.reshape(segments.shape)[:, 1:-1], want)


# ---------------------------------------------------------------- smoothing

class TestSmoothInpainted:
    def test_empty_mask_identity(self, rng):
        img = Image(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        assert smooth_inpainted(img, HairMask(np.zeros((8, 8), bool))) == img

    def test_uniform_window(self):
        img = Image(np.full((9, 9, 3), 180, np.uint8))
        bits = np.zeros((9, 9), bool)
        bits[4, 4] = True
        assert smooth_inpainted(img, HairMask(bits)).pixels[4, 4, 0] == 180

    def test_majority_median(self):
        # 5x5 window with 12 zeros and 13 two-hundreds -> median 200
        arr = np.zeros((5, 5), np.uint8)
        arr.ravel()[12:] = 200
        img = Image(np.stack([arr] * 3, axis=-1))
        bits = np.zeros((5, 5), bool)
        bits[2, 2] = True
        out = smooth_inpainted(img, HairMask(bits))
        flat = np.sort(img.pixels[:, :, 0].ravel())
        assert flat[12] == 200  # sort-based oracle
        assert out.pixels[2, 2, 0] == 200

    def test_never_touches_unmasked(self, rng):
        img = Image(rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
        bits = rng.random((16, 16)) < 0.2
        out = smooth_inpainted(img, HairMask(bits))
        assert np.array_equal(out.pixels[~bits], img.pixels[~bits])

    def test_dimension_mismatch_names_both_sizes(self):
        img = Image(np.zeros((4, 6, 3), np.uint8))
        with pytest.raises(ValueError) as exc:
            smooth_inpainted(img, HairMask(np.zeros((5, 3), bool)))
        assert "3x5" in str(exc.value) and "6x4" in str(exc.value)

    def test_single_masked_pixel_is_its_own_median(self):
        img = Image(np.array([[[7, 8, 9]]], np.uint8))
        assert smooth_inpainted(img, HairMask(np.ones((1, 1), bool))) == img

    def test_single_row_takes_the_lower_median_of_the_clipped_window(self):
        row = np.array([10, 40, 20, 30, 50], np.uint8)
        img = Image(np.stack([row[None, :]] * 3, axis=-1))
        bits = np.ones((1, 5), bool)
        out = smooth_inpainted(img, HairMask(bits), PreprocessConfig(median_window=3))
        # windows {10,40} {10,40,20} {40,20,30} {20,30,50} {30,50}
        assert out.pixels[0, :, 0].tolist() == [10, 20, 30, 30, 30]

    @settings(max_examples=100, deadline=None)
    @given(masked_images(), st.sampled_from([3, 5, 7]), st.one_of(st.none(), st.integers(1, 8)))
    @example((np.arange(12, dtype=np.uint8).reshape(1, 4, 3), np.ones((1, 4), bool)), 7, None)  # the covering window
    def test_matches_scalar_oracle(self, case, window, chunk_pixels):
        # chunk_pixels masked pixels per sorted chunk, or the module's budget
        pixels, bits = case
        cfg = PreprocessConfig(median_window=window)
        budget = preprocess._SMOOTH_BYTES if chunk_pixels is None else chunk_pixels * 3 * window * window * 2
        with mock.patch.object(preprocess, "_SMOOTH_BYTES", budget):
            got = smooth_inpainted(Image(pixels), HairMask(bits), cfg)
        assert np.array_equal(got.pixels, smooth_oracle(pixels, bits, cfg))


# ---------------------------------------------------------------- oversized windows

class TestOversizedValues:
    """An SE line or median window of 2 max(h, w) - 1 (at least 3) covers the
    image from any pixel, and a walk of max(h, w) leaves it; any larger value
    gives the same bytes as that covering value."""

    @settings(max_examples=60, deadline=None)
    @given(masked_images(16), st.integers(0, 10**21))
    @example((np.zeros((1, 1, 3), np.uint8), np.ones((1, 1), bool)), 10**20)
    def test_acts_as_the_covering_value(self, case, extra):
        pixels, bits = case
        image, mask = Image(pixels), HairMask(bits)
        side = max(bits.shape)
        window = max(3, 2 * side - 1)
        for stage, field, covering, oversized in [
            (lambda cfg: detect_hair_mask(image, cfg), "se_length", window, window + 2 * extra),
            (lambda cfg: inpaint_hair(image, mask, cfg), "interp_margin", side, side + extra),
            (lambda cfg: smooth_inpainted(image, mask, cfg), "median_window", window, window + 2 * extra),
        ]:
            want = stage(PreprocessConfig(**{field: covering}))
            assert stage(PreprocessConfig(**{field: oversized})) == want, field


# ---------------------------------------------------------------- allocation

class TestAllocationBudget:
    """Per-image kernels allocate in proportion to their work, not in whole
    float64 frames per step; traced peaks on the 224x224 golden input."""

    def test_unsharp_mask_holds_less_than_one_padded_float64_frame(self):
        img = golden_image("hairy")
        unsharp_mask(img)  # the sharpen table is built once per process, outside the trace
        r = math.ceil(3 * PreprocessConfig().sharpen_sigma)
        padded = (img.height + 2 * r) * (img.width + 2 * r) * 3 * 8
        assert traced_peak(lambda: unsharp_mask(img)) < padded

    def test_inpaint_of_a_small_mask_holds_three_uint8_frames(self):
        img = golden_image("hairy")
        bits = np.zeros((img.height, img.width), bool)
        bits[np.arange(100, 120), np.arange(40, 60)] = True  # a 20 px diagonal stroke
        mask = HairMask(bits)
        assert traced_peak(lambda: inpaint_hair(img, mask)) <= 3 * img.pixels.nbytes

    def test_default_smoothing_of_a_masked_224_frame_is_one_chunk(self):
        assert 224 * 224 * 3 * PreprocessConfig().median_window ** 2 * 2 <= preprocess._SMOOTH_BYTES

    def test_smoothing_at_a_large_window_holds_the_budget_and_image_sized_arrays(self, rng):
        # every pixel of a 64x64 image masked, 41x41 windows: 41 MB of int16
        # windows if gathered at once
        img = Image(rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8))
        mask = HairMask(np.ones((64, 64), bool))
        cfg = PreprocessConfig(median_window=41)
        frames = 16 * img.height * img.width * 8  # the padded int16 image, coordinates and ranks as int64
        assert traced_peak(lambda: smooth_inpainted(img, mask, cfg)) <= preprocess._SMOOTH_BYTES + frames


# ---------------------------------------------------------------- pipeline

class TestPipeline:
    def test_uniform_image_identity(self):
        img = Image(np.full((32, 32, 3), 120, np.uint8))
        out, mask = preprocess_pipeline(img)
        assert out == img
        assert mask.count() == 0

    def test_improves_psnr_on_synthetic_hair(self):
        from lesionprep.quality import quality_row

        hairy, clean, _ = hairy_scene(42)
        out, _ = preprocess_pipeline(hairy)
        before = quality_row("before", clean, hairy).psnr
        assert quality_row("after", clean, out).psnr > before

    def test_near_idempotent_on_synthetic(self):
        changed = total = 0
        for index in (3, 7, 42):
            hairy, _, _ = hairy_scene(index)
            once, _ = preprocess_pipeline(hairy)
            twice, _ = preprocess_pipeline(once)
            diff = np.abs(twice.pixels.astype(int) - once.pixels.astype(int)).max(axis=2)
            changed += (diff > 2).sum()
            total += diff.size
        assert changed / total < 0.01

    def test_mask_recall_and_precision_on_corpus(self):
        tp = fp = fn = 0
        for index in range(10):
            hairy, _, truth = hairy_scene(index)
            _, mask = preprocess_pipeline(hairy)
            tp += (mask.bits & truth).sum()
            fp += (mask.bits & ~truth).sum()
            fn += (~mask.bits & truth).sum()
        assert tp / (tp + fn) >= 0.90
        assert tp / (tp + fp) >= 0.60

    def test_disabling_stages(self):
        hairy, _, _ = hairy_scene(3)
        cfg = PreprocessConfig(sharpen_amount=0, hair_removal_enabled=False)
        out, mask = preprocess_pipeline(hairy, cfg)
        assert out == hairy
        assert mask.count() == 0


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(se_length=10)
    with pytest.raises(ValueError):
        PreprocessConfig(median_window=1)
    with pytest.raises(ValueError):
        PreprocessConfig(max_thinness=0.0)
    with pytest.raises(ValueError):
        PreprocessConfig(sharpen_sigma=-1.0)


@pytest.mark.parametrize("sigma", [1e-300, 7e-163, 0.0, -1.0])
def test_config_refuses_a_sigma_whose_kernel_divisor_is_0(sigma):
    # each tap divides by 2 * sigma**2, which underflows to 0 below about 1.11e-162
    message = f"sharpen_sigma must be > 0 with 2 * sharpen_sigma**2 > 0, got {sigma}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PreprocessConfig(sharpen_sigma=sigma)


def test_the_smallest_sigmas_blur_to_the_image_itself(rng):
    img = Image(rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8))
    for sigma in (1.5e-162, 1e-161):
        assert unsharp_mask(img, PreprocessConfig(sharpen_sigma=sigma)) == img


@pytest.mark.parametrize("field, message", [("sharpen_sigma", "must be finite"),
                                            ("sharpen_amount", "must be finite"),
                                            ("max_thinness", r"must be in \(0, 1\]")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_refuses_non_finite_floats(field, message, value):
    with pytest.raises(ValueError, match=rf"^{field} {message}, got {value}$"):
        PreprocessConfig(**{field: value})


def test_hair_mask_equality_compares_bits():
    bits = np.zeros((4, 5), bool)
    bits[1, 2] = True
    mask = HairMask(bits)
    assert mask == HairMask(bits.copy())
    assert mask != HairMask(np.zeros((4, 5), bool))
    assert mask != HairMask(np.zeros((5, 4), bool))
    assert mask != bits

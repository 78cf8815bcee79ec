import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lesionprep.preprocess import (
    ORIENTATIONS,
    HairMask,
    PreprocessConfig,
    _blur_float,
    _gaussian_kernel,
    _round_u8,
    clean_mask,
    detect_hair_mask,
    gaussian_blur,
    inpaint_hair,
    morph_close_line,
    preprocess_pipeline,
    smooth_inpainted,
    unsharp_mask,
)
from lesionprep.raster import GrayImage, Image

from synthetic import generate_sample

_DIRS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (1, 1)}


# ---------------------------------------------------------------- oracles

def blur_oracle(values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian of a 2-D array: edge padding, then one 1-D
    convolution per row and per column."""
    k = _gaussian_kernel(sigma)
    r = len(k) // 2
    padded = np.pad(values.astype(np.float64), r, mode="edge")
    rows = np.apply_along_axis(np.convolve, 1, padded, k, mode="valid")
    return np.apply_along_axis(np.convolve, 0, rows, k, mode="valid")


def unsharp_oracle(pixels: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Unsharp mask one channel at a time."""
    src = pixels.astype(np.int32)
    out = src.copy()
    for c in range(3):
        channel = src[:, :, c]
        blurred = _round_u8(blur_oracle(channel, config.sharpen_sigma)).astype(np.int32)
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


def detect_oracle(pixels: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """OR of the per-channel, per-orientation closing residues."""
    mask = np.zeros(pixels.shape[:2], dtype=bool)
    for c in range(3):
        plane = pixels[:, :, c]
        for orientation in ORIENTATIONS:
            closed = closing_oracle(plane, config.se_length, orientation)
            mask |= closed.astype(int) - plane > config.hair_threshold
    return mask


def u8_arrays(*trailing):
    """uint8 arrays whose two leading sides are 1-40 px."""
    sides = st.tuples(st.integers(1, 40), st.integers(1, 40))
    return sides.flatmap(lambda hw: hnp.arrays(np.uint8, hw + trailing))


sigmas = st.floats(0.3, 3.0)
se_lengths = st.sampled_from([3, 5, 7, 11])


def label_components_oracle(bits: np.ndarray):
    """8-connected component list via BFS: (area, bbox_h, bbox_w) each."""
    h, w = bits.shape
    seen = np.zeros_like(bits)
    comps = []
    for sy in range(h):
        for sx in range(w):
            if not bits[sy, sx] or seen[sy, sx]:
                continue
            stack = [(sy, sx)]
            seen[sy, sx] = True
            ys, xs = [], []
            while stack:
                y, x = stack.pop()
                ys.append(y)
                xs.append(x)
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and bits[yy, xx] and not seen[yy, xx]:
                            seen[yy, xx] = True
                            stack.append((yy, xx))
            comps.append((len(ys), max(ys) - min(ys) + 1, max(xs) - min(xs) + 1))
    return comps


# ---------------------------------------------------------------- gaussian

class TestGaussianBlur:
    def test_uniform_is_fixed_point(self):
        img = GrayImage(np.full((16, 16), 100, np.uint8))
        for sigma in (0.5, 1.0, 2.5):
            assert gaussian_blur(img, sigma) == img

    def test_impulse_center_weight(self):
        # hand-computed truncated normalized kernel, sigma 1 -> half-width 3
        k = np.exp(-np.arange(-3, 4) ** 2 / 2.0)
        k /= k.sum()
        arr = np.zeros((15, 15), np.uint8)
        arr[7, 7] = 255
        blurred = gaussian_blur(GrayImage(arr), 1.0)
        assert blurred.values[7, 7] == int(math.floor(255 * k[3] * k[3] + 0.5))

    def test_semigroup_approximation(self, rng):
        # replicate borders break the semigroup identity near the edge, so the
        # comparison excludes a margin of the larger kernel's radius
        margin = math.ceil(3 * 1.2 * math.sqrt(2))
        for _ in range(5):
            img = GrayImage(rng.integers(0, 256, size=(24, 24), dtype=np.uint8))
            twice = gaussian_blur(gaussian_blur(img, 1.2), 1.2).values.astype(int)
            once = gaussian_blur(img, 1.2 * math.sqrt(2)).values.astype(int)
            dev = np.abs(twice - once)[margin:-margin, margin:-margin].max()
            assert dev <= 2

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_blur(GrayImage(np.zeros((4, 4), np.uint8)), 0.0)

    @settings(deadline=None)
    @given(u8_arrays(), sigmas)
    def test_matches_padded_convolution_oracle(self, values, sigma):
        got = _round_u8(_blur_float(values, sigma))
        assert np.array_equal(got, _round_u8(blur_oracle(values, sigma)))


# ---------------------------------------------------------------- unsharp

class TestUnsharpMask:
    def test_zero_amount_is_identity(self, rng):
        img = Image(rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8))
        cfg = PreprocessConfig(sharpen_amount=0.0)
        assert unsharp_mask(img, cfg) == img

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


# ---------------------------------------------------------------- closing

class TestMorphClose:
    def test_extensive_and_idempotent(self, rng):
        for _ in range(20):
            img = GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
            for orientation in ORIENTATIONS:
                closed = morph_close_line(img, 5, orientation)
                assert (closed.values >= img.values).all()
                assert morph_close_line(closed, 5, orientation) == closed

    def test_matches_brute_force_oracle(self, rng):
        # every side from 1 to 12 px at length 11 includes SEs longer than the image
        cases = [((12, 12), 7)] * 6 + [
            ((h, w), 11) for h in range(1, 13) for w in range(1, 13)
        ]
        for shape, length in cases:
            img = GrayImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
            for orientation in ORIENTATIONS:
                got = morph_close_line(img, length, orientation).values
                want = closing_oracle(img.values, length, orientation)
                assert np.array_equal(got, want), (shape, length, orientation)

    def test_removes_thin_dark_line(self):
        arr = np.full((32, 32), 200, np.uint8)
        arr[16, :] = 30
        closed = morph_close_line(GrayImage(arr), 11, 90)  # vertical SE
        assert (closed.values[16, :] == 200).all()

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            morph_close_line(GrayImage(np.zeros((4, 4), np.uint8)), 4, 0)


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

    def test_agrees_with_bfs_oracle(self, rng):
        cfg = PreprocessConfig(min_component_span=4, max_thinness=0.5)
        for _ in range(10):
            bits = rng.random((24, 24)) < 0.15
            comps = label_components_oracle(bits)
            expect_any_kept = any(
                max(bh, bw) >= 4 and area / (bh * bw) <= 0.5
                for area, bh, bw in comps
            )
            assert (clean_mask(HairMask(bits), cfg).count() > 0) == expect_any_kept


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


# ---------------------------------------------------------------- pipeline

class TestPipeline:
    def test_uniform_image_identity(self):
        img = Image(np.full((32, 32, 3), 120, np.uint8))
        out, mask = preprocess_pipeline(img)
        assert out == img
        assert mask.count() == 0

    def test_improves_psnr_on_synthetic_hair(self):
        from lesionprep.quality import psnr

        sample = generate_sample(seed=42)
        out, _ = preprocess_pipeline(sample.hairy)
        assert psnr(sample.clean, out) > psnr(sample.clean, sample.hairy)

    def test_near_idempotent_on_synthetic(self):
        changed = total = 0
        for seed in (3, 7, 42):
            sample = generate_sample(seed)
            once, _ = preprocess_pipeline(sample.hairy)
            twice, _ = preprocess_pipeline(once)
            diff = np.abs(twice.pixels.astype(int) - once.pixels.astype(int)).max(axis=2)
            changed += (diff > 2).sum()
            total += diff.size
        assert changed / total < 0.01

    def test_mask_recall_and_precision_on_corpus(self):
        tp = fp = fn = 0
        for seed in range(10):
            sample = generate_sample(seed)
            _, mask = preprocess_pipeline(sample.hairy)
            truth = sample.hair_mask
            tp += (mask.bits & truth).sum()
            fp += (mask.bits & ~truth).sum()
            fn += (~mask.bits & truth).sum()
        assert tp / (tp + fn) >= 0.90
        assert tp / (tp + fp) >= 0.60

    def test_disabling_stages(self):
        sample = generate_sample(seed=3)
        cfg = PreprocessConfig(sharpen_enabled=False, hair_removal_enabled=False)
        out, mask = preprocess_pipeline(sample.hairy, cfg)
        assert out == sample.hairy
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

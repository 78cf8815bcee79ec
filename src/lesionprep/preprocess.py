"""Lesion image refinement: unsharp-mask sharpening followed by DullRazor-style
hair removal (detect via oriented grayscale closings, inpaint along the short
axis of each hair, median-smooth the replaced region).

All stages are pure functions on immutable rasters; every parameter lives in
PreprocessConfig so stages can be re-run or ablated deterministically. The
filters work on whole arrays: the blur and the sharpen treat all three
channels in one pass, and detection closes the three channel planes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .raster import GrayImage, Image

# Line structuring-element orientations, degrees. 0 is horizontal, 45 runs
# up-right, 90 vertical, 135 down-right (y grows downward).
ORIENTATIONS = (0, 45, 90, 135)

_DIRECTIONS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (1, 1)}


@dataclass(frozen=True)
class HairMask:
    """Boolean per-pixel hair mask, same dimensions as its source image."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.dtype != np.bool_:
            raise ValueError(f"expected 2-D boolean array, got {b.dtype} {b.shape}")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class PreprocessConfig:
    sharpen_sigma: float = 1.0       # Gaussian sigma of the unsharp blur, px
    sharpen_amount: float = 0.8      # detail gain; 0 disables sharpening
    sharpen_threshold: int = 0       # min |detail| (gray levels) to sharpen
    se_length: int = 11              # line SE length for closings, odd px
    hair_threshold: int = 10         # closing residue that counts as hair
    min_component_span: int = 15     # min bbox side of a kept component, px
    max_thinness: float = 0.5        # max area / bbox_area of a kept component
    interp_margin: int = 2           # sampling offset beyond each hair run end
    median_window: int = 5           # smoothing window, odd px
    sharpen_enabled: bool = True
    hair_removal_enabled: bool = True

    def __post_init__(self):
        if self.sharpen_sigma <= 0:
            raise ValueError("sharpen_sigma must be > 0")
        if self.sharpen_amount < 0 or self.sharpen_threshold < 0:
            raise ValueError("sharpen amount/threshold must be >= 0")
        for name in ("se_length", "median_window"):
            v = getattr(self, name)
            if v < 3 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3")
        if self.hair_threshold < 0 or self.interp_margin < 0:
            raise ValueError("hair_threshold and interp_margin must be >= 0")
        if self.min_component_span < 1:
            raise ValueError("min_component_span must be >= 1")
        if not 0 < self.max_thinness <= 1:
            raise ValueError("max_thinness must be in (0, 1]")


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2 * sigma * sigma))
    return k / k.sum()


def _blur_float(values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian over the first two axes (rows, then columns),
    replicate borders; any trailing axes are filtered independently."""
    k = _gaussian_kernel(sigma)
    rows = ndimage.correlate1d(values.astype(np.float64), k, axis=1, mode="nearest")
    return ndimage.correlate1d(rows, k, axis=0, mode="nearest")


def _round_u8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def gaussian_blur(image: GrayImage, sigma: float) -> GrayImage:
    """Gaussian blur with kernel half-width ceil(3*sigma), replicate borders."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    return GrayImage(_round_u8(_blur_float(image.values, sigma)))


def unsharp_mask(image: Image, config: PreprocessConfig = PreprocessConfig()) -> Image:
    """Sharpen: out = in + amount * (in - blur(in)), where the detail signal
    exceeds the threshold; per channel, clamped to [0, 255]."""
    src = image.pixels.astype(np.int32)
    blurred = _round_u8(_blur_float(src, config.sharpen_sigma)).astype(np.int32)
    detail = src - blurred
    boosted = np.clip(np.floor(src + config.sharpen_amount * detail + 0.5), 0, 255)
    apply = np.abs(detail) > config.sharpen_threshold
    return Image(np.where(apply, boosted, src).astype(np.uint8))


def _line_offsets(length: int, orientation: int) -> list[tuple[int, int]]:
    if length < 3 or length % 2 == 0:
        raise ValueError("SE length must be odd and >= 3")
    if orientation not in _DIRECTIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    dy, dx = _DIRECTIONS[orientation]
    half = length // 2
    return [(d * dy, d * dx) for d in range(-half, half + 1)]


def _overlap(d: int, n: int) -> slice:
    """Indices i of an n-long axis whose neighbour i + d is also inside it."""
    return slice(max(-d, 0), n - max(d, 0))


def _close(values: np.ndarray, offsets) -> np.ndarray:
    """Flat grayscale closing over the last two axes: dilation (max), then
    erosion (min), with the SE clipped at borders.

    Out-of-image SE elements are skipped. Every SE holds the (0, 0) offset, so
    each reduction can start from its own input.
    """
    h, w = values.shape[-2:]
    inside = [(dy, dx) for dy, dx in offsets if abs(dy) < h and abs(dx) < w]
    out = values
    for reduce in (np.maximum, np.minimum):
        src, out = out, out.copy()
        for dy, dx in inside:
            dst = out[..., _overlap(dy, h), _overlap(dx, w)]
            reduce(dst, src[..., _overlap(-dy, h), _overlap(-dx, w)], out=dst)
    return out


def morph_close_line(image: GrayImage, length: int, orientation: int) -> GrayImage:
    """Grayscale closing (dilate then erode) with a line SE at the given
    orientation; the SE is clipped to the image at borders."""
    return GrayImage(_close(image.values, _line_offsets(length, orientation)))


def detect_hair_mask(image: Image, config: PreprocessConfig = PreprocessConfig()) -> HairMask:
    """Mark pixels whose closing residue exceeds the hair threshold in any
    color channel at any orientation. Closings fill dark structures thinner
    than the SE, so the residue lights up exactly on hair-like strokes."""
    planes = np.ascontiguousarray(np.moveaxis(image.pixels, -1, 0))  # (3, h, w)
    mask = np.zeros(planes.shape[1:], dtype=bool)
    for orientation in ORIENTATIONS:
        closed = _close(planes, _line_offsets(config.se_length, orientation))
        # a closing never darkens a pixel, so the uint8 residue cannot wrap
        mask |= ((closed - planes) > config.hair_threshold).any(axis=0)
    return HairMask(mask)


def clean_mask(mask: HairMask, config: PreprocessConfig = PreprocessConfig()) -> HairMask:
    """Keep only long, thin 8-connected components (hair candidates), then
    dilate the survivors by one pixel so inpainting covers hair fringes."""
    labels, n = ndimage.label(mask.bits, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return HairMask(np.zeros_like(mask.bits))
    keep = np.zeros(n + 1, dtype=bool)
    slices = ndimage.find_objects(labels)
    areas = np.bincount(labels.ravel(), minlength=n + 1)
    for i, sl in enumerate(slices, start=1):
        bh = sl[0].stop - sl[0].start
        bw = sl[1].stop - sl[1].start
        span = max(bh, bw)
        thinness = areas[i] / (bh * bw)
        keep[i] = span >= config.min_component_span and thinness <= config.max_thinness
    kept = keep[labels]
    dilated = ndimage.binary_dilation(kept, structure=np.ones((3, 3), dtype=bool))
    return HairMask(dilated)


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


def inpaint_hair(image: Image, mask: HairMask, config: PreprocessConfig = PreprocessConfig()) -> Image:
    """Replace each masked pixel by interpolating across its hair along the
    orientation where the masked run through it is shortest.

    Endpoint samples sit interp_margin pixels beyond the run ends (walking
    further if still masked); when one side leaves the image the other side's
    value is copied. Unmasked pixels are returned untouched.
    """
    if (mask.height, mask.width) != (image.height, image.width):
        raise ValueError(
            f"mask {mask.width}x{mask.height} does not match image "
            f"{image.width}x{image.height}"
        )
    bits = mask.bits
    src = image.pixels
    out = src.copy()
    margin = max(config.interp_margin, 1)
    for y, x in np.argwhere(bits):
        best = None
        for orientation in ORIENTATIONS:
            dy, dx = _DIRECTIONS[orientation]
            fwd, bwd = _run_extent(bits, y, x, dy, dx)
            side_a = _sample_outward(bits, y, x, dy, dx, fwd + margin)
            side_b = _sample_outward(bits, y, x, -dy, -dx, bwd + margin)
            n_sides = (side_a is not None) + (side_b is not None)
            # orientations that allow two-sided interpolation win over
            # one-sided ones; among equals the shortest masked run wins
            key = (-n_sides, fwd + bwd + 1)
            if best is None or key < best[0]:
                best = (key, side_a, side_b)
        _, side_a, side_b = best
        if side_a is None and side_b is None:
            continue  # every line through the pixel is masked to the border
        if side_a is None or side_b is None:
            sy, sx, _ = side_a if side_b is None else side_b
            out[y, x] = src[sy, sx]
            continue
        ya, xa, da = side_a
        yb, xb, db = side_b
        va = src[ya, xa].astype(np.float64)
        vb = src[yb, xb].astype(np.float64)
        out[y, x] = np.floor((db * va + da * vb) / (da + db) + 0.5).astype(np.uint8)
    return Image(out)


def _lower_median(window: np.ndarray) -> np.ndarray:
    """Per-channel lower median: sorted element at index (n-1)//2.

    Integer-valued for any window size, so border-clipped even-count windows
    stay deterministic.
    """
    flat = window.reshape(-1, window.shape[-1])
    ordered = np.sort(flat, axis=0)
    return ordered[(flat.shape[0] - 1) // 2]


def smooth_inpainted(image: Image, mask: HairMask, config: PreprocessConfig = PreprocessConfig()) -> Image:
    """Median-filter the masked region only; the window clips at borders."""
    if (mask.height, mask.width) != (image.height, image.width):
        raise ValueError("mask dimensions do not match image")
    half = config.median_window // 2
    src = image.pixels
    out = src.copy()
    h, w = mask.bits.shape
    for y, x in np.argwhere(mask.bits):
        window = src[max(y - half, 0) : min(y + half + 1, h),
                     max(x - half, 0) : min(x + half + 1, w)]
        out[y, x] = _lower_median(window)
    return Image(out)


def preprocess_pipeline(
    image: Image, config: PreprocessConfig = PreprocessConfig()
) -> tuple[Image, HairMask]:
    """Sharpen, detect and clean the hair mask, inpaint, smooth.

    Returns the refined image and the cleaned mask. Either stage can be
    disabled through the config for ablation runs.
    """
    sharpened = unsharp_mask(image, config) if config.sharpen_enabled else image
    if not config.hair_removal_enabled:
        empty = HairMask(np.zeros((image.height, image.width), dtype=bool))
        return sharpened, empty
    mask = clean_mask(detect_hair_mask(sharpened, config), config)
    inpainted = inpaint_hair(sharpened, mask, config)
    return smooth_inpainted(inpainted, mask, config), mask

"""Lesion image refinement: unsharp-mask sharpening followed by DullRazor-style
hair removal (detect via oriented grayscale closings, inpaint along the short
axis of each hair, median-smooth the replaced region).

All stages are pure functions on immutable rasters; every parameter lives in
PreprocessConfig so stages can be re-run or ablated deterministically. Each
stage is whole-array numpy: sharpening blurs cache-sized blocks of rows in
three float64 buffers and looks each output up in a table; detection closes
all channel planes with doubling windows; cleaning labels 8-connected
components by a union-find over all mask edges; inpainting sorts the masked
pixels along each orientation in arrays the size of the mask and searches
past each run by bisection; smoothing sorts all masked windows in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .raster import Image

# Line structuring-element orientations, degrees. 0 is horizontal, 45 runs
# up-right, 90 vertical, 135 down-right (y grows downward).
ORIENTATIONS = (0, 45, 90, 135)

_DIRECTIONS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (1, 1)}


@dataclass(frozen=True, eq=False)
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

    def count(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other):
        return isinstance(other, HairMask) and np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class PreprocessConfig:
    sharpen_sigma: float = 1.0       # Gaussian sigma of the unsharp blur, px
    sharpen_amount: float = 0.8      # detail gain; 0 disables sharpening
    sharpen_threshold: int = 0       # min |detail| (gray levels) to sharpen
    se_length: int = 11              # line SE length for closings, odd px
    hair_threshold: int = 10         # closing residue that counts as hair
    min_component_span: int = 15     # min bbox side of a kept component, px
    max_thinness: float = 0.5        # max area / bbox_area of a kept component
    interp_margin: int = 2           # sampling offset beyond each hair run end, px; 0 acts as 1
    median_window: int = 5           # smoothing window, odd px
    hair_removal_enabled: bool = True

    def __post_init__(self):
        for name in ("sharpen_sigma", "sharpen_amount"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sharpen_sigma <= 0 or 2 * self.sharpen_sigma * self.sharpen_sigma == 0:  # each tap divides by it
            raise ValueError(f"sharpen_sigma must be > 0 with 2 * sharpen_sigma**2 > 0, got {self.sharpen_sigma}")
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
            raise ValueError(f"max_thinness must be in (0, 1], got {self.max_thinness}")


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """Gaussian taps out to 3 sigma, normalised to sum to 1. Each tap is one
    ``math.exp``, as in the probe, so the taps do not depend on which SIMD
    kernels numpy's ``np.exp`` dispatches to, and they are divided by their
    correctly rounded ``math.fsum``, not by numpy's pairwise float sum."""
    radius = math.ceil(3 * sigma)
    k = np.array([math.exp(-(x * x) / (2 * sigma * sigma)) for x in range(-radius, radius + 1)])
    return k / math.fsum(k)


_BLOCK_FLOATS = 15_000  # float64 elements per buffer of a row block; below glibc's 128 KiB mmap threshold
_MIN_BLOCK_ROWS = 8  # bounds the share of halo rows on wide images


def _correlate_flat(x: np.ndarray, k: np.ndarray, step: int, out: np.ndarray, pair: np.ndarray) -> None:
    """Set ``out[p]`` to the symmetric kernel ``k`` correlated with the flat
    ``x`` around ``x[p + r * step]``, r = len(k) // 2, taps ``step`` apart,
    with ``pair`` as work space. Taps add as scipy.ndimage.correlate1d adds them,
    centre first, then mirrored pairs from the outermost in: bit for bit."""
    r, n = len(k) // 2, len(out)
    tmp = pair[:n]
    np.multiply(x[r * step:r * step + n], k[r], out=out)
    for j in range(r, 0, -1):
        np.add(x[(r - j) * step:(r - j) * step + n], x[(r + j) * step:(r + j) * step + n], out=tmp)
        tmp *= k[r - j]
        out += tmp


def _blur_blocks(values: np.ndarray, sigma: float):
    """Yield ``(y, blur)`` per block of rows: ``blur``, a view that the next
    block overwrites, is the float64 separable Gaussian (rows, then columns,
    replicate borders; trailing axes apart) of ``values[y:y + len(blur)]``.
    In a flat block of padded rows a step along a row is ``col`` elements
    and a step down a column ``row``; sums that wrap past a row end land in
    padding columns. The row pass of the 2r halo rows carries over to the
    next block; the column pass writes into the block, which it no longer
    needs. The three buffers are allocated once per call."""
    k = _gaussian_kernel(sigma)
    r = len(k) // 2
    h, w = values.shape[:2]
    edge = ((r, r), (r, r)) + ((0, 0),) * (values.ndim - 2)
    padded = np.pad(values, edge, mode="edge").reshape(-1)
    col = math.prod(values.shape[2:])
    row = (w + 2 * r) * col
    n = min(h, max(_MIN_BLOCK_ROWS, _BLOCK_FLOATS // row - 2 * r))
    block, rows, pair = (np.empty((n + 2 * r) * row) for _ in range(3))
    for y in range(0, h, n):
        m = min(n, h - y)
        keep = 2 * r * row if y else 0
        rows[:keep] = rows[n * row:n * row + keep]
        need = (m + 2 * r) * row
        x = block[:need - keep]
        x[:] = padded[y * row + keep:y * row + need]
        # the row pass skips the last 2r pixels, which only padding columns read
        covered = keep + len(x) - 2 * r * col
        rows[covered:need] = 0
        _correlate_flat(x, k, col, rows[keep:covered], pair)
        _correlate_flat(rows, k, row, out := block[:m * row], pair)
        yield y, out.reshape((m, w + 2 * r) + values.shape[2:])[:, :w]


@functools.lru_cache(maxsize=8)
def _sharpen_table(amount: float, threshold: float) -> np.ndarray:
    """The output for a source value and its blur rounded to 8 bits, at
    ``blur * 256 + source``: ``floor(detail * amount + source + 0.5)`` in
    float64, clipped to [0, 255], where |detail| = |source - blur| exceeds
    the threshold, else the source value."""
    src = np.tile(np.arange(256.0), 256)
    detail = src - np.repeat(np.arange(256.0), 256)
    with np.errstate(over="ignore"):  # an amount near the float maximum gives +-inf, which clips
        boosted = np.clip(np.floor(detail * amount + src + 0.5), 0, 255)
    table = np.where(np.abs(detail) > threshold, boosted, src).astype(np.uint8)
    table.setflags(write=False)
    return table


def unsharp_mask(image: Image, config: PreprocessConfig = PreprocessConfig()) -> Image:
    """Sharpen: out = in + amount * (in - blur(in)), where the detail signal
    exceeds the threshold; per channel, clamped to [0, 255]. An amount of 0
    returns the image without blurring it. A blur radius ceil(3 sigma) beyond
    both the image's larger side and 224 px, the side of the paper's images,
    is refused before any tap is built: such a kernel only repeats edge
    pixels, while the blur's buffers grow with the square of its radius.
    Block by block, the blur is rounded to 8 bits and each output value
    looked up in ``_sharpen_table``.
    """
    if config.sharpen_amount == 0:
        return image
    if 3 * config.sharpen_sigma > (limit := max(image.height, image.width, 224)):
        raise ValueError(f"sharpen_sigma {config.sharpen_sigma} needs a blur radius over {limit} px")
    src = image.pixels
    table = _sharpen_table(config.sharpen_amount, config.sharpen_threshold)
    out = np.empty_like(src)
    for y, blur in _blur_blocks(src, config.sharpen_sigma):
        if y == 0:  # the first block is the tallest
            key = np.empty(blur.shape, dtype=np.intp)
        rows, k = slice(y, y + len(blur)), key[:len(blur)]
        # a weighted mean of values in [0, 255] rounds into [0, 255], and
        # truncating the positive blur + 0.5 floors it
        blur += 0.5
        np.copyto(k, blur, casting="unsafe")
        k <<= 8
        k += src[rows]
        np.take(table, k, out=out[rows], mode="clip")
    return Image(out)


def _close(values: np.ndarray, length: int, orientation: int) -> np.ndarray:
    """Flat grayscale closing over the last two axes with a line SE of odd
    ``length`` at ``orientation``, clipped at borders: dilation (max), then
    erosion (min). Each pads with its identity (0, 255), as if skipping
    out-of-image SE elements, and on the flat array, where a step along the
    line is a fixed number of elements, doubles its windows' span (van
    Herk-style) until a last shift brings it to ``length``. A pass is one
    ufunc call from one buffer into the other, on a shrinking view; numpy
    runs an in-place call with overlapping operands without SIMD. A length
    beyond 2 max(h, w) - 1, whose line spans the image from any pixel, acts
    as that length."""
    h, w = values.shape[-2:]
    length = min(length, max(3, 2 * max(h, w) - 1))
    half = length // 2
    dy, dx = _DIRECTIONS[orientation]
    if dy < 0:  # the same line, walked the other way
        dy, dx = -dy, -dx
    step = dy * (w + 2 * half) + dx
    y0, x0 = half - half * dy, half - half * dx  # where a pixel's window starts
    shape = values.shape[:-2] + (h + 2 * half, w + 2 * half)
    src, dst = (np.empty(math.prod(shape), np.uint8) for _ in range(2))
    out = values
    for reduce, identity in ((np.maximum, 0), (np.minimum, 255)):
        dst.fill(identity)
        dst.reshape(shape)[..., half:half + h, half:half + w] = out
        src, dst = dst, src
        n, span = len(src), 1
        while span < length:
            shift = min(span, length - span)
            n -= shift * step
            reduce(src[:n], src[shift * step:shift * step + n], out=dst[:n])
            src, dst, span = dst, src, span + shift
        out = src.reshape(shape)[..., y0:y0 + h, x0:x0 + w]
    return out


def detect_hair_mask(image: Image, config: PreprocessConfig = PreprocessConfig()) -> HairMask:
    """Mark pixels whose closing residue exceeds the hair threshold in any
    color channel at any orientation. Closings fill dark structures thinner
    than the SE, so the residue lights up exactly on hair-like strokes."""
    planes = np.ascontiguousarray(np.moveaxis(image.pixels, -1, 0))  # (3, h, w)
    closed = planes.copy()
    for orientation in ORIENTATIONS:
        np.maximum(closed, _close(planes, config.se_length, orientation), out=closed)
    # a closing never darkens a pixel, so the residue cannot wrap, and that of
    # the largest closing exceeds the threshold where that of any closing does
    closed -= planes
    return HairMask(closed.max(axis=0) > config.hair_threshold)


# the half of the 8-neighbourhood that comes later in raster order
_FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))


def _component_roots(bits: np.ndarray) -> np.ndarray:
    """For the set pixels of ``bits`` in raster order, the raster-order index
    of the first pixel of each one's 8-connected component.

    A union-find over all edges at once: each round hooks, across every edge
    whose ends have different roots, the larger root onto the smaller one,
    then follows pointers until every pixel points at a root. Each round
    removes at least one root, so the rounds end; pointers only ever go to
    smaller indices, so each component's root is its first pixel.
    """
    # a one-pixel clear border, so that no step off the image wraps onto
    # the next row
    padded = np.pad(bits, 1).ravel()
    pixels = np.flatnonzero(padded)
    ids = np.full(len(padded), -1, dtype=np.intp)
    ids[pixels] = np.arange(len(pixels))
    ends = []
    for dy, dx in _FORWARD:
        nb = ids[pixels + dy * (bits.shape[1] + 2) + dx]
        both = nb >= 0
        ends.append((np.flatnonzero(both), nb[both]))
    a, b = (np.concatenate(e) for e in zip(*ends))
    root = np.arange(len(pixels))
    while len(a):
        # an edge joins the same components as the edge between their roots
        a, b = root[a], root[b]
        differ = a != b
        a, b = a[differ], b[differ]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return root


def clean_mask(mask: HairMask, config: PreprocessConfig = PreprocessConfig()) -> HairMask:
    """Keep only long, thin 8-connected components (hair candidates), then
    dilate the survivors by one pixel so inpainting covers hair fringes."""
    bits = mask.bits
    if not bits.any():
        return HairMask(np.zeros_like(bits))
    ys, xs = np.nonzero(bits)
    root = _component_roots(bits)
    # per-component figures, valid at the roots: a root is its component's
    # first pixel in raster order, so its own row is the top of the bbox
    area = np.bincount(root, minlength=len(root))
    bottom, left, right = ys.copy(), xs.copy(), xs.copy()
    np.maximum.at(bottom, root, ys)
    np.minimum.at(left, root, xs)
    np.maximum.at(right, root, xs)
    bh = bottom - ys + 1
    bw = right - left + 1
    keep = (np.maximum(bh, bw) >= config.min_component_span) & (area / (bh * bw) <= config.max_thinness)
    kept = np.zeros_like(bits)
    kept[bits] = keep[root]
    padded = np.pad(kept, 1)
    rows = padded[:, :-2] | padded[:, 1:-1] | padded[:, 2:]
    return HairMask(rows[:-2] | rows[1:-1] | rows[2:])


def _check_shape(image: Image, mask: HairMask) -> None:
    h, w = mask.bits.shape
    if (h, w) != (image.height, image.width):
        raise ValueError(f"mask {w}x{h} does not match image {image.width}x{image.height}")


def inpaint_hair(image: Image, mask: HairMask, config: PreprocessConfig = PreprocessConfig()) -> Image:
    """Replace each masked pixel by interpolating across its hair along the
    orientation where the masked run through it is shortest.

    Endpoint samples sit interp_margin pixels beyond the run ends, but at
    least 1 (a margin of 0 acts as 1) and at most max(h, w), beyond which
    every walk leaves the image, walking further if still masked. The
    orientation is picked per pixel: one with samples on both sides wins over
    one with a single side, then the shorter run wins, then the earlier of
    ORIENTATIONS. A pixel with two sides gets the distance-weighted mean of
    both samples, one with a single side a copy of it, and one with no side
    (every line through it is masked to the border) is left unchanged.
    Unmasked pixels are returned untouched.

    Only the masked pixels are visited. Along each orientation they are keyed
    by line and step and sorted, so that each masked run is a block of
    consecutive keys; a walk beyond a run end is one binary search in those
    keys. The work is O(m log m) in the masked pixel count m.
    """
    _check_shape(image, mask)
    bits = mask.bits
    ys, xs = np.nonzero(bits)
    if len(ys) == 0:
        return image
    h, w = bits.shape
    margin = min(max(config.interp_margin, 1), max(h, w))
    pixels = ys * w + xs
    best = None
    for orientation in ORIENTATIONS:
        dy, dx = _DIRECTIONS[orientation]
        # key = line * stride + step, where one step along the direction adds
        # 1; a stride longer than any line keeps keys of different lines at
        # least 2 apart
        if dx == 0:
            key = xs * (h + 1) + ys
        else:
            key = (ys - dy * xs) * (w + 1) + xs
        order = np.argsort(key)  # keys are distinct
        sk = key[order]
        starts = np.diff(sk, prepend=sk[0] - 2) != 1  # the first key of each run
        run = np.cumsum(starts) - 1  # run index of each sorted key
        first = sk[starts]
        last = sk[np.append(starts[1:], True)]
        # the sample is the first unmasked key at or beyond run end + margin:
        # that key itself, or one past the run that holds it
        target = last + margin
        i = np.minimum(np.searchsorted(sk, target), len(sk) - 1)
        stop_a = np.where(sk[i] == target, last[run[i]] + 1, target)
        target = first - margin
        i = np.maximum(np.searchsorted(sk, target, side="right") - 1, 0)
        stop_b = np.where(sk[i] == target, first[run[i]] - 1, target)
        run_of = np.empty_like(run)
        run_of[order] = run
        dist_a = stop_a[run_of] - key
        dist_b = key - stop_b[run_of]
        # a stop is a side if it is in the image: a walk along the pixel's
        # own line leaves the image exactly when the stop key lies past the
        # line's ends, as the keys of other lines do
        ya, xa = ys + dist_a * dy, xs + dist_a * dx
        yb, xb = ys - dist_b * dy, xs - dist_b * dx
        has_a = (ya >= 0) & (ya < h) & (xa >= 0) & (xa < w)
        has_b = (yb >= 0) & (yb < h) & (xb >= 0) & (xb < w)
        # more sides first, then the shorter run
        score = (2 - has_a.astype(np.intp) - has_b) * (h + w + 1) + (last - first + 1)[run_of]
        flat_step = dy * w + dx
        fields = (score, pixels + dist_a * flat_step, pixels - dist_b * flat_step,
                  dist_a, dist_b, has_a, has_b)
        if best is None:
            best = fields
        else:
            # strictly better only: ties go to the earlier orientation
            better = score < best[0]
            for kept, new in zip(best, fields):
                np.copyto(kept, new, where=better)
    _, side_a, side_b, dist_a, dist_b, has_a, has_b = best

    src = image.pixels.reshape(-1, 3)
    out = src.copy()
    two = has_a & has_b
    va, vb = src[side_a[two]], src[side_b[two]]
    da, db = dist_a[two, None], dist_b[two, None]
    # (db * va + da * vb) / (da + db) rounded half up, in integers
    out[pixels[two]] = (2 * (db * va + da * vb) + da + db) // (2 * (da + db))
    one = has_a ^ has_b
    out[pixels[one]] = src[np.where(has_a, side_a, side_b)[one]]
    return Image(out.reshape(image.pixels.shape))


_SMOOTH_BYTES = 8 << 20  # int16 window bytes sorted at once; the default 5x5 windows of a 224² frame fit


def smooth_inpainted(image: Image, mask: HairMask, config: PreprocessConfig = PreprocessConfig()) -> Image:
    """Median-filter the masked region only; the window clips at borders.

    Each masked pixel takes the per-channel lower median of the in-image
    pixels of its window: element (count - 1) // 2 of the sorted values, an
    integer for any count, so clipped even-count windows stay deterministic.
    A window beyond 2 max(h, w) - 1, which covers the image from any pixel,
    acts as that window. The windows are sorted in chunks of masked pixels
    holding at most ``_SMOOTH_BYTES``, or of one pixel whose windows hold more.
    """
    _check_shape(image, mask)
    ys, xs = np.nonzero(mask.bits)
    if len(ys) == 0:
        return image
    h, w = mask.bits.shape
    win = min(config.median_window, max(3, 2 * max(h, w) - 1))
    half = win // 2
    src = image.pixels
    # -1 marks out-of-image window cells and sorts below every pixel value
    padded = np.pad(src.astype(np.int16), ((half, half), (half, half), (0, 0)), constant_values=-1)
    view = sliding_window_view(padded, (win, win), axis=(0, 1))
    count = ((np.minimum(ys + half, h - 1) - np.maximum(ys - half, 0) + 1)
             * (np.minimum(xs + half, w - 1) - np.maximum(xs - half, 0) + 1))
    rank = (win * win - count) + (count - 1) // 2
    out = src.copy()
    step = max(1, _SMOOTH_BYTES // (3 * win * win * padded.itemsize))
    for lo in range(0, len(ys), step):
        y, x = ys[lo:lo + step], xs[lo:lo + step]
        windows = view[y, x].reshape(len(y), 3, win * win)
        windows.sort(axis=-1)
        out[y, x] = np.take_along_axis(windows, rank[lo:lo + step, None, None], axis=-1)[..., 0]
        del windows  # freed before the next chunk is gathered
    return Image(out)


def preprocess_pipeline(
    image: Image, config: PreprocessConfig = PreprocessConfig()
) -> tuple[Image, HairMask]:
    """Sharpen, detect and clean the hair mask, inpaint, smooth.

    Returns the refined image and the cleaned mask. For ablation runs,
    sharpen_amount 0 skips sharpening and hair_removal_enabled False skips
    hair removal.
    """
    sharpened = unsharp_mask(image, config)
    if not config.hair_removal_enabled:
        empty = HairMask(np.zeros((image.height, image.width), dtype=bool))
        return sharpened, empty
    mask = clean_mask(detect_hair_mask(sharpened, config), config)
    inpainted = inpaint_hair(sharpened, mask, config)
    return smooth_inpainted(inpainted, mask, config), mask

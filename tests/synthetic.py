"""Synthetic hairy-lesion generator used as ground-truth oracle in tests.

Builds a hair-free dermoscopy-like image (smooth textured background plus a
soft-edged dark lesion disk) and then composites thin dark hair strokes over
it, keeping the clean original and the exact set of altered pixels as ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from lesionprep.raster import Image


@dataclass(frozen=True)
class HairyLesionSample:
    hairy: Image
    clean: Image
    hair_mask: np.ndarray  # bool, full hair footprint (altered pixels + 1px fringe)


def _background(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    base = np.full((size, size), 180.0)
    for _ in range(3):
        fx, fy = rng.uniform(0.5, 2.0, size=2) * 2 * np.pi / size
        phase = rng.uniform(0, 2 * np.pi, size=2)
        base += rng.uniform(1.0, 2.5) * np.sin(fx * xx + phase[0]) * np.sin(fy * yy + phase[1])
    return base


def _add_lesion(canvas: np.ndarray, rng: np.random.Generator) -> None:
    size = canvas.shape[0]
    cy, cx = rng.uniform(0.35, 0.65, size=2) * size
    radius = rng.uniform(28, 42)
    depth = rng.uniform(70, 95)
    yy, xx = np.mgrid[0 : size, 0 : size].astype(np.float64)
    dist = np.hypot(yy - cy, xx - cx)
    # edge falls off over ~14 px so closings and double-sharpening see no thin structure
    alpha = np.clip((radius - dist) / 14.0 + 0.5, 0.0, 1.0)
    canvas -= alpha * depth


def _hair_alpha(yy: np.ndarray, xx: np.ndarray, p0, p1, width: float) -> np.ndarray:
    d = np.array(p1) - np.array(p0)
    length2 = float(d @ d)
    t = np.clip(((yy - p0[0]) * d[0] + (xx - p0[1]) * d[1]) / length2, 0.0, 1.0)
    dist = np.hypot(yy - (p0[0] + t * d[0]), xx - (p0[1] + t * d[1]))
    return np.clip(width / 2.0 + 0.5 - dist, 0.0, 1.0)


def generate_sample(seed: int, size: int = 224, n_hairs: int = 5) -> HairyLesionSample:
    rng = np.random.default_rng(seed)
    base = _background(rng, size)
    _add_lesion(base, rng)
    base = np.clip(base, 0, 255)

    clean_rgb = np.stack(
        [
            np.clip(base * 1.05, 0, 255),  # dermoscopy images lean red
            base,
            np.clip(base * 0.92, 0, 255),
        ],
        axis=-1,
    )

    hairy_rgb = clean_rgb.copy()
    for _ in range(n_hairs):
        angle = rng.uniform(0, np.pi)
        length = rng.uniform(60, 140)
        cy, cx = rng.uniform(0.15, 0.85, size=2) * size
        dy, dx = np.sin(angle) * length / 2, np.cos(angle) * length / 2
        p0, p1 = (cy - dy, cx - dx), (cy + dy, cx + dx)
        width = rng.uniform(1.6, 2.4)
        # alpha is exactly 0 farther than width / 2 + 0.5 px from the stroke,
        # and compositing alpha 0 leaves a pixel as it is, so only the
        # stroke's padded bounding box is computed
        pad = width / 2 + 1
        y0, x0 = np.clip(np.floor(np.minimum(p0, p1) - pad), 0, size).astype(int)
        y1, x1 = np.clip(np.ceil(np.maximum(p0, p1) + pad) + 1, 0, size).astype(int)
        yy, xx = np.mgrid[y0:y1, x0:x1].astype(np.float64)
        alpha = _hair_alpha(yy, xx, p0, p1, width)[:, :, None]
        hair_value = rng.uniform(20, 45)
        box = hairy_rgb[y0:y1, x0:x1]
        box[...] = alpha * hair_value + (1 - alpha) * box

    clean_u8 = np.floor(clean_rgb + 0.5).astype(np.uint8)
    hairy_u8 = np.floor(hairy_rgb + 0.5).astype(np.uint8)
    altered = (
        np.abs(hairy_u8.astype(np.int32) - clean_u8.astype(np.int32)).max(axis=2) > 0
    )
    # the hair footprint includes the one-pixel anti-aliased fringe around the
    # altered core; removal has to treat that band as hair too
    footprint = ndimage.binary_dilation(altered, structure=np.ones((3, 3), dtype=bool))
    return HairyLesionSample(Image(hairy_u8), Image(clean_u8), footprint)

"""Seeded synthetic inputs for the benchmark: a class-per-directory corpus of
224x224 hairy-lesion images and a 660-record prediction log with planted
confusion counts.

Scalar draws come from ``random.Random`` (stable across Python versions) and
the rasters use only IEEE-exact numpy arithmetic (+, -, *, /, sqrt, clip,
floor) plus per-axis ``math.sin``, so the same seed gives the same bytes
regardless of numpy's SIMD paths.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIZE = 224
LABELS = ("benign", "malignant")
EVAL_RECORDS = 660  # test-set size in the paper
STROKE_LENGTH = 100.0
STROKE_WIDTH = 2.0


@dataclass(frozen=True)
class Workload:
    images: int
    strokes: int
    jobs: int


# hairy and clean share image seeds, so clean is hairy with the strokes left
# out; dense-jobs2 draws its first 16 backgrounds from the same seeds.
WORKLOADS = {
    "hairy": Workload(images=40, strokes=5, jobs=1),
    "clean": Workload(images=40, strokes=0, jobs=1),
    "dense-jobs2": Workload(images=16, strokes=12, jobs=2),
}


def image_path(index: int, n: int) -> str:
    """Relative path of image ``index``: the first 3/4 go under train/, the
    rest under test/, alternating benign and malignant."""
    top = "train" if index < n * 3 // 4 else "test"
    return f"{top}/{LABELS[index % 2]}/img{index:03d}.ppm"


def _sin_axis(freq: float, phase: float) -> np.ndarray:
    return np.array([math.sin(freq * i + phase) for i in range(SIZE)])


def _distance(yy, xx, cy, cx) -> np.ndarray:
    dy = yy - cy
    dx = xx - cx
    return np.sqrt(dy * dy + dx * dx)


def render_image(seed: int, index: int, strokes: int) -> np.ndarray:
    """(SIZE, SIZE, 3) uint8 dermoscopy-like image: textured skin, a soft dark
    lesion (larger and darker when malignant) and ``strokes`` thin dark hairs."""
    rng = random.Random(seed * 1_000_003 + index)
    malignant = index % 2 == 1
    yy, xx = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)

    base = np.full((SIZE, SIZE), 180.0)
    for _ in range(3):
        fx, fy = (rng.uniform(0.5, 2.0) * 2 * math.pi / SIZE for _ in range(2))
        px, py = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        amp = rng.uniform(1.0, 2.5)
        base += amp * np.outer(_sin_axis(fy, py), _sin_axis(fx, px))

    cy, cx = rng.uniform(0.35, 0.65) * SIZE, rng.uniform(0.35, 0.65) * SIZE
    radius = rng.uniform(28, 42) + (6 if malignant else 0)
    depth = rng.uniform(70, 95) + (10 if malignant else 0)
    # a ~14 px soft edge, so the closings see no thin structure at the rim
    alpha = np.clip((radius - _distance(yy, xx, cy, cx)) / 14.0 + 0.5, 0.0, 1.0)
    base = np.clip(base - alpha * depth, 0, 255)

    rgb = np.stack([np.clip(base * 1.05, 0, 255), base, np.clip(base * 0.92, 0, 255)], axis=-1)

    # fixed length and width, and angles spread evenly from a random start,
    # so that every image carries about the same inpainting work
    turn = rng.uniform(0, 1)
    for k in range(strokes):
        angle = (turn + k / strokes) * math.pi
        my, mx = rng.uniform(0.25, 0.75) * SIZE, rng.uniform(0.25, 0.75) * SIZE
        value = rng.uniform(20, 45)
        dy, dx = math.sin(angle) * STROKE_LENGTH / 2, math.cos(angle) * STROKE_LENGTH / 2
        y0, x0 = my - dy, mx - dx
        ty, tx = 2 * dy, 2 * dx
        t = np.clip(((yy - y0) * ty + (xx - x0) * tx) / (ty * ty + tx * tx), 0.0, 1.0)
        a = np.clip(STROKE_WIDTH / 2 + 0.5 - _distance(yy, xx, y0 + t * ty, x0 + t * tx), 0.0, 1.0)
        rgb = a[:, :, None] * value + (1 - a[:, :, None]) * rgb

    return np.floor(rgb + 0.5).astype(np.uint8)


def encode_ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return b"P6 %d %d 255\n" % (w, h) + pixels.tobytes()


@dataclass(frozen=True)
class Planted:
    tp: int
    fp: int
    fn: int
    tn: int


def planted_counts(seed: int) -> Planted:
    """Confusion counts over EVAL_RECORDS cases, every cell at least 20."""
    rng = random.Random(seed * 7 + 3)
    positives = rng.randint(260, 400)
    negatives = EVAL_RECORDS - positives
    tp = rng.randint(positives * 6 // 10, positives - 20)
    tn = rng.randint(negatives * 6 // 10, negatives - 20)
    return Planted(tp=tp, fp=negatives - tn, fn=positives - tp, tn=tn)


def prediction_log(seed: int) -> str:
    """``case_id,predicted,confidence,truth`` CSV holding the planted counts in
    shuffled order; confidences alternate the fraction and percent forms."""
    p = planted_counts(seed)
    pairs = (
        [("malignant", "malignant")] * p.tp
        + [("malignant", "benign")] * p.fp
        + [("benign", "malignant")] * p.fn
        + [("benign", "benign")] * p.tn
    )
    rng = random.Random(seed * 7 + 4)
    rng.shuffle(pairs)
    lines = ["case_id,predicted,confidence,truth"]
    for i, (predicted, truth) in enumerate(pairs):
        conf = rng.uniform(0.5, 1.0)
        token = f"{conf:.3f}" if i % 2 == 0 else f"{100 * conf:.1f}%"
        lines.append(f"ISIC_{seed % 10_000_000:07d}{i:04d},{predicted},{token},{truth}")
    return "\n".join(lines) + "\n"


def write_inputs(root: Path, seed: int, workload: Workload) -> None:
    """Write the image tree under ``root/data`` and the log at ``root/predictions.csv``."""
    for i in range(workload.images):
        path = root / "data" / image_path(i, workload.images)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_ppm(render_image(seed, i, workload.strokes)))
    (root / "predictions.csv").write_text(prediction_log(seed))


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()

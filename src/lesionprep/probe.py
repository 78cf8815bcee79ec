"""Fixed-feature linear probe: a handcrafted 55-dim image descriptor plus a
2-class softmax layer trained by plain mini-batch gradient descent.

Feature layout (all in [0, 1]):
  [0:16]   red 16-bin histogram        (bin k covers values [16k, 16k+16))
  [16:32]  green histogram
  [32:48]  blue histogram
  [48:51]  per-channel mean / 255      (r, g, b)
  [51:54]  per-channel std / 255       (population std; r, g, b)
  [54]     mean Sobel gradient magnitude of the BT.601 luma, / (1020 * sqrt(2))

The features run in blocks of ``_BLOCK_ROWS`` rows through buffers allocated
once per call, with no float64 copy of the image; each pass casts a block's
levels to intp once. Pass one adds each block's 256-bin ``np.bincount`` per
channel into the counts behind the histograms (summed in groups of 16) and the
exact integer sum behind each mean, and writes ``np.hypot`` of the exact int16
Sobel responses of the block's luma (read with a 1-row halo) into one float64
plane, so that ``np.mean`` keeps the pairwise order of a whole frame. Each std
is numpy's population std over a float64 (n, 3) copy, reproduced bit for bit
by pass two: a 256-entry table of ``(v - mean)**2`` is indexed in pixel order
and summed by ``np.cumsum``, the sequential order in which numpy reduces that
copy along its first axis, each block from the running total carried into its
first slot. Besides correctly rounded arithmetic, the features call only libm's
``hypot`` and the pairwise sum of ``np.mean``; no float matmul enters them, so
they do not depend on the BLAS kernel.

Each curve point takes a set's accuracy and loss from one softmax. The two
float matmuls of each training step go through BLAS, so the model and curve
bytes depend on the BLAS kernel as well as on ``np.exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import Image

FEATURE_DIM = 55

# Max per-axis Sobel response on 8-bit data is 4*255; the magnitude bound
# normalizes the edge feature into [0, 1].
_SOBEL_MAX = 1020.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class LinearProbeModel:
    weights: np.ndarray  # (2, d)
    bias: np.ndarray     # (2,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != 2 or b.shape != (2,):
            raise ValueError(f"bad model shapes {w.shape}, {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    learning_rate: float = 0.005
    batch_size: int = 32
    iterations: int = 5000
    eval_interval: int = 50

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.iterations < 1 or self.eval_interval < 1:
            raise ValueError("batch_size, iterations, eval_interval must be >= 1")


@dataclass(frozen=True)
class CurvePoint:
    iteration: int
    train_accuracy: float
    val_accuracy: float
    train_cross_entropy: float
    val_cross_entropy: float


_LEVELS = np.arange(256)
# Each BT.601 weight times every 8-bit level, one row per channel (R, G, B).
_LUMA = np.array([[0.299], [0.587], [0.114]]) * _LEVELS
_ONE_HOT = np.eye(2)
_BLOCK_ROWS = 24  # rows per block of extract_features; at 32 its peak passes two float64 planes


def extract_features(image: Image) -> np.ndarray:
    """Deterministic 55-dim descriptor; see the module docstring for layout
    and for how each part is summed."""
    pixels = image.pixels
    h, w = pixels.shape[:2]
    n = h * w
    levels = np.empty((3, min(h, _BLOCK_ROWS + 2), w), np.intp)
    luma = np.empty(levels.shape[1:])
    magnitude = np.empty((h, w))
    counts = np.zeros((3, 256), np.intp)

    def cast(lo: int, hi: int) -> np.ndarray:  # the levels of rows lo:hi, channels first
        block = levels[:, : hi - lo]
        np.copyto(block, np.moveaxis(pixels[lo:hi], -1, 0))
        return block

    for r0 in range(0, h, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, h)
        lo, hi = max(r0 - 1, 0), min(r1 + 1, h)
        block, inner, out = cast(lo, hi), slice(r0 - lo, r1 - lo), magnitude[r0:r1]
        for c in range(3):
            counts[c] += np.bincount(block[c, inner].ravel(), minlength=256)
        gx, gy = _sobel(_luma(block, luma[: hi - lo]).astype(np.int16))
        np.copyto(out, gx[inner])  # np.hypot of two int16 operands runs in float32
        np.hypot(out, gy[inner], out=out)
    edge = float(np.mean(magnitude)) / _SOBEL_MAX

    means = counts @ _LEVELS / n
    tables = np.square(_LEVELS - means[:, None])
    sums = np.zeros(3)
    run = np.empty(levels[0].size)
    for r0 in range(0, h, _BLOCK_ROWS):
        for c, (table, v) in enumerate(zip(tables, cast(r0, min(r0 + _BLOCK_ROWS, h)))):
            part = table.take(v.ravel(), out=run[: v.size], mode="clip")
            part[0] += sums[c]
            sums[c] = np.cumsum(part, out=part)[-1]
    histograms = counts.reshape(3, 16, 16).sum(axis=2) / n
    return np.concatenate([histograms.ravel(), means / 255.0, np.sqrt(sums / n) / 255.0, [edge]])


def _luma(levels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """BT.601 luma, floor(0.299 R + 0.587 G + 0.114 B + 0.5), of intp R, G, B
    ``levels`` (first axis) into float64 ``out``. Each weighted channel is
    looked up in ``_LUMA``, whose entries are the float64 products the formula
    forms, and the three are added in the order R, G, B; so the luma equals the
    float64 formula's bit for bit (checked on all 2^24 triples) without a
    float64 copy of the image. The sum never reaches 255.5, so it needs no
    clip. The integer formula (299 R + 587 G + 114 B + 500) // 1000 is not a
    substitute: it differs on 3,464 triples. ``take`` runs several times
    faster on intp indices than on uint8."""
    _LUMA[0].take(levels[0], out=out, mode="clip")  # in range; "clip" spares out a buffer
    out += _LUMA[1].take(levels[1])
    out += _LUMA[2].take(levels[2])
    out += 0.5
    return np.floor(out, out=out)


def _sobel(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel responses along x and y with replicate borders, in the dtype of
    ``gray``; on an 8-bit luma in int16 or wider every sum is exact."""
    p = np.concatenate([gray[:1], gray, gray[-1:]])  # edge padding; np.pad costs 5x more
    p = np.concatenate([p[:, :1], p, p[:, -1:]], axis=1)
    dx = p[:, 2:] - p[:, :-2]
    dy = p[2:] - p[:-2]
    return dx[:-2] + 2 * dx[1:-1] + dx[2:], dy[:, :-2] + 2 * dy[:, 1:-1] + dy[:, 2:]


def softmax_predict(model: LinearProbeModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities (benign, malignant) of one feature vector, from the
    softmax that training uses."""
    return _batch_probs(model.weights, model.bias, np.asarray(features, dtype=np.float64)[None])[0]


# These take the raw (weights, bias) arrays, so the training loop does not
# build and validate a LinearProbeModel on every iteration. With two classes
# the row max and the row sum are one elementwise op on the two columns.
def _batch_probs(weights, bias, features: np.ndarray) -> np.ndarray:
    probs = features @ weights.T
    probs += bias
    probs -= np.maximum(probs[:, :1], probs[:, 1:])
    np.exp(probs, out=probs)
    probs /= probs[:, :1] + probs[:, 1:]
    return probs


def batch_scores(weights, bias, features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Accuracy and mean cross-entropy over a batch, from one softmax."""
    probs = _batch_probs(weights, bias, features)
    accuracy = np.count_nonzero(probs.argmax(axis=1) == labels) / len(labels)
    p_true = np.clip(probs[np.arange(len(labels)), labels], 1e-12, None)
    return accuracy, float(np.mean(-np.log(p_true)))


def batch_gradient(weights, bias, features: np.ndarray, labels: np.ndarray):
    """Analytic gradient of the mean cross-entropy wrt (weights, bias)."""
    delta = _batch_probs(weights, bias, features)
    delta -= _ONE_HOT.take(labels, axis=0)
    m = len(labels)
    return delta.T @ features / m, np.add.reduce(delta, 0) / m


def train_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
) -> tuple[LinearProbeModel, list[CurvePoint]]:
    """Mini-batch gradient descent from zero init.

    Batches are consecutive chunks of a per-epoch shuffled order (seeded, so
    the whole run is reproducible bit for bit). The curve is sampled every
    eval_interval iterations and at the final iteration. Inputs are checked
    before the first iteration.
    """
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training set must be a nonempty 2-D array")
    if y.ndim != 1 or len(X) != len(y):
        raise ValueError(f"train features/labels length mismatch: {len(X)} rows, labels of shape {y.shape}")
    Xv = np.asarray(val_features, dtype=np.float64)
    yv = np.asarray(val_labels, dtype=np.int64)
    if Xv.size == 0:
        Xv = Xv.reshape(0, X.shape[1])
    if Xv.ndim != 2 or Xv.shape[1] != X.shape[1]:
        raise ValueError(f"val features must be rows of {X.shape[1]} features, got shape {Xv.shape}")
    if yv.ndim != 1 or len(Xv) != len(yv):
        raise ValueError(f"val features/labels length mismatch: {len(Xv)} rows, labels of shape {yv.shape}")
    for name, labels in (("train", y), ("val", yv)):
        bad = labels[(labels != 0) & (labels != 1)]
        if len(bad):
            raise ValueError(f"{name} labels must be 0 or 1, got {bad[0]}")

    weights = np.zeros((2, X.shape[1]))
    bias = np.zeros(2)
    rng = np.random.default_rng(config.seed)
    n, batch, rate = len(X), config.batch_size, config.learning_rate
    order = rng.permutation(n)
    cursor = 0
    curve = []
    for it in range(1, config.iterations + 1):
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch]
        cursor += batch
        grad_w, grad_b = batch_gradient(weights, bias, X.take(idx, axis=0), y.take(idx))
        weights -= rate * grad_w
        bias -= rate * grad_b
        if it % config.eval_interval == 0 or it == config.iterations:
            train_acc, train_xent = batch_scores(weights, bias, X, y)
            val_acc, val_xent = batch_scores(weights, bias, Xv, yv) if len(Xv) else (math.nan, math.nan)
            curve.append(CurvePoint(it, train_acc, val_acc, train_xent, val_xent))

    return LinearProbeModel(weights, bias), curve


def format_model(model: LinearProbeModel) -> str:
    """Text persistence: dims line, weight rows, bias row; 17 sig digits."""
    lines = [f"{model.weights.shape[0]} {model.weights.shape[1]}"]
    for row in model.weights:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append(" ".join(f"{v:.17g}" for v in model.bias))
    return "\n".join(lines) + "\n"


CURVE_HEADER = "iter,train_acc,val_acc,train_xent,val_xent"


def format_curve(curve: list[CurvePoint]) -> str:
    lines = [CURVE_HEADER]
    for p in curve:
        lines.append(
            f"{p.iteration},{p.train_accuracy:.17g},{p.val_accuracy:.17g},"
            f"{p.train_cross_entropy:.17g},{p.val_cross_entropy:.17g}"
        )
    return "\n".join(lines) + "\n"

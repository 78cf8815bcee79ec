"""Fixed-feature linear probe: a handcrafted 55-dim image descriptor plus one
logistic unit trained by plain mini-batch gradient descent. The model is held
in memory as that unit's theta and saved as the 2-class softmax layer it
equals.

Feature layout (all in [0, 1]):
  [0:16]   red 16-bin histogram        (bin k covers values [16k, 16k+16))
  [16:32]  green histogram
  [32:48]  blue histogram
  [48:51]  per-channel mean / 255      (r, g, b)
  [51:54]  per-channel std / 255       (population std; r, g, b)
  [54]     mean Sobel gradient magnitude of the BT.601 luma, / (1020 * sqrt(2));
           the luma is (299 R + 587 G + 114 B + 500) // 1000, 0.299 R +
           0.587 G + 0.114 B rounded half up in exact integer arithmetic

The features take one pass over blocks of ``_BLOCK_ROWS`` rows. Integer
counts of each channel's levels give the histograms, each mean S / n and each
std sqrt(n Q - S^2) / n, with S and Q the exact sums of the levels and of their
squares (exact while n Q < 2^53). The edge feature is ``np.sqrt`` of the exact
integer gx^2 + gy^2 of the luma, added in raster order by a ``np.cumsum`` carried
from block to block. Each float step is correctly rounded, so the bytes do not
depend on the CPU.

With two classes the softmax is one logistic unit on v = w1 - w0, c = b1 - b0.
Training runs it on theta = (v, c) at step 2 * learning_rate: from zero init,
the softmax's own descent in exact arithmetic. Each set of m examples is one
(d + 1, m) array, a column per example: its features, then a 1. The examples
are permuted once per run by the package's seeded xoshiro256**, and each
batch is the next window of min(batch_size, n) of them in that permutation,
wrapping from its end to its start. The model holds theta as it is; only
`format_model` writes softmax rows (-v/2, v/2) and bias (-c/2, c/2), whose
differences give theta back exactly unless some nonzero |theta_i| < 2^-1021,
whose half rounds. Sums add in index order and each example takes one
``math.exp``: no matmul, BLAS or ``np.exp``, so model and curve bytes do not
depend on numpy's or BLAS's kernels. Only libm's ``exp`` and ``log`` remain;
glibc's may differ in the last bit between versions, and between its FMA and
SSE2 variants, under both of which the golden tests run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataset
from .raster import Image

FEATURE_DIM = 55

# The Sobel magnitude bound on 8-bit data, 4*255 per axis: edge feature in [0, 1].
_SOBEL_MAX = 1020.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class LinearProbeModel:
    """The logistic unit theta = (v, c): d weights, then the bias, as a
    read-only array. A zero is held as +0.0, so that no saved token reads -0."""

    theta: np.ndarray  # (d + 1,)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64) + 0.0  # a copy, with -0.0 as +0.0
        if theta.ndim != 1 or len(theta) == 0:
            raise ValueError(f"theta must be d + 1 floats, got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise ValueError("model parameters must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    learning_rate: float = 0.005
    batch_size: int = 32
    iterations: int = 5000
    eval_interval: int = 50

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if 2 * self.learning_rate == math.inf:  # each step moves by 2 * learning_rate
            raise ValueError(f"2 * learning_rate must be finite, got {self.learning_rate}")
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
_BLOCK_ROWS = 24  # rows per block of extract_features


def extract_features(image: Image) -> np.ndarray:
    """Deterministic 55-dim descriptor; see the module docstring for layout
    and for how each part is summed."""
    pixels = image.pixels
    h, w = pixels.shape[:2]
    n = h * w
    levels = np.empty((3, min(h, _BLOCK_ROWS + 2), w), np.int32)  # 1000 * 255 + 500 fits
    roots = np.empty(min(h, _BLOCK_ROWS) * w)
    counts = np.zeros((3, 256), np.intp)
    edge = 0.0
    for r0 in range(0, h, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, h)
        lo, hi = max(r0 - 1, 0), min(r1 + 1, h)
        block, inner = levels[:, : hi - lo], slice(r0 - lo, r1 - lo)
        np.copyto(block, np.moveaxis(pixels[lo:hi], -1, 0))
        for c in range(3):
            counts[c] += np.bincount(block[c, inner].ravel(), minlength=256)
        luma = (299 * block[0] + 587 * block[1] + 114 * block[2] + 500) // 1000
        gx, gy = (g[inner] for g in _sobel(luma))
        run = np.sqrt((gx * gx + gy * gy).ravel(), out=roots[: gx.size])
        run[0] += edge
        edge = np.cumsum(run, out=run)[-1]
    sums, squares = counts @ _LEVELS, counts @ (_LEVELS * _LEVELS)  # exact integers
    stds = [math.sqrt(n * q - s * s) / n / 255.0 for s, q in zip(sums.tolist(), squares.tolist())]
    histograms = counts.reshape(3, 16, 16).sum(axis=2) / n
    return np.concatenate([histograms.ravel(), sums / n / 255.0, stds, [edge / n / _SOBEL_MAX]])


def _sobel(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel responses along x and y with replicate borders, in the dtype of
    ``gray``; on an 8-bit luma in int16 or wider every sum is exact."""
    p = np.concatenate([gray[:1], gray, gray[-1:]])  # edge padding; np.pad costs 5x more
    p = np.concatenate([p[:, :1], p, p[:, -1:]], axis=1)
    dx = p[:, 2:] - p[:, :-2]
    dy = p[2:] - p[:-2]
    return dx[:-2] + 2 * dx[1:-1] + dx[2:], dy[:, :-2] + 2 * dy[:, 1:-1] + dy[:, 2:]


def softmax_predict(model: LinearProbeModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities (benign, malignant) of one vector of d features:
    the model's softmax, computed as the logistic unit that training runs."""
    x, d = np.asarray(features, dtype=np.float64), len(model.theta) - 1
    if x.shape != (d,):
        raise ValueError(f"expected {d} features, got {len(x) if x.ndim == 1 else f'shape {x.shape}'}")
    z = _logits(model.theta, np.append(x, 1.0)[:, None])
    return _sigmoids(np.concatenate([-z, z]))


def _logits(theta: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """theta . x of each column x of ``columns``, added feature by feature in index order."""
    return np.cumsum(columns * theta[:, None], axis=0)[-1]


def _sigmoids(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) of each t in ``z``, as 1 / (1 + e) or e / (1 + e)
    from one ``math.exp`` of -|t| per logit, which cannot overflow."""
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), np.float64, len(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def batch_scores(theta: np.ndarray, columns: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Accuracy and mean cross-entropy over (d + 1, m) ``columns``: a positive
    logit predicts malignant, and p(true label) is floored at 1e-12."""
    z, malignant = _logits(theta, columns), labels == 1
    p_true = np.maximum(_sigmoids(np.where(malignant, z, -z)), 1e-12)
    loss = 0.0 - math.fsum(map(math.log, p_true.tolist()))  # 0 - x: a zero loss is 0, not -0
    return int(np.count_nonzero((z > 0) == malignant)) / len(z), loss / len(z)


def batch_gradient(theta: np.ndarray, columns: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient wrt theta of the mean cross-entropy over the (d + 1, m) ``columns``."""
    delta = _sigmoids(_logits(theta, columns))
    delta -= labels
    return np.cumsum(columns * delta, axis=1)[:, -1] / len(delta)


def train_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    config: TrainConfig,
) -> tuple[LinearProbeModel, list[CurvePoint]]:
    """Mini-batch gradient descent of the logistic unit from zero init.

    A seeded ``dataset.Xoshiro256StarStar`` permutes the n training rows once
    per run, n - 1 draws in all. Batch k is the window of m = min(batch_size,
    n) rows of that permutation from position k * m mod n, wrapping past its
    end to its start. The curve is sampled every eval_interval iterations and
    at the final iteration. Inputs are checked before the first iteration.
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

    columns, val_columns = (np.concatenate([a.T, np.ones((1, len(a)))]) for a in (X, Xv))
    n, m, step = len(X), min(config.batch_size, len(X)), 2 * config.learning_rate
    perm = list(range(n))
    dataset.Xoshiro256StarStar(config.seed).shuffle(perm)
    ring = perm + perm[: m - 1]  # every window is a slice of it, wrapped or not
    ring_columns, ring_labels = columns[:, ring], y[ring]
    theta = np.zeros(len(columns))
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging theta is refused once, below
        for it in range(1, config.iterations + 1):
            start = (it - 1) * m % n
            window = slice(start, start + m)
            theta -= step * batch_gradient(theta, ring_columns[:, window], ring_labels[window])
            if it % config.eval_interval == 0 or it == config.iterations:
                train_acc, train_xent = batch_scores(theta, columns, y)
                val_acc, val_xent = batch_scores(theta, val_columns, yv) if len(yv) else (math.nan, math.nan)
                curve.append(CurvePoint(it, train_acc, val_acc, train_xent, val_xent))

    return LinearProbeModel(theta), curve


def format_model(model: LinearProbeModel) -> str:
    """Text persistence as the 2-class softmax that theta = (v, c) equals: the
    dims line ``2 d``, the weight rows -v/2 and v/2, and the bias row -c/2
    c/2, each number to 17 significant digits."""
    half = model.theta / 2
    rows = np.stack([0.0 - half, half])  # 0 - x, so that a zero weight saves as 0, not -0
    lines = [f"2 {len(half) - 1}", *(" ".join(f"{v:.17g}" for v in row) for row in rows[:, :-1])]
    lines.append(" ".join(f"{v:.17g}" for v in rows[:, -1]))
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

"""Fixed-feature linear probe: a handcrafted 55-dim image descriptor plus a
2-class softmax layer trained by plain mini-batch gradient descent.

Feature layout (all in [0, 1]):
  [0:16]   red 16-bin histogram        (bin k covers values [16k, 16k+16))
  [16:32]  green histogram
  [32:48]  blue histogram
  [48:51]  per-channel mean / 255      (r, g, b)
  [51:54]  per-channel std / 255       (population std; r, g, b)
  [54]     mean Sobel gradient magnitude of the luma, / (1020 * sqrt(2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .raster import Image, to_grayscale

FEATURE_DIM = 55
CLASSES = ("benign", "malignant")

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

    @classmethod
    def zeros(cls, dim: int = FEATURE_DIM) -> "LinearProbeModel":
        return cls(np.zeros((2, dim)), np.zeros(2))


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


def extract_features(image: Image) -> np.ndarray:
    """Deterministic 55-dim descriptor; see the module docstring for layout."""
    pixels = image.pixels
    n = pixels.shape[0] * pixels.shape[1]
    parts = []
    for c in range(3):
        counts = np.bincount((pixels[:, :, c] // 16).ravel(), minlength=16)
        parts.append(counts / n)
    flat = pixels.reshape(-1, 3).astype(np.float64)
    means = flat.mean(axis=0) / 255.0
    stds = flat.std(axis=0) / 255.0

    gray = to_grayscale(image).values.astype(np.float64)
    gx = ndimage.sobel(gray, axis=1, mode="nearest")
    gy = ndimage.sobel(gray, axis=0, mode="nearest")
    edge = float(np.mean(np.hypot(gx, gy))) / _SOBEL_MAX

    return np.concatenate(parts + [means, stds, [edge]])


def softmax_predict(model: LinearProbeModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities (benign, malignant) via a stable softmax."""
    logits = model.weights @ np.asarray(features, dtype=np.float64) + model.bias
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


def cross_entropy(probabilities: np.ndarray, true_label: int) -> float:
    """-ln p[true_label], with p floored at 1e-12."""
    return -math.log(max(float(probabilities[true_label]), 1e-12))


def _batch_probs(model: LinearProbeModel, features: np.ndarray) -> np.ndarray:
    logits = features @ model.weights.T + model.bias
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def batch_loss(model: LinearProbeModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over a batch."""
    probs = _batch_probs(model, features)
    p_true = np.clip(probs[np.arange(len(labels)), labels], 1e-12, None)
    return float(np.mean(-np.log(p_true)))


def batch_gradient(
    model: LinearProbeModel, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the mean cross-entropy wrt (weights, bias)."""
    probs = _batch_probs(model, features)
    delta = probs.copy()
    delta[np.arange(len(labels)), labels] -= 1.0
    grad_w = delta.T @ features / len(labels)
    grad_b = delta.mean(axis=0)
    return grad_w, grad_b


def _accuracy(model: LinearProbeModel, features: np.ndarray, labels: np.ndarray) -> float:
    preds = _batch_probs(model, features).argmax(axis=1)
    return float(np.mean(preds == labels))


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
    eval_interval iterations and at the final iteration.
    """
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training set must be a nonempty 2-D array")
    if len(X) != len(y):
        raise ValueError("features/labels length mismatch")
    Xv = np.asarray(val_features, dtype=np.float64).reshape(-1, X.shape[1])
    yv = np.asarray(val_labels, dtype=np.int64)

    model = LinearProbeModel.zeros(X.shape[1])
    weights = model.weights.copy()
    bias = model.bias.copy()
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(X))
    cursor = 0
    curve = []

    def record(iteration: int):
        m = LinearProbeModel(weights, bias)
        if len(Xv):
            va, vx = _accuracy(m, Xv, yv), batch_loss(m, Xv, yv)
        else:
            va, vx = math.nan, math.nan
        curve.append(
            CurvePoint(iteration, _accuracy(m, X, y), va, batch_loss(m, X, y), vx)
        )

    for it in range(1, config.iterations + 1):
        if cursor >= len(X):
            order = rng.permutation(len(X))
            cursor = 0
        idx = order[cursor : cursor + config.batch_size]
        cursor += config.batch_size
        m = LinearProbeModel(weights, bias)
        grad_w, grad_b = batch_gradient(m, X[idx], y[idx])
        weights -= config.learning_rate * grad_w
        bias -= config.learning_rate * grad_b
        if it % config.eval_interval == 0 or it == config.iterations:
            record(it)

    return LinearProbeModel(weights, bias), curve


def gradient_check(
    model: LinearProbeModel,
    features: np.ndarray,
    labels: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between the analytic gradient and central finite
    differences over all parameters. Relative error uses a 1e-6 floor so a
    near-zero gradient does not blow up the ratio."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("batch must be nonempty")
    grad_w, grad_b = batch_gradient(model, X, y)
    analytic = np.concatenate([grad_w.ravel(), grad_b])

    theta = np.concatenate([model.weights.ravel(), model.bias])
    d = model.weights.shape[1]

    def loss_at(vec: np.ndarray) -> float:
        m = LinearProbeModel(vec[: 2 * d].reshape(2, d), vec[2 * d :])
        return batch_loss(m, X, y)

    numeric = np.empty_like(theta)
    for i in range(len(theta)):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += step
        minus[i] -= step
        numeric[i] = (loss_at(plus) - loss_at(minus)) / (2 * step)

    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def format_model(model: LinearProbeModel) -> str:
    """Text persistence: dims line, weight rows, bias row; 17 sig digits."""
    lines = [f"{model.weights.shape[0]} {model.weights.shape[1]}"]
    for row in model.weights:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append(" ".join(f"{v:.17g}" for v in model.bias))
    return "\n".join(lines) + "\n"


def save_model(model: LinearProbeModel, path: str | Path) -> None:
    Path(path).write_text(format_model(model))


CURVE_HEADER = "iter,train_acc,val_acc,train_xent,val_xent"


def format_curve(curve: list[CurvePoint]) -> str:
    lines = [CURVE_HEADER]
    for p in curve:
        lines.append(
            f"{p.iteration},{p.train_accuracy:.17g},{p.val_accuracy:.17g},"
            f"{p.train_cross_entropy:.17g},{p.val_cross_entropy:.17g}"
        )
    return "\n".join(lines) + "\n"

import math
import re
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from lesionprep import probe
from lesionprep.dataset import Xoshiro256StarStar
from lesionprep.probe import (
    FEATURE_DIM,
    CurvePoint,
    LinearProbeModel,
    TrainConfig,
    batch_gradient,
    batch_scores,
    extract_features,
    format_curve,
    format_model,
    softmax_predict,
    train_probe,
)
from lesionprep.raster import Image
from test_preprocess import golden_image, traced_peak


def zero_model(dim: int) -> LinearProbeModel:
    return LinearProbeModel(np.zeros(dim + 1))


def random_model(rng, dim: int, scale: float = 1.0) -> LinearProbeModel:
    """theta = w1 - w0 for softmax rows w drawn from N(0, scale^2): each
    entry is N(0, 2 scale^2)."""
    return LinearProbeModel(rng.normal(0, math.sqrt(2) * scale, size=dim + 1))


def saved_softmax(model: LinearProbeModel) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The tokens of ``format_model``'s text, and its (2, d) weight rows and
    its bias row read back with ``float``."""
    text = format_model(model)
    lines = text.splitlines()
    assert len(lines) == 4
    weights = np.array([[float(v) for v in ln.split()] for ln in lines[1:3]])
    return text.split(), weights, np.array([float(v) for v in lines[3].split()])


def cross_entropy(probabilities: np.ndarray, true_label: int) -> float:
    """-ln p[true_label], with p floored at 1e-12."""
    return -math.log(max(float(probabilities[true_label]), 1e-12))


def columns_of(features) -> np.ndarray:
    """(m, d) features as the (d + 1, m) columns the logistic unit reads: each
    ends in a 1, the input of the bias."""
    X = np.asarray(features, dtype=np.float64)
    return np.concatenate([X.T, np.ones((1, len(X)))])


def gradient_check(
    model: LinearProbeModel,
    features: np.ndarray,
    labels: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between the analytic gradient that train_probe
    steps along and central finite differences of the mean cross-entropy,
    over every parameter of the model's logistic unit. Relative error uses a
    1e-6 floor so a near-zero gradient does not blow up the ratio."""
    columns = columns_of(features)
    y = np.asarray(labels, dtype=np.int64)
    if len(y) == 0:
        raise ValueError("batch must be nonempty")
    theta = model.theta
    analytic = batch_gradient(theta, columns, y)

    def loss_at(vec: np.ndarray) -> float:
        return batch_scores(vec, columns, y)[1]

    numeric = np.empty_like(theta)
    for i in range(len(theta)):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += step
        minus[i] -= step
        numeric[i] = (loss_at(plus) - loss_at(minus)) / (2 * step)

    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def uniform_image(r, g, b, size=4):
    arr = np.zeros((size, size, 3), np.uint8)
    arr[:, :, 0], arr[:, :, 1], arr[:, :, 2] = r, g, b
    return Image(arr)


def luma_oracle(r, g, b) -> np.ndarray:
    """BT.601 luma 0.299 R + 0.587 G + 0.114 B rounded half up, from the
    quotient and remainder of the exact integer 1000 Y; broadcasts over the
    three channels."""
    thousand_y = 299 * np.asarray(r, np.int64) + 587 * np.asarray(g, np.int64) + 114 * np.asarray(b, np.int64)
    q, rem = np.divmod(thousand_y, 1000)
    return (q + (rem >= 500)).astype(np.uint8)


def float_luma(r, g, b) -> np.ndarray:
    """floor(0.299 R + 0.587 G + 0.114 B + 0.5) in float64: the luma the edge
    feature took before it was computed in integers."""
    y = 0.299 * np.asarray(r, np.float64) + 0.587 * np.asarray(g, np.float64) + 0.114 * np.asarray(b, np.float64)
    return np.floor(y + 0.5).astype(np.uint8)


def luma(pixel) -> int:
    """The luma that extract_features gives ``pixel``, read back from the edge
    feature of the 1x2 image (pixel, black): both Sobel x responses there are
    -4 Y and both y responses 0, so feature 54 is 4 Y / _SOBEL_MAX."""
    f = extract_features(Image(np.array([[pixel, (0, 0, 0)]], np.uint8)))[54]
    return round(f * probe._SOBEL_MAX / 4)


rgb_arrays = st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
    lambda hw: hnp.arrays(np.uint8, hw + (3,))
)


def edge_oracle(img):
    """Mean Sobel magnitude of the luma, replicate borders, pixel by pixel."""
    g = luma_oracle(img.pixels[:, :, 0], img.pixels[:, :, 1], img.pixels[:, :, 2]).astype(float)
    h, w = g.shape
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    total = 0.0
    for y in range(h):
        for x in range(w):
            gx = gy = 0.0
            for dy in range(-1, 2):
                for dx in range(-1, 2):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    gx += kx[dy + 1][dx + 1] * g[yy, xx]
                    gy += kx[dx + 1][dy + 1] * g[yy, xx]
            total += math.hypot(gx, gy)
    return total / (h * w) / (1020 * math.sqrt(2))




class TestLuma:
    def test_white_and_black(self):
        assert [luma((255, 255, 255)), luma((0, 0, 0))] == [255, 0]

    def test_pure_red_rounds_to_76(self):
        assert luma((255, 0, 0)) == 76  # round(76.245)

    def test_a_tie_rounds_up(self):
        # 0.587 * 36 + 0.114 * 12 is 22.5 exactly; the float64 formula gave 22
        assert luma((0, 36, 12)) == 23

    def test_exact_formula_on_every_triple(self):
        # all 2^24 triples, one 256x256 plane per red level whose rows run
        # over green and whose columns run over blue. The float64 formula is
        # one below on 3,464 of them, each an exact tie that it rounded down;
        # extract_features rounds each of those half up
        levels = np.arange(256)
        green, blue = levels[:, None], levels
        float_ties = []
        for red in range(256):
            exact = luma_oracle(red, green, blue)
            assert np.array_equal(exact, (299 * red + 587 * green + 114 * blue + 500) // 1000), red
            below = exact.astype(int) - float_luma(red, green, blue)
            assert below.min() == 0 and below.max() <= 1, red
            float_ties += [(red, int(g), int(b)) for g, b in zip(*np.nonzero(below))]
        assert len(float_ties) == 3464
        weights = Fraction("0.299"), Fraction("0.587"), Fraction("0.114")
        for pixel in float_ties:
            y = sum(w * v for w, v in zip(weights, pixel))
            assert y.denominator == 2 and luma(pixel) == math.floor(y + Fraction(1, 2)), pixel

    def test_monotone_in_uniform_scaling(self, rng):
        for _ in range(100):
            px = rng.integers(0, 200, size=3)
            assert luma(px + rng.integers(0, 56, size=3)) >= luma(px)


def sobel_oracle(gray):
    """scipy's Sobel responses along x and y with replicate borders."""
    return ndimage.sobel(gray, axis=1, mode="nearest"), ndimage.sobel(gray, axis=0, mode="nearest")


def features_oracle(image: Image) -> np.ndarray:
    """The descriptor by its definition, one pixel at a time where it sums:
    Python-integer sums S and Q of each channel's levels and their squares,
    each mean S / n and std sqrt(n Q - S^2) / n, and the sum in raster order
    of math.sqrt(gx^2 + gy^2) over scipy's Sobel of the float64 luma."""
    pixels = image.pixels
    n = pixels.shape[0] * pixels.shape[1]
    parts = [np.bincount((pixels[:, :, c] // 16).ravel(), minlength=16) / n for c in range(3)]
    channels = [pixels[:, :, c].ravel().tolist() for c in range(3)]
    sums = [sum(v) for v in channels]
    squares = [sum(x * x for x in v) for v in channels]
    stds = [math.sqrt(n * q - s * s) / n / 255.0 for s, q in zip(sums, squares)]
    luma = luma_oracle(pixels[:, :, 0], pixels[:, :, 1], pixels[:, :, 2])
    gx, gy = sobel_oracle(luma.astype(np.float64))
    edge = 0.0
    for square in (gx * gx + gy * gy).ravel().tolist():
        edge += math.sqrt(square)
    return np.concatenate(parts + [[s / n / 255.0 for s in sums], stds, [edge / n / (1020.0 * math.sqrt(2.0))]])


def float_features_oracle(image: Image) -> np.ndarray:
    """The whole-array float descriptor that the exact one stands for: numpy's
    mean and std over a float64 (n, 3) copy of the pixels, and the mean of
    np.hypot over scipy's Sobel of the float64 luma."""
    pixels = image.pixels
    n = pixels.shape[0] * pixels.shape[1]
    parts = [np.bincount((pixels[:, :, c] // 16).ravel(), minlength=16) / n for c in range(3)]
    flat = pixels.reshape(-1, 3).astype(np.float64)
    luma = luma_oracle(pixels[:, :, 0], pixels[:, :, 1], pixels[:, :, 2])
    gx, gy = sobel_oracle(luma.astype(np.float64))
    edge = float(np.mean(np.hypot(gx, gy))) / (1020.0 * math.sqrt(2.0))
    return np.concatenate(parts + [flat.mean(axis=0) / 255.0, flat.std(axis=0) / 255.0, [edge]])


def assert_matches_oracles(image: Image):
    """extract_features equals the exact oracle byte for byte, and the float
    descriptor within 1e-12 relative."""
    got = extract_features(image)
    assert got.tobytes() == features_oracle(image).tobytes()
    np.testing.assert_allclose(got, float_features_oracle(image), rtol=1e-12, atol=0)


@st.composite
def seeded_arrays(draw):
    """(h, w, 3) uint8 images of 1-40 px per side whose values come from a
    drawn set of levels; a seeded numpy draw fills them, which is far
    cheaper than drawing each pixel through hypothesis."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True)), np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return levels[rng.integers(0, len(levels), (h, w, 3))]


@st.composite
def two_valued_arrays(draw):
    """Images whose channels hold only two distinct levels, in any mix: a
    float std's squared deviations then take two values, so the order in
    which they are summed decides its last bits, and n Q - S^2 can be 0."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    low, high = draw(st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True))
    density = draw(st.floats(0, 1))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w, 3)) < density
    return np.where(picks, high, low).astype(np.uint8)


def sigmoid_oracle(t: float) -> float:
    """1 / (1 + exp(-t)), through exp(-|t|) so that nothing overflows."""
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    return math.exp(t) / (1.0 + math.exp(t))


def batches(n: int, config: TrainConfig):
    """The row indices of each iteration's batch, as train_probe documents
    them: one seeded permutation of the n rows, and batch k is its window
    perm[(k m + j) mod n] for j < m = min(batch_size, n)."""
    perm = list(range(n))
    Xoshiro256StarStar(config.seed).shuffle(perm)
    m = min(config.batch_size, n)
    for k in range(config.iterations):
        yield [perm[(k * m + j) % n] for j in range(m)]


def train_probe_oracle(train_features, train_labels, val_features, val_labels, config):
    """The logistic unit's descent one scalar at a time, in Python floats:
    each logit is summed feature by feature and each gradient component row by
    row, in index order; the mean loss is the exact sum over m, rounded once."""
    X = [row + [1.0] for row in np.asarray(train_features, dtype=np.float64).tolist()]
    dim = np.shape(train_features)[1]
    Xv = [row + [1.0] for row in np.asarray(val_features, dtype=np.float64).reshape(-1, dim).tolist()]
    y, yv = [int(v) for v in train_labels], [int(v) for v in val_labels]
    theta = [0.0] * len(X[0])

    def logit(row):
        total = row[0] * theta[0]
        for x, t in zip(row[1:], theta[1:]):
            total += x * t
        return total

    def scores(rows, labels):
        if not rows:
            return math.nan, math.nan
        z = [logit(row) for row in rows]
        hits = sum((t > 0) == (label == 1) for t, label in zip(z, labels))
        losses = [-math.log(max(sigmoid_oracle(t if label else -t), 1e-12)) for t, label in zip(z, labels)]
        return hits / len(rows), float(sum(map(Fraction, losses))) / len(rows)

    curve = []
    for it, idx in enumerate(batches(len(X), config), start=1):
        delta = [sigmoid_oracle(logit(X[i])) - y[i] for i in idx]
        for k in range(len(theta)):
            total = delta[0] * X[idx[0]][k]
            for dj, i in zip(delta[1:], idx[1:]):
                total += dj * X[i][k]
            theta[k] -= 2 * config.learning_rate * (total / len(idx))
        if it % config.eval_interval == 0 or it == config.iterations:
            (ta, tx), (va, vx) = scores(X, y), scores(Xv, yv)
            curve.append(CurvePoint(it, ta, va, tx, vx))
    return LinearProbeModel(theta), curve


def row_major_sum_rows(a: np.ndarray) -> np.ndarray:
    """The rows of the 2-D ``a`` added one at a time, in index order."""
    return np.cumsum(a, axis=0)[-1]


def row_major_logits(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return row_major_sum_rows(np.multiply(rows.T, theta[:, None], order="C"))


def row_major_scores(theta: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    z, malignant = row_major_logits(theta, rows), labels == 1
    p_true = np.maximum(probe._sigmoids(np.where(malignant, z, -z)), 1e-12)
    loss = 0.0 - math.fsum(map(math.log, p_true.tolist()))
    return int(np.count_nonzero((z > 0) == malignant)) / len(z), loss / len(z)


def row_major_gradient(theta: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    delta = probe._sigmoids(row_major_logits(theta, rows))
    delta -= labels
    return row_major_sum_rows(rows * delta[:, None]) / len(delta)


def row_major_train_probe(train_features, train_labels, val_features, val_labels, config):
    """train_probe as it was on (m, d + 1) rows, each a feature vector ending
    in a 1: the same products and sums in the same order, with each logit
    summed over a transposed C-order copy of the rows."""
    X = np.asarray(train_features, dtype=np.float64)
    Xv = np.asarray(val_features, dtype=np.float64).reshape(-1, X.shape[1])
    y, yv = np.asarray(train_labels, dtype=np.int64), np.asarray(val_labels, dtype=np.int64)
    rows, val_rows = (np.concatenate([a, np.ones((len(a), 1))], axis=1) for a in (X, Xv))
    n, m, step = len(X), min(config.batch_size, len(X)), 2 * config.learning_rate
    perm = list(range(n))
    Xoshiro256StarStar(config.seed).shuffle(perm)
    ring = perm + perm[: m - 1]
    ring_rows, ring_labels = rows[ring], y[ring]
    theta = np.zeros(rows.shape[1])
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.iterations + 1):
            start = (it - 1) * m % n
            window = slice(start, start + m)
            theta -= step * row_major_gradient(theta, ring_rows[window], ring_labels[window])
            if it % config.eval_interval == 0 or it == config.iterations:
                train_acc, train_xent = row_major_scores(theta, rows, y)
                val_acc, val_xent = row_major_scores(theta, val_rows, yv) if len(yv) else (math.nan, math.nan)
                curve.append(CurvePoint(it, train_acc, val_acc, train_xent, val_xent))
    return LinearProbeModel(theta), curve


def softmax_oracle(train_features, train_labels, val_features, val_labels, config):
    """The zero-init two-class softmax layer that the logistic unit stands
    for, trained on the same batches with numpy's keepdims softmax and both
    rows' gradients, as train_probe ran before it became one unit. Returns
    the (2, d) weights, the two biases and the curve."""
    X = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    Xv = np.asarray(val_features, dtype=np.float64).reshape(-1, X.shape[1])
    yv = np.asarray(val_labels, dtype=np.int64)

    def probs(features):
        logits = features @ weights.T + bias
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def scores(features, labels):
        if not len(features):
            return math.nan, math.nan
        p = probs(features)
        p_true = np.clip(p[np.arange(len(labels)), labels], 1e-12, None)
        return float(np.mean(p.argmax(axis=1) == labels)), float(np.mean(-np.log(p_true)))

    weights, bias = np.zeros((2, X.shape[1])), np.zeros(2)
    curve = []
    for it, idx in enumerate(batches(len(X), config), start=1):
        delta = probs(X[idx])
        delta[np.arange(len(idx)), y[idx]] -= 1.0
        weights -= config.learning_rate * (delta.T @ X[idx] / len(idx))
        bias -= config.learning_rate * delta.mean(axis=0)
        if it % config.eval_interval == 0 or it == config.iterations:
            (ta, tx), (va, vx) = scores(X, y), scores(Xv, yv)
            curve.append(CurvePoint(it, ta, va, tx, vx))
    return weights, bias, curve


def assert_trains_like_oracle(data, config, oracle=train_probe_oracle):
    model, curve = train_probe(*data, config)
    want_model, want_curve = oracle(*data, config)
    assert format_model(model) == format_model(want_model)
    assert format_curve(curve) == format_curve(want_curve)


def random_training_set(seed, n, d, n_val, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0, scale, (n, d)), rng.integers(0, 2, n),
            rng.uniform(0, scale, (n_val, d)), rng.integers(0, 2, n_val))


@st.composite
def training_runs(draw):
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 55))
    data = random_training_set(draw(st.integers(0, 2**32 - 1)), n, d, draw(st.integers(0, 8)),
                               draw(st.sampled_from([1.0, 30.0])))
    batch = draw(st.one_of(st.integers(1, n), st.just(n), st.integers(n, n + 8)))
    config = TrainConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        learning_rate=draw(st.sampled_from([0.005, 0.5, 4.0])),
        batch_size=batch,
        iterations=draw(st.integers(1, 30)),
        eval_interval=draw(st.integers(1, 12)),
    )
    return data, config


def fortran_order(data):
    """The training set with both feature arrays in Fortran order."""
    X, y, Xv, yv = data
    return np.asfortranarray(X), y, np.asfortranarray(Xv), yv


@st.composite
def scaled_training_runs(draw):
    """1-40 train and 0-10 val rows of 1-8 features in [0, s) for s up to
    1e8, in C or Fortran order, and batches of 1-48 rows: one row, all n rows,
    and windows that wrap."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    data = random_training_set(draw(st.integers(0, 2**32 - 1)), n, d, draw(st.integers(0, 10)),
                               10.0 ** draw(st.floats(0, 8)))
    if draw(st.booleans()):
        data = fortran_order(data)
    config = TrainConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        learning_rate=draw(st.floats(1e-3, 5)),
        batch_size=draw(st.integers(1, 48)),
        iterations=draw(st.integers(1, 200)),
        eval_interval=draw(st.integers(1, 60)),
    )
    return data, config


def make_blobs(rng, n=100, dim=2, sep=0.6):
    half = n // 2
    x0 = rng.normal(0.2, 0.05, size=(half, dim))
    x1 = rng.normal(0.2 + sep, 0.05, size=(n - half, dim))
    X = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * (n - half))
    return X, y


class TestExtractFeatures:
    def test_length_and_histogram_sums(self, rng):
        img = Image(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        f = extract_features(img)
        assert f.shape == (FEATURE_DIM,)
        for c in range(3):
            assert f[16 * c : 16 * (c + 1)].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(f).all()

    def test_uniform_black(self):
        f = extract_features(uniform_image(0, 0, 0))
        assert f[0] == 1.0 and f[1:16].sum() == 0
        assert f[48:55].tolist() == [0.0] * 7

    def test_uniform_mid_gray(self):
        f = extract_features(uniform_image(128, 128, 128))
        for c in range(3):
            assert f[16 * c + 8] == 1.0
        assert f[48] == pytest.approx(128 / 255)
        assert f[51:54].tolist() == [0.0, 0.0, 0.0]
        assert f[54] == 0.0

    def test_two_pixel_black_white(self):
        img = Image(np.array([[[0, 0, 0], [255, 255, 255]]], np.uint8))
        f = extract_features(img)
        for c in range(3):
            assert f[16 * c] == 0.5 and f[16 * c + 15] == 0.5
        assert f[48:51].tolist() == [0.5, 0.5, 0.5]
        assert f[51:54] == pytest.approx(np.full(3, 0.5))
        # Sobel oracle on the 2x1 image with replicate borders: both pixels
        # see a (0 | 255) step, gx = 4*255, gy = 0
        expected_edge = 1020.0 / (1020.0 * math.sqrt(2))
        assert f[54] == pytest.approx(expected_edge)

    @settings(deadline=None)
    @given(rgb_arrays)
    def test_edge_oracle_brute_force(self, pixels):
        img = Image(pixels)
        assert extract_features(img)[54] == pytest.approx(edge_oracle(img), rel=1e-12, abs=0)

    @settings(deadline=None, max_examples=200)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(lambda hw: hnp.arrays(np.uint8, hw)))
    def test_sobel_matches_scipy_bit_for_bit(self, luma):
        for got, want in zip(probe._sobel(luma.astype(np.int32)), sobel_oracle(luma.astype(np.float64))):
            assert got.dtype == np.int32 and got.shape == want.shape
            assert got.astype(np.float64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 40), (2, 1), (40, 1), (40, 40)])
    def test_sobel_matches_scipy_on_thin_planes(self, rng, shape):
        luma = rng.integers(0, 256, size=shape)
        for got, want in zip(probe._sobel(luma.astype(np.int32)), sobel_oracle(luma.astype(np.float64))):
            assert got.astype(np.float64).tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=75)
    @given(seeded_arrays())
    @example(np.zeros((1, 1, 3), np.uint8))
    @example(np.full((1, 40, 3), 255, np.uint8))
    @example(np.arange(120, dtype=np.uint8).reshape(40, 1, 3))
    @example(np.array([[[0, 36, 12], [0, 0, 0]]], np.uint8))  # a luma tie, 22.5
    def test_matches_oracle_byte_for_byte(self, pixels):
        assert_matches_oracles(Image(pixels))

    @settings(deadline=None, max_examples=75)
    @given(two_valued_arrays())
    @example(np.resize(np.array([7, 200], np.uint8), (1, 40, 3)))
    @example(np.resize(np.array([7, 7, 200], np.uint8), (40, 1, 3)))
    @example(np.resize(np.array([0, 255, 255], np.uint8), (2, 1, 3)))
    def test_two_valued_images_match_oracle_byte_for_byte(self, pixels):
        assert_matches_oracles(Image(pixels))

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_every_block_height_matches_oracle_byte_for_byte(self, monkeypatch, rng, rows):
        # heights below, at and across block edges, up to a 1-row last block
        monkeypatch.setattr(probe, "_BLOCK_ROWS", rows)
        for height in range(1, 3 * rows + 2):
            assert_matches_oracles(Image(rng.integers(0, 256, size=(height, 1 + height % 4, 3), dtype=np.uint8)))

    def test_allocates_at_most_1_2_float64_planes(self):
        # one float64 plane of the 224x224 golden image is 401,408 bytes; the
        # peak, about 360 KB, is the buffers and temporaries of one 26-row
        # block (levels and luma in int32, roots, Sobel), and no whole-frame plane
        img = golden_image("hairy")
        assert traced_peak(lambda: extract_features(img)) <= 1.2 * img.height * img.width * 8


class TestSoftmax:
    def test_zero_model_is_uniform(self):
        model = zero_model(3)
        p = softmax_predict(model, np.zeros(3))
        assert p.tolist() == [0.5, 0.5]

    def test_log3_logits(self):
        model = LinearProbeModel(np.array([0.0, -math.log(3)]))
        p = softmax_predict(model, np.zeros(1))
        assert p == pytest.approx([0.75, 0.25])

    def test_sums_to_one(self, rng):
        for _ in range(20):
            model = random_model(rng, 5)
            p = softmax_predict(model, rng.normal(size=5))
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert (p >= 0).all()

    @pytest.mark.parametrize("features, got", [
        (np.zeros(0), "0"), (np.zeros(2), "2"), (np.zeros(4), "4"), (np.zeros((3, 1)), "shape (3, 1)"),
    ])
    def test_refuses_other_than_d_features(self, features, got):
        # an empty vector once broadcast to sigma(sum theta), and 2 features
        # failed inside numpy
        model = LinearProbeModel(np.array([1.0, -2.0, 0.5, 3.0]))
        with pytest.raises(ValueError, match=rf"^expected 3 features, got {re.escape(got)}$"):
            softmax_predict(model, features)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LinearProbeModel(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("shape", [(0,), (2, 3), ()])
    def test_theta_is_one_nonempty_row(self, shape):
        with pytest.raises(ValueError, match="theta must be d \\+ 1 floats"):
            LinearProbeModel(np.zeros(shape))

    def test_theta_is_read_only(self):
        # the model copies what it is given, and its copy cannot change
        given = np.array([1.0, 0.0, 2.0])
        model = LinearProbeModel(given)
        with pytest.raises(ValueError, match="read-only"):
            model.theta[0] = 5.0
        given[0] = 7.0
        assert model.theta.tolist() == [1.0, 0.0, 2.0]


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0

    def test_half(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_quarter(self):
        assert cross_entropy(np.array([0.75, 0.25]), 1) == pytest.approx(math.log(4))

    def test_clamped(self):
        assert cross_entropy(np.array([1.0, 0.0]), 1) == pytest.approx(-math.log(1e-12))


class TestGradientCheck:
    def test_random_instances(self, rng):
        for _ in range(10):
            model = random_model(rng, 6)
            X = rng.normal(size=(8, 6))
            y = rng.integers(0, 2, size=8)
            assert gradient_check(model, X, y) < 1e-5

    def test_symmetric_zero_gradient(self):
        # duplicated points with opposite labels at a zero model: gradient 0
        X = np.tile(np.array([[0.3, 0.7]]), (2, 1))
        y = np.array([0, 1])
        model = zero_model(2)
        assert batch_gradient(model.theta, columns_of(X), y).tolist() == [0.0, 0.0, 0.0]
        assert gradient_check(model, X, y) < 1e-5

    def test_duplicating_batch_keeps_mean_gradient(self, rng):
        theta = rng.normal(size=4)
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        once = batch_gradient(theta, columns_of(X), y)
        twice = batch_gradient(theta, columns_of(np.vstack([X, X])), np.concatenate([y, y]))
        assert once == pytest.approx(twice)

    def test_one_row_and_one_column_sum_in_index_order(self):
        # these values sum to 1 in index order and to 7 in numpy's pairwise
        # reduce: the logit of one (10, 1) column adds over its features, and
        # the gradient of one (1, 10) row, each delta 0.5, over its examples
        theta = np.array([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1e16, 1.0])
        assert probe._logits(theta, np.ones((10, 1))).tolist() == [1.0]
        assert batch_gradient(np.zeros(1), 2 * theta[None, :], np.zeros(10)).tolist() == [0.1]


class TestTraining:
    def test_separable_blobs_reach_perfect_accuracy(self, rng):
        X, y = make_blobs(rng)
        cfg = TrainConfig(seed=11, iterations=5000)
        model, curve = train_probe(X, y, X[:10], y[:10], cfg)
        assert curve[-1].train_accuracy == 1.0
        assert curve[-1].iteration == 5000

    def test_identical_features_stay_undecided(self, rng):
        X = np.tile(np.array([[0.4, 0.6]]), (60, 1))
        y = np.array([0, 1] * 30)
        cfg = TrainConfig(seed=2, iterations=500, eval_interval=100)
        model, curve = train_probe(X, y, X, y, cfg)
        assert abs(curve[-1].train_accuracy - 0.5) <= 0.1
        assert curve[-1].train_cross_entropy >= 0.6

    def test_deterministic_reruns(self, rng):
        X, y = make_blobs(rng, n=40)
        cfg = TrainConfig(seed=5, iterations=200, eval_interval=50)
        m1, c1 = train_probe(X, y, X, y, cfg)
        m2, c2 = train_probe(X, y, X, y, cfg)
        assert np.array_equal(m1.theta, m2.theta)
        assert format_curve(c1) == format_curve(c2)

    def test_full_batch_loss_non_increasing_on_convex_toy(self, rng):
        X, y = make_blobs(rng, n=30)
        cfg = TrainConfig(seed=1, batch_size=30, iterations=300, eval_interval=10)
        _, curve = train_probe(X, y, np.zeros((0, 2)), np.zeros(0, dtype=int), cfg)
        losses = [p.train_cross_entropy for p in curve]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_curve_sampling(self, rng):
        X, y = make_blobs(rng, n=20)
        cfg = TrainConfig(seed=0, iterations=105, eval_interval=50)
        _, curve = train_probe(X, y, X, y, cfg)
        assert [p.iteration for p in curve] == [50, 100, 105]

    def test_curve_points_hold_python_floats(self, rng):
        # a numpy scalar would print as np.float64(1.0) in the CLI's final-point line
        X, y = make_blobs(rng, n=20)
        _, curve = train_probe(X, y, X, y, TrainConfig(seed=0, iterations=3))
        assert {type(v) for p in curve for v in astuple(p)[1:]} == {float}

    def test_diverging_run_is_refused_without_a_warning(self, rng):
        # features near 1e10 make a step of 2e300 times the gradient inf, so
        # theta turns inf and nan; the check on the finished model is the one report
        X, y = make_blobs(rng, n=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^model parameters must be finite$"):
                train_probe(X * 1e10, y, X, y, TrainConfig(seed=0, learning_rate=1e300, iterations=3))

    def test_rejects_empty_train_set(self):
        with pytest.raises(ValueError):
            train_probe(np.zeros((0, 2)), np.zeros(0, int), np.zeros((0, 2)),
                        np.zeros(0, int), TrainConfig(seed=0))

    @settings(deadline=None, max_examples=30)
    @given(training_runs())
    # batch below (windows that wrap: 12 rows in fives), equal to and above
    # n; batch 1; intervals that do not divide the iterations; an empty
    # validation set; one row; the bench's split sizes
    @example((random_training_set(1, 12, 55, 4), TrainConfig(seed=2, batch_size=5, iterations=37, eval_interval=10)))
    @example((random_training_set(3, 12, 55, 4), TrainConfig(seed=4, batch_size=12, iterations=30, eval_interval=7)))
    @example((random_training_set(5, 12, 55, 4), TrainConfig(seed=6, batch_size=20, iterations=30, eval_interval=30)))
    @example((random_training_set(7, 12, 55, 0), TrainConfig(seed=8, batch_size=5, iterations=23, eval_interval=6)))
    @example((random_training_set(9, 1, 1, 1), TrainConfig(seed=10, batch_size=1, iterations=9, eval_interval=4)))
    @example((random_training_set(13, 7, 55, 3), TrainConfig(seed=14, batch_size=1, iterations=20, eval_interval=6)))
    @example((random_training_set(11, 24, 55, 6), TrainConfig(seed=12, iterations=300)))
    def test_matches_oracle_byte_for_byte(self, run):
        assert_trains_like_oracle(*run)

    @settings(deadline=None, max_examples=60)
    @given(scaled_training_runs())
    # one example per window (a logit of 9 features summed alone), windows
    # that wrap (12 rows in fives), one window of all rows, and features in
    # Fortran order: the bytes must not depend on the caller's memory layout
    @example((random_training_set(1, 12, 8, 1, 1e8), TrainConfig(seed=2, learning_rate=5.0, batch_size=1, iterations=40, eval_interval=7)))
    @example((random_training_set(3, 12, 8, 10, 1e3), TrainConfig(seed=4, learning_rate=0.5, batch_size=5, iterations=37, eval_interval=10)))
    @example((random_training_set(5, 40, 8, 0, 30.0), TrainConfig(seed=6, learning_rate=1e-3, batch_size=48, iterations=200, eval_interval=60)))
    @example((fortran_order(random_training_set(5, 40, 8, 3, 30.0)), TrainConfig(seed=6, learning_rate=0.1, batch_size=48, iterations=50, eval_interval=9)))
    def test_matches_row_major_oracle_byte_for_byte(self, run):
        # |gradient| <= 1e8 and step <= 10 keep theta below 2e11: no run diverges
        assert_trains_like_oracle(*run, oracle=row_major_train_probe)

    @pytest.mark.parametrize("seed, n, batch", [(1, 22, 32), (2, 9, 32), (3, 40, 8)],
                             ids=["bench-hairy", "bench-dense", "shuffled"])
    def test_matches_two_class_softmax_within_rounding(self, seed, n, batch):
        # the unit equals the softmax in exact arithmetic, so the two differ
        # only by rounding: measured up to 7.2e-16 of the largest weight and
        # 1.6e-15 relative on the curve over 1000-5000 iterations; the bounds
        # leave a 600-fold margin and still catch a wrong step or sign
        data = random_training_set(seed, n, 55, 6)
        config = TrainConfig(seed=seed, batch_size=batch, iterations=1000, eval_interval=50)
        model, curve = train_probe(*data, config)
        want_weights, want_bias, want_curve = softmax_oracle(*data, config)
        _, weights, bias = saved_softmax(model)  # the rows (-theta/2, theta/2)
        scale = np.abs(want_weights).max()
        assert np.abs(weights - want_weights).max() <= 1e-12 * scale
        assert np.abs(bias - want_bias).max() <= 1e-12 * scale
        for got, ref in zip(curve, want_curve):
            assert (got.iteration, got.train_accuracy, got.val_accuracy) == \
                (ref.iteration, ref.train_accuracy, ref.val_accuracy)
            assert got.train_cross_entropy == pytest.approx(ref.train_cross_entropy, rel=1e-12)
            assert got.val_cross_entropy == pytest.approx(ref.val_cross_entropy, rel=1e-12)

    @pytest.mark.parametrize("n, batch, iterations", [
        (1, 32, 10), (22, 32, 500), (32, 32, 40), (40, 8, 1), (40, 8, 600),
    ])
    def test_draws_one_permutation_per_run(self, rng, monkeypatch, n, batch, iterations):
        # n - 1 draws whether the set fits in one batch or takes many epochs
        draws = []
        below = Xoshiro256StarStar.below
        monkeypatch.setattr(Xoshiro256StarStar, "below", lambda rng, k: draws.append(k) or below(rng, k))
        X, y = make_blobs(rng, n=n)
        train_probe(X, y, X, y, TrainConfig(seed=3, batch_size=batch, iterations=iterations))
        assert draws == list(range(n, 1, -1))


class TestTrainConfig:
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match=rf"^learning_rate must be finite and > 0, got {rate}$"):
            TrainConfig(seed=0, learning_rate=rate)

    def test_learning_rate_must_double_to_a_finite_step(self):
        below = math.nextafter(2.0**1023, 0)  # the largest rate whose step 2 * rate is finite
        assert TrainConfig(seed=0, learning_rate=below).learning_rate == below
        for rate in (2.0**1023, 1e308):
            message = f"2 * learning_rate must be finite, got {rate}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TrainConfig(seed=0, learning_rate=rate)


class TestTrainingInputChecks:
    """Bad inputs are rejected before the first iteration."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def trained(*args):
            raise AssertionError("train_probe ran an iteration before rejecting its input")

        monkeypatch.setattr(probe, "batch_gradient", trained)

    def args(self, **override):
        X = np.zeros((4, 3))
        base = {"train_features": X, "train_labels": np.array([0, 1, 0, 1]),
                "val_features": X[:2], "val_labels": np.array([1, 0])}
        return {**base, **override}

    @pytest.mark.parametrize("val_labels", [np.array([1]), np.array([1, 0, 1])])
    def test_val_length_mismatch(self, val_labels):
        with pytest.raises(ValueError, match=r"val features/labels length mismatch: 2 rows"):
            train_probe(**self.args(val_labels=val_labels), config=TrainConfig(seed=0))

    def test_train_length_mismatch(self):
        with pytest.raises(ValueError, match=r"train features/labels length mismatch: 4 rows"):
            train_probe(**self.args(train_labels=np.array([0, 1, 0])), config=TrainConfig(seed=0))

    def test_val_width_mismatch(self):
        with pytest.raises(ValueError, match=r"val features must be rows of 3 features, got shape \(1, 6\)"):
            train_probe(**self.args(val_features=np.zeros((1, 6)), val_labels=np.array([0])),
                        config=TrainConfig(seed=0))

    @pytest.mark.parametrize("split, labels, bad", [
        ("train", np.array([0, 1, 2, 1]), 2),
        ("train", np.array([0, -1, 0, 1]), -1),
        ("val", np.array([1, 3]), 3),
    ])
    def test_label_outside_zero_one(self, split, labels, bad):
        with pytest.raises(ValueError, match=rf"{split} labels must be 0 or 1, got {bad}$"):
            train_probe(**self.args(**{f"{split}_labels": labels}), config=TrainConfig(seed=0))


class TestPersistence:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: x == 0 or abs(x) >= 2.0**-1021), min_size=2, max_size=60))
    @example([0.5, -0.0, 0.0, 1e308, -1.7976931348623157e308, 2.0**-1021, -3.0])
    def test_saved_softmax_is_exactly_theta(self, theta):
        # a dims line ``2 d``, two weight rows and a bias row whose 17
        # significant digits read back exactly: rows that are exact
        # negatives, no -0 token, and (w1 - w0, b1 - b0) equal to theta bit
        # for bit, with a -0.0 of theta held as 0.0; halving is exact for
        # every value that is 0 or of magnitude at least 2^-1021
        model = LinearProbeModel(np.array(theta))
        tokens, weights, bias = saved_softmax(model)
        assert tokens[:2] == ["2", str(len(theta) - 1)] and len(tokens) == 2 + 2 * len(theta)
        assert np.array_equal(weights[0], 0.0 - weights[1]) and bias[0] == 0.0 - bias[1]
        assert "-0" not in tokens
        back = np.append(weights[1] - weights[0], bias[1] - bias[0])
        assert back.tobytes() == model.theta.tobytes() == (np.array(theta) + 0.0).tobytes()

    def test_curve_header(self):
        text = format_curve([CurvePoint(1, 0.5, 0.5, 0.7, 0.7)])
        assert text.splitlines()[0] == "iter,train_acc,val_acc,train_xent,val_xent"

    def test_loss_helper_matches_pointwise(self, rng):
        model = random_model(rng, 3)
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        expected = np.mean(
            [cross_entropy(softmax_predict(model, x), label) for x, label in zip(X, y)]
        )
        assert batch_scores(model.theta, columns_of(X), y)[1] == pytest.approx(expected, rel=1e-12)

    def test_saved_rows_are_opposite_halves(self, rng):
        # a feature that is 0 in every row keeps a zero weight, saved as 0, not -0
        X = np.column_stack([rng.uniform(0, 1, (10, 3)), np.zeros(10)])
        model, _ = train_probe(X, rng.integers(0, 2, 10), X[:0], np.zeros(0, int),
                               TrainConfig(seed=1, iterations=50))
        tokens, weights, bias = saved_softmax(model)
        assert np.array_equal(weights[0], 0.0 - weights[1])
        assert bias[0] == -bias[1] != 0
        assert model.theta[3] == weights[1, 3] == 0 and "-0" not in tokens

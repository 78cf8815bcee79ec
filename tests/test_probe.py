import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lesionprep.probe import (
    FEATURE_DIM,
    CurvePoint,
    LinearProbeModel,
    TrainConfig,
    batch_loss,
    cross_entropy,
    extract_features,
    format_curve,
    format_model,
    gradient_check,
    softmax_predict,
    train_probe,
)
from lesionprep.raster import Image, to_grayscale


def uniform_image(r, g, b, size=4):
    arr = np.zeros((size, size, 3), np.uint8)
    arr[:, :, 0], arr[:, :, 1], arr[:, :, 2] = r, g, b
    return Image(arr)


rgb_arrays = st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
    lambda hw: hnp.arrays(np.uint8, hw + (3,))
)


def edge_oracle(img):
    """Mean Sobel magnitude of the luma, replicate borders, pixel by pixel."""
    g = to_grayscale(img).values.astype(float)
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


class TestSoftmax:
    def test_zero_model_is_uniform(self):
        model = LinearProbeModel.zeros(3)
        p = softmax_predict(model, np.zeros(3))
        assert p.tolist() == [0.5, 0.5]

    def test_log3_logits(self):
        model = LinearProbeModel(np.zeros((2, 1)), np.array([math.log(3), 0.0]))
        p = softmax_predict(model, np.zeros(1))
        assert p == pytest.approx([0.75, 0.25])

    def test_shift_invariance(self, rng):
        w = rng.normal(size=(2, 4))
        x = rng.normal(size=4)
        p1 = softmax_predict(LinearProbeModel(w, np.array([0.0, 0.0])), x)
        p2 = softmax_predict(LinearProbeModel(w, np.array([100.0, 100.0])), x)
        assert p1 == pytest.approx(p2)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            model = LinearProbeModel(rng.normal(size=(2, 5)), rng.normal(size=2))
            p = softmax_predict(model, rng.normal(size=5))
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert (p >= 0).all()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearProbeModel(np.full((2, 2), np.nan), np.zeros(2))


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
            model = LinearProbeModel(rng.normal(size=(2, 6)), rng.normal(size=2))
            X = rng.normal(size=(8, 6))
            y = rng.integers(0, 2, size=8)
            assert gradient_check(model, X, y) < 1e-5

    def test_symmetric_zero_gradient(self):
        # duplicated points with opposite labels at a zero model: gradient 0
        X = np.tile(np.array([[0.3, 0.7]]), (2, 1))
        y = np.array([0, 1])
        model = LinearProbeModel.zeros(2)
        from lesionprep.probe import batch_gradient

        gw, gb = batch_gradient(model, X, y)
        assert np.abs(gw).max() < 1e-8 and np.abs(gb).max() < 1e-8
        assert gradient_check(model, X, y) < 1e-5

    def test_duplicating_batch_keeps_mean_gradient(self, rng):
        from lesionprep.probe import batch_gradient

        model = LinearProbeModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        gw1, gb1 = batch_gradient(model, X, y)
        gw2, gb2 = batch_gradient(model, np.vstack([X, X]), np.concatenate([y, y]))
        assert gw1 == pytest.approx(gw2)
        assert gb1 == pytest.approx(gb2)


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
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)
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

    def test_rejects_empty_train_set(self):
        with pytest.raises(ValueError):
            train_probe(np.zeros((0, 2)), np.zeros(0, int), np.zeros((0, 2)),
                        np.zeros(0, int), TrainConfig(seed=0))


class TestPersistence:
    def test_model_text_layout(self, rng):
        # dims line, one line per weight row, bias line; 17 significant
        # digits keep every value exact
        model = LinearProbeModel(rng.normal(size=(2, 7)), rng.normal(size=2))
        lines = format_model(model).splitlines()
        assert lines[0] == "2 7"
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
        assert np.array_equal(np.array(rows[:2]), model.weights)
        assert np.array_equal(np.array(rows[2]), model.bias)

    def test_curve_header(self):
        text = format_curve([CurvePoint(1, 0.5, 0.5, 0.7, 0.7)])
        assert text.splitlines()[0] == "iter,train_acc,val_acc,train_xent,val_xent"

    def test_loss_helper_matches_pointwise(self, rng):
        model = LinearProbeModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        expected = np.mean(
            [cross_entropy(softmax_predict(model, x), label) for x, label in zip(X, y)]
        )
        assert batch_loss(model, X, y) == pytest.approx(expected, rel=1e-12)

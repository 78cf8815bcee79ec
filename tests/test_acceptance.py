"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lesionprep.dataset import ManifestEntry, SplitConfig, scan_dataset, split_train_val
from lesionprep.evaluation import f1, metrics_report, paper_rounding, parse_prediction_log
from lesionprep.preprocess import (
    ORIENTATIONS,
    clean_mask,
    detect_hair_mask,
    inpaint_hair,
    smooth_inpainted,
    unsharp_mask,
)
from lesionprep.probe import TrainConfig, format_curve, train_probe
from lesionprep.quality import quality_row
from lesionprep.raster import GrayImage

from test_preprocess import closing_oracle, hairy_scene, morph_close_line
from test_probe import gradient_check, random_model

CORPUS_SIZE = 100


def ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


# ------------------------------------------------------------------ 1

TABLE1 = [
    # (psnr_db, mse, consistent)
    (19.4205, 743.0656, True),
    (21.5481, 655.2738, False),
    (22.1285, 398.3229, True),
    (23.2953, 304.4737, True),
    (22.4291, 371.6785, True),
    (24.0840, 329.9128, False),
    (18.6732, 882.5930, True),
    (19.3975, 847.0221, False),
]


def test_criterion_1_psnr_mse_golden_consistency():
    for db, m, consistent in TABLE1:
        derived = 10 * math.log10(255**2 / m)
        if consistent:
            assert abs(derived - db) <= 0.001, (db, m, derived)
        else:
            assert abs(derived - db) > 0.001, (db, m, derived)
    ok(1, "5 consistent PSNR/MSE rows within 0.001 dB; 3 anomalous rows flagged")


# ------------------------------------------------------------------ 2 & 3

def _load(name):
    return parse_prediction_log((Path(__file__).parent / "data" / name).read_bytes())


def test_criterion_2_table2_accuracy_reproduction():
    processed = metrics_report(_load("table2_processed.csv"))
    original = metrics_report(_load("table2_original.csv"))
    assert processed.tp == 10
    assert processed.accuracy == pytest.approx(100 * 18 / 21)
    assert original.accuracy == pytest.approx(100 * 17 / 21)
    assert paper_rounding(processed)["accuracy"] == 86
    assert paper_rounding(original)["accuracy"] == 81
    ok(2, "test-case logs give 80.95%/85.71% accuracy, rounding to 81%/86%")


def test_criterion_3_f1_reproduction():
    assert math.floor(f1(70.0, 87.5)) == 77
    assert math.floor(f1(80.0, 89.0)) == 84
    ok(3, "F1(70, 87.5) -> 77 and F1(80, 89) -> 84")


# ------------------------------------------------------------------ 4

def test_criterion_4_morphology_axioms():
    start = time.time()
    rng = np.random.default_rng(404)
    for i in range(1000):
        img = GrayImage(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
        for orientation in ORIENTATIONS:
            closed = morph_close_line(img, 11, orientation)
            assert (closed.pixels >= img.pixels).all()
            assert morph_close_line(closed, 11, orientation) == closed
            if i < 5:  # brute-force min/max oracle on a subsample
                assert np.array_equal(
                    closed.pixels, closing_oracle(img.pixels, 11, orientation)
                )
    elapsed = time.time() - start
    assert elapsed < 10
    ok(4, f"extensivity+idempotence on 1000x4 closings, oracle-checked subsample ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 5 & 6

@pytest.fixture(scope="module")
def corpus_results():
    """The first CORPUS_SIZE images of the bench corpus at seed 1 with the
    hairy workload's 5 strokes, each as (hairy, twin, footprint) with its
    pipeline stages."""
    results = []
    for index in range(CORPUS_SIZE):
        scene = hairy_scene(index)
        sharpened = unsharp_mask(scene[0])
        mask = clean_mask(detect_hair_mask(sharpened))
        inpainted = inpaint_hair(sharpened, mask)
        smoothed = smooth_inpainted(inpainted, mask)
        results.append((scene, sharpened, mask, inpainted, smoothed))
    return results


def test_criterion_5_hair_removal_efficacy(corpus_results):
    start = time.time()
    tp = fn = 0
    gains = []
    for (hairy, clean, footprint), _, mask, _, smoothed in corpus_results:
        tp += (mask.bits & footprint).sum()
        fn += (~mask.bits & footprint).sum()
        before = quality_row("before", clean, hairy).psnr
        gains.append(quality_row("after", clean, smoothed).psnr - before)
    recall = tp / (tp + fn)
    mean_gain = float(np.mean(gains))
    assert recall >= 0.90
    assert mean_gain >= 3.0
    assert time.time() - start < 60
    ok(5, f"corpus of {CORPUS_SIZE}: mask recall {recall:.3f}, mean PSNR gain {mean_gain:.2f} dB")


def test_criterion_6_pipeline_locality(corpus_results):
    for _, sharpened, mask, inpainted, smoothed in corpus_results:
        outside = ~mask.bits
        assert np.array_equal(inpainted.pixels[outside], sharpened.pixels[outside])
        assert np.array_equal(smoothed.pixels[outside], inpainted.pixels[outside])
    ok(6, f"inpaint/smooth untouched outside the mask on all {CORPUS_SIZE} images")


# ------------------------------------------------------------------ 7

def test_criterion_7_gradient_check():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        # realistic scales: features live in [0, 1] and trained weights stay
        # moderate, so logits never saturate into the 1e-12 log clamp where
        # the loss is deliberately flat
        model = random_model(rng, 55, scale=0.5)
        X = rng.uniform(0, 1, size=(rng.integers(1, 12), 55))
        y = rng.integers(0, 2, size=len(X))
        worst = max(worst, gradient_check(model, X, y))
    elapsed = time.time() - start
    assert worst < 1e-5
    assert elapsed < 5
    ok(7, f"100 instances, max relative gradient error {worst:.2e} ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 8

def test_criterion_8_probe_training_sanity():
    start = time.time()
    rng = np.random.default_rng(88)
    half = 50
    X = np.vstack(
        [rng.normal(0.2, 0.05, size=(half, 2)), rng.normal(0.8, 0.05, size=(half, 2))]
    )
    y = np.array([0] * half + [1] * half)
    cfg = TrainConfig(seed=12, learning_rate=0.005, batch_size=32, iterations=5000)
    model_a, curve_a = train_probe(X, y, X, y, cfg)
    model_b, curve_b = train_probe(X, y, X, y, cfg)
    assert curve_a[-1].train_accuracy == 1.0
    assert np.array_equal(model_a.theta, model_b.theta)
    assert format_curve(curve_a) == format_curve(curve_b)
    elapsed = time.time() - start
    assert elapsed < 10
    ok(8, f"separable blobs reach accuracy 1.0; reruns byte-identical ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 9

def test_criterion_9_split_contract():
    entries = [
        ManifestEntry(f"train/benign/{i:05d}.ppm", "benign", "train") for i in range(1440)
    ] + [
        ManifestEntry(f"train/malignant/{i:05d}.ppm", "malignant", "train")
        for i in range(1197)
    ]
    a = split_train_val(entries, SplitConfig(seed=2024))
    b = split_train_val(entries, SplitConfig(seed=2024))
    assert a == b
    n_train = sum(e.split == "train" for e in a)
    n_val = sum(e.split == "val" for e in a)
    assert (n_train, n_val) == (1977, 660)
    ok(9, "2637 entries split 1977/660, stable across reruns")


# ------------------------------------------------------------------ 10 (optional)

def test_criterion_10_full_dataset_smoke(tmp_path):
    root = os.environ.get("LESIONPREP_DATASET")
    if not root:
        pytest.skip("set LESIONPREP_DATASET to the dataset root to enable")
    entries = scan_dataset(root)
    assert sum(e.split == "train" for e in entries) == 2637
    assert sum(e.split == "test" for e in entries) == 660

    from lesionprep.cli import main

    manifest = tmp_path / "m.csv"
    subset = [e for e in entries if e.split == "train"][:50]
    manifest.write_text(
        "path,label,split\n" + "".join(f"{e.path},{e.label},{e.split}\n" for e in subset)
    )
    out_root = tmp_path / "pre"
    assert main(["preprocess", "--manifest", str(manifest), "--images-root", root,
                 "--out-root", str(out_root)]) == 0
    report = tmp_path / "q.csv"
    assert main(["quality", "--manifest", str(manifest), "--images-root", root,
                 "--pre-root", str(out_root), "--out", str(report)]) == 0
    rows = report.read_text().splitlines()[1:-1]
    assert len(rows) == 50
    for row in rows:
        psnr_db = row.split(",")[1]
        assert psnr_db != "inf" and float(psnr_db) > 0
    ok(10, "full-dataset smoke: 2637/660 entries, 50-image preprocess+quality run")

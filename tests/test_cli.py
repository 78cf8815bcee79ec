import contextlib
import io
import json
import logging
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lesionprep.cli import main
from lesionprep.raster import Image, encode_netpbm

from synthetic import generate_sample


def write_image(path, seed, bright):
    rng = np.random.default_rng(seed)
    base = 170 if bright else 60
    arr = np.clip(
        base + rng.normal(0, 6, size=(32, 32, 3)), 0, 255
    ).astype(np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_netpbm(Image(arr)))


@pytest.fixture
def dataset_root(tmp_path):
    root = tmp_path / "data"
    for i in range(6):
        write_image(root / "train" / "benign" / f"b{i}.ppm", seed=i, bright=True)
        write_image(root / "train" / "malignant" / f"m{i}.ppm", seed=100 + i, bright=False)
    for i in range(2):
        write_image(root / "test" / "benign" / f"tb{i}.ppm", seed=200 + i, bright=True)
    return root


def run(*argv):
    return main([str(a) for a in argv])


# metrics a hand-edited report.json might carry; `report` must not print them
STALE_METRICS = dict.fromkeys(["accuracy", "sensitivity", "specificity", "precision", "f1"], 1.0)


def write_log(path, tp, fp, fn, tn):
    """A prediction log holding exactly the given confusion counts."""
    rows = (
        [("malignant", "malignant")] * tp
        + [("malignant", "benign")] * fp
        + [("benign", "malignant")] * fn
        + [("benign", "benign")] * tn
    )
    lines = ["case_id,predicted,confidence,truth"]
    lines += [f"{i},{pred},0.9,{truth}" for i, (pred, truth) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


def exact_paper_cells(tp, fp, fn, tn):
    """Published-table cells from the exact metrics: round half up, F1 truncated."""

    def pct(part, whole):
        return None if whole == 0 else Fraction(100 * part, whole)

    exact = {
        "accuracy": pct(tp + tn, tp + fp + fn + tn),
        "sensitivity": pct(tp, tp + fn),
        "specificity": pct(tn, tn + fp),
        "precision": pct(tp, tp + fp),
        "f1": pct(2 * tp, 2 * tp + fp + fn) if tp else None,
    }
    return {
        k: None if v is None else math.floor(v if k == "f1" else v + Fraction(1, 2))
        for k, v in exact.items()
    }


def paper_cells(text):
    """The `paper-rounded:` line of a text report as {metric: int or None}."""
    line = next(ln for ln in text.splitlines() if ln.startswith("paper-rounded:"))
    cells = dict(cell.split("=") for cell in line.split()[1:])
    return {k: None if v == "n/a" else int(v.rstrip("%")) for k, v in cells.items()}


class TestSplit:
    def test_writes_deterministic_manifest(self, dataset_root, tmp_path):
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        assert run("split", "--root", dataset_root, "--seed", 7, "--out", m1) == 0
        assert run("split", "--root", dataset_root, "--seed", 7, "--out", m2) == 0
        assert m1.read_bytes() == m2.read_bytes()
        lines = m1.read_text().splitlines()
        assert lines[0] == "path,label,split"
        assert len(lines) == 15  # 12 train/val + 2 test + header
        splits = [ln.split(",")[2] for ln in lines[1:]]
        assert splits.count("test") == 2
        assert splits.count("val") == 4  # 6 - floor(6*0.75) per class

    def test_missing_root_is_data_error(self, tmp_path):
        assert run("split", "--root", tmp_path / "nope", "--seed", 1,
                   "--out", tmp_path / "m.csv") == 2

    def test_missing_seed_is_usage_error(self, dataset_root, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("split", "--root", dataset_root, "--out", tmp_path / "m.csv")
        assert exc.value.code == 1


class TestPreprocess:
    def test_outputs_and_determinism(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 1, "--out", manifest)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        for out, jobs in ((out1, 1), (out2, 2)):
            assert run("preprocess", "--manifest", manifest, "--images-root",
                       dataset_root, "--out-root", out, "--jobs", jobs) == 0
        pre1 = sorted(p.relative_to(out1) for p in out1.rglob("*.pre.ppm"))
        assert len(pre1) == 14
        assert sorted(p.relative_to(out2) for p in out2.rglob("*.pre.ppm")) == pre1
        for rel in pre1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        masks = list(out1.rglob("*.mask.pgm"))
        assert len(masks) == 14
        log_lines = (out1 / "preprocess_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 14
        rec = json.loads(log_lines[0])
        assert {"path", "config", "masked_pixels"} <= set(rec)
        assert (out1 / "preprocess_log.jsonl").read_bytes() == (
            out2 / "preprocess_log.jsonl"
        ).read_bytes()

    def test_image_shorter_than_the_se(self, tmp_path):
        # 3 px tall: the 11 px vertical and diagonal SEs overhang both borders
        arr = np.random.default_rng(3).integers(0, 256, size=(3, 50, 3), dtype=np.uint8)
        (tmp_path / "thin.ppm").write_bytes(encode_netpbm(Image(arr)))
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\nthin.ppm,benign,train\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out") == 0
        assert (tmp_path / "out" / "thin.pre.ppm").exists()

    def test_empty_manifest_warns_and_succeeds(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out") == 0

    def test_unreadable_path_is_data_error(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\nmissing.ppm,benign,train\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out") == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\n")
        with pytest.raises(SystemExit) as exc:
            run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                "--out-root", tmp_path / "out", "--jobs", jobs)
        assert exc.value.code == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestQuality:
    def test_identity_pair_reports_inf(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\ntrain/benign/b0.ppm,benign,train\n")
        pre_root = tmp_path / "pre"
        target = pre_root / "train" / "benign" / "b0.pre.ppm"
        target.parent.mkdir(parents=True)
        target.write_bytes((dataset_root / "train" / "benign" / "b0.ppm").read_bytes())
        out = tmp_path / "q.csv"
        assert run("quality", "--manifest", manifest, "--images-root", dataset_root,
                   "--pre-root", pre_root, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("train/benign/b0.ppm,inf,0.0000,0,1.0000,32,32")

    def test_full_round(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 1, "--out", manifest)
        pre_root = tmp_path / "pre"
        run("preprocess", "--manifest", manifest, "--images-root", dataset_root,
            "--out-root", pre_root)
        out = tmp_path / "q.csv"
        assert run("quality", "--manifest", manifest, "--images-root", dataset_root,
                   "--pre-root", pre_root, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 16  # header + 14 rows + mean
        assert lines[-1].startswith("mean,")

    def test_missing_counterpart_is_data_error(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\ntrain/benign/b0.ppm,benign,train\n")
        assert run("quality", "--manifest", manifest, "--images-root", dataset_root,
                   "--pre-root", tmp_path / "nowhere") == 2


class TestTrainProbe:
    def test_toy_run_writes_model_and_curve(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)
        model_out = tmp_path / "model.txt"
        curve_out = tmp_path / "curve.csv"
        svg_out = tmp_path / "curve.svg"
        assert run("train-probe", "--manifest", manifest, "--images-root", dataset_root,
                   "--iterations", 300, "--eval-interval", 100, "--seed", 9,
                   "--model-out", model_out, "--curve-out", curve_out,
                   "--render-svg", svg_out) == 0
        assert model_out.exists() and svg_out.exists()
        lines = curve_out.read_text().splitlines()
        assert lines[0] == "iter,train_acc,val_acc,train_xent,val_xent"
        assert lines[-1].startswith("300,")
        # bright-vs-dark classes are trivially separable
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_rerun_byte_identical(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)
        outs = []
        for tag in ("a", "b"):
            model_out = tmp_path / f"model_{tag}.txt"
            curve_out = tmp_path / f"curve_{tag}.csv"
            run("train-probe", "--manifest", manifest, "--images-root", dataset_root,
                "--iterations", 120, "--eval-interval", 40, "--seed", 5,
                "--model-out", model_out, "--curve-out", curve_out)
            outs.append((model_out.read_bytes(), curve_out.read_bytes()))
        assert outs[0] == outs[1]


class TestEvalAndReport:
    def test_eval_table2_processed(self, data_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run("eval", "--log", data_dir / "table2_processed.csv", "--out", out,
                   "--paper-rounding") == 0
        payload = json.loads(out.read_text())
        assert payload["confusion"] == {"tp": 10, "fp": 2, "fn": 1, "tn": 8}
        assert payload["metrics"]["accuracy"] == 85.71
        assert payload["paper_rounded"]["accuracy"] == 86
        assert run("report", out) == 0

    @settings(max_examples=60, deadline=None)
    @given(tp=st.integers(0, 120), fp=st.integers(0, 120),
           fn=st.integers(0, 120), tn=st.integers(0, 120))
    @example(tp=1, fp=1, fn=22, tn=0)
    @example(tp=1, fp=80, fn=119, tn=5)
    def test_paper_rounding_is_exact(self, tp, fp, fn, tn):
        # the examples once printed f1=7% from eval (float F1 truncated; the
        # exact value is 8 %) and f1=1% from report (the 2-decimal JSON
        # re-rounded; the exact value is 200/201 %)
        assume(tp + fp + fn + tn > 0)
        expected = exact_paper_cells(tp, fp, fn, tn)
        with tempfile.TemporaryDirectory() as tmp:
            log, out = Path(tmp) / "log.csv", Path(tmp) / "report.json"
            write_log(log, tp, fp, fn, tn)
            err, text = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run("eval", "--log", log, "--out", out, "--paper-rounding") == 0
            assert json.loads(out.read_text())["paper_rounded"] == expected
            assert paper_cells(err.getvalue()) == expected
            with contextlib.redirect_stdout(text):
                assert run("report", out, "--paper-rounding") == 0
            assert paper_cells(text.getvalue()) == expected

    def test_report_ignores_stored_metrics(self, tmp_path, capsys):
        saved = tmp_path / "report.json"
        saved.write_text(json.dumps({
            "confusion": {"tp": 10, "fp": 2, "fn": 1, "tn": 8}, "metrics": STALE_METRICS,
        }))
        assert run("report", saved) == 0
        assert "accuracy     85.71%" in capsys.readouterr().out

    @pytest.mark.parametrize("confusion, field", [
        ({"tp": 3, "fp": "3", "fn": 1, "tn": 1}, "fp"),
        ({"tp": 3, "fp": 1, "fn": 1, "tn": -3}, "tn"),
        ({"tp": 3, "fp": 1, "fn": 1.0, "tn": 1}, "fn"),
        ({"tp": True, "fp": 1, "fn": 1, "tn": 1}, "tp"),
        ({"tp": 3, "fp": 1, "fn": 1}, "tn"),
    ], ids=["string", "negative", "float", "bool", "missing"])
    def test_report_bad_count_is_data_error(self, tmp_path, capsys, caplog, confusion, field):
        saved = tmp_path / "report.json"
        saved.write_text(json.dumps({"confusion": confusion, "metrics": STALE_METRICS}))
        with caplog.at_level(logging.ERROR, logger="lesionprep"):
            assert run("report", saved) == 2
        message = caplog.records[-1].getMessage().split(": ", 1)[1]
        assert f"'{field}'" in message or message.startswith(f"{field} ")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_eval_missing_log_is_data_error(self, tmp_path):
        assert run("eval", "--log", tmp_path / "none.csv") == 2

    def test_eval_bad_log_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("case_id,predicted,confidence,truth\n1,what,0.5,benign\n")
        assert run("eval", "--log", bad) == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1


def test_pipeline_end_to_end_on_synthetic(tmp_path):
    # full loop on one generated hairy image: preprocess improves PSNR
    sample = generate_sample(seed=5, size=96)
    root = tmp_path / "data" / "train" / "malignant"
    root.mkdir(parents=True)
    (root / "hairy.ppm").write_bytes(encode_netpbm(sample.hairy))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,split\ntrain/malignant/hairy.ppm,malignant,train\n")
    out_root = tmp_path / "pre"
    assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path / "data",
               "--out-root", out_root) == 0
    from lesionprep.quality import psnr
    from lesionprep.raster import decode_netpbm

    refined = decode_netpbm(
        (out_root / "train" / "malignant" / "hairy.pre.ppm").read_bytes()
    )
    assert psnr(sample.clean, refined) > psnr(sample.clean, sample.hairy)

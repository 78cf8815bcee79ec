import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lesionprep import cli, preprocess, probe, quality
from lesionprep.cli import main
from lesionprep.dataset import ManifestEntry, SplitConfig, format_manifest
from lesionprep.preprocess import PreprocessConfig
from lesionprep.probe import TrainConfig
from lesionprep.raster import Image, encode_netpbm

from test_preprocess import hairy_scene


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


def error_message(err: str) -> str:
    """The message of the ``ERROR`` line that ends a failed command's stderr
    ``err``, in which no traceback was printed."""
    assert "Traceback" not in err and err.endswith("\n")
    line = err[:-1].rpartition("\n")[2]
    assert line.startswith("ERROR ")
    return line.removeprefix("ERROR ")


def snapshot(root):
    """Each file or link under ``root``, by its path, as its link target (False
    when it is no link) and the bytes read through it (False when it leads to
    no file)."""
    return {f: (f.is_symlink() and os.readlink(f), f.is_file() and f.read_bytes())
            for f in root.rglob("*") if f.is_file() or f.is_symlink()}


def refuse_reads(monkeypatch, refused):
    """Fail the test at any image read: the command refuses ``refused`` first."""
    def read(path):
        raise AssertionError(f"read {path} before refusing {refused}")

    monkeypatch.setattr(cli, "_load_image", read)


def fill_the_disk_halfway(monkeypatch):
    """Every ``Path.write_bytes`` writes half its data, then fails as a full disk does."""
    real_write_bytes = Path.write_bytes

    def write_half_then_fail(path, data):
        real_write_bytes(path, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)


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
    """The `paper-rounded:` line of a text report, as `report` prints it or
    as `eval` prints it on ``INFO`` lines, as {metric: int or None}."""
    lines = (ln.removeprefix("INFO ") for ln in text.splitlines())
    line = next(ln for ln in lines if ln.startswith("paper-rounded:"))
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

    def test_unprintable_name_stops_the_chain_at_split(self, dataset_root, tmp_path, capsys):
        write_image(dataset_root / "train" / "benign" / "odd\rname.ppm", seed=9, bright=True)
        manifest = tmp_path / "m.csv"
        chain = [
            ("split", "--root", dataset_root, "--seed", 1, "--out", manifest),
            ("preprocess", "--manifest", manifest, "--images-root", dataset_root,
             "--out-root", tmp_path / "pre"),
        ]
        codes = []
        for argv in chain:  # as `split && preprocess`
            codes.append(run(*argv))
            if codes[-1]:
                break
        assert codes == [2]
        assert repr("train/benign/odd\rname.ppm") in error_message(capsys.readouterr().err)
        assert not manifest.exists()

    def test_non_utf8_name_leaves_out_unchanged(self, dataset_root, tmp_path, capsys):
        name = os.fsdecode(b"\xffbad.ppm")
        try:
            write_image(dataset_root / "train" / "benign" / name, seed=9, bright=True)
        except (OSError, UnicodeEncodeError) as exc:
            pytest.skip(f"this file system refuses the name b'\\xffbad.ppm': {exc}")
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"old")
        assert run("split", "--root", dataset_root, "--seed", 1, "--out", manifest) == 2
        assert repr(f"train/benign/{name}") in error_message(capsys.readouterr().err)
        assert manifest.read_bytes() == b"old"


    @pytest.mark.parametrize("stray, named", [("train/stray.ppm", "train/stray.ppm"),
                                              ("Test/malignant/t.ppm", "Test")])
    def test_image_outside_the_layout_is_data_error(self, dataset_root, tmp_path, capsys,
                                                     stray, named):
        write_image(dataset_root / stray, seed=9, bright=True)
        manifest = tmp_path / "m.csv"
        assert run("split", "--root", dataset_root, "--seed", 1, "--out", manifest) == 2
        assert repr(named) in error_message(capsys.readouterr().err)
        assert not manifest.exists()


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

    def test_empty_manifest_warns_and_succeeds(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out") == 0
        assert capsys.readouterr().err.endswith("\nWARNING empty manifest: nothing to do\n")

    def test_unreadable_path_is_data_error(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\nmissing.ppm,benign,train\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out") == 2

    def test_pipeline_error_names_the_image(self, tmp_path, capsys, monkeypatch):
        write_image(tmp_path / "a.ppm", seed=1, bright=True)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\na.ppm,benign,train\n")

        def fail(image, config):
            raise ValueError("pipeline exploded")

        monkeypatch.setattr(preprocess, "preprocess_pipeline", fail)
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out", "--jobs", 1) == 2
        message = error_message(capsys.readouterr().err)
        assert str(tmp_path / "a.ppm") in message and "pipeline exploded" in message

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_truncated_image_among_good_ones_is_a_data_error(self, tmp_path, capsys, monkeypatch, jobs):
        # the third of five 32x32 images ends 100 bytes into its 3072-byte
        # payload; two usable CPUs, so that --jobs 2 forks its pool on any host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for i in range(5):
            write_image(tmp_path / "data" / f"i{i}.ppm", seed=i, bright=True)
        bad = tmp_path / "data" / "i2.ppm"
        data = bad.read_bytes()[:-2972]
        bad.write_bytes(data)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\n" + "".join(f"i{i}.ppm,benign,train\n" for i in range(5)))
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path / "data",
                   "--out-root", tmp_path / "out", "--jobs", jobs) == 2
        err = capsys.readouterr().err
        assert err.count("ERROR") == 1
        assert error_message(err) == (
            f"{bad}: truncated payload: expected 3072 bytes, got 100 (byte offset {len(data)})")
        assert not (tmp_path / "out" / "preprocess_log.jsonl").exists()

    @pytest.mark.parametrize("error, reason", [
        (MemoryError("Unable to allocate 18.1 GiB"), "Unable to allocate 18.1 GiB"),
        (MemoryError(), "out of memory"),
    ])
    @pytest.mark.parametrize("command", ["preprocess", "quality", "train-probe"])
    def test_out_of_memory_in_a_stage_is_a_data_error(self, tmp_path, capsys, monkeypatch, error, reason, command):
        write_image(tmp_path / "a.ppm", seed=1, bright=True)
        write_image(tmp_path / "out" / "a.pre.ppm", seed=2, bright=True)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\na.ppm,benign,train\n")

        def fail(*args):
            raise error

        stage, flags, name = {
            "preprocess": ((preprocess, "smooth_inpainted"), ["--out-root", tmp_path / "out"], tmp_path / "a.ppm"),
            "quality": ((quality, "quality_row"), ["--pre-root", tmp_path / "out"], "pair 'a.ppm'"),
            "train-probe": ((probe, "extract_features"), ["--seed", 1, "--model-out", tmp_path / "model.txt",
                                                          "--curve-out", tmp_path / "curve.csv"], tmp_path / "a.ppm"),
        }[command]
        monkeypatch.setattr(*stage, fail)
        assert run(command, "--manifest", manifest, "--images-root", tmp_path, *flags) == 2
        assert error_message(capsys.readouterr().err) == f"{name}: {reason}"

    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch):
        write_image(tmp_path / "a.ppm", seed=1, bright=True)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\na.ppm,benign,train\n")
        out = tmp_path / "out"
        fill_the_disk_halfway(monkeypatch)
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", out, "--jobs", 1) == 2
        monkeypatch.undo()
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_no_sharpen_flag_is_gone(self, tmp_path):
        # --sharpen-amount 0 is the one way to switch sharpening off
        with pytest.raises(SystemExit) as exc:
            run("preprocess", "--manifest", tmp_path / "m.csv", "--images-root", tmp_path,
                "--out-root", tmp_path / "out", "--no-sharpen")
        assert exc.value.code == 1

    @pytest.mark.parametrize("images, affinity, widths", [
        (3, 8, [3]), (3, 2, [2]), (1, 8, []), (3, 1, []), (3, None, [2]),
    ], ids=["3-images", "2-cpus", "1-image", "1-cpu", "no-affinity-call"])
    def test_pool_has_at_most_one_worker_per_image(self, tmp_path, monkeypatch, images, affinity, widths):
        # a fake pool that records its width and maps in this process, so no
        # worker starts; one image or one usable CPU runs serially, with no pool at all.
        # Without an affinity call every one of the 2 CPUs counts
        started = []

        def pool(max_workers):
            started.append(max_workers)
            return contextlib.nullcontext(types.SimpleNamespace(map=map))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
        for i in range(images):
            write_image(tmp_path / "data" / f"i{i}.ppm", seed=i, bright=True)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\n" + "".join(f"i{i}.ppm,benign,train\n" for i in range(images)))
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path / "data",
                   "--out-root", tmp_path / "out", "--jobs", 8) == 0
        assert started == widths
        assert len((tmp_path / "out" / "preprocess_log.jsonl").read_text().splitlines()) == images

    def test_a_killed_worker_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        # each of the 2 workers kills itself, as the OOM killer would; the test process never runs one
        parent = os.getpid()

        def die(image, config):
            assert os.getpid() != parent, "preprocess ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(preprocess, "preprocess_pipeline", die)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for i in range(2):
            write_image(tmp_path / "data" / f"i{i}.ppm", seed=i, bright=True)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\ni0.ppm,benign,train\ni1.ppm,benign,train\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path / "data",
                   "--out-root", tmp_path / "out", "--jobs", 2) == 2
        assert error_message(capsys.readouterr().err).startswith("a --jobs worker died: ")
        assert not (tmp_path / "out" / "preprocess_log.jsonl").exists()

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

    def test_ids_with_csv_specials_read_back_as_one_field(self, dataset_root, tmp_path):
        write_image(dataset_root / "train" / "benign" / 'a,"b".ppm', seed=9, bright=True)
        manifest, pre_root, out = tmp_path / "m.csv", tmp_path / "pre", tmp_path / "q.csv"
        assert run("split", "--root", dataset_root, "--seed", 1, "--out", manifest) == 0
        assert run("preprocess", "--manifest", manifest, "--images-root", dataset_root,
                   "--out-root", pre_root) == 0
        assert run("quality", "--manifest", manifest, "--images-root", dataset_root,
                   "--pre-root", pre_root, "--out", out) == 0
        with out.open(newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 17  # header + 15 images + mean
        assert [len(row) for row in rows] == [7] * 17
        assert 'train/benign/a,"b".ppm' in [row[0] for row in rows]

    def test_size_mismatched_pair_names_it(self, dataset_root, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\ntrain/benign/b0.ppm,benign,train\ntrain/benign/b1.ppm,benign,train\n")
        pre_root = tmp_path / "pre"
        for name, side in (("b0", 32), ("b1", 16)):
            target = pre_root / "train" / "benign" / f"{name}.pre.ppm"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(encode_netpbm(Image(np.zeros((side, side, 3), np.uint8))))
        out = tmp_path / "q.csv"
        assert run("quality", "--manifest", manifest, "--images-root", dataset_root,
                   "--pre-root", pre_root, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "ERROR pair 'train/benign/b1.ppm': dimension mismatch: 32x32 vs 16x16\n"
        assert not out.exists()

    def test_empty_manifest_writes_the_header(self, tmp_path):
        manifest, out = tmp_path / "m.csv", tmp_path / "q.csv"
        manifest.write_text("path,label,split\n")
        assert run("quality", "--manifest", manifest, "--images-root", tmp_path,
                   "--pre-root", tmp_path / "pre", "--out", out) == 0
        assert out.read_text() == "id,psnr_db,mse,maxerr,l2rat,width,height\n"

    def test_missing_counterpart_is_data_error(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\ntrain/benign/b0.ppm,benign,train\n")
        assert run("quality", "--manifest", manifest, "--images-root", dataset_root,
                   "--pre-root", tmp_path / "nowhere") == 2


class TestOutputCollisions:
    """Manifest paths whose outputs resolve to one file, as those of two paths
    that share a stem do; preprocess and quality refuse them, naming the
    entries, before any image is read."""

    # each layout: the images written under data/train/benign, the links
    # under the test's directory, the entries of m.csv, the output roots of
    # preprocess and quality, and the message, given the manifest and the
    # output root. Two entries' outputs resolve to those of the second, and
    # with the link the outputs go beside the inputs; one entry's mask is a
    # link to its own refined image
    COLLIDING = {
        "same-stem": (["a.ppm", "a.pnm"], {}, ["a.ppm", "a.pnm"], ["out", "pre"],
                      "{m}: paths 'train/benign/a.ppm' and 'train/benign/a.pnm' both map to "
                      "{root}/train/benign/a.pre.ppm"),
        "linked-subdirectory": (["y/a.ppm", "y/a.pnm"], {"data/train/benign/x": "y"}, ["x/a.ppm", "y/a.pnm"],
                                ["data", "data"],
                                "{m}: paths 'train/benign/x/a.ppm' and 'train/benign/y/a.pnm' both map to "
                                "{root}/train/benign/y/a.pre.ppm"),
        "own-outputs-linked": (["y/a.ppm"], {"out2/train/benign/y/a.mask.pgm": "a.pre.ppm"}, ["y/a.ppm"],
                               ["out2", "out2"],
                               "{m}: outputs {root}/train/benign/y/a.pre.ppm and {root}/train/benign/y/a.mask.pgm "
                               "of 'train/benign/y/a.ppm' are one file"),
    }

    @pytest.fixture(params=COLLIDING.values(), ids=COLLIDING.keys())
    def colliding(self, request, tmp_path, monkeypatch):
        """The layout's output roots, its message, and its snapshot."""
        images, links, entries, roots, message = request.param
        benign = tmp_path / "data" / "train" / "benign"
        for seed, name in enumerate(images, 1):
            write_image(benign / name, seed=seed, bright=seed == 1)
        for name, target in links.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).symlink_to(target)
        write_image(tmp_path / "pre" / "train" / "benign" / "a.pre.ppm", seed=1, bright=True)
        (tmp_path / "m.csv").write_text("path,label,split\n" + "".join(f"train/benign/{e},benign,train\n"
                                                                     for e in entries))

        refuse_reads(monkeypatch, "the manifest")
        return [tmp_path / root for root in roots], message, snapshot(tmp_path)

    def refused(self, tmp_path, capsys, message, before, root, *argv):
        # one ERROR line naming the entries, and no file or link changed or added
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("ERROR") == 1
        assert error_message(err) == message.format(m=tmp_path / "m.csv", root=root)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_preprocess(self, tmp_path, capsys, colliding, jobs):
        (out, _), message, before = colliding
        self.refused(tmp_path, capsys, message, before, out, "preprocess", "--manifest", tmp_path / "m.csv",
                     "--images-root", tmp_path / "data", "--out-root", out, "--jobs", jobs)
        assert not (tmp_path / "out").exists()

    def test_quality(self, tmp_path, capsys, colliding):
        (_, pre), message, before = colliding
        self.refused(tmp_path, capsys, message, before, pre, "quality", "--manifest", tmp_path / "m.csv",
                     "--images-root", tmp_path / "data", "--pre-root", pre, "--out", tmp_path / "q.csv")
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("output", ["a.pre.ppm", "a.mask.pgm"])
    def test_preprocess_never_writes_over_an_input(self, tmp_path, capsys, monkeypatch, output, jobs):
        # with --out-root equal to --images-root, refining a.ppm would write
        # over the entry listed as its output name, then refine that
        data = tmp_path / "data"
        write_image(data / "train" / "benign" / "a.ppm", seed=1, bright=True)
        write_image(data / "train" / "benign" / output, seed=2, bright=False)
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,label,split\ntrain/benign/a.ppm,benign,train\n"
                            f"train/benign/{output},benign,train\n")
        before = snapshot(data)

        refuse_reads(monkeypatch, "the manifest")
        assert run("preprocess", "--manifest", manifest, "--images-root", data, "--out-root", data,
                   "--jobs", jobs) == 2
        assert error_message(capsys.readouterr().err) == (
            f"{manifest}: output {data / 'train' / 'benign' / output} of 'train/benign/a.ppm' "
            f"would overwrite the input 'train/benign/{output}'")
        assert snapshot(data) == before

    @pytest.fixture
    def linked(self, tmp_path):
        """``data`` holding a.ppm and a.pre.ppm, both listed in ``m.csv``, and
        ``link``, a symlink to ``data``."""
        data = tmp_path / "data"
        write_image(data / "train" / "benign" / "a.ppm", seed=1, bright=True)
        write_image(data / "train" / "benign" / "a.pre.ppm", seed=2, bright=False)
        (tmp_path / "link").symlink_to(data, target_is_directory=True)
        (tmp_path / "m.csv").write_text("path,label,split\ntrain/benign/a.ppm,benign,train\n"
                                        "train/benign/a.pre.ppm,benign,train\n")
        return snapshot(tmp_path)

    def refused_overwrite(self, tmp_path, capsys, before, output, entry, other, *argv):
        # one ERROR line naming both entries, and no file or link changed or added
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("ERROR") == 1
        assert error_message(err) == (
            f"{tmp_path / 'm.csv'}: output {output} of {entry!r} would overwrite the input {other!r}")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("images, out", [("data", "link"), ("link", "data")],
                             ids=["out-root-links-to-images-root", "images-root-links-to-out-root"])
    def test_preprocess_sees_through_symlinks(self, tmp_path, capsys, linked, images, out, jobs):
        self.refused_overwrite(tmp_path, capsys, linked, tmp_path / out / "train" / "benign" / "a.pre.ppm",
                               "train/benign/a.ppm", "train/benign/a.pre.ppm", "preprocess",
                               "--manifest", tmp_path / "m.csv", "--images-root", tmp_path / images,
                               "--out-root", tmp_path / out, "--jobs", jobs)

    def test_quality_refuses_the_same_layout(self, tmp_path, capsys, linked):
        self.refused_overwrite(tmp_path, capsys, linked, tmp_path / "link" / "train" / "benign" / "a.pre.ppm",
                               "train/benign/a.ppm", "train/benign/a.pre.ppm", "quality",
                               "--manifest", tmp_path / "m.csv", "--images-root", tmp_path / "data",
                               "--pre-root", tmp_path / "link", "--out", tmp_path / "q.csv")

    # each layout: a second file in data/ beside a.ppm, the links in data/,
    # and the two entries of m.csv, the first of which has an output that the
    # second is read through
    LINKED_INPUTS = {
        "input-links-to-an-output": ("b.pre.ppm", {"b.ppm": "a.ppm", "x.ppm": "b.pre.ppm"}, "b.ppm", "x.ppm"),
        "listed-input-is-an-output-link": ("c.ppm", {"a.pre.ppm": "c.ppm"}, "a.ppm", "a.pre.ppm"),
        "input-links-through-an-output": ("c.ppm", {"x.ppm": "a.pre.ppm", "a.pre.ppm": "c.ppm"}, "a.ppm", "x.ppm"),
    }

    @pytest.fixture(params=LINKED_INPUTS.values(), ids=LINKED_INPUTS.keys())
    def linked_inputs(self, request, tmp_path):
        """The layout's snapshot, the refused output's path, and its two entries."""
        second, links, entry, other = request.param
        data = tmp_path / "data"
        write_image(data / "a.ppm", seed=1, bright=True)
        write_image(data / second, seed=2, bright=False)
        for name, target in links.items():
            (data / name).symlink_to(target)
        (tmp_path / "m.csv").write_text(f"path,label,split\n{entry},benign,train\n{other},benign,train\n")
        return snapshot(tmp_path), data / f"{Path(entry).stem}.pre.ppm", entry, other

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_preprocess_resolves_an_input_that_is_a_symlink(self, tmp_path, capsys, linked_inputs, jobs):
        data = tmp_path / "data"
        self.refused_overwrite(tmp_path, capsys, *linked_inputs, "preprocess", "--manifest", tmp_path / "m.csv",
                               "--images-root", data, "--out-root", data, "--jobs", jobs)

    def test_quality_resolves_an_input_that_is_a_symlink(self, tmp_path, capsys, linked_inputs):
        data = tmp_path / "data"
        self.refused_overwrite(tmp_path, capsys, *linked_inputs, "quality", "--manifest", tmp_path / "m.csv",
                               "--images-root", data, "--pre-root", data, "--out", tmp_path / "q.csv")

    def test_distinct_stems_beside_each_other_are_kept(self, dataset_root, tmp_path):
        # a.ppm and a.b.ppm have the stems a and a.b
        write_image(dataset_root / "train" / "benign" / "b0.x.ppm", seed=7, bright=True)
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 1, "--out", manifest)
        assert run("preprocess", "--manifest", manifest, "--images-root", dataset_root,
                   "--out-root", tmp_path / "out") == 0
        assert (tmp_path / "out" / "train" / "benign" / "b0.x.pre.ppm").exists()


class TestTrainProbe:
    def test_toy_run_writes_model_and_curve(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)
        model_out = tmp_path / "model.txt"
        curve_out = tmp_path / "curve.csv"
        assert run("train-probe", "--manifest", manifest, "--images-root", dataset_root,
                   "--iterations", 300, "--eval-interval", 100, "--seed", 9,
                   "--model-out", model_out, "--curve-out", curve_out) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "data", "m.csv", "model.txt"]
        lines = curve_out.read_text().splitlines()
        assert lines[0] == "iter,train_acc,val_acc,train_xent,val_xent"
        # accuracy and loss, train and val, each sampled at iterations 100, 200 and 300
        assert [line.split(",")[0] for line in lines[1:]] == ["100", "200", "300"]
        # bright-vs-dark classes are trivially separable
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_curve_without_val_entries(self, dataset_root, tmp_path):
        manifest = tmp_path / "m.csv"
        paths = sorted(p.relative_to(dataset_root).as_posix()
                       for p in (dataset_root / "train").rglob("*.ppm"))
        manifest.write_text("path,label,split\n" + "".join(
            f"{p},{p.split('/')[1]},train\n" for p in paths))
        curve_out = tmp_path / "curve.csv"
        assert run("train-probe", "--manifest", manifest, "--images-root", dataset_root,
                   "--iterations", 200, "--eval-interval", 100, "--seed", 9,
                   "--model-out", tmp_path / "model.txt", "--curve-out", curve_out) == 0
        rows = list(csv.DictReader(curve_out.open()))
        assert [row["iter"] for row in rows] == ["100", "200"]
        for row in rows:
            assert row["val_acc"] == row["val_xent"] == "nan"
            assert math.isfinite(float(row["train_acc"])) and math.isfinite(float(row["train_xent"]))

    def test_render_svg_is_a_usage_error(self, dataset_root, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)
        with pytest.raises(SystemExit) as exc:
            run("train-probe", "--manifest", manifest, "--images-root", dataset_root, "--seed", 9,
                "--model-out", tmp_path / "model.txt", "--curve-out", tmp_path / "curve.csv",
                "--render-svg", tmp_path / "curve.svg")
        assert exc.value.code == 1
        assert "unrecognized arguments: --render-svg" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "m.csv"]

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


    def test_no_train_entries_is_refused_before_any_image_is_read(self, tmp_path, capsys):
        # the val image does not exist: reading it would fail with another message
        manifest = tmp_path / "m.csv"
        manifest.write_text(format_manifest([ManifestEntry("train/benign/gone.ppm", "benign", "val")]))
        assert run("train-probe", "--manifest", manifest, "--images-root", tmp_path, "--seed", 1,
                   "--model-out", tmp_path / "model.txt", "--curve-out", tmp_path / "curve.csv") == 2
        assert error_message(capsys.readouterr().err) == "manifest has no train entries"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    def test_failed_write_keeps_the_old_model(self, dataset_root, tmp_path, monkeypatch):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)
        model_out = tmp_path / "model.txt"
        model_out.write_text("old model\n")
        fill_the_disk_halfway(monkeypatch)
        assert run("train-probe", "--manifest", manifest, "--images-root", dataset_root,
                   "--iterations", 20, "--eval-interval", 10, "--seed", 5,
                   "--model-out", model_out, "--curve-out", tmp_path / "curve.csv") == 2
        monkeypatch.undo()
        assert model_out.read_text() == "old model\n"
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["m.csv", "model.txt"]


class TestConfigFlags:
    """Each config flag sets its dataclass field; an omitted flag keeps the
    dataclass default."""

    @pytest.mark.parametrize("flags,expected", [
        ([], PreprocessConfig()),
        (["--sharpen-sigma", 1.5, "--sharpen-amount", 0, "--sharpen-threshold", 3,
          "--se-length", 9, "--hair-threshold", 12, "--min-component-span", 7,
          "--max-thinness", 0.25, "--interp-margin", 1, "--median-window", 3,
          "--no-hair-removal"],
         PreprocessConfig(sharpen_sigma=1.5, sharpen_amount=0.0, sharpen_threshold=3,
                          se_length=9, hair_threshold=12, min_component_span=7,
                          max_thinness=0.25, interp_margin=1, median_window=3,
                          hair_removal_enabled=False)),
    ])
    def test_preprocess(self, tmp_path, flags, expected):
        write_image(tmp_path / "a.ppm", seed=1, bright=True)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\na.ppm,benign,train\n")
        assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path,
                   "--out-root", tmp_path / "out", *flags) == 0
        record = json.loads((tmp_path / "out" / "preprocess_log.jsonl").read_text())
        assert record["config"] == dataclasses.asdict(expected)

    @pytest.mark.parametrize("flags,expected", [
        ([], SplitConfig(seed=4)),
        (["--fraction", 0.5], SplitConfig(seed=4, train_fraction=0.5)),
    ])
    def test_split(self, dataset_root, tmp_path, capsys, flags, expected):
        assert run("split", "--root", dataset_root, "--seed", 4,
                   "--out", tmp_path / "m.csv", *flags) == 0
        assert f"INFO split config: {expected}" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("flags,expected", [
        ([], TrainConfig(seed=4)),
        (["--learning-rate", 0.1, "--batch-size", 8, "--iterations", 30, "--eval-interval", 10],
         TrainConfig(4, 0.1, 8, 30, 10)),
    ])
    def test_train_probe(self, dataset_root, tmp_path, capsys, flags, expected):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)
        assert run("train-probe", "--manifest", manifest, "--images-root", dataset_root,
                   "--seed", 4, "--model-out", tmp_path / "model.txt",
                   "--curve-out", tmp_path / "curve.csv", *flags) == 0
        assert f"INFO train config: {expected}" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("value, command, flag, message", [
        *((value, *row) for value in ["nan", "inf", "-inf"] for row in [
            ("preprocess", "--sharpen-sigma", "sharpen_sigma must be finite"),
            ("preprocess", "--sharpen-amount", "sharpen_amount must be finite"),
            ("preprocess", "--max-thinness", "max_thinness must be in (0, 1]"),
            ("train-probe", "--learning-rate", "learning_rate must be finite and > 0"),
        ]),
        # each step moves by 2 * learning_rate, which is inf
        ("1e308", "train-probe", "--learning-rate", "2 * learning_rate must be finite"),
    ])
    def test_non_finite_value_exits_2_before_any_image(self, dataset_root, tmp_path, monkeypatch, capsys,
                                                       value, command, flag, message):
        manifest = tmp_path / "m.csv"
        run("split", "--root", dataset_root, "--seed", 3, "--out", manifest)

        refuse_reads(monkeypatch, f"{flag} {value}")
        outputs = {"preprocess": ["--out-root", tmp_path / "out"],
                   "train-probe": ["--seed", 1, "--model-out", tmp_path / "model.txt",
                                   "--curve-out", tmp_path / "curve.csv"]}[command]
        assert run(command, "--manifest", manifest, "--images-root", dataset_root,
                   *outputs, f"{flag}={value}") == 2
        assert error_message(capsys.readouterr().err) == f"{message}, got {float(value)}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "m.csv"]


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
    def test_report_bad_count_is_data_error(self, tmp_path, capsys, confusion, field):
        saved = tmp_path / "report.json"
        saved.write_text(json.dumps({"confusion": confusion, "metrics": STALE_METRICS}))
        assert run("report", saved) == 2
        captured = capsys.readouterr()
        message = error_message(captured.err).split(": ", 1)[1]
        assert f"'{field}'" in message or message.startswith(f"{field} ")
        assert captured.out == ""

    def test_report_nested_too_deep_is_data_error(self, tmp_path, capsys):
        saved = tmp_path / "report.json"
        saved.write_text("[" * 100000 + "]" * 100000)
        assert run("report", saved) == 2
        captured = capsys.readouterr()
        assert error_message(captured.err).startswith(f"{saved}: maximum recursion depth exceeded")
        assert captured.out == ""

    def test_eval_missing_log_is_data_error(self, tmp_path):
        assert run("eval", "--log", tmp_path / "none.csv") == 2

    def test_eval_bad_log_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("case_id,predicted,confidence,truth\n1,what,0.5,benign\n")
        assert run("eval", "--log", bad) == 2

    @pytest.mark.parametrize("data, problem", [
        (b"case_id,predicted,confidence,truth\n1,benign,0.9,ben\rign\n", "line 2: new-line"),
        (b"case_id,predicted,confidence,truth\n1,benign,0.9,\xffbenign\n", "not UTF-8"),
    ], ids=["bare-cr", "not-utf8"])
    def test_eval_malformed_log_names_the_path(self, tmp_path, capsys, data, problem):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        assert run("eval", "--log", bad) == 2
        assert error_message(capsys.readouterr().err).startswith(f"{bad}: {problem}")

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1


# the commands that join manifest paths to --images-root, with flags that
# write relative to the working directory
manifest_commands = pytest.mark.parametrize("command, flags", [
    ("preprocess", ["--out-root", "out"]),
    ("quality", ["--pre-root", "pre"]),
    ("train-probe", ["--seed", 1, "--model-out", "model.txt", "--curve-out", "curve.csv"]),
], ids=["preprocess", "quality", "train-probe"])


@manifest_commands
@pytest.mark.parametrize("data, problem", [
    (b"path,label,split\na.ppm,benign\n", "line 2: expected 3 fields"),
    (b"path,label,split\na.ppm,ben\rign,train\n", "line 2: "),
    (b"path,label,split\na.ppm,benign,tr\xffain\n", "not UTF-8: 'utf-8' codec"),
], ids=["short-row", "bare-cr", "not-utf8"])
def test_malformed_manifest_names_the_path(tmp_path, monkeypatch, capsys,
                                           command, flags, data, problem):
    monkeypatch.chdir(tmp_path)  # the relative output paths in `flags`
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(data)
    assert run(command, "--manifest", manifest, "--images-root", tmp_path, *flags) == 2
    assert error_message(capsys.readouterr().err).startswith(f"{manifest}: {problem}")


@manifest_commands
@pytest.mark.parametrize("bad", ["../x.ppm", "absolute", "", "a/../../x.ppm"])
def test_manifest_path_outside_the_root_is_refused(tmp_path, monkeypatch, capsys, command, flags, bad):
    # every file a bad path could reach exists, so only the path rule stops
    # the command; the good entry comes first, and nothing may be written
    monkeypatch.chdir(tmp_path)
    bad = str(tmp_path / "x.ppm") if bad == "absolute" else bad
    for i, path in enumerate(["images/a.ppm", "x.ppm", "pre/a.pre.ppm", "x.pre.ppm"]):
        write_image(tmp_path / path, seed=i, bright=i % 2 == 0)
    (tmp_path / "m.csv").write_text(format_manifest([ManifestEntry("a.ppm", "benign", "train"),
                                                     ManifestEntry(bad, "malignant", "train")]))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert run(command, "--manifest", "m.csv", "--images-root", "images", *flags) == 2
    assert error_message(capsys.readouterr().err).startswith(f"m.csv: path {bad!r} must be relative")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert sorted(tmp_path.rglob("*")) == sorted([*before, tmp_path / "images", tmp_path / "pre"])


def fresh(cwd, *args, **env):
    """``python args`` run in a new interpreter in ``cwd``, this package
    first on its path, with stdout and stderr captured as bytes; ``env`` sets
    variables, or unsets those given as None."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    environ = {k: v for k, v in dict(os.environ, PYTHONPATH=path, **env).items() if v is not None}
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=environ, capture_output=True, timeout=120)


def test_stderr_bytes_in_a_fresh_interpreter(dataset_root, tmp_path):
    # relative paths, so that the bytes do not depend on tmp_path
    done = fresh(tmp_path, "-m", "lesionprep.cli", "split", "--root", "data", "--seed", 3, "--out", "m.csv")
    assert (done.returncode, done.stderr) == (0, b"INFO split config: SplitConfig(seed=3, train_fraction=0.75)\n"
                                                 b"INFO wrote m.csv: {'train': 8, 'val': 4, 'test': 2}\n")
    failed = fresh(tmp_path, "-m", "lesionprep.cli", "report", "gone.json")
    assert (failed.returncode, failed.stderr) == (
        2, b"ERROR gone.json: [Errno 2] No such file or directory: 'gone.json'\n")


@pytest.mark.parametrize("argv", [
    ["split", "--root", "data", "--seed", 3, "--out", "nodir/m.csv"],
    ["eval", "--log", "log.csv", "--out", "nodir/r.json"],
], ids=["split", "eval"])
def test_failed_write_names_the_output(dataset_root, tmp_path, argv):
    # nodir/ does not exist; the temp file beside the output holds the pid in
    # its name, so an error naming it would differ from run to run
    write_log(tmp_path / "log.csv", tp=5, fp=2, fn=1, tn=7)
    first, second = (fresh(tmp_path, "-m", "lesionprep.cli", *argv) for _ in range(2))
    assert (first.returncode, second.returncode) == (2, 2)
    assert first.stderr == second.stderr
    assert error_message(first.stderr.decode()) == f"[Errno 2] No such file or directory: '{argv[-1]}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "log.csv"]


def test_main_leaves_the_root_logger_alone(tmp_path):
    # a fresh interpreter, because pytest gives the root logger handlers of its own
    script = ("import logging; from lesionprep.cli import main; root = logging.getLogger()\n"
              "print(root.handlers, logging.getLevelName(root.level))\n"
              "main(['report', 'gone.json'])\n"
              "print(root.handlers, logging.getLevelName(root.level))\n")
    assert fresh(tmp_path, "-c", script).stdout.decode().splitlines() == ["[] WARNING", "[] WARNING"]


@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)], ids=["default", "user-set"])
def test_a_numpy_step_runs_one_openblas_thread_unless_the_user_sets_more(dataset_root, tmp_path, setting, threads):
    # quality on two identity pairs; the thread count is read after main returns
    (tmp_path / "m.csv").write_text("path,label,split\ntrain/benign/b0.ppm,benign,train\n"
                                    "train/benign/b1.ppm,benign,train\n")
    for name in ("b0", "b1"):
        pre = tmp_path / "pre" / "train" / "benign" / f"{name}.pre.ppm"
        pre.parent.mkdir(parents=True, exist_ok=True)
        pre.write_bytes((dataset_root / "train" / "benign" / f"{name}.ppm").read_bytes())
    script = ("import ctypes, sys; from lesionprep.cli import main\n"
              "code = main(['quality', '--manifest', 'm.csv', '--images-root', 'data', '--pre-root', 'pre',"
              " '--out', 'q.csv'])\n"
              f"sys.path.insert(0, {str(Path(__file__).parent)!r}); from test_golden import openblas_function\n"
              "threads = openblas_function('get_num_threads', ctypes.c_int)\n"
              "print(code, threads and threads())\n")
    done = fresh(tmp_path, "-c", script, OPENBLAS_NUM_THREADS=setting)
    assert done.returncode == 0, done.stderr.decode()
    code, got = done.stdout.decode().split()
    if got == "None":
        pytest.skip("numpy's OpenBLAS is not among the process's mappings")
    assert (code, int(got)) == ("0", threads)


def test_verbose_is_an_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        run("--verbose", "split", "--root", ".", "--seed", 1, "--out", "m.csv")
    assert exc.value.code == 1


def test_pipeline_end_to_end_on_synthetic(tmp_path):
    # full loop on one generated 224x224 hairy image: preprocess improves PSNR
    hairy, clean, _ = hairy_scene(5)
    root = tmp_path / "data" / "train" / "malignant"
    root.mkdir(parents=True)
    (root / "hairy.ppm").write_bytes(encode_netpbm(hairy))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,split\ntrain/malignant/hairy.ppm,malignant,train\n")
    out_root = tmp_path / "pre"
    assert run("preprocess", "--manifest", manifest, "--images-root", tmp_path / "data",
               "--out-root", out_root) == 0
    from lesionprep.quality import quality_row
    from lesionprep.raster import decode_netpbm

    refined = decode_netpbm(
        (out_root / "train" / "malignant" / "hairy.pre.ppm").read_bytes()
    )
    before = quality_row("before", clean, hairy).psnr
    assert quality_row("after", clean, refined).psnr > before

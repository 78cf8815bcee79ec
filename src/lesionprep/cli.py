"""Command-line front end tying the modules together.

Subcommands: preprocess, quality, split, train-probe, eval, report.
Exit codes: 0 success, 1 usage error, 2 data error. All randomness flows
through explicit --seed flags; reruns with the same inputs and flags produce
byte-identical outputs regardless of --jobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dataset, evaluation, probe, quality
from .preprocess import PreprocessConfig, preprocess_pipeline
from .raster import GrayImage, Image, decode_netpbm, encode_netpbm

log = logging.getLogger("lesionprep")

EXIT_USAGE = 1
EXIT_DATA = 2


class DataError(Exception):
    """Input data problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_image(path: Path) -> Image:
    try:
        img = decode_netpbm(path.read_bytes())
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not isinstance(img, Image):
        raise DataError(f"{path}: expected a color (P6) image")
    return img


def _config_from_args(args) -> PreprocessConfig:
    return PreprocessConfig(
        sharpen_sigma=args.sharpen_sigma,
        sharpen_amount=args.sharpen_amount,
        sharpen_threshold=args.sharpen_threshold,
        se_length=args.se_length,
        hair_threshold=args.hair_threshold,
        min_component_span=args.min_component_span,
        max_thinness=args.max_thinness,
        interp_margin=args.interp_margin,
        median_window=args.median_window,
        sharpen_enabled=not args.no_sharpen,
        hair_removal_enabled=not args.no_hair_removal,
    )


def _out_paths(out_root: Path, rel_path: str) -> tuple[Path, Path]:
    rel = Path(rel_path)
    stem_dir = out_root / rel.parent
    return stem_dir / f"{rel.stem}.pre.ppm", stem_dir / f"{rel.stem}.mask.pgm"


def _preprocess_one(task):
    """Worker: returns (rel_path, masked_pixels) or raises DataError."""
    rel_path, src_path, pre_path, mask_path, config = task
    image = _load_image(Path(src_path))
    refined, mask = preprocess_pipeline(image, config)
    Path(pre_path).parent.mkdir(parents=True, exist_ok=True)
    Path(pre_path).write_bytes(encode_netpbm(refined))
    mask_u8 = np.where(mask.bits, 255, 0).astype(np.uint8)
    Path(mask_path).write_bytes(encode_netpbm(GrayImage(mask_u8)))
    return rel_path, mask.count()


def cmd_preprocess(args) -> int:
    config = _config_from_args(args)
    log.info("preprocess config: %s", config)
    entries = dataset.read_manifest(args.manifest)
    images_root = Path(args.images_root)
    out_root = Path(args.out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    if not entries:
        log.warning("empty manifest: nothing to do")
        return 0
    tasks = []
    for e in entries:
        pre_path, mask_path = _out_paths(out_root, e.path)
        tasks.append((e.path, str(images_root / e.path), str(pre_path), str(mask_path), config))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_preprocess_one, tasks))
    else:
        results = [_preprocess_one(t) for t in tasks]
    sidecar = out_root / "preprocess_log.jsonl"
    config_dict = dataclasses.asdict(config)
    with sidecar.open("w") as f:
        for rel_path, masked in results:  # manifest order, pool-width independent
            f.write(json.dumps({"path": rel_path, "config": config_dict,
                                "masked_pixels": masked}, sort_keys=True) + "\n")
    log.info("preprocessed %d images into %s", len(results), out_root)
    return 0


def cmd_quality(args) -> int:
    entries = dataset.read_manifest(args.manifest)
    images_root = Path(args.images_root)
    pre_root = Path(args.pre_root)
    pairs = []
    for e in entries:
        pre_path, _ = _out_paths(pre_root, e.path)
        if not pre_path.exists():
            raise DataError(f"missing preprocessed counterpart {pre_path}")
        pairs.append((e.path, _load_image(images_root / e.path), _load_image(pre_path)))
    rows = quality.quality_report(pairs)
    text = quality.format_quality_report(rows, include_mean=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_split(args) -> int:
    config = dataset.SplitConfig(seed=args.seed, train_fraction=args.fraction)
    log.info("split config: %s", config)
    try:
        entries = dataset.scan_dataset(args.root)
    except (FileNotFoundError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    train = [e for e in entries if e.split == "train"]
    rest = [e for e in entries if e.split != "train"]
    out = dataset.split_train_val(train, config) + rest
    dataset.write_manifest(out, args.out)
    counts = {s: sum(1 for e in out if e.split == s) for s in dataset.SPLITS}
    log.info("wrote %s: %s", args.out, counts)
    return 0


def _features_for(entries, images_root: Path):
    labels = {"benign": 0, "malignant": 1}
    X, y = [], []
    for e in entries:
        X.append(probe.extract_features(_load_image(images_root / e.path)))
        y.append(labels[e.label])
    if not X:
        return np.zeros((0, probe.FEATURE_DIM)), np.zeros(0, dtype=np.int64)
    return np.array(X), np.array(y, dtype=np.int64)


def _render_curve_svg(curve, path: Path) -> None:
    """Minimal line rendering of the accuracy and loss curves."""
    w, h = 640, 400
    max_it = max(p.iteration for p in curve) or 1
    max_loss = max(
        [p.train_cross_entropy for p in curve]
        + [p.val_cross_entropy for p in curve if p.val_cross_entropy == p.val_cross_entropy]
    ) or 1.0

    def poly(values, scale, color):
        pts = " ".join(
            f"{10 + 620 * p.iteration / max_it:.1f},{h - 10 - 380 * v / scale:.1f}"
            for p, v in zip(curve, values)
            if v == v
        )
        return f'<polyline fill="none" stroke="{color}" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        poly([p.train_accuracy for p in curve], 1.0, "blue"),
        poly([p.val_accuracy for p in curve], 1.0, "green"),
        poly([p.train_cross_entropy for p in curve], max_loss, "red"),
        poly([p.val_cross_entropy for p in curve], max_loss, "orange"),
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n")


def cmd_train_probe(args) -> int:
    config = probe.TrainConfig(
        seed=args.seed,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        iterations=args.iterations,
        eval_interval=args.eval_interval,
    )
    log.info("train config: %s", config)
    entries = dataset.read_manifest(args.manifest)
    images_root = Path(args.images_root)
    X_train, y_train = _features_for([e for e in entries if e.split == "train"], images_root)
    X_val, y_val = _features_for([e for e in entries if e.split == "val"], images_root)
    if len(X_train) == 0:
        raise DataError("manifest has no train entries")
    model, curve = probe.train_probe(X_train, y_train, X_val, y_val, config)
    probe.save_model(model, args.model_out)
    Path(args.curve_out).write_text(probe.format_curve(curve))
    if args.render_svg:
        _render_curve_svg(curve, Path(args.render_svg))
    log.info("final point: %s", curve[-1])
    return 0


def cmd_eval(args) -> int:
    try:
        records = evaluation.parse_prediction_log(Path(args.log).read_bytes())
        report = evaluation.metrics_report(records)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    payload = evaluation.report_to_dict(report, paper_round=args.paper_rounding)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(evaluation.render_report_text(report, paper_round=args.paper_rounding))
    return 0


def cmd_report(args) -> int:
    """Re-render a saved eval report, recomputing every metric from its
    `confusion` counts; the stored `metrics` are not read."""
    try:
        payload = json.loads(Path(args.input).read_text())
        report = evaluation.MetricsReport(evaluation.ConfusionMatrix(**payload["confusion"]))
        text = evaluation.render_report_text(report, paper_round=args.paper_rounding)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    sys.stdout.write(text)
    return 0


def _add_preprocess_flags(p: _Parser) -> None:
    d = PreprocessConfig()
    p.add_argument("--sharpen-sigma", type=float, default=d.sharpen_sigma)
    p.add_argument("--sharpen-amount", type=float, default=d.sharpen_amount)
    p.add_argument("--sharpen-threshold", type=int, default=d.sharpen_threshold)
    p.add_argument("--se-length", type=int, default=d.se_length)
    p.add_argument("--hair-threshold", type=int, default=d.hair_threshold)
    p.add_argument("--min-component-span", type=int, default=d.min_component_span)
    p.add_argument("--max-thinness", type=float, default=d.max_thinness)
    p.add_argument("--interp-margin", type=int, default=d.interp_margin)
    p.add_argument("--median-window", type=int, default=d.median_window)
    p.add_argument("--no-sharpen", action="store_true")
    p.add_argument("--no-hair-removal", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="lesionprep")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("preprocess", help="sharpen + hair removal over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--out-root", required=True)
    p.add_argument("--jobs", type=positive_int, default=1)
    _add_preprocess_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("quality", help="before/after image quality report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--pre-root", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("split", help="scan a dataset and write a split manifest")
    p.add_argument("--root", required=True)
    p.add_argument("--fraction", type=float, default=0.75)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    t = probe.TrainConfig  # class attributes hold the field defaults
    p = sub.add_parser("train-probe", help="train the softmax layer on fixed features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--learning-rate", type=float, default=t.learning_rate)
    p.add_argument("--batch-size", type=int, default=t.batch_size)
    p.add_argument("--iterations", type=int, default=t.iterations)
    p.add_argument("--eval-interval", type=int, default=t.eval_interval)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--curve-out", required=True)
    p.add_argument("--render-svg", default=None)
    p.set_defaults(func=cmd_train_probe)

    p = sub.add_parser("eval", help="metrics from a prediction log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--paper-rounding", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render a saved eval report")
    p.add_argument("input")
    p.add_argument("--paper-rounding", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

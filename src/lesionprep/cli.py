"""Command-line front end tying the modules together.

Subcommands: preprocess, quality, split, train-probe, eval, report.
Exit codes: 0 success, 1 usage error, 2 data error. All randomness flows
through explicit --seed flags; reruns with the same inputs and flags produce
byte-identical outputs regardless of --jobs.

Each subcommand imports only the modules it runs: split, eval and report use
the standard library alone, and preprocess, quality and train-probe add numpy.
Notes and errors go to stderr as ``LEVEL message`` lines: ``INFO``, ``WARNING``
or ``ERROR``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path, PurePath

from . import dataset

EXIT_USAGE = 1
EXIT_DATA = 2


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


def _read(path, parse):
    """``parse(Path(path))``. An OSError, ValueError or MemoryError from
    reading or parsing the file becomes a ValueError that names it."""
    try:
        return parse(Path(path))
    except (OSError, ValueError, MemoryError) as exc:
        raise ValueError(f"{path}: {str(exc) or 'out of memory'}") from exc


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` atomically, or to stdout when
    ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(path), text.encode("utf-8"))


def _load_image(path: Path):
    from .raster import Image, decode_netpbm

    img = decode_netpbm(path.read_bytes())
    if not isinstance(img, Image):
        raise ValueError("expected a color (P6) image")
    return img


def _config(cls, args):
    """A ``cls`` dataclass from the parsed flags named after its fields; the
    flags left out are absent from ``args`` and keep the field defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names})


def _entry_files(manifest, images_root, out_root=None) -> list[tuple]:
    """The manifest's entries, each as ``(entry, src)`` with ``src`` under
    ``images_root``, or, given ``out_root``, as ``(entry, src, pre, mask)``
    with its ``<stem>.pre.ppm`` and ``<stem>.mask.pgm`` under ``out_root``.
    Raised before any image is read or written, a ValueError naming the
    manifest refuses a path that is absolute or empty or has a ``..`` segment,
    and an output whose name, with symlinks resolved, is the file of some
    entry's input or of another output (``a.ppm`` and ``a.pnm`` share both)."""
    files = []
    for e in _read(manifest, dataset.read_manifest):
        rel = PurePath(e.path)
        if not e.path or rel.is_absolute() or ".." in rel.parts:
            raise ValueError(f"{manifest}: path {e.path!r} must be relative to the root, without '..'")
        files.append((e, Path(images_root) / e.path))
    if out_root is None:
        return files
    # every input, then every output, claims the file its name resolves to: os.replace would swap
    # a claimed file, or a link on the way to it, for a refined image
    claims = {os.path.realpath(src): (e.path, None) for e, src in files}
    for i, (e, src) in enumerate(files):
        rel = PurePath(e.path)
        pre = Path(out_root) / rel.parent / f"{rel.stem}.pre.ppm"
        mask = pre.with_name(f"{rel.stem}.mask.pgm")
        for out in (pre, mask):
            owner, claimed = claims.setdefault(os.path.realpath(out), (e.path, out))
            if claimed is None:
                raise ValueError(f"{manifest}: output {out} of {e.path!r} would overwrite the input {owner!r}")
            if owner != e.path:
                raise ValueError(f"{manifest}: paths {owner!r} and {e.path!r} both map to {out}")
            if claimed != out:  # this entry's own .pre.ppm
                raise ValueError(f"{manifest}: outputs {pre} and {mask} of {e.path!r} are one file")
        files[i] = (e, src, pre, mask)
    return files


def _write_atomic(path: Path, data: bytes) -> None:
    """Write to a temp file beside ``path``, then rename it onto ``path``, so
    a failed or killed write never leaves a truncated file under that name."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:  # names the output, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def _preprocess_one(config, row):
    """Worker: refines one ``_entry_files`` row; returns (entry path, masked
    pixels) or raises a ValueError that names the image."""
    import numpy as np

    from .preprocess import preprocess_pipeline
    from .raster import GrayImage, encode_netpbm

    e, src, pre, mask_path = row
    refined, mask = _read(src, lambda path: preprocess_pipeline(_load_image(path), config))
    pre.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(pre, encode_netpbm(refined))
    mask_u8 = mask.bits.astype(np.uint8) * np.uint8(255)
    _write_atomic(mask_path, encode_netpbm(GrayImage(mask_u8)))
    return e.path, mask.count()


def cmd_preprocess(args) -> int:
    # loads numpy and the pipeline here, in the parent, so that forked pool
    # workers inherit them
    from .preprocess import PreprocessConfig

    config = _config(PreprocessConfig, args)
    print(f"INFO preprocess config: {config}", file=sys.stderr)
    files = _entry_files(args.manifest, args.images_root, args.out_root)
    out_root = Path(args.out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    if not files:
        print("WARNING empty manifest: nothing to do", file=sys.stderr)
        return 0
    # a forked pool starts all its workers at once: at most one per image and per CPU that this
    # process may run on (macOS and Windows have no affinity call: all CPUs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(args.jobs, len(files), cpus)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(functools.partial(_preprocess_one, config), files))
        except BrokenProcessPool as exc:  # a worker was killed, by a signal or the OOM killer
            raise ValueError(f"a --jobs worker died: {exc}") from exc
    else:
        results = [_preprocess_one(config, row) for row in files]
    config_dict = dataclasses.asdict(config)
    lines = (json.dumps({"path": rel_path, "config": config_dict, "masked_pixels": masked}, sort_keys=True)
             for rel_path, masked in results)  # manifest order, pool-width independent
    _write_text(out_root / "preprocess_log.jsonl", "".join(line + "\n" for line in lines))
    print(f"INFO preprocessed {len(results)} images into {out_root}", file=sys.stderr)
    return 0


def cmd_quality(args) -> int:
    from . import quality

    files = _entry_files(args.manifest, args.images_root, args.pre_root)

    def row(e, src, pre):  # one pair decoded at a time
        if not pre.exists():
            raise ValueError(f"missing preprocessed counterpart {pre}")
        before, after = _read(src, _load_image), _read(pre, _load_image)
        try:
            return quality.quality_row(e.path, before, after)
        except MemoryError as exc:  # named as quality_row names its own errors
            raise ValueError(f"pair {e.path!r}: {str(exc) or 'out of memory'}") from exc

    _write_text(args.out, quality.format_quality_report([row(e, src, pre) for e, src, pre, _ in files]))
    return 0


def cmd_split(args) -> int:
    config = _config(dataset.SplitConfig, args)
    print(f"INFO split config: {config}", file=sys.stderr)
    entries = dataset.scan_dataset(args.root)  # its errors name the root
    train = [e for e in entries if e.split == "train"]
    rest = [e for e in entries if e.split != "train"]
    out = dataset.split_train_val(train, config) + rest
    _write_text(args.out, dataset.format_manifest(out))
    counts = {s: sum(1 for e in out if e.split == s) for s in dataset.SPLITS}
    print(f"INFO wrote {args.out}: {counts}", file=sys.stderr)
    return 0


def _features_for(files):
    import numpy as np

    from . import probe

    X = [_read(src, lambda path: probe.extract_features(_load_image(path))) for _, src in files]
    y = [dataset.LABELS.index(e.label) for e, _ in files]
    return np.array(X), np.array(y, dtype=np.int64)


def cmd_train_probe(args) -> int:
    from . import probe

    config = _config(probe.TrainConfig, args)
    print(f"INFO train config: {config}", file=sys.stderr)
    files = _entry_files(args.manifest, args.images_root)
    train = [(e, src) for e, src in files if e.split == "train"]
    if not train:
        raise ValueError("manifest has no train entries")
    X_train, y_train = _features_for(train)
    X_val, y_val = _features_for([(e, src) for e, src in files if e.split == "val"])
    model, curve = probe.train_probe(X_train, y_train, X_val, y_val, config)
    _write_text(args.model_out, probe.format_model(model))
    _write_text(args.curve_out, probe.format_curve(curve))
    print(f"INFO final point: {curve[-1]}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    from . import evaluation

    report = _read(args.log, lambda path: evaluation.metrics_report(
        evaluation.parse_prediction_log(path.read_bytes())))
    payload = evaluation.report_to_dict(report, paper_round=args.paper_rounding)
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for line in evaluation.render_report_text(report, paper_round=args.paper_rounding).splitlines():
        print(f"INFO {line}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Re-render a saved eval report, recomputing every metric from its
    `confusion` counts; the stored `metrics` are not read."""
    from . import evaluation

    def saved_report(path: Path) -> evaluation.ConfusionMatrix:
        try:
            payload = json.loads(path.read_bytes())
            return evaluation.ConfusionMatrix(**payload["confusion"])
        except (KeyError, RecursionError, TypeError) as exc:  # nested too deep, or a missing, unknown or ill-typed field
            raise ValueError(str(exc)) from exc

    text = _read(args.input, lambda path: evaluation.render_report_text(
        saved_report(path), paper_round=args.paper_rounding))
    sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lesionprep")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # with SUPPRESS a config flag left out keeps its dataclass default (`_config`)
    p = sub.add_parser("preprocess", help="sharpen + hair removal over a manifest",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--out-root", required=True)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--sharpen-sigma", type=float)
    p.add_argument("--sharpen-amount", type=float)
    p.add_argument("--sharpen-threshold", type=int)
    p.add_argument("--se-length", type=int)
    p.add_argument("--hair-threshold", type=int)
    p.add_argument("--min-component-span", type=int)
    p.add_argument("--max-thinness", type=float)
    p.add_argument("--interp-margin", type=int)
    p.add_argument("--median-window", type=int)
    p.add_argument("--no-hair-removal", dest="hair_removal_enabled", action="store_false")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("quality", help="before/after image quality report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--pre-root", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("split", help="scan a dataset and write a split manifest",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--root", required=True)
    p.add_argument("--fraction", dest="train_fraction", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-probe", help="train the linear probe on fixed features",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--eval-interval", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--curve-out", required=True)
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
    if "numpy" not in sys.modules:  # no module calls BLAS: one OpenBLAS thread, unless the user set a count
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

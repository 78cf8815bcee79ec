"""Traced in-process pass: per-layer timings and counts.

Spans are recorded only here, around calls into the public functions of each
lesionprep module; the program itself is not instrumented. The staged
preprocess calls the stage functions in the order preprocess_pipeline does,
and every staged result must be byte-equal to preprocess_pipeline's, or the
trace is invalid: it would be timing a different program.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import checks
from checks import sha256
from spans import Tracer, self_times

STARTUP_PROBES = 5  # cli.startup_s is the median of these fresh interpreters
SMALL_REPEATS = 5   # dataset and evaluation calls take milliseconds; median of these
STAGES = ("sharpen", "detect", "clean", "inpaint", "smooth")

UNITS = {
    "cli.startup_s": "s",
    "cli.preprocess_overhead_s": "s",
    "raster.decode_ms_p50": "ms",
    "raster.encode_ms_p50": "ms",
    "raster.bytes_read": "B",
    "raster.bytes_written": "B",
    **{f"preprocess.{s}_ms_{q}": "ms" for s in STAGES for q in ("p50", "p90")},
    "preprocess.mask_raw_px": "px",
    "preprocess.mask_clean_px": "px",
    "preprocess.inpaint_share": "ratio",
    "quality.row_ms_p50": "ms",
    "probe.features_ms_p50": "ms",
    "probe.train_ms": "ms",
    "probe.iter_per_s": "1/s",
    "dataset.scan_ms": "ms",
    "dataset.split_ms": "ms",
    "dataset.manifest_ms": "ms",
    "evaluation.parse_ms": "ms",
    "evaluation.metrics_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.staged_mismatches": "count",
    "error_rate": "ratio",
}


def _ms(values: list[float]) -> float:
    return 1000 * statistics.median(values)


def _p90_ms(values: list[float]) -> float:
    return 1000 * statistics.quantiles(values, n=10, method="inclusive")[8]


def encode_outputs(refined, mask) -> tuple[bytes, bytes]:
    """The bytes the CLI writes as ``.pre.ppm`` and ``.mask.pgm`` (255 = hair)."""
    from lesionprep.raster import GrayImage, encode_netpbm

    return encode_netpbm(refined), encode_netpbm(GrayImage(np.where(mask.bits, 255, 0).astype(np.uint8)))


def per_layer(bench) -> dict[str, float]:
    """Runs the traced pass on ``bench``'s corpus; the lesionprep package must
    be importable."""
    bench.setup(1)
    cli = bench.cli
    cli.run("warmup", "--help")
    startup = statistics.median(
        cli.run("startup", "-c", "import lesionprep.cli", module=False) for _ in range(STARTUP_PROBES)
    )
    d = bench.work / "chain"
    d.mkdir()
    bench.split(d)
    cli_preprocess_s = bench.preprocess(d)
    cli_digests = bench.check_images(d / "out")

    from lesionprep import dataset, evaluation, probe, quality
    from lesionprep import preprocess as pp
    from lesionprep.raster import decode_netpbm

    tracer = Tracer()
    span = tracer.span
    tally = bench.tally
    manifest_copy = bench.work / "manifest.inprocess.csv"
    for _ in range(SMALL_REPEATS):
        with span("dataset.scan"):
            scanned = dataset.scan_dataset(bench.data)
        with span("dataset.split"):
            entries = dataset.split_train_val(
                [e for e in scanned if e.split == "train"], dataset.SplitConfig(seed=bench.seed)
            ) + [e for e in scanned if e.split != "train"]
        with span("dataset.manifest"):
            dataset.write_manifest(entries, manifest_copy)
            entries = dataset.read_manifest(manifest_copy)
    tally.check(manifest_copy.read_bytes() == (d / "manifest.csv").read_bytes(), "in-process manifest")

    config = pp.PreprocessConfig()
    bytes_read = bytes_written = mask_raw = mask_clean = mismatches = 0
    untraced_total = 0.0
    features = {}
    for entry in entries:
        rel = entry.path
        stem = rel[: -len(".ppm")]
        raw = (bench.data / rel).read_bytes()
        bytes_read += len(raw)
        with span("raster.decode", rel):
            image = decode_netpbm(raw)

        start = time.perf_counter()
        ref_image, ref_mask = pp.preprocess_pipeline(image, config)
        untraced_total += time.perf_counter() - start

        with span("preprocess.pipeline", rel):
            with span("preprocess.sharpen", rel):
                sharpened = pp.unsharp_mask(image, config)
            with span("preprocess.detect", rel):
                raw_mask = pp.detect_hair_mask(sharpened, config)
            with span("preprocess.clean", rel):
                mask = pp.clean_mask(raw_mask, config)
            with span("preprocess.inpaint", rel):
                inpainted = pp.inpaint_hair(sharpened, mask, config)
            with span("preprocess.smooth", rel):
                refined = pp.smooth_inpainted(inpainted, mask, config)
        mask_raw += raw_mask.count()
        mask_clean += mask.count()

        with span("raster.encode", rel):
            pre_bytes, mask_bytes = encode_outputs(refined, mask)
        bytes_written += len(pre_bytes) + len(mask_bytes)

        staged_ok = (pre_bytes, mask_bytes) == encode_outputs(ref_image, ref_mask)
        mismatches += not staged_ok
        tally.check(staged_ok, f"staged preprocess differs from preprocess_pipeline on {stem}")
        cli_pair = (cli_digests[stem + ".pre.ppm"], cli_digests[stem + ".mask.pgm"])
        tally.check(cli_pair == (sha256(pre_bytes), sha256(mask_bytes)), f"CLI output differs in-process on {stem}")

        with span("quality.row", rel):
            quality.quality_row(rel, image, refined)
        with span("probe.features", rel):
            features[rel] = probe.extract_features(image)

    labels = {"benign": 0, "malignant": 1}

    def xy(split):
        chosen = [e for e in entries if e.split == split]
        return np.array([features[e.path] for e in chosen]), np.array([labels[e.label] for e in chosen])

    train_config = probe.TrainConfig(seed=bench.seed)
    with span("probe.train"):
        probe.train_probe(*xy("train"), *xy("val"), train_config)

    log_bytes = bench.log.read_bytes()
    for _ in range(SMALL_REPEATS):
        with span("evaluation.parse"):
            records = evaluation.parse_prediction_log(log_bytes)
        with span("evaluation.metrics"):
            report = evaluation.metrics_report(records)
            payload = evaluation.report_to_dict(report, paper_round=True)
    checks.check_eval_json(tally, json.dumps(payload), bench.planted)

    tracer.write(bench.work / "spans.json")
    selfs = self_times(tracer.spans)
    self_by_name: dict[str, float] = {}
    for s, t in zip(tracer.spans, selfs):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + t
    traced_total = sum(tracer.durations("preprocess.pipeline"))
    train_s = tracer.durations("probe.train")[0]

    metrics = {
        "cli.startup_s": startup,
        "cli.preprocess_overhead_s": cli_preprocess_s - startup - untraced_total / bench.wl.jobs,
        "raster.decode_ms_p50": _ms(tracer.durations("raster.decode")),
        "raster.encode_ms_p50": _ms(tracer.durations("raster.encode")),
        "raster.bytes_read": bytes_read,
        "raster.bytes_written": bytes_written,
    }
    for stage in STAGES:
        durations = tracer.durations(f"preprocess.{stage}")
        metrics[f"preprocess.{stage}_ms_p50"] = _ms(durations)
        metrics[f"preprocess.{stage}_ms_p90"] = _p90_ms(durations)
    metrics.update({
        "preprocess.mask_raw_px": mask_raw,
        "preprocess.mask_clean_px": mask_clean,
        "preprocess.inpaint_share":
            (self_by_name["preprocess.inpaint"] + self_by_name["preprocess.smooth"]) / traced_total,
        "quality.row_ms_p50": _ms(tracer.durations("quality.row")),
        "probe.features_ms_p50": _ms(tracer.durations("probe.features")),
        "probe.train_ms": 1000 * train_s,
        "probe.iter_per_s": train_config.iterations / train_s,
        "dataset.scan_ms": _ms(tracer.durations("dataset.scan")),
        "dataset.split_ms": _ms(tracer.durations("dataset.split")),
        "dataset.manifest_ms": _ms(tracer.durations("dataset.manifest")),
        "evaluation.parse_ms": _ms(tracer.durations("evaluation.parse")),
        "evaluation.metrics_ms": _ms(tracer.durations("evaluation.metrics")),
        "trace.overhead_frac": (traced_total - untraced_total) / untraced_total,
        "trace.staged_mismatches": mismatches,
        "error_rate": tally.error_rate,
    })
    return metrics


"""lesionprep benchmark.

Generates a seeded synthetic corpus, runs the real CLI chain on it as
subprocesses (split -> preprocess -> quality -> train-probe -> eval + report)
and checks every output. With ``--trace 0`` it reports end-to-end timings of
the untraced CLI; with ``--trace 1`` it makes one traced in-process pass
(traced.py) and reports per-layer timings and counts.

Run from the repository root, which must hold ``src/lesionprep``:

    python3 bench/run.py --workload hairy --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name each metric with its unit and
record the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import corpus
from checks import Tally, sha256

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5   # setup_s is the median of these
MIN_CHAINS = 2      # chains run until --seconds is used up, and at least this many
CHAIN_STEPS = ("split", "preprocess", "quality", "train", "eval")  # eval includes report
SPOT_CHECKS = 3     # images re-run in-process at an unpinned seed
TRAIN_ITERATIONS = 5000
EVAL_INTERVAL = 50
FEATURE_DIM = 55

END_TO_END_UNITS = {
    "chain_s": "s",
    "preprocess_img_per_s": "1/s",
    "quality_img_per_s": "1/s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Cli:
    """Runs ``python -m lesionprep.cli`` steps from src/ and keeps each step's
    wall time and max RSS; a non-zero exit counts as a failed operation."""

    def __init__(self, work: Path, tally: Tally):
        self.work = work
        self.tally = tally
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.rss_kb: list[int] = []
        self.calls = 0
        self.last_stdout: Path | None = None

    def run(self, name: str, *argv, module: bool = True) -> float:
        """Runs ``lesionprep.cli *argv`` (or ``python *argv`` when not
        ``module``); returns its wall time in seconds."""
        self.calls += 1
        log = self.work / "logs" / f"{self.calls:04d}-{name}"
        log.parent.mkdir(exist_ok=True)
        cmd = [sys.executable, *(["-m", "lesionprep.cli"] if module else []), *map(str, argv)]
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        self.tally.check(proc.returncode == 0, f"{name} exited {proc.returncode}")
        self.last_stdout = Path(f"{log}.out")
        return seconds


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


class Bench:
    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.wl = corpus.WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.tally = Tally()
        self.cli = Cli(self.work, self.tally)
        self.pins = checks.load_pins(name, seed)
        self.rel_paths = [corpus.image_path(i, self.wl.images) for i in range(self.wl.images)]
        self.data = self.work / "corpus" / "data"
        self.log = self.work / "corpus" / "predictions.csv"
        self.planted = corpus.planted_counts(seed)
        self.first: dict[str, object] = {}  # outputs of the first run of each step
        self.samples: dict[str, list[float]] = {}  # raw timings behind the medians

    # -- set-up ------------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Writes the corpus and the prediction log ``repeats`` times; returns
        the wall time of each and checks that every one is byte-identical."""
        root = self.work / "corpus"
        times, digests = [], set()
        for _ in range(repeats):
            shutil.rmtree(root, ignore_errors=True)
            start = time.perf_counter()
            corpus.write_inputs(root, self.seed, self.wl)
            times.append(time.perf_counter() - start)
            digests.add(corpus.tree_digest(root))
        self.tally.check(len(digests) == 1, "corpus differs between set-ups")
        if self.pins:
            self.tally.check(digests == {self.pins["corpus"]}, "corpus digest")
        return times

    # -- output checks -----------------------------------------------------

    def _same(self, key: str, value, pinned: str | None = None) -> bool:
        """Pinned value when there is one, else equal to the first run's."""
        if pinned is not None:
            return value == pinned
        return self.first.setdefault(key, value) == value

    def check_manifest(self, path: Path) -> None:
        digest = sha256(path.read_bytes()) if path.is_file() else "missing"
        self.tally.check(self._same("manifest", digest, self.pins and self.pins["manifest"]), "manifest")

    def check_images(self, out_root: Path) -> dict[str, str]:
        digests = checks.output_digests(out_root, self.rel_paths)
        expected = self.pins["outputs"] if self.pins else self.first.setdefault("images", digests)
        for stem, ok in checks.compare_outputs(digests, expected).items():
            self.tally.check(ok, f"outputs of {stem}")
        return digests

    def check_quality(self, path: Path) -> None:
        text = path.read_bytes() if path.is_file() else b""
        pinned = self.pins and self.pins["quality_csv"]
        ok = self._same("quality", sha256(text), pinned) and text.count(b"\n") == self.wl.images + 2
        self.tally.check(ok, "quality csv")

    def check_train(self, model: Path, curve: Path) -> None:
        m = model.read_text() if model.is_file() else ""
        c = curve.read_text() if curve.is_file() else ""
        self.tally.check(checks.model_shape_ok(m, FEATURE_DIM) and self._same("model", m), "model")
        self.tally.check(checks.curve_shape_ok(c, TRAIN_ITERATIONS, EVAL_INTERVAL) and self._same("curve", c),
                         "curve")

    # -- CLI steps -----------------------------------------------------------

    def split(self, d: Path) -> float:
        seconds = self.cli.run("split", "split", "--root", self.data, "--seed", self.seed,
                               "--out", d / "manifest.csv")
        self.check_manifest(d / "manifest.csv")
        return seconds

    def preprocess(self, d: Path) -> float:
        shutil.rmtree(d / "out", ignore_errors=True)
        return self.cli.run("preprocess", "preprocess", "--manifest", d / "manifest.csv",
                            "--images-root", self.data, "--out-root", d / "out", "--jobs", self.wl.jobs)

    def quality(self, d: Path) -> float:
        (d / "quality.csv").unlink(missing_ok=True)
        seconds = self.cli.run("quality", "quality", "--manifest", d / "manifest.csv",
                               "--images-root", self.data, "--pre-root", d / "out", "--out", d / "quality.csv")
        self.check_quality(d / "quality.csv")
        return seconds

    def train(self, d: Path) -> float:
        for f in ("model.txt", "curve.csv"):
            (d / f).unlink(missing_ok=True)
        seconds = self.cli.run("train", "train-probe", "--manifest", d / "manifest.csv",
                               "--images-root", self.data, "--seed", self.seed,
                               "--model-out", d / "model.txt", "--curve-out", d / "curve.csv")
        self.check_train(d / "model.txt", d / "curve.csv")
        return seconds

    def evaluate(self, d: Path) -> float:
        """eval --paper-rounding followed by report; returns their summed wall time."""
        (d / "report.json").unlink(missing_ok=True)
        seconds = self.cli.run("eval", "eval", "--log", self.log, "--out", d / "report.json", "--paper-rounding")
        text = (d / "report.json").read_text() if (d / "report.json").is_file() else ""
        checks.check_eval_json(self.tally, text, self.planted)
        seconds += self.cli.run("report", "report", d / "report.json")
        checks.check_report_text(self.tally, self.cli.last_stdout.read_text(), self.planted)
        return seconds

    def spot_check(self, digests: dict[str, str]) -> None:
        """Re-run a few images through the library in-process and compare."""
        from lesionprep.preprocess import PreprocessConfig, preprocess_pipeline
        from lesionprep.raster import decode_netpbm

        from traced import encode_outputs

        n = self.wl.images
        for i in sorted({k * n // SPOT_CHECKS for k in range(SPOT_CHECKS)}):
            rel = self.rel_paths[i]
            stem = rel[: -len(".ppm")]
            image = decode_netpbm((self.data / rel).read_bytes())
            pre, mask = encode_outputs(*preprocess_pipeline(image, PreprocessConfig()))
            self.tally.check((sha256(pre), sha256(mask)) == (digests[stem + ".pre.ppm"], digests[stem + ".mask.pgm"]),
                             f"library result for {stem}")


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    setup_times = bench.setup(SETUP_REPEATS)
    bench.cli.run("warmup", "--help")  # fills the page cache and __pycache__
    samples: dict[str, list[float]] = {k: [] for k in CHAIN_STEPS}
    d = bench.work / "chain"
    d.mkdir()
    deadline = time.perf_counter() + seconds
    while len(samples["preprocess"]) < MIN_CHAINS or time.perf_counter() < deadline:
        # every step but preprocess runs twice per chain: their timings swing
        # with interpreter start-up, so they need more samples
        for repeat in range(2):
            samples["split"].append(bench.split(d))
            if repeat == 0:
                samples["preprocess"].append(bench.preprocess(d))
                bench.check_images(d / "out")
            samples["quality"].append(bench.quality(d))
            samples["train"].append(bench.train(d))
            samples["eval"].append(bench.evaluate(d))
    if not bench.pins:
        bench.spot_check(bench.first["images"])

    med = {k: statistics.median(v) for k, v in samples.items()}
    bench.samples = {**samples, "setup": setup_times}
    return {
        "chain_s": sum(med.values()),
        "preprocess_img_per_s": bench.wl.images / med["preprocess"],
        "quality_img_per_s": bench.wl.images / med["quality"],
        "train_s": med["train"],
        "eval_s": med["eval"],
        "peak_rss_mb": max(bench.cli.rss_kb) / 1024,
        "setup_s": statistics.median(setup_times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lesionprep" / "cli.py").is_file():
        print(f"error: {SRC / 'lesionprep'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    load_start = os.getloadavg()
    bench = Bench(args.workload, args.seed)
    if args.trace:
        import traced

        metrics = traced.per_layer(bench)
        units = traced.UNITS
    else:
        metrics = end_to_end(bench, args.seconds)
        units = END_TO_END_UNITS

    info = {
        "machine": machine(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "images": bench.wl.images,
        "strokes": bench.wl.strokes,
        "jobs": bench.wl.jobs,
        "samples": {k: len(v) for k, v in bench.samples.items()},
        "digests_pinned": bench.pins is not None,
        "error_rate": bench.tally.error_rate,
        "failures": bench.tally.failures[:20],
    }
    (bench.work / "result.json").write_text(json.dumps({"info": info, "metrics": metrics, "samples": bench.samples}, indent=1) + "\n")
    print(f"run: {json.dumps(info)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

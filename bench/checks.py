"""Output checks: pinned sha256 digests, planted eval counts, and a tally of
operations attempted and failed.

Digests are pinned in pins.json per workload and seed. At a pinned seed every
``.pre.ppm``/``.mask.pgm``, the manifest and the quality CSV must match. At
any other seed the outputs must repeat byte for byte across the run's chains
and, where sampled, equal the library's own result for the same image.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

from corpus import Planted

PINS = Path(__file__).with_name("pins.json")
TOLERANCE_PT = 0.01


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins(workload: str, seed: int) -> dict | None:
    pins = json.loads(PINS.read_text())
    return pins.get(workload, {}).get(str(seed))


class Tally:
    """Operations attempted and failed; each failure keeps a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def output_digests(out_root: Path, rel_paths: list[str]) -> dict[str, str]:
    """sha256 of each image's ``<stem>.pre.ppm`` and ``<stem>.mask.pgm``
    ('missing' when absent), keyed by their path relative to out_root."""
    out = {}
    for rel in rel_paths:
        stem = rel[: -len(".ppm")]
        for suffix in (".pre.ppm", ".mask.pgm"):
            f = out_root / (stem + suffix)
            out[stem + suffix] = sha256(f.read_bytes()) if f.is_file() else "missing"
    return out


def compare_outputs(digests: dict[str, str], expected: dict[str, str]) -> dict[str, bool]:
    """Per image stem: both of its files present and equal to ``expected``."""
    stems = sorted({k[: -len(".pre.ppm")] for k in digests if k.endswith(".pre.ppm")})
    return {
        stem: all(
            digests[stem + s] != "missing" and digests[stem + s] == expected.get(stem + s)
            for s in (".pre.ppm", ".mask.pgm")
        )
        for stem in stems
    }


def exact_metrics(p: Planted) -> dict[str, Fraction]:
    """The five published metrics in percent, as exact fractions."""
    return {
        "accuracy": Fraction(100 * (p.tp + p.tn), p.tp + p.fp + p.fn + p.tn),
        "sensitivity": Fraction(100 * p.tp, p.tp + p.fn),
        "specificity": Fraction(100 * p.tn, p.tn + p.fp),
        "precision": Fraction(100 * p.tp, p.tp + p.fp),
        "f1": Fraction(200 * p.tp, 2 * p.tp + p.fp + p.fn),
    }


def check_eval_json(tally: Tally, text: str, p: Planted) -> None:
    """One check for the confusion counts and one per metric."""
    try:
        payload = json.loads(text)
        counts, metrics = payload["confusion"], payload["metrics"]
    except (ValueError, KeyError, TypeError):
        counts, metrics = None, {}
    tally.check(counts == {"tp": p.tp, "fp": p.fp, "fn": p.fn, "tn": p.tn}, "eval counts")
    _check_metrics(tally, metrics, p, "eval")


_REPORT_LINE = re.compile(r"^(\w+)\s+([0-9.]+)%$")
_REPORT_COUNTS = re.compile(r"tp=(\d+) fp=(\d+) fn=(\d+) tn=(\d+)")


def check_report_text(tally: Tally, text: str, p: Planted) -> None:
    """The rendered report carries the same counts and metrics."""
    m = _REPORT_COUNTS.search(text)
    counts = tuple(int(v) for v in m.groups()) if m else None
    tally.check(counts == (p.tp, p.fp, p.fn, p.tn), "report counts")
    metrics = {}
    for line in text.splitlines():
        hit = _REPORT_LINE.match(line.strip())
        if hit:
            metrics[hit.group(1)] = float(hit.group(2))
    _check_metrics(tally, metrics, p, "report")


def _check_metrics(tally: Tally, got: dict, p: Planted, where: str) -> None:
    for name, exact in exact_metrics(p).items():
        value = got.get(name)
        ok = isinstance(value, (int, float)) and abs(Fraction(value) - exact) <= TOLERANCE_PT
        tally.check(ok, f"{where} {name}")


def curve_shape_ok(text: str, iterations: int, eval_interval: int) -> bool:
    lines = text.splitlines()
    points = iterations // eval_interval + (iterations % eval_interval != 0)
    return (
        len(lines) == points + 1
        and lines[0] == "iter,train_acc,val_acc,train_xent,val_xent"
        and all(len(ln.split(",")) == 5 for ln in lines[1:])
        and lines[-1].split(",")[0] == str(iterations)
    )


def model_shape_ok(text: str, dim: int) -> bool:
    lines = text.splitlines()
    return (
        len(lines) == 4
        and lines[0] == f"2 {dim}"
        and all(len(ln.split()) == dim for ln in lines[1:3])
        and len(lines[3].split()) == 2
    )

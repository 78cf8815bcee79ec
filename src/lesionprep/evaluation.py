"""Classifier-agnostic evaluation: prediction-log parsing, confusion matrix,
and accuracy / sensitivity / specificity / precision / F1 in percent.

The positive class is fixed to malignant. `metrics_report` returns the
`ConfusionMatrix` of a log, and the metrics are its properties: each is an
exact `fractions.Fraction` computed from the four counts, so a report can
never disagree with its counts. Undefined ratios (empty denominator) are
returned as None and rendered "n/a", never silently 0 or 100. Renderings
round each exact value once: to two decimals half to even, or to the
published table's whole percentages (see `paper_rounding`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

from .dataset import LABELS, csv_records

LOG_HEADER = ["case_id", "predicted", "confidence", "truth"]
METRICS = ("accuracy", "sensitivity", "specificity", "precision", "f1")


@dataclass(frozen=True)
class PredictionRecord:
    case_id: str
    predicted: str
    confidence: float
    truth: str


def _percent(part: int, whole: int) -> Optional[Fraction]:
    return None if whole == 0 else Fraction(100 * part, whole)


@dataclass(frozen=True)
class ConfusionMatrix:
    """The four counts, and the five metrics computed from them on access."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{field.name} must be a non-negative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> Fraction:
        if self.total == 0:
            raise ValueError("empty confusion matrix")
        return _percent(self.tp + self.tn, self.total)

    @property
    def sensitivity(self) -> Optional[Fraction]:
        """True positive rate; None when there are no positives."""
        return _percent(self.tp, self.tp + self.fn)

    @property
    def specificity(self) -> Optional[Fraction]:
        """True negative rate; None when there are no negatives."""
        return _percent(self.tn, self.tn + self.fp)

    @property
    def precision(self) -> Optional[Fraction]:
        """Positive predictive value; None when nothing was predicted positive."""
        return _percent(self.tp, self.tp + self.fp)

    @property
    def f1(self) -> Optional[Fraction]:
        """F1 of this matrix's own precision and sensitivity."""
        sens, prec = self.sensitivity, self.precision
        if sens is None or prec is None or sens + prec == 0:
            return None
        return f1(prec, sens)


def _parse_confidence(token: str, lineno: int) -> float:
    try:
        if token.endswith("%"):
            value = float(token[:-1].strip()) / 100.0
        else:
            value = float(token)
    except ValueError:
        raise ValueError(f"line {lineno}: bad confidence {token!r}") from None
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValueError(f"line {lineno}: confidence {token!r} out of [0, 1]")
    return value


def parse_prediction_log(data: bytes | str) -> list[PredictionRecord]:
    """Parse a `case_id,predicted,confidence,truth` CSV log.

    Whitespace around every field is ignored. Confidence accepts a decimal
    fraction ("0.978") or a percent token ("97.8%"). Errors name the offending
    line; duplicate case_ids name both lines involved.
    """
    rows = csv_records(data, LOG_HEADER, strip=True)
    records = []
    seen: dict[str, int] = {}
    for lineno, (case_id, predicted, confidence, truth) in rows:
        for label in (predicted, truth):
            if label not in LABELS:
                raise ValueError(f"line {lineno}: unknown label {label!r}")
        if case_id in seen:
            raise ValueError(
                f"duplicate case_id {case_id!r} on lines {seen[case_id]} and {lineno}"
            )
        seen[case_id] = lineno
        records.append(
            PredictionRecord(case_id, predicted, _parse_confidence(confidence, lineno), truth)
        )
    return records


def metrics_report(records: Sequence[PredictionRecord]) -> ConfusionMatrix:
    """The confusion matrix of `records`, malignant being the positive class;
    its properties are the metrics."""
    if not records:
        raise ValueError("no records to evaluate")
    counts = Counter((r.predicted == "malignant", r.truth == "malignant") for r in records)
    return ConfusionMatrix(counts[True, True], counts[True, False], counts[False, True], counts[False, False])


def f1(precision_pct: Fraction | float, recall_pct: Fraction | float) -> Fraction | float:
    """Harmonic mean 2PR/(P+R) of two percentages; exact for two Fractions."""
    if precision_pct + recall_pct == 0:
        raise ValueError("f1 undefined when precision + recall = 0")
    return 2 * precision_pct * recall_pct / (precision_pct + recall_pct)


def paper_rounding(report: ConfusionMatrix) -> dict[str, Optional[int]]:
    """Integer display matching the published table: round half up for
    accuracy/sensitivity/specificity/precision, truncation for F1 (the table's
    F1 cells are consistent only with truncation of 2PR/(P+R))."""

    def cell(name, v):
        if v is None:
            return None
        return math.floor(v) if name == "f1" else math.floor(v + Fraction(1, 2))

    return {name: cell(name, getattr(report, name)) for name in METRICS}


def report_to_dict(report: ConfusionMatrix, paper_round: bool = False) -> dict:
    """Machine-readable rendering: the counts, each metric rounded once to two
    decimals half to even, and with ``paper_round`` the `paper_rounding` cells."""
    values = ((name, getattr(report, name)) for name in METRICS)
    d = {
        "confusion": asdict(report),
        "metrics": {name: None if v is None else float(round(v, 2)) for name, v in values},
    }
    if paper_round:
        d["paper_rounded"] = paper_rounding(report)
    return d


def render_report_text(report: ConfusionMatrix, paper_round: bool = False) -> str:
    """Human-readable rendering of the cells of `report_to_dict`."""
    d = report_to_dict(report, paper_round)
    counts = " ".join(f"{k}={v}" for k, v in d["confusion"].items())
    lines = [f"confusion (positive=malignant): {counts}"]
    for name, v in d["metrics"].items():
        lines.append(f"{name:<13}{'n/a' if v is None else f'{v:.2f}%'}")
    if paper_round:
        cells = " ".join(f"{k}={'n/a' if v is None else f'{v}%'}"
                         for k, v in d["paper_rounded"].items())
        lines.append(f"paper-rounded: {cells}")
    return "\n".join(lines) + "\n"

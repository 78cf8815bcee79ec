"""Before/after image quality metrics, all four computed by `quality_row`:
MSE, PSNR = 10*log10(255^2 / MSE) in dB, MAXERR (the largest absolute sample
deviation) and L2RAT = sum(test^2) / sum(reference^2).

All four pool the three color channels into one sample set and assume a peak
value of 255. PSNR of identical images is the +inf sentinel, serialized as
the token "inf".

The three sums of squares (reference, test, difference) are integer sums on
the uint8 samples, with no float copy: each sample is squared into uint16, the
squares are added in uint64, and |d| is max - min in uint8. They are exact, in
any order of summation, while N * 255^2 < 2^64 for N samples, and convert to
float exactly below 2^53; so MSE = float(sum d^2) / N and L2RAT =
float(sum test^2) / float(sum ref^2) each round once, in the division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import csv_text
from .raster import GrayImage, Image

PEAK_SQUARED = 255.0 * 255.0


@dataclass(frozen=True)
class QualityRow:
    image_id: str
    psnr: float  # dB; math.inf when mse == 0
    mse: float
    maxerr: int
    l2rat: float
    width: int
    height: int


def _sum_squares(v: np.ndarray) -> int:
    return int(np.square(v, dtype=np.uint16).sum(dtype=np.uint64))


def quality_row(image_id: str, reference: Image | GrayImage, test: Image | GrayImage) -> QualityRow:
    """The four metrics of a pair of images of the same kind and size."""
    if type(reference) is not type(test):
        raise ValueError(f"kind mismatch: {type(reference).__name__} vs {type(test).__name__}")
    if (reference.width, reference.height) != (test.width, test.height):
        raise ValueError(
            f"dimension mismatch: {reference.width}x{reference.height} vs "
            f"{test.width}x{test.height}"
        )
    ref, t = reference._array.ravel(), test._array.ravel()
    denom = _sum_squares(ref)
    if denom == 0:
        raise ValueError("l2rat undefined for an all-zero reference")
    d = np.maximum(ref, t)
    d -= np.minimum(ref, t)
    m = float(_sum_squares(d)) / len(d)
    return QualityRow(
        image_id=image_id,
        psnr=math.inf if m == 0 else 10.0 * math.log10(PEAK_SQUARED / m),
        mse=m,
        maxerr=int(d.max()),
        l2rat=float(_sum_squares(t)) / float(denom),
        width=reference.width,
        height=reference.height,
    )


def quality_report(pairs: Iterable[tuple[str, Image | GrayImage, Image | GrayImage]]) -> list[QualityRow]:
    """One QualityRow per (id, reference, test) pair, in input order.

    The first failing pair aborts the report with its id in the error.
    """
    rows = []
    for image_id, reference, test in pairs:
        try:
            rows.append(quality_row(image_id, reference, test))
        except ValueError as exc:
            raise ValueError(f"pair {image_id!r}: {exc}") from exc
    return rows


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


REPORT_HEADER = ("id", "psnr_db", "mse", "maxerr", "l2rat", "width", "height")


def format_quality_report(rows: Sequence[QualityRow]) -> str:
    """CSV rendering; 4 decimal places, round half even, psnr token 'inf'.
    Ids are quoted as CSV needs, so any path reads back as one field.

    A trailing 'mean' row, when there are rows, summarizes the finite PSNRs
    and the other metric columns.
    """
    records = [REPORT_HEADER]
    for r in rows:
        records.append([r.image_id, _fmt(r.psnr), _fmt(r.mse), r.maxerr, _fmt(r.l2rat), r.width, r.height])
    if rows:
        finite = [r.psnr for r in rows if not math.isinf(r.psnr)]
        mean_psnr = sum(finite) / len(finite) if finite else math.inf
        mean_mse = sum(r.mse for r in rows) / len(rows)
        mean_maxerr = sum(r.maxerr for r in rows) / len(rows)
        mean_l2rat = sum(r.l2rat for r in rows) / len(rows)
        records.append(["mean", _fmt(mean_psnr), _fmt(mean_mse), _fmt(mean_maxerr), _fmt(mean_l2rat), "", ""])
    return csv_text(records)

"""Before/after image quality metrics, all four computed by `quality_row`:
MSE, PSNR = 10*log10(255^2 / MSE) in dB, MAXERR (the largest absolute sample
deviation) and L2RAT = sum(test^2) / sum(reference^2).

All four pool the three color channels into one sample set and assume a peak
value of 255. PSNR of identical images is the +inf sentinel, serialized as
the token "inf".

The sums run as float64 dot products, and the difference is formed in place
in the reference's sample buffer. Every sample is an integer in [0, 255], so
every product and partial sum is an integer below 255^2 * N for N samples,
under 2^53 while N < 1.3e11. float64 holds all of them exactly, so the sums,
and with them all four metrics, do not depend on the order of summation.
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


def _samples(image: Image | GrayImage) -> np.ndarray:
    arr = image.pixels if isinstance(image, Image) else image.values
    return arr.astype(np.float64).ravel()


def quality_row(image_id: str, reference: Image | GrayImage, test: Image | GrayImage) -> QualityRow:
    """The four metrics of a pair of images of the same size."""
    if (reference.width, reference.height) != (test.width, test.height):
        raise ValueError(
            f"dimension mismatch: {reference.width}x{reference.height} vs "
            f"{test.width}x{test.height}"
        )
    ref, t = _samples(reference), _samples(test)
    denom = float(np.dot(ref, ref))
    if denom == 0:
        raise ValueError("l2rat undefined for an all-zero reference")
    l2_test = float(np.dot(t, t))
    d = np.subtract(ref, t, out=ref)
    m = float(np.dot(d, d)) / len(d)
    return QualityRow(
        image_id=image_id,
        psnr=math.inf if m == 0 else 10.0 * math.log10(PEAK_SQUARED / m),
        mse=m,
        maxerr=int(max(d.max(), -d.min())),
        l2rat=l2_test / denom,
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

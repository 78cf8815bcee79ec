"""Before/after image quality metrics, all four computed by `quality_row`:
MSE, PSNR = 10*log10(255^2 / MSE) in dB, MAXERR (the largest absolute sample
deviation) and L2RAT = sum(test^2) / sum(reference^2).

All four pool the three color channels into one sample set and assume a peak
value of 255. The sums of squares (reference, test, difference) square each
uint8 sample into uint16 and add in uint64, with |d| = max - min in uint8, so
they are exact integers while N * 255^2 < 2^64 for N samples. MSE and L2RAT
are exact `Fraction`s of them. PSNR is a `Decimal`: 10 * log10(255^2 * N / S)
at 40 digits, where the division and the correctly rounded log10 each round
once; exact when 255^2 / MSE is a power of ten, INF (the token "inf") for
identical images. No metric passes through a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dataset import csv_text
from .raster import GrayImage, Image

PEAK_SQUARED = 255 * 255
INF = Decimal("Infinity")


@dataclass(frozen=True)
class QualityRow:
    image_id: str
    psnr: Decimal  # dB; INF when mse == 0
    mse: Fraction
    maxerr: int
    l2rat: Fraction
    width: int
    height: int


def _sum_squares(v: np.ndarray) -> int:
    return int(np.square(v, dtype=np.uint16).sum(dtype=np.uint64))


def quality_row(image_id: str, reference: Image | GrayImage, test: Image | GrayImage) -> QualityRow:
    """The four metrics of a pair of images of the same kind and size; each
    error starts with ``pair '<image_id>': ``."""
    pair = f"pair {image_id!r}"
    if type(reference) is not type(test):
        raise ValueError(f"{pair}: kind mismatch: {type(reference).__name__} vs {type(test).__name__}")
    if (reference.width, reference.height) != (test.width, test.height):
        raise ValueError(
            f"{pair}: dimension mismatch: {reference.width}x{reference.height} vs "
            f"{test.width}x{test.height}"
        )
    ref, t = reference.pixels.ravel(), test.pixels.ravel()
    denom = _sum_squares(ref)
    if denom == 0:
        raise ValueError(f"{pair}: l2rat undefined for an all-zero reference")
    d = np.maximum(ref, t)
    d -= np.minimum(ref, t)
    s = _sum_squares(d)
    with localcontext(Context(prec=40)):
        psnr = INF if s == 0 else 10 * (Decimal(PEAK_SQUARED * len(d)) / s).log10()
    return QualityRow(
        image_id=image_id,
        psnr=psnr,
        mse=Fraction(s, len(d)),
        maxerr=int(d.max()),
        l2rat=Fraction(_sum_squares(t), denom),
        width=reference.width,
        height=reference.height,
    )


def _fmt(value: Fraction | Decimal) -> str:
    """The exact value rounded once to 4 places, half to even; INF is 'inf'."""
    if value == INF:
        return "inf"
    return str(Decimal(round(Fraction(value) * 10_000)).scaleb(-4))


REPORT_HEADER = ("id", "psnr_db", "mse", "maxerr", "l2rat", "width", "height")


def format_quality_report(rows: Sequence[QualityRow]) -> str:
    """CSV rendering: each metric cell is its exact value rounded once to 4
    places, half to even, and an infinite PSNR reads 'inf'. Ids are quoted as
    CSV needs. A trailing 'mean' row, when there are rows, holds the exact
    mean of each metric column, of the finite PSNRs only.
    """
    records = [REPORT_HEADER]
    for r in rows:
        records.append([r.image_id, _fmt(r.psnr), _fmt(r.mse), r.maxerr, _fmt(r.l2rat), r.width, r.height])
    if rows:
        columns = ([r.psnr for r in rows if r.psnr != INF], [r.mse for r in rows],
                   [r.maxerr for r in rows], [r.l2rat for r in rows])
        means = (sum(map(Fraction, c)) / len(c) if c else INF for c in columns)
        records.append(["mean", *map(_fmt, means), "", ""])
    return csv_text(records)

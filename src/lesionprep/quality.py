"""Before/after image quality metrics: PSNR, MSE, MAXERR, L2RAT.

All four pool the three color channels into one sample set and assume a peak
value of 255. PSNR of identical images is the +inf sentinel, serialized as
the token "inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


def _sample_pair(reference, test) -> tuple[np.ndarray, np.ndarray]:
    """The float64 samples of both images, which must have the same size."""
    if (reference.width, reference.height) != (test.width, test.height):
        raise ValueError(
            f"dimension mismatch: {reference.width}x{reference.height} vs "
            f"{test.width}x{test.height}"
        )
    return _samples(reference), _samples(test)


# The private helpers take the samples or their difference, so `quality_row`
# converts each image once and computes every metric from the same arrays.
def _mse(d: np.ndarray) -> float:
    return float(np.mean(d * d))


def _psnr(m: float) -> float:
    return math.inf if m == 0 else 10.0 * math.log10(PEAK_SQUARED / m)


def _maxerr(d: np.ndarray) -> int:
    return int(np.max(np.abs(d)))


def _l2rat(ref: np.ndarray, t: np.ndarray) -> float:
    denom = float(np.sum(ref * ref))
    if denom == 0:
        raise ValueError("l2rat undefined for an all-zero reference")
    return float(np.sum(t * t)) / denom


def mse(reference: Image | GrayImage, test: Image | GrayImage) -> float:
    """Mean squared error over all channel samples."""
    return _mse(np.subtract(*_sample_pair(reference, test)))


def psnr(reference: Image | GrayImage, test: Image | GrayImage) -> float:
    """10*log10(255^2 / MSE) in dB; +inf for identical images."""
    return _psnr(mse(reference, test))


def maxerr(reference: Image | GrayImage, test: Image | GrayImage) -> int:
    """Maximum absolute per-sample deviation."""
    return _maxerr(np.subtract(*_sample_pair(reference, test)))


def l2rat(reference: Image | GrayImage, test: Image | GrayImage) -> float:
    """Squared-energy ratio sum(test^2) / sum(reference^2)."""
    return _l2rat(*_sample_pair(reference, test))


def quality_row(image_id: str, reference: Image | GrayImage, test: Image | GrayImage) -> QualityRow:
    ref, t = _sample_pair(reference, test)
    d = ref - t
    m = _mse(d)
    return QualityRow(
        image_id=image_id,
        psnr=_psnr(m),
        mse=m,
        maxerr=_maxerr(d),
        l2rat=_l2rat(ref, t),
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


REPORT_HEADER = "id,psnr_db,mse,maxerr,l2rat,width,height"


def format_quality_report(rows: Sequence[QualityRow], include_mean: bool = False) -> str:
    """CSV rendering; 4 decimal places, round half even, psnr token 'inf'.

    With include_mean a trailing 'mean' row summarizes the finite PSNRs and
    the other metric columns.
    """
    lines = [REPORT_HEADER]
    for r in rows:
        lines.append(
            f"{r.image_id},{_fmt(r.psnr)},{_fmt(r.mse)},{r.maxerr},"
            f"{_fmt(r.l2rat)},{r.width},{r.height}"
        )
    if include_mean and rows:
        finite = [r.psnr for r in rows if not math.isinf(r.psnr)]
        mean_psnr = sum(finite) / len(finite) if finite else math.inf
        mean_mse = sum(r.mse for r in rows) / len(rows)
        mean_maxerr = sum(r.maxerr for r in rows) / len(rows)
        mean_l2rat = sum(r.l2rat for r in rows) / len(rows)
        lines.append(
            f"mean,{_fmt(mean_psnr)},{_fmt(mean_mse)},{_fmt(mean_maxerr)},"
            f"{_fmt(mean_l2rat)},,"
        )
    return "\n".join(lines) + "\n"

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lesionprep.quality import QualityRow, format_quality_report, quality_row
from lesionprep.raster import GrayImage, Image

from test_preprocess import golden_image, traced_peak

# Published before/after metric rows whose PSNR and MSE are mutually
# consistent under psnr = 10*log10(255^2 / mse).
CONSISTENT_ROWS = [
    (19.4205, 743.0656),
    (22.1285, 398.3229),
    (23.2953, 304.4737),
    (22.4291, 371.6785),
    (18.6732, 882.5930),
]
# Rows transcribed with a PSNR that does not match their own MSE.
INCONSISTENT_ROWS = [
    (21.5481, 655.2738),
    (24.0840, 329.9128),
    (19.3975, 847.0221),
]


def gray(values):
    return GrayImage(np.array(values, np.uint8))


def row(reference, test):
    """quality_row, the one implementation of all four metrics; the classes
    below check each metric through its field."""
    return quality_row("t", reference, test)


def psnr_of(mse: Fraction, digits: int = 80) -> Decimal:
    """10*log10(255^2 / mse) from the exact MSE, at ``digits`` digits."""
    if mse == 0:
        return Decimal("Infinity")
    with localcontext(Context(prec=digits)):
        return 10 * (Decimal(255**2 * mse.denominator) / mse.numerator).log10()


def assert_psnr_close(got: Decimal, want: Decimal):
    """40 significant digits hold a PSNR below 1000 dB within 1e-36."""
    assert isinstance(got, Decimal)
    assert got == want if want.is_infinite() else abs(got - want) < Decimal("1e-35")


def quality_oracle(image_id, reference, test) -> QualityRow:
    """The four metrics from Python ints, one sample at a time: MSE and L2RAT
    as Fractions, PSNR by ``psnr_of`` at 80 digits."""
    def samples(image):
        arr = image.pixels
        return arr.ravel().tolist()

    ref, t = samples(reference), samples(test)
    d = [a - b for a, b in zip(ref, t)]
    denom = sum(v * v for v in ref)
    if denom == 0:
        raise ValueError(f"pair {image_id!r}: l2rat undefined for an all-zero reference")
    m = Fraction(sum(v * v for v in d), len(d))
    return QualityRow(
        image_id=image_id,
        psnr=psnr_of(m),
        mse=m,
        maxerr=max(abs(v) for v in d),
        l2rat=Fraction(sum(v * v for v in t), denom),
        width=reference.width,
        height=reference.height,
    )


def assert_matches_oracle(got: QualityRow, want: QualityRow):
    """Every field equal, the exact ones exactly; PSNR within 1e-35."""
    assert isinstance(got.mse, Fraction) and isinstance(got.l2rat, Fraction)
    assert_psnr_close(got.psnr, want.psnr)
    fields = ("image_id", "mse", "maxerr", "l2rat", "width", "height")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


def flat_with_one_pixel(shape, value, pixel_value):
    """An image of ``value`` and a copy whose first pixel is ``pixel_value``."""
    wrap = Image if len(shape) == 3 else GrayImage
    reference = np.full(shape, value, np.uint8)
    test = reference.copy()
    test[0, 0] = pixel_value
    return wrap(reference), wrap(test)


# id -> ((reference, test), the report's row and mean lines). The first two
# are exact 4-place ties that a float MSE or L2RAT rounds up; the third has
# 255^2/MSE = 100.
EXACT_CASES = {
    # MSE = 3 / 60000 = 0.00005
    "mse_tie": (flat_with_one_pixel((100, 200, 3), 100, 101),
                ["mse_tie,91.1411,0.0000,1,1.0000,200,100", "mean,91.1411,0.0000,1.0000,1.0000,,"]),
    # L2RAT = 1 / 20000 = 0.00005
    "l2rat_tie": ((gray([[100, 100]]), gray([[1, 0]])),
                  ["l2rat_tie,8.1742,9900.5000,100,0.0000,2,1", "mean,8.1742,9900.5000,100.0000,0.0000,,"]),
    # MSE = 51^2 / 4 = 650.25
    "int_psnr": (flat_with_one_pixel((2, 2), 100, 151),
                 ["int_psnr,20.0000,650.2500,51,1.3200,2,2", "mean,20.0000,650.2500,51.0000,1.3200,,"]),
}


@st.composite
def image_pairs(draw):
    """A reference and a test image of one size, gray or color, sides 1-64
    px; either may be random, all 0 or all 255, or the test a copy, so that
    the all-zero-reference error and the inf PSNR come up often."""
    shape = (draw(st.integers(1, 64)), draw(st.integers(1, 64))) + draw(st.sampled_from([(), (3,)]))
    wrap = Image if len(shape) == 3 else GrayImage

    def image():
        fill = draw(st.sampled_from(["random", 0, 255]))
        if fill == "random":
            return draw(hnp.arrays(np.uint8, shape))
        return np.full(shape, fill, np.uint8)

    reference = image()
    test = reference if draw(st.booleans()) else image()
    return wrap(reference), wrap(test)


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(image_pairs())
    @example(EXACT_CASES["mse_tie"][0])
    @example(EXACT_CASES["l2rat_tie"][0])
    @example(EXACT_CASES["int_psnr"][0])
    def test_every_field_equals_the_exact_formulas(self, pair):
        reference, test = pair
        try:
            want = quality_oracle("p", reference, test)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                quality_row("p", reference, test)
            return
        assert_matches_oracle(quality_row("p", reference, test), want)

    def test_all_zero_test_against_all_255_reference(self):
        reference = Image(np.full((64, 64, 3), 255, np.uint8))
        test = Image(np.zeros((64, 64, 3), np.uint8))
        got = quality_row("x", reference, test)
        assert_matches_oracle(got, quality_oracle("x", reference, test))
        assert (got.psnr, got.mse, got.maxerr, got.l2rat) == (0, 65025, 255, 0)

    def test_a_power_of_ten_ratio_gives_an_exact_psnr(self):
        got = quality_row("x", *EXACT_CASES["int_psnr"][0])
        assert isinstance(got.psnr, Decimal)
        assert (got.psnr, got.mse) == (Decimal(20), Fraction(2601, 4))


class TestAllocationBudget:
    def test_quality_row_holds_four_uint8_frames(self):
        reference, test = golden_image("clean"), golden_image("hairy")
        assert traced_peak(lambda: quality_row("x", reference, test)) <= 4 * reference.pixels.nbytes


class TestMse:
    def test_identical_zero(self, rng):
        img = Image(rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8))
        assert row(img, img).mse == 0.0

    def test_hand_arithmetic(self):
        assert row(gray([[10, 20]]), gray([[10, 14]])).mse == 18.0

    def test_symmetry(self, rng):
        a = Image(rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8))
        b = Image(rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8))
        assert row(a, b).mse == row(b, a).mse

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            row(gray([[1]]), gray([[1, 2]]))

    def test_gray_and_color_of_one_size_are_refused_by_kind(self):
        color, shade = Image(np.ones((4, 4, 3), np.uint8)), gray(np.ones((4, 4)))
        for reference, test, named in ((shade, color, "GrayImage vs Image"), (color, shade, "Image vs GrayImage")):
            with pytest.raises(ValueError, match=f"kind mismatch: {named}"):
                row(reference, test)


class TestPsnr:
    @pytest.mark.parametrize("expected_db,mse_value", CONSISTENT_ROWS)
    def test_published_rows(self, expected_db, mse_value):
        assert 10 * math.log10(255**2 / mse_value) == pytest.approx(expected_db, abs=1e-3)

    @pytest.mark.parametrize("claimed_db,mse_value", INCONSISTENT_ROWS)
    def test_anomalous_rows_stay_anomalous(self, claimed_db, mse_value):
        # transcription anomaly in the source table: these PSNR cells do not
        # follow from their MSE cells, and must not be used as goldens
        assert abs(10 * math.log10(255**2 / mse_value) - claimed_db) > 0.01

    def test_identical_is_infinite(self):
        img = gray([[5, 5]])
        assert math.isinf(row(img, img).psnr)

    def test_consistency_with_mse(self, rng):
        for _ in range(20):
            a = Image(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
            b = Image(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
            r = row(a, b)
            assert_psnr_close(r.psnr, psnr_of(r.mse))


class TestMaxerr:
    def test_identical_zero(self):
        img = gray([[1, 2, 3]])
        assert row(img, img).maxerr == 0

    def test_single_deviation(self):
        assert row(gray([[0, 10]]), gray([[99, 10]])).maxerr == 99

    def test_symmetric(self, rng):
        a = gray(rng.integers(0, 256, size=(3, 3)))
        b = gray(rng.integers(0, 256, size=(3, 3)))
        assert row(a, b).maxerr == row(b, a).maxerr

    def test_dominates_mse(self, rng):
        for _ in range(20):
            a = Image(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
            b = Image(rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
            r = row(a, b)
            assert r.maxerr ** 2 >= r.mse


class TestL2rat:
    def test_identical_is_one(self, rng):
        img = Image(rng.integers(1, 256, size=(4, 4, 3), dtype=np.uint8))
        assert row(img, img).l2rat == 1.0

    def test_zero_test_image(self):
        assert row(gray([[3, 4]]), gray([[0, 0]])).l2rat == 0.0

    def test_hand_arithmetic(self):
        assert row(gray([[3, 4]]), gray([[3, 0]])).l2rat == pytest.approx(0.36)

    def test_all_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            row(gray([[0, 0]]), gray([[1, 2]]))


def report(pairs) -> str:
    """The quality CSV of ``(id, reference, test)`` pairs, as `quality` writes it."""
    return format_quality_report([quality_row(*pair) for pair in pairs])


class TestReport:
    def test_identical_pair_row(self):
        img = gray([[7, 7]])
        row = quality_row("a", img, img)
        assert math.isinf(row.psnr)
        assert (row.image_id, row.mse, row.maxerr, row.l2rat) == ("a", 0.0, 0, 1.0)

    def test_matches_scalar_recomputation(self, rng):
        a = Image(rng.integers(0, 256, size=(5, 5, 3), dtype=np.uint8))
        b = Image(rng.integers(0, 256, size=(5, 5, 3), dtype=np.uint8))
        row = quality_row("x", a, b)
        sq_sum = max_dev = e_ref = e_test = 0
        for pa, pb in zip(a.pixels.reshape(-1), b.pixels.reshape(-1)):
            d = int(pa) - int(pb)
            sq_sum += d * d
            max_dev = max(max_dev, abs(d))
            e_ref += int(pa) ** 2
            e_test += int(pb) ** 2
        n = 75
        assert row.mse == Fraction(sq_sum, n)
        assert row.maxerr == max_dev
        assert row.l2rat == Fraction(e_test, e_ref)
        assert_psnr_close(row.psnr, psnr_of(Fraction(sq_sum, n)))

    @pytest.mark.parametrize("reference, test, problem", [
        (gray([[1]]), Image(np.ones((1, 1, 3), np.uint8)), "kind mismatch: GrayImage vs Image"),
        (gray([[1]]), gray([[1, 2]]), "dimension mismatch: 1x1 vs 2x1"),
        (gray([[0, 0]]), gray([[1, 2]]), "l2rat undefined for an all-zero reference"),
    ], ids=["kind", "dimension", "all-zero"])
    def test_each_error_names_the_pair(self, reference, test, problem):
        with pytest.raises(ValueError) as exc:
            quality_row("case7", reference, test)
        assert str(exc.value) == f"pair 'case7': {problem}"

    def test_formatting(self):
        img = gray([[7, 7]])
        text = report([("a", img, img)])
        lines = text.splitlines()
        assert lines[0] == "id,psnr_db,mse,maxerr,l2rat,width,height"
        assert lines[1] == "a,inf,0.0000,0,1.0000,2,1"

    def test_mean_row(self):
        a, b = gray([[10, 20]]), gray([[10, 14]])
        text = report([("a", a, b)])
        assert text.splitlines()[-1].startswith("mean,")

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_each_cell_rounds_the_exact_value_once(self, case):
        (reference, test), lines = EXACT_CASES[case]
        text = report([(case, reference, test)])
        assert text.splitlines() == ["id,psnr_db,mse,maxerr,l2rat,width,height", *lines]

    def test_mean_row_is_the_mean_of_exact_values(self):
        # MSEs 3, 6 and 0 in 60000 average to exactly 0.00005, a tie; the
        # PSNR mean is that of the two finite rows
        (a, b), _ = EXACT_CASES["mse_tie"]
        pixels = b.pixels.copy()
        pixels[0, 1] = 101
        c = Image(pixels)
        text = report([("x", a, b), ("y", a, c), ("z", a, a)])
        assert text.splitlines()[-1] == "mean,89.6360,0.0000,0.6667,1.0000,,"

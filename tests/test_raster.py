import numpy as np
import pytest

from lesionprep.raster import (
    GrayImage,
    Image,
    NetpbmError,
    decode_netpbm,
    encode_netpbm,
    to_grayscale,
)


def random_image(rng, w, h):
    return Image(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def random_gray(rng, w, h):
    return GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


class TestDecode:
    def test_smallest_color_file(self):
        img = decode_netpbm(b"P6 1 1 255\n\xff\x00\x00")
        assert isinstance(img, Image)
        assert (img.width, img.height) == (1, 1)
        assert img.pixels.tolist() == [[[255, 0, 0]]]

    def test_smallest_gray_file(self):
        img = decode_netpbm(b"P5 2 1 255\n\x00\xff")
        assert isinstance(img, GrayImage)
        assert (img.width, img.height) == (2, 1)
        assert img.values.tolist() == [[0, 255]]

    def test_tolerates_extra_header_whitespace(self):
        img = decode_netpbm(b"P5\n2 1\t255\n\x00\xff")
        assert img.values.tolist() == [[0, 255]]

    @pytest.mark.parametrize("header", [
        b"P5\n# made by gimp\n2 1\n255\n",
        b"P5 2 # width, then height\r1\n#\n255\n",
    ])
    def test_skips_header_comments(self, header):
        assert decode_netpbm(header + b"\x00\xff").values.tolist() == [[0, 255]]

    def test_unterminated_comment_ends_header(self):
        with pytest.raises(NetpbmError, match="unexpected end of header"):
            decode_netpbm(b"P6 2 2 # no newline")

    def test_bad_magic_offset(self):
        with pytest.raises(NetpbmError, match="offset 0"):
            decode_netpbm(b"P4 1 1 255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(NetpbmError, match="maxval 65535"):
            decode_netpbm(b"P5 1 1 65535\n\x00\x00")

    def test_truncated_payload_names_offset(self):
        data = b"P6 2 2 255\n" + b"\x00" * 5
        with pytest.raises(NetpbmError, match=f"offset {len(data)}"):
            decode_netpbm(data)

    def test_non_numeric_dimension(self):
        with pytest.raises(NetpbmError, match="width"):
            decode_netpbm(b"P6 x 1 255\n\x00\x00\x00")


class TestEncode:
    def test_black_pixel_canonical(self):
        assert encode_netpbm(Image(np.zeros((1, 1, 3), np.uint8))) == b"P6 1 1 255\n\x00\x00\x00"

    def test_gray_payload(self):
        img = GrayImage(np.full((2, 2), 255, np.uint8))
        assert encode_netpbm(img) == b"P5 2 2 255\n" + b"\xff" * 4

    def test_round_trip_random_rasters(self, rng):
        for _ in range(50):
            w, h = rng.integers(1, 20, size=2)
            for img in (random_image(rng, w, h), random_gray(rng, w, h)):
                assert decode_netpbm(encode_netpbm(img)) == img

    def test_canonical_file_round_trip(self, rng):
        for _ in range(20):
            w, h = rng.integers(1, 12, size=2)
            blob = encode_netpbm(random_image(rng, w, h))
            assert encode_netpbm(decode_netpbm(blob)) == blob


class TestGrayscale:
    def test_white_and_black(self):
        img = Image(np.array([[[255, 255, 255]], [[0, 0, 0]]], np.uint8))
        assert to_grayscale(img).values.ravel().tolist() == [255, 0]

    def test_pure_red_rounds_to_76(self):
        img = Image(np.array([[[255, 0, 0]]], np.uint8))
        assert to_grayscale(img).values[0, 0] == 76  # round(76.245)

    def test_monotone_in_uniform_scaling(self, rng):
        for _ in range(100):
            px = rng.integers(0, 200, size=3)
            lo = Image(px.reshape(1, 1, 3).astype(np.uint8))
            hi = Image((px + rng.integers(0, 56, size=3)).reshape(1, 1, 3).astype(np.uint8))
            assert to_grayscale(hi).values[0, 0] >= to_grayscale(lo).values[0, 0]


def test_image_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Image(np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3), np.uint8))


def test_pixels_are_immutable():
    img = Image(np.zeros((2, 2, 3), np.uint8))
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 1

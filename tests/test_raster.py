from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lesionprep.raster import (
    GrayImage,
    Image,
    NetpbmError,
    decode_netpbm,
    encode_netpbm,
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
        assert img.pixels.tolist() == [[0, 255]]

    def test_tolerates_extra_header_whitespace(self):
        img = decode_netpbm(b"P5\n2 1\t255\n\x00\xff")
        assert img.pixels.tolist() == [[0, 255]]

    @pytest.mark.parametrize("header", [
        b"P5\n# made by gimp\n2 1\n255\n",
        b"P5 2 # width, then height\r1\n#\n255\n",
    ])
    def test_skips_header_comments(self, header):
        assert decode_netpbm(header + b"\x00\xff").pixels.tolist() == [[0, 255]]

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

    def test_overlong_dimension(self):
        with pytest.raises(NetpbmError, match="width token of 5000 digits"):
            decode_netpbm(b"P6 " + b"9" * 5000 + b" 1 255\n")

    @pytest.mark.parametrize("data, message", [
        (b"P6 1 1 # comment", "unexpected end of header (byte offset 16)"),
        (b"P6 1 #\r", "unexpected end of header (byte offset 7)"),
        (b"P6\n#", "unexpected end of header (byte offset 4)"),
        (b"P6 x1 1 255\n", "invalid width token b'x1' (byte offset 3)"),
        (b"P6 1 -1 255\n", "invalid height token b'-1' (byte offset 5)"),
        (b"P6 1 1\n#c\n2#55\n", "invalid maxval token b'2#55' (byte offset 10)"),
        (b"P6 " + b"9" * 5000 + b" 1 255\n", "width token of 5000 digits (byte offset 3)"),
        (b"P6 1\t" + b"9" * 4301 + b" 255\n", "height token of 4301 digits (byte offset 5)"),
        (b"P6 1 1 " + b"2" * 4400 + b"\n", "maxval token of 4400 digits (byte offset 7)"),
        (b"P6 0 1 255\n", "bad dimensions 0x1 (byte offset 10)"),
        (b"P5 2 00 255 \x00", "bad dimensions 2x0 (byte offset 11)"),
        (b"P5 1 1 65535\n\x00\x00", "unsupported maxval 65535 (byte offset 12)"),
        (b"P5 1 1 #c\n0\n\x00", "unsupported maxval 0 (byte offset 11)"),
        (b"P6 1 1 255", "missing whitespace before payload (byte offset 10)"),
    ])
    def test_header_error_names_its_offset(self, data, message):
        for buffer in (data, memoryview(data)):
            with pytest.raises(NetpbmError) as raised:
                decode_netpbm(buffer)
            assert str(raised.value) == message
            assert raised.value.offset == int(message.rsplit(" ", 1)[1][:-1])

    @given(st.one_of(
        st.binary(),
        st.lists(st.sampled_from([b"P5", b"P6", b" ", b"\n", b"\r", b"#", b"0", b"1", b"2",
                                  b"255", b"65535", b"x", b"\x00", b"\xff"])).map(b"".join),
    ))
    def test_arbitrary_bytes_raise_only_netpbm_error(self, data):
        outcomes = []
        for buffer in (data, memoryview(data)):
            try:
                outcomes.append(decode_netpbm(buffer))
            except NetpbmError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


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


def test_image_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Image(np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3), np.uint8))


@pytest.mark.parametrize("cls, shape", [(Image, (2, 3, 3)), (GrayImage, (2, 3))])
def test_image_and_gray_share_their_checks(cls, shape):
    for bad in [(3,), shape[:2] + (4,), (0,) + shape[1:], shape + (1,)]:
        with pytest.raises(ValueError, match="expected"):
            cls(np.zeros(bad, np.uint8))
    for value in (-1, 0, 256):  # in range or not
        with pytest.raises(ValueError, match="^expected uint8 pixels, got int64$"):
            cls(np.full(shape, value, np.int64))
    source = (np.arange(np.prod(shape)).reshape(shape) * 9).astype(np.uint8)
    image = cls(source)
    array = image.pixels
    assert array.dtype == np.uint8 and np.array_equal(array, source)
    assert not array.flags.writeable and not np.shares_memory(array, source)
    assert (image.width, image.height) == (3, 2)
    assert image == cls(source.copy()) and image != cls(source // 2)
    assert Image(np.zeros((2, 3, 3), np.uint8)) != GrayImage(np.zeros((2, 3), np.uint8))


@pytest.mark.parametrize("pixels, dtype", [(np.full((2, 2, 3), 1.7), "float64"),
                                           (np.full((2, 2, 3), np.nan), "float64"),
                                           (np.ones((2, 2, 3), bool), "bool")])
def test_refuses_float_and_bool_pixels(pixels, dtype):
    # no rounding of 1.7 to 1 and no NaN cast to 0: only uint8 is a pixel
    with pytest.raises(ValueError, match=f"^expected uint8 pixels, got {dtype}$"):
        Image(pixels)


class TestDecodeBuffers:
    """A payload in ``bytes`` is viewed, not copied; any input that can still
    change is copied."""

    @pytest.mark.parametrize("image", [Image(np.arange(18, dtype=np.uint8).reshape(2, 3, 3)),
                                       GrayImage(np.arange(6, dtype=np.uint8).reshape(2, 3))])
    def test_decoded_bytes_are_viewed_read_only(self, image):
        data = encode_netpbm(image)
        array = decode_netpbm(data).pixels
        assert not array.flags.writeable
        assert np.shares_memory(array, np.frombuffer(data, np.uint8))
        assert decode_netpbm(data) == image == decode_netpbm(memoryview(data))

    def test_mutable_buffers_are_copied(self):
        image = Image(np.arange(18, dtype=np.uint8).reshape(2, 3, 3))
        data = bytearray(encode_netpbm(image))
        decoded = [decode_netpbm(data), decode_netpbm(memoryview(data))]
        viewed = Image(np.frombuffer(memoryview(data), np.uint8, 18, len(data) - 18).reshape(2, 3, 3))
        data[-1] ^= 0xFF
        assert decoded == [image, image] and viewed == image

    def test_writable_arrays_and_their_views_are_copied(self):
        source = np.zeros((4, 3, 3), np.uint8)
        images = [Image(source), Image(source[1:3]), Image(source[:, ::-1])]
        source[:] = 7
        assert all(not img.pixels.any() for img in images)


def test_pixels_are_immutable():
    for img in (Image(np.zeros((2, 2, 3), np.uint8)), GrayImage(np.zeros((2, 2), np.uint8))):
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1
        for name in ("pixels", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(img, name, img.pixels)

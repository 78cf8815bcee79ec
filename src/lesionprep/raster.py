"""8-bit raster images, a binary netpbm (P5/P6) codec, and grayscale conversion.

Images are thin immutable wrappers around uint8 numpy arrays. The codec is
bit-exact: encoding is canonical (single-space header, maxval 255, one newline
before the payload) and decode(encode(x)) == x for every valid raster.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_SKIP = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*)*")  # whitespace and comments


class NetpbmError(ValueError):
    """Malformed netpbm stream. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class Image:
    """RGB raster, 8 bits per channel. ``pixels`` has shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"expected (h, w, 3) pixel array, got shape {p.shape}")
        if p.dtype != np.uint8:
            if p.min() < 0 or p.max() > 255:
                raise ValueError("channel values must lie in [0, 255]")
            p = p.astype(np.uint8)
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "pixels", p)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        return isinstance(other, Image) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel raster. ``values`` has shape (height, width), uint8."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"expected (h, w) value array, got shape {v.shape}")
        if v.dtype != np.uint8:
            if v.min() < 0 or v.max() > 255:
                raise ValueError("values must lie in [0, 255]")
            v = v.astype(np.uint8)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return isinstance(other, GrayImage) and np.array_equal(self.values, other.values)


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, after any whitespace and
    ``#`` comments (which run to the next CR or LF)."""
    n = len(data)
    pos = _SKIP.match(data, pos).end()
    if pos >= n:
        raise NetpbmError("unexpected end of header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, end = _read_token(data, pos)
    if not token.isdigit():
        raise NetpbmError(f"invalid {what} token {token!r}", end - len(token))
    return int(token), end


def decode_netpbm(data: bytes) -> Image | GrayImage:
    """Decode a binary P6 (color) or P5 (gray) stream with maxval 255.

    Pixel values are taken verbatim; no rescaling. Raises NetpbmError with the
    offending byte offset on malformed magic, non-255 maxval, or short payload.
    """
    if len(data) < 2 or data[:1] != b"P":
        raise NetpbmError(f"bad magic {data[:2]!r}", 0)
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"unsupported magic {magic!r}", 0)
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval}", pos)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise NetpbmError("missing whitespace before payload", pos)
    pos += 1
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise NetpbmError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            len(data),
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    if magic == b"P6":
        return Image(arr.reshape(height, width, 3))
    return GrayImage(arr.reshape(height, width))


def encode_netpbm(image: Image | GrayImage) -> bytes:
    """Encode to the canonical binary form: 'P6 w h 255\\n' + raw payload."""
    if isinstance(image, Image):
        magic, payload = b"P6", image.pixels.tobytes()
    elif isinstance(image, GrayImage):
        magic, payload = b"P5", image.values.tobytes()
    else:
        raise TypeError(f"cannot encode {type(image).__name__}")
    header = b"%s %d %d 255\n" % (magic, image.width, image.height)
    return header + payload


def to_grayscale(image: Image) -> GrayImage:
    """BT.601 luma: round(0.299 R + 0.587 G + 0.114 B), round half up."""
    p = image.pixels.astype(np.float64)
    y = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
    return GrayImage(np.clip(np.floor(y + 0.5), 0, 255).astype(np.uint8))

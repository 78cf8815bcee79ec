"""8-bit raster images and a binary netpbm (P5/P6) codec.

An Image (RGB) or a GrayImage is a frozen dataclass with one field,
``pixels``: a read-only uint8 numpy array, made only from uint8 arrays. The
codec is bit-exact: encoding is canonical (single-space header, maxval 255,
one newline before payload) and decode(encode(x)) == x for any valid raster.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# width, height and maxval, each after whitespace and ``#`` comments (which run
# to the next CR or LF) and up to the next whitespace; then the one whitespace
# byte before the payload. An empty token group means the header ended there.
_FIELD = rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*)*([^ \t\n\r\x0b\x0c]*)"
_HEADER = re.compile(_FIELD * 3 + rb"([ \t\n\r\x0b\x0c]?)")


class NetpbmError(ValueError):
    """Malformed netpbm stream. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class _Raster:
    """What Image and GrayImage share: ``pixels``, a read-only uint8 array of
    shape (height, width) + ``_PIXEL``, at least 1x1 (any other dtype is a
    ValueError). A uint8 array whose base chain ends in ``bytes``
    (``decode_netpbm``'s view of a file read) is kept without a copy, since
    ``bytes`` cannot change; any other input (a writable array or a view of
    one, a ``bytearray``, a ``memoryview``) is copied."""

    pixels: np.ndarray
    _PIXEL = ()

    def __post_init__(self):
        a = np.asarray(self.pixels)
        if a.ndim < 2 or a.shape[2:] != self._PIXEL or 0 in a.shape[:2]:
            dims = ", ".join(["h", "w", *map(str, self._PIXEL)])
            raise ValueError(f"expected ({dims}) array, got shape {a.shape}")
        if a.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {a.dtype}")
        base = a
        while isinstance(base, np.ndarray):
            base = base.base
        if not isinstance(base, bytes):
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "pixels", a)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        return isinstance(other, _Raster) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True, eq=False)
class Image(_Raster):
    """RGB raster, 8 bits per channel: ``pixels`` has shape (height, width, 3)."""

    _PIXEL = (3,)


@dataclass(frozen=True, eq=False)
class GrayImage(_Raster):
    """Single-channel raster: ``pixels`` has shape (height, width)."""


def _header_int(match: re.Match, group: int, what: str) -> int:
    token, start = match.group(group), match.start(group)  # bytes for any bytes-like input
    if not token:
        raise NetpbmError("unexpected end of header", start)
    if not token.isdigit():
        raise NetpbmError(f"invalid {what} token {token!r}", start)
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise NetpbmError(f"{what} token of {len(token)} digits", start) from None


def decode_netpbm(data: bytes) -> Image | GrayImage:
    """Decode a binary P6 (color) or P5 (gray) stream with maxval 255 from
    ``bytes`` or any other bytes-like buffer.

    Pixel values are taken verbatim; no rescaling. Raises NetpbmError with the
    offending byte offset on malformed magic, non-255 maxval, or short payload.
    """
    magic = bytes(data[:2])
    if len(magic) < 2 or magic[:1] != b"P":
        raise NetpbmError(f"bad magic {magic!r}", 0)
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"unsupported magic {magic!r}", 0)
    header = _HEADER.match(data, 2)
    width, height, maxval = (_header_int(header, group, what)
                             for group, what in enumerate(("width", "height", "maxval"), 1))
    pos = header.end(3)
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval}", pos)
    if not header.group(4):
        raise NetpbmError("missing whitespace before payload", pos)
    pos += 1
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    if len(data) - pos < expected:
        raise NetpbmError(f"truncated payload: expected {expected} bytes, got {len(data) - pos}",
                          len(data))
    arr = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    if magic == b"P6":
        return Image(arr.reshape(height, width, 3))
    return GrayImage(arr.reshape(height, width))


def encode_netpbm(image: Image | GrayImage) -> bytes:
    """Encode to the canonical binary form: 'P6 w h 255\\n' + raw payload."""
    if not isinstance(image, _Raster):
        raise TypeError(f"cannot encode {type(image).__name__}")
    magic = b"P6" if isinstance(image, Image) else b"P5"
    return b"%s %d %d 255\n" % (magic, image.width, image.height) + image.pixels.tobytes()

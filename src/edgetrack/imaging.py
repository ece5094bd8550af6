"""Image containers, grayscale conversion, and binary PPM/PGM file I/O.

Grayscale conversion uses the integer luma approximation
``(77 R + 150 G + 29 B) >> 8`` so results are identical across numeric
backends.  RGB565 is an in-memory camera format only: its channels are
expanded to 8 bits by bit replication before the luma step, and the file
formats on disk are always 8-bit PGM (P5) and PPM (P6), maxval 255.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RGB888 = "RGB888"
RGB565 = "RGB565"


class ImageFormatError(ValueError):
    """An image file or pixel buffer does not match the expected format."""


@dataclass(frozen=True)
class GrayImage:
    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.uint8))
        if self.pixels.ndim != 2 or 0 in self.pixels.shape:
            raise ImageFormatError("gray image must be a non-empty 2-D array")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class ColorImage:
    pixels: np.ndarray  # RGB888: (h, w, 3) uint8; RGB565: (h, w) uint16
    format: str = RGB888

    def __post_init__(self):
        if self.format == RGB888:
            object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.uint8))
            if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
                raise ImageFormatError("RGB888 image must be (h, w, 3)")
        elif self.format == RGB565:
            object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.uint16))
            if self.pixels.ndim != 2:
                raise ImageFormatError("RGB565 image must be (h, w) packed uint16")
        else:
            raise ImageFormatError(f"unknown color format {self.format!r}")
        if 0 in self.pixels.shape:
            raise ImageFormatError("image must be non-empty")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def expand_rgb565(packed: np.ndarray) -> np.ndarray:
    """Unpack RGB565 to (h, w, 3) uint8 by bit replication.

    Replication maps full-scale to full-scale exactly (31 -> 255, 63 -> 255),
    which zero-padding would not.
    """
    p = np.asarray(packed, dtype=np.uint16)
    r5 = (p >> 11) & 0x1F
    g6 = (p >> 5) & 0x3F
    b5 = p & 0x1F
    r8 = (r5 << 3) | (r5 >> 2)
    g8 = (g6 << 2) | (g6 >> 4)
    b8 = (b5 << 3) | (b5 >> 2)
    return np.stack([r8, g8, b8], axis=-1).astype(np.uint8)


def to_gray(img: ColorImage) -> GrayImage:
    """Integer-luma grayscale conversion of either color format."""
    if img.format == RGB565:
        rgb = expand_rgb565(img.pixels)
    else:
        rgb = img.pixels
    c = rgb.astype(np.uint32)
    luma = (77 * c[..., 0] + 150 * c[..., 1] + 29 * c[..., 2]) >> 8
    return GrayImage(luma.astype(np.uint8))


# ---------------------------------------------------------------------------
# Binary PNM I/O.

def _read_header_tokens(data: bytes, count: int):
    """PNM header tokens after the magic: ints separated by whitespace/comments."""
    tokens = []
    pos = 2  # past the 2-byte magic
    while len(tokens) < count:
        if pos >= len(data):
            raise ImageFormatError("truncated image header")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            eol = data.find(b"\n", pos)
            if eol == -1:
                raise ImageFormatError("truncated image header")
            pos = eol + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            try:
                tokens.append(int(data[pos:end]))
            except ValueError:
                raise ImageFormatError(
                    f"bad header token {data[pos:end]!r}"
                ) from None
            pos = end
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageFormatError("missing whitespace after image header")
    return tokens, pos + 1


def load_image(path):
    """Load a binary PGM (P5) as GrayImage or PPM (P6) as RGB888 ColorImage."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise ImageFormatError("file too short for a PNM header")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r}; need binary P5 or P6")
    (width, height, maxval), offset = _read_header_tokens(data, 3)
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"bad image dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}; only 8-bit supported")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = data[offset:offset + expected]
    if len(payload) != expected:
        raise ImageFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return GrayImage(arr.reshape(height, width))
    return ColorImage(arr.reshape(height, width, 3), RGB888)


def save_image(img, path) -> None:
    """Write GrayImage as binary PGM or RGB888 ColorImage as binary PPM."""
    if isinstance(img, GrayImage):
        magic, pixels = b"P5", img.pixels
    elif isinstance(img, ColorImage) and img.format == RGB888:
        magic, pixels = b"P6", img.pixels
    elif isinstance(img, ColorImage):
        raise ImageFormatError("RGB565 is in-memory only; expand before saving")
    else:
        raise ImageFormatError(f"cannot save object of type {type(img).__name__}")
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pixels).tobytes())


def frame_filename(index: int) -> str:
    """On-disk name of a sequence frame: zero-padded, PGM."""
    return f"frame_{index:06d}.pgm"

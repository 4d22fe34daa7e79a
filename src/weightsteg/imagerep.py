"""Grayscale image representations of weight bits, plus resize/normalize/PGM io.

Images are plain numpy arrays: uint8 (h, w) before normalization, float64 in
[0, 1] after.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .errors import FormatError
from .weights_io import CHUNK_WORDS, DType, FileWords, WeightTensor


def _fourpart_source(source):
    """The four-part layout as a gather: (height, width, pixels(rows, cols)).

    Each 32-bit weight splits into bytes p1..p4 from most to least
    significant. Every plane is zero-padded to the next square, reshaped
    row-major, and the planes are laid out [[p1, p2], [p3, p4]]. ``pixels``
    returns the uint8 block at ``rows x cols`` and reads only the words it
    shows, through ``source.take(flat_indices)``: source is a WeightTensor,
    a weights_io.FileWords that reads them from the file, or anything else
    with dtype, n and take (such as steg.LsbWords, the attacked words of a
    plain or a fill attack).
    """
    if source.dtype is not DType.F32:
        raise FormatError(
            f"grayscale-fourpart requires float32 weights, got {source.dtype.value}"
        )
    n = source.n
    if n == 0:
        raise ValueError("cannot build an image from an empty tensor")
    side = math.isqrt(n - 1) + 1  # ceil(sqrt(n))

    def pixels(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # the four planes show the same words: gather each distinct one once
        r, r_at = np.unique(rows % side, return_inverse=True)
        c, c_at = np.unique(cols % side, return_inverse=True)
        if len(r) == side and len(c) == side:
            return every_word().take(rows, axis=0).take(cols, axis=1)
        flat = r[:, None] * side + c[None, :]
        padding = flat >= n
        words = source.take(np.minimum(flat, n - 1, out=flat))
        words[padding] = 0
        value = words.take(r_at, axis=0).take(c_at, axis=1)
        # planes p1..p4 hold the bytes at shifts 24, 16, 8, 0
        value >>= np.where(rows < side, 16, 0).astype(np.uint32)[:, None]
        value >>= np.where(cols < side, 8, 0).astype(np.uint32)[None, :]
        return value.astype(np.uint8)

    def every_word():
        # the full image when every word is shown: zero-pad the words, a chunk
        # at a time, and copy each plane's bytes out of them, with no per-pixel
        # word or index
        words = np.zeros(side * side, dtype=source.dtype.word_dtype)
        for lo in range(0, n, CHUNK_WORDS):
            hi = min(n, lo + CHUNK_WORDS)
            words[lo:hi] = source.take(np.arange(lo, hi))
        planes = words.view(np.uint8).reshape(side, side, 4)  # little-endian: p1 is byte 3
        image = np.empty((2 * side, 2 * side), dtype=np.uint8)
        for byte, (top, left) in zip((3, 2, 1, 0), ((0, 0), (0, side), (side, 0), (side, side))):
            image[top : top + side, left : left + side] = planes[:, :, byte]
        return image

    return 2 * side, 2 * side, pixels


def grayscale_fourpart(tensor: WeightTensor) -> np.ndarray:
    """Tile the four byte planes of a float32 tensor into one square image."""
    height, width, pixels = _fourpart_source(tensor)
    return pixels(np.arange(height), np.arange(width))


REPRESENTATIONS = {"grayscale-fourpart": grayscale_fourpart}
_SOURCES = {"grayscale-fourpart": _fourpart_source}


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"expected a 2-D uint8 image, got {img.dtype} {img.shape}")
    return img


def _bilinear(src_h: int, src_w: int, target_h: int, target_w: int, pixels) -> np.ndarray:
    """Bilinear resize of the source image that ``pixels(rows, cols)`` reads from.

    Source coordinate for output pixel d is (d + 0.5) * src/dst - 0.5,
    clamped to the source range. Interpolation is linear in x first, then
    in y, in float64; reimplementations must keep that order, since exact
    .5 rounding boundaries depend on it. Only the 2*target_h rows by
    2*target_w columns that the taps touch are read.
    """
    if min(src_h, src_w, target_h, target_w) < 1:
        raise ValueError("image dimensions must be >= 1")

    sy = np.clip((np.arange(target_h) + 0.5) * (src_h / target_h) - 0.5, 0.0, src_h - 1.0)
    sx = np.clip((np.arange(target_w) + 0.5) * (src_w / target_w) - 0.5, 0.0, src_w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (sy - y0)[:, None]
    wx = (sx - x0)[None, :]

    pix = pixels(np.concatenate([y0, y1]), np.concatenate([x0, x1])).astype(np.float64)
    h, w = target_h, target_w
    top = pix[:h, :w] * (1.0 - wx) + pix[:h, w:] * wx
    bottom = pix[h:, :w] * (1.0 - wx) + pix[h:, w:] * wx
    value = top * (1.0 - wy) + bottom * wy
    return np.rint(value).astype(np.uint8)


def resize(img: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers; ties round to even."""
    img = _check_image(img)
    return _bilinear(*img.shape, target_h, target_w, lambda rows, cols: img[rows[:, None], cols])


def render(tensor: WeightTensor | FileWords, representation: str, size: int) -> np.ndarray:
    """The model image resized to size x size, reading only the tapped words.

    Equal to ``resize(REPRESENTATIONS[representation](tensor), size, size)``
    but reads 4 * size**2 words, whatever the number of weights. tensor may
    be a FileWords (weights_io.open_words), which reads those words from
    the file.
    """
    source = _SOURCES.get(representation)
    if source is None:
        raise ValueError(
            f"unsupported representation {representation!r}; known: {sorted(_SOURCES)}"
        )
    height, width, pixels = source(tensor)
    return _bilinear(height, width, size, size, pixels)


def normalize(img: np.ndarray) -> np.ndarray:
    """Map 0-255 pixel values to real values in [0, 1]."""
    return _check_image(img).astype(np.float64) / 255.0


def write_pgm(img: np.ndarray, path: str | Path) -> None:
    """Write a binary PGM (P5, maxval 255)."""
    img = _check_image(img)
    h, w = img.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    # header tokens may be separated by whitespace and '#' comments
    pos = 0
    tokens = []
    while len(tokens) < 4:
        match = re.compile(rb"\s*(?:#[^\n]*\s*)*(\S+)").match(data, pos)
        if not match:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(match.group(1))
        pos = match.end()
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise FormatError(f"{path}: non-numeric PGM header fields") from None
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad PGM dimensions {w}x{h}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    pixels = data[pos + 1 : pos + 1 + w * h]  # single whitespace byte after maxval
    if len(pixels) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).copy()

"""The grayscale-fourpart image of weight bits, plus resize/normalize/PGM io.

One function, _planes, lays words out as the image's four byte planes:
grayscale_fourpart lays out every word, and render only the words its
resize taps, which KeptWords holds for renders after a file is closed.
Images are plain numpy arrays: uint8 (h, w) before normalization, float64
in [0, 1] after.
"""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path

import numpy as np

from .errors import FormatError
from .weights_io import CHUNK_WORDS, DType, Words, _check_words

# the one image of a model, as manifests and detectors name it
REPRESENTATION = "grayscale-fourpart"


def _taps(src_h: int, src_w: int, target_h: int, target_w: int):
    """The bilinear taps of a src_h x src_w to target_h x target_w resize.

    Source coordinate for output pixel d is (d + 0.5) * src/dst - 0.5,
    clamped to the source range. Returns the 2*target_h tapped rows (every
    y0, then every y1), the 2*target_w tapped columns (x0, then x1), and the
    weights wy (target_h, 1) and wx (1, target_w) of the second tap.
    """
    if min(src_h, src_w, target_h, target_w) < 1:
        raise ValueError("image dimensions must be >= 1")
    sy = np.clip((np.arange(target_h) + 0.5) * (src_h / target_h) - 0.5, 0.0, src_h - 1.0)
    sx = np.clip((np.arange(target_w) + 0.5) * (src_w / target_w) - 0.5, 0.0, src_w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    rows = np.concatenate([y0, np.minimum(y0 + 1, src_h - 1)])
    cols = np.concatenate([x0, np.minimum(x0 + 1, src_w - 1)])
    return rows, cols, (sy - y0)[:, None], (sx - x0)[None, :]


def _blend(pix: np.ndarray, wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """The resized image from the tapped pixels, pix[rows[:, None], cols] of _taps.

    Interpolation is linear in x first, then in y, in float64;
    reimplementations must keep that order, since exact .5 rounding
    boundaries depend on it. The uint8 pixels are exact in float64, so
    multiplying them as they are gives the products of the converted image.
    """
    h, w = wy.shape[0], wx.shape[1]
    wx0 = 1.0 - wx
    top = np.multiply(pix[:h, :w], wx0)
    top += pix[:h, w:] * wx
    bottom = np.multiply(pix[h:, :w], wx0)
    bottom += pix[h:, w:] * wx
    top *= 1.0 - wy
    bottom *= wy
    top += bottom
    return np.rint(top, out=top).astype(np.uint8)


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError(f"expected a 2-D uint8 image, got {img.dtype} {img.shape}")
    return img


def resize(img: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers; ties round to even."""
    img = _check_image(img)
    rows, cols, wy, wx = _taps(*img.shape, target_h, target_w)
    return _blend(img[rows[:, None], cols], wy, wx)


def _fourpart_side(source: Words) -> tuple[int, int]:
    """(n, side) of the four-part image of source: its words zero-padded to
    side x side, the next square, row-major."""
    if source.dtype is not DType.F32:
        raise FormatError(
            f"grayscale-fourpart requires float32 weights, got {source.dtype.value}"
        )
    n = source.n
    _check_words(n)
    return n, math.isqrt(n - 1) + 1  # ceil(sqrt(n))


def _planes(grid: np.ndarray) -> np.ndarray:
    """An h x w grid of 32-bit words as its four byte planes, a 2h x 2w image.

    Each word splits into bytes p1..p4 from most to least significant, and
    the planes are laid out [[p1, p2], [p3, p4]]. The bytes are copied plane
    by plane, with no per-pixel word or index.
    """
    h, w = grid.shape
    planes = grid.view(np.uint8).reshape(h, w, 4)  # little-endian: p1 is byte 3
    image = np.empty((2 * h, 2 * w), dtype=np.uint8)
    for byte, (top, left) in zip((3, 2, 1, 0), ((0, 0), (0, w), (h, 0), (h, w))):
        image[top : top + h, left : left + w] = planes[:, :, byte]
    return image


def grayscale_fourpart(tensor: Words) -> np.ndarray:
    """Tile the four byte planes of the float32 words of a source into one
    square image. The zero-padded words are gathered CHUNK_WORDS at a time,
    by slices, with no index grid over them."""
    n, side = _fourpart_side(tensor)
    words = np.zeros(side * side, dtype=tensor.dtype.word_dtype)
    for lo in range(0, n, CHUNK_WORDS):
        hi = min(n, lo + CHUNK_WORDS)
        words[lo:hi] = tensor.take(np.arange(lo, hi))
    return _planes(words.reshape(side, side))


@functools.lru_cache(maxsize=1)  # one plan serves every model of a size, and its renders
def _render_plan(n: int, size: int):
    """Of render(source, size), source float32 of n > 0 words: the indices of
    the words it reads, strictly increasing; the shape of the word sub-grid
    they fill, row-major, the rest padding past n; the rows and columns of its
    four-plane image the resize taps; its weights wy, wx; all shared, read-only."""
    side = math.isqrt(n - 1) + 1  # as _fourpart_side
    rows, cols, wy, wx = _taps(2 * side, 2 * side, size, size)
    # the four planes show the same words: gather each distinct one once
    r, r_at = np.unique(rows % side, return_inverse=True)
    c, c_at = np.unique(cols % side, return_inverse=True)
    # word rows by word columns, row-major: strictly increasing, since c < side,
    # so the padding past the last word is a suffix and the rest one sorted take
    flat = (r[:, None] * side + c).reshape(-1)
    # a tap in the bottom (right) half of the full image is one in the sub-grid's
    pix_rows, pix_cols = r_at + len(r) * (rows >= side), c_at + len(c) * (cols >= side)
    tapped = flat[: np.searchsorted(flat, n)]
    for array in (tapped, pix_rows, pix_cols, wy, wx):
        array.flags.writeable = False
    return tapped, (len(r), len(c)), pix_rows, pix_cols, wy, wx


def render(source: Words, size: int) -> np.ndarray:
    """The model image resized to size x size, reading only the tapped words.

    Equal to ``resize(grayscale_fourpart(source), size, size)`` but asks
    source once, for words in strictly increasing flat order: at most
    size**2 at an even size and 4 * size**2 at an odd one (an even size's
    taps of the lower half repeat the upper half's), whatever the number of
    weights.
    """
    tapped, grid, pix_rows, pix_cols, wy, wx = _render_plan(_fourpart_side(source)[0], size)
    words = np.zeros(math.prod(grid), dtype=source.dtype.word_dtype)
    words[: len(tapped)] = source.take(tapped)
    image = _planes(words.reshape(grid))
    return _blend(image.take(pix_rows, axis=0).take(pix_cols, axis=1), wy, wx)


class KeptWords:
    """The words render(source, size) reads from source, kept once source is
    closed: a Words source of its dtype and n whose take answers only those
    indices (one array that kept sources of one n and size share, matched
    with no search), so renders of it and of its attacks at that size equal
    the source's. A source that render refuses raises here what it would."""

    def __init__(self, source: Words, size: int):
        self.dtype, self.n, self.size = source.dtype, source.n, size
        self._at = _render_plan(_fourpart_side(source)[0], size)[0]
        self._words = source.take(self._at)

    def take(self, flat_indices) -> np.ndarray:
        """The kept words, when flat_indices are the indices render reads."""
        if not np.array_equal(flat_indices, self._at):
            raise ValueError(
                f"only the words of a {self.size} x {self.size} render were kept; "
                "load the models at the size they render at"
            )
        return self._words.copy()


def normalize(img: np.ndarray) -> np.ndarray:
    """Map 0-255 pixel values to real values in [0, 1]."""
    return _normalize(img)


def _normalize(img: np.ndarray) -> np.ndarray:
    # normalize's body, which scan's reads call directly: they run while pool
    # threads embed, and a tracer that wraps normalize in tracemalloc.start()
    # and stop() crashed CPython 3.11.7 when another thread allocated meanwhile
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
